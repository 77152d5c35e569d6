import itertools
import json
import math

import numpy as np
import pytest

from metric_grouper.errors import (
    FormatError,
    UnknownConceptError,
    UnknownWordError,
    ZeroProbabilityError,
)
from metric_grouper.lexicon import (
    JCN_CAP,
    JCN_EPS,
    build_taxonomy,
    incompatible,
    information_content,
    jcn_similarity,
    lcs,
    load_taxonomy,
    save_taxonomy,
)

LN2 = math.log(2.0)
LN8 = math.log(8.0)

FIXTURE_WORDS = ("picture", "image", "photo", "display",
                 "sound", "audio", "volume", "speaker")


class TestInformationContent:
    def test_root_is_zero(self, fixture_taxonomy):
        assert information_content("root", fixture_taxonomy) == 0.0

    def test_half_total_is_ln2(self, fixture_taxonomy):
        # 'visual' propagates 4 of the 8 leaf counts
        assert information_content("visual", fixture_taxonomy) == pytest.approx(LN2)

    def test_unit_leaf_is_ln8(self, fixture_taxonomy):
        # hand propagation: leaf count 1, total 8
        assert information_content("leaf-picture", fixture_taxonomy) == pytest.approx(LN8)

    def test_matches_formula_exactly(self, fixture_taxonomy):
        tax = fixture_taxonomy
        for c in sorted(tax.concepts):
            want = -math.log(tax.propagated[c] / tax.total) + 0.0
            assert information_content(c, tax) == want

    def test_unknown_concept(self, fixture_taxonomy):
        with pytest.raises(UnknownConceptError):
            information_content("nope", fixture_taxonomy)

    def test_zero_propagated_count(self):
        tax = build_taxonomy([
            {"concept": "r", "parents": [], "count": 1.0},
            {"concept": "z", "parents": ["r"], "count": 0.0},
            {"word": "zeta", "concepts": ["z"]},
        ])
        with pytest.raises(ZeroProbabilityError):
            information_content("z", tax)

    def test_monotone_toward_root(self, fixture_taxonomy):
        tax = fixture_taxonomy
        for c in sorted(tax.concepts):
            ic = information_content(c, tax)
            for p in tax.parents[c]:
                assert information_content(p, tax) <= ic + 1e-12


class TestLcs:
    def test_concept_subsumes_itself(self, fixture_taxonomy):
        assert lcs("leaf-photo", "leaf-photo", fixture_taxonomy) == "leaf-photo"

    def test_cross_subtree_is_root(self, fixture_taxonomy):
        assert lcs("leaf-picture", "leaf-sound", fixture_taxonomy) == "root"

    def test_siblings_share_parent(self, fixture_taxonomy):
        # brute force agrees: the parent has the highest IC among common ancestors
        assert lcs("leaf-picture", "leaf-image", fixture_taxonomy) == "visual-a"

    def test_result_is_common_ancestor_for_all_pairs(self, fixture_taxonomy):
        tax = fixture_taxonomy
        for c1, c2 in itertools.combinations(sorted(tax.concepts), 2):
            result = lcs(c1, c2, tax)
            common = tax.ancestors(c1) & tax.ancestors(c2)
            assert result in common
            best_ic = max(information_content(c, tax) for c in common
                          if tax.propagated[c] > 0)
            assert information_content(result, tax) == pytest.approx(best_ic)


class TestJcn:
    def test_identical_phrase_hits_cap(self, fixture_taxonomy):
        assert jcn_similarity("picture", "picture", fixture_taxonomy) == JCN_CAP

    def test_cross_subtree_leaves(self, fixture_taxonomy):
        expected = 1.0 / (2 * LN8)
        assert jcn_similarity("picture", "sound", fixture_taxonomy) == pytest.approx(expected)
        assert expected == pytest.approx(0.2404, abs=1e-4)

    def test_siblings(self, fixture_taxonomy):
        expected = 1.0 / (2 * LN8 - 2 * math.log(4.0))
        assert jcn_similarity("picture", "image", fixture_taxonomy) == pytest.approx(expected)
        assert expected == pytest.approx(0.7213, abs=1e-4)

    def test_symmetry_over_all_word_pairs(self, fixture_taxonomy):
        for w1, w2 in itertools.combinations(FIXTURE_WORDS, 2):
            assert jcn_similarity(w1, w2, fixture_taxonomy) == pytest.approx(
                jcn_similarity(w2, w1, fixture_taxonomy))

    def test_positive_and_capped(self, fixture_taxonomy):
        for w1, w2 in itertools.product(FIXTURE_WORDS, repeat=2):
            sim = jcn_similarity(w1, w2, fixture_taxonomy)
            assert 0 < sim <= JCN_CAP

    def test_unknown_word(self, fixture_taxonomy):
        with pytest.raises(UnknownWordError):
            jcn_similarity("gizmo", "picture", fixture_taxonomy)

    def test_multiword_uses_head_token(self, fixture_taxonomy):
        direct = jcn_similarity("picture", "sound", fixture_taxonomy)
        assert jcn_similarity("crisp picture", "sound", fixture_taxonomy) == pytest.approx(direct)

    def test_multiword_falls_back_to_any_token(self, fixture_taxonomy):
        direct = jcn_similarity("picture", "sound", fixture_taxonomy)
        assert jcn_similarity("picture gizmo", "sound", fixture_taxonomy) == pytest.approx(direct)


def incompatible_pairs(phrases, tax, eta):
    left, right = incompatible(phrases, tax, eta)
    return list(zip(left.tolist(), right.tolist()))


def reference_jcn(cs1, cs2, tax):
    """Jcn of two concept sets by nested loops over concept pairs through ``lcs``."""
    best = 0.0
    for c1 in sorted(cs1):
        for c2 in sorted(cs2):
            denom = (information_content(c1, tax) + information_content(c2, tax)
                     - 2.0 * information_content(lcs(c1, c2, tax), tax))
            sim = JCN_CAP if denom <= JCN_EPS else min(JCN_CAP, 1.0 / denom)
            if sim > best:
                best = sim
    return best


def reference_similarities(phrases, tax):
    """(i, j, similarity) of every mapped pair i < j, in nested-loop order."""
    concepts = {}
    for phrase in phrases:
        try:
            concepts[phrase] = tax.phrase_concepts(phrase)
        except UnknownWordError:
            pass
    return [(i, j, reference_jcn(concepts[p], concepts[q], tax))
            for i, p in enumerate(phrases) for j, q in enumerate(phrases)
            if i < j and p in concepts and q in concepts]


def random_taxonomy(rng, n_concepts=18, n_words=12):
    """A random DAG: multi-parent and zero-count concepts, words on several concepts.

    ``twin`` and ``w00`` share concept ``c01``, so their similarity is the cap.
    """
    name = "c{:02d}".format
    records = [{"concept": name(0), "parents": [], "count": 0},
               {"concept": name(1), "parents": [name(0)], "count": 2}]
    for k in range(2, n_concepts):
        parents = rng.choice(k, size=min(k, int(rng.integers(1, 4))), replace=False)
        count = 0 if rng.random() < 0.35 else int(rng.integers(1, 6))
        records.append({"concept": name(k), "parents": [name(p) for p in parents],
                        "count": count})
    for w in range(n_words):
        picked = rng.choice(n_concepts, size=int(rng.integers(1, 4)), replace=False)
        records.append({"word": f"w{w:02d}", "concepts": [name(c) for c in picked]})
    records.append({"word": "twin", "concepts": [name(1)]})
    records.append({"word": "w00", "concepts": [name(1)]})
    return build_taxonomy(records)


class TestIncompatible:
    def test_identical_never_incompatible(self, fixture_taxonomy):
        # the same phrase twice, and two phrases on the same head concept
        assert incompatible_pairs(["picture", "picture"], fixture_taxonomy, 0.3) == []
        assert incompatible_pairs(["crisp picture", "picture"], fixture_taxonomy, 0.3) == []

    def test_cross_subtree_at_eta_03(self, fixture_taxonomy):
        assert incompatible_pairs(["picture", "sound"], fixture_taxonomy, 0.3) == [(0, 1)]

    def test_siblings_at_eta_03(self, fixture_taxonomy):
        assert incompatible_pairs(["image", "picture"], fixture_taxonomy, 0.3) == []

    def test_unknown_word_is_conservative(self, fixture_taxonomy):
        assert incompatible_pairs(["gizmo", "sound"], fixture_taxonomy, 0.3) == []
        assert incompatible_pairs(["gizmo", "picture", "sound"], fixture_taxonomy,
                                  0.3) == [(1, 2)]

    def test_eta_must_be_positive(self, fixture_taxonomy):
        for eta in (0.0, -0.3, math.nan):
            with pytest.raises(ValueError):
                incompatible(["picture", "sound"], fixture_taxonomy, eta)

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(2016)
        seen = {"cap": 0, "tie": 0, "unmapped": 0, "several_concepts": 0, "pairs": 0,
                "multi_parent": 0, "zero_count": 0}
        for _ in range(8):
            tax = random_taxonomy(rng)
            phrases = sorted([f"w{w:02d}" for w in range(12)]
                             + ["twin", "no such word", "w03 w05", "w07 gizmo"])
            sims = reference_similarities(phrases, tax)
            finite = sorted({sim for _, _, sim in sims if sim < JCN_CAP})
            tie = finite[len(finite) // 2]
            for eta in (0.1, 0.3, 1.0, tie):
                left, right = incompatible(phrases, tax, eta)
                assert left.dtype.kind == right.dtype.kind == "i"
                want = [(i, j) for i, j, sim in sims if sim < eta]
                assert list(zip(left.tolist(), right.tolist())) == want
                seen["pairs"] += len(want)
            for i, j, sim in sims:
                assert jcn_similarity(phrases[i], phrases[j], tax) == sim
                assert jcn_similarity(phrases[j], phrases[i], tax) == sim
            seen["cap"] += sum(sim == JCN_CAP for _, _, sim in sims)
            seen["tie"] += sum(sim == tie for _, _, sim in sims)
            mapped = {phrases[k] for i, j, _ in sims for k in (i, j)}
            seen["unmapped"] += len(set(phrases) - mapped)
            seen["several_concepts"] += sum(len(tax.phrase_concepts(p)) > 1 for p in mapped)
            seen["multi_parent"] += sum(len(ps) > 1 for ps in tax.parents.values())
            seen["zero_count"] += sum(p == 0 for p in tax.propagated.values())
        assert min(seen.values()) > 0, seen


class TestTaxonomyValidation:
    def test_two_roots_rejected(self):
        with pytest.raises(FormatError, match="one root"):
            build_taxonomy([
                {"concept": "a", "parents": [], "count": 1},
                {"concept": "b", "parents": [], "count": 1},
            ])

    def test_cycle_rejected(self):
        with pytest.raises(FormatError, match="cycle"):
            build_taxonomy([
                {"concept": "r", "parents": [], "count": 1},
                {"concept": "a", "parents": ["b"], "count": 1},
                {"concept": "b", "parents": ["a"], "count": 1},
            ])

    def test_unknown_parent_rejected(self):
        with pytest.raises(FormatError, match="unknown parent"):
            build_taxonomy([{"concept": "a", "parents": ["ghost"], "count": 1}])

    def test_negative_count_rejected(self):
        with pytest.raises(FormatError, match="invalid count"):
            build_taxonomy([{"concept": "r", "parents": [], "count": -1}])

    def test_word_to_unknown_concept_rejected(self):
        with pytest.raises(FormatError, match="unknown concept"):
            build_taxonomy([
                {"concept": "r", "parents": [], "count": 1},
                {"word": "x", "concepts": ["ghost"]},
            ])

    def test_diamond_counts_once(self):
        # d reaches the root via two paths; its count must not double
        tax = build_taxonomy([
            {"concept": "r", "parents": [], "count": 0},
            {"concept": "a", "parents": ["r"], "count": 0},
            {"concept": "b", "parents": ["r"], "count": 0},
            {"concept": "d", "parents": ["a", "b"], "count": 3},
        ])
        assert tax.propagated["r"] == 3.0
        assert tax.propagated["a"] == 3.0

    def test_file_round_trip(self, tmp_path, fixture_taxonomy):
        path = tmp_path / "tax.jsonl"
        save_taxonomy(fixture_taxonomy, str(path))
        reloaded = load_taxonomy(str(path))
        assert reloaded.concepts == fixture_taxonomy.concepts
        assert reloaded.propagated == fixture_taxonomy.propagated
        assert reloaded.word_map == fixture_taxonomy.word_map

    def test_error_collection(self, tmp_path):
        lines = [
            json.dumps({"concept": "r", "parents": [], "count": 1}),
            "not json",
            json.dumps({"neither": 1}),
        ]
        path = tmp_path / "tax.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        errors = []
        tax = load_taxonomy(str(path), errors=errors)
        assert tax is not None
        assert len(errors) == 2
        assert any("line 2" in e for e in errors)
