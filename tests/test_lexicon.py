import itertools
import json
import math

import pytest

from metric_grouper.errors import (
    FormatError,
    UnknownConceptError,
    UnknownWordError,
    ZeroProbabilityError,
)
from metric_grouper.lexicon import (
    JCN_CAP,
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


class TestIncompatible:
    def test_identical_never_incompatible(self, fixture_taxonomy):
        assert not incompatible("picture", "picture", fixture_taxonomy, 0.3)

    def test_cross_subtree_at_eta_03(self, fixture_taxonomy):
        assert incompatible("picture", "sound", fixture_taxonomy, 0.3)

    def test_siblings_at_eta_03(self, fixture_taxonomy):
        assert not incompatible("picture", "image", fixture_taxonomy, 0.3)

    def test_unknown_word_is_conservative(self, fixture_taxonomy):
        assert not incompatible("gizmo", "sound", fixture_taxonomy, 0.3)

    def test_eta_must_be_positive(self, fixture_taxonomy):
        with pytest.raises(ValueError):
            incompatible("picture", "sound", fixture_taxonomy, 0.0)


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
