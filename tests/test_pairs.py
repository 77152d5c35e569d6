import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable
from metric_grouper.errors import EmptyError, FormatError, InsufficientNegativesError
from metric_grouper.lexicon import Taxonomy, jcn_similarity
from metric_grouper.network import MetricNetwork, TrainConfig, train
from metric_grouper.pairs import (
    AspectSample,
    SamplePair,
    generate_pairs,
    generate_samples,
    load_pairs,
    save_pairs,
)


def corpus_of(mentioned_phrases):
    """One sentence per entry; entry i mentions mentioned_phrases[i]."""
    sentences = []
    for phrase in mentioned_phrases:
        tokens = ("the", phrase, "works")
        sentences.append(AnnotatedSentence(tokens, (Mention(phrase, 1, 2),)))
    return AnnotatedCorpus(sentences)


def reference_positives(samples):
    """Every unordered same-phrase sample pair, in the order of a nested a < b loop."""
    by_phrase = {}
    for idx, s in enumerate(samples):
        by_phrase.setdefault(s.phrase, []).append(idx)
    positives = []
    for phrase in sorted(by_phrase):
        idxs = by_phrase[phrase]
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                positives.append((idxs[a], idxs[b]))
    return positives


def index_pairs(pairs, label):
    """(left, right) sample indices of the pairs with ``label``; corpus_of sample i is sentence i."""
    return [(p.left.source[0], p.right.source[0]) for p in pairs if p.label == label]


def random_corpus(rng, low, high):
    """Each of the four taxonomy words mentioned between ``low`` and ``high`` - 1 times, shuffled."""
    mentioned = [w for w in ("alpha", "beta", "gamma", "delta")
                 for _ in range(int(rng.integers(low, high)))]
    return corpus_of([mentioned[i] for i in rng.permutation(len(mentioned))])


def two_branch_taxonomy():
    """Words under 'left' are incompatible with words under 'right'."""
    records = [
        {"concept": "root", "parents": [], "count": 0},
        {"concept": "left", "parents": ["root"], "count": 0},
        {"concept": "right", "parents": ["root"], "count": 0},
    ]
    for word, branch in (("alpha", "left"), ("beta", "left"),
                         ("gamma", "right"), ("delta", "right")):
        records.append({"concept": f"c-{word}", "parents": [branch], "count": 1})
        records.append({"word": word, "concepts": [f"c-{word}"]})
    return Taxonomy(records)


class TestGenerateSamples:
    def test_one_sample_per_occurrence(self):
        corpus = corpus_of(["alpha", "alpha", "alpha"])
        samples = generate_samples(corpus)
        assert len(samples) == 3
        assert all(s.phrase == "alpha" for s in samples)

    def test_sample_count_equals_mention_count(self):
        corpus = corpus_of(["alpha", "beta", "alpha", "gamma"])
        assert len(generate_samples(corpus)) == corpus.mention_count()

    def test_one_sample_per_phrase_and_sentence(self):
        tokens = ("picture", "and", "sound", "and", "picture")
        sent = AnnotatedSentence(tokens, (Mention("picture", 0, 1), Mention("sound", 2, 3),
                                          Mention("picture", 4, 5)))
        samples = generate_samples(AnnotatedCorpus([sent, sent]))
        assert [(s.phrase, s.source) for s in samples] == [
            ("picture", (0,)), ("sound", (0,)), ("picture", (1,)), ("sound", (1,))]

    def test_two_mentions_share_context(self):
        sent = AnnotatedSentence(
            ("picture", "and", "sound"),
            (Mention("picture", 0, 1), Mention("sound", 2, 3)))
        samples = generate_samples(AnnotatedCorpus([sent]))
        assert len(samples) == 2
        assert samples[0].context_tokens == samples[1].context_tokens

    def test_samples_carry_no_gold_labels(self):
        # distant supervision only: the sample type has no label field
        fields = {f.name for f in dataclasses.fields(AspectSample)}
        assert fields == {"phrase", "context_tokens", "source"}


class TestGeneratePairs:
    def test_same_phrase_only_raises_for_negatives(self):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha"] * 3))
        with pytest.raises(InsufficientNegativesError, match="short by 3"):
            generate_pairs(samples, tax, 0.5, seed=0)
        # 4 alpha samples give 6 positives but only 4 cross combinations
        samples = generate_samples(corpus_of(["alpha"] * 4 + ["gamma"]))
        with pytest.raises(InsufficientNegativesError, match=r"only 4 .*\(short by 2\)"):
            generate_pairs(samples, tax, 0.5, seed=0)

    def test_two_by_two_balanced(self):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha", "alpha", "gamma", "gamma"]))
        pairs = generate_pairs(samples, tax, 0.5, seed=0)
        positives = [p for p in pairs if p.label == 1]
        negatives = [p for p in pairs if p.label == -1]
        assert len(positives) == 2
        assert len(negatives) == 2
        for p in positives:
            assert p.left.phrase == p.right.phrase
        # brute force: the eligible negative pool is exactly the 4 cross pairs
        eligible = {("alpha", "gamma")}
        for p in negatives:
            assert tuple(sorted((p.left.phrase, p.right.phrase))) in eligible
        assert len({(n.left, n.right) for n in negatives}) == 2

    def test_determinism_bytes(self, tmp_path):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha", "alpha", "beta", "gamma", "gamma", "delta"]))
        out = []
        for name in ("a.jsonl", "b.jsonl"):
            pairs = generate_pairs(samples, tax, 0.5, seed=7)
            path = tmp_path / name
            save_pairs(pairs, str(path))
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_seed_changes_sampling(self):
        tax = two_branch_taxonomy()
        samples = generate_samples(
            corpus_of(["alpha"] * 4 + ["gamma"] * 4 + ["beta"] * 2))
        a = generate_pairs(samples, tax, 0.5, seed=1)
        b = generate_pairs(samples, tax, 0.5, seed=2)
        assert a != b

    def test_max_pos_caps_positives(self):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha"] * 5 + ["gamma"] * 5))
        pairs = generate_pairs(samples, tax, 0.5, seed=0, max_pos=4)
        assert sum(1 for p in pairs if p.label == 1) == 4
        assert sum(1 for p in pairs if p.label == -1) == 4

    def test_never_pairs_identical_occurrence(self):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha", "alpha", "gamma", "gamma"]))
        for p in generate_pairs(samples, tax, 0.5, seed=3):
            assert p.left != p.right

    def test_no_positive_pair_joins_a_sample_to_itself(self):
        # a sentence that mentions alpha twice is one alpha sample, not two equal ones
        twice = AnnotatedSentence(("alpha", "beats", "alpha"),
                                  (Mention("alpha", 0, 1), Mention("alpha", 2, 3)))
        corpus = AnnotatedCorpus([twice, *corpus_of(["alpha", "gamma", "gamma"]).sentences])
        positives = [p for p in generate_pairs(generate_samples(corpus), two_branch_taxonomy(),
                                               0.5, seed=0) if p.label == 1]
        assert positives and all(p.left != p.right for p in positives)

    def test_contracts_on_randomized_corpora(self):
        tax = two_branch_taxonomy()
        rng = np.random.default_rng(17)
        words = ["alpha", "beta", "gamma", "delta"]
        checked = 0
        for trial in range(12):
            mentioned = [words[int(rng.integers(4))] for _ in range(int(rng.integers(8, 20)))]
            if len({m for m in mentioned}) < 2:
                continue
            samples = generate_samples(corpus_of(mentioned))
            try:
                pairs = generate_pairs(samples, tax, 0.5, seed=trial)
            except InsufficientNegativesError:
                continue
            positives = [p for p in pairs if p.label == 1]
            negatives = [p for p in pairs if p.label == -1]
            assert len(positives) == len(negatives)
            for p in positives:
                assert p.left.phrase == p.right.phrase
            for p in negatives:
                assert jcn_similarity(p.left.phrase, p.right.phrase, tax) < 0.5
            checked += len(pairs)
        assert checked > 100

    @pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
    def test_positives_match_enumeration_reference(self, capped):
        tax = two_branch_taxonomy()
        rng = np.random.default_rng(23)
        checked = 0
        for seed in range(10):
            samples = generate_samples(random_corpus(rng, 1, 8))
            ref = reference_positives(samples)
            max_pos = int(rng.integers(1, len(ref) + 1)) if capped else None
            try:
                pairs = generate_pairs(samples, tax, 0.5, seed=seed, max_pos=max_pos)
            except InsufficientNegativesError:
                continue
            if max_pos is not None and max_pos < len(ref):
                chosen = np.random.default_rng(seed).choice(len(ref), max_pos, replace=False)
                ref = [ref[i] for i in sorted(chosen)]
            assert sorted(index_pairs(pairs, 1)) == sorted(ref)
            checked += 1
        assert checked >= 5

    def test_no_repeated_or_self_pairs(self):
        tax = two_branch_taxonomy()
        rng = np.random.default_rng(31)
        for seed in range(10):
            samples = generate_samples(random_corpus(rng, 2, 12))
            pairs = generate_pairs(samples, tax, 0.5, seed=seed,
                                   max_pos=int(rng.integers(1, 40)))
            for label in (1, -1):
                drawn = index_pairs(pairs, label)
                assert all(a < b for a, b in drawn)
                assert len(set(drawn)) == len(drawn)

    def test_dense_negative_pool_taken_whole(self):
        tax = two_branch_taxonomy()
        # 6 alpha and 3 gamma samples: 15 + 3 positives and exactly 6 * 3 cross pairs
        mentioned = ["alpha", "gamma", "alpha"] * 3
        samples = generate_samples(corpus_of(mentioned))
        pairs = generate_pairs(samples, tax, 0.5, seed=4)
        alphas = [i for i, w in enumerate(mentioned) if w == "alpha"]
        gammas = [i for i, w in enumerate(mentioned) if w == "gamma"]
        pool = sorted((min(a, g), max(a, g)) for a in alphas for g in gammas)
        assert sorted(index_pairs(pairs, -1)) == pool
        assert sorted(index_pairs(pairs, 1)) == sorted(reference_positives(samples))
        # capping positives at their whole pool takes every one of them too
        capped = generate_pairs(samples, tax, 0.5, seed=4, max_pos=18)
        assert sorted(index_pairs(capped, 1)) == sorted(reference_positives(samples))

    def test_memory_is_not_quadratic_in_mentions(self):
        # Enumerating the ~4M same-phrase pairs of 2 x 2000 mentions would take hundreds of MB.
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha", "gamma"] * 2000))
        tracemalloc.start()
        try:
            pairs = generate_pairs(samples, tax, 0.5, seed=0, max_pos=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 2000
        assert peak < 10e6

    def test_training_memory_is_not_a_copy_per_context_token(self):
        # 400 samples of 60 tokens at d = 100: a copy of each one's context rows is 19 MB.
        rng = np.random.default_rng(3)
        words = [f"w{k:03d}" for k in range(200)]
        sentences = []
        for phrase in ["alpha", "gamma"] * 200:
            tokens = tuple(words[j] for j in rng.integers(0, len(words), 59)) + (phrase,)
            sentences.append(AnnotatedSentence(tokens, (Mention(phrase, 59, 60),)))
        samples = generate_samples(AnnotatedCorpus(sentences))
        pairs = [SamplePair(samples[i], samples[i + 1], -1) for i in range(0, len(samples), 2)]
        table = WordVectorTable(100, {w: rng.normal(size=100) for w in words + ["alpha", "gamma"]})
        net = MetricNetwork.create(100, mode="attention", output_dim=8, n_layers=1, seed=0)
        tracemalloc.start()
        try:
            _, history = train(net, pairs, table, TrainConfig(epochs=1, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(history) == 1
        assert peak < 4e6

    def test_memory_is_not_a_tuple_per_phrase_pair(self):
        # 1500 phrases x 2 mentions under a flat root -> leaf taxonomy: every one of
        # the 1,124,250 phrase pairs is incompatible. A list of one tuple per pair is 72 MB.
        words = [f"w{k:04d}" for k in range(1500)]
        records = [{"concept": "root", "parents": [], "count": 0}]
        for word in words:
            records.append({"concept": f"c-{word}", "parents": ["root"], "count": 1})
            records.append({"word": word, "concepts": [f"c-{word}"]})
        tax = Taxonomy(records)
        samples = generate_samples(corpus_of(words * 2))
        tracemalloc.start()
        try:
            pairs = generate_pairs(samples, tax, 0.5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 3000
        assert peak < 50e6


class TestPairIo:
    def test_round_trip_with_header(self, tmp_path):
        tax = two_branch_taxonomy()
        samples = generate_samples(corpus_of(["alpha", "alpha", "gamma", "gamma"]))
        pairs = generate_pairs(samples, tax, 0.5, seed=5)
        path = str(tmp_path / "pairs.jsonl")
        save_pairs(pairs, path, header={"config_hash": "deadbeef", "eta": 0.5})
        loaded, header = load_pairs(path)
        assert loaded == pairs
        assert header["config_hash"] == "deadbeef"
        assert header["kind"] == "header"

    def test_header_without_pairs_names_file(self, tmp_path):
        path = str(tmp_path / "pairs.jsonl")
        save_pairs([], path, header={"config_hash": "deadbeef"})
        with pytest.raises(EmptyError) as info:
            load_pairs(path)
        assert str(info.value) == f"{path}: no pair records"

    def test_record_shape_mirrors_corpus_record(self, tmp_path):
        pair = SamplePair(
            AspectSample("alpha", ("the", "alpha"), (0,)),
            AspectSample("alpha", ("alpha", "works"), (3,)), 1)
        path = str(tmp_path / "pairs.jsonl")
        save_pairs([pair], path)
        record = json.loads(Path(path).read_text(encoding="utf-8").splitlines()[0])
        assert set(record) == {"label", "left", "right"}
        assert set(record["left"]) == {"phrase", "tokens", "source"}

    MISSING = object()  # the field is deleted from the record

    @pytest.mark.parametrize("side, field, value", [
        pytest.param("left", "phrase", MISSING, id="left-phrase"),
        pytest.param("right", "tokens", MISSING, id="right-tokens"),
        pytest.param("left", "source", MISSING, id="left-source"),
        pytest.param("left", "phrase", 3, id="left-phrase-number"),
        pytest.param("right", "tokens", "the picture is sharp", id="right-tokens-string"),
        pytest.param("right", "tokens", [], id="right-tokens-empty"),
        pytest.param("left", "tokens", ["the", 1], id="left-tokens-number"),
        pytest.param("left", "source", ["3"], id="left-source-string"),
        pytest.param("right", "source", 3, id="right-source-number"),
        pytest.param("left", "phrase", "", id="left-phrase-empty"),
        pytest.param("right", "phrase", "alpha  works", id="right-phrase-double-space"),
        pytest.param("left", "phrase", "beta", id="left-phrase-elsewhere"),
        pytest.param("right", "phrase", "the alpha", id="right-phrase-other-side"),
    ])
    def test_bad_sample_record_names_file_and_line(self, tmp_path, side, field, value):
        pair = SamplePair(
            AspectSample("alpha", ("the", "alpha"), (0,)),
            AspectSample("alpha", ("alpha", "works"), (3,)), 1)
        path = tmp_path / "pairs.jsonl"
        save_pairs([pair, pair], str(path), header={"config_hash": "deadbeef"})
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        if value is self.MISSING:
            del record[side][field]
        else:
            record[side][field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: line 3: "):
            load_pairs(str(path))

    @pytest.mark.parametrize("label, shown", [
        pytest.param(1.9, "1.9", id="fraction"),
        pytest.param(1.0, "1.0", id="float"),
        pytest.param("-1", '"-1"', id="string"),
        pytest.param(True, "true", id="boolean"),
        pytest.param(None, "null", id="null"),
        pytest.param(2, "2", id="two"),
    ])
    def test_bad_label_names_file_and_line(self, tmp_path, label, shown):
        pair = SamplePair(
            AspectSample("alpha", ("the", "alpha"), (0,)),
            AspectSample("alpha", ("alpha", "works"), (3,)), 1)
        path = tmp_path / "pairs.jsonl"
        save_pairs([pair, pair], str(path), header={"config_hash": "deadbeef"})
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(dict(json.loads(lines[2]), label=label))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_pairs(str(path))
        assert str(info.value) == (
            f"{path}: line 3: bad pair record (label {shown} not in {{1, -1}})")
