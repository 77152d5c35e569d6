import numpy as np
import pytest

from metric_grouper.composition import (
    AttentionParams,
    attention_weights,
    compose,
    compose_test_phrase,
    compose_vectors,
)
from metric_grouper.corpus import WordVectorTable
from metric_grouper.errors import (
    DimensionMismatchError,
    EmptyContextError,
    UnknownPhraseError,
)
from metric_grouper.pairs import AspectSample


class TestAttentionWeights:
    def test_identical_context_vectors_are_uniform(self):
        context = np.tile([0.3, -0.7], (4, 1))
        rng = np.random.default_rng(0)
        params = AttentionParams(rng.normal(size=2))
        weights = attention_weights(context, np.array([1.0, 2.0]), params)
        assert np.array_equal(weights, np.full(4, 0.25))

    def test_zero_parameter_is_uniform(self):
        rng = np.random.default_rng(1)
        context = rng.normal(size=(5, 3))
        weights = attention_weights(context, rng.normal(size=3), AttentionParams(np.zeros(3)))
        assert np.array_equal(weights, np.full(5, 0.2))

    def test_hand_softmax(self):
        # scores are 1 and 2, so weights are softmax(1, 2)
        weights = attention_weights(
            np.array([[1.0], [2.0]]), np.array([1.0]),
            AttentionParams(np.array([1.0])))
        assert weights == pytest.approx([0.2689414213699951, 0.7310585786300049])

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            weights = attention_weights(
                rng.normal(size=(n, d)) * 3, rng.normal(size=d) * 3,
                AttentionParams(rng.normal(size=d) * 3))
            assert (weights >= 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        context = rng.normal(size=(6, 4))
        p = rng.normal(size=4)
        params = AttentionParams(rng.normal(size=4))
        weights = attention_weights(context, p, params)
        perm = rng.permutation(6)
        permuted = attention_weights(context[perm], p, params)
        assert permuted == pytest.approx(weights[perm])
        c1 = weights @ context
        c2 = permuted @ context[perm]
        assert c2 == pytest.approx(c1)

    def test_shift_invariance_matches_naive_softmax(self):
        rng = np.random.default_rng(4)
        context = rng.normal(size=(5, 3))
        p = rng.normal(size=3)
        wa = rng.normal(size=3)
        weights = attention_weights(context, p, AttentionParams(wa))
        scores = context @ wa
        naive = np.exp(scores) / np.exp(scores).sum()
        assert weights == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            attention_weights(np.ones((2, 3)), np.ones(2), AttentionParams(np.zeros(3)))
        with pytest.raises(DimensionMismatchError):
            attention_weights(np.ones((2, 3)), np.ones(3), AttentionParams(np.zeros(6)))


CONTEXT = np.array([[1.0, 0.0], [0.0, 1.0]])
P = np.array([2.0, 2.0])


class TestComposeVectors:
    def test_avg(self):
        out = compose_vectors(CONTEXT, P, None, "avg")
        assert np.array_equal(out.x, [0.5, 0.5, 2.0, 2.0])

    def test_min_max(self):
        assert np.array_equal(compose_vectors(CONTEXT, P, None, "min").x, [0, 0, 2, 2])
        assert np.array_equal(compose_vectors(CONTEXT, P, None, "max").x, [1, 1, 2, 2])

    def test_attention_uniform_weights(self):
        out = compose_vectors(CONTEXT, P, AttentionParams(np.zeros(2)), "attention")
        assert out.x == pytest.approx([0.5, 0.5, 2.0, 2.0])
        assert out.attention_weights == pytest.approx([0.5, 0.5])

    def test_ap_is_phrase_alone(self):
        out = compose_vectors(CONTEXT, P, None, "ap")
        assert np.array_equal(out.x, P)
        assert out.attention_weights is None

    def test_empty_context(self):
        with pytest.raises(EmptyContextError):
            compose_vectors(np.zeros((0, 2)), P, None, "avg")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compose_vectors(CONTEXT, P, None, "cnn")


def small_table():
    return WordVectorTable(2, {
        "picture": np.array([2.0, 2.0]),
        "clear": np.array([1.0, 0.0]),
        "bright": np.array([0.0, 1.0]),
    })


class TestCompose:
    def test_ap_ignores_context_bytes(self):
        table = small_table()
        s1 = AspectSample("picture", ("picture", "clear"), (0,))
        s2 = AspectSample("picture", ("bright", "bright", "picture"), (1,))
        x1 = compose(s1, table, None, "ap").x
        x2 = compose(s2, table, None, "ap").x
        assert x1.tobytes() == x2.tobytes()

    def test_empty_context_raises(self):
        table = small_table()
        sample = AspectSample("picture", (), (0,))
        with pytest.raises(EmptyContextError):
            compose(sample, table, AttentionParams(np.zeros(2)), "attention")


def tiny_corpus():
    from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention

    return AnnotatedCorpus([
        AnnotatedSentence(("picture", "clear", "bright"),
                          (Mention("picture", 0, 1, 0),)),
        AnnotatedSentence(("clear", "picture", "bright", "clear"),
                          (Mention("picture", 1, 2, 0), Mention("bright", 2, 3, 1))),
    ])


class TestComposeTestPhrase:
    def test_single_sentence_equals_compose(self):
        corpus = tiny_corpus()
        table = small_table()
        params = AttentionParams(np.array([0.5, -0.2]))
        via_phrase = compose_test_phrase("bright", corpus, table, params, "attention")
        sample = AspectSample("bright", corpus.sentences[1].tokens, (1,))
        direct = compose(sample, table, params, "attention")
        assert via_phrase.x == pytest.approx(direct.x)

    def test_context_length_is_additive(self):
        corpus = tiny_corpus()
        table = small_table()
        params = AttentionParams(np.zeros(2))
        out = compose_test_phrase("picture", corpus, table, params, "attention")
        # sentences of 3 and 4 tokens mention it
        assert len(out.attention_weights) == 7

    def test_phrase_term_cancels_in_weights_but_not_in_x(self):
        # The score w_a . e_i has no phrase term (one would add the same
        # constant to every word's score, which softmax removes), so the
        # weights over a shared context are the same bits for every phrase.
        # The composed vectors still differ through their phrase half.
        corpus = tiny_corpus()
        table = small_table()
        params = AttentionParams(np.array([1.0, -1.0]))
        samples = [AspectSample(ph, corpus.sentences[1].tokens, (1,))
                   for ph in ("picture", "bright")]
        out = [compose(s, table, params, "attention") for s in samples]
        assert np.array_equal(out[0].attention_weights, out[1].attention_weights)
        assert not np.allclose(out[0].x, out[1].x)

    def test_unknown_phrase(self):
        corpus = tiny_corpus()
        with pytest.raises(UnknownPhraseError):
            compose_test_phrase("sound", corpus, small_table(), None, "ap")
