import numpy as np
import pytest

from metric_grouper.composition import (
    AttentionParams,
    attend,
    compose_test_phrase,
    compose_vectors,
    used_context,
)
from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable
from metric_grouper.errors import (
    DimensionMismatchError,
    EmptyContextError,
    UnknownPhraseError,
)


def weights_of(context, p, w_a):
    """The word weights attend() returns beside the composed vector."""
    return attend(context, p, w_a)[1]


class TestAttentionWeights:
    def test_identical_context_vectors_are_uniform(self):
        context = np.tile([0.3, -0.7], (4, 1))
        rng = np.random.default_rng(0)
        weights = weights_of(context, np.array([1.0, 2.0]), rng.normal(size=2))
        assert np.array_equal(weights, np.full(4, 0.25))

    def test_zero_parameter_is_uniform(self):
        rng = np.random.default_rng(1)
        context = rng.normal(size=(5, 3))
        weights = weights_of(context, rng.normal(size=3), np.zeros(3))
        assert np.array_equal(weights, np.full(5, 0.2))

    def test_hand_softmax(self):
        # scores are 1 and 2, so weights are softmax(1, 2)
        weights = weights_of(np.array([[1.0], [2.0]]), np.array([1.0]), np.array([1.0]))
        assert weights == pytest.approx([0.2689414213699951, 0.7310585786300049])

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            weights = weights_of(
                rng.normal(size=(n, d)) * 3, rng.normal(size=d) * 3, rng.normal(size=d) * 3)
            assert (weights >= 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        context = rng.normal(size=(6, 4))
        p = rng.normal(size=4)
        w_a = rng.normal(size=4)
        weights = weights_of(context, p, w_a)
        perm = rng.permutation(6)
        permuted = weights_of(context[perm], p, w_a)
        assert permuted == pytest.approx(weights[perm])
        c1 = weights @ context
        c2 = permuted @ context[perm]
        assert c2 == pytest.approx(c1)

    def test_shift_invariance_matches_naive_softmax(self):
        rng = np.random.default_rng(4)
        context = rng.normal(size=(5, 3))
        p = rng.normal(size=3)
        wa = rng.normal(size=3)
        weights = weights_of(context, p, wa)
        scores = context @ wa
        naive = np.exp(scores) / np.exp(scores).sum()
        assert weights == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        # attend() is unchecked; compose_vectors() checks the phrase and w_a widths
        with pytest.raises(DimensionMismatchError, match=r"phrase vector has shape \(2,\)"):
            compose_vectors(np.ones((2, 3)), np.ones(2), AttentionParams(np.zeros(3)),
                            "attention")
        with pytest.raises(DimensionMismatchError,
                           match=r"attention parameter has shape \(6,\), expected \(3,\)"):
            compose_vectors(np.ones((2, 3)), np.ones(3), AttentionParams(np.zeros(6)),
                            "attention")


CONTEXT = np.array([[1.0, 0.0], [0.0, 1.0]])
P = np.array([2.0, 2.0])


class TestComposeVectors:
    def test_avg(self):
        assert np.array_equal(compose_vectors(CONTEXT, P, None, "avg"), [0.5, 0.5, 2.0, 2.0])

    def test_min_max(self):
        assert np.array_equal(compose_vectors(CONTEXT, P, None, "min"), [0, 0, 2, 2])
        assert np.array_equal(compose_vectors(CONTEXT, P, None, "max"), [1, 1, 2, 2])

    def test_attention_uniform_weights(self):
        out = compose_vectors(CONTEXT, P, AttentionParams(np.zeros(2)), "attention")
        assert out == pytest.approx([0.5, 0.5, 2.0, 2.0])
        x, weights = attend(CONTEXT, P, np.zeros(2))
        assert np.array_equal(x, out)
        assert weights == pytest.approx([0.5, 0.5])

    def test_ap_is_phrase_alone(self):
        out = compose_vectors(CONTEXT, P, None, "ap")
        assert np.array_equal(out, P)
        assert out is not P

    def test_empty_context(self):
        with pytest.raises(EmptyContextError):
            compose_vectors(np.zeros((0, 2)), P, None, "avg")
        with pytest.raises(EmptyContextError):
            compose_vectors(np.zeros((0, 2)), P, AttentionParams(np.zeros(2)), "attention")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compose_vectors(CONTEXT, P, None, "cnn")


def small_table():
    return WordVectorTable(2, {
        "picture": np.array([2.0, 2.0]),
        "clear": np.array([1.0, 0.0]),
        "bright": np.array([0.0, 1.0]),
    })


def corpus_of(*sentences):
    """One sentence per token tuple, each mentioning its one "picture"."""
    return AnnotatedCorpus([
        AnnotatedSentence(tokens, (Mention("picture", tokens.index("picture"),
                                           tokens.index("picture") + 1, 0),))
        for tokens in sentences])


def tiny_corpus():
    return AnnotatedCorpus([
        AnnotatedSentence(("picture", "clear", "bright"),
                          (Mention("picture", 0, 1, 0),)),
        AnnotatedSentence(("clear", "picture", "bright", "clear"),
                          (Mention("picture", 1, 2, 0), Mention("bright", 2, 3, 1))),
    ])


class TestCompose:
    """The context rules every composition entry shares."""

    def test_ap_ignores_context_bytes(self):
        table = small_table()
        x1 = compose_test_phrase("picture", corpus_of(("picture", "clear")), table, None, "ap")
        x2 = compose_test_phrase("picture", corpus_of(("bright", "bright", "picture")), table,
                                 None, "ap")
        assert x1.tobytes() == x2.tobytes()

    def test_empty_context_raises(self):
        # A mentioned phrase always has its own sentence as context, so the
        # rule that refuses an empty one is used_context() on its own.
        with pytest.raises(EmptyContextError, match="'picture'"):
            used_context("picture", (), "attention")
        assert used_context("picture", (), "ap") == ()


class TestComposeTestPhrase:
    def test_single_sentence_equals_compose(self):
        corpus = tiny_corpus()
        table = small_table()
        params = AttentionParams(np.array([0.5, -0.2]))
        via_phrase = compose_test_phrase("bright", corpus, table, params, "attention")
        direct = compose_vectors(table.lookup(corpus.sentences[1].tokens),
                                 table.phrase_lookup("bright"), params, "attention")
        assert via_phrase == pytest.approx(direct)

    def test_context_length_is_additive(self):
        corpus = tiny_corpus()
        table = small_table()
        params = AttentionParams(np.zeros(2))
        out = compose_test_phrase("picture", corpus, table, params, "attention")
        # sentences of 3 and 4 tokens mention it
        tokens = corpus.sentences[0].tokens + corpus.sentences[1].tokens
        x, weights = attend(table.lookup(tokens), table.phrase_lookup("picture"), params.w_a)
        assert len(weights) == 7
        assert np.array_equal(out, x)

    def test_phrase_term_cancels_in_weights_but_not_in_x(self):
        # The score w_a . e_i has no phrase term (one would add the same
        # constant to every word's score, which softmax removes), so the
        # weights over a shared context are the same bits for every phrase.
        # The composed vectors still differ through their phrase half.
        corpus = tiny_corpus()
        table = small_table()
        context = table.lookup(corpus.sentences[1].tokens)
        w_a = np.array([1.0, -1.0])
        out = [attend(context, table.phrase_lookup(ph), w_a) for ph in ("picture", "bright")]
        assert np.array_equal(out[0][1], out[1][1])
        assert not np.allclose(out[0][0], out[1][0])

    def test_unknown_phrase(self):
        corpus = tiny_corpus()
        with pytest.raises(UnknownPhraseError):
            compose_test_phrase("sound", corpus, small_table(), None, "ap")
