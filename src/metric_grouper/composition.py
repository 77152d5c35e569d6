"""Turn a (phrase, context) pair into one fixed-length input vector.

The attention mode scores every context word with one learned vector,
softmax-normalizes the scores into weights, and concatenates the weighted
context average with the phrase vector. The avg/min/max modes replace the
weighted average with an elementwise reduction; the ap mode drops context
entirely and uses the phrase vector alone.

This module owns that layout: input_width() is the one width rule, [p] in
ap mode and [c~; p] otherwise, and compose_backward() is the attention
backward beside its forward, attend().
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyContextError, UnknownPhraseError

MODES = ("attention", "avg", "min", "max", "ap")


def input_width(mode, d):
    """Width of an input composed in ``mode`` from d-wide word vectors: [p] or [c~; p]."""
    return d if mode == "ap" else 2 * d


@dataclass
class AttentionParams:
    """Score weights, one scalar per component of a context word vector."""
    w_a: np.ndarray

    def __post_init__(self):
        self.w_a = np.asarray(self.w_a, dtype=float)
        if self.w_a.ndim != 1:
            raise DimensionMismatchError("attention parameter must be a flat vector")
        if not np.all(np.isfinite(self.w_a)):
            raise ValueError("attention parameter has non-finite components")

    @classmethod
    def zeros(cls, word_dim):
        """Zero scores, which make the weighting start out uniform."""
        return cls(np.zeros(word_dim))


@dataclass
class ComposedInput:
    """The composed vector plus, for attention mode, the word weights."""
    x: np.ndarray
    attention_weights: np.ndarray | None = None


def check_w_a(params, d):
    """Raise DimensionMismatchError unless ``params.w_a`` has length d."""
    if params.w_a.shape != (d,):
        raise DimensionMismatchError(
            f"attention parameter has shape {params.w_a.shape}, expected ({d},)")


def attention_weights(context, p, params):
    """Softmax over per-word scores w_a . e_i, max-subtracted.

    ``context`` is (n, d), ``p`` is (d,); returns n nonnegative weights summing to one.
    """
    return compose_vectors(context, p, params, "attention").attention_weights


def attend(context, p, w_a):
    """Unchecked attention composition of (n, d) ``context``, (d,) ``p`` and (d,) ``w_a``.

    The word weights are a softmax over the max-subtracted scores w_a . e_i.
    A phrase term in the score would add one constant to every word's score,
    which the max-subtraction cancels, so the weights do not depend on ``p``.
    """
    weights = np.dot(context, w_a)
    weights -= np.maximum.reduce(weights)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights)
    return ComposedInput(np.concatenate([np.dot(weights, context), p]), weights)


def compose_backward(context, weights, grad_x):
    """Gradient of w_a from a gradient on an attention-composed [c~; p].

    ``weights`` are the attention weights of the forward composition, attend().
    Inputs are unchecked; network.train() checks their shapes before the first step.
    """
    ds = np.dot(context, grad_x[:context.shape[1]])  # per-word influence on c~
    ds -= float(np.dot(weights, ds))
    ds *= weights                                    # softmax Jacobian applied
    return np.dot(context.T, ds)


def compose_vectors(context, p, params, mode):
    """Compose from raw arrays; the workhorse behind compose()."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p = np.asarray(p, dtype=float)
    if mode == "ap":
        return ComposedInput(p.copy())
    context = np.asarray(context, dtype=float)
    if context.ndim != 2 or context.shape[0] == 0:
        raise EmptyContextError(f"mode {mode!r} needs a non-empty context")
    if p.shape != (context.shape[1],):
        raise DimensionMismatchError(
            f"phrase vector has shape {p.shape}, expected ({context.shape[1]},)")
    if mode == "attention":
        check_w_a(params, p.shape[0])
        return attend(context, p, params.w_a)
    if mode == "avg":
        reduced = context.mean(axis=0)
    elif mode == "min":
        reduced = context.min(axis=0)
    else:
        reduced = context.max(axis=0)
    return ComposedInput(np.concatenate([reduced, p]))


def used_context(phrase, context_tokens, mode):
    """The context tokens ``mode`` reads: none in ap mode, all of them otherwise.

    Raises EmptyContextError when a mode that reads context gets no context token.
    """
    if mode == "ap":
        return ()
    if not context_tokens:
        raise EmptyContextError(f"mode {mode!r} needs a context vector for {phrase!r}")
    return context_tokens


def _compose_tokens(phrase, context_tokens, table, params, mode):
    """Compose ``phrase`` over ``context_tokens``, read through WordVectorTable.lookup().

    The phrase vector is looked up first, so a phrase with no tokens raises
    EmptyPhraseError before a missing context raises EmptyContextError
    (used_context()). Unknown tokens give zero rows.
    """
    p = table.phrase_lookup(phrase)
    return compose_vectors(table.lookup(used_context(phrase, context_tokens, mode)), p,
                           params, mode)


def compose(sample, table, params, mode="attention"):
    """Compose one aspect sample, which needs ``phrase`` and ``context_tokens``."""
    return _compose_tokens(sample.phrase, sample.context_tokens, table, params, mode)


def compose_test_phrase(phrase, corpus, table, params, mode="attention"):
    """Compose a phrase over every sentence that mentions it.

    Contexts are the token-order concatenation of all mentioning sentences
    in corpus order, so clustering sees one vector per distinct phrase.
    """
    phrase = phrase.lower()
    occurrences = corpus.phrase_index.get(phrase)
    if not occurrences:
        raise UnknownPhraseError(f"phrase {phrase!r} does not occur in the corpus")
    tokens: list[str] = []
    for sid in dict.fromkeys(sid for sid, _span in occurrences):
        tokens.extend(corpus.sentences[sid].tokens)
    return _compose_tokens(phrase, tokens, table, params, mode)
