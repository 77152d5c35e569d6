"""Turn a (phrase, context) pair into one fixed-length input vector.

The attention mode scores every context word with one learned vector,
softmax-normalizes the scores into weights, and concatenates the weighted
context average with the phrase vector. The avg/min/max modes replace the
weighted average with an elementwise reduction; the ap mode drops context
entirely and uses the phrase vector alone.

This module owns that layout: input_width() is the one width rule, [p] in
ap mode and [c~; p] otherwise. compose_vectors() is the one checked entry
and returns the composed array; attend() is the unchecked attention kernel
and also returns the word weights its backward, compose_backward(), reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyContextError, UnknownPhraseError

MODES = ("attention", "avg", "min", "max", "ap")


def input_width(mode, d):
    """Width of an input composed in ``mode`` from d-wide word vectors: [p] or [c~; p]."""
    return d if mode == "ap" else 2 * d


@dataclass(frozen=True)
class AttentionParams:
    """Score weights, one scalar per component of a context word vector.

    Frozen, so that a network's ``w_a`` stays the view into its parameter buffer.
    """
    w_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_a", np.asarray(self.w_a, dtype=float))
        if self.w_a.ndim != 1:
            raise DimensionMismatchError("attention parameter must be a flat vector")
        if not np.all(np.isfinite(self.w_a)):
            raise ValueError("attention parameter has non-finite components")

    @classmethod
    def zeros(cls, word_dim):
        """Zero scores, which make the weighting start out uniform."""
        return cls(np.zeros(word_dim))


def attend(context, p, w_a):
    """Unchecked attention composition of (n, d) ``context``, (d,) ``p`` and (d,) ``w_a``.

    Returns (x, weights): the composed [c~; p] and the n word weights, a
    softmax over the max-subtracted scores w_a . e_i. A phrase term in the
    score would add one constant to every word's score, which the
    max-subtraction cancels, so the weights do not depend on ``p``.
    """
    weights = np.dot(context, w_a)
    weights -= np.maximum.reduce(weights)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights)
    return np.concatenate([np.dot(weights, context), p]), weights


def compose_backward(context, weights, grad_x):
    """Gradient of w_a from a gradient on an attention-composed [c~; p].

    ``weights`` are the attention weights of the forward composition, attend().
    Inputs are unchecked; network.train() checks the word width before the first step.
    """
    ds = np.dot(context, grad_x[:context.shape[1]])  # per-word influence on c~
    ds -= float(np.dot(weights, ds))
    ds *= weights                                    # softmax Jacobian applied
    return np.dot(context.T, ds)


def compose_vectors(context, p, params, mode):
    """Compose (n, d) ``context`` and (d,) ``p`` in ``mode``; returns the composed array.

    Checks the mode, the context, the phrase width and, in attention mode,
    the length of ``params.w_a``; ap mode reads only ``p``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p = np.asarray(p, dtype=float)
    if mode == "ap":
        return p.copy()
    context = np.asarray(context, dtype=float)
    if context.ndim != 2 or context.shape[0] == 0:
        raise EmptyContextError(f"mode {mode!r} needs a non-empty context")
    if p.shape != (context.shape[1],):
        raise DimensionMismatchError(
            f"phrase vector has shape {p.shape}, expected ({context.shape[1]},)")
    if mode == "attention":
        if params.w_a.shape != p.shape:
            raise DimensionMismatchError(
                f"attention parameter has shape {params.w_a.shape}, expected {p.shape}")
        return attend(context, p, params.w_a)[0]
    if mode == "avg":
        reduced = context.mean(axis=0)
    elif mode == "min":
        reduced = context.min(axis=0)
    else:
        reduced = context.max(axis=0)
    return np.concatenate([reduced, p])


def used_context(phrase, context_tokens, mode):
    """The context tokens ``mode`` reads: none in ap mode, all of them otherwise.

    Raises EmptyContextError when a mode that reads context gets no context token.
    """
    if mode == "ap":
        return ()
    if not context_tokens:
        raise EmptyContextError(f"mode {mode!r} needs a context vector for {phrase!r}")
    return context_tokens


def compose_test_phrase(phrase, corpus, table, params, mode="attention"):
    """Compose a phrase over every sentence that mentions it; returns the composed array.

    Contexts are the token-order concatenation of all mentioning sentences
    in corpus order, so clustering sees one vector per distinct phrase. The
    phrase vector is looked up first, so a phrase with no tokens raises
    EmptyPhraseError before a missing context raises EmptyContextError
    (used_context()). Unknown tokens give zero rows.
    """
    phrase = phrase.lower()
    occurrences = corpus.phrase_index.get(phrase)
    if not occurrences:
        raise UnknownPhraseError(f"phrase {phrase!r} does not occur in the corpus")
    tokens: list[str] = []
    for sid in dict.fromkeys(sid for sid, _span in occurrences):
        tokens.extend(corpus.sentences[sid].tokens)
    p = table.phrase_lookup(phrase)
    return compose_vectors(table.lookup(used_context(phrase, tokens, mode)), p, params, mode)
