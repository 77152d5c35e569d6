"""Turn a (phrase, context) pair into one fixed-length input vector.

The attention mode scores every context word with one learned vector,
softmax-normalizes the scores into weights, and concatenates the weighted
context average with the phrase vector. The avg/min/max modes replace the
weighted average with an elementwise reduction; the ap mode drops context
entirely and uses the phrase vector alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, EmptyContextError, UnknownPhraseError

MODES = ("attention", "avg", "min", "max", "ap")


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


class Ingredients(NamedTuple):
    """Context rows (none in ap mode) and phrase vector of one sample."""
    context: np.ndarray
    p: np.ndarray


def used_context(phrase, context_tokens, mode):
    """The context tokens ``mode`` reads: none in ap mode, all of them otherwise.

    Raises EmptyContextError when a mode that reads context gets no context token.
    """
    if mode == "ap":
        return ()
    if not context_tokens:
        raise EmptyContextError(f"mode {mode!r} needs a context vector for {phrase!r}")
    return context_tokens


def ingredients(phrase, context_tokens, table, mode):
    """One sample's vectors, read through WordVectorTable.lookup().

    Raises EmptyPhraseError for a phrase with no tokens, and
    EmptyContextError as used_context() does.
    """
    p = table.phrase_lookup(phrase)
    return Ingredients(table.lookup(used_context(phrase, context_tokens, mode)), p)


def compose(sample, table, params, mode="attention"):
    """Compose one aspect sample into its input vector.

    ``sample`` needs ``phrase`` and ``context_tokens`` attributes. Unknown
    tokens give zero rows; see ingredients().
    """
    return compose_vectors(*ingredients(sample.phrase, sample.context_tokens, table, mode),
                           params, mode)


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
    return compose_vectors(*ingredients(phrase, tokens, table, mode), params, mode)
