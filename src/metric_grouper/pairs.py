"""Distant-supervision training pairs.

Positive pairs are two occurrences of the same aspect phrase in different
contexts; negative pairs combine occurrences of two phrases whose lexicon
similarity falls below the incompatibility threshold. Both labels come
from one sampler: each pool is an array of phrase pairs, a draw picks
distinct pool indices uniformly without replacement and decodes each one
into its sample pair, so only the drawn pairs are ever built. Negatives are
balanced one-to-one with the positives. Gold group labels are never
consulted here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import inf, isqrt

import numpy as np

from .errors import EmptyError, FormatError, InsufficientNegativesError
from .jsonl import is_int, read_jsonl, record_tokens, write_jsonl
from .lexicon import incompatible


@dataclass(frozen=True)
class AspectSample:
    """One aspect phrase paired with one context."""
    phrase: str
    context_tokens: tuple[str, ...]
    source: tuple[int, ...]


@dataclass(frozen=True)
class SamplePair:
    left: AspectSample
    right: AspectSample
    label: int  # +1 same phrase, -1 incompatible phrases


def generate_samples(corpus):
    """One sample per (phrase, mentioning sentence) occurrence.

    The context is the full containing sentence, phrase tokens included.
    """
    samples = []
    for sid, sent in enumerate(corpus.sentences):
        for m in sent.mentions:
            samples.append(AspectSample(m.phrase, sent.tokens, (sid,)))
    return samples


def _draw(left, right, members, needed, rng):
    """``needed`` distinct sample-index pairs drawn uniformly from a pool.

    The pool is a list of phrase pairs, given as two index arrays into
    ``members`` (each phrase's sample indices): ``(p, p)`` holds the
    m_p(m_p-1)/2 pairs of two of ``p``'s samples, ``(p, q)`` the m_p·m_q
    pairs of one sample of each. Pool indices run phrase pair by phrase
    pair and, inside one, in nested-loop order. The drawn indices are
    sorted before decoding, so ``needed >= pool``, which takes every index,
    enumerates the pool in that order. Each pair is returned as (smaller,
    larger) sample index.
    """
    m = np.array([len(xs) for xs in members], dtype=np.int64)
    sizes = m[left]
    sizes *= m[right]
    same = left == right
    sizes[same] = (sizes[same] - m[left[same]]) // 2
    ends = np.cumsum(sizes)
    pool = int(sizes.sum())
    if needed >= pool:
        picks = np.arange(pool)
    else:
        picks = np.sort(rng.choice(pool, size=needed, replace=False))
    found = np.searchsorted(ends, picks, side="right")
    offsets = picks - (ends[found] - sizes[found])
    pairs = []
    for p, q, r in zip(left[found].tolist(), right[found].tolist(), offsets.tolist()):
        xs, ys = members[p], members[q]
        if p == q:
            # Lexicographic a < b order is colex order read backwards.
            n = len(xs)
            t = n * (n - 1) // 2 - 1 - r
            j = (1 + isqrt(8 * t + 1)) // 2
            a, b = n - 1 - j, n - 1 - (t - j * (j - 1) // 2)
        else:
            a, b = divmod(r, len(ys))
        x, y = xs[a], ys[b]
        pairs.append((x, y) if x < y else (y, x))
    return pairs


def generate_pairs(samples, tax, eta, seed=0, max_pos=None):
    """Build the balanced positive/negative training pair list.

    Positives are drawn uniformly without replacement from all unordered
    pairs of distinct samples sharing a phrase: ``max_pos`` of them when
    set, all of them otherwise. The same number of negatives is drawn the
    same way from the sample pairs whose phrases are incompatible; one
    lexicon query over the sorted phrases gives those phrase pairs. Output
    order is a seeded shuffle; identical inputs and seed reproduce the
    list exactly. Raises EmptyError when there is no positive pair and
    InsufficientNegativesError when the negative pool is smaller than the
    positive count.
    """
    rng = np.random.default_rng(seed)

    by_phrase: dict[str, list[int]] = {}
    for idx, s in enumerate(samples):
        by_phrase.setdefault(s.phrase, []).append(idx)
    phrases = sorted(by_phrase)
    members = [by_phrase[p] for p in phrases]

    if all(len(idxs) < 2 for idxs in by_phrase.values()):
        raise EmptyError(f"no positive pairs: none of the {len(by_phrase)} distinct "
                         f"phrase(s) occurs in two samples")
    every = np.arange(len(phrases))
    positives = _draw(every, every, members, inf if max_pos is None else max_pos, rng)

    left, right = incompatible(phrases, tax, eta)
    needed = len(positives)
    negatives = _draw(left, right, members, needed, rng)
    if len(negatives) < needed:
        raise InsufficientNegativesError(
            f"need {needed} negatives but only {len(negatives)} incompatible "
            f"sample combinations exist (short by {needed - len(negatives)})")

    result = [SamplePair(samples[a], samples[b], 1) for a, b in positives]
    result += [SamplePair(samples[a], samples[b], -1) for a, b in negatives]
    order = rng.permutation(len(result))
    return [result[i] for i in order]


def _sample_record(sample):
    return {
        "phrase": sample.phrase,
        "tokens": list(sample.context_tokens),
        "source": list(sample.source),
    }


def _sample_from_record(obj):
    """The sample a record holds; raises ValueError or FormatError where a field is bad."""
    phrase, tokens, source = obj["phrase"], obj["tokens"], obj["source"]
    if not isinstance(phrase, str):
        raise ValueError("'phrase' must be a string")
    tokens = record_tokens(tokens)
    if not isinstance(source, list) or not all(map(is_int, source)):
        raise ValueError("'source' must be an array of integers")
    return AspectSample(phrase.lower(), tokens, tuple(source))


def save_pairs(pairs, path, header=None):
    """Write pairs as line-delimited JSON with an optional header record."""
    head = [] if header is None else [dict(header, kind="header")]
    write_jsonl(chain(head, ({"label": pair.label, "left": _sample_record(pair.left),
                              "right": _sample_record(pair.right)} for pair in pairs)), path)


def _pair_or_header(obj):
    """A pairs-file record: the header dict, or the SamplePair a pair record holds."""
    if isinstance(obj, dict) and obj.get("kind") == "header":
        return obj
    try:
        label = obj["label"]
        if not is_int(label) or label not in (1, -1):
            raise ValueError(f"label {json.dumps(label)} not in {{1, -1}}")
        return SamplePair(
            _sample_from_record(obj["left"]), _sample_from_record(obj["right"]), label)
    except (KeyError, TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"bad pair record ({exc})") from exc


def load_pairs(path):
    """Read a pairs file; returns (pairs, header_dict_or_None), the last header winning.

    A file with no pair record raises EmptyError.
    """
    pairs, header = [], None
    for record in read_jsonl(path, _pair_or_header):
        if isinstance(record, SamplePair):
            pairs.append(record)
        else:
            header = record
    if not pairs:
        raise EmptyError(f"{path}: no pair records")
    return pairs, header
