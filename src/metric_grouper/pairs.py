"""Distant-supervision training pairs.

Positive pairs are two occurrences of the same aspect phrase in different
contexts; negative pairs combine occurrences of two phrases whose lexicon
similarity falls below the incompatibility threshold. Negatives are drawn
uniformly without replacement and balanced one-to-one with the positives.
Gold group labels are never consulted here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyError, FormatError, InsufficientNegativesError
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


def generate_pairs(samples, tax, eta, seed=0, max_pos=None, allow_replacement=False):
    """Build the balanced positive/negative training pair list.

    Positives are all unordered pairs of distinct samples sharing a
    phrase, subsampled to ``max_pos`` when set. The same number of
    negatives is drawn uniformly over sample pairs with incompatible
    phrases, without replacement unless ``allow_replacement`` permits
    topping up a short pool. Output order is a seeded shuffle; identical
    inputs and seed reproduce the list exactly. Raises EmptyError when
    there is no positive pair.
    """
    rng = np.random.default_rng(seed)

    by_phrase: dict[str, list[int]] = {}
    for idx, s in enumerate(samples):
        by_phrase.setdefault(s.phrase, []).append(idx)

    positives: list[tuple[int, int]] = []
    for phrase in sorted(by_phrase):
        idxs = by_phrase[phrase]
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                positives.append((idxs[a], idxs[b]))
    if not positives:
        raise EmptyError(f"no positive pairs: none of the {len(by_phrase)} distinct "
                         f"phrase(s) occurs in two samples")
    if max_pos is not None and len(positives) > max_pos:
        chosen = rng.choice(len(positives), size=max_pos, replace=False)
        positives = [positives[i] for i in sorted(chosen)]

    # Eligible negative pool, grouped by incompatible phrase pair.
    phrases = sorted(by_phrase)
    groups: list[tuple[str, str, int]] = []
    pool_size = 0
    for i in range(len(phrases)):
        for j in range(i + 1, len(phrases)):
            p, q = phrases[i], phrases[j]
            if incompatible(p, q, tax, eta):
                n = len(by_phrase[p]) * len(by_phrase[q])
                groups.append((p, q, n))
                pool_size += n

    needed = len(positives)
    if pool_size < needed and not allow_replacement:
        raise InsufficientNegativesError(
            f"need {needed} negatives but only {pool_size} incompatible "
            f"sample combinations exist (short by {needed - pool_size})")

    negatives: list[tuple[int, int]] = []
    if pool_size and (allow_replacement and pool_size < needed or 3 * needed >= pool_size):
        # Small pool: materialize it and take a seeded permutation.
        full = []
        for p, q, _n in groups:
            for a in by_phrase[p]:
                for b in by_phrase[q]:
                    full.append((a, b) if a < b else (b, a))
        order = rng.permutation(len(full))
        negatives = [full[i] for i in order[:min(needed, len(full))]]
        while len(negatives) < needed:  # only reachable with allow_replacement
            negatives.append(full[int(rng.integers(len(full)))])
    elif pool_size:
        # Large pool: weighted rejection sampling over phrase-pair groups.
        weights = np.cumsum([n for _p, _q, n in groups])
        taken = set()
        while len(negatives) < needed:
            g = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
            p, q, _n = groups[g]
            a = by_phrase[p][int(rng.integers(len(by_phrase[p])))]
            b = by_phrase[q][int(rng.integers(len(by_phrase[q])))]
            pair = (a, b) if a < b else (b, a)
            if pair not in taken:
                taken.add(pair)
                negatives.append(pair)

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


def _sample_from_record(obj, lineno):
    try:
        return AspectSample(
            str(obj["phrase"]).lower(),
            tuple(str(t).lower() for t in obj["tokens"]),
            tuple(int(s) for s in obj["source"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"line {lineno}: bad sample record ({exc})") from exc


def save_pairs(pairs, path, header=None):
    """Write pairs as line-delimited JSON with an optional header record."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            head = dict(header)
            head["kind"] = "header"
            fh.write(json.dumps(head, sort_keys=True) + "\n")
        for pair in pairs:
            rec = {
                "label": pair.label,
                "left": _sample_record(pair.left),
                "right": _sample_record(pair.right),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_pairs(path):
    """Read a pairs file; returns (pairs, header_dict_or_None)."""
    pairs = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if isinstance(obj, dict) and obj.get("kind") == "header":
                header = obj
                continue
            try:
                label = int(obj["label"])
                if label not in (1, -1):
                    raise ValueError(f"label {label} not in {{1, -1}}")
                pairs.append(SamplePair(
                    _sample_from_record(obj["left"], lineno),
                    _sample_from_record(obj["right"], lineno),
                    label,
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: line {lineno}: bad pair record ({exc})") from exc
    return pairs, header
