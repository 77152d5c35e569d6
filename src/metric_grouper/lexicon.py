"""Information-content similarity over a concept taxonomy.

The taxonomy is a rooted DAG of concepts with nonnegative frequency
counts. A concept's propagated count is the sum of raw counts over the
concept itself and everything below it, counting each concept once, so
propagated counts never decrease toward the root. Information content of
a concept is the negative natural log of its propagated probability.

Similarity between two phrases is the maximum, over all concept pairs the
phrases map to, of 1 / (IC(c1) + IC(c2) - 2 * IC(lcs(c1, c2))), capped for
identical or synonymous concepts whose denominator vanishes. ``mapped``
is the one pass that maps a phrase list to concept sets, and one kernel
computes similarity a row at a time: a set against every set of a list.
``incompatible`` runs both once and returns the index pairs whose
similarity falls below the threshold.

Taxonomy file: UTF-8 line-delimited JSON with two record kinds,
``{"concept": id, "parents": [ids], "count": number}`` and
``{"word": token, "concepts": [ids]}``. Exactly one concept must have an
empty parent list (the root).
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import (
    FormatError,
    UnknownConceptError,
    UnknownWordError,
    ZeroProbabilityError,
    reject,
)
from .jsonl import is_int, read_jsonl, write_jsonl

JCN_CAP = 1e6
JCN_EPS = 1e-12


class Taxonomy:
    """Immutable concept DAG with counts and a word -> concepts map.

    Built from parsed records of both kinds, mixed: each concept id becomes a
    string, a missing count is 0, and a word is lowercased, its records merged.
    """

    def __init__(self, records):
        self.parents, self.counts, self.word_map = {}, {}, {}
        for rec in records:
            if "concept" in rec:
                cid = str(rec["concept"])
                if cid in self.parents:
                    raise FormatError(f"duplicate concept record {cid!r}")
                self.parents[cid] = frozenset(map(str, rec.get("parents", [])))
                self.counts[cid] = float(rec.get("count", 0.0))
            elif "word" in rec:
                word = str(rec["word"]).lower()
                self.word_map[word] = (self.word_map.get(word, frozenset())
                                       | frozenset(map(str, rec.get("concepts", []))))
            else:
                raise FormatError("record is neither a concept nor a word entry")
        self.concepts = frozenset(self.parents)
        for c, ps in self.parents.items():
            for p in sorted(ps):  # sorted: a set's order depends on the hash seed
                if p not in self.concepts:
                    raise FormatError(f"concept {c!r} names unknown parent {p!r}")
            if c in ps:
                raise FormatError(f"concept {c!r} is its own parent")
        for c, v in self.counts.items():
            if not (v >= 0.0) or not math.isfinite(v):
                raise FormatError(f"concept {c!r} has invalid count {v!r}")

        roots = sorted(c for c, ps in self.parents.items() if not ps)
        if len(roots) != 1:
            raise FormatError(f"expected exactly one root concept, found {len(roots)}")
        self.root = roots[0]

        self.children: dict[str, set[str]] = {c: set() for c in self.concepts}
        for c, ps in self.parents.items():
            for p in ps:
                self.children[p].add(c)

        order = self._topological_order()
        self._ancestors: dict[str, frozenset[str]] = {}
        for c in order:
            acc = {c}
            for p in self.parents[c]:
                acc.update(self._ancestors[p])
            self._ancestors[c] = frozenset(acc)

        self.propagated = {c: 0.0 for c in self.concepts}
        for c in sorted(self.concepts):
            raw = self.counts[c]
            if raw:
                for a in self._ancestors[c]:
                    self.propagated[a] += raw
        self.total = self.propagated[self.root]
        if self.total <= 0:
            raise FormatError("total propagated count at the root must be positive")
        self._information = {c: -math.log(p / self.total) + 0.0
                             for c, p in self.propagated.items() if p > 0}

        for word, cs in self.word_map.items():
            for c in sorted(cs):
                if c not in self.concepts:
                    raise FormatError(f"word {word!r} maps to unknown concept {c!r}")

    def _topological_order(self):
        """Concepts ordered so every parent precedes its children."""
        indegree = {c: len(ps) for c, ps in self.parents.items()}
        queue = deque(sorted(c for c, d in indegree.items() if d == 0))
        order = []
        while queue:
            c = queue.popleft()
            order.append(c)
            for child in sorted(self.children[c]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(self.concepts):
            stuck = sorted(set(self.concepts) - set(order))
            raise FormatError(f"parent graph has a cycle involving {stuck[0]!r}")
        return order

    def ancestors(self, concept):
        """All ancestors of ``concept``, including itself."""
        concept = str(concept)
        if concept not in self.concepts:
            raise UnknownConceptError(f"unknown concept {concept!r}")
        return self._ancestors[concept]

    def phrase_concepts(self, phrase):
        """Concepts for a phrase via its head token (the last token).

        Falls back to any constituent token with a usable mapping. Only
        concepts with positive propagated count qualify.
        """
        tokens = phrase.lower().split()
        if not tokens:
            raise UnknownWordError("empty phrase")
        for tok in [tokens[-1]] + tokens[:-1]:
            usable = frozenset(
                c for c in self.word_map.get(tok, ()) if self.propagated[c] > 0)
            if usable:
                return usable
        raise UnknownWordError(f"no concept mapping for {phrase!r}")


def information_content(concept, tax):
    """-ln(propagated_count / total); zero at the root."""
    concept = str(concept)
    ic = tax._information.get(concept)
    if ic is None:
        if concept not in tax.concepts:
            raise UnknownConceptError(f"unknown concept {concept!r}")
        raise ZeroProbabilityError(f"concept {concept!r} has zero propagated count")
    return ic


def lcs(c1, c2, tax):
    """Common ancestor with maximal information content.

    Ties break toward the smallest concept id. Zero-count concepts are
    skipped; the root always qualifies, so a result always exists.
    """
    common = tax.ancestors(c1) & tax.ancestors(c2)
    candidates = [c for c in common if tax.propagated[c] > 0]
    return min(candidates, key=lambda c: (-information_content(c, tax), c))


def mapped(phrases, tax):
    """Positions of the ``phrases`` with a concept mapping, and their concept sets."""
    indices, sets = [], []
    for i, phrase in enumerate(phrases):
        try:
            sets.append(tax.phrase_concepts(phrase))
        except UnknownWordError:
            continue
        indices.append(i)
    return indices, sets


def _similarity_rows(concept_sets, tax):
    """Jcn similarity of each concept set to every set, one row at a time.

    Row ``i`` holds, for each set, the maximum over concept pairs of the
    capped inverse distance to set ``i``. For a concept ``c``, the IC of
    its LCS with every other concept is the largest IC among ``c``'s
    ancestors that are also theirs: writing the ancestors in ascending IC
    order onto the concepts below them leaves the largest. Ties in ``lcs``
    only pick between equal ICs, and the distance and cap repeat the
    scalar operations in order, so each value is bit for bit the
    nested-loop one. A row holds O(#concepts + #sets) numbers.
    """
    used = sorted(set().union(*concept_sets))
    column = {c: k for k, c in enumerate(used)}
    ic = np.array([information_content(c, tax) for c in used])
    under: dict[str, list[int]] = {}
    for k, c in enumerate(used):
        for a in tax.ancestors(c):
            under.setdefault(a, []).append(k)
    under = {a: (information_content(a, tax), np.array(ks, dtype=np.intp))
             for a, ks in under.items()}
    owned = [sorted(cs) for cs in concept_sets]
    flat = np.array([column[c] for cs in owned for c in cs], dtype=np.intp)
    starts = np.cumsum([0] + [len(cs) for cs in owned[:-1]])
    ic_lcs = np.empty(len(used))
    for cs in owned:
        best = np.zeros(len(used))
        for c in cs:
            for value, ks in sorted((under[a] for a in tax.ancestors(c)), key=lambda t: t[0]):
                ic_lcs[ks] = value
            denom = ic[column[c]] + ic - 2.0 * ic_lcs
            with np.errstate(divide="ignore"):
                sim = np.where(denom <= JCN_EPS, JCN_CAP, np.minimum(JCN_CAP, 1.0 / denom))
            np.maximum(best, sim, out=best)
        yield np.maximum.reduceat(best[flat], starts)


def jcn_similarity(w1, w2, tax):
    """Lexicon similarity of two phrases, maximized over concept pairs.

    Denominators at or below ``JCN_EPS`` (identical or synonym concepts)
    give ``JCN_CAP``; results are clamped to it.
    """
    sets = [tax.phrase_concepts(w1), tax.phrase_concepts(w2)]
    return float(next(_similarity_rows(sets, tax))[1])


def incompatible(phrases, tax, eta):
    """Index pairs ``i < j`` of ``phrases`` whose lexicon similarity is below ``eta``.

    Returns two int arrays, left and right indices, in nested-loop order
    (by ``i``, then by ``j``). Phrases without a concept mapping are never
    incompatible: missing knowledge must not fabricate negatives.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    indices, sets = mapped(phrases, tax)
    indices = np.array(indices, dtype=np.intp)
    counts, right = [], [np.empty(0, dtype=np.intp)]
    for k, row in enumerate(_similarity_rows(sets, tax)):
        hits = indices[k + 1 + np.flatnonzero(row[k + 1:] < eta)]
        counts.append(len(hits))
        right.append(hits)
    return np.repeat(indices, counts), np.concatenate(right)


def _is_id(value):
    """Whether ``value`` can name a concept: a string or an integer, which ``str()`` names."""
    return isinstance(value, str) or is_int(value)


def _taxonomy_record(obj):
    """A taxonomy line's record: a concept or a word record whose fields have their types."""
    if not isinstance(obj, dict) or not ("concept" in obj or "word" in obj):
        raise FormatError("record is neither concept nor word")
    if "concept" in obj:
        field, count = "parents", obj.get("count", 0.0)
        if not _is_id(obj["concept"]):
            raise FormatError("'concept' must be a string or an integer")
        if isinstance(count, bool) or not isinstance(count, (int, float)):
            raise FormatError("'count' must be a number")
        try:
            float(count)
        except OverflowError:  # an integer beyond the float range
            raise FormatError("'count' must be a number") from None
    else:
        field = "concepts"
        if not isinstance(obj["word"], str):
            raise FormatError("'word' must be a string")
    ids = obj.get(field, [])
    if not isinstance(ids, list) or not all(map(_is_id, ids)):
        raise FormatError(f"{field!r} must be an array of strings or integers")
    return obj


def load_taxonomy(path, errors=None):
    """Load a line-delimited JSON taxonomy file.

    With an ``errors`` list, per-line and graph-level problems are
    collected (graph problems carry no line number) and None is returned
    when the taxonomy cannot be built.
    """
    records = read_jsonl(path, _taxonomy_record, errors)
    try:
        return Taxonomy(records)
    except FormatError as exc:
        reject(path, errors, str(exc), exc)
        return None


def taxonomy_records(tax):
    """Taxonomy as serializable dicts (concept records then word records)."""
    records = []
    for c in sorted(tax.concepts):
        records.append({
            "concept": c,
            "parents": sorted(tax.parents[c]),
            "count": tax.counts[c],
        })
    for word in sorted(tax.word_map):
        records.append({"word": word, "concepts": sorted(tax.word_map[word])})
    return records


def save_taxonomy(tax, path):
    write_jsonl(taxonomy_records(tax), path)
