"""Corpus and word-vector I/O.

File formats:
  word vectors: UTF-8 text, one entry per line, ``token f1 f2 ... fd``, read in one pass.
  corpus: UTF-8 text, one JSON object per line with fields ``tokens``
    (array of strings) and ``mentions`` (array of
    ``{"phrase": str, "start": int, "end": int, "group": int?}``).

All tokens and phrases are lowercased on load and lookups lowercase their
argument, so text comparison is case-insensitive throughout. Loaded
structures are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DimensionMismatchError, EmptyError, EmptyPhraseError, FormatError, reject
from .jsonl import is_int, is_utf8, read_jsonl, record_tokens, write_jsonl


class WordVectorTable:
    """Token -> fixed-length vector lookup; an out-of-vocabulary token looks up as a zero row.

    ``matrix`` is one read-only ``(n, d)`` float64 array and ``vectors``
    maps each lowercased token to a read-only view of its row. ``len()``
    counts the distinct tokens of the source, so a table loaded with a
    ``keep`` set holds fewer rows than its length.
    """

    def __init__(self, dimension, vectors):
        dimension = int(dimension)
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        tokens, rows, seen = [], [], set()
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (dimension,):
                raise DimensionMismatchError(
                    f"vector for {token!r} has length {arr.shape}, expected {dimension}")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"vector for {token!r} has non-finite components")
            key = token.lower()
            if key in seen:
                raise ValueError(f"duplicate token {key!r}")
            seen.add(key)
            tokens.append(key)
            rows.append(arr)
        matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, dimension))
        self._adopt(tokens, matrix, 0, len(tokens))

    @classmethod
    def _from_matrix(cls, tokens, matrix, duplicate_count, entries):
        """Table over an already checked matrix, taken without a copy."""
        table = cls.__new__(cls)
        table._adopt(tokens, matrix, duplicate_count, entries)
        return table

    def _adopt(self, tokens, matrix, duplicate_count, entries):
        matrix.flags.writeable = False
        self.matrix = matrix
        self.dimension = matrix.shape[1]
        self.duplicate_count = duplicate_count
        self._entries = entries
        self.vectors: dict[str, np.ndarray] = dict(zip(tokens, matrix))

    def __len__(self):
        return self._entries

    def __contains__(self, token):
        return token.lower() in self.vectors

    def get(self, token):
        """Vector for ``token`` or None when absent."""
        return self.vectors.get(token.lower())

    def lookup(self, tokens):
        """(n, d) rows for ``tokens``, a zero row for each unknown token."""
        zero = np.zeros(self.dimension)
        rows = [self.vectors.get(tok.lower(), zero) for tok in tokens]
        return np.array(rows) if rows else np.zeros((0, self.dimension))

    def phrase_lookup(self, phrase):
        """Mean of the token rows of ``phrase``; raises EmptyPhraseError for no tokens."""
        tokens = phrase.split()
        if not tokens:
            raise EmptyPhraseError("phrase has no tokens")
        return np.mean(self.lookup(tokens), axis=0)

    def coverage(self, tokens):
        """(known, total) over the distinct lowercased tokens given."""
        distinct = {t.lower() for t in tokens}
        known = sum(1 for t in distinct if t in self.vectors)
        return known, len(distinct)


# Lines per np.loadtxt call: a chunk of 100-wide rows is 410 KB, however long the file.
CHUNK_LINES = 512


def _holds(token, seen, wanted):
    """Whether a checked row of ``token`` is held: the token's first (``seen`` notes it)
    and wanted, every token being wanted when ``wanted`` is None.

    ``seen`` is a dict used as a set: at 20k tokens it takes a quarter of a set's memory.
    """
    if token in seen:
        return False
    seen[token] = None
    return wanted is None or token in wanted


def load_word_vectors(path, errors=None, keep=None):
    """Parse a word-vector text file into a WordVectorTable.

    The first non-empty line fixes the dimension; later lines with a
    different arity are format errors. When ``errors`` is a list, problems
    are appended as ``"line N: message"`` strings, in file order, and bad
    lines are skipped instead of raising. Every line is checked, but only
    the rows of tokens in ``keep`` (compared lowercased) are held, or every
    row when ``keep`` is None; the table's length and ``duplicate_count``
    count the whole file.

    The file is read once, ``CHUNK_LINES`` non-blank lines at a time, with
    one ``np.loadtxt`` call per chunk; only a chunk that call refuses is
    parsed line by line, which names each offending line.
    """
    wanted = None if keep is None else {token.lower() for token in keep}
    tokens, blocks, seen, rows, width = [], [], {}, 0, None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        entries = ((lineno, parts) for lineno, line in enumerate(fh, 1)
                   if (parts := line.split(None, 1)))
        while chunk := list(islice(entries, CHUNK_LINES)):
            good, matrix, width = _loadtxt(chunk, width) or _parse_lines(path, errors, chunk, width)
            picks = [i for i, token in enumerate(good) if _holds(token, seen, wanted)]
            tokens += [good[i] for i in picks]
            if good:  # a chunk with no good line may not know the width yet
                blocks.append(matrix[picks])  # a copy: a view would keep the whole chunk alive
            rows += len(good)
    if not rows:
        reject(path, errors, "no word vectors loaded", kind=EmptyError)
        return None
    return WordVectorTable._from_matrix(tokens, np.concatenate(blocks), rows - len(seen),
                                        len(seen))


def _loadtxt(chunk, width):
    """``(tokens, matrix, width)`` of a chunk of ``(N, [token, components])`` entries by one
    ``np.loadtxt`` call, or None if a line has no components or is not UTF-8, or a value is
    not a finite number ``np.loadtxt`` reads, or the rows are not ``width`` wide."""
    if any(len(parts) == 1 for _lineno, parts in chunk) or \
            not is_utf8("".join(parts[0] for _lineno, parts in chunk)):
        return None  # np.loadtxt would skip a token-only line; it refuses a surrogate itself
    try:
        matrix = np.loadtxt([parts[1] for _lineno, parts in chunk], dtype=np.float64,
                            comments=None, ndmin=2)
    except ValueError:
        return None
    if width not in (None, matrix.shape[1]) or not np.isfinite(matrix).all():
        return None
    return [parts[0].lower() for _lineno, parts in chunk], matrix, matrix.shape[1]


def _parse_lines(path, errors, chunk, width):
    """``(tokens, rows, width)`` of a chunk's good lines, parsed one at a time; each bad
    line is reported by ``errors.reject`` as ``line N: message``, in file order."""
    tokens, vecs = [], []
    for lineno, parts in chunk:
        fields = parts[1].split() if len(parts) > 1 else []
        if not is_utf8(" ".join(parts)):
            message = "not valid UTF-8"
        elif width is None and not fields:
            message = "entry has no vector components"
        elif len(fields) != (width := width or len(fields)):
            message = f"inconsistent dimension: got {len(fields)}, expected {width}"
        elif (vec := _floats(fields)) is None:
            message = "non-numeric vector component"
        elif not np.isfinite(vec).all():
            message = "non-finite vector component"
        else:
            tokens.append(parts[0].lower())
            vecs.append(vec)
            continue
        reject(path, errors, f"line {lineno}: {message}")
    return tokens, np.array(vecs, dtype=np.float64), width


def _floats(fields):
    """``fields`` as Python floats, or None if one is not a number."""
    try:
        return [float(x) for x in fields]
    except ValueError:
        return None


@dataclass(frozen=True)
class Mention:
    """One marked aspect-phrase occurrence inside a sentence."""
    phrase: str
    start: int
    end: int
    group: int | None = None

    @property
    def span(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class AnnotatedSentence:
    tokens: tuple[str, ...]
    mentions: tuple[Mention, ...]


class AnnotatedCorpus:
    """Sentences with marked aspect-phrase occurrences.

    ``phrase_index`` maps each phrase to its occurrences as
    ``[(sentence_id, (start, end)), ...]`` in corpus order and is always
    the exact inverse of the sentence mentions.
    """

    def __init__(self, sentences):
        self.sentences: list[AnnotatedSentence] = list(sentences)
        self.phrase_index: dict[str, list[tuple[int, tuple[int, int]]]] = {}
        for sid, sent in enumerate(self.sentences):
            for m in sent.mentions:
                self.phrase_index.setdefault(m.phrase, []).append((sid, m.span))

    def __len__(self):
        return len(self.sentences)

    def mention_count(self):
        return sum(len(s.mentions) for s in self.sentences)

    def phrases(self):
        """Distinct phrases in sorted order."""
        return sorted(self.phrase_index)

    def distinct_tokens(self):
        out = set()
        for sent in self.sentences:
            out.update(sent.tokens)
        return out

    def has_labels(self):
        return any(m.group is not None for s in self.sentences for m in s.mentions)

    def gold_groups(self):
        """Phrase -> gold group id, by majority over labeled mentions.

        Ties break toward the smallest group id; phrases with no labeled
        mention are omitted.
        """
        votes: dict[str, dict[int, int]] = {}
        for sent in self.sentences:
            for m in sent.mentions:
                if m.group is not None:
                    votes.setdefault(m.phrase, {}).setdefault(m.group, 0)
                    votes[m.phrase][m.group] += 1
        out = {}
        for phrase, counts in votes.items():
            best = min(counts, key=lambda g: (-counts[g], g))
            out[phrase] = best
        return out


def _parse_sentence(obj):
    if not isinstance(obj, dict):
        raise FormatError("record is not a JSON object")
    tokens = record_tokens(obj.get("tokens"))
    raw_mentions = obj.get("mentions", [])
    if not isinstance(raw_mentions, list):
        raise FormatError("'mentions' must be an array")
    mentions = []
    seen = set()
    for m in raw_mentions:
        if not isinstance(m, dict):
            raise FormatError("mention is not a JSON object")
        phrase = m.get("phrase")
        start, end = m.get("start"), m.get("end")
        group = m.get("group")
        if not isinstance(phrase, str) or not is_int(start) or not is_int(end):
            raise FormatError("mention needs string 'phrase' and integer 'start'/'end'")
        if group is not None and not is_int(group):
            raise FormatError("'group' must be an integer when present")
        if not (0 <= start < end <= len(tokens)):
            raise FormatError(f"span [{start},{end}) out of range for {len(tokens)} tokens")
        phrase = phrase.lower()
        if phrase != " ".join(tokens[start:end]):
            raise FormatError(f"phrase {phrase!r} does not match tokens {tokens[start:end]!r}")
        key = (phrase, start, end)
        if key in seen:
            raise FormatError(f"duplicate mention {key!r}")
        seen.add(key)
        mentions.append(Mention(phrase, start, end, group))
    return AnnotatedSentence(tokens, tuple(mentions))


def load_corpus(path, errors=None):
    """Load a line-delimited JSON corpus.

    When ``errors`` is a list, malformed records are collected as strings
    and skipped; otherwise the first problem raises FormatError, or EmptyError
    for a file with no sentence."""
    sentences = read_jsonl(path, _parse_sentence, errors)
    if not sentences:
        reject(path, errors, "no sentences loaded", kind=EmptyError)
    return AnnotatedCorpus(sentences)


def corpus_records(corpus):
    """Corpus as serializable dicts, one per sentence."""
    records = []
    for sent in corpus.sentences:
        mentions = []
        for m in sent.mentions:
            entry = {"phrase": m.phrase, "start": m.start, "end": m.end}
            if m.group is not None:
                entry["group"] = m.group
            mentions.append(entry)
        records.append({"tokens": list(sent.tokens), "mentions": mentions})
    return records


def save_corpus(corpus, path):
    write_jsonl(corpus_records(corpus), path)


def save_word_vectors(table, path):
    """Write a table back to the text format, tokens sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in sorted(table.vectors):
            comps = " ".join(repr(float(x)) for x in table.vectors[token])
            fh.write(f"{token} {comps}\n")
