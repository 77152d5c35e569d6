"""JSON-lines files: the one reader and writer of corpus, taxonomy and pairs files.

A file holds one JSON value per line and blank lines are skipped. Each
format supplies only a record parser; a line that is not UTF-8 or not JSON,
or whose record the parser rejects with FormatError, is reported by
``errors.reject`` as ``line N: message``.
"""
from __future__ import annotations

import json

from .errors import FormatError, reject


def is_utf8(text):
    """Whether ``text``, read with ``errors="surrogateescape"``, was UTF-8: a byte that did
    not decode reads as a lone surrogate, which does not encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_jsonl(path, parse, errors=None):
    """``parse(record)`` for each record of ``path``, in file order.

    A bad line raises FormatError naming ``path`` and the line or, when
    ``errors`` is a list, is noted there and skipped.
    """
    parsed = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not is_utf8(line):
                reject(path, errors, f"line {lineno}: not valid UTF-8")
            elif line.strip():
                try:
                    parsed.append(parse(json.loads(line)))
                except json.JSONDecodeError as exc:
                    reject(path, errors, f"line {lineno}: invalid JSON ({exc.msg})", exc)
                except FormatError as exc:
                    reject(path, errors, f"line {lineno}: {exc}", exc)
    return parsed


def is_int(value):
    """Whether a decoded JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def record_tokens(value):
    """A record's ``tokens``, lowercased; each must be a non-empty string with no whitespace."""
    if not isinstance(value, list) or not value or not all(isinstance(t, str) for t in value):
        raise FormatError("'tokens' must be a non-empty array of strings")
    for n, token in enumerate(value):
        if token.split() != [token]:
            raise FormatError(f"'tokens' entry {n} must be a non-empty string with no "
                              f"whitespace, got {json.dumps(token)}")
    return tuple(t.lower() for t in value)


def write_jsonl(records, path):
    """Write ``records`` one per line as sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
