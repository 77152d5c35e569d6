"""JSON-lines files: the one reader and writer of corpus, taxonomy and pairs files.

A file holds one JSON value per line and blank lines are skipped. Each
format supplies only a record parser; a line that is not JSON, or whose
record the parser rejects with FormatError, is reported by ``errors.reject``
as ``line N: message``.
"""
from __future__ import annotations

import json

from .errors import FormatError, reject


def read_jsonl(path, parse, errors=None):
    """``parse(record)`` for each record of ``path``, in file order.

    A bad line raises FormatError naming ``path`` and the line or, when
    ``errors`` is a list, is noted there and skipped.
    """
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                reject(path, errors, f"line {lineno}: invalid JSON ({exc.msg})", exc)
            except FormatError as exc:
                reject(path, errors, f"line {lineno}: {exc}", exc)
    return parsed


def write_jsonl(records, path):
    """Write ``records`` one per line as sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
