"""Append-only JSONL store: the one writer and reader of the run
ledger's and the TSDB's files (callers own the file layout).

An append writes one record as one sorted, compact JSON line with one
``os.write`` on an ``O_APPEND`` descriptor, so concurrent writers (pool
workers, a parent aggregator, overlapping sessions) interleave whole
lines.  The reader treats the torn tail of a writer killed mid-write as
absent, recovers the record the next append wrote onto it, and skips
records from a future schema.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = ["append", "read_record", "records"]


def append(path: Path, record: Mapping[str, Any]) -> None:
    """Append ``record`` to ``path`` (parents created on demand).

    Not :func:`repro.common.codec.canonical_json`: a NaN gauge must be
    stored, not raise.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = (line + "\n").encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_record(line: str) -> Any:
    """The JSON record a line holds, or None when it holds none.

    A writer killed mid-record leaves a fragment without a newline, and
    the next append lands on it.  The fragment never parses on its own,
    so such a line holds one whole record: the suffix that starts at
    one of its later ``{"``.
    """
    start = 0
    while start != -1:
        try:
            return json.loads(line[start:])
        except ValueError:
            start = line.find('{"', start + 1)
    return None


def records(paths: Iterable[Path], schema: int) -> Iterator[dict[str, Any]]:
    """Every object record in ``paths``, in file then line order, whose
    ``schema`` (1 when absent) is a number at most ``schema``; missing
    files and unreadable lines are skipped, never fatal."""
    for path in paths:
        try:
            fh = open(path, encoding="utf-8")
        except OSError:
            continue
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = read_record(line)
                if not isinstance(data, dict):
                    continue
                version = data.get("schema", 1)
                if isinstance(version, (int, float)) and version <= schema:
                    yield data
