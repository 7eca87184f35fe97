"""Crash-safe append-only JSON-lines journals.

Four logs share this code: the figure campaign's checkpoint
(:mod:`repro.experiments.resilience`), the work queue's
``results.journal`` (:mod:`repro.experiments.queue`), the sweep
server's session journal (:mod:`repro.experiments.server`) and the run
registry (:mod:`repro.telemetry.registry`). Each owner keeps only its
own fold over the records :func:`read` returns.

A process killed mid-append leaves a torn last line. Readers skip it,
and :func:`append` starts the next record on a fresh line, so a torn
fragment costs at most the one record it belonged to.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def append(path: str | Path, record: dict) -> None:
    """Append ``record`` as one line: one write, then one fsync.

    When the file does not end in a newline (a torn tail from a crash
    mid-append) the record is written after a newline of its own, so
    it never shares a line with the fragment.
    """
    data = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str).encode("utf-8") + b"\n"
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        while data:
            data = data[os.write(fd, data):]
        try:
            os.fsync(fd)
        except OSError:
            pass
    finally:
        os.close(fd)


def read(path: str | Path, offset: int = 0) -> tuple[list[dict], int]:
    """Records in complete lines from byte ``offset`` on, and the byte
    offset just past the last complete line.

    A torn last line is left unread: pass the returned offset back in
    to pick it up once it has been completed (or skipped past). Lines
    that do not parse as a JSON object are skipped. A missing file
    reads as no records.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    records = []
    for line in chunk[:end].split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, offset + end
