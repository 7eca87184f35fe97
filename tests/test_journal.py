"""Crash-point properties of the shared JSON-lines journal.

A process killed mid-append can leave the file cut at any byte. For
every such cut, appending one more record and reading back must yield
exactly the records whose JSON text was complete before the cut plus
the new one, and a reader that polled the torn file and then resumed
from its returned offset must see the same records as a full read.
"""

from __future__ import annotations

from repro import journal

RECORDS = [
    {"figure": "fig5", "quick": True},
    {"cell": "é∂", "result": "Z0Y=", "worker": "w1"},  # multi-byte UTF-8
    {"n": 3, "nested": {"list": [1, None, "x"]}},
    {"key": "k4", "type": "result"},
]
NEW = {"key": "after-the-crash", "type": "request"}


def _written(tmp_path):
    """The journal bytes of RECORDS, and where each record's JSON ends."""
    path = tmp_path / "full.journal"
    ends = []
    for record in RECORDS:
        journal.append(path, record)
        ends.append(path.stat().st_size - 1)  # before its newline
    return path.read_bytes(), ends


def test_append_after_every_crash_point_keeps_complete_records(tmp_path):
    data, ends = _written(tmp_path)
    path = tmp_path / "cut.journal"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        polled, offset = journal.read(path)
        journal.append(path, NEW)
        want = [record for record, end in zip(RECORDS, ends)
                if end <= cut] + [NEW]
        full, end_offset = journal.read(path)
        assert full == want, cut
        assert end_offset == path.stat().st_size, cut
        # A reader that saw the torn file resumes from its offset.
        rest, resumed_end = journal.read(path, offset)
        assert polled + rest == full, cut
        assert resumed_end == end_offset, cut


def test_read_skips_foreign_lines_and_missing_files(tmp_path):
    path = tmp_path / "j"
    assert journal.read(path) == ([], 0)
    assert journal.read(path, 17) == ([], 17)
    path.write_bytes(b'[1, 2]\n"text"\n\n{"ok": 1}\n{"torn": ')
    records, offset = journal.read(path)
    assert records == [{"ok": 1}]
    assert offset == len(b'[1, 2]\n"text"\n\n{"ok": 1}\n')


def test_append_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "log.journal"
    journal.append(path, {"x": 1})
    assert journal.read(path)[0] == [{"x": 1}]
