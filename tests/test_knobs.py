"""The README's knob table lists exactly the ``REPRO_*`` names the code
reads, so a knob cannot be added or left behind without the table
changing too."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def test_readme_knob_table_matches_source():
    in_source = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        in_source.update(KNOB.findall(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme,
                              flags=re.MULTILINE))
    assert in_table == in_source
