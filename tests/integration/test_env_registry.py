"""Every ``REPRO_*`` variable the package reads is documented in the
environment-variable table of docs/INTERNALS.md, and vice versa."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"REPRO_[A-Z_]+")


def _in_source():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(NAME.findall(path.read_text()))
    return names


def _in_table():
    text = (ROOT / "docs" / "INTERNALS.md").read_text()
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, re.MULTILINE)
    assert len(rows) == len(set(rows)), "a variable is listed twice"
    return set(rows)


def test_env_table_matches_source():
    assert _in_source() == _in_table()
