"""The README's environment-knob table lists every knob the code reads.

A ``PSYNCPIM_*`` variable the package reads but the table omits is a
knob users cannot discover; a row naming a variable nothing reads is a
knob that silently does nothing.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"PSYNCPIM_[A-Z_]+")


def _table_knobs():
    text = (ROOT / "README.md").read_text()
    section = text.split("Environment knobs", 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:  # the first non-row line after the table ends it
            break
    return {match for row in rows
            for match in KNOB.findall(row.split("|")[1])}


def _source_knobs():
    return {match for path in (ROOT / "src" / "repro").rglob("*.py")
            for match in KNOB.findall(path.read_text())}


def test_env_table_lists_exactly_the_knobs_the_code_reads():
    assert _table_knobs() == _source_knobs()
