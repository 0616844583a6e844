"""Digest pins of the Table IX stand-in generators.

``tests/golden/suite_digests.json`` holds one sha256 per (matrix, scale)
over the generated matrix's shape, the dtypes of its ``rows``/``cols``/
``vals`` arrays and their bytes, in element order. The encoding is
computed here, not through the sweep cache's key, so a cache version
bump never moves these pins; only a change to a generator's output does.

Regenerate (only for a deliberate generator change) with::

    PYTHONPATH=src python tests/test_suite_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.formats import generate, suite_names

DIGESTS = Path(__file__).parent / "golden" / "suite_digests.json"

SCALES = (0.002, 0.005, 0.02)


def suite_digest(matrix) -> str:
    """SHA-256 of shape, dtypes and coordinate/value bytes."""
    h = hashlib.sha256(repr(matrix.shape).encode())
    for arr in (matrix.rows, matrix.cols, matrix.vals):
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def case_key(name: str, scale: float) -> str:
    return f"{name}@{scale}"


def compute_all() -> dict:
    return {case_key(name, scale): suite_digest(generate(name, scale=scale))
            for name in suite_names() for scale in SCALES}


def test_every_case_is_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert set(pinned) == {case_key(name, scale) for name in suite_names()
                           for scale in SCALES}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", suite_names())
def test_generator_output_is_pinned(name, scale):
    pinned = json.loads(DIGESTS.read_text())
    assert suite_digest(generate(name, scale=scale)) == \
        pinned[case_key(name, scale)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {DIGESTS}")
