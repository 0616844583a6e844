"""Digest pins of the SpMV / SpMM / SpTRSV synthesis, pricing and
attribution slice.

``tests/golden/spmv_slice_digests.json`` holds one sha256 per grid case
over the synthesised trace (every entry, tags included), the segment
labels and ranges, the priced cycles, commands and energy, and the
attribution's device-wide category cycles. The trace is hashed in its
canonical expanded form (host sweeps as per-bank ACT/columns/PRE), the
form it had when the digests were taken. The digests were recorded
while SpMV still had its own synthesisers (``spmv_{ab,pb,channels}_*``),
pricing body and attribution body, so replaying them pins that the one
k-general synthesiser reproduces the old SpMV path exactly at k = 1, and
that SpMM (k > 1) and SpTRSV (whose update SpMVs run through it) did not
move either.

Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python tests/test_spmv_slice_digests.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (as_spmm_execution, ildu, plan_spmv, run_sptrsv,
                        time_spmm, time_spmv, time_sptrsv)
from repro.core import trace as trace_module
from repro.dram import expand
from repro.formats import generate
from repro.obs.attrib import (attribute_spmm, attribute_spmv,
                              attribute_sptrsv)

DIGESTS = Path(__file__).parent / "golden" / "spmv_slice_digests.json"

SCALE = 0.01
SPMV_MATRICES = ("bcsstk32", "lhr71", "rma10", "soc-sign-epinions")
SPTRSV_MATRICES = ("2cubes_sphere", "poisson3Da")
CHANNELS = (None, 4, 16)
PRECISIONS = ("fp64", "int8")
RHS = (1, 4, 5, 16)


def grid():
    """Case keys: ``(kind, matrix, k_or_factor, channels, precision,
    mode)``; SpTRSV is priced in AB mode only."""
    cases = []
    for matrix in SPMV_MATRICES:
        for k in RHS:
            kind = "spmv" if k == 1 else "spmm"
            for channels in CHANNELS:
                for precision in PRECISIONS:
                    for mode in ("ab", "pb"):
                        cases.append((kind, matrix, k, channels,
                                      precision, mode))
    for matrix in SPTRSV_MATRICES:
        for factor in ("lower", "upper"):
            for channels in CHANNELS:
                for precision in PRECISIONS:
                    cases.append(("sptrsv", matrix, factor, channels,
                                  precision, "ab"))
    return cases


def case_id(case) -> str:
    kind, matrix, arg, channels, precision, mode = case
    return f"{kind}/{matrix}/{arg}/ch{channels}/{precision}/{mode}"


@lru_cache(maxsize=None)
def _spmv_execution(matrix, channels, precision):
    config = default_system()
    return plan_spmv(generate(matrix, scale=SCALE), config,
                     precision=precision, channels=channels)[2]


@lru_cache(maxsize=None)
def _factors(matrix):
    return ildu(generate(matrix, scale=SCALE))


def _execution(case):
    kind, matrix, arg, channels, precision, _ = case
    if kind == "sptrsv":
        factors = _factors(matrix)
        lower = arg == "lower"
        tri = factors.lower if lower else factors.upper
        b = np.random.default_rng(3).random(tri.shape[0])
        return run_sptrsv(tri, b, default_system(), lower=lower,
                          precision=precision,
                          channels=channels).execution
    execution = _spmv_execution(matrix, channels, precision)
    return execution if kind == "spmv" else as_spmm_execution(execution,
                                                              arg)


def case_digest(case) -> str:
    """sha256 of one case's trace, segments, pricing and attribution.

    The synthesiser is looked up on :mod:`repro.core.trace` at call
    time, so the same digest code serves recording and replay.
    """
    kind, _, _, _, _, mode = case
    config = default_system()
    execution = _execution(case)
    seg = trace_module.synthesize(execution, config, mode=mode)
    if kind == "sptrsv":
        perf = time_sptrsv(execution, config, with_energy=True)
        attribution, _ = attribute_sptrsv(execution, config)
    else:
        pricer = time_spmv if kind == "spmv" else time_spmm
        attribute = attribute_spmv if kind == "spmv" else attribute_spmm
        perf = pricer(execution, config, mode=mode, with_energy=True)
        attribution, _ = attribute(execution, config, mode=mode)
    # The canonical form: every row visit and host sweep expanded into
    # its (command, count) rows, segment ranges remapped to the expanded
    # indices.
    rows, starts = [], []
    for entry in seg.trace:
        starts.append(len(rows))
        for command, count in expand([entry]):
            rows.append([command.kind.name, command.channel, command.bank,
                         command.row, command.col, command.min_gap,
                         command.tag, count])
    starts.append(len(rows))
    payload = {
        "trace": rows,
        "segments": [[s.label, s.channel, starts[s.start], starts[s.end]]
                     for s in seg.segments],
        "cycles": perf.cycles,
        "commands": perf.commands,
        "energy_pj": perf.energy.as_dict(),
        "device_cycles": attribution.device_cycles(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def record() -> dict:
    return {case_id(case): case_digest(case) for case in grid()}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def test_grid_matches_pinned_keys(pinned):
    assert sorted(pinned) == sorted(case_id(case) for case in grid())


# The 16-channel slice prices 16 channel clocks per case and takes most
# of the grid's time; it runs in the full suite, not the fast leg.
CASES = [pytest.param(case, marks=pytest.mark.slow) if case[3] == 16
         else case for case in grid()]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_digest_replays_exactly(pinned, case):
    assert case_digest(case) == pinned[case_id(case)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {DIGESTS}")
