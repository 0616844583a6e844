"""Golden-trace regression: exact snapshots of canonical workloads.

Each workload builds a small, fully deterministic kernel schedule and
records the complete command trace plus the scheduler's cycle counts and
energy counters. The snapshots live under ``tests/golden/`` and are
compared *exactly* in CI: any drift in trace synthesis, scheduling or
energy pricing fails the build until the change is either fixed or
consciously re-baselined with ``psyncpim check --update-golden``.

JSON floats round-trip exactly through ``repr`` (Python writes the
shortest representation that parses back to the same double), so exact
equality on the loaded record is bitwise equality on the numbers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import default_system
from ..core import dense_stream_trace, run_spmm, run_sptrsv
from ..core.timing import alu_operations
from ..core.trace import synthesize
from ..dram import TraceEntry, as_run, expand_sweeps
from ..formats.generators import uniform_random, unit_lower_from

#: Bump when the record layout itself changes (forces a re-baseline).
#: v2 added the "attrib" section (cycle-attribution device totals).
RECORD_VERSION = 2


def default_golden_dir() -> Path:
    """``tests/golden`` of the source checkout this module lives in."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


# ----------------------------------------------------------------------
# canonical workloads
# ----------------------------------------------------------------------
#: A workload's command trace, ALU operation count and precision.
Workload = Tuple[List[TraceEntry], int, str]


def _spmm(mode: str, num_rhs: int) -> Workload:
    # One 48x48 matrix for every width: the plan is shared, and k = 1 is
    # the spmv workload.
    config = default_system()
    matrix = uniform_random(48, 48, 0.08, seed=11)
    x = np.random.default_rng(12).random((48, num_rhs))
    execution = run_spmm(matrix, x, config, engine_banks=4).execution
    return (synthesize(execution, config, mode=mode).trace,
            alu_operations(execution), execution.precision)


def _sptrsv() -> Workload:
    config = default_system()
    tri = unit_lower_from(uniform_random(40, 40, 0.06, seed=7), seed=8)
    b = np.random.default_rng(9).random(40)
    execution = run_sptrsv(tri, b, config, engine_banks=4).execution
    return (synthesize(execution, config).trace,
            alu_operations(execution), execution.precision)


def _dense_stream() -> Workload:
    trace = dense_stream_trace(elements_per_bank=256, reads_per_group=2,
                               writes_per_group=1, precision="fp32")
    return trace, 256 * 16, "fp32"


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "spmv_ab": lambda: _spmm("ab", 1),
    "spmv_pb": lambda: _spmm("pb", 1),
    "spmm_ab": lambda: _spmm("ab", 4),
    "spmm_pb": lambda: _spmm("pb", 4),
    "sptrsv_ab": _sptrsv,
    "dense_stream_ab": _dense_stream,
}


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def _trace_rows(trace: List[TraceEntry]) -> List[list]:
    """One row per command or run of the trace, sweeps expanded."""
    rows = []
    for entry in expand_sweeps(trace):
        command, count = as_run(entry)
        rows.append([command.kind.name, command.channel, command.bank,
                     command.row, command.col, command.min_gap,
                     command.tag, count])
    return rows


def build_record(name: str) -> dict:
    """Regenerate the snapshot for one workload (exact, deterministic).

    One pass of the trace-level primitive yields the schedule and its
    attribution (no segments, no lock-step padding split)."""
    from ..obs.attrib import attribute_trace
    trace, alu, precision = WORKLOADS[name]()
    attribution, report = attribute_trace(
        trace, default_system(), with_energy=True, alu_operations=alu,
        precision=precision)
    energy = report.energy.as_dict() if report.energy else {}
    return {
        "version": RECORD_VERSION,
        "workload": name,
        "trace": _trace_rows(trace),
        "schedule": {
            "total_cycles": report.cycles,
            "commands": report.commands,
            "row_commands": report.row_commands,
            "column_commands": report.column_commands,
            "counts": {kind.name: n for kind, n in
                       sorted(report.counts.items(),
                              key=lambda kv: kv[0].name) if n},
            "tag_cycles": dict(sorted(report.tag_cycles.items())),
        },
        # Device-wide category totals of the cycle-attribution engine
        # (every lane sums bitwise to total_cycles; pinning the totals
        # here catches silent category drift, not just cycle drift).
        "attrib": {
            "total_cycles": attribution.total_cycles,
            "lanes": attribution.num_lanes,
            "device_cycles": dict(sorted(
                attribution.device_cycles().items())),
        },
        "energy_pj": {k: v for k, v in sorted(energy.items())},
    }


def golden_path(directory: Path, name: str) -> Path:
    return Path(directory) / f"{name}.json"


def _diff_records(name: str, expected: dict, actual: dict) -> List[str]:
    problems: List[str] = []
    for key in ("version", "schedule", "attrib", "energy_pj"):
        if expected.get(key) != actual.get(key):
            problems.append(
                f"{name}: {key} drifted: expected {expected.get(key)!r}"
                f" != actual {actual.get(key)!r}")
    old, new = expected.get("trace", []), actual.get("trace", [])
    if old != new:
        if len(old) != len(new):
            problems.append(f"{name}: trace length {len(old)} -> "
                            f"{len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                problems.append(
                    f"{name}: trace[{i}] expected {a!r} != actual {b!r}")
                break
    return problems


def compare_golden(directory: Optional[Path] = None,
                   names: Optional[List[str]] = None) -> List[str]:
    """Regenerate every workload and diff against its snapshot.

    Returns a list of human-readable mismatch descriptions; empty means
    every snapshot matches exactly.
    """
    directory = Path(directory) if directory else default_golden_dir()
    problems: List[str] = []
    for name in names or WORKLOADS:
        path = golden_path(directory, name)
        if not path.exists():
            problems.append(
                f"{name}: missing snapshot {path}; run "
                f"`psyncpim check --update-golden` and commit the result")
            continue
        expected = json.loads(path.read_text())
        actual = build_record(name)
        problems.extend(_diff_records(name, expected, actual))
    return problems


def update_golden(directory: Optional[Path] = None,
                  names: Optional[List[str]] = None) -> List[Path]:
    """Rewrite the snapshots; returns the paths written."""
    directory = Path(directory) if directory else default_golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names or WORKLOADS:
        path = golden_path(directory, name)
        record = build_record(name)
        path.write_text(json.dumps(record, indent=1, sort_keys=True)
                        + "\n")
        written.append(path)
    return written


def golden_traces() -> Dict[str, List[TraceEntry]]:
    """The live traces of every workload (for protocol checking)."""
    return {name: builder()[0] for name, builder in WORKLOADS.items()}
