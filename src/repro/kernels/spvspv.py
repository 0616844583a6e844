"""Element-wise sparse-sparse vector kernels (the SpVSpV instruction).

pSyncPIM's index calculator supports two matching semantics (§IV-B):

* **intersection** — the binary operation fires only where both operands
  hold a non-zero (element-wise multiply of sparse vectors);
* **union** — where one side is absent, its value is the identity element
  and the other side's value flows through (element-wise add/min/max).

The driver distributes both operands by index range so each bank merges
two locally sorted streams; the merge itself is data-dependent, which is
exactly what the predicated SpVSpV step absorbs: each lock-step inner
iteration advances at least one queue, and two extra drain batches at the
end flush cross-batch leftovers before CEXIT retires the units.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..errors import ExecutionError
from ..formats import SparseVector
from ..isa import assemble
from ..pim import AllBankEngine, Beat, LaneEngine, padded_triples
from .base import LaunchStats, launch, passes
from .blas1 import KernelRun, _group


def spvspv_program(outer: int, batch: int, binary: str, set_mode: str,
                   identity: str, precision: str = "fp64"):
    """One merge pass: load a group from each operand, merge, store."""
    writes = 2  # union output of one batch spans at most two groups
    return assemble(f"""
outer:
    SPMOV  SPVQ0, BANK          value={precision}
    SPMOV  SPVQ1, BANK          value={precision}
merge:
    SPVSPV SPVQ2, SPVQ0, SPVQ1 value={precision} binary={binary} s={set_mode} idnt={identity}
    JUMP   merge order=0 count={2 * batch}
store:
    SPMOV  BANK, SPVQ2          value={precision}
    JUMP   store order=1 count={writes}
    CEXIT  SPVQ0|SPVQ1|SPVQ2
    JUMP   outer order=2 count={outer}
    EXIT
""", name=f"spvspv_{binary}_{set_mode}")


def spvspv(x: SparseVector, y: SparseVector, binary: str = "add",
           set_mode: str = "union", identity: str = "zero",
           num_banks: int = 16, precision: str = "fp64") -> KernelRun:
    """z_sp = x_sp (.) y_sp with union or intersection semantics."""
    if x.length != y.length:
        raise ExecutionError("sparse operands must share a length")
    engine = LaneEngine(num_banks, precision=precision)
    group = _group(engine)
    chunk = max(group, math.ceil(x.length / num_banks))

    x_banks, x_max = _chunked(x, num_banks, chunk, group)
    y_banks, y_max = _chunked(y, num_banks, chunk, group)
    groups = max(x_max, y_max) // group
    outer = groups + 2  # two drain batches flush cross-batch leftovers
    total_in = outer * group
    engine.host_write_triples(
        "xsp", [padded_triples(r, c, v, total_in) for r, c, v in x_banks])
    engine.host_write_triples(
        "ysp", [padded_triples(r, c, v, total_in) for r, c, v in y_banks])
    out_slots = outer * 2 * group
    pad = np.full(out_slots, -1, dtype=np.int64)
    engine.host_write_triples(
        "zsp", [(pad.copy(), pad.copy(), np.zeros(out_slots))
                for _ in range(num_banks)])

    stats = LaunchStats()
    cursor = 0
    first = True
    for step in passes(outer):
        program = spvspv_program(step, group, binary, set_mode, identity,
                                 precision)

        def beats(lo=cursor, n=step):
            for it in range(lo, lo + n):
                yield Beat("xsp", it)
                yield Beat("ysp", it)
                yield Beat("zsp", 2 * it, write=True)
                yield Beat("zsp", 2 * it + 1, write=True)

        stats.merge(launch(engine, program, beats(),
                           reset_registers=first))
        cursor += step
        first = False

    result = _collect(engine, x.length, chunk)
    return KernelRun(result, stats, engine)


# ----------------------------------------------------------------------
def _chunked(vector: SparseVector, num_banks: int, chunk: int, group: int):
    """Split by index range with chunk-local indices, padded per bank."""
    srt = vector.sorted()
    owners = srt.indices // chunk
    banks = []
    longest = 0
    for b in range(num_banks):
        mask = owners == b
        local = srt.indices[mask] - b * chunk
        banks.append((local, local.copy(), srt.values[mask]))
        longest = max(longest, local.size)
    longest = max(group, math.ceil(longest / group) * group)
    return banks, longest


def _collect(engine: AllBankEngine, length: int, chunk: int) -> SparseVector:
    indices: List[int] = []
    values: List[float] = []
    for b, memory in enumerate(engine.banks):
        region = memory.triples("zsp")
        valid = region.rows >= 0
        global_idx = region.rows[valid] + b * chunk
        in_range = global_idx < length
        indices.extend(global_idx[in_range].tolist())
        values.extend(region.vals[valid][in_range].tolist())
    order = np.argsort(indices, kind="stable") if indices else []
    return SparseVector(length, np.asarray(indices, dtype=np.int64)[order],
                        np.asarray(values)[order])
