"""Level-1 BLAS and Sparse BLAS kernel drivers (Table III).

Each driver distributes its operands across banks, runs the matching PIM
program through the full mode protocol, and returns a :class:`KernelRun`
with the numerical result plus the launch statistics the timing tier uses.

Dense vectors are split into equal per-bank chunks (all-bank execution
streams every bank identically). Sparse vectors are distributed by index
range so each element lands in the bank owning its dense counterpart —
keeping every access local to a bank, the constraint commercial all-bank
PIM imposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ExecutionError
from ..formats import SparseVector
from ..pim import AllBankEngine, Beat, LaneEngine, padded_triples
from . import programs
from .base import (LaunchStats, groups_for, join_even, launch, passes,
                   read_scalars, split_even)


@dataclass
class KernelRun:
    """Result of one kernel execution on the functional engine."""

    result: object
    stats: LaunchStats
    engine: AllBankEngine


def _lanes(engine: AllBankEngine) -> int:
    return engine.units[0].registers.lanes


def _group(engine: AllBankEngine) -> int:
    return engine.units[0].registers.group_size


# ----------------------------------------------------------------------
# dense kernels
# ----------------------------------------------------------------------
def _dense_setup(engine: AllBankEngine, **vectors) -> int:
    """Distribute dense vectors into same-named regions; return chunk len."""
    lanes = _lanes(engine)
    chunk = None
    for name, vector in vectors.items():
        chunks = split_even(np.asarray(vector, dtype=np.float64),
                            len(engine.banks), lanes)
        engine.host_write_dense(name, chunks)
        chunk = len(chunks[0])
    return chunk


def _dense_run(engine: AllBankEngine, chunk: int, program_builder,
               beat_builder, scalar: Optional[float] = None) -> LaunchStats:
    """Run a dense streaming kernel in <=1023-group passes."""
    lanes = _lanes(engine)
    total_groups = groups_for(chunk, lanes)
    stats = LaunchStats()
    offset = 0
    first = True
    for step in passes(total_groups):
        program = program_builder(step)
        stats.merge(launch(engine, program,
                           beat_builder(offset, step),
                           scalar=scalar if first else None,
                           reset_registers=first))
        offset += step
        first = False
    return stats


def dcopy(x: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DCOPY: returns y = x streamed through the PIM datapath."""
    x = np.asarray(x, dtype=np.float64)
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x, y=np.zeros_like(x))

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("y", g, write=True)

    stats = _dense_run(engine, chunk,
                       lambda n: programs.dcopy_program(n, precision), beats)
    y = join_even(engine.host_read_dense("y"), x.size)
    return KernelRun(y, stats, engine)


def dswap(x: np.ndarray, y: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DSWAP: returns (new_x, new_y) = (y, x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ExecutionError("DSWAP operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x, y=y)

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("y", g)
            yield Beat("x", g, write=True)
            yield Beat("y", g, write=True)

    stats = _dense_run(engine, chunk,
                       lambda n: programs.dswap_program(n, precision), beats)
    new_x = join_even(engine.host_read_dense("x"), x.size)
    new_y = join_even(engine.host_read_dense("y"), y.size)
    return KernelRun((new_x, new_y), stats, engine)


def dscal(alpha: float, x: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DSCAL: returns alpha * x (computed in place on the banks)."""
    x = np.asarray(x, dtype=np.float64)
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x)

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("x", g, write=True)

    stats = _dense_run(engine, chunk,
                       lambda n: programs.dscal_program(n, precision), beats,
                       scalar=alpha)
    return KernelRun(join_even(engine.host_read_dense("x"), x.size),
                     stats, engine)


def daxpy(alpha: float, x: np.ndarray, y: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DAXPY: returns alpha*x + y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ExecutionError("DAXPY operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x, y=y)

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("y", g)
            yield Beat("y", g, write=True)

    stats = _dense_run(engine, chunk,
                       lambda n: programs.daxpy_program(n, precision), beats,
                       scalar=alpha)
    return KernelRun(join_even(engine.host_read_dense("y"), y.size),
                     stats, engine)


def ddot(x: np.ndarray, y: np.ndarray, num_banks: int = 16,
         precision: str = "fp64") -> KernelRun:
    """DDOT: returns x . y (per-bank partials reduced by the host)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ExecutionError("DDOT operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x, y=y)

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("y", g)

    stats = _dense_run(engine, chunk,
                       lambda n: programs.ddot_program(n, precision), beats,
                       scalar=0.0)
    total = float(np.sum(read_scalars(engine)))
    return KernelRun(total, stats, engine)


def dnrm2(x: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DNRM2: returns ||x||_2 via a PIM DDOT and a host sqrt."""
    run = ddot(x, x, num_banks=num_banks, precision=precision)
    return KernelRun(math.sqrt(max(run.result, 0.0)), run.stats, run.engine)


def elementwise(x: np.ndarray, y: np.ndarray, binary: str,
                num_banks: int = 16, precision: str = "fp64") -> KernelRun:
    """z = x (.) y for any VALU binary op (graph vector building block)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ExecutionError("elementwise operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, x=x, y=y, z=np.zeros_like(x))

    def beats(offset, step):
        for g in range(offset, offset + step):
            yield Beat("x", g)
            yield Beat("y", g)
            yield Beat("z", g, write=True)

    stats = _dense_run(
        engine, chunk,
        lambda n: programs.elementwise_program(n, binary, precision), beats)
    return KernelRun(join_even(engine.host_read_dense("z"), x.size),
                     stats, engine)


# ----------------------------------------------------------------------
# sparse vector kernels
# ----------------------------------------------------------------------
def _sparse_setup(engine: AllBankEngine, name: str, vector: SparseVector,
                  chunk: int) -> int:
    """Distribute a sparse vector by index range, chunk-local indices.

    Returns the padded per-bank element count (identical across banks, the
    all-bank padding rule).
    """
    group = _group(engine)
    srt = vector.sorted()
    owners = srt.indices // chunk
    per_bank = []
    max_count = 0
    for b in range(len(engine.banks)):
        mask = owners == b
        local = srt.indices[mask] - b * chunk
        per_bank.append((local, local.copy(), srt.values[mask]))
        max_count = max(max_count, local.size)
    total = max(group, math.ceil(max_count / group) * group)
    engine.host_write_triples(
        name, [padded_triples(r, c, v, total) for r, c, v in per_bank])
    return total


def spaxpy(alpha: float, x: SparseVector, y: np.ndarray,
           num_banks: int = 16, precision: str = "fp64") -> KernelRun:
    """SpAXPY: returns alpha * x_sp + y_d."""
    y = np.asarray(y, dtype=np.float64)
    if x.length != y.size:
        raise ExecutionError("SpAXPY operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, y=y)
    total = _sparse_setup(engine, "xsp", x, chunk)
    group = _group(engine)
    total_groups = groups_for(total, group)

    stats = LaunchStats()
    offset = 0
    first = True
    for step in passes(total_groups):
        program = programs.spaxpy_program(step, group, precision)

        def beats(lo=offset, n=step):
            for g in range(lo, lo + n):
                yield Beat("xsp", g)
                for _ in range(group):
                    yield Beat("y", 0, write=True)

        stats.merge(launch(engine, program, beats(),
                           scalar=alpha if first else None,
                           reset_registers=first))
        offset += step
        first = False
    return KernelRun(join_even(engine.host_read_dense("y"), y.size),
                     stats, engine)


def spdot(x: SparseVector, y: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """SpDOT: returns x_sp . y_d."""
    y = np.asarray(y, dtype=np.float64)
    if x.length != y.size:
        raise ExecutionError("SpDOT operands must have equal length")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, y=y)
    total = _sparse_setup(engine, "xsp", x, chunk)
    group = _group(engine)
    total_groups = groups_for(total, group)

    stats = LaunchStats()
    offset = 0
    first = True
    for step in passes(total_groups):
        program = programs.spdot_program(step, group, precision)

        def beats(lo=offset, n=step):
            for g in range(lo, lo + n):
                yield Beat("xsp", g)
                for _ in range(group):
                    yield Beat("y", 0)

        stats.merge(launch(engine, program, beats(),
                           scalar=0.0 if first else None,
                           reset_registers=first))
        offset += step
        first = False
    return KernelRun(float(np.sum(read_scalars(engine))), stats, engine)


def gather(dense: np.ndarray, num_banks: int = 16,
           precision: str = "fp64") -> KernelRun:
    """GATHER: returns the SparseVector of non-zeros of *dense*."""
    dense = np.asarray(dense, dtype=np.float64)
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, y=dense)
    group = _group(engine)
    total_groups = groups_for(chunk, group)
    empty = np.full(total_groups * group, -1, dtype=np.int64)
    engine.host_write_triples(
        "xsp", [(empty.copy(), empty.copy(), np.zeros(empty.size))
                for _ in range(num_banks)])

    stats = LaunchStats()
    offset = 0
    for step in passes(total_groups):
        program = programs.gather_program(step, precision)

        def beats(lo=offset, n=step):
            for g in range(lo, lo + n):
                yield Beat("y", g)
                yield Beat("xsp", g, write=True)

        stats.merge(launch(engine, program, beats(),
                           reset_registers=(offset == 0)))
        offset += step

    indices: List[int] = []
    values: List[float] = []
    for b, memory in enumerate(engine.banks):
        region = memory.triples("xsp")
        valid = region.rows >= 0
        indices.extend((region.rows[valid] + b * chunk).tolist())
        values.extend(region.vals[valid].tolist())
    order = np.argsort(indices, kind="stable") if indices else []
    result = SparseVector(dense.size,
                          np.asarray(indices, dtype=np.int64)[order],
                          np.asarray(values)[order])
    return KernelRun(result, stats, engine)


def scatter(x: SparseVector, length: Optional[int] = None,
            base: Optional[np.ndarray] = None, num_banks: int = 16,
            precision: str = "fp64") -> KernelRun:
    """SCATTER: returns a dense vector with x_sp written into *base*."""
    length = x.length if length is None else length
    dense = (np.zeros(length) if base is None
             else np.asarray(base, dtype=np.float64).copy())
    if dense.size != x.length:
        raise ExecutionError("scatter base length mismatch")
    engine = LaneEngine(num_banks, precision=precision)
    chunk = _dense_setup(engine, y=dense)
    total = _sparse_setup(engine, "xsp", x, chunk)
    group = _group(engine)
    total_groups = groups_for(total, group)

    stats = LaunchStats()
    offset = 0
    first = True
    for step in passes(total_groups):
        program = programs.scatter_program(step, precision)

        def beats(lo=offset, n=step):
            for g in range(lo, lo + n):
                yield Beat("xsp", g)
                yield Beat("y", 0, write=True)

        stats.merge(launch(engine, program, beats(),
                           reset_registers=first))
        offset += step
        first = False
    return KernelRun(join_even(engine.host_read_dense("y"), length),
                     stats, engine)
