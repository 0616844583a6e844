"""Dense Level-2 kernels: DGEMV and DTRSV (Table III).

DGEMV distributes matrix rows across banks and runs one dot-product launch
per local row (the SRF accumulates the row's partial sums, then a scalar
write stores y[i]).

DTRSV is the dense counterpart of the SpTRSV scheme: the host walks the
columns, divides by the diagonal (division is host-side — the paper
deliberately keeps dividers out of the PIM units, §VI-D), broadcasts the
solved value, and the banks apply the rank-1 update to their chunk of the
right-hand side.
"""

from __future__ import annotations

import math
import numpy as np

from ..errors import ExecutionError
from ..pim import Beat, LaneEngine
from . import programs
from .base import LaunchStats, groups_for, join_even, launch, split_even
from .blas1 import KernelRun, _vector


def dgemv(matrix: np.ndarray, x: np.ndarray, num_banks: int = 16,
          precision: str = "fp64") -> KernelRun:
    """DGEMV: returns y = A @ x for a dense matrix A."""
    matrix = np.asarray(matrix, dtype=np.float64)
    x = _vector(x, "x")
    if matrix.ndim != 2 or matrix.shape[1] != x.size:
        raise ExecutionError("DGEMV operand shapes do not match")
    m, n = matrix.shape
    engine = LaneEngine(num_banks, precision=precision)
    lanes = engine.lanes

    rows_per_bank = math.ceil(m / num_banks)
    n_padded = math.ceil(n / lanes) * lanes
    groups = n_padded // lanes
    flat = []
    for b in range(num_banks):
        block = np.zeros((rows_per_bank, n_padded))
        lo, hi = b * rows_per_bank, min((b + 1) * rows_per_bank, m)
        if lo < hi:
            block[:hi - lo, :n] = matrix[lo:hi]
        flat.append(block.reshape(-1))
    engine.host_write_dense("A", flat)
    xpad = np.zeros(n_padded)
    xpad[:n] = x
    engine.host_write_dense("x", [xpad.copy() for _ in range(num_banks)])
    engine.host_write_dense("y",
                            [np.zeros(rows_per_bank)
                             for _ in range(num_banks)])

    stats = LaunchStats()
    for local_row in range(rows_per_bank):
        program = programs.dgemv_row_program(groups, precision)

        def beats(row=local_row):
            for g in range(groups):
                yield Beat("A", row * groups + g)
                yield Beat("x", g)
            yield Beat("y", row, write=True)

        stats.merge(launch(engine, program, beats(), scalar=0.0))

    y = join_even(engine.host_read_dense("y"), m)
    return KernelRun(y, stats, engine)


def dtrsv(matrix: np.ndarray, b: np.ndarray, lower: bool = True,
          num_banks: int = 16, precision: str = "fp64") -> KernelRun:
    """DTRSV: returns x solving ``T x = b`` for dense triangular T.

    The host performs the per-column division by the diagonal; banks apply
    ``b_chunk -= x_j * T[:, j]_chunk`` updates through the PIM datapath.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    b = _vector(b, "b")
    n = b.size
    if matrix.shape != (n, n):
        raise ExecutionError("DTRSV operand shapes do not match")
    if np.any(np.diag(matrix) == 0.0):
        raise ExecutionError("singular triangular matrix")
    engine = LaneEngine(num_banks, precision=precision)
    lanes = engine.lanes

    chunks = split_even(b, num_banks, lanes)
    chunk = len(chunks[0])
    chunk_groups = groups_for(chunk, lanes)
    engine.host_write_dense("b", chunks)
    # Columns stored per bank, column-major over the bank's row chunk.
    cols = []
    for bank in range(num_banks):
        lo, hi = bank * chunk, min((bank + 1) * chunk, n)
        block = np.zeros((n, chunk))
        if lo < hi:
            block[:, :hi - lo] = matrix[lo:hi, :].T
        cols.append(block.reshape(-1))
    engine.host_write_dense("T", cols)

    order = range(n) if lower else range(n - 1, -1, -1)
    stats = LaunchStats()
    x = np.zeros(n)
    for j in order:
        owner, offset = divmod(j, chunk)
        bj = engine.host_read_dense("b")[owner][offset]
        xj = bj / matrix[j, j]
        x[j] = xj
        program = programs.dtrsv_update_program(chunk_groups, precision)

        def beats(col=j):
            for g in range(chunk_groups):
                yield Beat("T", col * chunk_groups + g)
                yield Beat("b", g)
                yield Beat("b", g, write=True)

        stats.merge(launch(engine, program, beats(), scalar=xj))

    return KernelRun(x, stats, engine)
