"""The SpMV tile kernel: Algorithm 2 on one round of per-bank tiles.

One *round* gives every bank at most one sub-matrix tile (local COO
elements, an input-vector segment, an output segment). All banks execute the
same program in lock step; banks with fewer elements see ``-1`` padding, set
their conditional-exit flag and retire early while the host keeps streaming
for the largest bank — the cost model of the paper's partially synchronous
execution.

The same kernel implements the SpTRSV level step (Algorithm 3): the
``accumulate`` operation becomes ``sub`` and the input segment holds the
level's solved values, so ``y[r] -= x[c] * v`` — lines 6-8 of Algorithm 3.
Semiring variants (min/plus for SSSP, or/and for BFS) reuse it with other
operator pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError
from ..pim import Beat, LaneEngine, padded_triples
from . import programs
from .base import LaunchStats, launch, passes


@dataclass
class Tile:
    """One bank's workload for a round: local-index COO plus vector tiles.

    ``rows``/``cols`` are tile-local indices (row into ``y_len`` slots,
    col into ``x_segment``).
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    x_segment: np.ndarray
    y_len: int

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float64)
        self.x_segment = np.ascontiguousarray(self.x_segment,
                                              dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ExecutionError("tile arrays must align")
        if self.rows.size:
            if self.rows.max() >= self.y_len or self.rows.min() < 0:
                raise ExecutionError("tile row index outside output tile")
            if self.cols.max() >= self.x_segment.size or self.cols.min() < 0:
                raise ExecutionError("tile col index outside input segment")

    @property
    def nnz(self) -> int:
        return int(self.rows.size)


@dataclass
class TileRoundResult:
    """Outputs of one lock-step round."""

    y_per_bank: List[np.ndarray]
    stats: LaunchStats
    #: Batches the slowest bank needed (the lock-step critical path).
    batches: int
    #: Per-bank valid element counts (utilisation / imbalance analysis).
    nnz_per_bank: List[int]


def empty_tile(x_len: int = 1, y_len: int = 1) -> Tile:
    """A tile for banks with no work this round (pure padding)."""
    zero = np.zeros(0)
    return Tile(zero, zero, zero, np.zeros(max(x_len, 1)), max(y_len, 1))


def run_tile_round(engine: LaneEngine, tiles: Sequence[Optional[Tile]],
                   accumulate: str = "add", multiply: str = "mul",
                   y_init: float = 0.0) -> TileRoundResult:
    """Execute one round of tiles on *engine* (one tile per bank).

    ``accumulate`` is the scatter operation into the output tile (``add``
    for SpMV, ``sub`` for SpTRSV levels, ``min``/``lor`` for semirings);
    ``multiply`` is the element operation against the gathered input value.
    ``y_init`` seeds the output tiles (the accumulate operation's identity
    for semiring use: +inf for min, -inf for max).
    """
    if len(tiles) != engine.num_banks:
        raise ExecutionError(
            f"need one tile per bank: {len(tiles)} != {engine.num_banks}")
    tiles = [tile if tile is not None else empty_tile() for tile in tiles]

    group = engine.group_size
    batch = engine.queue_capacity
    loads = max(1, batch // group)
    batch = loads * group  # elements per outer iteration

    nnz = [tile.nnz for tile in tiles]
    max_nnz = max(nnz)
    batches = max(1, math.ceil(max_nnz / batch))
    total_elems = batches * batch

    x_len = max(tile.x_segment.size for tile in tiles)
    y_len = max(tile.y_len for tile in tiles)
    engine.host_write_triples(
        "mat", [padded_triples(t.rows, t.cols, t.vals, total_elems)
                for t in tiles])
    engine.host_write_dense(
        "x", [_pad(t.x_segment, x_len) for t in tiles])
    engine.host_write_dense("y", [np.full(y_len, float(y_init))
                                  for _ in tiles])

    stats = LaunchStats()
    load_cursor = 0
    first = True
    for step in passes(batches):
        program = _tile_program(step, loads, batch, accumulate, multiply,
                                engine.precision)
        stats.merge(launch(engine, program,
                           _tile_beats(step, loads, batch, load_cursor),
                           reset_registers=first))
        load_cursor += step * loads
        first = False

    return TileRoundResult(y_per_bank=engine.host_read_dense("y"),
                           stats=stats, batches=batches, nnz_per_bank=nnz)


def _tile_program(outer: int, loads: int, batch: int, accumulate: str,
                  multiply: str, precision: str):
    if multiply == "mul":
        return programs.spmv_program(outer, loads, batch,
                                     accumulate=accumulate,
                                     precision=precision)
    # Semiring variant: swap the SSpV operation.
    from ..isa import assemble
    return assemble(f"""
outer:
load:
    SPMOV  SPVQ0, BANK         value={precision}
    JUMP   load order=0 count={loads}
gather:
    INDMOV SRF, BANK, SPVQ0    value={precision}
    SSPV   SPVQ1, SRF, SPVQ0   value={precision} binary={multiply}
    JUMP   gather order=1 count={batch}
scatter:
    SPVDV  BANK, SPVQ1         value={precision} binary={accumulate}
    JUMP   scatter order=2 count={batch}
    CEXIT  SPVQ0|SPVQ1
    JUMP   outer order=3 count={outer}
    EXIT
""", name=f"spmv_{multiply}_{accumulate}")


def _tile_beats(outer: int, loads: int, batch: int, load_cursor: int):
    for it in range(outer):
        for load in range(loads):
            yield Beat("mat", load_cursor + it * loads + load)
        for _ in range(batch):
            yield Beat("x", 0)
        for _ in range(batch):
            yield Beat("y", 0, write=True)


def _pad(vector: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length)
    out[:vector.size] = vector
    return out
