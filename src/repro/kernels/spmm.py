"""The SpMM tile kernel: one round of per-bank tiles times k columns.

SpMM (``Y = A @ X`` with a dense block ``X`` of k right-hand-side
columns) reuses the SpMV tile program unchanged: the sparse tile is the
same COO stream, and each right-hand-side column is an independent
gather/accumulate lane over that stream. A bank's block therefore
expands into k lock-step lanes — lane ``(bank, j)`` runs the tile
against column ``j`` of the bank's input segment — and the whole block
executes as one :func:`~repro.kernels.spmv.run_tile_round` launch over
``banks x k`` engine lanes.

At ``k == 1`` the expansion is the identity, so the SpMM kernel is
bitwise the SpMV kernel: same program, same beats, same float
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ExecutionError
from ..pim import LaneEngine
from .spmv import LaunchStats, Tile, run_tile_round


@dataclass
class TileBlockResult:
    """Outputs of one lock-step SpMM round (banks x k lanes)."""

    #: Per-bank output blocks, each of shape ``(y_len, k)``.
    y_per_bank: List[np.ndarray]
    stats: LaunchStats
    #: Batches the slowest lane needed (the lock-step critical path).
    batches: int
    #: Per-bank valid element counts (identical across a bank's lanes).
    nnz_per_bank: List[int]


def expand_block_tiles(tiles: Sequence[Optional[Tile]], num_rhs: int,
                       ) -> List[Optional[Tile]]:
    """Flatten per-bank block tiles into ``banks x num_rhs`` lane tiles.

    Each input tile carries a 2-D ``x_segment`` of shape
    ``(segment, num_rhs)``; lane ``bank * num_rhs + j`` gets the same
    COO stream against column ``j``. ``None`` (idle-bank) entries expand
    to ``num_rhs`` ``None`` lanes.
    """
    if num_rhs < 1:
        raise ExecutionError(f"SpMM needs num_rhs >= 1, got {num_rhs}")
    lanes: List[Optional[Tile]] = []
    for tile in tiles:
        if tile is None:
            lanes.extend([None] * num_rhs)
            continue
        segment = np.asarray(tile.x_segment)
        if segment.ndim == 1:
            segment = segment[:, None]
        if segment.ndim != 2 or segment.shape[1] != num_rhs:
            raise ExecutionError(
                f"block tile x_segment must have {num_rhs} columns, "
                f"got shape {segment.shape}")
        for j in range(num_rhs):
            lanes.append(Tile(tile.rows, tile.cols, tile.vals,
                              np.ascontiguousarray(segment[:, j]),
                              tile.y_len))
    return lanes


def run_tile_block(engine: LaneEngine,
                   tiles: Sequence[Optional[Tile]], num_rhs: int = 1,
                   accumulate: str = "add", multiply: str = "mul",
                   y_init: float = 0.0) -> TileBlockResult:
    """Execute one SpMM round of block tiles on *engine*.

    *tiles* holds one block tile per bank whose ``x_segment`` is the
    bank's ``(segment, num_rhs)`` input block; *engine* must provide
    ``len(tiles) * num_rhs`` lanes. The launch is a plain
    :func:`~repro.kernels.spmv.run_tile_round` over the expanded lanes,
    so the engine-against-reference equivalence carries over unchanged.
    """
    lanes = expand_block_tiles(tiles, num_rhs)
    if len(lanes) != engine.num_banks:
        raise ExecutionError(
            f"need one lane per bank: {len(lanes)} != {engine.num_banks}")
    round_result = run_tile_round(engine, lanes, accumulate=accumulate,
                                  multiply=multiply, y_init=y_init)
    blocks: List[np.ndarray] = []
    nnz: List[int] = []
    for b, tile in enumerate(tiles):
        cols = round_result.y_per_bank[b * num_rhs:(b + 1) * num_rhs]
        blocks.append(np.stack(cols, axis=1))
        nnz.append(0 if tile is None else tile.nnz)
    return TileBlockResult(y_per_bank=blocks, stats=round_result.stats,
                           batches=round_result.batches,
                           nnz_per_bank=nnz)
