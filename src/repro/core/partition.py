"""Sub-matrix partitioning and compression for bank-parallel SpMV (§V).

The sparse matrix is cut row-wise into blocks whose output tiles fit one
memory row, then — the paper's *matrix compression*, Fig. 6 — all-zero
columns are removed per row block before cutting column-wise, so each input
segment replicates only columns that actually feed the block. The column
dimension of every tile is likewise bounded by the memory row, giving the
1 KB x 1 KB sub-matrix constraint of §V.

The output is a list of :class:`SubMatrix` descriptors with *tile-local*
indices plus the metadata the host needs to stage inputs (which global
columns to replicate) and merge outputs (which global rows to accumulate).

The planner sorts all nonzeros once by a (row-block, column-segment)
composite key, derives every block's kept-column set from a single global
``np.unique`` pass and emits all tiles from contiguous slices of the sorted
arrays. It is bitwise identical to the per-block, per-segment mask scans of
the scalar oracle in :mod:`repro.check.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from ..config import SystemConfig, element_size
from ..errors import MappingError
from ..formats import COOMatrix


@dataclass
class SubMatrix:
    """One tile: local COO plus its global row/column footprint.

    ``global_cols[local_col]`` maps tile-local column indices back to matrix
    columns; rows map back as ``row_range[0] + local_row``.
    """

    row_range: Tuple[int, int]
    global_cols: np.ndarray
    rows: np.ndarray   # tile-local
    cols: np.ndarray   # tile-local
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def x_length(self) -> int:
        """Input-segment length the host must replicate into the bank."""
        return int(self.global_cols.size)

    @property
    def y_length(self) -> int:
        """Output-tile length (rows of the row block)."""
        return self.row_range[1] - self.row_range[0]

    @cached_property
    def touched_rows(self) -> int:
        """Rows that actually receive a partial — the host merges only
        these (Fig. 6: "accumulates only non-zero outputs").

        Cached: traffic and imbalance accounting query it repeatedly and
        the underlying ``np.unique`` is O(nnz log nnz) per call.
        """
        return int(np.unique(self.rows).size)

    def x_segment(self, x: np.ndarray) -> np.ndarray:
        """Gather this tile's input values from the global vector."""
        return np.asarray(x, dtype=np.float64)[self.global_cols]

    def validate(self) -> "SubMatrix":
        if self.nnz:
            if self.rows.min() < 0 or self.rows.max() >= self.y_length:
                raise MappingError("tile-local row out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.x_length:
                raise MappingError("tile-local col out of range")
        return self


@dataclass
class PartitionPlan:
    """All tiles of a matrix plus the parameters that produced them.

    Per-tile statistics are exposed as memoized plan-level arrays
    (:attr:`tile_nnz`, :attr:`tile_x_lengths`, :attr:`tile_touched_rows`)
    so traffic accounting reads them once instead of re-deriving them
    tile-by-tile on every query.
    """

    shape: Tuple[int, int]
    tiles: List[SubMatrix]
    tile_rows: int
    tile_cols: int
    compressed: bool

    @cached_property
    def tile_nnz(self) -> np.ndarray:
        """Element count of each tile, in tile order."""
        return np.fromiter((t.rows.size for t in self.tiles),
                           dtype=np.int64, count=len(self.tiles))

    @cached_property
    def tile_x_lengths(self) -> np.ndarray:
        """Input-segment length of each tile, in tile order."""
        return np.fromiter((t.global_cols.size for t in self.tiles),
                           dtype=np.int64, count=len(self.tiles))

    @cached_property
    def tile_touched_rows(self) -> np.ndarray:
        """Touched-row count of each tile, in tile order."""
        return np.fromiter((t.touched_rows for t in self.tiles),
                           dtype=np.int64, count=len(self.tiles))

    @cached_property
    def total_nnz(self) -> int:
        return int(self.tile_nnz.sum())

    @cached_property
    def replicated_input_elements(self) -> int:
        """Input elements the host stages across all tiles (Fig. 6 metric).

        Compression shrinks exactly this: without it, every tile would
        replicate its full column range.
        """
        return int(self.tile_x_lengths.sum())

    @cached_property
    def output_partial_elements(self) -> int:
        """Output elements the host accumulates across all tiles."""
        return sum(tile.y_length for tile in self.tiles)


def tile_capacity(config: SystemConfig, precision: str) -> int:
    """Max rows/cols of a tile: one memory row of elements (§V)."""
    return config.submatrix_limit_bytes // element_size(precision)


def partition(matrix: COOMatrix, config: SystemConfig,
              precision: str = "fp64", compress: bool = True,
              tile_rows: int = None, tile_cols: int = None,
              validate: bool = True) -> PartitionPlan:
    """Cut *matrix* into 1 KB-bounded tiles (optionally compressed).

    ``compress=False`` reproduces the naive distribution the paper's Fig. 6
    improves on: column ranges are kept whole, so input replication covers
    all-zero columns too. The ablation benchmark flips this switch.

    ``validate=False`` skips the O(nnz) plan self-checks — the sweep hot
    path disables them, tests keep them on.
    """
    capacity = tile_capacity(config, precision)
    tile_rows = capacity if tile_rows is None else tile_rows
    tile_cols = capacity if tile_cols is None else tile_cols
    if tile_rows <= 0 or tile_cols <= 0:
        raise MappingError("tile dimensions must be positive")
    if tile_rows > capacity or tile_cols > capacity:
        raise MappingError(
            f"tiles of {tile_rows}x{tile_cols} exceed the one-memory-row "
            f"constraint ({capacity} elements at {precision})")

    tiles = _partition_fast(matrix.sorted_rows(), matrix.shape, tile_rows,
                            tile_cols, compress)
    plan = PartitionPlan(shape=matrix.shape, tiles=tiles,
                         tile_rows=tile_rows, tile_cols=tile_cols,
                         compressed=compress)
    if validate:
        _check_plan(plan, matrix)
    return plan


# ----------------------------------------------------------------------
# fast planner: one global composite-key sort, sliced tile emission
# ----------------------------------------------------------------------
def _partition_fast(srt: COOMatrix, shape, tile_rows, tile_cols,
                    compress) -> List[SubMatrix]:
    """Array-native partitioning, bitwise identical to the scalar oracle.

    *srt* arrives row-major sorted, i.e. already ordered by
    (row-block, row, col). One pass derives each element's column segment
    — for the compressed path via a single global ``np.unique`` over
    (block, column) composite keys that yields every block's kept-column
    set and each element's compacted column rank at once — then a stable
    argsort by (block, segment) makes every tile a contiguous slice while
    preserving the oracle's (row, col) element order inside it.
    """
    nnz = srt.nnz
    if nnz == 0:
        return []
    nrows, ncols = shape
    rows, cols, vals = srt.rows, srt.cols, srt.vals
    block = rows // tile_rows

    if compress:
        # Global kept-column pass: unique (block, col) keys, sorted, give
        # per-block kept columns; the inverse map gives each element's
        # index into that global key list.
        keys, key_of = np.unique(block * ncols + cols, return_inverse=True)
        key_block = keys // ncols
        kept_cols = keys % ncols
        # Rank of each element's column within its block's kept set.
        block_key_start = np.searchsorted(key_block, block, side="left")
        local = key_of - block_key_start
        seg = local // tile_cols
        local_col = local - seg * tile_cols
    else:
        seg = cols // tile_cols
        local_col = cols - seg * tile_cols

    # Stable sort by (block, segment): groups become contiguous while the
    # incoming (row, col) order inside each group survives. Stability is
    # bought by appending each element's position to the key — unique keys
    # let the faster non-stable sort produce the stable permutation.
    seg_capacity = math.ceil(max(ncols, 1) / tile_cols) + 1
    composite = block * seg_capacity + seg
    if int(composite.max()) < (2 ** 63 - 1 - nnz) // nnz:
        order = np.argsort(composite * nnz
                           + np.arange(nnz, dtype=np.int64))
    else:  # giant key space: fall back to the stable sort
        order = np.argsort(composite, kind="stable")
    sorted_composite = composite[order]
    group_starts = np.flatnonzero(
        np.concatenate(([True], sorted_composite[1:]
                        != sorted_composite[:-1])))
    group_keys = sorted_composite[group_starts]
    group_bounds = np.append(group_starts, nnz)

    local_rows = (rows - block * tile_rows)[order]
    local_cols = local_col[order]
    tile_vals = vals[order]

    # Per-group metadata, computed as arrays before the emission loop.
    g_block = group_keys // seg_capacity
    g_seg = group_keys - g_block * seg_capacity
    row_los = g_block * tile_rows
    row_his = np.minimum(row_los + tile_rows, nrows)
    if compress:
        block_key_bounds = np.searchsorted(
            key_block, np.arange(key_block[-1] + 2 if keys.size else 1))
        col_los = block_key_bounds[g_block] + g_seg * tile_cols
        col_his = np.minimum(col_los + tile_cols,
                             block_key_bounds[g_block + 1])
    else:
        col_los = g_seg * tile_cols
        col_his = np.minimum(col_los + tile_cols, ncols)

    if not compress:
        # Every block shares the same raw column segments; materialise
        # each segment's index range once instead of per tile.
        col_base = np.arange(ncols, dtype=np.int64)

    tiles: List[SubMatrix] = []
    for g in range(group_keys.size):
        lo_el, hi_el = group_bounds[g], group_bounds[g + 1]
        if compress:
            global_cols = kept_cols[col_los[g]:col_his[g]]
        else:
            global_cols = col_base[col_los[g]:col_his[g]]
        tiles.append(SubMatrix(
            row_range=(int(row_los[g]), int(row_his[g])),
            global_cols=global_cols,
            rows=local_rows[lo_el:hi_el],
            cols=local_cols[lo_el:hi_el],
            vals=tile_vals[lo_el:hi_el]))
    return tiles


# ----------------------------------------------------------------------
# plan validation and round-trip
# ----------------------------------------------------------------------
def _check_plan(plan: PartitionPlan, matrix: COOMatrix) -> None:
    """O(nnz) array-level self-check: conservation + local index bounds."""
    if plan.total_nnz != matrix.nnz:
        raise MappingError(
            f"partition lost elements: {plan.total_nnz} != {matrix.nnz}")
    if not plan.tiles:
        return
    # Vectorized bound check over all tiles at once (every tile emitted by
    # a planner is non-empty, so reduceat groups are never zero-length).
    starts = np.concatenate(([0], np.cumsum(plan.tile_nnz)[:-1]))
    all_rows = np.concatenate([t.rows for t in plan.tiles])
    all_cols = np.concatenate([t.cols for t in plan.tiles])
    y_lengths = np.fromiter((t.y_length for t in plan.tiles),
                            dtype=np.int64, count=len(plan.tiles))
    if (np.any(np.minimum.reduceat(all_rows, starts) < 0)
            or np.any(np.maximum.reduceat(all_rows, starts) >= y_lengths)):
        raise MappingError("tile-local row out of range")
    if (np.any(np.minimum.reduceat(all_cols, starts) < 0)
            or np.any(np.maximum.reduceat(all_cols, starts)
                      >= plan.tile_x_lengths)):
        raise MappingError("tile-local col out of range")


def reassemble(plan: PartitionPlan) -> COOMatrix:
    """Rebuild the global matrix from a plan (round-trip validation)."""
    rows = []
    cols = []
    vals = []
    for tile in plan.tiles:
        rows.append(tile.rows + tile.row_range[0])
        cols.append(tile.global_cols[tile.cols])
        vals.append(tile.vals)
    if not rows:
        return COOMatrix.empty(plan.shape)
    return COOMatrix(plan.shape, np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals))
