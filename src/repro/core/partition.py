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
the scalar oracle in :mod:`repro.check.oracles`. Many matrices partition
in the same pass (:func:`partition_blocks`, which SpTRSV uses for all the
update blocks of a solve) when the key leads with the matrix;
:func:`partition` is its one-matrix case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from ..config import SystemConfig, element_size
from ..errors import MappingError
from ..formats import COOMatrix, group_starts, stable_order


@dataclass
class SubMatrix:
    """One tile: local COO plus its global row/column footprint.

    ``global_cols[local_col]`` maps tile-local column indices back to matrix
    columns; rows map back as ``row_range[0] + local_row``. Elements are
    row-sorted: every planner emits them in (row, col) order and
    :func:`~repro.core.distribution.split_oversized` keeps it.
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

        Counted as the row starts of the row-sorted tile, once: traffic
        and record building query it repeatedly.
        """
        rows = self.rows
        return int(np.count_nonzero(rows[1:] != rows[:-1])) + bool(rows.size)

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


def tile_capacity(config: SystemConfig, precision: str) -> int:
    """Max rows/cols of a tile: one memory row of elements (§V)."""
    return config.submatrix_limit_bytes // element_size(precision)


def tile_dims(config: SystemConfig, precision: str, tile_rows: int = None,
              tile_cols: int = None) -> Tuple[int, int]:
    """Checked tile dimensions: the tile capacity where ``None``."""
    capacity = tile_capacity(config, precision)
    tile_rows = capacity if tile_rows is None else tile_rows
    tile_cols = capacity if tile_cols is None else tile_cols
    if tile_rows <= 0 or tile_cols <= 0:
        raise MappingError("tile dimensions must be positive")
    if tile_rows > capacity or tile_cols > capacity:
        raise MappingError(
            f"tiles of {tile_rows}x{tile_cols} exceed the one-memory-row "
            f"constraint ({capacity} elements at {precision})")
    return tile_rows, tile_cols


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

    This is the one-block case of :func:`partition_blocks`.
    """
    tile_rows, tile_cols = tile_dims(config, precision, tile_rows, tile_cols)
    srt = matrix.sorted_rows()
    return partition_blocks(
        srt.rows, srt.cols, srt.vals, np.array([0, srt.nnz]),
        np.array([matrix.shape]), tile_rows, tile_cols, compress,
        validate)[0]


def partition_blocks(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                     elem_ptr: np.ndarray, shapes: np.ndarray,
                     tile_rows: int, tile_cols: int, compress: bool,
                     validate: bool = True) -> List[PartitionPlan]:
    """Partition many matrices ("blocks") in one array pass.

    Block ``p`` has shape ``shapes[p]`` and elements
    ``elem_ptr[p]:elem_ptr[p + 1]`` of the flat arrays, with block-local
    indices in row-major order. Plan ``p`` is exactly what
    :func:`partition` returns for block ``p`` alone; the tile dimensions
    arrive checked (:func:`tile_dims`). SpTRSV plans every update SpMV of
    a solve with one call.
    """
    shapes = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
    tiles, tile_ptr = _partition_blocks(rows, cols, vals, elem_ptr, shapes,
                                        tile_rows, tile_cols, compress)
    if validate:
        _check_tiles(tiles, tile_ptr, np.diff(elem_ptr))
    bounds = tile_ptr.tolist()
    return [PartitionPlan(shape=(int(nr), int(nc)),
                          tiles=tiles[bounds[p]:bounds[p + 1]],
                          tile_rows=tile_rows, tile_cols=tile_cols,
                          compressed=compress)
            for p, (nr, nc) in enumerate(shapes.tolist())]


# ----------------------------------------------------------------------
# fast planner: one global composite-key sort, sliced tile emission
# ----------------------------------------------------------------------
def _partition_blocks(rows, cols, vals, elem_ptr, shapes, tile_rows,
                      tile_cols, compress,
                      ) -> Tuple[List[SubMatrix], np.ndarray]:
    """Array-native partitioning, bitwise identical to the scalar oracle.

    Returns every block's tiles, block by block, and the offsets
    ``tile_ptr`` (block ``p`` owns ``tiles[tile_ptr[p]:tile_ptr[p + 1]]``).

    Row blocks are numbered across all blocks, so an element's global row
    block leads with its block. One pass derives each element's column
    segment — for the compressed path via a single global ``np.unique``
    over (row-block, column) composite keys that yields every row block's
    kept-column set and each element's compacted column rank at once —
    then a stable argsort by (row-block, segment) makes every tile a
    contiguous slice while preserving the oracle's (row, col) element
    order inside it.
    """
    num_blocks = shapes.shape[0]
    nnz = rows.size
    if nnz == 0:
        return [], np.zeros(num_blocks + 1, dtype=np.int64)
    block_rows, block_cols = shapes[:, 0], shapes[:, 1]
    ncols = int(block_cols.max())
    local_block = rows // tile_rows
    # First row block of each matrix block, and each element's global one.
    block_base = np.append(0, np.cumsum(-(-block_rows // tile_rows)))
    if num_blocks == 1:
        block = local_block
    else:
        block = local_block + np.repeat(block_base[:-1], np.diff(elem_ptr))

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
    # incoming (row, col) order inside each group survives.
    seg_capacity = math.ceil(max(ncols, 1) / tile_cols) + 1
    composite = block * seg_capacity + seg
    order = stable_order(composite)
    sorted_composite = composite[order]
    starts = group_starts(sorted_composite)
    group_keys = sorted_composite[starts]
    group_bounds = np.append(starts, nnz)

    local_rows = (rows - local_block * tile_rows)[order]
    local_cols = local_col[order]
    tile_vals = vals[order]

    # Per-group metadata, computed as arrays before the emission loop.
    g_block = group_keys // seg_capacity
    g_seg = group_keys - g_block * seg_capacity
    g_owner = np.searchsorted(block_base, g_block, side="right") - 1
    row_los = (g_block - block_base[g_owner]) * tile_rows
    row_his = np.minimum(row_los + tile_rows, block_rows[g_owner])
    if compress:
        block_key_bounds = np.searchsorted(
            key_block, np.arange(key_block[-1] + 2 if keys.size else 1))
        col_los = block_key_bounds[g_block] + g_seg * tile_cols
        col_his = np.minimum(col_los + tile_cols,
                             block_key_bounds[g_block + 1])
        columns = kept_cols
    else:
        col_los = g_seg * tile_cols
        col_his = np.minimum(col_los + tile_cols, block_cols[g_owner])
        # Every block shares the same raw column segments; materialise
        # each segment's index range once instead of per tile.
        columns = np.arange(ncols, dtype=np.int64)

    bounds = group_bounds.tolist()
    tiles = [SubMatrix(row_range=(row_lo, row_hi),
                       global_cols=columns[col_lo:col_hi],
                       rows=local_rows[lo:hi], cols=local_cols[lo:hi],
                       vals=tile_vals[lo:hi])
             for row_lo, row_hi, col_lo, col_hi, lo, hi in zip(
                 row_los.tolist(), row_his.tolist(), col_los.tolist(),
                 col_his.tolist(), bounds[:-1], bounds[1:])]
    tile_ptr = np.searchsorted(g_owner, np.arange(num_blocks + 1))
    return tiles, tile_ptr


# ----------------------------------------------------------------------
# plan validation and round-trip
# ----------------------------------------------------------------------
def _check_plan(plan: PartitionPlan, matrix: COOMatrix) -> None:
    """O(nnz) array-level self-check of one matrix's plan."""
    _check_tiles(plan.tiles, np.array([0, len(plan.tiles)]),
                 np.array([matrix.nnz]))


def _check_tiles(tiles: List[SubMatrix], tile_ptr: np.ndarray,
                 block_nnz: np.ndarray) -> None:
    """O(nnz) array-level self-check of many blocks' tiles: per-block
    conservation, local index bounds and row-sorted tiles."""
    tile_nnz = np.fromiter((t.rows.size for t in tiles), dtype=np.int64,
                           count=len(tiles))
    ends = np.append(0, np.cumsum(tile_nnz))
    placed = ends[tile_ptr[1:]] - ends[tile_ptr[:-1]]
    lost = np.flatnonzero(placed != block_nnz)
    if lost.size:
        raise MappingError(
            f"partition lost elements: {placed[lost[0]]} != "
            f"{block_nnz[lost[0]]}")
    if not tiles:
        return
    # Vectorized bound check over all tiles at once (every tile emitted by
    # a planner is non-empty, so reduceat groups are never zero-length).
    starts = ends[:-1]
    all_rows = np.concatenate([t.rows for t in tiles])
    all_cols = np.concatenate([t.cols for t in tiles])
    y_lengths = np.fromiter((t.y_length for t in tiles),
                            dtype=np.int64, count=len(tiles))
    x_lengths = np.fromiter((t.global_cols.size for t in tiles),
                            dtype=np.int64, count=len(tiles))
    if (np.any(np.minimum.reduceat(all_rows, starts) < 0)
            or np.any(np.maximum.reduceat(all_rows, starts) >= y_lengths)):
        raise MappingError("tile-local row out of range")
    if (np.any(np.minimum.reduceat(all_cols, starts) < 0)
            or np.any(np.maximum.reduceat(all_cols, starts)
                      >= x_lengths)):
        raise MappingError("tile-local col out of range")
    # Touched-row counts (row starts) take each tile's rows as sorted.
    descending = np.diff(all_rows) < 0
    descending[starts[1:] - 1] = False
    if np.any(descending):
        raise MappingError("tile rows out of order")


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
