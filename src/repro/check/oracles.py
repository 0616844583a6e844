"""Scalar oracles of the planning tier and the engine, and how tests
swap them in.

The production planner runs as single-pass array pipelines and every
kernel driver runs on the vectorized :class:`~repro.pim.LaneEngine`.
This module holds the straightforward loop implementations of the same
planning stages, the bitwise reference oracles those pipelines are tested
against. No production entry point selects them:

* :func:`_partition_scalar` / :func:`_cut_columns` — per-block,
  per-segment mask scans, and :func:`_partition_blocks_scalar`, which
  runs them matrix by matrix (oracle of the composite-key partition of
  one or many matrices);
* :func:`_by_desc_nnz_scalar`, :func:`_round_robin`, :func:`_balanced` —
  per-tile round formation (descending-nnz order, round-robin rounds,
  greedy LPT with ``np.argmin``);
* :func:`_level_depths_scalar` — the per-row CSR loop behind SpTRSV
  dependency levels (oracle of the frontier sweep);
* :func:`_leaf_columns_scalar` / :func:`_leaf_schedule_scalar` —
  per-leaf, per-column level scheduling over a column-access CSR, with
  lock-step batches taken from the bank split's chunk maxima (oracle of
  the one-pass leaf schedule and its closed-form batches).

The engine oracle is :class:`~repro.check.reference.ReferenceEngine`, the
flat per-bank ISA interpreter the fuzzer also checks the lane engine
against.

Tests reach an oracle in one of two ways: they call it directly on the
inputs the production function receives, or they substitute it for the
production stage it mirrors with :func:`use_scalar_planner` /
:func:`use_reference_engine`. Both take a ``setattr``-style callable such as
``monkeypatch.setattr``, so the substitution ends with the test. No module
of :mod:`repro` outside :mod:`repro.check` imports this one.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import SubMatrix
from ..core.sptrsv import LeafSchedule, _split_rows
from ..formats import COOMatrix, CSRMatrix
from .reference import ReferenceEngine


# ----------------------------------------------------------------------
# partition: per-block, per-segment mask scans
# ----------------------------------------------------------------------
def _partition_scalar(srt: COOMatrix, shape, tile_rows, tile_cols,
                      compress) -> List[SubMatrix]:
    nrows, ncols = shape
    tiles: List[SubMatrix] = []
    block_starts = np.searchsorted(
        srt.rows, np.arange(0, nrows, tile_rows), side="left")
    block_bounds = np.append(block_starts, srt.nnz)

    for block_index in range(len(block_starts)):
        lo_el = block_bounds[block_index]
        hi_el = block_bounds[block_index + 1]
        row_lo = block_index * tile_rows
        row_hi = min(row_lo + tile_rows, nrows)
        if lo_el == hi_el:
            continue  # empty row block: no tiles at all
        rows = srt.rows[lo_el:hi_el] - row_lo
        cols = srt.cols[lo_el:hi_el]
        vals = srt.vals[lo_el:hi_el]
        tiles.extend(_cut_columns(rows, cols, vals, (row_lo, row_hi),
                                  ncols, tile_cols, compress))
    return tiles


def _cut_columns(rows, cols, vals, row_range, ncols, tile_cols,
                 compress) -> List[SubMatrix]:
    """Column-cut one row block, compacting all-zero columns first."""
    tiles = []
    if compress:
        # Fig. 6: remove all-zero columns, then cut the *compacted* axis.
        kept, local = np.unique(cols, return_inverse=True)
        num_segments = math.ceil(kept.size / tile_cols)
        for seg in range(num_segments):
            seg_lo = seg * tile_cols
            seg_hi = min(seg_lo + tile_cols, kept.size)
            mask = (local >= seg_lo) & (local < seg_hi)
            if not mask.any():
                continue
            tiles.append(SubMatrix(
                row_range=row_range,
                global_cols=kept[seg_lo:seg_hi],
                rows=rows[mask],
                cols=local[mask] - seg_lo,
                vals=vals[mask]))
    else:
        num_segments = math.ceil(ncols / tile_cols)
        for seg in range(num_segments):
            seg_lo = seg * tile_cols
            seg_hi = min(seg_lo + tile_cols, ncols)
            mask = (cols >= seg_lo) & (cols < seg_hi)
            if not mask.any():
                continue
            tiles.append(SubMatrix(
                row_range=row_range,
                global_cols=np.arange(seg_lo, seg_hi),
                rows=rows[mask],
                cols=cols[mask] - seg_lo,
                vals=vals[mask]))
    return tiles


def _partition_blocks_scalar(rows, cols, vals, elem_ptr, shapes, tile_rows,
                             tile_cols, compress,
                             ) -> Tuple[List[SubMatrix], np.ndarray]:
    """Oracle of the many-matrix pass: :func:`_partition_scalar` on each
    block's own row-sorted COO, block by block."""
    tiles: List[SubMatrix] = []
    tile_ptr = [0]
    bounds = np.asarray(elem_ptr).tolist()
    for p, (nrows, ncols) in enumerate(np.asarray(shapes).tolist()):
        a, b = bounds[p], bounds[p + 1]
        block = COOMatrix((nrows, ncols), rows[a:b], cols[a:b], vals[a:b],
                          check=False)
        tiles.extend(_partition_scalar(block, (nrows, ncols), tile_rows,
                                       tile_cols, compress))
        tile_ptr.append(len(tiles))
    return tiles, np.array(tile_ptr, dtype=np.int64)


# ----------------------------------------------------------------------
# distribution: per-tile round formation
# ----------------------------------------------------------------------
def _by_desc_nnz_scalar(tiles: Sequence[SubMatrix]) -> List[SubMatrix]:
    return sorted(tiles, key=lambda t: -t.nnz)


def _round_robin(tiles: Sequence[SubMatrix],
                 num_banks: int) -> List[List[Optional[SubMatrix]]]:
    rounds: List[List[Optional[SubMatrix]]] = []
    for index, tile in enumerate(tiles):
        round_index, bank = divmod(index, num_banks)
        if round_index == len(rounds):
            rounds.append([None] * num_banks)
        rounds[round_index][bank] = tile
    return rounds or [[None] * num_banks]


def _balanced(tiles: Sequence[SubMatrix],
              num_banks: int) -> List[List[Optional[SubMatrix]]]:
    order = sorted(range(len(tiles)), key=lambda i: -tiles[i].nnz)
    per_bank: List[List[SubMatrix]] = [[] for _ in range(num_banks)]
    loads = np.zeros(num_banks, dtype=np.int64)
    for index in order:
        bank = int(np.argmin(loads))
        per_bank[bank].append(tiles[index])
        loads[bank] += tiles[index].nnz
    depth = max((len(stack) for stack in per_bank), default=0)
    rounds = []
    for r in range(max(depth, 1)):
        rounds.append([stack[r] if r < len(stack) else None
                       for stack in per_bank])
    return rounds


# ----------------------------------------------------------------------
# SpTRSV: per-row levels, per-column leaf scheduling
# ----------------------------------------------------------------------
def _csr_scalar(coo: COOMatrix) -> CSRMatrix:
    """Row-access CSR of *coo*, row-major order from numpy's own stable
    argsort of the fused ``row * ncols + col`` key.

    The oracles sort for themselves instead of through
    :meth:`COOMatrix.sorted_rows`, so they share no sorting code with the
    production stages they check, and their cost (the reference side of
    the planner microbenchmark) does not move when that code does.
    """
    nrows, ncols = coo.shape
    if nrows * ncols > np.iinfo(np.int64).max:
        order = np.lexsort((coo.cols, coo.rows))
    else:
        order = np.argsort(coo.rows.astype(np.int64) * ncols + coo.cols,
                           kind="stable")
    srt = COOMatrix(coo.shape, coo.rows[order], coo.cols[order],
                    coo.vals[order], check=False)
    return CSRMatrix.from_coo(srt)  # already sorted: no second sort


def _level_depths_scalar(n: int, tri: COOMatrix) -> np.ndarray:
    """Oracle: O(n) per-row loop over CSR, longest dependency path."""
    depth = np.zeros(n, dtype=np.int64)
    csr = _csr_scalar(tri)
    for i in range(n):
        idx, _ = csr.row(i)
        deps = idx[idx < i]
        if deps.size:
            depth[i] = depth[deps].max() + 1
    return depth


def _leaf_columns_scalar(strict: COOMatrix) -> CSRMatrix:
    return _csr_scalar(strict.transpose())  # col access


def _leaf_schedule_scalar(csr_cols: CSRMatrix, leaf_bounds: np.ndarray,
                          num_banks: int, banks_per_channel: int,
                          num_channels: int) -> LeafSchedule:
    """Algorithm 3's level batching, leaf by leaf (oracle: per-column
    loops over a column-access CSR, batches from the Fig. 7 bank split's
    chunk maxima)."""
    rows_out, cols_out, vals_out, level_cols = [], [], [], []
    elem_ptr, col_ptr, leaf_ptr = [0], [0], [0]
    batches: List[int] = []
    channel_batches: List[List[int]] = [[] for _ in range(num_channels)]
    channel_elements: List[List[int]] = [[] for _ in range(num_channels)]
    bpc = banks_per_channel
    for lo, hi in zip(leaf_bounds[:-1].tolist(), leaf_bounds[1:].tolist()):
        width = hi - lo
        # Level schedule restricted to the block: depth over in-block deps.
        depth = np.zeros(width, dtype=np.int64)
        block_cols: List[Tuple[np.ndarray, np.ndarray]] = []
        for local_col in range(width):
            idx, val = csr_cols.row(lo + local_col)
            mask = (idx >= lo) & (idx < hi)
            block_cols.append((idx[mask] - lo, val[mask]))
        for local_col in range(width):
            rows_below, _ = block_cols[local_col]
            if rows_below.size:
                np.maximum.at(depth, rows_below, depth[local_col] + 1)

        num_levels = int(depth.max()) + 1 if width else 0
        for level in range(num_levels):
            cols = np.nonzero(depth == level)[0]
            rows_list, cols_list, vals_list = [], [], []
            for col in cols:
                rows_below, vals_below = block_cols[col]
                rows_list.append(lo + rows_below)
                cols_list.append(np.full(rows_below.size, lo + col,
                                         dtype=np.int64))
                vals_list.append(vals_below)
            rows = np.concatenate(rows_list)
            elem_cols = np.concatenate(cols_list)
            vals = np.concatenate(vals_list)
            rows_out.append(rows)
            cols_out.append(elem_cols)
            vals_out.append(vals)
            level_cols.append(lo + cols)
            elem_ptr.append(elem_ptr[-1] + rows.size)
            col_ptr.append(col_ptr[-1] + cols.size)
            per_bank = _split_rows(rows, elem_cols, vals, num_banks)
            batches.append(max((chunk[0].size for chunk in per_bank),
                               default=0))
            for ch in range(num_channels):
                chunks = per_bank[ch * bpc:(ch + 1) * bpc]
                channel_batches[ch].append(
                    max((chunk[0].size for chunk in chunks), default=0))
                channel_elements[ch].append(
                    sum(chunk[0].size for chunk in chunks))
        leaf_ptr.append(leaf_ptr[-1] + num_levels)

    def flat(parts, dtype):
        return (np.concatenate(parts) if parts
                else np.zeros(0, dtype=dtype))

    def table(per_channel):
        return np.array(per_channel, dtype=np.int64).reshape(
            num_channels, len(batches))

    return LeafSchedule(
        rows=flat(rows_out, np.int64), cols=flat(cols_out, np.int64),
        vals=flat(vals_out, np.float64),
        elem_ptr=np.array(elem_ptr, dtype=np.int64),
        level_cols=flat(level_cols, np.int64),
        col_ptr=np.array(col_ptr, dtype=np.int64),
        leaf_ptr=np.array(leaf_ptr, dtype=np.int64),
        batches=np.array(batches, dtype=np.int64),
        channel_batches=table(channel_batches),
        channel_elements=table(channel_elements))


# ----------------------------------------------------------------------
# substitution into the production path
# ----------------------------------------------------------------------
#: Each production planning stage and the oracle that replaces it:
#: ``(module, attribute, oracle)``. The oracle takes the stage's arguments
#: and returns a bitwise-identical result.
PLANNER_STAGES = (
    ("repro.core.partition", "_partition_blocks", _partition_blocks_scalar),
    ("repro.core.distribution", "_by_desc_nnz", _by_desc_nnz_scalar),
    ("repro.core.distribution", "_round_robin_fast", _round_robin),
    ("repro.core.distribution", "_balanced_fast", _balanced),
    ("repro.core.sptrsv", "_level_depths", _level_depths_scalar),
    ("repro.core.sptrsv", "_leaf_columns", _leaf_columns_scalar),
    ("repro.core.sptrsv", "_leaf_schedule", _leaf_schedule_scalar),
)

#: Modules whose drivers construct their functional engine as
#: ``LaneEngine(num_banks, precision=...)``.
ENGINE_SITES = ("repro.core.spmv", "repro.core.sptrsv",
                "repro.kernels.blas1", "repro.kernels.gemv",
                "repro.kernels.spvspv")

Setter = Callable[[object, str, object], None]


def use_scalar_planner(setattr_: Setter) -> None:
    """Route partition, distribution and SpTRSV scheduling through the
    scalar oracles, via *setattr_* (e.g. ``monkeypatch.setattr``)."""
    for module, name, oracle in PLANNER_STAGES:
        setattr_(importlib.import_module(module), name, oracle)


def use_reference_engine(setattr_: Setter) -> None:
    """Make every kernel driver build the :class:`ReferenceEngine`
    instead of the lane engine, via *setattr_*."""
    for module in ENGINE_SITES:
        setattr_(importlib.import_module(module), "LaneEngine",
                 ReferenceEngine)


__all__ = ["ENGINE_SITES", "PLANNER_STAGES", "use_reference_engine",
           "use_scalar_planner"]
