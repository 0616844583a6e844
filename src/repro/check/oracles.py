"""Scalar oracles of the planning tier, and how tests swap them in.

The production planner runs as single-pass array pipelines and every
kernel driver runs on the vectorized :class:`~repro.pim.LaneEngine`.
This module holds the straightforward loop implementations of the same
planning stages, the bitwise reference oracles those pipelines are tested
against. No production entry point selects them:

* :func:`_partition_scalar` / :func:`_cut_columns` — per-block,
  per-segment mask scans (oracle of the composite-key partition);
* :func:`_by_desc_nnz_scalar`, :func:`_round_robin`, :func:`_balanced` —
  per-tile round formation (descending-nnz order, round-robin rounds,
  greedy LPT with ``np.argmin``);
* :func:`_level_depths_scalar` — the per-row CSR loop behind SpTRSV
  dependency levels (oracle of the frontier sweep);
* :func:`_leaf_columns_scalar` / :func:`_solve_leaf_scalar` — per-column
  leaf scheduling over a column-access CSR.

The engine oracle is :class:`~repro.pim.AllBankEngine` itself.

Tests reach an oracle in one of two ways: they call it directly on the
inputs the production function receives, or they substitute it for the
production stage it mirrors with :func:`use_scalar_planner` /
:func:`use_scalar_engine`. Both take a ``setattr``-style callable such as
``monkeypatch.setattr``, so the substitution ends with the test. No module
of :mod:`repro` outside :mod:`repro.check` imports this one.
"""

from __future__ import annotations

import importlib
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import SubMatrix
from ..core.sptrsv import SolveStep, SpTrsvExecution, _run_leaf_level
from ..formats import COOMatrix, CSRMatrix
from ..pim import AllBankEngine


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
def _level_depths_scalar(n: int, tri: COOMatrix) -> np.ndarray:
    """Oracle: O(n) per-row loop over CSR, longest dependency path."""
    depth = np.zeros(n, dtype=np.int64)
    csr = CSRMatrix.from_coo(tri)
    for i in range(n):
        idx, _ = csr.row(i)
        deps = idx[idx < i]
        if deps.size:
            depth[i] = depth[deps].max() + 1
    return depth


def _leaf_columns_scalar(strict: COOMatrix) -> CSRMatrix:
    return CSRMatrix.from_coo(strict.transpose())  # col access


def _solve_leaf_scalar(csr_cols: CSRMatrix, rhs: np.ndarray,
                       step: SolveStep, config, precision, fidelity,
                       engine_banks, execution: SpTrsvExecution) -> None:
    """Algorithm 3 with level batching inside one diagonal block (oracle:
    per-column loops over a column-access CSR)."""
    lo, hi = step.row_range
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
        for local_index, col in enumerate(cols):
            rows_below, vals_below = block_cols[col]
            rows_list.append(rows_below)
            cols_list.append(np.full(rows_below.size, local_index,
                                     dtype=np.int64))
            vals_list.append(vals_below)
        rows = np.concatenate(rows_list) if rows_list else np.zeros(
            0, dtype=np.int64)
        lcols = np.concatenate(cols_list) if cols_list else np.zeros(
            0, dtype=np.int64)
        vals = np.concatenate(vals_list) if vals_list else np.zeros(0)
        _run_leaf_level(cols, rows, lcols, vals, rhs, lo, width, config,
                        precision, fidelity, engine_banks, execution)


# ----------------------------------------------------------------------
# substitution into the production path
# ----------------------------------------------------------------------
#: Each production planning stage and the oracle that replaces it:
#: ``(module, attribute, oracle)``. The oracle takes the stage's arguments
#: and returns a bitwise-identical result.
PLANNER_STAGES = (
    ("repro.core.partition", "_partition_fast", _partition_scalar),
    ("repro.core.distribution", "_by_desc_nnz", _by_desc_nnz_scalar),
    ("repro.core.distribution", "_round_robin_fast", _round_robin),
    ("repro.core.distribution", "_balanced_fast", _balanced),
    ("repro.core.sptrsv", "_level_depths", _level_depths_scalar),
    ("repro.core.sptrsv", "_leaf_columns", _leaf_columns_scalar),
    ("repro.core.sptrsv", "_solve_leaf_fast", _solve_leaf_scalar),
)

#: Modules whose drivers construct their functional engine as
#: ``LaneEngine(num_banks, precision=...)``.
ENGINE_SITES = ("repro.core.spmv", "repro.core.spmm", "repro.core.sptrsv",
                "repro.kernels.blas1", "repro.kernels.gemv",
                "repro.kernels.spvspv")

Setter = Callable[[object, str, object], None]


def use_scalar_planner(setattr_: Setter) -> None:
    """Route partition, distribution and SpTRSV scheduling through the
    scalar oracles, via *setattr_* (e.g. ``monkeypatch.setattr``)."""
    for module, name, oracle in PLANNER_STAGES:
        setattr_(importlib.import_module(module), name, oracle)


def use_scalar_engine(setattr_: Setter) -> None:
    """Make every kernel driver build the scalar :class:`AllBankEngine`
    instead of the lane engine, via *setattr_*."""
    for module in ENGINE_SITES:
        setattr_(importlib.import_module(module), "LaneEngine",
                 AllBankEngine)


__all__ = ["ENGINE_SITES", "PLANNER_STAGES", "use_scalar_engine",
           "use_scalar_planner"]
