"""Partitioning strategy library and the per-matrix auto-tuner.

SparseP (PAPERS.md) shows that on real PIM hardware the best sparse
partitioning — 1D vs 2D, equal-rows vs equal-nnz vs variable-sized — is
strongly matrix-dependent. This module generalises the paper's fixed
row-cut scheme (:func:`repro.core.partition.partition`) behind a
:class:`PartitionStrategy` registry (:func:`make_strategy`):

* ``"paper"`` — the §V row-cut + Fig. 6 compression scheme, bitwise
  identical to the pre-registry planner and the default.
* ``"nnz-rows"`` — variable-height row blocks balanced by nnz (same block
  count as the paper cut, boundaries placed where the cumulative row nnz
  crosses equal shares), then the ordinary kept-column compression pass.
* ``"2d-grid"`` — fixed row x column tiling whose column-segment cuts run
  on the *global* column axis, decoupled from compression; all-zero
  columns are still compacted inside each tile.
* ``"nnz-2d"`` — 2D equal-nnz: nnz-balanced row blocks and nnz-balanced
  column segments over each block's kept-column axis.
* ``"auto"`` — :func:`tune_strategy` scores every registered strategy
  with an analytic cost model calibrated against :func:`price_trace`,
  confirms the winner against the paper scheme with one exact pricing,
  and memoizes the verdict by matrix digest.

All strategies are array-native in the fast-planner style and emit
ordinary :class:`SubMatrix` / :class:`PartitionPlan` objects, so bank and
channel distribution, the lane/batch engines, trace synthesis and the
three-oracle checkers run unchanged on any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import (SystemConfig, resolve_channels, resolve_strategy)
from ..errors import ConfigError, MappingError
from ..formats import COOMatrix
from .partition import (PartitionPlan, SubMatrix, _check_plan, partition,
                        tile_capacity)
from .spmv import SpmvExecution
from .trace import TraceParams

#: Bump when the cost model, probe set or tuning protocol changes: the
#: tune cache keys (and therefore every memoized verdict) include it.
TUNER_VERSION = 2


# ----------------------------------------------------------------------
# the strategy registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionStrategy:
    """One partitioning scheme: a named, array-native tile cutter.

    ``cutter`` is ``None`` for the paper strategy, which delegates to
    :func:`repro.core.partition.partition` so the default path stays
    bitwise identical.
    """

    name: str
    description: str
    cutter: Optional[Callable] = field(default=None, compare=False)

    def partition(self, matrix: COOMatrix, config: SystemConfig,
                  precision: str = "fp64", compress: bool = True,
                  tile_rows: int = None, tile_cols: int = None,
                  validate: bool = True) -> PartitionPlan:
        """Cut *matrix* into 1 KB-bounded tiles under this strategy.

        The signature matches :func:`repro.core.partition.partition`.
        """
        if self.cutter is None:
            return partition(matrix, config, precision=precision,
                             compress=compress, tile_rows=tile_rows,
                             tile_cols=tile_cols, validate=validate)
        capacity = tile_capacity(config, precision)
        tile_rows = capacity if tile_rows is None else tile_rows
        tile_cols = capacity if tile_cols is None else tile_cols
        if tile_rows <= 0 or tile_cols <= 0:
            raise MappingError("tile dimensions must be positive")
        if tile_rows > capacity or tile_cols > capacity:
            raise MappingError(
                f"tiles of {tile_rows}x{tile_cols} exceed the "
                f"one-memory-row constraint ({capacity} elements at "
                f"{precision})")
        tiles = self.cutter(matrix.sorted_rows(), matrix.shape, tile_rows,
                            tile_cols, compress)
        plan = PartitionPlan(shape=matrix.shape, tiles=tiles,
                             tile_rows=tile_rows, tile_cols=tile_cols,
                             compressed=compress)
        if validate:
            _check_plan(plan, matrix)
        return plan


@dataclass(frozen=True)
class AutoStrategy:
    """``"auto"``: tune per matrix, then partition with the winner.

    Tuning through :meth:`partition` uses the default tuning context
    (paper distribution policy, representative-channel model, AB-mode
    pricing) and the in-process memo; callers with a richer context —
    the sweep runner, which knows the job's policy/channels/mode and owns
    an :class:`ArtifactCache` — call :func:`tune_strategy` directly.
    """

    name: str = "auto"
    description: str = "cost-model auto-tuner picking per matrix"

    def partition(self, matrix: COOMatrix, config: SystemConfig,
                  precision: str = "fp64", compress: bool = True,
                  tile_rows: int = None, tile_cols: int = None,
                  validate: bool = True) -> PartitionPlan:
        result = tune_strategy(matrix, config, precision=precision,
                               compress=compress)
        return make_strategy(result.chosen).partition(
            matrix, config, precision=precision, compress=compress,
            tile_rows=tile_rows, tile_cols=tile_cols, validate=validate)


_REGISTRY: Dict[str, PartitionStrategy] = {}


def register_strategy(strategy: PartitionStrategy) -> PartitionStrategy:
    """Add a concrete strategy to the registry (idempotent by name)."""
    _REGISTRY[strategy.name] = strategy
    return strategy


def strategy_names() -> Tuple[str, ...]:
    """Registered *concrete* strategies, registration order, paper first."""
    return tuple(_REGISTRY)


def make_strategy(strategy: Optional[str] = None):
    """Resolve a strategy name into its implementation.

    Explicit arg > ``PSYNCPIM_STRATEGY`` > ``"paper"``. ``"auto"``
    returns the :class:`AutoStrategy` facade; unknown names raise
    :class:`ConfigError` via :func:`repro.config.resolve_strategy`.
    """
    name = resolve_strategy(strategy)
    if name == "auto":
        return AutoStrategy()
    try:
        return _REGISTRY[name]
    except KeyError:  # registered choices and registry out of sync
        raise ConfigError(f"strategy {name!r} has no registered "
                          f"implementation") from None


# ----------------------------------------------------------------------
# shared array-native machinery
# ----------------------------------------------------------------------
def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable ascending argsort of integer *keys* (fast-planner trick:
    append each element's position so the non-stable sort is stable)."""
    nnz = keys.size
    if nnz == 0:
        return np.zeros(0, dtype=np.int64)
    if int(keys.max()) < (2 ** 63 - 1 - nnz) // nnz:
        return np.argsort(keys * nnz + np.arange(nnz, dtype=np.int64))
    return np.argsort(keys, kind="stable")


def _nnz_row_bounds(srt: COOMatrix, nrows: int,
                    tile_rows: int) -> np.ndarray:
    """Variable-height row-block boundaries balanced by nnz.

    Produces the same number of blocks as the paper's equal-height cut
    (``ceil(nrows / tile_rows)``) but places each boundary where the
    cumulative row nnz crosses an equal share, then re-splits any block
    that grew taller than ``tile_rows`` (the one-memory-row output
    constraint binds on *height*, not on population).
    """
    row_nnz = np.bincount(srt.rows, minlength=nrows)
    csum = np.cumsum(row_nnz)
    total = int(csum[-1])
    nblocks = max(1, math.ceil(nrows / tile_rows))
    targets = total * np.arange(1, nblocks) / nblocks
    cuts = np.searchsorted(csum, targets, side="left") + 1
    bounds = np.unique(np.concatenate(
        ([0], cuts, [nrows]))).astype(np.int64)
    capped = [0]
    for hi in bounds[1:]:
        lo = capped[-1]
        if hi - lo > tile_rows:
            capped.extend(range(lo + tile_rows, int(hi), tile_rows))
        capped.append(int(hi))
    return np.array(capped, dtype=np.int64)


def _equal_row_bounds(nrows: int, tile_rows: int) -> np.ndarray:
    """The paper's equal-height row-block boundaries as a bounds array."""
    bounds = np.arange(0, nrows, tile_rows, dtype=np.int64)
    return np.append(bounds, nrows)


def _rank_key_segments(key_block: np.ndarray,
                       tile_cols: int) -> np.ndarray:
    """Paper-style segments: kept-column rank // tile_cols, per block."""
    first = np.searchsorted(key_block, key_block, side="left")
    rank = np.arange(key_block.size, dtype=np.int64) - first
    return rank // tile_cols


def _equal_nnz_key_segments(key_block: np.ndarray, key_counts: np.ndarray,
                            tile_cols: int) -> np.ndarray:
    """nnz-balanced column segments over each block's kept columns.

    Keeps the paper's per-block segment count (``ceil(kept /
    tile_cols)``) but places boundaries by cumulative nnz, then re-splits
    any segment wider than ``tile_cols`` columns (a run of light columns
    can absorb more than one memory row's worth of the input vector).
    Returns a per-key value monotone within each block whose change
    points delimit the segments.
    """
    n = key_block.size
    blk_change = np.empty(n, dtype=bool)
    blk_change[0] = True
    blk_change[1:] = key_block[1:] != key_block[:-1]
    blk_first = np.flatnonzero(blk_change)
    blk_hi = np.append(blk_first[1:], n)
    blk_of = np.cumsum(blk_change) - 1
    nkeys = blk_hi - blk_first
    block_tot = np.add.reduceat(key_counts, blk_first)
    nsegs = -(-nkeys // tile_cols)
    cum = np.cumsum(key_counts)
    block_offset = np.concatenate(([0], cum[blk_hi - 1][:-1]))[blk_of]
    before = cum - key_counts - block_offset
    seg_a = np.minimum(before * nsegs[blk_of] // block_tot[blk_of],
                       nsegs[blk_of] - 1)
    run_change = np.empty(n, dtype=bool)
    run_change[0] = True
    run_change[1:] = blk_change[1:] | (seg_a[1:] != seg_a[:-1])
    run_first = np.flatnonzero(run_change)
    rank_in_run = (np.arange(n, dtype=np.int64)
                   - run_first[np.cumsum(run_change) - 1])
    seg_b = rank_in_run // tile_cols
    return seg_a * (int(seg_b.max()) + 1) + seg_b


def _cut_blocks_compressed(srt: COOMatrix, shape, row_bounds: np.ndarray,
                           tile_cols: int,
                           equal_nnz: bool) -> List[SubMatrix]:
    """Cut arbitrary row blocks, compact kept columns, cut the kept axis.

    Generalises ``_partition_fast``'s compressed path to variable-height
    row blocks (*row_bounds*) and pluggable column segmentation (rank- or
    nnz-based). One global ``np.unique`` over (block, column) keys yields
    every block's kept-column set and each element's compacted rank.
    """
    nnz = srt.nnz
    _, ncols = shape
    rows, cols, vals = srt.rows, srt.cols, srt.vals
    block = (np.searchsorted(row_bounds, rows, side="right")
             - 1).astype(np.int64)
    keys, key_of, key_counts = np.unique(block * ncols + cols,
                                         return_inverse=True,
                                         return_counts=True)
    key_block = keys // ncols
    kept_cols = keys % ncols
    key_seg = (_equal_nnz_key_segments(key_block, key_counts, tile_cols)
               if equal_nnz
               else _rank_key_segments(key_block, tile_cols))
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    change[1:] = ((key_block[1:] != key_block[:-1])
                  | (key_seg[1:] != key_seg[:-1]))
    group_first = np.flatnonzero(change)
    group_of_key = np.cumsum(change) - 1
    key_local = np.arange(keys.size, dtype=np.int64) \
        - group_first[group_of_key]

    order = _stable_order(group_of_key[key_of])
    sorted_group = group_of_key[key_of][order]
    el_first = np.flatnonzero(np.concatenate(
        ([True], sorted_group[1:] != sorted_group[:-1])))
    el_bounds = np.append(el_first, nnz)

    local_rows = (rows - row_bounds[block])[order]
    local_cols = key_local[key_of][order]
    tile_vals = vals[order]

    g_block = key_block[group_first]
    key_hi = np.append(group_first[1:], keys.size)
    row_los = row_bounds[g_block]
    row_his = row_bounds[g_block + 1]

    tiles: List[SubMatrix] = []
    for g in range(group_first.size):
        lo, hi = el_bounds[g], el_bounds[g + 1]
        tiles.append(SubMatrix(
            row_range=(int(row_los[g]), int(row_his[g])),
            global_cols=kept_cols[group_first[g]:key_hi[g]],
            rows=local_rows[lo:hi],
            cols=local_cols[lo:hi],
            vals=tile_vals[lo:hi]))
    return tiles


def _cut_blocks_raw(srt: COOMatrix, shape, row_bounds: np.ndarray,
                    tile_cols: int) -> List[SubMatrix]:
    """Uncompressed cut of arbitrary row blocks: whole column ranges."""
    nnz = srt.nnz
    _, ncols = shape
    rows, cols, vals = srt.rows, srt.cols, srt.vals
    block = (np.searchsorted(row_bounds, rows, side="right")
             - 1).astype(np.int64)
    seg = cols // tile_cols
    nsegs = -(-ncols // tile_cols)
    composite = block * nsegs + seg
    order = _stable_order(composite)
    sc = composite[order]
    first = np.flatnonzero(np.concatenate(([True], sc[1:] != sc[:-1])))
    el_bounds = np.append(first, nnz)
    gk = sc[first]
    g_block = gk // nsegs
    g_seg = gk - g_block * nsegs
    row_los = row_bounds[g_block]
    row_his = row_bounds[g_block + 1]
    col_los = g_seg * tile_cols
    col_his = np.minimum(col_los + tile_cols, ncols)
    local_rows = (rows - row_bounds[block])[order]
    local_cols = (cols - seg * tile_cols)[order]
    tile_vals = vals[order]
    col_base = np.arange(ncols, dtype=np.int64)
    tiles: List[SubMatrix] = []
    for g in range(gk.size):
        lo, hi = el_bounds[g], el_bounds[g + 1]
        tiles.append(SubMatrix(
            row_range=(int(row_los[g]), int(row_his[g])),
            global_cols=col_base[col_los[g]:col_his[g]],
            rows=local_rows[lo:hi],
            cols=local_cols[lo:hi],
            vals=tile_vals[lo:hi]))
    return tiles


# ----------------------------------------------------------------------
# the three non-paper cutters
# ----------------------------------------------------------------------
def _cut_nnz_rows(srt: COOMatrix, shape, tile_rows: int, tile_cols: int,
                  compress: bool) -> List[SubMatrix]:
    """Variable-height row blocks balanced by nnz, paper column cut."""
    if srt.nnz == 0:
        return []
    bounds = _nnz_row_bounds(srt, shape[0], tile_rows)
    if compress:
        return _cut_blocks_compressed(srt, shape, bounds, tile_cols,
                                      equal_nnz=False)
    return _cut_blocks_raw(srt, shape, bounds, tile_cols)


def _cut_2d_grid(srt: COOMatrix, shape, tile_rows: int, tile_cols: int,
                 compress: bool) -> List[SubMatrix]:
    """Fixed row x column grid; column cuts on the *global* axis.

    Unlike the paper scheme, the column-segment boundaries are decoupled
    from the kept-column compression pass: an element's segment depends
    only on its global column, so the grid is stable under fill-in and
    every tile's input segment is a window of the global vector.
    Compression still compacts all-zero columns inside each tile.
    """
    nnz = srt.nnz
    if nnz == 0:
        return []
    nrows, ncols = shape
    if not compress:
        return _cut_blocks_raw(srt, shape,
                               _equal_row_bounds(nrows, tile_rows),
                               tile_cols)
    rows, cols, vals = srt.rows, srt.cols, srt.vals
    block = rows // tile_rows
    seg = cols // tile_cols
    nsegs = -(-ncols // tile_cols)
    tile_id = block * nsegs + seg
    keys, key_of = np.unique(tile_id * ncols + cols, return_inverse=True)
    key_tile = keys // ncols
    kept_cols = keys % ncols
    tile_key_first = np.searchsorted(key_tile, key_tile, side="left")
    key_local = np.arange(keys.size, dtype=np.int64) - tile_key_first

    order = _stable_order(tile_id)
    st = tile_id[order]
    el_first = np.flatnonzero(np.concatenate(([True], st[1:] != st[:-1])))
    el_bounds = np.append(el_first, nnz)
    g_tile = st[el_first]
    key_lo = np.searchsorted(key_tile, g_tile, side="left")
    key_hi = np.searchsorted(key_tile, g_tile, side="right")
    g_block = g_tile // nsegs
    row_los = g_block * tile_rows
    row_his = np.minimum(row_los + tile_rows, nrows)
    local_rows = (rows - block * tile_rows)[order]
    local_cols = key_local[key_of][order]
    tile_vals = vals[order]
    tiles: List[SubMatrix] = []
    for g in range(g_tile.size):
        lo, hi = el_bounds[g], el_bounds[g + 1]
        tiles.append(SubMatrix(
            row_range=(int(row_los[g]), int(row_his[g])),
            global_cols=kept_cols[key_lo[g]:key_hi[g]],
            rows=local_rows[lo:hi],
            cols=local_cols[lo:hi],
            vals=tile_vals[lo:hi]))
    return tiles


def _cut_nnz_2d(srt: COOMatrix, shape, tile_rows: int, tile_cols: int,
                compress: bool) -> List[SubMatrix]:
    """2D equal-nnz: nnz-balanced row blocks and column segments."""
    if srt.nnz == 0:
        return []
    bounds = _nnz_row_bounds(srt, shape[0], tile_rows)
    if compress:
        return _cut_blocks_compressed(srt, shape, bounds, tile_cols,
                                      equal_nnz=True)
    return _cut_blocks_raw(srt, shape, bounds, tile_cols)


register_strategy(PartitionStrategy(
    "paper", "the paper's row-cut + Fig. 6 compression (default)"))
register_strategy(PartitionStrategy(
    "nnz-rows", "variable-height row blocks balanced by nnz",
    _cut_nnz_rows))
register_strategy(PartitionStrategy(
    "2d-grid", "row x column grid with global column cuts", _cut_2d_grid))
register_strategy(PartitionStrategy(
    "nnz-2d", "2D equal-nnz row and column cuts", _cut_nnz_2d))


# ----------------------------------------------------------------------
# the analytic cost model
# ----------------------------------------------------------------------
#: Synthetic probe executions the cost model is calibrated on: per probe,
#: (round lock-step batches, round x lengths, round y lengths). The set
#: spans the regimes that separate strategies — few large rounds, many
#: small rounds, skewed rounds — so the least-squares fit is conditioned
#: on every feature.
_PROBE_ROUNDS = (
    ([256], [128], [128]),
    ([1024, 768], [128, 96], [96, 64]),
    ([4096] * 3, [128] * 3, [128] * 3),
    ([512, 256, 128, 64], [64, 96, 128, 32], [32, 64, 128, 16]),
    ([8192], [128], [128]),
    ([64] * 8, [16] * 8, [16] * 8),
    ([2048, 32], [128, 8], [128, 8]),
    ([128, 128], [128, 64], [64, 128]),
)

#: Right-hand-side widths the SpMM probes are priced at (beyond the
#: plain SpMV width of 1): one within a single fp64 rhs block and one
#: spanning several, so the marginal-rhs feature column is conditioned
#: on both regimes.
_PROBE_RHS = (4, 16)

_CALIBRATION: Dict[str, np.ndarray] = {}
_TUNE_MEMO: Dict[str, "TuneResult"] = {}


def _features(execution: SpmvExecution) -> np.ndarray:
    """The cost-model features of one (sub-)execution.

    Lock-step elements capture the padding cost (each round streams its
    *maximum* tile nnz on every bank); the summed x/y lengths capture the
    per-round input-replication staging and output-merge traffic; the
    round count captures the fixed per-round overhead (mode switches,
    program load, row re-opens); the constant absorbs trace-level
    startup. The final term is the *marginal* right-hand-side traffic of
    an SpMM execution — every column past the first re-gathers the
    lock-step stream and re-stages/merges the x/y vectors while the
    program load and matrix residency are amortised — and is zero for
    plain SpMV records, keeping their estimates bitwise at width 1.
    """
    extra_rhs = getattr(execution, "num_rhs", 1) - 1
    return np.array([
        float(execution.lockstep_elements),
        float(sum(execution.round_x_lengths)),
        float(sum(execution.round_y_lengths)),
        float(execution.num_rounds),
        1.0,
        float(extra_rhs) * float(execution.lockstep_elements
                                 + sum(execution.round_x_lengths)
                                 + sum(execution.round_y_lengths)),
    ])


def _probe_execution(batches, xs, ys, precision: str) -> SpmvExecution:
    return SpmvExecution(
        precision=precision, num_banks=16, round_batches=list(batches),
        per_bank_elements=np.full(16, max(batches), dtype=np.int64),
        input_bytes=0, output_bytes=0, matrix_bytes=0, banks_used=16,
        imbalance=1.0, policy="paper", compressed=True,
        round_x_lengths=list(xs), round_y_lengths=list(ys))


def _calibration(config: SystemConfig, precision: str,
                 params: TraceParams) -> np.ndarray:
    """Least-squares weights fitting modelled cycles on the probe set.

    The probes run through the *real* pipeline — ``spmm_ab_trace`` at
    width 1 and at the :data:`_PROBE_RHS` widths (conditioning the
    marginal-rhs column), then ``price_trace`` — so the weights inherit
    the trace synthesis and JEDEC timing of the platform being tuned
    for; they are cached per (config, precision, trace params) for the
    process lifetime.
    """
    from ..sweep.cache import stable_digest
    key = stable_digest(TUNER_VERSION, config, precision, params)
    weights = _CALIBRATION.get(key)
    if weights is not None:
        return weights
    from .spmm import as_spmm_execution
    from .timing import price_trace
    from .trace import spmm_ab_trace
    feats, cycles = [], []
    for batches, xs, ys in _PROBE_ROUNDS:
        execution = _probe_execution(batches, xs, ys, precision)
        for rhs in (1,) + _PROBE_RHS:
            widened = as_spmm_execution(execution, rhs)
            trace = spmm_ab_trace(widened, config, params)
            report = price_trace(trace, config, precision=precision)
            feats.append(_features(widened))
            cycles.append(float(report.cycles))
    weights, *_ = np.linalg.lstsq(np.array(feats), np.array(cycles),
                                  rcond=None)
    _CALIBRATION[key] = weights
    return weights


def estimate_cycles(execution: SpmvExecution, config: SystemConfig,
                    params: Optional[TraceParams] = None) -> float:
    """Analytic modelled-cycle estimate of one SpMV execution.

    Channel-sharded executions score as the maximum over their per-channel
    sub-executions (channels run on independent command buses, so total
    time is the max, not the sum — matching the scheduler).
    """
    params = params if params is not None else TraceParams()
    weights = _calibration(config, execution.precision, params)
    if execution.channel_execs:
        return max((float(_features(sub) @ weights)
                    for sub in execution.channel_execs
                    if sub.total_elements), default=0.0)
    return float(_features(execution) @ weights)


# ----------------------------------------------------------------------
# the auto-tuner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TuneResult:
    """Verdict of one per-matrix tuning pass.

    ``scores`` holds the cost-model estimate for every registered
    strategy; ``cycles`` holds exactly priced cycles for the candidates
    the confirmation step priced (empty when the model already picked the
    paper scheme).
    """

    chosen: str
    scores: Dict[str, float]
    cycles: Dict[str, float]


def tune_strategy(matrix: COOMatrix, config: SystemConfig,
                  precision: str = "fp64", compress: bool = True,
                  policy: str = "paper", channels: Optional[int] = None,
                  mode: str = "ab",
                  params: Optional[TraceParams] = None,
                  cache=None) -> TuneResult:
    """Pick the cheapest partitioning strategy for *matrix*.

    Every registered strategy is planned, distributed under the job's
    *policy*/*channels* layout and scored with the analytic cost model.
    The model's best *non-paper* candidate is then confirmed against the
    paper scheme with two exact pricings (trace synthesis + FCFS
    scheduling) and the cheaper one wins — so ``"auto"`` can never lose
    to ``"paper"`` on modelled cycles, by construction, while paying a
    bounded two extra pricings per matrix.

    *cache* is an optional :class:`repro.sweep.ArtifactCache`; without it
    verdicts memoize in-process. Both key on the matrix digest plus the
    full tuning context, so results are deterministic and cache-stable.
    """
    from ..sweep.cache import matrix_digest, stable_digest
    channels = resolve_channels(channels)
    params = params if params is not None else TraceParams()
    digest = stable_digest("strategy-tune", TUNER_VERSION,
                           matrix_digest(matrix), config, precision,
                           compress, policy, channels, mode, params,
                           tuple(strategy_names()))

    def compute() -> TuneResult:
        from .spmv import plan_spmv
        from .timing import time_spmv
        names = strategy_names()
        executions: Dict[str, SpmvExecution] = {}
        scores: Dict[str, float] = {}
        for name in names:
            plan = make_strategy(name).partition(
                matrix, config, precision=precision, compress=compress,
                validate=False)
            _, _, execution = plan_spmv(
                matrix, config, precision=precision, compress=compress,
                policy=policy, plan=plan, validate=False,
                channels=channels)
            executions[name] = execution
            scores[name] = estimate_cycles(execution, config, params)
        others = [n for n in names if n != "paper"]
        cycles: Dict[str, float] = {}
        chosen = "paper"
        if others:
            best = min(others, key=lambda n: (scores[n], names.index(n)))
            for name in ("paper", best):
                cycles[name] = float(time_spmv(executions[name], config,
                                               mode=mode,
                                               params=params).cycles)
            if cycles[best] < cycles["paper"]:
                chosen = best
        return TuneResult(chosen=chosen, scores=scores, cycles=cycles)

    if cache is not None:
        return cache.get_or_compute("tune", digest, compute)
    if digest not in _TUNE_MEMO:
        _TUNE_MEMO[digest] = compute()
    return _TUNE_MEMO[digest]


__all__ = ["PartitionStrategy", "AutoStrategy", "TuneResult",
           "make_strategy", "register_strategy", "strategy_names",
           "tune_strategy", "estimate_cycles", "TUNER_VERSION"]
