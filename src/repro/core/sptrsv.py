"""SpTRSV on pSyncPIM: ILDU, recursive blocks, levels (paper §VI).

The pipeline mirrors the paper exactly:

1. **Host preprocessing** — :func:`ildu` factors A ≈ L·D·U with *unit*
   triangular L and U and stores D as its inverse, so no division ever runs
   on the PIM units (§VI-D). :func:`level_schedule` computes dependency
   levels; :func:`reorder_by_levels` optionally permutes rows so each level
   is contiguous and maximally wide.
2. **Recursive block algorithm** (§VI-A, Eqs. 1-3) — the triangular matrix
   splits into L0 / M / L1 until diagonal blocks fit the memory-row bound;
   the flattened plan alternates leaf solves with SpMV updates.
3. **Leaf execution** (§VI-C, Algorithm 3) — within a leaf, columns are
   batched into independent levels; one array pass schedules the levels
   of every leaf of a solve (:class:`LeafSchedule`). Per level the host
   reads the solved values (SB), broadcasts them (AB), and the banks run
   the scalar-multiply kernel ``b[r] -= x[c] * v`` — the same tile kernel
   as SpMV with a ``sub`` accumulate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig, check_channels, check_strategy
from ..errors import ConfigError, ExecutionError, MappingError, SolverError
from ..formats import COOMatrix, CSRMatrix, reject_nan, stable_order
from ..kernels import Tile, run_tile_round
from ..pim import LaneEngine
from .. import obs
from .partition import (PartitionPlan, partition_blocks, tile_capacity,
                        tile_dims)
from .planner import concat_ranges
from .spmv import _cut_plan, check_engine_banks, check_fidelity

# ----------------------------------------------------------------------
# host preprocessing: ILDU factorisation
# ----------------------------------------------------------------------


@dataclass
class ILDUFactors:
    """A ≈ L D U with unit triangular factors and D stored inverted.

    ``lower``/``upper`` omit their unit diagonals *logically* — they store
    it explicitly (value 1.0) for convenience, but the memory mapping drops
    it (the paper stores L* = L - I, §VI-B).
    """

    lower: COOMatrix
    diag_inv: np.ndarray
    upper: COOMatrix

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def apply(self, b: np.ndarray) -> np.ndarray:
        """Reference preconditioner application x = U^-1 D^-1 L^-1 b."""
        y = solve_unit_triangular_reference(self.lower, b, lower=True)
        y = y * self.diag_inv
        return solve_unit_triangular_reference(self.upper, y, lower=False)


@obs.profiled("sptrsv.ildu", cat="planner")
def ildu(matrix: COOMatrix) -> ILDUFactors:
    """Incomplete LDU decomposition on the pattern of *matrix* (ILU(0)).

    Standard IKJ ILU(0) restricted to A's sparsity pattern, then the U
    factor's diagonal is split off as D (stored as 1/D) and both triangular
    factors are normalised to unit diagonals.
    """
    if not matrix.is_square:
        raise SolverError("ILDU needs a square matrix")
    n = matrix.shape[0]
    csr = CSRMatrix.from_coo(matrix)
    if np.any(matrix.diagonal() == 0.0):
        raise SolverError("ILDU needs a full diagonal")

    # Working rows as dicts (pattern-restricted updates), built from the
    # CSR arrays in one split pass instead of per-row slicing.
    all_idx = csr.indices.tolist()
    all_val = csr.data.tolist()
    bounds = csr.indptr.tolist()
    rows = [dict(zip(all_idx[bounds[i]:bounds[i + 1]],
                     all_val[bounds[i]:bounds[i + 1]]))
            for i in range(n)]

    diag = np.zeros(n)
    for i in range(n):
        row = rows[i]
        for k in sorted(c for c in row if c < i):
            lik = row[k] / diag[k]
            row[k] = lik
            for j, ukj in rows[k].items():
                if j > k and j in row:
                    row[j] -= lik * ukj
        if i not in row or row[i] == 0.0:
            raise SolverError(f"zero pivot at row {i} during ILDU")
        diag[i] = row[i]

    # Assemble both factors with array masks over the flattened rows
    # instead of per-element Python appends.
    counts = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    all_i = np.repeat(np.arange(n, dtype=np.int64), counts)
    if all_i.size:
        all_j = np.concatenate([
            np.fromiter(r.keys(), dtype=np.int64, count=len(r))
            for r in rows])
        all_v = np.concatenate([
            np.fromiter(r.values(), dtype=np.float64, count=len(r))
            for r in rows])
    else:
        all_j = np.zeros(0, dtype=np.int64)
        all_v = np.zeros(0)
    low = all_j < all_i
    up = all_j > all_i
    eye = np.arange(n)
    lower = COOMatrix((n, n), np.concatenate([all_i[low], eye]),
                      np.concatenate([all_j[low], eye]),
                      np.concatenate([all_v[low], np.ones(n)]),
                      check=False)
    upper = COOMatrix((n, n), np.concatenate([all_i[up], eye]),
                      np.concatenate([all_j[up], eye]),
                      np.concatenate([all_v[up] / diag[all_i[up]],
                                      np.ones(n)]),  # unit-normalise U
                      check=False)
    return ILDUFactors(lower=lower, diag_inv=1.0 / diag, upper=upper)


def solve_unit_triangular_reference(tri: COOMatrix, b: np.ndarray,
                                    lower: bool = True) -> np.ndarray:
    """Golden sequential solve (Algorithm 1) used for validation."""
    n = tri.shape[0]
    b = np.asarray(b, dtype=np.float64)
    x = b.copy()
    csr = CSRMatrix.from_coo(tri)
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        idx, val = csr.row(i)
        mask = (idx < i) if lower else (idx > i)
        x[i] = x[i] - float(np.dot(val[mask], x[idx[mask]]))
    return x


# ----------------------------------------------------------------------
# level scheduling and row reordering
# ----------------------------------------------------------------------
def _flip(tri: COOMatrix) -> COOMatrix:
    """Map index i -> n-1-i on both axes (upper <-> lower conversion)."""
    n = tri.shape[0]
    return COOMatrix(tri.shape, n - 1 - tri.rows, n - 1 - tri.cols,
                     tri.vals.copy(), check=False)


def level_schedule(tri: COOMatrix, lower: bool = True) -> List[np.ndarray]:
    """Group rows into dependency levels (host row-reordering support).

    Row i's level is 1 + max level of the rows it depends on; rows in one
    level are mutually independent and can be solved in a single all-bank
    batch. Upper solves are scheduled on the flipped (lower) matrix and
    mapped back.

    Depths come from a frontier sweep over CSC (one numpy relaxation pass
    per dependency level); its bitwise oracle is a per-row CSR loop in
    :mod:`repro.check.oracles`.
    """
    n = tri.shape[0]
    if not lower:
        flipped_levels = level_schedule(_flip(tri), lower=True)
        return [np.sort(n - 1 - lvl) for lvl in flipped_levels]
    return _levels_from_depths(_level_depths(n, tri))


def _level_depths(n: int, tri: COOMatrix) -> np.ndarray:
    """Longest-dependency-path depth of every row of lower *tri*."""
    return _level_depths_fast(n, tri.rows, tri.cols)


def _level_depths_fast(n: int, rows: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Frontier sweep: peel rows whose dependencies are all resolved.

    A row enters the frontier exactly when its last strictly-lower
    dependency resolves, i.e. at level ``1 + max(dep levels)`` — the same
    longest-path depth the scalar loop computes row by row.
    """
    depth = np.zeros(n, dtype=np.int64)
    if n == 0:
        return depth
    # CSC of the strictly-lower dependency edges: column c -> the rows
    # depending on it. Edges are packed as (col << shift) | row so one
    # in-place value sort groups them by column — much cheaper than an
    # argsort, and the within-column row order is irrelevant to depths.
    shift = max(1, (n - 1).bit_length())
    keys = (cols << shift) | rows
    keys = keys[rows > cols]
    keys.sort()
    erows = keys & ((1 << shift) - 1)
    ecols = keys >> shift
    indegree = np.bincount(erows, minlength=n)
    col_ptr = np.append(0, np.cumsum(np.bincount(ecols, minlength=n)))
    frontier = np.flatnonzero(indegree == 0)
    level = 0
    while frontier.size:
        depth[frontier] = level
        targets = erows[concat_ranges(col_ptr[frontier],
                                      col_ptr[frontier + 1])]
        if targets.size == 0:
            break
        # Per-level work stays O(edges relaxed), not O(n): decrement in
        # place and re-examine only the rows that were just touched.
        np.subtract.at(indegree, targets, 1)
        frontier = np.unique(targets[indegree[targets] == 0])
        level += 1
    return depth


def _levels_from_depths(depth: np.ndarray) -> List[np.ndarray]:
    """Split row indices into per-depth levels, ascending within each.

    Packs (depth, row) into one integer per row so a plain value sort
    replaces the stable argsort while producing the identical ascending
    row order inside every level.
    """
    n = depth.size
    if n == 0:
        return []
    shift = max(1, (n - 1).bit_length())
    keys = (depth << shift) | np.arange(n, dtype=np.int64)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    bounds = np.cumsum(np.bincount(depth))
    return np.split(order, bounds[:-1])


def reorder_by_levels(tri: COOMatrix, lower: bool = True,
                      ) -> Tuple[np.ndarray, COOMatrix]:
    """Permute rows/cols so dependency levels are contiguous (§VI-D).

    Returns ``(perm, reordered)`` where ``reordered = P A P^T`` with
    ``perm[new] = old``. Sorting by level depth preserves triangularity
    because an edge always points from a shallower to a deeper row.
    """
    if not lower:
        n = tri.shape[0]
        perm_flipped, reordered_flipped = reorder_by_levels(
            _flip(tri), lower=True)
        perm = (n - 1 - perm_flipped)[::-1].copy()
        reordered = _flip(reordered_flipped)
        if not reordered.is_upper_triangular():
            raise MappingError("level reordering broke upper-triangularity")
        return perm, reordered
    levels = level_schedule(tri, lower=True)
    perm = (np.concatenate(levels) if levels
            else np.zeros(0, dtype=np.int64))
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    reordered = COOMatrix(tri.shape, inverse[tri.rows], inverse[tri.cols],
                          tri.vals.copy(), check=False)
    if not reordered.is_lower_triangular():
        raise MappingError("level reordering broke lower-triangularity")
    return perm, reordered


# ----------------------------------------------------------------------
# recursive block plan (Eqs. 1-3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveStep:
    """One step of the flattened recursive block plan."""

    kind: str                       # "leaf" or "update"
    row_range: Tuple[int, int]
    col_range: Tuple[int, int]      # == row_range for leaves


def recursive_plan(n: int, leaf_size: int) -> List[SolveStep]:
    """Flatten the L0 / M / L1 recursion into an ordered step list."""
    if leaf_size <= 0:
        raise MappingError("leaf size must be positive")
    steps: List[SolveStep] = []

    def recurse(lo: int, hi: int) -> None:
        if hi - lo <= leaf_size:
            steps.append(SolveStep("leaf", (lo, hi), (lo, hi)))
            return
        mid = lo + (hi - lo) // 2
        recurse(lo, mid)
        steps.append(SolveStep("update", (mid, hi), (lo, mid)))
        recurse(mid, hi)

    if n > 0:
        recurse(0, n)
    return steps


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class SpTrsvExecution:
    """Cost-model inputs for one triangular solve."""

    precision: str
    num_banks: int
    n: int
    leaf_size: int
    #: Per-level lock-step element counts (max per bank), leaf phases only.
    level_batches: List[int] = field(default_factory=list)
    #: Per-level total elements (for bandwidth/energy accounting).
    level_elements: List[int] = field(default_factory=list)
    #: Per-level number of columns solved (broadcast payload sizes).
    level_widths: List[int] = field(default_factory=list)
    #: Element totals of the SpMV update steps between leaves.
    update_elements: List[int] = field(default_factory=list)
    #: Rounds needed by each update step's SpMV.
    update_batches: List[int] = field(default_factory=list)
    #: Full execution records of the update SpMVs (trace synthesis).
    update_execs: List[object] = field(default_factory=list)
    #: Channel-sharded solves carry the shard width here; ``None`` selects
    #: the legacy representative-channel model.
    num_channels: Optional[int] = None
    banks_per_channel: int = 16
    #: One per-channel sub-execution per shard (empty when unsharded).
    channel_execs: List["SpTrsvExecution"] = field(default_factory=list)
    #: A solve has one right-hand side (the ALU count reads it like an
    #: SpMV/SpMM record's).
    num_rhs: ClassVar[int] = 1

    @property
    def num_levels(self) -> int:
        return len(self.level_batches)

    @property
    def total_elements(self) -> int:
        return int(sum(self.level_elements) + sum(self.update_elements))


def check_leaf_size(leaf_size) -> Optional[int]:
    """Reject a leaf block size that is not ``None`` or an integer >= 1.

    ``None`` selects the tile capacity (one memory row of elements). There
    is no upper bound: a leaf wider than a tile is a valid ablation point.
    """
    if leaf_size is None:
        return None
    try:
        value = operator.index(leaf_size)
    except TypeError:
        raise ConfigError(
            f"leaf_size must be an integer, got {leaf_size!r}") from None
    if value < 1:
        raise ConfigError(f"leaf_size must be >= 1 (or None), got {value}")
    return value


@dataclass
class SpTrsvResult:
    x: np.ndarray
    execution: SpTrsvExecution


def run_sptrsv(tri: COOMatrix, b: np.ndarray, config: SystemConfig,
               lower: bool = True, precision: str = "fp64",
               fidelity: str = "fast", reorder: bool = True,
               leaf_size: Optional[int] = None,
               engine_banks: Optional[int] = None,
               channels: Optional[int] = None,
               strategy: str = "paper") -> SpTrsvResult:
    """Solve ``T x = b`` for unit triangular T on the pSyncPIM model.

    T's diagonal is implied: an absent diagonal entry reads as 1.0, and a
    stored one must be exactly 1.0 (:func:`ildu` factors store theirs
    explicitly); any other stored value raises :class:`ExecutionError`.

    Upper solves are run as lower solves on the reversed ordering
    (rows/cols mapped through ``n-1-i``), which is how the hardware reuses
    one kernel for L and U (Table III lists both under SpTRSV).

    ``engine_banks`` caps the functional engine's width (``None`` runs each
    level as one wave); it must be at least 1. ``leaf_size`` bounds the
    diagonal leaf blocks: ``None`` is the tile capacity, otherwise an
    integer >= 1.

    ``channels`` selects the execution model: ``None`` is the legacy
    representative-channel layout over ``config.total_units`` banks; an
    integer ``C`` shards every leaf level's row ranges and every update
    SpMV over ``C`` explicitly modelled channels. Fast-tier numerics are
    bitwise identical for any ``C`` (the host-side scatter order does not
    depend on the bank split).

    ``strategy`` selects the partitioning scheme for the update SpMVs
    (see :mod:`repro.core.strategies`). The default (``"paper"``) path is
    bitwise unchanged; alternative strategies regroup the per-row
    accumulation and may differ in the last floating-point bits.
    """
    b = np.asarray(b, dtype=np.float64)
    n = tri.shape[0]
    check_engine_banks(engine_banks)
    check_fidelity(fidelity)
    leaf_size = check_leaf_size(leaf_size)
    channels = check_channels(channels)
    strategy = check_strategy(strategy)
    if channels is not None:
        available = config.memory.num_pseudo_channels
        if channels > available:
            raise ConfigError(
                f"channels={channels} exceeds the platform's "
                f"{available} pseudo-channels")
    if b.shape != (n,):
        raise ExecutionError("right-hand side length mismatch")
    reject_nan(matrix=tri.vals, b=b)
    if not tri.is_square:
        raise ExecutionError("triangular solve needs a square matrix")
    if lower and not tri.is_lower_triangular():
        raise ExecutionError("matrix is not lower triangular")
    if not lower and not tri.is_upper_triangular():
        raise ExecutionError("matrix is not upper triangular")
    if np.any(tri.vals[tri.rows == tri.cols] != 1.0):
        raise ExecutionError(
            "triangular solve needs a unit diagonal: a stored diagonal "
            "entry differs from 1.0")

    if not lower:
        flipped = COOMatrix(tri.shape, n - 1 - tri.rows, n - 1 - tri.cols,
                            tri.vals.copy(), check=False)
        result = run_sptrsv(flipped, b[::-1].copy(), config, lower=True,
                            precision=precision, fidelity=fidelity,
                            reorder=reorder, leaf_size=leaf_size,
                            engine_banks=engine_banks, channels=channels,
                            strategy=strategy)
        result.x = result.x[::-1].copy()
        return result

    perm = None
    work = tri
    rhs = b.copy()
    if reorder:
        with obs.span("sptrsv.level_schedule", cat="planner", n=n,
                      nnz=tri.nnz):
            perm, work = reorder_by_levels(tri, lower=True)
        rhs = b[perm].copy()

    leaf = (leaf_size if leaf_size is not None
            else tile_capacity(config, precision))
    plan = recursive_plan(n, leaf)
    bpc = config.memory.banks_per_channel
    if channels is None:
        execution = SpTrsvExecution(precision=precision,
                                    num_banks=config.total_units,
                                    n=n, leaf_size=leaf)
    else:
        # Channels are per-cube: the lane array spans C * bpc units and
        # num_cubes stays a symmetric multiplier in the energy model.
        execution = SpTrsvExecution(
            precision=precision, num_banks=channels * bpc, n=n,
            leaf_size=leaf, num_channels=channels, banks_per_channel=bpc,
            channel_execs=[
                SpTrsvExecution(precision=precision, num_banks=bpc,
                                n=n, leaf_size=leaf)
                for _ in range(channels)])
    strict = work.strictly_lower()
    leaf_bounds = np.array([step.row_range[0] for step in plan
                            if step.kind == "leaf"] + [n], dtype=np.int64)
    schedule = _leaf_schedule(_leaf_columns(strict), leaf_bounds,
                              execution.num_banks, bpc,
                              len(execution.channel_execs))
    _record_levels(schedule, execution)
    updates = [step for step in plan if step.kind == "update"]
    prepared = iter(_update_plans(strict, updates, leaf, config,
                                  precision, channels, strategy))

    with obs.span("sptrsv.solve", cat="kernel", n=n, steps=len(plan),
                  fidelity=fidelity):
        leaf_index = 0
        for step in plan:
            if step.kind == "update":
                _apply_update(next(prepared), rhs, step, config, precision,
                              fidelity, engine_banks, execution, channels)
            else:
                _solve_leaf(schedule, leaf_index, rhs, step, precision,
                            fidelity, engine_banks, execution.num_banks)
                leaf_index += 1
    if obs.enabled():
        obs.set_gauge("sptrsv.levels", execution.num_levels)
        obs.add_counter("sptrsv.solves", 1)

    x = rhs
    if perm is not None:
        unpermuted = np.empty_like(x)
        unpermuted[perm] = x
        x = unpermuted
    return SpTrsvResult(x=x, execution=execution)


#: One update SpMV, planned: its block and the block's partition plan.
UpdatePlan = Tuple[COOMatrix, PartitionPlan]


def _update_plans(strict: COOMatrix, updates: List[SolveStep],
                  leaf: int, config: SystemConfig, precision: str,
                  channels: Optional[int],
                  strategy: str) -> List[Optional[UpdatePlan]]:
    """Plan every update SpMV of a solve, in plan order (``None`` for an
    empty block).

    Each strictly-lower element outside the diagonal leaves lies in
    exactly one update block, so one sort by a key that leads with the
    update index groups every block's elements, row-major, as a
    contiguous slice: the block's COO is a view of that slice. Under the
    paper strategy one :func:`partition_blocks` call then cuts every
    block's tiles; other strategies cut (and ``"auto"`` tunes) each block
    on its own. The bank layout of a block is built when its update runs
    (:func:`_apply_update`), so only the tiles of every block, not every
    block's split pieces and rounds, live through the solve.
    """
    if not updates:
        return []
    row_lo, col_lo = np.array([(step.row_range[0], step.col_range[0])
                               for step in updates], dtype=np.int64).T
    shapes = np.array([(step.row_range[1] - step.row_range[0],
                        step.col_range[1] - step.col_range[0])
                       for step in updates], dtype=np.int64)
    widths = shapes[:, 1]
    update = _update_index(strict.rows, strict.cols, strict.shape[0],
                           leaf, updates)
    inside = np.flatnonzero(update >= 0)
    update = update[inside]
    rows = strict.rows[inside] - row_lo[update]
    cols = strict.cols[inside] - col_lo[update]
    # (update, row, col) as one offset into the blocks laid end to end.
    area_base = np.append(0, np.cumsum(shapes[:, 0] * widths))
    order = stable_order(area_base[update] + rows * widths[update] + cols)
    rows, cols = rows[order], cols[order]
    vals = strict.vals[inside][order]
    elem_ptr = np.append(0, np.cumsum(np.bincount(update,
                                                  minlength=len(updates))))
    bounds = elem_ptr.tolist()
    blocks = [COOMatrix(shape, rows[a:b], cols[a:b], vals[a:b], check=False)
              for shape, a, b in zip(shapes.tolist(), bounds[:-1],
                                     bounds[1:])]
    if strategy == "paper":
        tile_rows, tile_cols = tile_dims(config, precision)
        with obs.span("plan.partition", cat="planner", nnz=rows.size,
                      compress=True, blocks=len(updates)):
            plans = partition_blocks(rows, cols, vals, elem_ptr, shapes,
                                     tile_rows, tile_cols, compress=True)
    else:
        plans = [_cut_plan(block, config, precision, compress=True,
                           policy="paper", channels=channels,
                           strategy=strategy, tuner_cache=None,
                           validate=True)
                 if block.nnz else None for block in blocks]
    return [(block, plan) if block.nnz else None
            for block, plan in zip(blocks, plans)]


def _update_index(rows: np.ndarray, cols: np.ndarray, n: int, leaf: int,
                  updates: List[SolveStep]) -> np.ndarray:
    """Plan-order index of the update block holding each strictly-lower
    element, ``-1`` for an element inside a diagonal leaf.

    :func:`recursive_plan` splits ``[lo, hi)`` at ``mid`` and emits the
    update ``rows [mid, hi) x cols [lo, mid)`` between the two halves, so
    the updates come in ascending ``mid``. Element ``(r, c)`` belongs to
    the node whose ``mid`` separates them, ``c < mid <= r``; one array
    pass per recursion depth descends every element to it, or to the
    leaf that holds both.
    """
    mids = np.array([step.row_range[0] for step in updates],
                    dtype=np.int64)
    update = np.full(rows.size, -1, dtype=np.int64)
    index = np.arange(rows.size)
    lo = np.zeros(rows.size, dtype=np.int64)
    hi = np.full(rows.size, n, dtype=np.int64)
    while index.size:
        split = hi - lo > leaf
        index, rows, cols, lo, hi = (
            a[split] for a in (index, rows, cols, lo, hi))
        mid = lo + (hi - lo) // 2
        here = (cols < mid) & (mid <= rows)
        update[index[here]] = np.searchsorted(mids, mid[here])
        left = rows < mid
        lo = np.where(left, lo, mid)
        hi = np.where(left, mid, hi)
        down = ~here
        index, rows, cols, lo, hi = (
            a[down] for a in (index, rows, cols, lo, hi))
    return update


def _apply_update(prepared: Optional[UpdatePlan], rhs: np.ndarray,
                  step: SolveStep, config, precision, fidelity,
                  engine_banks, execution: SpTrsvExecution,
                  channels: Optional[int] = None) -> None:
    """b1 -= M @ x0 (Eq. 3's SpMV between the two recursive solves), on
    the update's prepared plan (:func:`_update_plans`)."""
    from .spmv import run_spmv  # local import: spmv <-> sptrsv layering
    if prepared is None:
        return
    block, plan = prepared
    r0, r1 = step.row_range
    c0, c1 = step.col_range
    result = run_spmv(block, rhs[c0:c1], config, precision=precision,
                      fidelity=fidelity, accumulate="sub",
                      y0=rhs[r0:r1], engine_banks=engine_banks,
                      channels=channels, plan=plan)
    rhs[r0:r1] = result.y
    execution.update_elements.append(block.nnz)
    execution.update_batches.append(result.execution.num_rounds)
    execution.update_execs.append(result.execution)
    # Thread each channel's share of the update into its sub-execution;
    # shards the LPT pass left empty skip the update entirely (an idle
    # channel issues no commands for it).
    for sub, sub_exec in zip(execution.channel_execs,
                             result.execution.channel_execs):
        if sub_exec.total_elements == 0:
            continue
        sub.update_elements.append(sub_exec.total_elements)
        sub.update_batches.append(sub_exec.num_rounds)
        sub.update_execs.append(sub_exec)


def _leaf_columns(strict: COOMatrix) -> COOMatrix:
    """The leaf scheduler's view of the strict part: column-major order
    lists every column's elements as one contiguous, row-sorted run."""
    return strict.sorted_cols()


@dataclass(frozen=True)
class LeafSchedule:
    """Every leaf level of one solve (Algorithm 3) as flat arrays.

    Levels are numbered in solve order: leaf by leaf, and shallow to deep
    inside a leaf. Leaf ``k`` runs levels ``leaf_ptr[k]:leaf_ptr[k + 1]``.
    Level ``l`` first reads the solved columns
    ``level_cols[col_ptr[l]:col_ptr[l + 1]]`` (ascending), then applies
    ``b[rows] -= vals * x[cols]`` over elements
    ``elem_ptr[l]:elem_ptr[l + 1]``, in (column, row) order. All indices
    are global. ``batches`` is each level's lock-step batch over the
    record's banks; ``channel_batches``/``channel_elements`` (one row per
    channel shard, none when unsharded) split it per channel.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    elem_ptr: np.ndarray
    level_cols: np.ndarray
    col_ptr: np.ndarray
    leaf_ptr: np.ndarray
    batches: np.ndarray
    channel_batches: np.ndarray
    channel_elements: np.ndarray


def _leaf_schedule(col_sorted: COOMatrix, leaf_bounds: np.ndarray,
                   num_banks: int, banks_per_channel: int,
                   num_channels: int) -> LeafSchedule:
    """Schedule the levels of every diagonal leaf block in array passes.

    *leaf_bounds* holds each leaf's first row plus ``n``; every leaf is
    non-empty, as :func:`recursive_plan` makes them. A row's depth inside
    its leaf only counts dependencies inside that leaf, so one frontier
    sweep over the intra-leaf edges gives every leaf's depths at once.
    One stable sort by level then keeps each level's elements in the
    (column, row) order of *col_sorted*, so the float accumulation order
    matches the per-column loops of the scalar oracle in
    :mod:`repro.check.oracles`.

    Fig. 7 cuts a level's ``e`` row-sorted elements into row-contiguous
    shares of ``ceil(e / num_banks)`` per bank, so the lock-step batch is
    that share and channel ``ch`` holds elements
    ``[ch·bpc·share, (ch+1)·bpc·share)`` — no per-level split is needed.
    """
    n = col_sorted.shape[0]
    leaf_of = np.repeat(np.arange(leaf_bounds.size - 1, dtype=np.int64),
                        np.diff(leaf_bounds))
    intra = leaf_of[col_sorted.rows] == leaf_of[col_sorted.cols]
    rows = col_sorted.rows[intra]
    cols = col_sorted.cols[intra]
    vals = col_sorted.vals[intra]
    depth = _level_depths_fast(n, rows, cols)
    leaf_levels = (np.maximum.reduceat(depth, leaf_bounds[:-1]) + 1 if n
                   else np.zeros(0, dtype=np.int64))
    leaf_ptr = np.append(0, np.cumsum(leaf_levels))
    level_of = leaf_ptr[:-1][leaf_of] + depth
    num_levels = int(leaf_ptr[-1])
    col_ptr = np.append(0, np.cumsum(np.bincount(level_of,
                                                 minlength=num_levels)))
    elem_level = level_of[cols]
    order = stable_order(elem_level)
    elements = np.bincount(elem_level, minlength=num_levels)
    batches = -(-elements // num_banks)
    share = np.maximum(batches, 1)
    left = elements - (np.arange(num_channels, dtype=np.int64)[:, None]
                       * banks_per_channel * share)
    return LeafSchedule(
        rows=rows[order], cols=cols[order], vals=vals[order],
        elem_ptr=np.append(0, np.cumsum(elements)),
        level_cols=stable_order(level_of), col_ptr=col_ptr,
        leaf_ptr=leaf_ptr, batches=batches,
        channel_batches=np.clip(left, 0, share),
        channel_elements=np.clip(left, 0, banks_per_channel * share))


def _record_levels(schedule: LeafSchedule,
                   execution: SpTrsvExecution) -> None:
    """Append the schedule's levels to the record and to every shard.

    Every channel walks the level schedule in lock step (the solved values
    must reach all channels before the next level — the broadcast seam the
    trace prices), so each shard records every level, even one where its
    share of elements is empty.
    """
    widths = np.diff(schedule.col_ptr).tolist()
    execution.level_batches.extend(schedule.batches.tolist())
    execution.level_elements.extend(np.diff(schedule.elem_ptr).tolist())
    execution.level_widths.extend(widths)
    for ch, sub in enumerate(execution.channel_execs):
        sub.level_batches.extend(schedule.channel_batches[ch].tolist())
        sub.level_elements.extend(schedule.channel_elements[ch].tolist())
        sub.level_widths.extend(widths)


def _solve_leaf(schedule: LeafSchedule, leaf: int, rhs: np.ndarray,
                step: SolveStep, precision, fidelity, engine_banks,
                num_banks: int) -> None:
    """Run leaf *leaf*'s levels of *schedule* on *rhs*, in order.

    A level's columns are solved once every earlier level has run
    (x = b under the unit diagonal), so each level reads them from *rhs*.
    """
    lo, hi = step.row_range
    first, last = schedule.leaf_ptr[leaf:leaf + 2].tolist()
    bounds = schedule.elem_ptr[first:last + 1].tolist()
    for level in range(first, last):
        a, b = bounds[level - first], bounds[level - first + 1]
        if a == b:
            continue
        rows = schedule.rows[a:b]
        cols = schedule.cols[a:b]
        vals = schedule.vals[a:b]
        if fidelity == "fast":
            # scatter-subtract: a row can receive updates from several
            # columns of the same level, so duplicates must accumulate
            np.subtract.at(rhs, rows, vals * rhs[cols])
            continue
        solved = schedule.level_cols[
            schedule.col_ptr[level]:schedule.col_ptr[level + 1]]
        # Row-contiguous shares over the laid-out units: all of
        # config.total_units in the legacy model, C * banks_per_channel
        # (channel-major: unit c*bpc+b is channel c, bank b) when sharded.
        per_bank = _split_rows(rows - lo, np.searchsorted(solved, cols),
                               vals, num_banks)
        _leaf_level_functional(per_bank, rhs[solved], rhs, lo, hi - lo,
                               precision, engine_banks)


def _split_rows(rows, cols, vals, num_banks):
    """Fig. 7: cut the level's elements into row-contiguous bank shares."""
    order = stable_order(rows)
    rows, cols, vals = rows[order], cols[order], vals[order]
    share = max(1, math.ceil(rows.size / num_banks))
    chunks = []
    for b in range(0, rows.size, share):
        chunks.append((rows[b:b + share], cols[b:b + share],
                       vals[b:b + share]))
    return chunks


def _leaf_level_functional(per_bank, scales, rhs, lo, width, precision,
                           engine_banks) -> None:
    """Run one level on the instruction-accurate engine."""
    width_banks = min(len(per_bank), engine_banks or len(per_bank))
    waves = [per_bank[i:i + width_banks]
             for i in range(0, len(per_bank), width_banks)]
    for wave in waves:
        engine = LaneEngine(len(wave), precision=precision)
        tiles = [Tile(rows, cols, vals, scales, width)
                 for rows, cols, vals in wave]
        result = run_tile_round(engine, tiles, accumulate="sub")
        for (rows, _, _), partial in zip(wave, result.y_per_bank):
            touched = np.unique(rows)
            rhs[lo + touched] += partial[touched]
