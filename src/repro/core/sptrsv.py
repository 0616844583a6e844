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
   batched into independent levels. Per level the host reads the solved
   values (SB), broadcasts them (AB), and the banks run the scalar-multiply
   kernel ``b[r] -= x[c] * v`` — the same tile kernel as SpMV with a
   ``sub`` accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import SystemConfig, resolve_channels
from ..errors import ConfigError, ExecutionError, MappingError, SolverError
from ..formats import COOMatrix, CSRMatrix, reject_nan
from ..kernels import Tile, run_tile_round
from ..pim import LaneEngine
from .. import obs
from .partition import tile_capacity
from .planner import concat_ranges
from .spmv import check_engine_banks

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

    @property
    def num_levels(self) -> int:
        return len(self.level_batches)

    @property
    def total_elements(self) -> int:
        return int(sum(self.level_elements) + sum(self.update_elements))


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
               strategy: Optional[str] = None) -> SpTrsvResult:
    """Solve ``T x = b`` for unit triangular T on the pSyncPIM model.

    T's diagonal is implied: an absent diagonal entry reads as 1.0, and a
    stored one must be exactly 1.0 (:func:`ildu` factors store theirs
    explicitly); any other stored value raises :class:`ExecutionError`.

    Upper solves are run as lower solves on the reversed ordering
    (rows/cols mapped through ``n-1-i``), which is how the hardware reuses
    one kernel for L and U (Table III lists both under SpTRSV).

    ``engine_banks`` caps the functional engine's width (``None`` runs each
    level as one wave); it must be at least 1.

    ``channels`` selects the execution model (explicit arg >
    ``PSYNCPIM_CHANNELS`` > default): ``None`` is the legacy
    representative-channel layout over ``config.total_units`` banks; an
    integer ``C`` shards every leaf level's row ranges and every update
    SpMV over ``C`` explicitly modelled channels. Fast-tier numerics are
    bitwise identical for any ``C`` (the host-side scatter order does not
    depend on the bank split).

    ``strategy`` selects the partitioning scheme for the update SpMVs
    (explicit arg > ``PSYNCPIM_STRATEGY`` > ``"paper"``; see
    :mod:`repro.core.strategies`). The default (``"paper"``) path is
    bitwise unchanged; alternative strategies regroup the per-row
    accumulation and may differ in the last floating-point bits.
    """
    b = np.asarray(b, dtype=np.float64)
    n = tri.shape[0]
    check_engine_banks(engine_banks)
    channels = resolve_channels(channels)
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

    leaf = leaf_size or tile_capacity(config, precision)
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
    leaf_source = _leaf_columns(strict)

    with obs.span("sptrsv.solve", cat="kernel", n=n, steps=len(plan),
                  fidelity=fidelity):
        for step in plan:
            if step.kind == "update":
                _apply_update(strict, rhs, step, config, precision,
                              fidelity, engine_banks, execution, channels,
                              strategy)
            else:
                _solve_leaf_fast(leaf_source, rhs, step, config, precision,
                                 fidelity, engine_banks, execution)
    if obs.enabled():
        obs.set_gauge("sptrsv.levels", execution.num_levels)
        obs.add_counter("sptrsv.solves", 1)

    x = rhs
    if perm is not None:
        unpermuted = np.empty_like(x)
        unpermuted[perm] = x
        x = unpermuted
    return SpTrsvResult(x=x, execution=execution)


def _apply_update(strict: COOMatrix, rhs: np.ndarray, step: SolveStep,
                  config, precision, fidelity, engine_banks,
                  execution: SpTrsvExecution,
                  channels: Optional[int] = None,
                  strategy: Optional[str] = None) -> None:
    """b1 -= M @ x0 (Eq. 3's SpMV between the two recursive solves)."""
    from .spmv import run_spmv  # local import: spmv <-> sptrsv layering
    r0, r1 = step.row_range
    c0, c1 = step.col_range
    block = strict.submatrix(step.row_range, step.col_range)
    if block.nnz == 0:
        return
    result = run_spmv(block, rhs[c0:c1], config, precision=precision,
                      fidelity=fidelity, accumulate="sub",
                      y0=rhs[r0:r1], engine_banks=engine_banks,
                      channels=channels, strategy=strategy)
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
    """The leaf solver's view of the strict part: column-major order gives
    every leaf block's elements as one contiguous (column, row)-sorted
    slice range."""
    return strict.sorted_cols()


def _solve_leaf_fast(col_sorted: COOMatrix, rhs: np.ndarray,
                     step: SolveStep, config, precision, fidelity,
                     engine_banks, execution: SpTrsvExecution) -> None:
    """Algorithm 3 with level batching inside one diagonal block.

    The block's elements are one column-range slice (rows filtered to the
    block), already in the oracle's (column, row) emission order; depth
    comes from the same frontier sweep as :func:`level_schedule` and each
    level's elements are gathered with ``concat_ranges`` instead of
    per-column concatenation. All per-level arrays — and therefore the
    float accumulation order of the rhs updates — match the per-column
    loops of the scalar oracle in :mod:`repro.check.oracles` exactly.
    """
    lo, hi = step.row_range
    width = hi - lo
    if width == 0:
        return
    c0 = np.searchsorted(col_sorted.cols, lo, side="left")
    c1 = np.searchsorted(col_sorted.cols, hi, side="left")
    erows = col_sorted.rows[c0:c1]
    # strict lower: every element's row exceeds its column >= lo already
    keep = erows < hi
    erows = erows[keep] - lo
    ecols = col_sorted.cols[c0:c1][keep] - lo
    evals = col_sorted.vals[c0:c1][keep]

    depth = _level_depths_fast(width, erows, ecols)
    col_ptr = np.searchsorted(ecols, np.arange(width + 1))
    num_levels = int(depth.max()) + 1 if width else 0
    level_order = np.argsort(depth, kind="stable")
    level_bounds = np.append(0, np.cumsum(np.bincount(depth)))
    for level in range(num_levels):
        cols = level_order[level_bounds[level]:level_bounds[level + 1]]
        starts, ends = col_ptr[cols], col_ptr[cols + 1]
        gather = concat_ranges(starts, ends)
        rows = erows[gather]
        vals = evals[gather]
        lcols = np.repeat(np.arange(cols.size, dtype=np.int64),
                          ends - starts)
        _run_leaf_level(cols, rows, lcols, vals, rhs, lo, width, config,
                        precision, fidelity, engine_banks, execution)


def _run_leaf_level(cols, rows, lcols, vals, rhs, lo, width, config,
                    precision, fidelity, engine_banks,
                    execution: SpTrsvExecution) -> None:
    """Execute one leaf level (shared with the scalar leaf oracle)."""
    # The columns of this level are solved: x = b (unit diagonal).
    scales = rhs[lo + cols]
    per_bank: List[tuple] = []
    if rows.size:
        # Row-contiguous shares over the laid-out units: all of
        # config.total_units in the legacy model, C * banks_per_channel
        # (channel-major: unit c*bpc+b is channel c, bank b) when sharded.
        per_bank = _split_rows(rows, lcols, vals, execution.num_banks)
        batch = max(chunk[0].size for chunk in per_bank)
        execution.level_batches.append(int(batch))
        if fidelity == "fast":
            # scatter-subtract: a row can receive updates from several
            # columns of the same level, so duplicates must accumulate
            np.subtract.at(rhs, lo + rows, vals * scales[lcols])
        else:
            _leaf_level_functional(per_bank, scales, rhs, lo, width,
                                   precision, engine_banks)
    else:
        execution.level_batches.append(0)
    execution.level_elements.append(int(rows.size))
    execution.level_widths.append(int(cols.size))
    # Per-channel accounting: every channel walks the level schedule in
    # lock step (the solved values must reach all channels before the next
    # level — the broadcast seam the trace prices), so each sub-execution
    # records the level even when its share of elements is empty.
    bpc = execution.banks_per_channel
    for ch, sub in enumerate(execution.channel_execs):
        chunks = per_bank[ch * bpc:(ch + 1) * bpc]
        sub.level_batches.append(
            max((chunk[0].size for chunk in chunks), default=0))
        sub.level_elements.append(
            int(sum(chunk[0].size for chunk in chunks)))
        sub.level_widths.append(int(cols.size))


def _split_rows(rows, cols, vals, num_banks):
    """Fig. 7: cut the level's elements into row-contiguous bank shares."""
    order = np.argsort(rows, kind="stable")
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
