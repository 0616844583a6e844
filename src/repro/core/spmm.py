"""End-to-end SpMM execution: one resident plan, k right-hand sides.

SpMM (``Y = A @ X`` with ``X`` a dense block of ``num_rhs`` columns)
reuses the SpMV layout verbatim: :func:`plan_spmm` delegates to
:func:`~repro.core.spmv.plan_spmv` and re-tags the execution record with
the right-hand-side width, so the partition, the bank distribution and
every round shape are bitwise those of the single-vector kernel. What
changes is amortisation: the program load and the resident matrix stream
are paid once per round while the input/output staging and the
gather/accumulate work scale with ``num_rhs`` (see
:func:`repro.core.trace.spmm_ab_segments`).

Both fidelities generalise the SpMV tiers column-wise:

* ``fast`` — the per-tile numpy update runs on ``(segment, k)`` blocks;
  each column sees exactly the SpMV float operations in the SpMV order,
  so column ``j`` of the result is bitwise ``run_spmv(A, X[:, j])``.
* ``functional`` — every round expands into ``banks x k`` engine lanes
  (:func:`repro.kernels.run_tile_block`) on the instruction-accurate
  engine; at ``k == 1`` the expansion is the identity and the tier is
  bitwise the SpMV functional tier.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import SystemConfig, resolve_rhs
from ..errors import ExecutionError
from ..formats import COOMatrix, reject_nan
from ..kernels import Tile, run_tile_block
from .. import obs
from ..pim import LaneEngine
from .distribution import Assignment
from .partition import PartitionPlan
from .spmv import (_ACCUM_UFUNC, _MERGE, _MULT_FUNC, AnyAssignment,
                   SpmvExecution, _lane_rounds, check_engine_banks,
                   plan_spmv)


@dataclass
class SpmmExecution(SpmvExecution):
    """An SpMV execution record widened to ``num_rhs`` dense columns.

    Every inherited field keeps its SpMV meaning (the plan is shared);
    traffic fields stay *per right-hand side* — the trace synthesisers
    and :func:`~repro.core.timing.time_spmm` scale staging and compute
    by ``num_rhs`` where the hardware does.
    """

    num_rhs: int = 1


@dataclass
class SpmmResult:
    """SpMM output block plus its execution record."""

    y: np.ndarray
    execution: SpmmExecution
    plan: PartitionPlan
    assignment: AnyAssignment


def as_spmm_execution(execution: SpmvExecution,
                      num_rhs: int) -> SpmmExecution:
    """Re-tag an SpMV execution (and its channel shards) with a width."""
    if isinstance(execution, SpmmExecution) \
            and execution.num_rhs == num_rhs:
        return execution
    data = {f.name: getattr(execution, f.name)
            for f in dataclasses.fields(SpmvExecution)}
    data["channel_execs"] = [as_spmm_execution(sub, num_rhs)
                             for sub in execution.channel_execs]
    return SpmmExecution(num_rhs=num_rhs, **data)


def plan_spmm(matrix: COOMatrix, config: SystemConfig,
              num_rhs: Optional[int] = None, precision: str = "fp64",
              compress: bool = True, policy: str = "paper",
              matrix_format: str = "coo",
              plan: Optional[PartitionPlan] = None,
              assignment: Optional[AnyAssignment] = None,
              validate: bool = True,
              channels: Optional[int] = None,
              strategy: Optional[str] = None, tuner_cache=None,
              ) -> "tuple[PartitionPlan, AnyAssignment, SpmmExecution]":
    """Lay out one SpMM without executing it numerically.

    The layout *is* the SpMV layout — one partition, one distribution,
    resident across all ``num_rhs`` columns — so every
    :func:`~repro.core.spmv.plan_spmv` parameter keeps its meaning and
    cached SpMV plans/assignments may be injected unchanged. ``num_rhs``
    resolves through :func:`repro.config.resolve_rhs` (explicit arg >
    ``PSYNCPIM_RHS`` > 1).
    """
    num_rhs = resolve_rhs(num_rhs)
    plan, assignment, execution = plan_spmv(
        matrix, config, precision=precision, compress=compress,
        policy=policy, matrix_format=matrix_format, plan=plan,
        assignment=assignment, validate=validate,
        channels=channels, strategy=strategy, tuner_cache=tuner_cache)
    if obs.enabled():
        obs.set_gauge("spmm.num_rhs", num_rhs)
    return plan, assignment, as_spmm_execution(execution, num_rhs)


def run_spmm(matrix: COOMatrix, x: np.ndarray, config: SystemConfig,
             precision: str = "fp64", compress: bool = True,
             policy: str = "paper", fidelity: str = "fast",
             accumulate: str = "add", multiply: str = "mul",
             y0: Optional[np.ndarray] = None,
             engine_banks: Optional[int] = None,
             matrix_format: str = "coo",
             plan: Optional[PartitionPlan] = None,
             assignment: Optional[AnyAssignment] = None,
             validate: bool = True,
             channels: Optional[int] = None,
             strategy: Optional[str] = None,
             tuner_cache=None) -> SpmmResult:
    """Execute ``Y = accumulate(Y0, A (.) X)`` on the pSyncPIM model.

    *x* is the dense right-hand-side block of shape ``(n, k)`` (a 1-D
    vector is accepted as ``k = 1``); the result ``y`` has shape
    ``(m, k)`` and column ``j`` is bitwise
    ``run_spmv(matrix, x[:, j], ...)`` under the same plan. All other
    parameters mirror :func:`~repro.core.spmv.run_spmv`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != matrix.shape[1] or x.shape[1] < 1:
        raise ExecutionError(
            f"SpMM block shape mismatch: expected "
            f"({matrix.shape[1]}, k), got {x.shape}")
    check_engine_banks(engine_banks)
    reject_nan(matrix=matrix.vals, x=x, y0=y0)
    num_rhs = x.shape[1]
    plan, assignment, execution = plan_spmm(
        matrix, config, num_rhs=num_rhs, precision=precision,
        compress=compress, policy=policy, matrix_format=matrix_format,
        plan=plan, assignment=assignment, validate=validate,
        channels=channels, strategy=strategy,
        tuner_cache=tuner_cache)

    rounds = (assignment.rounds if isinstance(assignment, Assignment)
              else _lane_rounds(assignment))
    if fidelity == "fast":
        with obs.span("spmm.rounds", cat="kernel", fidelity=fidelity,
                      rounds=len(rounds), num_rhs=num_rhs):
            y = _fast_block_rounds(matrix, x, rounds, accumulate,
                                   multiply, y0)
    elif fidelity == "functional":
        with obs.span("spmm.rounds", cat="kernel", fidelity=fidelity,
                      rounds=len(rounds), num_rhs=num_rhs):
            y = _functional_block_rounds(matrix, x, rounds, precision,
                                         accumulate, multiply, y0,
                                         engine_banks)
    else:
        raise ExecutionError(f"unknown fidelity {fidelity!r}")
    return SpmmResult(y=y, execution=execution, plan=plan,
                      assignment=assignment)


# ----------------------------------------------------------------------
# fast tier: the SpMV per-tile update, column-blocked
# ----------------------------------------------------------------------
def _fast_block_rounds(matrix, x, rounds: Sequence[list], accumulate,
                       multiply, y0) -> np.ndarray:
    try:
        acc = _ACCUM_UFUNC[accumulate]
        mul = _MULT_FUNC[multiply]
    except KeyError:
        raise ExecutionError(
            f"unsupported semiring ({multiply}, {accumulate})") from None
    shape = (matrix.shape[0], x.shape[1])
    if y0 is None:
        y = np.zeros(shape)
    else:
        y = np.asarray(y0, dtype=np.float64).copy()
        if y.ndim == 1:
            y = np.repeat(y[:, None], x.shape[1], axis=1)
        if y.shape != shape:
            raise ExecutionError(
                f"SpMM y0 shape mismatch: expected {shape}, "
                f"got {y.shape}")
    for round_tiles in rounds:
        for tile in round_tiles:
            if tile is None or tile.nnz == 0:
                continue
            # bank-local compute: per-column products against the staged
            # x block (row-slicing keeps the SpMV value order per column)
            seg = tile.x_segment(x)
            partial = mul(tile.vals[:, None],
                          seg[tile.cols]).astype(float)
            # host-side remote accumulation of the output partial
            acc.at(y, tile.rows + tile.row_range[0], partial)
    if accumulate == "lor":
        y = y.astype(bool).astype(float)
    return y


# ----------------------------------------------------------------------
# functional tier: banks x k lanes on the instruction-accurate engine
# ----------------------------------------------------------------------
def _functional_block_rounds(matrix, x, rounds: Sequence[list], precision,
                             accumulate, multiply, y0,
                             engine_banks: Optional[int]) -> np.ndarray:
    num_rhs = x.shape[1]
    shape = (matrix.shape[0], num_rhs)
    if y0 is None:
        y = np.zeros(shape)
    else:
        y = np.asarray(y0, dtype=np.float64).copy()
        if y.ndim == 1:
            y = np.repeat(y[:, None], num_rhs, axis=1)
        if y.shape != shape:
            raise ExecutionError(
                f"SpMM y0 shape mismatch: expected {shape}, "
                f"got {y.shape}")
    try:
        y_init, merge = _MERGE[accumulate]
    except KeyError:
        raise ExecutionError(
            f"unsupported accumulate {accumulate!r}") from None
    for round_tiles in rounds:
        active = [(b, tile) for b, tile in enumerate(round_tiles)
                  if tile is not None and tile.nnz]
        if not active:
            continue
        # The wave width counts *tiles* (the engine runs width x k
        # lanes), so at k = 1 the waves — and the whole tier — reduce to
        # the SpMV functional path exactly.
        width = engine_banks or len(active)
        waves = [active[i:i + width] for i in range(0, len(active), width)]
        for wave in waves:
            eng = LaneEngine(len(wave) * num_rhs, precision=precision)
            tiles = [Tile(t.rows, t.cols, t.vals, t.x_segment(x),
                          t.y_length) for _, t in wave]
            result = run_tile_block(eng, tiles, num_rhs=num_rhs,
                                    accumulate=accumulate,
                                    multiply=multiply, y_init=y_init)
            for (bank, tile), partial in zip(wave, result.y_per_bank):
                touched = np.unique(tile.rows)
                merge.at(y, touched + tile.row_range[0], partial[touched])
    if accumulate == "lor":
        y = y.astype(bool).astype(float)
    return y
