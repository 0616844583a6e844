"""End-to-end SpMM execution: one resident plan, k right-hand sides.

SpMM (``Y = A @ X`` with ``X`` a dense block of ``num_rhs`` columns)
reuses the SpMV layout verbatim: :func:`plan_spmm` is
:func:`~repro.core.spmv.plan_spmv` plus the right-hand-side width, so the
partition, the bank distribution and every round shape are bitwise those
of the single-vector kernel. What changes is amortisation: the program
load and the resident matrix stream are paid once per round while the
input/output staging and the gather/accumulate work scale with
``num_rhs`` (see :func:`repro.core.trace.spmm_ab_segments`).

Execution is the SpMV body itself (:mod:`repro.core.spmv`), which runs
an ``(n, k)`` block in both fidelities; each column sees exactly the
SpMV float operations in the SpMV order, so column ``j`` of the result
is bitwise ``run_spmv(A, X[:, j])``.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigError, ExecutionError
from ..formats import COOMatrix, reject_nan
from .partition import PartitionPlan
from .spmv import (AnyAssignment, SpmvExecution, SpmvResult, _run,
                   as_spmm_execution, check_engine_banks, plan_spmv)


def check_num_rhs(num_rhs) -> int:
    """Reject a right-hand-side width that is not an integer >= 1."""
    try:
        value = operator.index(num_rhs)
    except TypeError:
        raise ConfigError(
            f"rhs count must be an integer, got {num_rhs!r}") from None
    if value < 1:
        raise ConfigError(f"rhs count must be >= 1, got {value}")
    return value


def plan_spmm(matrix: COOMatrix, config: SystemConfig,
              num_rhs: int = 1, precision: str = "fp64",
              compress: bool = True, policy: str = "paper",
              matrix_format: str = "coo",
              plan: Optional[PartitionPlan] = None,
              assignment: Optional[AnyAssignment] = None,
              validate: bool = True,
              channels: Optional[int] = None,
              strategy: str = "paper", tuner_cache=None,
              ) -> "tuple[PartitionPlan, AnyAssignment, SpmvExecution]":
    """Lay out one SpMM without executing it numerically.

    The layout *is* the SpMV layout — one partition, one distribution,
    resident across all ``num_rhs`` columns — so every
    :func:`~repro.core.spmv.plan_spmv` parameter keeps its meaning and
    cached SpMV plans/assignments may be injected unchanged.
    """
    num_rhs = check_num_rhs(num_rhs)
    plan, assignment, execution = plan_spmv(
        matrix, config, precision=precision, compress=compress,
        policy=policy, matrix_format=matrix_format, plan=plan,
        assignment=assignment, validate=validate,
        channels=channels, strategy=strategy, tuner_cache=tuner_cache)
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
             strategy: str = "paper",
             tuner_cache=None) -> SpmvResult:
    """Execute ``Y = accumulate(Y0, A (.) X)`` on the pSyncPIM model.

    *x* is the dense right-hand-side block of shape ``(n, k)`` (a 1-D
    vector is accepted as ``k = 1``); the result ``y`` has shape
    ``(m, k)`` and column ``j`` is bitwise
    ``run_spmv(matrix, x[:, j], ...)`` under the same plan. A 1-D *y0*
    seeds every column. All other parameters mirror
    :func:`~repro.core.spmv.run_spmv`.
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
    shape = (matrix.shape[0], x.shape[1])
    if y0 is not None:
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.ndim == 1:
            y0 = np.repeat(y0[:, None], shape[1], axis=1)
        if y0.shape != shape:
            raise ExecutionError(
                f"SpMM y0 shape mismatch: expected {shape}, "
                f"got {y0.shape}")
    return _run(matrix, x, y0, config, precision=precision,
                compress=compress, policy=policy, fidelity=fidelity,
                accumulate=accumulate, multiply=multiply,
                engine_banks=engine_banks, matrix_format=matrix_format,
                plan=plan, assignment=assignment, validate=validate,
                channels=channels, strategy=strategy,
                tuner_cache=tuner_cache)
