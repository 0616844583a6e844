"""The pSyncPIM host runtime: the library's main entry point.

:class:`PSyncPIM` bundles configuration, kernel execution and performance
modelling behind one object, the way a host-side runtime library would wrap
the device:

>>> from repro import PSyncPIM
>>> pim = PSyncPIM()
>>> result = pim.spmv(matrix, x)           # executes the full plan
>>> report = pim.time_spmv(result)         # prices it on the DRAM model

Functional-fidelity execution (instruction-accurate processing units) is a
constructor switch; the default fast tier runs the identical data plan with
vectorised numpy (see DESIGN.md §5 on the two tiers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SystemConfig, default_system
from ..errors import ExecutionError
from ..formats import COOMatrix
from .spmm import SpmmResult, run_spmm
from .spmv import SpmvResult, run_spmv
from .sptrsv import ILDUFactors, SpTrsvResult, ildu, run_sptrsv
from .timing import PerfReport, time_dense_kernel, time_spmm, time_sptrsv
from .trace import TraceParams


class PSyncPIM:
    """A configured pSyncPIM system: execution plus performance modelling."""

    def __init__(self, num_cubes: int = 1, precision: str = "fp64",
                 fidelity: str = "fast",
                 engine_banks: Optional[int] = None,
                 trace_params: Optional[TraceParams] = None,
                 config: Optional[SystemConfig] = None,
                 channels: Optional[int] = None,
                 strategy: Optional[str] = None) -> None:
        if fidelity not in ("fast", "functional"):
            raise ExecutionError(f"unknown fidelity {fidelity!r}")
        self.config = config or default_system(num_cubes)
        self.precision = precision
        self.fidelity = fidelity
        self.engine_banks = engine_banks
        self.trace_params = trace_params or TraceParams()
        #: Channel-sharded execution width (None = legacy representative
        #: channel; explicit arg > PSYNCPIM_CHANNELS > default).
        self.channels = channels
        #: Partitioning strategy (None resolves to PSYNCPIM_STRATEGY >
        #: "paper"; "auto" tunes per matrix — repro.core.strategies).
        self.strategy = strategy

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def spmv(self, matrix: COOMatrix, x: np.ndarray,
             multiply: str = "mul", accumulate: str = "add",
             y0: Optional[np.ndarray] = None,
             compress: bool = True, policy: str = "paper",
             precision: Optional[str] = None,
             matrix_format: str = "coo") -> SpmvResult:
        """Sparse matrix-vector multiply (semiring-generalised)."""
        return run_spmv(matrix, x, self.config,
                        precision=precision or self.precision,
                        compress=compress, policy=policy,
                        fidelity=self.fidelity, multiply=multiply,
                        accumulate=accumulate, y0=y0,
                        engine_banks=self.engine_banks,
                        matrix_format=matrix_format,
                        channels=self.channels,
                        strategy=self.strategy)

    def spmm(self, matrix: COOMatrix, x: np.ndarray,
             multiply: str = "mul", accumulate: str = "add",
             y0: Optional[np.ndarray] = None,
             compress: bool = True, policy: str = "paper",
             precision: Optional[str] = None,
             matrix_format: str = "coo") -> SpmmResult:
        """Sparse matrix times a dense block of k right-hand sides.

        *x* has shape ``(n, k)`` (a 1-D vector runs as ``k = 1``, which
        is bitwise :meth:`spmv`); one plan stays resident across all k
        columns.
        """
        return run_spmm(matrix, x, self.config,
                        precision=precision or self.precision,
                        compress=compress, policy=policy,
                        fidelity=self.fidelity, multiply=multiply,
                        accumulate=accumulate, y0=y0,
                        engine_banks=self.engine_banks,
                        matrix_format=matrix_format,
                        channels=self.channels,
                        strategy=self.strategy)

    def sptrsv(self, triangular: COOMatrix, b: np.ndarray,
               lower: bool = True, reorder: bool = True,
               precision: Optional[str] = None) -> SpTrsvResult:
        """Unit triangular solve via the recursive block algorithm."""
        return run_sptrsv(triangular, b, self.config, lower=lower,
                          precision=precision or self.precision,
                          fidelity=self.fidelity, reorder=reorder,
                          engine_banks=self.engine_banks,
                          channels=self.channels,
                          strategy=self.strategy)

    def factorize(self, matrix: COOMatrix) -> ILDUFactors:
        """Host-side ILDU preprocessing (§VI-D)."""
        return ildu(matrix)

    def precondition(self, factors: ILDUFactors,
                     r: np.ndarray) -> np.ndarray:
        """Apply M^-1 = U^-1 D^-1 L^-1 with PIM triangular solves."""
        y = self.sptrsv(factors.lower, r, lower=True).x
        y = y * factors.diag_inv
        return self.sptrsv(factors.upper, y, lower=False).x

    # ------------------------------------------------------------------
    # performance modelling
    # ------------------------------------------------------------------
    def time_spmm(self, result: SpmmResult, mode: str = "ab",
                  with_energy: bool = False) -> PerfReport:
        """Price an executed SpMV/SpMM in all-bank or per-bank mode."""
        return time_spmm(result.execution, self.config, mode=mode,
                         params=self.trace_params, with_energy=with_energy)

    #: SpMV is SpMM at ``k = 1``.
    time_spmv = time_spmm

    def time_sptrsv(self, result: SpTrsvResult,
                    with_energy: bool = False) -> PerfReport:
        """Price an executed triangular solve."""
        return time_sptrsv(result.execution, self.config,
                           params=self.trace_params,
                           with_energy=with_energy)

    def time_vector_kernel(self, elements: int, reads_per_group: int = 2,
                           writes_per_group: int = 1, mode: str = "ab",
                           ops_per_element: int = 1,
                           with_energy: bool = False) -> PerfReport:
        """Price a dense streaming BLAS-1 kernel of *elements* length."""
        return time_dense_kernel(elements, reads_per_group,
                                 writes_per_group, self.config,
                                 precision=self.precision, mode=mode,
                                 ops_per_element=ops_per_element,
                                 with_energy=with_energy,
                                 params=self.trace_params)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def sweep(self, matrices, kernel: str = "spmv",
              scale: Optional[float] = None,
              workers: Optional[int] = None, mode: str = "ab",
              use_cache: bool = True, cache_dir: Optional[str] = None,
              with_energy: bool = False, **job_overrides):
        """Run a batch of (matrix, kernel) jobs in parallel with caching.

        *matrices* is an iterable of Table IX names (or prebuilt
        :class:`repro.sweep.SweepJob` instances, taken as-is). Jobs
        inherit this runtime's precision and cube count; ``scale``
        defaults to the benchmark scale from the environment
        (``PSYNCPIM_SCALE``). Returns a
        :class:`repro.analysis.SweepResult` with per-job reports, cache
        hit/miss counters and worker utilisation.

        Jobs are priced on :func:`repro.config.default_system` (or the
        GDDR6 platform via ``platform="gddr6"``) for this runtime's cube
        count; a fully custom ``SystemConfig`` does not transfer to the
        worker processes.
        """
        from ..sweep import SweepJob, resolve_bench_scale, run_sweep
        if scale is None:
            scale = resolve_bench_scale()
        job_overrides.setdefault("channels", self.channels)
        job_overrides.setdefault("strategy", self.strategy)
        jobs = []
        for entry in matrices:
            if isinstance(entry, SweepJob):
                jobs.append(entry)
                continue
            jobs.append(SweepJob(kernel=kernel, matrix=entry, scale=scale,
                                 precision=self.precision,
                                 num_cubes=self.config.num_cubes,
                                 mode=mode, with_energy=with_energy,
                                 **job_overrides))
        return run_sweep(jobs, workers=workers, cache_dir=cache_dir,
                         use_cache=use_cache)

    # ------------------------------------------------------------------
    def backend(self, **kwargs):
        """A :class:`repro.apps.PIMBackend` bound to this configuration."""
        from ..apps import PIMBackend
        return PIMBackend(config=self.config, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PSyncPIM(cubes={self.config.num_cubes}, "
                f"units={self.config.total_units}, "
                f"precision={self.precision!r}, fidelity={self.fidelity!r})")
