"""Parallel sweep execution of (matrix, kernel, config) jobs.

A :class:`SweepJob` names everything one experiment run needs — a Table IX
matrix (regenerated deterministically inside the worker), the kernel, and
the configuration knobs the paper sweeps. :func:`run_sweep` fans a job list
out over ``concurrent.futures.ProcessPoolExecutor`` workers; each worker
walks the standard pipeline (partition/compress -> distribute -> trace ->
FCFS schedule) through the content-addressed :class:`ArtifactCache`, so
repeated sweeps, and sweeps that share intermediate stages, skip the
expensive recomputation entirely.

Caching never changes results: a job's :class:`PerfReport` is
bitwise-identical whether its artifacts were computed or loaded, because
every cache key covers the full input content (matrix arrays, kernel
parameters, timing configuration).
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Mapping, Optional, Tuple,
                    Union)

import numpy as np

from ..analysis.report import JobRecord, SweepResult
from .. import obs
from ..config import (SystemConfig, check_channels, check_strategy,
                      default_system, gddr6_aim_system)
from ..core.spmm import check_num_rhs
from ..core.spmv import as_spmm_execution, plan_spmv
from ..core.sptrsv import ildu, level_schedule, run_sptrsv
from ..core.timing import PerfReport, alu_operations, price_segmented
from ..core.trace import TraceParams, synthesize
from ..errors import ConfigError, ExecutionError
from ..formats import (COOMatrix, generate, matrix_spec,
                       read_matrix_market, suite_names)
from .cache import ArtifactCache, default_cache_dir, matrix_digest

#: Environment variables the benchmark/CI harnesses steer sweeps with.
SCALE_ENV = "PSYNCPIM_SCALE"
WORKERS_ENV = "PSYNCPIM_WORKERS"

#: Default matrix dimension scale (minutes on a laptop; 1.0 = paper size).
DEFAULT_SCALE = 0.05


def resolve_bench_scale(environ: Optional[Mapping[str, str]] = None,
                        default: float = DEFAULT_SCALE) -> float:
    """Benchmark matrix scale: ``PSYNCPIM_SCALE``, then *default*.

    CI shrinks whole suites (e.g. Table IX) through this single knob
    without touching code.
    """
    env = os.environ if environ is None else environ
    raw = env.get(SCALE_ENV)
    if raw is None or raw == "":
        return default
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigError(
            f"{SCALE_ENV} must be a number, got {raw!r}") from None
    if scale <= 0:
        raise ConfigError(f"{SCALE_ENV} must be positive, got {raw!r}")
    return scale


def resolve_workers(environ: Optional[Mapping[str, str]] = None,
                    default: Optional[int] = None) -> int:
    """Worker-process count: ``PSYNCPIM_WORKERS`` or min(4, cores)."""
    env = os.environ if environ is None else environ
    raw = env.get(WORKERS_ENV)
    if raw not in (None, ""):
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        return max(workers, 1)
    if default is not None:
        return max(int(default), 1)
    return max(1, min(4, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# job description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepJob:
    """One (matrix, kernel, config) experiment of a sweep.

    ``matrix`` is a Table IX name (regenerated at ``scale`` inside the
    worker) or a ``.mtx`` file path. ``kernel`` selects the pipeline:
    ``"spmv"``, ``"spmm"`` and ``"sptrsv"`` produce a
    :class:`PerfReport`; ``"suite"`` only materialises the matrix
    (Table IX regeneration).
    """

    kernel: str = "spmv"
    matrix: str = "poisson3Da"
    scale: float = DEFAULT_SCALE
    precision: str = "fp64"
    num_cubes: int = 1
    platform: str = "hbm2"          # "hbm2" or "gddr6"
    mode: str = "ab"                # SpMV: all-bank or per-bank pricing
    compress: bool = True
    policy: str = "paper"
    matrix_format: str = "coo"
    lower: bool = True              # SpTRSV: which triangular factor
    seed: int = 0
    with_energy: bool = False
    #: Channel-sharded execution width (None = representative channel;
    #: checked by :func:`repro.config.check_channels`).
    channels: Optional[int] = None
    #: Partitioning strategy (checked and normalised by
    #: :func:`repro.config.check_strategy`; "auto" tunes per matrix).
    strategy: str = "paper"
    #: SpMM right-hand-side width (an integer >= 1; other kernels
    #: ignore it).
    rhs: int = 1
    #: Cycle attribution: build a :class:`repro.obs.report.RunReport`
    #: alongside the PerfReport.
    attrib: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        check_num_rhs(self.rhs)
        # Store the checked values, so the label and the worker read
        # the same channels and strategy.
        object.__setattr__(self, "channels", check_channels(self.channels))
        object.__setattr__(self, "strategy", check_strategy(self.strategy))

    def resolved_label(self) -> str:
        """The job's display/lookup label (stable and distinguishing)."""
        if self.label:
            return self.label
        parts = [f"{self.kernel}:{self.matrix}"]
        if self.kernel == "sptrsv":
            parts.append("lower" if self.lower else "upper")
        if self.mode != "ab":
            parts.append(self.mode)
        if self.precision != "fp64":
            parts.append(self.precision)
        if self.num_cubes != 1:
            parts.append(f"x{self.num_cubes}")
        if self.platform != "hbm2":
            parts.append(self.platform)
        if self.channels is not None:
            parts.append(f"{self.channels}ch")
        if self.strategy != "paper":
            parts.append(self.strategy)
        if self.matrix_format != "coo":
            parts.append(self.matrix_format)
        if not self.compress:
            parts.append("nocompress")
        if self.policy != "paper":
            parts.append(self.policy)
        if self.kernel == "spmm":
            parts.append(f"k{self.rhs}")
        return "/".join(parts)

    def system(self) -> SystemConfig:
        if self.platform == "hbm2":
            return default_system(self.num_cubes)
        if self.platform == "gddr6":
            return gddr6_aim_system(self.num_cubes)
        raise ExecutionError(f"unknown sweep platform {self.platform!r}")

    def load_matrix(self) -> COOMatrix:
        if self.matrix.endswith(".mtx"):
            return read_matrix_market(self.matrix)
        return generate(self.matrix, scale=self.scale)


# ----------------------------------------------------------------------
# kernel pipelines (run inside the worker, through the artifact cache)
# ----------------------------------------------------------------------
def _priced(job: SweepJob, cache: ArtifactCache, execution, config,
            params: TraceParams, trace_key: str, mode: str = "ab"):
    """The job's ``(PerfReport, RunReport or None)``: one cached pricing
    pass over the ``trace`` stage, which jobs with and without
    attribution share. With attribution the ``schedule`` key covers the
    identity stamped into the report, so jobs pricing the same schedule
    under different names never share one.
    """
    from ..obs.attrib import ATTRIB_VERSION
    from ..obs.report import build_run_report
    label = job.resolved_label()
    identity = ((ATTRIB_VERSION, label, job.kernel, job.matrix,
                 job.strategy) if job.attrib else ())
    schedule_key = cache.key("schedule", trace_key, job.with_energy,
                             *identity)

    def compute():
        seg = cache.get_or_compute(
            "trace", trace_key,
            lambda: synthesize(execution, config, mode=mode, params=params))
        report, attribution = price_segmented(
            seg, execution, config, mode=mode,
            with_energy=job.with_energy, attrib=job.attrib)
        if attribution is None:
            return report, None
        return report, build_run_report(
            attribution, report, label=label, kind=job.kernel,
            matrix=job.matrix, mode=mode, channels=job.channels,
            strategy=job.strategy, precision=job.precision, config=config,
            alu_operations=alu_operations(execution))

    return cache.get_or_compute("schedule", schedule_key, compute)


def _spmm_pipeline(job: SweepJob, cache: ArtifactCache,
                   ) -> Tuple[Optional[PerfReport], Dict[str, Any]]:
    """The SpMV/SpMM pipeline: one SpMV plan, widened to ``rhs`` columns.

    ``kernel="spmv"`` jobs run at width 1 whatever ``rhs`` says (SpMV
    is SpMM at ``k = 1``). The ``plan`` stage stores what the later
    stages read: the width-1 :class:`SpmvExecution` (channel shards
    included) and the tile count, never the tile layout itself, so a
    warm job loads a few KB and does not plan. It does not depend on
    the width, so SpMV and SpMM jobs share it; the trace/schedule
    stages key on the right-hand-side width, so an SpMV job and an
    ``rhs=1`` SpMM job share them too.
    """
    matrix = job.load_matrix()
    config = job.system()
    params = TraceParams()
    mkey = matrix_digest(matrix)
    channels, strategy = job.channels, job.strategy
    num_rhs = 1 if job.kernel == "spmv" else job.rhs

    plan_key = cache.key("spmv-plan", mkey, config, job.precision,
                         job.compress, job.policy, job.matrix_format,
                         channels, strategy)

    def compute_plan():
        plan, _, execution = plan_spmv(
            matrix, config, precision=job.precision, compress=job.compress,
            policy=job.policy, matrix_format=job.matrix_format,
            validate=False, channels=channels, strategy=strategy,
            tuner_cache=cache)
        return execution, len(plan.tiles)

    execution, tiles = cache.get_or_compute("plan", plan_key, compute_plan)
    execution = as_spmm_execution(execution, num_rhs)

    trace_key = cache.key("spmm-trace", execution, config, params,
                          job.mode, num_rhs)
    report, run_report = _priced(job, cache, execution, config, params,
                                 trace_key, mode=job.mode)
    extras = {
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "nnz": matrix.nnz,
        "tiles": tiles,
        "rounds": execution.num_rounds,
        "banks_used": execution.banks_used,
        "imbalance": execution.imbalance,
    }
    if job.kernel == "spmm":
        extras["rhs"] = num_rhs
        extras["cycles_per_rhs"] = report.cycles / num_rhs
    if channels is not None:
        extras["channels"] = channels
    if strategy != "paper":
        extras["strategy"] = strategy
    extras["_attrib"] = run_report
    return report, extras


def _sptrsv_pipeline(job: SweepJob, cache: ArtifactCache,
                     ) -> Tuple[Optional[PerfReport], Dict[str, Any]]:
    matrix = job.load_matrix()
    config = job.system()
    params = TraceParams()
    mkey = matrix_digest(matrix)
    channels, strategy = job.channels, job.strategy

    solve_key = cache.key("sptrsv-solve", mkey, job.lower, config,
                          job.precision, job.seed, channels, strategy)

    def compute_solve():
        # A warm job reads n, nnz and the residual from the solve entry,
        # so only a cold solve loads (or factors) the ILDU triangles.
        factors = cache.get_or_compute("factors", cache.key("ildu", mkey),
                                       lambda: ildu(matrix))
        tri = factors.lower if job.lower else factors.upper
        b = np.random.default_rng(job.seed).random(tri.shape[0])
        result = run_sptrsv(tri, b, config, lower=job.lower,
                            precision=job.precision, channels=channels,
                            strategy=strategy)
        levels = len(level_schedule(tri, lower=job.lower))
        residual = float(np.abs(tri.matvec(result.x) - b).max())
        return result.execution, levels, tri.shape[0], tri.nnz, residual

    execution, levels, n, nnz, residual = cache.get_or_compute(
        "solve", solve_key, compute_solve)

    trace_key = cache.key("sptrsv-trace", solve_key, params)
    report, run_report = _priced(job, cache, execution, config, params,
                                 trace_key)
    extras = {
        "dimension": n,
        "nnz": nnz,
        "levels": levels,
        "residual": residual,
        "factor": "lower" if job.lower else "upper",
    }
    if channels is not None:
        extras["channels"] = channels
    if strategy != "paper":
        extras["strategy"] = strategy
    extras["_attrib"] = run_report
    return report, extras


def _suite_pipeline(job: SweepJob, cache: ArtifactCache,
                    ) -> Tuple[Optional[PerfReport], Dict[str, Any]]:
    key = cache.key("suite-matrix", job.matrix, job.scale)
    matrix = cache.get_or_compute("matrix", key, job.load_matrix)
    extras: Dict[str, Any] = {
        "matrix": matrix,
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "nnz": matrix.nnz,
        "density": matrix.density,
    }
    if not job.matrix.endswith(".mtx"):
        spec = matrix_spec(job.matrix)
        extras["paper_dimension"] = spec.dimension
        extras["paper_density"] = spec.density
        extras["kind"] = spec.kind
    return None, extras


#: Seeds each ``fuzz`` sweep job covers (jobs stagger by this stride).
FUZZ_SEEDS_PER_JOB = 25

#: Jobs a default ``fuzz`` sweep fans out (8 x 25 = 200 seeds).
FUZZ_DEFAULT_JOBS = 8


def _fuzz_pipeline(job: SweepJob, cache: ArtifactCache,
                   ) -> Tuple[Optional[PerfReport], Dict[str, Any]]:
    """Differential ISA fuzzing as a sweep kernel.

    Each job replays a contiguous seed block through all three engine
    oracles (:func:`repro.check.fuzz_range`). The verdict is keyed on
    exactly what the fuzzer reads — the seed block — so jobs that differ
    only in fields the fuzzer ignores (precision, scale, ...) share one
    entry. A clean block caches as an empty failure list, so repeated
    sweeps only pay for new seed ranges; any divergence raises so the job
    record carries the reproducer.
    """
    from ..check import fuzz_range
    from ..errors import CheckError
    start, count = job.seed, FUZZ_SEEDS_PER_JOB
    key = cache.key("fuzz-seeds", start, count)
    failures = cache.get_or_compute(
        "fuzz", key, lambda: fuzz_range(start, count, shrink=True))
    if failures:
        raise CheckError(
            f"{len(failures)} divergent seeds in {start}..{start + count - 1}: "
            + " | ".join(f"seed {s}: {m}" for s, m in failures[:2]))
    extras = {"first_seed": start, "seed_count": count, "divergences": 0}
    return None, extras


_PIPELINES = {
    "spmv": _spmm_pipeline,
    "spmm": _spmm_pipeline,
    "sptrsv": _sptrsv_pipeline,
    "suite": _suite_pipeline,
    "fuzz": _fuzz_pipeline,
}


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_job(job: SweepJob,
                cache_dir: Optional[Union[str, os.PathLike]] = None,
                use_cache: bool = True) -> JobRecord:
    """Run one job through its cached pipeline (worker entry point).

    Pipeline exceptions are *captured*, not propagated: the returned
    record carries the exception summary and full traceback so one bad
    job cannot take down a whole sweep (use
    :meth:`SweepResult.raise_failures` for fail-fast behaviour). An
    unknown kernel is a caller error and still raises.
    """
    try:
        pipeline = _PIPELINES[job.kernel]
    except KeyError:
        raise ExecutionError(
            f"unknown sweep kernel {job.kernel!r}; "
            f"expected one of {sorted(_PIPELINES)}") from None
    cache = ArtifactCache(cache_dir, enabled=use_cache)
    label = job.resolved_label()
    mark = obs.recorder().mark() if obs.enabled() else None
    start = time.perf_counter()
    report: Optional[PerfReport] = None
    extras: Dict[str, Any] = {}
    error = tb_text = ""
    with obs.span("sweep.job", cat="sweep", label=label,
                  kernel=job.kernel, matrix=job.matrix):
        try:
            report, extras = pipeline(job, cache)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            tb_text = traceback_module.format_exc()
    wall = time.perf_counter() - start
    metrics = None
    if mark is not None:
        obs.add_counter("sweep.cache_hits", cache.hit_count)
        obs.add_counter("sweep.cache_misses", cache.miss_count)
        obs.add_counter("sweep.jobs", 1)
        if error:
            obs.add_counter("sweep.job_failures", 1)
        metrics = obs.recorder().delta_since(mark)
    attrib_report = extras.pop("_attrib", None)
    return JobRecord(label=label, kernel=job.kernel,
                     matrix=job.matrix, report=report,
                     seconds=report.seconds if report else 0.0,
                     wall_seconds=wall, cache_hits=cache.hit_count,
                     cache_misses=cache.miss_count,
                     worker=f"pid-{os.getpid()}", extras=extras, job=job,
                     error=error, traceback=tb_text, metrics=metrics,
                     attrib=attrib_report)


def run_sweep(jobs: Iterable[SweepJob], workers: Optional[int] = None,
              cache_dir: Optional[Union[str, os.PathLike]] = None,
              use_cache: bool = True) -> SweepResult:
    """Execute *jobs* across worker processes and aggregate the outcomes.

    ``workers=None`` resolves via :func:`resolve_workers`
    (``PSYNCPIM_WORKERS`` or min(4, cores)); ``workers<=1`` runs serially
    in-process, which is also the fallback for single-job sweeps. Job order
    is preserved in the result. ``use_cache=False`` is the ``--no-cache``
    escape hatch: everything recomputes, nothing touches disk.

    Records are looked up by label, so two unequal jobs that resolve to
    one label raise :class:`ConfigError`; give one an explicit ``label``.
    """
    jobs = list(jobs)
    by_label: Dict[str, SweepJob] = {}
    for job in jobs:
        label = job.resolved_label()
        first = by_label.setdefault(label, job)
        if first != job:
            raise ConfigError(f"sweep jobs {first!r} and {job!r} share the "
                              f"label {label!r}; give one an explicit label")
    workers = resolve_workers(default=workers) if workers is None \
        else max(int(workers), 1)
    workers = min(workers, max(len(jobs), 1))
    start = time.perf_counter()
    with obs.span("sweep.run", cat="sweep", jobs=len(jobs),
                  workers=workers):
        if workers <= 1:
            # Serial jobs record straight into this process's obs
            # recorder; their JobRecord.metrics payloads are
            # informational only.
            records = [execute_job(job, cache_dir, use_cache)
                       for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(execute_job, job, cache_dir,
                                       use_cache)
                           for job in jobs]
                records = [future.result() for future in futures]
        if workers > 1 and obs.enabled():
            # Workers inherit the PSYNCPIM_OBS gate through fork/env;
            # fold their recorded deltas into the parent so one export
            # covers the whole fan-out (perf_counter_ns is machine-wide
            # monotonic, so worker spans align with the parent timeline).
            for record in records:
                if record.metrics:
                    obs.recorder().merge(record.metrics)
    wall = time.perf_counter() - start
    root = ArtifactCache(cache_dir, enabled=use_cache).root
    return SweepResult(records=records, wall_seconds=wall, workers=workers,
                       cache_enabled=use_cache, cache_dir=str(root))


def suite_jobs(kernel: str = "spmv", matrices: Optional[Iterable[str]] = None,
               scale: Optional[float] = None, **overrides: Any,
               ) -> "list[SweepJob]":
    """Build the job list for a Table IX sweep.

    With no explicit *matrices*, SpMV and SpTRSV sweeps cover their Table
    IX kernel assignments and the ``suite`` kernel covers all 26 matrices.
    For SpTRSV both triangular factors are swept (the Fig. 9 protocol)
    unless ``lower`` is pinned via *overrides*.
    """
    from ..formats import matrices_for
    if kernel == "fuzz":
        # No matrices: fan out staggered seed blocks instead.
        first = int(overrides.pop("seed", 0))
        return [SweepJob(kernel="fuzz", matrix="isa-programs",
                         label=f"fuzz:seeds-{first + i * FUZZ_SEEDS_PER_JOB}",
                         seed=first + i * FUZZ_SEEDS_PER_JOB, **overrides)
                for i in range(FUZZ_DEFAULT_JOBS)]
    if matrices is None:
        if kernel == "suite":
            matrices = suite_names()
        elif kernel in ("spmv", "sptrsv"):
            matrices = matrices_for(kernel)
        elif kernel == "spmm":
            # SpMM shares the SpMV Table IX assignment (same matrices,
            # k dense right-hand sides).
            matrices = matrices_for("spmv")
        else:
            raise ExecutionError(
                f"no default matrix list for kernel {kernel!r}")
    scale = resolve_bench_scale() if scale is None else scale
    jobs = []
    for name in matrices:
        if kernel == "sptrsv" and "lower" not in overrides:
            jobs.append(SweepJob(kernel=kernel, matrix=name, scale=scale,
                                 lower=True, **overrides))
            jobs.append(SweepJob(kernel=kernel, matrix=name, scale=scale,
                                 lower=False, **overrides))
        else:
            jobs.append(SweepJob(kernel=kernel, matrix=name, scale=scale,
                                 **overrides))
    return jobs


__all__ = ["SweepJob", "execute_job", "run_sweep",
           "suite_jobs", "resolve_bench_scale", "resolve_workers",
           "default_cache_dir", "DEFAULT_SCALE", "FUZZ_SEEDS_PER_JOB",
           "FUZZ_DEFAULT_JOBS", "SCALE_ENV", "WORKERS_ENV"]
