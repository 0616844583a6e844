"""Sweep execution: parallel job batches with content-addressed caching.

The paper's experiments (Figs. 8-14, Table IX, the ablations) all repeat
one expensive pipeline per matrix per configuration. This package runs
those (matrix, kernel, config) jobs across worker processes and reuses the
pipeline's intermediate artifacts — execution records, command traces,
schedule results — from an on-disk content-addressed cache.

Entry points: :func:`run_sweep` / :func:`suite_jobs` (library),
:meth:`repro.core.PSyncPIM.sweep` (runtime object), ``psyncpim sweep``
(CLI). Aggregation lives in :class:`repro.analysis.SweepResult`.
"""

from ..analysis.report import JobRecord, SweepResult
from .cache import (CACHE_DIR_ENV, CACHE_VERSION, ArtifactCache,
                    default_cache_dir, matrix_digest, stable_digest)
from .runner import (DEFAULT_SCALE, FUZZ_DEFAULT_JOBS, FUZZ_SEEDS_PER_JOB,
                     SCALE_ENV, WORKERS_ENV, SweepJob, execute_job,
                     resolve_bench_scale, resolve_workers, run_sweep,
                     suite_jobs)

__all__ = [
    "ArtifactCache", "CACHE_DIR_ENV", "CACHE_VERSION", "DEFAULT_SCALE",
    "FUZZ_DEFAULT_JOBS", "FUZZ_SEEDS_PER_JOB", "JobRecord", "SCALE_ENV",
    "SweepJob", "SweepResult", "WORKERS_ENV", "default_cache_dir",
    "execute_job", "matrix_digest", "resolve_bench_scale",
    "resolve_workers", "run_sweep", "stable_digest", "suite_jobs",
]
