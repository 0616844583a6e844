"""Warm-sweep microbenchmark: a sweep against a filled artifact cache vs
the same sweep from an empty one.

The job list is the end-to-end benchmark's sweep-warm list (the Fig. 8
SpMV matrices in all-bank and per-bank mode, int8 for the three graph
matrices, and both ILDU factors of the Fig. 9 SpTRSV matrices, all with
energy and attribution) at ``PSYNCPIM_SCALE``. Each repetition runs the
list cold into a fresh cache directory, then warm against it, so the two
variants are timed *interleaved* and CPU frequency drift hits both
alike; min-of-N is taken per variant. Writes
``benchmarks/results/BENCH_sweep.json`` for the CI perf-trend gate:

* ``times`` — min-of-N cold and warm sweep wall-clock, plus the warm
  sweep's per-job mean.
* ``cache_mb`` — the filled cache's on-disk size per artifact kind
  (informational: the ``plan`` kind holds execution records, not tile
  layouts, so it stays far below the ``factors``/``solve`` kinds).
* ``speedups.warm_vs_cold`` — cold over warm wall-clock (a ratio of two
  same-machine measurements, so it transfers across CI hardware; it
  drops when the warm path starts loading or recomputing more).

Every warm record must equal its cold record bitwise (report, extras
and RunReport) with zero cache misses, and the warm sweep must beat the
cold one.
"""

from __future__ import annotations

import json
import math
import shutil
import time

from conftest import (BENCH_SCALE, INT8_MATRICES, RESULTS_DIR,
                      SPMV_MATRICES, SPTRSV_MATRICES)
from repro.sweep import SweepJob, run_sweep

#: min-of-N repetitions per variant.
REPS = 5


def _sweep_jobs():
    jobs = []
    for name in SPMV_MATRICES + INT8_MATRICES:
        precision = "int8" if name in INT8_MATRICES else "fp64"
        for mode in ("ab", "pb"):
            jobs.append(SweepJob(kernel="spmv", matrix=name,
                                 scale=BENCH_SCALE, precision=precision,
                                 mode=mode, with_energy=True, attrib=True))
    for name in SPTRSV_MATRICES:
        for lower in (True, False):
            jobs.append(SweepJob(kernel="sptrsv", matrix=name,
                                 scale=BENCH_SCALE, lower=lower,
                                 with_energy=True, attrib=True))
    return jobs


def _timed_sweep(jobs, cache_dir):
    start = time.perf_counter()
    result = run_sweep(jobs, workers=1, cache_dir=cache_dir)
    return time.perf_counter() - start, result


def _check_warm(cold, warm):
    cold.raise_failures()
    warm.raise_failures()
    assert warm.all_cached and warm.cache_misses == 0
    for before, after in zip(cold, warm):
        assert after.label == before.label
        assert after.report == before.report
        assert after.extras == before.extras
        assert after.attrib.to_dict() == before.attrib.to_dict()


def _cache_mb(cache_dir):
    return {kind.name: sum(p.stat().st_size
                           for p in kind.glob("*.pkl")) / 1e6
            for kind in sorted(cache_dir.iterdir()) if kind.is_dir()}


def test_warm_sweep_benchmark(tmp_path):
    jobs = _sweep_jobs()

    # Interleaved min-of-N: each repetition fills a fresh cache cold,
    # then replays the same jobs warm against it.
    cold_s = warm_s = math.inf
    for rep in range(REPS):
        cache_dir = tmp_path / f"rep-{rep}"
        seconds, cold = _timed_sweep(jobs, cache_dir)
        cold_s = min(cold_s, seconds)
        seconds, warm = _timed_sweep(jobs, cache_dir)
        warm_s = min(warm_s, seconds)
        _check_warm(cold, warm)
        cache_mb = _cache_mb(cache_dir)
        shutil.rmtree(cache_dir)

    bench = {
        "scale": BENCH_SCALE,
        "jobs": len(jobs),
        "times": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_per_job_ms": 1e3 * warm_s / len(jobs),
        },
        "cache_mb": cache_mb,
        "speedups": {
            # Ratio of two same-machine measurements: machine-independent.
            "warm_vs_cold": cold_s / warm_s,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_sweep.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    assert warm_s < cold_s, (
        f"warm sweep {warm_s:.3f}s is not faster than cold {cold_s:.3f}s")
