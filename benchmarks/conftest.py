"""Shared fixtures for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and writes the
rendered text to ``benchmarks/results/<name>.txt`` (alongside asserting the
qualitative claims — who wins, in which direction). Matrix sizes are scaled
by ``PSYNCPIM_SCALE`` (default 0.05: minutes, laptop-friendly);
paper-scale runs set it to 1.0, CI shrinks it further without touching
code. Strategy, channel width and attribution are arguments of each job,
never environment variables.

The figure drivers execute their job grids through :mod:`repro.sweep`, so
suite-wide runs spread over ``PSYNCPIM_WORKERS`` worker processes and
reuse cached execution records / traces / schedules across parameter sweeps
(cache root: ``PSYNCPIM_CACHE_DIR`` or ``~/.cache/psyncpim``).

All benchmarks carry the ``slow`` marker: the tier-1 CI job deselects them
with ``-m "not slow"`` while the benchmark smoke job runs them.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.config import default_system
from repro.formats import generate
from repro.sweep import resolve_bench_scale, resolve_workers

#: Fraction of the published matrix dimension used by the benches
#: (PSYNCPIM_SCALE > 0.05).
BENCH_SCALE = resolve_bench_scale()

#: Worker processes for sweep-driven benches (PSYNCPIM_WORKERS or auto).
SWEEP_WORKERS = resolve_workers()

RESULTS_DIR = Path(__file__).parent / "results"

#: Matrix subsets per experiment (kept small enough for CI; the full
#: Table IX lists are in repro.formats.matrices_for).
SPMV_MATRICES = ("bcsstk32", "cant", "consph", "crankseg_2", "ct20stif",
                 "pdb1HYS", "pwtk", "shipsec1", "xenon2", "lhr71", "ohne2")
INT8_MATRICES = ("soc-sign-epinions", "Stanford", "webbase-1M")
SPTRSV_MATRICES = ("2cubes_sphere", "offshore", "parabolic_fem",
                   "poisson3Da", "rma10")
GRAPH_MATRICES = ("wiki-Vote", "facebook", "ca-CondMat")
PCG_MATRICES = ("2cubes_sphere", "offshore", "parabolic_fem")


def pytest_collection_modifyitems(config, items):
    """Every figure/table benchmark counts as slow (tier-1 deselects)."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@functools.lru_cache(maxsize=64)
def bench_matrix(name: str, scale: float = None):
    """Deterministic, cached synthetic stand-in at bench scale."""
    return generate(name, scale=BENCH_SCALE if scale is None else scale)


def bench_vector(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random(n)


def write_result(name: str, text: str) -> Path:
    """Persist a rendered figure/table for inspection."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def sweep_workers():
    """Worker count the sweep-driven benches fan out over."""
    return SWEEP_WORKERS


@pytest.fixture(scope="session")
def cfg1():
    return default_system(1)


@pytest.fixture(scope="session")
def cfg3():
    return default_system(3)
