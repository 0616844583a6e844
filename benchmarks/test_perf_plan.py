"""Planner microbenchmark: vectorized planning front-end vs the oracle.

Times the three host-side planning stages this optimisation targets —
matrix partitioning (compressed and uncompressed), tile distribution
(paper and balanced policies) and SpTRSV level scheduling — under both
planners at ``PSYNCPIM_SCALE``, asserts the plans stay bitwise identical,
and writes the measurements to ``benchmarks/results/BENCH_plan.json`` for
the CI perf-smoke gate. The scalar runs swap the oracles in with
:func:`repro.check.oracles.use_scalar_planner`.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, RESULTS_DIR
from repro.check import oracles
from repro.config import default_system
from repro.core import distribute, partition
from repro.core.sptrsv import level_schedule
from repro.formats.generators import (power_law_graph, uniform_random,
                                      unit_lower_from)

CFG = default_system()


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _on_scalar_planner(fn):
    """*fn*, run with every planning stage on its scalar oracle."""
    def run():
        with pytest.MonkeyPatch.context() as mp:
            oracles.use_scalar_planner(mp.setattr)
            return fn()
    return run


def _assert_plans_equal(fast, scalar):
    assert len(fast.tiles) == len(scalar.tiles)
    for tf, ts in zip(fast.tiles, scalar.tiles):
        assert tf.row_range == ts.row_range
        assert np.array_equal(tf.global_cols, ts.global_cols)
        assert np.array_equal(tf.rows, ts.rows)
        assert np.array_equal(tf.cols, ts.cols)
        assert np.array_equal(tf.vals, ts.vals)


def _assert_assignments_equal(fast, scalar):
    assert fast.num_rounds == scalar.num_rounds
    for rf, rs in zip(fast.rounds, scalar.rounds):
        for tf, ts in zip(rf, rs):
            assert (tf is None) == (ts is None)
            if tf is not None:
                assert np.array_equal(tf.rows, ts.rows)
                assert np.array_equal(tf.vals, ts.vals)


def test_planner_microbenchmark():
    n = max(20_000, int(400_000 * BENCH_SCALE))
    # Canonicalize outside the timed region: both planners share the same
    # row-major sort on entry, so timing it would only dilute the
    # comparison of the planning work itself.
    matrix = power_law_graph(n, avg_degree=8, seed=5).sorted_rows()
    # SpTRSV factors are the paper's largest planning inputs (the Table IX
    # solver matrices reach parabolic_fem's ~525k rows), so the level
    # scheduler gets a proportionally larger workload.
    tri_n = max(100_000, int(525_000 * BENCH_SCALE))
    tri = unit_lower_from(
        uniform_random(tri_n, tri_n, density=min(0.002, 40 / tri_n),
                       seed=6), seed=7)

    bench = {"scale": BENCH_SCALE,
             "matrix": {"n": n, "nnz": matrix.nnz,
                        "tri_n": tri_n, "tri_nnz": tri.nnz},
             "times": {}, "speedups": {}}

    def measure(key, fast_fn, check, repeats=3):
        t_scalar, r_scalar = _best_of(_on_scalar_planner(fast_fn), repeats)
        t_fast, r_fast = _best_of(fast_fn, repeats)
        check(r_fast, r_scalar)
        bench["times"][f"{key}_scalar_s"] = t_scalar
        bench["times"][f"{key}_fast_s"] = t_fast
        bench["speedups"][key] = t_scalar / t_fast
        return t_scalar, t_fast

    # --- partitioning (validation off: timing the cut itself) ---------
    for compress in (True, False):
        key = "partition_compressed" if compress else "partition_raw"
        measure(
            key,
            lambda: partition(matrix, CFG, compress=compress,
                              validate=False),
            _assert_plans_equal)

    # --- distribution --------------------------------------------------
    plan = partition(matrix, CFG, validate=False)
    for policy in ("paper", "balanced"):
        measure(
            f"distribute_{policy}",
            lambda: distribute(plan, CFG.total_units, policy=policy),
            _assert_assignments_equal)

    # --- level scheduling ----------------------------------------------
    def levels_equal(fast, scalar):
        assert len(fast) == len(scalar)
        for lf, ls in zip(fast, scalar):
            assert np.array_equal(lf, ls)

    measure("level_schedule", lambda: level_schedule(tri), levels_equal,
            repeats=2)

    scalar_total = sum(v for k, v in bench["times"].items()
                       if k.endswith("_scalar_s"))
    fast_total = sum(v for k, v in bench["times"].items()
                     if k.endswith("_fast_s"))
    bench["times"]["combined_scalar_s"] = scalar_total
    bench["times"]["combined_fast_s"] = fast_total
    bench["speedups"]["combined"] = scalar_total / fast_total

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_plan.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    # The fast planner must never lose to the oracle; at default scale and
    # above the combined planning path must clear the 5x target.
    for key, speedup in bench["speedups"].items():
        assert speedup > 1.0, (key, bench)
    if BENCH_SCALE >= 0.05:
        assert bench["speedups"]["combined"] >= 5.0, bench
