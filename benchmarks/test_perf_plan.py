"""Planner microbenchmark: vectorized planning front-end vs the oracle.

Times the three host-side planning stages this optimisation targets —
matrix partitioning (compressed and uncompressed), tile distribution
(paper and balanced policies) and SpTRSV level scheduling — under both
planners at ``PSYNCPIM_SCALE``, asserts the plans stay bitwise identical,
and writes the measurements to ``benchmarks/results/BENCH_plan.json`` for
the CI perf-smoke gate. The scalar runs swap the oracles in with
:func:`repro.check.oracles.use_scalar_planner`. A fourth stage,
``sptrsv_leaves``, times a whole ``run_sptrsv`` of a banded factor (about
4,000 leaf levels at the 20k-row floor) under both planners and asserts
the same ``x`` and level records; ``combined`` sums the first three kinds
only.

Each stage runs its scalar and fast sides back to back in ``PAIRS``
pairs, the side that goes first alternating, and every ratio is the
median of the per-pair ratios: a burst of host speed (a shared vCPU
freeing up) then speeds both sides of a pair instead of one side's
best-of.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, RESULTS_DIR
from repro.check import oracles
from repro.config import default_system
from repro.core import distribute, partition, run_sptrsv
from repro.core.sptrsv import level_schedule
from repro.formats.generators import (banded_fem, power_law_graph,
                                      uniform_random, unit_lower_from)

CFG = default_system()
#: Scalar/fast pairs timed per stage.
PAIRS = 5


def _timed(fn):
    """Seconds of one call of *fn* and its result. As in ``timeit``, the
    garbage collector is emptied first and held off while *fn* runs, so
    a collection the other side's allocations set up lands on neither."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def _timed_pairs(scalar_fn, fast_fn, pairs=PAIRS):
    """``pairs`` back-to-back ``(scalar_s, fast_s)`` timings, the first
    side alternating, and each side's last result."""
    times, results = [], [None, None]
    for i in range(pairs):
        pair = [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side], results[side] = _timed(
                scalar_fn if side == 0 else fast_fn)
        times.append(pair)
    return times, results


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

    stage_pairs = []

    def measure(key, fast_fn, check, combined=True):
        pairs, (r_scalar, r_fast) = _timed_pairs(
            _on_scalar_planner(fast_fn), fast_fn)
        check(r_fast, r_scalar)
        if combined:
            stage_pairs.append(pairs)
        bench["times"][f"{key}_scalar_s"] = statistics.median(
            s for s, _ in pairs)
        bench["times"][f"{key}_fast_s"] = statistics.median(
            f for _, f in pairs)
        bench["speedups"][key] = statistics.median(s / f for s, f in pairs)

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

    measure("level_schedule", lambda: level_schedule(tri), levels_equal)

    # --- SpTRSV leaf scheduling, inside a whole solve --------------------
    # A banded factor keeps its dependencies near the diagonal, so the
    # leaves hold many short levels, like the Fig. 9 ILDU factors.
    leaf_tri = unit_lower_from(banded_fem(n, 12, seed=8), seed=9)
    leaf_b = np.random.default_rng(10).random(n)
    bench["matrix"]["leaf_tri_nnz"] = leaf_tri.nnz

    def solves_equal(fast, scalar):
        assert np.array_equal(fast.x, scalar.x)
        for name in ("level_batches", "level_elements", "level_widths"):
            assert (getattr(fast.execution, name)
                    == getattr(scalar.execution, name)), name

    measure("sptrsv_leaves", lambda: run_sptrsv(leaf_tri, leaf_b, CFG),
            solves_equal, combined=False)

    # Pair i of the combined path: every combined stage's pair i, summed.
    totals = [(sum(stage[i][0] for stage in stage_pairs),
               sum(stage[i][1] for stage in stage_pairs))
              for i in range(PAIRS)]
    bench["times"]["combined_scalar_s"] = statistics.median(
        s for s, _ in totals)
    bench["times"]["combined_fast_s"] = statistics.median(
        f for _, f in totals)
    bench["speedups"]["combined"] = statistics.median(
        s / f for s, f in totals)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_plan.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    # The fast planner must never lose to the oracle; at default scale and
    # above the combined planning path must clear the 5x target.
    for key, speedup in bench["speedups"].items():
        assert speedup > 1.0, (key, bench)
    if BENCH_SCALE >= 0.05:
        assert bench["speedups"]["combined"] >= 5.0, bench
