"""Engine microbenchmark: vectorized lane engine vs the scalar oracle.

Times the two hot loops this optimisation targets — functional SpMV /
SpTRSV execution (per-beat PU interpretation) and DRAM trace pricing
(per-command issue) — under both implementations at ``PSYNCPIM_SCALE``,
asserts the results stay bitwise identical, and writes the measurements
to ``benchmarks/results/BENCH_engine.json`` for the CI perf-smoke gate.
The scalar runs swap the oracle in with
:func:`repro.check.oracles.use_scalar_engine`.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import BENCH_SCALE, RESULTS_DIR, bench_matrix, bench_vector
from repro import obs
from repro.check import oracles
from repro.config import default_system
from repro.core import (price_trace, run_spmv, run_sptrsv, spmm_ab_trace,
                        time_spmv)
from repro.dram import expand_trace
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _on_scalar_engine(fn):
    """*fn*, run with every kernel driver on the scalar engine oracle."""
    def run():
        with pytest.MonkeyPatch.context() as mp:
            oracles.use_scalar_engine(mp.setattr)
            return fn()
    return run


def test_engine_microbenchmark():
    matrix = bench_matrix("facebook")
    x = bench_vector(matrix.shape[1], seed=1)
    low = unit_lower_from(
        uniform_random(max(64, int(1200 * BENCH_SCALE * 4)),
                       max(64, int(1200 * BENCH_SCALE * 4)),
                       0.02, seed=2), seed=3)
    b = bench_vector(low.shape[0], seed=2)

    bench = {"scale": BENCH_SCALE, "times": {}, "speedups": {}}

    # --- functional SpMV: the per-beat interpreter hot loop -----------
    def spmv():
        return run_spmv(matrix, x, CFG, fidelity="functional")

    t_scalar, r_scalar = _best_of(_on_scalar_engine(spmv))
    t_lane, r_lane = _best_of(spmv)
    assert np.array_equal(r_scalar.y, r_lane.y), \
        "lane engine diverged from the scalar oracle on SpMV"
    bench["times"]["spmv_scalar_s"] = t_scalar
    bench["times"]["spmv_lane_s"] = t_lane
    bench["speedups"]["spmv"] = t_scalar / t_lane

    # --- functional SpTRSV --------------------------------------------
    def sptrsv():
        return run_sptrsv(low, b, CFG, fidelity="functional")

    t_scalar, r_scalar = _best_of(_on_scalar_engine(sptrsv), repeats=2)
    t_lane, r_lane = _best_of(sptrsv, repeats=2)
    assert np.array_equal(r_scalar.x, r_lane.x), \
        "lane engine diverged from the scalar oracle on SpTRSV"
    bench["times"]["sptrsv_scalar_s"] = t_scalar
    bench["times"]["sptrsv_lane_s"] = t_lane
    bench["speedups"]["sptrsv"] = t_scalar / t_lane

    # --- trace pricing: run-length batching vs per-command issue ------
    execution = run_spmv(matrix, x, CFG).execution
    trace = spmm_ab_trace(execution, CFG)
    expanded = list(expand_trace(trace))
    t_percmd, p_percmd = _best_of(lambda: price_trace(expanded, CFG))
    t_batched, p_batched = _best_of(lambda: price_trace(trace, CFG))
    assert p_batched.cycles == p_percmd.cycles
    assert p_batched.counts == p_percmd.counts
    bench["times"]["pricing_percommand_s"] = t_percmd
    bench["times"]["pricing_batched_s"] = t_batched
    bench["speedups"]["pricing"] = t_percmd / t_batched

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_engine.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    # The lane engine must never lose to the scalar oracle; at default
    # scale and above the SpMV hot loop must clear the 5x target.
    assert bench["speedups"]["spmv"] > 1.0, bench
    assert bench["speedups"]["sptrsv"] > 1.0, bench
    assert bench["speedups"]["pricing"] > 1.0, bench
    if BENCH_SCALE >= 0.05:
        assert bench["speedups"]["spmv"] >= 5.0, bench


def test_obs_overhead_guard():
    """Disabled observability must cost < 2% of an instrumented workload.

    Wall-clock A/B timings of the full workload are too noisy for a CI
    gate, so the guard is built from two stable measurements: the per-call
    cost of a disabled instrumentation site (one module-global boolean
    test) times the number of recording calls an obs-on run actually
    performs, compared against the obs-off workload runtime. The obs-on
    run also proves enabling recording never changes modelled numbers, and
    exports the Chrome trace CI uploads as an artifact.
    """
    matrix = bench_matrix("facebook")
    x = bench_vector(matrix.shape[1], seed=1)

    def workload():
        result = run_spmv(matrix, x, CFG)
        report = time_spmv(result.execution, CFG, with_energy=True)
        return result.y, report

    obs.reset()
    obs.disable()
    t_off, (y_off, report_off) = _best_of(workload)

    obs.enable()
    try:
        t_on, (y_on, report_on) = _best_of(workload)
        update_count = obs.recorder().update_count
        obs.export(RESULTS_DIR / "obs")
    finally:
        obs.reset()
        obs.disable()
    assert np.array_equal(y_off, y_on), \
        "enabling observability changed SpMV results"
    assert report_off.cycles == report_on.cycles
    assert report_off.counts == report_on.counts
    assert report_off.energy.total_pj == report_on.energy.total_pj
    assert update_count > 0

    # Per-call price of a disabled site, measured on the no-op fast path.
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        obs.add_counter("guard", 1.0)
    per_call = (time.perf_counter() - start) / calls
    assert not obs.recorder().counters  # the no-op path really no-ops

    overhead = per_call * update_count
    ratio = overhead / t_off
    bench = {
        "scale": BENCH_SCALE,
        "workload_off_s": t_off,
        "workload_on_s": t_on,
        "recording_calls": update_count,
        "disabled_call_ns": per_call * 1e9,
        "estimated_disabled_overhead_s": overhead,
        "estimated_disabled_overhead_pct": 100.0 * ratio,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_obs.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    assert ratio < 0.02, bench
