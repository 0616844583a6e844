"""The observability subsystem: recorder, exporters, instrumentation.

Covers the three tentpole guarantees:

* recording fidelity — spans nest, counters/gauges/bank arrays accumulate,
  cross-process payloads (mark/delta/merge) round-trip losslessly;
* zero interference — with ``PSYNCPIM_OBS`` off nothing is recorded, and
  enabling it never changes modelled cycles or energy (bitwise);
* implementation independence — the scalar and lane engines, and the
  scalar and fast planners, emit identical obs counters, the differential
  guarantee the profile tables rely on.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.check import oracles
from repro.config import default_system
from repro.core import run_spmv, run_sptrsv, time_spmv
from repro.core.spmv import plan_spmv
from repro.core.sptrsv import ildu
from repro.formats import generate
from repro.sweep import SweepJob, execute_job, run_sweep

CFG = default_system()


@pytest.fixture
def recording():
    """Obs on, starting and finishing with an empty recorder."""
    was = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        yield obs.recorder()
    finally:
        obs.reset()
        if not was:
            obs.disable()


# ----------------------------------------------------------------------
# recorder basics
# ----------------------------------------------------------------------
def test_disabled_records_nothing():
    obs.reset()
    obs.disable()
    with obs.span("phase"):
        obs.add_counter("c", 5)
        obs.set_gauge("g", 1.0)
        obs.add_bank_counter("b", [1, 2, 3])
    rec = obs.recorder()
    assert rec.update_count == 0
    assert not rec.events and not rec.counters
    assert not rec.gauges and not rec.bank_counters


def test_disabled_span_is_shared_noop():
    obs.disable()
    assert obs.span("a") is obs.span("b")


def test_span_nesting_depth_and_args(recording):
    with obs.span("outer", cat="t", answer=42):
        with obs.span("inner", cat="t"):
            pass
    by_name = {e.name: e for e in recording.events}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    assert by_name["outer"].args == {"answer": 42}
    assert by_name["inner"].start_ns >= by_name["outer"].start_ns
    assert by_name["outer"].dur_ns >= by_name["inner"].dur_ns


def test_span_records_exception(recording):
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("boom")
    (event,) = recording.events
    assert event.args["error"] == "ValueError"


def test_profiled_decorator(recording):
    @obs.profiled("decorated", cat="t")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert [e.name for e in recording.events] == ["decorated"]


def test_counters_gauges_accumulate(recording):
    obs.add_counter("c", 2)
    obs.add_counter("c", 3)
    obs.set_gauge("g", 1.0)
    obs.set_gauge("g", 7.0)
    assert recording.counters["c"] == 5
    assert recording.gauges["g"] == 7.0


def test_bank_counter_mixed_lengths(recording):
    obs.add_bank_counter("b", [1.0, 2.0])
    obs.add_bank_counter("b", [10.0, 10.0, 10.0, 10.0])
    obs.add_bank_counter("b", [1.0])
    np.testing.assert_array_equal(recording.bank_counters["b"],
                                  [12.0, 12.0, 10.0, 10.0])


def test_mark_delta_merge_roundtrip(recording):
    obs.add_counter("before", 1)
    mark = recording.mark()
    with obs.span("phase"):
        obs.add_counter("after", 2, sample=True)
        obs.add_bank_counter("banks", [1.0, 2.0])
        obs.set_gauge("g", 3.0)
    payload = recording.delta_since(mark)
    assert payload["counters"] == {"after": 2}
    assert "before" not in payload["counters"]
    assert payload["gauges"] == {"g": 3.0}
    assert payload["bank_counters"] == {"banks": [1.0, 2.0]}
    assert len(payload["events"]) == 1 and len(payload["samples"]) == 1

    other = obs.Recorder()
    other.merge(payload)
    assert other.counters == {"after": 2}
    np.testing.assert_array_equal(other.bank_counters["banks"], [1.0, 2.0])
    assert [e.name for e in other.events] == ["phase"]


def test_env_enabled():
    assert obs.env_enabled({"PSYNCPIM_OBS": "1"})
    assert obs.env_enabled({"PSYNCPIM_OBS": "true"})
    assert not obs.env_enabled({"PSYNCPIM_OBS": "0"})
    assert not obs.env_enabled({})


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def test_chrome_trace_structure(recording):
    with obs.span("outer"):
        with obs.span("inner"):
            obs.add_counter("c", 1, sample=True)
    obs.add_bank_counter("banks", list(range(40)))
    trace = obs.chrome_trace(recording)
    events = trace["traceEvents"]
    assert {e["ph"] for e in events} == {"X", "C"}
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"outer", "inner"}
    for e in spans:
        assert e["pid"] == os.getpid() and e["dur"] >= 0
    (bank_event,) = [e for e in events
                     if e["ph"] == "C" and e["name"] == "banks"]
    assert len(bank_event["args"]) == obs.MAX_BANK_SERIES + 1  # +rest
    json.dumps(trace)  # must be JSON-serialisable as-is


def test_export_and_load_roundtrip(recording, tmp_path):
    with obs.span("phase"):
        obs.add_counter("c", 4)
    obs.add_bank_counter("banks", [1.0, 2.0])
    paths = obs.export(tmp_path)
    for path in paths.values():
        assert path.exists()
    metrics = obs.load_metrics(tmp_path)
    assert metrics["counters"] == {"c": 4}
    assert metrics["bank_counters"]["banks"] == [1.0, 2.0]
    assert metrics["spans"]["phase"]["calls"] == 1
    rendered = obs.render_profile(metrics)
    assert "per-phase timings" in rendered and "phase" in rendered


def test_render_profile_sections(recording):
    m = generate("poisson3Da", scale=0.03)
    x = np.random.default_rng(0).random(m.shape[1])
    result = run_spmv(m, x, CFG, fidelity="functional", engine_banks=8)
    time_spmv(result.execution, CFG, with_energy=True)
    rendered = obs.render_profile(obs.metrics_dict(obs.recorder()))
    assert "per-phase timings" in rendered
    assert "per-bank beats" in rendered
    assert "DRAM command mix" in rendered
    assert "energy breakdown" in rendered


# ----------------------------------------------------------------------
# zero interference: obs on/off changes no modelled numbers
# ----------------------------------------------------------------------
def test_obs_does_not_change_results():
    m = generate("poisson3Da", scale=0.05)
    x = np.random.default_rng(1).random(m.shape[1])

    def workload():
        result = run_spmv(m, x, CFG)
        report = time_spmv(result.execution, CFG, with_energy=True)
        return result.y, report

    obs.reset()
    obs.disable()
    y_off, report_off = workload()
    obs.enable()
    try:
        y_on, report_on = workload()
    finally:
        obs.reset()
        obs.disable()
    np.testing.assert_array_equal(y_off, y_on)
    assert report_off.cycles == report_on.cycles
    assert report_off.counts == report_on.counts
    assert report_off.energy.total_pj == report_on.energy.total_pj


# ----------------------------------------------------------------------
# differential guarantees
# ----------------------------------------------------------------------
def _counter_state():
    rec = obs.recorder()
    return (dict(rec.counters),
            {k: v.tolist() for k, v in rec.bank_counters.items()})


def test_scalar_and_lane_engine_counters_match(recording):
    m = generate("poisson3Da", scale=0.04)
    x = np.random.default_rng(2).random(m.shape[1])
    states = {}
    for engine in ("scalar", "lane"):
        obs.reset()
        with pytest.MonkeyPatch.context() as mp:
            if engine == "scalar":
                oracles.use_scalar_engine(mp.setattr)
            run_spmv(m, x, CFG, fidelity="functional", engine_banks=8)
        states[engine] = _counter_state()
    scalar_counters, scalar_banks = states["scalar"]
    lane_counters, lane_banks = states["lane"]
    assert scalar_counters == lane_counters
    assert scalar_banks.keys() == lane_banks.keys()
    for name in scalar_banks:
        assert scalar_banks[name] == lane_banks[name], name
    assert scalar_banks["engine.bank_busy_beats"]  # non-trivial workload


def test_scalar_and_fast_planner_counters_match(recording):
    m = generate("poisson3Da", scale=0.05)
    states = {}
    for planner in ("scalar", "fast"):
        obs.reset()
        with pytest.MonkeyPatch.context() as mp:
            if planner == "scalar":
                oracles.use_scalar_planner(mp.setattr)
            _, _, execution = plan_spmv(m, CFG)
        time_spmv(execution, CFG)
        counters, _ = _counter_state()
        states[planner] = {k: v for k, v in counters.items()
                           if k.startswith(("dram.", "spmv."))}
    assert states["scalar"] == states["fast"]
    assert any(k.startswith("dram.cmd.") for k in states["fast"])


# ----------------------------------------------------------------------
# instrumented layers emit what the profile report consumes
# ----------------------------------------------------------------------
def test_spmv_emits_planner_spans_and_gauges(recording):
    m = generate("poisson3Da", scale=0.04)
    x = np.random.default_rng(0).random(m.shape[1])
    run_spmv(m, x, CFG)
    names = {e.name for e in recording.events}
    assert {"plan.partition", "plan.distribute", "spmv.rounds"} <= names
    assert "spmv.banks_used" in recording.gauges
    assert "spmv.imbalance" in recording.gauges


def test_sptrsv_emits_spans(recording):
    m = generate("poisson3Da", scale=0.04)
    factors = ildu(m)
    b = np.random.default_rng(0).random(m.shape[0])
    run_sptrsv(factors.lower, b, CFG)
    names = {e.name for e in recording.events}
    assert {"sptrsv.ildu", "sptrsv.level_schedule",
            "sptrsv.solve"} <= names
    assert recording.counters["sptrsv.solves"] == 1


def test_dram_pricing_emits_command_mix_and_energy(recording):
    m = generate("poisson3Da", scale=0.04)
    _, _, execution = plan_spmv(m, CFG)
    report = time_spmv(execution, CFG, with_energy=True)
    counters = recording.counters
    assert counters["dram.cycles"] == report.cycles
    for kind, n in report.counts.items():
        if n:
            assert counters[f"dram.cmd.{kind.name}"] == n
    assert (counters["dram.row_hits"] + counters["dram.row_misses"]
            == report.column_commands)
    assert counters["energy.total_pj"] == pytest.approx(
        report.energy.total_pj)


# ----------------------------------------------------------------------
# sweep integration: exception capture + metric shipping
# ----------------------------------------------------------------------
def test_sweep_job_failure_is_captured(tmp_path):
    job = SweepJob(kernel="spmv", matrix=str(tmp_path / "missing.mtx"))
    record = execute_job(job, cache_dir=tmp_path, use_cache=False)
    assert record.failed
    assert record.report is None
    assert "FileNotFoundError" in record.error
    assert "missing.mtx" in record.traceback
    assert "Traceback" in record.traceback


def test_sweep_unknown_kernel_still_raises(tmp_path):
    from repro.errors import ExecutionError
    with pytest.raises(ExecutionError, match="unknown sweep kernel"):
        execute_job(SweepJob(kernel="nope"), cache_dir=tmp_path)


def test_sweep_failures_surface_in_result(tmp_path):
    from repro.errors import ExecutionError
    jobs = [SweepJob(kernel="spmv", matrix="poisson3Da", scale=0.03),
            SweepJob(kernel="spmv", matrix=str(tmp_path / "gone.mtx"))]
    result = run_sweep(jobs, workers=1, cache_dir=tmp_path,
                       use_cache=False)
    assert len(result) == 2
    assert not result.ok
    assert [r.label for r in result.failures] == [jobs[1].resolved_label()]
    assert "FAILED" in result.summary_table()
    with pytest.raises(ExecutionError, match="gone.mtx"):
        result.raise_failures()
    assert result.records[0].report is not None  # good job unaffected


def test_sweep_ships_metrics_payloads(recording, tmp_path):
    jobs = [SweepJob(kernel="spmv", matrix="poisson3Da", scale=0.03)]
    result = run_sweep(jobs, workers=1, cache_dir=tmp_path,
                       use_cache=False)
    (record,) = result.records
    assert record.metrics is not None
    assert record.metrics["counters"].get("sweep.jobs") == 1
    assert any(k.startswith("dram.cmd.")
               for k in record.metrics["counters"])
    assert result.merged_counters()["sweep.jobs"] == 1
    # Serial sweeps record in-process: the parent recorder already has it.
    assert recording.counters["sweep.jobs"] == 1
    assert (recording.counters["sweep.cache_misses"]
            == record.cache_misses > 0)
    assert recording.counters["sweep.cache_hits"] == 0  # cache disabled
    assert any(e.name == "sweep.job" for e in recording.events)
