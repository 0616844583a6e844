"""Attribution overhead microbenchmark: attributed vs plain pricing.

The cycle-attribution engine is charged in the scheduler's one pass
(``price_trace(..., collector=...)``), so its cost is overhead on top of
schedule pricing. This bench prices the Fig. 8 SpMV suite's all-bank
traces and the Fig. 9 lower ILDU factors twice — plain, and attributed
through :func:`~repro.obs.attrib.attribute_trace` (collector, pricing
and ``finalize`` with the padding split, plus segments for SpTRSV) — and
writes ``benchmarks/results/BENCH_attrib.json`` for the CI perf-trend
gate.

* ``times`` — min-of-N pricing wall-clock for every variant plus the
  derived SpMV ``overhead_pct``. The variants are timed *interleaved*
  (alternating within each repetition) and min-of-N is taken per
  variant, so CPU frequency drift on shared runners hits all sides
  equally and cannot fake a regression.
* ``speedups.pricing_vs_attrib`` — plain over attributed time on the
  SpMV suite (a ratio of two measurements from the same machine and run,
  so it transfers across CI hardware; 1.0 means free, lower means
  costlier attribution).
* ``speedups.pricing_vs_attrib_sptrsv`` — the same ratio on the SpTRSV
  factors, whose long level-by-level traces make it the larger cost.

``benchmarks/check_trend.py`` gates both ratios against the committed
baseline.

The bench also emits the run's full attribution bundle
(``ATTRIB_run.json``) and a self-contained HTML report
(``ATTRIB_report.html``); CI uploads the HTML as an artifact and diffs
the bundle against the committed ``baselines/ATTRIB_scale0.02.json``
with ``psyncpim diff`` to triage modelled-cycle drift per category.
"""

from __future__ import annotations

import json
import time

from conftest import (BENCH_SCALE, RESULTS_DIR, SPMV_MATRICES,
                      SPTRSV_MATRICES, bench_matrix, bench_vector)
from repro.config import default_system
from repro.core import (ildu, plan_spmv, price_trace, run_sptrsv,
                        spmm_ab_trace, synthesize)
from repro.obs.attrib import (attribute_spmv, attribute_trace,
                              spmv_useful_loads, sptrsv_useful_loads)
from repro.obs.report import build_run_report, render_html, save_reports

#: min-of-N repetitions per timing variant (shields the trend gate from
#: one-off scheduler hiccups on shared CI runners).
REPS = 5


def _suite_traces(config):
    traces = []
    for name in SPMV_MATRICES:
        matrix = bench_matrix(name)
        _, _, execution = plan_spmv(matrix, config, validate=False)
        traces.append((name, execution, spmm_ab_trace(execution, config)))
    return traces


def _price_suite(traces, config, attributed):
    """Plain pricing, or pricing plus the full attribution."""
    start = time.perf_counter()
    for _, execution, trace in traces:
        if attributed:
            attribute_trace(trace, config,
                            useful_loads=spmv_useful_loads(execution))
        else:
            price_trace(trace, config)
    return time.perf_counter() - start


def _sptrsv_traces(config):
    traces = []
    for name in SPTRSV_MATRICES:
        tri = ildu(bench_matrix(name)).lower
        execution = run_sptrsv(tri, bench_vector(tri.shape[0]),
                               config).execution
        traces.append((execution, synthesize(execution, config)))
    return traces


def _price_sptrsv(traces, config, attributed):
    """Plain pricing, or pricing plus the full segmented attribution."""
    start = time.perf_counter()
    for execution, seg in traces:
        if attributed:
            attribute_trace(seg.trace, config, segments=seg.segments,
                            useful_loads=sptrsv_useful_loads(execution))
        else:
            price_trace(seg.trace, config)
    return time.perf_counter() - start


def test_attrib_overhead_benchmark():
    config = default_system()
    traces = _suite_traces(config)
    sptrsv = _sptrsv_traces(config)

    # Interleaved min-of-N: frequency drift hits both variants alike.
    plain_s = attrib_s = float("inf")
    sptrsv_plain_s = sptrsv_attrib_s = float("inf")
    for _ in range(REPS):
        plain_s = min(plain_s, _price_suite(traces, config, False))
        attrib_s = min(attrib_s, _price_suite(traces, config, True))
        sptrsv_plain_s = min(sptrsv_plain_s,
                             _price_sptrsv(sptrsv, config, False))
        sptrsv_attrib_s = min(sptrsv_attrib_s,
                              _price_sptrsv(sptrsv, config, True))
    overhead = attrib_s / plain_s - 1.0

    bench = {
        "scale": BENCH_SCALE,
        "times": {
            "pricing_plain_s": plain_s,
            "pricing_attrib_s": attrib_s,
            "overhead_pct": 100.0 * overhead,
            "sptrsv_pricing_plain_s": sptrsv_plain_s,
            "sptrsv_pricing_attrib_s": sptrsv_attrib_s,
        },
        "speedups": {
            # Ratio of two same-machine measurements: machine-independent.
            "pricing_vs_attrib": plain_s / attrib_s,
            "pricing_vs_attrib_sptrsv": sptrsv_plain_s / sptrsv_attrib_s,
        },
    }

    # Side product: the suite's attribution bundle + HTML report for the
    # CI artifact upload and the psyncpim-diff drift triage step.
    reports = {}
    for name, execution, _ in traces:
        attribution, perf = attribute_spmv(execution, config)
        reports[f"spmv/{name}"] = build_run_report(
            attribution, perf, label=f"spmv/{name}", kind="spmv",
            matrix=name, strategy="paper", config=config,
            alu_operations=2 * execution.total_elements)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_attrib.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    save_reports(RESULTS_DIR / "ATTRIB_run.json", reports)
    (RESULTS_DIR / "ATTRIB_report.html").write_text(
        render_html(reports), encoding="utf-8")

    for report in reports.values():
        report.check()
