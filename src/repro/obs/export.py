"""Exporters: Chrome-trace JSON, flat metrics JSON and CSV.

The Chrome trace uses the Trace Event Format that both ``chrome://tracing``
and Perfetto load directly: spans become complete (``"ph": "X"``) events
with microsecond timestamps, and counters become counter (``"ph": "C"``)
events forming one track per metric.

The metrics dump is deliberately flat — one JSON object with ``counters``,
``gauges`` and per-span aggregates — so downstream
tooling (the ``psyncpim profile`` renderer, CI assertions, notebooks) never
has to re-walk the event stream.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .recorder import Recorder, SpanEvent


# ----------------------------------------------------------------------
# span aggregation
# ----------------------------------------------------------------------
def span_summary(events: List[SpanEvent]) -> Dict[str, Dict[str, float]]:
    """Aggregate span events per name: calls, total/mean/max seconds.

    ``self_s`` subtracts the time spent in directly nested spans of the
    same thread, so a parent phase's own cost is separable from its
    children in the profile table.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for event in sorted(events, key=lambda e: e.start_ns):
        entry = summary.setdefault(event.name, {
            "cat": event.cat, "calls": 0, "total_s": 0.0, "max_s": 0.0,
            "self_s": 0.0})
        seconds = event.dur_ns * 1e-9
        entry["calls"] += 1
        entry["total_s"] += seconds
        entry["max_s"] = max(entry["max_s"], seconds)
    # Self time: total minus the sum of children one level deeper whose
    # windows fall inside the span's window (same pid/tid).
    ordered = sorted(events, key=lambda e: (e.pid, e.tid, e.start_ns))
    for i, event in enumerate(ordered):
        end = event.start_ns + event.dur_ns
        nested = 0
        for other in ordered[i + 1:]:
            if (other.pid != event.pid or other.tid != event.tid
                    or other.start_ns >= end):
                break
            if other.depth == event.depth + 1:
                nested += other.dur_ns
        summary[event.name]["self_s"] += (event.dur_ns - nested) * 1e-9
    for entry in summary.values():
        entry["mean_s"] = entry["total_s"] / max(entry["calls"], 1)
    return summary


# ----------------------------------------------------------------------
# chrome trace
# ----------------------------------------------------------------------
def chrome_trace(recorder: Recorder) -> Dict[str, Any]:
    """The recorder's contents in Chrome Trace Event Format."""
    trace_events: List[Dict[str, Any]] = []
    for event in recorder.events:
        trace_events.append({
            "name": event.name,
            "cat": event.cat,
            "ph": "X",
            "ts": event.start_ns / 1000.0,      # microseconds
            "dur": event.dur_ns / 1000.0,
            "pid": event.pid,
            "tid": event.tid,
            "args": _jsonable(event.args),
        })
    for ts, name, value in recorder.samples:
        trace_events.append({
            "name": name,
            "ph": "C",
            "ts": ts / 1000.0,
            "pid": 0,
            "args": {"value": value},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"producer": "psyncpim repro.obs"}}


def _jsonable(args: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


# ----------------------------------------------------------------------
# flat metrics
# ----------------------------------------------------------------------
def metrics_dict(recorder: Recorder) -> Dict[str, Any]:
    """Flat metrics: counters, gauges, span aggregates."""
    return {
        "counters": dict(recorder.counters),
        "gauges": dict(recorder.gauges),
        "spans": span_summary(recorder.events),
    }


def metrics_rows(metrics: Dict[str, Any]) -> List[List[Any]]:
    """The metrics dump as flat (kind, name, value) rows for CSV."""
    rows: List[List[Any]] = []
    for name in sorted(metrics.get("counters", {})):
        rows.append(["counter", name, metrics["counters"][name]])
    for name in sorted(metrics.get("gauges", {})):
        rows.append(["gauge", name, metrics["gauges"][name]])
    for name in sorted(metrics.get("spans", {})):
        entry = metrics["spans"][name]
        rows.append(["span_calls", name, entry["calls"]])
        rows.append(["span_total_s", name, entry["total_s"]])
    return rows


# ----------------------------------------------------------------------
# file output
# ----------------------------------------------------------------------
def export_all(recorder: Recorder,
               directory: Union[str, Path]) -> Dict[str, Path]:
    """Write trace.json, metrics.json and metrics.csv under *directory*.

    Returns the written paths keyed by artifact name. The directory is
    created if needed; existing files are overwritten (a fresh run
    supersedes the previous one, like a profiler output directory).
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": root / "trace.json",
        "metrics": root / "metrics.json",
        "csv": root / "metrics.csv",
    }
    paths["trace"].write_text(
        json.dumps(chrome_trace(recorder)) + "\n", encoding="utf-8")
    metrics = metrics_dict(recorder)
    paths["metrics"].write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    with paths["csv"].open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "name", "value"])
        writer.writerows(metrics_rows(metrics))
    return paths


def load_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a metrics dump; *path* may be the file or its directory."""
    p = Path(path)
    if p.is_dir():
        p = p / "metrics.json"
    return json.loads(p.read_text(encoding="utf-8"))


def default_obs_dir(environ: Optional[Dict[str, Any]] = None) -> Path:
    """Where exports land: ``$PSYNCPIM_OBS_DIR`` or ``./psyncpim-obs``."""
    import os
    from .recorder import OBS_DIR_ENV
    env = os.environ if environ is None else environ
    raw = env.get(OBS_DIR_ENV)
    return Path(raw).expanduser() if raw else Path("psyncpim-obs")


__all__ = ["chrome_trace", "default_obs_dir", "export_all", "load_metrics",
           "metrics_dict", "metrics_rows", "span_summary"]
