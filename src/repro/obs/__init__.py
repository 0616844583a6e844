"""``repro.obs`` — spans, counters and trace export for every layer.

The observability subsystem the evaluation sections lean on: host-side
phase spans (planning, engine rounds, sweep jobs), a counter/gauge
registry fed by the simulators (engine beats, lane
predication/exit/exhaustion occupancy, DRAM command mix and row hit/miss,
energy breakdowns, sweep cache hits), and exporters producing a Chrome
``chrome://tracing``/Perfetto trace, a flat JSON/CSV metrics dump and the
``psyncpim profile`` report.

**Off by default, zero overhead when off.** Instrumentation sites call the
module-level helpers below; while disabled, :func:`span` returns a shared
no-op context manager and every counter helper returns after one boolean
test — nothing is allocated and no recorder state is touched, so the hot
paths (lane engine beats, closed-form DRAM pricing, sweep workers) are
regression-free. Enable with ``PSYNCPIM_OBS=1`` in the environment (the
CLI then exports automatically on exit) or programmatically::

    from repro import obs

    obs.enable()
    ... run kernels ...
    obs.export(obs.default_dir())        # trace.json + metrics.json + csv

Sweep workers inherit the environment gate; :mod:`repro.sweep.runner`
ships each job's recorded delta back in its :class:`JobRecord` and merges
worker payloads into the parent recorder, so one exported trace covers the
whole fan-out with true process/thread ids.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigError
from .export import (chrome_trace, default_obs_dir, export_all,
                     load_metrics, metrics_dict, metrics_rows, span_summary)
from .profile import render_profile
from .recorder import (OBS_DIR_ENV, OBS_ENV, Mark, Recorder, SpanEvent,
                       env_enabled)

#: The process-wide recorder every instrumented layer feeds.
_RECORDER = Recorder()


def _env_gate():
    """``(gate, error)`` from ``PSYNCPIM_OBS``. A spelling
    :func:`env_enabled` rejects leaves the gate off and is raised by
    :func:`enabled`, so importing never fails but no run goes silently
    unobserved."""
    try:
        return env_enabled(), None
    except ConfigError as exc:
        return False, str(exc)


#: The one gate the hot paths test. Module-global so a disabled site costs
#: one attribute lookup and one branch.
_ENABLED, _ENV_ERROR = _env_gate()


class _NullSpan:
    """Shared no-op context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether observability is currently recording."""
    if _ENV_ERROR is not None:
        raise ConfigError(_ENV_ERROR)
    return _ENABLED


def enable() -> None:
    """Turn recording on (equivalent to ``PSYNCPIM_OBS=1``)."""
    global _ENABLED, _ENV_ERROR
    _ENABLED, _ENV_ERROR = True, None


def disable() -> None:
    """Turn recording off; already-recorded data is kept until reset()."""
    global _ENABLED, _ENV_ERROR
    _ENABLED, _ENV_ERROR = False, None


def reset() -> None:
    """Drop everything recorded so far (the gate state is unchanged)."""
    _RECORDER.reset()


def recorder() -> Recorder:
    """The process-wide recorder (for snapshots, merges and exporters)."""
    return _RECORDER


# ----------------------------------------------------------------------
# recording helpers (no-ops while disabled)
# ----------------------------------------------------------------------
def span(name: str, cat: str = "host", **args: Any):
    """Time a named phase: ``with obs.span("partition"): ...``."""
    if not _ENABLED:
        return _NULL_SPAN
    return _RECORDER.span(name, cat=cat, **args)


def profiled(name: str, cat: str = "host"):
    """Decorator form of :func:`span` for whole functions."""
    def wrap(fn):
        import functools

        @functools.wraps(fn)
        def inner(*args: Any, **kwargs: Any):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with _RECORDER.span(name, cat=cat):
                return fn(*args, **kwargs)
        return inner
    return wrap


def add_counter(name: str, value: float = 1.0,
                sample: bool = False) -> None:
    """Accumulate onto a counter (no-op while disabled)."""
    if _ENABLED:
        _RECORDER.add_counter(name, value, sample=sample)


def set_gauge(name: str, value: float) -> None:
    """Record a gauge observation (no-op while disabled)."""
    if _ENABLED:
        _RECORDER.set_gauge(name, value)


# ----------------------------------------------------------------------
# export conveniences
# ----------------------------------------------------------------------
def export(directory: Optional[Any] = None):
    """Write trace.json/metrics.json/metrics.csv; returns the paths."""
    return export_all(_RECORDER,
                      default_obs_dir() if directory is None else directory)


def default_dir():
    """Where :func:`export` writes by default (``PSYNCPIM_OBS_DIR``)."""
    return default_obs_dir()


# Imported last on purpose: the attribution engine reaches back into
# repro.dram, whose modules import this package for the span/counter
# helpers above — those must already be defined when the cycle closes.
from . import attrib, report  # noqa: E402
from .attrib import (ATTRIB_VERSION, CATEGORIES,  # noqa: E402
                     Attribution, AttributionCollector, CriticalPath,
                     attribute_spmm, attribute_spmv, attribute_sptrsv,
                     attribute_trace,
                     category_of, critical_path, phase_cycles,
                     spmv_useful_loads, sptrsv_useful_loads)
from .report import (REPORT_VERSION, BundleDiff,  # noqa: E402
                     DiffEntry, RunReport, build_run_report, diff_reports,
                     load_reports, render_bundle_summary, render_diff,
                     render_html, render_report, save_reports)

__all__ = [
    "ATTRIB_VERSION", "Attribution", "AttributionCollector",
    "BundleDiff", "CATEGORIES", "CriticalPath", "DiffEntry",
    "OBS_DIR_ENV", "OBS_ENV", "Mark", "Recorder",
    "REPORT_VERSION", "RunReport", "SpanEvent",
    "add_counter", "attribute_spmm",
    "attribute_spmv", "attribute_sptrsv", "attribute_trace",
    "build_run_report",
    "category_of", "chrome_trace", "critical_path", "default_dir",
    "default_obs_dir", "diff_reports", "disable", "enable", "enabled",
    "env_enabled", "export", "export_all", "load_metrics", "load_reports",
    "metrics_dict", "metrics_rows", "phase_cycles", "profiled",
    "recorder", "render_bundle_summary", "render_diff", "render_html",
    "render_profile", "render_report", "reset", "save_reports",
    "set_gauge", "span", "span_summary", "spmv_useful_loads",
    "sptrsv_useful_loads",
]
