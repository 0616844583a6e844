"""The observability recorder: spans, counters and gauges.

One process-wide :class:`Recorder` accumulates everything the instrumented
layers emit:

* **spans** — nested host-side phase timings (``with span("partition")``),
  stamped with process/thread ids and nesting depth so the Chrome-trace
  exporter can reconstruct the flame graph;
* **counters** — monotonically accumulated totals (DRAM command mix,
  engine beats, cache hits);
* **gauges** — last-value observations (bank imbalance, utilisation).

The recorder itself never looks at the enable gate — gating lives in
:mod:`repro.obs` (the package front door) so that a disabled run pays only
one module-global boolean test per instrumentation site and allocates
nothing. Everything stored here is plain data (floats and dataclasses),
so a recorder's contents can be snapshotted into a picklable payload,
shipped across a process boundary (sweep workers) and merged into a
parent recorder without loss.

Timestamps come from :func:`time.perf_counter_ns`, which on Linux is
``CLOCK_MONOTONIC`` — a machine-wide clock, so spans recorded in forked
sweep workers line up with the parent's timeline in the exported trace.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigError

#: Environment variable enabling observability (``1``/``true``/``yes``/``on``).
OBS_ENV = "PSYNCPIM_OBS"

#: Environment variable overriding where exports land (default
#: ``./psyncpim-obs``).
OBS_DIR_ENV = "PSYNCPIM_OBS_DIR"

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"", "0", "false", "no", "off"})


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``PSYNCPIM_OBS`` asks for observability to be on.

    Any other spelling raises :class:`ConfigError`, so a typo never
    runs silently unobserved.
    """
    env = os.environ if environ is None else environ
    text = env.get(OBS_ENV, "").strip().lower()
    if text in _TRUTHY:
        return True
    if text in _FALSY:
        return False
    raise ConfigError(f"{OBS_ENV} must be one of "
                      f"{sorted(_TRUTHY | _FALSY)!r}, got {text!r}")


@dataclass
class SpanEvent:
    """One completed span: a named phase with its wall-clock extent."""

    name: str
    cat: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "cat": self.cat,
                "start_ns": self.start_ns, "dur_ns": self.dur_ns,
                "pid": self.pid, "tid": self.tid, "depth": self.depth,
                "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanEvent":
        return cls(name=data["name"], cat=data["cat"],
                   start_ns=data["start_ns"], dur_ns=data["dur_ns"],
                   pid=data["pid"], tid=data["tid"], depth=data["depth"],
                   args=dict(data.get("args", {})))


class _Span:
    """Context manager recording one span into its recorder on exit.

    Re-entrant per instance is not supported (each ``span()`` call makes a
    fresh one); nesting different spans is the normal case and is tracked
    through a per-thread depth stack.
    """

    __slots__ = ("_recorder", "name", "cat", "args", "_start")

    def __init__(self, recorder: "Recorder", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args
        self._start = 0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        self._recorder._push_depth()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter_ns()
        depth = self._recorder._pop_depth()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._recorder._record_span(SpanEvent(
            name=self.name, cat=self.cat, start_ns=self._start,
            dur_ns=end - self._start, pid=os.getpid(),
            tid=threading.get_ident(), depth=depth, args=self.args))


class Mark:
    """A position in a recorder's streams, for delta extraction."""

    __slots__ = ("events_len", "samples_len", "counters", "gauges")

    def __init__(self, events_len: int, samples_len: int,
                 counters: Dict[str, float],
                 gauges: Dict[str, float]) -> None:
        self.events_len = events_len
        self.samples_len = samples_len
        self.counters = counters
        self.gauges = gauges


class Recorder:
    """Accumulates spans, counters and gauges."""

    def __init__(self) -> None:
        self.events: List[SpanEvent] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: Chrome counter-track samples: (ts_ns, name, value).
        self.samples: List[Tuple[int, str, float]] = []
        #: Number of recording calls served (overhead accounting).
        self.update_count = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span bookkeeping ----------------------------------------------
    def _push_depth(self) -> None:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1

    def _pop_depth(self) -> int:
        depth = getattr(self._local, "depth", 1) - 1
        self._local.depth = depth
        return depth

    def _record_span(self, event: SpanEvent) -> None:
        with self._lock:
            self.events.append(event)
            self.update_count += 1

    def span(self, name: str, cat: str = "host", **args: Any) -> _Span:
        """A context manager timing one named phase."""
        return _Span(self, name, cat, args)

    # -- scalar metrics -------------------------------------------------
    def add_counter(self, name: str, value: float = 1.0,
                    sample: bool = False) -> None:
        """Accumulate *value* onto counter *name*.

        ``sample=True`` additionally records a (timestamp, total) sample
        for the Chrome-trace counter track of *name*.
        """
        with self._lock:
            total = self.counters.get(name, 0.0) + value
            self.counters[name] = total
            self.update_count += 1
            if sample:
                self.samples.append((time.perf_counter_ns(), name, total))

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest observation of gauge *name*."""
        with self._lock:
            self.gauges[name] = float(value)
            self.update_count += 1

    # -- cross-process payloads -----------------------------------------
    def mark(self) -> Mark:
        """Snapshot the current stream positions and totals."""
        with self._lock:
            return Mark(events_len=len(self.events),
                        samples_len=len(self.samples),
                        counters=dict(self.counters),
                        gauges=dict(self.gauges))

    def delta_since(self, mark: Mark) -> Dict[str, Any]:
        """Everything recorded after *mark*, as a picklable payload."""
        with self._lock:
            counters = {k: v - mark.counters.get(k, 0.0)
                        for k, v in self.counters.items()
                        if v != mark.counters.get(k, 0.0)}
            gauges = {k: v for k, v in self.gauges.items()
                      if mark.gauges.get(k) != v}
            return {
                "counters": counters,
                "gauges": gauges,
                "events": [e.to_dict()
                           for e in self.events[mark.events_len:]],
                "samples": list(self.samples[mark.samples_len:]),
            }

    def snapshot(self) -> Dict[str, Any]:
        """The whole recorder as a picklable/JSON-able payload."""
        return self.delta_since(Mark(0, 0, {}, {}))

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold a payload (from :meth:`delta_since`) into this recorder."""
        if not payload:
            return
        for name, value in payload.get("counters", {}).items():
            self.add_counter(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.set_gauge(name, value)
        with self._lock:
            for data in payload.get("events", []):
                self.events.append(SpanEvent.from_dict(data))
            for ts, name, value in payload.get("samples", []):
                self.samples.append((int(ts), name, float(value)))

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self.events.clear()
            self.counters.clear()
            self.gauges.clear()
            self.samples.clear()
            self.update_count = 0


__all__ = ["OBS_ENV", "OBS_DIR_ENV", "env_enabled", "Mark", "Recorder",
           "SpanEvent"]
