"""Plain-text reporting helpers used by the benchmark harness.

The paper's figures are bar charts; the benches regenerate them as aligned
text tables (one row per matrix/application, one column per system) plus
the geometric means the paper quotes. Keeping the renderer here means the
benches stay pure data producers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None,
                 floatfmt: str = "{:.2f}") -> str:
    """Render an aligned text table."""
    def cell(value) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(r[i]) for r in text_rows), default=0))
              for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_breakdown(breakdowns: Dict[str, Dict[str, float]],
                     classes: Sequence[str],
                     title: Optional[str] = None) -> str:
    """Render per-item kernel-class percentage breakdowns (Figs. 2, 12)."""
    headers = ["item"] + [f"{c} %" for c in classes] + ["total (us)"]
    rows = []
    for item, ledger in breakdowns.items():
        total = sum(ledger.get(c, 0.0) for c in classes)
        shares = [100.0 * ledger.get(c, 0.0) / total if total else 0.0
                  for c in classes]
        rows.append([item] + shares + [total * 1e6])
    return format_table(headers, rows, title=title)


def normalised_series(times: Dict[str, float],
                      baseline: str) -> Dict[str, float]:
    """Speedups of every entry relative to *baseline* (paper convention:
    values above 1 mean faster than the baseline)."""
    base = times[baseline]
    return {name: base / value for name, value in times.items()}


# ----------------------------------------------------------------------
# sweep aggregation (repro.sweep produces these, the benches consume them)
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """Outcome of one sweep job: its report plus execution bookkeeping.

    ``report`` is the kernel's :class:`repro.core.PerfReport` (``None`` for
    jobs that only materialise data, e.g. the Table IX suite kernel);
    ``extras`` carries kernel-specific side outputs such as matrix shapes,
    dependency-level counts or solve residuals.
    """

    label: str
    kernel: str
    matrix: str
    report: Optional[Any] = None
    #: Modelled kernel seconds (``report.seconds``; 0 without a report).
    seconds: float = 0.0
    #: Wall-clock seconds the worker spent producing this record.
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    worker: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)
    job: Any = None
    #: Exception summary (``"ValueError: ..."``) when the job failed;
    #: empty on success. Failed jobs carry no report.
    error: str = ""
    #: Full formatted traceback of the failure (empty on success).
    traceback: str = ""
    #: Observability payload recorded inside the worker while
    #: ``PSYNCPIM_OBS`` was on (``Recorder.delta_since`` dict); ``None``
    #: when observability was off.
    metrics: Optional[Dict[str, Any]] = None
    #: Cycle-attribution artifact (:class:`repro.obs.report.RunReport`)
    #: when the job ran with attribution on; ``None`` otherwise.
    attrib: Optional[Any] = None

    @property
    def cached(self) -> bool:
        """True when every pipeline stage came from the artifact cache."""
        return self.cache_misses == 0 and self.cache_hits > 0

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep run.

    Exposes the observability the sweep runner is built for: per-job
    modelled and wall times, cache hit/miss counters and how well the
    worker pool was utilised.
    """

    records: List[JobRecord]
    #: Wall-clock seconds of the whole sweep (submission to last result).
    wall_seconds: float
    workers: int = 1
    cache_enabled: bool = True
    cache_dir: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def labels(self) -> List[str]:
        return [record.label for record in self.records]

    def record(self, label: str) -> JobRecord:
        """Look one record up by label; raises ``KeyError`` if unknown."""
        for record in self.records:
            if record.label == label:
                return record
        raise KeyError(f"no sweep job labelled {label!r}; "
                       f"have {self.labels}")

    def report(self, label: str) -> Any:
        """The :class:`PerfReport` of the job labelled *label*."""
        return self.record(label).report

    # -- failure observability ----------------------------------------
    @property
    def failures(self) -> List[JobRecord]:
        """Records whose job raised (captured, not propagated)."""
        return [record for record in self.records if record.failed]

    @property
    def ok(self) -> bool:
        """True when no job failed."""
        return not self.failures

    def raise_failures(self) -> None:
        """Re-raise the first failure (with its worker traceback) if any."""
        from ..errors import ExecutionError
        failures = self.failures
        if failures:
            first = failures[0]
            raise ExecutionError(
                f"{len(failures)} sweep job(s) failed; first: "
                f"{first.label}: {first.error}\n{first.traceback}")

    # -- metric aggregation -------------------------------------------
    @staticmethod
    def _metric_key(record: JobRecord, name: str) -> str:
        """Failed jobs' partial metrics merge under a tagged name.

        A job that died mid-pipeline still recorded real work (plans
        built, traces priced) before the exception; dropping its payload
        would under-count the sweep, but summing it anonymously into the
        healthy totals would poison them. Tagging keeps both properties:
        everything captured survives, and the failure is attributable.
        """
        if record.failed:
            return f"failed[{record.label}].{name}"
        return name

    def merged_counters(self) -> Dict[str, float]:
        """Sum the per-job observability counters across all records.

        Only populated when the sweep ran with ``PSYNCPIM_OBS`` on; an
        empty dict otherwise. Failed jobs' partial counters are kept but
        namespaced ``failed[<label>].<name>`` (see :meth:`_metric_key`).
        """
        totals: Dict[str, float] = {}
        for record in self.records:
            if not record.metrics:
                continue
            for name, value in record.metrics.get("counters", {}).items():
                key = self._metric_key(record, name)
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def merged_gauges(self) -> Dict[str, float]:
        """Last-written value per gauge across the sweep's records.

        Records are walked in job order, so a gauge set by several jobs
        keeps the last healthy job's observation — matching how the
        parent recorder's merge treats gauges. Failed jobs' gauges are
        namespaced like :meth:`merged_counters`.
        """
        merged: Dict[str, float] = {}
        for record in self.records:
            if not record.metrics:
                continue
            for name, value in record.metrics.get("gauges", {}).items():
                merged[self._metric_key(record, name)] = float(value)
        return merged

    # -- attribution ---------------------------------------------------
    def attrib_reports(self) -> Dict[str, Any]:
        """RunReports of jobs that ran with attribution on, by label."""
        return {record.label: record.attrib for record in self.records
                if record.attrib is not None}

    # -- cache observability ------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(record.cache_hits for record in self.records)

    @property
    def cache_misses(self) -> int:
        return sum(record.cache_misses for record in self.records)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def all_cached(self) -> bool:
        """True when every job was served entirely from the cache."""
        return bool(self.records) and all(record.cached
                                          for record in self.records)

    # -- worker observability -----------------------------------------
    @property
    def busy_seconds(self) -> float:
        """Total worker-occupied seconds across all jobs."""
        return sum(record.wall_seconds for record in self.records)

    @property
    def parallel_speedup(self) -> float:
        """Aggregate job time over sweep wall time (1.0 = serial pace)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / self.wall_seconds

    @property
    def jobs_per_second(self) -> float:
        """Sweep throughput against wall-clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.records) / self.wall_seconds

    @property
    def worker_utilisation(self) -> float:
        """Fraction of the worker pool kept busy over the sweep."""
        if self.workers <= 0 or self.wall_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds
                   / (self.workers * self.wall_seconds))

    # -- rendering -----------------------------------------------------
    def summary_table(self, title: Optional[str] = None) -> str:
        """Per-job table plus the sweep-wide totals, as aligned text."""
        rows = []
        for record in self.records:
            model_us = (record.report.seconds * 1e6 if record.report
                        else float("nan"))
            rows.append([
                record.label,
                ("FAILED" if record.failed
                 else "-" if math.isnan(model_us) else f"{model_us:.2f}"),
                record.wall_seconds * 1e3,
                record.cache_hits,
                record.cache_misses,
                record.worker,
            ])
        table = format_table(
            ["job", "model (us)", "wall (ms)", "hits", "misses", "worker"],
            rows, title=title or "sweep results")
        cache = (self.cache_dir if self.cache_enabled
                 else "disabled (--no-cache)")
        footer = (
            f"jobs: {len(self.records)}  wall: {self.wall_seconds:.2f} s  "
            f"({self.jobs_per_second:.1f} jobs/s)  "
            f"workers: {self.workers}  "
            f"utilisation: {100.0 * self.worker_utilisation:.0f}%  "
            f"parallel speedup: {self.parallel_speedup:.2f}x\n"
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"(hit rate {100.0 * self.hit_rate:.0f}%) at {cache}")
        failures = self.failures
        if failures:
            footer += (f"\nfailures: {len(failures)} "
                       f"({', '.join(r.label for r in failures)})")
        return table + "\n" + footer
