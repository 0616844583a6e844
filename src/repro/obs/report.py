"""RunReport: the picklable/JSON cycle-attribution artifact, plus diffing.

A :class:`RunReport` freezes one run's attribution — per-lane category
cycles, per-channel clocks, the phase timeline and critical path, command
mix and a roofline-style utilization summary — into a self-describing
record that pickles into the :class:`~repro.sweep.cache.ArtifactCache`
and round-trips through stable JSON for committed CI baselines.

Bundles are plain ``{label: RunReport}`` dicts; :func:`save_reports` /
:func:`load_reports` persist them (``.json`` for humans and version
control, anything else pickled). :func:`diff_reports` compares two
bundles label-by-label and attributes the cycle delta per category and
per matrix — the ``psyncpim diff`` verb renders it so a perf-trend
failure reads "row +18% on wiki-Vote", not "6.46x became 5.9x".
"""

from __future__ import annotations

import html as _html
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .attrib import (ATTRIB_VERSION, CATEGORIES, Attribution, CriticalPath,
                     critical_path, phase_cycles)

#: Bump when RunReport's serialised layout changes.
REPORT_VERSION = 1

#: Stable category colours for the HTML stacked bars.
_COLOURS = {
    "compute": "#2e7d32", "padding": "#9ccc65", "seam": "#8e24aa",
    "row": "#ef6c00", "refresh": "#fdd835", "host": "#1e88e5",
    "idle": "#b0bec5",
}


@dataclass
class RunReport:
    """One run's complete cycle attribution, ready to persist and diff."""

    label: str
    kind: str = "trace"            # "spmv" | "sptrsv" | "dense" | "trace"
    matrix: str = ""
    mode: str = "ab"
    channels: Optional[int] = None
    strategy: str = ""
    precision: str = "fp64"
    total_cycles: int = 0
    seconds: float = 0.0
    commands: int = 0
    categories: Tuple[str, ...] = CATEGORIES
    #: (channel, bank) lane ids, aligned with :attr:`lane_cycles` rows.
    lanes: List[Tuple[int, int]] = field(default_factory=list)
    lane_cycles: List[List[int]] = field(default_factory=list)
    channel_clock: Dict[int, int] = field(default_factory=dict)
    tag_cycles: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    utilization: Dict[str, float] = field(default_factory=dict)
    #: Barrier cycles per phase suffix (stage/seam/kernel/merge/...).
    phases: Dict[str, int] = field(default_factory=dict)
    #: Critical-path summary (see :func:`_path_to_dict`); ``None`` when
    #: the trace carried no segments.
    critical_path: Optional[Dict[str, Any]] = None
    energy_pj: Optional[float] = None
    attrib_version: int = ATTRIB_VERSION
    version: int = REPORT_VERSION

    # -- views ---------------------------------------------------------
    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    def device_cycles(self) -> Dict[str, int]:
        """Category cycles summed over every lane (unit: lane-cycles)."""
        totals = [0] * len(self.categories)
        for vec in self.lane_cycles:
            for i, v in enumerate(vec):
                totals[i] += v
        return dict(zip(self.categories, totals))

    def mean_cycles(self) -> Dict[str, float]:
        """Per-lane mean category cycles (comparable across lane counts)."""
        lanes = max(1, self.num_lanes)
        return {name: cycles / lanes
                for name, cycles in self.device_cycles().items()}

    def fractions(self) -> Dict[str, float]:
        device = self.device_cycles()
        whole = sum(device.values())
        if whole <= 0:
            return {name: 0.0 for name in self.categories}
        return {name: v / whole for name, v in device.items()}

    def check(self) -> None:
        """Re-assert the sum-to-total invariant on the frozen record."""
        for (ch, bank), vec in zip(self.lanes, self.lane_cycles):
            if sum(vec) != self.total_cycles:
                from ..errors import ExecutionError
                raise ExecutionError(
                    f"report {self.label!r} lane (ch={ch}, bank={bank}) "
                    f"sums to {sum(vec)}, not {self.total_cycles}")

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable dict (tuple lanes become lists, int keys strings)."""
        return {
            "version": self.version,
            "attrib_version": self.attrib_version,
            "label": self.label, "kind": self.kind,
            "matrix": self.matrix, "mode": self.mode,
            "channels": self.channels, "strategy": self.strategy,
            "precision": self.precision,
            "total_cycles": self.total_cycles, "seconds": self.seconds,
            "commands": self.commands,
            "categories": list(self.categories),
            "lanes": [list(lane) for lane in self.lanes],
            "lane_cycles": [list(vec) for vec in self.lane_cycles],
            "channel_clock": {str(ch): c
                              for ch, c in self.channel_clock.items()},
            "tag_cycles": dict(self.tag_cycles),
            "counts": dict(self.counts),
            "utilization": dict(self.utilization),
            "phases": dict(self.phases),
            "critical_path": self.critical_path,
            "energy_pj": self.energy_pj,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        return cls(
            label=data["label"], kind=data.get("kind", "trace"),
            matrix=data.get("matrix", ""), mode=data.get("mode", "ab"),
            channels=data.get("channels"),
            strategy=data.get("strategy", ""),
            precision=data.get("precision", "fp64"),
            total_cycles=int(data["total_cycles"]),
            seconds=float(data.get("seconds", 0.0)),
            commands=int(data.get("commands", 0)),
            categories=tuple(data.get("categories", CATEGORIES)),
            lanes=[tuple(lane) for lane in data.get("lanes", [])],
            lane_cycles=[[int(v) for v in vec]
                         for vec in data.get("lane_cycles", [])],
            channel_clock={int(ch): int(c) for ch, c
                           in data.get("channel_clock", {}).items()},
            tag_cycles={k: int(v)
                        for k, v in data.get("tag_cycles", {}).items()},
            counts={k: int(v) for k, v in data.get("counts", {}).items()},
            utilization={k: float(v) for k, v
                         in data.get("utilization", {}).items()},
            phases={k: int(v) for k, v in data.get("phases", {}).items()},
            critical_path=data.get("critical_path"),
            energy_pj=data.get("energy_pj"),
            attrib_version=int(data.get("attrib_version", ATTRIB_VERSION)),
            version=int(data.get("version", REPORT_VERSION)),
        )


def _path_to_dict(path: Optional[CriticalPath]) -> Optional[Dict[str, Any]]:
    """JSON-stable form of a critical path (int keys become strings)."""
    if path is None:
        return None
    return {
        "makespan": path.makespan,
        "modelled_cycles": path.modelled_cycles,
        "total_slack": path.total_slack,
        "nodes": [{
            "group": node.group,
            "duration": node.duration,
            "critical_channel": node.critical_channel,
            "durations": {str(ch): d for ch, d in node.durations.items()},
            "slack": {str(ch): s for ch, s in node.slack.items()},
        } for node in path.nodes],
    }


def build_run_report(attribution: Attribution, perf, *, label: str,
                     kind: str = "trace", matrix: str = "",
                     mode: str = "ab", channels: Optional[int] = None,
                     strategy: str = "", precision: str = "fp64",
                     config=None, alu_operations: int = 0) -> RunReport:
    """Freeze one ``(Attribution, PerfReport)`` pair into a RunReport.

    *config* and *alu_operations*, when given, extend the utilization
    summary with the roofline view (achieved vs peak ALU throughput,
    achieved vs peak external bandwidth).
    """
    lanes = sorted(attribution.lane_cycles)
    utilization: Dict[str, float] = {}
    cycles = perf.cycles
    acts = sum(n for k, n in perf.counts.items()
               if k.name in ("ACT", "ACT_AB"))
    columns = perf.column_commands
    if cycles > 0:
        # One column bus per active channel (see
        # ScheduleResult.bus_utilisation).
        capacity = max(len(attribution.channel_clock), 1) * cycles
        utilization["bus_utilisation"] = min(1.0, columns / capacity)
    if acts > 0:
        utilization["row_buffer_locality"] = columns / acts
    for name, share in attribution.fractions().items():
        utilization[f"{name}_fraction"] = share
    if config is not None and perf.seconds > 0 and alu_operations:
        achieved = alu_operations / perf.seconds
        peak = config.peak_throughput(precision)
        utilization["achieved_gops"] = achieved / 1e9
        utilization["peak_gops"] = peak / 1e9
        if peak > 0:
            utilization["compute_efficiency"] = achieved / peak
    path = critical_path(attribution)
    report = RunReport(
        label=label, kind=kind, matrix=matrix, mode=mode,
        channels=channels, strategy=strategy, precision=precision,
        total_cycles=perf.cycles, seconds=perf.seconds,
        commands=perf.commands,
        categories=attribution.categories,
        lanes=lanes,
        lane_cycles=[list(attribution.lane_cycles[lane])
                     for lane in lanes],
        channel_clock=dict(attribution.channel_clock),
        tag_cycles=dict(perf.tag_cycles),
        counts={k.name: n for k, n in perf.counts.items() if n},
        utilization=utilization,
        phases=phase_cycles(attribution),
        critical_path=_path_to_dict(path),
        energy_pj=(perf.energy.total_pj if perf.energy is not None
                   else None),
    )
    report.check()
    return report


# ----------------------------------------------------------------------
# persistence (bundles are {label: RunReport})
# ----------------------------------------------------------------------
def save_reports(path: Union[str, Path],
                 reports: Dict[str, RunReport]) -> Path:
    """Persist a bundle: ``.json`` stable text, anything else pickled."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        payload = {"version": REPORT_VERSION,
                   "reports": {label: report.to_dict()
                               for label, report in sorted(reports.items())}}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n")
    else:
        with open(path, "wb") as fh:
            pickle.dump({"version": REPORT_VERSION, "reports": reports},
                        fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_reports(path: Union[str, Path]) -> Dict[str, RunReport]:
    """Load a bundle saved by :func:`save_reports`.

    Raises :class:`~repro.errors.ExecutionError` (a ``ReproError``, so
    the CLI renders it as ``error: ...``) on missing or malformed files.
    """
    from ..errors import ExecutionError
    path = Path(path)
    try:
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            return {label: RunReport.from_dict(data)
                    for label, data in payload["reports"].items()}
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        return dict(payload["reports"])
    except FileNotFoundError:
        raise ExecutionError(f"no report bundle at {path} (save one with "
                             f"`psyncpim attrib --out` or `sweep "
                             f"--attrib-out`)")
    except (json.JSONDecodeError, pickle.UnpicklingError, KeyError,
            TypeError) as exc:
        raise ExecutionError(
            f"{path} is not a report bundle: {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def render_report(report: RunReport, max_lanes: int = 6) -> str:
    """Aligned-text tables: categories, channels, lanes, phases, path."""
    from ..analysis.report import format_table
    parts: List[str] = []
    head = (f"{report.label}: {report.total_cycles} cycles "
            f"({report.seconds * 1e6:.2f} us), {report.commands} commands, "
            f"{report.num_lanes} lanes")
    parts.append(head)

    device = report.device_cycles()
    fractions = report.fractions()
    mean = report.mean_cycles()
    parts.append(format_table(
        ["category", "cycles/lane", "share %"],
        [[name, f"{mean[name]:.0f}", f"{100 * fractions[name]:.1f}"]
         for name in report.categories],
        title="cycle attribution (per-lane mean; lanes sum bitwise to "
              "total)"))

    if len(report.channel_clock) > 1:
        rows = []
        for ch in sorted(report.channel_clock):
            clock = report.channel_clock[ch]
            rows.append([ch, clock, report.total_cycles - clock])
        parts.append(format_table(["channel", "cycles", "slack"],
                                  rows, title="channel clocks"))

    if report.lanes:
        order = sorted(range(len(report.lanes)),
                       key=lambda i: -(report.lane_cycles[i][0]
                                       + report.lane_cycles[i][1]))
        rows = []
        for i in order[:max_lanes]:
            ch, bank = report.lanes[i]
            vec = dict(zip(report.categories, report.lane_cycles[i]))
            rows.append([f"{ch}:{bank}", vec["compute"], vec["padding"],
                         vec["host"], vec["idle"]])
        parts.append(format_table(
            ["lane", "compute", "padding", "host", "idle"], rows,
            title=f"busiest lanes (top {min(max_lanes, len(rows))})"))

    if report.phases:
        whole = sum(report.phases.values())
        parts.append(format_table(
            ["phase", "cycles", "share %"],
            [[name, cycles, f"{100 * cycles / whole:.1f}" if whole else "0"]
             for name, cycles in sorted(report.phases.items(),
                                        key=lambda kv: -kv[1])],
            title="phase timeline (barrier cycles per phase)"))

    if report.critical_path:
        path = report.critical_path
        nodes = sorted(path["nodes"], key=lambda n: -n["duration"])[:5]
        parts.append(format_table(
            ["step", "cycles", "critical ch", "slack"],
            [[n["group"], n["duration"], n["critical_channel"],
              sum(n["slack"].values())] for n in nodes],
            title=(f"critical path: makespan {path['makespan']} vs "
                   f"modelled {path['modelled_cycles']} "
                   f"(slack {path['total_slack']})")))

    util = report.utilization
    if util:
        keys = [k for k in ("bus_utilisation", "row_buffer_locality",
                            "achieved_gops", "peak_gops",
                            "compute_efficiency") if k in util]
        if keys:
            parts.append("utilization: " + "  ".join(
                f"{k}={util[k]:.3f}" for k in keys))
    return "\n\n".join(parts)


def render_bundle_summary(reports: Dict[str, RunReport]) -> str:
    """One row per report: cycles plus the dominant categories."""
    from ..analysis.report import format_table
    rows = []
    for label in sorted(reports):
        report = reports[label]
        fr = report.fractions()
        top = sorted(fr.items(), key=lambda kv: -kv[1])[:3]
        rows.append([label, report.total_cycles,
                     " ".join(f"{n}:{100 * v:.0f}%" for n, v in top)])
    return format_table(["run", "cycles", "top categories"], rows,
                        title="attribution summary")


# ----------------------------------------------------------------------
# HTML rendering (self-contained single file)
# ----------------------------------------------------------------------
def render_html(reports: Dict[str, RunReport],
                title: str = "psyncpim cycle attribution") -> str:
    """A dependency-free HTML report: stacked bars + per-run tables."""
    esc = _html.escape
    out: List[str] = []
    out.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    out.append(f"<title>{esc(title)}</title><style>")
    out.append(
        "body{font-family:system-ui,sans-serif;margin:2em;color:#222}"
        "table{border-collapse:collapse;margin:0.6em 0}"
        "td,th{border:1px solid #ccc;padding:2px 8px;text-align:right}"
        "th{background:#f0f0f0}td:first-child,th:first-child"
        "{text-align:left}.bar{display:flex;height:22px;width:640px;"
        "border:1px solid #999;margin:4px 0}.bar div{height:100%}"
        ".legend span{display:inline-block;margin-right:1em}"
        ".legend i{display:inline-block;width:10px;height:10px;"
        "margin-right:4px}h2{margin-top:1.6em;border-bottom:1px solid "
        "#ddd}")
    out.append("</style></head><body>")
    out.append(f"<h1>{esc(title)}</h1>")
    out.append("<p class='legend'>" + "".join(
        f"<span><i style='background:{_COLOURS[name]}'></i>{name}</span>"
        for name in CATEGORIES) + "</p>")
    for label in sorted(reports):
        report = reports[label]
        out.append(f"<h2>{esc(label)}</h2>")
        out.append(
            f"<p>{report.total_cycles} cycles "
            f"({report.seconds * 1e6:.2f} &micro;s), "
            f"{report.commands} commands, {report.num_lanes} lanes, "
            f"matrix <b>{esc(report.matrix) or '-'}</b>, mode "
            f"{esc(report.mode)}, channels "
            f"{report.channels if report.channels else 'rep'}</p>")
        fractions = report.fractions()
        out.append("<div class='bar'>" + "".join(
            f"<div style='width:{100 * fractions[name]:.2f}%;"
            f"background:{_COLOURS[name]}' title='{name}: "
            f"{100 * fractions[name]:.1f}%'></div>"
            for name in report.categories if fractions[name] > 0)
            + "</div>")
        mean = report.mean_cycles()
        out.append("<table><tr><th>category</th>"
                   + "".join(f"<th>{n}</th>" for n in report.categories)
                   + "</tr><tr><td>cycles/lane</td>"
                   + "".join(f"<td>{mean[n]:.0f}</td>"
                             for n in report.categories)
                   + "</tr><tr><td>share</td>"
                   + "".join(f"<td>{100 * fractions[n]:.1f}%</td>"
                             for n in report.categories)
                   + "</tr></table>")
        if report.phases:
            out.append("<table><tr><th>phase</th><th>cycles</th></tr>"
                       + "".join(
                           f"<tr><td>{esc(k)}</td><td>{v}</td></tr>"
                           for k, v in sorted(report.phases.items(),
                                              key=lambda kv: -kv[1]))
                       + "</table>")
        if report.critical_path:
            path = report.critical_path
            out.append(
                f"<p>critical path: makespan <b>{path['makespan']}</b> "
                f"vs modelled {path['modelled_cycles']} (slack "
                f"{path['total_slack']})</p>")
    out.append("</body></html>")
    return "".join(out)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
@dataclass
class DiffEntry:
    """Cycle delta of one label present in both bundles."""

    label: str
    base_cycles: int
    new_cycles: int
    #: Per-lane mean category deltas (new - base), in cycles.
    category_delta: Dict[str, float]

    @property
    def delta(self) -> int:
        return self.new_cycles - self.base_cycles

    @property
    def ratio(self) -> float:
        return (self.new_cycles / self.base_cycles
                if self.base_cycles else float("inf"))

    @property
    def dominant_category(self) -> str:
        if not self.category_delta:
            return "-"
        return max(self.category_delta,
                   key=lambda name: abs(self.category_delta[name]))


@dataclass
class BundleDiff:
    """Label-by-label comparison of two RunReport bundles."""

    entries: List[DiffEntry]
    only_base: List[str]
    only_new: List[str]

    @property
    def total_base(self) -> int:
        return sum(e.base_cycles for e in self.entries)

    @property
    def total_new(self) -> int:
        return sum(e.new_cycles for e in self.entries)

    @property
    def total_delta(self) -> int:
        return self.total_new - self.total_base

    def category_delta(self) -> Dict[str, float]:
        """Summed per-lane-mean category deltas across all entries."""
        totals: Dict[str, float] = {}
        for entry in self.entries:
            for name, d in entry.category_delta.items():
                totals[name] = totals.get(name, 0.0) + d
        return totals

    @property
    def dominant_category(self) -> str:
        """The category whose cycle movement explains most of the delta."""
        totals = self.category_delta()
        if not totals:
            return "-"
        return max(totals, key=lambda name: abs(totals[name]))

    def regressions(self, top: int = 5) -> List[DiffEntry]:
        """Labels whose cycles grew the most, worst first."""
        worse = [e for e in self.entries if e.delta > 0]
        return sorted(worse, key=lambda e: -e.delta)[:top]

    def improvements(self, top: int = 5) -> List[DiffEntry]:
        better = [e for e in self.entries if e.delta < 0]
        return sorted(better, key=lambda e: e.delta)[:top]


def diff_reports(base: Dict[str, RunReport],
                 new: Dict[str, RunReport]) -> BundleDiff:
    """Compare two bundles; category deltas are per-lane means so runs
    with different lane counts (e.g. C=1 vs C=4) stay comparable."""
    entries: List[DiffEntry] = []
    for label in sorted(set(base) & set(new)):
        b, n = base[label], new[label]
        b_mean, n_mean = b.mean_cycles(), n.mean_cycles()
        names = sorted(set(b_mean) | set(n_mean))
        entries.append(DiffEntry(
            label=label, base_cycles=b.total_cycles,
            new_cycles=n.total_cycles,
            category_delta={name: n_mean.get(name, 0.0)
                            - b_mean.get(name, 0.0) for name in names}))
    return BundleDiff(entries=entries,
                      only_base=sorted(set(base) - set(new)),
                      only_new=sorted(set(new) - set(base)))


def render_diff(diff: BundleDiff, top: int = 5) -> str:
    """The ``psyncpim diff`` transcript."""
    from ..analysis.report import format_table
    parts: List[str] = []
    if not diff.entries:
        lines = ["no common labels to diff"]
        if diff.only_base:
            lines.append("only in base: " + ", ".join(diff.only_base))
        if diff.only_new:
            lines.append("only in new: " + ", ".join(diff.only_new))
        return "\n".join(lines)
    base, new = diff.total_base, diff.total_new
    pct = 100.0 * diff.total_delta / base if base else 0.0
    parts.append(f"run diff: {len(diff.entries)} run(s), total modelled "
                 f"cycles {base} -> {new} ({pct:+.1f}%)")
    totals = diff.category_delta()
    whole = sum(abs(v) for v in totals.values())
    parts.append(format_table(
        ["category", "delta cycles/lane", "share of movement %"],
        [[name, f"{totals[name]:+.0f}",
          f"{100 * abs(totals[name]) / whole:.1f}" if whole else "0"]
         for name in sorted(totals, key=lambda n: -abs(totals[n]))],
        title=f"dominant changed category: {diff.dominant_category}"))
    regressions = diff.regressions(top)
    if regressions:
        parts.append(format_table(
            ["run", "base", "new", "delta", "ratio", "dominant category"],
            [[e.label, e.base_cycles, e.new_cycles, f"{e.delta:+d}",
              f"{e.ratio:.3f}x", e.dominant_category]
             for e in regressions],
            title=f"top regressions (of {len(diff.entries)})"))
    improvements = diff.improvements(top)
    if improvements:
        parts.append(format_table(
            ["run", "base", "new", "delta", "ratio", "dominant category"],
            [[e.label, e.base_cycles, e.new_cycles, f"{e.delta:+d}",
              f"{e.ratio:.3f}x", e.dominant_category]
             for e in improvements],
            title="top improvements"))
    for name, labels in (("only in base", diff.only_base),
                         ("only in new", diff.only_new)):
        if labels:
            parts.append(f"{name}: " + ", ".join(labels))
    return "\n\n".join(parts)
