"""The human-readable profile report behind ``psyncpim profile``.

Renders one metrics dump (see :func:`repro.obs.export.metrics_dict`) into
the tables the paper's evaluation sections reason with:

* **per-phase** — where the host-side wall-clock went (planner phases,
  engine rounds, sweep jobs), with call counts, totals and self time;
* **DRAM** — command mix, row-buffer hit/miss and the per-tag cycle
  attribution of the scheduled traces;
* **energy** — the pJ breakdown by source when energy pricing ran.

Rendering reuses :func:`repro.analysis.format_table` so profile output
lines up visually with every other report the toolkit prints.

Device time per channel and per lane is reported by ``psyncpim attrib``
and ``--attrib`` (:mod:`repro.obs.attrib`), not here.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis.report import format_table


def render_profile(metrics: Dict[str, Any]) -> str:
    """Render a full profile report from one metrics dump."""
    counters = metrics.get("counters", {})
    sections = [_render_spans(metrics.get("spans", {})),
                _render_dram(counters), _render_energy(counters),
                _render_counters(counters, metrics.get("gauges", {}))]
    return "\n\n".join(section for section in sections if section)


# ----------------------------------------------------------------------
def _render_spans(spans: Dict[str, Dict[str, float]]) -> str:
    if not spans:
        return ("no spans recorded "
                "(run with PSYNCPIM_OBS=1 to collect phase timings)")
    total = sum(entry["self_s"] for entry in spans.values())
    rows: List[List[Any]] = []
    ordered = sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])
    for name, entry in ordered:
        share = 100.0 * entry["self_s"] / total if total else 0.0
        rows.append([name, entry.get("cat", ""), int(entry["calls"]),
                     entry["total_s"] * 1e3, entry["self_s"] * 1e3,
                     entry["mean_s"] * 1e3, f"{share:.1f}"])
    return format_table(
        ["phase", "cat", "calls", "total (ms)", "self (ms)",
         "mean (ms)", "self %"], rows,
        title="per-phase timings")


def _render_dram(counters: Dict[str, float]) -> str:
    mix = {name[len("dram.cmd."):]: value
           for name, value in counters.items()
           if name.startswith("dram.cmd.") and value}
    if not mix:
        return ""
    total = sum(mix.values())
    rows = [[kind, int(count), f"{100.0 * count / total:.1f}"]
            for kind, count in sorted(mix.items(), key=lambda kv: -kv[1])]
    hits = counters.get("dram.row_hits", 0.0)
    misses = counters.get("dram.row_misses", 0.0)
    accesses = hits + misses
    locality = 100.0 * hits / accesses if accesses else 0.0
    title = (f"DRAM command mix ({int(total)} commands, "
             f"{int(counters.get('dram.cycles', 0))} cycles, "
             f"row-buffer hit rate {locality:.1f}%)")
    table = format_table(["command", "count", "share %"], rows,
                         title=title)
    tags = {name[len("dram.tag_cycles."):]: value
            for name, value in counters.items()
            if name.startswith("dram.tag_cycles.") and value}
    if tags:
        tag_total = sum(tags.values())
        tag_rows = [[tag, int(cycles),
                     f"{100.0 * cycles / tag_total:.1f}"]
                    for tag, cycles in sorted(tags.items(),
                                              key=lambda kv: -kv[1])]
        table += "\n\n" + format_table(
            ["tag", "cycles", "share %"], tag_rows,
            title="cycle attribution by command tag")
    return table


def _render_energy(counters: Dict[str, float]) -> str:
    energy = {name[len("energy."):-3]: value
              for name, value in counters.items()
              if name.startswith("energy.") and name.endswith("_pj")
              and value and name != "energy.total_pj"}
    if not energy:
        return ""
    total = sum(energy.values())
    rows = [[source, value * 1e-6, f"{100.0 * value / total:.1f}"]
            for source, value in sorted(energy.items(),
                                        key=lambda kv: -kv[1])]
    return format_table(["source", "energy (uJ)", "share %"], rows,
                        title=f"energy breakdown ({total * 1e-6:.2f} uJ)")


_SHOWN_PREFIXES = ("dram.cmd.", "dram.tag_cycles.", "energy.")


def _render_counters(counters: Dict[str, float],
                     gauges: Dict[str, float]) -> str:
    rows: List[List[Any]] = []
    for name in sorted(counters):
        if name.startswith(_SHOWN_PREFIXES):
            continue
        rows.append([name, counters[name]])
    for name in sorted(gauges):
        rows.append([f"{name} (gauge)", gauges[name]])
    if not rows:
        return ""
    return format_table(["metric", "value"], rows, title="other metrics")


__all__ = ["render_profile"]
