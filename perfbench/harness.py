"""Set-up, the timed loop and the metrics of one benchmark run."""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import hostspeed
from perfbench.tracer import LAYERS, OP, Tracer
from perfbench.workloads import (CATEGORIES, WORKLOADS, Op, Outcome,
                                 Workload)

#: Timed ops a run holds at least, so that ten or more lie beyond p90.
MIN_OPS = 100
#: Input set-ups per run; ``setup_s`` counts their median.
SETUP_REPEATS = 3
#: Root span of host work outside the ops (ILDU in set-up).
SETUP = "setup"

END_TO_END_UNITS = {
    "nnz_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "device_cycles": "cycles", "device_energy_uj": "uJ",
}


def _failed(op: Op, exc: Exception) -> Outcome:
    return Outcome(ok=False,
                   failure=f"{op.label}: {type(exc).__name__}: {exc}")


class Pass:
    """Latencies and outcomes of one pass over the op list."""

    def __init__(self, ops: List[Op], tracer: Optional[Tracer] = None):
        self.ops = ops
        self.traced = tracer is not None
        #: Host-speed factor of the pass (see :mod:`perfbench.hostspeed`).
        self.scale = 1.0
        self.seconds: List[float] = []
        self.outcomes: List[Outcome] = []
        for op in ops:
            start = perf_counter()
            try:
                out = tracer.op(op.call) if tracer else op.call()
            except Exception as exc:  # a raising op is a failed op
                self.seconds.append(perf_counter() - start)
                self.outcomes.append(_failed(op, exc))
                continue
            self.seconds.append(perf_counter() - start)
            try:
                self.outcomes.append(op.check(out))
            except Exception as exc:  # so is one whose check raises
                self.outcomes.append(_failed(op, exc))

    @property
    def work(self) -> int:
        return sum(op.work for op in self.ops)

    def rate(self, scaled: bool = True) -> float:
        """Work completed per second of op time."""
        return self.work / sum(self.op_seconds(scaled))

    def op_seconds(self, scaled: bool = True) -> List[float]:
        """Op latencies, by default scaled to the nominal host speed."""
        scale = self.scale if scaled else 1.0
        return [s * scale for s in self.seconds]


def _setup(workload: Workload, start: float
           ) -> Tuple[Dict[str, float], Pass, float]:
    """``setup_s`` in parts (imports, median input set-up, warm-up pass)
    and its host-speed factor, from probes before and after it."""
    parts = {"imports": perf_counter() - start}
    before = hostspeed.probe()
    inputs = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        workload.build_inputs()
        inputs.append(perf_counter() - began)
    parts[f"inputs (median of {SETUP_REPEATS})"] = statistics.median(inputs)
    began = perf_counter()
    warm = Pass(workload.pass_ops(0))
    parts["warm-up pass"] = perf_counter() - began
    after = hostspeed.probe()
    return parts, warm, 2 * hostspeed.NOMINAL_S / (before + after)


def _measure(workload: Workload, seconds: float,
             tracer: Optional[Tracer]) -> List[Pass]:
    """Whole passes, in run order, until *seconds* and ``MIN_OPS``.

    With a *tracer*, passes alternate untraced / traced (the tracer is
    installed only around traced passes). The host-speed probe runs
    before the first pass and after every pass.
    """
    passes: List[Pass] = []
    began = perf_counter()
    index = 1
    before = hostspeed.probe()
    while True:
        ops = workload.pass_ops(index)
        if tracer is not None and index % 2 == 0:
            restore = tracer.install()
            try:
                passes.append(Pass(ops, tracer))
            finally:
                restore()
        else:
            passes.append(Pass(ops))
        after = hostspeed.probe()
        passes[-1].scale = 2 * hostspeed.NOMINAL_S / (before + after)
        before = after
        index += 1
        timed = sum(len(p.ops) for p in passes)
        if perf_counter() - began >= seconds and timed >= MIN_OPS \
                and (tracer is None or len(passes) >= 2):
            return passes


def _simulated(passes: List[Pass]) -> List[Pass]:
    """The passes the simulated metrics average over.

    The first ``ceil(MIN_OPS / ops per pass)`` passes: every run has them,
    so the figures repeat exactly for a seed even though the number of
    passes a run holds depends on host speed. They are one pass's worth
    of simulated work (passes repeat their inputs), except on
    spmm-k4-16ch-auto, whose passes draw fresh matrix instances.
    """
    return passes[:math.ceil(MIN_OPS / len(passes[0].ops))]


def _host_times(passes: List[Pass], scaled: bool) -> Dict[str, float]:
    """Throughput and latencies, each a median over the run.

    p50 is the median over passes of each pass's median op: a pass's
    op mix is fixed, so its median always falls between the same two
    matrices, and the median over passes keeps bursts out. (The median
    over all ops is the mean of the slowest run of one matrix and the
    fastest of the next, two extremes.) p90 needs ten ops beyond it, so
    it is taken over every op of the run.
    """
    seconds = [s for p in passes for s in p.op_seconds(scaled)]
    return {
        "nnz_per_s": statistics.median(p.rate(scaled) for p in passes),
        "op_p50_ms": statistics.median(
            statistics.median(p.op_seconds(scaled)) for p in passes) * 1e3,
        "op_p90_ms": statistics.quantiles(seconds, n=10)[8] * 1e3,
    }


def _end_to_end(passes: List[Pass], setup_s: float) -> Dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    simulated = _simulated(passes)
    sim_outcomes = [o for p in simulated for o in p.outcomes]
    return {
        **_host_times(passes, scaled=True),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        "device_cycles": sum(o.cycles for o in sim_outcomes)
        / len(simulated),
        "device_energy_uj": sum(o.energy_pj for o in sim_outcomes)
        / len(simulated) / 1e6,
    }


def _per_layer(workload: Workload, tracer: Tracer, passes: List[Pass],
               ildu: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    npass = len(traced)
    ops = sum(len(p.ops) for p in traced)
    layer_s = tracer.layer_seconds()
    op_s = tracer.op_seconds()
    pass_s = op_s / npass
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        if layer.name in ildu:  # set-up work: once per set of factors
            seconds = ildu[layer.name]
        else:
            seconds = layer_s[layer.name] / npass
        out[f"{layer.name}_s"] = (seconds, "s")
        out[f"{layer.name}_share"] = (seconds / pass_s, "ratio")
    t = tracer.totals
    price_s = layer_s["dram.price"]
    hits, misses = t.cache_hits, t.cache_misses
    out.update({
        "core.partition.tiles": (t.tiles / npass, "count"),
        "core.distribution.rounds": (t.rounds / npass, "count"),
        "core.distribution.imbalance": (
            statistics.fmean(t.imbalance) if t.imbalance else 0.0,
            "ratio"),
        "core.strategies.tunes": (t.tune_misses / ops, "ratio"),
        "core.sptrsv.levels": (t.levels / npass, "count"),
        "core.trace.entries": (t.entries / npass, "count"),
        "core.trace.commands": (t.commands / npass, "count"),
        "dram.commands_per_s": (t.commands / price_s if price_s else 0.0,
                                "1/s"),
        "obs.attrib.overhead": (
            layer_s["obs.attrib.attribute"] / price_s if price_s else 0.0,
            "ratio"),
        "sweep.cache.hits": (hits / npass, "count"),
        "sweep.cache.misses": (misses / npass, "count"),
        "sweep.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sweep.cache.mb": (workload.cache_mb(), "MB"),
    })
    device = {c: 0 for c in CATEGORIES}
    simulated = _simulated(passes)
    for outcome in (o for p in simulated for o in p.outcomes):
        for category, cycles in outcome.device.items():
            device[category] += cycles
    for category in CATEGORIES:
        out[f"device.{category}_cycles"] = (
            device[category] / len(simulated), "cycles")
    out["unattributed_share"] = (layer_s[OP] / op_s, "ratio")
    plain_s = sum(s for p in plain for s in p.seconds) / len(plain)
    out["trace.overhead"] = (pass_s / plain_s, "ratio")
    return out


def _table(title: str, rows: List[Tuple[str, str, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    lines = [title] + [f"  {name:<{width}}  {value:>14}  {unit}"
                       for name, value, unit in rows]
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        start: float) -> Tuple[dict, str]:
    """One workload run; returns the result object and a readable table."""
    workload = WORKLOADS[name](seed, root)
    try:
        setup, warm, setup_scale = _setup(workload, start)
        setup_s = sum(setup.values()) * setup_scale
        tracer = Tracer() if trace else None
        ildu: Dict[str, float] = {}
        if tracer is not None:
            restore = tracer.install()
            try:
                tracer.op(workload.factorize, root=SETUP)
            finally:
                restore()
            ildu["core.sptrsv.ildu"] = \
                tracer.layer_seconds()["core.sptrsv.ildu"]
            tracer.reset()
        passes = _measure(workload, seconds, tracer)
        outcomes = [o for p in passes for o in p.outcomes]
        failed = sum(not o.ok for o in outcomes)
        correct = failed == 0 and all(o.ok for o in warm.outcomes)
        if trace:
            metrics = _per_layer(workload, tracer, passes, ildu)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in _end_to_end(passes, setup_s).items()}
        errors = workload.paper_errors(passes[0].outcomes)
    finally:
        workload.close()

    rows = [(k, _fmt(v), u) for k, (v, u) in metrics.items()]
    notes = [
        ("ops timed", str(len(outcomes)), f"in {len(passes)} passes of "
                                          f"{len(passes[0].ops)}"),
        ("ops failed", str(failed), ""),
    ] + [(f"setup: {part}", _fmt(value), "s")
         for part, value in setup.items()]
    if not trace:
        notes.append(("host-speed scale", _fmt(statistics.median(
            p.scale for p in passes)), "median over passes"))
        notes.append(("host-speed scale, set-up", _fmt(setup_scale), ""))
        notes.append(("raw setup_s", _fmt(sum(setup.values())), "s"))
        notes += [(f"raw {k}", _fmt(v), END_TO_END_UNITS[k])
                  for k, v in _host_times(passes, scaled=False).items()]
    for key, value in errors.items():
        notes.append((key, "unvalidated" if value is None else _fmt(value),
                      "simulated, |measured/paper - 1|"))
    if trace:
        shares = sorted(((v, k[:-len("_share")]) for k, (v, _) in
                         metrics.items() if k.endswith("_share")),
                        reverse=True)
        for rank, (share, layer) in enumerate(shares[:3], 1):
            notes.append((f"rank {rank}", layer, f"{share:.1%} of op time"))
    failures = sorted({o.failure for o in outcomes + warm.outcomes
                       if not o.ok})
    text = "\n".join([
        _table(f"{name} (seed {seed}, "
               f"{'per-layer, traced' if trace else 'end-to-end'})", rows),
        _table("notes", notes),
    ] + [f"FAILED: {f}" for f in failures[:5]])
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, text
