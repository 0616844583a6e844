"""Per-layer host time, measured from outside the library.

The traced run swaps each layer's public functions for timing wrappers
(every module of ``repro`` and of this benchmark that holds a reference
gets the wrapper) and puts the originals back afterwards, so nothing
inside ``src/`` carries a span and untraced runs pay nothing.

A span records its layer, start, end and parent. A layer's *self* time is
its spans' durations minus the part covered by child spans; nested calls
of one layer (``spmm_ab_trace`` -> ``spmm_ab_segments``) stay inside that
layer. Op time no layer covers is ``unattributed``. Counts come from the
objects the outermost call of a layer returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One public function (``module``, ``Class.method`` or ``name``)."""

    module: str
    attr: str
    count: Optional[Callable[["Totals", Any, "Span"], None]] = None
    #: The ROADMAP plans to delete it (SpMV is SpMM at k = 1): wrap it
    #: while it exists, skip it once it is gone.
    optional: bool = False


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]


class Totals:
    """Counts gathered at the layer boundaries during traced ops."""

    def __init__(self) -> None:
        self.tiles = 0
        self.rounds = 0
        self.imbalance: List[float] = []
        self.entries = 0
        self.commands = 0
        self.tunes = 0
        self.tune_misses = 0
        self.levels = 0
        self.cache_hits = 0
        self.cache_misses = 0


def _tiles(t: Totals, plan, span) -> None:
    t.tiles += len(plan.tiles)


def _layout(t: Totals, assignment, span) -> None:
    t.rounds += assignment.num_rounds
    t.imbalance.append(float(assignment.imbalance))


def _tune(t: Totals, result, span) -> None:
    # A memo hit returns without planning a single strategy.
    t.tunes += 1
    t.tune_misses += span.children > 0


def _entries(t: Totals, trace, span) -> None:
    t.entries += len(getattr(trace, "trace", trace))


def _commands(t: Totals, report, span) -> None:
    t.commands += report.commands


def _levels(t: Totals, result, span) -> None:
    t.levels += result.execution.num_levels


def _sweep(t: Totals, result, span) -> None:
    for record in result.records:
        t.cache_hits += record.cache_hits
        t.cache_misses += record.cache_misses


def _synthesisers(kernel: str, modes: Tuple[str, ...],
                  optional: bool = False) -> Tuple[Target, ...]:
    return tuple(Target("repro.core.trace", f"{kernel}_{mode}_{form}",
                        _entries, optional)
                 for mode in modes for form in ("trace", "segments"))


#: Layers in pipeline order, named by module.
LAYERS: Tuple[Layer, ...] = (
    Layer("formats.generate", (Target("repro.formats.suite", "generate"),)),
    Layer("core.strategies.tune",
          (Target("repro.core.strategies", "tune_strategy", _tune),)),
    Layer("core.partition.partition",
          (Target("repro.core.partition", "partition", _tiles),)),
    Layer("core.distribution.distribute",
          (Target("repro.core.distribution", "distribute", _layout),
           Target("repro.core.distribution", "shard_channels", _layout))),
    Layer("core.spmv.plan", (Target("repro.core.spmv", "plan_spmv"),
                             Target("repro.core.spmm", "plan_spmm"))),
    Layer("core.execute", (Target("repro.core.spmv", "run_spmv"),
                           Target("repro.core.spmm", "run_spmm"),
                           Target("repro.core.sptrsv", "run_sptrsv",
                                  _levels))),
    Layer("core.sptrsv.ildu", (Target("repro.core.sptrsv", "ildu"),)),
    Layer("core.trace.synthesize",
          _synthesisers("spmv", ("ab", "pb", "channels"), optional=True)
          + _synthesisers("spmm", ("ab", "pb", "channels"))
          + _synthesisers("sptrsv", ("ab", "channels"))),
    Layer("dram.price", (Target("repro.core.timing", "price_trace",
                                _commands),
                         Target("repro.dram.controller",
                                "MemoryController.run"))),
    Layer("obs.attrib.attribute",
          (Target("repro.obs.attrib", "attribute_trace"),
           Target("repro.obs.attrib", "attribute_spmv", optional=True),
           Target("repro.obs.attrib", "attribute_spmm"),
           Target("repro.obs.attrib", "attribute_sptrsv"))),
    Layer("obs.report.build",
          (Target("repro.obs.report", "build_run_report"),)),
    Layer("sweep.job", (Target("repro.sweep.runner", "run_sweep", _sweep),
                        Target("repro.sweep.runner", "execute_job"))),
    Layer("sweep.cache.load",
          (Target("repro.sweep.cache", "ArtifactCache.load"),)),
)

OP = "op"


class Span:
    __slots__ = ("layer", "parent", "start", "end", "child_time",
                 "children")

    def __init__(self, layer: str, parent: Optional["Span"]) -> None:
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.children = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Spans of the traced ops, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals = Totals()
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------
    def _open(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
            span.parent.children += 1

    def reset(self) -> None:
        self.spans.clear()
        self.totals = Totals()

    def op(self, call: Callable[[], Any], root: str = OP) -> Any:
        """Run one op (or other host work, named *root*) as a root span."""
        span = self._open(root)
        try:
            return call()
        finally:
            self._close(span)

    def _wrap(self, layer: str, fn: Callable, count) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: not measured
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None and span.parent.layer != layer:
                count(self.totals, result, span)
            return result
        return traced

    # -- installing ----------------------------------------------------
    def install(self) -> Callable[[], None]:
        """Swap every layer function for its wrapper; returns the undo."""
        wrappers: Dict[int, Tuple[Any, Callable]] = {}
        undo: List[Tuple[Any, str, Any]] = []
        for layer in LAYERS:
            for target in layer.targets:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.attr.rpartition(".")
                if target.optional and not hasattr(module, attr):
                    continue
                if owner_name:  # a method: patch the class
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr,
                            self._wrap(layer.name, original, target.count))
                    continue
                original = getattr(module, attr)
                wrappers[id(original)] = (
                    original, self._wrap(layer.name, original,
                                         target.count))
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")
                    or name.startswith("perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore

    # -- reading -------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``op`` time no layer covers."""
        seconds = {layer.name: 0.0 for layer in LAYERS}
        seconds[OP] = 0.0
        for span in self.spans:
            seconds[span.layer] = seconds.get(span.layer, 0.0) \
                + span.self_time
        return seconds

    def op_seconds(self) -> float:
        return sum(span.duration for span in self.spans
                   if span.layer == OP)
