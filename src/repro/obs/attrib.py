"""Cycle attribution: decompose every modelled cycle on every lane.

The scheduler (:mod:`repro.dram`) prices a command trace into one number
per channel; this module answers *where those cycles went*. Every device
cycle on every (channel, bank) lane is assigned to exactly one of the
:data:`CATEGORIES` — the taxonomy is **exclusive and exhaustive**, so the
per-lane category cycles sum bitwise to the schedule's ``total_cycles``
(and device-wide to ``lanes x total_cycles``). That hard invariant is what
makes category deltas between two runs trustworthy: a cycle cannot be
double-counted into two buckets or silently dropped from all of them.

Attribution is **charged in the one scheduling pass**: with a
:class:`AttributionCollector` attached (``MemoryController.run(...,
collector=...)``), each channel's scheduler charges every issue-to-issue
gap of the expansion to a per-lane vector of its
:class:`ChannelCharges` record where it already charges tags: in a row
visit's stretch loop, once per sweep anchor bank and once per run of
closed-form sweep banks, and in the controller's walk for every plain
command. The scheduler learns no category names: the record hands it
lane vectors and a tag -> category map as data, and keeps the stall-debt
and inserted-refresh split below. Issue decisions are never consulted or
altered, so pricing with and without a collector is bitwise identical,
and :meth:`AttributionCollector.finalize` only assembles the lanes.

Exactness bookkeeping, per channel:

* every gap of the expansion (a command's issue cycle minus the one
  before it) is split into (1) stall cycles of earlier commands whose
  occupancy outlives their issue cycle (a mode switch blocks both buses
  for ``mode_switch_cycles``, charged to ``seam`` as it issues since the
  next command waits them out; a refresh blocks every bank for
  ``tRFC``, owed and paid out of later gaps), (2) cycles of silently
  inserted deferred refreshes (visible as jumps in the channel's refresh
  counter), and (3) the command's own category; the owed cycles and (2)
  are :meth:`ChannelCharges.settle`, which runs only while debt is owed
  or the refresh count moved;
* all-bank scope (AB/MODE/REF commands) applies to every bank of the
  channel; single-bank scope applies to the addressed bank only, with the
  same cycles surfacing as ``idle`` on the channel's other banks;
* each lane additionally absorbs the channel's barrier tail
  (``total_cycles - channel_cycles``) as ``idle``.

Lock-step ``padding`` is split out of ``compute`` after the fact from the
execution record (a bank's useful share of the broadcast stream); the
split preserves the per-lane sum by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dram.commands import HOST_TAGS, Command, CommandType
from ..errors import ExecutionError

#: Exclusive, exhaustive cycle categories, in reporting order.
CATEGORIES: Tuple[str, ...] = (
    "compute",   # AB-PIM broadcast beats doing useful element work
    "padding",   # lock-step share of the broadcast spent on shorter lanes
    "seam",      # SB<->AB<->AB-PIM mode switches + kernel programming
    "row",       # ACT/PRE row activates, precharges and their stalls
    "refresh",   # explicit and controller-inserted all-bank refresh
    "host",      # SB staging/merging and solved-value broadcast traffic
    "idle",      # barrier slack: channel tail + single-bank shadow idling
)
NCAT = len(CATEGORIES)
C_COMPUTE, C_PADDING, C_SEAM, C_ROW, C_REFRESH, C_HOST, C_IDLE = range(NCAT)

#: Bump when the taxonomy or bookkeeping changes (keys cached RunReports).
ATTRIB_VERSION = 1

# Enum members read through the class cost a lookup each; charging reads
# these two per plain command.
_MODE, _REF = CommandType.MODE, CommandType.REF


def category_of(command: Command) -> int:
    """Exclusive category index of one command's bus/bank occupancy."""
    kind = command.kind
    if kind is _MODE:
        return C_SEAM
    if kind is _REF:
        return C_REFRESH
    if kind.is_row:
        return C_ROW
    return _column_category(command.tag)


def _column_category(tag: Optional[str]) -> int:
    """Category of a column command carrying *tag*."""
    if tag in HOST_TAGS:
        return C_HOST
    if tag == "program":
        return C_SEAM
    return C_COMPUTE


# ----------------------------------------------------------------------
# the attribution result
# ----------------------------------------------------------------------
@dataclass
class Attribution:
    """Per-lane category cycles of one scheduled trace.

    ``lane_cycles[(channel, bank)]`` is a length-:data:`NCAT` vector in
    :data:`CATEGORIES` order; every vector sums to ``total_cycles``
    (checked by :meth:`check`). ``segment_cycles`` maps each timeline
    segment label to per-channel ``(start, end)`` scheduler cycles when
    the trace was synthesised with segments.
    """

    categories: Tuple[str, ...]
    channels: List[int]
    banks_per_channel: int
    total_cycles: int
    lane_cycles: Dict[Tuple[int, int], List[int]]
    #: Per-channel clock at the last issued command (the channel's own
    #: schedule length; ``total_cycles`` is the max over these).
    channel_clock: Dict[int, int] = field(default_factory=dict)
    segment_cycles: Optional[Dict[str, Dict[int, Tuple[int, int]]]] = None

    @property
    def num_lanes(self) -> int:
        return len(self.lane_cycles)

    def device_cycles(self) -> Dict[str, int]:
        """Category cycles summed over every lane (unit: lane-cycles)."""
        totals = [0] * NCAT
        for vec in self.lane_cycles.values():
            for i in range(NCAT):
                totals[i] += vec[i]
        return dict(zip(self.categories, totals))

    def channel_cycles(self, channel: int) -> Dict[str, int]:
        """Category cycles summed over one channel's banks."""
        totals = [0] * NCAT
        for (ch, _bank), vec in self.lane_cycles.items():
            if ch == channel:
                for i in range(NCAT):
                    totals[i] += vec[i]
        return dict(zip(self.categories, totals))

    def lane(self, channel: int, bank: int) -> Dict[str, int]:
        """One lane's category cycles as a name-keyed dict."""
        return dict(zip(self.categories,
                        self.lane_cycles[(channel, bank)]))

    def fractions(self) -> Dict[str, float]:
        """Device-wide category shares (sum to 1.0 on non-empty runs)."""
        device = self.device_cycles()
        whole = sum(device.values())
        if whole <= 0:
            return {name: 0.0 for name in self.categories}
        return {name: cycles / whole for name, cycles in device.items()}

    def check(self) -> None:
        """Raise unless every lane's categories sum to ``total_cycles``."""
        for (ch, bank), vec in self.lane_cycles.items():
            got = sum(vec)
            if got != self.total_cycles:
                raise ExecutionError(
                    f"attribution broke sum-to-total on lane "
                    f"(ch={ch}, bank={bank}): {got} != "
                    f"{self.total_cycles}")
            if min(vec) < 0:
                raise ExecutionError(
                    f"negative category cycles on lane "
                    f"(ch={ch}, bank={bank}): {vec}")


# ----------------------------------------------------------------------
# the collector
# ----------------------------------------------------------------------
class _ColumnCategories(dict):
    """Tag -> category index of a column command, filled on first use."""

    def __missing__(self, tag: Optional[str]) -> int:
        cat = self[tag] = _column_category(tag)
        return cat


class ChannelCharges:
    """One channel's category cycles, charged as its scheduler prices.

    The scheduler charges each gap of the expansion, from ``clock`` (the
    cycle the channel is charged through) on, to a lane vector:
    ``shared`` for all-bank scope (every lane of the channel),
    ``own[bank]`` for single-bank scope, and ``runs``, a per-bank
    difference array, for a run of closed-form sweep banks (a vector at
    ``lo`` applies to banks ``lo`` and up, cancelled at ``hi``). It
    indexes them with ``row`` and ``column[tag]``, so it learns no
    category names, and moves ``clock`` to the entry's last cycle.

    This record keeps the stall split. A ``MODE`` holds both buses for
    ``mode_switch_cycles`` past its issue cycle, and the channel's next
    command waits them out, so :meth:`charge` lands them on ``seam`` at
    once and moves ``clock`` past them. A ``REF`` blocks every bank for
    ``tRFC``, but a ``MODE`` may issue under it, so its ``owed`` cycles
    are paid out of later gaps. Only while ``owed`` is non-zero or the
    channel's refresh count moved past ``refreshes`` does a gap go
    through :meth:`settle` first.
    """

    __slots__ = ("shared", "own", "runs", "row", "column", "clock", "owed",
                 "refreshes", "_trfc", "_mode")

    def __init__(self, banks: int, column: Dict[Optional[str], int],
                 trfc: int, mode_switch_cycles: int) -> None:
        self.shared = [0] * NCAT
        self.own = [[0] * NCAT for _ in range(banks)]
        self.runs = [[0] * NCAT for _ in range(banks + 1)]
        self.row = C_ROW
        self.column = column
        self.clock = 0
        #: Refresh-blocking cycles of explicit REFs not yet paid.
        self.owed = 0
        #: The channel's refresh count at the last settled gap.
        self.refreshes = 0
        self._trfc = trfc
        self._mode = mode_switch_cycles

    def settle(self, gap: int, refreshes: int) -> int:
        """Charge owed cycles and inserted refreshes out of *gap*, on
        the all-bank lane's ``refresh``; return what is left for the
        command itself. Refreshes the scheduler inserted show as a jump
        in *refreshes*, each worth at most ``tRFC`` of the gap.
        """
        part = self.owed if self.owed < gap else gap
        self.owed -= part
        inserted = refreshes - self.refreshes
        if inserted:
            self.refreshes = refreshes
            part += min(gap - part, inserted * self._trfc)
        self.shared[C_REFRESH] += part
        return gap - part

    def charge(self, command: Command, cycle: int, refreshes: int) -> None:
        """Charge a plain command that issued at *cycle*."""
        gap = cycle - self.clock
        if self.owed or refreshes != self.refreshes:
            gap = self.settle(gap, refreshes)
        kind = command.kind
        if kind is _MODE:
            hold = self._mode
            self.shared[C_SEAM] += gap + hold
            self.clock = cycle + hold
            return
        if kind is _REF:
            self.owed += self._trfc
        self.clock = cycle
        lane = self.shared if kind.is_all_bank else self.own[command.bank]
        lane[category_of(command)] += gap

    def close(self, now: int) -> None:
        """End the channel at its last issue cycle *now*: the bus hold
        of a final ``MODE`` lies past the schedule and is taken back."""
        self.shared[C_SEAM] -= self.clock - now
        self.clock = now


class AttributionCollector:
    """Per-lane category charges of one ``MemoryController.run``.

    Construct with the run's timing constants, pass as
    ``collector=`` to :func:`repro.core.timing.price_trace` (or
    ``MemoryController.run`` directly), then :meth:`finalize` into an
    :class:`Attribution`. The controller asks :meth:`channel_charges`
    for each channel's :class:`ChannelCharges` and hands it to that
    channel's scheduler, which charges it as it prices; the collector
    holds O(channels x banks) numbers whatever the trace length.
    ``capture_entries=True`` additionally records the channel clock
    after every entry so segment timelines and the critical path can be
    reconstructed.
    """

    def __init__(self, trfc: int, mode_switch_cycles: int,
                 capture_entries: bool = False) -> None:
        self.trfc = trfc
        self.mode_switch_cycles = mode_switch_cycles
        self._column = _ColumnCategories()
        self._channels: Dict[int, ChannelCharges] = {}
        self.entry_cycles: Optional[List[int]] = (
            [] if capture_entries else None)

    def channel_charges(self, channel: int, banks: int) -> ChannelCharges:
        """A fresh charge record for *channel*'s *banks* lanes."""
        charges = self._channels[channel] = ChannelCharges(
            banks, self._column, self.trfc, self.mode_switch_cycles)
        return charges

    def finalize(self, banks_per_channel: int,
                 useful_loads: Optional[
                     Dict[int, Tuple[Sequence[float], float]]] = None,
                 segments: Optional[Sequence] = None,
                 total_cycles: Optional[int] = None) -> Attribution:
        """Assemble the charges into per-lane category vectors.

        A channel's clock is the sum of its charges, as every gap up to
        its last issue cycle was charged once; ``total_cycles``
        cross-checks it (defaults to the max over channel clocks).
        ``useful_loads`` maps channel ->
        (per-bank useful elements, lock-step stream length) and drives
        the padding split. ``segments`` are the trace's
        :class:`~repro.core.trace.TraceSegment` list when entry cycles
        were captured.
        """
        records = sorted(self._channels.items())
        for ch, charges in records:
            if len(charges.own) != banks_per_channel:
                raise ExecutionError(
                    f"collector charged {len(charges.own)} banks on "
                    f"channel {ch}, caller says {banks_per_channel}")
        channels = [ch for ch, _ in records] or [0]
        # (channel, bank, category) cycles: each bank's own charges with
        # the follower runs summed in, plus the shared ones.
        if records:
            own = _stack([c.own for _, c in records])
            own += _stack([c.runs for _, c in records]).cumsum(axis=1)[:, :-1]
            shared = np.array([c.shared for _, c in records])[:, None]
        else:  # nothing was priced: one idle channel
            own = np.zeros((1, banks_per_channel, NCAT), np.int64)
            shared = np.zeros((1, 1, NCAT), np.int64)
        own_sums = own.sum(axis=2)
        clocks = shared.sum(axis=(1, 2)) + own_sums.sum(axis=1)
        clock = {ch: c for (ch, _), c in zip(records, clocks.tolist())}
        observed = max(clock.values()) if clock else 0
        if total_cycles is None:
            total_cycles = observed
        elif total_cycles != observed:
            raise ExecutionError(
                f"collector saw a different schedule: observed "
                f"{observed} cycles, caller says {total_cycles}")
        lanes = own + shared
        # barrier tail + the shadow of other banks' SB traffic
        lanes[:, :, C_IDLE] += ((total_cycles - clocks
                                 + own_sums.sum(axis=1))[:, None]
                                - own_sums)
        if useful_loads:
            _split_padding(lanes, channels, useful_loads)
        lane_cycles = {(ch, bank): vec
                       for ch, rows in zip(channels, lanes.tolist())
                       for bank, vec in enumerate(rows)}
        attribution = Attribution(
            categories=CATEGORIES, channels=channels,
            banks_per_channel=banks_per_channel,
            total_cycles=total_cycles, lane_cycles=lane_cycles,
            channel_clock=clock)
        if segments is not None and self.entry_cycles is not None:
            attribution.segment_cycles = _segment_cycles(
                segments, self.entry_cycles)
        attribution.check()
        return attribution


def _stack(vectors: List[List[List[int]]]) -> np.ndarray:
    """Per-channel lists of category vectors as one (channel, lane,
    category) array (flattened first: far cheaper than nested lists)."""
    flat = itertools.chain.from_iterable
    cells = np.fromiter(flat(flat(vectors)), np.int64)
    return cells.reshape(len(vectors), -1, NCAT)


def _split_padding(lanes: np.ndarray, channels: List[int],
                   useful_loads: Dict[int, Tuple[Sequence[float], float]]
                   ) -> None:
    """Move each lane's lock-step waste from ``compute`` to ``padding``.

    A bank in the broadcast group streams the round maximum regardless of
    its own element count; its padding share is ``1 - own/lockstep`` of
    the compute cycles (a bank past the given loads has none of its own).
    The move preserves the lane sum exactly. *lanes* is the
    ``(channel, bank, category)`` array of *channels*.
    """
    banks = lanes.shape[1]
    index = {ch: i for i, ch in enumerate(channels)}
    waste = [[0.0] * banks for _ in channels]
    for ch, (loads, lockstep) in useful_loads.items():
        if lockstep > 0 and ch in index:
            row = [max(0.0, 1.0 - float(v) / lockstep)
                   for v in loads[:banks]]
            waste[index[ch]] = row + [1.0] * (banks - len(row))
    compute = lanes[:, :, C_COMPUTE]
    # rint halves to even, as round() does.
    pad = np.clip(np.rint(compute * np.array(waste)).astype(np.int64),
                  0, compute)
    lanes[:, :, C_COMPUTE] -= pad
    lanes[:, :, C_PADDING] += pad


def _segment_cycles(segments: Sequence, entry_cycles: List[int]
                    ) -> Dict[str, Dict[int, Tuple[int, int]]]:
    """Per-segment (start, end) scheduler cycles from the captured
    entry cycles.

    Segments must tile each channel's entry stream in order (the
    ``*_segments`` synthesisers guarantee this), so a segment starts at
    the channel clock its predecessor left behind.
    """
    out: Dict[str, Dict[int, Tuple[int, int]]] = {}
    clock: Dict[int, int] = {}
    observed = len(entry_cycles)
    for label, channel, _, end in segments:
        if end > observed:
            raise ExecutionError(
                f"segment {label!r} spans entries the collector "
                f"never observed")
        stop = entry_cycles[end - 1]
        out.setdefault(label, {})[channel] = (clock.get(channel, 0), stop)
        clock[channel] = stop
    return out


# ----------------------------------------------------------------------
# critical path over segment groups
# ----------------------------------------------------------------------
@dataclass
class PathNode:
    """One dependency-spine step (an SpTRSV level or SpMV round)."""

    group: str
    #: Per-channel cycles spent inside this step.
    durations: Dict[int, int]
    #: The step's barrier duration: max over participating channels.
    duration: int
    critical_channel: int
    #: Per-channel slack against the critical channel.
    slack: Dict[int, int] = field(default_factory=dict)


@dataclass
class CriticalPath:
    """Longest chain of step dependencies under per-step barriers.

    For SpTRSV the steps are levels: level N+1's broadcast needs every
    channel's level-N results merged, so the barrier-accurate makespan is
    the sum over levels of the slowest channel's duration. The modelled
    schedule prices channels independently (no explicit barrier), so
    ``makespan >= modelled_cycles``; the gap plus per-level slack
    quantifies what lock-step level synchronisation would cost.
    """

    nodes: List[PathNode]
    makespan: int
    modelled_cycles: int

    @property
    def total_slack(self) -> int:
        return sum(sum(node.slack.values()) for node in self.nodes)


def critical_path(attribution: Attribution) -> Optional[CriticalPath]:
    """Barrier-accurate path over the attribution's segment groups."""
    segs = attribution.segment_cycles
    if not segs:
        return None
    groups: Dict[str, Dict[int, int]] = {}
    for label, per_channel in segs.items():
        group = label.rsplit(".", 1)[0]
        slot = groups.setdefault(group, {})
        for ch, (start, end) in per_channel.items():
            slot[ch] = slot.get(ch, 0) + (end - start)
    nodes: List[PathNode] = []
    makespan = 0
    for group, durations in groups.items():
        duration = max(durations.values())
        critical = min(ch for ch, d in durations.items() if d == duration)
        slack = {ch: duration - d for ch, d in durations.items()}
        nodes.append(PathNode(group=group, durations=durations,
                              duration=duration,
                              critical_channel=critical, slack=slack))
        makespan += duration
    return CriticalPath(nodes=nodes, makespan=makespan,
                        modelled_cycles=attribution.total_cycles)


def phase_cycles(attribution: Attribution) -> Dict[str, int]:
    """Barrier cycles per phase suffix (stage/seam/kernel/merge/...).

    Sums, over every segment group, the slowest channel's time inside
    each phase — the per-phase view of the critical path.
    """
    segs = attribution.segment_cycles
    if not segs:
        return {}
    out: Dict[str, int] = {}
    for label, per_channel in segs.items():
        phase = label.rsplit(".", 1)[-1]
        worst = max(end - start for start, end in per_channel.values())
        out[phase] = out.get(phase, 0) + worst
    return out


# ----------------------------------------------------------------------
# high-level builders (lazy core imports: core imports repro.obs)
# ----------------------------------------------------------------------
def attribute_trace(trace, config, segments=None, useful_loads=None,
                    channels=None, precision: str = "fp64",
                    alu_operations: int = 0, with_energy: bool = False):
    """Price *trace* once and attribute it; returns ``(Attribution,
    PerfReport)``.

    The collector is charged in the controller's scheduling pass, so
    this costs one pricing plus an O(channels x banks) assembly.
    """
    from ..core.timing import price_trace
    from ..dram import TimingParams
    timing = TimingParams()
    collector = AttributionCollector(
        trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles,
        capture_entries=segments is not None)
    perf = price_trace(trace, config, with_energy=with_energy,
                       alu_operations=alu_operations, precision=precision,
                       channels=channels, collector=collector)
    attribution = collector.finalize(
        banks_per_channel=config.memory.banks_per_channel,
        useful_loads=useful_loads, segments=segments,
        total_cycles=perf.cycles)
    return attribution, perf


def _attributed(execution, config, mode, params, with_energy):
    """:func:`repro.core.timing.price` with attribution, in this module's
    ``(Attribution, PerfReport)`` order."""
    from ..core.timing import price
    from ..core.trace import TraceParams
    perf, attribution = price(
        execution, config, mode=mode,
        params=TraceParams() if params is None else params,
        with_energy=with_energy, attrib=True)
    return attribution, perf


def attribute_spmm(execution, config, mode: str = "ab", params=None,
                   with_energy: bool = False):
    """Attribute one SpMV/SpMM execution (a plain SpMV record is
    ``k = 1``); returns ``(Attribution, PerfReport)``."""
    return _attributed(execution, config, mode, params, with_energy)


#: SpMV is SpMM at ``k = 1``: one attribution view serves both names.
attribute_spmv = attribute_spmm


def attribute_sptrsv(execution, config, params=None,
                     with_energy: bool = False):
    """Attribute one SpTRSV execution; returns ``(Attribution,
    PerfReport)``."""
    return _attributed(execution, config, "ab", params, with_energy)


def spmv_useful_loads(execution, mode: str = "ab"
                      ) -> Optional[Dict[int, Tuple[List[float], float]]]:
    """Per-channel (per-bank useful elements, lock-step stream length).

    An SpMM's layout is the SpMV layout, so the split carries over
    unchanged: the useful and the lock-step streams both scale by the
    right-hand-side width. PB mode has no lock-step padding (each bank
    streams only its own elements), so it returns ``None`` and the split
    is skipped.
    """
    if mode != "ab":
        return None
    from ..core.trace import _representative_channel_loads
    if execution.num_channels is not None:
        out: Dict[int, Tuple[List[float], float]] = {}
        for ch, sub in enumerate(execution.channel_execs):
            if sub.total_elements == 0:
                continue
            out[ch] = ([float(v) for v in sub.per_bank_elements],
                       float(sub.lockstep_elements))
        return out
    loads = _representative_channel_loads(
        execution, execution.banks_per_channel)
    return {0: (loads, float(execution.lockstep_elements))}


def sptrsv_useful_loads(execution
                        ) -> Optional[Dict[int, Tuple[List[float], float]]]:
    """Per-channel useful loads of an SpTRSV (leaf levels + updates).

    The execution record tracks leaf-level loads per level but not per
    bank, so the leaf share is spread uniformly; the recursive update
    SpMVs contribute their exact per-bank loads.
    """
    from ..core.trace import _busiest_chunks

    def shard(sub, banks: int) -> Tuple[List[float], float]:
        updates = sub.update_execs
        # Integer element counts: exact in any order.
        lockstep = float(sum(sub.level_batches)
                         + sum(upd.lockstep_elements for upd in updates))
        uniform = sum(sub.level_elements) / max(1, sub.num_banks)
        rows = [np.full(banks, float(uniform))]
        if updates:
            rows.extend(_busiest_chunks(
                np.stack([upd.per_bank_elements for upd in updates]), banks))
        # The uniform share plus each update's loads in turn (cumsum adds
        # row by row, as the float sums always did).
        return np.cumsum(rows, axis=0)[-1].tolist(), lockstep

    banks = execution.banks_per_channel
    if execution.num_channels is not None:
        return {ch: shard(sub, banks)
                for ch, sub in enumerate(execution.channel_execs)}
    return {0: shard(execution, banks)}
