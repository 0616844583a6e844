"""Cycle attribution: decompose every modelled cycle on every lane.

The scheduler (:mod:`repro.dram`) prices a command trace into one number
per channel; this module answers *where those cycles went*. Every device
cycle on every (channel, bank) lane is assigned to exactly one of the
:data:`CATEGORIES` — the taxonomy is **exclusive and exhaustive**, so the
per-lane category cycles sum bitwise to the schedule's ``total_cycles``
(and device-wide to ``lanes x total_cycles``). That hard invariant is what
makes category deltas between two runs trustworthy: a cycle cannot be
double-counted into two buckets or silently dropped from all of them.

Attribution is **post-hoc over the trace**: the
:class:`AttributionCollector` passively observes the controller's single
scheduling pass (``MemoryController.run(..., collector=...)``) and buckets
each entry's issue-to-issue delta. The scheduler's issue logic is never
consulted or altered — pricing with and without a collector is bitwise
identical. Observing costs one list append per trace entry; the bucketing
runs once in :meth:`AttributionCollector.finalize`, and that is where
most of attribution's cost lies. ``benchmarks/test_perf_attrib.py``
gates only the observing side below 5% of pricing (its collector is
never finalised); its informational ``pricing_vs_attrib_sptrsv`` ratio
is the full cost, ``finalize`` included.

Exactness bookkeeping, per channel:

* every entry's delta ``last - previous_last`` is split into (1) stall
  debts left by earlier commands whose occupancy outlives their issue
  cycle (mode switches block both buses for ``mode_switch_cycles``;
  refresh blocks every bank for ``tRFC``), (2) cycles of silently
  inserted deferred refreshes (visible as jumps in the channel's
  refresh counter), and (3) the command's own category;
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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dram.commands import (HOST_TAGS, BankSweep, Command, CommandType,
                             RowVisit, Stretch)
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


def category_of(command: Command) -> int:
    """Exclusive category index of one command's bus/bank occupancy."""
    kind = command.kind
    if kind is CommandType.MODE:
        return C_SEAM
    if kind is CommandType.REF:
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
            if any(v < 0 for v in vec):
                raise ExecutionError(
                    f"negative category cycles on lane "
                    f"(ch={ch}, bank={bank}): {vec}")


# ----------------------------------------------------------------------
# the collector
# ----------------------------------------------------------------------
class AttributionCollector:
    """Passive per-entry observer for ``MemoryController.run``.

    Construct with the run's timing constants, pass as
    ``collector=`` to :func:`repro.core.timing.price_trace` (or
    ``MemoryController.run`` directly), then :meth:`finalize` into an
    :class:`Attribution`. ``capture_entries=True`` additionally records
    the channel clock after every entry so segment timelines and the
    critical path can be reconstructed.
    """

    def __init__(self, trfc: int, mode_switch_cycles: int,
                 capture_entries: bool = False) -> None:
        self.trfc = trfc
        self.mode_switch_cycles = mode_switch_cycles
        self._now: Dict[int, int] = {}
        self._refs: Dict[int, int] = {}
        self._debt_seam: Dict[int, int] = {}
        self._debt_refresh: Dict[int, int] = {}
        #: Per-channel cycles of all-bank scope (apply to every lane).
        self._ab: Dict[int, List[int]] = {}
        #: Per-channel, per-bank cycles of single-bank scope.
        self._sb: Dict[int, Dict[int, List[int]]] = {}
        self._sb_sum: Dict[int, int] = {}
        #: Per-channel single-bank cycles charged to bank ranges, as a
        #: difference array: the vector at ``lo`` applies to banks
        #: ``lo`` and up, cancelled at ``hi`` (resolved in finalize).
        self._sb_ranges: Dict[int, Dict[int, List[int]]] = {}
        self.entry_cycles: Optional[List[int]] = (
            [] if capture_entries else None)
        #: Raw issue outcomes in observation order; bucketed lazily so the
        #: scheduler's hot loop only pays one list append per entry.
        self._log: List[tuple] = []

    def observe(self, command: Command, last: int, refreshes: int) -> None:
        """Record one issue outcome (bucketing is deferred to finalize)."""
        self._log.append((command, last, refreshes))

    def observe_visit(self, visit: RowVisit, ends: List[int],
                      refreshes: int) -> None:
        """Record one visit's ``ACT``, stretch-end and ``PRE`` cycles."""
        self._log.append((visit, ends, refreshes))

    def observe_sweep(self, sweep: BankSweep, issue) -> None:
        """Record one sweep's :class:`~repro.dram.channel.SweepIssue`."""
        self._log.append((sweep, issue))

    def _bucket(self, command: Command, last: int, refreshes: int) -> None:
        """Bucket one command's issue-to-issue cycle delta."""
        self._charge(command.channel, command.kind, category_of(command),
                     command.bank, last, refreshes)
        if self.entry_cycles is not None:
            self.entry_cycles.append(last)

    def _bucket_visit(self, visit: RowVisit, ends: List[int],
                      refreshes: int) -> None:
        """Bucket a visit exactly as its ACT/stretches/PRE expansion."""
        self._bucket_row(visit.channel, visit.bank, visit.all_bank,
                         visit.stretches, ends, refreshes)
        if self.entry_cycles is not None:
            self.entry_cycles.append(ends[-1])

    def _bucket_row(self, ch: int, bank: int, all_bank: bool,
                    stretches: Sequence[Stretch], ends: Sequence[int],
                    refreshes: int) -> None:
        """Bucket one row visit from its ``ACT``, stretch-end and ``PRE``
        cycles (:meth:`~repro.dram.channel.ChannelScheduler.issue_visit`).

        The ``ACT`` goes through :meth:`_charge`, which absorbs the stall
        debts and any refresh inserted before it; none can go in after
        it. Once no debt is left, each stretch's delta lands whole on its
        category and the ``PRE``'s on ``row``, on every lane for an
        all-bank visit and on the visit's bank otherwise. An all-bank
        visit that owes no debt and follows no inserted refresh lands
        whole, its ``ACT`` included, as :meth:`_charge` would land it.
        """
        n = len(stretches)
        i = 0
        pre = ends[-1]
        if (all_bank and refreshes == self._refs.get(ch, 0)
                and not self._in_debt(ch)):
            ab = self._ab.get(ch)
            if ab is None:
                ab = self._ab[ch] = [0] * NCAT
            ab[C_ROW] += ends[0] - self._now.get(ch, 0)
            prev = ends[0]
        else:
            charge = self._charge
            charge(ch, CommandType.ACT_AB if all_bank else CommandType.ACT,
                   C_ROW, bank, ends[0], refreshes)
            while i < n and self._in_debt(ch):
                kind, _, _, tag = stretches[i]
                i += 1
                charge(ch, kind, _column_category(tag), bank, ends[i],
                       refreshes)
            if self._in_debt(ch):
                charge(ch, CommandType.PRE_AB if all_bank else CommandType.PRE,
                       C_ROW, bank, pre, refreshes)
                return
            prev = ends[i]
        if all_bank:
            lane = self._ab[ch]
        else:
            lanes = self._sb.setdefault(ch, {})
            lane = lanes.get(bank)
            if lane is None:
                lane = lanes[bank] = [0] * NCAT
            self._sb_sum[ch] = self._sb_sum.get(ch, 0) + pre - prev
        while i < n:
            tag = stretches[i][3]
            i += 1
            lane[_column_category(tag)] += ends[i] - prev
            prev = ends[i]
        lane[C_ROW] += pre - prev
        self._now[ch] = pre

    def _bucket_sweep(self, sweep: BankSweep, issue) -> None:
        """Bucket a sweep exactly as its ACT/columns/PRE expansion.

        Each anchor bank is bucketed on its own (:meth:`_bucket_bank`).
        Its closed-form followers share its refresh count, and once no
        stall debt is left each one's deltas are the same: ``1 +
        pre_span - col_span`` on ``row`` and ``col_span`` on the
        columns' category. They are charged as one bank-range tally,
        so a sweep costs O(anchors). The sweep is one trace entry, so
        it records one entry cycle.
        """
        command = sweep.command
        ch = command.channel
        cat = category_of(command)
        anchors = issue.anchors
        col_span, pre_span = issue.col_span, issue.pre_span
        period = pre_span + 1
        for i, (bank, act, last_col, pre, refreshes) in enumerate(anchors):
            self._bucket_bank(sweep, bank, act, last_col, pre, refreshes)
            end = anchors[i + 1][0] if i + 1 < len(anchors) else issue.banks
            bank += 1
            while bank < end and self._in_debt(ch):
                act = pre + 1
                pre = act + pre_span
                self._bucket_bank(sweep, bank, act, act + col_span, pre,
                                  refreshes)
                bank += 1
            if bank == end:
                continue
            ranges = self._sb_ranges.setdefault(ch, {})
            for edge, sign in ((bank, 1), (end, -1)):
                diff = ranges.get(edge)
                if diff is None:
                    diff = ranges[edge] = [0] * NCAT
                diff[C_ROW] += sign * (period - col_span)
                diff[cat] += sign * col_span
            n = end - bank
            self._sb_sum[ch] = self._sb_sum.get(ch, 0) + n * period
            self._now[ch] = pre + n * period
        if self.entry_cycles is not None:
            self.entry_cycles.append(issue.last)

    def _bucket_bank(self, sweep: BankSweep, bank: int, act: int,
                     last_col: int, pre: int, refreshes: int) -> None:
        """Bucket one bank of a sweep as the single-bank visit it is."""
        c = sweep.command
        self._bucket_row(c.channel, bank, False,
                         ((c.kind, sweep.beats, c.col, c.tag),),
                         (act, last_col, pre), refreshes)

    def _in_debt(self, ch: int) -> bool:
        """Whether channel *ch* still owes stall cycles."""
        return bool(self._debt_seam.get(ch, 0)
                    or self._debt_refresh.get(ch, 0))

    def _charge(self, ch: int, kind: CommandType, cat: int, bank: int,
                last: int, refreshes: int) -> None:
        """Split one issue-to-issue delta into debts, refresh and *cat*."""
        delta = last - self._now.get(ch, 0)
        self._now[ch] = last
        ab = self._ab.get(ch)
        if ab is None:
            ab = self._ab[ch] = [0] * NCAT
        # (1) stall debts of earlier commands whose occupancy outlives
        # their issue cycle: a MODE switch holds both buses until
        # cycle + mode_switch_cycles, an explicit REF blocks every bank
        # for tRFC — the wait lands in this entry's gap.
        debt = self._debt_seam.get(ch, 0)
        if debt:
            part = debt if debt < delta else delta
            ab[C_SEAM] += part
            self._debt_seam[ch] = debt - part
            delta -= part
        debt = self._debt_refresh.get(ch, 0)
        if debt:
            part = debt if debt < delta else delta
            ab[C_REFRESH] += part
            self._debt_refresh[ch] = debt - part
            delta -= part
        # (2) deferred refreshes the scheduler inserted ahead of this
        # entry, visible as a jump in the channel's refresh counter.
        inserted = refreshes - self._refs.get(ch, 0)
        if inserted:
            self._refs[ch] = refreshes
            part = min(delta, inserted * self.trfc)
            ab[C_REFRESH] += part
            delta -= part
        # (3) the command's own category and scope.
        if kind is CommandType.MODE:
            self._debt_seam[ch] = (self._debt_seam.get(ch, 0)
                                   + self.mode_switch_cycles)
        elif kind is CommandType.REF:
            self._debt_refresh[ch] = (self._debt_refresh.get(ch, 0)
                                      + self.trfc)
        if kind.is_all_bank or kind is CommandType.MODE:
            ab[cat] += delta
        else:
            lanes = self._sb.get(ch)
            if lanes is None:
                lanes = self._sb[ch] = {}
            lane = lanes.get(bank)
            if lane is None:
                lane = lanes[bank] = [0] * NCAT
            lane[cat] += delta
            self._sb_sum[ch] = self._sb_sum.get(ch, 0) + delta

    def _resolve_ranges(self, banks_per_channel: int) -> None:
        """Fold the bank-range tallies into the per-bank lanes, once."""
        ranges_by_channel, self._sb_ranges = self._sb_ranges, {}
        for ch, ranges in ranges_by_channel.items():
            lanes = self._sb.setdefault(ch, {})
            running = [0] * NCAT
            for bank in range(banks_per_channel):
                diff = ranges.get(bank)
                if diff is not None:
                    for i in range(NCAT):
                        running[i] += diff[i]
                lane = lanes.get(bank)
                if lane is None:
                    lane = lanes[bank] = [0] * NCAT
                for i in range(NCAT):
                    lane[i] += running[i]

    def finalize(self, banks_per_channel: int,
                 useful_loads: Optional[
                     Dict[int, Tuple[Sequence[float], float]]] = None,
                 segments: Optional[Sequence] = None,
                 total_cycles: Optional[int] = None) -> Attribution:
        """Assemble the observed deltas into per-lane category vectors.

        ``total_cycles`` cross-checks the schedule the collector saw
        (defaults to the max over observed channel clocks).
        ``useful_loads`` maps channel -> (per-bank useful elements,
        lock-step stream length) and drives the padding split.
        ``segments`` are the trace's :class:`~repro.core.trace
        .TraceSegment` list when entry cycles were captured.
        """
        log, self._log = self._log, []
        for entry in log:
            cls = entry[0].__class__
            if cls is RowVisit:
                self._bucket_visit(*entry)
            elif cls is BankSweep:
                self._bucket_sweep(*entry)
            else:
                self._bucket(*entry)
        self._resolve_ranges(banks_per_channel)
        observed = max(self._now.values()) if self._now else 0
        if total_cycles is None:
            total_cycles = observed
        elif total_cycles != observed:
            raise ExecutionError(
                f"collector saw a different schedule: observed "
                f"{observed} cycles, caller says {total_cycles}")
        channels = sorted(self._now) if self._now else [0]
        lane_cycles: Dict[Tuple[int, int], List[int]] = {}
        for ch in channels:
            ab = self._ab.get(ch, [0] * NCAT)
            now = self._now.get(ch, 0)
            sb_sum = self._sb_sum.get(ch, 0)
            lanes = self._sb.get(ch, {})
            tail = total_cycles - now
            for bank in range(banks_per_channel):
                vec = list(ab)
                own = lanes.get(bank)
                own_sum = 0
                if own:
                    own_sum = sum(own)
                    for i in range(NCAT):
                        vec[i] += own[i]
                # barrier tail + the shadow of other banks' SB traffic
                vec[C_IDLE] += tail + (sb_sum - own_sum)
                lane_cycles[(ch, bank)] = vec
        attribution = Attribution(
            categories=CATEGORIES, channels=channels,
            banks_per_channel=banks_per_channel,
            total_cycles=total_cycles, lane_cycles=lane_cycles,
            channel_clock=dict(self._now))
        if useful_loads:
            _split_padding(attribution, useful_loads)
        if segments is not None and self.entry_cycles is not None:
            attribution.segment_cycles = _segment_cycles(
                segments, self.entry_cycles)
        attribution.check()
        return attribution


def _split_padding(attribution: Attribution,
                   useful_loads: Dict[int, Tuple[Sequence[float], float]]
                   ) -> None:
    """Move each lane's lock-step waste from ``compute`` to ``padding``.

    A bank in the broadcast group streams the round maximum regardless of
    its own element count; its padding share is ``1 - own/lockstep`` of
    the compute cycles. The move preserves the lane sum exactly.
    """
    for ch, (loads, lockstep) in useful_loads.items():
        if lockstep <= 0:
            continue
        for bank in range(attribution.banks_per_channel):
            vec = attribution.lane_cycles.get((ch, bank))
            if vec is None:
                continue
            load = float(loads[bank]) if bank < len(loads) else 0.0
            waste = max(0.0, 1.0 - load / lockstep)
            pad = int(round(vec[C_COMPUTE] * waste))
            pad = min(max(pad, 0), vec[C_COMPUTE])
            vec[C_COMPUTE] -= pad
            vec[C_PADDING] += pad


def _segment_cycles(segments: Sequence, entry_cycles: List[int]
                    ) -> Dict[str, Dict[int, Tuple[int, int]]]:
    """Per-segment (start, end) scheduler cycles from the entry replay.

    Segments must tile each channel's entry stream in order (the
    ``*_segments`` synthesisers guarantee this), so a segment starts at
    the channel clock its predecessor left behind.
    """
    out: Dict[str, Dict[int, Tuple[int, int]]] = {}
    clock: Dict[int, int] = {}
    for seg in segments:
        if seg.end > len(entry_cycles):
            raise ExecutionError(
                f"segment {seg.label!r} spans entries the collector "
                f"never observed")
        start = clock.get(seg.channel, 0)
        end = entry_cycles[seg.end - 1]
        out.setdefault(seg.label, {})[seg.channel] = (start, end)
        clock[seg.channel] = end
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

    The collector rides the controller's scheduling pass, so this costs
    one pricing plus O(entries) bookkeeping.
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
    from ..core.trace import _representative_channel_loads

    def shard(sub, banks: int) -> Tuple[List[float], float]:
        lockstep = float(sum(sub.level_batches))
        uniform = sum(sub.level_elements) / max(1, sub.num_banks)
        per_bank = [float(uniform)] * banks
        for upd in sub.update_execs:
            loads = _representative_channel_loads(upd, banks)
            lockstep += float(upd.lockstep_elements)
            per_bank = [p + u for p, u in zip(per_bank, loads)]
        return per_bank, lockstep

    banks = execution.banks_per_channel
    if execution.num_channels is not None:
        return {ch: shard(sub, banks)
                for ch, sub in enumerate(execution.channel_execs)}
    return {0: shard(execution, banks)}
