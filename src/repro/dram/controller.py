"""Host-side in-order memory controller over one or more pseudo-channels.

The paper's execution model assumes the host DRAM controller issues all
commands in program order ("disabling out-of-order command issues", §IV-B).
:class:`MemoryController` therefore walks a command trace front to back,
asking each channel's scheduler for the earliest legal issue cycle. Channels
are independent: a trace that spreads work over channels gets channel-level
parallelism for free, exactly as in the hardware, because each channel
scheduler keeps its own clock and the result is the max over channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, Optional

from ..errors import TimingError
from .. import obs
from .channel import BANKS_PER_CHANNEL, ChannelScheduler
from .commands import BankSweep, CommandType, RowVisit, TraceEntry, expand
from .power import EnergyModel, EnergyParams, EnergyReport
from .timing import TimingParams


@dataclass
class ScheduleResult:
    """Outcome of running a command trace through the controller."""

    total_cycles: int
    per_channel_cycles: Dict[int, int]
    counts: Dict[CommandType, int]
    command_total: int
    refreshes: int
    energy: Optional[EnergyReport] = None
    #: Optional cycle annotations per tag (sum of inter-command gaps
    #: attributed to commands carrying that tag).
    tag_cycles: Dict[str, int] = field(default_factory=dict)
    #: Protocol violations found by the opt-in independent checker
    #: (``validate_protocol=True``); always empty otherwise.
    violations: list = field(default_factory=list)
    #: Per-channel scheduler summaries (cycles, command mix, row
    #: hits/misses, refreshes), keyed by channel id.
    per_channel_stats: Dict[int, Dict[str, int]] = field(
        default_factory=dict)

    def seconds(self, timing: TimingParams) -> float:
        """Schedule length in seconds."""
        return self.total_cycles * timing.tck_ns * 1e-9

    @property
    def row_commands(self) -> int:
        return sum(n for k, n in self.counts.items() if k.is_row)

    @property
    def column_commands(self) -> int:
        return sum(n for k, n in self.counts.items() if k.is_column)

    @property
    def activations(self) -> int:
        """Row activations issued (single-bank and broadcast)."""
        return (self.counts.get(CommandType.ACT, 0)
                + self.counts.get(CommandType.ACT_AB, 0))

    @property
    def row_buffer_locality(self) -> float:
        """Column accesses per activation — how well the schedule reuses
        open rows. Streaming kernels should approach the row's beat
        capacity; row-thrashing schedules approach 1.0."""
        acts = self.activations
        return self.column_commands / acts if acts else 0.0

    @property
    def bus_utilisation(self) -> float:
        """Fraction of channel-cycles carrying a column command — an
        upper bound on achieved data-bus utilisation.

        Each active channel owns its own column bus, so the capacity is
        active channels x schedule cycles: the mean over channels of
        each one's column commands per schedule cycle.
        """
        if self.total_cycles <= 0:
            return 0.0
        capacity = max(len(self.per_channel_cycles), 1) * self.total_cycles
        return min(1.0, self.column_commands / capacity)

    @property
    def row_misses(self) -> int:
        """Column accesses that needed a fresh activation (the ACTs)."""
        return self.activations

    @property
    def row_hits(self) -> int:
        """Column accesses served from an already-open row."""
        return max(self.column_commands - self.activations, 0)


class MemoryController:
    """FCFS, in-order command issue across the cube's pseudo-channels."""

    def __init__(self, timing: TimingParams = TimingParams(),
                 num_channels: int = 16,
                 enable_refresh: bool = True,
                 energy_params: Optional[EnergyParams] = None,
                 validate_protocol: bool = False,
                 banks_per_channel: int = BANKS_PER_CHANNEL) -> None:
        if num_channels <= 0:
            raise TimingError("need at least one channel")
        if banks_per_channel <= 0:
            raise TimingError("need at least one bank per channel")
        self.timing = timing
        self.num_channels = num_channels
        self.banks_per_channel = banks_per_channel
        self.enable_refresh = enable_refresh
        self.validate_protocol = validate_protocol
        self._energy_model = EnergyModel(energy_params or EnergyParams(),
                                         timing)

    def run(self, trace: Iterable[TraceEntry],
            with_energy: bool = False,
            host_tags: AbstractSet[str] = frozenset(),
            alu_operations: int = 0,
            precision: str = "fp64",
            collector=None) -> ScheduleResult:
        """Schedule *trace* and return cycle counts (and optionally energy).

        *trace* may mix plain :class:`Command` entries with
        :class:`~repro.dram.commands.RowVisit` row visits and
        :class:`~repro.dram.commands.BankSweep` host passes; both price
        exactly like their expansion (same cycles, counters and tag
        attributions), a visit in O(stretches), a sweep that meets its
        channel's banks precharged in one closed-form loop and any other
        sweep command by command.

        ``host_tags``, ``alu_operations`` and ``precision`` feed the
        energy model only. Column commands tagged with one of
        ``host_tags`` crossed the external interface; the scheduling walk
        tallies them itself, so the trace is walked once. The other two
        describe how much PU compute the trace's PIM phases performed.

        ``collector`` (an :class:`repro.obs.attrib.AttributionCollector`)
        charges cycle attribution in this one scheduling pass. Its
        ``channel_charges(channel, banks)`` gives each channel's
        scheduler a per-lane charge record
        (:class:`~repro.obs.attrib.ChannelCharges`, which also keeps
        the stall-debt and inserted-refresh split): visits and sweeps
        charge it as they issue, and this walk charges every plain
        command, ``MODE`` and ``REF`` included, with its gap to the
        previous command of its channel. With ``entry_cycles`` captured,
        each entry's last cycle is appended to it. Issue decisions are
        never affected.
        """
        channels: Dict[int, ChannelScheduler] = {}
        tag_cycles: Dict[str, int] = {}
        capture = (None if collector is None or collector.entry_cycles is None
                   else collector.entry_cycles.append)
        explicit_refs = 0
        host_columns = 0
        for entry in trace:
            cls = entry.__class__
            if cls is BankSweep:
                command = entry.command
                channel, bank = command.channel, entry.banks - 1
            else:
                channel, bank = entry.channel, entry.bank
            if channel >= self.num_channels:
                raise TimingError(
                    f"command channel {channel} exceeds "
                    f"{self.num_channels} channels")
            if bank >= self.banks_per_channel:
                raise TimingError(f"bank {bank} outside the channel")
            sched = channels.get(channel)
            if sched is None:
                sched = ChannelScheduler(
                    self.timing, self.enable_refresh,
                    validate_protocol=self.validate_protocol,
                    channel=channel,
                    banks_per_channel=self.banks_per_channel)
                # A visit's stretches charge their tags as it issues;
                # one dict keeps the trace's order across channels.
                sched.tag_cycles = tag_cycles
                sched.host_tags = host_tags
                if collector is not None:
                    sched.lanes = collector.channel_charges(
                        channel, self.banks_per_channel)
                channels[channel] = sched
            if cls is RowVisit:
                sched.issue_visit(entry)
            elif cls is BankSweep:
                issue = sched.issue_sweep(entry)
                columns = entry.banks * entry.beats
                tag = command.tag
                if tag is not None:
                    # The expansion's columns each gap from their own
                    # bank's ACT; ACT and PRE carry no tag.
                    tag_cycles[tag] = (tag_cycles.get(tag, 0)
                                       + issue.column_cycles)
                    if tag in host_tags:
                        host_columns += columns
            else:
                # A command's attribution is its gap to the previous
                # command of its channel (in order, never negative).
                prev = sched.now
                last = sched.issue(entry)
                gap = last - prev
                tag = entry.tag
                if tag is not None:
                    tag_cycles[tag] = tag_cycles.get(tag, 0) + gap
                    if tag in host_tags and entry.kind.is_column:
                        host_columns += 1
                explicit_refs += entry.kind is CommandType.REF
                lanes = sched.lanes
                if lanes is not None:
                    lanes.charge(entry, last, sched.refreshes_performed)
            if capture is not None:
                capture(sched.now)

        per_channel = {ch: sched.now for ch, sched in channels.items()}
        if collector is not None:
            for ch, sched in channels.items():
                sched.lanes.close(per_channel[ch])
        total_cycles = max(per_channel.values()) if per_channel else 0
        refreshes = sum(s.refreshes_performed for s in channels.values())
        host_columns += sum(s.host_columns for s in channels.values())
        # The schedulers count every command they issued, inserted
        # refreshes included, so the REF tally is every refresh performed
        # (the trace's explicit REFs among them) and the trace's own
        # commands are the rest.
        counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
        for sched in channels.values():
            for kind, n in sched.counts.items():
                counts[kind] += n
        total = sum(counts.values()) - refreshes + explicit_refs
        violations = [v for ch in sorted(channels)
                      for v in channels[ch].protocol_violations]
        per_channel_stats = {ch: channels[ch].stats()
                             for ch in sorted(channels)}
        result = ScheduleResult(total_cycles=total_cycles,
                                per_channel_cycles=per_channel,
                                counts=counts, command_total=total,
                                refreshes=refreshes, tag_cycles=tag_cycles,
                                violations=violations,
                                per_channel_stats=per_channel_stats)
        if with_energy:
            report = self._energy_model.command_energy(
                counts, banks_per_channel=self.banks_per_channel,
                host_column_traffic=host_columns)
            self._energy_model.add_background(
                report, total_cycles,
                num_channels=max(len(channels), 1))
            if alu_operations:
                self._energy_model.add_alu(report, alu_operations, precision)
            result.energy = report
        if obs.enabled():
            self._obs_emit(result)
        return result

    @staticmethod
    def _obs_emit(result: ScheduleResult) -> None:
        """Feed the schedule's command mix and locality counters to obs."""
        for kind, n in result.counts.items():
            if n:
                obs.add_counter(f"dram.cmd.{kind.name}", n)
        obs.add_counter("dram.commands", result.command_total)
        obs.add_counter("dram.cycles", result.total_cycles, sample=True)
        obs.add_counter("dram.refreshes", result.refreshes)
        obs.add_counter("dram.row_hits", result.row_hits)
        obs.add_counter("dram.row_misses", result.row_misses)
        for tag, cycles in result.tag_cycles.items():
            obs.add_counter(f"dram.tag_cycles.{tag}", cycles)


def count_commands(trace: Iterable[TraceEntry]) -> Dict[CommandType, int]:
    """Tally a trace without scheduling it (used for Figure 3)."""
    counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
    for command, count in expand(trace):
        counts[command.kind] += count
    return counts
