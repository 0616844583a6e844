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
from .commands import Command, CommandType, TraceEntry, as_run
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
        :class:`~repro.dram.commands.CommandRun` batches; a run prices
        exactly like its expansion (same cycles, counters and tag
        attributions) but in O(1) per run instead of O(count).

        ``host_tags``, ``alu_operations`` and ``precision`` feed the
        energy model only. Column commands tagged with one of
        ``host_tags`` crossed the external interface; the scheduling walk
        tallies them itself, so the trace is walked once. The other two
        describe how much PU compute the trace's PIM phases performed.

        ``collector`` (e.g. an
        :class:`repro.obs.attrib.AttributionCollector`) is a passive
        observer whose ``observe(command, count, last, refreshes)`` hook
        sees every entry's issue outcome as it prices — the attribution
        engine rides the one scheduling pass instead of re-running it.
        Issue decisions are never affected.
        """
        channels: Dict[int, ChannelScheduler] = {}
        counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
        tag_cycles: Dict[str, int] = {}
        last_cycle: Dict[int, int] = {}
        total = 0
        host_columns = 0
        for entry in trace:
            command, count = as_run(entry)
            if command.channel >= self.num_channels:
                raise TimingError(
                    f"command channel {command.channel} exceeds "
                    f"{self.num_channels} channels")
            if command.bank >= self.banks_per_channel:
                raise TimingError(
                    f"bank {command.bank} outside the channel")
            sched = channels.get(command.channel)
            if sched is None:
                sched = ChannelScheduler(
                    self.timing, self.enable_refresh,
                    validate_protocol=self.validate_protocol,
                    channel=command.channel,
                    banks_per_channel=self.banks_per_channel)
                channels[command.channel] = sched
            if count == 1:
                first = last = sched.issue(command)
            else:
                first, last = sched.issue_run(command, count)
            tag = command.tag
            if tag is not None:
                # Per-command attributions sum the positive gaps: the gap
                # to the run's first command plus the fixed spacings
                # between its successors (all positive), i.e. last-first.
                gap = first - last_cycle.get(command.channel, 0)
                tag_cycles[tag] = (tag_cycles.get(tag, 0)
                                   + max(gap, 0) + (last - first))
                if tag in host_tags and command.kind.is_column:
                    host_columns += count
            last_cycle[command.channel] = last
            counts[command.kind] += count
            total += count
            if collector is not None:
                collector.observe(command, count, last,
                                  sched.refreshes_performed)

        per_channel = {ch: sched.now for ch, sched in channels.items()}
        total_cycles = max(per_channel.values()) if per_channel else 0
        refreshes = sum(s.refreshes_performed for s in channels.values())
        counts[CommandType.REF] += refreshes
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
        if result.per_channel_stats:
            width = max(result.per_channel_stats) + 1

            def series(metric) -> list:
                values = [0] * width
                for ch, stats in result.per_channel_stats.items():
                    values[ch] = metric(stats)
                return values

            # Busy = cycles carrying a column command (data-bus work);
            # idle = this channel's slack against the schedule's critical
            # path — the lock-step cost of channel imbalance.
            obs.add_bank_counter("channel.busy",
                                 series(lambda s: s["column_commands"]))
            obs.add_bank_counter(
                "channel.idle",
                series(lambda s: max(
                    result.total_cycles - s["column_commands"], 0)))
            obs.add_bank_counter("channel.cycles",
                                 series(lambda s: s["cycles"]))
            obs.add_bank_counter("channel.commands",
                                 series(lambda s: s["commands"]))
            obs.add_bank_counter("channel.columns",
                                 series(lambda s: s["column_commands"]))
            obs.add_bank_counter("channel.row_hits",
                                 series(lambda s: s["row_hits"]))
            obs.add_bank_counter("channel.row_misses",
                                 series(lambda s: s["row_misses"]))
            obs.add_bank_counter("channel.refreshes",
                                 series(lambda s: s["refreshes"]))


def count_commands(trace: Iterable[TraceEntry]) -> Dict[CommandType, int]:
    """Tally a trace without scheduling it (used for Figure 3)."""
    counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
    for entry in trace:
        command, count = as_run(entry)
        counts[command.kind] += count
    return counts
