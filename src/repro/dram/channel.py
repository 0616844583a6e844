"""Pseudo-channel command scheduler.

One :class:`ChannelScheduler` owns the 16 banks of an HBM2 pseudo-channel
(4 groups x 4 banks, Table VII) and computes, for each command, the earliest
cycle at which it can legally issue given

* per-bank windows (tRCD/tRAS/tRP/tRC/tWR/tRTP — :mod:`repro.dram.bank`),
* bank-group constraints (tCCD_L / tRRD_L vs tCCD_S / tRRD_S),
* the four-activation window (tFAW),
* the shared command buses — one row command and one column command per
  cycle, the constraint the paper's Figure 3 argument rests on ("DRAM chips
  can handle only two memory commands per clock per channel"), and
* read/write turnaround on the shared data bus.

All-bank commands (AB / AB-PIM modes) are single bus slots whose constraints
are the maximum over all banks and which update every bank's state. The
four-activation window is not applied to broadcast activates: HBM-PIM's
all-bank mode staggers the internal activation under a relaxed power budget,
which the model reflects by spacing consecutive broadcast ACTs by tRC via the
ordinary per-bank windows.

Broadcasts drive the banks in lock step, and the scheduler exploits it. A
broadcast ACT issues no earlier than every bank's ``act_ready`` and then
sets every window of every bank from its own cycle alone, so from that
point all banks hold one identical state. The scheduler keeps that state
as a single shared :class:`BankState`, which broadcast commands and refresh
query and update in O(1) instead of O(banks). The first single-bank
command splits it back into the per-bank states (DESIGN.md, "Lock-step
bank state"); :attr:`ChannelScheduler.banks` splits first as well, so the
per-bank list stays the only bank model visible outside the scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..errors import TimingError
from .bank import BankState
from .commands import Command, CommandType
from .timing import TimingParams

BANKS_PER_GROUP = 4
GROUPS_PER_CHANNEL = 4
BANKS_PER_CHANNEL = BANKS_PER_GROUP * GROUPS_PER_CHANNEL


class ChannelScheduler:
    """In-order command scheduler for one pseudo-channel."""

    def __init__(self, timing: TimingParams,
                 enable_refresh: bool = True,
                 validate_protocol: bool = False,
                 channel: int = 0,
                 banks_per_channel: int = BANKS_PER_CHANNEL) -> None:
        self.timing = timing.validate()
        self.enable_refresh = enable_refresh
        self._channel = channel
        if banks_per_channel <= 0:
            raise TimingError("need at least one bank per channel")
        self.banks_per_channel = banks_per_channel
        if validate_protocol:
            # Deferred import: repro.check depends on repro.dram types.
            from ..check.protocol import ProtocolChecker
            self._checker = ProtocolChecker(timing, channel=channel)
        else:
            self._checker = None
        self._banks: List[BankState] = [BankState(timing)
                                        for _ in range(banks_per_channel)]
        # The states a broadcast reads and updates: every bank, or, in
        # lock step (after a broadcast ACT), one state shared by all.
        self._broadcast: List[BankState] = self._banks
        # Banks with an open row; refresh may only go in when it is 0.
        self._open_banks = 0
        self._row_bus_free = 0
        self._col_bus_free = 0
        # Column-command history for CCD spacing and bus turnaround.
        self._last_col_cycle = -10 ** 9
        self._last_col_group: Optional[int] = None
        self._last_col_was_write = False
        self._last_col_all_bank = False
        # ACT history for tFAW (single-bank ACTs only) and RRD spacing.
        self._act_times: Deque[int] = deque(maxlen=4)
        self._last_act_cycle = -10 ** 9
        self._last_act_group: Optional[int] = None
        self._next_refresh = timing.trefi
        self._now = 0
        self.counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
        self.refreshes_performed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Cycle at which the most recent command issued."""
        return self._now

    @property
    def protocol_violations(self) -> list:
        """Violations found by the opt-in independent protocol checker."""
        return [] if self._checker is None else self._checker.violations

    @property
    def banks(self) -> List[BankState]:
        """Exact per-bank states (a lock-step interval is split first)."""
        self._split()
        return self._banks

    def _split(self) -> None:
        """Leave lock step: copy the shared state into every bank."""
        if self._broadcast is self._banks:
            return
        shared = self._broadcast[0]
        for b in self._banks:
            b.open_row = shared.open_row
            b.act_ready = shared.act_ready
            b.rd_ready = shared.rd_ready
            b.wr_ready = shared.wr_ready
            b.pre_ready = shared.pre_ready
        self._broadcast = self._banks

    def _group_of(self, bank: int) -> int:
        return bank // BANKS_PER_GROUP

    # ------------------------------------------------------------------
    def issue(self, command: Command, earliest: int = 0) -> int:
        """Issue *command* no earlier than *earliest*; return its cycle.

        Commands must arrive in program order (in-order controller, as the
        paper requires for PIM: out-of-order issue is disabled).
        """
        earliest = max(earliest, self._now + command.min_gap)
        if self.enable_refresh and self._next_refresh <= earliest:
            self._maybe_refresh(earliest)
        kind = command.kind
        if kind is CommandType.MODE:
            cycle = self._issue_mode(earliest)
        elif kind is CommandType.REF:
            cycle = self._issue_refresh(earliest)
        elif kind.is_row:
            cycle = self._issue_row(command, earliest)
        elif kind.is_column:
            cycle = self._issue_column(command, earliest)
        else:  # pragma: no cover - enum is exhaustive
            raise TimingError(f"unhandled command kind {kind}")
        self.counts[kind] += 1
        self._now = cycle
        if self._checker is not None:
            self._checker.observe(cycle, command)
        return cycle

    def issue_run(self, command: Command, count: int) -> "tuple[int, int]":
        """Issue *count* identical commands; return (first, last) cycles.

        Homogeneous column runs — the beat streams that dominate kernel
        traces — are priced in closed form: after the first command issues
        normally, every successor of the same kind against the same open
        row is constrained only by the column bus (1), the burst
        (``burst_cycles``), same-bank/broadcast CCD (``tccd_l``) and the
        command's own ``min_gap``, all measured from its predecessor, so
        the run issues at a fixed spacing. Refresh cannot interleave
        (the target row stays open, and the scheduler only inserts
        refresh while all banks are precharged), and every per-bank
        window is a max-accumulation, so applying the final command's
        effects alone reproduces the per-command end state exactly.

        Non-column kinds fall back to per-command issue (run boundaries,
        mode switches and row commands never form homogeneous column
        runs).
        """
        first = last = self.issue(command)
        if count <= 1:
            return first, last
        kind = command.kind
        if not kind.is_column:
            for _ in range(count - 1):
                last = self.issue(command)
            return first, last
        t = self.timing
        spacing = max(command.min_gap, 1, t.burst_cycles, t.tccd_l)
        last = first + (count - 1) * spacing
        write = kind.is_write
        if kind.is_all_bank:
            for b in self._broadcast:
                (b.apply_write if write else b.apply_read)(last)
        else:
            bank = self._bank(command.bank)
            (bank.apply_write if write else bank.apply_read)(last)
        # Bus/CCD history: the first issue already recorded the kind,
        # group and direction; only the cycle values move.
        self._last_col_cycle = last
        self._col_bus_free = last + 1
        self.counts[kind] += count - 1
        self._now = last
        if self._checker is not None:
            # The checker sees the run's per-command expansion, which
            # independently validates the closed-form spacing itself.
            for i in range(1, count):
                self._checker.observe(first + i * spacing, command)
        return first, last

    # ------------------------------------------------------------------
    # row commands
    # ------------------------------------------------------------------
    def _issue_row(self, command: Command, earliest: int) -> int:
        t = self.timing
        kind = command.kind
        cycle = max(earliest, self._row_bus_free)
        if kind is CommandType.ACT:
            bank = self._bank(command.bank)
            cycle = max(cycle, bank.earliest_act())
            cycle = max(cycle, self._rrd_window(command.bank, cycle))
            cycle = self._faw_window(cycle)
            bank.apply_act(cycle, command.row)
            self._open_banks += 1
            self._act_times.append(cycle)
            self._last_act_cycle = cycle
            self._last_act_group = self._group_of(command.bank)
        elif kind is CommandType.ACT_AB:
            cycle = max(cycle, *(b.earliest_act() for b in self._broadcast))
            # The issue cycle is at or past every bank's act_ready, so
            # apply_act leaves every bank in the same state: enter (or
            # stay in) lock step with one fresh shared state.
            shared = BankState(t)
            shared.apply_act(cycle, command.row)
            self._broadcast = [shared]
            self._open_banks = self.banks_per_channel
            # Broadcast ACT resets single-bank RRD history; internal
            # staggering is folded into the per-bank tRC spacing.
            self._last_act_cycle = cycle
            self._last_act_group = None
        elif kind is CommandType.PRE:
            bank = self._bank(command.bank)
            cycle = max(cycle, bank.earliest_pre())
            bank.apply_pre(cycle)
            self._open_banks -= 1
        elif kind is CommandType.PRE_AB:
            if not self._open_banks:
                raise TimingError("PRE_AB with no open banks")
            open_banks = [b for b in self._broadcast if b.is_open]
            cycle = max(cycle, *(b.earliest_pre() for b in open_banks))
            for b in open_banks:
                b.apply_pre(cycle)
            self._open_banks = 0
        self._row_bus_free = cycle + 1
        return cycle

    def _rrd_window(self, bank: int, cycle: int) -> int:
        """ACT-to-ACT spacing: tRRD_L within a group, tRRD_S across."""
        if self._last_act_cycle < 0:
            return cycle
        same_group = self._last_act_group == self._group_of(bank)
        spacing = self.timing.trrd_l if same_group else self.timing.trrd_s
        return max(cycle, self._last_act_cycle + spacing)

    def _faw_window(self, cycle: int) -> int:
        """No more than four single-bank ACTs within tFAW."""
        if len(self._act_times) == 4:
            cycle = max(cycle, self._act_times[0] + self.timing.tfaw)
        return cycle

    # ------------------------------------------------------------------
    # column commands
    # ------------------------------------------------------------------
    def _issue_column(self, command: Command, earliest: int) -> int:
        t = self.timing
        kind = command.kind
        write = kind.is_write
        cycle = max(earliest, self._col_bus_free)
        if kind.is_all_bank:
            cycle = max(cycle, *(b.earliest_column(command.row, write)
                                 for b in self._broadcast))
            group: Optional[int] = None
        else:
            bank = self._bank(command.bank)
            cycle = max(cycle, bank.earliest_column(command.row, write))
            group = self._group_of(command.bank)
        cycle = max(cycle, self._ccd_window(group))
        cycle = max(cycle, self._turnaround(write))
        if kind.is_all_bank:
            for b in self._broadcast:
                (b.apply_write if write else b.apply_read)(cycle)
        else:
            (bank.apply_write if write else bank.apply_read)(cycle)
        self._last_col_cycle = cycle
        self._last_col_group = group
        self._last_col_was_write = write
        self._last_col_all_bank = kind.is_all_bank
        self._col_bus_free = cycle + 1
        return cycle

    def _ccd_window(self, group: Optional[int]) -> int:
        """Column-to-column spacing; broadcasts always pay tCCD_L."""
        if self._last_col_cycle < 0:
            return 0
        same_group = (group is None or self._last_col_all_bank
                      or self._last_col_group == group)
        spacing = self.timing.tccd_l if same_group else self.timing.tccd_s
        return self._last_col_cycle + spacing

    def _turnaround(self, write: bool) -> int:
        """Data-bus direction switch penalty."""
        if self._last_col_cycle < 0 or write == self._last_col_was_write:
            return 0
        t = self.timing
        gap = t.read_to_write if write else t.write_to_read
        return self._last_col_cycle + gap

    # ------------------------------------------------------------------
    # mode switches and refresh
    # ------------------------------------------------------------------
    def _issue_mode(self, earliest: int) -> int:
        """An SB<->AB<->AB-PIM transition occupies both buses."""
        cycle = max(earliest, self._row_bus_free, self._col_bus_free)
        done = cycle + self.timing.mode_switch_cycles
        self._row_bus_free = done
        self._col_bus_free = done
        return cycle

    def _issue_refresh(self, earliest: int) -> int:
        """All-bank refresh; requires every bank precharged."""
        if self._open_banks:
            raise TimingError("REF issued while banks are open; "
                              "precharge first")
        cycle = max(earliest, self._row_bus_free,
                    *(b.act_ready for b in self._broadcast))
        done = cycle + self.timing.trfc
        for b in self._broadcast:
            b.block_until(done)
        self._row_bus_free = cycle + 1
        self.refreshes_performed += 1
        return cycle

    def _maybe_refresh(self, earliest: int) -> None:
        """Insert due refreshes at row boundaries (all banks precharged).

        Real controllers defer refresh while rows are open and catch up at
        the next precharge; the model does the same, so a refresh can slide
        past its nominal tREFI point but is never dropped.
        """
        if self._open_banks:
            return
        while self._next_refresh <= max(earliest, self._now):
            self.counts[CommandType.REF] += 1
            self._now = self._issue_refresh(max(self._next_refresh,
                                                self._now))
            if self._checker is not None:
                # Deferred refreshes never appear in the input trace, so
                # the checker observes them here, in issue order.
                self._checker.observe(
                    self._now, Command(CommandType.REF,
                                       channel=self._channel),
                    inserted=True)
            self._next_refresh += self.timing.trefi

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def row_misses(self) -> int:
        """Column accesses that needed a fresh activation (the ACTs)."""
        return (self.counts[CommandType.ACT]
                + self.counts[CommandType.ACT_AB])

    @property
    def row_hits(self) -> int:
        """Column accesses served from an already-open row.

        Every column command legally requires its row open, so each ACT
        buys the first access as the miss and every further column against
        that row is a hit.
        """
        columns = sum(n for k, n in self.counts.items() if k.is_column)
        return max(columns - self.row_misses, 0)

    def stats(self) -> Dict[str, int]:
        """Summary counters of this channel's schedule so far."""
        columns = sum(n for k, n in self.counts.items() if k.is_column)
        return {
            "cycles": self._now,
            "commands": sum(self.counts.values()),
            "column_commands": columns,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "refreshes": self.refreshes_performed,
            "mode_switches": self.counts[CommandType.MODE],
        }

    # ------------------------------------------------------------------
    def _bank(self, index: int) -> BankState:
        if not 0 <= index < self.banks_per_channel:
            raise TimingError(f"bank index {index} outside channel")
        self._split()
        return self._banks[index]
