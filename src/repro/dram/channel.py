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

A host sweep that meets the channel in lock step with every bank
precharged leaves the banks' states *pending*: the shared state plus the
sweeps (and refreshes) applied to it since, replayed into the per-bank
list only when something reads a single bank (DESIGN.md, "Sweeps from
lock step").
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple,
                    Union)

from ..errors import TimingError
from .bank import BankState
from .commands import BankSweep, Command, CommandType
from .timing import TimingParams

BANKS_PER_GROUP = 4
GROUPS_PER_CHANNEL = 4
BANKS_PER_CHANNEL = BANKS_PER_GROUP * GROUPS_PER_CHANNEL


#: ``(bank, act, last_col, pre, refreshes)`` of one bank of a sweep: its
#: ACT, last column and PRE cycles, and the channel's refresh count
#: after its ACT issued.
SweepBank = Tuple[int, int, int, int, int]


class SweepIssue(NamedTuple):
    """Issue outcome of one :class:`~repro.dram.commands.BankSweep`.

    ``anchors`` lists the banks issued command by command (the first
    bank, and every bank where a guard failed or a refresh went in).
    Every other bank issued in closed form right after its predecessor:
    ``act = previous pre + 1``, ``last_col = act + col_span``,
    ``pre = act + pre_span``, with the predecessor's refresh count. The
    outcome is O(anchors) in size; :meth:`per_bank` expands it.
    """

    anchors: List[SweepBank]
    banks: int
    col_span: int
    pre_span: int

    @property
    def last(self) -> int:
        """Cycle of the sweep's final PRE."""
        bank, _, _, pre, _ = self.anchors[-1]
        return pre + (self.banks - 1 - bank) * (self.pre_span + 1)

    @property
    def column_cycles(self) -> int:
        """Sum over banks of ``last_col - act`` (the columns' tag gaps)."""
        return (sum(lc - act for _, act, lc, _, _ in self.anchors)
                + (self.banks - len(self.anchors)) * self.col_span)

    def bank(self, index: int) -> Optional[SweepBank]:
        """Bank *index*'s :data:`SweepBank`, or ``None`` if not swept."""
        anchors = self.anchors
        if not anchors[0][0] <= index < self.banks:
            return None
        i = len(anchors) - 1
        while anchors[i][0] > index:
            i -= 1
        bank, _, _, pre, refreshes = anchors[i]
        if bank == index:
            return anchors[i]
        act = pre + 1 + (index - bank - 1) * (self.pre_span + 1)
        return index, act, act + self.col_span, act + self.pre_span, refreshes

    def per_bank(self) -> Iterator[SweepBank]:
        """Every bank's :data:`SweepBank`, in issue order."""
        anchors = self.anchors
        for i, anchor in enumerate(anchors):
            yield anchor
            bank, _, _, pre, refreshes = anchor
            end = anchors[i + 1][0] if i + 1 < len(anchors) else self.banks
            for follower in range(bank + 1, end):
                act = pre + 1
                pre = act + self.pre_span
                yield follower, act, act + self.col_span, pre, refreshes


#: One pending update of the per-bank states: a sweep's banks (with
#: their issue outcome), or a refresh's block cycle.
_PendingOp = Union[int, Tuple[BankSweep, SweepIssue]]


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
        # Pending per-bank states after sweeps from lock step: the shared
        # state they started from, then each sweep (with its issue
        # outcome) and each refresh's block cycle, in issue order. While
        # pending, ``_broadcast`` holds one precharged state carrying the
        # banks' maximum ``act_ready``.
        self._base: Optional[BankState] = None
        self._pending: Optional[List[_PendingOp]] = None
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
        """Leave lock step: copy the shared state into every bank and
        replay whatever is pending on top of it."""
        if self._broadcast is self._banks:
            return
        pending = self._pending
        shared = self._broadcast[0] if pending is None else self._base
        banks = self._banks
        for b in banks:
            b.open_row = shared.open_row
            b.act_ready = shared.act_ready
            b.rd_ready = shared.rd_ready
            b.wr_ready = shared.wr_ready
            b.pre_ready = shared.pre_ready
        self._broadcast = banks
        if pending is None:
            return
        self._base = self._pending = None
        for op in pending:
            if op.__class__ is int:
                for b in banks:
                    b.block_until(op)
                continue
            sweep, issue = op
            row, write = sweep.command.row, sweep.command.kind.is_write
            for bank, act, last_col, pre, _ in issue.per_bank():
                state = banks[bank]
                state.apply_act(act, row)
                (state.apply_write if write else state.apply_read)(last_col)
                state.apply_pre(pre)

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

    def issue_sweep(self, sweep: BankSweep) -> SweepIssue:
        """Issue a host sweep; exactly its expansion, mostly in closed form.

        An *anchor* bank issues command by command (``ACT``, the column
        run, ``PRE``) and absorbs whatever state the sweep meets: busy
        buses, RRD/FAW history, CCD and turnaround, the lock-step split,
        a refresh due before its ``ACT``. Each following bank then runs
        at fixed offsets from its own ``ACT`` cycle ``a``: the first
        column at ``a + tRCD``, the last at ``a + col_span``, ``PRE`` at
        ``a + pre_span`` and the next bank's ``ACT`` one cycle later
        (DESIGN.md, "Host sweeps"). That holds while

        * the columns carry no ``min_gap``, and the ``ACT`` period
          ``pre_span + 1`` covers tFAW and tRRD_L, and ``tRCD + 1``
          covers tCCD_L (sweep-wide);
        * the first follower's ``ACT`` clears RRD/FAW against the
          history, and every follower is precharged with ``act_ready``
          at or before its ``ACT``;
        * no refresh goes in before a follower's ``ACT``.

        A bank that fails a per-bank check becomes the next anchor; a
        sweep that fails a sweep-wide one issues command by command.
        Every bank window is a max-accumulation, so applying each
        follower's ``ACT``, last column and ``PRE`` reproduces the
        per-command state exactly, as in :meth:`issue_run`.

        A closed-form sweep that finds the channel in lock step with
        every bank precharged touches no bank state at all
        (:meth:`_sweep_from_lockstep`).
        """
        t = self.timing
        template = sweep.command
        beats, banks = sweep.beats, sweep.banks
        write = template.kind.is_write
        spacing = max(template.min_gap, 1, t.burst_cycles, t.tccd_l)
        col_span = t.trcd + (beats - 1) * spacing
        recovery = t.write_recovery if write else t.trtp
        pre_span = max(t.tras, col_span, col_span + recovery)
        period = pre_span + 1
        closed = (template.min_gap == 0 and period >= t.tfaw
                  and period >= t.trrd_l and t.trcd + 1 >= t.tccd_l)
        anchors: List[SweepBank] = []
        issue = SweepIssue(anchors, banks, col_span, pre_span)
        bank = 0
        if (closed and self._broadcast is not self._banks
                and not self._open_banks
                and banks <= self.banks_per_channel):
            bank = self._sweep_from_lockstep(sweep, issue, spacing)
        while bank < banks:
            anchors.append(self._sweep_anchor(sweep, bank))
            bank += 1
            if not closed or bank == banks:
                continue
            # The anchor split the lock-step state, and its PRE left the
            # open-bank count as the sweep found it.
            act = anchors[-1][3] + 1
            refresh_can_insert = self.enable_refresh and not self._open_banks
            if (self._rrd_window(bank, act) != act
                    or self._faw_window(act) != act):
                continue
            start, first = bank, act
            states = self._banks
            while bank < banks:
                state = states[bank]
                if (state.open_row is not None or state.act_ready > act
                        or (refresh_can_insert
                            and self._next_refresh <= act - 1)):
                    break
                state.apply_act(act, template.row)
                (state.apply_write if write else state.apply_read)(
                    act + col_span)
                state.apply_pre(act + pre_span)
                bank += 1
                act += period
            if bank > start:
                self._close_followers(sweep, start, bank, first, period,
                                      spacing)
        return issue

    def _sweep_from_lockstep(self, sweep: BankSweep, issue: SweepIssue,
                             spacing: int) -> int:
        """Issue *sweep* from lock step; return the first bank left to
        the per-bank path (``sweep.banks`` when it is all issued).

        Anchors come from :meth:`_lockstep_anchor` and followers from
        :meth:`_close_followers`; the per-bank states stay pending, and
        only the shared state's ``act_ready`` tracks the banks' maximum.
        A refresh lands before the first follower whose ``ACT - 1``
        reaches ``_next_refresh`` (found by division), and that bank
        becomes the next anchor. A follower that pending ``act_ready``
        windows would delay hands the rest of the sweep to the per-bank
        path, after the pending states are replayed.
        """
        t = self.timing
        if self._pending is None:
            self._base = self._broadcast[0]
            self._pending = []
            # The banks' shared view while pending: precharged, with
            # their maximum act_ready.
            shared = BankState(t)
            shared.act_ready = self._base.act_ready
            self._broadcast = [shared]
        shared = self._broadcast[0]
        pending = self._pending
        anchors = issue.anchors
        banks, col_span, pre_span = issue.banks, issue.col_span, issue.pre_span
        period = pre_span + 1
        recorded = 0    # anchors already in a pending op
        bank = 0
        while bank < banks:
            if self.enable_refresh and self._next_refresh <= self._now:
                # The refresh blocks every bank after this sweep's banks
                # so far and before the rest.
                if len(anchors) > recorded:
                    pending.append((sweep, SweepIssue(
                        anchors[recorded:], bank, col_span, pre_span)))
                    recorded = len(anchors)
                self._maybe_refresh(self._now)
            anchor = self._lockstep_anchor(sweep, bank, spacing)
            anchors.append(anchor)
            _, act, _, pre, _ = anchor
            shared.act_ready = max(shared.act_ready, act + t.trc,
                                   pre + t.trp)
            bank += 1
            if bank == banks:
                break
            act = pre + 1
            if (self._rrd_window(bank, act) != act
                    or self._faw_window(act) != act):
                continue
            end = banks
            if self.enable_refresh:
                end = min(end, bank + max(
                    0, -((act - 1 - self._next_refresh) // period)))
            if end == bank:
                continue
            if not self._pending_clear(bank, end, act, period):
                pending.append((sweep, SweepIssue(
                    anchors[recorded:], bank, col_span, pre_span)))
                self._split()
                return bank
            self._close_followers(sweep, bank, end, act, period, spacing)
            last_act = act + (end - 1 - bank) * period
            shared.act_ready = max(shared.act_ready, last_act + t.trc,
                                   last_act + pre_span + t.trp)
            bank = end
        pending.append((sweep, issue if not recorded else SweepIssue(
            anchors[recorded:], banks, col_span, pre_span)))
        return banks

    def _lockstep_anchor(self, sweep: BankSweep, bank: int,
                         spacing: int) -> SweepBank:
        """One bank of a sweep from lock step, priced as :meth:`issue`
        would its ``ACT``, column run and ``PRE`` (refresh already in).

        ``apply_act`` assigns the bank's column windows ``act + tRCD``
        and ``pre_ready = act + tRAS``; the columns then only add their
        recovery, so the bank's own state enters through ``act_ready``
        alone.
        """
        t = self.timing
        template = sweep.command
        write = template.kind.is_write
        group = self._group_of(bank)
        act = max(self._now, self._row_bus_free,
                  self._pending_act_ready(bank))
        act = self._faw_window(self._rrd_window(bank, act))
        refreshes = self.refreshes_performed
        self._act_times.append(act)
        self._last_act_cycle = act
        self._last_act_group = group
        first = max(act + t.trcd, self._col_bus_free,
                    self._ccd_window(group), self._turnaround(write))
        last_col = first + (sweep.beats - 1) * spacing
        self._last_col_cycle = last_col
        self._last_col_group = group
        self._last_col_was_write = write
        self._last_col_all_bank = False
        self._col_bus_free = last_col + 1
        recovery = t.write_recovery if write else t.trtp
        pre = max(act + t.tras, last_col, last_col + recovery)
        self._row_bus_free = pre + 1
        self._now = pre
        counts = self.counts
        counts[CommandType.ACT] += 1
        counts[template.kind] += sweep.beats
        counts[CommandType.PRE] += 1
        if self._checker is not None:
            observe = self._checker.observe
            act_cmd, column, pre_cmd = sweep.bank_commands(bank)
            observe(act, act_cmd)
            for k in range(sweep.beats):
                observe(first + k * spacing, column)
            observe(pre, pre_cmd)
        return bank, act, last_col, pre, refreshes

    def _pending_act_ready(self, bank: int) -> int:
        """One bank's ``act_ready``, replayed from the pending updates
        (``ACT`` adds ``+ tRC``, ``PRE`` adds ``+ tRP``, refresh blocks)."""
        t = self.timing
        ready = self._base.act_ready
        for op in self._pending:
            if op.__class__ is int:
                ready = max(ready, op)
                continue
            swept = op[1].bank(bank)
            if swept is not None:
                ready = max(ready, swept[1] + t.trc, swept[3] + t.trp)
        return ready

    def _pending_clear(self, start: int, end: int, first: int,
                       period: int) -> bool:
        """Whether banks ``[start, end)`` are ready for ACTs at ``first +
        (bank - start) * period`` under the pending sweeps.

        A pending sweep's ``act_ready`` contribution is linear in the
        bank across each anchor's followers, and so is the ACT cycle,
        so checking the ends of every stretch checks every bank. The
        shared state before the sweeps and every refresh block are at
        or before the current anchor's ``ACT``, hence before ``first``.
        """
        t = self.timing
        for op in self._pending:
            if op.__class__ is int:
                continue
            issue = op[1]
            anchors = issue.anchors
            span = issue.pre_span
            for i, (a_bank, a_act, _, a_pre, _) in enumerate(anchors):
                if a_bank >= end:
                    break
                if (a_bank >= start and max(a_act + t.trc, a_pre + t.trp)
                        > first + (a_bank - start) * period):
                    return False
                stop = (anchors[i + 1][0] if i + 1 < len(anchors)
                        else issue.banks)
                lo, hi = max(a_bank + 1, start), min(stop, end) - 1
                if lo > hi:
                    continue
                for b in (lo, hi):
                    act = a_pre + 1 + (b - a_bank - 1) * (span + 1)
                    if (max(act + t.trc, act + span + t.trp)
                            > first + (b - start) * period):
                        return False
        return True

    def _sweep_anchor(self, sweep: BankSweep, bank: int) -> SweepBank:
        """Issue one bank of a sweep command by command."""
        act_cmd, column, pre_cmd = sweep.bank_commands(bank)
        act = self.issue(act_cmd)
        refreshes = self.refreshes_performed
        last_col = (self.issue(column) if sweep.beats == 1
                    else self.issue_run(column, sweep.beats)[1])
        return bank, act, last_col, self.issue(pre_cmd), refreshes

    def _close_followers(self, sweep: BankSweep, start: int, end: int,
                         first: int, period: int, spacing: int) -> None:
        """Scheduler history after closed-form banks ``[start, end)``."""
        t = self.timing
        beats = sweep.beats
        n = end - start
        last_act = first + (n - 1) * period
        last_col = last_act + t.trcd + (beats - 1) * spacing
        last_pre = last_act + period - 1
        self._act_times.extend(first + i * period
                               for i in range(max(0, n - 4), n))
        self._last_act_cycle = last_act
        self._last_act_group = self._group_of(end - 1)
        self._last_col_cycle = last_col
        self._last_col_group = self._group_of(end - 1)
        self._col_bus_free = last_col + 1
        self._row_bus_free = last_pre + 1
        self.counts[CommandType.ACT] += n
        self.counts[CommandType.PRE] += n
        self.counts[sweep.command.kind] += n * beats
        self._now = last_pre
        if self._checker is not None:
            # The checker sees the per-command expansion at the
            # closed-form cycles, which validates the offsets themselves.
            observe = self._checker.observe
            for i, bank in enumerate(range(start, end)):
                act = first + i * period
                act_cmd, column, pre_cmd = sweep.bank_commands(bank)
                observe(act, act_cmd)
                for k in range(beats):
                    observe(act + t.trcd + k * spacing, column)
                observe(act + period - 1, pre_cmd)

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
            self._base = self._pending = None
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
        if self._pending is not None:
            self._pending.append(done)
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
