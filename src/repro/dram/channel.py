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
Fresh banks are identical, so a channel starts in lock step.

A host sweep that meets every bank precharged, in lock step or split,
leaves the channel in lock step: the shared state plus a per-bank
``act_ready`` vector, each bank's last sweep touch and the last refresh
block, from which a single-bank read rebuilds the per-bank list exactly
(DESIGN.md, "Host sweeps").
"""

from __future__ import annotations

from collections import deque
from typing import (AbstractSet, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)

from ..errors import TimingError
from .bank import BankState
from .commands import BankSweep, Command, CommandType, RowVisit
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

    ``anchors`` lists the banks whose ``ACT`` waited on the history: the
    first bank, every bank whose ``act_ready`` or tFAW held its ``ACT``
    back and every bank a refresh went in before (every bank, when the
    sweep issued command by command). Every other bank issued in closed
    form right after its predecessor: ``act = previous pre + 1``,
    ``last_col = act + col_span``, ``pre = act + pre_span``, with the
    predecessor's refresh count. The outcome is O(anchors) in size;
    :meth:`per_bank` expands it.
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
        # lock step, one state shared by all. Fresh banks are identical,
        # so a channel starts in lock step.
        self._broadcast: List[BankState] = [BankState(timing)]
        # A precharged lock-step channel after host sweeps: each bank's
        # act_ready (else None), and each bank's last sweep touch: its
        # ACT (-1 for none) and that sweep's shape, the last column's
        # offset from the ACT and its direction. The shared state then
        # holds the banks' maximum act_ready and, unless the sweeps
        # found the banks split (_own_windows), the other windows of
        # every bank no sweep touched; _block is the last refresh's
        # block cycle.
        self._ready: Optional[List[int]] = None
        self._own_windows = False
        self._touch_act: List[int] = []
        self._touch_shape: List[Tuple[int, bool]] = []
        self._block = 0
        # Tag cycles of row-visit stretches (the controller shares one
        # dict across its channels), and the beats of stretches tagged
        # with one of host_tags.
        self.tag_cycles: Dict[str, int] = {}
        self.host_tags: AbstractSet[str] = frozenset()
        self.host_columns = 0
        # Attribution's per-lane charge record for this channel (a
        # repro.obs.attrib.ChannelCharges), when a collector rides the
        # pass: every gap of the expansion lands on one of its lanes.
        self.lanes = None
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
        # Issue spacing of the columns after a stretch's first.
        self._col_spacing = max(1, timing.burst_cycles, timing.tccd_l)
        # An ACT's windows past its issue cycle: RD/WR, PRE and ACT.
        self._act_windows = (timing.trcd, timing.tras, timing.trc)
        # Column rules by direction (indexed by is_write): the data-bus
        # turnaround into it, and a column's PRE, RD and WR windows past
        # its issue cycle (BankState.apply_read / apply_write).
        self._turn = (timing.write_to_read, timing.read_to_write)
        self._col_after = (
            (timing.trtp, timing.burst_cycles, timing.read_to_write),
            (timing.write_recovery, timing.write_to_read,
             timing.burst_cycles))
        #: Cycle at which the most recent command issued.
        self.now = 0
        self.counts: Dict[CommandType, int] = {k: 0 for k in CommandType}
        self.refreshes_performed = 0

    # ------------------------------------------------------------------
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
        """Leave lock step: copy the shared state into every bank (unless
        host sweeps found the banks split), then, after host sweeps,
        each bank's ``act_ready``, last touch and the last block.

        A swept bank is precharged, so ``act_ready`` is its only window
        the sweeps' ``ACT``/``PRE`` pairs accumulate; its last ``ACT``
        assigned the others, its last column raised them, and only a
        refresh after that can raise them further. A refresh before the
        touch blocked no later than that ``ACT``, so the last block is
        the only one that can bind.
        """
        if self._broadcast is self._banks:
            return
        shared = self._broadcast[0]
        banks = self._banks
        self._broadcast = banks
        ready = self._ready
        if ready is None or not self._own_windows:
            for b in banks:
                b.open_row = shared.open_row
                b.act_ready = shared.act_ready
                b.rd_ready = shared.rd_ready
                b.wr_ready = shared.wr_ready
                b.pre_ready = shared.pre_ready
        if ready is None:
            return
        self._ready = None
        block = self._block
        for i, state in enumerate(banks):
            act = self._touch_act[i]
            if act >= 0:
                col, write = self._touch_shape[i]
                # Opening no row: the bank ends precharged.
                state.apply_act(act, None)
                (state.apply_write if write else state.apply_read)(act + col)
            state.block_until(block)
            state.act_ready = ready[i]

    def _group_of(self, bank: int) -> int:
        return bank // BANKS_PER_GROUP

    # ------------------------------------------------------------------
    def issue(self, command: Command, earliest: int = 0) -> int:
        """Issue *command* no earlier than *earliest*; return its cycle.

        Commands must arrive in program order (in-order controller, as the
        paper requires for PIM: out-of-order issue is disabled).
        """
        earliest = max(earliest, self.now + command.min_gap)
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
        self.now = cycle
        if self._checker is not None:
            self._checker.observe(cycle, command)
        return cycle

    def issue_visit(self, visit: RowVisit) -> List[int]:
        """Issue a row visit; return its ``ACT`` cycle, each stretch's
        last column cycle and its ``PRE`` cycle, in order.

        The ``ACT`` issues as :meth:`issue` would (a due refresh goes in
        first). From there on a bank is open, so no refresh can go in
        until the ``PRE``, and every column targets the row the ``ACT``
        opened: each stretch's first column waits for the column bus,
        the bank windows, CCD and turnaround, and its successors follow
        at the fixed spacing ``max(1, burst, tCCD_L)``. Every bank window
        is a max-accumulation, so applying each stretch's last column
        reproduces the per-command state exactly. An ``ACT_AB`` enters
        lock step, so an all-bank visit reads and writes only the one
        shared state, in place when the channel is already in lock step;
        a single-bank visit uses its own bank's. Each stretch adds its
        gap to the command before it to :attr:`tag_cycles` under its
        tag, as the expansion's columns would, and with :attr:`lanes`
        set, the ``ACT``'s, each stretch's and the ``PRE``'s gap lands
        on the visit's lane (all-bank or its bank's) after any stall
        debt and inserted refresh. The cost is O(stretches) (DESIGN.md,
        "Row visits").
        """
        now = self.now
        if self.enable_refresh and self._next_refresh <= now:
            self._maybe_refresh(now)
        cycle = self._row_bus_free if self._row_bus_free > now else now
        t = self.timing
        all_bank = visit.all_bank
        group: Optional[int] = None
        counts = self.counts
        if not all_bank:
            bank = visit.bank
            state = self._bank(bank)
            act = self._activate(state, bank, cycle, visit.row)
            group = self._group_of(bank)
            counts[CommandType.ACT] += 1
            pre_kind = CommandType.PRE
            rd, wr, pre_ready = state.rd_ready, state.wr_ready, state.pre_ready
        elif self._broadcast is self._banks:
            act = self._activate_all(cycle, visit.row)
            state = self._broadcast[0]
            counts[CommandType.ACT_AB] += 1
            pre_kind = CommandType.PRE_AB
            rd, wr, pre_ready = state.rd_ready, state.wr_ready, state.pre_ready
        else:
            # Lock step: the broadcast ACT on the shared state, which it
            # leaves precharged again at the PRE. It issues at or past
            # every bank's act_ready and assigns every other window, as
            # apply_act does.
            state = self._broadcast[0]
            if state.open_row is not None:
                raise TimingError("ACT issued to a bank with an open row")
            act = state.act_ready
            if cycle > act:
                act = cycle
            trcd, tras, trc = self._act_windows
            state.act_ready = act + trc
            rd = wr = act + trcd
            pre_ready = act + tras
            self._ready = None
            self._last_act_cycle = act
            self._last_act_group = None
            counts[CommandType.ACT_AB] += 1
            pre_kind = CommandType.PRE_AB
        ends = [act]
        now = act
        lanes = self.lanes
        lane = None
        if lanes is not None:
            lane = lanes.shared if all_bank else lanes.own[visit.bank]
            column = lanes.column
            refreshes = self.refreshes_performed
            # The ACT's gap, charged to row with the PRE's.
            head = act - lanes.clock
            if lanes.owed or lanes.refreshes != refreshes:
                head = lanes.settle(head, refreshes)
            owed = lanes.owed
        stretches = visit.stretches
        if stretches:
            # The per-command rules of _issue_column and BankState's
            # apply_read/apply_write, on locals: each stretch's first
            # column, then its last at the fixed spacing.
            spacing = self._col_spacing
            turns, col_after = self._turn, self._col_after
            col_free = self._col_bus_free
            last_col = self._last_col_cycle
            last_write = self._last_col_was_write
            same_group = self._last_col_all_bank or all_bank or (
                self._last_col_group == group)
            tags = self.tag_cycles
            for kind, beats, _, tag in stretches:
                write = kind.is_write
                first = col_free if col_free > now else now
                ready = wr if write else rd
                if ready > first:
                    first = ready
                if last_col >= 0:
                    ccd = last_col + (t.tccd_l if same_group else t.tccd_s)
                    if ccd > first:
                        first = ccd
                    if write != last_write:
                        turn = last_col + turns[write]
                        if turn > first:
                            first = turn
                end = first + (beats - 1) * spacing
                to_pre, to_rd, to_wr = col_after[write]
                if end + to_pre > pre_ready:
                    pre_ready = end + to_pre
                if end + to_rd > rd:
                    rd = end + to_rd
                if end + to_wr > wr:
                    wr = end + to_wr
                counts[kind] += beats
                # The stretch's columns gap from the command before it:
                # the ACT, then the previous stretch's last.
                gap = end - now
                if tag is not None:
                    tags[tag] = tags.get(tag, 0) + gap
                    if tag in self.host_tags:
                        self.host_columns += beats
                if lane is not None:
                    if owed:
                        gap = lanes.settle(gap, refreshes)
                        owed = lanes.owed
                    lane[column[tag]] += gap
                ends.append(end)
                now = last_col = end
                last_write, same_group = write, True
                col_free = end + 1
            self._last_col_cycle = now
            self._last_col_group = group
            self._last_col_was_write = last_write
            self._last_col_all_bank = all_bank
            self._col_bus_free = col_free
        # The PRE, as _issue_row and BankState.apply_pre would.
        pre = now if now > act else act + 1
        if pre_ready > pre:
            pre = pre_ready
        state.open_row = None
        state.rd_ready, state.wr_ready, state.pre_ready = rd, wr, pre_ready
        after = pre + t.trp
        if after > state.act_ready:
            state.act_ready = after
        if all_bank:
            self._open_banks = 0
        else:
            self._open_banks -= 1
        self._row_bus_free = pre + 1
        counts[pre_kind] += 1
        if lane is not None:
            gap = pre - now
            if owed:
                gap = lanes.settle(gap, refreshes)
            lane[lanes.row] += head + gap
            lanes.clock = pre
        ends.append(pre)
        self.now = pre
        if self._checker is not None:
            # The checker sees the visit's per-command expansion at the
            # closed-form cycles, which validates the spacing itself.
            observe = self._checker.observe
            rows = visit.rows()
            observe(act, next(rows)[0])
            for end, (column, beats) in zip(ends[1:-1], rows):
                for k in range(beats - 1, -1, -1):
                    observe(end - k * self._col_spacing, column)
            observe(pre, next(rows)[0])
        return ends

    def issue_sweep(self, sweep: BankSweep) -> SweepIssue:
        """Issue a host sweep; exactly its expansion.

        A sweep that meets every bank of the channel precharged prices
        in one closed-form loop on the per-bank ``act_ready`` vector
        (:meth:`_sweep_lockstep`, DESIGN.md "Host sweeps"). Each bank
        after an anchor runs at fixed offsets from its own ``ACT`` cycle
        ``a``: the first column at ``a + tRCD``, the last at
        ``a + col_span``, ``PRE`` at ``a + pre_span`` and the next
        bank's ``ACT`` one cycle later. That needs, sweep-wide, columns
        with no ``min_gap``, an ``ACT`` period ``pre_span + 1`` that
        covers tFAW and tRRD_L, and ``tRCD + 1`` covering tCCD_L. A
        sweep that fails one of these, or meets an open bank, issues
        its expansion command by command.
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
        anchors: List[SweepBank] = []
        issue = SweepIssue(anchors, banks, col_span, pre_span)
        if (template.min_gap == 0 and period >= t.tfaw
                and period >= t.trrd_l and t.trcd + 1 >= t.tccd_l
                and not self._open_banks
                and banks <= self.banks_per_channel):
            self._sweep_lockstep(sweep, issue, spacing)
            return issue
        for bank in range(banks):
            act_cmd, column, pre_cmd = sweep.bank_commands(bank)
            act = self.issue(act_cmd)
            # No refresh goes in while the bank is open.
            refreshes = self.refreshes_performed
            for _ in range(beats):
                last_col = self.issue(column)
            pre = self.issue(pre_cmd)
            anchors.append((bank, act, last_col, pre, refreshes))
            if self.lanes is not None:
                self._charge_bank(bank, self.lanes.column[template.tag],
                                  act, last_col, pre)
        return issue

    def _sweep_lockstep(self, sweep: BankSweep, issue: SweepIssue,
                        spacing: int) -> None:
        """Issue *sweep* on a precharged channel, all of it.

        The channel enters (or stays in) lock step on the per-bank
        ``act_ready`` vector: a bank's ``ACT`` reads only its own entry,
        and the sweep records each bank's ``ACT``, last column and
        direction as its last touch (:meth:`_split` rebuilds the
        per-bank states from them). A split channel enters with its
        banks' ``act_ready`` as the vector, and its banks keep their
        other windows. An anchor is priced on the bus, CCD, turnaround,
        RRD and FAW history as :meth:`issue_visit` would its ``ACT``,
        columns and ``PRE``, after any refresh due; followers run in
        closed form while ``act_ready`` is at or before their ``ACT``
        and no refresh falls due (found by division), and the bank that
        ends a run becomes the next anchor. The scheduler's history
        lives on locals until the sweep ends or a refresh goes in.

        With :attr:`lanes` set, each anchor is charged as the
        single-bank visit it is. A follower owes ``pre_span + 1 -
        col_span`` row and ``col_span`` column cycles, so a run of them
        is one bank-range tally, or, while cycles are owed, a charge per
        bank (:meth:`_charge_bank`).
        """
        t = self.timing
        ready = self._ready
        if ready is None:
            n = self.banks_per_channel
            self._own_windows = self._broadcast is self._banks
            if self._own_windows:
                ready = [b.act_ready for b in self._banks]
                self._broadcast = [BankState(t)]
                self._broadcast[0].act_ready = max(ready)
            else:
                ready = [self._broadcast[0].act_ready] * n
            self._ready = ready
            self._touch_act = [-1] * n
            self._touch_shape = [(0, False)] * n
            self._block = 0
        shared = self._broadcast[0]
        touch_act, touch_shape = self._touch_act, self._touch_shape
        kind = sweep.command.kind
        write = kind.is_write
        banks, col_span, pre_span = issue.banks, issue.col_span, issue.pre_span
        period = pre_span + 1
        trcd, tras, trc = self._act_windows
        trp = t.trp
        col_tail = col_span - trcd
        to_pre = self._col_after[write][0]
        # A follower's act_ready after its ACT a is a + grow.
        grow = max(trc, pre_span + trp)
        refresh = self.enable_refresh
        checker = self._checker
        anchors = issue.anchors
        act_times = self._act_times
        now, row_free = self.now, self._row_bus_free
        col_free = self._col_bus_free
        last_act, act_group = self._last_act_cycle, self._last_act_group
        last_col, col_group = self._last_col_cycle, self._last_col_group
        turn = 0 if self._last_col_was_write == write else self._turn[write]
        ccd_long = self._last_col_all_bank
        refreshes = self.refreshes_performed
        lanes = self.lanes
        if lanes is not None:
            own, runs, row = lanes.own, lanes.runs, lanes.row
            cat = lanes.column[sweep.command.tag]
        bank = 0
        while bank < banks:
            if refresh and self._next_refresh <= now:
                self.now, self._row_bus_free = now, row_free
                self._maybe_refresh(now)
                now, row_free = self.now, self._row_bus_free
                refreshes = self.refreshes_performed
            # An anchor: ACT, then the first column and the PRE.
            group = bank // BANKS_PER_GROUP
            act = row_free if row_free > now else now
            if ready[bank] > act:
                act = ready[bank]
            if last_act >= 0:
                rrd = last_act + (t.trrd_l if act_group == group
                                  else t.trrd_s)
                if rrd > act:
                    act = rrd
            if len(act_times) == 4 and act_times[0] + t.tfaw > act:
                act = act_times[0] + t.tfaw
            first = act + trcd
            if col_free > first:
                first = col_free
            if last_col >= 0:
                ccd = last_col + (t.tccd_l if ccd_long or col_group == group
                                  else t.tccd_s)
                if ccd > first:
                    first = ccd
                if turn and last_col + turn > first:
                    first = last_col + turn
            last_col = first + col_tail
            pre = act + tras
            if last_col + to_pre > pre:
                pre = last_col + to_pre
            if last_col > pre:
                pre = last_col
            act_times.append(act)
            last_act = act
            act_group = col_group = group
            turn, ccd_long = 0, False
            col_free = last_col + 1
            row_free = pre + 1
            now = pre
            anchors.append((bank, act, last_col, pre, refreshes))
            touch_act[bank] = act
            touch_shape[bank] = (last_col - act, write)
            after = act + trc if act + trc > pre + trp else pre + trp
            ready[bank] = after
            if after > shared.act_ready:
                shared.act_ready = after
            if checker is not None:
                self._observe_bank(sweep, bank, act, first, pre, spacing)
            if lanes is None:
                pass
            elif lanes.owed or lanes.refreshes != refreshes:
                self._charge_bank(bank, cat, act, last_col, pre)
            else:
                lane = own[bank]
                lane[row] += act - lanes.clock + pre - last_col
                lane[cat] += last_col - act
                lanes.clock = pre
            bank += 1
            if bank == banks:
                break
            # Followers from pre + 1 on. RRD already holds, as the next
            # ACT is at least a period past this one; FAW may not.
            act = pre + 1
            if len(act_times) == 4 and act_times[0] + t.tfaw > act:
                continue
            end = banks
            if refresh:
                due = bank - (act - 1 - self._next_refresh) // period
                if due < end:
                    end = due
            start = bank
            while bank < end and ready[bank] <= act:
                bank += 1
                act += period
            if bank == start:
                continue
            first = act - (bank - start) * period
            ready[start:bank] = range(first + grow, act + grow, period)
            touch_act[start:bank] = range(first, act, period)
            touch_shape[start:bank] = [(col_span, write)] * (bank - start)
            act_times.extend(range(max(first, act - 4 * period), act, period))
            if checker is not None:
                for b, a in zip(range(start, bank),
                                range(first, act, period)):
                    self._observe_bank(sweep, b, a, a + trcd, a + pre_span,
                                       spacing)
            last_act = act - period
            act_group = col_group = (bank - 1) // BANKS_PER_GROUP
            last_col = last_act + col_span
            col_free = last_col + 1
            now = last_act + pre_span
            row_free = now + 1
            if lanes is None:
                pass
            elif lanes.owed:
                for b, a in zip(range(start, bank),
                                range(first, act, period)):
                    self._charge_bank(b, cat, a, a + col_span, a + pre_span)
            else:
                lo, hi = runs[start], runs[bank]
                lo[row] += period - col_span
                lo[cat] += col_span
                hi[row] -= period - col_span
                hi[cat] -= col_span
                lanes.clock = now
            if last_act + grow > shared.act_ready:
                shared.act_ready = last_act + grow
        self.now, self._row_bus_free = now, row_free
        self._col_bus_free = col_free
        self._last_act_cycle, self._last_act_group = last_act, act_group
        self._last_col_cycle, self._last_col_group = last_col, col_group
        self._last_col_was_write = write
        self._last_col_all_bank = False
        counts = self.counts
        counts[CommandType.ACT] += banks
        counts[kind] += banks * sweep.beats
        counts[CommandType.PRE] += banks

    def _charge_bank(self, bank: int, cat: int, act: int, last_col: int,
                     pre: int) -> None:
        """Charge one bank of a sweep as the single-bank visit it is:
        its ``ACT``'s, its columns' (to *cat*) and its ``PRE``'s gap,
        each after any owed cycles and inserted refresh."""
        lanes = self.lanes
        refreshes = self.refreshes_performed
        head = lanes.settle(act - lanes.clock, refreshes)
        # No refresh goes in while the bank is open: only owed cycles
        # can reach its columns and PRE.
        columns, tail = last_col - act, pre - last_col
        if lanes.owed:
            columns = lanes.settle(columns, refreshes)
            tail = lanes.settle(tail, refreshes)
        lane = lanes.own[bank]
        lane[lanes.row] += head + tail
        lane[cat] += columns
        lanes.clock = pre

    def _observe_bank(self, sweep: BankSweep, bank: int, act: int,
                      first: int, pre: int, spacing: int) -> None:
        """Show the protocol checker one bank of *sweep*'s expansion:
        its ``ACT``, its columns from *first* on and its ``PRE``."""
        observe = self._checker.observe
        act_cmd, column, pre_cmd = sweep.bank_commands(bank)
        observe(act, act_cmd)
        for k in range(sweep.beats):
            observe(first + k * spacing, column)
        observe(pre, pre_cmd)

    # ------------------------------------------------------------------
    # row commands
    # ------------------------------------------------------------------
    def _issue_row(self, command: Command, earliest: int) -> int:
        kind = command.kind
        cycle = max(earliest, self._row_bus_free)
        if kind is CommandType.ACT:
            cycle = self._activate(self._bank(command.bank), command.bank,
                                   cycle, command.row)
        elif kind is CommandType.ACT_AB:
            cycle = self._activate_all(cycle, command.row)
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

    def _activate(self, state: BankState, bank: int, cycle: int,
                  row: int) -> int:
        """Open *row* in one bank no earlier than *cycle*; return the
        ``ACT`` cycle."""
        cycle = max(cycle, state.earliest_act())
        cycle = self._faw_window(self._rrd_window(bank, cycle))
        state.apply_act(cycle, row)
        self._open_banks += 1
        self._act_times.append(cycle)
        self._last_act_cycle = cycle
        self._last_act_group = self._group_of(bank)
        return cycle

    def _activate_all(self, cycle: int, row: int) -> int:
        """Open *row* in every bank no earlier than *cycle*; return the
        ``ACT_AB`` cycle."""
        broadcast = self._broadcast
        if broadcast is self._banks:
            cycle = max(cycle, *(b.earliest_act() for b in broadcast))
            shared = BankState(self.timing)
            self._broadcast = [shared]
        else:
            # Lock step: one state stands for every bank, and nothing but
            # this scheduler holds it, so it is reused.
            shared = broadcast[0]
            cycle = max(cycle, shared.earliest_act())
        # The issue cycle is at or past every bank's act_ready, so
        # apply_act leaves every bank in the same state: enter (or stay
        # in) lock step with one shared state.
        shared.apply_act(cycle, row)
        self._ready = None
        self._open_banks = self.banks_per_channel
        # Broadcast ACT resets single-bank RRD history; internal
        # staggering is folded into the per-bank tRC spacing.
        self._last_act_cycle = cycle
        self._last_act_group = None
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
        return self._last_col_cycle + self._turn[write]

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
        ready = self._ready
        if ready is not None:
            # The refresh issued at or past the banks' maximum act_ready,
            # so done is past every one of them.
            ready[:] = [done] * len(ready)
            self._block = done
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
        while self._next_refresh <= max(earliest, self.now):
            self.counts[CommandType.REF] += 1
            self.now = self._issue_refresh(max(self._next_refresh,
                                                self.now))
            if self._checker is not None:
                # Deferred refreshes never appear in the input trace, so
                # the checker observes them here, in issue order.
                self._checker.observe(
                    self.now, Command(CommandType.REF,
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
            "cycles": self.now,
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
