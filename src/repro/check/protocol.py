"""Independent JEDEC protocol checker for DRAM command schedules.

This module re-derives the HBM2 legality rules straight from
:class:`~repro.dram.timing.TimingParams` and *checks* timed command
streams against them. It deliberately shares no code with the scheduler
(:mod:`repro.dram.channel` / :mod:`repro.dram.bank`): the scheduler
*constructs* the earliest legal cycle for each command, while the checker
only *verifies* a given ``(cycle, command)`` stream, holding its own
per-bank event history and evaluating every constraint as an independent
inequality. A bug in the scheduler's window bookkeeping therefore shows
up as a reported violation instead of silently mispricing the paper's
figures.

Checked rules (JEDEC HBM2 plus the model's documented extensions):

* bank-state legality — ACT only on a precharged bank, column commands
  only against the matching open row, PRE only on an open bank, REF only
  with every bank precharged;
* per-bank windows — tRCD, tRP, tRAS, tRC, tRTP, write recovery
  (``CWL + BL/2 + tWR``), burst occupancy, per-bank read<->write gaps;
* channel windows — tCCD_S/tCCD_L (broadcast columns always pay the long
  spacing), tRRD_S/tRRD_L, the four-activation window over single-bank
  ACTs (broadcast ACTs are excluded: all-bank mode staggers activation
  internally under a relaxed power budget, spaced by tRC per bank),
  data-bus read<->write turnaround, refresh blackout (tRFC);
* bus legality — one row command and one column command per cycle, mode
  switches occupying both buses for ``mode_switch_cycles``;
* stream legality — in-order non-decreasing issue cycles, per-command
  ``min_gap`` honoured, and the Fig. 1 SB/AB/AB-PIM mode protocol
  (broadcast data commands require a mode-switch history that can reach
  an all-bank mode).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..dram.commands import Command, CommandType, TraceEntry, as_run
from ..dram.timing import TimingParams
from ..errors import CheckError

_BANKS = 16
_BANKS_PER_GROUP = 4
_LONG_AGO = -(10 ** 9)

#: Fig. 1 mode-transition graph, re-stated here (not imported from the
#: engine) so the checker stays self-contained.
_MODE_EDGES = {
    "SB": ("AB",),
    "AB": ("AB_PIM", "SB"),
    "AB_PIM": ("SB", "AB"),
}
_PIM_MODES = frozenset({"AB", "AB_PIM"})


@dataclass(frozen=True)
class Violation:
    """One protocol rule broken by one command of the stream."""

    index: int            # position in the channel's command stream
    cycle: int            # cycle the command was issued at
    kind: CommandType
    channel: int
    bank: Optional[int]   # None for all-bank / channel-wide commands
    constraint: str       # e.g. "tFAW", "tRCD", "bank-state"
    earliest_legal: int   # first cycle the command would have been legal
    detail: str

    def __str__(self) -> str:
        where = ("all banks" if self.bank is None
                 else f"bank {self.bank}")
        return (f"cmd[{self.index}] {self.kind.name} ch{self.channel} "
                f"{where} @ {self.cycle}: {self.constraint} — "
                f"{self.detail} (earliest legal {self.earliest_legal})")


class _BankHistory:
    """Last-event timestamps of one bank (the checker's own bookkeeping)."""

    __slots__ = ("open_row", "t_act", "t_pre", "t_rd", "t_wr", "t_ref_end")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.t_act = _LONG_AGO
        self.t_pre = _LONG_AGO
        self.t_rd = _LONG_AGO
        self.t_wr = _LONG_AGO
        self.t_ref_end = 0


class ProtocolChecker:
    """Replays a timed command stream and records every rule violation.

    ``observe(cycle, command)`` consumes the stream in issue order;
    violations accumulate on :attr:`violations` (or raise
    :class:`~repro.errors.CheckError` immediately when ``strict``).
    """

    def __init__(self, timing: TimingParams, channel: int = 0,
                 strict: bool = False) -> None:
        self.timing = timing
        self.channel = channel
        self.strict = strict
        self.violations: List[Violation] = []
        self.commands_seen = 0
        t = timing
        # Derived constants, recomputed from the raw config fields so the
        # checker does not rely on the TimingParams convenience properties.
        self._trc = t.tras + t.trp
        self._rd_to_wr = t.cl + t.burst_cycles + 2 - t.cwl
        self._wr_to_rd = t.cwl + t.burst_cycles + t.twtr
        self._wr_to_pre = t.cwl + t.burst_cycles + t.twr
        self._banks = [_BankHistory() for _ in range(_BANKS)]
        self._row_bus_free = 0
        self._col_bus_free = 0
        self._prev_cycle = 0
        # min_gap counts from the previous *trace* command; refreshes the
        # scheduler inserts on its own are not trace commands.
        self._gap_anchor = 0
        # column history: (cycle, group or None, was_write, all_bank)
        self._last_col: Optional[Tuple[int, Optional[int], bool, bool]] = None
        # ACT history: last ACT of any flavour, plus the four most recent
        # single-bank ACT cycles for the tFAW window.
        self._last_act: Optional[Tuple[int, Optional[int]]] = None
        self._faw: Deque[int] = deque(maxlen=4)
        # Fig. 1 mode protocol, tracked as the set of modes the stream
        # could be in (MODE commands do not name their target mode).
        self._modes = {"SB"}

    # ------------------------------------------------------------------
    def observe(self, cycle: int, command: Command,
                inserted: bool = False) -> List[Violation]:
        """Check one command issued at *cycle*; return its violations.

        *inserted* marks a command the scheduler added on its own (a
        deferred refresh): it is checked like any other, but it does not
        move the anchor the next trace command's ``min_gap`` counts from.
        """
        index = self.commands_seen
        self.commands_seen += 1
        found: List[Violation] = []

        def flag(constraint: str, earliest: int, detail: str,
                 bank: Optional[int] = None) -> None:
            found.append(Violation(
                index=index, cycle=cycle, kind=command.kind,
                channel=self.channel, bank=bank, constraint=constraint,
                earliest_legal=earliest, detail=detail))

        if cycle < self._prev_cycle:
            flag("in-order", self._prev_cycle,
                 f"issued at {cycle} before predecessor "
                 f"at {self._prev_cycle}")
        need = self._gap_anchor + command.min_gap
        if command.min_gap and cycle < need:
            flag("min_gap", need,
                 f"min_gap {command.min_gap} after {self._gap_anchor}")

        kind = command.kind
        if kind is CommandType.MODE:
            self._check_mode(cycle, flag)
        elif kind is CommandType.REF:
            self._check_refresh(cycle, flag)
        elif kind in (CommandType.ACT, CommandType.ACT_AB):
            self._check_act(cycle, command, flag)
        elif kind in (CommandType.PRE, CommandType.PRE_AB):
            self._check_pre(cycle, command, flag)
        else:
            self._check_column(cycle, command, flag)

        self._prev_cycle = max(self._prev_cycle, cycle)
        if not inserted:
            self._gap_anchor = max(self._gap_anchor, cycle)
        self.violations.extend(found)
        if self.strict and found:
            raise CheckError(str(found[0]))
        return found

    # ------------------------------------------------------------------
    # per-kind rules
    # ------------------------------------------------------------------
    def _check_act(self, cycle: int, command: Command, flag) -> None:
        t = self.timing
        all_bank = command.kind is CommandType.ACT_AB
        if all_bank:
            self._require_mode(cycle, flag)
            targets = list(range(_BANKS))
        else:
            targets = [self._bank_index(command, flag)]
        if cycle < self._row_bus_free:
            flag("row-bus", self._row_bus_free, "row command bus busy")
        for b in targets:
            h = self._banks[b]
            bank = None if all_bank else b
            if h.open_row is not None:
                flag("bank-state", cycle,
                     f"ACT while row {h.open_row} is open", bank)
            if cycle < h.t_pre + t.trp:
                flag("tRP", h.t_pre + t.trp,
                     f"PRE at {h.t_pre}", bank)
            if cycle < h.t_act + self._trc:
                flag("tRC", h.t_act + self._trc,
                     f"previous ACT at {h.t_act}", bank)
            if cycle < h.t_ref_end:
                flag("tRFC", h.t_ref_end, "bank in refresh blackout", bank)
        if not all_bank:
            b = targets[0]
            if self._last_act is not None:
                last_cycle, last_group = self._last_act
                same = last_group == b // _BANKS_PER_GROUP
                spacing = t.trrd_l if same else t.trrd_s
                name = "tRRD_L" if same else "tRRD_S"
                if cycle < last_cycle + spacing:
                    flag(name, last_cycle + spacing,
                         f"ACT at {last_cycle} "
                         f"({'same' if same else 'other'} group)", b)
            if len(self._faw) == 4 and cycle < self._faw[0] + t.tfaw:
                flag("tFAW", self._faw[0] + t.tfaw,
                     f"fifth ACT inside the window opened at "
                     f"{self._faw[0]}", b)
        # effects
        for b in targets:
            h = self._banks[b]
            h.open_row = command.row
            h.t_act = cycle
        if all_bank:
            self._last_act = (cycle, None)
        else:
            self._last_act = (cycle, targets[0] // _BANKS_PER_GROUP)
            self._faw.append(cycle)
        self._row_bus_free = cycle + 1

    def _check_pre(self, cycle: int, command: Command, flag) -> None:
        t = self.timing
        all_bank = command.kind is CommandType.PRE_AB
        if all_bank:
            self._require_mode(cycle, flag)
            targets = [b for b in range(_BANKS)
                       if self._banks[b].open_row is not None]
            if not targets:
                flag("bank-state", cycle, "PRE_AB with no open banks")
        else:
            targets = [self._bank_index(command, flag)]
        if cycle < self._row_bus_free:
            flag("row-bus", self._row_bus_free, "row command bus busy")
        for b in targets:
            h = self._banks[b]
            bank = None if all_bank else b
            if h.open_row is None:
                flag("bank-state", cycle, "PRE on a precharged bank", bank)
                continue
            if cycle < h.t_act + t.tras:
                flag("tRAS", h.t_act + t.tras,
                     f"ACT at {h.t_act}", bank)
            if cycle < h.t_rd + t.trtp:
                flag("tRTP", h.t_rd + t.trtp, f"RD at {h.t_rd}", bank)
            if cycle < h.t_wr + self._wr_to_pre:
                flag("tWR", h.t_wr + self._wr_to_pre,
                     f"WR at {h.t_wr}", bank)
            if cycle < h.t_ref_end:
                flag("tRFC", h.t_ref_end, "bank in refresh blackout", bank)
        for b in targets:
            h = self._banks[b]
            h.open_row = None
            h.t_pre = cycle
        self._row_bus_free = cycle + 1

    def _check_column(self, cycle: int, command: Command, flag) -> None:
        t = self.timing
        kind = command.kind
        write = kind.is_write
        all_bank = kind.is_all_bank
        if all_bank:
            self._require_mode(cycle, flag)
            targets = list(range(_BANKS))
            group: Optional[int] = None
        else:
            targets = [self._bank_index(command, flag)]
            group = targets[0] // _BANKS_PER_GROUP
        if cycle < self._col_bus_free:
            flag("col-bus", self._col_bus_free, "column command bus busy")
        for b in targets:
            h = self._banks[b]
            bank = None if all_bank else b
            if h.open_row is None:
                flag("bank-state", cycle,
                     "column command to a precharged bank", bank)
                continue
            if h.open_row != command.row:
                flag("bank-state", cycle,
                     f"column targets row {command.row} but row "
                     f"{h.open_row} is open", bank)
            if cycle < h.t_act + t.trcd:
                flag("tRCD", h.t_act + t.trcd,
                     f"ACT at {h.t_act}", bank)
            same_dir = h.t_wr if write else h.t_rd
            if cycle < same_dir + t.burst_cycles:
                flag("burst", same_dir + t.burst_cycles,
                     f"previous burst at {same_dir}", bank)
            if write and cycle < h.t_rd + self._rd_to_wr:
                flag("rd->wr", h.t_rd + self._rd_to_wr,
                     f"RD at {h.t_rd}", bank)
            if not write and cycle < h.t_wr + self._wr_to_rd:
                flag("wr->rd", h.t_wr + self._wr_to_rd,
                     f"WR at {h.t_wr}", bank)
            if cycle < h.t_ref_end:
                flag("tRFC", h.t_ref_end, "bank in refresh blackout", bank)
        if self._last_col is not None:
            lc_cycle, lc_group, lc_write, lc_all = self._last_col
            same_group = (group is None or lc_all or lc_group == group)
            spacing = t.tccd_l if same_group else t.tccd_s
            name = "tCCD_L" if same_group else "tCCD_S"
            if cycle < lc_cycle + spacing:
                flag(name, lc_cycle + spacing,
                     f"column at {lc_cycle}")
            if write != lc_write:
                gap = self._rd_to_wr if write else self._wr_to_rd
                if cycle < lc_cycle + gap:
                    flag("turnaround", lc_cycle + gap,
                         f"{'RD' if write else 'WR'} at {lc_cycle}")
        for b in targets:
            h = self._banks[b]
            if write:
                h.t_wr = cycle
            else:
                h.t_rd = cycle
        self._last_col = (cycle, group, write, all_bank)
        self._col_bus_free = cycle + 1

    def _check_refresh(self, cycle: int, flag) -> None:
        t = self.timing
        if cycle < self._row_bus_free:
            flag("row-bus", self._row_bus_free, "row command bus busy")
        for b, h in enumerate(self._banks):
            if h.open_row is not None:
                flag("bank-state", cycle,
                     f"REF while row {h.open_row} is open", b)
            if cycle < h.t_pre + t.trp:
                flag("tRP", h.t_pre + t.trp, f"PRE at {h.t_pre}", b)
            if cycle < h.t_act + self._trc:
                flag("tRC", h.t_act + self._trc,
                     f"ACT at {h.t_act}", b)
            if cycle < h.t_ref_end:
                flag("tRFC", h.t_ref_end,
                     "previous refresh still in progress", b)
        for h in self._banks:
            h.t_ref_end = cycle + t.trfc
        self._row_bus_free = cycle + 1

    def _check_mode(self, cycle: int, flag) -> None:
        if cycle < self._row_bus_free or cycle < self._col_bus_free:
            flag("mode-bus", max(self._row_bus_free, self._col_bus_free),
                 "mode switch needs both command buses idle")
        done = cycle + self.timing.mode_switch_cycles
        self._row_bus_free = done
        self._col_bus_free = done
        self._modes = {m for mode in self._modes
                       for m in _MODE_EDGES[mode]}

    def _require_mode(self, cycle: int, flag) -> None:
        """Broadcast commands need a mode history reaching AB/AB-PIM."""
        reachable = self._modes & _PIM_MODES
        if not reachable:
            flag("mode-protocol", cycle,
                 "all-bank command while the Fig. 1 protocol is still "
                 "in SB mode (no mode switch issued)")
        else:
            self._modes = set(reachable)

    # ------------------------------------------------------------------
    def _bank_index(self, command: Command, flag) -> int:
        if not 0 <= command.bank < _BANKS:
            flag("bank-range", 0,
                 f"bank {command.bank} outside the channel", command.bank)
            return 0
        return command.bank


def check_timed(events: Iterable[Tuple[int, Command]],
                timing: TimingParams = TimingParams(),
                channel: int = 0,
                strict: bool = False) -> List[Violation]:
    """Check an explicit ``(cycle, command)`` stream for one channel."""
    checker = ProtocolChecker(timing, channel=channel, strict=strict)
    for cycle, command in events:
        checker.observe(cycle, command)
    return checker.violations


def check_trace(trace: Iterable[TraceEntry],
                timing: TimingParams = TimingParams(),
                enable_refresh: bool = True) -> List[Violation]:
    """Schedule *trace* and check the resulting timed stream.

    Convenience wrapper used by the CLI and tests: runs the real
    :class:`~repro.dram.MemoryController` with ``validate_protocol`` on
    and returns the violations the independent checker collected
    (including scheduler-inserted refreshes and run expansions).
    """
    from ..dram.controller import MemoryController
    controller = MemoryController(timing=timing,
                                  enable_refresh=enable_refresh,
                                  validate_protocol=True)
    result = controller.run(trace)
    return result.violations


def summarize(violations: List[Violation], limit: int = 10) -> str:
    """Human-readable digest of a violation list."""
    if not violations:
        return "protocol check passed: no violations"
    by_constraint: Dict[str, int] = {}
    for v in violations:
        by_constraint[v.constraint] = by_constraint.get(v.constraint, 0) + 1
    lines = [f"{len(violations)} protocol violation(s): "
             + ", ".join(f"{name} x{n}"
                         for name, n in sorted(by_constraint.items()))]
    lines += [f"  {v}" for v in violations[:limit]]
    if len(violations) > limit:
        lines.append(f"  ... and {len(violations) - limit} more")
    return "\n".join(lines)
