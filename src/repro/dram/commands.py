"""DRAM command vocabulary for single-bank and all-bank operation.

The host controls pSyncPIM with ordinary JEDEC commands. In single-bank (SB)
mode they address one bank; in all-bank (AB / AB-PIM) modes one command is
broadcast to every bank of the pseudo-channel (paper §II-B, Fig. 1). Mode
transitions are themselves command sequences and appear in the trace as
``MODE`` entries so their bus occupancy and latency are accounted for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple, Union

#: Tags marking host-side (external interface) column traffic.
HOST_TAGS = frozenset({"stage_x", "merge_y", "read_b", "broadcast"})


class CommandType(enum.Enum):
    """Kinds of entries a command trace may contain."""

    ACT = "act"        # activate a row in one bank
    PRE = "pre"        # precharge one bank
    RD = "rd"          # column read from one bank
    WR = "wr"          # column write to one bank
    ACT_AB = "act_ab"  # broadcast activate: same row in all banks
    PRE_AB = "pre_ab"  # broadcast precharge of all banks
    RD_AB = "rd_ab"    # broadcast column read (drives PIM execution)
    WR_AB = "wr_ab"    # broadcast column write (drives PIM execution)
    REF = "ref"        # refresh (all banks of the channel)
    MODE = "mode"      # SB<->AB<->AB-PIM mode-switch sequence

    def __init__(self, value: str) -> None:
        # The channel scheduler tests a command's class on every issue,
        # so each test is a plain member attribute fixed here once rather
        # than a property doing a membership lookup per call.
        #: Issued on the row-command bus.
        self.is_row = value in ("act", "pre", "act_ab", "pre_ab", "ref")
        #: Issued on the column-command bus.
        self.is_column = value in ("rd", "wr", "rd_ab", "wr_ab")
        #: One command drives every bank of the channel.
        self.is_all_bank = value in ("act_ab", "pre_ab", "rd_ab", "wr_ab",
                                     "ref")
        self.is_read = value in ("rd", "rd_ab")
        self.is_write = value in ("wr", "wr_ab")

    # Members are singletons, so identity hashing is exact; it keeps the
    # per-kind counter dicts off ``Enum.__hash__`` (a Python-level call).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Command:
    """One trace entry targeting a pseudo-channel.

    ``bank`` identifies the bank within the channel (0..15) for single-bank
    commands and is ignored for all-bank commands. ``min_gap`` lets the PIM
    engine encode compute throttling: the command may not issue earlier than
    ``min_gap`` cycles after the previous command of the trace (used when the
    processing units need more than one column interval to digest a beat).
    """

    kind: CommandType
    channel: int = 0
    bank: int = 0
    row: int = 0
    col: int = 0
    min_gap: int = 0
    #: Optional annotation for debugging / breakdown reporting.
    tag: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.channel < 0 or self.bank < 0 or self.row < 0 or self.col < 0:
            raise ValueError("command coordinates must be non-negative")
        if self.min_gap < 0:
            raise ValueError("min_gap must be non-negative")


#: One column stretch of a :class:`RowVisit`: ``beats`` issues of one
#: column command of ``kind`` at column ``col``, carrying ``tag``.
Stretch = Tuple[CommandType, int, int, Optional[str]]

_VISIT_COLUMNS = {True: (CommandType.RD_AB, CommandType.WR_AB),
                  False: (CommandType.RD, CommandType.WR)}


@dataclass(frozen=True)
class RowVisit:
    """One row visit: ``ACT``, column stretches on the open row, ``PRE``.

    An all-bank visit is ``ACT_AB(row)``, the stretches as ``RD_AB`` /
    ``WR_AB`` beats and ``PRE_AB``, the AB-PIM pattern the host drives
    every bank with (paper §II-B); a single-bank visit is the same on
    ``bank`` with ``ACT``/``RD``/``WR``/``PRE``. Each stretch is ``beats``
    identical column commands; the scheduler never reads ``col``, so a
    stretch carries its first beat's column. ``ACT`` and ``PRE`` carry no
    tag, and nothing in a visit carries a ``min_gap``.

    A visit means exactly its expansion (:meth:`rows`, :func:`expand`);
    the scheduler prices it in O(stretches)
    (:meth:`repro.dram.channel.ChannelScheduler.issue_visit`).
    """

    all_bank: bool
    channel: int
    bank: int
    row: int
    stretches: Tuple[Stretch, ...]

    def __post_init__(self) -> None:
        kinds = _VISIT_COLUMNS[self.all_bank]
        for kind, beats, _, _ in self.stretches:
            if kind not in kinds:
                scope = "all-bank" if self.all_bank else "single-bank"
                raise ValueError(f"a {scope} visit cannot carry {kind.name}")
            if beats < 1:
                raise ValueError("a stretch needs at least one beat")

    def rows(self) -> Iterator[Tuple[Command, int]]:
        """The expansion as ``(command, count)`` rows: the ``ACT``, one
        row per stretch, the ``PRE``."""
        ch, bank, row = self.channel, self.bank, self.row
        if self.all_bank:
            act, pre = CommandType.ACT_AB, CommandType.PRE_AB
        else:
            act, pre = CommandType.ACT, CommandType.PRE
        yield Command(act, ch, bank, row), 1
        for kind, beats, col, tag in self.stretches:
            yield Command(kind, ch, bank, row, col, 0, tag), beats
        yield Command(pre, ch, bank), 1


@dataclass(frozen=True)
class BankSweep:
    """One single-bank pass of the host over ``banks`` banks of a channel.

    For each ``bank < banks`` in order: ``ACT(bank, row)``, ``beats``
    column commands to that bank, then ``PRE(bank)``. ``command`` is the
    column template: its kind (``RD``/``WR``), row, col, tag, channel and
    ``min_gap`` apply to every column of the sweep; its bank is ignored.
    The ``ACT``/``PRE`` commands carry no tag and no ``min_gap``.

    This is the SB-mode staging pattern of the host (stage x, merge y,
    read solved values). Like a visit, a sweep means exactly its
    expansion (:func:`expand`); the scheduler prices it mostly in
    closed form (:meth:`repro.dram.channel.ChannelScheduler.issue_sweep`).
    """

    command: Command
    beats: int
    banks: int

    def __post_init__(self) -> None:
        if self.command.kind not in (CommandType.RD, CommandType.WR):
            raise ValueError("a bank sweep's template must be RD or WR")
        if self.beats < 1 or self.banks < 1:
            raise ValueError("a bank sweep needs at least one beat and "
                             "one bank")

    @property
    def channel(self) -> int:
        return self.command.channel

    @property
    def commands(self) -> int:
        """Commands in the expansion."""
        return self.banks * (self.beats + 2)

    def bank_commands(self, bank: int) -> Tuple[Command, Command, Command]:
        """The ``ACT``, column and ``PRE`` commands of one bank."""
        c = self.command
        return (Command(CommandType.ACT, c.channel, bank, c.row),
                Command(c.kind, c.channel, bank, c.row, c.col, c.min_gap,
                        c.tag),
                Command(CommandType.PRE, c.channel, bank))


#: A command trace entry: a single command, a row visit or a sweep.
TraceEntry = Union[Command, RowVisit, BankSweep]


def expand(trace: Iterable[TraceEntry]) -> Iterator[Tuple[Command, int]]:
    """The canonical ``(command, count)`` rows of a trace.

    A command is one row; a visit is its ``ACT``, one row per stretch and
    its ``PRE``; a sweep is, per bank, its ``ACT``, its columns as one
    row and its ``PRE``. The goldens, the slice digests and
    :func:`~repro.dram.controller.count_commands` read this form.
    """
    for entry in trace:
        cls = entry.__class__
        if cls is RowVisit:
            yield from entry.rows()
        elif cls is BankSweep:
            beats = entry.beats
            for bank in range(entry.banks):
                act, column, pre = entry.bank_commands(bank)
                yield act, 1
                yield column, beats
                yield pre, 1
        else:
            yield entry, 1


def expand_trace(trace: Iterable[TraceEntry]) -> Iterator[Command]:
    """Flatten a trace into per-command form (the reference path)."""
    for command, count in expand(trace):
        for _ in range(count):
            yield command
