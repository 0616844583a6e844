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


@dataclass(frozen=True)
class CommandRun:
    """``count`` consecutive issues of one identical command.

    Trace generators emit runs for the homogeneous stretches that dominate
    kernel traces (N beats of RD_AB/WR_AB against the same open row at
    tCCD spacing); the scheduler prices a run in closed form instead of
    walking it command by command, with cycle counts and per-type counters
    identical to the expanded trace. A run is semantically exactly its
    expansion — every consumer that cannot batch can iterate
    :func:`expand_trace`.

    The `Command`-like read-only properties let trace inspection code
    (``{c.kind for c in trace}``) treat a run like its command.
    """

    command: Command
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("a command run needs at least one command")

    @property
    def kind(self) -> CommandType:
        return self.command.kind

    @property
    def channel(self) -> int:
        return self.command.channel

    @property
    def bank(self) -> int:
        return self.command.bank

    @property
    def row(self) -> int:
        return self.command.row

    @property
    def col(self) -> int:
        return self.command.col

    @property
    def min_gap(self) -> int:
        return self.command.min_gap

    @property
    def tag(self) -> Optional[str]:
        return self.command.tag


@dataclass(frozen=True)
class BankSweep:
    """One single-bank pass of the host over ``banks`` banks of a channel.

    For each ``bank < banks`` in order: ``ACT(bank, row)``, ``beats``
    column commands to that bank (a :class:`CommandRun` when ``beats >
    1``), then ``PRE(bank)``. ``command`` is the column template: its
    kind (``RD``/``WR``), row, col, tag, channel and ``min_gap`` apply to
    every column of the sweep; its bank is ignored. The ``ACT``/``PRE``
    commands carry no tag and no ``min_gap``.

    This is the SB-mode staging pattern of the host (stage x, merge y,
    read solved values). Like a run, a sweep means exactly its
    expansion (:func:`expand_sweeps`); the scheduler prices it mostly in
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


#: A command trace entry: a single command, a homogeneous run or a sweep.
TraceEntry = Union[Command, CommandRun, BankSweep]


def as_run(entry: TraceEntry) -> Tuple[Command, int]:
    """Normalise a command or run to ``(command, count)``.

    A sweep has no single ``(command, count)`` form; expand it first
    (:func:`expand_sweeps`).
    """
    if isinstance(entry, CommandRun):
        return entry.command, entry.count
    if isinstance(entry, BankSweep):
        raise TypeError("a BankSweep has no (command, count) form; "
                        "expand_sweeps() the trace first")
    return entry, 1


def expand_sweeps(trace: Iterable[TraceEntry]
                  ) -> Iterator[Union[Command, CommandRun]]:
    """Replace every sweep by its per-bank ``ACT``, columns, ``PRE``."""
    for entry in trace:
        if not isinstance(entry, BankSweep):
            yield entry
            continue
        for bank in range(entry.banks):
            act, column, pre = entry.bank_commands(bank)
            yield act
            yield column if entry.beats == 1 else CommandRun(column,
                                                            entry.beats)
            yield pre


def expand_trace(trace: Iterable[TraceEntry]) -> Iterator[Command]:
    """Flatten sweeps and runs into per-command form (reference path)."""
    for entry in expand_sweeps(trace):
        command, count = as_run(entry)
        for _ in range(count):
            yield command
