"""Differential replay of the channel scheduler against pinned records.

``tests/golden/scheduler_lockstep.json`` holds the outcome of scheduling
seeded random legal traces with the per-bank scheduler that predates the
shared lock-step bank state. The traces interleave single-bank
ACT/RD/WR/PRE on assorted banks with broadcast ACT/RD/WR/PRE, runs of
identical commands, mode switches, explicit refreshes and idle stretches
that cross tREFI (so refresh is deferred while rows are open and
inserted at the next all-closed boundary). The traces of ``SWEEP_SEEDS`` also carry host
``BankSweep``s (1-40 beats over 1-16 banks, reads and writes, some after
single-bank traffic or with a ``min_gap``, many straddling a refresh);
their records were taken by pricing each sweep's expansion with the
per-command scheduler that predates the closed-form sweep. Replaying them
must reproduce every recorded figure exactly — each run's last issue
cycle (a sweep contributes its banks' ACT, last column and PRE cycles),
per-channel clocks, refreshes, command counts, tag attributions and the
per-bank state after the last command — with zero violations from the
independent protocol checker.

The records are pinned, not regenerated: rewriting them with the code
under test would prove nothing. ``python tests/test_dram_lockstep.py``
prints a fresh record set for inspection.
"""

import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (ildu, plan_spmm, price_trace, run_sptrsv,
                        synthesize)
from repro.dram import (BANKS_PER_CHANNEL, HOST_TAGS, BankSweep,
                        ChannelScheduler, Command, CommandType,
                        MemoryController, RowVisit, TimingParams,
                        expand_trace)
from repro.dram.bank import BankState
from repro.errors import TimingError
from repro.formats import generate, matrices_for

RECORDS = Path(__file__).parent / "golden" / "scheduler_lockstep.json"
#: Seeds of traces without sweeps, and of traces that also carry sweeps.
SEEDS = range(24)
SWEEP_SEEDS = range(24, 48)
ALL_SEEDS = [*SEEDS, *SWEEP_SEEDS]
ROWS = 4
TAGS = (None, None, "a", "b", "stage_x")
SWEEP_TAGS = (None, "a", "stage_x", "merge_y", "read_b")


def random_trace(seed: int):
    """A legal random trace over one or two channels; deterministic.

    A run of ``count`` identical commands is ``count`` references to one
    :class:`Command` (:func:`_runs` regroups them).
    """
    rng = np.random.default_rng(seed)
    sweeps = seed in SWEEP_SEEDS
    channels = 1 + seed % 2
    length = 120 + int(rng.integers(0, 120))
    open_rows = {ch: [None] * BANKS_PER_CHANNEL for ch in range(channels)}
    # The Fig. 1 mode protocol: a switch must precede any broadcast.
    trace = [Command(CommandType.MODE, channel=ch) for ch in range(channels)]

    def tag():
        return TAGS[int(rng.integers(len(TAGS)))]

    def gap():
        roll = rng.random()
        if roll < 0.06:
            return int(rng.integers(500, 5000))   # idle stretch
        if roll < 0.25:
            return int(rng.integers(1, 12))
        return 0

    def emit(kind, ch, bank=0, row=0, count=1):
        command = Command(kind, channel=ch, bank=bank, row=row,
                          col=int(rng.integers(0, 32)), min_gap=gap(),
                          tag=tag())
        trace.append([command] * count)

    def emit_sweep(ch, banks):
        kind = CommandType.RD if rng.random() < 0.5 else CommandType.WR
        min_gap = 0 if rng.random() < 0.85 else int(rng.integers(1, 12))
        command = Command(kind, channel=ch, row=int(rng.integers(ROWS)),
                          col=int(rng.integers(0, 32)), min_gap=min_gap,
                          tag=SWEEP_TAGS[int(rng.integers(len(SWEEP_TAGS)))])
        trace.append(BankSweep(command, 1 + int(rng.integers(40)), banks))

    while len(trace) < length:
        ch = int(rng.integers(channels))
        rows = open_rows[ch]
        if sweeps and rng.random() < 0.3:
            # A host sweep needs its banks precharged; the banks above
            # it may hold rows open (which defers any refresh).
            banks = 1 + int(rng.integers(BANKS_PER_CHANNEL))
            if all(r is None for r in rows[:banks]):
                emit_sweep(ch, banks)
                continue
        opened = [b for b, r in enumerate(rows) if r is not None]
        closed = [b for b, r in enumerate(rows) if r is None]
        uniform = (not closed and len(set(rows)) == 1)
        roll = rng.random()
        if not opened:
            if roll < 0.55:
                row = int(rng.integers(ROWS))
                emit(CommandType.ACT_AB, ch, row=row)
                rows[:] = [row] * BANKS_PER_CHANNEL
            elif roll < 0.8:
                bank = int(rng.integers(BANKS_PER_CHANNEL))
                row = int(rng.integers(ROWS))
                emit(CommandType.ACT, ch, bank=bank, row=row)
                rows[bank] = row
            elif roll < 0.9:
                emit(CommandType.REF, ch)
            else:
                emit(CommandType.MODE, ch,
                     count=1 + int(rng.integers(0, 2)))
        elif uniform and roll < 0.6:
            kind = (CommandType.RD_AB if rng.random() < 0.6
                    else CommandType.WR_AB)
            count = (1 if rng.random() < 0.4
                     else 2 + int(rng.integers(0, 30)))
            emit(kind, ch, row=rows[0], count=count)
        elif roll < 0.72:
            # A single-bank column splits the lock-step state.
            bank = opened[int(rng.integers(len(opened)))]
            kind = CommandType.RD if rng.random() < 0.5 else CommandType.WR
            count = 1 if rng.random() < 0.6 else 2 + int(rng.integers(0, 6))
            emit(kind, ch, bank=bank, row=rows[bank], count=count)
        elif roll < 0.8 and closed:
            # Re-open a closed bank, usually on the row its peers hold.
            bank = closed[int(rng.integers(len(closed)))]
            row = (rows[opened[0]] if rng.random() < 0.8
                   else int(rng.integers(ROWS)))
            emit(CommandType.ACT, ch, bank=bank, row=row)
            rows[bank] = row
        elif roll < 0.86:
            bank = opened[int(rng.integers(len(opened)))]
            emit(CommandType.PRE, ch, bank=bank)
            rows[bank] = None
        elif roll < 0.97:
            emit(CommandType.PRE_AB, ch)
            rows[:] = [None] * BANKS_PER_CHANNEL
        else:
            emit(CommandType.MODE, ch)
    # Each run was one entry of the length budget; flatten the runs.
    return ([e for item in trace
             for e in (item if isinstance(item, list) else [item])],
            channels)


#: Seeds of SpTRSV-shaped traces (sweeps between broadcast phases).
LEVEL_SEEDS = range(12)


def sptrsv_trace(seed: int):
    """A seeded SpTRSV-shaped trace over one or two channels.

    Per level and channel: 1-3 back-to-back host sweeps (the later ones
    meet the earlier ones' banks), sometimes an explicit refresh, a
    mode switch, 1-3 broadcast ``ACT_AB``/column stretch/``PRE_AB``
    phases and a mode switch back. A broadcast phase is a
    :class:`RowVisit`, or plain commands when its ``ACT_AB`` waits out
    an idle gap: gaps of 500-5000 cycles cross tREFI, so refreshes fall
    due between and inside sweeps and before visits. A broadcast
    phase opens every channel, so even the first sweep meets lock step,
    and host sweeps close every channel, so its banks are still pending
    after the last command.
    """
    rng = np.random.default_rng(10_000 + seed)
    channels = 1 + seed % 2

    def gap():
        return int(rng.integers(500, 5000)) if rng.random() < 0.15 else 0

    def broadcast(ch):
        row = int(rng.integers(ROWS))
        kind = CommandType.RD_AB if rng.random() < 0.5 else CommandType.WR_AB
        column = Command(kind, channel=ch, row=row, tag="broadcast")
        count = 1 + int(rng.integers(30))
        idle = gap()
        if not idle:
            return [RowVisit(True, ch, 0, row,
                             ((kind, count, 0, "broadcast"),))]
        return [Command(CommandType.ACT_AB, channel=ch, row=row,
                        min_gap=idle),
                *[column] * count,
                Command(CommandType.PRE_AB, channel=ch)]

    def sweeps(ch):
        out = []
        for _ in range(1 + int(rng.integers(3))):
            kind = CommandType.RD if rng.random() < 0.5 else CommandType.WR
            banks = (BANKS_PER_CHANNEL if rng.random() < 0.7
                     else 1 + int(rng.integers(BANKS_PER_CHANNEL)))
            command = Command(kind, channel=ch, row=int(rng.integers(ROWS)),
                              tag=SWEEP_TAGS[int(rng.integers(
                                  len(SWEEP_TAGS)))])
            out.append(BankSweep(command, 1 + int(rng.integers(40)), banks))
        return out

    trace = []
    for ch in range(channels):
        trace += [Command(CommandType.MODE, channel=ch), *broadcast(ch),
                  Command(CommandType.MODE, channel=ch)]
    for _ in range(20 + int(rng.integers(20))):
        ch = int(rng.integers(channels))
        trace += sweeps(ch)
        if rng.random() < 0.1:
            trace.append(Command(CommandType.REF, channel=ch))
        trace.append(Command(CommandType.MODE, channel=ch, min_gap=gap()))
        for _ in range(1 + int(rng.integers(3))):
            trace += broadcast(ch)
        trace.append(Command(CommandType.MODE, channel=ch))
    for ch in range(channels):
        trace += sweeps(ch)
    return trace, channels


def _runs(trace):
    """*trace* as ``[entry, count]`` runs of one repeated entry."""
    runs = []
    for entry in trace:
        if runs and runs[-1][0] is entry:
            runs[-1][1] += 1
        else:
            runs.append([entry, 1])
    return runs


class _IssueLog:
    """Issue *trace* on one scheduler per channel and record the issue
    cycle of every command, visits and sweeps included (their columns
    at the closed-form spacing), from the schedulers' own returns:
    ``issue``'s cycle, ``issue_visit``'s ends and each sweep's
    ``SweepIssue.per_bank()``."""

    def __init__(self, trace, channels, timing=TimingParams(),
                 enable_refresh=True):
        self.spacing = max(1, timing.burst_cycles, timing.tccd_l)
        self.scheds = [ChannelScheduler(timing, enable_refresh, channel=ch)
                       for ch in range(channels)]
        self.cycles = []
        self.sweeps = []
        for entry in trace:
            sched = self.scheds[entry.channel]
            if isinstance(entry, BankSweep):
                self._sweep(entry, sched.issue_sweep(entry))
            elif isinstance(entry, RowVisit):
                self._visit(entry, sched.issue_visit(entry))
            else:
                self.cycles.append(sched.issue(entry))

    def _row(self, act, stretches, pre, spacing):
        self.cycles.append(act)
        for beats, end in stretches:
            self.cycles += [end - k * spacing
                            for k in range(beats - 1, -1, -1)]
        self.cycles.append(pre)

    def _visit(self, visit, ends):
        self._row(ends[0], [(s[1], end) for s, end
                            in zip(visit.stretches, ends[1:-1])],
                  ends[-1], self.spacing)

    def _sweep(self, sweep, issue):
        self.sweeps.append(issue)
        spacing = max(sweep.command.min_gap, self.spacing)
        for _, act, last_col, pre, _ in issue.per_bank():
            self._row(act, [(sweep.beats, last_col)], pre, spacing)

    def bank_rows(self):
        """Each channel's per-bank state after its last command."""
        return [_bank_rows(sched.banks) for sched in self.scheds]


def _pinned_issue_last(trace, cycles):
    """The pinned records' issue log: each run's last issue cycle and,
    per bank of a sweep, its ACT, last column and PRE cycles."""
    out, at = [], 0
    for entry, count in _runs(trace):
        if isinstance(entry, BankSweep):
            for _ in range(entry.banks):
                out += [cycles[at], cycles[at + entry.beats],
                        cycles[at + entry.beats + 1]]
                at += entry.beats + 2
        else:
            at += count
            out.append(cycles[at - 1])
    return out


def _bank_rows(banks):
    return [[b.open_row, b.act_ready, b.rd_ready, b.wr_ready, b.pre_ready]
            for b in banks]


def _schedule_channel(sched, trace, ch):
    """Issue *trace*'s entries for channel *ch* on one scheduler."""
    for entry in trace:
        if entry.channel != ch:
            continue
        if isinstance(entry, BankSweep):
            sched.issue_sweep(entry)
        elif isinstance(entry, RowVisit):
            sched.issue_visit(entry)
        else:
            sched.issue(entry)


def _seed_log(seed: int) -> _IssueLog:
    """The issue log of one seeded trace."""
    trace, channels = random_trace(seed)
    return _IssueLog(trace, channels, enable_refresh=seed % 6 != 5)


def build_record(seed: int, validate: bool = False) -> dict:
    """Schedule one seeded trace; return every pinned figure."""
    trace, channels = random_trace(seed)
    enable_refresh = seed % 6 != 5
    controller = MemoryController(TimingParams(), num_channels=channels,
                                  enable_refresh=enable_refresh,
                                  validate_protocol=validate)
    result = controller.run(trace)
    log = _seed_log(seed)
    banks = {str(ch): rows for ch, rows in enumerate(log.bank_rows())}
    issue_last = _pinned_issue_last(trace, log.cycles)
    record = {
        "seed": seed,
        "entries": len(issue_last),
        "enable_refresh": enable_refresh,
        "issue_last": issue_last,
        "total_cycles": result.total_cycles,
        "command_total": result.command_total,
        "refreshes": result.refreshes,
        "counts": {k.name: n for k, n in result.counts.items() if n},
        "tag_cycles": dict(sorted(result.tag_cycles.items())),
        "per_channel": {str(ch): stats for ch, stats
                        in sorted(result.per_channel_stats.items())},
        "banks": banks,
    }
    return record, result.violations


@pytest.fixture(scope="module")
def pinned():
    return {r["seed"]: r for r in json.loads(RECORDS.read_text())}


class TestPinnedRecords:
    def test_every_seed_is_pinned(self, pinned):
        assert sorted(pinned) == ALL_SEEDS

    @pytest.mark.parametrize("seed", ALL_SEEDS)
    def test_replay_matches_exactly(self, pinned, seed):
        record, violations = build_record(seed, validate=True)
        assert violations == []
        assert record == pinned[seed]

    def test_traces_exercise_the_interesting_paths(self, pinned):
        """The pinned set really covers deferral, runs and splits."""
        assert sum(r["refreshes"] for r in pinned.values()) >= 100
        kinds = set()
        runs = 0
        for seed in SEEDS:
            trace, _ = random_trace(seed)
            kinds |= {entry.kind for entry in trace}
            runs += sum(count > 1 for _, count in _runs(trace))
        assert kinds == set(CommandType)
        assert runs >= 100

    def test_sweep_seeds_exercise_the_closed_form(self):
        """Sweeps mostly run in closed form, re-anchor on refresh, and
        fall back to per-command issue under a ``min_gap``."""
        closed = straddled = per_command = beats = 0
        widths = set()
        for seed in SWEEP_SEEDS:
            trace, _ = random_trace(seed)
            log = _seed_log(seed)
            sweeps = [e for e in trace if isinstance(e, BankSweep)]
            for sweep, issue in zip(sweeps, log.sweeps):
                widths.add(sweep.banks)
                beats = max(beats, sweep.beats)
                closed += sweep.banks - len(issue.anchors)
                if sweep.command.min_gap:
                    per_command += len(issue.anchors) == sweep.banks > 1
                refreshes = [a[4] for a in issue.anchors]
                straddled += refreshes[-1] > refreshes[0]
        assert widths == set(range(1, BANKS_PER_CHANNEL + 1))
        assert beats == 40
        assert closed >= 1000
        assert straddled >= 10
        assert per_command >= 5


class TestSharedStateErrors:
    """The shared lock-step state raises exactly the per-bank errors.

    Every test runs twice: on the shared state a broadcast ACT leaves,
    and on the same state split back into per-bank states (reading
    ``banks`` splits it), so one ``match`` pins both paths.
    """

    @pytest.fixture(params=["shared", "per-bank"])
    def sched(self, request):
        s = ChannelScheduler(TimingParams(), enable_refresh=False)
        s.issue(Command(CommandType.ACT_AB, row=3))
        if request.param == "per-bank":
            s.banks
        return s

    def test_act_ab_onto_open_bank(self, sched):
        with pytest.raises(TimingError, match="open row"):
            sched.issue(Command(CommandType.ACT_AB, row=3))

    def test_act_ab_onto_one_open_bank(self):
        s = ChannelScheduler(TimingParams(), enable_refresh=False)
        s.issue(Command(CommandType.ACT, bank=5, row=1))
        with pytest.raises(TimingError, match="open row"):
            s.issue(Command(CommandType.ACT_AB, row=3))

    def test_pre_ab_with_no_bank_open(self, sched):
        sched.issue(Command(CommandType.PRE_AB))
        with pytest.raises(TimingError, match="no open banks"):
            sched.issue(Command(CommandType.PRE_AB))

    def test_ref_while_open(self, sched):
        with pytest.raises(TimingError, match="banks are open"):
            sched.issue(Command(CommandType.REF))

    @pytest.mark.parametrize("kind", [CommandType.RD_AB, CommandType.WR_AB])
    def test_broadcast_column_to_wrong_row(self, sched, kind):
        with pytest.raises(TimingError, match="targets row 4 but row 3"):
            sched.issue(Command(kind, row=4))

    @pytest.mark.parametrize("kind", [CommandType.RD, CommandType.WR])
    def test_single_bank_column_to_wrong_row(self, sched, kind):
        with pytest.raises(TimingError, match="targets row 4 but row 3"):
            sched.issue(Command(kind, bank=9, row=4))

    def test_broadcast_column_to_precharged_banks(self, sched):
        sched.issue(Command(CommandType.PRE_AB))
        with pytest.raises(TimingError, match="precharged bank"):
            sched.issue(Command(CommandType.RD_AB, row=3))

    def test_broadcast_run_to_wrong_row(self, sched):
        """A broadcast visit to row 4 meets row 3 still open."""
        with pytest.raises(TimingError, match="open row"):
            sched.issue_visit(RowVisit(True, 0, 0, 4,
                                       ((CommandType.RD_AB, 5, 0, None),)))

    def test_error_leaves_state_usable(self, sched):
        """A rejected broadcast changes nothing; the next legal one
        issues exactly as on a fresh schedule."""
        fresh = ChannelScheduler(TimingParams(), enable_refresh=False)
        fresh.issue(Command(CommandType.ACT_AB, row=3))
        with pytest.raises(TimingError):
            sched.issue(Command(CommandType.RD_AB, row=4))
        assert (sched.issue(Command(CommandType.RD_AB, row=3))
                == fresh.issue(Command(CommandType.RD_AB, row=3)))
        assert _bank_rows(sched.banks) == _bank_rows(fresh.banks)


class TestBankView:
    """``sched.banks`` is exact per-bank state at every point."""

    def _per_bank_reference(self, commands):
        """Bank states built by hand from the per-bank update rules."""
        t = TimingParams()
        banks = [BankState(t) for _ in range(BANKS_PER_CHANNEL)]
        sched = ChannelScheduler(t, enable_refresh=False)
        for command in commands:
            cycle = sched.issue(command)
            targets = (banks if command.kind.is_all_bank
                       else [banks[command.bank]])
            for b in targets:
                if command.kind in (CommandType.ACT, CommandType.ACT_AB):
                    b.apply_act(cycle, command.row)
                elif command.kind in (CommandType.PRE, CommandType.PRE_AB):
                    if b.is_open:
                        b.apply_pre(cycle)
                elif command.kind.is_write:
                    b.apply_write(cycle)
                else:
                    b.apply_read(cycle)
        return sched, banks

    def test_view_mid_broadcast(self):
        commands = [Command(CommandType.ACT_AB, row=7),
                    Command(CommandType.RD_AB, row=7),
                    Command(CommandType.WR_AB, row=7, col=1)]
        sched, banks = self._per_bank_reference(commands)
        assert _bank_rows(sched.banks) == _bank_rows(banks)
        assert all(b.open_row == 7 for b in sched.banks)

    def test_view_after_split_and_rejoin(self):
        commands = [Command(CommandType.ACT_AB, row=2),
                    Command(CommandType.RD_AB, row=2),
                    Command(CommandType.WR, bank=6, row=2),
                    Command(CommandType.PRE, bank=6),
                    Command(CommandType.ACT, bank=6, row=2),
                    Command(CommandType.RD_AB, row=2),
                    Command(CommandType.PRE_AB),
                    Command(CommandType.ACT_AB, row=1),
                    Command(CommandType.RD_AB, row=1)]
        sched, banks = self._per_bank_reference(commands)
        assert _bank_rows(sched.banks) == _bank_rows(banks)


def _price(trace, timing, channels):
    """Price *trace* under the protocol checker; return the result and
    its issue log."""
    controller = MemoryController(timing, num_channels=channels,
                                  validate_protocol=True)
    return controller.run(trace), _IssueLog(trace, channels, timing)


def assert_prices_as_expansion(trace, timing, channels):
    """Pricing *trace* reproduces pricing its per-command expansion
    exactly, every issue cycle included, with no protocol violation on
    either."""
    got, swept = _price(trace, timing, channels)
    want, flat = _price(list(expand_trace(trace)), timing, channels)
    assert got.violations == [] and want.violations == []
    assert swept.cycles == flat.cycles
    assert swept.bank_rows() == flat.bank_rows()
    for field in ("total_cycles", "per_channel_cycles", "counts",
                  "command_total", "refreshes", "tag_cycles",
                  "per_channel_stats"):
        assert getattr(got, field) == getattr(want, field), field


class TestSweepClosedForm:
    """``issue_sweep`` against its expansion where the guards bite.

    Non-default timings make each guard fail in turn: a short tFAW
    period, a long tRRD_L, tCCD_L beyond tRCD + 1, a tRP long enough that
    a bank reopened by the next sweep is not ready, and a tREFI short
    enough to re-anchor most sweeps on a refresh.
    """

    TIMINGS = {
        "default": TimingParams(),
        "faw": TimingParams(tfaw=200),
        "rrd": TimingParams(trrd_l=60),
        "ccd": TimingParams(tccd_l=20),
        "trp": TimingParams(trp=1500),
        "refi": TimingParams(trefi=400, trfc=100),
    }

    @pytest.mark.parametrize("name", TIMINGS)
    @pytest.mark.parametrize("seed", SWEEP_SEEDS[:6])
    def test_sweep_prices_as_its_expansion(self, name, seed):
        trace, channels = random_trace(seed)
        assert_prices_as_expansion(trace, self.TIMINGS[name], channels)

    def test_validated_sweep_is_not_priced_per_command(self, monkeypatch):
        """Under the protocol checker the closed form still runs, and the
        checker observes the whole expansion."""
        issued = []
        issue = ChannelScheduler.issue

        def counting(self, command, earliest=0):
            issued.append(command.kind)
            return issue(self, command, earliest)

        monkeypatch.setattr(ChannelScheduler, "issue", counting)
        sched = ChannelScheduler(TimingParams(), validate_protocol=True)
        sweep = BankSweep(Command(CommandType.WR, row=2, tag="stage_x"),
                          beats=8, banks=16)
        outcome = sched.issue_sweep(sweep)
        # Bank 0 anchors the loop, the rest follow in closed form.
        assert issued == []
        assert [a[0] for a in outcome.anchors] == [0]
        assert sched._checker.commands_seen == sweep.commands == 160
        assert sched.protocol_violations == []
        assert sched.now == outcome.last

    def test_min_gap_sweep_issues_per_command(self):
        sched = ChannelScheduler(TimingParams(), enable_refresh=False)
        sweep = BankSweep(Command(CommandType.RD, row=1, min_gap=3),
                          beats=2, banks=4)
        outcome = sched.issue_sweep(sweep)
        assert [a[0] for a in outcome.anchors] == [0, 1, 2, 3]

    def test_sweep_onto_open_bank_raises(self):
        sched = ChannelScheduler(TimingParams(), enable_refresh=False)
        sched.issue(Command(CommandType.ACT, bank=3, row=1))
        with pytest.raises(TimingError, match="open row"):
            sched.issue_sweep(BankSweep(Command(CommandType.RD, row=1),
                                        beats=4, banks=8))


class TestSweepFromLockstep:
    """Sweeps that meet the channel in lock step, with every bank
    precharged, keep it there and leave the per-bank states pending (a
    per-bank ``act_ready`` vector plus each bank's last touch); the
    SpTRSV-shaped traces price exactly as their expansion under every
    timing set."""

    @pytest.mark.parametrize("name", TestSweepClosedForm.TIMINGS)
    @pytest.mark.parametrize("seed", LEVEL_SEEDS)
    def test_sptrsv_shaped_trace_prices_as_its_expansion(self, name, seed):
        trace, channels = sptrsv_trace(seed)
        assert_prices_as_expansion(trace, TestSweepClosedForm.TIMINGS[name],
                                   channels)

    def test_lockstep_path_prices_most_sweeps(self, monkeypatch):
        """Every sweep that meets a precharged channel prices in the one
        closed-form loop, with no per-command issue, including sweeps
        that meet pending states and sweeps a refresh lands in."""
        sweeps = _count_sweep_paths(monkeypatch)
        for seed in LEVEL_SEEDS:
            trace, channels = sptrsv_trace(seed)
            MemoryController(TimingParams(), num_channels=channels).run(trace)
        assert sweeps and all(s.precharged for s in sweeps)
        assert all((s.loops, s.issues) == (1, 0) for s in sweeps)
        assert sum(s.pending for s in sweeps) >= 100
        assert sum(s.outcome.anchors[-1][4] > s.outcome.anchors[0][4]
                   for s in sweeps) >= 10

    def test_broadcast_act_drops_pending_states(self):
        """``ACT_AB`` after a pending sweep, ``PRE_AB``, then a sweep on
        the per-command path: the banks are the broadcast's, not the
        pending sweep's."""
        trace = [Command(CommandType.MODE),
                 Command(CommandType.ACT_AB, row=1),
                 Command(CommandType.PRE_AB),
                 BankSweep(Command(CommandType.WR, row=2), beats=6, banks=16),
                 Command(CommandType.ACT_AB, row=1),
                 Command(CommandType.PRE_AB),
                 BankSweep(Command(CommandType.RD, row=3, min_gap=2),
                           beats=3, banks=16)]
        assert_prices_as_expansion(trace, TimingParams(), 1)
        sched = ChannelScheduler(TimingParams(), validate_protocol=True)
        _schedule_channel(sched, trace[:4], 0)
        assert sched._ready is not None
        _schedule_channel(sched, trace[4:], 0)
        assert sched.protocol_violations == []

    def test_refresh_due_at_every_cycle_of_a_sweep(self):
        """Move tREFI across two sweeps one cycle at a time, so refresh
        falls due at, just before and just after every ``ACT``."""
        trace = [Command(CommandType.MODE), Command(CommandType.ACT_AB, row=1),
                 Command(CommandType.PRE_AB),
                 BankSweep(Command(CommandType.WR, row=2), beats=2, banks=16),
                 BankSweep(Command(CommandType.RD, row=3), beats=1, banks=7)]
        for trefi in range(60, 400):
            assert_prices_as_expansion(trace, TimingParams(trefi=trefi,
                                                           trfc=50), 1)

    def test_pending_states_materialise_on_demand(self):
        """A single-bank command and ``banks`` rebuild the swept banks'
        states exactly as the per-command expansion leaves them."""
        t = TimingParams(trefi=400, trfc=100)
        head = [Command(CommandType.MODE), Command(CommandType.ACT_AB, row=1),
                Command(CommandType.PRE_AB),
                BankSweep(Command(CommandType.WR, row=2), beats=6, banks=16),
                BankSweep(Command(CommandType.RD, row=0), beats=2, banks=9),
                Command(CommandType.REF)]
        for tail in ([], [Command(CommandType.ACT, bank=12, row=3)],
                     [Command(CommandType.MODE), Command(CommandType.REF)]):
            assert_prices_as_expansion(head + tail, t, 1)



def _swept(trace, timing, channel=0):
    """Schedule *trace*'s entries on *channel*; return the scheduler,
    each sweep's :class:`SweepIssue` and one flag per ``_split`` call
    made while issuing (whether the channel was in lock step)."""
    sched = ChannelScheduler(timing, validate_protocol=True, channel=channel)
    issues, calls = [], []
    split = ChannelScheduler._split

    def counting(self):
        calls.append(self._broadcast is not self._banks)
        return split(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChannelScheduler, "_split", counting)
        for entry in trace:
            if entry.channel != channel:
                continue
            if isinstance(entry, BankSweep):
                issues.append(sched.issue_sweep(entry))
            elif isinstance(entry, RowVisit):
                sched.issue_visit(entry)
            else:
                sched.issue(entry)
    return sched, issues, calls


class _SweepPath(NamedTuple):
    """How one sweep issued: whether it met every bank precharged, a
    split channel and a ready vector, its closed-form loop calls and
    per-command issues."""

    precharged: bool
    split: bool
    pending: bool
    loops: int
    issues: int
    outcome: object


def _count_sweep_paths(monkeypatch):
    """Record a :class:`_SweepPath` per sweep any scheduler issues."""
    sweeps, calls = [], {"loops": 0, "issues": 0}
    loop = ChannelScheduler._sweep_lockstep
    issue = ChannelScheduler.issue
    issue_sweep = ChannelScheduler.issue_sweep

    def counting_loop(self, *args):
        calls["loops"] += 1
        return loop(self, *args)

    def counting_issue(self, command, earliest=0):
        calls["issues"] += 1
        return issue(self, command, earliest)

    def counting_sweep(self, sweep):
        met = (not self._open_banks, self._broadcast is self._banks,
               self._ready is not None)
        before = dict(calls)
        outcome = issue_sweep(self, sweep)
        sweeps.append(_SweepPath(*met, calls["loops"] - before["loops"],
                                 calls["issues"] - before["issues"],
                                 outcome))
        return outcome

    monkeypatch.setattr(ChannelScheduler, "_sweep_lockstep", counting_loop)
    monkeypatch.setattr(ChannelScheduler, "issue", counting_issue)
    monkeypatch.setattr(ChannelScheduler, "issue_sweep", counting_sweep)
    return sweeps


class TestSweepOnTheReadyVector:
    """A sweep that meets swept lock-step history prices on the per-bank
    ``act_ready`` vector: no ``_split``, and exactly its expansion."""

    #: tRP long enough that a bank a slow sweep touched is not ready for
    #: a fast sweep's closed-form ACT.
    SLOW_PRE = TimingParams(trp=1500)

    @staticmethod
    def _history_trace():
        """A slow sweep over four banks, then a fast one over all 16."""
        return [Command(CommandType.MODE),
                RowVisit(True, 0, 0, 1, ((CommandType.RD_AB, 2, 0, None),)),
                BankSweep(Command(CommandType.WR, row=2, tag="stage_x"),
                          beats=30, banks=4),
                BankSweep(Command(CommandType.RD, row=3, tag="read_b"),
                          beats=1, banks=16),
                RowVisit(True, 0, 0, 1, ((CommandType.RD_AB, 2, 0, None),))]

    def test_follower_behind_its_ready_becomes_an_anchor(self):
        trace = self._history_trace()
        sched, issues, calls = _swept(trace, self.SLOW_PRE)
        fast = issues[1]
        # Banks 1-3 wait out the slow sweep's tRP, as anchors of their
        # own; bank 4 on follows again until a refresh falls due.
        unrefreshed = [a[0] for a in fast.anchors
                       if a[4] == fast.anchors[0][4]]
        assert unrefreshed == [0, 1, 2, 3]
        assert not any(calls)
        assert sched.protocol_violations == []
        assert_prices_as_expansion(trace, self.SLOW_PRE, 1)

    def test_refresh_inserted_mid_sweep_from_history(self):
        """Move tREFI across both sweeps: a refresh that goes in inside
        the fast sweep waits for every bank's act_ready, including the
        banks the sweep itself has just touched."""
        mid_sweep = 0
        for trefi in range(150, 2400, 9):
            timing = TimingParams(trp=1500, trefi=trefi, trfc=50)
            trace = self._history_trace()
            _, issues, calls = _swept(trace, timing)
            refreshes = [a[4] for a in issues[1].anchors]
            mid_sweep += refreshes[-1] > refreshes[0]
            assert not any(calls), trefi
            assert_prices_as_expansion(trace, timing, 1)
        assert mid_sweep >= 20

    @pytest.mark.parametrize("name", ["default", "trp", "refi"])
    def test_sptrsv_shaped_traces_never_split(self, name):
        """SpTRSV-shaped traces price without leaving lock step, and the
        protocol checker still observes every command of the expansion."""
        timing = TestSweepClosedForm.TIMINGS[name]
        for seed in LEVEL_SEEDS:
            trace, channels = sptrsv_trace(seed)
            for ch in range(channels):
                sched, _, calls = _swept(trace, timing, ch)
                flat = ChannelScheduler(timing, validate_protocol=True,
                                        channel=ch)
                _schedule_channel(flat, list(expand_trace(trace)), ch)
                assert calls == [], (seed, ch)
                assert (sched._checker.commands_seen
                        == flat._checker.commands_seen)
                assert sched.protocol_violations == []
                assert _bank_rows(sched.banks) == _bank_rows(flat.banks)

    def test_anchor_visits_charge_no_tags(self, monkeypatch):
        """A sweep that meets a split channel prices in the closed-form
        loop and a ``min_gap`` sweep command by command, yet each
        sweep's tags count once, as host traffic too."""
        sweeps = _count_sweep_paths(monkeypatch)
        trace = [Command(CommandType.ACT, bank=3, row=1),
                 Command(CommandType.PRE, bank=3),
                 BankSweep(Command(CommandType.WR, row=2, tag="stage_x"),
                           beats=5, banks=16),
                 BankSweep(Command(CommandType.RD, row=2, tag="merge_y",
                                   min_gap=3), beats=2, banks=6),
                 RowVisit(False, 0, 7, 1,
                          ((CommandType.RD, 3, 0, "read_b"),
                           (CommandType.WR, 1, 0, "a")))]
        controller = MemoryController(TimingParams(), num_channels=1,
                                      validate_protocol=True)
        got = controller.run(trace, with_energy=True, host_tags=HOST_TAGS)
        assert [(s.loops, s.issues) for s in sweeps] == [(1, 0), (0, 24)]
        want = controller.run(list(expand_trace(trace)), with_energy=True,
                              host_tags=HOST_TAGS)
        assert got.violations == [] and want.violations == []
        assert got.tag_cycles == want.tag_cycles
        assert got.energy.as_dict() == want.energy.as_dict()
        assert got.total_cycles == want.total_cycles


class TestSweepFromSplit:
    """A sweep that meets a split channel with every bank precharged
    prices on the ready vector too, resting on the banks' own states."""

    @staticmethod
    def _pb_trace():
        """Two PB-shaped steps. Single-bank visits and commands of
        differing lengths leave the banks split with differing windows
        (some banks untouched); then a host sweep over the whole channel,
        in the second step a sweep over 11 banks and one over 7, so
        banks 11-15 keep their own windows."""
        trace = [Command(CommandType.MODE)]
        for widths in ((16,), (11, 7)):
            for bank in (0, 2, 3, 6, 9, 10, 15):
                kind = CommandType.WR if bank % 3 else CommandType.RD
                trace.append(RowVisit(False, 0, bank, bank % 4,
                                      ((kind, 1 + 3 * bank % 11, 0, "a"),)))
            trace += [Command(CommandType.ACT, bank=12, row=1),
                      Command(CommandType.WR, bank=12, row=1, tag="b"),
                      Command(CommandType.PRE, bank=12)]
            for banks in widths:
                kind = CommandType.WR if banks % 2 else CommandType.RD
                trace.append(BankSweep(Command(kind, row=2, tag="stage_x"),
                                       beats=1 + banks % 4, banks=banks))
        return trace

    #: Per tRP: the tREFI values whose first refresh falls due at every
    #: cycle of the first sweep, and whose second at every cycle of the
    #: second. A 1500-cycle tRP keeps the visited banks' act_ready past
    #: their closed-form ACTs, so they become anchors of their own.
    TREFI = {TimingParams().trp: range(400, 960), 1500: range(1540, 2140)}

    @pytest.mark.parametrize("trp", TREFI)
    def test_refresh_due_at_every_cycle_of_a_split_sweep(self, monkeypatch,
                                                         trp):
        """Move tREFI across both sweeps one cycle at a time; both take
        the loop from the split channel, and the per-bank states
        (``_bank_rows``) and pricing match the expansion."""
        sweeps = _count_sweep_paths(monkeypatch)
        trace = self._pb_trace()
        for trefi in self.TREFI[trp]:
            timing = TimingParams(trp=trp, trefi=trefi, trfc=50)
            assert_prices_as_expansion(trace, timing, 1)
        assert all((s.loops, s.issues) == (1, 0) for s in sweeps)
        # Each step's first sweep meets the channel split, the 7-bank
        # sweep the 11-bank sweep's ready vector.
        assert [(s.split, s.pending) for s in sweeps] == [
            (True, False), (True, False), (False, True)] * (len(sweeps) // 3)
        assert sum(s.outcome.anchors[-1][4] > s.outcome.anchors[0][4]
                   for s in sweeps) >= len(self.TREFI[trp])

    @pytest.mark.parametrize("trefi", [TimingParams().trefi, 300])
    @pytest.mark.parametrize("tail", ["none", "single-bank", "broadcast"])
    def test_split_sweep_state_materialises(self, tail, trefi):
        """After the sweeps, ``banks`` (``_bank_rows``), a single-bank
        command or a broadcast phase see exactly the per-command
        scheduler's banks, with no refresh (so banks 11-15 show their own
        windows) and with refreshes inside the sweeps."""
        t = TimingParams(trefi=trefi, trfc=100)
        trace = self._pb_trace() + {
            "none": [],
            "single-bank": [Command(CommandType.ACT, bank=6, row=3),
                            Command(CommandType.RD, bank=6, row=3)],
            "broadcast": [Command(CommandType.MODE),
                          RowVisit(True, 0, 0, 1,
                                   ((CommandType.RD_AB, 2, 0, None),))],
        }[tail]
        assert_prices_as_expansion(trace, t, 1)

    def test_synthesised_sweeps_take_the_loop(self, monkeypatch):
        """No sweep that synthesis emits for Fig. 8 (AB and PB, one and
        16 channels, k = 1 and 4) or Fig. 9 issues command by command;
        the PB traces' sweeps meet split channels."""
        sweeps = _count_sweep_paths(monkeypatch)
        config = default_system()
        matrix = generate(matrices_for("spmv")[0], scale=0.02)
        for channels in (None, 16):
            for k in (1, 4):
                execution = plan_spmm(matrix, config, num_rhs=k,
                                      channels=channels)[2]
                for mode in ("ab", "pb"):
                    price_trace(synthesize(execution, config,
                                           mode=mode).trace, config)
        fig8 = len(sweeps)
        factors = ildu(generate(matrices_for("sptrsv")[0], scale=0.005))
        for tri, lower in ((factors.lower, True), (factors.upper, False)):
            b = np.random.default_rng(0).random(tri.shape[0])
            for channels in (None, 4):
                execution = run_sptrsv(tri, b, config, lower=lower,
                                       channels=channels).execution
                price_trace(synthesize(execution, config).trace, config)
        assert fig8 and len(sweeps) > fig8
        assert all((s.loops, s.issues) == (1, 0) for s in sweeps)
        assert any(s.split for s in sweeps[:fig8])


def dump_records(records, out) -> None:
    """The pinned file's layout: a JSON list, one record per line."""
    out.write("[\n" + ",\n".join(
        json.dumps(r, separators=(",", ":")) for r in records) + "\n]\n")


if __name__ == "__main__":
    dump_records([build_record(seed)[0] for seed in ALL_SEEDS], sys.stdout)
