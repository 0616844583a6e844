"""Differential replay of the channel scheduler against pinned records.

``tests/golden/scheduler_lockstep.json`` holds the outcome of scheduling
seeded random legal traces with the per-bank scheduler that predates the
shared lock-step bank state. The traces interleave single-bank
ACT/RD/WR/PRE on assorted banks with broadcast ACT/RD/WR/PRE, command
runs, mode switches, explicit refreshes and idle stretches that cross
tREFI (so refresh is deferred while rows are open and inserted at the
next all-closed boundary). The traces of ``SWEEP_SEEDS`` also carry host
``BankSweep``s (1-40 beats over 1-16 banks, reads and writes, some after
single-bank traffic or with a ``min_gap``, many straddling a refresh);
their records were taken by pricing each sweep's expansion with the
per-command scheduler that predates the closed-form sweep. Replaying them
must reproduce every recorded figure exactly — per-command/run issue
cycles (a sweep contributes its expansion's), per-channel clocks,
refreshes, command counts, tag attributions and the per-bank state after
the last command — with zero violations from the independent protocol
checker.

The records are pinned, not regenerated: rewriting them with the code
under test would prove nothing. ``python tests/test_dram_lockstep.py``
prints a fresh record set for inspection.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dram import (BANKS_PER_CHANNEL, BankSweep, ChannelScheduler,
                        Command, CommandRun, CommandType, MemoryController,
                        TimingParams, as_run, expand_sweeps)
from repro.dram.bank import BankState
from repro.errors import TimingError

RECORDS = Path(__file__).parent / "golden" / "scheduler_lockstep.json"
#: Seeds of traces without sweeps, and of traces that also carry sweeps.
SEEDS = range(24)
SWEEP_SEEDS = range(24, 48)
ALL_SEEDS = [*SEEDS, *SWEEP_SEEDS]
ROWS = 4
TAGS = (None, None, "a", "b", "stage_x")
SWEEP_TAGS = (None, "a", "stage_x", "merge_y", "read_b")


def random_trace(seed: int):
    """A legal random trace over one or two channels; deterministic."""
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
        trace.append(command if count == 1 else CommandRun(command, count))

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
    return trace, channels


#: Seeds of SpTRSV-shaped traces (sweeps between broadcast phases).
LEVEL_SEEDS = range(12)


def sptrsv_trace(seed: int):
    """A seeded SpTRSV-shaped trace over one or two channels.

    Per level and channel: 1-3 back-to-back host sweeps (the later ones
    meet the earlier ones' banks), sometimes an explicit refresh, a
    mode switch, 1-3 broadcast ``ACT_AB``/column runs/``PRE_AB``
    phases and a mode switch back. Idle gaps of 500-5000 cycles cross
    tREFI, so refreshes fall due between and inside sweeps. A broadcast
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
        return [Command(CommandType.ACT_AB, channel=ch, row=row,
                        min_gap=gap()),
                column if count == 1 else CommandRun(column, count),
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


class _IssueLog:
    """Collector recording the last issue cycle of every command or run
    (a sweep logs its expansion's: each bank's ACT, last column, PRE)."""

    def __init__(self):
        self.last = []
        self.sweeps = []

    def observe(self, command, count, last, refreshes):
        self.last.append(last)

    def observe_sweep(self, sweep, issue):
        self.sweeps.append(issue)
        for _, act, last_col, pre, _ in issue.per_bank():
            self.last += [act, last_col, pre]


def _bank_rows(banks):
    return [[b.open_row, b.act_ready, b.rd_ready, b.wr_ready, b.pre_ready]
            for b in banks]


def _schedule_channel(sched, trace, ch):
    """Issue *trace*'s entries for channel *ch* on one scheduler."""
    for entry in trace:
        if isinstance(entry, BankSweep):
            if entry.channel == ch:
                sched.issue_sweep(entry)
            continue
        command, count = as_run(entry)
        if command.channel != ch:
            continue
        if count == 1:
            sched.issue(command)
        else:
            sched.issue_run(command, count)


def build_record(seed: int, validate: bool = False, log=None) -> dict:
    """Schedule one seeded trace; return every pinned figure."""
    trace, channels = random_trace(seed)
    enable_refresh = seed % 6 != 5
    log = _IssueLog() if log is None else log
    controller = MemoryController(TimingParams(), num_channels=channels,
                                  enable_refresh=enable_refresh,
                                  validate_protocol=validate)
    result = controller.run(trace, collector=log)
    banks = {}
    for ch in range(channels):
        sched = ChannelScheduler(TimingParams(), enable_refresh,
                                 channel=ch)
        _schedule_channel(sched, trace, ch)
        banks[str(ch)] = _bank_rows(sched.banks)
    record = {
        "seed": seed,
        "entries": sum(1 for _ in expand_sweeps(trace)),
        "enable_refresh": enable_refresh,
        "issue_last": log.last,
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
            runs += sum(isinstance(entry, CommandRun) for entry in trace)
        assert kinds == set(CommandType)
        assert runs >= 100

    def test_sweep_seeds_exercise_the_closed_form(self):
        """Sweeps mostly run in closed form, re-anchor on refresh, and
        fall back to per-command issue under a ``min_gap``."""
        closed = straddled = per_command = beats = 0
        widths = set()
        for seed in SWEEP_SEEDS:
            trace, _ = random_trace(seed)
            log = _IssueLog()
            build_record(seed, log=log)
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
        with pytest.raises(TimingError, match="targets row 4"):
            sched.issue_run(Command(CommandType.RD_AB, row=4), 5)

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


def _price(trace, timing, channels, log):
    """Price *trace* under the protocol checker; return the result and
    each channel's per-bank state after its last command."""
    controller = MemoryController(timing, num_channels=channels,
                                  validate_protocol=True)
    result = controller.run(trace, collector=log)
    banks = {}
    for ch in range(channels):
        sched = ChannelScheduler(timing, channel=ch)
        _schedule_channel(sched, trace, ch)
        banks[ch] = _bank_rows(sched.banks)
    return result, banks


def assert_prices_as_expansion(trace, timing, channels):
    """Pricing *trace* reproduces pricing its ``expand_sweeps``
    expansion exactly, with no protocol violation on either."""
    swept, flat = _IssueLog(), _IssueLog()
    got, got_banks = _price(trace, timing, channels, swept)
    want, want_banks = _price(list(expand_sweeps(trace)), timing, channels,
                              flat)
    assert got.violations == [] and want.violations == []
    assert swept.last == flat.last
    assert got_banks == want_banks
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
        # Only the anchor bank issues command by command.
        assert issued == [CommandType.ACT, CommandType.WR, CommandType.PRE]
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

    def test_as_run_refuses_a_sweep(self):
        sweep = BankSweep(Command(CommandType.RD), beats=2, banks=2)
        with pytest.raises(TypeError, match="expand_sweeps"):
            as_run(sweep)


class TestSweepFromLockstep:
    """Sweeps that meet the channel in lock step, with every bank
    precharged, leave the per-bank states pending; the SpTRSV-shaped
    traces price exactly as their expansion under every timing set."""

    @pytest.mark.parametrize("name", TestSweepClosedForm.TIMINGS)
    @pytest.mark.parametrize("seed", LEVEL_SEEDS)
    def test_sptrsv_shaped_trace_prices_as_its_expansion(self, name, seed):
        trace, channels = sptrsv_trace(seed)
        assert_prices_as_expansion(trace, TestSweepClosedForm.TIMINGS[name],
                                   channels)

    def test_lockstep_path_prices_most_sweeps(self, monkeypatch):
        """Most sweeps issue no command through ``issue()``, including
        sweeps that meet pending states and sweeps a refresh lands in."""
        counts = {"sweeps": 0, "lockstep": 0, "pending": 0, "refresh": 0}
        issued = []
        issue, issue_sweep = ChannelScheduler.issue, ChannelScheduler.issue_sweep

        def counting_issue(self, command, earliest=0):
            issued.append(command.kind)
            return issue(self, command, earliest)

        def counting_sweep(self, sweep):
            pending = self._pending is not None
            before = len(issued)
            outcome = issue_sweep(self, sweep)
            counts["sweeps"] += 1
            if len(issued) == before:
                counts["lockstep"] += 1
                counts["pending"] += pending
                counts["refresh"] += (outcome.anchors[-1][4]
                                      > outcome.anchors[0][4])
            return outcome

        monkeypatch.setattr(ChannelScheduler, "issue", counting_issue)
        monkeypatch.setattr(ChannelScheduler, "issue_sweep", counting_sweep)
        for seed in LEVEL_SEEDS:
            trace, channels = sptrsv_trace(seed)
            MemoryController(TimingParams(), num_channels=channels).run(trace)
        assert counts["lockstep"] >= 0.9 * counts["sweeps"]
        assert counts["pending"] >= 100
        assert counts["refresh"] >= 10

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
        assert sched._pending
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
        """A single-bank command and ``banks`` replay pending sweeps and
        refreshes exactly as the per-command expansion leaves them."""
        t = TimingParams(trefi=400, trfc=100)
        head = [Command(CommandType.MODE), Command(CommandType.ACT_AB, row=1),
                Command(CommandType.PRE_AB),
                BankSweep(Command(CommandType.WR, row=2), beats=6, banks=16),
                BankSweep(Command(CommandType.RD, row=0), beats=2, banks=9),
                Command(CommandType.REF)]
        for tail in ([], [Command(CommandType.ACT, bank=12, row=3)],
                     [Command(CommandType.MODE), Command(CommandType.REF)]):
            assert_prices_as_expansion(head + tail, t, 1)


def dump_records(records, out) -> None:
    """The pinned file's layout: a JSON list, one record per line."""
    out.write("[\n" + ",\n".join(
        json.dumps(r, separators=(",", ":")) for r in records) + "\n]\n")


if __name__ == "__main__":
    dump_records([build_record(seed)[0] for seed in ALL_SEEDS], sys.stdout)
