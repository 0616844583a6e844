"""Differential replay of the channel scheduler against pinned records.

``tests/golden/scheduler_lockstep.json`` holds the outcome of scheduling
seeded random legal traces with the per-bank scheduler that predates the
shared lock-step bank state. The traces interleave single-bank
ACT/RD/WR/PRE on assorted banks with broadcast ACT/RD/WR/PRE, command
runs, mode switches, explicit refreshes and idle stretches that cross
tREFI (so refresh is deferred while rows are open and inserted at the
next all-closed boundary). Replaying them must reproduce every recorded
figure exactly — per-entry issue cycles, per-channel clocks, refreshes,
command counts, tag attributions and the per-bank state after the last
command — with zero violations from the independent protocol checker.

The records are pinned, not regenerated: rewriting them with the code
under test would prove nothing. ``python tests/test_dram_lockstep.py``
prints a fresh record set for inspection.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dram import (BANKS_PER_CHANNEL, ChannelScheduler, Command,
                        CommandRun, CommandType, MemoryController,
                        TimingParams, as_run)
from repro.dram.bank import BankState
from repro.errors import TimingError

RECORDS = Path(__file__).parent / "golden" / "scheduler_lockstep.json"
SEEDS = range(24)
ROWS = 4
TAGS = (None, None, "a", "b", "stage_x")


def random_trace(seed: int):
    """A legal random trace over one or two channels; deterministic."""
    rng = np.random.default_rng(seed)
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

    while len(trace) < length:
        ch = int(rng.integers(channels))
        rows = open_rows[ch]
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


class _IssueLog:
    """Collector recording the last issue cycle of every trace entry."""

    def __init__(self):
        self.last = []

    def observe(self, command, count, last, refreshes):
        self.last.append(last)


def _bank_rows(banks):
    return [[b.open_row, b.act_ready, b.rd_ready, b.wr_ready, b.pre_ready]
            for b in banks]


def build_record(seed: int, validate: bool = False) -> dict:
    """Schedule one seeded trace; return every pinned figure."""
    trace, channels = random_trace(seed)
    enable_refresh = seed % 6 != 5
    log = _IssueLog()
    controller = MemoryController(TimingParams(), num_channels=channels,
                                  enable_refresh=enable_refresh,
                                  validate_protocol=validate)
    result = controller.run(trace, collector=log)
    banks = {}
    for ch in range(channels):
        sched = ChannelScheduler(TimingParams(), enable_refresh,
                                 channel=ch)
        for entry in trace:
            command, count = as_run(entry)
            if command.channel != ch:
                continue
            if count == 1:
                sched.issue(command)
            else:
                sched.issue_run(command, count)
        banks[str(ch)] = _bank_rows(sched.banks)
    record = {
        "seed": seed,
        "entries": len(trace),
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
        assert sorted(pinned) == list(SEEDS)

    @pytest.mark.parametrize("seed", SEEDS)
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


def dump_records(records, out) -> None:
    """The pinned file's layout: a JSON list, one record per line."""
    out.write("[\n" + ",\n".join(
        json.dumps(r, separators=(",", ":")) for r in records) + "\n]\n")


if __name__ == "__main__":
    dump_records([build_record(seed)[0] for seed in SEEDS], sys.stdout)
