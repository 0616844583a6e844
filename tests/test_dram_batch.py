"""Differential tests: closed-form RowVisit pricing vs per-command issue.

Every row visit must price exactly like its expansion — each command's
issue cycle, per-channel clocks, per-type counters, tag attributions,
energy, the per-bank state left behind and the cycle attribution with its
segment timeline — under refresh, turnarounds, bank-group mixes and every
timing set of the sweep tests, for all-bank and single-bank visits that
meet the channel in lock step, split or pending (after a host sweep).
"""

import numpy as np
import pytest

import tests.test_dram_lockstep as lockstep
from repro.config import default_system
from repro.core import (dense_stream_trace, price_trace, run_spmv,
                        run_sptrsv, spmm_ab_trace, spmm_pb_trace,
                        sptrsv_ab_trace)
from repro.core.trace import TraceSegment
from repro.dram import (BankSweep, ChannelScheduler, Command, CommandType,
                        MemoryController, RowVisit, TimingParams,
                        count_commands, expand, expand_trace)
from repro.formats import generate
from repro.formats.generators import uniform_random, unit_lower_from
from repro.obs.attrib import AttributionCollector

CFG = default_system()
#: The sweep tests' timing sets: each makes one closed-form guard bite.
TIMINGS = lockstep.TestSweepClosedForm.TIMINGS
RD, WR = CommandType.RD, CommandType.WR
RD_AB, WR_AB = CommandType.RD_AB, CommandType.WR_AB
MODE = Command(CommandType.MODE)


def ab(row, *stretches, channel=0):
    """An all-bank visit of *row* with ``(kind, beats, col, tag)``
    stretches."""
    return RowVisit(True, channel, 0, row, stretches)


def sb(bank, row, *stretches, channel=0):
    """A single-bank visit of *row* in *bank*."""
    return RowVisit(False, channel, bank, row, stretches)


def _attribution(trace, timing, enable_refresh, segments):
    collector = AttributionCollector(
        trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles,
        capture_entries=True)
    perf = price_trace(trace, CFG, timing=timing,
                       enable_refresh=enable_refresh, collector=collector)
    return collector.finalize(
        banks_per_channel=CFG.memory.banks_per_channel,
        segments=segments, total_cycles=perf.cycles)


def _schedules_match(trace, timing=TimingParams(), enable_refresh=True):
    """*trace* prices and attributes exactly as its per-command
    expansion; returns the visit-form schedule."""
    channels = 1 + max(entry.channel for entry in trace)
    if enable_refresh:
        # Every issue cycle, the bank states and the protocol checker.
        lockstep.assert_prices_as_expansion(trace, timing, channels)
    expanded = list(expand_trace(trace))
    run = MemoryController(timing=timing, num_channels=channels,
                           enable_refresh=enable_refresh).run
    got = run(trace, with_energy=True)
    want = run(expanded, with_energy=True)
    for field in ("total_cycles", "per_channel_cycles", "counts",
                  "command_total", "refreshes", "tag_cycles",
                  "per_channel_stats"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.energy.as_dict() == want.energy.as_dict()
    # Attribution, one segment per entry, remapped onto the expansion.
    starts = [0]
    for entry in trace:
        starts.append(starts[-1] + sum(n for _, n in expand([entry])))
    got_att = _attribution(trace, timing, enable_refresh, [
        TraceSegment(f"e{i}", entry.channel, i, i + 1)
        for i, entry in enumerate(trace)])
    want_att = _attribution(expanded, timing, enable_refresh, [
        TraceSegment(f"e{i}", entry.channel, starts[i], starts[i + 1])
        for i, entry in enumerate(trace)])
    assert got_att.lane_cycles == want_att.lane_cycles
    assert got_att.channel_clock == want_att.channel_clock
    assert got_att.segment_cycles == want_att.segment_cycles
    return got


def _all_timings(trace, enable_refresh=True):
    for name, timing in TIMINGS.items():
        try:
            _schedules_match(trace, timing, enable_refresh)
        except AssertionError as error:
            raise AssertionError(f"timing set {name!r}") from error


class TestRowVisit:
    def test_rejects_foreign_kinds_and_empty_stretches(self):
        with pytest.raises(ValueError, match="single-bank visit"):
            sb(0, 1, (RD_AB, 2, 0, None))
        with pytest.raises(ValueError, match="all-bank visit"):
            ab(1, (WR, 2, 0, None))
        with pytest.raises(ValueError, match="at least one beat"):
            ab(1, (RD_AB, 0, 0, None))

    def test_rows_and_expand(self):
        visit = sb(3, 7, (RD, 4, 2, "gather"), (WR, 1, 2, None),
                   channel=1)
        assert list(visit.rows()) == [
            (Command(CommandType.ACT, 1, 3, 7), 1),
            (Command(RD, 1, 3, 7, 2, tag="gather"), 4),
            (Command(WR, 1, 3, 7, 2), 1),
            (Command(CommandType.PRE, 1, 3), 1)]
        sweep = BankSweep(Command(WR, row=2), beats=3, banks=2)
        trace = [MODE, visit, sweep]
        assert ([n for _, n in expand(trace)]
                == [1, 1, 4, 1, 1] + [1, 3, 1] * 2)
        flat = list(expand_trace(trace))
        assert len(flat) == 1 + 7 + sweep.commands
        assert flat[2:6] == [Command(RD, 1, 3, 7, 2, tag="gather")] * 4

    def test_count_commands_expands_visits(self):
        trace = [ab(0, (RD_AB, 9, 0, None), (WR_AB, 2, 0, None)), ab(1)]
        counts = count_commands(trace)
        assert counts[RD_AB] == 9 and counts[WR_AB] == 2
        assert counts[CommandType.ACT_AB] == counts[CommandType.PRE_AB] == 2

    def test_validated_visit_is_not_priced_per_command(self, monkeypatch):
        """Under the protocol checker the closed form still runs, and the
        checker observes the whole expansion."""
        issued = []
        issue = ChannelScheduler.issue

        def counting(self, command, earliest=0):
            issued.append(command.kind)
            return issue(self, command, earliest)

        visit = ab(3, (WR_AB, 8, 0, "broadcast"), (RD_AB, 5, 1, None))
        sched = ChannelScheduler(TimingParams(), validate_protocol=True)
        sched.issue(MODE)
        monkeypatch.setattr(ChannelScheduler, "issue", counting)
        ends = sched.issue_visit(visit)
        ends += sched.issue_visit(sb(6, 2, (RD, 3, 0, None)))
        assert issued == []
        # MODE, the visit's 2 + 13 commands and the second visit's 5.
        assert sched._checker.commands_seen == 21
        assert sched.protocol_violations == []
        assert sched.now == ends[-1]
        result = MemoryController(validate_protocol=True).run([MODE, visit])
        assert issued == [CommandType.MODE]
        assert result.violations == []
        assert result.command_total == 16


class TestSyntheticRuns:
    def test_broadcast_read_run(self):
        _all_timings([MODE, ab(0, (RD_AB, 64, 0, None))])

    def test_single_bank_write_run(self):
        _all_timings([sb(3, 7, (WR, 32, 0, None))])

    def test_run_with_min_gap_throttling(self):
        """Throttled plain commands between visits keep their min_gap."""
        slow = Command(RD_AB, row=0, min_gap=11)
        _all_timings([MODE, ab(1, (RD_AB, 3, 0, None)),
                      Command(CommandType.ACT_AB, row=0), *[slow] * 20,
                      Command(CommandType.PRE_AB),
                      ab(2, (WR_AB, 4, 0, None))])

    def test_runs_across_turnarounds(self):
        # WR->RD->WR turnaround at every stretch boundary
        _all_timings([MODE, ab(0, *[(RD_AB, 6, 0, None),
                                    (WR_AB, 6, 0, None)] * 4)])

    def test_runs_across_bank_groups(self):
        """Single-bank visits across groups (tCCD_S vs _L, tRRD, tFAW)
        while another bank holds a row open, so refresh stays off."""
        trace = [Command(CommandType.ACT, bank=5, row=1)]
        for bank in (0, 4, 8, 1, 9, 13):
            trace.append(sb(bank, 1, (RD, 8, 0, None)))
        trace.append(Command(CommandType.PRE, bank=5))
        _all_timings(trace)

    def test_visit_after_plain_columns(self):
        """A visit's first column right after plain columns on another
        bank: with a short tRCD, CCD (same group or not) and the
        data-bus turnaround bind it."""
        trace = [Command(CommandType.ACT, bank=5, row=1),
                 Command(WR, bank=5, row=1),
                 sb(0, 2, (RD, 2, 0, None)),      # other group, WR -> RD
                 Command(RD, bank=5, row=1),
                 sb(6, 2, (WR, 3, 0, None)),      # same group, RD -> WR
                 Command(WR, bank=5, row=1),
                 sb(9, 3, (WR, 1, 0, None), (RD, 2, 0, None)),
                 Command(CommandType.PRE, bank=5)]
        short = TimingParams(trcd=4, tccd_l=12, twtr=20)
        for timing in (*TIMINGS.values(), short):
            _schedules_match(trace, timing)

    def test_long_run_slides_past_refresh(self):
        # A stretch long enough to cross tREFI: refresh must defer until
        # the row closes, identically on both paths.
        timing = TimingParams()
        count = 2 * timing.trefi // max(timing.tccd_l, 1)
        trace = [MODE, ab(0, (RD_AB, count, 0, None)),
                 ab(1, (WR_AB, 16, 0, None))]
        result = _schedules_match(trace)
        assert result.refreshes > 0
        _all_timings(trace)

    def test_refresh_disabled(self):
        _all_timings([MODE, ab(0, (RD_AB, 500, 0, None)),
                      sb(2, 3, (WR, 40, 0, None))], enable_refresh=False)

    def test_non_column_run_falls_back(self):
        """Visits with no column stretch: an ACT then its PRE."""
        _all_timings([MODE, ab(5), MODE, sb(2, 5), ab(6),
                      *[MODE] * 3])

    def test_tagged_run_attribution(self):
        result = _schedules_match([MODE, ab(0, (RD_AB, 40, 0, "stream"),
                                            (WR_AB, 2, 0, "stage_x"))])
        assert result.tag_cycles["stream"] > 0
        assert result.tag_cycles["stage_x"] > 0

    def test_scatter_stretches(self):
        """Alternating one-beat RD/WR stretches (the output flush)."""
        scatter = [(kind, 1, col, "scatter") for col in range(12)
                   for kind in (RD_AB, WR_AB)]
        _all_timings([MODE, ab(3, (RD_AB, 5, 0, "matrix")),
                      ab(16200, *scatter),
                      sb(4, 16200, *[(RD if k is RD_AB else WR, n, c, t)
                                     for k, n, c, t in scatter])])

    def test_visits_from_lockstep_split_and_pending(self):
        """A visit meets the channel in lock step (after a broadcast),
        split (after a single-bank command) and pending (after a host
        sweep from lock step), and re-joins lock step after each."""
        sweep = BankSweep(Command(WR, row=2, tag="stage_x"), beats=3,
                          banks=16)
        trace = [MODE, ab(1, (RD_AB, 4, 0, None)),
                 ab(2, (WR_AB, 2, 0, None)),                # lock step
                 Command(CommandType.ACT, bank=7, row=1),
                 Command(CommandType.PRE, bank=7),
                 ab(3, (RD_AB, 3, 0, None)),                # split
                 sb(7, 4, (RD, 2, 0, None)),
                 sweep, ab(4, (RD_AB, 2, 0, None)),         # pending
                 sweep, sb(11, 4, (WR, 5, 0, None)),        # pending
                 sweep, BankSweep(Command(RD, row=3), beats=1, banks=9),
                 MODE, ab(5, (RD_AB, 1, 0, None))]
        _all_timings(trace)

    def test_refresh_due_at_the_act(self):
        """Move tREFI across the trace one cycle at a time, so refresh
        falls due at, just before and just after every visit's ACT."""
        trace = [MODE, ab(1, (RD_AB, 4, 0, None)),
                 BankSweep(Command(WR, row=2), beats=2, banks=16),
                 ab(2, (WR_AB, 3, 0, None), (RD_AB, 2, 0, None)),
                 sb(9, 3, (RD, 2, 0, None)), ab(4)]
        for trefi in range(60, 400):
            lockstep.assert_prices_as_expansion(
                trace, TimingParams(trefi=trefi, trfc=50), 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mixed_traces(self, seed):
        rng = np.random.default_rng(seed)
        trace = [MODE, Command(CommandType.MODE, 1)]
        for _ in range(40):
            ch = int(rng.integers(2))
            roll = rng.random()
            all_bank = roll < 0.5
            kinds = (RD_AB, WR_AB) if all_bank else (RD, WR)
            if roll < 0.8:
                stretches = tuple(
                    (kinds[int(rng.random() < 0.3)],
                     int(rng.integers(1, 20)), int(rng.integers(64)),
                     (None, "matrix", "stage_x")[int(rng.integers(3))])
                    for _ in range(int(rng.integers(0, 5))))
                trace.append(RowVisit(all_bank, ch,
                                      0 if all_bank else int(rng.integers(16)),
                                      int(rng.integers(64)), stretches))
            elif roll < 0.88:
                trace.append(BankSweep(
                    Command(RD if rng.random() < 0.5 else WR, ch,
                            row=int(rng.integers(64)), tag="read_b"),
                    int(rng.integers(1, 10)), int(rng.integers(1, 17))))
            elif roll < 0.94:
                trace.append(Command(CommandType.MODE, ch,
                                     min_gap=int(rng.integers(0, 3000))))
            else:
                trace.append(Command(CommandType.REF, ch))
        _all_timings(trace)


class TestKernelTraceRuns:
    """The synthesised kernel traces emit visits; their pricing must match
    the per-command reference exactly on every trace family."""

    @pytest.fixture(scope="class")
    def spmv_execution(self):
        m = generate("facebook", scale=0.1)
        x = np.random.default_rng(1).random(m.shape[1])
        return run_spmv(m, x, CFG).execution

    def test_spmv_ab_trace(self, spmv_execution):
        trace = spmm_ab_trace(spmv_execution, CFG)
        assert any(isinstance(e, RowVisit) and e.all_bank for e in trace)
        _all_timings(trace)

    def test_spmv_pb_trace(self, spmv_execution):
        trace = spmm_pb_trace(spmv_execution, CFG)
        assert any(isinstance(e, RowVisit) and not e.all_bank
                   for e in trace)
        _all_timings(trace)

    def test_sptrsv_trace(self):
        low = unit_lower_from(uniform_random(300, 300, 0.02, seed=2),
                              seed=3)
        b = np.random.default_rng(2).random(300)
        execution = run_sptrsv(low, b, CFG).execution
        _all_timings(sptrsv_ab_trace(execution, CFG))

    @pytest.mark.parametrize("all_bank", [True, False])
    def test_dense_stream_trace(self, all_bank):
        trace = dense_stream_trace(1 << 12, 2, 1, "fp64",
                                   all_bank=all_bank)
        # PB interleaves the banks' short runs, so it stays per command.
        assert any(isinstance(e, RowVisit) for e in trace) == all_bank
        _schedules_match(trace)

    def test_price_trace_host_columns_count_runs(self, spmv_execution):
        # Energy's external traffic must count a stretch's full beats.
        trace = spmm_ab_trace(spmv_execution, CFG)
        visits = price_trace(trace, CFG, with_energy=True)
        expanded = price_trace(list(expand_trace(trace)), CFG,
                               with_energy=True)
        assert visits.cycles == expanded.cycles
        assert visits.counts == expanded.counts
        assert visits.tag_cycles == expanded.tag_cycles
        assert visits.energy.external_pj == expanded.energy.external_pj
        assert visits.energy.total_joules == expanded.energy.total_joules
