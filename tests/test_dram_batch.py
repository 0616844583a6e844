"""Differential tests: closed-form CommandRun pricing vs per-command issue.

Every run in a trace must price exactly like its expansion — total cycles,
per-channel cycles, per-type counters, tag attributions and energy — under
refresh, turnarounds, bank-group mixes and both broadcast and single-bank
streams.
"""

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (dense_stream_trace, price_trace, run_spmv,
                        run_sptrsv, spmm_ab_trace, spmm_pb_trace,
                        sptrsv_ab_trace)
from repro.dram import (Command, CommandRun, CommandType, MemoryController,
                        TimingParams, as_run, count_commands, expand_trace)
from repro.formats import generate
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()


def _schedules_match(trace, timing=TimingParams(), enable_refresh=True):
    run = MemoryController(timing=timing,
                           enable_refresh=enable_refresh).run
    batched = run(trace, with_energy=True)
    expanded = run(list(expand_trace(trace)), with_energy=True)
    assert batched.total_cycles == expanded.total_cycles
    assert batched.per_channel_cycles == expanded.per_channel_cycles
    assert batched.counts == expanded.counts
    assert batched.command_total == expanded.command_total
    assert batched.refreshes == expanded.refreshes
    assert batched.tag_cycles == expanded.tag_cycles
    assert batched.energy.total_joules == expanded.energy.total_joules
    return batched


class TestCommandRun:
    def test_needs_at_least_one(self):
        with pytest.raises(ValueError, match="at least one"):
            CommandRun(Command(CommandType.RD), 0)

    def test_delegates_command_fields(self):
        cmd = Command(CommandType.WR_AB, row=3, col=5, min_gap=2,
                      tag="stream")
        batch = CommandRun(cmd, 7)
        assert batch.kind is CommandType.WR_AB
        assert (batch.row, batch.col, batch.min_gap) == (3, 5, 2)
        assert batch.tag == "stream"

    def test_as_run_and_expand(self):
        cmd = Command(CommandType.RD, bank=1, row=2)
        assert as_run(cmd) == (cmd, 1)
        assert as_run(CommandRun(cmd, 4)) == (cmd, 4)
        trace = [cmd, CommandRun(cmd, 3)]
        assert list(expand_trace(trace)) == [cmd] * 4

    def test_count_commands_expands_runs(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(Command(CommandType.RD_AB, row=0), 9)]
        counts = count_commands(trace)
        assert counts[CommandType.RD_AB] == 9
        assert counts[CommandType.ACT_AB] == 1


class TestSyntheticRuns:
    def test_broadcast_read_run(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(Command(CommandType.RD_AB, row=0), 64),
                 Command(CommandType.PRE_AB)]
        _schedules_match(trace)

    def test_single_bank_write_run(self):
        trace = [Command(CommandType.ACT, bank=3, row=7),
                 CommandRun(Command(CommandType.WR, bank=3, row=7), 32),
                 Command(CommandType.PRE, bank=3)]
        _schedules_match(trace)

    def test_run_with_min_gap_throttling(self):
        slow = Command(CommandType.RD_AB, row=0, min_gap=11)
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(slow, 20),
                 Command(CommandType.PRE_AB)]
        _schedules_match(trace)

    def test_runs_across_turnarounds(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        for _ in range(4):  # WR->RD->WR turnaround at every boundary
            trace.append(CommandRun(Command(CommandType.RD_AB, row=0), 6))
            trace.append(CommandRun(Command(CommandType.WR_AB, row=0), 6))
        trace.append(Command(CommandType.PRE_AB))
        _schedules_match(trace)

    def test_runs_across_bank_groups(self):
        trace = []
        for bank in (0, 4, 8, 1):  # group changes exercise tCCD_S vs _L
            trace.append(Command(CommandType.ACT, bank=bank, row=1))
            trace.append(CommandRun(
                Command(CommandType.RD, bank=bank, row=1), 8))
        for bank in (0, 4, 8, 1):
            trace.append(Command(CommandType.PRE, bank=bank))
        _schedules_match(trace)

    def test_long_run_slides_past_refresh(self):
        # A run long enough to cross tREFI: refresh must defer until the
        # row closes, identically on both paths.
        timing = TimingParams()
        count = 2 * timing.trefi // max(timing.tccd_l, 1)
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(Command(CommandType.RD_AB, row=0), count),
                 Command(CommandType.PRE_AB),
                 Command(CommandType.ACT_AB, row=1),
                 CommandRun(Command(CommandType.WR_AB, row=1), 16),
                 Command(CommandType.PRE_AB)]
        result = _schedules_match(trace)
        assert result.refreshes > 0

    def test_refresh_disabled(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(Command(CommandType.RD_AB, row=0), 500),
                 Command(CommandType.PRE_AB)]
        _schedules_match(trace, enable_refresh=False)

    def test_non_column_run_falls_back(self):
        # MODE runs have no closed form; the scheduler must loop.
        trace = [CommandRun(Command(CommandType.MODE), 3)]
        _schedules_match(trace)

    def test_tagged_run_attribution(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 CommandRun(Command(CommandType.RD_AB, row=0,
                                    tag="stream"), 40),
                 Command(CommandType.PRE_AB)]
        result = _schedules_match(trace)
        assert result.tag_cycles["stream"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mixed_traces(self, seed):
        rng = np.random.default_rng(seed)
        trace = []
        open_row = None
        for _ in range(40):
            if open_row is None or rng.random() < 0.2:
                if open_row is not None:
                    trace.append(Command(CommandType.PRE_AB))
                open_row = int(rng.integers(0, 64))
                trace.append(Command(CommandType.ACT_AB, row=open_row))
            kind = (CommandType.RD_AB if rng.random() < 0.7
                    else CommandType.WR_AB)
            cmd = Command(kind, row=open_row,
                          min_gap=int(rng.integers(0, 5)))
            n = int(rng.integers(1, 20))
            trace.append(cmd if n == 1 else CommandRun(cmd, n))
        trace.append(Command(CommandType.PRE_AB))
        _schedules_match(trace)


class TestKernelTraceRuns:
    """The synthesised kernel traces emit runs; their pricing must match
    the per-command reference exactly on every trace family."""

    @pytest.fixture(scope="class")
    def spmv_execution(self):
        m = generate("facebook", scale=0.1)
        x = np.random.default_rng(1).random(m.shape[1])
        return run_spmv(m, x, CFG).execution

    def test_spmv_ab_trace(self, spmv_execution):
        trace = spmm_ab_trace(spmv_execution, CFG)
        assert any(isinstance(e, CommandRun) for e in trace)
        _schedules_match(trace)

    def test_spmv_pb_trace(self, spmv_execution):
        _schedules_match(spmm_pb_trace(spmv_execution, CFG))

    def test_sptrsv_trace(self):
        low = unit_lower_from(uniform_random(300, 300, 0.02, seed=2),
                              seed=3)
        b = np.random.default_rng(2).random(300)
        execution = run_sptrsv(low, b, CFG).execution
        _schedules_match(sptrsv_ab_trace(execution, CFG))

    @pytest.mark.parametrize("all_bank", [True, False])
    def test_dense_stream_trace(self, all_bank):
        trace = dense_stream_trace(1 << 12, 2, 1, "fp64",
                                   all_bank=all_bank)
        _schedules_match(trace)

    def test_price_trace_host_columns_count_runs(self, spmv_execution):
        # Energy's external traffic must count a run's full beat count.
        trace = spmm_ab_trace(spmv_execution, CFG)
        batched = price_trace(trace, CFG, with_energy=True)
        expanded = price_trace(list(expand_trace(trace)), CFG,
                               with_energy=True)
        assert batched.cycles == expanded.cycles
        assert batched.counts == expanded.counts
        assert batched.tag_cycles == expanded.tag_cycles
        assert (batched.energy.external_pj
                == expanded.energy.external_pj)
        assert (batched.energy.total_joules
                == expanded.energy.total_joules)
