"""Tests for the schedule statistics (row-buffer locality, bus use)."""

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (plan_spmv, run_spmv, spmm_ab_trace,
                        spmm_channels_trace, synthesize, TraceParams)
from repro.dram import Command, CommandType, MemoryController
from repro.formats import generate
from repro.obs import build_run_report
from repro.obs.attrib import attribute_spmv

CFG = default_system()


def _run(trace):
    return MemoryController(enable_refresh=False).run(trace)


class TestScheduleStats:
    def test_streaming_has_high_locality(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        trace += [Command(CommandType.RD_AB, row=0, col=c % 64)
                  for c in range(32)]
        trace += [Command(CommandType.PRE_AB)]
        result = _run(trace)
        assert result.row_buffer_locality == pytest.approx(32.0)

    def test_thrashing_has_unit_locality(self):
        trace = []
        for i in range(8):
            trace.append(Command(CommandType.ACT, bank=0, row=i))
            trace.append(Command(CommandType.RD, bank=0, row=i))
            trace.append(Command(CommandType.PRE, bank=0))
        result = _run(trace)
        assert result.row_buffer_locality == pytest.approx(1.0)

    def test_activations_counts_both_kinds(self):
        trace = [Command(CommandType.ACT, bank=0, row=0),
                 Command(CommandType.PRE, bank=0),
                 Command(CommandType.ACT_AB, row=1),
                 Command(CommandType.PRE_AB)]
        assert _run(trace).activations == 2

    def test_bus_utilisation_bounds(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        trace += [Command(CommandType.RD_AB, row=0, col=c % 64)
                  for c in range(16)]
        result = _run(trace)
        assert 0.0 < result.bus_utilisation <= 1.0

    def test_empty_schedule(self):
        result = _run([])
        assert result.row_buffer_locality == 0.0
        assert result.bus_utilisation == 0.0

    def test_spmv_trace_locality_is_reasonable(self):
        matrix = generate("cant", scale=0.03)
        x = np.random.default_rng(0).random(matrix.shape[1])
        execution = run_spmv(matrix, x, CFG).execution
        result = _run(spmm_ab_trace(execution, CFG))
        # phased schedule: several beats per row visit, far from thrash
        assert result.row_buffer_locality > 4.0


class TestShardedBusUtilisation:
    """Every active channel has its own column bus, so utilisation is
    column commands over (active channels x schedule cycles)."""

    @pytest.fixture(scope="class")
    def cant(self):
        return generate("cant", scale=0.02)

    def _sharded(self, matrix, channels):
        _, _, execution = plan_spmv(matrix, CFG, channels=channels,
                                    validate=False)
        trace = spmm_channels_trace(execution, CFG, TraceParams())
        return execution, MemoryController().run(trace)

    @pytest.mark.parametrize("channels", [4, 16])
    def test_is_the_per_channel_mean(self, cant, channels):
        _, result = self._sharded(cant, channels)
        stats = result.per_channel_stats
        assert len(stats) == channels
        mean = sum(s["column_commands"] / result.total_cycles
                   for s in stats.values()) / len(stats)
        assert result.bus_utilisation < 1.0
        assert result.bus_utilisation == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("channels", [4, 16])
    def test_run_report_agrees(self, cant, channels):
        execution, result = self._sharded(cant, channels)
        attribution, perf = attribute_spmv(execution, CFG)
        report = build_run_report(attribution, perf, label="cant",
                                  kind="spmv", channels=channels)
        assert (report.utilization["bus_utilisation"]
                == result.bus_utilisation)

    def test_single_channel_is_columns_over_cycles(self, cant):
        for channels in (None, 1):
            _, _, execution = plan_spmv(cant, CFG, channels=channels,
                                        validate=False)
            trace = synthesize(execution, CFG).trace
            result = MemoryController().run(trace)
            assert (result.bus_utilisation
                    == result.column_commands / result.total_cycles)
