"""Tests for repro.core.trace / repro.core.timing — the performance tier."""

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (TraceParams, run_spmv, run_sptrsv, spmm_ab_trace,
                        spmm_pb_trace, sptrsv_ab_trace, time_dense_kernel,
                        time_spmv, time_sptrsv, ildu)
from repro.dram import CommandType, expand_trace
from repro.errors import ExecutionError
from repro.formats import generate
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()
RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def spmv_execution():
    m = generate("facebook", scale=0.15)
    x = np.random.default_rng(1).random(m.shape[1])
    return run_spmv(m, x, CFG).execution


@pytest.fixture(scope="module")
def sptrsv_execution():
    low = unit_lower_from(uniform_random(400, 400, 0.02, seed=2), seed=3)
    b = np.random.default_rng(2).random(400)
    return run_sptrsv(low, b, CFG).execution


class TestSpmvTraces:
    def test_ab_trace_is_schedulable(self, spmv_execution):
        report = time_spmv(spmv_execution, CFG)
        assert report.cycles > 0
        assert report.commands > 0
        assert report.seconds == pytest.approx(report.cycles * 1e-9)

    def test_ab_uses_broadcast_commands(self, spmv_execution):
        trace = spmm_ab_trace(spmv_execution, CFG)
        kinds = {c.kind for c in expand_trace(trace)}
        assert CommandType.RD_AB in kinds
        assert CommandType.ACT_AB in kinds
        assert CommandType.MODE in kinds

    def test_pb_uses_single_bank_kernel_commands(self, spmv_execution):
        trace = spmm_pb_trace(spmv_execution, CFG)
        kinds = {c.kind for c in expand_trace(trace)}
        assert CommandType.RD in kinds
        assert CommandType.RD_AB not in kinds

    def test_pb_needs_more_commands_and_time(self, spmv_execution):
        ab = time_spmv(spmv_execution, CFG, mode="ab")
        pb = time_spmv(spmv_execution, CFG, mode="pb")
        assert pb.commands > 1.5 * ab.commands  # Fig. 3 direction
        assert pb.cycles > 2 * ab.cycles        # Fig. 8 per-bank gap

    def test_unknown_mode(self, spmv_execution):
        with pytest.raises(ExecutionError):
            time_spmv(spmv_execution, CFG, mode="warp")

    def test_host_cycles_tracked(self, spmv_execution):
        report = time_spmv(spmv_execution, CFG)
        assert 0 < report.host_cycles < report.cycles
        assert report.kernel_cycles == report.cycles - report.host_cycles

    def test_energy_populated(self, spmv_execution):
        report = time_spmv(spmv_execution, CFG, with_energy=True)
        assert report.energy is not None
        assert report.energy.total_joules > 0
        assert report.energy.alu_pj > 0
        assert report.energy.external_pj > 0  # staging traffic

    def test_pb_consumes_more_energy(self, spmv_execution):
        ab = time_spmv(spmv_execution, CFG, mode="ab", with_energy=True)
        pb = time_spmv(spmv_execution, CFG, mode="pb", with_energy=True)
        # longer schedule -> more background energy (Fig. 14 direction)
        assert pb.energy.total_joules > ab.energy.total_joules

    def test_trace_params_affect_cost(self, spmv_execution):
        fast = time_spmv(spmv_execution, CFG,
                         params=TraceParams(gather_locality=8.0))
        slow = time_spmv(spmv_execution, CFG,
                         params=TraceParams(gather_locality=1.0))
        assert slow.cycles > fast.cycles

    def test_compression_speeds_up_sparse_matrices(self):
        m = generate("p2p-Gnutella31", scale=0.2)
        x = RNG.random(m.shape[1])
        on = run_spmv(m, x, CFG, compress=True).execution
        off = run_spmv(m, x, CFG, compress=False).execution
        assert time_spmv(on, CFG).cycles < time_spmv(off, CFG).cycles


class TestSpTrsvTraces:
    def test_schedulable(self, sptrsv_execution):
        report = time_sptrsv(sptrsv_execution, CFG)
        assert report.cycles > 0

    def test_trace_contains_levels(self, sptrsv_execution):
        trace = sptrsv_ab_trace(sptrsv_execution, CFG)
        modes = sum(1 for c in expand_trace(trace)
                    if c.kind is CommandType.MODE)
        # three switches per level plus the update SpMVs' switches
        assert modes >= 3 * sptrsv_execution.num_levels

    def test_more_levels_cost_more(self):
        b = RNG.random(300)
        chain = unit_lower_from(uniform_random(300, 300, 0.05, seed=4),
                                seed=5)
        diag_only = unit_lower_from(uniform_random(300, 300, 0.0005,
                                                   seed=6), seed=7)
        dense_ex = run_sptrsv(chain, b, CFG).execution
        sparse_ex = run_sptrsv(diag_only, b, CFG).execution
        assert dense_ex.num_levels > sparse_ex.num_levels
        assert (time_sptrsv(dense_ex, CFG).cycles
                > time_sptrsv(sparse_ex, CFG).cycles)

    def test_ildu_pipeline_timing(self):
        m = generate("poisson3Da", scale=0.12)
        f = ildu(m)
        b = RNG.random(m.shape[0])
        result = run_sptrsv(f.lower, b, CFG)
        report = time_sptrsv(result.execution, CFG, with_energy=True)
        assert report.seconds > 0
        assert report.energy.total_joules > 0


class TestDenseKernelTiming:
    def test_ab_faster_than_pb(self):
        ab = time_dense_kernel(1 << 16, 2, 1, CFG, mode="ab")
        pb = time_dense_kernel(1 << 16, 2, 1, CFG, mode="pb")
        assert pb.cycles > 4 * ab.cycles  # Fig. 10: 9.6x average

    def test_scales_with_elements(self):
        small = time_dense_kernel(1 << 12, 2, 1, CFG)
        large = time_dense_kernel(1 << 18, 2, 1, CFG)
        assert large.cycles > 10 * small.cycles

    def test_int8_beats_fp64_per_element(self):
        n = 1 << 16
        t8 = time_dense_kernel(n, 2, 1, CFG, precision="int8")
        t64 = time_dense_kernel(n, 2, 1, CFG, precision="fp64")
        assert t8.cycles < t64.cycles

    def test_energy_accounting(self):
        report = time_dense_kernel(1 << 14, 2, 1, CFG, ops_per_element=1,
                                   with_energy=True)
        assert report.energy.alu_pj > 0
