"""The independent JEDEC protocol checker vs the scheduler and vs
hand-built illegal command streams.

Two directions: every schedule the repo's own scheduler produces must be
violation-free under the checker (the conformance direction), and
deliberately illegal timed streams must be reported with the command
index, bank and constraint that was breached (the detection direction).
"""

import numpy as np
import pytest

from repro.check import ProtocolChecker, check_timed, check_trace, summarize
from repro.config import default_system
from repro.core import (dense_stream_trace, run_spmv, run_sptrsv,
                        spmm_ab_trace, spmm_pb_trace, sptrsv_ab_trace)
from repro.dram import (Command, CommandType, MemoryController, RowVisit,
                        TimingParams, expand_trace)
from repro.errors import CheckError
from repro.formats import generate
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()
T = TimingParams()

ACT = CommandType.ACT
PRE = CommandType.PRE
RD = CommandType.RD
WR = CommandType.WR


def _assert_clean(trace, timing=TimingParams(), enable_refresh=True):
    """The scheduler's own schedule of *trace* passes the checker, and
    enabling validation does not change the schedule itself."""
    violations = check_trace(trace, timing=timing,
                             enable_refresh=enable_refresh)
    assert violations == [], summarize(violations)
    plain = MemoryController(timing=timing,
                             enable_refresh=enable_refresh).run(trace)
    checked = MemoryController(timing=timing,
                               enable_refresh=enable_refresh,
                               validate_protocol=True).run(trace)
    assert checked.total_cycles == plain.total_cycles
    assert checked.counts == plain.counts
    assert plain.violations == []


@pytest.fixture(scope="module")
def spmv_execution():
    m = generate("facebook", scale=0.1)
    x = np.random.default_rng(1).random(m.shape[1])
    return run_spmv(m, x, CFG).execution


class TestSchedulerConformance:
    """Every trace family the repo generates is protocol-clean."""

    def test_spmv_ab_trace(self, spmv_execution):
        _assert_clean(spmm_ab_trace(spmv_execution, CFG))

    def test_spmv_ab_trace_expanded(self, spmv_execution):
        trace = spmm_ab_trace(spmv_execution, CFG)
        _assert_clean(list(expand_trace(trace)))

    def test_spmv_pb_trace(self, spmv_execution):
        _assert_clean(spmm_pb_trace(spmv_execution, CFG))

    def test_sptrsv_trace(self):
        low = unit_lower_from(uniform_random(300, 300, 0.02, seed=2),
                              seed=3)
        b = np.random.default_rng(2).random(300)
        execution = run_sptrsv(low, b, CFG).execution
        _assert_clean(sptrsv_ab_trace(execution, CFG))

    @pytest.mark.parametrize("all_bank", [True, False])
    def test_dense_stream_trace(self, all_bank):
        _assert_clean(dense_stream_trace(1 << 12, 2, 1, "fp64",
                                         all_bank=all_bank))

    def test_deferred_refresh_is_checked_and_clean(self):
        # A stream long enough to cross tREFI: the scheduler inserts
        # refreshes that never appear in the input trace; the checker
        # must still see (and accept) them.
        count = 2 * T.trefi // T.tccd_l
        trace = [Command(CommandType.MODE),
                 RowVisit(True, 0, 0, 0, ((CommandType.RD_AB, count, 0,
                                           None),)),
                 RowVisit(True, 0, 0, 1, ((CommandType.WR_AB, 16, 0,
                                           None),))]
        result = MemoryController(validate_protocol=True).run(trace)
        assert result.refreshes > 0
        assert result.violations == []

    def test_idle_gap_across_inserted_refresh(self):
        # min_gap counts from the previous trace command. A refresh the
        # scheduler inserts inside the idle stretch is not one, so the
        # command after it may issue before refresh + min_gap.
        trace = [Command(CommandType.MODE),
                 Command(CommandType.MODE, min_gap=T.trefi + 100)]
        result = MemoryController(validate_protocol=True).run(trace)
        assert result.refreshes == 1
        assert result.violations == []

    def test_min_gap_still_checked_after_inserted_refresh(self):
        ref = Command(CommandType.REF)
        mode = Command(CommandType.MODE, min_gap=50)
        checker = ProtocolChecker(T)
        checker.observe(0, Command(CommandType.MODE))
        checker.observe(T.trefi, ref, inserted=True)
        assert checker.observe(T.trefi + 10, mode) == []
        late = checker.observe(T.trefi + 50, mode)
        assert [v.constraint for v in late] == ["min_gap"]

    def test_min_gap_throttled_runs(self):
        trace = [Command(CommandType.MODE),
                 Command(CommandType.ACT_AB, row=0),
                 *[Command(CommandType.RD_AB, row=0, min_gap=11)] * 20,
                 Command(CommandType.PRE_AB)]
        _assert_clean(trace)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_broadcast_traces(self, seed):
        rng = np.random.default_rng(seed)
        trace = [Command(CommandType.MODE)]
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
            trace += [cmd] * n
        trace.append(Command(CommandType.PRE_AB))
        _assert_clean(trace)

    def test_multi_channel_violations_tagged_by_channel(self):
        trace = []
        for ch in (0, 3):
            trace.append(Command(ACT, channel=ch, bank=0, row=1))
            trace.append(Command(RD, channel=ch, bank=0, row=1))
            trace.append(Command(PRE, channel=ch, bank=0))
        result = MemoryController(validate_protocol=True).run(trace)
        assert result.violations == []


class TestIllegalStreams:
    """Hand-built timed streams must be reported precisely."""

    def test_five_acts_inside_tfaw(self):
        # tFAW wide enough that four back-to-back legally-RRD-spaced
        # ACTs fill the window; the fifth lands inside it.
        timing = TimingParams(tfaw=30)
        banks = (0, 4, 8, 12, 1)  # distinct groups: only tRRD_S applies
        events = [(i * timing.trrd_s, Command(ACT, bank=b, row=0))
                  for i, b in enumerate(banks)]
        violations = check_timed(events, timing)
        assert [v.constraint for v in violations] == ["tFAW"]
        v = violations[0]
        assert v.index == 4
        assert v.bank == 1
        assert v.cycle == 4 * timing.trrd_s
        assert v.earliest_legal == 0 + timing.tfaw
        assert "tFAW" in str(v)

    def test_broadcast_act_exempt_from_tfaw(self):
        # All-bank ACTs are excluded from the four-activation window
        # (the model's documented relaxation); only single-bank ACTs
        # count toward it.
        timing = TimingParams(tfaw=30)
        events = [(0, Command(ACT, bank=0, row=0)),
                  (4, Command(ACT, bank=4, row=0)),
                  (8, Command(ACT, bank=8, row=0)),
                  (12, Command(ACT, bank=12, row=0))]
        events.append((70, Command(CommandType.MODE)))
        violations = check_timed(events, timing)
        assert violations == []

    def test_read_before_trcd(self):
        events = [(0, Command(ACT, bank=2, row=7)),
                  (T.trcd - 1, Command(RD, bank=2, row=7))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["tRCD"]
        assert violations[0].bank == 2
        assert violations[0].earliest_legal == T.trcd

    def test_column_to_closed_bank(self):
        violations = check_timed([(0, Command(RD, bank=5, row=3))])
        assert [v.constraint for v in violations] == ["bank-state"]
        assert "precharged" in violations[0].detail

    def test_column_to_wrong_row(self):
        events = [(0, Command(ACT, bank=1, row=3)),
                  (T.trcd, Command(RD, bank=1, row=9))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["bank-state"]
        assert "row 9" in violations[0].detail

    def test_act_before_trp(self):
        events = [(0, Command(ACT, bank=0, row=1)),
                  (T.tras, Command(PRE, bank=0)),
                  (T.tras + T.trp - 2, Command(ACT, bank=0, row=2))]
        violations = check_timed(events)
        constraints = {v.constraint for v in violations}
        assert "tRP" in constraints

    def test_premature_precharge_after_write(self):
        wr_cycle = T.trcd
        events = [(0, Command(ACT, bank=0, row=1)),
                  (wr_cycle, Command(WR, bank=0, row=1)),
                  (T.tras, Command(PRE, bank=0))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["tWR"]
        assert violations[0].earliest_legal == (
            wr_cycle + T.cwl + T.burst_cycles + T.twr)

    def test_read_to_precharge(self):
        events = [(0, Command(ACT, bank=0, row=1)),
                  (T.tras - 1, Command(RD, bank=0, row=1)),
                  (T.tras, Command(PRE, bank=0))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["tRTP"]

    def test_act_on_open_bank(self):
        events = [(0, Command(ACT, bank=0, row=1)),
                  (100, Command(ACT, bank=0, row=2))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["bank-state"]

    def test_row_bus_conflict(self):
        events = [(0, Command(ACT, bank=0, row=1)),
                  (0, Command(ACT, bank=8, row=1))]
        violations = check_timed(events)
        assert "row-bus" in {v.constraint for v in violations}

    def test_ccd_violation_on_broadcast_columns(self):
        events = [(0, Command(CommandType.MODE)),
                  (T.mode_switch_cycles,
                   Command(CommandType.ACT_AB, row=0)),
                  (100, Command(CommandType.RD_AB, row=0)),
                  (100 + T.tccd_l - 1, Command(CommandType.RD_AB, row=0))]
        violations = check_timed(events)
        assert [v.constraint for v in violations] == ["tCCD_L"]

    def test_turnaround_violation(self):
        base = 100
        events = [(0, Command(CommandType.MODE)),
                  (T.mode_switch_cycles,
                   Command(CommandType.ACT_AB, row=0)),
                  (base, Command(CommandType.RD_AB, row=0)),
                  (base + T.tccd_l, Command(CommandType.WR_AB, row=0))]
        violations = check_timed(events)
        constraints = {v.constraint for v in violations}
        assert "turnaround" in constraints or "rd->wr" in constraints

    def test_broadcast_without_mode_switch(self):
        violations = check_timed([(0, Command(CommandType.ACT_AB, row=0))])
        assert [v.constraint for v in violations] == ["mode-protocol"]

    def test_min_gap_violation(self):
        events = [(0, Command(ACT, bank=0, row=1)),
                  (5, Command(RD, bank=0, row=1, min_gap=20))]
        violations = check_timed(events)
        constraints = [v.constraint for v in violations]
        assert "min_gap" in constraints

    def test_out_of_order_stream(self):
        events = [(50, Command(ACT, bank=0, row=1)),
                  (10, Command(PRE, bank=4))]
        violations = check_timed(events)
        constraints = {v.constraint for v in violations}
        assert "in-order" in constraints

    def test_refresh_with_open_row(self):
        events = [(0, Command(ACT, bank=3, row=1)),
                  (200, Command(CommandType.REF))]
        violations = check_timed(events)
        assert any(v.constraint == "bank-state" and v.bank == 3
                   for v in violations)

    def test_pre_ab_with_no_open_banks(self):
        events = [(40, Command(CommandType.MODE)),
                  (100, Command(CommandType.PRE_AB))]
        violations = check_timed(events)
        assert any(v.constraint == "bank-state" for v in violations)

    def test_strict_mode_raises(self):
        checker = ProtocolChecker(TimingParams(), strict=True)
        with pytest.raises(CheckError, match="bank-state"):
            checker.observe(0, Command(RD, bank=0, row=0))

    def test_perturbed_legal_stream_detected(self):
        # A carefully legal hand-timed stream stays clean; nudging one
        # command a cycle earlier breaks exactly one constraint.
        row = 5
        events = [
            (0, Command(CommandType.MODE)),
            (40, Command(CommandType.ACT_AB, row=row)),
            (40 + T.trcd, Command(CommandType.RD_AB, row=row)),
            (40 + T.trcd + T.tccd_l, Command(CommandType.RD_AB, row=row)),
        ]
        assert check_timed(events) == []
        cycle, cmd = events[-1]
        bad = events[:-1] + [(cycle - 1, cmd)]
        violations = check_timed(bad)
        assert [v.constraint for v in violations] == ["tCCD_L"]

    def test_summarize_output(self):
        violations = check_timed([(0, Command(RD, bank=0, row=0))])
        text = summarize(violations)
        assert "1 protocol violation" in text
        assert "bank-state" in text
        assert summarize([]) == "protocol check passed: no violations"
