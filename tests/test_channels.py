"""Channel-sharded execution: differential pins and equivalence tests.

The channel scale-out PR must not disturb physics:

* ``channels=1`` is pinned bitwise against the pre-PR building blocks
  composed at single-channel geometry — same distribution rounds, same
  floating-point result, same synthesised trace, same scheduled cycles
  and energy. One channel of the sharded model IS the old model.
* Multi-channel runs must stay bitwise-equal between the fast tier's
  big lane array and the per-channel functional-engine tier, and (with
  exactly representable values) equal to accumulating each channel's
  shard solo — channels never interact mid-kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import check_trace
from repro.config import check_channels, default_system
from repro.core import (distribute, ildu, partition, plan_spmv, run_spmv,
                        run_sptrsv, shard_channels, spmm_ab_trace,
                        spmm_channels_trace, sptrsv_channels_trace,
                        time_spmv, time_sptrsv, ChannelAssignment,
                        TraceParams)
from repro.dram import MemoryController, TimingParams, expand_trace
from repro.errors import ConfigError, MappingError
from repro.formats import COOMatrix, generate
from tests.test_no_selection_knobs import CHANNELS_VAR


CONFIG = default_system()
BPC = CONFIG.memory.banks_per_channel


def random_coo(rng, n=120, density=0.04, integral=False):
    mask = rng.random((n, n)) < density
    rows, cols = np.nonzero(mask)
    if integral:
        vals = rng.integers(-8, 9, size=rows.size).astype(float)
    else:
        vals = rng.standard_normal(rows.size)
    keep = vals != 0
    return COOMatrix((n, n), rows[keep], cols[keep], vals[keep])


# ----------------------------------------------------------------------
class TestResolveChannels:
    """The width is an argument: :func:`check_channels` validates it and
    no environment variable supplies or overrides it."""

    def test_default_is_none(self):
        assert check_channels(None) is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHANNELS_VAR, "8")
        assert check_channels(4) == 4
        assert check_channels("4") == 4

    def test_env_is_not_a_fallback(self, monkeypatch):
        monkeypatch.setenv(CHANNELS_VAR, "16")
        assert check_channels(None) is None

    def test_blank_env_is_default(self, monkeypatch):
        monkeypatch.setenv(CHANNELS_VAR, "  ")
        assert check_channels(None) is None

    @pytest.mark.parametrize("bad", ["zero", "1.5", ""])
    def test_garbage_value_raises(self, bad):
        with pytest.raises(ConfigError, match="must be an integer"):
            check_channels(bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_raises(self, bad):
        with pytest.raises(ConfigError):
            check_channels(bad)

    def test_too_many_channels_for_platform(self):
        matrix = generate("facebook", scale=0.1)
        with pytest.raises(ConfigError):
            plan_spmv(matrix, CONFIG,
                      channels=CONFIG.memory.num_pseudo_channels + 1)


# ----------------------------------------------------------------------
class TestShardChannels:
    def setup_method(self):
        self.matrix = generate("poisson3Da", scale=0.05)
        self.plan = partition(self.matrix, CONFIG)

    def test_shard_shape_and_conservation(self):
        sharded = shard_channels(self.plan, 4, banks_per_channel=BPC)
        assert isinstance(sharded, ChannelAssignment)
        assert sharded.num_channels == 4
        assert len(sharded.shards) == 4
        assert sharded.num_banks == 4 * BPC
        assert sharded.total_elements == self.plan.total_nnz
        assert sharded.per_bank_elements().size == 4 * BPC

    def test_channel_loads_are_balanced(self):
        sharded = shard_channels(self.plan, 4, banks_per_channel=BPC)
        loads = [shard.total_elements for shard in sharded.shards]
        assert min(loads) > 0
        # LPT over tile nnz: no channel may exceed twice the ideal share.
        assert max(loads) < 2 * self.plan.total_nnz / 4

    def test_single_channel_matches_legacy_distribute(self):
        sharded = shard_channels(self.plan, 1, banks_per_channel=BPC)
        legacy = distribute(self.plan, BPC)
        shard = sharded.shards[0]
        assert shard.num_rounds == legacy.num_rounds
        for mine, theirs in zip(shard.rounds, legacy.rounds):
            for a, b in zip(mine, theirs):
                if a is None or b is None:
                    assert a is b
                    continue
                assert np.array_equal(a.rows, b.rows)
                assert np.array_equal(a.cols, b.cols)
                assert np.array_equal(a.vals, b.vals)

    def test_imbalance_metric(self):
        sharded = shard_channels(self.plan, 2, banks_per_channel=BPC)
        assert sharded.imbalance >= 1.0

    @pytest.mark.parametrize("channels,bpc", [(0, 16), (-1, 16), (2, 0)])
    def test_bad_geometry_raises(self, channels, bpc):
        with pytest.raises(MappingError):
            shard_channels(self.plan, channels, banks_per_channel=bpc)


# ----------------------------------------------------------------------
class TestSingleChannelBitwise:
    """channels=1 == the pre-PR pipeline at single-channel geometry."""

    def setup_method(self):
        self.matrix = generate("poisson3Da", scale=0.05)
        self.rng = np.random.default_rng(7)
        self.x = self.rng.random(self.matrix.shape[1])

    def test_result_bitwise_identical(self):
        plan = partition(self.matrix, CONFIG)
        legacy = distribute(plan, BPC)
        y_legacy = run_spmv(self.matrix, self.x, CONFIG, plan=plan,
                            assignment=legacy).y
        sharded = run_spmv(self.matrix, self.x, CONFIG, channels=1)
        assert np.array_equal(y_legacy, sharded.y)

    def test_trace_and_cycles_identical(self):
        _, _, execution = plan_spmv(self.matrix, CONFIG, channels=1)
        sub = execution.channel_execs[0]
        plan = partition(self.matrix, CONFIG)
        legacy = distribute(plan, BPC)
        assert sub.round_batches == [legacy.round_batch_elements(r)
                                     for r in range(legacy.num_rounds)]
        assert np.array_equal(sub.per_bank_elements,
                              legacy.per_bank_elements())
        sharded_trace = spmm_channels_trace(execution, CONFIG,
                                            TraceParams())
        legacy_trace = spmm_ab_trace(sub, CONFIG, TraceParams())
        assert sharded_trace == legacy_trace
        controller = MemoryController(timing=TimingParams())
        assert (controller.run(sharded_trace).total_cycles
                == controller.run(legacy_trace).total_cycles)

    def test_report_matches_controller_schedule(self):
        _, _, execution = plan_spmv(self.matrix, CONFIG, channels=1)
        trace = spmm_channels_trace(execution, CONFIG, TraceParams())
        report = time_spmv(execution, CONFIG, with_energy=True)
        raw = MemoryController(timing=TimingParams()).run(trace)
        assert report.cycles == raw.total_cycles
        assert report.commands == raw.command_total
        # Sharded energy is per-channel-exact: one cube, no channel
        # multiplier — the trace already is the whole modelled device.
        assert CONFIG.num_cubes == 1
        assert report.energy is not None and report.energy.total_pj > 0

    def test_sptrsv_single_channel_solution_bitwise(self):
        factors = ildu(self.matrix)
        b = self.rng.random(self.matrix.shape[0])
        legacy = run_sptrsv(factors.lower, b, CONFIG, lower=True)
        sharded = run_sptrsv(factors.lower, b, CONFIG, lower=True,
                             channels=1)
        assert np.array_equal(legacy.x, sharded.x)
        assert sharded.execution.num_channels == 1
        sub = sharded.execution.channel_execs[0]
        # Per-channel level accounting conserves the legacy totals.
        assert (sum(sub.level_elements)
                == sum(legacy.execution.level_elements))
        report = time_sptrsv(sharded.execution, CONFIG, with_energy=True)
        assert report.cycles > 0 and report.energy.total_pj > 0


# ----------------------------------------------------------------------
class TestMultiChannelEquivalence:
    """Randomized: fast lanes == functional engine == solo shard runs."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("channels", [2, 5, 16])
    def test_fast_matches_functional_oracle(self, seed, channels):
        # Integer-valued data makes fp64 accumulation exact, so the fast
        # tier's lane array must agree *bitwise* with the per-channel
        # functional engine; real-valued data agrees to rounding
        # (accumulation order differs), matching the legacy contract.
        rng = np.random.default_rng(seed)
        exact = random_coo(rng, n=60, density=0.05, integral=True)
        xi = rng.integers(-4, 5, size=exact.shape[1]).astype(float)
        fast = run_spmv(exact, xi, CONFIG, channels=channels)
        functional = run_spmv(exact, xi, CONFIG, channels=channels,
                              fidelity="functional")
        assert np.array_equal(fast.y, functional.y)
        assert np.array_equal(fast.y, exact.matvec(xi))

        matrix = random_coo(rng, n=60, density=0.05)
        x = rng.standard_normal(matrix.shape[1])
        fast = run_spmv(matrix, x, CONFIG, channels=channels)
        functional = run_spmv(matrix, x, CONFIG, channels=channels,
                              fidelity="functional")
        np.testing.assert_allclose(functional.y, fast.y, rtol=1e-10)
        assert np.allclose(fast.y, matrix.matvec(x))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("channels", [2, 4, 8])
    def test_multi_channel_equals_solo_shards(self, seed, channels):
        # Integer-valued data keeps fp64 accumulation exact, so the
        # channel-parallel result must equal running every shard alone
        # and summing — channels never interact mid-kernel.
        rng = np.random.default_rng(100 + seed)
        matrix = random_coo(rng, n=100, density=0.04, integral=True)
        x = rng.integers(-4, 5, size=matrix.shape[1]).astype(float)
        result = run_spmv(matrix, x, CONFIG, channels=channels)
        assert isinstance(result.assignment, ChannelAssignment)
        y_solo = np.zeros(matrix.shape[0])
        for shard in result.assignment.shards:
            y_solo += run_spmv(matrix, x, CONFIG, plan=result.plan,
                               assignment=shard).y
        assert np.array_equal(result.y, y_solo)

    @pytest.mark.parametrize("seed", range(3))
    def test_sptrsv_multi_channel_solution(self, seed):
        rng = np.random.default_rng(200 + seed)
        matrix = random_coo(rng, n=80, density=0.06)
        dense = np.abs(matrix.to_dense()) + np.eye(80) * 80.0
        rows, cols = np.nonzero(dense)
        spd = COOMatrix((80, 80), rows, cols, dense[rows, cols])
        factors = ildu(spd)
        b = rng.standard_normal(80)
        legacy = run_sptrsv(factors.lower, b, CONFIG, lower=True)
        for channels in (2, 16):
            sharded = run_sptrsv(factors.lower, b, CONFIG, lower=True,
                                 channels=channels)
            assert np.array_equal(legacy.x, sharded.x)


# ----------------------------------------------------------------------
class TestChannelTiming:
    def setup_method(self):
        self.matrix = generate("cant", scale=0.02)

    def test_commands_target_their_channels(self):
        _, _, execution = plan_spmv(self.matrix, CONFIG, channels=4,
                                    validate=False)
        trace = spmm_channels_trace(execution, CONFIG, TraceParams())
        seen = set()
        for entry in trace:
            command = getattr(entry, "command", entry)
            assert 0 <= command.channel < 4
            seen.add(command.channel)
        assert seen == {0, 1, 2, 3}

    def test_traces_are_protocol_clean(self):
        _, _, execution = plan_spmv(self.matrix, CONFIG, channels=4,
                                    validate=False)
        trace = spmm_channels_trace(execution, CONFIG, TraceParams())
        assert check_trace(trace) == []

    def test_more_channels_never_model_slower(self):
        cycles = {}
        for channels in (1, 4, 16):
            _, _, execution = plan_spmv(self.matrix, CONFIG,
                                        channels=channels, validate=False)
            cycles[channels] = time_spmv(execution, CONFIG).cycles
        assert cycles[16] <= cycles[4] <= cycles[1]

    def test_sptrsv_channels_price(self):
        factors = ildu(generate("poisson3Da", scale=0.05))
        b = np.random.default_rng(3).random(factors.lower.shape[0])
        solo = run_sptrsv(factors.lower, b, CONFIG, lower=True,
                          channels=1)
        wide = run_sptrsv(factors.lower, b, CONFIG, lower=True,
                          channels=16)
        trace = sptrsv_channels_trace(wide.execution, CONFIG,
                                      TraceParams())
        assert any(getattr(e, "command", e).channel == 15 for e in trace)
        assert (time_sptrsv(wide.execution, CONFIG).cycles
                <= time_sptrsv(solo.execution, CONFIG).cycles)


# ----------------------------------------------------------------------
class TestChannelsPlumbing:
    def test_env_var_changes_nothing(self, monkeypatch):
        monkeypatch.setenv(CHANNELS_VAR, "4")
        matrix = generate("facebook", scale=0.1)
        x = np.random.default_rng(0).random(matrix.shape[1])
        result = run_spmv(matrix, x, CONFIG)
        assert result.execution.num_channels is None
        assert result.execution.channel_execs == []

    def test_runtime_threads_channels(self):
        from repro.core import PSyncPIM
        pim = PSyncPIM(channels=2)
        matrix = generate("facebook", scale=0.1)
        x = np.random.default_rng(0).random(matrix.shape[1])
        result = pim.spmv(matrix, x)
        assert result.execution.num_channels == 2
        report = pim.time_spmv(result)
        assert report.cycles > 0

    def test_cli_accepts_channels(self, capsys):
        from repro.cli import main
        code = main(["spmv", "--matrix", "facebook", "--scale", "0.1",
                     "--channels", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SpMV on pSyncPIM" in out

    def test_sweep_job_label_and_key(self):
        from repro.sweep import SweepJob
        plain = SweepJob(kernel="spmv", matrix="facebook", scale=0.1)
        sharded = SweepJob(kernel="spmv", matrix="facebook", scale=0.1,
                           channels=4)
        assert sharded.resolved_label().endswith("4ch")
        assert "ch" not in plain.resolved_label()
        assert plain.resolved_label() != sharded.resolved_label()

    def test_sweep_executes_sharded_job(self, tmp_path):
        from repro.sweep import SweepJob, execute_job
        job = SweepJob(kernel="spmv", matrix="facebook", scale=0.1,
                       channels=2)
        record = execute_job(job, cache_dir=tmp_path)
        assert record.extras["channels"] == 2
        plain = execute_job(SweepJob(kernel="spmv", matrix="facebook",
                                     scale=0.1), cache_dir=tmp_path)
        assert "channels" not in plain.extras
        assert record.report.cycles != 0

    def test_sweep_cache_key_separates_channel_counts(self, tmp_path):
        from repro.sweep import SweepJob, execute_job
        two = execute_job(SweepJob(kernel="spmv", matrix="facebook",
                                   scale=0.1, channels=2),
                          cache_dir=tmp_path)
        one = execute_job(SweepJob(kernel="spmv", matrix="facebook",
                                   scale=0.1, channels=1),
                          cache_dir=tmp_path)
        assert two.report.cycles != one.report.cycles


# ----------------------------------------------------------------------
class TestChannelObs:
    def test_profile_of_channel_run(self):
        """A channel-sharded run's profile keeps the DRAM command mix
        of the whole schedule; device time per channel is attribution's
        to report, so no per-channel table or trace track remains."""
        from repro import obs
        from repro.obs.export import chrome_trace, metrics_dict
        from repro.obs.profile import render_profile
        matrix = generate("facebook", scale=0.1)
        _, _, execution = plan_spmv(matrix, CONFIG, channels=2,
                                    validate=False)
        obs.reset()
        obs.enable()
        try:
            report = time_spmv(execution, CONFIG)
            recorder = obs.recorder()
            metrics = metrics_dict(recorder)
            tracks = {e["name"] for e in chrome_trace(recorder)["traceEvents"]
                      if e["ph"] == "C"}
        finally:
            obs.reset()
            obs.disable()
        assert metrics["counters"]["dram.commands"] == report.commands
        assert tracks == {"dram.cycles"}
        text = render_profile(metrics)
        assert "DRAM command mix" in text
        assert "per-channel" not in text


class TestRepresentativeChannelLoads:
    """PB traces must chunk per-bank loads by the execution's channel
    width, not a hardcoded 16 (regression: non-default geometry)."""

    @staticmethod
    def _execution(loads, bpc):
        from repro.core import SpmvExecution
        return SpmvExecution(
            precision="fp64", num_banks=loads.size, round_batches=[4],
            per_bank_elements=loads, input_bytes=0, output_bytes=0,
            matrix_bytes=0, banks_used=loads.size, imbalance=1.0,
            policy="paper", compressed=True, round_x_lengths=[4],
            round_y_lengths=[4], banks_per_channel=bpc)

    def test_width_from_execution_record(self):
        from repro.core.trace import _representative_channel_loads
        loads = np.arange(32, dtype=np.int64)
        execution = self._execution(loads, bpc=8)
        # busiest 8-bank chunk is the last one, not a 16-bank window
        assert _representative_channel_loads(execution) \
            == [float(v) for v in loads[24:32]]

    def test_default_geometry_unchanged(self):
        from repro.core.trace import _representative_channel_loads
        loads = np.arange(32, dtype=np.int64)
        execution = self._execution(loads, bpc=16)
        assert _representative_channel_loads(execution) \
            == [float(v) for v in loads[16:32]]

    def test_explicit_banks_override(self):
        from repro.core.trace import _representative_channel_loads
        loads = np.arange(16, dtype=np.int64)
        execution = self._execution(loads, bpc=16)
        assert _representative_channel_loads(execution, banks=4) \
            == [float(v) for v in loads[12:16]]

    def test_pb_trace_arms_at_most_width_banks(self):
        from repro.core import spmm_pb_trace
        loads = np.arange(1, 25, dtype=np.int64)
        execution = self._execution(loads, bpc=8)
        trace = spmm_pb_trace(execution, CONFIG)
        kernel_banks = {entry.bank for entry in expand_trace(trace)
                        if entry.bank is not None}
        assert kernel_banks and max(kernel_banks) < 8

    def test_plan_spmv_stamps_platform_width(self):
        matrix = generate("facebook", scale=0.1)
        _, _, execution = plan_spmv(matrix, CONFIG, validate=False)
        assert execution.banks_per_channel \
            == CONFIG.memory.banks_per_channel
