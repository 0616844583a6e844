"""Tests for repro.core.spmm — the multi-rhs SpMM runtime.

The load-bearing pins: column ``j`` of an SpMM is bitwise the SpMV of
``X[:, j]`` under the same plan, for every semiring, with a ``y0``, on
both tiers and both execution models; ``k = 1`` is *bitwise* SpMV (results
and rounds; traces and cycles are pinned by
``tests/test_spmv_slice_digests.py``), and the modelled cycles-per-rhs
strictly fall as the block widens (the amortisation the workload tier
exists to show).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import oracles
from repro.config import default_system
from repro.core import (SpmvExecution, as_spmm_execution, plan_spmm,
                        run_spmm, run_spmv, time_spmm)
from repro.core.spmv import _ACCUM_UFUNC, _MULT_FUNC
from repro.errors import ConfigError, ExecutionError
from repro.formats import generate
from repro.formats.generators import (power_law_graph, stencil_2d,
                                      uniform_random)

CFG = default_system()
RNG = np.random.default_rng(0)


#: Every (accumulate, multiply) pair the fast and functional tiers run.
SEMIRINGS = [(acc, mul) for acc in _ACCUM_UFUNC for mul in _MULT_FUNC]

#: The bitwise pins run every semiring on both execution models at one
#: and at three columns.
PIN_CASES = [(acc, mul, channels, k) for acc, mul in SEMIRINGS
             for channels in (None, 4) for k in (1, 3)]


def dense_oracle(m, x):
    return np.column_stack([m.matvec(x[:, j])
                            for j in range(x.shape[1])])


def assert_columns_bitwise_spmv(m, **kwargs):
    """For every :data:`PIN_CASES` entry, column j of an SpMM with a
    ``y0`` block is bitwise the SpMV of ``X[:, j]`` seeded with
    ``Y0[:, j]``; *kwargs* (the tier) apply to every run."""
    for accumulate, multiply, channels, k in PIN_CASES:
        case = dict(accumulate=accumulate, multiply=multiply,
                    channels=channels, **kwargs)
        rng = np.random.default_rng(k)
        x = rng.random((m.shape[1], k))
        y0 = rng.random((m.shape[0], k))
        block = run_spmm(m, x, CFG, y0=y0, **case)
        assert block.y.shape == (m.shape[0], k)
        for j in range(k):
            solo = run_spmv(m, x[:, j], CFG, y0=y0[:, j], **case)
            np.testing.assert_array_equal(block.y[:, j], solo.y,
                                          err_msg=f"{case} k={k} j={j}")


class TestFastTier:
    @pytest.mark.parametrize("name,scale,k", [("facebook", 0.2, 3),
                                              ("poisson3Da", 0.3, 4),
                                              ("cant", 0.02, 2)])
    def test_matches_reference(self, name, scale, k):
        m = generate(name, scale=scale)
        x = RNG.random((m.shape[1], k))
        result = run_spmm(m, x, CFG)
        np.testing.assert_allclose(result.y, dense_oracle(m, x),
                                   rtol=1e-10)

    def test_columns_bitwise_spmv(self):
        """Column j of the block is bitwise run_spmv of X[:, j]."""
        m = uniform_random(120, 120, 0.05, seed=1)
        x = RNG.random((120, 5))
        block = run_spmm(m, x, CFG)
        for j in range(5):
            solo = run_spmv(m, x[:, j], CFG)
            np.testing.assert_array_equal(block.y[:, j], solo.y)
        assert_columns_bitwise_spmv(m)

    @pytest.mark.parametrize("strategy", ["paper", "nnz-rows", "2d-grid",
                                          "nnz-2d"])
    def test_strategies_same_answer(self, strategy):
        m = power_law_graph(600, 5, seed=2)
        x = RNG.random((600, 3))
        result = run_spmm(m, x, CFG, strategy=strategy)
        np.testing.assert_allclose(result.y, dense_oracle(m, x),
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("channels", [1, 4, 16])
    def test_channel_sharded(self, channels):
        m = uniform_random(200, 200, 0.04, seed=3)
        x = RNG.random((200, 4))
        result = run_spmm(m, x, CFG, channels=channels)
        np.testing.assert_allclose(result.y, dense_oracle(m, x),
                                   rtol=1e-10)
        assert result.execution.num_channels == channels
        for sub in result.execution.channel_execs:
            assert sub.num_rhs == 4

    def test_rectangular(self):
        m = uniform_random(150, 400, density=0.02, seed=4)
        x = RNG.random((400, 3))
        np.testing.assert_allclose(run_spmm(m, x, CFG).y,
                                   dense_oracle(m, x), rtol=1e-10)

    def test_pathological_shapes(self):
        # dense row, empty rows, single effective column
        rows = np.concatenate([np.zeros(30, dtype=np.int64),
                               np.arange(5, dtype=np.int64) * 7])
        cols = np.concatenate([np.arange(30, dtype=np.int64),
                               np.full(5, 31, dtype=np.int64)])
        vals = RNG.standard_normal(35)
        from repro.formats import COOMatrix
        m = COOMatrix((40, 40), rows, cols, vals)
        x = RNG.random((40, 4))
        np.testing.assert_allclose(run_spmm(m, x, CFG).y,
                                   dense_oracle(m, x), rtol=1e-10)

    def test_vector_input_is_one_column(self):
        m = uniform_random(80, 80, 0.06, seed=5)
        x = RNG.random(80)
        result = run_spmm(m, x, CFG)
        assert result.y.shape == (80, 1)
        assert result.execution.num_rhs == 1

    def test_y0_and_semiring(self):
        m = uniform_random(90, 90, 0.05, seed=6)
        x = RNG.random((90, 3))
        y0 = RNG.random((90, 3))
        result = run_spmm(m, x, CFG, y0=y0, accumulate="sub")
        np.testing.assert_allclose(result.y, y0 - dense_oracle(m, x),
                                   rtol=1e-10)
        # 1-D y0 broadcasts across the block
        vec0 = RNG.random(90)
        broad = run_spmm(m, x, CFG, y0=vec0)
        np.testing.assert_allclose(
            broad.y, vec0[:, None] + dense_oracle(m, x), rtol=1e-10)

    def test_bad_arguments(self):
        m = uniform_random(10, 10, 0.2, seed=7)
        with pytest.raises(ExecutionError):
            run_spmm(m, np.ones((5, 2)), CFG)
        with pytest.raises(ExecutionError):
            run_spmm(m, np.ones((10, 2)), CFG, fidelity="quantum")
        with pytest.raises(ExecutionError):
            run_spmm(m, np.ones((10, 2)), CFG,
                     y0=np.ones((10, 3)))


class TestFunctionalTier:
    def test_matches_fast(self):
        m = generate("facebook", scale=0.04)
        x = RNG.random((m.shape[1], 3))
        fast = run_spmm(m, x, CFG, fidelity="fast")
        func = run_spmm(m, x, CFG, fidelity="functional", engine_banks=4)
        np.testing.assert_allclose(func.y, fast.y, rtol=1e-10)

    def test_columns_bitwise_functional_spmv(self):
        """Functional column j is bitwise the functional SpMV."""
        m = uniform_random(90, 90, 0.05, seed=8)
        assert_columns_bitwise_spmv(m, fidelity="functional",
                                    engine_banks=4)

    def test_lane_equals_scalar_engine(self, monkeypatch):
        """Lane engine vs the bank-at-a-time reference interpreter."""
        m = uniform_random(80, 80, 0.06, seed=9)
        x = RNG.random((80, 2))
        lane = run_spmm(m, x, CFG, fidelity="functional",
                        engine_banks=4)
        oracles.use_reference_engine(monkeypatch.setattr)
        reference = run_spmm(m, x, CFG, fidelity="functional",
                             engine_banks=4)
        np.testing.assert_array_equal(lane.y, reference.y)

    def test_functional_stencil(self):
        m = stencil_2d(10)
        x = RNG.random((100, 2))
        result = run_spmm(m, x, CFG, fidelity="functional",
                          engine_banks=8)
        np.testing.assert_allclose(result.y, dense_oracle(m, x),
                                   rtol=1e-10)

    @given(st.integers(0, 25), st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_property_functional_equals_reference(self, seed, k):
        m = uniform_random(70, 70, 0.05, seed=seed)
        x = np.random.default_rng(seed).random((70, k))
        result = run_spmm(m, x, CFG, fidelity="functional",
                          engine_banks=4)
        np.testing.assert_allclose(result.y, dense_oracle(m, x),
                                   rtol=1e-9, atol=1e-12)


class TestOneRhsBitwiseSpmv:
    """The k = 1 contract: SpMM *is* SpMV — results and execution record.

    Traces and cycles need no comparison here: there is one synthesiser,
    and ``tests/test_spmv_slice_digests.py`` pins its k = 1 output to the
    digests the separate SpMV synthesisers produced.
    """

    def setup_method(self):
        self.m = generate("poisson3Da", scale=0.1)
        self.x = np.random.default_rng(11).random(self.m.shape[1])
        self.spmm = run_spmm(self.m, self.x, CFG)
        self.spmv = run_spmv(self.m, self.x, CFG)

    def test_results_bitwise(self):
        np.testing.assert_array_equal(self.spmm.y[:, 0], self.spmv.y)
        # every semiring, with a 1-D y0 (broadcast over the one column)
        y0 = np.random.default_rng(12).random(self.m.shape[0])
        for accumulate, multiply in SEMIRINGS:
            kwargs = dict(y0=y0, accumulate=accumulate, multiply=multiply)
            spmm = run_spmm(self.m, self.x, CFG, **kwargs)
            spmv = run_spmv(self.m, self.x, CFG, **kwargs)
            np.testing.assert_array_equal(spmm.y[:, 0], spmv.y,
                                          err_msg=str(kwargs))

    def test_execution_record_matches(self):
        a, b = self.spmm.execution, self.spmv.execution
        assert a.num_rhs == 1
        assert a.num_rounds == b.num_rounds
        assert a.round_batches == b.round_batches
        assert a.round_x_lengths == b.round_x_lengths
        assert a.round_y_lengths == b.round_y_lengths
        assert a.lockstep_elements == b.lockstep_elements


class TestAmortisation:
    def test_cycles_per_rhs_strictly_decreasing(self):
        m = generate("poisson3Da", scale=0.1)
        plan = assignment = None
        per_rhs = []
        for k in (1, 2, 4, 8, 16):
            x = np.random.default_rng(13).random((m.shape[1], k))
            result = run_spmm(m, x, CFG, plan=plan,
                              assignment=assignment)
            plan, assignment = result.plan, result.assignment
            report = time_spmm(result.execution, CFG)
            per_rhs.append(report.cycles / k)
        assert all(a > b for a, b in zip(per_rhs, per_rhs[1:])), per_rhs

    def test_pb_mode_amortises_too(self):
        m = uniform_random(200, 200, 0.04, seed=14)
        cycles = {}
        for k in (1, 8):
            x = np.random.default_rng(15).random((200, k))
            ex = run_spmm(m, x, CFG).execution
            cycles[k] = time_spmm(ex, CFG, mode="pb").cycles
        assert cycles[8] / 8 < cycles[1]

    def test_wider_block_never_cheaper_total(self):
        m = uniform_random(150, 150, 0.05, seed=16)
        ex1 = as_spmm_execution(
            run_spmv(m, RNG.random(150), CFG).execution, 1)
        ex4 = as_spmm_execution(ex1, 4)
        assert (time_spmm(ex4, CFG).cycles
                > time_spmm(ex1, CFG).cycles)


class TestPlanAndRecord:
    def test_plan_spmm_takes_an_explicit_width(self):
        m = uniform_random(60, 60, 0.08, seed=17)
        assert plan_spmm(m, CFG)[2].num_rhs == 1
        assert plan_spmm(m, CFG, num_rhs=6)[2].num_rhs == 6
        for bad in (0, -2, "zero", 2.5, None):
            with pytest.raises(ConfigError):
                plan_spmm(m, CFG, num_rhs=bad)

    def test_plan_reuse_with_spmv(self):
        """SpMV plans inject into SpMM verbatim (shared layout)."""
        m = uniform_random(100, 100, 0.05, seed=18)
        x = RNG.random((100, 3))
        spmv = run_spmv(m, x[:, 0], CFG)
        reused = run_spmm(m, x, CFG, plan=spmv.plan,
                          assignment=spmv.assignment)
        np.testing.assert_allclose(reused.y, dense_oracle(m, x),
                                   rtol=1e-10)
        assert reused.plan is spmv.plan

    def test_as_spmm_execution_idempotent(self):
        m = uniform_random(60, 60, 0.08, seed=19)
        ex = run_spmm(m, RNG.random((60, 3)), CFG).execution
        assert as_spmm_execution(ex, 3) is ex
        widened = as_spmm_execution(ex, 7)
        assert isinstance(widened, SpmvExecution)
        assert widened.num_rhs == 7
        assert widened.round_batches == ex.round_batches
        assert ex.num_rhs == 3
