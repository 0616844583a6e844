"""Direct edge-case tests for repro.pim.alu.

All VALU arithmetic runs in float64 regardless of the Value format
(DESIGN.md), so the interesting edges are IEEE-754 ones: overflow to
infinity, NaN generation and propagation, and the places where the
Reduce fold's Python ``min``/``max`` deliberately differ from numpy's
NaN-propagating elementwise forms. These pins keep the semantics the
lane-vs-reference fuzzer relies on from drifting silently.
"""

import math

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.isa import BinaryOp
from repro.pim import alu

REDUCIBLE = [BinaryOp.ADD, BinaryOp.MUL, BinaryOp.MIN, BinaryOp.MAX,
             BinaryOp.LAND, BinaryOp.LOR]


class TestOverflow:
    def test_mul_overflows_to_inf(self):
        assert alu.apply(BinaryOp.MUL, 1e308, 1e308) == math.inf
        assert alu.apply(BinaryOp.MUL, -1e308, 1e308) == -math.inf

    def test_array_add_overflows_to_inf(self):
        with np.errstate(over="ignore"):
            out = alu.apply(BinaryOp.ADD, np.array([1e308, 1.0]),
                            np.array([1e308, 2.0]))
        assert out[0] == math.inf and out[1] == 3.0

    def test_inf_minus_inf_is_nan(self):
        with np.errstate(invalid="ignore"):
            assert math.isnan(alu.apply(BinaryOp.SUB, math.inf, math.inf))

    def test_reduce_mul_overflow_chains_to_inf(self):
        with np.errstate(over="ignore"):
            result = alu.reduce_array(BinaryOp.MUL,
                                      np.array([1e200, 1e200]), 1.0)
        assert result == math.inf

    def test_subnormal_underflow_to_zero(self):
        tiny = 5e-324   # smallest subnormal
        assert alu.apply(BinaryOp.MUL, tiny, 0.5) == 0.0


class TestNaN:
    def test_elementwise_min_max_propagate_nan(self):
        # numpy's minimum/maximum propagate NaN from either operand
        assert math.isnan(alu.apply(BinaryOp.MIN, math.nan, 3.0))
        assert math.isnan(alu.apply(BinaryOp.MIN, 3.0, math.nan))
        assert math.isnan(alu.apply(BinaryOp.MAX, math.nan, 3.0))

    def test_reduce_min_max_swallow_nan(self):
        """The Reduce fold uses Python min/max over np.min/np.max of the
        block, so a NaN inside the block wins np.min but then loses the
        comparison against the seed — the seed survives. Pinned: the
        fuzzer's reference interpreter transcribes exactly this."""
        values = np.array([math.nan, 2.0])
        assert alu.reduce_array(BinaryOp.MIN, values, 5.0) == 5.0
        assert alu.reduce_array(BinaryOp.MAX, values, 5.0) == 5.0

    def test_nan_is_truthy_for_logical_ops(self):
        assert alu.apply(BinaryOp.LAND, math.nan, 1.0) == 1.0
        assert alu.apply(BinaryOp.LOR, math.nan, 0.0) == 1.0


class TestBroadcastingAndShapes:
    def test_first_broadcasts_scalar_to_array_shape(self):
        out = alu.apply(BinaryOp.FIRST, 2.5, np.array([1.0, 2.0, 3.0]))
        assert out.shape == (3,)
        assert np.array_equal(out, [2.5, 2.5, 2.5])

    def test_first_with_scalar_b_stays_scalar(self):
        assert alu.apply(BinaryOp.FIRST, 2.5, 7.0) == 2.5

    def test_second_returns_b_unchanged(self):
        b = np.array([1.0, -0.0, math.inf])
        assert alu.apply(BinaryOp.SECOND, 99.0, b) is b

    def test_logical_ops_coerce_to_float(self):
        out = alu.apply(BinaryOp.LAND, np.array([0.5, 0.0, 2.0]), 1.0)
        assert out.dtype == np.float64
        assert np.array_equal(out, [1.0, 0.0, 1.0])


class TestReduceFold:
    def test_empty_block_returns_seed(self):
        for op in REDUCIBLE:
            assert alu.reduce_array(op, np.array([]), 7.5) == 7.5

    @pytest.mark.parametrize("op", REDUCIBLE)
    def test_identity_seed_is_neutral(self, op):
        values = np.array([1.0, 0.0, 1.0])
        seeded = alu.reduce_array(op, values, alu.identity(op))
        twice = alu.reduce_array(op, values, seeded) \
            if op in (BinaryOp.MIN, BinaryOp.MAX, BinaryOp.LAND,
                      BinaryOp.LOR) else None
        if twice is not None:   # idempotent ops: folding again is stable
            assert twice == seeded
        assert seeded == alu.reduce_array(op, values, alu.identity(op))

    def test_add_reduce_matches_numpy_sum(self):
        values = np.array([1e16, 1.0, -1e16])
        assert alu.reduce_array(BinaryOp.ADD, values, 0.0) \
            == float(np.sum(values))

    def test_logical_reduce_collapses_to_zero_or_one(self):
        assert alu.reduce_array(BinaryOp.LOR, np.array([0.0, 0.0]), 0.0) \
            == 0.0
        assert alu.reduce_array(BinaryOp.LOR, np.array([0.0, 0.5]), 0.0) \
            == 1.0
        assert alu.reduce_array(BinaryOp.LAND, np.array([1.0, 0.0]), 1.0) \
            == 0.0

    @pytest.mark.parametrize("op", [BinaryOp.SUB, BinaryOp.FIRST,
                                    BinaryOp.SECOND])
    def test_non_reducible_ops_rejected(self, op):
        with pytest.raises(ExecutionError):
            alu.reduce_array(op, np.array([1.0]), 0.0)
        with pytest.raises(ExecutionError):
            alu.identity(op)


class TestIdentityElements:
    @pytest.mark.parametrize("op", REDUCIBLE)
    def test_identity_is_left_neutral(self, op):
        for x in (0.0, 1.0, -3.5, 0.25):
            result = alu.apply(op, alu.identity(op), x)
            if op in (BinaryOp.LAND, BinaryOp.LOR):
                # logical ops collapse to 0/1, neutral up to truthiness
                assert bool(result) == bool(x)
            else:
                assert result == x

    def test_min_max_identities_are_infinite(self):
        assert alu.identity(BinaryOp.MIN) == math.inf
        assert alu.identity(BinaryOp.MAX) == -math.inf
