"""Tests for repro.core.sptrsv — ILDU, levels, recursive blocks, solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_system
from repro.core import (ildu, level_schedule, recursive_plan,
                        reorder_by_levels, run_sptrsv,
                        solve_unit_triangular_reference)
from repro.errors import ExecutionError, MappingError, SolverError
from repro.formats import COOMatrix, generate
from repro.formats.generators import (make_spd, uniform_random,
                                      unit_lower_from, unit_upper_from)

CFG = default_system()
RNG = np.random.default_rng(0)


def lower_case(n=200, density=0.03, seed=1):
    base = uniform_random(n, n, density, seed=seed)
    return unit_lower_from(base, seed=seed + 1)


class TestReferenceSolve:
    def test_matches_numpy_lower(self):
        low = lower_case()
        b = RNG.random(200)
        np.testing.assert_allclose(
            solve_unit_triangular_reference(low, b, lower=True),
            np.linalg.solve(low.to_dense(), b))

    def test_matches_numpy_upper(self):
        up = unit_upper_from(uniform_random(150, 150, 0.04, seed=2), seed=3)
        b = RNG.random(150)
        np.testing.assert_allclose(
            solve_unit_triangular_reference(up, b, lower=False),
            np.linalg.solve(up.to_dense(), b))


class TestILDU:
    @pytest.fixture
    def spd(self):
        return make_spd(uniform_random(120, 120, 0.04, seed=4))

    def test_factor_shapes(self, spd):
        f = ildu(spd)
        assert f.lower.is_lower_triangular()
        assert f.upper.is_upper_triangular()
        np.testing.assert_allclose(f.lower.diagonal(), 1.0)
        np.testing.assert_allclose(f.upper.diagonal(), 1.0)
        assert np.all(np.isfinite(f.diag_inv))

    def test_pattern_preserved(self, spd):
        f = ildu(spd)
        # ILU(0): factor pattern is a subset of A's pattern (plus diagonal)
        a_keys = set(zip(spd.rows.tolist(), spd.cols.tolist()))
        for r, c, _ in f.lower.strictly_lower():
            assert (r, c) in a_keys
        for r, c, _ in f.upper.strictly_upper():
            assert (r, c) in a_keys

    def test_preconditioner_reduces_error(self, spd):
        x = RNG.random(120)
        b = spd.matvec(x)
        approx = ildu(spd).apply(b)
        raw = np.linalg.norm(b - x) / np.linalg.norm(x)
        pre = np.linalg.norm(approx - x) / np.linalg.norm(x)
        assert pre < raw

    def test_exact_on_triangular_product(self):
        # A = L D U exactly representable -> ILDU recovers a perfect
        # preconditioner on A's own pattern when no fill is dropped.
        low = lower_case(n=60, density=0.02, seed=5)
        diag = np.abs(RNG.random(60)) + 1.0
        dense = low.to_dense() @ np.diag(diag) @ low.to_dense().T
        spd_exact = COOMatrix.from_dense(dense)
        f = ildu(spd_exact)
        x = RNG.random(60)
        b = spd_exact.matvec(x)
        # not exact (pattern of A adds fill), but very strong
        assert np.linalg.norm(f.apply(b) - x) / np.linalg.norm(x) < 0.5

    def test_rejects_non_square(self):
        with pytest.raises(SolverError):
            ildu(uniform_random(4, 5, 0.5, seed=6))

    def test_rejects_zero_diagonal(self):
        m = COOMatrix((3, 3), [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(SolverError, match="diagonal"):
            ildu(m)


class TestLevels:
    def test_levels_partition_rows(self):
        low = lower_case()
        levels = level_schedule(low)
        flat = np.concatenate(levels)
        assert np.array_equal(np.sort(flat), np.arange(200))

    def test_level_independence(self):
        low = lower_case()
        dense = low.strictly_lower().to_dense()
        for level in level_schedule(low):
            members = set(level.tolist())
            for i in level:
                deps = np.nonzero(dense[i])[0]
                assert not members.intersection(deps.tolist())

    def test_diagonal_matrix_single_level(self):
        eye = COOMatrix.from_dense(np.eye(10))
        assert len(level_schedule(eye)) == 1

    def test_dense_chain_n_levels(self):
        n = 8
        chain = COOMatrix((n, n),
                          list(range(1, n)) + list(range(n)),
                          list(range(n - 1)) + list(range(n)),
                          [1.0] * (n - 1) + [1.0] * n)
        assert len(level_schedule(chain)) == n

    def test_upper_levels_match_flipped(self):
        low = lower_case(seed=7)
        up = low.transpose()
        lower_levels = level_schedule(low, lower=True)
        upper_levels = level_schedule(up, lower=False)
        assert len(lower_levels) == len(upper_levels)

    def test_reorder_preserves_triangularity_and_solution(self):
        low = lower_case(seed=8)
        b = RNG.random(200)
        perm, reordered = reorder_by_levels(low)
        assert reordered.is_lower_triangular()
        x_ref = solve_unit_triangular_reference(low, b)
        x_perm = solve_unit_triangular_reference(reordered, b[perm])
        unperm = np.empty_like(x_perm)
        unperm[perm] = x_perm
        np.testing.assert_allclose(unperm, x_ref)

    def test_reorder_reduces_or_keeps_levels_contiguous(self):
        low = lower_case(seed=9)
        _, reordered = reorder_by_levels(low)
        levels = level_schedule(reordered)
        # after reordering each level occupies a contiguous index range
        start = 0
        for level in levels:
            np.testing.assert_array_equal(
                np.sort(level), np.arange(start, start + level.size))
            start += level.size


class TestRecursivePlan:
    def test_leaf_only(self):
        plan = recursive_plan(10, leaf_size=16)
        assert len(plan) == 1
        assert plan[0].kind == "leaf"

    def test_structure(self):
        plan = recursive_plan(100, leaf_size=25)
        kinds = [s.kind for s in plan]
        assert kinds.count("update") == kinds.count("leaf") - 1
        # leaves tile [0, n) in order
        leaves = [s for s in plan if s.kind == "leaf"]
        assert leaves[0].row_range[0] == 0
        assert leaves[-1].row_range[1] == 100
        for a, b in zip(leaves, leaves[1:]):
            assert a.row_range[1] == b.row_range[0]

    def test_update_blocks_are_below_diagonal(self):
        for step in recursive_plan(200, leaf_size=30):
            if step.kind == "update":
                assert step.col_range[1] <= step.row_range[0]

    def test_bad_leaf(self):
        with pytest.raises(MappingError):
            recursive_plan(10, leaf_size=0)

    def test_empty(self):
        assert recursive_plan(0, leaf_size=4) == []


class TestRunSpTRSV:
    @pytest.mark.parametrize("reorder", [True, False])
    @pytest.mark.parametrize("leaf", [16, 64, 512])
    def test_lower_solve(self, reorder, leaf):
        low = lower_case(seed=10)
        b = RNG.random(200)
        result = run_sptrsv(low, b, CFG, reorder=reorder, leaf_size=leaf)
        np.testing.assert_allclose(result.x,
                                   np.linalg.solve(low.to_dense(), b),
                                   rtol=1e-9)

    def test_upper_solve(self):
        up = unit_upper_from(uniform_random(150, 150, 0.04, seed=11),
                             seed=12)
        b = RNG.random(150)
        result = run_sptrsv(up, b, CFG, lower=False)
        np.testing.assert_allclose(result.x,
                                   np.linalg.solve(up.to_dense(), b),
                                   rtol=1e-9)

    def test_functional_fidelity(self):
        low = lower_case(n=80, density=0.05, seed=13)
        b = RNG.random(80)
        result = run_sptrsv(low, b, CFG, fidelity="functional",
                            engine_banks=4, leaf_size=32)
        np.testing.assert_allclose(result.x,
                                   np.linalg.solve(low.to_dense(), b),
                                   rtol=1e-9)

    def test_execution_record(self):
        low = lower_case(seed=14)
        b = RNG.random(200)
        result = run_sptrsv(low, b, CFG, leaf_size=64)
        ex = result.execution
        assert ex.num_levels == len(ex.level_elements)
        assert sum(ex.level_elements) + sum(ex.update_elements) \
            == low.strictly_lower().nnz
        assert len(ex.update_execs) == len(ex.update_elements)

    def test_solve_via_ildu_pipeline(self):
        spd = make_spd(uniform_random(150, 150, 0.03, seed=15))
        f = ildu(spd)
        x = RNG.random(150)
        b = spd.matvec(x)
        y = run_sptrsv(f.lower, b, CFG, lower=True).x
        y = y * f.diag_inv
        z = run_sptrsv(f.upper, y, CFG, lower=False).x
        np.testing.assert_allclose(z, f.apply(b), rtol=1e-9)

    def test_bad_inputs(self):
        low = lower_case(seed=16)
        with pytest.raises(ExecutionError):
            run_sptrsv(low, np.ones(3), CFG)
        with pytest.raises(ExecutionError):
            run_sptrsv(low, np.ones(200), CFG, lower=False)
        up = low.transpose()
        with pytest.raises(ExecutionError):
            run_sptrsv(up, np.ones(200), CFG, lower=True)

    @given(st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_property_solve(self, seed):
        low = lower_case(n=90, density=0.05, seed=seed)
        b = np.random.default_rng(seed).random(90)
        result = run_sptrsv(low, b, CFG, leaf_size=32)
        residual = low.matvec(result.x) - b
        assert np.abs(residual).max() < 1e-8

    def test_suite_matrix_pipeline(self):
        m = generate("poisson3Da", scale=0.15)
        f = ildu(m)
        b = RNG.random(m.shape[0])
        x = run_sptrsv(f.lower, b, CFG).x
        np.testing.assert_allclose(
            x, solve_unit_triangular_reference(f.lower, b), rtol=1e-8)


class TestLevelShapeMemo:
    """The SpTRSV synthesiser builds each level kernel shape once per
    call; the ``sptrsv_ab`` golden pins the bytes it emits."""

    @staticmethod
    def _count_kernels(monkeypatch):
        from repro.core import trace
        calls = []
        real = trace._kernel_batches

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(trace, "_kernel_batches", counting)
        return trace, calls

    @staticmethod
    def _expected(execution):
        """One kernel per distinct non-zero level batch, plus one per
        update SpMV round."""
        levels = {b for b in execution.level_batches if b}
        rounds = sum(len(u.round_batches) for u in execution.update_execs)
        assert len(levels) < sum(1 for b in execution.level_batches if b)
        return len(levels) + rounds

    def test_once_per_distinct_batch(self, monkeypatch):
        execution = run_sptrsv(lower_case(400, 0.03, seed=5),
                               RNG.random(400), CFG).execution
        trace, calls = self._count_kernels(monkeypatch)
        trace.sptrsv_ab_segments(execution, CFG)
        assert len(calls) == self._expected(execution)
        calls.clear()  # per call, not per process: a second call rebuilds
        trace.sptrsv_ab_segments(execution, CFG)
        assert len(calls) == self._expected(execution)

    def test_once_per_distinct_batch_per_channel(self, monkeypatch):
        execution = run_sptrsv(lower_case(400, 0.03, seed=5),
                               RNG.random(400), CFG, channels=2).execution
        trace, calls = self._count_kernels(monkeypatch)
        trace.sptrsv_channels_segments(execution, CFG)
        assert len(calls) == sum(self._expected(sub)
                                 for sub in execution.channel_execs)
