"""Differential suite for the partitioning strategy library.

Every strategy must produce plans that pass the planner's own invariant
check, compute exactly A @ x (functional path vs the scipy oracle and
the scalar-planner paper path), and respect the one-memory-row tile
capacity — across randomized and pathological matrices. The ``"paper"``
strategy is pinned byte-identical to the pre-registry planner, and the
auto-tuner must be deterministic and cache-stable.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from repro.check import oracles
from repro.config import STRATEGY_CHOICES, check_strategy, default_system
from repro.core import (PSyncPIM, make_strategy, partition, plan_spmv,
                        run_spmv, run_sptrsv, strategy_names,
                        tile_capacity, tune_strategy)
from repro.core.partition import _check_plan
from repro.core.strategies import AutoStrategy, estimate_cycles
from repro.errors import ConfigError
from repro.formats import COOMatrix, generate
from repro.sweep import ArtifactCache, SweepJob
from tests.test_no_selection_knobs import STRATEGY_VAR

CONFIG = default_system()
CONCRETE = tuple(strategy_names())


def random_coo(rng, nrows, ncols, density=0.03):
    mask = rng.random((nrows, ncols)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal(rows.size)
    return COOMatrix((nrows, ncols), rows.astype(np.int64),
                     cols.astype(np.int64), vals)


def from_dense(dense):
    rows, cols = np.nonzero(dense)
    return COOMatrix(dense.shape, rows.astype(np.int64),
                     cols.astype(np.int64),
                     np.asarray(dense)[rows, cols].astype(np.float64))


def pathological_matrices():
    """Shapes that historically break tiling code."""
    rng = np.random.default_rng(7)
    out = {}
    # empty rows: only every 5th row is populated
    dense = np.zeros((150, 200))
    dense[::5, :] = (rng.random((30, 200)) < 0.2) * rng.standard_normal(
        (30, 200))
    out["empty-rows"] = from_dense(dense)
    # one dense column dominating an otherwise sparse matrix
    dense = (rng.random((200, 180)) < 0.005) * rng.standard_normal(
        (200, 180))
    dense[:, 11] = rng.standard_normal(200)
    out["dense-column"] = from_dense(dense)
    # single row / single column
    out["single-row"] = random_coo(rng, 1, 500, density=0.4)
    out["single-col"] = random_coo(rng, 400, 1, density=0.4)
    # wide and tall aspect ratios spanning several tiles
    out["wide"] = random_coo(rng, 40, 900, density=0.05)
    out["tall"] = random_coo(rng, 900, 40, density=0.05)
    return out


PATHOLOGICAL = pathological_matrices()


def scipy_spmv(matrix, x):
    return sp.coo_matrix((matrix.vals, (matrix.rows, matrix.cols)),
                         shape=matrix.shape).tocsr() @ x


class TestResolveStrategy:
    """The strategy is an argument: :func:`check_strategy` validates it
    and no environment variable supplies or overrides it."""

    def test_default_is_paper(self):
        for fn in (plan_spmv, run_spmv, run_sptrsv, make_strategy,
                   PSyncPIM, SweepJob):
            assert inspect.signature(fn).parameters["strategy"].default \
                == "paper", fn

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(STRATEGY_VAR, "nnz-rows")
        assert check_strategy("2d-grid") == "2d-grid"

    def test_env_is_not_a_fallback(self, monkeypatch):
        monkeypatch.setenv(STRATEGY_VAR, "nnz-2d")
        assert make_strategy() is make_strategy("paper")
        assert SweepJob().strategy == "paper"

    def test_case_and_whitespace_normalised(self):
        assert check_strategy("  Auto ") == "auto"
        assert SweepJob(strategy="  Auto ").strategy == "auto"

    def test_unknown_raises(self):
        for bad in ("zigzag", None):
            with pytest.raises(ConfigError):
                check_strategy(bad)
            with pytest.raises(ConfigError):
                SweepJob(strategy=bad)

    def test_registry_matches_choices(self):
        assert set(CONCRETE) | {"auto"} == set(STRATEGY_CHOICES)
        assert CONCRETE[0] == "paper"

    def test_make_strategy_auto_facade(self):
        assert isinstance(make_strategy("auto"), AutoStrategy)


class TestPlanInvariants:
    """Every strategy, every matrix: valid plans within tile capacity."""

    @pytest.mark.parametrize("strategy", CONCRETE)
    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_plans_check(self, strategy, compress, seed):
        rng = np.random.default_rng(seed)
        matrix = random_coo(rng, 200 + 40 * seed, 260 - 30 * seed,
                            density=0.02 + 0.01 * seed)
        plan = make_strategy(strategy).partition(matrix, CONFIG,
                                                 compress=compress)
        _check_plan(plan, matrix)
        self._check_capacity(plan)

    @pytest.mark.parametrize("strategy", CONCRETE)
    @pytest.mark.parametrize("name", sorted(PATHOLOGICAL))
    def test_pathological_plans_check(self, strategy, name):
        matrix = PATHOLOGICAL[name]
        for compress in (True, False):
            plan = make_strategy(strategy).partition(matrix, CONFIG,
                                                     compress=compress)
            _check_plan(plan, matrix)
            self._check_capacity(plan)

    @staticmethod
    def _check_capacity(plan):
        cap = tile_capacity(default_system(), "fp64")
        for tile in plan.tiles:
            lo, hi = tile.row_range
            assert 0 < hi - lo <= cap
            assert tile.x_length <= cap
            tile.validate()

    @pytest.mark.parametrize("strategy", CONCRETE)
    def test_empty_matrix(self, strategy):
        matrix = COOMatrix((64, 64), np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64),
                           np.array([], dtype=np.float64))
        plan = make_strategy(strategy).partition(matrix, CONFIG)
        assert plan.tiles == []


class TestFunctionalDifferential:
    """Strategy results vs scipy and vs the scalar-planner paper path."""

    @pytest.mark.parametrize("strategy", CONCRETE)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_spmv_matches_scipy(self, strategy, seed):
        rng = np.random.default_rng(seed)
        matrix = random_coo(rng, 230, 190, density=0.03)
        x = rng.standard_normal(190)
        got = run_spmv(matrix, x, CONFIG, strategy=strategy).y
        assert np.allclose(got, scipy_spmv(matrix, x))

    @pytest.mark.parametrize("strategy", CONCRETE)
    @pytest.mark.parametrize("name", sorted(PATHOLOGICAL))
    def test_spmv_pathological_matches_scipy(self, strategy, name):
        matrix = PATHOLOGICAL[name]
        rng = np.random.default_rng(11)
        x = rng.standard_normal(matrix.shape[1])
        got = run_spmv(matrix, x, CONFIG, strategy=strategy).y
        assert np.allclose(got, scipy_spmv(matrix, x))

    @pytest.mark.parametrize("strategy", CONCRETE)
    def test_spmv_matches_scalar_planner_paper(self, strategy):
        rng = np.random.default_rng(5)
        matrix = random_coo(rng, 260, 260, density=0.025)
        x = rng.standard_normal(260)
        with pytest.MonkeyPatch.context() as mp:
            oracles.use_scalar_planner(mp.setattr)
            oracle = run_spmv(matrix, x, CONFIG).y
        got = run_spmv(matrix, x, CONFIG, strategy=strategy).y
        assert np.allclose(got, oracle)

    @pytest.mark.parametrize("strategy", CONCRETE)
    def test_sptrsv_matches_scipy(self, strategy):
        rng = np.random.default_rng(9)
        n = 180
        dense = (rng.random((n, n)) < 0.03) * rng.standard_normal((n, n))
        dense = np.tril(dense, k=-1) + np.eye(n)
        tri = from_dense(dense)
        b = rng.standard_normal(n)
        got = run_sptrsv(tri, b, CONFIG, strategy=strategy).x
        want = sp.linalg.spsolve_triangular(
            sp.csr_matrix(dense), b, lower=True, unit_diagonal=True)
        assert np.allclose(got, want)

    @pytest.mark.parametrize("strategy", ["nnz-rows", "2d-grid", "nnz-2d"])
    def test_functional_fidelity_matches_fast(self, strategy):
        rng = np.random.default_rng(13)
        matrix = random_coo(rng, 90, 90, density=0.05)
        x = rng.standard_normal(90)
        fast = run_spmv(matrix, x, CONFIG, strategy=strategy).y
        functional = run_spmv(matrix, x, CONFIG, strategy=strategy,
                              fidelity="functional", engine_banks=4).y
        assert np.allclose(fast, functional)


class TestPaperBitwisePin:
    """The default path must stay byte-identical to the pre-PR planner."""

    @staticmethod
    def _assert_plans_identical(a, b):
        assert a.shape == b.shape and len(a.tiles) == len(b.tiles)
        assert (a.tile_rows, a.tile_cols, a.compressed) \
            == (b.tile_rows, b.tile_cols, b.compressed)
        for ta, tb in zip(a.tiles, b.tiles):
            assert ta.row_range == tb.row_range
            assert np.array_equal(ta.global_cols, tb.global_cols)
            assert np.array_equal(ta.rows, tb.rows)
            assert np.array_equal(ta.cols, tb.cols)
            assert np.array_equal(ta.vals, tb.vals)

    @pytest.mark.parametrize("compress", [True, False])
    def test_paper_strategy_equals_partition(self, compress):
        matrix = generate("cant", scale=0.02)
        self._assert_plans_identical(
            partition(matrix, CONFIG, compress=compress),
            make_strategy("paper").partition(matrix, CONFIG,
                                             compress=compress))

    def test_unset_strategy_is_paper(self):
        matrix = generate("pdb1HYS", scale=0.02)
        default_plan, _, default_exec = plan_spmv(matrix, CONFIG)
        paper_plan, _, paper_exec = plan_spmv(matrix, CONFIG,
                                              strategy="paper")
        self._assert_plans_identical(default_plan, paper_plan)
        assert default_exec.round_batches == paper_exec.round_batches
        assert np.array_equal(default_exec.per_bank_elements,
                              paper_exec.per_bank_elements)

    def test_default_result_bitwise(self):
        rng = np.random.default_rng(2)
        matrix = random_coo(rng, 300, 300, density=0.02)
        x = rng.standard_normal(300)
        assert np.array_equal(run_spmv(matrix, x, CONFIG).y,
                              run_spmv(matrix, x, CONFIG,
                                       strategy="paper").y)


class TestAutoTuner:
    MATRIX = generate("xenon2", scale=0.02)

    def test_deterministic(self):
        a = tune_strategy(self.MATRIX, CONFIG)
        b = tune_strategy(self.MATRIX, CONFIG)
        assert a.chosen == b.chosen and a.scores == b.scores

    def test_never_loses_to_paper(self):
        result = tune_strategy(self.MATRIX, CONFIG)
        if result.chosen != "paper":
            assert result.cycles[result.chosen] < result.cycles["paper"]

    def test_scores_cover_all_strategies(self):
        result = tune_strategy(self.MATRIX, CONFIG)
        assert set(result.scores) == set(CONCRETE)
        assert all(v > 0 for v in result.scores.values())

    def test_cache_stable(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = tune_strategy(self.MATRIX, CONFIG, cache=cache)
        misses = cache.miss_count
        second = tune_strategy(self.MATRIX, CONFIG, cache=cache)
        assert cache.miss_count == misses and cache.hit_count >= 1
        assert first.chosen == second.chosen
        assert first.scores == second.scores
        assert first.cycles == second.cycles

    def test_context_changes_the_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        tune_strategy(self.MATRIX, CONFIG, cache=cache)
        misses = cache.miss_count
        tune_strategy(self.MATRIX, CONFIG, mode="pb", cache=cache)
        assert cache.miss_count == misses + 1

    def test_auto_partition_runs(self):
        rng = np.random.default_rng(21)
        matrix = random_coo(rng, 250, 250, density=0.02)
        x = rng.standard_normal(250)
        result = run_spmv(matrix, x, CONFIG, strategy="auto")
        assert np.allclose(result.y, scipy_spmv(matrix, x))

    def test_estimate_tracks_work(self):
        # doubling the lock-step work must raise the estimate
        small, _, ex_small = plan_spmv(
            generate("cant", scale=0.01), CONFIG)
        _, _, ex_big = plan_spmv(generate("cant", scale=0.03), CONFIG)
        assert estimate_cycles(ex_big, CONFIG) \
            > estimate_cycles(ex_small, CONFIG)


class TestRuntimeAndSweepPlumbing:
    def test_runtime_threads_strategy(self):
        rng = np.random.default_rng(4)
        matrix = random_coo(rng, 150, 150, density=0.04)
        x = rng.standard_normal(150)
        pim = PSyncPIM(strategy="nnz-rows")
        result = pim.spmv(matrix, x)
        assert np.allclose(result.y, scipy_spmv(matrix, x))

    def test_explicit_strategy_engages(self):
        matrix = PATHOLOGICAL["wide"]
        plan, _, _ = plan_spmv(matrix, CONFIG, strategy="2d-grid")
        # global column cuts: every tile's kept columns live in one
        # tile_cols-wide window of the global axis
        for tile in plan.tiles:
            cols = np.asarray(tile.global_cols)
            assert cols.max() // plan.tile_cols \
                == cols.min() // plan.tile_cols

    def test_env_var_changes_nothing(self, monkeypatch):
        monkeypatch.setenv(STRATEGY_VAR, "2d-grid")
        matrix = PATHOLOGICAL["wide"]
        TestPaperBitwisePin._assert_plans_identical(
            plan_spmv(matrix, CONFIG)[0], partition(matrix, CONFIG))

    def test_sweep_job_label(self):
        from repro.sweep import SweepJob
        base = SweepJob(kernel="spmv", matrix="cant", scale=0.02)
        tuned = SweepJob(kernel="spmv", matrix="cant", scale=0.02,
                         strategy="auto")
        assert "auto" in tuned.resolved_label()
        assert "paper" not in base.resolved_label()

    def test_sweep_executes_strategy_job(self, tmp_path):
        from repro.sweep import SweepJob, execute_job
        job = SweepJob(kernel="spmv", matrix="cant", scale=0.02,
                       strategy="auto")
        record = execute_job(job, cache_dir=tmp_path)
        assert record.error == ""
        assert record.report is not None and record.report.cycles > 0

    def test_sweep_cache_key_separates_strategies(self, tmp_path):
        from repro.sweep import SweepJob, execute_job
        for strategy in ("paper", "nnz-rows"):
            job = SweepJob(kernel="spmv", matrix="cant", scale=0.02,
                           strategy=strategy)
            record = execute_job(job, cache_dir=tmp_path)
            assert record.error == ""
            assert record.cache_misses > 0  # never served the other's plan
