"""Differential tests: the fast planner against its scalar oracle.

The vectorized planning front-end promises *bitwise-identical* outputs to
the scalar reference (:mod:`repro.check.oracles`) for every planning
stage — tiles, round assignments, dependency levels, and the numerical
results / execution records built on top of them. These tests pin that
contract on randomized and pathological inputs, running each production
entry point once as shipped and once with its stages swapped for the
oracles.
"""

import importlib

import numpy as np
import pytest

from repro.check import oracles
from repro.config import default_system
from repro.core import (distribute, partition, reassemble, run_spmv,
                        run_sptrsv)
from repro.core.planner import concat_ranges, stable_desc_order
from repro.core.sptrsv import level_schedule, reorder_by_levels
from repro.errors import MappingError
from repro.formats import COOMatrix
from repro.formats.generators import (power_law_graph, uniform_random,
                                      unit_lower_from)

CFG = default_system()


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def assert_tiles_equal(a, b):
    assert a.row_range == b.row_range
    assert np.array_equal(a.global_cols, b.global_cols)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)


def assert_plans_equal(fast, scalar):
    assert fast.shape == scalar.shape
    assert len(fast.tiles) == len(scalar.tiles)
    for tf, ts in zip(fast.tiles, scalar.tiles):
        assert_tiles_equal(tf, ts)


def assert_assignments_equal(fast, scalar):
    assert fast.num_rounds == scalar.num_rounds
    for rf, rs in zip(fast.rounds, scalar.rounds):
        assert len(rf) == len(rs)
        for tf, ts in zip(rf, rs):
            assert (tf is None) == (ts is None)
            if tf is not None:
                assert_tiles_equal(tf, ts)


def on_oracle(fn, *args, **kwargs):
    """Call *fn* with every planning stage swapped for its scalar oracle."""
    with pytest.MonkeyPatch.context() as mp:
        oracles.use_scalar_planner(mp.setattr)
        return fn(*args, **kwargs)


def both_partitions(matrix, **kwargs):
    return (partition(matrix, CFG, **kwargs),
            on_oracle(partition, matrix, CFG, **kwargs))


# ----------------------------------------------------------------------
# matrices that stress the partitioner's corner cases
# ----------------------------------------------------------------------
def pathological_matrices():
    yield "empty", COOMatrix.empty((64, 64))
    # empty row blocks: nonzeros only in the first and last rows
    n = 300
    yield "empty_row_blocks", COOMatrix(
        (n, n), np.array([0, 0, n - 1]), np.array([0, n - 1, n // 2]),
        np.array([1.0, 2.0, 3.0]))
    # fully dense rows (hub rows spanning many column segments)
    yield "dense_rows", COOMatrix(
        (40, 400), np.repeat(np.arange(3), 400),
        np.tile(np.arange(400), 3), np.arange(1200, dtype=float))
    # a single column touched by every row
    yield "single_column", COOMatrix(
        (200, 200), np.arange(200), np.zeros(200, dtype=np.int64),
        np.arange(200, dtype=float) + 1.0)
    yield "uniform", uniform_random(500, 430, density=0.015, seed=7)
    yield "power_law", power_law_graph(400, avg_degree=6, seed=8)


@pytest.mark.parametrize("name,matrix", list(pathological_matrices()))
@pytest.mark.parametrize("compress", [True, False])
def test_partition_identical(name, matrix, compress):
    fast, scalar = both_partitions(matrix, compress=compress,
                                   tile_rows=64, tile_cols=64)
    assert_plans_equal(fast, scalar)
    assert reassemble(fast) == matrix


@pytest.mark.parametrize("seed", range(6))
def test_partition_identical_randomized(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 700))
    m = int(rng.integers(50, 700))
    density = float(rng.uniform(0.002, 0.05))
    matrix = uniform_random(n, m, density=density, seed=seed + 100)
    tile_rows = int(rng.integers(8, 128))
    tile_cols = int(rng.integers(8, 128))
    for compress in (True, False):
        fast, scalar = both_partitions(matrix, compress=compress,
                                       tile_rows=tile_rows,
                                       tile_cols=tile_cols)
        assert_plans_equal(fast, scalar)
        assert reassemble(fast) == matrix


def test_partition_identical_int8_capacity():
    # int8 quadruples the per-row element capacity vs fp64, exercising a
    # different default tiling without explicit tile dimensions.
    matrix = power_law_graph(900, avg_degree=4, seed=11)
    fast, scalar = both_partitions(matrix, precision="int8")
    assert_plans_equal(fast, scalar)


@pytest.mark.parametrize("policy", ["paper", "balanced", "naive"])
@pytest.mark.parametrize("num_banks", [1, 7, 64])
def test_distribute_identical(policy, num_banks):
    matrix = power_law_graph(600, avg_degree=8, seed=21)
    plan = partition(matrix, CFG, tile_rows=48, tile_cols=48)
    fast = distribute(plan, num_banks, policy=policy)
    scalar = on_oracle(distribute, plan, num_banks, policy=policy)
    assert_assignments_equal(fast, scalar)


def test_distribute_identical_with_ties():
    # Many equal-nnz tiles force the LPT tie-break path: the heap must
    # reproduce np.argmin's first-minimum choice exactly.
    tiles_src = COOMatrix(
        (256, 64), np.arange(256), np.tile(np.arange(64), 4),
        np.ones(256))
    plan = partition(tiles_src, CFG, tile_rows=16, tile_cols=64)
    nnz = {t.nnz for t in plan.tiles}
    assert len(nnz) == 1  # all tiles identical in weight: pure tie-break
    for policy in ("paper", "balanced"):
        fast = distribute(plan, 5, policy=policy)
        scalar = on_oracle(distribute, plan, 5, policy=policy)
        assert_assignments_equal(fast, scalar)


# ----------------------------------------------------------------------
# level scheduling
# ----------------------------------------------------------------------
def triangular_cases():
    n = 200
    eye = np.arange(n)
    ones = np.ones(n)
    yield "diagonal_only", COOMatrix((n, n), eye, eye, ones)
    # bidiagonal chain: worst-case dependency depth (n levels)
    rows = np.concatenate([eye, eye[1:]])
    cols = np.concatenate([eye, eye[:-1]])
    vals = np.concatenate([ones, 0.5 * np.ones(n - 1)])
    yield "bidiagonal_chain", COOMatrix((n, n), rows, cols, vals)
    yield "random_sparse", unit_lower_from(
        uniform_random(300, 300, density=0.02, seed=31), seed=32)
    yield "random_denser", unit_lower_from(
        uniform_random(150, 150, density=0.15, seed=33), seed=34)
    yield "empty", COOMatrix.empty((0, 0))


@pytest.mark.parametrize("name,tri", list(triangular_cases()))
@pytest.mark.parametrize("lower", [True, False])
def test_level_schedule_identical(name, tri, lower):
    work = tri if lower else tri.transpose()
    fast = level_schedule(work, lower=lower)
    scalar = on_oracle(level_schedule, work, lower=lower)
    assert len(fast) == len(scalar)
    for lf, ls in zip(fast, scalar):
        assert np.array_equal(lf, ls)


@pytest.mark.parametrize("lower", [True, False])
def test_reorder_by_levels_identical(lower):
    tri = unit_lower_from(
        uniform_random(250, 250, density=0.03, seed=41), seed=42)
    work = tri if lower else tri.transpose()
    perm_f, re_f = reorder_by_levels(work, lower=lower)
    perm_s, re_s = on_oracle(reorder_by_levels, work, lower=lower)
    assert np.array_equal(perm_f, perm_s)
    assert re_f == re_s


# ----------------------------------------------------------------------
# end-to-end numerical identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compress", [True, False])
@pytest.mark.parametrize("fidelity", ["fast", "functional"])
def test_spmv_end_to_end_identical(compress, fidelity):
    matrix = power_law_graph(400, avg_degree=7, seed=51)
    x = np.random.default_rng(52).random(matrix.shape[1])
    fast = run_spmv(matrix, x, CFG, compress=compress, fidelity=fidelity,
                    engine_banks=4)
    scalar = on_oracle(run_spmv, matrix, x, CFG, compress=compress,
                       fidelity=fidelity, engine_banks=4)
    assert np.array_equal(fast.y, scalar.y)
    assert fast.execution.round_batches == scalar.execution.round_batches
    assert np.array_equal(fast.execution.per_bank_elements,
                          scalar.execution.per_bank_elements)
    assert fast.execution.input_bytes == scalar.execution.input_bytes
    assert fast.execution.output_bytes == scalar.execution.output_bytes
    assert np.allclose(fast.y, matrix.matvec(x))


@pytest.mark.parametrize("reorder", [True, False])
def test_sptrsv_end_to_end_identical(reorder):
    tri = unit_lower_from(
        uniform_random(350, 350, density=0.02, seed=61), seed=62)
    b = np.random.default_rng(63).random(350)
    fast = run_sptrsv(tri, b, CFG, reorder=reorder)
    scalar = on_oracle(run_sptrsv, tri, b, CFG, reorder=reorder)
    assert np.array_equal(fast.x, scalar.x)
    assert fast.execution.level_batches == scalar.execution.level_batches
    assert fast.execution.level_elements == scalar.execution.level_elements
    assert fast.execution.level_widths == scalar.execution.level_widths
    assert fast.execution.update_elements == scalar.execution.update_elements
    assert fast.execution.update_batches == scalar.execution.update_batches


def test_sptrsv_deep_chain_identical():
    # Bidiagonal chain: leaves degenerate to one column per level, the
    # worst case for the frontier sweep's convergence and ordering.
    n = 180
    eye = np.arange(n)
    tri = COOMatrix((n, n),
                    np.concatenate([eye, eye[1:]]),
                    np.concatenate([eye, eye[:-1]]),
                    np.concatenate([np.ones(n), 0.25 * np.ones(n - 1)]))
    b = np.random.default_rng(64).random(n)
    for reorder in (True, False):
        fast = run_sptrsv(tri, b, CFG, reorder=reorder)
        scalar = on_oracle(run_sptrsv, tri, b, CFG, reorder=reorder)
        assert np.array_equal(fast.x, scalar.x)
        assert fast.execution.level_widths == scalar.execution.level_widths


def test_sptrsv_upper_identical():
    tri = unit_lower_from(
        uniform_random(220, 220, density=0.03, seed=71), seed=72)
    upper = tri.transpose()
    b = np.random.default_rng(73).random(220)
    fast = run_sptrsv(upper, b, CFG, lower=False)
    scalar = on_oracle(run_sptrsv, upper, b, CFG, lower=False)
    assert np.array_equal(fast.x, scalar.x)


# ----------------------------------------------------------------------
# oracle substitution and helpers
# ----------------------------------------------------------------------
def test_oracle_substitution_is_scoped():
    """The oracles replace exactly the listed stages, and only inside
    the substitution."""
    stages = [(importlib.import_module(module), name, oracle)
              for module, name, oracle in oracles.PLANNER_STAGES]
    shipped = [getattr(module, name) for module, name, _ in stages]
    assert all(fn is not oracle
               for fn, (_, _, oracle) in zip(shipped, stages))
    with pytest.MonkeyPatch.context() as mp:
        oracles.use_scalar_planner(mp.setattr)
        for module, name, oracle in stages:
            assert getattr(module, name) is oracle
    assert [getattr(module, name) for module, name, _ in stages] == shipped


def test_direct_oracle_calls_match_stages():
    """The oracles are plain functions: called directly on a stage's own
    inputs they return the stage's output bitwise."""
    partition_mod = importlib.import_module("repro.core.partition")
    distribution_mod = importlib.import_module("repro.core.distribution")
    sptrsv_mod = importlib.import_module("repro.core.sptrsv")
    matrix = power_law_graph(300, avg_degree=6, seed=12)
    srt = matrix.sorted_rows()
    for compress in (True, False):
        fast = partition_mod._partition_fast(srt, matrix.shape, 40, 40,
                                             compress)
        scalar = oracles._partition_scalar(srt, matrix.shape, 40, 40,
                                           compress)
        assert len(fast) == len(scalar)
        for tf, ts in zip(fast, scalar):
            assert_tiles_equal(tf, ts)
    tiles = fast
    assert ([id(t) for t in distribution_mod._by_desc_nnz(tiles)]
            == [id(t) for t in oracles._by_desc_nnz_scalar(tiles)])
    for rf, rs in zip(distribution_mod._balanced_fast(tiles, 6),
                      oracles._balanced(tiles, 6)):
        assert [id(t) for t in rf] == [id(t) for t in rs]
    tri = unit_lower_from(uniform_random(120, 120, density=0.05, seed=13),
                          seed=14)
    assert np.array_equal(sptrsv_mod._level_depths(120, tri),
                          oracles._level_depths_scalar(120, tri))


class TestSelection:
    """There is one planner: no argument or environment variable picks
    the scalar loops in production."""

    def test_env_selection(self, monkeypatch):
        matrix = uniform_random(120, 120, density=0.05, seed=81)
        fast = partition(matrix, CFG)
        monkeypatch.setenv("PSYNCPIM_PLANNER", "scalar")
        calls = []
        monkeypatch.setattr(oracles, "_cut_columns",
                            lambda *args: calls.append(args) or [])
        assert_plans_equal(partition(matrix, CFG), fast)
        assert calls == []  # the oracle never ran

    def test_unknown_planner_rejected(self):
        with pytest.raises(TypeError, match="planner"):
            partition(uniform_random(50, 50, density=0.05, seed=1), CFG,
                      planner="magic")
        with pytest.raises(TypeError, match="planner"):
            run_spmv(uniform_random(50, 50, density=0.05, seed=1),
                     np.ones(50), CFG, planner="scalar")


class TestValidationGate:
    def test_check_plan_catches_corruption(self):
        matrix = uniform_random(200, 200, density=0.03, seed=91)
        plan = partition(matrix, CFG)
        plan.tiles[0].rows[0] = 10 ** 6  # corrupt a tile-local index
        from repro.core.partition import _check_plan
        with pytest.raises(MappingError):
            _check_plan(plan, matrix)

    def test_validate_off_skips_check(self):
        matrix = uniform_random(100, 100, density=0.05, seed=92)
        plan = partition(matrix, CFG, validate=False)
        assert reassemble(plan) == matrix


class TestHelpers:
    def test_concat_ranges(self):
        starts = np.array([0, 5, 9], dtype=np.int64)
        ends = np.array([2, 5, 12], dtype=np.int64)
        assert np.array_equal(concat_ranges(starts, ends),
                              [0, 1, 9, 10, 11])
        empty = np.zeros(0, dtype=np.int64)
        assert concat_ranges(empty, empty).size == 0

    def test_stable_desc_order_matches_sorted(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 10, size=200)
        expected = sorted(range(200), key=lambda i: -weights[i])
        assert np.array_equal(stable_desc_order(weights), expected)

    def test_plan_stats_memoized(self):
        matrix = uniform_random(300, 300, density=0.02, seed=93)
        plan = partition(matrix, CFG)
        assert plan.total_nnz == matrix.nnz
        assert plan.tile_nnz.sum() == matrix.nnz
        assert plan.replicated_input_elements == sum(
            t.x_length for t in plan.tiles)
        assert np.array_equal(plan.tile_touched_rows,
                              [t.touched_rows for t in plan.tiles])
