"""A solve plans all its update SpMVs in one pass; each one is still
exactly the SpMV the per-block path plans.

SpTRSV's Eq. 3 update blocks ``rows [mid, hi) x cols [lo, mid)`` used to
be planned one by one, each through ``plan_spmv(strict.submatrix(...))``.
:func:`repro.core.sptrsv._update_plans` now plans all of them before
the solve loop, with one :func:`repro.core.partition.partition_blocks`
call under the paper strategy. These tests pin that the records and the
solution are bitwise what the per-block path gives, on factors with a
single leaf, one-row leaves, empty update blocks and ``n`` that is not a
power of two, over both channel models, two strategies and both
fidelities.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from repro.check import oracles
from repro.config import default_system
from repro.core import plan_spmv, run_spmv, run_sptrsv
from repro.core.distribution import Assignment
from repro.core.partition import SubMatrix, partition, partition_blocks
from repro.core.sptrsv import recursive_plan, reorder_by_levels
from repro.formats import COOMatrix
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()
sptrsv_mod = importlib.import_module("repro.core.sptrsv")
partition_mod = importlib.import_module("repro.core.partition")


def _block_diagonal_factor(n, block, seed):
    """Unit-lower factor whose strictly-lower part lies inside aligned
    ``block`` x ``block`` diagonal blocks: with ``leaf_size=block`` and
    ``n`` a power-of-two multiple of it, every update block is empty."""
    rng = np.random.default_rng(seed)
    rows, cols = np.tril_indices(block, -1)
    starts = np.arange(0, n, block)
    keep = rng.random((starts.size, rows.size)) < 0.4
    all_rows = (starts[:, None] + rows[None, :])[keep]
    all_cols = (starts[:, None] + cols[None, :])[keep]
    eye = np.arange(n)
    return COOMatrix((n, n), np.concatenate([all_rows, eye]),
                     np.concatenate([all_cols, eye]),
                     np.concatenate([rng.random(all_rows.size) - 0.5,
                                     np.ones(n)]))


#: (id, factor, leaf_size, reorder): one leaf, one-row leaves, empty
#: update blocks (every one, and some), n not a power of two.
FACTORS = [
    ("single-leaf", unit_lower_from(uniform_random(40, 40, 0.1, seed=1),
                                    seed=2), None, True),
    ("leaf-1", unit_lower_from(uniform_random(45, 45, 0.08, seed=3),
                               seed=4), 1, True),
    ("all-empty", _block_diagonal_factor(64, 8, seed=5), 8, False),
    ("some-empty", unit_lower_from(uniform_random(150, 150, 0.004, seed=6),
                                   seed=7), 9, True),
    ("n-odd", unit_lower_from(uniform_random(203, 203, 0.03, seed=8),
                              seed=9), 16, True),
]
IDS = [factor[0] for factor in FACTORS]
CHANNELS = [None, 3]
STRATEGIES = ["paper", "nnz-rows"]
FIDELITIES = ["fast", "functional"]


def _strict_and_updates(tri, leaf_size, reorder):
    """The strictly-lower part a solve works on and its update steps in
    plan order (as :func:`run_sptrsv` derives them)."""
    work = reorder_by_levels(tri, lower=True)[1] if reorder else tri
    leaf = leaf_size if leaf_size is not None else 128
    steps = [step for step in recursive_plan(tri.shape[0], leaf)
             if step.kind == "update"]
    return work.strictly_lower(), steps


def _assert_records_equal(mine, theirs, where):
    assert type(mine) is type(theirs), where
    for f in dataclasses.fields(mine):
        a, b = getattr(mine, f.name), getattr(theirs, f.name)
        if f.name == "channel_execs":
            assert len(a) == len(b), where
            for c, (sa, sb) in enumerate(zip(a, b)):
                _assert_records_equal(sa, sb, f"{where}/channel {c}")
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), \
                (where, f.name)
        else:
            assert type(a) is type(b) and a == b, (where, f.name)
            if isinstance(a, list):
                assert ([type(x) for x in a]
                        == [type(x) for x in b]), (where, f.name)


def test_factors_cover_the_edge_cases():
    counts = {}
    for name, tri, leaf_size, reorder in FACTORS:
        strict, steps = _strict_and_updates(tri, leaf_size, reorder)
        counts[name] = [strict.submatrix(s.row_range, s.col_range).nnz
                        for s in steps]
    assert counts["single-leaf"] == []
    assert counts["all-empty"] and not any(counts["all-empty"])
    assert 0 in counts["some-empty"] and any(counts["some-empty"])
    assert any(counts["leaf-1"]) and any(counts["n-odd"])


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("channels", CHANNELS, ids=str)
@pytest.mark.parametrize("name,tri,leaf_size,reorder", FACTORS, ids=IDS)
def test_update_records_match_per_block_plans(name, tri, leaf_size, reorder,
                                              channels, strategy, fidelity):
    b = np.random.default_rng(10).random(tri.shape[0])
    solve = run_sptrsv(tri, b, CFG, leaf_size=leaf_size, reorder=reorder,
                       channels=channels, strategy=strategy,
                       fidelity=fidelity, engine_banks=64).execution
    strict, steps = _strict_and_updates(tri, leaf_size, reorder)
    expected = []
    for step in steps:
        block = strict.submatrix(step.row_range, step.col_range)
        if block.nnz:
            _, _, record = plan_spmv(block, CFG, channels=channels,
                                     strategy=strategy)
            expected.append((block.nnz, record))
    assert solve.update_elements == [nnz for nnz, _ in expected]
    assert solve.update_batches == [r.num_rounds for _, r in expected]
    assert len(solve.update_execs) == len(expected)
    for u, (mine, (_, theirs)) in enumerate(zip(solve.update_execs,
                                                expected)):
        _assert_records_equal(mine, theirs, f"update {u}")
    # Each channel's sub-record threads the shards the LPT pass filled.
    for c, sub in enumerate(solve.channel_execs):
        shards = [r.channel_execs[c] for _, r in expected
                  if r.channel_execs[c].total_elements]
        assert sub.update_elements == [s.total_elements for s in shards]
        assert sub.update_batches == [s.num_rounds for s in shards]
        for u, (mine, theirs) in enumerate(zip(sub.update_execs, shards)):
            _assert_records_equal(mine, theirs, f"channel {c} update {u}")
        assert len(sub.update_execs) == len(shards)


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("channels", CHANNELS, ids=str)
@pytest.mark.parametrize("name,tri,leaf_size,reorder", FACTORS, ids=IDS)
def test_solution_matches_per_block_updates(monkeypatch, name, tri,
                                            leaf_size, reorder, channels,
                                            strategy, fidelity):
    """Bitwise the same ``x`` as running each update's own ``run_spmv``
    on ``strict.submatrix(...)``, planned from scratch, in plan order."""
    b = np.random.default_rng(11).random(tri.shape[0])
    kwargs = dict(leaf_size=leaf_size, reorder=reorder, channels=channels,
                  strategy=strategy, fidelity=fidelity, engine_banks=64)
    solve = run_sptrsv(tri, b, CFG, **kwargs)
    strict, _ = _strict_and_updates(tri, leaf_size, reorder)

    def per_block_update(prepared, rhs, step, config, precision, fidelity,
                         engine_banks, execution, channels):
        block = strict.submatrix(step.row_range, step.col_range)
        if block.nnz == 0:
            return
        (r0, r1), (c0, c1) = step.row_range, step.col_range
        rhs[r0:r1] = run_spmv(block, rhs[c0:c1], config,
                              precision=precision, fidelity=fidelity,
                              accumulate="sub", y0=rhs[r0:r1],
                              engine_banks=engine_banks, channels=channels,
                              strategy=strategy).y

    monkeypatch.setattr(sptrsv_mod, "_apply_update", per_block_update)
    reference = run_sptrsv(tri, b, CFG, **kwargs)
    assert np.array_equal(solve.x, reference.x)


@pytest.mark.parametrize("channels", CHANNELS, ids=str)
def test_one_partition_pass_per_paper_solve(monkeypatch, channels):
    tri = unit_lower_from(uniform_random(203, 203, 0.03, seed=8), seed=9)
    b = np.ones(203)
    calls = []
    shipped = partition_mod._partition_blocks

    def counted(*args):
        calls.append(np.asarray(args[4]).shape[0])
        return shipped(*args)

    monkeypatch.setattr(partition_mod, "_partition_blocks", counted)
    solve = run_sptrsv(tri, b, CFG, leaf_size=16, channels=channels)
    assert len(solve.execution.update_execs) > 1
    # One pass over every update block (empty ones included), no other.
    assert calls == [len([s for s in recursive_plan(203, 16)
                          if s.kind == "update"])]


def test_scalar_planner_reaches_the_update_plans():
    """Under :func:`oracles.use_scalar_planner` the update plans come from
    :func:`oracles._partition_scalar`, block by block, and agree."""
    tri = unit_lower_from(uniform_random(203, 203, 0.03, seed=8), seed=9)
    b = np.random.default_rng(12).random(203)
    fast = run_sptrsv(tri, b, CFG, leaf_size=16, channels=3)
    calls = []
    shipped = oracles._partition_scalar

    def counted(*args):
        calls.append(args[1])
        return shipped(*args)

    with pytest.MonkeyPatch.context() as mp:
        oracles.use_scalar_planner(mp.setattr)
        mp.setattr(oracles, "_partition_scalar", counted)
        scalar = run_sptrsv(tri, b, CFG, leaf_size=16, channels=3)
    _, steps = _strict_and_updates(tri, 16, True)
    assert calls == [(s.row_range[1] - s.row_range[0],
                      s.col_range[1] - s.col_range[0]) for s in steps]
    assert np.array_equal(fast.x, scalar.x)
    assert len(fast.execution.update_execs) > 1
    for mine, theirs in zip(fast.execution.update_execs,
                            scalar.execution.update_execs):
        _assert_records_equal(mine, theirs, "update")


@pytest.mark.parametrize("compress", [True, False])
def test_partition_blocks_is_partition_per_block(compress):
    """Many blocks, some empty (one with no rows), in one pass: each
    plan is :func:`partition` of that block alone, and the scalar
    oracle agrees tile by tile."""
    rng = np.random.default_rng(13)
    shapes = [(300, 90), (0, 4), (17, 400), (5, 5), (129, 1), (260, 260)]
    blocks = [uniform_random(r, c, 0.05, seed=20 + i).sorted_rows()
              if r and i != 3 else COOMatrix.empty((r, c))
              for i, (r, c) in enumerate(shapes)]
    rows = np.concatenate([blk.rows for blk in blocks])
    cols = np.concatenate([blk.cols for blk in blocks])
    vals = np.concatenate([blk.vals for blk in blocks])
    elem_ptr = np.append(0, np.cumsum([blk.nnz for blk in blocks]))
    tile_rows, tile_cols = 64, int(rng.integers(20, 64))
    plans = partition_blocks(rows, cols, vals, elem_ptr, np.array(shapes),
                             tile_rows, tile_cols, compress)
    scalar, scalar_ptr = oracles._partition_blocks_scalar(
        rows, cols, vals, elem_ptr, shapes, tile_rows, tile_cols, compress)
    assert len(plans) == len(blocks)
    for p, (plan, blk) in enumerate(zip(plans, blocks)):
        alone = partition(blk, CFG, compress=compress, tile_rows=tile_rows,
                          tile_cols=tile_cols)
        assert plan.shape == alone.shape == blk.shape
        oracle_tiles = scalar[scalar_ptr[p]:scalar_ptr[p + 1]]
        assert len(plan.tiles) == len(alone.tiles) == len(oracle_tiles)
        for mine, theirs, ref in zip(plan.tiles, alone.tiles, oracle_tiles):
            for tile in (theirs, ref):
                assert mine.row_range == tile.row_range
                for f in ("global_cols", "rows", "cols", "vals"):
                    assert np.array_equal(getattr(mine, f),
                                          getattr(tile, f)), f
            assert mine.touched_rows == np.unique(mine.rows).size


def test_placed_slots_include_empty_tiles():
    """:attr:`Assignment.placed` skips ``None`` slots by truth value, so
    every tile must be true, even one without elements."""
    empty = SubMatrix((0, 4), np.arange(2), np.zeros(0, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros(0))
    full = partition(uniform_random(20, 20, 0.2, seed=14), CFG).tiles[0]
    layout = Assignment(num_banks=4, rounds=[[None, empty, None, full],
                                             [full, None, None, None]],
                        policy="paper")
    assert layout.placed == [([1, 3], [empty, full]), ([0], [full])]
    assert layout.banks_used == 3
    assert list(layout.per_bank_elements()) == [full.nnz, 0, 0, full.nnz]
