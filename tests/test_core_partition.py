"""Tests for repro.core.partition and repro.core.distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_system
from repro.core import (distribute, partition, reassemble,
                        replication_traffic_bytes, tile_capacity)
from repro.core.distribution import split_oversized
from repro.core.strategies import make_strategy, strategy_names
from repro.errors import MappingError
from repro.formats import COOMatrix
from repro.formats.generators import power_law_graph, uniform_random

CFG = default_system()


class TestPartition:
    def test_round_trip(self):
        m = uniform_random(500, 400, density=0.01, seed=1)
        plan = partition(m, CFG)
        assert reassemble(plan) == m

    def test_round_trip_uncompressed(self):
        m = uniform_random(300, 300, density=0.02, seed=2)
        plan = partition(m, CFG, compress=False)
        assert reassemble(plan) == m

    def test_no_elements_lost(self):
        m = power_law_graph(600, avg_degree=5, seed=3)
        plan = partition(m, CFG)
        assert plan.total_nnz == m.nnz

    def test_tile_dimension_bound(self):
        m = uniform_random(1000, 1000, density=0.005, seed=4)
        cap = tile_capacity(CFG, "fp64")
        plan = partition(m, CFG)
        for tile in plan.tiles:
            assert tile.y_length <= cap
            assert tile.x_length <= cap

    def test_capacity_by_precision(self):
        assert tile_capacity(CFG, "fp64") == 128
        assert tile_capacity(CFG, "int8") == 1024

    def test_int8_tiles_are_bigger(self):
        m = uniform_random(2000, 2000, density=0.002, seed=5)
        plan64 = partition(m, CFG, precision="fp64")
        plan8 = partition(m, CFG, precision="int8")
        assert len(plan8.tiles) < len(plan64.tiles)

    def test_compression_reduces_replication(self):
        # sparse graph: most columns of a row block are empty
        m = power_law_graph(2000, avg_degree=4, seed=6)
        with_c = partition(m, CFG, compress=True)
        without = partition(m, CFG, compress=False)
        assert (with_c.replicated_input_elements
                < without.replicated_input_elements)

    def test_compressed_tiles_drop_zero_columns(self):
        m = COOMatrix((10, 300), [0, 5], [10, 250], [1.0, 2.0])
        plan = partition(m, CFG, compress=True)
        assert len(plan.tiles) == 1
        np.testing.assert_array_equal(plan.tiles[0].global_cols, [10, 250])
        assert plan.tiles[0].x_length == 2

    def test_uncompressed_keeps_ranges(self):
        m = COOMatrix((10, 300), [0, 5], [10, 250], [1.0, 2.0])
        plan = partition(m, CFG, compress=False)
        # 300 cols -> segments [0,128), [128,256), [256,300); cols 10 and
        # 250 land in the first two, the third is empty and dropped
        assert len(plan.tiles) == 2
        # tiles carry whole column ranges
        assert plan.tiles[0].x_length == 128

    def test_x_segment_gather(self):
        m = COOMatrix((4, 6), [0, 1], [2, 5], [1.0, 1.0])
        plan = partition(m, CFG)
        x = np.arange(6, dtype=float)
        seg = plan.tiles[0].x_segment(x)
        np.testing.assert_allclose(seg, [2.0, 5.0])

    def test_empty_matrix(self):
        plan = partition(COOMatrix.empty((100, 100)), CFG)
        assert plan.tiles == []
        assert reassemble(plan) == COOMatrix.empty((100, 100))

    def test_invalid_tile_dims(self):
        m = uniform_random(10, 10, 0.2, seed=7)
        with pytest.raises(MappingError):
            partition(m, CFG, tile_rows=0)
        with pytest.raises(MappingError):
            partition(m, CFG, tile_rows=4096)

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip(self, nrows, ncols, seed):
        m = uniform_random(nrows, ncols, density=0.05, seed=seed)
        plan = partition(m, CFG)
        assert reassemble(plan) == m
        for tile in plan.tiles:
            tile.validate()


class TestDistribution:
    @pytest.fixture
    def plan(self):
        return partition(power_law_graph(3000, avg_degree=6, seed=8), CFG)

    def test_all_elements_placed(self, plan):
        a = distribute(plan, 256)
        assert a.total_elements == plan.total_nnz

    def test_paper_policy_balances(self, plan):
        naive = distribute(plan, 256, policy="naive")
        paper = distribute(plan, 256, policy="paper")
        assert paper.imbalance <= naive.imbalance

    def test_balanced_policy(self, plan):
        a = distribute(plan, 256, policy="balanced")
        naive = distribute(plan, 256, policy="naive")
        assert a.total_elements == plan.total_nnz
        # greedy LPT never loses to blind round-robin on total bank load
        assert a.per_bank_elements().max() <= \
            naive.per_bank_elements().max()

    def test_unknown_policy(self, plan):
        with pytest.raises(MappingError):
            distribute(plan, 256, policy="chaotic")

    def test_needs_banks(self, plan):
        with pytest.raises(MappingError):
            distribute(plan, 0)

    def test_rounds_structure(self, plan):
        a = distribute(plan, 64)
        for round_tiles in a.rounds:
            assert len(round_tiles) == 64

    def test_split_oversized(self):
        m = uniform_random(100, 100, 0.3, seed=9)
        plan = partition(m, CFG)
        tiles = split_oversized(plan.tiles, nnz_cap=50)
        assert all(t.nnz <= 50 for t in tiles)
        assert sum(t.nnz for t in tiles) == plan.total_nnz
        # split pieces keep valid local indices
        for tile in tiles:
            tile.validate()

    def test_split_pieces_count_their_touched_rows(self):
        # ~30 elements per row against a cap of 50: pieces start mid-row.
        m = uniform_random(100, 100, 0.3, seed=9)
        tiles = split_oversized(partition(m, CFG).tiles, nnz_cap=50)
        mid_row = [a.rows[-1] == b.rows[0]
                   for a, b in zip(tiles, tiles[1:])
                   if a.row_range == b.row_range
                   and a.global_cols is b.global_cols]
        assert any(mid_row)
        for tile in tiles:
            assert tile.touched_rows == np.unique(tile.rows).size

    @pytest.mark.parametrize("name", strategy_names())
    def test_touched_rows_are_distinct_rows(self, name):
        m = power_law_graph(300, avg_degree=6, seed=4)
        for tile in make_strategy(name).partition(m, CFG).tiles:
            assert tile.touched_rows == np.unique(tile.rows).size

    def test_split_noop_below_cap(self):
        m = uniform_random(50, 50, 0.05, seed=10)
        plan = partition(m, CFG)
        tiles = split_oversized(plan.tiles, nnz_cap=10 ** 6)
        assert len(tiles) == len(plan.tiles)

    def test_split_rejects_bad_cap(self):
        with pytest.raises(MappingError):
            split_oversized([], 0)

    def test_traffic_accounting_positive(self, plan):
        a = distribute(plan, 256)
        assert replication_traffic_bytes(a, 8) > 0

    def test_imbalance_metric(self, plan):
        a = distribute(plan, 256)
        assert a.imbalance >= 1.0
        assert 0 < a.banks_used <= 256

    def test_single_bank_distribution(self, plan):
        a = distribute(plan, 1)
        assert a.imbalance == pytest.approx(1.0)
        assert a.banks_used == 1
