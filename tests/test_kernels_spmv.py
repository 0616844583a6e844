"""Tests for the SpMV tile kernel (Algorithm 2) and its semiring variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.pim import LaneEngine
from repro.kernels import Tile, empty_tile, run_tile_round


def random_tile(rng, y_len=16, x_len=24, nnz=12):
    pairs = set()
    while len(pairs) < nnz:
        pairs.add((int(rng.integers(0, y_len)), int(rng.integers(0, x_len))))
    rows, cols = np.array(sorted(pairs)).T
    vals = rng.standard_normal(nnz)
    return Tile(rows, cols, vals, rng.random(x_len), y_len)


def golden(tile, op=np.add):
    y = np.zeros(tile.y_len)
    getattr(op, "at")(y, tile.rows, tile.vals * tile.x_segment[tile.cols])
    return y


class TestTileValidation:
    def test_row_bounds(self):
        with pytest.raises(ExecutionError, match="row"):
            Tile(np.array([5]), np.array([0]), np.array([1.0]),
                 np.ones(4), 4)

    def test_col_bounds(self):
        with pytest.raises(ExecutionError, match="col"):
            Tile(np.array([0]), np.array([9]), np.array([1.0]),
                 np.ones(4), 4)

    def test_array_alignment(self):
        with pytest.raises(ExecutionError, match="align"):
            Tile(np.array([0, 1]), np.array([0]), np.array([1.0]),
                 np.ones(4), 4)

    def test_empty_tile(self):
        tile = empty_tile(8, 8)
        assert tile.nnz == 0


class TestTileRound:
    def test_matches_golden_per_bank(self):
        rng = np.random.default_rng(0)
        engine = LaneEngine(num_banks=8)
        tiles = [random_tile(rng, nnz=int(rng.integers(1, 30)))
                 for _ in range(8)]
        result = run_tile_round(engine, tiles)
        for tile, y in zip(tiles, result.y_per_bank):
            np.testing.assert_allclose(y[:tile.y_len], golden(tile),
                                       rtol=1e-12, atol=1e-12)

    def test_none_tiles_are_empty(self):
        rng = np.random.default_rng(1)
        engine = LaneEngine(num_banks=4)
        tiles = [random_tile(rng), None, random_tile(rng), None]
        result = run_tile_round(engine, tiles)
        np.testing.assert_allclose(result.y_per_bank[1], 0.0)
        assert result.nnz_per_bank[1] == 0

    def test_batches_track_slowest_bank(self):
        rng = np.random.default_rng(2)
        engine = LaneEngine(num_banks=4)
        tiles = [random_tile(rng, nnz=n) for n in (2, 40, 5, 1)]
        result = run_tile_round(engine, tiles)
        batch = (engine.queue_capacity // engine.group_size
                 * engine.group_size)
        assert result.batches == -(-40 // batch)

    def test_sub_accumulate(self):
        rng = np.random.default_rng(3)
        engine = LaneEngine(num_banks=2)
        tile = random_tile(rng)
        result = run_tile_round(engine, [tile, None], accumulate="sub")
        np.testing.assert_allclose(result.y_per_bank[0][:tile.y_len],
                                   golden(tile, np.subtract))

    def test_min_semiring(self):
        """SSSP-style (min, +) semiring: y[r] = min(y[r], x[c] + v)."""
        rng = np.random.default_rng(4)
        engine = LaneEngine(num_banks=1)
        tile = random_tile(rng, nnz=20)
        result = run_tile_round(engine, [tile], accumulate="min",
                                multiply="add")
        expect = np.zeros(tile.y_len)  # output tiles start at 0
        np.minimum.at(expect, tile.rows,
                      tile.vals + tile.x_segment[tile.cols])
        np.testing.assert_allclose(result.y_per_bank[0][:tile.y_len],
                                   expect)

    def test_tile_count_must_match_banks(self):
        engine = LaneEngine(num_banks=4)
        with pytest.raises(ExecutionError, match="per bank"):
            run_tile_round(engine, [None, None])

    def test_multi_pass_large_tile(self):
        """More batches than one JUMP immediate allows (forces passes)."""
        rng = np.random.default_rng(5)
        y_len, x_len = 64, 64
        nnz = 1030 * 8 + 17  # > 1023 batches of 8 at fp64
        rows = rng.integers(0, y_len, nnz)
        cols = rng.integers(0, x_len, nnz)
        # dedupe to satisfy Tile's implicit uniqueness-free contract
        # (duplicates are fine for the kernel: each element is a MAC)
        vals = rng.standard_normal(nnz)
        tile = Tile(rows, cols, vals, rng.random(x_len), y_len)
        engine = LaneEngine(num_banks=1)
        result = run_tile_round(engine, [tile])
        np.testing.assert_allclose(result.y_per_bank[0][:y_len],
                                   golden(tile), rtol=1e-9)
        assert result.stats.launches >= 2

    @given(st.integers(1, 60), st.integers(0, 59))
    @settings(max_examples=15, deadline=None)
    def test_property_random_sizes(self, nnz, seed):
        rng = np.random.default_rng(seed)
        engine = LaneEngine(num_banks=2)
        tile = random_tile(rng, y_len=20, x_len=20, nnz=min(nnz, 19 * 19))
        result = run_tile_round(engine, [tile, None])
        np.testing.assert_allclose(result.y_per_bank[0][:tile.y_len],
                                   golden(tile), rtol=1e-9, atol=1e-12)


class TestInt8Path:
    def test_int8_tile_round(self):
        rng = np.random.default_rng(6)
        engine = LaneEngine(num_banks=2, precision="int8")
        tile = random_tile(rng, nnz=25)
        tile.vals = np.round(tile.vals * 4)
        tile.x_segment = np.round(tile.x_segment * 4)
        result = run_tile_round(engine, [tile, None])
        np.testing.assert_allclose(result.y_per_bank[0][:tile.y_len],
                                   golden(tile))

    def test_int8_uses_larger_batches(self):
        engine8 = LaneEngine(num_banks=1, precision="int8")
        engine64 = LaneEngine(num_banks=1, precision="fp64")
        assert engine8.queue_capacity > engine64.queue_capacity
