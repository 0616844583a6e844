"""Tests for the SpMM tile-block kernel (banks x rhs lane expansion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.check.reference import ReferenceEngine
from repro.pim import LaneEngine
from repro.kernels import (Tile, expand_block_tiles, run_tile_block,
                           run_tile_round)


def random_block_tile(rng, y_len=16, x_len=24, nnz=12, k=3):
    pairs = set()
    while len(pairs) < nnz:
        pairs.add((int(rng.integers(0, y_len)),
                   int(rng.integers(0, x_len))))
    rows, cols = np.array(sorted(pairs)).T
    vals = rng.standard_normal(nnz)
    return Tile(rows, cols, vals, rng.random((x_len, k)), y_len)


def golden_block(tile, op=np.add):
    seg = np.atleast_2d(tile.x_segment.T).T
    y = np.zeros((tile.y_len, seg.shape[1]))
    getattr(op, "at")(y, tile.rows, tile.vals[:, None] * seg[tile.cols])
    return y


class TestExpandBlockTiles:
    def test_column_lanes(self):
        rng = np.random.default_rng(0)
        tile = random_block_tile(rng, k=3)
        lanes = expand_block_tiles([tile], 3)
        assert len(lanes) == 3
        for j, lane in enumerate(lanes):
            np.testing.assert_array_equal(lane.x_segment,
                                          tile.x_segment[:, j])
            np.testing.assert_array_equal(lane.vals, tile.vals)

    def test_none_tiles_stay_none(self):
        rng = np.random.default_rng(1)
        tile = random_block_tile(rng, k=2)
        lanes = expand_block_tiles([None, tile], 2)
        assert lanes[0] is None and lanes[1] is None
        assert lanes[2] is not None and lanes[3] is not None

    def test_one_column_accepts_vector_segment(self):
        rng = np.random.default_rng(2)
        tile = random_block_tile(rng, k=1)
        flat = Tile(tile.rows, tile.cols, tile.vals,
                    np.ascontiguousarray(tile.x_segment[:, 0]),
                    tile.y_len)
        lanes = expand_block_tiles([flat], 1)
        np.testing.assert_array_equal(lanes[0].x_segment,
                                      tile.x_segment[:, 0])

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(3)
        tile = random_block_tile(rng, k=2)
        with pytest.raises(ExecutionError, match="columns"):
            expand_block_tiles([tile], 4)

    def test_bad_width_raises(self):
        with pytest.raises(ExecutionError, match="rhs"):
            expand_block_tiles([None], 0)


class TestTileBlock:
    def test_matches_golden(self):
        rng = np.random.default_rng(4)
        k = 3
        tiles = [random_block_tile(rng, nnz=int(rng.integers(1, 30)), k=k)
                 for _ in range(4)]
        engine = LaneEngine(num_banks=4 * k)
        result = run_tile_block(engine, tiles, num_rhs=k)
        for tile, y in zip(tiles, result.y_per_bank):
            assert y.shape == (tile.y_len, k)
            np.testing.assert_allclose(y, golden_block(tile),
                                       rtol=1e-12, atol=1e-12)

    def test_one_column_equals_tile_round(self):
        """k = 1 is bitwise the plain SpMV tile round."""
        rng = np.random.default_rng(5)
        tiles = [random_block_tile(rng, nnz=20, k=1) for _ in range(3)]
        flat = [Tile(t.rows, t.cols, t.vals,
                     np.ascontiguousarray(t.x_segment[:, 0]), t.y_len)
                for t in tiles]
        block = run_tile_block(LaneEngine(num_banks=3), tiles,
                               num_rhs=1)
        solo = run_tile_round(LaneEngine(num_banks=3), flat)
        for yb, ys in zip(block.y_per_bank, solo.y_per_bank):
            np.testing.assert_array_equal(yb[:, 0], ys)
        assert block.batches == solo.batches
        assert block.nnz_per_bank == solo.nnz_per_bank

    def test_lane_equals_scalar(self):
        """The lane engine equals the bank-at-a-time reference."""
        rng = np.random.default_rng(6)
        k = 2
        tiles = [random_block_tile(rng, nnz=15, k=k) for _ in range(2)]
        a = run_tile_block(ReferenceEngine(num_banks=2 * k), tiles,
                           num_rhs=k)
        b = run_tile_block(LaneEngine(num_banks=2 * k), tiles, num_rhs=k)
        for ya, yb in zip(a.y_per_bank, b.y_per_bank):
            np.testing.assert_array_equal(ya, yb)

    def test_none_tile_block(self):
        rng = np.random.default_rng(7)
        tiles = [random_block_tile(rng, k=2), None]
        result = run_tile_block(LaneEngine(num_banks=4), tiles,
                                num_rhs=2)
        np.testing.assert_allclose(result.y_per_bank[1], 0.0)
        assert result.nnz_per_bank[1] == 0

    def test_engine_size_must_match(self):
        rng = np.random.default_rng(8)
        tiles = [random_block_tile(rng, k=2)]
        with pytest.raises(ExecutionError, match="lane"):
            run_tile_block(LaneEngine(num_banks=3), tiles, num_rhs=2)

    def test_semiring_block(self):
        rng = np.random.default_rng(9)
        tile = random_block_tile(rng, nnz=18, k=2)
        result = run_tile_block(LaneEngine(num_banks=2), [tile],
                                num_rhs=2, accumulate="min",
                                multiply="add", y_init=0.0)
        expect = np.zeros((tile.y_len, 2))
        np.minimum.at(expect, tile.rows,
                      tile.vals[:, None] + tile.x_segment[tile.cols])
        np.testing.assert_allclose(result.y_per_bank[0], expect)

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_property_random_blocks(self, nnz, k, seed):
        rng = np.random.default_rng(seed)
        tile = random_block_tile(rng, y_len=20, x_len=20,
                                 nnz=min(nnz, 19 * 19), k=k)
        result = run_tile_block(LaneEngine(num_banks=k), [tile],
                                num_rhs=k)
        np.testing.assert_allclose(result.y_per_bank[0],
                                   golden_block(tile), rtol=1e-9,
                                   atol=1e-12)
