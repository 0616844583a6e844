"""Tests for repro.formats.coo — the COO container."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import COOMatrix


@pytest.fixture
def small():
    # [[1, 0, 2],
    #  [0, 3, 0],
    #  [4, 0, 5]]
    return COOMatrix((3, 3), [0, 0, 1, 2, 2], [0, 2, 1, 0, 2],
                     [1.0, 2.0, 3.0, 4.0, 5.0])


class TestConstruction:
    def test_round_trip_dense(self, small):
        dense = small.to_dense()
        again = COOMatrix.from_dense(dense)
        assert again == small

    def test_from_triplets(self):
        m = COOMatrix.from_triplets((2, 2), [(0, 1, 5.0), (1, 0, -1.0)])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 5.0

    def test_from_triplets_empty(self):
        m = COOMatrix.from_triplets((2, 2), [])
        assert m.nnz == 0
        assert np.all(m.to_dense() == 0)

    def test_empty(self):
        m = COOMatrix.empty((4, 6))
        assert m.shape == (4, 6)
        assert m.nnz == 0
        assert m.density == 0.0

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-12, 2.0], [0.0, 0.0]])
        m = COOMatrix.from_dense(dense, tol=1e-9)
        assert m.nnz == 1

    def test_from_dense_rejects_1d(self):
        with pytest.raises(FormatError):
            COOMatrix.from_dense(np.ones(3))

    def test_copy_is_independent(self, small):
        dup = small.copy()
        dup.vals[0] = 99.0
        assert small.vals[0] == 1.0


class TestValidation:
    def test_row_out_of_range(self):
        with pytest.raises(FormatError, match="row index"):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_col_out_of_range(self):
        with pytest.raises(FormatError, match="column index"):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_negative_index(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [-1], [0], [1.0])

    def test_duplicate_coordinates(self):
        with pytest.raises(FormatError, match="duplicate"):
            COOMatrix((2, 2), [0, 0], [1, 1], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="identical length"):
            COOMatrix((2, 2), [0], [0, 1], [1.0, 2.0])


class TestOrdering:
    def test_sorted_rows_is_row_major(self, small):
        srt = small.sorted_rows()
        keys = srt.rows * small.shape[1] + srt.cols
        assert np.all(np.diff(keys) > 0)

    def test_sorted_cols_is_col_major(self, small):
        srt = small.sorted_cols()
        keys = srt.cols * small.shape[0] + srt.rows
        assert np.all(np.diff(keys) > 0)

    def test_sorting_preserves_content(self, small):
        assert small.sorted_cols() == small
        assert small.sorted_rows() == small

    @staticmethod
    def _cases():
        rng = np.random.default_rng(7)
        cases = [COOMatrix.empty((4, 5)),
                 COOMatrix((3, 3), [2], [1], [1.0]),
                 # duplicate coordinates: ties keep their storage order
                 COOMatrix((4, 4), [3, 1, 3, 1, 0, 3], [2, 0, 2, 0, 3, 1],
                           np.arange(6.0), check=False)]
        for _ in range(6):
            shape = tuple(int(v) for v in rng.integers(1, 60, size=2))
            n = int(rng.integers(0, 200))
            cases.append(COOMatrix(
                shape, rng.integers(0, shape[0], n),
                rng.integers(0, shape[1], n), rng.random(n), check=False))
        return cases

    def test_orders_are_lexsort_permutations(self):
        """One fused-key argsort gives exactly ``lexsort``'s permutation,
        duplicates and all."""
        for m in self._cases():
            for srt, major, minor, shape in (
                    (m.sorted_rows(), m.rows, m.cols, m.shape),
                    (m.sorted_cols(), m.cols, m.rows, m.shape[::-1])):
                order = np.lexsort((minor, major))
                assert np.array_equal(COOMatrix._order(major, minor, shape),
                                      order)
                assert np.array_equal(srt.rows, m.rows[order])
                assert np.array_equal(srt.cols, m.cols[order])
                assert np.array_equal(srt.vals, m.vals[order])

    def test_order_falls_back_to_lexsort_past_int64(self):
        rows, cols = np.array([5, 1, 5, 0]), np.array([2, 9, 0, 9])
        huge = (2 ** 40, 2 ** 40)
        assert np.array_equal(COOMatrix._order(rows, cols, huge),
                              np.lexsort((cols, rows)))


class TestArithmetic:
    def test_matvec_matches_dense(self, small):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(small.matvec(x), small.to_dense() @ x)

    def test_matvec_rejects_bad_length(self, small):
        with pytest.raises(FormatError):
            small.matvec(np.ones(4))

    def test_rmatvec(self, small):
        x = np.array([1.0, -1.0, 0.5])
        np.testing.assert_allclose(small.rmatvec(x), small.to_dense().T @ x)

    def test_transpose_round_trip(self, small):
        assert small.transpose().transpose() == small

    def test_scaled(self, small):
        np.testing.assert_allclose(small.scaled(2.0).to_dense(),
                                   2.0 * small.to_dense())

    def test_matvec_rectangular(self):
        m = COOMatrix((2, 4), [0, 1], [3, 0], [2.0, 7.0])
        y = m.matvec(np.array([1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(y, [2.0, 7.0])


class TestStructure:
    def test_row_counts(self, small):
        np.testing.assert_array_equal(small.row_counts(), [2, 1, 2])

    def test_col_counts(self, small):
        np.testing.assert_array_equal(small.col_counts(), [2, 1, 2])

    def test_nonempty_cols(self):
        m = COOMatrix((3, 5), [0, 2], [1, 4], [1.0, 1.0])
        np.testing.assert_array_equal(m.nonempty_cols(), [1, 4])

    def test_submatrix(self, small):
        sub = small.submatrix((0, 2), (0, 2))
        np.testing.assert_allclose(sub.to_dense(),
                                   small.to_dense()[:2, :2])

    def test_submatrix_rebases_indices(self, small):
        sub = small.submatrix((1, 3), (1, 3))
        np.testing.assert_allclose(sub.to_dense(),
                                   small.to_dense()[1:, 1:])

    def test_submatrix_invalid_range(self, small):
        with pytest.raises(FormatError):
            small.submatrix((2, 1), (0, 3))
        with pytest.raises(FormatError):
            small.submatrix((0, 5), (0, 3))

    def test_select_mask_length(self, small):
        with pytest.raises(FormatError):
            small.select(np.ones(2, dtype=bool))

    def test_diagonal(self, small):
        np.testing.assert_allclose(small.diagonal(), [1.0, 3.0, 5.0])

    def test_diagonal_with_gaps(self):
        m = COOMatrix((3, 3), [0, 1], [0, 2], [7.0, 1.0])
        np.testing.assert_allclose(m.diagonal(), [7.0, 0.0, 0.0])


class TestTriangles:
    @pytest.fixture
    def full(self):
        rng = np.random.default_rng(3)
        return COOMatrix.from_dense(rng.standard_normal((6, 6)))

    def test_strict_triangles_partition(self, full):
        lower = full.strictly_lower()
        upper = full.strictly_upper()
        diag_count = int(np.sum(full.rows == full.cols))
        assert lower.nnz + upper.nnz + diag_count == full.nnz

    def test_lower_triangular_dense(self, full):
        np.testing.assert_allclose(full.lower_triangular().to_dense(),
                                   np.tril(full.to_dense()))

    def test_upper_triangular_dense(self, full):
        np.testing.assert_allclose(full.upper_triangular().to_dense(),
                                   np.triu(full.to_dense()))

    def test_unit_triangles(self, full):
        lo = full.lower_triangular(unit=True)
        np.testing.assert_allclose(lo.diagonal(), np.ones(6))
        assert lo.is_lower_triangular()
        hi = full.upper_triangular(unit=True)
        np.testing.assert_allclose(hi.diagonal(), np.ones(6))
        assert hi.is_upper_triangular()

    def test_triangle_predicates(self, full):
        assert not full.is_lower_triangular()
        assert full.lower_triangular().is_lower_triangular()
        assert not full.lower_triangular().is_upper_triangular()

    def test_has_full_diagonal(self, full):
        assert full.lower_triangular(unit=True).has_full_diagonal()
        hollow = full.strictly_lower()
        assert not hollow.has_full_diagonal()

    def test_with_diagonal_custom_values(self, full):
        vals = np.arange(1.0, 7.0)
        m = full.with_diagonal(vals)
        np.testing.assert_allclose(m.diagonal(), vals)

    def test_with_diagonal_requires_square(self):
        m = COOMatrix((2, 3), [0], [1], [1.0])
        with pytest.raises(FormatError):
            m.with_diagonal()


class TestEquality:
    def test_order_insensitive(self):
        a = COOMatrix((2, 2), [0, 1], [1, 0], [2.0, 3.0])
        b = COOMatrix((2, 2), [1, 0], [0, 1], [3.0, 2.0])
        assert a == b

    def test_shape_mismatch(self):
        a = COOMatrix((2, 2), [0], [0], [1.0])
        b = COOMatrix((2, 3), [0], [0], [1.0])
        assert a != b

    def test_value_mismatch(self):
        a = COOMatrix((2, 2), [0], [0], [1.0])
        b = COOMatrix((2, 2), [0], [0], [2.0])
        assert a != b

    def test_not_equal_other_type(self):
        a = COOMatrix((2, 2), [0], [0], [1.0])
        assert (a == object()) is False or (a == object()) is NotImplemented
