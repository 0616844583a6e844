"""Coordinate-list (COO) sparse matrix container.

pSyncPIM stores matrices in COO because, for the <1% densities its HPC
workloads exhibit, coordinate tuples avoid CSR/CSC metadata indirection that
would force remote bank accesses (paper §IV-C). This module provides the COO
container every other subsystem builds on: validation, canonical ordering
(row-major for SpMV, column-major for the SpTRSV mapping of Fig. 7),
arithmetic used by golden references, and structural queries used by the
partitioners.

The container wraps three parallel numpy arrays (``rows``, ``cols``,
``vals``). It is deliberately *not* a scipy wrapper: the simulator needs
stable element order and explicit-zero semantics that scipy's ``coo_matrix``
does not guarantee, and the substrate must stand alone per the reproduction
brief. Conversions to/from scipy live in :mod:`repro.formats.conversions`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import FormatError
from .order import stable_order


class COOMatrix:
    """A sparse matrix as parallel (row, col, value) coordinate arrays.

    Elements may appear in any order unless a canonical order has been
    requested via :meth:`sorted_rows` / :meth:`sorted_cols`. Duplicate
    coordinates are rejected at validation time because the PIM kernels
    assume each coordinate contributes exactly one multiply-accumulate.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, shape: Tuple[int, int], rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray,
                 check: bool = True) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        zero = np.zeros(0)
        return cls(shape, zero, zero, zero, check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        """Extract the non-zeros of a dense 2-D array.

        Entries with ``abs(value) <= tol`` are treated as structural zeros.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        return cls(dense.shape, rows, cols, dense[mask])

    @classmethod
    def from_triplets(cls, shape: Tuple[int, int],
                      triplets) -> "COOMatrix":
        """Build from an iterable of ``(row, col, value)`` tuples."""
        items = list(triplets)
        if not items:
            return cls.empty(shape)
        rows, cols, vals = (np.asarray(seq) for seq in zip(*items))
        return cls(shape, rows, cols, vals)

    def copy(self) -> "COOMatrix":
        """A deep copy; mutating the copy never affects the original."""
        return COOMatrix(self.shape, self.rows.copy(), self.cols.copy(),
                         self.vals.copy(), check=False)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (possibly explicit-zero) entries."""
        return int(self.rows.size)

    @property
    def density(self) -> float:
        """nnz divided by the full matrix volume (0 for empty shapes)."""
        volume = self.shape[0] * self.shape[1]
        return self.nnz / volume if volume else 0.0

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.3g})")

    def __iter__(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate stored entries in storage order."""
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield int(r), int(c), float(v)

    def __eq__(self, other: object) -> bool:
        """Structural and numerical equality under canonical row order."""
        if not isinstance(other, COOMatrix):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        a, b = self.sorted_rows(), other.sorted_rows()
        return (np.array_equal(a.rows, b.rows)
                and np.array_equal(a.cols, b.cols)
                and np.allclose(a.vals, b.vals))

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # validation and canonical orders
    # ------------------------------------------------------------------
    def validate(self) -> "COOMatrix":
        """Check array shapes, index bounds and duplicate coordinates."""
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise FormatError("rows/cols/vals must have identical length")
        if self.rows.ndim != 1:
            raise FormatError("coordinate arrays must be one-dimensional")
        if self.shape[0] < 0 or self.shape[1] < 0:
            raise FormatError(f"negative shape {self.shape}")
        if self.nnz:
            if self.rows.min() < 0 or self.rows.max() >= self.shape[0]:
                raise FormatError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.shape[1]:
                raise FormatError("column index out of range")
            keys = self.rows * self.shape[1] + self.cols
            if np.unique(keys).size != keys.size:
                raise FormatError("duplicate coordinates are not allowed")
        return self

    def sorted_rows(self) -> "COOMatrix":
        """Return a copy sorted row-major (row, then column) — SpMV order.

        Already-sorted matrices are returned as-is (no copy): planners call
        this on every entry and repeated sorts of canonical inputs were
        pure overhead. Callers must treat the result as read-only, which
        they already did for the copying path's arrays.
        """
        if self._is_sorted(self.rows, self.cols):
            return self
        order = self._order(self.rows, self.cols, self.shape)
        return COOMatrix(self.shape, self.rows[order], self.cols[order],
                         self.vals[order], check=False)

    def sorted_cols(self) -> "COOMatrix":
        """Return a copy sorted column-major — the Fig. 7 SpTRSV order.

        Like :meth:`sorted_rows`, returns ``self`` when already in order.
        """
        if self._is_sorted(self.cols, self.rows):
            return self
        order = self._order(self.cols, self.rows, self.shape[::-1])
        return COOMatrix(self.shape, self.rows[order], self.cols[order],
                         self.vals[order], check=False)

    @staticmethod
    def _order(major: np.ndarray, minor: np.ndarray,
               shape: Tuple[int, int]) -> np.ndarray:
        """The stable (major, minor) permutation, ``np.lexsort((minor,
        major))``, as one :func:`stable_order` of ``major * n_minor +
        minor``.

        In-range coordinates make the fused key order-preserving and
        equal only for equal coordinates, so the permutation is the
        same; a shape whose keys could overflow int64 uses ``lexsort``.
        """
        n_major, n_minor = shape
        if n_major * n_minor > np.iinfo(np.int64).max:
            return np.lexsort((minor, major))
        # One copy, then in place: a temporary per step measurably
        # raised the peak RSS of repeated matrix generation.
        key = major.astype(np.int64)
        key *= n_minor
        key += minor
        return stable_order(key)

    @staticmethod
    def _is_sorted(major: np.ndarray, minor: np.ndarray) -> bool:
        """True when entries are already (major, minor) lexicographic."""
        if major.size < 2:
            return True
        dm = np.diff(major)
        if np.any(dm < 0):
            return False
        return not np.any((dm == 0) & (np.diff(minor) < 0))

    # ------------------------------------------------------------------
    # dense interop and reference arithmetic (golden models for tests)
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV ``y = A @ x`` via scatter-add."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise FormatError(
                f"vector length {x.shape} does not match matrix {self.shape}")
        y = np.zeros(self.shape[0])
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Reference transposed SpMV ``y = A.T @ x``."""
        return self.transpose().matvec(x)

    def transpose(self) -> "COOMatrix":
        """Swap rows and columns."""
        return COOMatrix((self.shape[1], self.shape[0]), self.cols.copy(),
                         self.rows.copy(), self.vals.copy(), check=False)

    def scaled(self, alpha: float) -> "COOMatrix":
        """Return ``alpha * A`` with identical structure."""
        return COOMatrix(self.shape, self.rows.copy(), self.cols.copy(),
                         self.vals * float(alpha), check=False)

    # ------------------------------------------------------------------
    # structural queries used by the partitioners
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """nnz per matrix row, length ``shape[0]``."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """nnz per matrix column, length ``shape[1]``."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    def nonempty_cols(self) -> np.ndarray:
        """Sorted array of column indices that hold at least one non-zero."""
        return np.unique(self.cols)

    def select(self, mask: np.ndarray) -> "COOMatrix":
        """Keep only the entries where *mask* is true (same shape)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.rows.shape:
            raise FormatError("mask length must equal nnz")
        return COOMatrix(self.shape, self.rows[mask], self.cols[mask],
                         self.vals[mask], check=False)

    def submatrix(self, row_range: Tuple[int, int],
                  col_range: Tuple[int, int]) -> "COOMatrix":
        """Extract ``A[r0:r1, c0:c1]`` with re-based indices."""
        r0, r1 = row_range
        c0, c1 = col_range
        if not (0 <= r0 <= r1 <= self.shape[0]
                and 0 <= c0 <= c1 <= self.shape[1]):
            raise FormatError(f"invalid ranges {row_range} x {col_range} for "
                              f"shape {self.shape}")
        mask = ((self.rows >= r0) & (self.rows < r1)
                & (self.cols >= c0) & (self.cols < c1))
        return COOMatrix((r1 - r0, c1 - c0), self.rows[mask] - r0,
                         self.cols[mask] - c0, self.vals[mask], check=False)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        n = min(self.shape)
        diag = np.zeros(n)
        mask = self.rows == self.cols
        diag[self.rows[mask]] = self.vals[mask]
        return diag

    def strictly_lower(self) -> "COOMatrix":
        """Entries below the main diagonal (structure for L - I)."""
        return self.select(self.rows > self.cols)

    def strictly_upper(self) -> "COOMatrix":
        """Entries above the main diagonal (structure for U - I)."""
        return self.select(self.rows < self.cols)

    def lower_triangular(self, unit: bool = False) -> "COOMatrix":
        """The lower triangle including the diagonal.

        With ``unit=True`` the stored diagonal is replaced by ones, matching
        the unitriangular matrices pSyncPIM's SpTRSV operates on.
        """
        tri = self.select(self.rows >= self.cols)
        if unit:
            tri = _with_unit_diagonal(tri)
        return tri

    def upper_triangular(self, unit: bool = False) -> "COOMatrix":
        """The upper triangle including the diagonal (see lower variant)."""
        tri = self.select(self.rows <= self.cols)
        if unit:
            tri = _with_unit_diagonal(tri)
        return tri

    def is_lower_triangular(self) -> bool:
        """True when no entry lies above the main diagonal."""
        return bool(np.all(self.rows >= self.cols))

    def is_upper_triangular(self) -> bool:
        """True when no entry lies below the main diagonal."""
        return bool(np.all(self.rows <= self.cols))

    def has_full_diagonal(self) -> bool:
        """True when every diagonal position stores a non-zero value."""
        if not self.is_square:
            return False
        diag = self.diagonal()
        return bool(np.all(diag != 0.0))

    def with_diagonal(self, values: Optional[np.ndarray] = None) -> "COOMatrix":
        """Return a copy whose diagonal is replaced by *values* (default 1).

        Used to rebuild unitriangular factors from the stored ``L - I``
        representation (paper §VI-B keeps unit diagonals implicit).
        """
        if not self.is_square:
            raise FormatError("with_diagonal requires a square matrix")
        n = self.shape[0]
        if values is None:
            values = np.ones(n)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n,):
            raise FormatError("diagonal length must match matrix order")
        off = self.select(self.rows != self.cols)
        idx = np.arange(n)
        rows = np.concatenate([off.rows, idx])
        cols = np.concatenate([off.cols, idx])
        vals = np.concatenate([off.vals, values])
        return COOMatrix(self.shape, rows, cols, vals, check=False)


def _with_unit_diagonal(tri: COOMatrix) -> COOMatrix:
    """Replace the diagonal of a triangular COO matrix with ones."""
    return tri.with_diagonal(np.ones(tri.shape[0]))
