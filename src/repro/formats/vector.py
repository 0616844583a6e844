"""Sparse vector container for the Level-1 Sparse BLAS kernels.

pSyncPIM's gather/scatter and SpAXPY/SpDOT kernels (Table III) operate on
sparse vectors stored, like matrices, as coordinate lists: an index array and
a value array. The container mirrors :class:`~repro.formats.coo.COOMatrix`
semantics — no duplicate indices, explicit zeros allowed, canonical ascending
order available on request.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import FormatError


def reject_nan(**operands) -> None:
    """Raise :class:`FormatError` if any named operand holds a NaN.

    ``None`` operands are skipped. ``±inf`` stays legal: min-plus
    semirings (SSSP) seed distances with ``inf``.
    """
    for name, values in operands.items():
        if (values is not None
                and np.isnan(np.asarray(values, dtype=np.float64)).any()):
            raise FormatError(f"{name} contains NaN")


class SparseVector:
    """A length-``n`` sparse vector as parallel (index, value) arrays."""

    __slots__ = ("length", "indices", "values")

    def __init__(self, length: int, indices: np.ndarray, values: np.ndarray,
                 check: bool = True) -> None:
        self.length = int(length)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        if check:
            self.validate()

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "SparseVector":
        """Gather the non-zeros of a dense vector (the GATHER kernel)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise FormatError("from_dense expects a 1-D array")
        idx = np.nonzero(np.abs(dense) > tol)[0]
        return cls(dense.size, idx, dense[idx], check=False)

    @classmethod
    def empty(cls, length: int) -> "SparseVector":
        return cls(length, np.zeros(0, dtype=np.int64), np.zeros(0),
                   check=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        return self.nnz / self.length if self.length else 0.0

    def validate(self) -> "SparseVector":
        """Check bounds, matching lengths and duplicate-free indices."""
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise FormatError("indices/values must be 1-D and equal length")
        if self.length < 0:
            raise FormatError("vector length must be non-negative")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.length:
                raise FormatError("sparse vector index out of range")
            if np.unique(self.indices).size != self.nnz:
                raise FormatError("duplicate indices are not allowed")
        return self

    def sorted(self) -> "SparseVector":
        """Copy with ascending indices (the order the SpVQs stream in)."""
        order = np.argsort(self.indices, kind="stable")
        return SparseVector(self.length, self.indices[order],
                            self.values[order], check=False)

    def to_dense(self) -> np.ndarray:
        """Scatter into a dense vector (the SCATTER kernel)."""
        out = np.zeros(self.length)
        out[self.indices] = self.values
        return out

    def dot_dense(self, dense: np.ndarray) -> float:
        """Reference SpDOT: ``x_sp . y_d``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (self.length,):
            raise FormatError("dense operand length mismatch")
        return float(np.dot(self.values, dense[self.indices]))

    def axpy_into(self, alpha: float, dense: np.ndarray) -> np.ndarray:
        """Reference SpAXPY: returns ``alpha * x_sp + y_d`` (new array)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (self.length,):
            raise FormatError("dense operand length mismatch")
        out = dense.copy()
        out[self.indices] += float(alpha) * self.values
        return out

    def scaled(self, alpha: float) -> "SparseVector":
        """Return ``alpha * x`` with the same sparsity structure."""
        return SparseVector(self.length, self.indices.copy(),
                            self.values * float(alpha), check=False)

    def __iter__(self):
        for i, v in zip(self.indices, self.values):
            yield int(i), float(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        if self.length != other.length or self.nnz != other.nnz:
            return False
        a, b = self.sorted(), other.sorted()
        return (np.array_equal(a.indices, b.indices)
                and np.allclose(a.values, b.values))

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseVector(length={self.length}, nnz={self.nnz})"


def intersect(a: SparseVector, b: SparseVector
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices common to *a* and *b* plus the aligned value arrays.

    This is the host-side reference for the VALU index calculator's
    *intersection* mode (paper §IV-B): binary ops only fire where both
    operands are present.
    """
    if a.length != b.length:
        raise FormatError("sparse vectors must share a length")
    sa, sb = a.sorted(), b.sorted()
    common, ia, ib = np.intersect1d(sa.indices, sb.indices,
                                    return_indices=True)
    return common, sa.values[ia], sb.values[ib]


def union(a: SparseVector, b: SparseVector
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of index sets with zero-filled missing values.

    The reference for the index calculator's *union* mode: where one side is
    absent, its value contributes the identity (zero) and the other side's
    value is copied through.
    """
    if a.length != b.length:
        raise FormatError("sparse vectors must share a length")
    merged = np.union1d(a.indices, b.indices)
    av = np.zeros(merged.size)
    bv = np.zeros(merged.size)
    av[np.searchsorted(merged, a.indices)] = a.values
    bv[np.searchsorted(merged, b.indices)] = b.values
    return merged, av, bv
