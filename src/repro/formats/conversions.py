"""Conversions between repro containers and scipy.sparse.

scipy is only used at the edges — golden references in tests and convenience
for users who already hold scipy matrices. The simulator itself never depends
on scipy types, so ``scipy.sparse`` is imported on first conversion: a
process that never converts does not pay its ~20 MB of resident memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import FormatError
from .coo import COOMatrix
from .csr import CSRMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp


def coo_to_scipy(matrix: COOMatrix) -> sp.coo_matrix:
    """Convert to ``scipy.sparse.coo_matrix`` (copies the arrays)."""
    import scipy.sparse as sp
    return sp.coo_matrix(
        (matrix.vals.copy(), (matrix.rows.copy(), matrix.cols.copy())),
        shape=matrix.shape)


def scipy_to_coo(matrix) -> COOMatrix:
    """Convert any scipy sparse matrix to :class:`COOMatrix`.

    Duplicate coordinates are summed first, matching scipy's implicit
    semantics, because :class:`COOMatrix` forbids duplicates.
    """
    import scipy.sparse as sp
    if not sp.issparse(matrix):
        raise FormatError("scipy_to_coo expects a scipy sparse matrix")
    coo = matrix.tocoo()
    coo.sum_duplicates()
    return COOMatrix(coo.shape, coo.row.astype(np.int64),
                     coo.col.astype(np.int64), coo.data.astype(np.float64))


def csr_to_scipy(matrix: CSRMatrix) -> sp.csr_matrix:
    """Convert to ``scipy.sparse.csr_matrix`` (copies the arrays)."""
    import scipy.sparse as sp
    return sp.csr_matrix(
        (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()),
        shape=matrix.shape)


def scipy_to_csr(matrix) -> CSRMatrix:
    """Convert any scipy sparse matrix to :class:`CSRMatrix`."""
    return CSRMatrix.from_coo(scipy_to_coo(matrix))
