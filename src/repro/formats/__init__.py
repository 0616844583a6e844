"""Sparse matrix/vector substrate: containers, I/O, generators, suite.

Public surface of :mod:`repro.formats`:

* :class:`COOMatrix`, :class:`CSRMatrix`, :class:`SparseVector` — containers.
* :func:`read_matrix_market` / :func:`write_matrix_market` — .mtx I/O.
* :mod:`repro.formats.generators` — synthetic pattern generators.
* Table IX registry: :data:`TABLE_IX`, :func:`suite_names`,
  :func:`matrix_spec`, :func:`matrices_for`, :func:`generate`.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .vector import SparseVector, intersect, reject_nan, union
from .bitmap import BitmapMatrix, best_format, coo_footprint_bytes
from .conversions import (coo_to_scipy, scipy_to_coo, csr_to_scipy,
                          scipy_to_csr)
from .matrix_market import (read_matrix_market, reads_matrix_market,
                            write_matrix_market, writes_matrix_market)
from .suite import (TABLE_IX, MatrixSpec, generate, matrices_for,
                    matrix_spec, suite_names)

__all__ = [
    "COOMatrix", "CSRMatrix", "SparseVector", "intersect", "reject_nan",
    "union",
    "BitmapMatrix", "best_format", "coo_footprint_bytes",
    "coo_to_scipy", "scipy_to_coo", "csr_to_scipy", "scipy_to_csr",
    "read_matrix_market", "reads_matrix_market", "write_matrix_market",
    "writes_matrix_market",
    "TABLE_IX", "MatrixSpec", "generate", "matrices_for", "matrix_spec",
    "suite_names",
]
