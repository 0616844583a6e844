"""COO stream padding: the ``-1`` index convention of bank regions.

The functional tier addresses bank contents through *named regions*
(matrix tile, input-vector tile, output tile, ...) instead of raw
row/column coordinates; the timing tier separately lays the same regions
out onto memory rows (:mod:`repro.core.mapping`). A COO stream region is
padded with ``row = -1`` entries so that every bank can be streamed for
the same number of beats (paper §V, "Conditional Exit Detection": empty
space in index arrays is filled with -1).
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError

#: Index value that marks padding in COO streams (paper §V).
PADDING_INDEX = -1


def padded_triples(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   total: int):
    """Pad COO arrays with ``-1`` index entries up to *total* elements."""
    n = rows.size
    if total < n:
        raise CapacityError(f"cannot pad {n} elements down to {total}")
    pad = total - n
    rows_out = np.concatenate(
        [rows, np.full(pad, PADDING_INDEX, dtype=np.int64)])
    cols_out = np.concatenate(
        [cols, np.full(pad, PADDING_INDEX, dtype=np.int64)])
    vals_out = np.concatenate([vals, np.zeros(pad)])
    return rows_out, cols_out, vals_out
