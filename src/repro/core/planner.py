"""Array helpers shared by the vectorized planning front-end.

The host-side planning tier — cutting a matrix into 1 KB tiles
(:func:`repro.core.partition.partition`), arranging tiles into lock-step
rounds (:func:`repro.core.distribution.distribute`) and computing SpTRSV
dependency levels (:func:`repro.core.sptrsv.level_schedule`) — runs as
single-pass array pipelines (global lexsort + unique / searchsorted
grouping, frontier sweeps, argsort bookkeeping). Their bitwise oracles,
per-segment / per-tile / per-row Python loops, are in
:mod:`repro.check.oracles` and used by tests only.

This module imports none of the planning modules, so they can be loaded
in any order.
"""

from __future__ import annotations

import numpy as np

from ..formats import stable_order


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[k], ends[k])`` index ranges into one array.

    The vectorized equivalent of ``np.concatenate([np.arange(s, e) ...])``
    used to gather multi-slice groups (per-column element runs, per-block
    key runs) without a Python loop.
    """
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = starts - np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(offsets, lens) + np.arange(total, dtype=np.int64)


def stable_desc_order(weights: np.ndarray) -> np.ndarray:
    """Indices sorting *weights* descending, ties in original order.

    Matches ``sorted(range(n), key=lambda i: -weights[i])`` exactly (both
    are stable), so the fast distribution paths preserve the scalar
    oracle's tie-break order.
    """
    return stable_order(-np.asarray(weights, dtype=np.int64))


__all__ = ["concat_ranges", "stable_desc_order"]
