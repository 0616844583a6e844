"""The repo's one stable-sort idiom.

Grouping coordinates, dropping duplicates and ordering tiles or levels all
need the *stable* permutation of an integer key array: equal keys keep
their input order. numpy's stable argsort is several times slower than
its unstable sort at the sizes the Table IX generators reach, so
:func:`stable_order` buys stability another way. It packs each key with
its position into one int64, ``(key - min) << b | position`` with
``2**b >= n``, and sorts that. The packed values are all distinct, so
every sort algorithm returns the same order, and it is the stable one:
equal keys compare by position. The low ``b`` bits of the sorted values
are the permutation.

Packing has a fixed cost of a few passes, so short key arrays, below
:data:`PACKED_MIN_KEYS`, go straight to the stable argsort. The planner
and the SpTRSV solver sort dozens of such arrays per operation
(distribution orders, small update blocks, leaf levels).
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Fewest keys the packed sort is used for; shorter arrays sort faster
#: with the stable argsort than the packing passes cost.
PACKED_MIN_KEYS = 1024


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Exactly the stable ``np.argsort`` of a 1-D integer *keys* array.

    Short arrays, keys whose packed value could overflow int64 and
    non-integer keys use the stable argsort itself.
    """
    keys = np.asarray(keys)
    n = keys.size
    if n >= PACKED_MIN_KEYS and keys.dtype.kind in "iu":
        lo, hi = int(keys.min()), int(keys.max())
        bits = (n - 1).bit_length()
        if hi <= _INT64_MAX and hi - lo <= _INT64_MAX >> bits:
            # One copy, then in place: a temporary per step would hold
            # another n-element array at the generators' peak.
            packed = keys.astype(np.int64)
            packed -= lo
            packed <<= bits
            packed |= np.arange(n, dtype=np.int64)
            packed.sort()
            packed &= (1 << bits) - 1
            return packed
    return np.argsort(keys, kind="stable")


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Positions where a sorted key array starts a new run of equal keys.

    Taken at a :func:`stable_order` permutation, the starts pick each
    key's first occurrence, as ``np.unique`` does with ``return_index``.
    """
    change = np.empty(sorted_keys.size, dtype=bool)
    change[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
    return np.flatnonzero(change)


__all__ = ["group_starts", "stable_order"]
