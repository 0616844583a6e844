"""Lane-stacked state containers for the vectorized engine.

The lane engine stores every bank's state *stacked across banks* — one
numpy row per bank — so a broadcast beat touches every bank with a
handful of masked array operations instead of a Python loop.

Per-bank semantics these containers uphold (and the differential tests
against :mod:`repro.check.reference` check bitwise):

* Dense regions zero-fill reads past a bank's own length; the 2-D store
  keeps the padding strip of shorter banks at exactly 0.0 by masking
  every write against the per-lane length.
* Triple (COO) regions clip group reads at each bank's length and raise
  :class:`~repro.errors.CapacityError` on write overflow.
* Queues are fixed-capacity circular buffers with FIFO order per lane;
  pushes to a full lane drop silently (the predicated push).

All value storage is float64 and index storage int64 (the Value format
governs lane counts and queue capacities, not the reference numerics).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import CapacityError, ExecutionError


class LaneQueue:
    """One sparse vector queue per lane, as circular (row, col, val) bufs."""

    __slots__ = ("capacity", "rows", "cols", "vals", "head", "count")

    def __init__(self, num_lanes: int, capacity: int) -> None:
        if capacity <= 0:
            raise ExecutionError("queue capacity must be positive")
        self.capacity = capacity
        self.rows = np.zeros((num_lanes, capacity), dtype=np.int64)
        self.cols = np.zeros((num_lanes, capacity), dtype=np.int64)
        self.vals = np.zeros((num_lanes, capacity))
        self.head = np.zeros(num_lanes, dtype=np.int64)
        self.count = np.zeros(num_lanes, dtype=np.int64)

    def push(self, lanes: np.ndarray, rows, cols, vals) -> None:
        """Predicated push into *lanes*; full lanes drop silently."""
        if lanes.size == 0:
            return
        rows = np.broadcast_to(rows, lanes.shape)
        cols = np.broadcast_to(cols, lanes.shape)
        vals = np.broadcast_to(vals, lanes.shape)
        ok = self.count[lanes] < self.capacity
        if not ok.all():
            lanes = lanes[ok]
            rows, cols, vals = rows[ok], cols[ok], vals[ok]
            if lanes.size == 0:
                return
        pos = (self.head[lanes] + self.count[lanes]) % self.capacity
        self.rows[lanes, pos] = rows
        self.cols[lanes, pos] = cols
        self.vals[lanes, pos] = vals
        self.count[lanes] += 1

    def pop(self, lanes: np.ndarray):
        """Pop the head triple of each lane (caller ensures non-empty)."""
        pos = self.head[lanes]
        r = self.rows[lanes, pos]
        c = self.cols[lanes, pos]
        v = self.vals[lanes, pos]
        self.head[lanes] = (pos + 1) % self.capacity
        self.count[lanes] -= 1
        return r, c, v

    def peek(self, lanes: np.ndarray):
        pos = self.head[lanes]
        return (self.rows[lanes, pos], self.cols[lanes, pos],
                self.vals[lanes, pos])

    def pop_up_to(self, lanes: np.ndarray, limit: int):
        """Pop at most *limit* triples per lane, in FIFO order.

        Returns ``(rows2d, cols2d, vals2d, popped)``: the 2-D arrays are
        ``(len(lanes), max(popped))`` gathers in pop order; entries at
        column ``j >= popped[i]`` are unspecified.
        """
        popped = np.minimum(self.count[lanes], limit)
        width = int(popped.max()) if lanes.size else 0
        pos = (self.head[lanes][:, None]
               + np.arange(width)) % self.capacity
        rows_idx = lanes[:, None]
        r = self.rows[rows_idx, pos]
        c = self.cols[rows_idx, pos]
        v = self.vals[rows_idx, pos]
        self.head[lanes] = (self.head[lanes] + popped) % self.capacity
        self.count[lanes] -= popped
        return r, c, v, popped

    def clear(self) -> None:
        self.head[:] = 0
        self.count[:] = 0

    def snapshot(self, lane: int):
        """FIFO contents of one lane as (row, col, value) tuples."""
        n = int(self.count[lane])
        pos = (int(self.head[lane]) + np.arange(n)) % self.capacity
        return [(int(self.rows[lane, p]), int(self.cols[lane, p]),
                 float(self.vals[lane, p])) for p in pos]


class DenseLanes:
    """A dense region stacked over lanes: (L, width) data + lane lengths."""

    __slots__ = ("name", "data", "lengths")

    def __init__(self, name: str, per_lane) -> None:
        self.name = name
        arrays = [np.asarray(a, dtype=np.float64) for a in per_lane]
        for a in arrays:
            if a.ndim != 1:
                raise ExecutionError("dense regions are one-dimensional")
        self.lengths = np.array([a.size for a in arrays], dtype=np.int64)
        width = int(self.lengths.max()) if arrays else 0
        self.data = np.zeros((len(arrays), width))
        for i, a in enumerate(arrays):
            self.data[i, :a.size] = a

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def read_window(self, start: int, count: int,
                    lanes: np.ndarray) -> np.ndarray:
        """Per-lane window read; out-of-range positions read as zeros.

        The padding strip of shorter lanes is kept at 0.0 by the write
        paths, so a plain slice already reads zeros past a bank's end.
        """
        if start < 0 or count < 0:
            raise ExecutionError("negative dense region access")
        out = np.zeros((lanes.size, count))
        end = min(start + count, self.width)
        if start < end:
            out[:, :end - start] = self.data[lanes, start:end]
        return out

    def write_window(self, start: int, values: np.ndarray,
                     lanes: np.ndarray) -> None:
        """Per-lane window write; beyond-own-length writes are dropped."""
        if start < 0:
            raise ExecutionError("negative dense region access")
        end = min(start + values.shape[1], self.width)
        if start >= end:
            return
        cols = np.arange(start, end)
        block = self.data[lanes[:, None], cols]
        mask = cols[None, :] < self.lengths[lanes, None]
        np.copyto(block, values[:, :end - start], where=mask)
        self.data[lanes[:, None], cols] = block

    def read_scalar(self, index: np.ndarray,
                    lanes: np.ndarray) -> np.ndarray:
        """Per-lane single-element read; out of range reads zero."""
        index = np.broadcast_to(index, lanes.shape)
        ok = (index >= 0) & (index < self.lengths[lanes])
        out = np.zeros(lanes.size)
        out[ok] = self.data[lanes[ok], index[ok]]
        return out

    def write_scalar(self, index, values: np.ndarray,
                     lanes: np.ndarray) -> None:
        """Per-lane single-element write; out-of-length writes dropped."""
        index = np.broadcast_to(index, lanes.shape)
        ok = (index >= 0) & (index < self.lengths[lanes])
        self.data[lanes[ok], index[ok]] = values[ok]


class TripleLanes:
    """A COO stream region stacked over lanes, with per-lane lengths."""

    __slots__ = ("name", "rows", "cols", "vals", "lengths")

    def __init__(self, name: str, per_lane) -> None:
        self.name = name
        triples = []
        for rows, cols, vals in per_lane:
            r = np.asarray(rows, dtype=np.int64)
            c = np.asarray(cols, dtype=np.int64)
            v = np.asarray(vals, dtype=np.float64)
            if not (r.shape == c.shape == v.shape):
                raise ExecutionError("triple region arrays must align")
            triples.append((r, c, v))
        self.lengths = np.array([r.size for r, _, _ in triples],
                                dtype=np.int64)
        width = int(self.lengths.max()) if triples else 0
        self.rows = np.zeros((len(triples), width), dtype=np.int64)
        self.cols = np.zeros((len(triples), width), dtype=np.int64)
        self.vals = np.zeros((len(triples), width))
        for i, (r, c, v) in enumerate(triples):
            self.rows[i, :r.size] = r
            self.cols[i, :c.size] = c
            self.vals[i, :v.size] = v

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def read_group(self, cursors: np.ndarray, size: int,
                   lanes: np.ndarray):
        """Group read at per-lane element *cursors*, clipped per lane.

        Returns ``(rows2d, cols2d, vals2d, lens)``; entries at column
        ``j >= lens[i]`` are unspecified (past that bank's stream).
        """
        lens = np.clip(self.lengths[lanes] - cursors, 0, size)
        if self.width == 0:
            shape = (lanes.size, size)
            return (np.zeros(shape, dtype=np.int64),
                    np.zeros(shape, dtype=np.int64),
                    np.zeros(shape), lens)
        pos = np.minimum(cursors[:, None] + np.arange(size),
                         self.width - 1)
        idx = lanes[:, None]
        return self.rows[idx, pos], self.cols[idx, pos], \
            self.vals[idx, pos], lens

    def write_at(self, cursors: np.ndarray, rows2d, cols2d, vals2d,
                 counts: np.ndarray, lanes: np.ndarray) -> None:
        """Write ``counts[i]`` elements at each lane's cursor offset."""
        over = cursors + counts > self.lengths[lanes]
        if over.any():
            i = int(np.flatnonzero(over)[0])
            raise CapacityError(
                f"triple region {self.name!r} overflow: writing "
                f"[{int(cursors[i])}, {int(cursors[i] + counts[i])}) "
                f"into {int(self.lengths[lanes[i]])} slots")
        for j in range(int(counts.max()) if lanes.size else 0):
            live = counts > j
            if not live.any():
                break
            tgt = lanes[live]
            pos = cursors[live] + j
            self.rows[tgt, pos] = rows2d[live, j]
            self.cols[tgt, pos] = cols2d[live, j]
            self.vals[tgt, pos] = vals2d[live, j]


class LaneMemory:
    """All named regions of every bank, stacked lane-wise."""

    def __init__(self, num_lanes: int) -> None:
        self.num_lanes = num_lanes
        self._regions: Dict[str, object] = {}

    def add_dense(self, name: str, per_lane) -> DenseLanes:
        if len(per_lane) != self.num_lanes:
            raise ExecutionError("need one array per bank")
        region = DenseLanes(name, per_lane)
        self._regions[name] = region
        return region

    def add_triples(self, name: str, per_lane) -> TripleLanes:
        if len(per_lane) != self.num_lanes:
            raise ExecutionError("need one (rows, cols, vals) per bank")
        region = TripleLanes(name, per_lane)
        self._regions[name] = region
        return region

    def dense(self, name: str) -> DenseLanes:
        region = self._get(name)
        if not isinstance(region, DenseLanes):
            raise ExecutionError(f"region {name!r} is not dense")
        return region

    def triples(self, name: str) -> TripleLanes:
        region = self._get(name)
        if not isinstance(region, TripleLanes):
            raise ExecutionError(f"region {name!r} is not a COO stream")
        return region

    def _get(self, name: str):
        try:
            return self._regions[name]
        except KeyError:
            raise ExecutionError(f"bank has no region {name!r}") from None

    def items(self) -> Tuple[Tuple[str, object], ...]:
        """(name, region) pairs in installation order."""
        return tuple(self._regions.items())
