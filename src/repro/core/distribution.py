"""Tile-to-bank distribution policies (§V and the Fig. 8 discussion).

After partitioning, tiles must be assigned to the processing units. Under
all-bank control the execution time of a *round* (one tile per bank running
in lock step) is set by the largest tile in it, and every tile a bank
receives costs input replication and output accumulation over the external
interface.

Two policies are provided:

* ``"paper"`` — tiles are placed in (row-block, column-block) order,
  one per bank, filling rounds sequentially. This is the paper's
  replication/accumulation-minimising placement: tiles of the same row
  block land on consecutive banks, and no tile is split or duplicated. Its
  known weakness is under-utilisation when a matrix yields fewer tiles than
  banks (the bcsstk32 observation in §VII-B: 101 of 256 banks used).
* ``"balanced"`` — greedy longest-processing-time assignment: rounds are
  built by sorting tiles by nnz and placing each into the currently
  lightest bank. Used by the ablation benchmark to quantify what evenness
  would buy.

Round formation is array bookkeeping (argsort orders, sliced rounds, a
load heap); its bitwise oracles are per-tile Python loops in
:mod:`repro.check.oracles`, used by tests only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import MappingError
from .partition import PartitionPlan, SubMatrix
from .planner import stable_desc_order


@dataclass
class Assignment:
    """Tiles arranged into lock-step rounds: ``rounds[r][b]`` is bank *b*'s
    tile in round *r* (or None)."""

    num_banks: int
    rounds: List[List[Optional[SubMatrix]]]
    policy: str

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def banks_used(self) -> int:
        """Banks that received at least one tile (utilisation metric)."""
        used = set()
        for round_tiles in self.rounds:
            used.update(b for b, tile in enumerate(round_tiles)
                        if tile is not None)
        return len(used)

    def round_batch_elements(self, round_index: int) -> int:
        """nnz of the largest tile in a round — its lock-step length."""
        tiles = self.rounds[round_index]
        return max((tile.nnz for tile in tiles if tile is not None),
                   default=0)

    @property
    def critical_path_elements(self) -> int:
        """Sum over rounds of the per-round maxima: the lock-step cost."""
        return sum(self.round_batch_elements(r)
                   for r in range(self.num_rounds))

    @property
    def total_elements(self) -> int:
        return sum(tile.nnz for round_tiles in self.rounds
                   for tile in round_tiles if tile is not None)

    @property
    def imbalance(self) -> float:
        """critical path / ideal (total / banks); 1.0 is perfect balance."""
        ideal = self.total_elements / self.num_banks
        if ideal == 0:
            return 1.0
        return self.critical_path_elements / ideal

    def per_bank_elements(self) -> np.ndarray:
        """Total nnz each bank processes over all rounds."""
        loads = np.zeros(self.num_banks, dtype=np.int64)
        for round_tiles in self.rounds:
            for b, tile in enumerate(round_tiles):
                if tile is not None:
                    loads[b] += tile.nnz
        return loads


@dataclass
class ChannelAssignment:
    """Tiles sharded across pseudo-channels, one :class:`Assignment` each.

    Channels never interact mid-kernel (each pseudo-channel has its own
    command bus), so the shards are independent lock-step schedules; the
    device-level critical path is the *maximum* over shards, not the sum.
    """

    num_channels: int
    banks_per_channel: int
    shards: List[Assignment]
    policy: str

    @property
    def num_banks(self) -> int:
        return self.num_channels * self.banks_per_channel

    @property
    def num_rounds(self) -> int:
        return max(shard.num_rounds for shard in self.shards)

    @property
    def banks_used(self) -> int:
        return sum(shard.banks_used for shard in self.shards)

    @property
    def total_elements(self) -> int:
        return sum(shard.total_elements for shard in self.shards)

    @property
    def critical_path_elements(self) -> int:
        """Lock-step cost of the busiest channel (channels run in parallel)."""
        return max(shard.critical_path_elements for shard in self.shards)

    @property
    def imbalance(self) -> float:
        """busiest channel's critical path / ideal (total / banks)."""
        ideal = self.total_elements / self.num_banks
        if ideal == 0:
            return 1.0
        return self.critical_path_elements / ideal

    def per_bank_elements(self) -> np.ndarray:
        """Per-unit loads, channel-major: unit ``c * bpc + b``."""
        return np.concatenate(
            [shard.per_bank_elements() for shard in self.shards])


def split_oversized(tiles: Sequence[SubMatrix],
                    nnz_cap: int) -> List[SubMatrix]:
    """Split tiles whose element count exceeds *nnz_cap*.

    This is the workload-evenness half of the paper's distribution
    algorithm: the 1 KB constraint bounds a tile's *dimensions*, not its
    population, so hub rows produce heavy tiles that would set the
    lock-step critical path. Splitting a heavy tile duplicates its input
    segment (more replication traffic — the trade-off §V discusses) but
    spreads its elements over several banks. Elements stay row-sorted.
    """
    if nnz_cap <= 0:
        raise MappingError("nnz cap must be positive")
    out: List[SubMatrix] = []
    for tile in tiles:
        if tile.nnz <= nnz_cap:
            out.append(tile)
            continue
        pieces = -(-tile.nnz // nnz_cap)
        share = -(-tile.nnz // pieces)
        for piece in range(pieces):
            lo = piece * share
            hi = min(lo + share, tile.nnz)
            if lo >= hi:
                continue
            out.append(SubMatrix(row_range=tile.row_range,
                                 global_cols=tile.global_cols,
                                 rows=tile.rows[lo:hi],
                                 cols=tile.cols[lo:hi],
                                 vals=tile.vals[lo:hi]))
    return out


def distribute(plan: PartitionPlan, num_banks: int,
               policy: str = "paper",
               balance_slack: float = 0.6) -> Assignment:
    """Assign a partition plan's tiles to *num_banks* banks.

    Under the default policy, tiles heavier than ``balance_slack`` times
    the ideal per-bank share are first split (see :func:`split_oversized`),
    then placed round-robin in (row-block, column-block) order. Pass
    ``balance_slack=0`` to disable splitting (the naive-distribution
    ablation).
    """
    assignment = _distribute_tiles(plan.tiles, num_banks, policy,
                                   balance_slack, total_nnz=plan.total_nnz)
    _check(assignment.total_elements, plan.total_nnz)
    return assignment


def _distribute_tiles(tiles: Sequence[SubMatrix], num_banks: int,
                      policy: str, balance_slack: float,
                      total_nnz: Optional[int] = None) -> Assignment:
    """Round-formation core shared by :func:`distribute` (whole plan) and
    :func:`shard_channels` (one channel's tile shard)."""
    if num_banks <= 0:
        raise MappingError("need at least one bank")
    if total_nnz is None:
        total_nnz = int(_tile_nnz(tiles).sum()) if tiles else 0
    if policy == "paper":
        if balance_slack and total_nnz:
            cap = max(16, math.ceil(total_nnz / num_banks
                                    * balance_slack))
            tiles = split_oversized(tiles, cap)
        # Descending-size round packing: each lock-step round costs its
        # heaviest tile, so grouping similar-sized tiles makes the round
        # maxima telescope instead of every round paying for one straggler.
        rounds = _round_robin_fast(_by_desc_nnz(tiles), num_banks)
    elif policy == "naive":
        rounds = _round_robin_fast(tiles, num_banks)
    elif policy == "balanced":
        rounds = _balanced_fast(tiles, num_banks)
    else:
        raise MappingError(f"unknown distribution policy {policy!r}")
    return Assignment(num_banks=num_banks, rounds=rounds, policy=policy)


def shard_channels(plan: PartitionPlan, num_channels: int,
                   banks_per_channel: int = 16,
                   policy: str = "paper",
                   balance_slack: float = 0.6) -> ChannelAssignment:
    """Shard a partition plan across *num_channels* pseudo-channels.

    Two-level distribution: tiles are first assigned to channels by greedy
    LPT (stable descending-nnz order into the currently lightest channel —
    the same machinery as the ``"balanced"`` bank policy, lifted to channel
    granularity), then each channel's shard runs through the ordinary
    per-bank :func:`distribute` pass under *policy*.

    Under the paper policy, oversized tiles are pre-split against the
    *device-wide* cap (ideal share over all ``num_channels *
    banks_per_channel`` units) before channel selection, so a single hub
    tile cannot capsize one channel. Each channel keeps its tiles in
    original plan order, which makes ``num_channels=1`` collapse exactly to
    ``distribute(plan, banks_per_channel)`` — the single-channel bitwise
    anchor the differential tests pin.
    """
    if num_channels <= 0:
        raise MappingError("need at least one channel")
    if banks_per_channel <= 0:
        raise MappingError("need at least one bank per channel")
    tiles: Sequence[SubMatrix] = plan.tiles
    total_banks = num_channels * banks_per_channel
    if policy == "paper" and balance_slack and plan.total_nnz:
        cap = max(16, math.ceil(plan.total_nnz / total_banks
                                * balance_slack))
        tiles = split_oversized(tiles, cap)
    nnz = _tile_nnz(tiles)
    order = stable_desc_order(nnz)
    channel_of = np.zeros(len(tiles), dtype=np.int64)
    heap = [(0, c) for c in range(num_channels)]
    for index in order:
        load, channel = heapq.heappop(heap)
        channel_of[int(index)] = channel
        heapq.heappush(heap, (load + int(nnz[index]), channel))
    shards = []
    for channel in range(num_channels):
        shard_tiles = [tiles[i] for i in range(len(tiles))
                       if channel_of[i] == channel]
        shards.append(_distribute_tiles(shard_tiles, banks_per_channel,
                                        policy, balance_slack))
    assignment = ChannelAssignment(num_channels=num_channels,
                                   banks_per_channel=banks_per_channel,
                                   shards=shards, policy=policy)
    _check(assignment.total_elements, plan.total_nnz)
    return assignment


def _tile_nnz(tiles: Sequence[SubMatrix]) -> np.ndarray:
    return np.fromiter((t.rows.size for t in tiles), dtype=np.int64,
                       count=len(tiles))


def _by_desc_nnz(tiles: Sequence[SubMatrix]) -> List[SubMatrix]:
    """*tiles* by descending nnz, ties in original order."""
    return [tiles[i] for i in stable_desc_order(_tile_nnz(tiles))]


def _round_robin_fast(tiles: Sequence[SubMatrix],
                      num_banks: int) -> List[List[Optional[SubMatrix]]]:
    """Sliced round formation: one list op per round, not per tile."""
    rounds: List[List[Optional[SubMatrix]]] = []
    for start in range(0, len(tiles), num_banks):
        chunk = list(tiles[start:start + num_banks])
        chunk.extend([None] * (num_banks - len(chunk)))
        rounds.append(chunk)
    return rounds or [[None] * num_banks]


def _balanced_fast(tiles: Sequence[SubMatrix],
                   num_banks: int) -> List[List[Optional[SubMatrix]]]:
    """Greedy LPT via argsort + a (load, bank) heap.

    Identical to the scalar oracle: the heap pops the lightest bank and,
    on ties, the lowest bank index — exactly ``np.argmin``'s first-minimum
    rule — so every tile lands on the same bank in the same slot.
    """
    nnz = _tile_nnz(tiles)
    order = stable_desc_order(nnz)
    per_bank: List[List[SubMatrix]] = [[] for _ in range(num_banks)]
    heap = [(0, b) for b in range(num_banks)]
    for index in order:
        load, bank = heapq.heappop(heap)
        per_bank[bank].append(tiles[index])
        heapq.heappush(heap, (load + int(nnz[index]), bank))
    depth = max((len(stack) for stack in per_bank), default=0)
    rounds = []
    for r in range(max(depth, 1)):
        rounds.append([stack[r] if r < len(stack) else None
                       for stack in per_bank])
    return rounds


def _check(placed: int, expected: int) -> None:
    if placed != expected:
        raise MappingError(
            f"distribution dropped elements: {placed} != {expected}")


def replication_traffic_bytes(assignment: Assignment,
                              value_bytes: int) -> int:
    """Host bytes written to stage every tile's input segment (per SpMV)."""
    return sum(tile.x_length * value_bytes
               for round_tiles in assignment.rounds
               for tile in round_tiles if tile is not None)


def accumulation_traffic_bytes(assignment: Assignment,
                               value_bytes: int) -> int:
    """Host bytes read back to merge every tile's output partial.

    Only rows a tile actually touched are read (Fig. 6's output-side
    compression).
    """
    return sum(tile.touched_rows * value_bytes
               for round_tiles in assignment.rounds
               for tile in round_tiles if tile is not None)
