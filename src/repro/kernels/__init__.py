"""PIM kernel library: programs, beat streams and drivers (Table III)."""

from . import programs
from .base import (MAX_LOOP_COUNT, LaunchStats, groups_for, join_even,
                   launch, passes, relaunch, split_even, stream_beats)
from .blas1 import (KernelRun, daxpy, dcopy, ddot, dnrm2, dscal, dswap,
                    elementwise, gather, scatter, spaxpy, spdot)
from .gemv import dgemv, dtrsv
from .spmm import TileBlockResult, expand_block_tiles, run_tile_block
from .spmv import Tile, TileRoundResult, empty_tile, run_tile_round
from .spvspv import spvspv

__all__ = [
    "programs", "MAX_LOOP_COUNT", "LaunchStats", "groups_for",
    "join_even", "launch", "passes", "relaunch", "split_even",
    "stream_beats",
    "KernelRun", "daxpy", "dcopy", "ddot", "dnrm2", "dscal", "dswap",
    "elementwise", "gather", "scatter", "spaxpy", "spdot",
    "dgemv", "dtrsv", "Tile", "TileRoundResult", "empty_tile",
    "run_tile_round", "TileBlockResult", "expand_block_tiles",
    "run_tile_block", "spvspv",
]
