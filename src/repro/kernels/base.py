"""Shared kernel-launch machinery.

Every kernel in :mod:`repro.kernels` follows the HBM-PIM protocol of Fig. 1:

1. SB mode: host places operands into bank regions.
2. SB -> AB: host programs the kernel (and broadcasts any scalar).
3. AB -> AB-PIM: every subsequent memory transaction steps all units.
4. AB-PIM -> SB: host reads results back.

:func:`launch` wraps steps 2-4 around a program and its beat stream;
:func:`passes` splits long loops into several launches because the JUMP
iteration counter is a 10-bit immediate (at most 1023 iterations per pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from ..errors import ExecutionError
from ..isa import Program
from ..pim import Beat, LaneEngine, Mode

#: JUMP's 10-bit iteration immediate bounds a single pass.
MAX_LOOP_COUNT = 1023


@dataclass
class LaunchStats:
    """What one kernel launch cost, for the timing/energy tiers."""

    beats: int = 0
    launches: int = 0
    mode_switches: int = 0
    programs_loaded: int = 0

    def merge(self, other: "LaunchStats") -> "LaunchStats":
        self.beats += other.beats
        self.launches += other.launches
        self.mode_switches += other.mode_switches
        self.programs_loaded += other.programs_loaded
        return self


def launch(engine: LaneEngine, program: Program,
           beats: Iterable[Beat], scalar: float = None,
           reset_registers: bool = True) -> LaunchStats:
    """Run one program over one beat stream with the full mode protocol."""
    switches_before = engine.stats.mode_switches
    engine.switch_mode(Mode.AB)
    engine.load_program(program, reset_registers=reset_registers)
    if scalar is not None:
        engine.broadcast_scalar(scalar)
    engine.switch_mode(Mode.AB_PIM)
    consumed = engine.run(beats)
    engine.switch_mode(Mode.SB)
    if not engine.all_exited:
        raise ExecutionError(
            f"kernel {program.name!r} did not terminate: "
            f"{engine.active_count} units still active after "
            f"{consumed} transactions")
    return LaunchStats(beats=consumed, launches=1,
                       mode_switches=engine.stats.mode_switches
                       - switches_before,
                       programs_loaded=1)


def relaunch(engine: LaneEngine, beats: Iterable[Beat]) -> LaunchStats:
    """Re-run the already-loaded program on a fresh beat stream.

    Queue and register contents survive (streaming kernels resume where
    they stopped); only control flow is re-armed.
    """
    engine.switch_mode(Mode.AB)
    engine.arm(reset_registers=False)
    engine.switch_mode(Mode.AB_PIM)
    consumed = engine.run(beats)
    engine.switch_mode(Mode.SB)
    if not engine.all_exited:
        raise ExecutionError("kernel pass did not terminate")
    return LaunchStats(beats=consumed, launches=1, mode_switches=3)


def passes(total_iterations: int) -> Iterator[int]:
    """Split a loop of *total_iterations* into <=1023-iteration passes."""
    if total_iterations < 0:
        raise ExecutionError("negative iteration count")
    remaining = total_iterations
    while remaining > 0:
        step = min(remaining, MAX_LOOP_COUNT)
        yield step
        remaining -= step


# ----------------------------------------------------------------------
# data distribution helpers
# ----------------------------------------------------------------------
def split_even(vector: np.ndarray, num_banks: int,
               multiple: int) -> List[np.ndarray]:
    """Split a dense vector into equal per-bank chunks.

    Every chunk has the same length — a multiple of *multiple* (the SIMD
    lane count) — zero-padded at the tail, because all-bank execution
    streams the same number of beats into every bank.
    """
    if num_banks <= 0 or multiple <= 0:
        raise ExecutionError("bad split parameters")
    chunk = math.ceil(vector.size / num_banks)
    chunk = max(multiple, math.ceil(chunk / multiple) * multiple)
    out = []
    for b in range(num_banks):
        piece = np.zeros(chunk)
        lo = b * chunk
        hi = min(lo + chunk, vector.size)
        if lo < hi:
            piece[:hi - lo] = vector[lo:hi]
        out.append(piece)
    return out


def join_even(chunks: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Inverse of :func:`split_even`: concatenate and trim padding."""
    return np.concatenate(chunks)[:length]


def groups_for(elements: int, group_size: int) -> int:
    """Beat groups needed to stream *elements* items."""
    return math.ceil(elements / group_size) if elements else 0


def stream_beats(region: str, groups: int, start: int = 0,
                 write: bool = False) -> Iterator[Beat]:
    """Sequential beat groups over one region."""
    for g in range(start, start + groups):
        yield Beat(region, g, write=write)
