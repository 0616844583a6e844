"""The all-bank lock-step functional engine and its building blocks.

The vectorized :class:`LaneEngine` (whole-channel state as numpy lanes)
is the functional engine every kernel driver runs on. Its oracle, the
flat per-bank :class:`repro.check.reference.ReferenceEngine`, lives in
:mod:`repro.check` and is reached from tests only.
"""

from .memory import PADDING_INDEX, padded_triples
from .beat import Beat
from .lane_engine import EngineStats, LaneEngine, Mode
from .lanes import DenseLanes, LaneMemory, LaneQueue, TripleLanes
from .verify import (BeatSlot, beat_signature, check_stream_length,
                     expected_beats)
from . import alu

__all__ = [
    "PADDING_INDEX", "padded_triples", "Beat", "EngineStats", "Mode",
    "LaneEngine", "DenseLanes", "LaneMemory", "LaneQueue", "TripleLanes",
    "alu", "BeatSlot", "beat_signature", "check_stream_length",
    "expected_beats",
]
