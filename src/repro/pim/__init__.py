"""Processing units, bank memory and the all-bank lock-step engines.

The vectorized :class:`LaneEngine` (whole-channel state as numpy lanes)
is the functional engine every kernel driver runs on. The scalar
:class:`AllBankEngine` (one Python :class:`ProcessingUnit` per bank)
implements the same lock-step broadcast semantics; it is the reference
oracle the lane engine is checked against bitwise, and no production
entry point selects it.
"""

from .memory import (PADDING_INDEX, BankMemory, DenseRegion, TripleRegion,
                     padded_triples)
from .registers import DenseRegister, RegisterFile, SparseQueue
from .beat import Beat
from .unit import ProcessingUnit, UnitStats, uses_bank
from .engine import AllBankEngine, EngineStats, Mode
from .lane_engine import LaneEngine
from .lanes import DenseLanes, LaneMemory, LaneQueue, TripleLanes
from .verify import (BeatSlot, beat_signature, check_stream_length,
                     expected_beats)
from . import alu

__all__ = [
    "PADDING_INDEX", "BankMemory", "DenseRegion", "TripleRegion",
    "padded_triples", "DenseRegister", "RegisterFile", "SparseQueue",
    "Beat", "ProcessingUnit", "UnitStats", "uses_bank", "AllBankEngine",
    "EngineStats", "Mode", "LaneEngine", "DenseLanes", "LaneMemory",
    "LaneQueue", "TripleLanes", "alu",
    "BeatSlot", "beat_signature", "check_stream_length", "expected_beats",
]
