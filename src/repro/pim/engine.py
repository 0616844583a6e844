"""All-bank lock-step execution engine.

The engine owns one :class:`~repro.pim.unit.ProcessingUnit` per bank and
broadcasts every transaction to all of them, exactly as the host's all-bank
commands do. It also models the HBM-PIM mode protocol (Fig. 1): kernels may
only run in AB-PIM mode, programming happens in AB mode, and host data
movement happens in SB mode; each transition is counted so the timing tier
can charge it.

A lock-step invariant is enforced after every transaction: all *active*
units share the same program counter. Divergence between units is expressed
only through predication, per-unit columns and early exit — never through
control flow — which is the architectural core of pSyncPIM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..config import ProcessingUnitConfig
from ..errors import ExecutionError
from .. import obs
from ..isa import Program
from .beat import Beat
from .memory import BankMemory
from .unit import ProcessingUnit


class Mode(enum.Enum):
    """HBM-PIM execution modes (paper Fig. 1)."""

    SB = "single-bank"
    AB = "all-bank"
    AB_PIM = "all-bank-pim"


#: Legal mode transitions of the Fig. 1 protocol.
_TRANSITIONS = {
    (Mode.SB, Mode.AB),
    (Mode.AB, Mode.AB_PIM),
    (Mode.AB_PIM, Mode.SB),
    (Mode.AB, Mode.SB),
    (Mode.AB_PIM, Mode.AB),
}


@dataclass
class EngineStats:
    """Aggregated execution counters across all units."""

    beats: int = 0
    mode_switches: int = 0
    programs_loaded: int = 0
    kernel_launches: int = 0
    instructions: int = 0
    alu_ops: int = 0
    #: Beats that were NOPs for at least one unit (divergence measure).
    predicated_beats: int = 0
    per_mode_beats: Dict[str, int] = field(default_factory=dict)


class AllBankEngine:
    """Lock-step broadcast execution over one channel-group of banks."""

    def __init__(self, num_banks: int,
                 config: ProcessingUnitConfig = ProcessingUnitConfig(),
                 precision: str = "fp64",
                 check_lockstep: bool = True) -> None:
        if num_banks <= 0:
            raise ExecutionError("need at least one bank")
        self.config = config
        self.precision = precision
        self.check_lockstep = check_lockstep
        self.banks: List[BankMemory] = [BankMemory()
                                        for _ in range(num_banks)]
        self.units: List[ProcessingUnit] = [
            ProcessingUnit(memory, config, precision)
            for memory in self.banks]
        self.mode = Mode.SB
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # mode protocol
    # ------------------------------------------------------------------
    def switch_mode(self, target: Mode) -> None:
        """Perform one mode transition (charged by the timing tier)."""
        if target is self.mode:
            return
        if (self.mode, target) not in _TRANSITIONS:
            raise ExecutionError(
                f"illegal mode transition {self.mode.value} -> "
                f"{target.value}")
        self.mode = target
        self.stats.mode_switches += 1

    def load_program(self, program: Program,
                     reset_registers: bool = True) -> None:
        """Broadcast-program every unit (requires AB mode)."""
        if self.mode is not Mode.AB:
            raise ExecutionError(
                "programs are written in AB mode (paper Fig. 1)")
        for unit in self.units:
            unit.load_program(program, reset_registers=reset_registers)
        self.stats.programs_loaded += 1

    def arm(self, reset_registers: bool = False) -> None:
        """Re-arm all units at PC 0 for another pass of the same program."""
        for unit in self.units:
            unit.arm(reset_registers=reset_registers)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def all_exited(self) -> bool:
        return all(unit.exited for unit in self.units)

    @property
    def active_count(self) -> int:
        return sum(not unit.exited for unit in self.units)

    def step(self, beat: Beat) -> None:
        """Broadcast one memory transaction to every unit."""
        if self.mode is not Mode.AB_PIM:
            raise ExecutionError("kernels execute only in AB-PIM mode")
        # One pass over the units folds the beat broadcast, the active
        # counts and the lock-step divergence flag together; the O(N)
        # set-comprehension over PCs only runs when a beat actually
        # diverged (i.e. when it is about to raise).
        before_active = 0
        active_after = 0
        any_exited = False
        diverged = False
        first_pc = -1
        for unit in self.units:
            if not unit.exited:
                before_active += 1
            unit.consume_beat(beat)
            if unit.exited:
                any_exited = True
            else:
                active_after += 1
                if first_pc < 0:
                    first_pc = unit.pc
                elif unit.pc != first_pc:
                    diverged = True
        self.stats.beats += 1
        key = self.mode.value
        self.stats.per_mode_beats[key] = (
            self.stats.per_mode_beats.get(key, 0) + 1)
        if active_after < before_active or (any_exited and active_after):
            self.stats.predicated_beats += 1
        if self.check_lockstep and diverged:
            self._assert_lockstep()

    def run(self, beats: Iterable[Beat]) -> int:
        """Feed a transaction stream; returns the number consumed.

        Stops early once every unit has exited — the host polls completion
        after the stream (paper §IV-D: "the host chip must identify whether
        all banks in a memory channel complete kernel execution").
        """
        consumed = 0
        self.stats.kernel_launches += 1
        mark = self._obs_mark()
        for beat in beats:
            if self.all_exited:
                break
            self.step(beat)
            consumed += 1
        for unit in self.units:
            unit.flush_control()
        if self.check_lockstep:
            self._assert_lockstep()
        self._collect_unit_stats()
        if mark is not None:
            self._obs_emit(mark)
        return consumed

    def _obs_mark(self):
        """Pre-run counter snapshot, or None while obs is disabled."""
        if not obs.enabled():
            return None
        return self.stats.beats, self.stats.predicated_beats

    def _obs_emit(self, mark) -> None:
        """Feed this launch's beat and divergence counters to obs.

        The counter names and values match :class:`LaneEngine` exactly —
        the differential obs tests pin that equivalence.
        """
        beats0, pred0 = mark
        obs.add_counter("engine.beats", self.stats.beats - beats0)
        obs.add_counter("engine.predicated_beats",
                        self.stats.predicated_beats - pred0)
        obs.add_counter("engine.kernel_launches", 1)
        obs.add_counter("engine.exited_lanes",
                        sum(1 for u in self.units if u.exited))
        obs.add_counter("engine.exhausted_lanes",
                        sum(1 for u in self.units if u.exhausted_mask))

    def _assert_lockstep(self) -> None:
        pcs = {unit.pc for unit in self.units if not unit.exited}
        if len(pcs) > 1:
            raise ExecutionError(
                f"lock-step violated: active units at PCs {sorted(pcs)}")

    def _collect_unit_stats(self) -> None:
        self.stats.instructions = sum(u.stats.instructions
                                      for u in self.units)
        self.stats.alu_ops = sum(u.stats.alu_ops for u in self.units)

    # ------------------------------------------------------------------
    # host-side (SB mode) data access helpers
    # ------------------------------------------------------------------
    def host_write_dense(self, name: str, per_bank: Sequence) -> None:
        """Host writes a dense region into every bank (SB mode traffic)."""
        self._require_sb("host writes")
        if len(per_bank) != len(self.banks):
            raise ExecutionError("need one array per bank")
        for memory, data in zip(self.banks, per_bank):
            memory.add_dense(name, data)

    def host_write_triples(self, name: str, per_bank: Sequence) -> None:
        """Host writes a COO stream region into every bank."""
        self._require_sb("host writes")
        if len(per_bank) != len(self.banks):
            raise ExecutionError("need one (rows, cols, vals) per bank")
        for memory, (rows, cols, vals) in zip(self.banks, per_bank):
            memory.add_triples(name, rows, cols, vals)

    def host_read_dense(self, name: str) -> List:
        """Host reads a dense region back from every bank."""
        self._require_sb("host reads")
        return [memory.dense(name).data.copy() for memory in self.banks]

    def _require_sb(self, what: str) -> None:
        if self.mode is not Mode.SB:
            raise ExecutionError(f"{what} require SB mode (paper Fig. 1)")
