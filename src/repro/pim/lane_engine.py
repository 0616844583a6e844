"""The functional engine: all banks of a channel as numpy lanes.

:class:`LaneEngine` holds every processing unit's architectural state
stacked across banks — scalars, dense registers, queues, stream cursors,
exit/exhaustion masks as arrays with one *lane* per bank — and executes
each broadcast beat as a handful of masked array operations. Every kernel
driver runs on it.

Why a single shared program counter is sound: the paper's device is one
lock-step broadcast machine (Fig. 1). Divergence in pSyncPIM is expressed
only through predication, per-unit columns and early exit — never through
control flow — so JUMP counts are immediates shared by the whole cohort,
and a lane that exits (CEXIT/EXIT/fall-off) never rejoins until the next
``arm()``. The engine therefore walks one PC and one set of loop counters
for the active cohort, applying each instruction under a lane mask.

On each broadcast transaction (:class:`~repro.pim.beat.Beat`) the cohort
executes instructions up to and including the next *bank-access*
instruction, which consumes the transaction. Divergence is allowed exactly
where the paper allows it:

* **Predication** (§IV-E): an instruction whose queue operand is empty (or
  whose data is ``-1`` padding) degrades to a NOP in that lane.
* **Per-unit columns**: IndMOV and scatter writes address the open row at
  a lane-computed column, not the broadcast column.
* **Conditional exit** (§IV-D): CEXIT retires a lane once its stream is
  exhausted and the watched queues are drained; an exited lane keeps
  receiving transactions but never changes data.

Its oracle is :class:`repro.check.reference.ReferenceEngine`, a flat
per-bank interpreter written independently of this module (its own
per-bank PCs, its own ALU, its own bank-access table). Differential tests
and the ISA fuzzer require bitwise-equal results, bank memory, registers,
queues, exit state and beat counts from the two:

* every elementwise op runs float64 IEEE operations, batched over lanes;
* Reduce keeps numpy's pairwise summation order by reducing each lane
  over exactly its own elements (lanes are grouped by pop count so the
  2-D axis reduction sees the same per-row lengths a 1-D reduction of
  each bank would);
* queue and cursor state advance through the same sequence of predicated
  steps, so FIFO orders and stream positions match exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..config import ProcessingUnitConfig, element_size
from ..errors import ExecutionError
from .. import obs
from ..isa import (BInstruction, CInstruction, Opcode, Operand, Program,
                   BinaryOp)
from . import alu
from .beat import Beat
from .lanes import LaneMemory, LaneQueue
from .memory import PADDING_INDEX
from .verify import uses_bank

#: Index element width in the row/col sub-queues. Tile-local indices are
#: bounded by the 1 KB memory-row constraint (<= 1024), so 16 bits suffice.
INDEX_BYTES = 2


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
    """Engine-wide counters the launch statistics and obs read."""

    #: Broadcast transactions consumed.
    beats: int = 0
    mode_switches: int = 0
    programs_loaded: int = 0
    kernel_launches: int = 0
    #: Beats on which a lane exited, or some lane had already exited
    #: while another was still active (divergence measure).
    predicated_beats: int = 0


def _reduce_rows(op: BinaryOp, values: np.ndarray,
                 seed: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.pim.alu.reduce_array` over a (n, k) block.

    numpy's axis reductions use the same pairwise split per row as 1-D
    reductions, so this is bitwise equal to reducing each row separately.
    """
    if values.shape[1] == 0:
        return seed
    if op is BinaryOp.ADD:
        return seed + values.sum(axis=1)
    if op is BinaryOp.MUL:
        # Overflow folds to inf (inf times zero to nan), the IEEE result.
        with np.errstate(over="ignore", invalid="ignore"):
            return seed * values.prod(axis=1)
    if op is BinaryOp.MIN:
        # python min(seed, m): keep the seed unless m compares smaller
        # (matters for NaN; np.minimum would propagate it instead).
        m = values.min(axis=1)
        return np.where(m < seed, m, seed)
    if op is BinaryOp.MAX:
        m = values.max(axis=1)
        return np.where(m > seed, m, seed)
    if op is BinaryOp.LOR:
        return (seed.astype(bool) | values.astype(bool).any(axis=1)
                ).astype(float)
    if op is BinaryOp.LAND:
        return (seed.astype(bool) & values.astype(bool).all(axis=1)
                ).astype(float)
    raise ExecutionError(f"{op.name} is not reducible")


class LaneEngine:
    """Lock-step broadcast execution, vectorized one-lane-per-bank."""

    def __init__(self, num_banks: int,
                 config: ProcessingUnitConfig = ProcessingUnitConfig(),
                 precision: str = "fp64") -> None:
        if num_banks <= 0:
            raise ExecutionError("need at least one bank")
        self.config = config
        self.precision = precision
        self.num_banks = num_banks
        value_bytes = element_size(precision)
        #: SIMD lanes of the 32 B datapath for this precision.
        self.lanes = config.datapath_bytes // value_bytes
        #: Queue capacity: the binding 64 B sub-queue of the three
        #: (values vs int16 indices; Table VIII).
        self.queue_capacity = min(config.subqueue_bytes // value_bytes,
                                  config.subqueue_bytes // INDEX_BYTES)
        #: Beat group size for queue loads: one 32 B beat of values,
        #: capped by queue capacity for the narrow formats.
        self.group_size = min(self.lanes, self.queue_capacity)

        self.memory = LaneMemory(num_banks)
        # architectural state, one row/entry per lane
        self.scalar = np.zeros(num_banks)
        self.dense = np.zeros((config.num_dense_registers, num_banks,
                               self.lanes))
        self.queues = [LaneQueue(num_banks, self.queue_capacity)
                       for _ in range(config.num_sparse_queues)]
        self.exited = np.zeros(num_banks, dtype=bool)
        self.exhausted_mask = np.zeros(num_banks, dtype=np.int64)
        self.load_targets_mask = np.zeros(num_banks, dtype=np.int64)
        self.cursors: Dict[str, np.ndarray] = {}
        # shared control state (sound under the lock-step invariant)
        self.pc = 0
        self.loop_counters: Dict[int, int] = {}
        self.program: Optional[Program] = None
        self._needs_beat: Sequence[bool] = ()
        self._is_control: Sequence[bool] = ()

        self.mode = Mode.SB
        self.stats = EngineStats()
        self._dispatch = {
            Opcode.DMOV: self._dmov,
            Opcode.INDMOV: self._indmov,
            Opcode.SPMOV: self._spmov,
            Opcode.SPFW: self._spfw,
            Opcode.GTHSCT: self._gthsct,
            Opcode.SDV: self._sdv,
            Opcode.SSPV: self._sspv,
            Opcode.REDUCE: self._reduce,
            Opcode.DVDV: self._dvdv,
            Opcode.SPVDV: self._spvdv,
            Opcode.SPVSPV: self._spvspv,
        }

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
        if len(program) > self.config.instruction_slots:
            raise ExecutionError("program exceeds the control register")
        self.program = program
        self._is_control = tuple(isinstance(ins, CInstruction)
                                 for ins in program)
        self._needs_beat = tuple(
            False if ctrl else uses_bank(ins)
            for ctrl, ins in zip(self._is_control, program))
        self.arm(reset_registers=reset_registers)
        self.stats.programs_loaded += 1

    def arm(self, reset_registers: bool = False) -> None:
        """Re-arm every lane at PC 0 for another pass of the program.

        Register, queue and cursor contents survive unless
        *reset_registers* (multi-pass kernels resume where they stopped).
        """
        self.pc = 0
        self.loop_counters.clear()
        self.exited[:] = False
        self.exhausted_mask[:] = 0
        self.load_targets_mask[:] = 0
        if reset_registers:
            self.scalar[:] = 0.0
            self.dense[:] = 0.0
            for queue in self.queues:
                queue.clear()
            self.cursors.clear()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def all_exited(self) -> bool:
        return bool(self.exited.all())

    @property
    def active_count(self) -> int:
        return int((~self.exited).sum())

    def step(self, beat: Beat) -> None:
        """Broadcast one memory transaction to every lane."""
        if self.mode is not Mode.AB_PIM:
            raise ExecutionError("kernels execute only in AB-PIM mode")
        if self.program is None:
            raise ExecutionError("no program loaded")
        exited_before = int(self.exited.sum())
        active = np.flatnonzero(~self.exited)
        if active.size:
            self._consume(beat, active)
        self.stats.beats += 1
        exited_after = int(self.exited.sum())
        active_after = self.num_banks - exited_after
        if (exited_after > exited_before
                or (exited_before and active_after)):
            self.stats.predicated_beats += 1

    def _consume(self, beat: Beat, active: np.ndarray) -> None:
        """Walk to and through the next bank access, once for the whole
        active cohort (control and register-only instructions on the
        way execute without consuming the beat)."""
        program = self.program
        n = len(program)
        budget = 4 * n + 8
        while budget:
            budget -= 1
            if self.pc >= n:
                # Falling off the end terminates the cohort.
                self.exited[active] = True
                return
            ins = program[self.pc]
            if self._is_control[self.pc]:
                active = self._control(ins, active)
                if active is None:
                    return
                continue
            needs_beat = self._needs_beat[self.pc]
            self._execute_b(ins, beat if needs_beat else None, active)
            self.pc += 1
            if needs_beat:
                return
        raise ExecutionError(
            "program made no bank access within its step budget; "
            "kernel loops must contain a bank-access instruction")

    def run(self, beats: Iterable[Beat]) -> int:
        """Feed a transaction stream; returns the number consumed.

        Stops early once every lane has exited — the host polls
        completion after the stream (paper §IV-D).
        """
        consumed = 0
        self.stats.kernel_launches += 1
        mark = self._obs_mark()
        for beat in beats:
            if self.all_exited:
                break
            self.step(beat)
            consumed += 1
        self.flush_control()
        if mark is not None:
            self._obs_emit(mark)
        return consumed

    def _obs_mark(self):
        """Pre-run counter snapshot, or None while obs is disabled."""
        if not obs.enabled():
            return None
        return self.stats.beats, self.stats.predicated_beats

    def _obs_emit(self, mark) -> None:
        """Feed this launch's beat and divergence counters to obs."""
        beats0, pred0 = mark
        obs.add_counter("engine.beats", self.stats.beats - beats0)
        obs.add_counter("engine.predicated_beats",
                        self.stats.predicated_beats - pred0)
        obs.add_counter("engine.kernel_launches", 1)
        obs.add_counter("engine.exited_lanes", int(self.exited.sum()))
        obs.add_counter("engine.exhausted_lanes",
                        int(np.count_nonzero(self.exhausted_mask)))

    def flush_control(self) -> None:
        """Retire trailing non-bank instructions after the stream ends."""
        if self.program is None:
            return
        active = np.flatnonzero(~self.exited)
        if active.size == 0:
            return
        program = self.program
        n = len(program)
        budget = 4 * n + 8
        while budget and active.size:
            budget -= 1
            if self.pc >= n:
                self.exited[active] = True
                return
            ins = program[self.pc]
            if self._is_control[self.pc]:
                active = self._control(ins, active)
                if active is None:
                    return
                continue
            if self._needs_beat[self.pc]:
                return
            self._execute_b(ins, None, active)
            self.pc += 1

    # ------------------------------------------------------------------
    # control instructions (shared PC; per-lane exit decisions)
    # ------------------------------------------------------------------
    def _control(self, ins: CInstruction,
                 active: np.ndarray) -> Optional[np.ndarray]:
        """Execute one control instruction for the cohort.

        Returns the surviving cohort, or None when every lane exited.
        """
        op = ins.opcode
        if op is Opcode.NOP:
            self.pc += 1
            return active
        if op is Opcode.EXIT:
            self.exited[active] = True
            return None
        if op is Opcode.CEXIT:
            leaving = self._cexit_mask(ins, active)
            if leaving.any():
                self.exited[active[leaving]] = True
                active = active[~leaving]
            if active.size == 0:
                return None
            self.pc += 1
            return active
        if op is Opcode.JUMP:
            taken = self.loop_counters.get(ins.order, 0) + 1
            if taken < ins.imm1:
                self.loop_counters[ins.order] = taken
                self.pc = ins.imm0
            else:
                self.loop_counters[ins.order] = 0
                self.pc += 1
            return active
        raise ExecutionError(f"unhandled control {ins.opcode}")

    def _cexit_mask(self, ins: CInstruction,
                    active: np.ndarray) -> np.ndarray:
        mask = ins.queue_mask
        watched = self.load_targets_mask[active] & mask
        exhausted = self.exhausted_mask[active]
        streams_done = np.where(watched != 0,
                                (exhausted & watched) == watched,
                                exhausted != 0)
        empty = np.ones(active.size, dtype=bool)
        for i, queue in enumerate(self.queues):
            if mask & (1 << i):
                empty &= queue.count[active] == 0
        return streams_done & empty

    # ------------------------------------------------------------------
    # B-format dispatch (one vectorized handler per opcode)
    # ------------------------------------------------------------------
    def _execute_b(self, ins: BInstruction, beat: Optional[Beat],
                   active: np.ndarray) -> None:
        self._dispatch[ins.opcode](ins, beat, active)

    def _cursor(self, region_name: str) -> np.ndarray:
        arr = self.cursors.get(region_name)
        if arr is None:
            arr = np.zeros(self.num_banks, dtype=np.int64)
            self.cursors[region_name] = arr
        return arr

    # -- data movement --------------------------------------------------
    def _dmov(self, ins, beat, active) -> None:
        if ins.dst.is_dense_register and ins.src0 is Operand.BANK:
            region = self.memory.dense(beat.region)
            window = region.read_window(beat.index * self.lanes,
                                        self.lanes, active)
            self.dense[ins.dst.dense_index][active] = window
        elif ins.dst is Operand.BANK and ins.src0.is_dense_register:
            region = self.memory.dense(beat.region)
            region.write_window(beat.index * self.lanes,
                                self.dense[ins.src0.dense_index][active],
                                active)
        elif ins.dst is Operand.SRF and ins.src0 is Operand.BANK:
            region = self.memory.dense(beat.region)
            self.scalar[active] = region.read_scalar(
                np.full(active.size, beat.index, dtype=np.int64), active)
        elif ins.dst is Operand.BANK and ins.src0 is Operand.SRF:
            region = self.memory.dense(beat.region)
            region.write_scalar(
                np.full(active.size, beat.index, dtype=np.int64),
                self.scalar[active], active)
        elif ins.dst.is_dense_register and ins.src0.is_dense_register:
            self.dense[ins.dst.dense_index][active] = (
                self.dense[ins.src0.dense_index][active])
        else:
            raise ExecutionError(
                f"DMOV {ins.dst.name} <- {ins.src0.name} is not a legal "
                "combination")

    def _indmov(self, ins, beat, active) -> None:
        if ins.dst is not Operand.SRF or ins.src0 is not Operand.BANK \
                or not ins.src1.is_sparse_queue:
            raise ExecutionError("IndMOV form is SRF <- BANK[SpVQ.col]")
        queue = self.queues[ins.src1.queue_index]
        nonempty = active[queue.count[active] > 0]
        if nonempty.size == 0:
            return  # predicated NOP: nothing to point with
        _, col, _ = queue.peek(nonempty)
        live = col != PADDING_INDEX
        sel = nonempty[live]
        if sel.size == 0:
            return
        region = self.memory.dense(beat.region)
        self.scalar[sel] = region.read_scalar(col[live], sel)

    def _spmov(self, ins, beat, active) -> None:
        group = self.group_size
        if ins.dst.is_sparse_queue and ins.src0 is Operand.BANK:
            queue = self.queues[ins.dst.queue_index]
            bit = 1 << ins.dst.queue_index
            self.load_targets_mask[active] |= bit
            eligible = active[
                queue.capacity - queue.count[active] >= group]
            if eligible.size == 0:
                return  # predicated NOP: no room, keep the stream place
            region = self.memory.triples(beat.region)
            cursor = self._cursor(beat.region)
            at = cursor[eligible]
            if np.any(at % group):
                raise ExecutionError("queue stream cursor misaligned")
            rows, cols, vals, lens = region.read_group(at, group, eligible)
            cursor[eligible] = at + group
            exhausted = ((lens < group)
                         | (at + lens >= region.lengths[eligible]))
            self.exhausted_mask[eligible[exhausted]] |= bit
            for j in range(group):
                exists = j < lens
                if not exists.any():
                    break
                rj = rows[:, j]
                pad = exists & (rj == PADDING_INDEX)
                self.exhausted_mask[eligible[pad]] |= bit
                live = exists & ~pad
                if live.any():
                    queue.push(eligible[live], rj[live],
                               cols[live, j], vals[live, j])
        elif ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            queue = self.queues[ins.src0.queue_index]
            rows, cols, vals, popped = queue.pop_up_to(active, group)
            if not popped.any():
                return
            region = self.memory.triples(beat.region)
            cursor = self._cursor(beat.region)
            region.write_at(cursor[active], rows, cols, vals, popped,
                            active)
            cursor[active] += popped
        else:
            raise ExecutionError("SpMOV moves between a SpVQ and the bank")

    def _spfw(self, ins, beat, active) -> None:
        if ins.dst is not Operand.BANK or not ins.src0.is_sparse_queue:
            raise ExecutionError("SpFW form is BANK <- SpVQ")
        queue = self.queues[ins.src0.queue_index]
        rows, cols, vals, popped = queue.pop_up_to(active, queue.capacity)
        if not popped.any():
            return
        region = self.memory.triples(beat.region)
        cursor = self._cursor(beat.region)
        region.write_at(cursor[active], rows, cols, vals, popped, active)
        cursor[active] += popped

    def _gthsct(self, ins, beat, active) -> None:
        group = self.group_size
        identity_value = ins.idnt.value_as_float
        if ins.dst.is_sparse_queue and ins.src0 is Operand.BANK:
            region = self.memory.dense(beat.region)
            base = beat.index * group
            window = region.read_window(base, group, active)
            queue = self.queues[ins.dst.queue_index]
            bit = 1 << ins.dst.queue_index
            self.load_targets_mask[active] |= bit
            for lane_pos in range(group):
                live = window[:, lane_pos] != identity_value
                if live.any():
                    queue.push(active[live],
                               np.int64(base + lane_pos),
                               np.int64(base + lane_pos),
                               window[live, lane_pos])
            done = base + group >= region.lengths[active]
            self.exhausted_mask[active[done]] |= bit
        elif ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            region = self.memory.dense(beat.region)
            queue = self.queues[ins.src0.queue_index]
            rows, _, vals, popped = queue.pop_up_to(active, group)
            for j in range(int(popped.max()) if active.size else 0):
                live = popped > j
                if not live.any():
                    break
                tgt = active[live]
                rj = rows[live, j]
                ok = (rj >= 0) & (rj < region.lengths[tgt])
                region.data[tgt[ok], rj[ok]] = vals[live, j][ok]
        else:
            raise ExecutionError("GthSct transforms between BANK and a SpVQ")

    # -- arithmetic ------------------------------------------------------
    def _sdv(self, ins, beat, active) -> None:
        if not ins.dst.is_dense_register or ins.src0 is not Operand.SRF:
            raise ExecutionError("SDV form is DRF <- SRF (.) vector")
        if ins.src1 is Operand.BANK:
            region = self.memory.dense(beat.region)
            operand = region.read_window(beat.index * self.lanes,
                                         self.lanes, active)
        elif ins.src1.is_dense_register:
            operand = self.dense[ins.src1.dense_index][active]
        else:
            raise ExecutionError("SDV vector operand must be DRF or BANK")
        result = alu.apply(ins.binary, self.scalar[active][:, None],
                           operand)
        self.dense[ins.dst.dense_index][active] = np.asarray(
            result, dtype=np.float64)

    def _sspv(self, ins, beat, active) -> None:
        if not ins.dst.is_sparse_queue or ins.src0 is not Operand.SRF \
                or not ins.src1.is_sparse_queue:
            raise ExecutionError("SSpV form is SpVQ <- SRF (.) SpVQ")
        src = self.queues[ins.src1.queue_index]
        sel = active[src.count[active] > 0]
        if sel.size == 0:
            return  # predicated NOP
        row, col, value = src.pop(sel)
        result = alu.apply(ins.binary, self.scalar[sel], value)
        self.queues[ins.dst.queue_index].push(
            sel, row, col, np.asarray(result, dtype=np.float64))

    def _reduce(self, ins, beat, active) -> None:
        if ins.dst is not Operand.SRF:
            raise ExecutionError("Reduce accumulates into SRF")
        if ins.src0.is_dense_register:
            values = self.dense[ins.src0.dense_index][active]
            self.scalar[active] = _reduce_rows(ins.binary, values,
                                               self.scalar[active])
        elif ins.src0.is_sparse_queue:
            queue = self.queues[ins.src0.queue_index]
            _, _, vals, popped = queue.pop_up_to(active, self.group_size)
            # Group lanes by pop count so each lane reduces over exactly
            # its own elements (preserves numpy's pairwise-sum order).
            for k in np.unique(popped):
                if k == 0:
                    continue
                rows = popped == k
                sel = active[rows]
                self.scalar[sel] = _reduce_rows(
                    ins.binary, vals[rows][:, :k], self.scalar[sel])
        else:
            raise ExecutionError("Reduce source must be a DRF or SpVQ")

    def _dvdv(self, ins, beat, active) -> None:
        if not ins.dst.is_dense_register \
                or not ins.src0.is_dense_register:
            raise ExecutionError("DVDV form is DRF <- DRF (.) vector")
        left = self.dense[ins.src0.dense_index][active]
        if ins.src1 is Operand.BANK:
            region = self.memory.dense(beat.region)
            right = region.read_window(beat.index * self.lanes,
                                       self.lanes, active)
        elif ins.src1.is_dense_register:
            right = self.dense[ins.src1.dense_index][active]
        else:
            raise ExecutionError("DVDV right operand must be DRF or BANK")
        result = alu.apply(ins.binary, left, right)
        self.dense[ins.dst.dense_index][active] = np.asarray(
            result, dtype=np.float64)

    def _spvdv(self, ins, beat, active) -> None:
        if ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            # scatter-accumulate one element into the open output row
            src = self.queues[ins.src0.queue_index]
            sel = active[src.count[active] > 0]
            if sel.size == 0:
                return  # predicated NOP (still consumed the transaction)
            row, _, value = src.pop(sel)
            region = self.memory.dense(beat.region)
            ok = (row >= 0) & (row < region.lengths[sel])
            tgt, rows = sel[ok], row[ok]
            current = region.data[tgt, rows]
            region.data[tgt, rows] = np.asarray(
                alu.apply(ins.binary, current, value[ok]),
                dtype=np.float64)
        elif ins.dst.is_sparse_queue and ins.src0.is_sparse_queue \
                and ins.src1 is Operand.BANK:
            # element (.) dense-at-its-own-index -> sparse result
            src = self.queues[ins.src0.queue_index]
            sel = active[src.count[active] > 0]
            if sel.size == 0:
                return
            row, col, value = src.pop(sel)
            region = self.memory.dense(beat.region)
            gathered = region.read_scalar(row, sel)
            self.queues[ins.dst.queue_index].push(
                sel, row, col,
                np.asarray(alu.apply(ins.binary, value, gathered),
                           dtype=np.float64))
        else:
            raise ExecutionError(
                "SpVDV forms: BANK <- SpVQ (.) BANK (scatter) or "
                "SpVQ <- SpVQ (.) BANK (gathered)")

    def _spvspv(self, ins, beat, active) -> None:
        if not (ins.dst.is_sparse_queue and ins.src0.is_sparse_queue
                and ins.src1.is_sparse_queue):
            raise ExecutionError("SpVSpV operates on three sparse queues")
        qa = self.queues[ins.src0.queue_index]
        qb = self.queues[ins.src1.queue_index]
        out = self.queues[ins.dst.queue_index]
        union_mode = bool(ins.set_mode)
        ident = ins.idnt.value_as_float
        has_a = qa.count[active] > 0
        has_b = qb.count[active] > 0

        # one operand empty: stall until its stream is exhausted, then
        # pass the other side through (union) or discard it (intersection)
        one = has_a ^ has_b
        if one.any():
            lanes = active[one]
            a_empty = ~has_a[one]
            empty_bits = np.where(a_empty, 1 << ins.src0.queue_index,
                                  1 << ins.src1.queue_index)
            ready = (self.exhausted_mask[lanes] & empty_bits) != 0
            go, go_a_empty = lanes[ready], a_empty[ready]
            pop_b = go[go_a_empty]    # qa ran dry -> drain qb
            pop_a = go[~go_a_empty]   # qb ran dry -> drain qa
            if union_mode:
                if pop_b.size:
                    row, col, value = qb.pop(pop_b)
                    out.push(pop_b, row, col, np.asarray(
                        alu.apply(ins.binary, ident, value),
                        dtype=np.float64))
                if pop_a.size:
                    row, col, value = qa.pop(pop_a)
                    out.push(pop_a, row, col, np.asarray(
                        alu.apply(ins.binary, value, ident),
                        dtype=np.float64))
            else:
                if pop_b.size:
                    qb.pop(pop_b)
                if pop_a.size:
                    qa.pop(pop_a)

        # both operands non-empty: index-matched merge step
        both = has_a & has_b
        if both.any():
            lanes = active[both]
            ra, ca, va = qa.peek(lanes)
            rb, cb, vb = qb.peek(lanes)
            eq = ra == rb
            lt = ra < rb
            gt = ~eq & ~lt
            if eq.any():
                sel = lanes[eq]
                qa.pop(sel)
                qb.pop(sel)
                out.push(sel, ra[eq], ca[eq], np.asarray(
                    alu.apply(ins.binary, va[eq], vb[eq]),
                    dtype=np.float64))
            if lt.any():
                sel = lanes[lt]
                qa.pop(sel)
                if union_mode:
                    out.push(sel, ra[lt], ca[lt], np.asarray(
                        alu.apply(ins.binary, va[lt], ident),
                        dtype=np.float64))
            if gt.any():
                sel = lanes[gt]
                qb.pop(sel)
                if union_mode:
                    out.push(sel, rb[gt], cb[gt], np.asarray(
                        alu.apply(ins.binary, ident, vb[gt]),
                        dtype=np.float64))

    # ------------------------------------------------------------------
    # host interface: SB-mode data movement, AB-mode SRF broadcast
    # ------------------------------------------------------------------
    def host_write_dense(self, name: str, per_bank: Sequence) -> None:
        """Host writes a dense region into every bank (one array each)."""
        self._require(Mode.SB, "a host write")
        self.memory.add_dense(name, per_bank)

    def host_write_triples(self, name: str, per_bank: Sequence) -> None:
        """Host writes a COO stream region, one (rows, cols, vals) a bank."""
        self._require(Mode.SB, "a host write")
        self.memory.add_triples(name, per_bank)

    def host_read_dense(self, name: str) -> List[np.ndarray]:
        """Host reads a dense region back from every bank (copies)."""
        self._require(Mode.SB, "a host read")
        region = self.memory.dense(name)
        return [region.data[lane, :region.lengths[lane]].copy()
                for lane in range(self.num_banks)]

    def host_read_triples(self, name: str) -> List[tuple]:
        """Host reads a COO stream region back, (rows, cols, vals) a bank."""
        self._require(Mode.SB, "a host read")
        region = self.memory.triples(name)
        return [(region.rows[lane, :n].copy(), region.cols[lane, :n].copy(),
                 region.vals[lane, :n].copy())
                for lane, n in enumerate(region.lengths.tolist())]

    def broadcast_scalar(self, value: float) -> None:
        """Write *value* into every unit's SRF (AB-mode host broadcast)."""
        self._require(Mode.AB, "a scalar broadcast")
        self.scalar[:] = float(value)

    def read_scalars(self) -> np.ndarray:
        """Host readback of every unit's SRF."""
        self._require(Mode.SB, "a scalar readback")
        return self.scalar.copy()

    def _require(self, mode: Mode, what: str) -> None:
        if self.mode is not mode:
            raise ExecutionError(
                f"{what} requires {mode.name} mode (paper Fig. 1)")
