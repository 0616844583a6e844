"""Vectorized lane engine: all banks of a channel as numpy lanes.

:class:`LaneEngine` is a drop-in alternative to
:class:`~repro.pim.engine.AllBankEngine`. Where the scalar engine owns one
:class:`~repro.pim.unit.ProcessingUnit` per bank and interprets each beat
bank-by-bank, the lane engine holds every unit's architectural state
stacked across banks — scalars, dense registers, queues, stream cursors,
exit/exhaustion masks as arrays with one *lane* per bank — and executes
each broadcast beat as a handful of masked array operations.

Why a single shared program counter is sound: the lock-step invariant the
scalar engine asserts every beat (all *active* units share a PC) holds by
construction here. Divergence in pSyncPIM is expressed only through
predication, per-unit columns and early exit — never through control flow
— so JUMP counts are immediates shared by the whole cohort, and a lane
that exits (CEXIT/EXIT/fall-off) never rejoins until the next ``arm()``.
The engine therefore walks one PC and one set of loop counters for the
active cohort, applying each instruction under a lane mask.

Bitwise equivalence with the scalar engine is a hard guarantee, verified
by differential tests (``tests/test_pim_lane_engine.py``):

* every elementwise op runs the same float64 IEEE operations, just
  batched over lanes;
* Reduce preserves numpy's pairwise summation order by reducing each
  lane over exactly its own elements (lanes are grouped by pop count so
  the 2-D axis reduction sees the same per-row lengths the scalar
  1-D reductions saw);
* queue and cursor state advance through the same sequence of predicated
  steps, so FIFO orders and stream positions match exactly.

The scalar engine remains the reference oracle; it is reachable from
tests only, through :mod:`repro.check.oracles`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..config import ProcessingUnitConfig, element_size
from ..errors import ExecutionError
from .. import obs
from ..isa import (BInstruction, CInstruction, Opcode, Operand, Program,
                   BinaryOp)
from . import alu
from .beat import Beat
from .engine import _TRANSITIONS, EngineStats, Mode
from .lanes import LaneMemory, LaneQueue
from .memory import PADDING_INDEX
from .registers import INDEX_BYTES
from .unit import uses_bank


def _reduce_rows(op: BinaryOp, values: np.ndarray,
                 seed: np.ndarray) -> np.ndarray:
    """Row-wise :func:`repro.pim.alu.reduce_array` over a (n, k) block.

    numpy's axis reductions use the same pairwise split per row as the
    1-D reductions the scalar engine performs, so this is bitwise equal
    to reducing each row separately.
    """
    if values.shape[1] == 0:
        return seed
    if op is BinaryOp.ADD:
        return seed + values.sum(axis=1)
    if op is BinaryOp.MUL:
        # Overflow folds to inf (inf times zero to nan), as in the
        # scalar engine.
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


class _LaneUnitStats:
    """Per-lane view with the :class:`~repro.pim.unit.UnitStats` fields."""

    __slots__ = ("_engine", "_lane")

    def __init__(self, engine: "LaneEngine", lane: int) -> None:
        self._engine = engine
        self._lane = lane

    @property
    def instructions(self) -> int:
        return int(self._engine._instr[self._lane])

    @property
    def alu_ops(self) -> int:
        return int(self._engine._alu[self._lane])

    @property
    def beats(self) -> int:
        return int(self._engine._beat_count[self._lane])

    @property
    def nop_beats(self) -> int:
        return int(self._engine._nop[self._lane])


class _LaneRegisters:
    """Per-lane register-file view (capacities + SRF access)."""

    __slots__ = ("_engine", "_lane")

    def __init__(self, engine: "LaneEngine", lane: int) -> None:
        self._engine = engine
        self._lane = lane

    @property
    def lanes(self) -> int:
        return self._engine.lanes

    @property
    def queue_capacity(self) -> int:
        return self._engine.queue_capacity

    @property
    def group_size(self) -> int:
        return self._engine.group_size

    @property
    def scalar(self) -> float:
        return float(self._engine.scalar[self._lane])

    @scalar.setter
    def scalar(self, value: float) -> None:
        self._engine.scalar[self._lane] = float(value)


class LaneUnitView:
    """One lane presented through the ProcessingUnit interface subset."""

    __slots__ = ("_engine", "_lane", "registers", "stats")

    def __init__(self, engine: "LaneEngine", lane: int) -> None:
        self._engine = engine
        self._lane = lane
        self.registers = _LaneRegisters(engine, lane)
        self.stats = _LaneUnitStats(engine, lane)

    @property
    def exited(self) -> bool:
        return bool(self._engine.exited[self._lane])

    @property
    def pc(self) -> int:
        return self._engine.pc

    @property
    def exhausted_mask(self) -> int:
        return int(self._engine.exhausted_mask[self._lane])

    @property
    def load_targets_mask(self) -> int:
        return int(self._engine.load_targets_mask[self._lane])

    @property
    def exhausted(self) -> bool:
        return self.exhausted_mask != 0


class LaneBankView:
    """One lane's memory through the BankMemory read interface.

    ``dense``/``triples`` return scalar-tier region *snapshots* (copies)
    — the drivers only read regions back after a run, so copy semantics
    match the host-readback contract.
    """

    __slots__ = ("_memory", "_lane")

    def __init__(self, memory: LaneMemory, lane: int) -> None:
        self._memory = memory
        self._lane = lane

    def dense(self, name: str):
        return self._memory.dense(name).snapshot(self._lane)

    def triples(self, name: str):
        return self._memory.triples(name).snapshot(self._lane)

    def __contains__(self, name: str) -> bool:
        return name in self._memory

    def region_names(self):
        return self._memory.region_names()


class LaneEngine:
    """Lock-step broadcast execution, vectorized one-lane-per-bank."""

    def __init__(self, num_banks: int,
                 config: ProcessingUnitConfig = ProcessingUnitConfig(),
                 precision: str = "fp64",
                 check_lockstep: bool = True) -> None:
        if num_banks <= 0:
            raise ExecutionError("need at least one bank")
        self.config = config
        self.precision = precision
        #: Kept for interface parity; the lane engine preserves lock-step
        #: by construction (single shared PC), so there is nothing to check.
        self.check_lockstep = check_lockstep
        self.num_lanes = num_banks
        value_bytes = element_size(precision)
        self.lanes = config.datapath_bytes // value_bytes
        self.queue_capacity = min(config.subqueue_bytes // value_bytes,
                                  config.subqueue_bytes // INDEX_BYTES)
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
        # per-lane stat counters, aggregated into EngineStats on run()
        self._instr = np.zeros(num_banks, dtype=np.int64)
        self._alu = np.zeros(num_banks, dtype=np.int64)
        self._beat_count = np.zeros(num_banks, dtype=np.int64)
        self._nop = np.zeros(num_banks, dtype=np.int64)

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
        self.units: List[LaneUnitView] = [LaneUnitView(self, i)
                                          for i in range(num_banks)]
        self.banks: List[LaneBankView] = [LaneBankView(self.memory, i)
                                          for i in range(num_banks)]

    # ------------------------------------------------------------------
    # mode protocol (identical to the scalar engine)
    # ------------------------------------------------------------------
    def switch_mode(self, target: Mode) -> None:
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
        if exited_before:
            self._nop[self.exited] += 1
        active = np.flatnonzero(~self.exited)
        if active.size:
            self._consume(beat, active)
        self.stats.beats += 1
        key = self.mode.value
        self.stats.per_mode_beats[key] = (
            self.stats.per_mode_beats.get(key, 0) + 1)
        exited_after = int(self.exited.sum())
        active_after = self.num_lanes - exited_after
        if (exited_after > exited_before
                or (exited_before and active_after)):
            self.stats.predicated_beats += 1

    def _consume(self, beat: Beat, active: np.ndarray) -> None:
        """The consume_beat walk, once for the whole active cohort."""
        program = self.program
        n = len(program)
        budget = 4 * n + 8
        while budget:
            budget -= 1
            if self.pc >= n:
                # Falling off the end terminates the cohort.
                self.exited[active] = True
                self._nop[active] += 1
                return
            ins = program[self.pc]
            self._instr[active] += 1
            if self._is_control[self.pc]:
                active = self._control(ins, active, count_nops=True)
                if active is None:
                    return
                continue
            needs_beat = self._needs_beat[self.pc]
            self._execute_b(ins, beat if needs_beat else None, active)
            self.pc += 1
            if needs_beat:
                self._beat_count[active] += 1
                return
        raise ExecutionError(
            "program made no bank access within its step budget; "
            "kernel loops must contain a bank-access instruction")

    def run(self, beats: Iterable[Beat]) -> int:
        consumed = 0
        self.stats.kernel_launches += 1
        mark = self._obs_mark()
        for beat in beats:
            if self.all_exited:
                break
            self.step(beat)
            consumed += 1
        self.flush_control()
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
                self._instr[active] += 1
                active = self._control(ins, active, count_nops=False)
                if active is None:
                    return
                continue
            if self._needs_beat[self.pc]:
                return
            self._instr[active] += 1
            self._execute_b(ins, None, active)
            self.pc += 1

    def _collect_unit_stats(self) -> None:
        self.stats.instructions = int(self._instr.sum())
        self.stats.alu_ops = int(self._alu.sum())

    # ------------------------------------------------------------------
    # control instructions (shared PC; per-lane exit decisions)
    # ------------------------------------------------------------------
    def _control(self, ins: CInstruction, active: np.ndarray,
                 count_nops: bool) -> Optional[np.ndarray]:
        """Execute one control instruction for the cohort.

        Returns the surviving cohort, or None when every lane exited
        (or, in consume mode, when the walk must stop).
        """
        op = ins.opcode
        if op is Opcode.NOP:
            self.pc += 1
            return active
        if op is Opcode.EXIT:
            self.exited[active] = True
            if count_nops:
                self._nop[active] += 1
            return None
        if op is Opcode.CEXIT:
            leaving = self._cexit_mask(ins, active)
            if leaving.any():
                gone = active[leaving]
                self.exited[gone] = True
                if count_nops:
                    self._nop[gone] += 1
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
    # B-format dispatch (vectorized ProcessingUnit handlers)
    # ------------------------------------------------------------------
    def _execute_b(self, ins: BInstruction, beat: Optional[Beat],
                   active: np.ndarray) -> None:
        self._dispatch[ins.opcode](ins, beat, active)

    def _cursor(self, region_name: str) -> np.ndarray:
        arr = self.cursors.get(region_name)
        if arr is None:
            arr = np.zeros(self.num_lanes, dtype=np.int64)
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
        self._alu[active] += self.lanes

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
        self._alu[sel] += 1

    def _reduce(self, ins, beat, active) -> None:
        if ins.dst is not Operand.SRF:
            raise ExecutionError("Reduce accumulates into SRF")
        if ins.src0.is_dense_register:
            values = self.dense[ins.src0.dense_index][active]
            self.scalar[active] = _reduce_rows(ins.binary, values,
                                               self.scalar[active])
            self._alu[active] += self.lanes
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
                self._alu[sel] += int(k)
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
        self._alu[active] += self.lanes

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
            self._alu[sel] += 1
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
            self._alu[sel] += 1
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
                    self._alu[pop_b] += 1
                if pop_a.size:
                    row, col, value = qa.pop(pop_a)
                    out.push(pop_a, row, col, np.asarray(
                        alu.apply(ins.binary, value, ident),
                        dtype=np.float64))
                    self._alu[pop_a] += 1
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
                self._alu[sel] += 1
            if lt.any():
                sel = lanes[lt]
                qa.pop(sel)
                if union_mode:
                    out.push(sel, ra[lt], ca[lt], np.asarray(
                        alu.apply(ins.binary, va[lt], ident),
                        dtype=np.float64))
                    self._alu[sel] += 1
            if gt.any():
                sel = lanes[gt]
                qb.pop(sel)
                if union_mode:
                    out.push(sel, rb[gt], cb[gt], np.asarray(
                        alu.apply(ins.binary, ident, vb[gt]),
                        dtype=np.float64))
                    self._alu[sel] += 1

    # ------------------------------------------------------------------
    # host-side (SB mode) data access helpers
    # ------------------------------------------------------------------
    def host_write_dense(self, name: str, per_bank: Sequence) -> None:
        self._require_sb("host writes")
        if len(per_bank) != len(self.banks):
            raise ExecutionError("need one array per bank")
        self.memory.add_dense(name, per_bank)

    def host_write_triples(self, name: str, per_bank: Sequence) -> None:
        self._require_sb("host writes")
        if len(per_bank) != len(self.banks):
            raise ExecutionError("need one (rows, cols, vals) per bank")
        self.memory.add_triples(name, per_bank)

    def host_read_dense(self, name: str) -> List:
        self._require_sb("host reads")
        region = self.memory.dense(name)
        return [region.data[lane, :region.lengths[lane]].copy()
                for lane in range(self.num_lanes)]

    def _require_sb(self, what: str) -> None:
        if self.mode is not Mode.SB:
            raise ExecutionError(f"{what} require SB mode (paper Fig. 1)")
