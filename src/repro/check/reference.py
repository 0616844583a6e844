"""The lane engine's oracle: an independently structured ISA interpreter.

:class:`ReferenceEngine` re-states the semantics of Tables IV-VI as a
flat, per-bank interpreter over plain numpy arrays and Python lists. It
is the one oracle the vectorized :class:`~repro.pim.LaneEngine` is checked
against — by the differential tests, by the kernel drivers swapped onto it
with :func:`repro.check.oracles.use_reference_engine`, and by the ISA
fuzzer. It is deliberately organised nothing like the lane engine: every
bank walks its own program counter and loop counters (lock-step is an
outcome here, not an assumption), and it shares no ALU, bank-access table
or state container with :mod:`repro.pim`, so a misconception in the
production engine's shared structure cannot hide by also appearing here.
The two must agree bitwise on every register, queue, memory region,
per-bank exit state and beat count.

It implements the same host surface as the lane engine — the Fig. 1 mode
protocol, SB-mode host I/O with one array per bank, the AB-mode SRF
broadcast, ``load_program``/``arm``/``step``/``run`` — so every kernel
driver runs on it unchanged.

Numerics follow DESIGN.md: all arithmetic in float64; numpy pairwise
summation for additive reductions; python ``min``/``max`` for scalar
reduction seeds. These choices are part of the specified semantics, so
the reference reproduces them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import ProcessingUnitConfig, element_size
from ..errors import CapacityError, ExecutionError
from ..isa import BInstruction, CInstruction, Opcode, Operand, Program
from ..pim import Beat, EngineStats, Mode

_PAD = -1              # padding index of COO streams (paper §V)
_INDEX_BYTES = 2       # 16-bit row/col sub-queue elements

#: Fig. 1: SB <-> AB, AB -> AB-PIM, and AB-PIM back to either.
_LEGAL = {("SB", "AB"), ("AB", "SB"), ("AB", "AB_PIM"), ("AB_PIM", "AB"),
          ("AB_PIM", "SB")}


def needs_bank(ins: BInstruction) -> bool:
    """Table V/VI: does this instruction consume a memory transaction?"""
    op = ins.opcode
    if op in (Opcode.INDMOV, Opcode.SPFW, Opcode.GTHSCT, Opcode.SPVDV):
        return True
    if op in (Opcode.SSPV, Opcode.REDUCE, Opcode.SPVSPV):
        return False
    if op in (Opcode.DMOV, Opcode.SPMOV):
        return Operand.BANK in (ins.dst, ins.src0)
    return ins.src1 is Operand.BANK


def _binary(op, a, b):
    """Table VI binary operators, float64 semantics."""
    name = op.name
    if name == "ADD":
        return a + b
    if name == "SUB":
        return a - b
    if name == "MUL":
        return a * b
    if name == "MIN":
        return np.minimum(a, b)
    if name == "MAX":
        return np.maximum(a, b)
    if name == "LAND":
        return np.logical_and(a, b).astype(float)
    if name == "LOR":
        return np.logical_or(a, b).astype(float)
    if name == "FIRST":
        return a * np.ones_like(b) if hasattr(b, "shape") else a
    if name == "SECOND":
        return b
    raise ExecutionError(f"unsupported binary op {op}")


def _fold(op, values: np.ndarray, seed: float) -> float:
    """The Reduce instruction's horizontal fold."""
    if not values.size:
        return seed
    name = op.name
    if name == "ADD":
        return seed + float(np.sum(values))
    if name == "MUL":
        # Overflow folds to inf (inf times zero to nan), the IEEE
        # results of both engines.
        with np.errstate(over="ignore", invalid="ignore"):
            return seed * float(np.prod(values))
    if name == "MIN":
        return min(seed, float(np.min(values)))
    if name == "MAX":
        return max(seed, float(np.max(values)))
    if name == "LOR":
        return float(bool(seed) or bool(np.any(values)))
    if name == "LAND":
        return float(bool(seed) and bool(np.all(values)))
    raise ExecutionError(f"{name} is not reducible")


@dataclass
class _Bank:
    """Complete architectural state of one bank, as plain containers."""

    srf: float = 0.0
    drf: List[np.ndarray] = field(default_factory=list)
    queues: List[List[Tuple[int, int, float]]] = field(default_factory=list)
    dense: Dict[str, np.ndarray] = field(default_factory=dict)
    coo: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    cursors: Dict[str, int] = field(default_factory=dict)
    pc: int = 0
    exited: bool = False
    exhausted_mask: int = 0
    load_targets_mask: int = 0
    loop_counters: Dict[int, int] = field(default_factory=dict)


class ReferenceEngine:
    """Flat interpreter over per-bank state dictionaries."""

    def __init__(self, num_banks: int,
                 config: ProcessingUnitConfig = ProcessingUnitConfig(),
                 precision: str = "fp64") -> None:
        if num_banks <= 0:
            raise ExecutionError("need at least one bank")
        value_bytes = element_size(precision)
        self.num_banks = num_banks
        self.precision = precision
        self.lanes = config.datapath_bytes // value_bytes
        self.queue_capacity = min(config.subqueue_bytes // value_bytes,
                                  config.subqueue_bytes // _INDEX_BYTES)
        self.group_size = min(self.lanes, self.queue_capacity)
        self.num_queues = config.num_sparse_queues
        self.num_dense = config.num_dense_registers
        self.instruction_slots = config.instruction_slots
        self.banks = [_Bank() for _ in range(num_banks)]
        for bank in self.banks:
            self._clear_registers(bank)
        self.program: Optional[Program] = None
        self._classified: Tuple[Tuple[bool, bool], ...] = ()
        self.mode = Mode.SB
        self.stats = EngineStats()

    def _clear_registers(self, bank: _Bank) -> None:
        bank.srf = 0.0
        bank.drf = [np.zeros(self.lanes) for _ in range(self.num_dense)]
        bank.queues = [[] for _ in range(self.num_queues)]
        bank.cursors = {}

    # ------------------------------------------------------------------
    # mode protocol (Fig. 1)
    # ------------------------------------------------------------------
    def switch_mode(self, target: Mode) -> None:
        if target is self.mode:
            return
        if (self.mode.name, target.name) not in _LEGAL:
            raise ExecutionError(
                f"illegal mode transition {self.mode.value} -> "
                f"{target.value}")
        self.mode = target
        self.stats.mode_switches += 1

    def _in_mode(self, name: str, what: str) -> None:
        if self.mode.name != name:
            raise ExecutionError(f"{what} requires "
                                 f"{name.replace('_', '-')} mode (Fig. 1)")

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------
    def _per_bank(self, per_bank) -> None:
        if len(per_bank) != self.num_banks:
            raise ExecutionError("need one array per bank")

    def host_write_dense(self, name: str, per_bank) -> None:
        self._in_mode("SB", "a host write")
        self._per_bank(per_bank)
        arrays = [np.array(data, dtype=np.float64) for data in per_bank]
        if any(a.ndim != 1 for a in arrays):
            raise ExecutionError("dense regions are one-dimensional")
        for bank, data in zip(self.banks, arrays):
            bank.coo.pop(name, None)
            bank.dense[name] = data

    def host_write_triples(self, name: str, per_bank) -> None:
        self._in_mode("SB", "a host write")
        self._per_bank(per_bank)
        for bank, (rows, cols, vals) in zip(self.banks, per_bank):
            triple = (np.array(rows, dtype=np.int64),
                      np.array(cols, dtype=np.int64),
                      np.array(vals, dtype=np.float64))
            if not triple[0].shape == triple[1].shape == triple[2].shape:
                raise ExecutionError("triple region arrays must align")
            bank.dense.pop(name, None)
            bank.coo[name] = triple

    def host_read_dense(self, name: str) -> List[np.ndarray]:
        self._in_mode("SB", "a host read")
        return [self._dense(bank, name).copy() for bank in self.banks]

    def host_read_triples(self, name: str) -> List[tuple]:
        self._in_mode("SB", "a host read")
        return [tuple(a.copy() for a in self._coo(bank, name))
                for bank in self.banks]

    def broadcast_scalar(self, value: float) -> None:
        self._in_mode("AB", "a scalar broadcast")
        for bank in self.banks:
            bank.srf = float(value)

    def read_scalars(self) -> np.ndarray:
        self._in_mode("SB", "a scalar readback")
        return np.array([bank.srf for bank in self.banks])

    @staticmethod
    def _dense(bank: _Bank, name: str) -> np.ndarray:
        if name not in bank.dense:
            raise ExecutionError(f"bank has no dense region {name!r}")
        return bank.dense[name]

    @staticmethod
    def _coo(bank: _Bank, name: str):
        if name not in bank.coo:
            raise ExecutionError(f"bank has no COO region {name!r}")
        return bank.coo[name]

    def load_program(self, program: Program,
                     reset_registers: bool = True) -> None:
        self._in_mode("AB", "programming")
        if len(program) > self.instruction_slots:
            raise ExecutionError("program exceeds the control register")
        self.program = program
        self._classified = tuple(
            (isinstance(ins, CInstruction),
             False if isinstance(ins, CInstruction) else needs_bank(ins))
            for ins in program)
        self.arm(reset_registers=reset_registers)
        self.stats.programs_loaded += 1

    def arm(self, reset_registers: bool = False) -> None:
        for bank in self.banks:
            bank.pc = 0
            bank.exited = False
            bank.exhausted_mask = 0
            bank.load_targets_mask = 0
            bank.loop_counters = {}
            if reset_registers:
                self._clear_registers(bank)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def all_exited(self) -> bool:
        return all(bank.exited for bank in self.banks)

    @property
    def active_count(self) -> int:
        return sum(not bank.exited for bank in self.banks)

    def step(self, beat: Beat) -> None:
        """Broadcast one transaction to every bank.

        A beat counts as predicated when a bank exits on it, or when a
        bank that had exited before it shares it with one still running.
        """
        self._in_mode("AB_PIM", "kernel execution")
        if self.program is None:
            raise ExecutionError("no program loaded")
        exited_before = self.num_banks - self.active_count
        for bank in self.banks:
            self._consume(bank, beat)
        self.stats.beats += 1
        exited_after = self.num_banks - self.active_count
        if exited_after > exited_before or (
                exited_before and exited_after < self.num_banks):
            self.stats.predicated_beats += 1

    def run(self, beats) -> int:
        self.stats.kernel_launches += 1
        consumed = 0
        for beat in beats:
            if self.all_exited:
                break
            self.step(beat)
            consumed += 1
        for bank in self.banks:
            self._flush(bank)
        return consumed

    def _consume(self, bank: _Bank, beat: Beat) -> None:
        if bank.exited:
            return
        program = self.program
        budget = 4 * len(program) + 8
        while budget:
            budget -= 1
            if bank.pc >= len(program):
                bank.exited = True
                return
            is_control, wants_beat = self._classified[bank.pc]
            ins = program[bank.pc]
            if is_control:
                self._control(bank, ins)
                if bank.exited:
                    return
                continue
            self._data(bank, ins, beat if wants_beat else None)
            bank.pc += 1
            if wants_beat:
                return
        raise ExecutionError(
            "program made no bank access within its step budget")

    def _flush(self, bank: _Bank) -> None:
        """Retire trailing control / register-only instructions."""
        program = self.program
        if program is None or bank.exited:
            return
        budget = 4 * len(program) + 8
        while budget and not bank.exited:
            budget -= 1
            if bank.pc >= len(program):
                bank.exited = True
                return
            is_control, wants_beat = self._classified[bank.pc]
            if is_control:
                self._control(bank, program[bank.pc])
                continue
            if wants_beat:
                return
            self._data(bank, program[bank.pc], None)
            bank.pc += 1

    # ------------------------------------------------------------------
    # control semantics (Table IV)
    # ------------------------------------------------------------------
    def _control(self, bank: _Bank, ins: CInstruction) -> None:
        op = ins.opcode
        if op is Opcode.NOP:
            bank.pc += 1
        elif op is Opcode.EXIT:
            bank.exited = True
        elif op is Opcode.CEXIT:
            watched = bank.load_targets_mask & ins.imm1
            if watched:
                done = (bank.exhausted_mask & watched) == watched
            else:
                done = bank.exhausted_mask != 0
            empty = all(not bank.queues[i]
                        for i in range(self.num_queues)
                        if ins.imm1 & (1 << i))
            if done and empty:
                bank.exited = True
            else:
                bank.pc += 1
        elif op is Opcode.JUMP:
            taken = bank.loop_counters.get(ins.order, 0) + 1
            if taken < ins.imm1:
                bank.loop_counters[ins.order] = taken
                bank.pc = ins.imm0
            else:
                bank.loop_counters[ins.order] = 0
                bank.pc += 1
        else:
            raise ExecutionError(f"unhandled control {op}")

    # ------------------------------------------------------------------
    # data semantics (Tables V-VI)
    # ------------------------------------------------------------------
    def _data(self, bank: _Bank, ins: BInstruction,
              beat: Optional[Beat]) -> None:
        op = ins.opcode
        if op is Opcode.DMOV:
            self._dmov(bank, ins, beat)
        elif op is Opcode.INDMOV:
            self._indmov(bank, ins, beat)
        elif op is Opcode.SPMOV:
            self._spmov(bank, ins, beat)
        elif op is Opcode.SPFW:
            self._spfw(bank, ins, beat)
        elif op is Opcode.GTHSCT:
            self._gthsct(bank, ins, beat)
        elif op is Opcode.SDV:
            self._sdv(bank, ins, beat)
        elif op is Opcode.SSPV:
            self._sspv(bank, ins)
        elif op is Opcode.REDUCE:
            self._reduce(bank, ins)
        elif op is Opcode.DVDV:
            self._dvdv(bank, ins, beat)
        elif op is Opcode.SPVDV:
            self._spvdv(bank, ins, beat)
        elif op is Opcode.SPVSPV:
            self._spvspv(bank, ins)
        else:
            raise ExecutionError(f"unhandled opcode {op}")

    # -- memory helpers --------------------------------------------------
    @staticmethod
    def _read(data: np.ndarray, start: int, count: int) -> np.ndarray:
        """Dense read; beyond-the-end lanes read as zero."""
        if start < 0:
            raise ExecutionError("negative dense region access")
        out = np.zeros(count)
        end = min(start + count, data.size)
        if start < end:
            out[:end - start] = data[start:end]
        return out

    @staticmethod
    def _write(data: np.ndarray, start: int, values: np.ndarray) -> None:
        """Dense write; beyond-the-end lanes are dropped."""
        if start < 0:
            raise ExecutionError("negative dense region access")
        end = min(start + values.size, data.size)
        if start < end:
            data[start:end] = values[:end - start]

    def _push(self, bank: _Bank, qi: int, row: int, col: int,
              value: float) -> bool:
        queue = bank.queues[qi]
        if len(queue) >= self.queue_capacity:
            return False
        queue.append((int(row), int(col), float(value)))
        return True

    # -- handlers --------------------------------------------------------
    def _dmov(self, bank: _Bank, ins: BInstruction,
              beat: Optional[Beat]) -> None:
        if ins.dst.is_dense_register and ins.src0 is Operand.BANK:
            data = self._dense(bank, beat.region)
            window = self._read(data, beat.index * self.lanes, self.lanes)
            bank.drf[ins.dst.dense_index] = window
        elif ins.dst is Operand.BANK and ins.src0.is_dense_register:
            self._write(self._dense(bank, beat.region),
                        beat.index * self.lanes,
                        bank.drf[ins.src0.dense_index])
        elif ins.dst is Operand.SRF and ins.src0 is Operand.BANK:
            data = self._dense(bank, beat.region)
            bank.srf = (float(data[beat.index])
                        if 0 <= beat.index < data.size else 0.0)
        elif ins.dst is Operand.BANK and ins.src0 is Operand.SRF:
            self._write(self._dense(bank, beat.region), beat.index,
                        np.array([bank.srf]))
        elif ins.dst.is_dense_register and ins.src0.is_dense_register:
            bank.drf[ins.dst.dense_index] = (
                bank.drf[ins.src0.dense_index].copy())
        else:
            raise ExecutionError("illegal DMOV combination")

    def _indmov(self, bank: _Bank, ins: BInstruction,
                beat: Optional[Beat]) -> None:
        queue = bank.queues[ins.src1.queue_index]
        if not queue:
            return
        _, col, _ = queue[0]
        if col == _PAD:
            return
        data = self._dense(bank, beat.region)
        bank.srf = float(data[col]) if 0 <= col < data.size else 0.0

    def _spmov(self, bank: _Bank, ins: BInstruction,
               beat: Optional[Beat]) -> None:
        gs = self.group_size
        if ins.dst.is_sparse_queue and ins.src0 is Operand.BANK:
            qi = ins.dst.queue_index
            bit = 1 << qi
            bank.load_targets_mask |= bit
            if self.queue_capacity - len(bank.queues[qi]) < gs:
                return
            rows, cols, vals = self._coo(bank, beat.region)
            cursor = bank.cursors.get(beat.region, 0)
            if cursor % gs:
                raise ExecutionError("queue stream cursor misaligned")
            lo, hi = cursor, min(cursor + gs, rows.size)
            got = max(hi - lo, 0)
            bank.cursors[beat.region] = cursor + gs
            if got < gs:
                bank.exhausted_mask |= bit
            if cursor + got >= rows.size:
                bank.exhausted_mask |= bit
            for k in range(lo, hi):
                if rows[k] == _PAD:
                    bank.exhausted_mask |= bit
                    continue
                self._push(bank, qi, int(rows[k]), int(cols[k]),
                           float(vals[k]))
        elif ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            items = self._pop_up_to(bank, ins.src0.queue_index, gs)
            if items:
                self._store_triples(bank, beat.region, items)
        else:
            raise ExecutionError("SpMOV moves between a SpVQ and the bank")

    def _pop_up_to(self, bank: _Bank, qi: int, count: int):
        queue = bank.queues[qi]
        taken = queue[:count]
        del queue[:count]
        return taken

    def _store_triples(self, bank: _Bank, region: str, items) -> None:
        rows, cols, vals = self._coo(bank, region)
        cursor = bank.cursors.get(region, 0)
        hi = cursor + len(items)
        if hi > rows.size:
            raise CapacityError(
                f"triple region {region!r} overflow: writing "
                f"[{cursor}, {hi}) into {rows.size} slots")
        for k, (r, c, v) in enumerate(items):
            rows[cursor + k] = r
            cols[cursor + k] = c
            vals[cursor + k] = v
        bank.cursors[region] = hi

    def _spfw(self, bank: _Bank, ins: BInstruction,
              beat: Optional[Beat]) -> None:
        items = self._pop_up_to(bank, ins.src0.queue_index,
                                self.queue_capacity)
        if items:
            self._store_triples(bank, beat.region, items)

    def _gthsct(self, bank: _Bank, ins: BInstruction,
                beat: Optional[Beat]) -> None:
        gs = self.group_size
        ident = ins.idnt.value_as_float
        if ins.dst.is_sparse_queue and ins.src0 is Operand.BANK:
            data = self._dense(bank, beat.region)
            base = beat.index * gs
            window = self._read(data, base, gs)
            qi = ins.dst.queue_index
            bank.load_targets_mask |= 1 << qi
            for lane in range(gs):
                if window[lane] != ident:
                    self._push(bank, qi, base + lane, base + lane,
                               float(window[lane]))
            if base + gs >= data.size:
                bank.exhausted_mask |= 1 << qi
        elif ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            data = self._dense(bank, beat.region)
            for row, _, value in self._pop_up_to(
                    bank, ins.src0.queue_index, gs):
                if 0 <= row < data.size:
                    data[row] = value
        else:
            raise ExecutionError("GthSct transforms BANK <-> SpVQ")

    def _sdv(self, bank: _Bank, ins: BInstruction,
             beat: Optional[Beat]) -> None:
        if ins.src1 is Operand.BANK:
            operand = self._read(self._dense(bank, beat.region),
                                 beat.index * self.lanes, self.lanes)
        else:
            operand = bank.drf[ins.src1.dense_index]
        result = _binary(ins.binary, bank.srf, operand)
        out = np.zeros(self.lanes)
        arr = np.asarray(result, dtype=float)
        out[:arr.size] = arr
        bank.drf[ins.dst.dense_index] = out

    def _sspv(self, bank: _Bank, ins: BInstruction) -> None:
        src = bank.queues[ins.src1.queue_index]
        if not src:
            return
        row, col, value = src.pop(0)
        result = float(_binary(ins.binary, bank.srf, value))
        self._push(bank, ins.dst.queue_index, row, col, result)

    def _reduce(self, bank: _Bank, ins: BInstruction) -> None:
        if ins.src0.is_dense_register:
            values = bank.drf[ins.src0.dense_index]
        else:
            items = self._pop_up_to(bank, ins.src0.queue_index,
                                    self.group_size)
            values = np.array([v for _, _, v in items])
        bank.srf = _fold(ins.binary, values, bank.srf)

    def _dvdv(self, bank: _Bank, ins: BInstruction,
              beat: Optional[Beat]) -> None:
        left = bank.drf[ins.src0.dense_index]
        if ins.src1 is Operand.BANK:
            right = self._read(self._dense(bank, beat.region),
                               beat.index * self.lanes, self.lanes)
        else:
            right = bank.drf[ins.src1.dense_index]
        result = np.asarray(_binary(ins.binary, left, right), dtype=float)
        out = np.zeros(self.lanes)
        out[:result.size] = result
        bank.drf[ins.dst.dense_index] = out

    def _spvdv(self, bank: _Bank, ins: BInstruction,
               beat: Optional[Beat]) -> None:
        if ins.dst is Operand.BANK and ins.src0.is_sparse_queue:
            src = bank.queues[ins.src0.queue_index]
            if not src:
                return
            row, _, value = src.pop(0)
            data = self._dense(bank, beat.region)
            if 0 <= row < data.size:
                data[row] = float(_binary(ins.binary, data[row], value))
        elif ins.dst.is_sparse_queue and ins.src0.is_sparse_queue \
                and ins.src1 is Operand.BANK:
            src = bank.queues[ins.src0.queue_index]
            if not src:
                return
            row, col, value = src.pop(0)
            data = self._dense(bank, beat.region)
            gathered = (float(data[row])
                        if 0 <= row < data.size else 0.0)
            self._push(bank, ins.dst.queue_index, row, col,
                       float(_binary(ins.binary, value, gathered)))
        else:
            raise ExecutionError("illegal SpVDV form")

    def _spvspv(self, bank: _Bank, ins: BInstruction) -> None:
        qa = bank.queues[ins.src0.queue_index]
        qb = bank.queues[ins.src1.queue_index]
        out_qi = ins.dst.queue_index
        union = bool(ins.set_mode)
        ident = ins.idnt.value_as_float
        if not qa and not qb:
            return
        if not qa or not qb:
            a_empty = not qa
            empty_bit = 1 << (ins.src0.queue_index if a_empty
                              else ins.src1.queue_index)
            if not bank.exhausted_mask & empty_bit:
                return
            if union:
                row, col, value = (qb if a_empty else qa).pop(0)
                left, right = ((ident, value) if a_empty
                               else (value, ident))
                self._push(bank, out_qi, row, col,
                           float(_binary(ins.binary, left, right)))
            else:
                (qb if a_empty else qa).pop(0)
            return
        ra, ca, va = qa[0]
        rb, cb, vb = qb[0]
        if ra == rb:
            qa.pop(0)
            qb.pop(0)
            self._push(bank, out_qi, ra, ca,
                       float(_binary(ins.binary, va, vb)))
        elif ra < rb:
            qa.pop(0)
            if union:
                self._push(bank, out_qi, ra, ca,
                           float(_binary(ins.binary, va, ident)))
        else:
            qb.pop(0)
            if union:
                self._push(bank, out_qi, rb, cb,
                           float(_binary(ins.binary, ident, vb)))
