"""Seeded ISA program fuzzer: two interpreters, one architectural state.

Generates random well-formed PIM kernels (both instruction formats,
predication, CEXIT loops, ``-1``-padded COO streams, queue back-pressure)
plus random inputs, runs them through the vectorized lane engine and the
independent :mod:`repro.check.reference` interpreter, and asserts
bitwise-identical register files, queues, bank memory, per-bank exit
state and beat counts. Every case is a pure function of its seed, so a
failure prints a one-line reproducer; :func:`shrink_case` then reduces a
failing case block-by-block before reporting.

Determinism is load-bearing: :class:`FuzzCase` fields plus the seed fully
determine the program, the beat stream and all input data. Shrinking
works by rebuilding a smaller case and re-checking the predicate.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ProcessingUnitConfig, element_size
from ..errors import CheckError
from ..isa import (BInstruction, BinaryOp, CInstruction, Identity, Opcode,
                   Operand, Program, SetMode)
from ..isa.opcodes import ValueFormat
from ..pim import Beat, DenseLanes, LaneEngine, Mode
from .reference import ReferenceEngine

_PRECISIONS = ("fp64", "fp32", "fp16", "int8")
_FORMATS = {"fp64": ValueFormat.FP64, "fp32": ValueFormat.FP32,
            "fp16": ValueFormat.FP16, "int8": ValueFormat.INT8}
_COMPUTE_OPS = (BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL, BinaryOp.MIN,
                BinaryOp.MAX, BinaryOp.LAND, BinaryOp.LOR, BinaryOp.FIRST,
                BinaryOp.SECOND)
_REDUCE_OPS = (BinaryOp.ADD, BinaryOp.MUL, BinaryOp.MIN, BinaryOp.MAX,
               BinaryOp.LOR, BinaryOp.LAND)
_DRF = (Operand.DRF0, Operand.DRF1, Operand.DRF2)
_SPVQ = (Operand.SPVQ0, Operand.SPVQ1, Operand.SPVQ2)

#: Hard cap on the statically-expanded beat stream (runaway guard).
MAX_BEATS = 5000


@dataclass(frozen=True)
class BlockSpec:
    """One kernel block. Fields unused by a kind keep their defaults."""

    kind: str                      # dense | spmv | gather | merge | spmm
    op: BinaryOp = BinaryOp.ADD
    reduce_op: BinaryOp = BinaryOp.ADD
    queue: int = 0                 # primary (load-target) SpVQ
    out_queue: int = 2             # compute-result SpVQ
    drain: str = "spfw"            # spfw | store | reduce | scatter
    sspv: bool = False             # interpose SSpV between load and drain
    union: bool = False            # SpVSpV set mode (merge blocks)
    ident: Identity = Identity.ZERO
    merge_width: int = 2           # SpVSpV executions per iteration
    repeats: int = 1               # dense-block JUMP count (1 = no loop)
    int_values: bool = False       # small-integer inputs (ties, zeros)


@dataclass(frozen=True)
class FuzzCase:
    """A fully seeded differential test case."""

    seed: int
    precision: str
    num_banks: int
    stream_len: int
    blocks: Tuple[BlockSpec, ...]
    #: Name of the generator that produced this case — keeps reproducer
    #: strings exact for cases from the SpMM template universe
    #: (:func:`generate_spmm_case`), whose seeds deliberately do NOT
    #: collide with the classic :func:`generate_case` stream.
    generator: str = "generate_case"

    def reproducer(self) -> str:
        return (f"repro.check.fuzz.run_case({self.generator}({self.seed})) "
                f"[precision={self.precision} banks={self.num_banks} "
                f"stream={self.stream_len} "
                f"blocks={[b.kind for b in self.blocks]}]")


@dataclass
class BuiltCase:
    """The concrete artifacts a case expands to."""

    program: Program
    beats: List[Beat]
    dense_data: Dict[str, List[np.ndarray]]
    triple_data: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]


def generate_case(seed: int) -> FuzzCase:
    """Draw a random case; every field is derived from *seed* alone."""
    rng = np.random.default_rng(seed)
    precision = _PRECISIONS[rng.integers(len(_PRECISIONS))]
    num_banks = int(rng.integers(1, 5))
    stream_len = int(rng.integers(6, 41))
    kinds = ("dense", "spmv", "gather", "merge")
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[rng.integers(len(kinds))]
        blocks.append(BlockSpec(
            kind=kind,
            op=_COMPUTE_OPS[rng.integers(len(_COMPUTE_OPS))],
            reduce_op=_REDUCE_OPS[rng.integers(len(_REDUCE_OPS))],
            queue=int(rng.integers(0, 2)),
            out_queue=2,
            drain=("spfw", "store", "reduce",
                   "scatter")[rng.integers(4)],
            sspv=bool(rng.integers(2)),
            union=bool(rng.integers(2)),
            ident=(Identity.ZERO, Identity.ONE)[rng.integers(2)],
            merge_width=int(rng.integers(2, 4)),
            repeats=int(rng.integers(1, 4)),
            int_values=bool(rng.integers(2)),
        ))
    return FuzzCase(seed=seed, precision=precision, num_banks=num_banks,
                    stream_len=stream_len, blocks=tuple(blocks))


def generate_spmm_case(seed: int) -> FuzzCase:
    """Draw a random multi-rhs SpMM-template case from *seed*.

    The template mirrors the SpMM workload shape: one ``"spmm"`` block —
    a resident matrix stream re-read once per right-hand-side column,
    each column doing a scalar-vector compute and a dense-block
    scatter-accumulate into its own output, all under one CEXIT-guarded
    loop — optionally followed by a light dense/gather block so the
    template interacts with leftover queue state. The RNG stream and the
    ``"spmm"`` block kind are both unreachable from
    :func:`generate_case`, so this universe never perturbs the classic
    seed corpus (golden CI seed ranges stay bitwise stable).
    """
    rng = np.random.default_rng((int(seed) << 1) ^ 0x5B11)
    precision = _PRECISIONS[rng.integers(len(_PRECISIONS))]
    num_banks = int(rng.integers(1, 5))
    stream_len = int(rng.integers(6, 33))
    blocks = [BlockSpec(
        kind="spmm",
        op=_COMPUTE_OPS[rng.integers(len(_COMPUTE_OPS))],
        reduce_op=_REDUCE_OPS[rng.integers(len(_REDUCE_OPS))],
        queue=int(rng.integers(0, 2)),
        out_queue=2,
        ident=(Identity.ZERO, Identity.ONE)[rng.integers(2)],
        merge_width=int(rng.integers(2, 5)),     # rhs columns
        int_values=bool(rng.integers(2)),
    )]
    if rng.integers(2):
        blocks.append(BlockSpec(
            kind=("dense", "gather")[rng.integers(2)],
            op=_COMPUTE_OPS[rng.integers(len(_COMPUTE_OPS))],
            reduce_op=_REDUCE_OPS[rng.integers(len(_REDUCE_OPS))],
            queue=int(rng.integers(0, 2)),
            out_queue=2,
            sspv=bool(rng.integers(2)),
            ident=(Identity.ZERO, Identity.ONE)[rng.integers(2)],
            repeats=int(rng.integers(1, 3)),
            int_values=bool(rng.integers(2)),
        ))
    return FuzzCase(seed=seed, precision=precision, num_banks=num_banks,
                    stream_len=stream_len, blocks=tuple(blocks),
                    generator="generate_spmm_case")


# ----------------------------------------------------------------------
# case expansion
# ----------------------------------------------------------------------
def _values(rng, n: int, ints: bool) -> np.ndarray:
    if ints:
        return rng.integers(-2, 3, n).astype(np.float64)
    return rng.standard_normal(n)


def _coo(rng, length: int, ints: bool):
    """One bank's padded COO stream: sorted rows, ``-1`` tail padding."""
    valid = int(rng.integers(max(1, length // 2), length + 1))
    rows = np.sort(rng.integers(0, length, valid)).astype(np.int64)
    cols = rng.integers(0, length, valid).astype(np.int64)
    vals = _values(rng, valid, ints)
    pad = length - valid
    rows = np.concatenate([rows, np.full(pad, -1, dtype=np.int64)])
    cols = np.concatenate([cols, np.full(pad, -1, dtype=np.int64)])
    vals = np.concatenate([vals, np.zeros(pad)])
    return rows, cols, vals


class _Slot:
    """Beat recipe for one bank-access instruction slot."""

    __slots__ = ("region", "wrap", "write", "counter")

    def __init__(self, region: str, wrap: int = 0, write: bool = False,
                 counter: bool = False) -> None:
        self.region = region
        self.wrap = wrap        # >0: visit counter modulo wrap
        self.counter = counter  # raw visit counter (gather must exhaust)
        self.write = write


def build_case(case: FuzzCase,
               config: ProcessingUnitConfig = ProcessingUnitConfig(),
               ) -> BuiltCase:
    """Expand *case* into a program, a beat stream and input data."""
    rng = np.random.default_rng(case.seed + 0x5EED)
    value_bytes = element_size(case.precision)
    lanes = config.datapath_bytes // value_bytes
    capacity = min(config.subqueue_bytes // value_bytes,
                   config.subqueue_bytes // 2)
    gs = min(lanes, capacity)
    fmt = _FORMATS[case.precision]
    length = case.stream_len
    windows = max(1, -(-length // lanes))
    groups = -(-length // gs)

    instructions: List = []
    slots: List[Optional[_Slot]] = []
    dense_data: Dict[str, List[np.ndarray]] = {}
    triple_data: Dict[str, List[Tuple]] = {}

    def emit(ins, slot: Optional[_Slot] = None) -> None:
        instructions.append(ins)
        slots.append(slot)

    def add_dense(name: str, maker: Callable[[], np.ndarray]) -> None:
        dense_data[name] = [maker() for _ in range(case.num_banks)]

    def add_triples(name: str, maker: Callable[[], Tuple]) -> None:
        triple_data[name] = [maker() for _ in range(case.num_banks)]

    for bi, block in enumerate(case.blocks):
        # spmm blocks emit 3 instructions per rhs column plus the loop
        # pair; every classic kind fits in 9 (the historical budget).
        need = (3 * block.merge_width + 2 if block.kind == "spmm"
                else 9)
        if len(instructions) + need > 32:
            break
        start = len(instructions)
        ints = block.int_values
        if block.kind == "dense":
            src, dst = _DRF[0], _DRF[1]
            name_in, name_out = f"d{bi}_in", f"d{bi}_out"
            add_dense(name_in, lambda: _values(rng, length, ints))
            add_dense(name_out, lambda: np.zeros(length))
            emit(BInstruction(Opcode.DMOV, dst=src, src0=Operand.BANK,
                              value=fmt),
                 _Slot(name_in, wrap=windows))
            if block.sspv:   # reuse the flag: scalar (.) vector flavour
                emit(BInstruction(Opcode.SDV, dst=dst, src0=Operand.SRF,
                                  src1=Operand.BANK, value=fmt,
                                  binary=block.op),
                     _Slot(name_in, wrap=windows))
            else:
                emit(BInstruction(Opcode.DVDV, dst=dst, src0=src,
                                  src1=Operand.BANK, value=fmt,
                                  binary=block.op),
                     _Slot(name_in, wrap=windows))
            emit(BInstruction(Opcode.REDUCE, dst=Operand.SRF, src0=dst,
                              value=fmt, binary=block.reduce_op))
            emit(BInstruction(Opcode.DMOV, dst=Operand.BANK, src0=dst,
                              value=fmt),
                 _Slot(name_out, wrap=windows, write=True))
            if block.repeats > 1:
                emit(CInstruction(Opcode.JUMP, imm0=start, order=bi,
                                  imm1=block.repeats))
        elif block.kind == "spmv":
            q = block.queue
            d = block.out_queue if block.sspv else q
            stream = f"c{bi}"
            add_triples(stream, lambda: _coo(rng, length, ints))
            emit(BInstruction(Opcode.SPMOV, dst=_SPVQ[q],
                              src0=Operand.BANK, value=fmt),
                 _Slot(stream))
            if block.sspv:
                for _ in range(2):
                    emit(BInstruction(Opcode.SSPV, dst=_SPVQ[d],
                                      src0=Operand.SRF, src1=_SPVQ[q],
                                      value=fmt, binary=block.op))
            if block.drain == "reduce":
                emit(BInstruction(Opcode.REDUCE, dst=Operand.SRF,
                                  src0=_SPVQ[d], value=fmt,
                                  binary=block.reduce_op))
            elif block.drain == "scatter":
                acc = f"d{bi}_acc"
                add_dense(acc, lambda: _values(rng, length, ints))
                emit(BInstruction(Opcode.GTHSCT, dst=Operand.BANK,
                                  src0=_SPVQ[d], value=fmt,
                                  idnt=block.ident),
                     _Slot(acc, write=True))
            else:
                out = f"t{bi}_out"
                # sized for the stream plus any queue leftovers earlier
                # blocks may have abandoned in the drained SpVQ
                room = length + 3 * capacity
                add_triples(out, lambda: (
                    np.full(room, -1, dtype=np.int64),
                    np.full(room, -1, dtype=np.int64),
                    np.zeros(room)))
                opcode = (Opcode.SPFW if block.drain == "spfw"
                          else Opcode.SPMOV)
                emit(BInstruction(opcode, dst=Operand.BANK, src0=_SPVQ[d],
                                  value=fmt),
                     _Slot(out, write=True))
            emit(CInstruction(Opcode.CEXIT,
                              imm1=(1 << q) | (1 << d)))
            count = groups + 4 + (-(-length // 2) if block.sspv else 0)
            emit(CInstruction(Opcode.JUMP, imm0=start, order=bi,
                              imm1=min(count, 1000)))
        elif block.kind == "gather":
            q = block.queue
            name_in, name_out = f"g{bi}_in", f"g{bi}_out"

            def sparse_dense() -> np.ndarray:
                data = _values(rng, length, ints)
                data[rng.random(length) < 0.4] = block.ident.value_as_float
                return data

            add_dense(name_in, sparse_dense)
            add_dense(name_out, lambda: np.zeros(length))
            emit(BInstruction(Opcode.GTHSCT, dst=_SPVQ[q],
                              src0=Operand.BANK, value=fmt,
                              idnt=block.ident),
                 _Slot(name_in, counter=True))
            emit(BInstruction(Opcode.GTHSCT, dst=Operand.BANK,
                              src0=_SPVQ[q], value=fmt,
                              idnt=block.ident),
                 _Slot(name_out, write=True))
            emit(CInstruction(Opcode.CEXIT, imm1=1 << q))
            emit(CInstruction(Opcode.JUMP, imm0=start, order=bi,
                              imm1=groups + 3))
        elif block.kind == "merge":
            name_a, name_b, out = f"mA{bi}", f"mB{bi}", f"m{bi}_out"
            add_triples(name_a, lambda: _coo(rng, length, ints))
            add_triples(name_b, lambda: _coo(rng, length, ints))
            room = 2 * length + 3 * capacity
            add_triples(out, lambda: (
                np.full(room, -1, dtype=np.int64),
                np.full(room, -1, dtype=np.int64),
                np.zeros(room)))
            emit(BInstruction(Opcode.SPMOV, dst=_SPVQ[0],
                              src0=Operand.BANK, value=fmt),
                 _Slot(name_a))
            emit(BInstruction(Opcode.SPMOV, dst=_SPVQ[1],
                              src0=Operand.BANK, value=fmt),
                 _Slot(name_b))
            for _ in range(block.merge_width):
                emit(BInstruction(
                    Opcode.SPVSPV, dst=_SPVQ[2], src0=_SPVQ[0],
                    src1=_SPVQ[1], value=fmt, binary=block.op,
                    set_mode=(SetMode.UNION if block.union
                              else SetMode.INTERSECTION),
                    idnt=block.ident))
            emit(BInstruction(Opcode.SPFW, dst=Operand.BANK,
                              src0=_SPVQ[2], value=fmt),
                 _Slot(out, write=True))
            emit(CInstruction(Opcode.CEXIT, imm1=0b111))
            count = groups + -(-2 * length // block.merge_width) + 6
            emit(CInstruction(Opcode.JUMP, imm0=start, order=bi,
                              imm1=min(count, 1000)))
        elif block.kind == "spmm":
            # Multi-rhs SpMM template: one matrix COO stream, re-read
            # per right-hand-side column (``merge_width`` doubles as the
            # rhs width); each column multiplies the stream by a scalar
            # (SRF stands in for its staged x value) and scatter-
            # accumulates into its own dense output block.
            q, d = block.queue, block.out_queue
            width = block.merge_width
            mats = [_coo(rng, length, ints)
                    for _ in range(case.num_banks)]
            for j in range(width):
                triple_data[f"s{bi}_mat{j}"] = [
                    (rows.copy(), cols.copy(), vals.copy())
                    for rows, cols, vals in mats]
            for j in range(width):
                acc = f"s{bi}_acc{j}"
                add_dense(acc, lambda: _values(rng, length, ints))
                emit(BInstruction(Opcode.SPMOV, dst=_SPVQ[q],
                                  src0=Operand.BANK, value=fmt),
                     _Slot(f"s{bi}_mat{j}"))
                emit(BInstruction(Opcode.SSPV, dst=_SPVQ[d],
                                  src0=Operand.SRF, src1=_SPVQ[q],
                                  value=fmt, binary=block.op))
                emit(BInstruction(Opcode.GTHSCT, dst=Operand.BANK,
                                  src0=_SPVQ[d], value=fmt,
                                  idnt=block.ident),
                     _Slot(acc, write=True))
            emit(CInstruction(Opcode.CEXIT,
                              imm1=(1 << q) | (1 << d)))
            count = width * (groups + 4)
            emit(CInstruction(Opcode.JUMP, imm0=start, order=bi,
                              imm1=min(count, 1000)))
        else:
            raise CheckError(f"unknown block kind {block.kind!r}")

    program = Program(instructions, name=f"fuzz-{case.seed}")
    beats = _static_beats(program, slots)
    return BuiltCase(program=program, beats=beats,
                     dense_data=dense_data, triple_data=triple_data)


def _static_beats(program: Program,
                  slots: Sequence[Optional[_Slot]]) -> List[Beat]:
    """Expand the never-exiting control path into its beat stream.

    CEXIT is treated as not taken (the maximal stream: a bank that never
    satisfies its exit condition consumes exactly these transactions, and
    banks that exit early simply stop consuming). JUMP counters are
    static, so the walk terminates.
    """
    beats: List[Beat] = []
    counters: Dict[int, int] = {}
    visits: Dict[int, int] = {}
    pc = 0
    while pc < len(program) and len(beats) < MAX_BEATS:
        ins = program[pc]
        if isinstance(ins, CInstruction):
            if ins.opcode is Opcode.JUMP:
                taken = counters.get(ins.order, 0) + 1
                if taken < ins.imm1:
                    counters[ins.order] = taken
                    pc = ins.imm0
                    continue
                counters[ins.order] = 0
            elif ins.opcode is Opcode.EXIT:
                break
            pc += 1
            continue
        slot = slots[pc]
        if slot is not None:
            n = visits.get(pc, 0)
            visits[pc] = n + 1
            if slot.wrap:
                index = n % slot.wrap
            elif slot.counter:
                index = n
            else:
                index = 0
            beats.append(Beat(region=slot.region, index=index,
                              write=slot.write))
        pc += 1
    if len(beats) >= MAX_BEATS:
        raise CheckError(
            f"case expanded past {MAX_BEATS} beats; generator bug")
    return beats


# ----------------------------------------------------------------------
# the two interpreters
# ----------------------------------------------------------------------
def drive(engine, built: BuiltCase) -> int:
    """Load *built* into a lane or reference engine and run its stream
    through the Fig. 1 mode protocol; returns the beats consumed."""
    for name, per_bank in built.dense_data.items():
        engine.host_write_dense(name, per_bank)
    for name, per_bank in built.triple_data.items():
        engine.host_write_triples(name, per_bank)
    engine.switch_mode(Mode.AB)
    engine.load_program(built.program)
    engine.switch_mode(Mode.AB_PIM)
    return engine.run(built.beats)


def _pack(value: float) -> bytes:
    """Bitwise float identity (NaN- and signed-zero-exact)."""
    return struct.pack("<d", float(value))


def _arr(a: np.ndarray) -> tuple:
    a = np.ascontiguousarray(a)
    return (a.dtype.str, a.shape, a.tobytes())


def architectural_state(engine) -> dict:
    """Every bank's registers, queues, regions and exit state, as plain
    bytes, from a :class:`LaneEngine` or a :class:`ReferenceEngine`."""
    if isinstance(engine, ReferenceEngine):
        return _reference_state(engine)
    banks = {}
    for b in range(engine.num_banks):
        regions = {}
        for name, region in engine.memory.items():
            n = region.lengths[b]
            if isinstance(region, DenseLanes):
                regions[name] = _arr(region.data[b, :n])
            else:
                regions[name] = (_arr(region.rows[b, :n]),
                                 _arr(region.cols[b, :n]),
                                 _arr(region.vals[b, :n]))
        banks[b] = {
            "exited": bool(engine.exited[b]),
            "exhausted_mask": int(engine.exhausted_mask[b]),
            "load_targets_mask": int(engine.load_targets_mask[b]),
            "srf": _pack(engine.scalar[b]),
            "drf": [_arr(engine.dense[i, b])
                    for i in range(engine.dense.shape[0])],
            "queues": [[(r, c, _pack(v)) for r, c, v in queue.snapshot(b)]
                       for queue in engine.queues],
            "regions": regions,
        }
    return banks


def _reference_state(engine: ReferenceEngine) -> dict:
    banks = {}
    for b, bank in enumerate(engine.banks):
        regions = {name: _arr(data) for name, data in bank.dense.items()}
        for name, (rows, cols, vals) in bank.coo.items():
            regions[name] = (_arr(rows), _arr(cols), _arr(vals))
        banks[b] = {
            "exited": bool(bank.exited),
            "exhausted_mask": int(bank.exhausted_mask),
            "load_targets_mask": int(bank.load_targets_mask),
            "srf": _pack(bank.srf),
            "drf": [_arr(r) for r in bank.drf],
            "queues": [[(r, c, _pack(v)) for r, c, v in q]
                       for q in bank.queues],
            "regions": regions,
        }
    return banks


def _first_diff(a, b, path="state") -> Optional[str]:
    """Locate the first structural difference between two snapshots."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            diff = _first_diff(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _first_diff(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


#: Engine counters both interpreters keep, compared after every case.
_STAT_FIELDS = ("beats", "mode_switches", "programs_loaded",
                "kernel_launches", "predicated_beats")


def engine_diff(lane, ref) -> Optional[str]:
    """First difference between two engines' counters and architectural
    state, or None when they agree bitwise."""
    for name in _STAT_FIELDS:
        a, b = getattr(lane.stats, name), getattr(ref.stats, name)
        if a != b:
            return f"stats.{name}: lane {a} != reference {b}"
    return _first_diff(architectural_state(lane),
                       architectural_state(ref), "lane-vs-reference")


def run_case(case: FuzzCase,
             config: ProcessingUnitConfig = ProcessingUnitConfig(),
             ) -> BuiltCase:
    """Run *case* on the lane engine and the reference; raise CheckError
    unless beats consumed, engine counters (predicated beats included)
    and full architectural state agree bitwise."""
    built = build_case(case, config)
    lane = LaneEngine(case.num_banks, config, case.precision)
    ref = ReferenceEngine(case.num_banks, config, case.precision)
    consumed = (drive(lane, built), drive(ref, built))
    if consumed[0] != consumed[1]:
        diff = (f"beat consumption diverged: lane {consumed[0]} != "
                f"reference {consumed[1]}")
    else:
        diff = engine_diff(lane, ref)
    if diff is not None:
        raise CheckError(f"{diff}; reproduce: {case.reproducer()}")
    return built


# ----------------------------------------------------------------------
# shrinking and driving
# ----------------------------------------------------------------------
def shrink_case(case: FuzzCase,
                failed: Callable[[FuzzCase], bool]) -> FuzzCase:
    """Greedy structural shrink: fewer blocks, shorter streams, fewer
    banks — keeping only reductions for which *failed* still holds."""
    changed = True
    while changed:
        changed = False
        for i in range(len(case.blocks)):
            if len(case.blocks) <= 1:
                break
            candidate = dataclasses.replace(
                case, blocks=case.blocks[:i] + case.blocks[i + 1:])
            if failed(candidate):
                case = candidate
                changed = True
                break
        if not changed and case.stream_len > 6:
            candidate = dataclasses.replace(
                case, stream_len=max(6, case.stream_len // 2))
            if failed(candidate):
                case = candidate
                changed = True
        if not changed and case.num_banks > 1:
            candidate = dataclasses.replace(
                case, num_banks=case.num_banks - 1)
            if failed(candidate):
                case = candidate
                changed = True
    return case


def _case_fails(case: FuzzCase) -> bool:
    try:
        run_case(case)
    except CheckError:
        return True
    return False


def fuzz_range(start: int, count: int, shrink: bool = True,
               generator: Callable[[int], FuzzCase] = generate_case,
               ) -> List[Tuple[int, str]]:
    """Run seeds ``[start, start+count)``; return (seed, message) failures.

    Every seed goes through the full lane-vs-reference :func:`run_case`. Each
    failure is shrunk (when *shrink*) before being reported, and the
    reported message always carries the original reproducer seed.

    *generator* selects the case universe: the classic
    :func:`generate_case` (the default) or the SpMM-template
    :func:`generate_spmm_case` — the two draw from disjoint RNG streams,
    so the same seed range may safely cover both without correlation.
    """
    failures: List[Tuple[int, str]] = []
    for seed in range(start, start + count):
        case = generator(seed)
        try:
            run_case(case)
        except CheckError as exc:
            message = str(exc)
            if shrink:
                small = shrink_case(case, _case_fails)
                if small != case:
                    message += f"; shrunk: {small.reproducer()}"
            failures.append((seed, message))
    return failures
