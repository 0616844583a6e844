"""Static program analysis: beat signatures and structural checks.

A kernel program and its transaction stream are a contract: the stream
must supply exactly the memory transactions the program's bank-access
instructions will consume, in order. :func:`beat_signature` executes a
program *symbolically* — control flow only, loop counters taken at face
value, every predicated path assumed live — and returns the ordered list
of bank accesses it will perform. Drivers use it to validate their beat
generators before launch, and the test-suite uses it to pin each kernel's
schedule shape.

The signature is an upper bound: conditional exits can only shorten the
real stream, never lengthen or reorder it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ExecutionError
from ..isa import BInstruction, CInstruction, Opcode, Operand, Program

#: Safety bound on symbolic execution (total instruction visits).
_MAX_STEPS = 1_000_000


def uses_bank(ins: BInstruction) -> bool:
    """Whether this instruction consumes a memory transaction.

    Decided per opcode semantics rather than by scanning operand fields:
    unused operand slots encode as BANK (value 0), so field scanning would
    misclassify register-only instructions like Reduce.
    """
    op = ins.opcode
    if op in (Opcode.INDMOV, Opcode.SPFW, Opcode.GTHSCT, Opcode.SPVDV):
        return True
    if op in (Opcode.SSPV, Opcode.REDUCE, Opcode.SPVSPV):
        return False
    if op in (Opcode.DMOV, Opcode.SPMOV):
        return Operand.BANK in (ins.dst, ins.src0)
    # SDV / DVDV stream their right-hand operand from the bank if asked.
    return ins.src1 is Operand.BANK


@dataclass(frozen=True)
class BeatSlot:
    """One bank access the program will request."""

    slot: int           # instruction slot performing the access
    opcode: str         # mnemonic
    write: bool         # does the access write the bank?

    def __str__(self) -> str:
        direction = "WR" if self.write else "RD"
        return f"{self.opcode}@{self.slot}:{direction}"


def _writes_bank(ins: BInstruction) -> bool:
    """Whether the instruction's bank access is (or includes) a write."""
    from ..isa import Operand
    if ins.opcode is Opcode.SPVDV:
        # scatter-accumulate read-modify-writes the output row
        return ins.dst is Operand.BANK
    if ins.opcode in (Opcode.SPFW,):
        return True
    if ins.opcode is Opcode.GTHSCT:
        return ins.dst is Operand.BANK
    return ins.dst is Operand.BANK


def beat_signature(program: Program) -> List[BeatSlot]:
    """The ordered bank accesses of one full pass of *program*.

    Loops unroll by their JUMP counts; EXIT terminates; CEXIT is treated
    as not taken (the longest possible stream).
    """
    signature: List[BeatSlot] = []
    counters = {}
    pc = 0
    steps = 0
    while pc < len(program):
        steps += 1
        if steps > _MAX_STEPS:
            raise ExecutionError(
                "symbolic execution exceeded its step budget; "
                "check the program's loop counts")
        ins = program[pc]
        if isinstance(ins, CInstruction):
            if ins.opcode is Opcode.EXIT:
                break
            if ins.opcode is Opcode.JUMP:
                taken = counters.get((pc, ins.order), 0) + 1
                if taken < ins.imm1:
                    counters[(pc, ins.order)] = taken
                    pc = ins.imm0
                else:
                    counters[(pc, ins.order)] = 0
                    pc += 1
            else:  # NOP / CEXIT (not taken)
                pc += 1
            continue
        if uses_bank(ins):
            signature.append(BeatSlot(slot=pc, opcode=ins.opcode.name,
                                      write=_writes_bank(ins)))
        pc += 1
    return signature


def expected_beats(program: Program) -> int:
    """Number of transactions one full pass of *program* consumes."""
    return len(beat_signature(program))


def check_stream_length(program: Program, provided: int) -> None:
    """Raise if a driver's stream cannot satisfy the program's demand.

    The stream may be *longer* (trailing transactions are ignored once
    all units exit) but never shorter than the longest possible pass.
    """
    needed = expected_beats(program)
    if provided < needed:
        raise ExecutionError(
            f"beat stream supplies {provided} transactions but program "
            f"{program.name!r} can consume {needed}")
