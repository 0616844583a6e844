"""Two-pass assembler for pSyncPIM kernel text.

The paper's kernels are "hand-coded PIM assembly" (§VII-A); this assembler
lets the kernel library and users write them as readable text instead of
constructing dataclasses by hand. Syntax, one instruction per line::

    ; comment                     (also # comments)
    label:                        ; jump target
        SPMOV  SPVQ0, BANK        value=fp64 idx=all
        INDMOV SRF, BANK, SPVQ0
        SSPV   SPVQ1, SRF, SPVQ0  binary=mul
        JUMP   label              order=0 count=100
        CEXIT  SPVQ0              ; or CEXIT SPVQ0|SPVQ1
        EXIT

Operands are comma-separated register names; trailing ``key=value`` pairs
set the B-format modifier fields (``value``, ``binary``, ``s``, ``idx``,
``idnt``) or the C-format immediates (``order``, ``count``, ``target``).
Mnemonics, register names and modifiers are case-insensitive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import AssemblerError
from .instructions import BInstruction, CInstruction, Instruction
from .opcodes import (BinaryOp, Identity, Opcode, Operand, SetMode, SubQueue,
                      ValueFormat)
from .program import Program

_MNEMONICS: Dict[str, Opcode] = {op.name: op for op in Opcode}
_MNEMONICS["INDMOV"] = Opcode.INDMOV  # canonical spellings
_ALIASES = {"IND_MOV": Opcode.INDMOV, "GTH_SCT": Opcode.GTHSCT}

_MODIFIER_ENUMS = {
    "value": ValueFormat,
    "binary": BinaryOp,
    "s": SetMode,
    "idx": SubQueue,
    "idnt": Identity,
}


def assemble(text: str, name: str = "kernel") -> Program:
    """Assemble kernel *text* into a validated :class:`Program`."""
    statements, labels = _first_pass(text)
    instructions: List[Instruction] = []
    for lineno, mnemonic, operands, modifiers in statements:
        try:
            instructions.append(
                _build(mnemonic, operands, modifiers, labels))
        except AssemblerError as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from None
    if not instructions:
        raise AssemblerError("no instructions in program text")
    try:
        return Program(instructions, name=name)
    except Exception as exc:
        raise AssemblerError(f"invalid program: {exc}") from None


# ----------------------------------------------------------------------
def _first_pass(text: str) -> Tuple[List[Tuple[int, str, List[str],
                                               Dict[str, str]]],
                                    Dict[str, int]]:
    """Strip comments, collect labels, split statements."""
    statements = []
    labels: Dict[str, int] = {}
    slot = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        while line and ":" in line.split()[0]:
            head, _, rest = line.partition(":")
            label = head.strip().upper()
            if not label.isidentifier():
                raise AssemblerError(
                    f"line {lineno}: bad label {head.strip()!r}")
            if label in labels:
                raise AssemblerError(
                    f"line {lineno}: duplicate label {head.strip()!r}")
            labels[label] = slot
            line = rest.strip()
        if not line:
            continue
        mnemonic, operands, modifiers = _split_statement(line, lineno)
        statements.append((lineno, mnemonic, operands, modifiers))
        slot += 1
    return statements, labels


def _split_statement(line: str, lineno: int):
    tokens = line.split()
    mnemonic = tokens[0].upper()
    operand_tokens: List[str] = []
    modifiers: Dict[str, str] = {}
    for token in tokens[1:]:
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip().lower()
            if not key or not value:
                raise AssemblerError(f"line {lineno}: bad modifier {token!r}")
            modifiers[key] = value.strip()
        else:
            operand_tokens.append(token)
    operands = [p.strip().upper()
                for p in " ".join(operand_tokens).split(",") if p.strip()]
    return mnemonic, operands, modifiers


def _opcode(mnemonic: str) -> Opcode:
    if mnemonic in _MNEMONICS:
        return _MNEMONICS[mnemonic]
    if mnemonic in _ALIASES:
        return _ALIASES[mnemonic]
    raise AssemblerError(f"unknown mnemonic {mnemonic!r}")


def _operand(token: str) -> Operand:
    try:
        return Operand[token]
    except KeyError:
        raise AssemblerError(f"unknown operand {token!r}") from None


def _modifier(kind_name: str, token: str):
    kind = _MODIFIER_ENUMS[kind_name]
    try:
        return kind[token.upper()]
    except KeyError:
        valid = ", ".join(m.name.lower() for m in kind)
        raise AssemblerError(
            f"bad {kind_name}={token!r}; expected one of {valid}") from None


def binary_op(token: str) -> BinaryOp:
    """The ALU operation a ``binary=`` modifier names; raises the
    assembler's :class:`AssemblerError` for any other name."""
    return _modifier("binary", token)


def _build(mnemonic: str, operands: List[str], modifiers: Dict[str, str],
           labels: Dict[str, int]) -> Instruction:
    opcode = _opcode(mnemonic)
    if opcode.is_control:
        return _build_control(opcode, operands, modifiers, labels)
    return _build_b_format(opcode, operands, modifiers)


def _build_control(opcode: Opcode, operands: List[str],
                   modifiers: Dict[str, str],
                   labels: Dict[str, int]) -> CInstruction:
    unknown = set(modifiers) - {"order", "count", "target"}
    if unknown:
        raise AssemblerError(f"unknown modifiers {sorted(unknown)}")
    order = _int_modifier(modifiers, "order", 0)
    if opcode is Opcode.JUMP:
        target = _jump_target(operands, modifiers, labels)
        count = _int_modifier(modifiers, "count", None)
        if count is None:
            raise AssemblerError("JUMP requires count=<iterations>")
        return CInstruction(Opcode.JUMP, imm0=target, order=order,
                            imm1=count)
    if opcode is Opcode.CEXIT:
        if not operands:
            raise AssemblerError("CEXIT requires at least one SPVQ operand")
        mask = 0
        for part in operands:
            for token in part.split("|"):
                queue = _operand(token.strip())
                if not queue.is_sparse_queue:
                    raise AssemblerError(
                        f"CEXIT watches sparse queues, not {token!r}")
                mask |= 1 << queue.queue_index
        return CInstruction(Opcode.CEXIT, imm1=mask)
    if operands:
        raise AssemblerError(f"{opcode.name} takes no operands")
    return CInstruction(opcode)


def _jump_target(operands: List[str], modifiers: Dict[str, str],
                 labels: Dict[str, int]) -> int:
    if "target" in modifiers:
        token = modifiers["target"].upper()
    elif len(operands) == 1:
        token = operands[0]
    else:
        raise AssemblerError("JUMP requires exactly one target")
    if token.startswith("@"):
        token = token[1:]
    if token.isdigit():
        return int(token)
    if token in labels:
        return labels[token]
    raise AssemblerError(f"undefined jump target {token!r}")


def _int_modifier(modifiers: Dict[str, str], key: str,
                  default: Optional[int]) -> Optional[int]:
    if key not in modifiers:
        return default
    token = modifiers[key]
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"{key}={token!r} is not an integer") from None


def _build_b_format(opcode: Opcode, operands: List[str],
                    modifiers: Dict[str, str]) -> BInstruction:
    unknown = set(modifiers) - set(_MODIFIER_ENUMS)
    if unknown:
        raise AssemblerError(f"unknown modifiers {sorted(unknown)}")
    if not 1 <= len(operands) <= 3:
        raise AssemblerError(
            f"{opcode.name} takes 1-3 operands, got {len(operands)}")
    regs = [_operand(token) for token in operands]
    while len(regs) < 3:
        regs.append(Operand.BANK)
    fields = {}
    for key in _MODIFIER_ENUMS:
        if key in modifiers:
            fields["set_mode" if key == "s" else key] = _modifier(
                key, modifiers[key])
    return BInstruction(opcode, dst=regs[0], src0=regs[1], src1=regs[2],
                        **fields)
