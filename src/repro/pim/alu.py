"""The vector ALU: binary operators and horizontal reductions.

The VALU supports an arbitrary binary operation selected by the 4-bit
Binary field (Table VI); this module maps :class:`~repro.isa.BinaryOp`
values to scalar- and vector-form callables and provides the identity
element each operation reduces from. All arithmetic is performed in float64
regardless of the Value format — the format governs lane counts, queue
capacities and bandwidth, not the reference numerics (documented in
DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..errors import ExecutionError
from ..isa import BinaryOp

#: Scalar/broadcast implementations of each binary op. All accept numpy
#: arrays or floats and broadcast like numpy.
_OPS: Dict[BinaryOp, Callable] = {
    BinaryOp.ADD: lambda a, b: a + b,
    BinaryOp.SUB: lambda a, b: a - b,
    BinaryOp.MUL: lambda a, b: a * b,
    BinaryOp.MIN: np.minimum,
    BinaryOp.MAX: np.maximum,
    BinaryOp.LAND: lambda a, b: np.logical_and(a, b).astype(float),
    BinaryOp.LOR: lambda a, b: np.logical_or(a, b).astype(float),
    BinaryOp.FIRST: lambda a, b: a * np.ones_like(b) if hasattr(b, "shape")
    else a,
    BinaryOp.SECOND: lambda a, b: b,
}

#: Identity elements: op(identity, x) == x for the reduction-friendly ops.
_IDENTITIES: Dict[BinaryOp, float] = {
    BinaryOp.ADD: 0.0,
    BinaryOp.MUL: 1.0,
    BinaryOp.MIN: float("inf"),
    BinaryOp.MAX: float("-inf"),
    BinaryOp.LAND: 1.0,
    BinaryOp.LOR: 0.0,
}


def apply(op: BinaryOp, a, b):
    """Apply *op* elementwise (numpy broadcasting rules)."""
    try:
        fn = _OPS[op]
    except KeyError:  # pragma: no cover - enum is closed
        raise ExecutionError(f"unsupported binary op {op}") from None
    return fn(a, b)


def identity(op: BinaryOp) -> float:
    """The identity element of *op* for reductions.

    FIRST/SECOND/SUB have no identity and cannot anchor a Reduce.
    """
    try:
        return _IDENTITIES[op]
    except KeyError:
        raise ExecutionError(
            f"{op.name} has no identity element for reduction") from None


def reduce_array(op: BinaryOp, values: np.ndarray, seed: float) -> float:
    """Fold *values* into *seed* with *op* (the Reduce instruction)."""
    result = seed
    if values.size:
        if op is BinaryOp.ADD:
            result = result + float(np.sum(values))
        elif op is BinaryOp.MUL:
            # An overflowing product is inf (and inf times zero is nan):
            # the IEEE result, on which every engine agrees, so numpy's
            # warning is noise.
            with np.errstate(over="ignore", invalid="ignore"):
                result = result * float(np.prod(values))
        elif op is BinaryOp.MIN:
            result = min(result, float(np.min(values)))
        elif op is BinaryOp.MAX:
            result = max(result, float(np.max(values)))
        elif op is BinaryOp.LOR:
            result = float(bool(result) or bool(np.any(values)))
        elif op is BinaryOp.LAND:
            result = float(bool(result) and bool(np.all(values)))
        else:
            raise ExecutionError(f"{op.name} is not reducible")
    return result
