"""Fuzz-derived regression corpus.

Every entry in :data:`REGRESSION_SEEDS` is a seed that once exposed a
real divergence between the engines. The harness replays them on every
run; new fuzzer finds should be appended here (with a note on what they
caught) after the underlying bug is fixed.

Corpus history:

* 62, 63, 69 — a since-removed scalar engine flipped SpVSpV union
  operands on a stream's final element: ``qa.is_empty`` was re-read
  *after* the pop, so the pass-through of qa's last element computed
  ``op(ident, value)`` instead of ``op(value, ident)``. Invisible to
  commutative ops; caught by FIRST in union mode. The replay below pins
  the operand order on the lane engine and the reference.
"""

import numpy as np
import pytest

from repro.check.fuzz import generate_case, run_case
from repro.check.reference import ReferenceEngine
from repro.isa import assemble
from repro.pim import Beat, LaneEngine, Mode, padded_triples

#: Seeds that historically diverged. Append new finds, never remove.
REGRESSION_SEEDS = [62, 63, 69]


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_regression_seed(seed):
    run_case(generate_case(seed))


class TestSpVSpVUnionOperandOrder:
    """Direct replay of the bug behind seeds 62/63/69: one operand holds
    a stream's final element, the other stream is exhausted and empty."""

    PROGRAM = """
        SPMOV  SPVQ0, BANK
        SPMOV  SPVQ1, BANK
        SPVSPV SPVQ2, SPVQ0, SPVQ1 binary=first s=union idnt=one
        SPFW   BANK, SPVQ2
        EXIT
    """

    def _merged(self, a, b):
        """The union of one-bank streams *a* and *b*, on both engines."""
        outputs = []
        for cls in (LaneEngine, ReferenceEngine):
            engine = cls(1)
            for name, element in (("a", a), ("b", b)):
                row, col, val = element or ((), (), ())
                engine.host_write_triples(name, [padded_triples(
                    np.array(row, ndmin=1, dtype=np.int64),
                    np.array(col, ndmin=1, dtype=np.int64),
                    np.array(val, ndmin=1, dtype=np.float64), 4)])
            pad = np.full(4, -1, dtype=np.int64)
            engine.host_write_triples("out", [(pad, pad, np.zeros(4))])
            engine.switch_mode(Mode.AB)
            engine.load_program(assemble(self.PROGRAM))
            engine.switch_mode(Mode.AB_PIM)
            engine.run([Beat("a", 0), Beat("b", 0),
                        Beat("out", 0, write=True)])
            engine.switch_mode(Mode.SB)
            rows, cols, vals = engine.host_read_triples("out")[0]
            outputs.append([(int(r), int(c), float(v))
                            for r, c, v in zip(rows, cols, vals) if r >= 0])
        assert outputs[0] == outputs[1]
        return outputs[0]

    def test_last_element_keeps_left_operand_position(self):
        # FIRST(value, ident) == value: qa's final element passes through
        assert self._merged((5, 1, 2.0), None) == [(5, 1, 2.0)]

    def test_b_side_pass_through_takes_identity(self):
        # FIRST(ident, value) == ident: the b-side pass-through under
        # FIRST yields the identity, by construction
        assert self._merged(None, (4, 2, 3.0)) == [(4, 2, 1.0)]
