"""Per-bank ISA semantics, checked on both interpreters.

Every behaviour here runs through the production :class:`LaneEngine` and
the independent :class:`ReferenceEngine` alike (one loop over
:data:`ENGINES` per test), driven only through their shared host surface:
the Fig. 1 mode protocol, SB-mode host I/O, the SRF broadcast and a beat
stream. Architectural state the host cannot read back (queues, exit and
exhaustion masks) is read through :func:`repro.check.fuzz.architectural_state`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.check.fuzz import architectural_state
from repro.check.reference import ReferenceEngine
from repro.errors import CapacityError, ExecutionError
from repro.isa import BinaryOp, assemble
from repro.pim import Beat, LaneEngine, Mode, padded_triples, alu
from repro.pim.verify import uses_bank

ENGINES = (LaneEngine, ReferenceEngine)


def _engine(cls, dense=None, triples=None, num_banks=1, precision="fp64"):
    """An engine in SB mode holding the given regions (one bank each)."""
    engine = cls(num_banks, precision=precision)
    for name, data in (dense or {}).items():
        engine.host_write_dense(name, [data] * num_banks)
    for name, data in (triples or {}).items():
        engine.host_write_triples(name, [data] * num_banks)
    return engine


def _load(engine, source, scalar=None):
    engine.switch_mode(Mode.AB)
    engine.load_program(assemble(source))
    if scalar is not None:
        engine.broadcast_scalar(scalar)
    engine.switch_mode(Mode.AB_PIM)


def _run(engine, source, beats, scalar=None):
    """Load *source*, run *beats*, return to SB; returns beats consumed."""
    _load(engine, source, scalar)
    consumed = engine.run(beats)
    engine.switch_mode(Mode.SB)
    return consumed


def _state(engine, bank=0):
    return architectural_state(engine)[bank]


def _empty_stream(n):
    pad = np.full(n, -1, dtype=np.int64)
    return pad, pad.copy(), np.zeros(n)


def _stream(n, total):
    """Elements ``(i, i, float(i))`` for ``i < n``, padded to *total*."""
    idx = np.arange(n)
    return padded_triples(idx, idx, idx.astype(float), total)


COPY = """
    DMOV DRF0, BANK
    DMOV BANK, DRF0
    EXIT
"""


class TestDenseRegion:
    def test_read_write(self):
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(8.0), "y": np.zeros(8)})
            _run(engine, COPY, [Beat("x", 1), Beat("y", 0, write=True)])
            np.testing.assert_array_equal(engine.host_read_dense("y")[0],
                                          [4, 5, 6, 7, 0, 0, 0, 0])

    def test_reads_past_end_are_zero(self):
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(1.0, 7.0),
                                   "y": np.full(8, 9.0)})
            _run(engine, COPY, [Beat("x", 1), Beat("y", 0, write=True)])
            np.testing.assert_array_equal(engine.host_read_dense("y")[0],
                                          [5, 6, 0, 0, 9, 9, 9, 9])

    def test_writes_past_end_dropped(self):
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(1.0, 5.0),
                                   "y": np.zeros(6)})
            _run(engine, COPY, [Beat("x", 0), Beat("y", 1, write=True)])
            y = engine.host_read_dense("y")[0]
            assert y.size == 6, cls.__name__
            np.testing.assert_array_equal(y, [0, 0, 0, 0, 1, 2])

    def test_scalar_access(self):
        source = """
            DMOV SRF, BANK
            EXIT
        """
        for cls in ENGINES:
            for index, expect in ((1, 1.0), (99, 0.0)):
                engine = _engine(cls, {"x": np.arange(4.0)})
                _run(engine, source, [Beat("x", index)], scalar=7.0)
                assert engine.read_scalars()[0] == expect, cls.__name__

    def test_negative_access_rejected(self):
        class Negative:  # a beat the Beat type itself would refuse
            region, index, write = "x", -1, False

        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(4.0)})
            _load(engine, COPY)
            with pytest.raises(ExecutionError, match="negative"):
                engine.run([Negative()])

    def test_accumulate_predicated(self):
        """SpVDV scatters into the open row; rows outside the region are
        predicated away."""
        source = """
            SPMOV SPVQ0, BANK
        drain:
            SPVDV BANK, SPVQ0 binary=add
            JUMP  drain count=3
            EXIT
        """
        rows = np.array([1, 99, 2])
        stream = padded_triples(rows, rows, np.array([5.0, 7.0, 3.0]), 4)
        for cls in ENGINES:
            engine = _engine(cls, {"y": np.zeros(4)}, {"m": stream})
            _run(engine, source,
                 [Beat("m", 0)] + [Beat("y", 0, write=True)] * 3)
            np.testing.assert_array_equal(engine.host_read_dense("y")[0],
                                          [0, 5, 3, 0])


SPILL = """
    SPMOV SPVQ0, BANK
    SPFW  BANK, SPVQ0
    EXIT
"""


class TestTripleRegion:
    def test_group_reads(self):
        source = """
        loop:
            SPMOV SPVQ0, BANK
            SPFW  BANK, SPVQ0
            JUMP  loop count=3
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(10, 10),
                                           "out": _empty_stream(12)})
            beats = []
            for g in range(3):
                beats += [Beat("m", g), Beat("out", 0, write=True)]
            _run(engine, source, beats)
            rows, cols, vals = engine.host_read_triples("out")[0]
            # two full groups of four, then the short tail group of two
            np.testing.assert_array_equal(rows[:10], np.arange(10))
            np.testing.assert_array_equal(rows[10:], [-1, -1])
            assert _state(engine)["exhausted_mask"] == 1, cls.__name__

    def test_reads_past_end_empty(self):
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(4, 4),
                                           "out": _empty_stream(4)})
            source = """
                SPMOV SPVQ0, BANK
                SPMOV SPVQ0, BANK
                SPFW  BANK, SPVQ0
                EXIT
            """
            _run(engine, source, [Beat("m", 0), Beat("m", 1),
                                  Beat("out", 0, write=True)])
            rows, _, _ = engine.host_read_triples("out")[0]
            np.testing.assert_array_equal(rows, np.arange(4))
            assert _state(engine)["exhausted_mask"] == 1, cls.__name__

    def test_padding_and_valid_count(self):
        rows, cols, vals = padded_triples(np.array([1, 2]), np.array([0, 1]),
                                          np.array([1.0, 2.0]), total=6)
        assert rows.size == cols.size == vals.size == 6
        assert int(np.sum(rows != -1)) == 2
        np.testing.assert_array_equal(cols[2:], -1)
        np.testing.assert_array_equal(vals[2:], 0.0)

    def test_padding_cannot_shrink(self):
        with pytest.raises(CapacityError):
            padded_triples(np.arange(4), np.arange(4), np.zeros(4), total=2)

    def test_write_elements_bounds(self):
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(4, 4),
                                           "out": _empty_stream(3)})
            _load(engine, SPILL)
            with pytest.raises(CapacityError, match="overflow"):
                engine.run([Beat("m", 0), Beat("out", 0, write=True)])


class TestBankMemory:
    def test_region_lookup_and_kinds(self):
        for cls in ENGINES:
            for source, beat in ((COPY, Beat("m", 0)),      # COO as dense
                                 (SPILL, Beat("x", 0)),     # dense as COO
                                 (COPY, Beat("nope", 0))):  # missing
                engine = _engine(cls, {"x": np.zeros(4)},
                                 {"m": _empty_stream(2)})
                _load(engine, source)
                with pytest.raises(ExecutionError):
                    engine.run([beat])


class TestSparseQueue:
    def test_fifo_order(self):
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(4, 4),
                                           "out": _empty_stream(4)})
            _run(engine, SPILL, [Beat("m", 0), Beat("out", 0, write=True)])
            rows, cols, vals = engine.host_read_triples("out")[0]
            np.testing.assert_array_equal(rows, [0, 1, 2, 3])
            np.testing.assert_array_equal(vals, [0.0, 1.0, 2.0, 3.0])

    def test_predicated_push_when_full(self):
        """A load into a queue without a group's room is predicated: it
        pushes nothing and keeps its place in the stream."""
        source = """
            SPMOV SPVQ0, BANK
            SPMOV SPVQ0, BANK
            SPMOV SPVQ0, BANK
            SPFW  BANK, SPVQ0
            SPMOV SPVQ0, BANK
            SPFW  BANK, SPVQ0
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(12, 12),
                                           "out": _empty_stream(12)})
            assert engine.queue_capacity == 8 and engine.group_size == 4
            _run(engine, source, [Beat("m", 0), Beat("m", 1), Beat("m", 2),
                                  Beat("out", 0, write=True), Beat("m", 2),
                                  Beat("out", 0, write=True)])
            rows, _, _ = engine.host_read_triples("out")[0]
            np.testing.assert_array_equal(rows, np.arange(12))

    def test_pop_up_to(self):
        """SpFW drains at most a queue's contents, however few."""
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": _stream(3, 4),
                                           "out": _empty_stream(8)})
            _run(engine, SPILL, [Beat("m", 0), Beat("out", 0, write=True)])
            rows, _, _ = engine.host_read_triples("out")[0]
            np.testing.assert_array_equal(rows[:4], [0, 1, 2, -1])
            assert _state(engine)["queues"][0] == [], cls.__name__

    def test_empty_queue_pops_are_predicated(self):
        """SSpV, SpVDV and IndMOV on an empty queue change nothing."""
        source = """
            SSPV   SPVQ1, SRF, SPVQ0 binary=mul
            INDMOV SRF, BANK, SPVQ0
            SPVDV  BANK, SPVQ1 binary=add
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(4.0), "y": np.ones(4)})
            _run(engine, source, [Beat("x", 0), Beat("y", 0, write=True)],
                 scalar=3.0)
            np.testing.assert_array_equal(engine.host_read_dense("y")[0],
                                          np.ones(4))
            assert engine.read_scalars()[0] == 3.0
            assert _state(engine)["queues"] == [[], [], []], cls.__name__

    def test_capacities_by_precision(self):
        for cls in ENGINES:
            fp64 = cls(1, precision="fp64")
            assert fp64.lanes == 4
            assert fp64.queue_capacity == 8   # 64 B / 8 B values
            assert fp64.group_size == 4
            int8 = cls(1, precision="int8")
            assert int8.lanes == 32
            assert int8.queue_capacity == 32  # bound by int16 indices
            assert int8.group_size == 32

    def test_queues_empty_mask(self):
        """CEXIT retires a bank only when every watched queue is empty."""
        for mask, exits in (("SPVQ0", True), ("SPVQ1", False),
                            ("SPVQ0|SPVQ1|SPVQ2", False)):
            source = f"""
                SPMOV SPVQ1, BANK
                SPMOV SPVQ0, BANK
                CEXIT {mask}
                SPFW  BANK, SPVQ2
                EXIT
            """
            for cls in ENGINES:
                engine = _engine(cls, triples={"full": _stream(1, 4),
                                               "none": _empty_stream(4)})
                _run(engine, source, [Beat("full", 0), Beat("none", 0)])
                assert _state(engine)["exited"] == exits, (mask, cls)


class TestALU:
    @given(st.sampled_from([BinaryOp.ADD, BinaryOp.MUL, BinaryOp.MIN,
                            BinaryOp.MAX]),
           st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    def test_reduce_matches_numpy(self, op, values):
        arr = np.array(values)
        seed = alu.identity(op)
        got = alu.reduce_array(op, arr, seed)
        expect = {BinaryOp.ADD: np.sum, BinaryOp.MUL: np.prod,
                  BinaryOp.MIN: np.min, BinaryOp.MAX: np.max}[op](arr)
        assert got == pytest.approx(float(expect), rel=1e-9, abs=1e-9)

    def test_identity_elements(self):
        for op in (BinaryOp.ADD, BinaryOp.MUL, BinaryOp.MIN, BinaryOp.MAX,
                   BinaryOp.LAND, BinaryOp.LOR):
            ident = alu.identity(op)
            assert alu.apply(op, ident, 5.0) == pytest.approx(
                alu.apply(op, ident, 5.0))

    def test_non_reducible_ops(self):
        with pytest.raises(ExecutionError):
            alu.identity(BinaryOp.SUB)
        with pytest.raises(ExecutionError):
            alu.reduce_array(BinaryOp.FIRST, np.ones(3), 0.0)

    def test_logical_ops(self):
        assert alu.apply(BinaryOp.LAND, 1.0, 0.0) == 0.0
        assert alu.apply(BinaryOp.LOR, 1.0, 0.0) == 1.0

    def test_select_ops(self):
        assert alu.apply(BinaryOp.SECOND, 1.0, 2.0) == 2.0


class TestUsesBank:
    def test_register_only_ops(self):
        program = assemble("""
            REDUCE SRF, DRF0
            SSPV   SPVQ1, SRF, SPVQ0
            DVDV   DRF2, DRF0, DRF1
            DMOV   DRF0, DRF1
        """)
        for instruction in program:
            assert not uses_bank(instruction)

    def test_bank_ops(self):
        program = assemble("""
            DMOV   DRF0, BANK
            SDV    DRF0, SRF, BANK
            INDMOV SRF, BANK, SPVQ0
            SPVDV  BANK, SPVQ0
            SPMOV  SPVQ0, BANK
            GTHSCT SPVQ0, BANK
        """)
        for instruction in program:
            assert uses_bank(instruction)


class TestProcessingUnit:
    def test_requires_program(self):
        for cls in ENGINES:
            engine = cls(1)
            engine.switch_mode(Mode.AB)
            engine.switch_mode(Mode.AB_PIM)
            with pytest.raises(ExecutionError, match="no program"):
                engine.step(Beat("x", 0))

    def test_dense_copy_beats(self):
        source = """
        loop:
            DMOV DRF0, BANK
            DMOV BANK, DRF0
            JUMP loop count=2
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(8.0), "y": np.zeros(8)})
            beats = []
            for g in range(2):
                beats += [Beat("x", g), Beat("y", g, write=True)]
            assert _run(engine, source, beats) == 4
            assert engine.all_exited
            np.testing.assert_array_equal(engine.host_read_dense("y")[0],
                                          np.arange(8.0))

    def test_exited_unit_ignores_beats(self):
        """A bank that exited keeps receiving beats but changes nothing,
        while its neighbour still runs (a predicated beat)."""
        source = """
            SPMOV SPVQ0, BANK
            CEXIT SPVQ0
            SPFW  BANK, SPVQ0
            DMOV  DRF0, BANK
            DMOV  BANK, DRF0
            EXIT
        """
        for cls in ENGINES:
            engine = cls(2)
            engine.host_write_triples("m", [_empty_stream(4),
                                            _stream(2, 4)])
            engine.host_write_triples("out", [_empty_stream(4)] * 2)
            engine.host_write_dense("x", [np.arange(4.0)] * 2)
            engine.host_write_dense("y", [np.full(4, 9.0)] * 2)
            _run(engine, source, [Beat("m", 0), Beat("out", 0, write=True),
                                  Beat("x", 0), Beat("y", 0, write=True)])
            state = architectural_state(engine)
            assert state[0]["exited"] and state[1]["exited"]
            y0, y1 = engine.host_read_dense("y")
            np.testing.assert_array_equal(y0, np.full(4, 9.0))
            np.testing.assert_array_equal(y1, np.arange(4.0))
            # bank 0 exits on the second beat and idles through two more
            assert engine.stats.predicated_beats == 3, cls.__name__

    def test_runaway_program_detected(self):
        # A loop with no bank access can never consume a transaction.
        source = """
        loop:
            DMOV DRF0, DRF1
            JUMP loop count=1000
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.zeros(4)})
            _load(engine, source)
            with pytest.raises(ExecutionError, match="no bank access"):
                engine.step(Beat("x", 0))

    def test_cexit_requires_exhaustion(self):
        source = """
        loop:
            SPMOV SPVQ0, BANK
            CEXIT SPVQ0
            JUMP  loop count=2
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, triples={"m": padded_triples(
                np.array([0]), np.array([0]), np.array([2.0]), total=4)})
            _run(engine, source, [Beat("m", 0)])
            state = _state(engine)
            # stream had padding -> exhausted, but queue still holds one
            assert not state["exited"], cls.__name__
            assert state["exhausted_mask"] == 1
            assert len(state["queues"][0]) == 1

    def test_nested_loops_with_orders(self):
        source = """
        outer:
        inner:
            DMOV DRF0, BANK
            JUMP inner order=0 count=2
            DMOV BANK, DRF0
            JUMP outer order=1 count=3
            EXIT
        """
        for cls in ENGINES:
            engine = _engine(cls, {"x": np.arange(4.0), "y": np.zeros(4)})
            beats = ([Beat("x", 0)] * 2 + [Beat("y", 0, write=True)]) * 3
            assert _run(engine, source, beats) == 9
            assert engine.all_exited, cls.__name__
            assert engine.stats.beats == 9

    def test_arm_preserves_registers(self):
        for cls in ENGINES:
            engine = cls(2)
            engine.switch_mode(Mode.AB)
            engine.load_program(assemble("EXIT"))
            engine.broadcast_scalar(42.0)
            engine.arm(reset_registers=False)
            engine.switch_mode(Mode.SB)
            np.testing.assert_array_equal(engine.read_scalars(), [42, 42])
            engine.switch_mode(Mode.AB)
            engine.arm(reset_registers=True)
            engine.switch_mode(Mode.SB)
            np.testing.assert_array_equal(engine.read_scalars(), [0, 0])
