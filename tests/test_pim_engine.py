"""The host-facing engine protocol: Fig. 1 modes and lock-step broadcast.

Every test runs on the production :class:`LaneEngine` and on the
independent :class:`ReferenceEngine` (one loop over :data:`ENGINES`), so
the mode protocol and the broadcast semantics are pinned on both
interpreters the kernel drivers can run on.
"""

import numpy as np
import pytest

from repro.check.fuzz import architectural_state
from repro.check.reference import ReferenceEngine
from repro.errors import ExecutionError
from repro.isa import assemble
from repro.pim import Beat, LaneEngine, Mode, padded_triples

ENGINES = (LaneEngine, ReferenceEngine)


COPY = """
loop:
    DMOV DRF0, BANK
    DMOV BANK, DRF0
    JUMP loop count=2
    EXIT
"""


class TestModeProtocol:
    def test_starts_in_sb(self):
        for cls in ENGINES:
            assert cls(num_banks=4).mode is Mode.SB

    def test_legal_cycle(self):
        for cls in ENGINES:
            engine = cls(num_banks=4)
            engine.switch_mode(Mode.AB)
            engine.switch_mode(Mode.AB_PIM)
            engine.switch_mode(Mode.SB)
            assert engine.stats.mode_switches == 3, cls.__name__

    def test_illegal_transition(self):
        for cls in ENGINES:
            with pytest.raises(ExecutionError, match="illegal mode"):
                cls(num_banks=4).switch_mode(Mode.AB_PIM)

    def test_same_mode_is_noop(self):
        for cls in ENGINES:
            engine = cls(num_banks=4)
            engine.switch_mode(Mode.SB)
            assert engine.stats.mode_switches == 0

    def test_program_requires_ab(self):
        for cls in ENGINES:
            with pytest.raises(ExecutionError, match="AB mode"):
                cls(num_banks=4).load_program(assemble("EXIT"))

    def test_step_requires_ab_pim(self):
        for cls in ENGINES:
            engine = cls(num_banks=4)
            engine.switch_mode(Mode.AB)
            engine.load_program(assemble(COPY))
            with pytest.raises(ExecutionError, match="AB-PIM"):
                engine.step(Beat("x", 0))

    def test_host_io_requires_sb(self):
        for cls in ENGINES:
            engine = cls(num_banks=4)
            engine.switch_mode(Mode.AB)
            with pytest.raises(ExecutionError, match="SB mode"):
                engine.host_write_dense("x", [np.zeros(4)] * 4)
            with pytest.raises(ExecutionError, match="SB mode"):
                engine.host_read_dense("x")
            with pytest.raises(ExecutionError, match="SB mode"):
                engine.read_scalars()
            engine.switch_mode(Mode.SB)
            with pytest.raises(ExecutionError, match="AB mode"):
                engine.broadcast_scalar(1.0)


class TestBroadcast:
    def _setup(self, cls):
        engine = cls(num_banks=4)
        engine.host_write_dense(
            "x", [np.full(8, float(b)) for b in range(4)])
        engine.host_write_dense("y", [np.zeros(8) for _ in range(4)])
        engine.switch_mode(Mode.AB)
        engine.load_program(assemble(COPY))
        engine.switch_mode(Mode.AB_PIM)
        return engine

    def test_every_bank_executes(self):
        for cls in ENGINES:
            engine = self._setup(cls)
            for g in range(2):
                engine.step(Beat("x", g))
                engine.step(Beat("y", g, write=True))
            engine.switch_mode(Mode.SB)
            for b, chunk in enumerate(engine.host_read_dense("y")):
                np.testing.assert_allclose(chunk, float(b))

    def test_run_stops_after_all_exit(self):
        for cls in ENGINES:
            engine = self._setup(cls)
            beats = [Beat("x", 0), Beat("y", 0, write=True),
                     Beat("x", 1), Beat("y", 1, write=True)] * 3
            consumed = engine.run(iter(beats))
            # 4 data beats + 1 retiring transaction that runs JUMP/EXIT
            assert consumed == 5, cls.__name__
            assert engine.all_exited
            assert engine.active_count == 0

    def test_run_collects_stats(self):
        for cls in ENGINES:
            engine = self._setup(cls)
            engine.run(iter([Beat("x", 0), Beat("y", 0, write=True),
                             Beat("x", 1), Beat("y", 1, write=True)]))
            assert engine.stats.beats == 4, cls.__name__
            assert engine.stats.kernel_launches == 1
            assert engine.stats.programs_loaded == 1
            assert engine.stats.predicated_beats == 0

    def test_per_bank_data_mismatch_rejected(self):
        for cls in ENGINES:
            engine = cls(num_banks=4)
            with pytest.raises(ExecutionError, match="per bank"):
                engine.host_write_dense("x", [np.zeros(4)] * 3)
            with pytest.raises(ExecutionError, match="per bank"):
                engine.host_write_triples("m", [(np.zeros(1),) * 3] * 3)
            two = cls(num_banks=2)
            with pytest.raises(ExecutionError, match="one array per bank"):
                two.host_write_dense("d", [np.ones(2)])


class TestConditionalExitDivergence:
    def test_units_exit_at_different_times(self):
        """Banks with less data retire early; big banks keep streaming."""
        program = assemble("""
        outer:
            SPMOV SPVQ0, BANK
        drain:
            SPVDV BANK, SPVQ0 binary=add
            JUMP  drain order=0 count=4
            CEXIT SPVQ0
            JUMP  outer order=1 count=2
            EXIT
        """)

        def beats():
            for g in range(2):
                yield Beat("m", g)
                for _ in range(4):
                    yield Beat("y", 0, write=True)

        counts = [8, 4, 0]  # valid elements per bank
        per_bank = []
        for n in counts:
            rows = np.arange(n)
            per_bank.append(padded_triples(rows, rows, np.ones(n), 8))
        for cls in ENGINES:
            engine = cls(num_banks=3)
            engine.host_write_triples("m", per_bank)
            engine.host_write_dense("y", [np.zeros(8)] * 3)
            engine.switch_mode(Mode.AB)
            engine.load_program(program)
            engine.switch_mode(Mode.AB_PIM)
            engine.run(beats())
            engine.switch_mode(Mode.SB)
            assert engine.all_exited
            ys = engine.host_read_dense("y")
            np.testing.assert_allclose(ys[0], np.ones(8))
            np.testing.assert_allclose(ys[1], [1, 1, 1, 1, 0, 0, 0, 0])
            np.testing.assert_allclose(ys[2], np.zeros(8))
            # the empty bank saw pure padding: it retired while the
            # others kept streaming, so beats were predicated
            state = architectural_state(engine)
            assert [state[b]["exhausted_mask"] for b in range(3)] == [1] * 3
            assert engine.stats.predicated_beats > 0, cls.__name__
