"""Differential tests: the vectorized LaneEngine vs the scalar oracle.

The scalar :class:`AllBankEngine` is the reference semantics; the
:class:`LaneEngine` must match it *bitwise* — register and memory contents,
every stats counter, exit/exhaustion state — on driver-produced programs
and on randomized workloads covering predication, conditional exit,
per-unit IndMOV columns and queue exhaustion.

Kernel drivers build the lane engine; their scalar runs swap in the
oracle with :func:`repro.check.oracles.use_scalar_engine`.
"""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.check import oracles
from repro.config import default_system
from repro.core import run_spmv
from repro.errors import ExecutionError
from repro.formats import SparseVector
from repro.formats.generators import uniform_random
from repro.isa import assemble
from repro.kernels import (Tile, daxpy, ddot, dscal, empty_tile, gather,
                           run_tile_round, scatter, spaxpy, spdot, spvspv)
from repro.pim import AllBankEngine, Beat, LaneEngine, Mode, padded_triples

ENGINE_STATS = ("beats", "mode_switches", "programs_loaded",
                "kernel_launches", "instructions", "alu_ops",
                "predicated_beats")
UNIT_STATS = ("instructions", "alu_ops", "beats", "nop_beats")


def _both(fn):
    """Run *fn* once per engine implementation; return (scalar, lane)."""
    with pytest.MonkeyPatch.context() as mp:
        oracles.use_scalar_engine(mp.setattr)
        scalar = fn()
    lane = fn()
    return scalar, lane


def _assert_engines_match(scalar, lane):
    """Full architectural-state equality, bitwise."""
    for field in ENGINE_STATS:
        assert getattr(scalar.stats, field) == getattr(lane.stats, field), \
            f"stats.{field}"
    assert scalar.stats.per_mode_beats == lane.stats.per_mode_beats
    for b, (su, lu) in enumerate(zip(scalar.units, lane.units)):
        assert su.exited == lu.exited, f"bank {b} exited"
        assert su.exhausted_mask == lu.exhausted_mask, f"bank {b}"
        assert su.load_targets_mask == lu.load_targets_mask, f"bank {b}"
        for field in UNIT_STATS:
            assert getattr(su.stats, field) == getattr(lu.stats, field), \
                f"bank {b} stats.{field}"
        assert su.registers.scalar == lu.registers.scalar, f"bank {b} SRF"
        for i, reg in enumerate(su.registers.dense):
            assert np.array_equal(reg.data, lane.dense[i, b]), \
                f"bank {b} DRF{i}"
        for qi, queue in enumerate(su.registers.queues):
            assert list(queue._items) == lane.queues[qi].snapshot(b), \
                f"bank {b} SPVQ{qi}"
    for b, bank in enumerate(scalar.banks):
        for name in bank.region_names():
            lane_bank = lane.banks[b]
            try:
                region = bank.dense(name)
            except ExecutionError:
                sct = bank.triples(name)
                lct = lane_bank.triples(name)
                assert np.array_equal(sct.rows, lct.rows), (b, name)
                assert np.array_equal(sct.cols, lct.cols), (b, name)
                assert np.array_equal(sct.vals, lct.vals), (b, name)
            else:
                assert np.array_equal(region.data,
                                      lane_bank.dense(name).data), (b, name)


def _assert_runs_match(scalar_run, lane_run):
    assert isinstance(scalar_run.engine, AllBankEngine)
    assert isinstance(lane_run.engine, LaneEngine)
    for field in ("beats", "launches", "mode_switches", "programs_loaded"):
        assert (getattr(scalar_run.stats, field)
                == getattr(lane_run.stats, field)), field
    _assert_engines_match(scalar_run.engine, lane_run.engine)


def _sparse(rng, length, density):
    nnz = min(length, max(0, int(round(density * length))))
    idx = np.sort(rng.choice(length, size=nnz, replace=False))
    return SparseVector(length, idx, rng.standard_normal(nnz))


# ----------------------------------------------------------------------
# engine selection: there is none, the drivers build the lane engine
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_default_is_lane(self, monkeypatch):
        x = np.arange(40.0)
        monkeypatch.setenv("PSYNCPIM_ENGINE", "scalar")
        assert isinstance(dscal(2.0, x, num_banks=4).engine, LaneEngine)
        oracles.use_scalar_engine(monkeypatch.setattr)
        assert isinstance(dscal(2.0, x, num_banks=4).engine, AllBankEngine)

    def test_every_construction_site_is_swappable(self):
        """Every production module that builds a ``LaneEngine`` is listed
        in ``ENGINE_SITES``, so the scalar runs reach all of them."""
        src = Path(repro.__file__).parent
        builders = {
            ".".join(path.relative_to(src.parent).with_suffix("").parts)
            for path in src.rglob("*.py")
            if path.relative_to(src).parts[0] not in ("pim", "check")
            and "LaneEngine(" in path.read_text()}
        assert builders == set(oracles.ENGINE_SITES)

    def test_unknown_engine_rejected(self):
        matrix = uniform_random(40, 40, density=0.1, seed=1)
        with pytest.raises(TypeError, match="engine"):
            run_spmv(matrix, np.ones(40), default_system(),
                     fidelity="functional", engine="warp")


# ----------------------------------------------------------------------
# kernel drivers, both engines
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("precision", ["fp64", "fp32", "int8"])
    def test_daxpy(self, precision):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(333), rng.standard_normal(333)
        s, l = _both(lambda: daxpy(1.5, x, y, precision=precision))
        assert np.array_equal(s.result, l.result)
        _assert_runs_match(s, l)

    def test_ddot_reduction(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        s, l = _both(lambda: ddot(x, y))
        assert s.result == l.result  # bitwise, not approx
        _assert_runs_match(s, l)

    def test_dscal_scalar_broadcast(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        s, l = _both(lambda: dscal(-0.75, x, num_banks=8))
        assert np.array_equal(s.result, l.result)
        _assert_runs_match(s, l)

    def test_spaxpy_predicated_streams(self):
        rng = np.random.default_rng(4)
        xs = _sparse(rng, 640, 0.11)  # uneven per-bank splits -> PAD beats
        y = rng.standard_normal(640)
        s, l = _both(lambda: spaxpy(2.0, xs, y))
        assert np.array_equal(s.result, l.result)
        _assert_runs_match(s, l)

    def test_spdot_queue_reduce(self):
        rng = np.random.default_rng(5)
        xs = _sparse(rng, 512, 0.2)
        y = rng.standard_normal(512)
        s, l = _both(lambda: spdot(xs, y))
        assert s.result == l.result
        _assert_runs_match(s, l)

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal(256)
        dense[rng.random(256) < 0.6] = 0.0
        s, l = _both(lambda: gather(dense))
        assert np.array_equal(s.result.indices, l.result.indices)
        assert np.array_equal(s.result.values, l.result.values)
        _assert_runs_match(s, l)
        xs = _sparse(rng, 256, 0.3)
        s, l = _both(lambda: scatter(xs))
        assert np.array_equal(s.result, l.result)
        _assert_runs_match(s, l)

    @pytest.mark.parametrize("set_mode,binary", [("union", "add"),
                                                 ("intersection", "mul")])
    def test_spvspv_dual_queue(self, set_mode, binary):
        rng = np.random.default_rng(7)
        xs = _sparse(rng, 400, 0.15)
        ys = _sparse(rng, 400, 0.1)  # different lengths -> stalls
        s, l = _both(lambda: spvspv(xs, ys, binary=binary,
                                    set_mode=set_mode))
        assert np.array_equal(s.result.indices, l.result.indices)
        assert np.array_equal(s.result.values, l.result.values)
        _assert_runs_match(s, l)


# ----------------------------------------------------------------------
# randomized tile rounds: predication, CEXIT, IndMOV, exhaustion
# ----------------------------------------------------------------------
def _random_tiles(rng, num_banks, x_len, y_len, max_nnz):
    tiles = []
    for _ in range(num_banks):
        nnz = int(rng.integers(0, max_nnz + 1))
        if nnz == 0 and rng.random() < 0.5:
            tiles.append(empty_tile(x_len, y_len))  # pure-padding bank
            continue
        tiles.append(Tile(rows=rng.integers(0, y_len, size=nnz),
                          cols=rng.integers(0, x_len, size=nnz),
                          vals=rng.standard_normal(nnz),
                          x_segment=rng.standard_normal(x_len),
                          y_len=y_len))
    return tiles


class TestTileRoundEquivalence:
    """Tile rounds drive SPMOV loads, per-unit IndMOV gather columns,
    SPVDV scatters and CEXIT with uneven streams — the full partially
    synchronous repertoire — through both engines."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_rounds(self, seed):
        rng = np.random.default_rng(seed)
        num_banks = int(rng.integers(1, 9))
        x_len = int(rng.integers(1, 40))
        y_len = int(rng.integers(1, 40))
        max_nnz = int(rng.integers(1, 70))
        tiles = _random_tiles(rng, num_banks, x_len, y_len, max_nnz)

        def round_once(cls):
            engine = cls(num_banks)
            return run_tile_round(engine, tiles), engine

        sres, seng = round_once(AllBankEngine)
        lres, leng = round_once(LaneEngine)
        assert sres.batches == lres.batches
        assert sres.nnz_per_bank == lres.nnz_per_bank
        for sy, ly in zip(sres.y_per_bank, lres.y_per_bank):
            assert np.array_equal(sy, ly)
        _assert_engines_match(seng, leng)

    @pytest.mark.parametrize("accumulate,y_init", [("sub", 0.0),
                                                   ("min", 1e30)])
    def test_semiring_variants(self, accumulate, y_init):
        rng = np.random.default_rng(99)
        tiles = _random_tiles(rng, 4, 16, 16, 40)

        def round_once(cls):
            engine = cls(4)
            return run_tile_round(engine, tiles, accumulate=accumulate,
                                  y_init=y_init), engine

        sres, seng = round_once(AllBankEngine)
        lres, leng = round_once(LaneEngine)
        for sy, ly in zip(sres.y_per_bank, lres.y_per_bank):
            assert np.array_equal(sy, ly)
        _assert_engines_match(seng, leng)


# ----------------------------------------------------------------------
# raw beat-by-beat lock-step: state compared after every transaction
# ----------------------------------------------------------------------
SCATTER_PROG = """
loop:
    SPMOV  SPVQ0, BANK
    GTHSCT BANK, SPVQ0
    JUMP   loop order=0 count=6
    CEXIT  SPVQ0
"""


class TestBeatByBeat:
    def test_state_matches_after_every_beat(self):
        rng = np.random.default_rng(11)
        num_banks = 4
        # Uneven streams: bank b holds 3*b elements, so exhaustion and
        # conditional exit trigger on different beats per bank.
        cap = 24
        streams = [padded_triples(np.zeros(3 * b, dtype=np.int64),
                                  rng.integers(0, 8, size=3 * b),
                                  rng.standard_normal(3 * b), cap)
                   for b in range(num_banks)]
        engines = []
        for cls in (AllBankEngine, LaneEngine):
            eng = cls(num_banks)
            eng.host_write_triples("x", streams)
            eng.host_write_dense("y", [np.zeros(8)] * num_banks)
            eng.switch_mode(Mode.AB)
            eng.load_program(assemble(SCATTER_PROG))
            eng.switch_mode(Mode.AB_PIM)
            engines.append(eng)
        scalar, lane = engines
        group = scalar.units[0].registers.group_size
        for g in range(-(-cap // group)):
            for beat in (Beat("x", g), Beat("y", 0, write=True)):
                scalar.step(beat)
                lane.step(beat)
                _assert_engines_match(scalar, lane)
        # run([]) flushes trailing control instructions and collects stats
        # identically on both implementations.
        scalar.run([])
        lane.run([])
        _assert_engines_match(scalar, lane)
        assert scalar.all_exited and lane.all_exited
