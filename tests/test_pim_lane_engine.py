"""Differential tests: the vectorized LaneEngine vs the reference oracle.

The independent :class:`~repro.check.reference.ReferenceEngine` is the
reference semantics; the :class:`LaneEngine` must match it *bitwise* —
results, register and memory contents, exit/exhaustion state and the
engine counters (beats, predicated beats, launches, mode switches) — on
every driver-produced program and on randomized workloads covering
predication, conditional exit, per-unit IndMOV columns and queue
exhaustion.

Kernel drivers build the lane engine; their reference runs swap the
oracle in with :func:`repro.check.oracles.use_reference_engine`. Every
engine a driver builds is recorded, so final bank memory is compared
for the core SpMV/SpMM/SpTRSV drivers too, not only their results.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.check import oracles
from repro.check.fuzz import engine_diff
from repro.check.reference import ReferenceEngine
from repro.config import default_system
from repro.core import run_spmm, run_spmv, run_sptrsv
from repro.formats import SparseVector
from repro.formats.generators import uniform_random, unit_lower_from
from repro.isa import assemble
from repro.kernels import (Tile, daxpy, dcopy, ddot, dgemv, dnrm2, dscal,
                           dswap, dtrsv, elementwise, empty_tile, gather,
                           run_tile_round, scatter, spaxpy, spdot, spvspv)
from repro.pim import Beat, LaneEngine, Mode, padded_triples

CFG = default_system()


def _recording(base, log):
    """*base*, with every instance appended to *log* when built."""
    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log.append(self)
    return Recorded


def _both(fn):
    """Run *fn* on the reference engine, then on the lane engine; check
    every engine the two runs built pairwise; return (reference, lane)."""
    built = {"reference": [], "lane": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "ReferenceEngine",
                   _recording(ReferenceEngine, built["reference"]))
        oracles.use_reference_engine(mp.setattr)
        ref = fn()
    with pytest.MonkeyPatch.context() as mp:
        for module in oracles.ENGINE_SITES:
            mp.setattr(importlib.import_module(module), "LaneEngine",
                       _recording(LaneEngine, built["lane"]))
        lane = fn()
    assert built["lane"], "the run built no engine"
    assert len(built["reference"]) == len(built["lane"])
    for ref_engine, lane_engine in zip(built["reference"], built["lane"]):
        _assert_engines_match(ref_engine, lane_engine)
    return ref, lane


def _assert_engines_match(ref, lane):
    """Engine counters and full architectural state equal, bitwise."""
    diff = engine_diff(lane, ref)
    assert diff is None, diff


def _assert_runs_match(ref_run, lane_run):
    assert isinstance(ref_run.engine, ReferenceEngine)
    assert isinstance(lane_run.engine, LaneEngine)
    for field in ("beats", "launches", "mode_switches", "programs_loaded"):
        assert (getattr(ref_run.stats, field)
                == getattr(lane_run.stats, field)), field


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
        monkeypatch.setenv("PSYNCPIM_ENGINE", "reference")
        assert isinstance(dscal(2.0, x, num_banks=4).engine, LaneEngine)
        oracles.use_reference_engine(monkeypatch.setattr)
        assert isinstance(dscal(2.0, x, num_banks=4).engine,
                          ReferenceEngine)

    def test_every_construction_site_is_swappable(self):
        """Every production module that builds a ``LaneEngine`` is listed
        in ``ENGINE_SITES``, so the reference runs reach all of them."""
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
        r, l = _both(lambda: daxpy(1.5, x, y, precision=precision))
        assert np.array_equal(r.result, l.result)
        _assert_runs_match(r, l)

    def test_ddot_reduction(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        r, l = _both(lambda: ddot(x, y))
        assert r.result == l.result  # bitwise, not approx
        _assert_runs_match(r, l)

    def test_dscal_scalar_broadcast(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        r, l = _both(lambda: dscal(-0.75, x, num_banks=8))
        assert np.array_equal(r.result, l.result)
        _assert_runs_match(r, l)

    def test_spaxpy_predicated_streams(self):
        rng = np.random.default_rng(4)
        xs = _sparse(rng, 640, 0.11)  # uneven per-bank splits -> PAD beats
        y = rng.standard_normal(640)
        r, l = _both(lambda: spaxpy(2.0, xs, y))
        assert np.array_equal(r.result, l.result)
        _assert_runs_match(r, l)

    def test_spdot_queue_reduce(self):
        rng = np.random.default_rng(5)
        xs = _sparse(rng, 512, 0.2)
        y = rng.standard_normal(512)
        r, l = _both(lambda: spdot(xs, y))
        assert r.result == l.result
        _assert_runs_match(r, l)

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal(256)
        dense[rng.random(256) < 0.6] = 0.0
        r, l = _both(lambda: gather(dense))
        assert np.array_equal(r.result.indices, l.result.indices)
        assert np.array_equal(r.result.values, l.result.values)
        _assert_runs_match(r, l)
        xs = _sparse(rng, 256, 0.3)
        r, l = _both(lambda: scatter(xs))
        assert np.array_equal(r.result, l.result)
        _assert_runs_match(r, l)

    @pytest.mark.parametrize("set_mode,binary", [("union", "add"),
                                                 ("intersection", "mul")])
    def test_spvspv_dual_queue(self, set_mode, binary):
        rng = np.random.default_rng(7)
        xs = _sparse(rng, 400, 0.15)
        ys = _sparse(rng, 400, 0.1)  # different lengths -> stalls
        r, l = _both(lambda: spvspv(xs, ys, binary=binary,
                                    set_mode=set_mode))
        assert np.array_equal(r.result.indices, l.result.indices)
        assert np.array_equal(r.result.values, l.result.values)
        _assert_runs_match(r, l)

    def test_dense_copies_and_elementwise(self):
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(203), rng.standard_normal(203)
        for fn in (lambda: dcopy(x, num_banks=5),
                   lambda: dswap(x, y, num_banks=3),
                   lambda: dnrm2(x, num_banks=4),
                   lambda: elementwise(x, y, "max", num_banks=6)):
            r, l = _both(fn)
            assert np.array_equal(np.asarray(r.result, dtype=float),
                                  np.asarray(l.result, dtype=float))
            _assert_runs_match(r, l)

    def test_dgemv(self):
        rng = np.random.default_rng(9)
        a, x = rng.standard_normal((23, 17)), rng.standard_normal(17)
        r, l = _both(lambda: dgemv(a, x, num_banks=4))
        assert np.array_equal(r.result, l.result)
        _assert_runs_match(r, l)

    @pytest.mark.parametrize("lower", [True, False])
    def test_dtrsv_solution_and_final_b(self, lower):
        """The solution and every bank's final ``b`` region agree; the
        solved entries are never written back, so ``b`` ends as the
        updated right-hand side on both engines."""
        rng = np.random.default_rng(10)
        t = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        t = np.tril(t) if lower else np.triu(t)
        b = rng.standard_normal(10)
        r, l = _both(lambda: dtrsv(t, b, lower=lower, num_banks=2))
        assert np.array_equal(r.result, l.result)
        np.testing.assert_allclose(l.result, np.linalg.solve(t, b))
        assert all(np.array_equal(rb, lb) for rb, lb in zip(
            r.engine.host_read_dense("b"), l.engine.host_read_dense("b")))
        _assert_runs_match(r, l)


# ----------------------------------------------------------------------
# the core functional tier: every round's engines, both interpreters
# ----------------------------------------------------------------------
class TestCoreFunctionalEquivalence:
    @pytest.mark.parametrize("precision", ["fp64", "fp32", "int8"])
    @pytest.mark.parametrize("channels", [None, 3])
    def test_run_spmv(self, precision, channels):
        m = uniform_random(70, 60, density=0.08, seed=11)
        x = np.random.default_rng(11).random(60)
        r, l = _both(lambda: run_spmv(m, x, CFG, precision=precision,
                                      fidelity="functional",
                                      engine_banks=8, channels=channels))
        assert np.array_equal(r.y, l.y)

    @pytest.mark.parametrize("channels", [None, 3])
    def test_run_spmm(self, channels):
        m = uniform_random(60, 60, density=0.07, seed=12)
        x = np.random.default_rng(12).random((60, 3))
        r, l = _both(lambda: run_spmm(m, x, CFG, fidelity="functional",
                                      engine_banks=4, channels=channels))
        assert np.array_equal(r.y, l.y)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("channels", [None, 3])
    def test_run_sptrsv(self, lower, channels):
        tri = unit_lower_from(uniform_random(80, 80, 0.05, seed=13),
                              seed=14)
        if not lower:
            tri = tri.transpose()
        b = np.random.default_rng(13).random(80)
        r, l = _both(lambda: run_sptrsv(tri, b, CFG, lower=lower,
                                        fidelity="functional",
                                        engine_banks=8, channels=channels))
        assert np.array_equal(r.x, l.x)


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

        rres, reng = round_once(ReferenceEngine)
        lres, leng = round_once(LaneEngine)
        assert rres.batches == lres.batches
        assert rres.nnz_per_bank == lres.nnz_per_bank
        for ry, ly in zip(rres.y_per_bank, lres.y_per_bank):
            assert np.array_equal(ry, ly)
        _assert_engines_match(reng, leng)

    @pytest.mark.parametrize("accumulate,y_init", [("sub", 0.0),
                                                   ("min", 1e30)])
    def test_semiring_variants(self, accumulate, y_init):
        rng = np.random.default_rng(99)
        tiles = _random_tiles(rng, 4, 16, 16, 40)

        def round_once(cls):
            engine = cls(4)
            return run_tile_round(engine, tiles, accumulate=accumulate,
                                  y_init=y_init), engine

        rres, reng = round_once(ReferenceEngine)
        lres, leng = round_once(LaneEngine)
        for ry, ly in zip(rres.y_per_bank, lres.y_per_bank):
            assert np.array_equal(ry, ly)
        _assert_engines_match(reng, leng)


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
        for cls in (ReferenceEngine, LaneEngine):
            eng = cls(num_banks)
            eng.host_write_triples("x", streams)
            eng.host_write_dense("y", [np.zeros(8)] * num_banks)
            eng.switch_mode(Mode.AB)
            eng.load_program(assemble(SCATTER_PROG))
            eng.switch_mode(Mode.AB_PIM)
            engines.append(eng)
        ref, lane = engines
        for g in range(-(-cap // ref.group_size)):
            for beat in (Beat("x", g), Beat("y", 0, write=True)):
                ref.step(beat)
                lane.step(beat)
                _assert_engines_match(ref, lane)
        # run([]) flushes trailing control instructions identically on
        # both implementations.
        ref.run([])
        lane.run([])
        _assert_engines_match(ref, lane)
        assert ref.all_exited and lane.all_exited
