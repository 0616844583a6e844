"""Bad inputs fail at the SpMV / SpMM / SpTRSV entry points, typed.

Each case here used to get past the public function: a wrong-length
``y0`` failed deep inside numpy, a non-positive ``engine_banks`` silently
returned zeros (or ran uncapped), and a non-unit stored diagonal was
solved as if it were 1.0. They must now raise a :class:`ReproError`
subclass before any work is done.
"""

import numpy as np
import pytest

from repro.config import default_system
from repro.core import (run_spmm, run_spmv, run_sptrsv,
                        solve_unit_triangular_reference)
from repro.errors import ExecutionError, ReproError
from repro.formats import COOMatrix
from repro.formats.generators import uniform_random, unit_lower_from

CFG = default_system()
FIDELITIES = ("fast", "functional")


def _matrix():
    return uniform_random(60, 50, density=0.08, seed=3)


# ----------------------------------------------------------------------
# run_spmv: y0 must be one value per output row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("length", [3, 59, 61])
def test_spmv_rejects_wrong_length_y0(fidelity, length):
    m = _matrix()
    x = np.ones(m.shape[1])
    with pytest.raises(ExecutionError, match="y0"):
        run_spmv(m, x, CFG, fidelity=fidelity, engine_banks=4,
                 y0=np.ones(length))


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_spmv_rejects_2d_y0(fidelity):
    m = _matrix()
    with pytest.raises(ExecutionError, match="y0"):
        run_spmv(m, np.ones(m.shape[1]), CFG, fidelity=fidelity,
                 engine_banks=4, y0=np.ones((m.shape[0], 1)))


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_spmv_accepts_matching_y0(fidelity):
    m = _matrix()
    x = np.random.default_rng(1).random(m.shape[1])
    y0 = np.random.default_rng(2).random(m.shape[0])
    result = run_spmv(m, x, CFG, fidelity=fidelity, engine_banks=4, y0=y0)
    np.testing.assert_allclose(result.y, y0 + m.matvec(x), rtol=1e-12)


# ----------------------------------------------------------------------
# engine_banks: None is uncapped, a cap must be at least one bank
# ----------------------------------------------------------------------
def _spmv(engine_banks, fidelity):
    m = _matrix()
    return run_spmv(m, np.ones(m.shape[1]), CFG, fidelity=fidelity,
                    engine_banks=engine_banks).y


def _spmm(engine_banks, fidelity):
    m = _matrix()
    return run_spmm(m, np.ones((m.shape[1], 2)), CFG, fidelity=fidelity,
                    engine_banks=engine_banks).y


def _sptrsv(engine_banks, fidelity):
    tri = unit_lower_from(uniform_random(50, 50, 0.08, seed=4), seed=5)
    return run_sptrsv(tri, np.ones(50), CFG, fidelity=fidelity,
                      engine_banks=engine_banks).x


ENTRY_POINTS = {"run_spmv": _spmv, "run_spmm": _spmm,
                "run_sptrsv": _sptrsv}


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("engine_banks", [0, -1, -16])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_positive_engine_banks_rejected(entry, engine_banks, fidelity):
    with pytest.raises(ReproError, match="engine_banks"):
        ENTRY_POINTS[entry](engine_banks, fidelity)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_engine_banks_none_and_one_agree(entry):
    run = ENTRY_POINTS[entry]
    uncapped = run(None, "functional")
    assert np.array_equal(uncapped, run(1, "functional"))
    assert np.allclose(uncapped, run(None, "fast"))
    assert np.any(uncapped != 0)


# ----------------------------------------------------------------------
# run_sptrsv: the diagonal is implied (absent) or stored as exactly 1.0
# ----------------------------------------------------------------------
def _triangular(lower, diagonal):
    """A 40x40 triangular matrix whose diagonal is ``"unit"`` (stored
    1.0), ``"absent"`` (not stored) or a stored non-unit value."""
    tri = unit_lower_from(uniform_random(40, 40, 0.1, seed=6), seed=7)
    if not lower:
        tri = tri.transpose()
    off = tri.rows != tri.cols
    rows, cols, vals = tri.rows[off], tri.cols[off], tri.vals[off]
    if diagonal != "absent":
        value = 1.0 if diagonal == "unit" else diagonal
        eye = np.arange(40)
        rows = np.concatenate([rows, eye])
        cols = np.concatenate([cols, eye])
        vals = np.concatenate([vals, np.full(40, value)])
    return COOMatrix((40, 40), rows, cols, vals)


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("diagonal", [2.0, 0.5, -1.0, 0.0])
@pytest.mark.parametrize("lower", [True, False])
def test_sptrsv_rejects_non_unit_diagonal(lower, diagonal, fidelity):
    tri = _triangular(lower, diagonal)
    with pytest.raises(ExecutionError, match="unit diagonal"):
        run_sptrsv(tri, np.ones(40), CFG, lower=lower, fidelity=fidelity,
                   engine_banks=4)


@pytest.mark.parametrize("lower", [True, False])
def test_sptrsv_rejects_single_off_unit_entry(lower):
    tri = _triangular(lower, "unit")
    diag = np.flatnonzero(tri.rows == tri.cols)
    vals = tri.vals.copy()
    vals[diag[17]] = 1.0 + 2.0 ** -40
    bad = COOMatrix(tri.shape, tri.rows, tri.cols, vals)
    with pytest.raises(ExecutionError, match="unit diagonal"):
        run_sptrsv(bad, np.ones(40), CFG, lower=lower)


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("lower", [True, False])
def test_sptrsv_absent_diagonal_is_unit(lower, fidelity):
    b = np.random.default_rng(8).random(40)
    absent = run_sptrsv(_triangular(lower, "absent"), b, CFG, lower=lower,
                        fidelity=fidelity, engine_banks=4)
    unit = run_sptrsv(_triangular(lower, "unit"), b, CFG, lower=lower,
                      fidelity=fidelity, engine_banks=4)
    assert np.array_equal(absent.x, unit.x)
    expected = solve_unit_triangular_reference(_triangular(lower, "unit"),
                                               b, lower=lower)
    np.testing.assert_allclose(absent.x, expected, rtol=1e-10)
