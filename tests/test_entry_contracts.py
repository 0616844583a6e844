"""Bad inputs fail at the SpMV / SpMM / SpTRSV entry points and the
dense kernel drivers, typed.

Each case here used to get past the public function: a wrong-length
``y0`` failed deep inside numpy, a non-positive ``engine_banks`` silently
returned zeros (or ran uncapped), a non-unit stored diagonal was
solved as if it were 1.0, an unknown SpTRSV fidelity ran the functional
tier, and a bad matrix format, policy, fidelity or semiring failed only
after partitioning, and so did a functional-tier ``multiply`` that no
ALU operation names. They must now raise a :class:`ReproError` subclass
before any work is done. Likewise a kernel driver handed a matrix or a
scalar where it takes a vector raises :class:`ExecutionError` instead of
failing inside numpy.
"""

import numpy as np
import pytest

from repro import kernels, obs
from repro.config import default_system
from repro.core import (plan_spmv, run_spmm, run_spmv, run_sptrsv,
                        solve_unit_triangular_reference)
from repro.errors import (AssemblerError, ConfigError, ExecutionError,
                          MappingError, ReproError)
from repro.formats import COOMatrix, SparseVector
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
# run_spmm: y0 is checked before any planning work
# ----------------------------------------------------------------------
@pytest.fixture
def recording():
    """Obs on, starting and finishing with an empty recorder."""
    was = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        yield obs.recorder()
    finally:
        obs.reset()
        if not was:
            obs.disable()


@pytest.mark.parametrize("strategy", ["paper", "auto"])
def test_spmm_rejects_wrong_y0_before_planning(recording, strategy):
    m = _matrix()
    with pytest.raises(ExecutionError, match="y0"):
        run_spmm(m, np.ones((m.shape[1], 2)), CFG, strategy=strategy,
                 y0=np.ones((3, 2)))
    spans = [event.name for event in recording.events]
    assert not [name for name in spans if name.startswith("plan.")], spans


# ----------------------------------------------------------------------
# plan_spmv / run_spmv / run_spmm: layout and semiring arguments are
# checked before any planning work, with the errors the deep raises had
# ----------------------------------------------------------------------
LAYOUT_ERRORS = [
    pytest.param({"matrix_format": "csc"}, ExecutionError,
                 "unknown matrix format 'csc'", id="format"),
    pytest.param({"policy": "bogus"}, MappingError,
                 "unknown distribution policy 'bogus'", id="policy"),
]
RUN_ERRORS = LAYOUT_ERRORS + [
    pytest.param({"fidelity": "bogus"}, ExecutionError,
                 "unknown fidelity 'bogus'", id="fidelity"),
    pytest.param({"accumulate": "xor"}, ExecutionError,
                 r"unsupported semiring \(mul, xor\)", id="fast-accumulate"),
    pytest.param({"multiply": "min"}, ExecutionError,
                 r"unsupported semiring \(min, add\)", id="fast-multiply"),
    pytest.param({"fidelity": "functional", "accumulate": "xor"},
                 ExecutionError, "unsupported accumulate 'xor'",
                 id="functional-accumulate"),
    pytest.param({"fidelity": "functional", "multiply": "bogus"},
                 AssemblerError, "bad binary='bogus'; expected one of add,",
                 id="functional-multiply"),
]


def _assert_nothing_planned(recording):
    spans = [event.name for event in recording.events]
    assert not [name for name in spans
                if name.startswith(("plan.", "spmv."))], spans


@pytest.mark.parametrize("channels", [None, 4])
@pytest.mark.parametrize("strategy", ["paper", "auto"])
@pytest.mark.parametrize("kwargs,error,message", LAYOUT_ERRORS)
def test_plan_spmv_rejects_bad_layout_before_planning(
        recording, kwargs, error, message, strategy, channels):
    with pytest.raises(error, match=message):
        plan_spmv(_matrix(), CFG, strategy=strategy, channels=channels,
                  **kwargs)
    _assert_nothing_planned(recording)


@pytest.mark.parametrize("strategy", ["paper", "auto"])
@pytest.mark.parametrize("kwargs,error,message", RUN_ERRORS)
@pytest.mark.parametrize("entry", ["run_spmv", "run_spmm"])
def test_run_rejects_bad_arguments_before_planning(
        recording, entry, kwargs, error, message, strategy):
    m = _matrix()
    run = run_spmv if entry == "run_spmv" else run_spmm
    x = np.ones(m.shape[1]) if entry == "run_spmv" else np.ones(
        (m.shape[1], 2))
    with pytest.raises(error, match=message):
        run(m, x, CFG, strategy=strategy, **kwargs)
    _assert_nothing_planned(recording)


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


# ----------------------------------------------------------------------
# run_sptrsv: leaf_size is None (tile capacity) or an integer >= 1
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("leaf_size", [0, -1, 2.5, 2.0, "8"])
def test_sptrsv_rejects_bad_leaf_size_before_planning(recording, leaf_size,
                                                      lower):
    tri = _triangular(lower, "unit")
    with pytest.raises(ConfigError, match="leaf_size"):
        run_sptrsv(tri, np.ones(40), CFG, lower=lower, leaf_size=leaf_size)
    spans = [event.name for event in recording.events]
    assert not [name for name in spans if name.startswith("sptrsv.")], spans


@pytest.mark.parametrize("lower", [True, False])
def test_sptrsv_rejects_unknown_fidelity_before_planning(recording, lower):
    tri = _triangular(lower, "unit")
    with pytest.raises(ExecutionError, match="unknown fidelity 'bogus'"):
        run_sptrsv(tri, np.ones(40), CFG, lower=lower, fidelity="bogus")
    spans = [event.name for event in recording.events]
    assert not [name for name in spans if name.startswith("sptrsv.")], spans


def test_sptrsv_leaf_size_integer_and_default():
    tri = _triangular(True, "unit")
    b = np.random.default_rng(9).random(40)
    default = run_sptrsv(tri, b, CFG)
    capacity = run_sptrsv(tri, b, CFG, leaf_size=np.int64(
        default.execution.leaf_size))
    assert default.execution.leaf_size == capacity.execution.leaf_size
    assert np.array_equal(default.x, capacity.x)
    one = run_sptrsv(tri, b, CFG, leaf_size=1)
    assert one.execution.leaf_size == 1
    # a one-row leaf has nothing to batch: one element-free level each
    assert one.execution.level_elements == [0] * 40


# ----------------------------------------------------------------------
# dense kernel drivers: operands must be one-dimensional vectors
# ----------------------------------------------------------------------
_FLAT = np.arange(10.0)
_GRID = np.arange(10.0).reshape(2, 5)
_SPARSE = SparseVector(10, np.array([1, 7]), np.array([2.0, 3.0]))

#: One call per dense-operand entry point of repro.kernels, each with a
#: non-vector operand that used to fail inside numpy (or index a scalar).
VECTOR_CASES = {
    "dcopy": lambda: kernels.dcopy(_GRID),
    "dcopy-scalar": lambda: kernels.dcopy(3.0),
    "dswap": lambda: kernels.dswap(_GRID, _GRID),
    "dscal": lambda: kernels.dscal(2.0, _GRID),
    "daxpy": lambda: kernels.daxpy(2.0, _GRID, _GRID),
    "ddot": lambda: kernels.ddot(_GRID, _GRID),
    "dnrm2": lambda: kernels.dnrm2(_GRID),
    "elementwise": lambda: kernels.elementwise(_GRID, _GRID, "add"),
    "spaxpy": lambda: kernels.spaxpy(2.0, _SPARSE, _GRID),
    "spdot": lambda: kernels.spdot(_SPARSE, _GRID),
    "gather": lambda: kernels.gather(_GRID),
    "scatter-base": lambda: kernels.scatter(_SPARSE, base=_GRID),
    "dgemv-x": lambda: kernels.dgemv(np.eye(4), np.ones((4, 1))),
    "dtrsv-b": lambda: kernels.dtrsv(np.eye(4), np.ones((4, 1))),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_kernel_drivers_reject_non_vector_operands(case):
    with pytest.raises(ExecutionError, match="one-dimensional"):
        VECTOR_CASES[case]()


def test_kernel_drivers_accept_vector_like_operands():
    assert np.array_equal(kernels.dcopy(list(_FLAT), num_banks=2).result,
                          _FLAT)
    assert kernels.ddot(_FLAT, _FLAT, num_banks=2).result == 285.0
