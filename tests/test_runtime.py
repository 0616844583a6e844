"""Tests for repro.core.runtime — the PSyncPIM facade."""

import numpy as np
import pytest

from repro import PSyncPIM, default_system
from repro.errors import ExecutionError, FormatError
from repro.formats import generate
from repro.formats.generators import make_spd, uniform_random

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def pim():
    return PSyncPIM()


@pytest.fixture(scope="module")
def matrix():
    return generate("facebook", scale=0.1)


class TestFacade:
    def test_default_configuration(self, pim):
        assert pim.config.total_units == 256
        assert pim.precision == "fp64"

    def test_three_cube(self):
        assert PSyncPIM(num_cubes=3).config.total_units == 768

    def test_custom_config(self):
        cfg = default_system(2)
        assert PSyncPIM(config=cfg).config is cfg

    def test_rejects_unknown_fidelity(self):
        with pytest.raises(ExecutionError):
            PSyncPIM(fidelity="dreams")

    def test_spmv(self, pim, matrix):
        x = RNG.random(matrix.shape[1])
        result = pim.spmv(matrix, x)
        np.testing.assert_allclose(result.y, matrix.matvec(x))

    def test_spmv_timing(self, pim, matrix):
        x = RNG.random(matrix.shape[1])
        result = pim.spmv(matrix, x)
        ab = pim.time_spmv(result)
        pb = pim.time_spmv(result, mode="pb")
        assert pb.cycles > ab.cycles > 0

    def test_sptrsv_pipeline(self, pim):
        spd = make_spd(uniform_random(150, 150, 0.03, seed=1))
        factors = pim.factorize(spd)
        x = RNG.random(150)
        b = spd.matvec(x)
        z = pim.precondition(factors, b)
        # preconditioner approximately inverts the operator
        assert (np.linalg.norm(z - x) / np.linalg.norm(x)
                < np.linalg.norm(b - x) / np.linalg.norm(x))

    def test_sptrsv_solve_and_timing(self, pim):
        spd = make_spd(uniform_random(120, 120, 0.04, seed=2))
        factors = pim.factorize(spd)
        b = RNG.random(120)
        result = pim.sptrsv(factors.lower, b, lower=True)
        report = pim.time_sptrsv(result)
        assert report.cycles > 0
        residual = factors.lower.matvec(result.x) - b
        assert np.abs(residual).max() < 1e-9

    def test_vector_kernel_timing(self, pim):
        report = pim.time_vector_kernel(1 << 14)
        assert report.cycles > 0

    def test_backend_factory(self, pim, matrix):
        backend = pim.backend()
        x = RNG.random(matrix.shape[1])
        y = backend.spmv(matrix, x)
        np.testing.assert_allclose(y, matrix.matvec(x))
        assert backend.config is pim.config

    def test_functional_facade(self, matrix):
        functional = PSyncPIM(fidelity="functional", engine_banks=8)
        small = generate("facebook", scale=0.03)
        x = RNG.random(small.shape[1])
        result = functional.spmv(small, x)
        np.testing.assert_allclose(result.y, small.matvec(x))

    def test_energy_report(self, pim, matrix):
        x = RNG.random(matrix.shape[1])
        report = pim.time_spmv(pim.spmv(matrix, x), with_energy=True)
        assert report.energy.total_joules > 0
        # Fig. 14 sanity: SpMV cube power stays near the 5 W HBM2 budget
        from repro.dram import TimingParams
        cube_watts = report.energy.average_power_watts(
            report.cycles, TimingParams())
        assert cube_watts < 6.0


class TestNanOperands:
    """NaN in a matrix, a right-hand side or ``y0`` is rejected at the
    run entry points; ``±inf`` stays legal (min-plus seeds with inf)."""

    @pytest.fixture
    def square(self):
        return uniform_random(48, 48, 0.1, seed=5)

    @pytest.fixture
    def lower(self, square):
        from repro.formats.generators import unit_lower_from
        return unit_lower_from(square, seed=6)

    @staticmethod
    def _with_nan(matrix):
        from repro.formats import COOMatrix
        vals = matrix.vals.copy()
        vals[len(vals) // 2] = np.nan
        return COOMatrix(matrix.shape, matrix.rows, matrix.cols, vals)

    def test_spmv_nan_x(self, pim, square):
        with pytest.raises(FormatError, match="x contains NaN"):
            pim.spmv(square, np.full(48, np.nan))

    def test_spmv_nan_matrix_value(self, pim, square):
        with pytest.raises(FormatError, match="matrix contains NaN"):
            pim.spmv(self._with_nan(square), np.ones(48))

    def test_spmv_nan_y0(self, pim, square):
        y0 = np.zeros(48)
        y0[3] = np.nan
        with pytest.raises(FormatError, match="y0 contains NaN"):
            pim.spmv(square, np.ones(48), y0=y0)

    def test_spmm_nan_column(self, pim, square):
        x = np.ones((48, 4))
        x[7, 2] = np.nan
        with pytest.raises(FormatError, match="x contains NaN"):
            pim.spmm(square, x)

    @pytest.mark.parametrize("lower_solve", [True, False])
    def test_sptrsv_nan_b(self, pim, lower, lower_solve):
        tri = lower if lower_solve else lower.transpose()
        with pytest.raises(FormatError, match="b contains NaN"):
            pim.sptrsv(tri, np.full(48, np.nan), lower=lower_solve)

    def test_sptrsv_nan_matrix_value(self, pim, lower):
        with pytest.raises(FormatError, match="matrix contains NaN"):
            pim.sptrsv(self._with_nan(lower), np.ones(48))

    def test_inf_stays_legal(self, pim, square):
        y0 = np.full(48, np.inf)
        y0[0] = 0.0
        result = pim.spmv(square, np.zeros(48), multiply="add",
                          accumulate="min", y0=y0)
        assert not np.isnan(result.y).any()
        x = np.ones(48)
        x[1] = np.inf
        assert np.isinf(pim.spmv(square, x).y).any()
