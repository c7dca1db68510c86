import math

import numpy as np
import pytest

from frisec.errors import DomainError
from frisec.specfun import bessel_j0
from frisec.harness import SPEED_OF_LIGHT
from frisec.surface import SurfaceGeometry, build_correlation, trace_power

from oracles import (bessel_j0_series, element_distance, index_to_coords,
                     trace_power_direct)

WAVELENGTH = 0.12491352  # 2.4 GHz carrier


def square_geometry(side, aperture, wavelength=WAVELENGTH):
    return SurfaceGeometry(m_x=side, m_z=side, width_x=aperture, width_z=aperture,
                           wavelength=wavelength)


class TestGeometry:
    def test_spacings(self):
        g = SurfaceGeometry(m_x=20, m_z=10, width_x=3.0, width_z=2.0, wavelength=0.125)
        assert g.spacing_x == pytest.approx(3.0 * 0.125 / 20)
        assert g.spacing_z == pytest.approx(2.0 * 0.125 / 10)
        assert g.n_elements == 200

    def test_validation(self):
        with pytest.raises(DomainError):
            SurfaceGeometry(0, 5, 1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            SurfaceGeometry(5, 5, -1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            SurfaceGeometry(5, 5, 1.0, 1.0, 0.0)
        # finite inputs whose spacing or widest J0 argument overflows
        for args in ((2, 2, 1e307, 1.0, 3e8), (5, 5, 1.0, 1e300, 3e11),
                     (5, 5, 1e306, 1e306, 1e2)):
            with pytest.raises(DomainError, match="aperture extents"):
                SurfaceGeometry(*args)

    def test_index_mapping(self):
        g = SurfaceGeometry(m_x=20, m_z=20, width_x=3.0, width_z=3.0, wavelength=0.125)
        assert index_to_coords(0, g) == (0, 0)
        assert index_to_coords(20, g) == (0, 1)
        assert index_to_coords(25, g) == (5, 1)
        with pytest.raises(IndexError):
            index_to_coords(400, g)
        with pytest.raises(IndexError):
            index_to_coords(-1, g)

    def test_distances(self):
        g = square_geometry(4, 2.0)
        assert element_distance(5, 5, g) == 0.0
        assert element_distance(0, 1, g) == pytest.approx(g.spacing_x)
        assert element_distance(0, 4, g) == pytest.approx(g.spacing_z)
        # diagonal offset (1, 1): true planar Euclidean length
        assert element_distance(0, 5, g) == pytest.approx(
            math.hypot(g.spacing_x, g.spacing_z))


class TestCorrelation:
    def test_unit_diagonal_and_symmetry(self):
        corr = build_correlation(square_geometry(5, 1.5))
        assert np.all(np.diag(corr.matrix) == 1.0)
        assert np.array_equal(corr.matrix, corr.matrix.T)
        assert np.all(np.abs(corr.matrix) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("m_x, m_z, width_x, width_z",
                             [(5, 3, 2.0, 1.3), (3, 5, 1.3, 2.0), (7, 4, 0.9, 3.1),
                              (1, 7, 0.8, 2.2), (9, 1, 2.7, 0.6), (1, 1, 0.5, 0.5)])
    def test_matrix_equals_pairwise_distances(self, m_x, m_z, width_x, width_z):
        # every entry, bit for bit, against J0 of the scalar pairwise distance
        g = SurfaceGeometry(m_x, m_z, width_x, width_z, WAVELENGTH)
        m = g.n_elements
        expected = np.array([[bessel_j0(2.0 * math.pi * element_distance(i, l, g) / WAVELENGTH)
                              for l in range(m)] for i in range(m)])
        assert np.array_equal(build_correlation(g).matrix, expected)

    def test_dense_pool_spot_check(self):
        # the 40 x 40, 3-wavelength pool: the corners and seeded random
        # entries against J0 of the scalar pairwise distance.  np.hypot, which
        # the build uses, is 1 ulp off the correctly rounded math.hypot of
        # element_distance on 10 of this grid's 1600 offsets, so the entry is
        # bit-equal to J0 of np.hypot of the scalar offsets and within that
        # ulp's effect of J0 of element_distance.
        wavelength = SPEED_OF_LIGHT / 2.4e9
        g = SurfaceGeometry(40, 40, 3.0, 3.0, wavelength)
        m = g.n_elements
        matrix = build_correlation(g).matrix
        rng = np.random.default_rng(40)
        pairs = [(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1), (39, m - 40), (m - 40, 39)]
        pairs += [tuple(p) for p in rng.integers(0, m, size=(3000, 2)).tolist()]
        for i, l in pairs:
            (col_i, row_i), (col_l, row_l) = index_to_coords(i, g), index_to_coords(l, g)
            dist = float(np.hypot(g.spacing_x * (col_i - col_l), g.spacing_z * (row_i - row_l)))
            assert matrix[i, l] == bessel_j0(2.0 * math.pi * dist / wavelength), (i, l)
            assert matrix[i, l] == pytest.approx(
                bessel_j0(2.0 * math.pi * element_distance(i, l, g) / wavelength),
                rel=0, abs=1e-14), (i, l)

    def test_half_wavelength_neighbors(self):
        # spacing exactly half a wavelength: neighbor correlation is J0(pi)
        g = square_geometry(4, 2.0)
        corr = build_correlation(g)
        expected = bessel_j0_series(math.pi)
        assert corr.matrix[0, 1] == pytest.approx(expected, abs=1e-13)

    def test_single_element(self):
        g = SurfaceGeometry(1, 1, 0.5, 0.5, 0.1)
        corr = build_correlation(g)
        assert corr.matrix.shape == (1, 1)
        assert corr.matrix[0, 0] == 1.0
        assert np.array_equal(corr.factor, np.array([[1.0]]))
        assert corr.rank == 1

    def test_factor_reconstructs(self):
        corr = build_correlation(square_geometry(6, 1.2))
        m = corr.n_elements
        residual = np.linalg.norm(corr.factor @ corr.factor.T - corr.matrix)
        assert residual <= 1e-8 * m

    def test_factor_rank(self):
        corr = build_correlation(square_geometry(8, 1.0))  # dense packing
        m = corr.n_elements
        assert corr.factor.shape[0] == m and corr.factor.flags.c_contiguous
        assert corr.rank == corr.factor.shape[1] < m
        # the kept columns are orthogonal eigen-directions, largest first
        gram = corr.factor.T @ corr.factor
        lam = np.diag(gram)
        assert np.all(np.diff(lam) <= 1e-12 * lam[0]) and lam[-1] >= 1e-12 * lam[0]
        assert np.max(np.abs(gram - np.diag(lam))) <= 1e-10 * lam[0]
        # what the rank leaves out is rounding noise of the eigendecomposition
        eigvals = np.linalg.eigvalsh(corr.matrix)
        assert np.sum(np.abs(eigvals[:m - corr.rank])) <= 1e-9 * m

    def test_clamped_mass_small(self):
        corr = build_correlation(square_geometry(8, 1.0))
        assert corr.clamped_mass <= 1e-6 * corr.n_elements


class TestSelectionAndTraces:
    def test_trace_power_examples(self):
        assert trace_power(np.eye(7), 2) == pytest.approx(7.0)
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        # frozen from the direct-multiplication oracle
        assert trace_power_direct(a, 2) == pytest.approx(2.5)
        assert trace_power_direct(a, 4) == pytest.approx(5.125)
        assert trace_power(a, 2) == pytest.approx(2.5, rel=1e-14)
        assert trace_power(a, 4) == pytest.approx(5.125, rel=1e-14)

    def test_trace_power_random_vs_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            for p in (2, 4):
                assert trace_power(a, p) == pytest.approx(
                    trace_power_direct(a, p), rel=1e-11)

    def test_trace_power_cauchy_schwarz(self):
        # tr(A^4) >= tr(A^2)^2 / n, so the fitted shape never exceeds n
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 14))
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            assert trace_power(a, 4) >= trace_power(a, 2) ** 2 / m - 1e-10

    def test_trace_power_bad_exponent(self):
        with pytest.raises(DomainError):
            trace_power(np.eye(2), 3)
