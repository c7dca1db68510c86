import math

import numpy as np
import pytest

from frisec.errors import DomainError
from frisec.specfun import bessel_j0
from frisec.surface import (SelectionSet, SurfaceGeometry, build_correlation,
                            reduce_correlation, trace_power)

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
                             [(5, 3, 2.0, 1.3), (3, 5, 1.3, 2.0), (7, 4, 0.9, 3.1)])
    def test_matrix_equals_pairwise_distances(self, m_x, m_z, width_x, width_z):
        # every entry, bit for bit, against J0 of the scalar pairwise distance
        g = SurfaceGeometry(m_x, m_z, width_x, width_z, WAVELENGTH)
        m = g.n_elements
        expected = np.array([[bessel_j0(2.0 * math.pi * element_distance(i, l, g) / WAVELENGTH)
                              for l in range(m)] for i in range(m)])
        assert np.array_equal(build_correlation(g).matrix, expected)

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
    def test_selection_validation(self):
        with pytest.raises(DomainError):
            SelectionSet(())
        with pytest.raises(DomainError):
            SelectionSet((1, 1))
        with pytest.raises(DomainError):
            SelectionSet((-1, 2))
        assert len(SelectionSet((3, 1, 2))) == 3

    def test_reduce_full_and_singleton(self):
        corr = build_correlation(square_geometry(3, 1.0))
        full = reduce_correlation(corr, SelectionSet(tuple(range(9))))
        assert np.array_equal(full, corr.matrix)
        single = reduce_correlation(corr, SelectionSet((4,)))
        assert np.array_equal(single, np.array([[1.0]]))

    def test_reduce_out_of_range(self):
        corr = build_correlation(square_geometry(3, 1.0))
        with pytest.raises(DomainError):
            reduce_correlation(corr, SelectionSet(tuple(range(10))))

    def test_reduce_2x2(self):
        j = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = reduce_correlation(j, SelectionSet((0, 1)))
        assert np.array_equal(out, j)

    def test_reduce_equals_selection_matrix_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 17))
            a = rng.standard_normal((m, m))
            j = (a + a.T) / 2
            k = int(rng.integers(1, m + 1))
            idx = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
            s = np.zeros((k, m))
            s[np.arange(k), list(idx)] = 1.0
            assert np.allclose(reduce_correlation(j, SelectionSet(idx)), s @ j @ s.T)

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
