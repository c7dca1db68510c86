import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frisec.errors import DomainError
from frisec.specfun import bessel_j0
from frisec.harness import ExperimentConfig
from frisec import surface
from frisec.surface import SurfaceGeometry, build_correlation

from oracles import (bessel_j0_series, correlation_block, element_distance, full_eigh_factor,
                     index_to_coords)

WAVELENGTH = 0.12491352  # 2.4 GHz carrier
ROOT = Path(__file__).resolve().parents[1]


def square_geometry(side, aperture, wavelength=WAVELENGTH):
    return SurfaceGeometry(m_x=side, m_z=side, width_x=aperture, width_z=aperture,
                           wavelength=wavelength)


def record_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record a copy of the input of each call."""
    calls, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def whole(corr):
    """All of J, gathered from the offset table."""
    return correlation_block(corr, np.arange(corr.n_elements))


def check_against_full_eigh(geometry):
    """The plane-wave build against one eigendecomposition of the whole J."""
    corr = build_correlation(geometry)
    eigvals, factor, eigen_floor, clamped_mass = full_eigh_factor(whole(corr))
    tol = 1e-13 * eigvals[-1]
    assert corr.rank == factor.shape[1]
    assert abs(corr.eigen_floor - eigen_floor) <= tol
    assert corr.clamped_mass >= 0.0
    assert abs(corr.clamped_mass - clamped_mass) <= corr.n_elements * tol
    # orthogonal columns whose squared norms are the kept eigenvalues, largest first
    gram = corr.factor.T @ corr.factor
    lam = np.diag(gram)
    assert np.max(np.abs(lam - eigvals[::-1][:corr.rank])) <= tol
    assert np.max(np.abs(gram - np.diag(lam))) <= tol
    assert corr.factor.flags.c_contiguous
    assert np.max(np.abs(corr.factor @ corr.factor.T - factor @ factor.T)) <= 1e-12


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
        # a 2x2 pool's widest J0 argument is pi sqrt(2) times its extent:
        # 9996.5 at 2250 wavelengths, 10000.9 at 2251, just past J0_MAX_ARG
        SurfaceGeometry(2, 2, 2250.0, 2250.0, 0.1)
        with pytest.raises(DomainError, match="aperture extents 2251.0 x 2251.0 wavelengths "
                                              "give a widest J0 argument of 10000.9"):
            SurfaceGeometry(2, 2, 2251.0, 2251.0, 0.1)

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
        matrix = whole(build_correlation(square_geometry(5, 1.5)))
        assert np.all(np.diag(matrix) == 1.0)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.abs(matrix) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("m_x, m_z, width_x, width_z",
                             [(5, 3, 2.0, 1.3), (3, 5, 1.3, 2.0), (7, 4, 0.9, 3.1),
                              (1, 7, 0.8, 2.2), (9, 1, 2.7, 0.6), (1, 1, 0.5, 0.5)])
    def test_matrix_equals_pairwise_distances(self, m_x, m_z, width_x, width_z):
        # every entry, bit for bit, against J0 of the scalar pairwise distance:
        # all of J, and a shuffled selection that skips elements
        g = SurfaceGeometry(m_x, m_z, width_x, width_z, WAVELENGTH)
        m = g.n_elements
        expected = np.array([[bessel_j0(2.0 * math.pi * element_distance(i, l, g) / WAVELENGTH)
                              for l in range(m)] for i in range(m)])
        corr = build_correlation(g)
        assert np.array_equal(whole(corr), expected)
        chosen = np.random.default_rng(m).permutation(m)[:max(1, 2 * m // 3)]
        assert np.array_equal(correlation_block(corr, chosen), expected[np.ix_(chosen, chosen)])
        # an index of M would wrap into a row past the grid
        for outside in ([m], [-1]):
            with pytest.raises(DomainError, match="element indices"):
                correlation_block(corr, outside)

    def test_dense_pool_spot_check(self):
        # the 40 x 40, 3-wavelength pool: the corners and seeded random
        # entries, bit for bit, against J0 of the scalar pairwise distance.
        # The seed's draw includes (1368, 392), one of the 10 offsets of this
        # grid where np.hypot is 1 ulp off the correctly rounded distance.
        wavelength = ExperimentConfig.wavelength
        g = SurfaceGeometry(40, 40, 3.0, 3.0, wavelength)
        m = g.n_elements
        matrix = whole(build_correlation(g))
        rng = np.random.default_rng(40)
        pairs = [(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1), (39, m - 40), (m - 40, 39)]
        pairs += [tuple(p) for p in rng.integers(0, m, size=(3000, 2)).tolist()]
        assert (1368, 392) in pairs
        for i, l in pairs:
            assert matrix[i, l] == bessel_j0(
                2.0 * math.pi * element_distance(i, l, g) / wavelength), (i, l)

    def test_half_wavelength_neighbors(self):
        # spacing exactly half a wavelength: neighbor correlation is J0(pi)
        g = square_geometry(4, 2.0)
        corr = build_correlation(g)
        expected = bessel_j0_series(math.pi)
        assert correlation_block(corr, [0, 1])[0, 1] == pytest.approx(expected, abs=1e-13)

    def test_single_element(self):
        g = SurfaceGeometry(1, 1, 0.5, 0.5, 0.1)
        corr = build_correlation(g)
        assert corr.n_elements == 1
        assert np.array_equal(correlation_block(corr, [0]), np.array([[1.0]]))
        assert np.array_equal(corr.factor, np.array([[1.0]]))
        assert corr.rank == 1

    def test_factor_reconstructs(self):
        corr = build_correlation(square_geometry(6, 1.2))
        m = corr.n_elements
        residual = np.linalg.norm(corr.factor @ corr.factor.T - whole(corr))
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
        eigvals = np.linalg.eigvalsh(whole(corr))
        assert np.sum(np.abs(eigvals[:m - corr.rank])) <= 1e-9 * m

    def test_clamped_mass_small(self):
        corr = build_correlation(square_geometry(8, 1.0))
        assert corr.clamped_mass <= 1e-6 * corr.n_elements

    def test_clamped_mass_is_positive_zero_without_negative_eigenvalues(self):
        # a 4x4 grid over 3 wavelengths has no negative eigenvalue
        corr = build_correlation(square_geometry(4, 3.0))
        assert np.linalg.eigvalsh(whole(corr)).min() > 0.0
        assert corr.clamped_mass == 0.0 and math.copysign(1.0, corr.clamped_mass) == 1.0


class TestParityBlocks:
    """The eigen-factor against one eigendecomposition of the whole J.

    The class keeps the name of the reflection-parity build these checks were
    first written for, so their test ids carry over to the plane-wave build.
    """

    @pytest.mark.parametrize("m_x, m_z, width_x, width_z", [
        (6, 6, 3.0, 3.0), (7, 7, 2.0, 2.0), (8, 8, 1.0, 1.0),  # even, odd, dense
        (7, 9, 3.0, 3.0), (8, 5, 2.5, 1.5), (5, 8, 1.5, 2.5),  # rectangular
        (1, 5, 3.0, 3.0), (6, 1, 1.0, 2.0), (1, 1, 0.5, 0.5),  # 1 x n, 1 x 1
        (10, 10, 5.0, 5.0), (40, 40, 3.0, 3.0),  # the baseline and the densest pool
    ])
    def test_matches_full_eigendecomposition(self, m_x, m_z, width_x, width_z):
        wavelength = ExperimentConfig.wavelength
        check_against_full_eigh(SurfaceGeometry(m_x, m_z, width_x, width_z, wavelength))

    def test_matches_full_eigendecomposition_on_small_grids(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        widths = st.floats(0.2, 4.0)

        @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
        @hypothesis.given(st.integers(1, 9), st.integers(1, 9), widths, widths)
        def check(m_x, m_z, width_x, width_z):
            check_against_full_eigh(SurfaceGeometry(m_x, m_z, width_x, width_z, WAVELENGTH))

        check()


class TestPlaneWaveFactor:
    @pytest.mark.parametrize("side, aperture, size", [
        (40, 3.0, 66),  # the densest pool: the 66 x 66 Gram of 33 plane waves
        (1, 0.5, 1), (6, 3.0, 36),  # 2n would reach M: J itself
    ], ids=["40x40-gram", "1x1-matrix", "6x6-matrix"])
    def test_one_eigh_per_build(self, side, aperture, size, monkeypatch):
        # structural, not timed: one decomposition, of the Gram or of J
        calls = record_eigh(monkeypatch)
        corr = build_correlation(square_geometry(side, aperture, ExperimentConfig.wavelength))
        assert [a.shape for a in calls] == [(size, size)]
        if size == corr.n_elements:
            assert np.array_equal(calls[0], whole(corr))

    def test_angle_search_is_bounded_by_the_grid(self, monkeypatch):
        # a 2x2 pool over 2000 wavelengths (widest J0 argument 8886) would
        # need thousands of plane waves: the search gives up before 2n
        # reaches M, and J is decomposed.  Unbounded, the search never ends
        # here: the bound overflows to inf.
        counted, count = [], surface._angle_count

        def recording(kd, m):
            counted.append(count(kd, m))
            return counted[-1]

        monkeypatch.setattr(surface, "_angle_count", recording)
        calls = record_eigh(monkeypatch)
        corr = build_correlation(square_geometry(2, 2000.0))
        assert counted == [None]
        assert [a.shape for a in calls] == [(4, 4)]
        assert np.array_equal(calls[0], whole(corr))

    def test_factor_bytes_do_not_depend_on_blas_threads(self):
        script = ("import hashlib, sys; from frisec.surface import SurfaceGeometry, "
                  "build_correlation\n"
                  "for side in (30, 40):\n"
                  "    g = SurfaceGeometry(side, side, 3.0, 3.0, float(sys.argv[1]))\n"
                  "    print(hashlib.sha256(build_correlation(g).factor.tobytes()).hexdigest())")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script,
                                   repr(ExperimentConfig.wavelength)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]

    def test_gain_bytes_do_not_depend_on_blas_threads_or_workers(self):
        # greedy at 100 ON on the 20x20 pool and on the all-ON 10x10 pool of a
        # 5x5-wavelength aperture, two blocks each, with 1 and 2 workers
        script = ("import hashlib, sys; from frisec.channel import ChannelStream\n"
                  "from frisec.harness import simulate_gains\n"
                  "from frisec.surface import SurfaceGeometry, build_correlation\n"
                  "for side, width in ((20, 3.0), (10, 5.0)):\n"
                  "    g = SurfaceGeometry(side, side, width, width, float(sys.argv[1]))\n"
                  "    corr, stream = build_correlation(g), ChannelStream(1, 0)\n"
                  "    for workers in (1, 2):\n"
                  "        s = simulate_gains(corr, 'greedy', 100, 2048, stream, workers)\n"
                  "        print(hashlib.sha256(s.g_bob.tobytes() + s.g_eve.tobytes()"
                  " + s.var_eve.tobytes()).hexdigest())")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script,
                                   repr(ExperimentConfig.wavelength)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1]
        selective, all_on = digests[0][:2], digests[0][2:]
        assert selective[0] == selective[1] and all_on[0] == all_on[1]

    @pytest.mark.parametrize("side, aperture, size", [(4, 2.0, 16), (20, 3.0, 66)],
                             ids=["matrix", "gram"])
    def test_eigh_failure_is_domain_error(self, side, aperture, size, monkeypatch):
        shapes = []

        def fail(a, *args, **kwargs):
            shapes.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(DomainError, match="eigendecomposition failed"):
            build_correlation(square_geometry(side, aperture))
        assert shapes == [(size, size)]  # J on the 4x4 grid, the Gram on the 20x20 pool
