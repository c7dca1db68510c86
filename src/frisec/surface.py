"""Surface geometry and spatial correlation.

Elements sit on a uniform rectangular grid indexed row-major (0-based): index
i maps to column i mod M_x and row floor(i / M_x).  Correlation between two
elements follows the isotropic rich-scattering model J0(2 pi d / lambda),
which is a positive-definite function of the planar separation d, so the
matrix J is PSD up to rounding noise.  On the grid, d depends only on the
absolute row and column offsets, so J is block-Toeplitz with Toeplitz
blocks: J0 is evaluated on the M_z x M_x table of offsets, and J is kept as
that table, from which `CorrelationMatrix.block` gathers any block of J.
A grid whose widest J0 argument exceeds `specfun.J0_MAX_ARG` is rejected.

The factor that colors r i.i.d. normals into the correlated field
(Karhunen-Loeve) is U_r Lambda_r^{1/2}, the eigenpairs of J above a relative
floor.  By Bessel's integral, J0(k d) is the mean over directions u of
cos(k u . (p_i - p_l)), so n plane waves at the angles pi j / n give
J = G G^T to rounding, with G the M x 2n matrix of their cosines and sines
(the trapezoidal rule on a periodic integrand converges exponentially:
Trefethen & Weideman, SIAM Review 2014).  When 2n < M the eigenpairs come
from the 2n x 2n Gram G^T G, otherwise from J itself: one symmetric
eigendecomposition of min(2n, M) rows either way.
The rank r is set by the aperture area rather than by M, so a dense pool
needs far fewer normals than elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import one_blas_thread
from .errors import DomainError
from .specfun import J0_MAX_ARG, bessel_j0

#: eigenvalues below this fraction of the largest are treated as rounding noise
EIGEN_CLAMP = 1e-12


@dataclass(frozen=True)
class SurfaceGeometry:
    """Element grid counts and aperture extents (in carrier wavelengths)."""

    m_x: int
    m_z: int
    width_x: float  # aperture along rows, multiples of the wavelength
    width_z: float  # aperture along columns, multiples of the wavelength
    wavelength: float  # meters

    def __post_init__(self):
        if self.m_x < 1 or self.m_z < 1:
            raise DomainError("element counts must be >= 1")
        if not (self.width_x > 0 and self.width_z > 0):
            raise DomainError("aperture extents must be > 0")
        if not 0 < self.wavelength < math.inf:
            raise DomainError("wavelength must be finite and > 0")
        try:
            widest = 2.0 * math.pi * math.hypot(self.spacing_x * (self.m_x - 1),
                                                self.spacing_z * (self.m_z - 1)) / self.wavelength
        except OverflowError:  # a count past the float range
            raise DomainError(f"element counts {self.m_x} x {self.m_z} overflow "
                              "the element spacing") from None
        if not widest <= J0_MAX_ARG:  # an infinite spacing gives inf or nan here
            raise DomainError(f"aperture extents {self.width_x!r} x {self.width_z!r} "
                              f"wavelengths give a widest J0 argument of {widest:.6g}, "
                              f"past the cap J0_MAX_ARG = {J0_MAX_ARG:g}")

    @property
    def n_elements(self) -> int:
        return self.m_x * self.m_z

    @property
    def spacing_x(self) -> float:
        """Physical inter-element spacing along a row, meters."""
        return self.width_x * self.wavelength / self.m_x

    @property
    def spacing_z(self) -> float:
        """Physical inter-element spacing along a column, meters."""
        return self.width_z * self.wavelength / self.m_z


@dataclass(frozen=True)
class CorrelationMatrix:
    """Spatial correlation J, kept as its offset table, with its eigen-factor.

    `table[dz, dx]` is J0 at row and column offsets (dz, dx); `block` gathers J from it.
    `factor` is the C-contiguous M x r matrix U_r Lambda_r^{1/2} of the kept
    eigenpairs, largest first, so `factor @ factor.T` is the matrix with the
    dropped eigenvalues set to zero.  `clamped_mass` records the total
    magnitude of the negative eigenvalues of the decomposed matrix (a
    numerical-rank diagnostic): of J when J is decomposed, and of the
    plane-wave Gram otherwise, which is PSD by construction, so there it
    measures only the rounding of the decomposition.  `eigen_floor` is the
    smallest eigenvalue kept.
    """

    table: np.ndarray
    factor: np.ndarray
    eigen_floor: float
    clamped_mass: float

    @property
    def n_elements(self) -> int:
        return self.table.size

    @property
    def rank(self) -> int:
        """Number of kept eigenpairs: the normals one link draws per trial."""
        return self.factor.shape[1]

    def block(self, indices) -> np.ndarray:
        """J[i, l] for i and l in `indices`; an index off [0, M) raises DomainError."""
        return _gather(self.table, indices, indices)


def _gather(table: np.ndarray, rows, cols) -> np.ndarray:
    """J[i, l] for i in `rows` and l in `cols`, from the offset table `table`.

    An index off [0, M) raises DomainError: it lies in a row off the grid,
    where the gather would read a plausible but wrong entry.
    """
    m_z, m_x = table.shape
    (zr, cr), (zc, cc) = np.divmod(rows, m_x), np.divmod(cols, m_x)
    if any(np.any((z < 0) | (z >= m_z)) for z in (zr, zc)):
        raise DomainError(f"element indices must lie in [0, {table.size})")
    return table[np.abs(zr[:, None] - zc), np.abs(cr[:, None] - cc)]


@one_blas_thread()
def build_correlation(geometry: SurfaceGeometry) -> CorrelationMatrix:
    """Correlation matrix J[i,l] = J0(2 pi d_il / lambda) and its eigen-factor.

    `bessel_j0`, the same Bessel integral as the plane waves below, is called
    once on the distinct values of the m_z x m_x table of absolute (row,
    column) offsets, whose distances are correctly rounded (`math.hypot`);
    J is gathered from the table only when it is decomposed.
    The factor comes from one symmetric eigendecomposition: of the Gram G^T G
    of n plane waves G (see the module docstring) when `_angle_count` finds n
    with 2n < M, the factor then being G times the kept eigenvectors, and of
    J otherwise, the kept eigenvectors times the roots of their eigenvalues.
    Eigenvalues below EIGEN_CLAMP times the largest are dropped, and the kept
    pairs are ordered largest first.  The products and the decomposition run
    on the calling thread: `eigh` of more than 25 rows calls a matrix product,
    after which a multithreaded OpenBLAS would spin its idle threads.
    """
    m = geometry.n_elements
    dist = np.array([[math.hypot(geometry.spacing_x * c, geometry.spacing_z * z)
                      for c in range(geometry.m_x)] for z in range(geometry.m_z)])
    args = 2.0 * math.pi * dist / geometry.wavelength
    flat, inverse = np.unique(args, return_inverse=True)
    table = bessel_j0(flat)[inverse].reshape(args.shape)

    n = _angle_count(float(flat[-1]), m)
    if n is None:  # J itself
        decomposed = _gather(table, np.arange(m), np.arange(m))
    else:
        theta = math.pi * np.arange(n) / n
        k = 2.0 * math.pi / geometry.wavelength
        x = np.tile(k * geometry.spacing_x * np.arange(geometry.m_x), geometry.m_z)
        z = np.repeat(k * geometry.spacing_z * np.arange(geometry.m_z), geometry.m_x)
        phase = np.outer(x, np.cos(theta)) + np.outer(z, np.sin(theta))
        waves = np.hstack([np.cos(phase), np.sin(phase)]) / math.sqrt(n)
        decomposed = waves.T @ waves
    try:
        eigvals, eigvecs = np.linalg.eigh(decomposed)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    keep = np.flatnonzero(eigvals >= EIGEN_CLAMP * eigvals[-1])[::-1]
    if n is None:
        factor = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    else:
        factor = waves @ eigvecs[:, keep]
    return CorrelationMatrix(table=table, factor=np.ascontiguousarray(factor),
                             eigen_floor=float(eigvals[keep[-1]]),
                             clamped_mass=float(np.abs(eigvals[eigvals < 0.0]).sum()))


def _angle_count(kd: float, m: int) -> int | None:
    """Smallest plane-wave count n with 2n < m that meets J to rounding, or None.

    The n-angle trapezoidal sum of Bessel's integral differs from J0(x) by
    about 2 |J_2n(x)|, and |J_2n(x)| <= (x/2)^2n / (2n)!, which grows with x,
    so at the widest J0 argument `kd` it bounds every entry.  n is the first
    count at which 2 m times that bound is below the double epsilon, so the
    sum's error matrix is smaller in norm than J's own rounding.  The search
    stops before 2n reaches m, after at most m / 2 steps whatever the aperture.
    """
    quarter = (kd / 2.0) * (kd / 2.0)  # inf for the widest apertures; never raises
    bound = 1.0
    for n in range(1, (m + 1) // 2):
        bound *= quarter / ((2 * n - 1) * (2 * n))
        if 2 * m * bound <= np.finfo(float).eps:
            return n
    return None
