"""Surface geometry, spatial correlation, and correlation traces.

Elements sit on a uniform rectangular grid indexed row-major (0-based): index
i maps to column i mod M_x and row floor(i / M_x).  Correlation between two
elements follows the isotropic rich-scattering model J0(2 pi d / lambda),
which is a positive-definite function of the planar separation d, so the
matrix is PSD up to rounding noise.  On the grid, d depends only on the
absolute row and column offsets, so J is block-Toeplitz with Toeplitz
blocks: J0 is evaluated on the M_z x M_x table of offsets and the matrix
indexes that table, with no M x M distance array.  Eigenvalues below a
relative floor are dropped, and the kept eigenpairs form the M x r factor
U_r Lambda_r^{1/2} that colors r i.i.d. normals into the correlated field
(Karhunen-Loeve).
The rank r is set by the aperture area rather than by M, so a dense pool
needs far fewer normals than elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import bessel_j0

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
        widest = 2.0 * math.pi * math.hypot(self.spacing_x * (self.m_x - 1),
                                            self.spacing_z * (self.m_z - 1)) / self.wavelength
        if not all(map(math.isfinite, (self.spacing_x, self.spacing_z, widest))):
            raise DomainError(f"aperture extents {self.width_x!r} x {self.width_z!r} "
                              "wavelengths overflow the element spacing or the J0 argument")

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
    """Spatial correlation matrix with its eigen-factor.

    `factor` is the C-contiguous M x r matrix U_r Lambda_r^{1/2} of the kept
    eigenpairs, largest first, so `factor @ factor.T` is the matrix with the
    dropped eigenvalues set to zero.  `clamped_mass` records the total
    magnitude of negative eigenvalues (a numerical-rank diagnostic),
    `eigen_floor` the smallest eigenvalue kept.
    """

    matrix: np.ndarray
    factor: np.ndarray
    eigen_floor: float
    clamped_mass: float

    @property
    def n_elements(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Number of kept eigenpairs: the normals one link draws per trial."""
        return self.factor.shape[1]


def build_correlation(geometry: SurfaceGeometry) -> CorrelationMatrix:
    """Correlation matrix J[i,l] = J0(2 pi d_il / lambda) and its eigen-factor.

    J0 is evaluated once per distinct value of the m_z x m_x table of
    absolute (row, column) offsets and broadcast into the matrix.  The factor
    comes from a symmetric eigendecomposition; eigenvalues below EIGEN_CLAMP
    times the largest are treated as rounding noise and dropped.
    """
    m = geometry.n_elements
    rows = np.arange(geometry.m_z)
    cols = np.arange(geometry.m_x)
    dist = np.hypot(geometry.spacing_x * cols[None, :], geometry.spacing_z * rows[:, None])
    args = 2.0 * math.pi * dist / geometry.wavelength
    flat, inverse = np.unique(args, return_inverse=True)
    j0_vals = np.array([bessel_j0(a) for a in flat])
    table = j0_vals[inverse].reshape(args.shape)
    row_offset = np.abs(rows[:, None] - rows[None, :])
    col_offset = np.abs(cols[:, None] - cols[None, :])
    corr = table[row_offset[:, None, :, None], col_offset[None, :, None, :]].reshape(m, m)

    try:
        eigvals, eigvecs = np.linalg.eigh(corr)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    floor = EIGEN_CLAMP * float(eigvals.max())
    clamped_mass = float(-eigvals[eigvals < 0.0].sum())
    keep = np.flatnonzero(eigvals >= floor)[::-1]  # eigh sorts ascending
    eigen_floor = float(eigvals[keep[-1]]) if keep.size else 0.0
    factor = np.ascontiguousarray(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
    return CorrelationMatrix(matrix=corr, factor=factor, eigen_floor=eigen_floor,
                             clamped_mass=clamped_mass)


def trace_power(a: np.ndarray, p: int) -> float:
    """Trace of A^2 or A^4 for symmetric A, via Frobenius norms."""
    a = np.asarray(a, dtype=float)
    if p == 2:
        return float(np.sum(a * a))
    if p == 4:
        a2 = a @ a
        return float(np.sum(a2 * a2))
    raise DomainError(f"exponent must be 2 or 4, got {p}")
