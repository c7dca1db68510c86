"""Surface geometry, spatial correlation, and reduced-correlation traces.

Elements sit on a uniform rectangular grid indexed row-major (0-based): index
i maps to column i mod M_x and row floor(i / M_x).  Correlation between two
elements follows the isotropic rich-scattering model J0(2 pi d / lambda),
which is a positive-definite function of the planar separation d, so the
matrix is PSD up to rounding noise.  Eigenvalues below a relative floor are
dropped, and the kept eigenpairs form the M x r factor U_r Lambda_r^{1/2}
that colors r i.i.d. normals into the correlated field (Karhunen-Loeve).
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


@dataclass(frozen=True)
class SelectionSet:
    """Ordered set of distinct active-element indices."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 1:
            raise DomainError("selection must contain at least one element")
        if len(set(idx)) != len(idx):
            raise DomainError("selection indices must be distinct")
        if min(idx) < 0:
            raise DomainError("selection indices must be >= 0")

    def __len__(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


def build_correlation(geometry: SurfaceGeometry,
                      eigen_clamp: float = EIGEN_CLAMP) -> CorrelationMatrix:
    """Correlation matrix J[i,l] = J0(2 pi d_il / lambda) and its eigen-factor.

    The factor comes from a symmetric eigendecomposition; eigenvalues below
    eigen_clamp times the largest are treated as rounding noise and dropped.
    """
    m = geometry.n_elements
    cols = np.arange(m) % geometry.m_x
    rows = np.arange(m) // geometry.m_x
    dx = geometry.spacing_x * (cols[:, None] - cols[None, :])
    dz = geometry.spacing_z * (rows[:, None] - rows[None, :])
    dist = np.hypot(dx, dz)
    args = 2.0 * math.pi * dist / geometry.wavelength
    flat, inverse = np.unique(args, return_inverse=True)
    j0_vals = np.array([bessel_j0(a) for a in flat])
    corr = j0_vals[inverse].reshape(m, m)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)

    try:
        eigvals, eigvecs = np.linalg.eigh(corr)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    floor = eigen_clamp * float(eigvals.max())
    clamped_mass = float(-eigvals[eigvals < 0.0].sum())
    keep = np.flatnonzero(eigvals >= floor)[::-1]  # eigh sorts ascending
    eigen_floor = float(eigvals[keep[-1]]) if keep.size else 0.0
    factor = np.ascontiguousarray(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
    return CorrelationMatrix(matrix=corr, factor=factor, eigen_floor=eigen_floor,
                             clamped_mass=clamped_mass)


def reduce_correlation(corr: CorrelationMatrix | np.ndarray, sel: SelectionSet) -> np.ndarray:
    """Principal submatrix of J on the selected indices."""
    matrix = corr.matrix if isinstance(corr, CorrelationMatrix) else np.asarray(corr, dtype=float)
    idx = sel.as_array()
    if idx.max() >= matrix.shape[0]:
        raise DomainError(f"selection index {idx.max()} out of range for a "
                          f"{matrix.shape[0]}-element surface")
    return matrix[np.ix_(idx, idx)].copy()


def trace_power(a: np.ndarray, p: int) -> float:
    """Trace of A^2 or A^4 for symmetric A, via Frobenius norms."""
    a = np.asarray(a, dtype=float)
    if p == 2:
        return float(np.sum(a * a))
    if p == 4:
        a2 = a @ a
        return float(np.sum(a2 * a2))
    raise DomainError(f"exponent must be 2 or 4, got {p}")
