"""Surface geometry, spatial correlation, and correlation traces.

Elements sit on a uniform rectangular grid indexed row-major (0-based): index
i maps to column i mod M_x and row floor(i / M_x).  Correlation between two
elements follows the isotropic rich-scattering model J0(2 pi d / lambda),
which is a positive-definite function of the planar separation d, so the
matrix is PSD up to rounding noise.  On the grid, d depends only on the
absolute row and column offsets, so J is block-Toeplitz with Toeplitz
blocks: J0 is evaluated on the M_z x M_x table of offsets and the matrix
indexes that table, with no M x M distance array.

J also commutes with both grid reflections, column c -> M_x - 1 - c and row
z -> M_z - 1 - z.  In the basis of even and odd combinations of mirrored
elements along each axis it is block-diagonal, with four parity blocks of
about M/4 rows each, and each block is eigendecomposed on its own (about a
sixteenth of the work of one M x M decomposition).  Eigenvalues below a
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
    absolute (row, column) offsets, whose distances are correctly rounded
    (`math.hypot`), and broadcast into the matrix.  The factor comes from
    the symmetric eigendecompositions of the four parity blocks of J (see
    `_parity_blocks`).  The eigenvalues of all four are floored together:
    those below EIGEN_CLAMP times the largest are treated as rounding noise
    and dropped.  Only the kept eigenvectors are mapped back to element
    space, and the kept pairs are merged largest first, ties in block order.
    """
    m = geometry.n_elements
    rows = np.arange(geometry.m_z)
    cols = np.arange(geometry.m_x)
    dist = np.array([[math.hypot(geometry.spacing_x * c, geometry.spacing_z * z)
                      for c in range(geometry.m_x)] for z in range(geometry.m_z)])
    args = 2.0 * math.pi * dist / geometry.wavelength
    flat, inverse = np.unique(args, return_inverse=True)
    j0_vals = np.array([bessel_j0(a) for a in flat])
    table = j0_vals[inverse].reshape(args.shape)
    row_offset = np.abs(rows[:, None] - rows[None, :])
    col_offset = np.abs(cols[:, None] - cols[None, :])
    corr = table[row_offset[:, None, :, None], col_offset[None, :, None, :]].reshape(m, m)

    blocks = []
    for block, images, scale in _parity_blocks(corr, geometry.m_z, geometry.m_x):
        try:
            lam, vecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"eigendecomposition failed: {exc}") from exc
        blocks.append((lam, vecs, images, scale))
    eigvals = np.concatenate([b[0] for b in blocks])
    floor = EIGEN_CLAMP * float(eigvals.max())
    clamped_mass = float(np.abs(eigvals[eigvals < 0.0]).sum())  # +0.0 when none
    columns = []
    for lam, vecs, images, scale in blocks:
        keep = lam >= floor
        kept = vecs[:, keep] * scale[:, None] * np.sqrt(lam[keep])
        mapped = np.zeros((m, kept.shape[1]))
        for image, sign in images:
            mapped[image] = sign * kept
        columns.append(mapped)
    kept_vals = eigvals[eigvals >= floor]
    order = np.argsort(-kept_vals, kind="stable")
    eigen_floor = float(kept_vals[order[-1]]) if order.size else 0.0
    factor = np.ascontiguousarray(np.hstack(columns)[:, order])
    return CorrelationMatrix(matrix=corr, factor=factor, eigen_floor=eigen_floor,
                             clamped_mass=clamped_mass)


def _parity_blocks(corr: np.ndarray, m_z: int, m_x: int):
    """Yield the reflection-parity blocks of J as (block, images, scale).

    Element (z, c) of the quarter z < ceil(m_z / 2), c < ceil(m_x / 2) stands
    for its orbit under the two reflections, of k = 1, 2 or 4 distinct
    elements.  For a parity (s_z, s_x) in {+1, -1}^2 its basis vector puts
    s_z^a s_x^b / sqrt(k) on each orbit element, where a and b say whether
    that element's row and column are mirrored; an odd parity skips the
    middle row or column of an odd side, where that vector vanishes.  The
    block entry (q, q') is sqrt(k k') / 4 times the sum over the reflections
    rho of s(rho) J[q, rho q']: J's quarter plus its three reflected
    quarters, gathered by index.  `images` lists each reflection's flat
    element indices with its sign, and `scale` is 1 / sqrt(k), so an
    eigenvector y of the block is the element-space vector whose entries
    at `image` are sign * scale * y.  The odd parity of a side of length 1
    has no rows, and its blocks are empty.
    """
    for sign_z, n_z in ((1.0, (m_z + 1) // 2), (-1.0, m_z // 2)):
        for sign_x, n_x in ((1.0, (m_x + 1) // 2), (-1.0, m_x // 2)):
            z, c = np.arange(n_z)[:, None], np.arange(n_x)[None, :]
            images = [((z_img * m_x + c_img).ravel(), s_row * s_col)
                      for z_img, s_row in ((z, 1.0), (m_z - 1 - z, sign_z))
                      for c_img, s_col in ((c, 1.0), (m_x - 1 - c, sign_x))]
            quarter = images[0][0]
            block = sum(sign * corr[np.ix_(quarter, image)] for image, sign in images)
            # integer k keeps sqrt(k k) / 4 exact, so a 1 x 1 grid's block is [[1.0]]
            orbit = ((1 + (2 * z != m_z - 1)) * (1 + (2 * c != m_x - 1))).ravel()
            yield block * (np.sqrt(np.outer(orbit, orbit)) / 4.0), images, 1.0 / np.sqrt(orbit)


def trace_power(a: np.ndarray, p: int) -> float:
    """Trace of A^2 or A^4 for symmetric A, via Frobenius norms."""
    a = np.asarray(a, dtype=float)
    if p == 2:
        return float(np.sum(a * a))
    if p == 4:
        a2 = a @ a
        return float(np.sum(a2 * a2))
    raise DomainError(f"exponent must be 2 or 4, got {p}")
