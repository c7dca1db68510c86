"""Independent numerical oracles used only by the test suite.

These deliberately avoid the algorithms used by the library code they check:
the Bessel oracle integrates the defining cosine integral, the incomplete
gamma oracle integrates the complementary tail, the Meijer G oracle
integrates the Mellin-Barnes contour, the capacity oracle nests an inner
integral over the legitimate SNR inside an outer one over the
eavesdropper's, the distance helpers place one pair of elements at a time,
the selection oracle enumerates subsets, the full-root sampler colors M
normals per link with the symmetric square root instead of r normals with
the eigen-factor, the fixed-policy kernel forms both equivalent channels
from three colored links instead of drawing each receiver from its law given
the feed, and the eigen-factor reference decomposes the whole correlation
matrix at once instead of its four reflection-parity blocks.
"""

import math
from itertools import combinations

import numpy as np

from frisec.errors import ConvergenceError, DomainError
from frisec.harness import _adaptive_block, _fixed_selection
from frisec.specfun import QuadratureSpec, _require_finite, integrate_semi_infinite
from frisec.surface import EIGEN_CLAMP


def bessel_j0_integral(x: float, nodes: int | None = None) -> float:
    """J0 via its cosine integral representation (midpoint rule, spectral)."""
    x = abs(float(x))
    n = nodes or max(64, int(1.5 * x) + 40)
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return float(np.mean(np.cos(x * np.sin(theta))))


def bessel_j0_series(x: float, terms: int = 200) -> float:
    """Ascending-series oracle, accurate for small |x| only."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for n in range(1, terms):
        term *= q / (n * n)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def reg_gamma_tail_quadrature(k: float, x: float) -> float:
    """P(k, x) = 1 - integral of the Gamma density over (x, inf), by panelled
    Gauss-Legendre on the tail; independent of series/continued-fraction
    evaluations."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0
    lo, width = 0.0, 1.0
    for _ in range(200):  # panels [0,1], [1,2], [2,4], ... on s = t - x
        s = lo + 0.5 * width * (nodes + 1.0)
        t = x + s
        vals = np.exp((k - 1.0) * np.log(t) - t)
        piece = 0.5 * width * float(np.dot(weights, vals))
        total += piece
        if piece < 1e-18 * max(total, 1e-300) and lo > k + x:
            break
        lo += width
        width *= 2.0
    return 1.0 - total / math.gamma(k)


def reg_lower_inc_gamma_loop(k: float, x: float) -> float:
    """The scalar loop the library's elementwise P(k, x) replaced: the same
    series / continued-fraction split and per-element stopping rules, with
    math.log and math.exp in place of their numpy counterparts."""
    k, x = float(k), float(x)
    if x == 0.0:
        return 0.0
    log_front = k * math.log(x) - x - math.lgamma(k)
    front = math.exp(log_front) if log_front > -745.0 else 0.0
    if x < k + 1.0:
        ap, total = k, 1.0 / k
        term = total
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                return min(1.0, front * total)
        raise ConvergenceError("series did not converge")
    tiny = 1e-300
    b, c = x + 1.0 - k, 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return max(0.0, 1.0 - front * h)
    raise ConvergenceError("continued fraction did not converge")


def index_to_coords(i: int, geometry) -> tuple[int, int]:
    """Map a flat element index to (column, row) on the row-major grid."""
    i = int(i)
    if not 0 <= i < geometry.n_elements:
        raise IndexError(f"element index {i} out of range [0, {geometry.n_elements})")
    return i % geometry.m_x, i // geometry.m_x


def element_distance(i: int, l: int, geometry) -> float:
    """Euclidean distance in meters between two grid elements.

    Both coordinate differences enter squared; the distance is the true
    planar separation regardless of indexing direction.
    """
    ix_i, iz_i = index_to_coords(i, geometry)
    ix_l, iz_l = index_to_coords(l, geometry)
    dx = geometry.spacing_x * (ix_i - ix_l)
    dz = geometry.spacing_z * (iz_i - iz_l)
    return math.hypot(dx, dz)


def full_eigh_factor(matrix: np.ndarray) -> tuple:
    """(eigenvalues, factor, eigen_floor, clamped_mass) from one symmetric
    eigendecomposition of the whole M x M matrix.

    The eigenvalues are all M, ascending.  The factor keeps the eigenpairs at
    or above EIGEN_CLAMP times the largest, largest first, each column an
    eigenvector times the root of its eigenvalue; `eigen_floor` is the
    smallest kept eigenvalue and `clamped_mass` the magnitude of the
    negative ones.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    keep = np.flatnonzero(eigvals >= EIGEN_CLAMP * eigvals[-1])[::-1]
    factor = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    return eigvals, factor, float(eigvals[keep[-1]]), float(np.abs(eigvals[eigvals < 0.0]).sum())


def asc_oracle_nested(fit_b, fit_e, budget) -> float:
    """Average secrecy capacity of the fitted laws by iterated quadrature.

    Outer integral over the eavesdropper SNR, inner over the excess of the
    legitimate SNR above it (the positive-part clamp makes the inner domain
    start at the eavesdropper's draw).  The library's `asc_oracle` takes the
    same expectation as one integral of F_Y (1 - F_X) g'; this form never
    uses that identity, so it is an independent reference for it.

    The outer abscissae are in units of the smaller of the two mean SNRs.
    In units of the eavesdropper's mean, a legitimate mean SNR smaller by a
    factor r confines the integrand to a layer of width about r at 0, which
    the quadrature misses for r below about 1e-3 (it returned 0).
    """
    quad = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-8, max_subdivisions=800)
    inner_quad = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-7, max_subdivisions=800)
    scale_b = budget.snr_scale("bob") * fit_b.scale  # Gamma scale of bob's SNR
    mean_e = budget.snr_scale("eve") * fit_e.mean    # mean of eve's SNR
    if scale_b == 0.0:
        return 0.0
    shape = fit_b.shape
    lgam = math.lgamma(shape)
    unit = min(mean_e, shape * scale_b)
    rate = unit / mean_e  # eve's SNR density in units of `unit`, rate * e^(-rate t)

    def outer(t: np.ndarray) -> np.ndarray:
        # t is eve's SNR in units of `unit`; the inner integrals for all its
        # abscissae y share one mesh, one column per y
        y = unit * t

        def inner(w: np.ndarray) -> np.ndarray:
            # excess of bob's SNR above y, in units of the Gamma scale, so the
            # abscissae match the density's own spread regardless of magnitudes
            w = w[:, None]
            x = y + scale_b * w
            log_pdf = ((shape - 1.0) * np.log(x / scale_b) - x / scale_b
                       - lgam)  # pdf times the scale from dx = scale_b dw
            return np.log1p(scale_b * w / (1.0 + y)) / math.log(2.0) * np.exp(log_pdf)

        return rate * np.exp(-rate * t) * integrate_semi_infinite(inner, inner_quad)

    return integrate_semi_infinite(outer, quad)


def trace_power_direct(a: np.ndarray, p: int) -> float:
    """Trace of a matrix power via explicit repeated multiplication."""
    a = np.asarray(a, dtype=float)
    out = np.eye(a.shape[0])
    for _ in range(p):
        out = out @ a
    return float(np.trace(out))


def select_exhaustive(u_bob: np.ndarray, v_feed: np.ndarray, m_on: int) -> tuple:
    """Brute-force subset search oracle for the selection policy.

    Enumerates every size-m_on subset of one trial's elements, co-phases each
    toward the legitimate receiver, and returns the index tuple with the
    largest aligned channel magnitude; ties resolve to the lexicographically
    smallest index set.  Refuses more than 1e6 subsets.
    """
    m = len(u_bob)
    if not 1 <= m_on <= m:
        raise DomainError(f"m_on must be in [1, {m}], got {m_on}")
    if math.comb(m, m_on) > 1_000_000:
        raise DomainError(f"C({m}, {m_on}) exceeds the enumeration budget")
    mags = np.abs(np.conj(u_bob) * v_feed)
    best = None
    best_val = -1.0
    for subset in combinations(range(m), m_on):
        val = float(mags[list(subset)].sum())
        if val > best_val + 1e-15 * max(1.0, abs(best_val)):
            best, best_val = subset, val
    return best


# ---------------------------------------------------------------------------
# Meijer G^{2,1}_{2,2}(z | -k, 0; 0, -1) by Mellin-Barnes contour integration
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# Lanczos approximation, g = 7, 9 coefficients (double-precision standard set).
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def _digamma(x: float) -> float:
    # Real digamma for x > 0: recurrence lift to x >= 8, then asymptotic series.
    r = 0.0
    while x < 8.0:
        r -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    return r + math.log(x) - 0.5 * inv - tail


def _log_sin_pi(w: np.ndarray) -> np.ndarray:
    # log(sin(pi w)) for complex arrays, stable for large |Im w|.  Branch is
    # irrelevant downstream because results are only ever exponentiated.
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    y = w.imag
    small = np.abs(y) <= 25.0
    out[small] = np.log(np.sin(np.pi * w[small]))
    big_pos = (~small) & (y > 0)
    big_neg = (~small) & (y < 0)
    out[big_pos] = -1j * np.pi * w[big_pos] + (np.log(0.5) + 1j * np.pi / 2.0)
    out[big_neg] = 1j * np.pi * w[big_neg] + (np.log(0.5) - 1j * np.pi / 2.0)
    return out


def _clgamma(w: np.ndarray) -> np.ndarray:
    """Principal-branch-agnostic complex log-gamma (Lanczos, g=7)."""
    w = np.asarray(w, dtype=complex)
    refl = w.real < 0.5
    ws = np.where(refl, 1.0 - w, w)
    zz = ws - 1.0
    s = np.full_like(ws, _LANCZOS_C[0])
    for i in range(1, 9):
        s = s + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    lg = _LN_SQRT_2PI + (zz + 0.5) * np.log(t) - t + np.log(s)
    if np.any(refl):
        lg = np.where(refl, math.log(math.pi) - _log_sin_pi(w) - lg, lg)
    return lg


def _saddle_abscissa(z: float, k: float) -> float:
    # Real saddle of log|integrand| inside the pole-separating strip
    # (-1-k, -1); the log-magnitude is strictly convex there, so bisection on
    # its derivative converges.  Passing the contour through the saddle keeps
    # the trapezoid sum cancellation-free even for extreme z and k.
    lnz = math.log(z)

    def slope(sigma: float) -> float:
        return -_digamma(-1.0 - sigma) + _digamma(1.0 + k + sigma) + lnz

    pad = 1e-6 * min(1.0, k)
    lo = -1.0 - k + pad
    hi = -1.0 - pad
    if slope(lo) >= 0.0:
        return lo
    if slope(hi) <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (1.0 + abs(lo)):
            break
    return 0.5 * (lo + hi)


def meijer_g_2122_oracle(z: float, k: float, contour_points: int = 4096) -> float:
    """Mellin-Barnes contour evaluation of the same Meijer G kernel.

    Integrates Gamma(-1-s) Gamma(1+k+s) z^s / (2 pi i) along a vertical line
    through the saddle point of the integrand magnitude, strictly between the
    right pole set {-1, 0, 1, ...} and the left pole set {-1-k, -2-k, ...}.
    Trapezoid in Im(s) over a symmetric range truncated where the integrand
    has decayed below 1e-20 of its peak; the achieved error is estimated by
    comparing against the half-resolution sum and the residual imaginary part.
    Relative error target 1e-8.
    """
    z = _require_finite("z", z)
    k = _require_finite("k", k)
    if z <= 0.0 or k <= 0.0:
        raise DomainError(f"need z > 0 and k > 0, got z={z}, k={k}")
    contour_points = int(contour_points)
    if contour_points < 1000:
        raise DomainError(f"contour_points must be >= 1000, got {contour_points}")

    lnz = math.log(z)
    c = _saddle_abscissa(z, k)

    def log_integrand(t: np.ndarray) -> np.ndarray:
        s = c + 1j * t
        return _clgamma(-1.0 - s) + _clgamma(1.0 + k + s) + s * lnz

    peak = float(log_integrand(np.array([0.0]))[0].real)
    # March outward until the integrand magnitude drops 20 decades below peak.
    half_width = max(2.0, math.sqrt(k))
    for _ in range(200):
        decay = float(log_integrand(np.array([half_width]))[0].real) - peak
        if decay < -46.0:
            break
        half_width *= 1.5
    t = np.linspace(-half_width, half_width, contour_points)
    h = t[1] - t[0]
    vals = np.exp(log_integrand(t) - peak)
    total = vals.sum()
    coarse = 2.0 * vals[::2].sum()
    real_part = float(total.real)
    if real_part <= 0.0:
        raise ConvergenceError(
            "contour sum lost positivity", estimate=0.0, error_bound=math.inf
        )
    rel_err = abs(total - coarse) / abs(real_part) + abs(total.imag) / abs(real_part)
    value = math.exp(peak + math.log(h / (2.0 * math.pi)) + math.log(real_part))
    if rel_err > 1e-8:
        raise ConvergenceError(
            f"contour accuracy not reached (relative error estimate {rel_err:.3e})",
            estimate=value,
            error_bound=rel_err * value,
        )
    return value


def fixed_block(images: np.ndarray, phase_factors: np.ndarray) -> tuple:
    """Both equivalent channels of a (trials, 3, elements) image block.

    The three-link reference kernel of a frozen selection: the elements are
    the columns of `images`, ordered (feed, bob, eve) along axis 1, each with
    its phase factor.
    """
    v, u_bob, u_eve = images[:, 0], images[:, 1], images[:, 2]
    return ((np.conj(u_bob) * phase_factors * v).sum(axis=1),
            (np.conj(u_eve) * phase_factors * v).sum(axis=1))


def full_root_gains(matrix: np.ndarray, policy: str, m_on: int, trials: int,
                    selection_seed: int, rng: np.random.Generator) -> tuple:
    """(g_bob, g_eve) of one policy under the full-root sampler.

    Each link draws M unit complex normals and is colored by the symmetric
    PSD root J^{1/2} (eigenvalues below 1e-12 of the largest set to zero),
    the generator the eigen-factor replaced.  The greedy kernel and the
    frozen fixed-policy selection are the library's; a fixed policy colors
    all three links and runs them through `fixed_block`.  The randomness
    comes from `rng`, not from a Philox stream.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    lam = np.where(eigvals < 1e-12 * eigvals.max(), 0.0, eigvals)
    root = (eigvecs * np.sqrt(lam)) @ eigvecs.T
    root = 0.5 * (root + root.T)
    m = matrix.shape[0]
    if policy == "greedy":
        rows, kernel = root, lambda images: _adaptive_block(images, m_on)
    else:
        indices, phases = _fixed_selection(m, m_on, policy, selection_seed)
        phase_factors = np.exp(1j * phases)[None, :]
        rows, kernel = root[indices], lambda images: fixed_block(images, phase_factors)
    g_bob, g_eve = [], []
    for start in range(0, trials, 1024):
        shape = (min(1024, trials - start), 3, m)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        h_bob, h_eve = kernel(h @ rows.T)
        g_bob.append(np.abs(h_bob) ** 2)
        g_eve.append(np.abs(h_eve) ** 2)
    return np.concatenate(g_bob), np.concatenate(g_eve)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
