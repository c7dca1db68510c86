"""Independent numerical oracles used only by the test suite.

These deliberately avoid the algorithms used by the library code they check,
with one exception: the Bessel oracle `bessel_j0_integral` takes the
midpoint rule of the cosine integral that the library's `bessel_j0` takes
the trapezoidal rule of, so it checks the node count rather than the method;
scipy's `j0` and mpmath are the independent references for J0.  The incomplete
gamma oracle integrates the complementary tail, the Meijer G kernel's
closed reduction is checked against its Mellin-Barnes contour, the capacity oracle nests an inner
integral over the legitimate SNR inside an outer one over the
eavesdropper's, the distance helpers place one pair of elements at a time,
the selection oracle enumerates subsets, the full-root sampler colors M
normals per link with the symmetric square root instead of r normals with
the eigen-factor, the fixed-policy kernel forms both equivalent channels
from three colored links instead of drawing each receiver from its law given
the feed, the plain engine draws and colors the eavesdropper's link and
counts outages, with a Wilson interval, and averages capacities over it
where the library integrates that link out of each trial, the eigen-factor
reference decomposes the whole correlation matrix instead of the Gram of
its plane-wave factor, the
whole-block engine colors and runs each Philox block through greedy's
kernel in one piece instead of in chunks, the complex greedy kernel selects
and co-phases complex images by complex `np.abs` instead of the real planes
of a real product, the block-matrix coloring
takes one real GEMM over interleaved (re, im) pairs instead of the complex
product, and the full KS distance evaluates the CDF at every sample instead
of bracketing the distance between every 64th.
"""

import math
from itertools import combinations

import numpy as np

from frisec.channel import TRIALS_PER_BLOCK, correlated_images_batch, one_blas_thread
from frisec.errors import ConvergenceError, DomainError
from frisec.harness import (_Z95, MetricEstimate, _fixed_selection, _greedy_block, _greedy_chunk,
                            _GreedyWorkspace)
from frisec.specfun import _require_finite, integrate_semi_infinite
from frisec.surface import EIGEN_CLAMP, _gather


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

        return rate * np.exp(-rate * t) * integrate_semi_infinite(
            inner, abs_tol=1e-14, rel_tol=1e-7, max_subdivisions=800)

    return integrate_semi_infinite(outer, abs_tol=1e-14, rel_tol=1e-8, max_subdivisions=800)


def correlation_block(corr, indices) -> np.ndarray:
    """J[i, l] for i and l in `indices`, gathered from the correlation's offset table.

    The library forms no block of J; the tests gather one to check the
    factor, the sampler and the fits against.  An index off [0, M) raises
    DomainError.
    """
    return _gather(corr.table, indices, indices)


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


def meijer_g_2122(z: float, k: float) -> float:
    """The Meijer G^{2,1}_{2,2} kernel with parameters (-k, 0; 0, -1).

    Evaluates the closed reduction Gamma(k) * z^(-1) * (1+z)^(-k), which
    `meijer_g_2122_oracle` confirms: the Gamma(-s) factors cancel between
    numerator and denominator of the contour integrand, leaving a beta-type
    integral.  Computed in log space so large shapes do not overflow early.
    The library evaluates only the normalized form z G / Gamma(k) =
    (1+z)^(-k), as `secrecy.sop_bound_from_ratio`.
    """
    z = _require_finite("z", z)
    k = _require_finite("k", k)
    if z <= 0.0:
        raise DomainError(f"z must be > 0, got {z}")
    if k <= 0.0:
        raise DomainError(f"k must be > 0, got {k}")
    log_val = math.lgamma(k) - math.log(z) - k * math.log1p(z)
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


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


def three_link_draws(seed: int, r: int, trials: int = TRIALS_PER_BLOCK) -> np.ndarray:
    """(trials, 3, r) unit complex normals of the (feed, bob, eve) links, from numpy's default
    generator: the layout of the plain engine, which colors all three links."""
    rng = np.random.default_rng(seed)
    shape = (trials, 3, r)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def engine_block(stream, m: int, block: int, power: bool = False) -> np.ndarray:
    """Philox block `block` of `stream` in the layout the engine draws it into.

    Greedy's (2, TRIALS_PER_BLOCK, m + 1) complex normals of the feed and the
    legitimate link, link-major, with the eavesdropper's normal in the
    feed's column m, and column m of the legitimate link unread; or, with
    `power`, a fixed policy's (TRIALS_PER_BLOCK, 1, m) unit exponentials.
    """
    shape = (TRIALS_PER_BLOCK, 1, m) if power else (2, TRIALS_PER_BLOCK, m + 1)
    return stream.draw_block(block, np.empty(shape, float if power else complex))


def adaptive_block(images: np.ndarray, m_on: int) -> tuple:
    """Both equivalent channels of greedy co-phasing on a (trials, 3, elements) image block.

    The plain greedy kernel: the m_on largest cascade magnitudes |u_bob| |v|
    by `argpartition`, gathered, co-phased toward the legitimate receiver,
    and the eavesdropper's channel summed from its own colored link.  The
    legitimate channel is real and nonnegative.
    """
    v, u_bob, u_eve = images[:, 0], images[:, 1], images[:, 2]
    casc = np.conj(u_bob) * v
    mags = np.abs(casc)
    m = mags.shape[1]
    if m_on < m:
        sel = np.sort(np.argpartition(-mags, m_on - 1, axis=1)[:, :m_on], axis=1)
        mags = np.take_along_axis(mags, sel, axis=1)
        casc = np.take_along_axis(casc, sel, axis=1)
        v = np.take_along_axis(v, sel, axis=1)
        u_eve = np.take_along_axis(u_eve, sel, axis=1)
    align = np.divide(np.conj(casc), mags, out=np.ones_like(casc), where=mags > 0)
    return mags.sum(axis=1), (np.conj(u_eve) * v * align).sum(axis=1)


def secrecy_capacity(snr_bob, snr_eve):
    """Nonnegative instantaneous secrecy rate in bits/s/Hz, elementwise."""
    if np.any(np.less(snr_bob, 0)) or np.any(np.less(snr_eve, 0)):
        raise DomainError("SNRs must be >= 0")
    return np.maximum(0.0, (np.log1p(snr_bob) - np.log1p(snr_eve)) / math.log(2.0))


def plain_gains(corr, policy: str, m_on: int, trials: int, seed: int) -> tuple:
    """(g_bob, g_eve) with the eavesdropper's link drawn and colored like the other two.

    The engine the conditional one replaced: each trial colors three links
    of r normals by the eigen-factor (by its selected rows for a fixed
    policy) and forms both equivalent channels, so |h_eve|^2 is one draw
    where the library keeps its conditional variance.
    """
    if policy == "greedy":
        rows, kernel = corr.factor, lambda images: adaptive_block(images, m_on)
    else:
        indices, phases = _fixed_selection(corr.n_elements, m_on, policy, seed)
        phase_factors = np.exp(1j * phases)[None, :]
        rows, kernel = corr.factor[indices], lambda images: fixed_block(images, phase_factors)
    draws = three_link_draws(seed, corr.rank, trials)
    g_bob, g_eve = [], []
    for start in range(0, trials, TRIALS_PER_BLOCK):  # the images of a block at a time
        h_bob, h_eve = kernel(correlated_images_batch(draws[start:start + TRIALS_PER_BLOCK],
                                                      rows))
        g_bob.append(np.abs(h_bob) ** 2)
        g_eve.append(np.abs(h_eve) ** 2)
    return np.concatenate(g_bob), np.concatenate(g_eve)


def wilson_estimate(successes: int, n: int) -> MetricEstimate:
    """A proportion of n trials with its Wilson 95% interval, robust for zero counts."""
    if n < 1:
        raise DomainError("need at least one trial")
    if not 0 <= successes <= n:
        raise DomainError(f"successes must lie in [0, {n}], got {successes}")
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    se = math.sqrt(p * (1.0 - p) / n)
    # rounding must never push the interval off the point estimate
    return MetricEstimate(point=p, std_error=se, ci_low=min(p, max(0.0, center - half)),
                          ci_high=max(p, min(1.0, center + half)))


def plain_estimates(g_bob, g_eve, budget, target) -> tuple:
    """(SOP, ASC) of drawn gains: the outage count with its Wilson interval and the
    mean secrecy capacity, the estimators the conditional terms replaced."""
    capacity = secrecy_capacity(budget.snr_scale("bob") * g_bob,
                                budget.snr_scale("eve") * g_eve)
    outages = int(np.count_nonzero(capacity <= target.rate_bits))
    return wilson_estimate(outages, capacity.size), MetricEstimate.for_mean(capacity)


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
        rows, kernel = root, lambda images: adaptive_block(images, m_on)
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


def block_matrix_images(draws: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`correlated_images_batch` as one real GEMM through a block matrix.

    The interleaved (re, im) pairs of the draws go through the (2r x 2E)
    real matrix in which each entry a + ib of `rows` is the 2 x 2 block
    [[a, b], [-b, a]], so its output already is the complex (trials, links,
    E) result; the library takes the complex product instead.
    """
    n, links, r = draws.shape
    e = rows.shape[0]
    pairs = np.ascontiguousarray(draws, dtype=np.complex128).reshape(n * links, r)
    block = np.zeros((2 * r, 2 * e))
    block[0::2, 0::2] = block[1::2, 1::2] = np.real(rows.T)
    block[0::2, 1::2] = np.imag(rows.T)
    block[1::2, 0::2] = -np.imag(rows.T)
    return (pairs.view(np.float64) @ block).view(np.complex128).reshape(n, links, e)


def real_planes(pairs: np.ndarray) -> np.ndarray:
    """The (4, n, k) real planes of a (2, n, k) complex pair of links: re, im, re, im."""
    return np.stack((pairs[0].real, pairs[0].imag, pairs[1].real, pairs[1].imag))


def greedy_kernel(images: np.ndarray, factor: np.ndarray, m_on: int) -> tuple:
    """The library's greedy kernel on (2, n, M) complex feed and legitimate images.

    Lays them out as the four real planes the kernel overwrites, in a
    workspace sized for their n trials; returns (g_bob, var_eve).
    """
    _, n, m = images.shape
    return _greedy_block(real_planes(images), factor, m_on,
                         _GreedyWorkspace(m, factor.shape[1], n))


def complex_greedy_block(images: np.ndarray, factor: np.ndarray, m_on: int) -> tuple:
    """Greedy's (g_bob, var_eve, ON mask) of (2, n, M) complex images, the kernel
    the engine ran on the complex product before it colored real planes.

    The m_on largest |v| |u_bob| are ON, a tie at the threshold keeping its
    lowest indices; the gain is the square of the masked sum of all M terms,
    from complex `np.abs`, and the variance ||F^T a||^2 of the co-phased
    feed image a = |v| u_bob / |u_bob| on the ON elements.
    """
    v, u_bob = images
    n, m = v.shape
    planes = np.empty((2, n, m))
    abs_v, weight = np.abs(v, out=planes[0]), planes[1]
    mags = np.abs(u_bob)
    np.divide(abs_v, mags, out=weight)
    mags *= abs_v
    on = np.ones((n, m), dtype=bool)
    if m_on < m:
        scratch = planes[0]
        np.copyto(scratch, mags)
        scratch.partition(m - m_on, axis=1)
        threshold = scratch[:, m - m_on, None].copy()
        on = mags >= threshold
        extra = np.count_nonzero(on, axis=1) - m_on
        if extra.any():
            rows = np.flatnonzero(extra)
            tied = mags[rows] == threshold[rows]
            from_end = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
            on[rows] &= ~(tied & (from_end <= extra[rows, None]))
        mags *= on
        weight *= on
    np.multiply(weight, u_bob.real, out=planes[0])
    weight *= u_bob.imag
    projected = planes.reshape(2 * n, m) @ factor
    return (mags.sum(axis=1) ** 2,
            np.einsum("ij,ij->i", projected, projected).reshape(2, n).sum(axis=0), on)


def whole_block_gains(corr, policy: str, m_on: int, trials: int, stream) -> tuple:
    """(g_bob, g_eve, var_eve) of any policy, each Philox block colored whole.

    One product colors all trials of a block and one kernel call selects
    them, or for a fixed policy one product of the block's feed exponentials
    by mu, the k = min(m_on, r) largest squared singular values of the r x r
    cascade F_S^T Phi F_S, gives every trial's conditional variance: the
    reference that the chunked greedy engine must match bit for bit.  It runs OpenBLAS on one thread, as the
    engine does: at two threads a real product can round differently.
    """
    with one_blas_thread():
        return _whole_block_gains(corr, policy, m_on, trials, stream)


def _whole_block_gains(corr, policy, m_on, trials, stream):
    r = corr.rank
    if policy == "greedy":
        work = _GreedyWorkspace(corr.n_elements, r, TRIALS_PER_BLOCK)

        def block_gains(block):
            return _greedy_chunk(engine_block(stream, r, block), corr.factor, m_on, work)
    else:
        indices, phases = _fixed_selection(corr.n_elements, m_on, policy, stream.seed)
        rows = corr.factor[indices]
        k = min(m_on, r)
        mu = np.linalg.svd((rows.T * np.exp(1j * phases)) @ rows, compute_uv=False)[:k] ** 2

        def block_gains(block):
            powers = engine_block(stream, k + 2, block, power=True)
            variance = correlated_images_batch(powers[:, :, :k], mu[None, :])[:, 0, 0]
            return variance * powers[:, 0, k], variance * powers[:, 0, k + 1], variance
    blocks = zip(*(block_gains(b) for b in range(-(-trials // TRIALS_PER_BLOCK))))
    return tuple(np.concatenate(samples)[:trials] for samples in blocks)


def ks_full(samples: np.ndarray, cdf) -> float:
    """One-sample KS distance from one call of `cdf` on every sorted sample.

    The largest of i/n - F(x_(i)) and F(x_(i)) - (i - 1)/n over i = 1 ... n:
    the reference that the bracketed `harness.ks_statistic` must equal bit
    for bit.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    theo = np.asarray(cdf(samples), dtype=float)
    return float(max(np.max(np.arange(1.0, n + 1.0) / n - theo),
                     np.max(theo - np.arange(0.0, n) / n)))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
