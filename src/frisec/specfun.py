"""Self-contained special-function kernel.

Everything here is pure double-precision Python/numpy, with no dependency on
scipy: Bessel J0, the regularized lower incomplete gamma function, the one
Meijer G-function this library needs (its Mellin-Barnes contour oracle lives
with the test suite), and adaptive quadrature on [0, inf).  All functions
are pure and reentrant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_EPS = 1e-15


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def _j0_series(x: float) -> float:
    # Ascending series in -(x/2)^2; cancellation stays below ~1e-13 for x <= 8.
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for n in range(1, 200):
        term *= q / (n * n)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _j0_miller(x: float) -> float:
    # Backward recurrence with the even-order normalization J0 + 2*sum J_2k = 1.
    start = int(x + 6.0 * x ** (1.0 / 3.0) + 24.0)
    if start % 2:
        start += 1
    b_next = 0.0
    b_cur = 1e-30
    norm = 0.0
    j0 = 0.0
    for n in range(start, 0, -1):
        b_prev = (2.0 * n / x) * b_cur - b_next
        b_next = b_cur
        b_cur = b_prev
        if n % 2 == 1:
            # b_cur now holds order n-1, an even order.
            if n - 1 == 0:
                j0 = b_cur
            else:
                norm += 2.0 * b_cur
        if abs(b_cur) > 1e250:
            b_cur *= 1e-250
            b_next *= 1e-250
            norm *= 1e-250
    return j0 / (norm + j0)


def _j0_asymptotic(x: float) -> float:
    # Hankel amplitude-phase expansion; truncation error ~ e^(-2x), fine for x >= 17.
    inv = 1.0 / x
    a = 1.0  # signed Hankel coefficient a_j, recurrence below
    xpow = 1.0
    p = 1.0
    q = 0.0
    for j in range(1, 40):
        m = 2.0 * j - 1.0
        a *= -(m * m) / (8.0 * j)
        xpow *= inv
        piece = a * xpow
        if abs(piece) < 1e-18:
            break
        if j % 2 == 0:
            p += piece if j % 4 == 0 else -piece
        else:
            q += piece if j % 4 == 1 else -piece
    s, c = math.sin(x), math.cos(x)
    # cos(x - pi/4), sin(x - pi/4) without forming the reduced argument.
    cosw = (c + s) / math.sqrt(2.0)
    sinw = (s - c) / math.sqrt(2.0)
    return math.sqrt(2.0 / (math.pi * x)) * (cosw * p - sinw * q)


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Evenness is honored exactly: the value is computed from |x|.  Absolute
    error stays below 1e-12 for |x| <= 1e4.
    """
    x = _require_finite("x", x)
    ax = abs(x)
    if ax <= 8.0:
        return _j0_series(ax)
    if ax < 17.0:
        return _j0_miller(ax)
    return _j0_asymptotic(ax)


# ---------------------------------------------------------------------------
# Regularized lower incomplete gamma
# ---------------------------------------------------------------------------

def reg_lower_inc_gamma(k: float, x: float) -> float:
    """Regularized lower incomplete gamma P(k, x), in [0, 1].

    Series expansion for x < k + 1, Lentz continued fraction for x >= k + 1
    (the classic convergence-region split); relative error <= 1e-12.
    """
    k = _require_finite("k", k)
    x = _require_finite("x", x)
    if k <= 0.0:
        raise DomainError(f"shape k must be > 0, got {k}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    log_front = k * math.log(x) - x - math.lgamma(k)
    if x < k + 1.0:
        ap = k
        total = 1.0 / k
        term = total
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                front = math.exp(log_front) if log_front > -745.0 else 0.0
                return min(1.0, front * total)
        raise ConvergenceError("incomplete gamma series did not converge")
    # Continued fraction for Q(k, x), then P = 1 - Q.
    tiny = 1e-300
    b = x + 1.0 - k
    c = 1.0 / tiny
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
        if abs(delta - 1.0) < _EPS:
            front = math.exp(log_front) if log_front > -745.0 else 0.0
            return max(0.0, 1.0 - front * h)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


# ---------------------------------------------------------------------------
# Meijer G^{2,1}_{2,2}(z | -k, 0; 0, -1)
# ---------------------------------------------------------------------------

def meijer_g_2122(z: float, k: float) -> float:
    """The Meijer G^{2,1}_{2,2} kernel with parameters (-k, 0; 0, -1).

    Evaluates the closed reduction Gamma(k) * z^(-1) * (1+z)^(-k), which a
    Mellin-Barnes contour oracle in the test suite confirms: the Gamma(-s) factors cancel between
    numerator and denominator of the contour integrand, leaving a beta-type
    integral.  Computed in log space so large shapes do not overflow early.
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


# ---------------------------------------------------------------------------
# Quadrature on [0, inf)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for integrating a decaying function over [0, inf).

    The integrator maps [0, inf) onto (0, 1] and subdivides globally with a
    15/7-point Gauss pair until the summed error estimate meets a tolerance.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@lru_cache(maxsize=8)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _gauss_pair(g: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    # 15-point estimate with a 7-point companion for the error estimate.
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x15, w15 = _gauss_rule(15)
    x7, w7 = _gauss_rule(7)
    f15 = g(mid + half * x15)
    f7 = g(mid + half * x7)
    i15 = half * float(np.dot(w15, f15))
    i7 = half * float(np.dot(w7, f7))
    return i15, abs(i15 - i7)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec | None = None) -> float:
    """Integrate f over [0, inf); f must decay at least exponentially.

    f is called with numpy arrays of abscissae and must return values
    elementwise.  Raises ConvergenceError (carrying the last estimate and the
    error bound) if the subdivision budget is exhausted first.
    """
    if spec is None:
        spec = QuadratureSpec()

    def g(u: np.ndarray) -> np.ndarray:
        x = (1.0 - u) / u
        return np.asarray(f(x), dtype=float) / (u * u)

    est, err = _gauss_pair(g, 0.0, 1.0)
    heap = [(-err, 0, 0.0, 1.0, est)]
    total, total_err = est, err
    counter = 1
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        neg_err, _, a, b, piece = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        left, left_err = _gauss_pair(g, a, mid)
        right, right_err = _gauss_pair(g, mid, b)
        total += left + right - piece
        total_err += left_err + right_err + neg_err  # neg_err is -old error
        heapq.heappush(heap, (-left_err, counter, a, mid, left))
        heapq.heappush(heap, (-right_err, counter + 1, mid, b, right))
        counter += 2
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total
    raise ConvergenceError(
        f"quadrature not converged after {spec.max_subdivisions} subdivisions",
        estimate=total,
        error_bound=total_err,
    )
