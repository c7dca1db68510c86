"""Self-contained special-function kernel.

Everything here is pure double-precision Python/numpy, with no dependency on
scipy: Bessel J0, the regularized lower incomplete gamma function (elementwise
over arrays), the Meijer G reduction that acceptance C2 checks against a
Mellin-Barnes contour oracle in the test suite, and adaptive quadrature on
[0, inf) of one or several integrands.  All functions are pure and reentrant.
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

def _inc_gamma_series(k: float, x: np.ndarray) -> np.ndarray:
    # Sum of x^n / (k (k+1) ... (k+n)) for 0 < x < k + 1; each element stops
    # at its own first term below _EPS of its running total.
    out = np.empty_like(x)
    todo = np.arange(x.size)
    total = np.full(x.shape, 1.0 / k)
    term = total.copy()
    ap = k
    for _ in range(10000):
        if todo.size == 0:
            return out
        ap += 1.0
        term *= x / ap
        total += term
        done = term < total * _EPS  # both positive
        if done.any():
            out[todo[done]] = total[done]
            keep = ~done
            todo, x, term, total = todo[keep], x[keep], term[keep], total[keep]
    raise ConvergenceError("incomplete gamma series did not converge")


def _inc_gamma_fraction(k: float, x: np.ndarray) -> np.ndarray:
    # Modified Lentz evaluation of the continued fraction for
    # Q(k, x) e^x x^-k Gamma(k), x >= k + 1, stopped per element.
    tiny = 1e-300
    out = np.empty_like(x)
    todo = np.arange(x.size)
    b = x + 1.0 - k
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 10000):
        if todo.size == 0:
            return out
        an = -i * (i - k)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[todo[done]] = h[done]
            keep = ~done
            todo, b, c, d, h = todo[keep], b[keep], c[keep], d[keep], h[keep]
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def reg_lower_inc_gamma(k: float, x):
    """Regularized lower incomplete gamma P(k, x), in [0, 1], elementwise in x.

    Series expansion for x < k + 1, Lentz continued fraction for x >= k + 1
    (the classic convergence-region split); relative error <= 1e-12.  Each
    element stops on its own convergence test.  A scalar or 0-d x gives a
    float, an array x an array of its shape.
    """
    k = _require_finite("k", k)
    if k <= 0.0:
        raise DomainError(f"shape k must be > 0, got {k}")
    x_in = np.asarray(x, dtype=float)
    xs = x_in.ravel()
    if not np.all(np.isfinite(xs)):
        raise DomainError("x must be finite")
    if np.any(xs < 0.0):
        raise DomainError(f"x must be >= 0, got {xs[xs < 0.0][0]}")

    def front(x: np.ndarray) -> np.ndarray:  # x^k e^-x / Gamma(k)
        log_front = k * np.log(x) - x - math.lgamma(k)
        return np.where(log_front > -745.0, np.exp(log_front), 0.0)

    out = np.zeros(xs.shape)
    low = (xs > 0.0) & (xs < k + 1.0)
    high = xs >= k + 1.0
    out[low] = np.minimum(1.0, front(xs[low]) * _inc_gamma_series(k, xs[low]))
    out[high] = np.maximum(0.0, 1.0 - front(xs[high]) * _inc_gamma_fraction(k, xs[high]))
    return float(out[0]) if x_in.ndim == 0 else out.reshape(x_in.shape)


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
    15/7-point Gauss pair until the summed error estimate of every integrand
    meets its tolerance.
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
    # 15-point estimate with a 7-point companion for the error estimate; g
    # gets all 22 abscissae in one call and returns one row per abscissa.
    x15, w15 = _gauss_rule(15)
    x7, w7 = _gauss_rule(7)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = g(mid + half * np.concatenate((x15, x7)))
    i15 = half * (w15 @ vals[:15])
    i7 = half * (w7 @ vals[15:])
    return i15, np.abs(i15 - i7)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray],
                            spec: QuadratureSpec | None = None) -> float | np.ndarray:
    """Integrate f over [0, inf); f must decay at least exponentially.

    f is called with a numpy array of p abscissae and returns either p values
    (one integrand) or a (p, n) array (n integrands, one per column).  All
    components share one adaptive mesh: the interval with the largest
    component error is split next, and the loop stops once every component
    meets max(abs_tol, rel_tol * |its total|).  Returns a float, or an array
    of the n integrals.  Raises ConvergenceError (carrying the last estimate
    and the error bound, arrays for n integrands) if the subdivision budget
    is exhausted first.
    """
    if spec is None:
        spec = QuadratureSpec()

    def g(u: np.ndarray) -> np.ndarray:
        x = (1.0 - u) / u
        return (np.asarray(f(x), dtype=float).T / (u * u)).T  # rows are abscissae

    def result(value):
        return float(value) if np.ndim(value) == 0 else value

    def converged() -> bool:
        return bool(np.all(total_err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))))

    est, err = _gauss_pair(g, 0.0, 1.0)
    heap = [(-np.max(err), 0, 0.0, 1.0, est, err)]
    total, total_err = est, err
    counter = 1
    for _ in range(spec.max_subdivisions):
        if converged():
            return result(total)
        _, _, a, b, piece, piece_err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        left, left_err = _gauss_pair(g, a, mid)
        right, right_err = _gauss_pair(g, mid, b)
        total = total + (left + right - piece)
        total_err = total_err + (left_err + right_err - piece_err)
        heapq.heappush(heap, (-np.max(left_err), counter, a, mid, left, left_err))
        heapq.heappush(heap, (-np.max(right_err), counter + 1, mid, b, right, right_err))
        counter += 2
    if converged():
        return result(total)
    raise ConvergenceError(
        f"quadrature not converged after {spec.max_subdivisions} subdivisions",
        estimate=result(total),
        error_bound=result(total_err),
    )
