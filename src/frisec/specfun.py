"""Self-contained special-function kernel.

Everything here is pure double-precision Python/numpy, with no dependency on
scipy: Bessel J0, the regularized lower incomplete gamma function and the
scaled exponential integral e^z E1(z) (all three elementwise over arrays), and
adaptive quadrature on [0, inf) of one or several integrands, whose tolerances
and panel budget are plain keyword arguments.  All functions are pure and
reentrant.  The outage closed form's Meijer G kernel is not here: `secrecy`
evaluates its reduction directly.
"""

from __future__ import annotations

import bisect
import math
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

#: the largest |x| that `bessel_j0` accepts
J0_MAX_ARG = 1e4


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise for |x| <= 1e4.

    The n-point trapezoidal rule (1/n) sum_j cos(x sin(pi j / n)) of Bessel's
    integral J0(x) = (1/pi) int_0^pi cos(x sin t) dt, whose error is about
    2 |J_2n(x)| <= 2 (x/2)^2n / (2n)! (Trefethen & Weideman, SIAM Review 2014).
    n is the smallest power of two >= max(32, e|x|/2), where by Stirling that
    bound is below 2^-54; each element's bits depend on |x| alone.  Elements
    are grouped by n and evaluated in row slices of about 2^19 cosines.
    Absolute error below 1e-13, from the rounding of x sin t.  |x| past
    J0_MAX_ARG, nan and inf raise DomainError.  A scalar or 0-d x gives a
    float, an array x an array of its shape.
    """
    x_in = np.asarray(x, dtype=float)
    ax = np.abs(x_in.ravel())
    if not np.all(ax <= J0_MAX_ARG):  # nan fails too
        raise DomainError(f"|x| must be <= {J0_MAX_ARG:g}, got {ax[~(ax <= J0_MAX_ARG)][0]}")
    # n = 32 << level, for level the count of the powers 32 ... 8192 below e|x|/2
    level = np.searchsorted(32 << np.arange(9), (math.e / 2.0) * ax)
    out = np.empty(ax.shape)
    for shift in set(level.tolist()):
        members, n = np.flatnonzero(level == shift), 32 << shift
        sines = np.sin(math.pi * np.arange(n // 2 + 1) / n)  # t and pi - t share a value
        for start in range(0, members.size, (1 << 20) // n):
            part = members[start:start + (1 << 20) // n]
            waves = np.cos(np.multiply.outer(ax[part], sines))
            out[part] = (waves[:, :-1] + waves[:, 1:]).sum(axis=1) / n  # each term in a pair
    return float(out[0]) if x_in.ndim == 0 else out.reshape(x_in.shape)


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
    # Q(k, x) e^x x^-k Gamma(k), x >= k + 1, stopped per element.  x is the
    # caller's gathered copy, turned in place into b = x + 1 - k.
    tiny = 1e-300
    out = np.empty_like(x)
    todo = np.arange(x.size)
    b = x
    b += 1.0
    b -= k
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
    # each sum before its front factor, so the two are never held at once
    out[low] = np.minimum(1.0, _inc_gamma_series(k, xs[low]) * front(xs[low]))
    out[high] = np.maximum(0.0, 1.0 - _inc_gamma_fraction(k, xs[high]) * front(xs[high]))
    return float(out[0]) if x_in.ndim == 0 else out.reshape(x_in.shape)


# ---------------------------------------------------------------------------
# Scaled exponential integral
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329


def _e1_series(x: np.ndarray, terms: int, out: np.ndarray, scratch: np.ndarray) -> None:
    # e^x (-gamma - ln x - sum_{k=1}^{terms} (-x)^k / (k k!)) into out, by Horner
    out.fill((-1) ** terms / (terms * math.factorial(terms)))
    for k in range(terms - 1, 0, -1):
        out *= x
        out += (-1) ** k / (k * math.factorial(k))
    out *= x
    out += np.log(x, out=scratch)
    out += _EULER_GAMMA
    out *= np.exp(x, out=scratch)
    np.negative(out, out=out)


def _e1_fraction(x: np.ndarray, depth: int, out: np.ndarray, scratch: np.ndarray) -> None:
    # 1 / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - ... k^2 / (x + 2k + 1)))) into out,
    # from k = depth down
    out.fill(0.0)
    for k in range(depth, 0, -1):
        np.add(x, 2 * k + 1, out=scratch)
        scratch -= out
        np.divide(k * k, scratch, out=out)
    np.add(x, 1.0, out=scratch)
    scratch -= out
    np.divide(1.0, scratch, out=out)


#: the tiers of z by upper end, each with its method and what that takes: the
#: terms of the series below 2, enough at the tier's upper end, and the depth
#: of the continued fraction from 2 on, enough at its lower end, for 1e-14
_E1_TIERS = ((1e-4, _e1_series, 4), (0.01, _e1_series, 6), (0.3, _e1_series, 13),
             (1.0, _e1_series, 19), (2.0, _e1_series, 24), (3.0, _e1_fraction, 44),
             (4.0, _e1_fraction, 31), (6.0, _e1_fraction, 25), (10.0, _e1_fraction, 19),
             (20.0, _e1_fraction, 14), (40.0, _e1_fraction, 10), (math.inf, _e1_fraction, 7))


def scaled_exp1(z):
    """e^z E1(z) elementwise for z > 0, with the limit 0 at z = inf.

    Below z = 2 the ascending series E1(z) = -gamma - ln z - sum_k (-z)^k /
    (k k!); from 2 on the continued fraction
    1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))), evaluated backward
    (Abramowitz & Stegun 5.1.11, 5.1.22).  Each tier of z takes the fewest
    terms that its lower end needs; when z spans several tiers, its elements
    are grouped by tier with one stable sort, so each tier runs on one
    contiguous slice.  Relative error below 1e-13.  Returns an array of z's
    shape.
    """
    z = np.asarray(z, dtype=float)
    flat, values = z.ravel(), np.empty(z.size)
    if not z.size:
        return values.reshape(z.shape)
    lowest, highest = z.min(), z.max()
    if not lowest > 0.0:  # nan fails too
        raise DomainError("z must be > 0")
    # the tiers that z's range spans; one tier needs no grouping
    bounds = [hi for hi, _, _ in _E1_TIERS[:-1]]
    first, last = bisect.bisect_right(bounds, lowest), bisect.bisect_right(bounds, highest)
    if first == last:
        _, method, n = _E1_TIERS[first]
        method(flat, n, values, np.empty(z.size))
        return values.reshape(z.shape)
    tiers = np.zeros(z.size, dtype=np.int8)
    for hi in bounds[first:last]:
        tiers += flat >= hi
    order = np.argsort(tiers, kind="stable")
    grouped, scratch = flat[order], np.empty(z.size)
    start = 0
    for (_, method, n), count in zip(_E1_TIERS[first:], np.bincount(tiers)):
        part = slice(start, start + count)
        if count:
            method(grouped[part], n, values[part], scratch[part])
        start += count
    grouped[order] = values  # back to z's order, in the buffer the sort made
    return grouped.reshape(z.shape)


# ---------------------------------------------------------------------------
# Quadrature on [0, inf)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


#: the panels of the first pass, and the parts a panel is split into
_PANELS = 8
_SPLIT = 4


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], *, abs_tol: float = 1e-12,
                            rel_tol: float = 1e-10,
                            max_subdivisions: int = 512) -> float | np.ndarray:
    """Integrate f over [0, inf); f must decay at least exponentially.

    f is called with a numpy array of p abscissae and returns either p values
    (one integrand) or a (p, n) array (n integrands, one per column).  Under
    u -> (1 - u) / u the interval becomes (0, 1], cut into 8 equal panels.
    Each pass gives f the 22 abscissae of every new panel in one call and
    keeps each panel's 15-point Gauss estimate and its distance |I15 - I7|
    from the 7-point one, per component.  All components share the mesh:
    the passes stop once every component's summed error meets
    max(abs_tol, rel_tol * |its total|); until then every panel whose error
    exceeds its equal share of that tolerance in any component is split into
    4.  `max_subdivisions` counts panels split.  Returns a float, or an array
    of the n integrals.  Raises DomainError unless both tolerances are > 0 and
    max_subdivisions >= 1, and ConvergenceError (carrying the last estimate
    and the error bound, arrays for n integrands) when the next pass would
    split more panels in all than `max_subdivisions`.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0 and max_subdivisions >= 1):  # nan fails too
        raise DomainError("quadrature tolerances must be > 0 and max_subdivisions >= 1")
    (x15, w15), (x7, w7) = _gauss_rule(15), _gauss_rule(7)
    nodes = np.concatenate((x15, x7))

    def panels(start: np.ndarray, width: np.ndarray):
        # (estimate, error) per panel and component from one call of f, and
        # whether f gave one integrand
        half = 0.5 * width
        u = ((start + half)[:, None] + half[:, None] * nodes).ravel()
        vals = np.asarray(f((1.0 - u) / u), dtype=float)
        rows = (vals.T / (u * u)).T.reshape(start.size, nodes.size, -1)
        i15 = half[:, None] * (w15 @ rows[:, :15])
        return i15, np.abs(i15 - half[:, None] * (w7 @ rows[:, 15:])), vals.ndim == 1

    def result(value: np.ndarray):
        return float(value[0]) if scalar else value

    start, width = np.arange(_PANELS) / _PANELS, np.full(_PANELS, 1 / _PANELS)
    est, err, scalar = panels(start, width)
    splits = 0
    while True:
        total, total_err = est.sum(axis=0), err.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        worse = ~np.all(err <= tol / len(est), axis=1)  # a nan error is over too
        # with no panel over its share, the sum is over tol by rounding alone
        if np.all(total_err <= tol) or not worse.any():
            return result(total)
        splits += np.count_nonzero(worse)
        if splits > max_subdivisions:
            raise ConvergenceError(
                f"quadrature not converged within {max_subdivisions} panel splits",
                estimate=result(total), error_bound=result(total_err))
        parts = np.repeat(width[worse] / _SPLIT, _SPLIT)
        cuts = (start[worse, None] + width[worse, None] * np.arange(_SPLIT) / _SPLIT).ravel()
        new_est, new_err, _ = panels(cuts, parts)
        start, width = np.concatenate((start[~worse], cuts)), np.concatenate((width[~worse], parts))
        est, err = np.concatenate((est[~worse], new_est)), np.concatenate((err[~worse], new_err))
