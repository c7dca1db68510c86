"""Moment-matched channel-gain laws, secrecy metrics, and their closed forms.

The legitimate receiver's equivalent power gain is fitted with a Gamma law
and the eavesdropper's with an exponential law, both parameterized by traces
of powers of the reduced correlation matrix.  The secrecy-outage lower bound
and the average-secrecy-capacity upper bound are evaluated from those fits,
each alongside an independent quadrature oracle.

The outage bound keeps no feed-leg path loss because that factor cancels in
the ratio between the two receive legs; the capacity bound keeps it in both
numerator and denominator.  Both forms therefore agree exactly with their
integral definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .errors import DomainError
from .specfun import QuadratureSpec, integrate_semi_infinite, reg_lower_inc_gamma
from .surface import trace_power

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GammaFit:
    """Shape-scale Gamma fit of the legitimate receiver's power gain.

    mean = shape * scale = tr(J~^2); the two parameters come from the second
    and fourth trace powers of the reduced correlation matrix.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise DomainError("Gamma fit needs shape > 0 and scale > 0")

    @property
    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class ExpFit:
    """Exponential (rate) fit of the eavesdropper's power gain; mean = 1/rate."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise DomainError("exponential fit needs rate > 0")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class SecrecyTarget:
    """Target secrecy rate in bits/s/Hz."""

    rate_bits: float

    def __post_init__(self):
        if self.rate_bits < 0:
            raise DomainError("target secrecy rate must be >= 0")


def fit_bob_gamma(j_reduced: np.ndarray) -> GammaFit:
    """Moment-matched Gamma fit from the reduced correlation matrix."""
    tr2 = trace_power(j_reduced, 2)
    tr4 = trace_power(j_reduced, 4)
    if tr2 <= 0.0 or tr4 <= 0.0:
        raise DomainError("reduced correlation matrix must be nonzero")
    return GammaFit(shape=tr2 * tr2 / tr4, scale=tr4 / tr2)


def fit_eve_exponential(j_reduced: np.ndarray) -> ExpFit:
    """Moment-matched exponential fit from the reduced correlation matrix."""
    tr2 = trace_power(j_reduced, 2)
    if tr2 <= 0.0:
        raise DomainError("reduced correlation matrix must be nonzero")
    return ExpFit(rate=1.0 / tr2)


def gamma_cdf(g, fit: GammaFit):
    """CDF of the fitted Gamma gain law, elementwise over an array of gains."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("gain must be >= 0")
    return reg_lower_inc_gamma(fit.shape, g / fit.scale)


def gamma_pdf(g: float, fit: GammaFit) -> float:
    """Density of the fitted Gamma gain law."""
    if g < 0:
        raise DomainError("gain must be >= 0")
    if g == 0.0:
        if fit.shape > 1.0:
            return 0.0
        if fit.shape == 1.0:
            return 1.0 / fit.scale
        return math.inf
    log_pdf = ((fit.shape - 1.0) * math.log(g) - g / fit.scale
               - fit.shape * math.log(fit.scale) - math.lgamma(fit.shape))
    return math.exp(log_pdf) if log_pdf > -745.0 else 0.0


def exp_cdf(g, fit: ExpFit):
    """CDF of the fitted exponential gain law, elementwise over an array of gains."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("gain must be >= 0")
    return -np.expm1(-fit.rate * g)


def exp_pdf(g: float, fit: ExpFit) -> float:
    """Density of the fitted exponential gain law."""
    if g < 0:
        raise DomainError("gain must be >= 0")
    return fit.rate * math.exp(-fit.rate * g)


def secrecy_capacity(snr_bob: np.ndarray, snr_eve: np.ndarray) -> np.ndarray:
    """Nonnegative instantaneous secrecy rate in bits/s/Hz, elementwise."""
    if np.any(np.less(snr_bob, 0)) or np.any(np.less(snr_eve, 0)):
        raise DomainError("SNRs must be >= 0")
    return np.maximum(0.0, (np.log1p(snr_bob) - np.log1p(snr_eve)) / _LN2)


def asc_upper_bound(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget) -> float:
    """Jensen-style capacity bound from the two mean received SNRs.

    May be negative when the eavesdropper's mean SNR exceeds the legitimate
    one; the value is reported unclamped (callers flag negativity).  Because
    the averaging direction differs between the two terms, this is an
    approximation that is only empirically an upper bound in favorable
    regimes; see asc_oracle for the reference value.
    """
    mean_bob = budget.snr_scale("bob") * fit_b.mean
    mean_eve = budget.snr_scale("eve") * fit_e.mean
    return (math.log1p(mean_bob) - math.log1p(mean_eve)) / _LN2


def sop_ratio(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget, target: SecrecyTarget) -> float:
    """The single SNR-ratio argument z of the outage closed form.

    The feed-leg loss cancels between the two receive legs, so z depends on
    the receive-side budgets only.
    """
    num = budget.avg_snr_bob * budget.loss_bob * fit_b.scale
    den = budget.avg_snr_eve * budget.loss_eve * fit_e.mean * 2.0 ** target.rate_bits
    return num / den


def sop_bound_from_ratio(shape: float, z: float) -> float:
    """Closed-form outage lower bound (1 + z)^(-shape) for ratio z > 0.

    Equals z / Gamma(shape) times the Meijer G kernel under the validated
    reduction; evaluated directly in log space for numerical range.
    """
    if z < 0:
        raise DomainError("ratio must be >= 0")
    if z == 0.0:
        return 1.0
    return math.exp(-shape * math.log1p(z))


def sop_lower_bound(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget,
                    target: SecrecyTarget) -> float:
    """Closed-form lower bound on the secrecy outage probability."""
    return sop_bound_from_ratio(fit_b.shape, sop_ratio(fit_b, fit_e, budget, target))


def sop_oracle_from_ratio(shape: float, z: float, quad: QuadratureSpec | None = None) -> float:
    """Outage bound via direct quadrature of the defining integral.

    Integrates the Gamma CDF of the legitimate SNR at the scaled eavesdropper
    SNR against the exponential density, after normalizing the eavesdropper
    scale out: integral over u >= 0 of P(shape, u / z) e^(-u) du.  When
    shape * z < 1 the integrand is e^(-u) except in a layer of width about
    shape * z at u = 0, which the quadrature cannot resolve; there the
    complement 1 - z * (integral over t >= 0 of Q(shape, t) e^(-z t) dt) is
    integrated instead, with t = u / z on the scale of the Gamma law itself.
    """
    if z <= 0:
        raise DomainError("ratio must be > 0")
    if quad is None:
        quad = QuadratureSpec(abs_tol=1e-320, rel_tol=1e-9, max_subdivisions=2000)

    if shape * z < 1.0:
        return 1.0 - z * integrate_semi_infinite(
            lambda t: (1.0 - reg_lower_inc_gamma(shape, t)) * np.exp(-z * t), quad)
    return integrate_semi_infinite(
        lambda u: reg_lower_inc_gamma(shape, u / z) * np.exp(-u), quad)


def sop_lower_oracle(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget,
                     target: SecrecyTarget, quad: QuadratureSpec | None = None) -> float:
    """Quadrature oracle for sop_lower_bound, in physical SNR units."""
    z = sop_ratio(fit_b, fit_e, budget, target)
    return sop_oracle_from_ratio(fit_b.shape, z, quad)


def asc_oracle(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget,
               quad: QuadratureSpec | None = None) -> float:
    """Average secrecy capacity of the fitted laws by iterated quadrature.

    Outer integral over the eavesdropper SNR, inner over the excess of the
    legitimate SNR above it (the positive-part clamp makes the inner domain
    start at the eavesdropper's draw).  This is the reference value that the
    closed-form capacity bound approximates.

    The outer abscissae are in units of the smaller of the two mean SNRs.
    In units of the eavesdropper's mean, a legitimate mean SNR smaller by a
    factor r confines the integrand to a layer of width about r at 0, which
    the quadrature misses for r below about 1e-3 (it returned 0).
    """
    if quad is None:
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
            return np.log1p(scale_b * w / (1.0 + y)) / _LN2 * np.exp(log_pdf)

        return rate * np.exp(-rate * t) * integrate_semi_infinite(inner, inner_quad)

    return integrate_semi_infinite(outer, quad)
