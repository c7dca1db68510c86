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
        if not 0 <= self.rate_bits < 1024:  # 2^rate must be a finite float
            raise DomainError("target secrecy rate must lie in [0, 1024) bits/s/Hz")


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


def exp_cdf(g, fit: ExpFit):
    """CDF of the fitted exponential gain law, elementwise over an array of gains."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise DomainError("gain must be >= 0")
    return -np.expm1(-fit.rate * g)


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


_SOP_QUAD = QuadratureSpec(abs_tol=1e-320, rel_tol=1e-9, max_subdivisions=2000)
_ASC_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-10, max_subdivisions=2000)


def sop_oracle_from_ratio(shape: float, z: float) -> float:
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
    if shape * z < 1.0:
        return 1.0 - z * integrate_semi_infinite(
            lambda t: (1.0 - reg_lower_inc_gamma(shape, t)) * np.exp(-z * t), _SOP_QUAD)
    return integrate_semi_infinite(
        lambda u: reg_lower_inc_gamma(shape, u / z) * np.exp(-u), _SOP_QUAD)


def sop_lower_oracle(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget,
                     target: SecrecyTarget) -> float:
    """Quadrature oracle for sop_lower_bound, in physical SNR units."""
    return sop_oracle_from_ratio(fit_b.shape, sop_ratio(fit_b, fit_e, budget, target))


def asc_oracle(fit_b: GammaFit, fit_e: ExpFit, budget: LinkBudget) -> float:
    """Average secrecy capacity of the fitted laws, by one quadrature.

    For independent SNRs X (legitimate, Gamma) and Y (eavesdropper,
    exponential) and the increasing g(t) = log2(1 + t),
    E[(g(X) - g(Y))^+] is the integral over t >= 0 of
    g'(t) F_Y(t) (1 - F_X(t)).  This is the reference value that the
    closed-form capacity bound approximates.

    The abscissae are in units of the smaller of the two mean SNRs.  In
    units of the eavesdropper's mean, a legitimate mean SNR smaller by a
    factor r confines the integrand to a layer of width about r at 0, which
    the quadrature misses for r below about 1e-3 (it returns 0).
    """
    scale_b = budget.snr_scale("bob") * fit_b.scale  # Gamma scale of bob's SNR
    mean_e = budget.snr_scale("eve") * fit_e.mean    # mean of eve's SNR
    if scale_b == 0.0:
        return 0.0
    unit = min(mean_e, fit_b.shape * scale_b)

    def integrand(s: np.ndarray) -> np.ndarray:
        # s is the SNR in units of `unit`; dt = unit ds
        f_eve = -np.expm1(-(unit / mean_e) * s)
        tail_bob = 1.0 - reg_lower_inc_gamma(fit_b.shape, (unit / scale_b) * s)
        return unit / (1.0 + unit * s) * f_eve * tail_bob

    return integrate_semi_infinite(integrand, _ASC_QUAD) / _LN2
