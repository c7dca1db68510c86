"""Monte Carlo engine, estimators, experiment sweeps, and CSV emission.

Trials are processed in fixed-size blocks keyed by a counter-based RNG, so a
run is reproducible bit-for-bit for a given seed and independent of how many
workers execute the blocks.  Sweeps over the legitimate receiver's average
SNR reuse one set of channel-gain draws per configuration (the gains do not
depend on that axis); sweeps over surface size draw fresh gains per point.

Closed-form columns (distribution fits and both bounds) are always derived
from the frozen first-M_ON configuration of the row's geometry, which is the
regime the moment matching describes.  Monte Carlo columns follow whatever
policy the row ran; with the adaptive policy the analytic columns are
reference curves, not bounds on the simulated metrics.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .channel import (TRIALS_PER_BLOCK, ChannelStream, LinkBudget,
                      correlated_images_batch)
from .errors import ConfigError, DomainError, FrisecError
from .secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_upper_bound,
                      exp_cdf, fit_bob_gamma, fit_eve_exponential, gamma_cdf,
                      secrecy_capacity, sop_lower_bound)
from .surface import EIGEN_CLAMP, CorrelationMatrix, SurfaceGeometry, build_correlation

SPEED_OF_LIGHT = 299792458.0
_Z95 = 1.959963984540054
_TWO_PI = 2.0 * math.pi

#: fixed stream-id registry so every statistical computation is addressable.
STREAM_FRIS_SNR = 0
STREAM_CONV_SNR = 1
STREAM_VALIDATE_BASE = 10      # + index of the m_on entry
STREAM_SIZE_BASE = 100         # + 2*point (FRIS), + 2*point + 1 (conventional)
STREAM_BOUNDS = 3

POLICIES = ("greedy", "fixed-uniform", "fixed-random", "conventional")

KS_MIN_SAMPLES = 100

_INT_FIELDS = ("m_x", "m_z", "conventional_m", "m_on", "trials", "seed", "workers")
_FLOAT_FIELDS = ("aperture_x", "aperture_z", "carrier_hz", "ref_gain", "pl_exponent",
                 "dist_feed_m", "dist_bob_m", "dist_eve_m", "tx_power_dbm", "noise_bob_dbm",
                 "noise_eve_dbm", "target_rate_bits")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters (linear units derived on access)."""

    m_x: int = 20
    m_z: int = 20
    aperture_x: float = 3.0          # wavelengths
    aperture_z: float = 3.0          # wavelengths
    carrier_hz: float = 2.4e9
    conventional_m: int = 36         # half-wavelength grid over the 3x3 aperture
    ref_gain: float = 1.0
    pl_exponent: float = 2.5
    dist_feed_m: float = 20.0
    dist_bob_m: float = 30.0
    dist_eve_m: float = 30.0
    tx_power_dbm: float = 30.0
    noise_bob_dbm: float = -90.0
    noise_eve_dbm: float = -80.0
    target_rate_bits: float = 1.0
    policy: str = "greedy"
    m_on: int = 100
    trials: int = 100_000
    seed: int = 1
    workers: int = 1
    snr_sweep_db: tuple = tuple(float(v) for v in range(60, 125, 5))
    size_sweep: tuple = (100, 144, 196, 256, 324, 400)

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not self.carrier_hz > 0:
            raise ConfigError(f"carrier_hz must be > 0, got {self.carrier_hz!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned value")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        for name, kind, valid in (
                ("snr_sweep_db", "finite numbers",
                 lambda v: isinstance(v, numbers.Real) and math.isfinite(v)),
                ("size_sweep", "integers >= 1",
                 lambda v: isinstance(v, numbers.Integral) and v >= 1)):
            grid = tuple(getattr(self, name))
            object.__setattr__(self, name, grid)
            if len(grid) == 0:
                raise ConfigError(f"{name} must be nonempty")
            bad = [v for v in grid if isinstance(v, bool) or not valid(v)]
            if bad:
                raise ConfigError(f"{name} entries must be {kind}, got {bad[0]!r}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not 1 <= self.m_on <= self.m_x * self.m_z:
            raise ConfigError("m_on must lie in [1, m_x * m_z]")
        conv = self.conventional_m
        if conv < 1 or math.isqrt(conv) ** 2 != conv:
            raise ConfigError(f"conventional_m must be a perfect square >= 1, got {conv}")
        try:  # the link at every grid point, the target and every surface come first
            base = self.budget()
            for snr_db in self.snr_sweep_db:
                base.with_avg_snr_bob(db_to_linear(snr_db))
            self.target()
            self.fris_geometry()
            self.conventional_geometry()
            for m_total in self.size_sweep:
                self.size_geometry(m_total)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # from a dB to linear conversion
            raise ConfigError(f"a dB or dBm value is out of floating-point range: {exc}") from exc

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def fris_geometry(self) -> SurfaceGeometry:
        return SurfaceGeometry(m_x=self.m_x, m_z=self.m_z, width_x=self.aperture_x,
                               width_z=self.aperture_z, wavelength=self.wavelength)

    def conventional_geometry(self) -> SurfaceGeometry:
        """The baseline: a square half-wavelength grid of `conventional_m` elements."""
        side = math.isqrt(self.conventional_m)
        return SurfaceGeometry(m_x=side, m_z=side, width_x=side / 2.0, width_z=side / 2.0,
                               wavelength=self.wavelength)

    def size_geometry(self, m_total: int) -> SurfaceGeometry:
        """The sweep-size pool: a square grid of isqrt(m_total) per side over the aperture."""
        side = math.isqrt(m_total)
        return SurfaceGeometry(m_x=side, m_z=side, width_x=self.aperture_x,
                               width_z=self.aperture_z, wavelength=self.wavelength)

    def budget(self) -> LinkBudget:
        return LinkBudget(
            ref_gain=self.ref_gain, pl_exponent=self.pl_exponent,
            dist_feed_m=self.dist_feed_m, dist_bob_m=self.dist_bob_m,
            dist_eve_m=self.dist_eve_m, tx_power_w=dbm_to_watts(self.tx_power_dbm),
            noise_bob_w=dbm_to_watts(self.noise_bob_dbm),
            noise_eve_w=dbm_to_watts(self.noise_eve_dbm),
        )

    def target(self) -> SecrecyTarget:
        return SecrecyTarget(self.target_rate_bits)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a flat key-value mapping (e.g. a parsed JSON file)."""
    unknown = set(mapping) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    coerced = {}
    for key, value in mapping.items():
        if key in ("snr_sweep_db", "size_sweep"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            coerced[key] = tuple(value)
        else:
            coerced[key] = value
    try:
        return ExperimentConfig(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricEstimate:
    """Point estimate with standard error and a 95% confidence interval."""

    point: float
    std_error: float
    ci_low: float
    ci_high: float

    @staticmethod
    def for_proportion(successes: int, n: int) -> "MetricEstimate":
        """Wilson 95% interval; robust for zero-count cells."""
        if n < 1:
            raise DomainError("need at least one trial")
        p = successes / n
        z2 = _Z95 * _Z95
        denom = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denom
        half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
        se = math.sqrt(p * (1.0 - p) / n)
        # rounding must never push the interval off the point estimate
        return MetricEstimate(point=p, std_error=se,
                              ci_low=min(p, max(0.0, center - half)),
                              ci_high=max(p, min(1.0, center + half)))

    @staticmethod
    def for_mean(samples: np.ndarray) -> "MetricEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 2:
            raise DomainError("need at least two samples for a mean estimate")
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n))
        return MetricEstimate(point=mean, std_error=se, ci_low=mean - _Z95 * se,
                              ci_high=mean + _Z95 * se)


# ---------------------------------------------------------------------------
# Gain simulation engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainSamples:
    """Equivalent channel power gains for both receivers, one entry per trial."""

    g_bob: np.ndarray
    g_eve: np.ndarray

    def __len__(self) -> int:
        return self.g_bob.size


def _adaptive_block(images: np.ndarray, m_on: int) -> tuple[np.ndarray, np.ndarray]:
    # Per-trial strongest-subset selection, co-phased toward the legitimate
    # receiver; the eavesdropper sees the same selection and phases.  The
    # co-phased objective sum |u_bob[m]| |v[m]| is separable over elements,
    # so the m_on largest terms are the best subset of that size.  Returns
    # both equivalent channels; the legitimate one is real and nonnegative.
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


def _fixed_block(images: np.ndarray, phase_factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Both equivalent channels through one frozen selection, whose elements
    # are the columns of `images`, with per-element phase factors.
    v, u_bob, u_eve = images[:, 0], images[:, 1], images[:, 2]
    return ((np.conj(u_bob) * phase_factors * v).sum(axis=1),
            (np.conj(u_eve) * phase_factors * v).sum(axis=1))


def _fixed_selection(m: int, m_on: int, policy: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Element indices and phases frozen for a whole fixed-policy run.

    fixed-uniform: the first m_on elements at zero phase, the regime in which
    the trace identities behind the distribution fits hold exactly.
    fixed-random: a uniformly random subset with i.i.d. uniform phases, drawn
    from a Philox stream keyed by the seed alone.
    """
    if policy == "fixed-uniform":
        return np.arange(m_on), np.zeros(m_on)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xF1CED], dtype=np.uint64)))
    indices = np.sort(rng.choice(m, size=m_on, replace=False))
    return indices, rng.uniform(0.0, _TWO_PI, size=m_on)


def simulate_gains(corr: CorrelationMatrix, policy: str, m_on: int, trials: int,
                   stream: ChannelStream, workers: int = 1) -> GainSamples:
    """Simulate per-trial power gains under the given policy.

    Results are a pure function of (corr, policy, m_on, trials, stream) and in
    particular do not depend on `workers`; trial t of a run equals the last
    trial of a run of t + 1 trials.  The conventional policy co-phases every
    element and ignores `m_on`.
    """
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    m = corr.n_elements
    active = m if policy == "conventional" else m_on
    if not 1 <= active <= m:
        raise DomainError(f"m_on must be in [1, {m}], got {m_on}")
    if policy in ("greedy", "conventional"):
        rows = corr.factor

        def kernel(images):
            return _adaptive_block(images, active)

    else:
        indices, phases = _fixed_selection(m, m_on, policy, stream.seed)
        rows = corr.factor[indices]
        phase_factors = np.exp(1j * phases)[None, :]

        def kernel(images):
            return _fixed_block(images, phase_factors)

    n_blocks = -(-trials // TRIALS_PER_BLOCK)

    def work(block: int):
        draws = stream.draw_block(corr.rank, block)
        h_bob, h_eve = kernel(correlated_images_batch(draws, rows))
        return np.abs(h_bob) ** 2, np.abs(h_eve) ** 2

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, range(n_blocks)))
    else:
        parts = [work(b) for b in range(n_blocks)]
    g_bob = np.concatenate([p[0] for p in parts])[:trials]
    g_eve = np.concatenate([p[1] for p in parts])[:trials]
    return GainSamples(g_bob=g_bob, g_eve=g_eve)


@dataclass(frozen=True)
class TrialRecords:
    """Per-trial gains, SNRs, and secrecy capacity for one budget."""

    g_bob: np.ndarray
    g_eve: np.ndarray
    snr_bob: np.ndarray
    snr_eve: np.ndarray
    capacity: np.ndarray


def records_for_budget(gains: GainSamples, budget: LinkBudget) -> TrialRecords:
    snr_b = budget.snr_scale("bob") * gains.g_bob
    snr_e = budget.snr_scale("eve") * gains.g_eve
    return TrialRecords(g_bob=gains.g_bob, g_eve=gains.g_eve, snr_bob=snr_b, snr_eve=snr_e,
                        capacity=secrecy_capacity(snr_b, snr_e))


def estimate_sop(records: TrialRecords, target: SecrecyTarget) -> MetricEstimate:
    """Fraction of trials whose secrecy capacity is at or below the target."""
    outages = int(np.count_nonzero(records.capacity <= target.rate_bits))
    return MetricEstimate.for_proportion(outages, records.capacity.size)


def estimate_asc(records: TrialRecords) -> MetricEstimate:
    """Sample-mean secrecy capacity with a normal-approximation interval."""
    return MetricEstimate.for_mean(records.capacity)


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between the empirical CDF and an analytic CDF.

    `cdf` is called once, on the sorted sample array, and must return the
    CDF elementwise.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < KS_MIN_SAMPLES:
        raise DomainError(f"KS diagnostic needs at least {KS_MIN_SAMPLES} samples")
    theo = np.asarray(cdf(samples), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = (
    "sweep_var", "sweep_value", "asc_mc", "asc_se", "asc_ci_low", "asc_ci_high",
    "asc_bound", "asc_bound_negative", "sop_mc", "sop_se", "sop_ci_low",
    "sop_ci_high", "sop_bound", "gamma_shape", "gamma_scale", "exp_rate",
    "ks_bob", "ks_eve", "policy", "m_total", "m_on", "trials", "seed", "status",
)


def reference_fits(corr: CorrelationMatrix, m_on: int) -> tuple[GammaFit, ExpFit]:
    """Fits from the frozen first-m_on selection: the leading block of J."""
    m = corr.n_elements
    if m_on < 1:
        raise DomainError("selection must contain at least one element")
    if m_on > m:
        raise DomainError(f"selection index {m_on - 1} out of range for a {m}-element surface")
    reduced = corr.matrix[:m_on, :m_on].copy()
    return fit_bob_gamma(reduced), fit_eve_exponential(reduced)


def _gain_ks(gains: GainSamples, fit_b: GammaFit, fit_e: ExpFit) -> tuple[float, float]:
    if len(gains) < KS_MIN_SAMPLES:  # too few trials for the diagnostic, not for the row
        return float("nan"), float("nan")
    ks_b = ks_statistic(gains.g_bob, lambda g: gamma_cdf(g, fit_b))
    ks_e = ks_statistic(gains.g_eve, lambda g: exp_cdf(g, fit_e))
    return ks_b, ks_e


@dataclass(frozen=True)
class _Point:
    """One evaluated grid point: what its rows report, its fits, gains and KS."""

    policy: str
    m_total: int
    m_on: int
    fits: tuple
    gains: GainSamples
    ks: tuple | None


def _evaluate_point(config: ExperimentConfig, surface: SurfaceGeometry | CorrelationMatrix,
                    policy: str, m_on: int, stream: int, fits: tuple | None = None,
                    ks: bool = True) -> _Point:
    """Simulate one grid point on its named stream, the step every sweep maps.

    `surface` is a geometry, or its correlation when several points share
    it.  `fits` defaults to the reference fits of the first m_on elements;
    `ks` adds the KS distances of the gains from those fits, nan when there
    are fewer than KS_MIN_SAMPLES trials.
    """
    corr = surface if isinstance(surface, CorrelationMatrix) else build_correlation(surface)
    if fits is None:
        fits = reference_fits(corr, m_on)
    gains = simulate_gains(corr, policy, m_on, config.trials,
                           ChannelStream(config.seed, stream), workers=config.workers)
    return _Point(policy, corr.n_elements, m_on, fits, gains,
                  _gain_ks(gains, *fits) if ks else None)


def _nan_row(sweep_var, value, config, policy, m_total, m_on, status) -> dict:
    row = {name: float("nan") for name in SWEEP_COLUMNS}
    row.update(sweep_var=sweep_var, sweep_value=value, policy=policy,
               m_total=m_total, m_on=m_on, trials=config.trials,
               seed=config.seed, status=status)
    return row


def _sweep_row(sweep_var, value, config, budget, point: _Point) -> dict:
    """The metrics of one point at one budget, or a nan row naming the error."""
    fit_b, fit_e = point.fits
    try:
        records = records_for_budget(point.gains, budget)
        asc = estimate_asc(records)
        sop = estimate_sop(records, config.target())
        asc_bound = asc_upper_bound(fit_b, fit_e, budget)
        sop_bound = sop_lower_bound(fit_b, fit_e, budget, config.target())
    except FrisecError as exc:
        return _nan_row(sweep_var, value, config, point.policy, point.m_total, point.m_on,
                        f"error: {exc}")
    return {
        "sweep_var": sweep_var, "sweep_value": value,
        "asc_mc": asc.point, "asc_se": asc.std_error,
        "asc_ci_low": asc.ci_low, "asc_ci_high": asc.ci_high,
        "asc_bound": asc_bound, "asc_bound_negative": int(asc_bound < 0.0),
        "sop_mc": sop.point, "sop_se": sop.std_error,
        "sop_ci_low": sop.ci_low, "sop_ci_high": sop.ci_high,
        "sop_bound": sop_bound,
        "gamma_shape": fit_b.shape, "gamma_scale": fit_b.scale,
        "exp_rate": fit_e.rate, "ks_bob": point.ks[0], "ks_eve": point.ks[1],
        "policy": point.policy, "m_total": point.m_total, "m_on": point.m_on,
        "trials": config.trials, "seed": config.seed, "status": "ok",
    }


def sweep_snr(config: ExperimentConfig) -> list[dict]:
    """Metrics versus the legitimate receiver's average SNR (dB grid).

    At each grid point, one row for the configured policy and one for the
    conventional baseline.  The eavesdropper's budget stays at its configured
    value throughout the sweep.
    """
    base_budget = config.budget()
    points = (
        _evaluate_point(config, config.fris_geometry(), config.policy, config.m_on,
                        STREAM_FRIS_SNR),
        _evaluate_point(config, config.conventional_geometry(), "conventional",
                        config.conventional_m, STREAM_CONV_SNR),
    )
    rows = []
    for snr_db in config.snr_sweep_db:
        budget = base_budget.with_avg_snr_bob(db_to_linear(snr_db))
        rows.extend(_sweep_row("avg_snr_bob_db", snr_db, config, budget, p) for p in points)
    return rows


def sweep_size(config: ExperimentConfig) -> list[dict]:
    """Metrics versus total element count at fixed active count.

    Every size keeps the configured aperture, so a larger count packs the
    same area more densely.  The conventional baseline is the
    `conventional_m`-element half-wavelength surface, as in `sweep_snr`; it
    is re-simulated with a fresh stream per point and has no dependence on
    the sweep value, so its rows should be flat up to Monte Carlo noise.
    """
    rows = []
    budget = config.budget()
    conv_corr = build_correlation(config.conventional_geometry())
    conv_fits = reference_fits(conv_corr, config.conventional_m)
    for point, m_total in enumerate(config.size_sweep):
        geometry = config.size_geometry(m_total)
        if geometry.n_elements != m_total:
            rows.append(_nan_row("m_total", m_total, config, "greedy", m_total, config.m_on,
                                 "error: size grid values must be perfect squares"))
            continue
        base = STREAM_SIZE_BASE + 2 * point
        for surface, policy, m_on, stream, fits in (
                (geometry, "greedy", config.m_on, base, None),
                (conv_corr, "conventional", config.conventional_m, base + 1, conv_fits)):
            try:
                rows.append(_sweep_row("m_total", m_total, config, budget, _evaluate_point(
                    config, surface, policy, m_on, stream, fits)))
            except FrisecError as exc:
                rows.append(_nan_row("m_total", m_total, config, policy, surface.n_elements,
                                     m_on, f"error: {exc}"))
    return rows


VALIDATE_FIT_COLUMNS = (
    "m_on", "trials", "mean_g_bob", "expected_mean", "rel_err_bob", "mean_g_eve",
    "rel_err_eve", "ks_bob", "ks_eve", "gamma_shape", "gamma_scale", "exp_rate",
    "seed", "status",
)


def validate_fits(config: ExperimentConfig, m_on_list: Sequence[int] | None = None) -> list[dict]:
    """Frozen-configuration check of the fitted gain laws.

    Simulates the fixed first-m_on, zero-phase configuration and compares the
    empirical gain means against the trace formulas; KS distances against the
    fitted laws are reported as advisory diagnostics (the fits match the
    means by construction, not the whole shape).
    """
    if m_on_list is None:
        m_on_list = (config.m_on,)
    corr = build_correlation(config.fris_geometry())
    rows = []
    for index, m_on in enumerate(m_on_list):
        try:
            point = _evaluate_point(config, corr, "fixed-uniform", m_on,
                                    STREAM_VALIDATE_BASE + index)
        except FrisecError as exc:
            rows.append({name: float("nan") for name in VALIDATE_FIT_COLUMNS}
                        | {"m_on": m_on, "seed": config.seed, "status": f"error: {exc}"})
            continue
        fit_b, fit_e = point.fits
        mean_b = float(point.gains.g_bob.mean())
        mean_e = float(point.gains.g_eve.mean())
        expected = fit_b.mean  # equals the eavesdropper mean 1/rate as well
        rows.append({
            "m_on": m_on, "trials": config.trials, "mean_g_bob": mean_b,
            "expected_mean": expected,
            "rel_err_bob": abs(mean_b - expected) / expected,
            "mean_g_eve": mean_e,
            "rel_err_eve": abs(mean_e - fit_e.mean) / fit_e.mean,
            "ks_bob": point.ks[0], "ks_eve": point.ks[1], "gamma_shape": fit_b.shape,
            "gamma_scale": fit_b.scale, "exp_rate": fit_e.rate,
            "seed": config.seed, "status": "ok",
        })
    return rows


VALIDATE_BOUND_COLUMNS = (
    "avg_snr_bob_db", "sop_mc", "sop_se", "sop_bound", "sop_bound_ok",
    "asc_mc", "asc_se", "asc_bound", "asc_bound_negative", "asc_bound_ok",
    "policy", "m_total", "m_on", "trials", "seed", "status",
)


def validate_bounds(config: ExperimentConfig) -> list[dict]:
    """Outage lower bound and capacity bound versus frozen-config Monte Carlo.

    Runs the fixed-uniform regime (the one the fits describe).  For each grid
    point the outage criterion is MC >= bound - 2 SE; the capacity comparison
    records whether the closed form stayed above the simulated mean, which it
    need not in general (its second term is not a true bound), so violations
    are flagged rather than fatal.
    """
    base_budget = config.budget()
    point = _evaluate_point(config, config.fris_geometry(), "fixed-uniform", config.m_on,
                            STREAM_BOUNDS, ks=False)
    fit_b, fit_e = point.fits
    rows = []
    for snr_db in config.snr_sweep_db:
        budget = base_budget.with_avg_snr_bob(db_to_linear(snr_db))
        records = records_for_budget(point.gains, budget)
        sop = estimate_sop(records, config.target())
        asc = estimate_asc(records)
        bound = sop_lower_bound(fit_b, fit_e, budget, config.target())
        asc_ub = asc_upper_bound(fit_b, fit_e, budget)
        rows.append({
            "avg_snr_bob_db": snr_db,
            "sop_mc": sop.point, "sop_se": sop.std_error, "sop_bound": bound,
            "sop_bound_ok": int(sop.point >= bound - 2.0 * sop.std_error),
            "asc_mc": asc.point, "asc_se": asc.std_error, "asc_bound": asc_ub,
            "asc_bound_negative": int(asc_ub < 0.0),
            "asc_bound_ok": int(asc_ub >= asc.point),
            "policy": "fixed-uniform", "m_total": point.m_total,
            "m_on": config.m_on, "trials": config.trials, "seed": config.seed,
            "status": "ok",
        })
    return rows


# ---------------------------------------------------------------------------
# CSV and manifest output
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17e")
    return str(value)


def rows_to_csv(rows: Iterable[dict], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col, float("nan"))) for col in columns))
    return "\n".join(lines) + "\n"


def write_results(path: str, rows: list[dict], columns: Sequence[str],
                  config: ExperimentConfig, extra_manifest: dict | None = None) -> None:
    """Write the CSV (timestamp-free, byte-reproducible) plus a run manifest."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows, columns))
    manifest = {
        "config": asdict(config),
        "version": __version__,
        "numpy_version": np.__version__,
        "written_unix_time": time.time(),
        "rows": len(rows),
        "notes": {
            "element_distance": "both grid coordinate differences enter squared "
                                "(true planar Euclidean separation)",
            "sampler": {
                "method": "rank-reduced (Karhunen-Loeve): r normals per link colored by "
                          "the M x r eigen-factor U_r Lambda_r^(1/2); r counts the "
                          "eigenvalues >= eigen_clamp * lambda_max",
                "eigen_clamp": EIGEN_CLAMP,
            },
            "stream_registry": {
                "fris_snr": STREAM_FRIS_SNR, "conventional_snr": STREAM_CONV_SNR,
                "bounds": STREAM_BOUNDS, "validate_base": STREAM_VALIDATE_BASE,
                "size_base": STREAM_SIZE_BASE,
            },
        },
    }
    if extra_manifest:
        manifest["notes"].update(extra_manifest)
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_correlation_csv(config: ExperimentConfig, path: str) -> dict:
    """Write the surface correlation matrix row-major at full precision."""
    corr = build_correlation(config.fris_geometry())
    with open(path, "w", encoding="utf-8") as fh:
        for row in corr.matrix:
            fh.write(",".join(format(v, ".17e") for v in row))
            fh.write("\n")
    diag = {"eigen_floor": corr.eigen_floor, "clamped_mass": corr.clamped_mass,
            "n_elements": corr.n_elements, "rank": corr.rank}
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"config": asdict(config), "version": __version__,
                   "written_unix_time": time.time(), "diagnostics": diag},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return diag
