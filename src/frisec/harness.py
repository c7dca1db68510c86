"""Monte Carlo engine, estimators, experiment sweeps, and CSV emission.

Trials are processed in fixed-size blocks keyed by a counter-based RNG, so a
run is reproducible bit-for-bit for a given seed and independent of how many
workers execute the blocks.  Sweeps over the legitimate receiver's average
SNR reuse one set of channel-gain draws per configuration (the gains do not
depend on that axis); sweeps over surface size draw fresh gains per point.
No policy looks at the eavesdropper's channel, so given a trial it is one
circular normal of a known variance, and each trial contributes the exact
conditional outage probability and mean capacity over it (conditional Monte
Carlo, Asmussen & Glynn, Stochastic Simulation, 2007, ch. V).

Closed-form columns (distribution fits and both bounds) fit the spectrum of a
frozen configuration (`frozen_spectrum`): a fixed-random row's own, any other
row's the paper's reference, the first m_on elements at zero phase.  Monte
Carlo columns follow the row's policy; with the adaptive policy the analytic
columns are reference curves, not bounds on the simulated metrics.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from . import __version__
from .channel import (TRIALS_PER_BLOCK, ChannelStream, LinkBudget, blas_threads,
                      correlated_images_batch, one_blas_thread)
from .errors import ConfigError, DomainError, FrisecError
from .secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_upper_bound, exp_cdf,
                      fit_laws, gamma_cdf, sop_lower_bound)
from .specfun import scaled_exp1
from .surface import EIGEN_CLAMP, CorrelationMatrix, SurfaceGeometry, _gather, build_correlation

_Z95 = 1.959963984540054
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8  # float64 values one array can address

#: fixed stream-id registry so every statistical computation is addressable.
STREAM_FRIS_SNR = 0
STREAM_CONV_SNR = 1
STREAM_VALIDATE_BASE = 10      # + index of the m_on entry
STREAM_SIZE_BASE = 100         # + 2*point (FRIS), + 2*point + 1 (conventional)
STREAM_BOUNDS = 3

POLICIES = ("greedy", "fixed-uniform", "fixed-random")

KS_MIN_SAMPLES = 100
#: `ks_statistic` first evaluates the CDF at every KS_STRIDE-th sorted sample
KS_STRIDE = 64
#: how far a stretch's bound may fall below the largest KS distance and still
#: be evaluated: above the CDFs' rounding, 1e-12 for the incomplete gamma
KS_SLACK = 1e-9


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _finite_float(name: str, value) -> float | None:
    """A finite real `value`, not a bool, as a float, else None; an integer past the float
    range raises a ConfigError naming `name`."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return float(value) if real and math.isfinite(value) else None
    except OverflowError:  # an integer of more than 308 digits
        raise ConfigError(f"{name} holds an integer past the floating-point range") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters (linear units derived on access)."""

    m_x: int = 20
    m_z: int = 20
    aperture_x: float = 3.0          # wavelengths
    aperture_z: float = 3.0          # wavelengths
    wavelength: ClassVar[float] = 299792458.0 / 2.4e9  # metres; no result depends on it
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
            value = _finite_float(name, getattr(self, name))
            if value is None:
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.trials < 2:
            raise ConfigError("trials must be >= 2: a mean estimate needs two samples")
        if self.trials > _MAX_ELEMENTS:
            raise ConfigError(f"trials must be <= {_MAX_ELEMENTS}, numpy's limit")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned value")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        for name, kind, valid, entry in (
                ("snr_sweep_db", "finite numbers",
                 lambda v: _finite_float("snr_sweep_db", v) is not None, float),
                ("size_sweep", "perfect squares >= 1",
                 lambda v: isinstance(v, numbers.Integral) and 0 < v == math.isqrt(v) ** 2, int)):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list")
            grid = tuple(getattr(self, name))
            if len(grid) == 0:
                raise ConfigError(f"{name} must be nonempty")
            bad = [v for v in grid if isinstance(v, bool) or not valid(v)]
            if bad:
                raise ConfigError(f"{name} entries must be {kind}, got {bad[0]!r}")
            object.__setattr__(self, name, tuple(map(entry, grid)))
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        if not 1 <= self.m_on <= self.m_x * self.m_z:
            raise ConfigError("m_on must lie in [1, m_x * m_z]")
        conv = self.conventional_m
        if conv < 1 or math.isqrt(conv) ** 2 != conv:
            raise ConfigError(f"conventional_m must be a perfect square >= 1, got {conv}")
        try:  # the link at every grid point, the target and every surface come first
            self.snr_grid()
            self.target()
            self.fris_geometry()
            self.conventional_geometry()
            for m_total in self.size_sweep:
                self.size_geometry(m_total)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:  # from a dB to linear conversion
            raise ConfigError(f"a dB or dBm value is out of floating-point range: {exc}") from exc
        # the J0 cap keeps the half-wavelength baseline under 2252**2 elements
        for name, count in (("m_x * m_z", self.m_x * self.m_z),
                            ("size_sweep", self.size_sweep[-1])):
            if count > _MAX_ELEMENTS:  # a pool whose table numpy could not address
                raise ConfigError(f"{name} gives a pool of {count} elements, past {_MAX_ELEMENTS}")

    def fris_geometry(self) -> SurfaceGeometry:
        return SurfaceGeometry(m_x=self.m_x, m_z=self.m_z, width_x=self.aperture_x,
                               width_z=self.aperture_z, wavelength=self.wavelength)

    def conventional_geometry(self) -> SurfaceGeometry:
        """The baseline: a square half-wavelength grid of `conventional_m` elements."""
        side = math.isqrt(self.conventional_m)
        try:
            width = side / 2.0
        except OverflowError:  # a count past the float range
            raise DomainError(f"conventional_m {self.conventional_m} overflows the baseline's "
                              "half-wavelength width") from None
        return SurfaceGeometry(m_x=side, m_z=side, width_x=width, width_z=width,
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

    def snr_grid(self) -> list[tuple[float, LinkBudget]]:
        """Each average SNR of the sweep with its budget; the eavesdropper's stays as set."""
        base = self.budget()
        return [(db, base.with_avg_snr_bob(db_to_linear(db))) for db in self.snr_sweep_db]


# the scalar fields by annotation, in declaration order
_INT_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "int")
_FLOAT_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.type == "float")


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from a flat key-value mapping (e.g. a parsed JSON file)."""
    unknown = set(mapping) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(**mapping)
    except ConfigError:
        raise
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

#: the most trials colored and run through greedy's kernel at a time within
#: a Philox block; pools of more than CHUNK_ELEMENTS / CHUNK_TRIALS elements
#: take fewer.
CHUNK_TRIALS = 128
#: trials times elements in one greedy chunk: it sizes each worker's
#: workspace of images and kernel buffers (2.0-2.3 MiB), not the draws, so
#: the workspace does not grow with the pool.
CHUNK_ELEMENTS = 128 * 400


@dataclass(frozen=True)
class GainSamples:
    """Per-trial equivalent channel power gains and the eavesdropper's variance.

    Given a trial's selection, phases and legitimate channel, the
    eavesdropper's equivalent channel is exactly CN(0, var_eve); `g_eve` is
    one draw of its power, var_eve E for a unit exponential E.  Every entry
    must be >= 0, and not nan, which construction checks once for every
    budget the samples are scaled to.
    """

    g_bob: np.ndarray
    g_eve: np.ndarray
    var_eve: np.ndarray

    def __post_init__(self):
        if not all(np.all(samples >= 0) for samples in (self.g_bob, self.g_eve, self.var_eve)):
            raise DomainError("channel gains must be >= 0 and not nan")


class _GreedyWorkspace:
    """Buffers for greedy's chunks of up to `trials` trials of `m` elements.

    Each thread allocates them once per `simulate_gains` call and runs every
    chunk in them, so no chunk faults in fresh pages.  They are flat, so a
    chunk of n trials takes a contiguous prefix of each: its draws and
    images as four real planes, the kernel's co-phasing weight, ON mask and
    eavesdropper's projection.
    """

    def __init__(self, m: int, r: int, trials: int):
        self.draws = np.empty(4 * trials * r)
        self.images = np.empty(4 * trials * m)
        self.weight = np.empty(trials * m)
        self.on = np.empty(trials * m, dtype=bool)
        self.projected = np.empty(2 * trials * r)


def _prefix(buffer: np.ndarray, *shape: int) -> np.ndarray:
    return buffer[:math.prod(shape)].reshape(shape)


def _greedy_chunk(draws: np.ndarray, factor: np.ndarray, m_on: int, work: _GreedyWorkspace
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy's (g_bob, g_eve, var_eve) of a (2, n, r + 1) slice of a draw block.

    The feed's and the legitimate link's r normals are copied into `work` as
    four real planes (feed re, feed im, bob re, bob im), one real product
    with the M x r factor colors them into its images' four planes, and the
    kernel runs on those in place.
    """
    n = draws.shape[1]
    m, r = factor.shape
    planes = _prefix(work.draws, 4, n, r)
    np.copyto(planes.reshape(2, 2, n, r),
              np.moveaxis(draws[:, :, :r].view(float).reshape(2, n, r, 2), 3, 1))
    images = correlated_images_batch(planes, factor, out=_prefix(work.images, 4, n, m))
    g_bob, variance = _greedy_block(images, factor, m_on, work)
    return g_bob, variance * np.abs(draws[0, :, r]) ** 2, variance


def _greedy_block(images: np.ndarray, factor: np.ndarray, m_on: int, work: _GreedyWorkspace
                  ) -> tuple[np.ndarray, np.ndarray]:
    # Per-trial strongest-subset selection, co-phased toward the legitimate
    # receiver, on the (4, n, M) real planes of the feed's image v and the
    # legitimate link's u_bob, which it overwrites.  The co-phased objective
    # sum |u_bob[m]| |v[m]| is separable over elements, so the m_on largest
    # terms are the best subset of that size; a tie at the threshold keeps
    # its lowest indices, and tied terms are equal, so the gain, the square
    # of the sum of the m_on largest, does not depend on which are kept.
    # The eavesdropper sees the same selection and phases, a = |v| u_bob /
    # |u_bob| on it and 0 elsewhere, so its channel sum conj(u_eve[m]) a[m]
    # is w_eve^H F^T a, CN(0, ||F^T a||^2) for the real factor F.  Returns
    # the legitimate power gain and that variance, from one real product of
    # a's two planes by F.  Magnitudes are sqrt(re^2 + im^2): np.hypot is
    # ten times slower.
    _, n, m = images.shape
    v_re, v_im, u_re, u_im = images
    weight = _prefix(work.weight, n, m)
    abs_v = np.sqrt(np.add(np.square(v_re, out=v_re), np.square(v_im, out=v_im), out=v_re),
                    out=v_re)
    # v's second plane is free now, and the weight is the scratch for im(u_bob)^2
    abs_u = np.sqrt(np.add(np.square(u_re, out=v_im), np.square(u_im, out=weight), out=v_im),
                    out=v_im)
    np.divide(abs_v, abs_u, out=weight)
    terms = np.multiply(abs_v, abs_u, out=images[0])
    if m_on < m:
        top = images[1]
        np.copyto(top, terms)
        top.partition(m - m_on, axis=1)
        threshold = top[:, m - m_on, None]
        on = np.greater_equal(terms, threshold, out=_prefix(work.on, n, m))
        extra = np.count_nonzero(on, axis=1) - m_on
        if extra.any():
            rows = np.flatnonzero(extra)
            tied = terms[rows] == threshold[rows]
            from_end = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
            on[rows] &= ~(tied & (from_end <= extra[rows, None]))
        weight *= on
        amplitude = top[:, m - m_on:].sum(axis=1)
    else:
        amplitude = terms.sum(axis=1)
    u_re *= weight
    u_im *= weight
    projected = np.matmul(images[2:].reshape(2 * n, m), factor,
                          out=_prefix(work.projected, 2 * n, factor.shape[1]))
    return (amplitude ** 2,
            np.einsum("ij,ij->i", projected, projected).reshape(2, n).sum(axis=0))


def _fixed_selection(m: int, m_on: int, policy: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Element indices and phases frozen for a whole fixed-policy run: the first m_on at
    zero phase (fixed-uniform, the paper's reference), or a uniformly random subset with
    i.i.d. uniform phases from a Philox stream keyed by the seed alone (fixed-random)."""
    if policy == "fixed-uniform":
        return np.arange(m_on), np.zeros(m_on)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xF1CED], dtype=np.uint64)))
    indices = np.sort(rng.choice(m, size=m_on, replace=False))
    return indices, rng.uniform(0.0, _TWO_PI, size=m_on)


@one_blas_thread()
def frozen_spectrum(corr: CorrelationMatrix, policy: str, m_on: int, seed: int = 0) -> np.ndarray:
    """mu: the min(m_on, r) largest squared singular values of K = F_S^T Phi F_S, whose
    others are rounding noise, for a fixed policy's frozen rows F_S of the factor and
    phases Phi (`_fixed_selection`).  An m_on off [1, M] raises DomainError."""
    if not 1 <= m_on <= corr.n_elements:
        raise DomainError(f"m_on must be in [1, {corr.n_elements}], got {m_on}")
    indices, phases = _fixed_selection(corr.n_elements, m_on, policy, seed)
    rows = corr.factor[indices]
    return np.linalg.svd((rows.T * np.exp(1j * phases)) @ rows,
                         compute_uv=False)[:min(m_on, corr.rank)] ** 2


@one_blas_thread()
def simulate_gains(corr: CorrelationMatrix, policy: str, m_on: int, trials: int,
                   stream: ChannelStream, workers: int = 1) -> GainSamples:
    """Simulate per-trial power gains under the given policy.

    Results are a pure function of (corr, policy, m_on, trials, stream) and in
    particular do not depend on `workers`; trial t of a run equals the last
    trial of a run of t + 1 trials.  The blocks run on min(workers, blocks,
    usable CPUs) threads, and greedy's on at least two where blocks and CPUs
    allow; one thread runs them on the calling thread, more run them on a
    pool.  Each thread allocates one draw buffer, and under greedy one
    workspace, at its first block, reuses them for every later one, and
    writes its samples into the three returned arrays.  Philox makes a
    block's draws a function of (seed, stream, block) alone, so neither the
    thread nor the buffer changes a bit.  The call runs under
    `one_blas_thread`, so each product runs on the thread that calls it.

    Every policy draws each Philox block whole.  Greedy colors it and runs
    its kernel in chunks of min(CHUNK_TRIALS, CHUNK_ELEMENTS // M) trials (at
    least one), each by one real product of the real and imaginary planes of
    its feed and legitimate normals by the real factor, in the thread's
    workspace, whose (n, M) images and kernel buffers hold about
    CHUNK_ELEMENTS values per plane whatever the pool; its last block stops
    at the chunk that holds the last requested trial.  A
    fixed policy's temporaries hold one value per trial, so it runs each
    block whole, in one product.  Every trial's kernel reads only its own row, so
    neither way changes a sample beyond the BLAS's rounding of a product, which
    may depend on where a trial's rows fall in it.

    A fixed policy's frozen rows F_S and phases Phi make both equivalent
    channels w^H K w_feed, K = F_S^T Phi F_S (r x r), so given the feed each
    is exactly CN(0, sigma^2), sigma^2 = ||K w_feed||^2, independently of the
    other.  K's singular vectors rotate the circular feed into another, so
    sigma^2 has the law of sum_i mu_i E_i, mu = `frozen_spectrum` and E_i =
    |w_i|^2 unit exponentials (Imhof 1961).  Those trials draw k + 2 unit
    exponentials, k = mu.size, and return sigma^2 E_bob and sigma^2 E_eve: the
    law of coloring all three links, at a sixth or less of the Philox draws.

    Greedy chooses its elements and phases from the feed and the legitimate
    link alone, so given those the eavesdropper's channel is exactly
    CN(0, ||F^T a||^2), a the selected, co-phased feed image.  Its trials draw
    and color two links and return that variance, and sigma^2 E_eve with E_eve
    the power of one more complex normal, as the eavesdropper's gain sample.
    Every policy returns sigma^2 as `var_eve`.
    """
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    m = corr.n_elements
    if not 1 <= m_on <= m:
        raise DomainError(f"m_on must be in [1, {m}], got {m_on}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    n_blocks = -(-trials // TRIALS_PER_BLOCK)
    r = corr.rank
    samples = np.empty(trials), np.empty(trials), np.empty(trials)
    local = threading.local()  # each thread's draw buffer and workspace, for every block it runs
    if policy == "greedy":  # feed and bob, link-major; the feed's column r is eve's normal
        buffer = (2, TRIALS_PER_BLOCK, r + 1), np.complex128
        step = max(1, min(CHUNK_TRIALS, CHUNK_ELEMENTS // m))

        def kernel(draws: np.ndarray, chunk: slice):
            return _greedy_chunk(draws[:, chunk], corr.factor, m_on, local.work)

    else:
        mu = frozen_spectrum(corr, policy, m_on, stream.seed)
        k = mu.size  # the feed's k exponentials, then bob's and eve's
        buffer = (TRIALS_PER_BLOCK, 1, k + 2), float
        step = TRIALS_PER_BLOCK

        def kernel(powers: np.ndarray, chunk: slice):
            variance = correlated_images_batch(powers[chunk, :, :k], mu[None, :])[:, 0, 0]
            return variance * powers[chunk, 0, k], variance * powers[chunk, 0, k + 1], variance

    def run(block: int):
        if not hasattr(local, "draws"):  # this thread's first block
            local.draws = np.empty(*buffer)
            local.work = _GreedyWorkspace(m, r, step) if policy == "greedy" else None
        draws = stream.draw_block(block, local.draws)
        # each chunk's first trial; the last block's stop early
        for start in range(0, min(TRIALS_PER_BLOCK, trials - block * TRIALS_PER_BLOCK), step):
            gains = kernel(draws, slice(start, start + step))
            offset = block * TRIALS_PER_BLOCK + start
            n = min(gains[0].size, trials - offset)
            for out, values in zip(samples, gains):
                out[offset:offset + n] = values[:n]

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    threads = min(max(workers, 2) if policy == "greedy" else workers, n_blocks, cpus)
    if threads > 1:  # map cancels the blocks not yet started when one fails
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(n_blocks)))
    else:  # one block, one usable CPU, or a fixed policy on one worker, whose block
        # is one short product, quicker than a handoff
        for block in range(n_blocks):
            run(block)
    return GainSamples(*samples)


def records_for_budget(gains: GainSamples, budget: LinkBudget,
                       rate_eve: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial legitimate SNR and the eavesdropper's rate: 1 / its mean SNR given the trial.

    The eavesdropper's SNR is exponential with that rate, so each trial's
    outage and capacity terms below are exact conditional expectations over
    it (conditional Monte Carlo).  The mean is clipped to the normal float
    range first, so the rate is finite: a mean past that range only moves
    terms that are already 0 or log(1 + SNR_bob) to rounding.  A `rate_eve`
    from an earlier call on the same gains, under a budget with the same
    eavesdropper SNR scale, is returned as it is.
    """
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):  # an eavesdropper mean past the float range is clipped
        snr_bob = budget.snr_scale("bob") * gains.g_bob
        if rate_eve is None:
            rate_eve = np.clip(budget.snr_scale("eve") * gains.var_eve, tiny, 1.0 / tiny)
            np.divide(1.0, rate_eve, out=rate_eve)
    if not math.isfinite(snr_bob.max()):
        raise DomainError("the legitimate SNR of a trial is past the floating-point range")
    return snr_bob, rate_eve


def estimate_sop(records: tuple[np.ndarray, np.ndarray], target: SecrecyTarget) -> MetricEstimate:
    """Mean over trials of P(secrecy capacity <= target | trial), CI clipped to [0, 1].

    A trial is in outage when the eavesdropper's exponential SNR reaches
    (1 + SNR_bob) / 2^R - 1, which it does with probability
    exp(-max(0, that) * rate).
    """
    snr_bob, rate_eve = records
    reach = 1.0 + snr_bob
    reach /= 2.0 ** target.rate_bits
    reach -= 1.0
    terms = np.maximum(reach, 0.0, out=reach)
    with np.errstate(over="ignore"):  # a reach beyond the float range has probability 0
        terms *= rate_eve
    est = MetricEstimate.for_mean(np.exp(np.negative(terms, out=terms), out=terms))
    return replace(est, ci_low=max(0.0, est.ci_low), ci_high=min(1.0, est.ci_high))


def estimate_asc(records: tuple[np.ndarray, np.ndarray],
                 s_eve: np.ndarray | None = None) -> MetricEstimate:
    """Mean over trials of E[secrecy capacity | trial], with a normal-approximation interval.

    For an exponential eavesdropper SNR of rate z and a legitimate SNR g,
    E[(ln(1 + g) - ln(1 + SNR_eve))^+] = ln(1 + g) - S(z) + e^(-g z) S((1 + g) z),
    S(x) = e^x E1(x) (Bloch et al., IEEE Trans. Inf. Theory 2008); the
    rounding of that difference is clipped at 0.  `s_eve` is S(z) of the
    records' rate when the caller has it already.
    """
    snr_bob, rate_eve = records
    with np.errstate(over="ignore"):  # S(inf) = 0 and e^(-inf) = 0
        far = 1.0 + snr_bob
        far *= rate_eve
        s_far = scaled_exp1(far)
        terms = np.multiply(snr_bob, rate_eve, out=far)  # S took what it needs of far
    np.exp(np.negative(terms, out=terms), out=terms)
    terms *= s_far
    terms -= scaled_exp1(rate_eve) if s_eve is None else s_eve
    terms += np.log1p(snr_bob, out=s_far)
    terms /= _LN2
    return MetricEstimate.for_mean(np.maximum(terms, 0.0, out=terms))


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between the empirical CDF and an analytic CDF.

    `cdf` is called on sorted samples and must return the CDF elementwise,
    each value a function of its own argument alone, nondecreasing up to
    KS_SLACK.  It sees every KS_STRIDE-th sorted sample and the last one
    first.  Between two of them, a and b, both one-sided distances are at
    most max((b + 1)/n - F(x_a), F(x_b) - a/n), so it then sees only the
    samples between those pairs whose bound reaches the largest distance
    found, less KS_SLACK.  The others cannot hold the maximum, so the
    statistic is the maximum over every sample, bit for bit.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < KS_MIN_SAMPLES:
        raise DomainError(f"KS diagnostic needs at least {KS_MIN_SAMPLES} samples")
    knots = np.append(np.arange(0, n - 1, KS_STRIDE), n - 1)
    theo = np.asarray(cdf(samples[knots]), dtype=float)
    distance = _ks_distance(knots, theo, n)
    bound = np.maximum((knots[1:] + 1.0) / n - theo[:-1], theo[1:] - knots[:-1] / n)
    hot = np.repeat(bound >= distance - KS_SLACK, np.diff(knots))  # samples 0 ... n - 2
    hot[knots[:-1]] = False
    inside = np.flatnonzero(hot)
    if inside.size:
        distance = max(distance,
                       _ks_distance(inside, np.asarray(cdf(samples[inside]), dtype=float), n))
    return float(distance)


def _ks_distance(index: np.ndarray, theo: np.ndarray, n: int) -> float:
    """The larger one-sided distance at sorted positions `index`, whose CDF values are `theo`."""
    return max(np.max((index + 1.0) / n - theo), np.max(theo - index / n))


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
    """Fits of the paper's reference, the first m_on elements at zero phase (trace form)."""
    return fit_laws(frozen_spectrum(corr, "fixed-uniform", m_on))


def _evaluate_point(config: ExperimentConfig, geometry: SurfaceGeometry, policy: str,
                    m_on: int, stream: int, ks: bool = True
                    ) -> tuple[tuple[GammaFit, ExpFit], GainSamples, tuple[float, float]]:
    """Build, fit and simulate one grid point on its named stream: its fits, gains and KS pair.

    A fixed-random row's fits are its own, any other row's `reference_fits`.
    The KS distances of the gains from them are nan when there are fewer than
    KS_MIN_SAMPLES trials: too few for the diagnostic, not for the row, and
    without `ks`, for a table that writes no KS column.  The "conventional"
    baseline, all ON, runs as greedy.  A failure raises its FrisecError.
    """
    corr = build_correlation(geometry)
    fit_b, fit_e = (fit_laws(frozen_spectrum(corr, policy, m_on, config.seed))
                    if policy == "fixed-random" else reference_fits(corr, m_on))
    gains = simulate_gains(corr, "greedy" if policy == "conventional" else policy, m_on,
                           config.trials, ChannelStream(config.seed, stream), config.workers)
    distances = (float("nan"), float("nan"))
    if ks and config.trials >= KS_MIN_SAMPLES:
        distances = (ks_statistic(gains.g_bob, lambda g: gamma_cdf(g, fit_b)),
                     ks_statistic(gains.g_eve, lambda g: exp_cdf(g, fit_e)))
    return (fit_b, fit_e), gains, distances


def _error_row(columns: Sequence[str], config: ExperimentConfig, exc, **cells) -> dict:
    """A row of nan cells whose status names the error, plus the cells known for it."""
    return (dict.fromkeys(columns, float("nan")) | cells
            | {"trials": config.trials, "seed": config.seed, "status": f"error: {exc}"})


def _point_rows(config: ExperimentConfig, sweep_var: str, grid: Sequence[tuple],
                geometry: SurfaceGeometry, policy: str, m_on: int, stream: int,
                ks: bool = True) -> list[dict]:
    """One point's row at each (sweep value, budget) of `grid`, or an error row where it fails.

    The budgets share the eavesdropper's, so the rows reuse its rate and S
    of it from the first budget whose records build; the gains die with the call.
    """
    labels = {"sweep_var": sweep_var, "policy": policy, "m_total": geometry.n_elements,
              "m_on": m_on}
    try:
        (fit_b, fit_e), gains, ks_pair = _evaluate_point(config, geometry, policy, m_on,
                                                          stream, ks)
    except FrisecError as exc:
        return [_error_row(SWEEP_COLUMNS, config, exc, sweep_value=value, **labels)
                for value, _ in grid]
    target = config.target()
    rate_eve = s_eve = None
    rows = []
    for value, budget in grid:
        try:
            records = records_for_budget(gains, budget, rate_eve)
            if s_eve is None:
                rate_eve, s_eve = records[1], scaled_exp1(records[1])
            asc = estimate_asc(records, s_eve)
            sop = estimate_sop(records, target)
            asc_bound = asc_upper_bound(fit_b, fit_e, budget)
            sop_bound = sop_lower_bound(fit_b, fit_e, budget, target)
        except FrisecError as exc:
            rows.append(_error_row(SWEEP_COLUMNS, config, exc, sweep_value=value, **labels))
            continue
        rows.append(labels | {
            "sweep_value": value, "asc_mc": asc.point, "asc_se": asc.std_error,
            "asc_ci_low": asc.ci_low, "asc_ci_high": asc.ci_high, "asc_bound": asc_bound,
            "asc_bound_negative": int(asc_bound < 0.0), "sop_mc": sop.point,
            "sop_se": sop.std_error, "sop_ci_low": sop.ci_low, "sop_ci_high": sop.ci_high,
            "sop_bound": sop_bound, "gamma_shape": fit_b.shape, "gamma_scale": fit_b.scale,
            "exp_rate": fit_e.rate, "ks_bob": ks_pair[0], "ks_eve": ks_pair[1],
            "trials": config.trials, "seed": config.seed, "status": "ok"})
    return rows


def sweep_snr(config: ExperimentConfig) -> list[dict]:
    """Metrics versus the legitimate receiver's average SNR (dB grid).

    At each grid point, one row for the configured policy and one for the
    conventional baseline; each point's rows are built before the next is simulated.
    """
    grid = config.snr_grid()
    by_point = [_point_rows(config, "avg_snr_bob_db", grid, *point) for point in (
        (config.fris_geometry(), config.policy, config.m_on, STREAM_FRIS_SNR),
        (config.conventional_geometry(), "conventional", config.conventional_m, STREAM_CONV_SNR))]
    return [row for at_snr in zip(*by_point) for row in at_snr]


def sweep_size(config: ExperimentConfig) -> list[dict]:
    """Metrics of the configured policy versus total element count at fixed active count.

    Every size keeps the configured aperture, so a larger count packs the
    same area more densely.  The conventional baseline is the
    `conventional_m`-element half-wavelength surface, as in `sweep_snr`; it
    is re-simulated with a fresh stream per point and has no dependence on
    the sweep value, so its rows should be flat up to Monte Carlo noise.
    """
    rows = []
    budget = config.budget()
    for point, m_total in enumerate(config.size_sweep):
        base = STREAM_SIZE_BASE + 2 * point
        for geometry, policy, m_on, stream in (
                (config.size_geometry(m_total), config.policy, config.m_on, base),
                (config.conventional_geometry(), "conventional", config.conventional_m,
                 base + 1)):
            rows += _point_rows(config, "m_total", [(m_total, budget)], geometry, policy, m_on,
                                stream)
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
    rows = []
    for index, m_on in enumerate(m_on_list):
        try:
            (fit_b, fit_e), gains, ks_pair = _evaluate_point(
                config, config.fris_geometry(), "fixed-uniform", m_on, STREAM_VALIDATE_BASE + index)
        except FrisecError as exc:
            rows.append(_error_row(VALIDATE_FIT_COLUMNS, config, exc, m_on=m_on))
            continue
        mean_b = float(gains.g_bob.mean())
        mean_e = float(gains.g_eve.mean())
        expected = fit_b.mean  # equals the eavesdropper mean 1/rate as well
        rows.append({
            "m_on": m_on, "trials": config.trials, "mean_g_bob": mean_b,
            "expected_mean": expected,
            "rel_err_bob": abs(mean_b - expected) / expected,
            "mean_g_eve": mean_e,
            "rel_err_eve": abs(mean_e - fit_e.mean) / fit_e.mean,
            "ks_bob": ks_pair[0], "ks_eve": ks_pair[1], "gamma_shape": fit_b.shape,
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

    Runs the fixed-uniform regime (the one the fits describe) through the
    sweep rows of `sweep_snr`.  For each grid point the outage criterion is
    MC >= bound - 2 SE; the capacity comparison records whether the closed
    form stayed above the simulated mean, which it need not in general (its
    second term is not a true bound), so violations are flagged rather than
    fatal.  Both flags are nan on an error row.
    """
    rows = []
    for row in _point_rows(config, "avg_snr_bob_db", config.snr_grid(), config.fris_geometry(),
                           "fixed-uniform", config.m_on, STREAM_BOUNDS, ks=False):
        row["avg_snr_bob_db"] = row["sweep_value"]
        row["sop_bound_ok"] = row["asc_bound_ok"] = float("nan")
        if row["status"] == "ok":
            row["sop_bound_ok"] = int(row["sop_mc"] >= row["sop_bound"] - 2.0 * row["sop_se"])
            row["asc_bound_ok"] = int(row["asc_bound"] >= row["asc_mc"])
        rows.append({name: row[name] for name in VALIDATE_BOUND_COLUMNS})
    return rows


# ---------------------------------------------------------------------------
# CSV and manifest output
# ---------------------------------------------------------------------------

def _format_cell(value):
    return format(float(value), ".17e") if isinstance(value, (float, np.floating)) else value


def _write_csv(fh, rows: Iterable[Iterable]) -> None:
    """The one CSV dialect: `,`, `\n` ends, a cell holding `,` or `"` quoted (RFC 4180)."""
    csv.writer(fh, lineterminator="\n").writerows(map(_format_cell, row) for row in rows)


def rows_to_csv(rows: Iterable[dict], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    _write_csv(buf, [columns, *([row[col] for col in columns] for row in rows)])
    return buf.getvalue()


def _write_manifest(path: str, config: ExperimentConfig, command: str, **entries) -> None:
    """Write `path`.manifest.json: the command, resolved config, versions, time and `entries`."""
    manifest = {"command": command, "config": asdict(config), "version": __version__,
                "numpy_version": np.__version__, "written_unix_time": time.time(), **entries}
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_results(path: str, rows: list[dict], columns: Sequence[str],
                  config: ExperimentConfig, command: str) -> None:
    """Write the CSV (timestamp-free, byte-reproducible) plus the manifest of `command`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows, columns))
    notes = {
        "element_distance": "both grid coordinate differences enter squared "
                            "(true planar Euclidean separation)",
        "sampler": {
            "method": "rank-reduced (Karhunen-Loeve): r normals per link colored by "
                      "the M x r eigen-factor U_r Lambda_r^(1/2); r counts the "
                      "eigenvalues >= eigen_clamp * lambda_max; the eigenpairs come "
                      "from one eigendecomposition: of the 2n x 2n Gram G^T G of n "
                      "plane waves G = [cos(k u_j . p), sin(k u_j . p)] / sqrt(n) "
                      "at angles pi j / n, G G^T = J to rounding, with factor G V_r, "
                      "when 2n < M; of J itself otherwise",
            "frozen_configuration": "conditional: fixed policies draw k + 2 unit exponentials "
                                    "E, k = min(m_on, r) the bound on the rank of K = F_S^T "
                                    "Phi F_S; gain sigma^2 E_receiver, sigma^2 = sum_i mu_i "
                                    "E_i, mu the k largest squared singular values of K",
            "eavesdropper": "conditional Monte Carlo: no policy looks at the eavesdropper, "
                            "so given a trial its channel is CN(0, sigma^2); greedy draws "
                            "and colors only the feed and legitimate links, with sigma^2 = "
                            "||F^T a||^2 for the selected, co-phased feed image a, and "
                            "sop_mc and asc_mc are means of each trial's exact outage "
                            "probability and mean secrecy capacity over that law",
            "coloring": "greedy colors the feed and legitimate links of max(1, "
                        "min(chunk_trials, chunk_elements // M)) trials of a Philox "
                        "block at a time, M the pool's element count, by one real "
                        "product of their four real planes (feed re, feed im, bob re, "
                        "bob im) with the real M x r factor; fixed policies weight a "
                        "whole block's exponentials by the row mu in one product",
            "threads": "greedy runs its blocks on min(max(workers, 2), blocks, usable "
                       "CPUs) threads and the fixed policies on min(workers, blocks, "
                       "usable CPUs), one thread being the calling one, and a block's "
                       "draws depend on (seed, stream, block) alone",
            "eigen_clamp": EIGEN_CLAMP,
            "trials_per_block": TRIALS_PER_BLOCK,
            "chunk_trials": CHUNK_TRIALS,
            "chunk_elements": CHUNK_ELEMENTS,
        },
        "stream_registry": {
            "fris_snr": STREAM_FRIS_SNR, "conventional_snr": STREAM_CONV_SNR,
            "bounds": STREAM_BOUNDS, "validate_base": STREAM_VALIDATE_BASE,
            "size_base": STREAM_SIZE_BASE,
        },
        "blas": _blas_note(),
    }
    _write_manifest(path, config, command, rows=len(rows), notes=notes)


def _blas_note() -> dict:
    """The BLAS build and thread counts that the CSV's last bits may depend on.

    `threads` is OpenBLAS's count outside the engine, `engine_threads` the
    count the engine's products ran at (None where numpy links no OpenBLAS).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    threads = blas_threads()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "engine_threads": None if threads is None else 1}


def dump_correlation_csv(config: ExperimentConfig, path: str) -> dict:
    """Write J row-major at full precision, gathered a row at a time so J is never whole."""
    corr = build_correlation(config.fris_geometry())
    everything = np.arange(corr.n_elements)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, (_gather(corr.table, [i], everything)[0] for i in everything))
    diag = {"eigen_floor": corr.eigen_floor, "clamped_mass": corr.clamped_mass,
            "n_elements": corr.n_elements, "rank": corr.rank}
    _write_manifest(path, config, "dump-correlation", diagnostics=diag)
    return diag
