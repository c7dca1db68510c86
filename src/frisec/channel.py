"""Fading generation, spatial coloring, path loss, and the link budget.

The three per-trial fading vectors (feed link, legitimate link, eavesdropper
link) are i.i.d. circular complex Gaussian with unit per-entry variance; the
spatially correlated images are their products with the correlation square
root.  Randomness is counter-based (Philox): a draw depends only on
(seed, stream, trial index), never on how trials are batched across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: trials per Philox counter block; fixed so batching cannot change results.
TRIALS_PER_BLOCK = 1024


@dataclass(frozen=True)
class ChannelStream:
    """Addressable source of channel randomness.

    `seed` is the experiment seed (64-bit); `stream` distinguishes independent
    uses (one per policy/geometry/sweep-point as the caller sees fit).
    """

    seed: int
    stream: int = 0

    def _raw_block(self, m: int, block: int) -> np.ndarray:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        bitgen = np.random.Philox(key=key, counter=np.array([0, 0, block, 0], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        flat = rng.standard_normal(TRIALS_PER_BLOCK * 3 * m * 2)
        return flat.reshape(TRIALS_PER_BLOCK, 3, m, 2)

    def draw_block(self, m: int, block: int) -> np.ndarray:
        """(TRIALS_PER_BLOCK, 3, m) complex fading draws for one counter block.

        Axis 1 orders the links as (feed, bob, eve).
        """
        raw = self._raw_block(m, block)
        return (raw[..., 0] + 1j * raw[..., 1]) / math.sqrt(2.0)


def correlated_images_batch(draws: np.ndarray, j_sqrt_rows: np.ndarray) -> np.ndarray:
    """Batched J^{1/2} @ h for a (trials, 3, m) draw block.

    `j_sqrt_rows` may be a row slice of the square root when only a subset of
    output entries is needed.  Returns (trials, 3, rows) complex.  The matrix
    is real, so the product is formed as two real GEMMs on contiguous parts.
    """
    n, three, m = draws.shape
    stacked = draws.reshape(n * three, m)
    re = np.ascontiguousarray(stacked.real)
    im = np.ascontiguousarray(stacked.imag)
    out = re @ j_sqrt_rows.T + 1j * (im @ j_sqrt_rows.T)
    return out.reshape(n, three, j_sqrt_rows.shape[0])


def path_loss(ref_gain: float, exponent: float, distance_m: float) -> float:
    """Distance-power-law gain: ref_gain * d^(-exponent)."""
    if not distance_m > 0.0:
        raise DomainError(f"distance must be > 0 m, got {distance_m}")
    return ref_gain * distance_m ** (-exponent)


@dataclass(frozen=True)
class LinkBudget:
    """Large-scale budget: path-loss law, node distances, powers (all linear).

    dB/dBm conversion belongs to configuration parsing; everything here is
    watts and dimensionless gains.
    """

    ref_gain: float          # gain at 1 m
    pl_exponent: float
    dist_feed_m: float       # base station -> surface
    dist_bob_m: float        # surface -> legitimate receiver
    dist_eve_m: float        # surface -> eavesdropper
    tx_power_w: float
    noise_bob_w: float
    noise_eve_w: float

    def __post_init__(self):
        for name in ("dist_feed_m", "dist_bob_m", "dist_eve_m"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        if not self.pl_exponent > 0:
            raise DomainError("path-loss exponent must be > 0")
        if not self.tx_power_w > 0:
            raise DomainError("transmit power must be > 0")
        if not (self.noise_bob_w > 0 and self.noise_eve_w > 0):
            raise DomainError("noise powers must be > 0")

    @property
    def loss_feed(self) -> float:
        return path_loss(self.ref_gain, self.pl_exponent, self.dist_feed_m)

    @property
    def loss_bob(self) -> float:
        return path_loss(self.ref_gain, self.pl_exponent, self.dist_bob_m)

    @property
    def loss_eve(self) -> float:
        return path_loss(self.ref_gain, self.pl_exponent, self.dist_eve_m)

    @property
    def avg_snr_bob(self) -> float:
        """Average transmit SNR toward the legitimate receiver, P / noise."""
        return self.tx_power_w / self.noise_bob_w

    @property
    def avg_snr_eve(self) -> float:
        return self.tx_power_w / self.noise_eve_w

    def snr_scale(self, receiver: str) -> float:
        """Combined factor multiplying the channel power gain in the SNR."""
        if receiver == "bob":
            return self.avg_snr_bob * self.loss_feed * self.loss_bob
        if receiver == "eve":
            return self.avg_snr_eve * self.loss_feed * self.loss_eve
        raise DomainError(f"receiver must be 'bob' or 'eve', got {receiver!r}")

    def with_avg_snr_bob(self, snr_linear: float) -> "LinkBudget":
        """Same budget with Bob's average SNR pinned (noise re-derived)."""
        if not snr_linear > 0:
            raise DomainError("average SNR must be > 0")
        return LinkBudget(
            ref_gain=self.ref_gain, pl_exponent=self.pl_exponent,
            dist_feed_m=self.dist_feed_m, dist_bob_m=self.dist_bob_m,
            dist_eve_m=self.dist_eve_m, tx_power_w=self.tx_power_w,
            noise_bob_w=self.tx_power_w / snr_linear, noise_eve_w=self.noise_eve_w,
        )
