"""Fading generation, spatial coloring, path loss, and the link budget.

A trial has up to three links (feed, legitimate, eavesdropper).  A link draws
r i.i.d. circular complex Gaussians with unit variance, one per kept
eigenpair of the M-element correlation matrix J, and its spatially correlated
image is the product with the M x r eigen-factor F = U_r Lambda_r^{1/2}.
Since F F^T = J up to the dropped rounding-noise eigenvalues, the image has
exactly the law of J^{1/2} h with h of length M, at r/M of the draws and of
the coloring work (Karhunen-Loeve expansion).  `draw_block` lays out
`links` links of `m` normals per trial: the adaptive policies draw the three
links of r normals, the frozen-configuration policies one link of r + 2
normals (the feed's r and one per receiver, see `harness.simulate_gains`).
Randomness is counter-based (Philox): a draw depends only on (seed, stream,
trial index), never on how trials are batched across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    def _raw_block(self, m: int, block: int, links: int) -> np.ndarray:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        bitgen = np.random.Philox(key=key, counter=np.array([0, 0, block, 0], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        flat = rng.standard_normal(TRIALS_PER_BLOCK * links * m * 2)
        return flat.reshape(TRIALS_PER_BLOCK, links, m, 2)

    def draw_block(self, m: int, block: int, links: int = 3) -> np.ndarray:
        """(TRIALS_PER_BLOCK, links, m) complex fading draws for one counter block.

        `m` is the number of normals per link.  With the default three links,
        axis 1 orders them as (feed, bob, eve) and `m` is the rank of the
        factor that colors them.
        """
        raw = self._raw_block(m, block, links)
        raw /= math.sqrt(2.0)
        return raw.view(np.complex128)[..., 0]


def correlated_images_batch(draws: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Batched F @ w for a (trials, links, r) draw block and an (elements, r) factor.

    `rows` may be a row slice of the factor when only a subset of elements
    is needed, or any other real matrix with r columns.  Returns
    (trials, links, elements) complex.  The factor is real,
    so a single real GEMM maps the interleaved (re, im) pairs of the draws
    through a block matrix that applies `rows` to each part, and its output
    already is the complex result.
    """
    n, links, r = draws.shape
    e = rows.shape[0]
    pairs = np.ascontiguousarray(draws, dtype=np.complex128).reshape(n * links, r)
    pairs = pairs.view(np.float64)  # (trials * links, 2r): re, im of each draw
    block = np.zeros((2 * r, 2 * e))
    block[0::2, 0::2] = rows.T
    block[1::2, 1::2] = rows.T
    return (pairs @ block).view(np.complex128).reshape(n, links, e)


def path_loss(ref_gain: float, exponent: float, distance_m: float) -> float:
    """Distance-power-law gain: ref_gain * d^(-exponent)."""
    if not distance_m > 0.0:
        raise DomainError(f"distance must be > 0 m, got {distance_m}")
    try:
        return ref_gain * distance_m ** (-exponent)
    except OverflowError:
        raise DomainError(f"path loss over {distance_m} m with exponent {exponent} "
                          "overflows") from None


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
        if not self.ref_gain > 0:
            raise DomainError("path-loss reference gain must be > 0")
        for name in ("dist_feed_m", "dist_bob_m", "dist_eve_m"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        if not self.pl_exponent > 0:
            raise DomainError("path-loss exponent must be > 0")
        if not self.tx_power_w > 0:
            raise DomainError("transmit power must be > 0")
        if not (self.noise_bob_w > 0 and self.noise_eve_w > 0):
            raise DomainError("noise powers must be > 0")
        for receiver in ("bob", "eve"):
            scale = self.snr_scale(receiver)
            if not 0.0 < scale < math.inf:
                raise DomainError(f"{receiver}'s SNR per unit channel gain is {scale!r}, "
                                  "outside the floating-point range")

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
        return replace(self, noise_bob_w=self.tx_power_w / snr_linear)
