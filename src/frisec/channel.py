"""Fading generation, spatial coloring, path loss, and the link budget.

A trial has three links (feed, legitimate, eavesdropper).  A link draws
r i.i.d. circular complex Gaussians with unit variance, one per kept
eigenpair of the M-element correlation matrix J, and its spatially correlated
image is their product with the real M x r eigen-factor F = U_r Lambda_r^{1/2}.
Since F F^T = J up to the dropped rounding-noise eigenvalues, the image has
exactly the law of J^{1/2} h with h of length M, at r/M of the draws and of
the coloring work (Karhunen-Loeve expansion).  F is real, so the engine
colors the real and imaginary planes of the draws by one real product.
Randomness is counter-based (Philox): a block's draws depend only on (seed,
stream, block) and fill the caller's buffer in memory order: the thread that
draws them changes no bit, and neither does the shape of a buffer.
The engine runs its matrix products inside `one_blas_thread`, so each runs
on the thread that calls it: the engine's threads are the ones that run its
blocks.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

#: trials per Philox counter block; fixed so batching cannot change results.
TRIALS_PER_BLOCK = 1024


@dataclass(frozen=True)
class ChannelStream:
    """Addressable source of channel randomness.

    `seed` (the experiment seed) and `stream` (one per independent use) are
    the Philox key, each an integer in [0, 2**64), so no two pairs alias.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not (isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 64):
                raise DomainError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def draw_block(self, block: int, out: np.ndarray) -> np.ndarray:
        """Fill the C-contiguous `out` with Philox block `block`'s draws in memory order.

        complex128 takes unit circular normals (channel amplitudes), float64 unit
        exponentials (channel powers), the law of |w|^2 of such a w.  Returns `out`.
        """
        if not out.flags.c_contiguous or out.dtype not in (np.complex128, np.float64):
            raise DomainError("draw_block fills a C-contiguous complex128 or float64 array, "
                              f"got {out.dtype}, C-contiguous {out.flags.c_contiguous}")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        bitgen = np.random.Philox(key=key, counter=np.array([0, 0, block, 0], dtype=np.uint64))
        if out.dtype == np.float64:
            np.random.Generator(bitgen).standard_exponential(out=out.reshape(-1))
            return out
        raw = np.random.Generator(bitgen).standard_normal(out=out.view(float).reshape(-1))
        raw /= math.sqrt(2.0)
        return out


def correlated_images_batch(draws: np.ndarray, rows: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Batched F @ w for a 3-D block of r-vectors w and an (outputs, r) matrix F.

    Returns the block's two leading axes by len(rows), one output per row of
    `rows`, by one product, written into `out` when it is given.
    """
    a, b, r = draws.shape
    flat = None if out is None else out.reshape(a * b, rows.shape[0])
    return np.matmul(draws.reshape(a * b, r), rows.T, out=flat).reshape(a, b, rows.shape[0])


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions as numpy links them, or None.

    The symbols are looked up through numpy's linear-algebra extension, so
    they are those of the library that runs numpy's products, under the
    names of numpy's bundled build and of a system OpenBLAS.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        get = getattr(lib, name.format("get_num_threads"), None)
        set_ = getattr(lib, name.format("set_num_threads"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None where numpy links no OpenBLAS."""
    pair = _openblas_threads()
    return None if pair is None else pair[0]()


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 1


@contextlib.contextmanager
def one_blas_thread():
    """Run OpenBLAS on one thread, so each product runs on the thread calling it.

    The count is process-wide: the first of nested or concurrent entries
    saves it and sets 1, and the last exit, by return or by exception,
    restores it.  Left to itself, OpenBLAS splits a product over the cores
    and then lets its idle threads spin, which costs CPU and, under a pool
    of workers, the cores the workers need.  Does nothing where numpy links
    no OpenBLAS.
    """
    global _blas_depth, _blas_saved
    pair = _openblas_threads()
    if pair is None:
        yield
        return
    get, set_ = pair
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


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
