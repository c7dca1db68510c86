"""Fading generation, spatial coloring, path loss, and the link budget.

A trial has three links (feed, legitimate, eavesdropper).  A link draws
r i.i.d. circular complex Gaussians with unit variance, one per kept
eigenpair of the M-element correlation matrix J, and its spatially correlated
image is their product with the real M x r eigen-factor F = U_r Lambda_r^{1/2}.
Since F F^T = J up to the dropped rounding-noise eigenvalues, the image has
exactly the law of J^{1/2} h with h of length M, at r/M of the draws and of
the coloring work (Karhunen-Loeve expansion).  F is real, so the engine
colors the real and imaginary planes of the draws by one real product.  No
policy looks at the eavesdropper's link, so given the other two its channel
is one circular normal of a variance the trial fixes, and no policy colors it.
`draw_block` lays out `m` draws per link and trial: the adaptive policy
draws the feed's and the legitimate link's r complex normals and one more
complex normal per trial, whose power is the eavesdropper's unit
exponential; the frozen-configuration policies, with `power`, draw one link
of k + 2 real unit exponentials, the powers |w|^2 of the feed's normals
along the k = min(m_on, r) singular vectors of the configuration's cascade
that its rank allows, and of one normal per receiver (see
`harness.simulate_gains`).
Randomness is counter-based (Philox): a draw depends only on (seed, stream,
trial index), never on how trials are batched across threads, on which
thread draws them or on the buffer they are drawn into.
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

    `seed` is the experiment seed (64-bit); `stream` distinguishes independent
    uses (one per policy/geometry/sweep-point as the caller sees fit).
    """

    seed: int
    stream: int = 0

    def draw_block(self, m: int, block: int, power: bool = False,
                   out: np.ndarray | None = None) -> np.ndarray:
        """(2, TRIALS_PER_BLOCK, m + 1) complex fading draws, or (TRIALS_PER_BLOCK, 1, m) powers.

        `block` is the Philox counter block and `m` the draws per link.  Axis 0
        orders the two colored links as (feed, bob), link-major, and their
        first `m` columns are the normals that the rank-`m` factor colors.
        Column `m` of the feed holds one more unit complex normal w per trial,
        the eavesdropper's whitened channel, whose power |w|^2 is a unit
        exponential; column `m` of bob is not used.  With `power` the one
        link holds float64 unit exponentials, the law of |w|^2 of such a w.
        The draws go into `out`, a C-contiguous array of the returned shape
        and dtype, when it is given, and are the same bits either way.
        """
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        bitgen = np.random.Philox(key=key, counter=np.array([0, 0, block, 0], dtype=np.uint64))
        shape = (TRIALS_PER_BLOCK, 1, m) if power else (2, TRIALS_PER_BLOCK, m + 1)
        dtype = np.dtype(float if power else np.complex128)
        if out is None:
            out = np.empty(shape, dtype)
        elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
            raise DomainError(f"draw_block writes a C-contiguous {dtype} array of shape "
                              f"{shape}, got {out.dtype} {out.shape}")
        if power:
            return np.random.Generator(bitgen).standard_exponential(out=out)
        raw = np.random.Generator(bitgen).standard_normal(out=out.view(float).reshape(-1))
        raw /= math.sqrt(2.0)
        return out


def correlated_images_batch(draws: np.ndarray, rows: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Batched F @ w for a 3-D block of r-vectors and an (outputs, r) matrix.

    Each row of `rows` gives one output: the real M x r eigen-factor colors
    greedy's (4, n, r) real planes (feed re, feed im, bob re, bob im) of
    complex normals into (4, n, M) planes of element images, a frozen
    configuration's one row mu weights real unit exponentials into its
    channel variance sum mu_i E_i.  Returns the block's two leading axes by
    len(rows), by one product, written into `out` when it is given.
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
