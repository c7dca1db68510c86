"""The numerical kernel underneath the analytics.

Demonstrates the three special functions the closed forms rest on: Bessel J0
against its defining integral, the regularized incomplete gamma, and the
Meijer G kernel through its closed reduction (the test suite checks that
reduction against a Mellin-Barnes contour integration in tests/oracles.py).
"""

import math

import numpy as np

from frisec import (QuadratureSpec, bessel_j0, integrate_semi_infinite,
                    meijer_g_2122, reg_lower_inc_gamma)

# --- Bessel J0: series / recurrence / asymptotic branches all agree with the
#     cosine-integral representation
print("J0 vs defining integral:")
for x in (0.5, 2.404825557695773, math.pi, 12.0, 25.0, 400.0):
    nodes = max(64, int(1.5 * x) + 40)
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    ref = float(np.mean(np.cos(x * np.sin(theta))))
    print(f"  J0({x:10.4f}) = {bessel_j0(x):+.12f}   (integral {ref:+.12f})")

# --- regularized lower incomplete gamma: the CDF family of the fitted
#     channel-gain law
print("\nP(k, x) examples:")
print(f"  P(1, ln 2)   = {reg_lower_inc_gamma(1.0, math.log(2)):.12f}  (exponential median)")
print(f"  P(2.5, 2.5)  = {reg_lower_inc_gamma(2.5, 2.5):.12f}")
print(f"  P(50, 45)    = {reg_lower_inc_gamma(50.0, 45.0):.12f}")
print(f"  P(2.5, [1, 2.5, 6]) = {reg_lower_inc_gamma(2.5, np.array([1.0, 2.5, 6.0]))}"
      "  (elementwise over arrays)")

# --- the Meijer G kernel behind the outage closed form, through the analytic
#     reduction Gamma(k) z^-1 (1+z)^-k
print("\nMeijer G kernel:")
for z, k in ((1.0, 1.0), (10.0, 0.5), (250.0, 4.0), (1e-4, 8.0)):
    print(f"  z={z:8.4g} k={k:4.1f}: {meijer_g_2122(z, k):.10e}")

# --- generic quadrature on [0, inf), used by the closed forms' oracles
print("\nquadrature sanity:")
spec = QuadratureSpec()
print(f"  int e^-x dx        = {integrate_semi_infinite(lambda x: np.exp(-x), spec):.12f}")
print(f"  int x e^-x dx      = {integrate_semi_infinite(lambda x: x * np.exp(-x), spec):.12f}")
moments = integrate_semi_infinite(lambda x: np.exp(-x)[:, None] * x[:, None] ** np.arange(4), spec)
print(f"  int x^n e^-x dx, n = 0..3, on one shared mesh = {moments}  (n!)")
