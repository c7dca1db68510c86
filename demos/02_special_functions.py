"""The numerical kernel underneath the analytics.

Demonstrates the three special functions the closed forms rest on: Bessel J0
against its defining integral, the regularized incomplete gamma, and the
Meijer G kernel of the paper's outage bound.  The library never evaluates
that kernel: its closed reduction Gamma(k) z^-1 (1+z)^-k leaves the outage
bound (1+z)^-k, which `sop_bound_from_ratio` computes directly, and the
demo prints the kernel from it (the test suite checks the reduction against
a Mellin-Barnes contour integration in tests/oracles.py).
"""

import math

import numpy as np

from frisec import bessel_j0, integrate_semi_infinite, reg_lower_inc_gamma
from frisec.secrecy import sop_bound_from_ratio

# --- Bessel J0: the library's trapezoidal rule on the nodes pi j / n agrees
#     with the midpoint rule of the same cosine integral
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
#     reduction G = Gamma(k) z^-1 (1+z)^-k; the bound itself is z G / Gamma(k)
print("\nMeijer G kernel from the outage bound (1+z)^-k:")
for z, k in ((1.0, 1.0), (10.0, 0.5), (250.0, 4.0), (1e-4, 8.0)):
    bound = sop_bound_from_ratio(k, z)
    print(f"  z={z:8.4g} k={k:4.1f}: (1+z)^-k = {bound:.10e}, "
          f"G = {math.gamma(k) / z * bound:.10e}")

# --- generic quadrature on [0, inf), used by the closed forms' oracles, at
#     its default tolerances abs_tol=1e-12 and rel_tol=1e-10 (both keywords)
print("\nquadrature sanity:")
print(f"  int e^-x dx        = {integrate_semi_infinite(lambda x: np.exp(-x)):.12f}")
print(f"  int x e^-x dx      = {integrate_semi_infinite(lambda x: x * np.exp(-x)):.12f}")
moments = integrate_semi_infinite(lambda x: np.exp(-x)[:, None] * x[:, None] ** np.arange(4))
print(f"  int x^n e^-x dx, n = 0..3, on one shared mesh = {moments}  (n!)")
