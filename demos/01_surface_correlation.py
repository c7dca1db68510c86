"""Surface geometry and spatial correlation.

Builds the correlation matrix of a dense reflective surface, shows how the
inter-element spacing drives the correlation profile, and inspects the
eigenvalue spectrum that the channel generator's eigen-factor is built from.
"""

import numpy as np

from frisec import SurfaceGeometry, build_correlation

WAVELENGTH = 299792458.0 / 2.4e9  # 2.4 GHz carrier

# A 10x10 surface packed into a 3-wavelength square aperture: spacing is
# 0.3 wavelengths, well inside the half-wavelength "independence" distance.
geometry = SurfaceGeometry(m_x=10, m_z=10, width_x=3.0, width_z=3.0,
                           wavelength=WAVELENGTH)
print(f"spacing: {geometry.spacing_x / WAVELENGTH:.3f} wavelengths")

# J is kept as its table of J0 over (row, column) offsets: element i sits in
# row i // m_x and column i % m_x, so J[i, l] is the table at their offsets
corr = build_correlation(geometry)
rows, cols = np.divmod(np.arange(corr.n_elements), geometry.m_x)
matrix = corr.table[np.abs(rows[:, None] - rows), np.abs(cols[:, None] - cols)]
print(f"correlation of horizontal neighbors: {matrix[0, 1]:+.4f}")
print(f"correlation of diagonal neighbors:   {matrix[0, 11]:+.4f}")
print(f"correlation across the aperture:     {matrix[0, 99]:+.4f}")

# distance and correlation profile along one row
row = geometry.spacing_x * np.arange(5) / WAVELENGTH
print("distances along a row (wavelengths):", np.round(row, 3))
print("correlation along a row:            ", np.round(matrix[0, :5], 3))

# the spectrum decays fast for dense packing: most of the energy lives in a
# few spatial modes, which is exactly what limits the diversity a selection
# policy can harvest
eigvals = np.linalg.eigvalsh(matrix)[::-1]
print(f"\neigenvalues: largest {eigvals[0]:.2f}, "
      f"90% of energy in the top {int(np.searchsorted(np.cumsum(eigvals) / eigvals.sum(), 0.9)) + 1} of {eigvals.size}")
print(f"numerical clamping diagnostics: floor {corr.eigen_floor:.3e}, "
      f"clamped mass {corr.clamped_mass:.3e}")

# the kept eigenpairs form the M x r factor that colors the fading draws:
# each link needs r normals per trial instead of M, and the factor
# reproduces the matrix
residual = np.linalg.norm(corr.factor @ corr.factor.T - matrix)
print(f"sampler rank: {corr.rank} normals per link for {corr.n_elements} elements")
print(f"factor reconstruction residual: {residual:.2e}")

# widen the aperture at the same element count and correlation collapses
wide = build_correlation(SurfaceGeometry(10, 10, 5.0, 5.0, WAVELENGTH))
print(f"\nneighbor correlation at half-wavelength spacing: {wide.table[0, 1]:+.4f}")
