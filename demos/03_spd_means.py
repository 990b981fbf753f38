"""SPD matrix means and the closed-form symmetrized log-det centroid.

The matrix geometric mean X#Y is simultaneously the trace-metric geodesic
midpoint, the Riccati solution of Z X^{-1} Z = Y, and the limit of the
arithmetic-harmonic double sequence, which is the Gauss-Bregman center of the
centered normals N(0, X) and N(0, Y).  The symmetrized log-det centroid of a
weighted SPD set is A#H for the arithmetic and harmonic means A and H.
"""

import numpy as np

from jeffreys_centers import (
    GaussianParam,
    SPDMatrix,
    ToleranceConfig,
    gb_center_mvn,
    geometric_mean,
    sld_centroid,
    symmetrized_logdet,
    trace_metric_distance,
)

rng = np.random.default_rng(7)


def rand_spd(d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return SPDMatrix((q * rng.uniform(0.5, 2.0, size=d)) @ q.T)


x, y = rand_spd(3), rand_spd(3)
z = geometric_mean(x, y)
print("matrix geometric mean Z = X#Y (d=3):")
print(np.array2string(z.entries, precision=6))
riccati = np.linalg.norm(z.entries @ np.linalg.inv(x.entries) @ z.entries - y.entries)
print(f"  Riccati residual |Z X^-1 Z - Y|_F  = {riccati:.3e}")
print(f"  rho(X, Z) = {trace_metric_distance(x, z):.12f}")
print(f"  rho(Z, Y) = {trace_metric_distance(z, y):.12f}   (geodesic midpoint)")

# On zero-mean normals the natural average is the harmonic mean of the
# covariances and the moment average their arithmetic mean.
centered = [GaussianParam(np.zeros(3), x), GaussianParam(np.zeros(3), y)]
limit, diag = gb_center_mvn(centered, None, ToleranceConfig(rel_tol=1e-12, max_iter=300))
print(f"\narithmetic-harmonic double sequence (GB of N(0,X), N(0,Y)): "
      f"{diag.iterations} iterations, final gap {diag.final_gap:.2e}")
print(f"  |AH limit - X#Y|_F = {np.linalg.norm(limit.cov.entries - z.entries):.3e}")
harm = 2.0 * np.linalg.inv(np.linalg.inv(x.entries) + np.linalg.inv(y.entries))
first_step = geometric_mean(SPDMatrix(0.5 * (x.entries + y.entries)), SPDMatrix(harm))
print(f"  first-step invariance residual G(A,H)=G((A+H)/2, 2(A^-1+H^-1)^-1): "
      f"{np.linalg.norm(first_step.entries - z.entries):.3e}")

mats = [rand_spd(3) for _ in range(5)]
w = rng.uniform(0.2, 1.0, size=5)
w /= w.sum()
c = sld_centroid(mats, w)
print("\nsymmetrized log-det centroid of 5 weighted SPD matrices:")
print(np.array2string(c.entries, precision=6))
print(f"  loss sum_i w_i S_ld(C, P_i)  = "
      f"{sum(wi * symmetrized_logdet(c, p) for wi, p in zip(w, mats)):.9f}")
# the loss gradient H^-1 - C^-1 A C^-1 vanishes: C is the Riccati solution C H^-1 C = A
arith = sum(wi * p.entries for wi, p in zip(w, mats))
harm_inv = sum(wi * np.linalg.inv(p.entries) for wi, p in zip(w, mats))
c_inv = np.linalg.inv(c.entries)
print(f"  loss gradient |H^-1 - C^-1 A C^-1|_F = {np.linalg.norm(harm_inv - c_inv @ arith @ c_inv):.3e}")

# the centroid beats nudged copies of itself
nudge = rng.normal(size=(3, 3)) * 1e-2
nudged = SPDMatrix(c.entries + nudge + nudge.T)
loss_c = sum(wi * symmetrized_logdet(c, p) for wi, p in zip(w, mats))
loss_n = sum(wi * symmetrized_logdet(nudged, p) for wi, p in zip(w, mats))
print(f"  nudged candidate loss         = {loss_n:.9f}  (centroid wins by "
      f"{loss_n - loss_c:.2e})")
