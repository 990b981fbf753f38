"""Gaussian centers: sided KL centroids, JFR midpoint, inductive GB center.

For same-mean sets all three coincide with the closed-form Jeffreys centroid.
For distinct means they split: the JFR center is a single Fisher-Rao midpoint
computed through the (2d+1)-dimensional SPD embedding, while the GB center
iterates dual midpoints in the natural/moment parameterizations.
"""

import numpy as np

from jeffreys_centers import (
    GaussianParam,
    SPDMatrix,
    ToleranceConfig,
    gb_center_mvn,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jeffreys_mvn,
    jfr_center_mvn,
    sided_kl_centroids_mvn,
)

tight = ToleranceConfig(rel_tol=1e-12, max_iter=200)

p0 = GaussianParam([0.0, 0.0], SPDMatrix([[1.0, 0.3], [0.3, 0.8]]))
p1 = GaussianParam([2.0, 1.0], SPDMatrix([[1.5, -0.4], [-0.4, 0.6]]))
gs = [p0, p1]

r, l = sided_kl_centroids_mvn(gs)
print("sided KL centroids of two bivariate normals:")
print(f"  right (natural mean): mu={r.mean}, cov diag={np.diag(r.cov.entries)}")
print(f"  left  (moment mean) : mu={l.mean}, cov diag={np.diag(l.cov.entries)}")

jfr = jfr_center_mvn(gs)
gb, diag = gb_center_mvn(gs, tol=tight)
print(f"\nJFR center : mu={np.round(jfr.mean, 6)}")
print(np.array2string(jfr.cov.entries, precision=6))
print(f"GB center  : mu={np.round(gb.mean, 6)}  "
      f"({diag.iterations} double-sequence iterations, gap {diag.final_gap:.2e})")
print(np.array2string(gb.cov.entries, precision=6))
print(f"Jeffreys divergence between the two proxies: {jeffreys_mvn(jfr, gb):.3e}")
print(f"  loss at JFR {jeffreys_loss_mvn(gs, None, jfr):.10f}")
print(f"  loss at GB  {jeffreys_loss_mvn(gs, None, gb):.10f}")

# same-mean set: everything collapses to the closed form A#H
rng = np.random.default_rng(1)
covs = []
for _ in range(4):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    covs.append(SPDMatrix((q * rng.uniform(0.5, 2.0, size=3)) @ q.T))
mu = np.array([1.0, -2.0, 0.5])
centered = [GaussianParam(mu, c) for c in covs]
closed = jeffreys_centroid_centered(covs, mean=mu)
jfr_c = jfr_center_mvn(centered)
gb_c, _ = gb_center_mvn(centered, tol=tight)
print("\nsame-mean set of 4 trivariate normals: max covariance gaps to A#H")
print(f"  JFR vs closed form {np.abs(jfr_c.cov.entries - closed.cov.entries).max():.2e}")
print(f"  GB  vs closed form {np.abs(gb_c.cov.entries - closed.cov.entries).max():.2e}")

# affine equivariance: transform the inputs, the centers follow
a = np.array([[2.0, 0.5], [-0.3, 1.2]])
b = np.array([10.0, -5.0])
mapped = [GaussianParam(a @ g.mean + b, SPDMatrix(a @ g.cov.entries @ a.T)) for g in gs]
jfr_m = jfr_center_mvn(mapped)
print("\naffine map (A, b) applied to the inputs:")
print(f"  |JFR(A set + b) - (A JFR + b)| mean gap  = "
      f"{np.abs(jfr_m.mean - (a @ jfr.mean + b)).max():.2e}")
print(f"  covariance gap                           = "
      f"{np.abs(jfr_m.cov.entries - a @ jfr.cov.entries @ a.T).max():.2e}")
