"""Categorical centers side by side on a 3-bin example.

Reproduces the deterministic benchmark instance: a uniform histogram against
a spiked one.  The numerical Jeffreys centroid (Lambert W + safeguarded Newton)
is the reference; the closed-form JFR center and the inductive GB center are
the fast proxies.
"""

import numpy as np

from jeffreys_centers import (
    HistogramSet,
    approximation_factor,
    arithmetic_mean,
    gb_center_cat,
    jeffreys_centroid_cat,
    jeffreys_loss_cat,
    jfr_center_cat,
    normalized_geometric_mean,
    tv_cat,
    unnormalized_center,
)

alpha = 1e-1
hset = HistogramSet.uniform(
    np.array([[1 / 3, 1 / 3, 1 / 3], [1 - alpha, alpha / 2, alpha / 2]])
)
print("inputs:")
for row in hset.rows:
    print("  ", np.array2string(row, precision=6))

ref = jeffreys_centroid_cat(hset, epsilon=1e-10)
print(f"\nnumerical Jeffreys centroid (safeguarded Newton, eps 1e-10):")
print(f"  center        {np.array2string(ref.center.probs, precision=10)}")
print(f"  lambda        {ref.lam:.10f}")
print(f"  mass residual {ref.mass_residual:.3e}")
print(f"  fixed point   |lambda + KL(c:g)| = {ref.diagnostics.residual:.3e}")
print(f"  iterations    {ref.diagnostics.iterations}")

centers = {
    "arithmetic mean": arithmetic_mean(hset),
    "normalized geometric": normalized_geometric_mean(hset),
    "JFR center (closed form)": jfr_center_cat(hset),
    "GB center (inductive)": gb_center_cat(hset)[0],
}
print(f"\n{'center':28s} {'info eps':>12s} {'TV to Jeffreys':>15s} {'Jeffreys loss':>14s}")
for name, c in centers.items():
    info = approximation_factor(hset, c, ref.center)
    print(f"{name:28s} {info:12.3e} {tv_cat(c, ref.center):15.3e} "
          f"{jeffreys_loss_cat(hset, c):14.9f}")

c0, mass = unnormalized_center(hset)
print(f"\nunnormalized center c(0): mass {mass:.9f} (deficit {1 - mass:.3e})")

# run the same comparison on random pairs of growing dimension
rng = np.random.default_rng(0)
print(f"\n{'d':>4s} {'JFR info eps':>14s} {'GB info eps':>14s}")
for d in (4, 16, 64, 256):
    infos = {"jfr": [], "gb": []}
    for _ in range(50):
        rows = rng.dirichlet(np.ones(d), size=2)
        while rows.min() < 1e-12:
            rows = rng.dirichlet(np.ones(d), size=2)
        h = HistogramSet.uniform(rows)
        r = jeffreys_centroid_cat(h, 1e-10).center
        infos["jfr"].append(approximation_factor(h, jfr_center_cat(h), r))
        infos["gb"].append(approximation_factor(h, gb_center_cat(h)[0], r))
    print(f"{d:4d} {np.mean(infos['jfr']):14.3e} {np.mean(infos['gb']):14.3e}")
