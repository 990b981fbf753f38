"""Scalar inductive means: where the double-sequence idea comes from.

The arithmetic-harmonic double sequence converges to the geometric mean;
swapping the harmonic step for a geometric one yields Gauss's AGM, which has
no elementary closed form but satisfies an elliptic-integral identity.  The
scalar Jeffreys centroid of two positive reals is a third animal entirely:
it needs the Lambert W function.
"""

import math

from jeffreys_centers import (
    ToleranceConfig,
    WeightedParamSet,
    burg_generator,
    elliptic_k,
    energy_grad_residual,
    gb_center,
    gb_step,
    lambert_w0,
    quasi_arithmetic_center,
    right_bregman_centroid,
    scalar_agm,
    shannon_generator,
)

x, y = 1.0, 4.0
pair = WeightedParamSet.of([[x], [y]])
tight = ToleranceConfig(rel_tol=1e-13, max_iter=200)

print(f"two positive reals: x = {x}, y = {y}")
print(f"  arithmetic mean  {(x + y) / 2:.12f}")
print(f"  geometric mean   {math.sqrt(x * y):.12f}")
print(f"  harmonic mean    {2 * x * y / (x + y):.12f}")

# Burg generator F = -log t: the quasi-arithmetic midpoint is harmonic, so the
# double sequence is the arithmetic-harmonic mean and converges to sqrt(xy).
# The steps gb_center takes, one gb_step at a time from the sided centroids:
burg = burg_generator(1)
tb, tu = right_bregman_centroid(pair), quasi_arithmetic_center(burg, pair)
print("\narithmetic-harmonic double sequence (Burg generator):")
for t in range(tight.max_iter + 1):
    print(f"  t={t}  a={tb[0]:.15f}  h={tu[0]:.15f}  gap={abs(tb[0] - tu[0]):.2e}")
    if abs(tb[0] - tu[0]) <= tight.rel_tol or t == tight.max_iter:
        break
    tb, tu = gb_step(burg, tb, tu)
print(f"  limit {tb[0]:.15f}  vs sqrt(xy) {math.sqrt(x * y):.15f}")

# Shannon generator F = t log t - t: the quasi-arithmetic midpoint is geometric,
# so the double sequence is Gauss's AGM started at the two sided centroids.
agm, _ = gb_center(shannon_generator(1), pair, tight)
a0, g0 = (x + y) / 2, math.sqrt(x * y)
closed = (math.pi / 4) * (a0 + g0) / elliptic_k((a0 - g0) / (a0 + g0))
print("\narithmetic-geometric double sequence (Shannon generator):")
print(f"  starts at the sided centroids a0={a0}, g0={g0}")
print(f"  limit                  {agm[0]:.15f}")
print(f"  scalar_agm(a0, g0)     {scalar_agm(a0, g0):.15f}")
print(f"  (pi/4)(a0+g0)/K(...)   {closed:.15f}")

# The exact scalar Jeffreys centroid needs Lambert W: c = a / W0((a/g) e).
c = a0 / lambert_w0((a0 / g0) * math.e)
print("\nscalar Jeffreys centroid of {x, y} under the symmetrized KL:")
print(f"  c = a/W0((a/g)e) = {c:.15f}")
print(f"  loss-gradient residual at c: "
      f"{energy_grad_residual(shannon_generator(1), pair, [c]):.2e}")
print(f"  AGM limit differs from it by {abs(agm[0] - c):.3e}: "
      "the inductive center is a proxy, not the minimizer")
