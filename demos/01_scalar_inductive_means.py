"""Scalar inductive means: where the double-sequence idea comes from.

The arithmetic-harmonic double sequence converges to the geometric mean;
swapping the harmonic step for a geometric one yields Gauss's AGM, which has
no elementary closed form; AGM(1, sqrt 2) is the reciprocal of Gauss's
constant.  Both
are gb_center runs, under the Burg and the Shannon generator.  The
scalar Jeffreys centroid of two positive reals is a third animal entirely:
it needs the Lambert W function.
"""

import math

from jeffreys_centers import (
    ToleranceConfig,
    WeightedParamSet,
    burg_generator,
    gb_center,
    gb_step,
    lambert_w0,
    quasi_arithmetic_center,
    right_bregman_centroid,
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
# The steps gb_center takes, one gb_step at a time from the sided centroids.
# A step carries the harmonic iterate with its moment coordinate eu = -1/tu
# and averages that, so each step takes one gradient and one reciprocal one:
burg = burg_generator(1)
tb, tu = right_bregman_centroid(pair), quasi_arithmetic_center(burg, pair)
eu = burg.eval_grad(tu)
print("\narithmetic-harmonic double sequence (Burg generator):")
for t in range(tight.max_iter + 1):
    print(f"  t={t}  a={tb[0]:.15f}  h={tu[0]:.15f}  gap={abs(tb[0] - tu[0]):.2e}")
    if abs(tb[0] - tu[0]) <= tight.rel_tol or t == tight.max_iter:
        break
    tb, tu, eu = gb_step(burg, tb, tu, eu)
print(f"  limit {tb[0]:.15f}  vs sqrt(xy) {math.sqrt(x * y):.15f}")

# Shannon generator F = t log t - t: the quasi-arithmetic midpoint is geometric,
# so the double sequence is Gauss's AGM started at the two sided centroids.
agm, _ = gb_center(shannon_generator(1), pair, tight)
a0, g0 = (x + y) / 2, math.sqrt(x * y)
# The AGM is invariant under (x, y) -> (a0, g0): started from {a0, g0}, the
# sequence reaches the same limit.
agm_of_means, _ = gb_center(shannon_generator(1), WeightedParamSet.of([[a0], [g0]]), tight)
# Gauss's constant: AGM(1, sqrt 2) = 1.19814023473559220744...
gauss, _ = gb_center(shannon_generator(1), WeightedParamSet.of([[1.0], [math.sqrt(2.0)]]), tight)
print("\narithmetic-geometric double sequence (Shannon generator):")
print(f"  starts at the sided centroids a0={a0}, g0={g0}")
print(f"  limit from {{x, y}}      {agm[0]:.15f}")
print(f"  limit from {{a0, g0}}    {agm_of_means[0]:.15f}")
print(f"  AGM(1, sqrt 2)         {gauss[0]:.15f}  vs Gauss's 1.198140234735592")

# The exact scalar Jeffreys centroid needs Lambert W: c = a / W0((a/g) e).
c = a0 / lambert_w0((a0 / g0) * math.e)
print("\nscalar Jeffreys centroid of {x, y} under the symmetrized KL:")
print(f"  c = a/W0((a/g)e) = {c:.15f}")
# the loss sum_i w_i (c - x_i) log(c / x_i) is stationary where
# log(c / g) + 1 - a / c = 0
print(f"  stationarity residual log(c/g) + 1 - a/c: {math.log(c / g0) + 1.0 - a0 / c:.2e}")
print(f"  AGM limit differs from it by {abs(agm[0] - c):.3e}: "
      "the inductive center is a proxy, not the minimizer")
