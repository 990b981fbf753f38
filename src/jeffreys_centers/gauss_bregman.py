"""Generic inductive Gauss-Bregman center.

The double sequence alternates the arithmetic midpoint and the quasi-arithmetic
(grad F) midpoint, started at the two sided Bregman centroids, and converges to
a common limit for separable generators (dimension-wise gap halving).  For
non-separable generators there is no convergence theorem; the iteration guards
with ``max_iter`` and reports honestly.

:func:`gb_center` returns ``(center, diagnostics)``, a
:class:`~jeffreys_centers.legendre.CenterDiagnostics` holding the iteration
count, the final gap, the stopping tolerance and the status.  Each step goes
through the module's :func:`gb_step`, so a caller can observe the iterates by
wrapping it.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from .errors import DomainError
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    WeightedParamSet,
    quasi_arithmetic_center,
    right_bregman_centroid,
)
from .special_functions import ToleranceConfig

__all__ = ["GB_TOL", "gb_step", "gb_center"]

GB_TOL = ToleranceConfig(rel_tol=1e-8, max_iter=200)


def gb_step(
    gen: GeneratorSpec, theta_bar: np.ndarray, theta_under: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One double-sequence step: arithmetic and (grad F) quasi-arithmetic midpoints."""
    tb = gen.require_domain(theta_bar, "arithmetic iterate")
    tu = gen.require_domain(theta_under, "quasi-arithmetic iterate")
    new_bar = 0.5 * (tb + tu)
    new_under = np.asarray(
        gen.eval_grad_inv(0.5 * (gen.eval_grad(tb) + gen.eval_grad(tu))), dtype=float
    )
    if not gen.in_domain(new_bar):
        raise DomainError(f"{gen.name}: arithmetic midpoint left the domain")
    if not (np.all(np.isfinite(new_under)) and gen.in_domain(new_under)):
        raise DomainError(f"{gen.name}: quasi-arithmetic midpoint left the domain")
    return new_bar, new_under


def gb_center(
    gen: GeneratorSpec, pset: WeightedParamSet, tol: ToleranceConfig = GB_TOL
) -> Tuple[np.ndarray, CenterDiagnostics]:
    """Gauss-Bregman inductive center of a weighted parameter set.

    Initializes at the right Bregman centroid (arithmetic mean) and the left
    Bregman centroid (quasi-arithmetic center), iterates :func:`gb_step` until
    the Euclidean gap between the two iterates drops to ``tol.rel_tol`` or
    ``tol.max_iter`` steps are taken, and returns the final arithmetic iterate
    with its diagnostics.  The status is "max_iter" when the gap target was
    not met.
    """
    t0 = time.perf_counter_ns()
    theta_bar = right_bregman_centroid(pset)
    theta_under = quasi_arithmetic_center(gen, pset)
    gen.require_domain(theta_bar, "initial arithmetic centroid")
    gen.require_domain(theta_under, "initial quasi-arithmetic centroid")

    gap = float(np.linalg.norm(theta_bar - theta_under))
    iterations = 0
    while gap > tol.rel_tol and iterations < tol.max_iter:
        theta_bar, theta_under = gb_step(gen, theta_bar, theta_under)
        gap = float(np.linalg.norm(theta_bar - theta_under))
        iterations += 1
    return theta_bar, CenterDiagnostics.after(t0, iterations, gap, tol.rel_tol)
