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

Every family runs the one loop :func:`_double_sequence` with its own start, step,
gap and first-step rule.  Gauss's arithmetic-geometric mean is ``gb_center``
under the Shannon generator, and the arithmetic-harmonic matrix sequence
converging to X#Y is the Gaussian GB center of the centered pair N(0, X), N(0, Y).
"""

from __future__ import annotations

import math
import time
from typing import Tuple

import numpy as np

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
    """One double-sequence step: arithmetic and (grad F) quasi-arithmetic midpoints.

    Both iterates are checked with ``gen.require_domain``, a failure being a
    DomainError.  The two midpoints returned are not: each is checked where it
    is next used, as the next step's input or as :func:`gb_center`'s result.
    """
    tb = gen.require_domain(theta_bar, "arithmetic iterate")
    tu = gen.require_domain(theta_under, "quasi-arithmetic iterate")
    new_under = gen.eval_grad_inv(0.5 * (gen.eval_grad(tb) + gen.eval_grad(tu)))
    return 0.5 * (tb + tu), np.asarray(new_under, dtype=float)


def _gap(theta_bar: np.ndarray, theta_under: np.ndarray) -> float:
    """|theta_bar - theta_under| / min(1, |theta_bar|), the stopping gap.

    Absolute where |theta_bar| >= 1 and relative below, since an absolute gap
    alone stops too early on small parameters (a scalar pair near 1e-12, or
    normals with large covariances).  At theta_bar = 0 it is the absolute gap.
    """
    # sqrt(v.dot(v)) is np.linalg.norm's arithmetic for a 1-D float vector
    diff = theta_bar - theta_under
    gap = math.sqrt(diff.dot(diff))
    scale = min(1.0, math.sqrt(theta_bar.dot(theta_bar)))
    return gap / scale if scale > 0.0 else gap


def _double_sequence(start, step, gap, tol, max_iter, owed):
    """Step the pair ``start()`` returns while its gap exceeds ``tol`` (``owed`` before
    the first step), at most ``max_iter`` times; the last pair and its diagnostics."""
    t0 = time.perf_counter_ns()
    bar, under = start()
    iterations = 0
    while (last := gap(bar, under)) > (tol if iterations else owed) and iterations < max_iter:
        bar, under = step(bar, under)
        iterations += 1
    return (bar, under), CenterDiagnostics.after(t0, iterations, last, tol)


def gb_center(
    gen: GeneratorSpec, pset: WeightedParamSet, tol: ToleranceConfig = GB_TOL
) -> Tuple[np.ndarray, CenterDiagnostics]:
    """Gauss-Bregman inductive center of a weighted parameter set.

    Initializes at the right Bregman centroid (arithmetic mean) and the left
    Bregman centroid (quasi-arithmetic center), iterates :func:`gb_step` until
    the Euclidean gap between the two iterates drops to
    ``tol.rel_tol * min(1, |theta_bar|)`` or ``tol.max_iter`` steps are taken,
    and returns the final arithmetic iterate theta_bar with its diagnostics,
    whose ``final_gap`` is the gap divided by that scale.  The status is
    "max_iter" when the gap target was not met.

    Each pair of iterates is domain-checked once, where it is next used: by
    the next :func:`gb_step` on entry, or, for the pair the loop stops at, here
    before the center is returned.  A pair outside the domain is a DomainError.
    """
    (theta_bar, theta_under), diag = _double_sequence(
        lambda: (right_bregman_centroid(pset), quasi_arithmetic_center(gen, pset)),
        lambda b, u: gb_step(gen, b, u), _gap, tol.rel_tol, tol.max_iter, tol.rel_tol
    )
    gen.require_domain(theta_bar, "final arithmetic iterate")
    gen.require_domain(theta_under, "final quasi-arithmetic iterate")
    return theta_bar, diag
