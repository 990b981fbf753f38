"""Generic inductive Gauss-Bregman center.

The double sequence alternates the arithmetic midpoint and the quasi-arithmetic
(grad F) midpoint, started at the two sided Bregman centroids, and converges to
a common limit for separable generators (dimension-wise gap halving).  The
paper (Nielsen, arXiv 2410.14326) states that the Gauss-Bregman center always
converges, non-separable generators such as the Gaussian one included.  In
floating point the loop can still stop at ``max_iter``: its stopping gap is
absolute where |theta_bar| >= 1, so iterates with large natural parameters (a
Gaussian set with small covariances) stall at a rounding gap above the target.
The diagnostics ``status`` reports that as 'max_iter'.

The arithmetic iterate theta_bar is averaged in natural coordinates theta and
the quasi-arithmetic iterate theta_under in moment coordinates eta = grad F(theta),
so theta_under is carried with its eta_under and a step evaluates one gradient
and one reciprocal gradient.

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
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    WeightedParamSet,
    _float_array,
    quasi_arithmetic_center,
    right_bregman_centroid,
)

__all__ = ["ToleranceConfig", "GB_TOL", "gb_step", "gb_center"]


def _check_stopping(tol: float, max_iter: int, name: str) -> None:
    """The iterative centers' one stopping rule: 0 < tol < 1 (NaN and inf fail), max_iter >= 1."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping control of :func:`gb_center` and ``gb_center_mvn``: the double
    sequence's precision ``rel_tol`` in (0, 1) and its step cap ``max_iter`` >= 1,
    by default :data:`GB_TOL`'s.  The histogram centers' ``epsilon`` and
    ``max_iter`` follow the same rule."""

    rel_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        _check_stopping(self.rel_tol, self.max_iter, "rel_tol")


GB_TOL = ToleranceConfig()


def gb_step(
    gen: GeneratorSpec, theta_bar: np.ndarray, theta_under: np.ndarray, eta_under: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One double-sequence step in dual coordinates, ``eta_under`` being the moment
    parameter grad F(theta_under): ``((theta_bar + theta_under)/2,
    (grad F)^{-1}(eta'), eta')`` with ``eta' = (grad F(theta_bar) + eta_under)/2``.

    Both iterates are checked with ``gen.require_domain``, and ``eta_under`` must
    be a finite float vector of length ``gen.dim``; a failure is a DomainError.
    That ``eta_under`` is grad F(theta_under) is not checked: that would cost the
    gradient the step saves.  The midpoints returned are not checked: each is
    checked where it is next used, as the next step's input or as
    :func:`gb_center`'s result.
    """
    tb = gen.require_domain(theta_bar, "arithmetic iterate")
    tu = gen.require_domain(theta_under, "quasi-arithmetic iterate")
    eu = _float_array(eta_under, "moment iterate", (gen.dim,))
    if not np.isfinite(eu).all():
        raise DomainError(f"{gen.name}: moment iterate {eu!r} is not finite")
    eta = 0.5 * (gen.eval_grad(tb) + eu)
    return 0.5 * (tb + tu), np.asarray(gen.eval_grad_inv(eta), dtype=float), eta


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
    """Step the iterates ``start()`` returns, a tuple led by the pair (bar, under),
    while their gap exceeds ``tol`` (``owed`` before the first step), at most
    ``max_iter`` times; the last iterates and their diagnostics."""
    t0 = time.perf_counter_ns()
    state = start()
    iterations = 0
    while (last := gap(*state)) > (tol if iterations else owed) and iterations < max_iter:
        state = step(*state)
        iterations += 1
    return state, CenterDiagnostics.after(t0, iterations, last, tol)


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

    The gradient of the quasi-arithmetic start is evaluated once, before the
    first step checks that start, and each step carries the moment parameter
    on.  Each pair of iterates is domain-checked once, where it is next used:
    by the next :func:`gb_step` on entry, or, for the pair the loop stops at,
    here before the center is returned.  A pair outside the domain is a
    DomainError.
    """

    def start():
        theta_under = quasi_arithmetic_center(gen, pset)
        return right_bregman_centroid(pset), theta_under, gen.eval_grad(theta_under)

    (theta_bar, theta_under, _), diag = _double_sequence(
        start, lambda b, u, e: gb_step(gen, b, u, e), lambda b, u, _: _gap(b, u),
        tol.rel_tol, tol.max_iter, tol.rel_tol,
    )
    gen.require_domain(theta_bar, "final arithmetic iterate")
    gen.require_domain(theta_under, "final quasi-arithmetic iterate")
    return theta_bar, diag
