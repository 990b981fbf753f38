"""Generic inductive Gauss-Bregman center.

The double sequence alternates the arithmetic midpoint and the quasi-arithmetic
(grad F) midpoint, started at the two sided Bregman centroids, and converges to
a common limit for separable generators (dimension-wise gap halving).  For
non-separable generators there is no convergence theorem; the iteration guards
with ``max_iter`` and reports honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    Stopwatch,
    WeightedParamSet,
    quasi_arithmetic_center,
    right_bregman_centroid,
)
from .special_functions import ToleranceConfig

__all__ = ["GBResult", "GB_TOL", "gb_step", "gb_center"]

GB_TOL = ToleranceConfig(rel_tol=1e-8, max_iter=200)


@dataclass
class GBResult:
    """Outcome of the Gauss-Bregman double sequence."""

    center: np.ndarray
    diagnostics: CenterDiagnostics
    converged: bool
    trace: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None


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
    gen: GeneratorSpec,
    pset: WeightedParamSet,
    tol: ToleranceConfig = GB_TOL,
    keep_trace: bool = False,
) -> GBResult:
    """Gauss-Bregman inductive center of a weighted parameter set.

    Initializes at the right Bregman centroid (arithmetic mean) and the left
    Bregman centroid (quasi-arithmetic center), iterates :func:`gb_step` until
    the iterate gap drops below ``tol.rel_tol``, and returns the final
    arithmetic iterate.
    """
    watch = Stopwatch()
    theta_bar = right_bregman_centroid(pset)
    theta_under = quasi_arithmetic_center(gen, pset)
    gen.require_domain(theta_bar, "initial arithmetic centroid")
    gen.require_domain(theta_under, "initial quasi-arithmetic centroid")

    trace = [(theta_bar.copy(), theta_under.copy())] if keep_trace else None
    gap = float(np.linalg.norm(theta_bar - theta_under))
    iterations = 0
    while gap > tol.rel_tol and iterations < tol.max_iter:
        theta_bar, theta_under = gb_step(gen, theta_bar, theta_under)
        gap = float(np.linalg.norm(theta_bar - theta_under))
        iterations += 1
        if keep_trace:
            trace.append((theta_bar.copy(), theta_under.copy()))
    converged = gap <= tol.rel_tol
    diag = CenterDiagnostics(
        iterations=iterations,
        final_gap=gap,
        residual=gap,
        elapsed_ns=watch.elapsed_ns(),
        status="converged" if converged else "max_iter",
    )
    return GBResult(center=theta_bar, diagnostics=diag, converged=converged, trace=trace)
