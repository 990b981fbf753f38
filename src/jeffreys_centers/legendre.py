"""Generator-agnostic Legendre/Bregman machinery.

A :class:`GeneratorSpec` bundles a Legendre-type convex generator F with its
gradient, reciprocal gradient and domain test.  On top of it live the Bregman
and symmetrized Bregman divergences, quasi-arithmetic centers, the sided
Bregman centroids and the Jeffreys loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "GeneratorSpec",
    "WeightedParamSet",
    "CenterDiagnostics",
    "check_weights",
    "bregman_div",
    "symmetrized_bregman",
    "quasi_arithmetic_center",
    "right_bregman_centroid",
    "jeffreys_loss",
]


def _float_array(x, what: str) -> np.ndarray:
    """``np.asarray(x, dtype=float)`` for caller input: a ragged or
    non-numeric ``x`` is a :class:`DomainError` naming ``what``."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} is not an array of numbers: {exc}") from None


@dataclass(frozen=True)
class GeneratorSpec:
    """A Legendre-type convex generator F with its gradient machinery.

    Parameters
    ----------
    dim : int
        Dimension of the parameter vectors.
    eval_F : callable
        theta -> F(theta), a float.
    eval_grad : callable
        theta -> grad F(theta), a vector of length ``dim``.
    eval_grad_inv : callable
        eta -> (grad F)^{-1}(eta), a vector of length ``dim``.
    in_domain : callable
        theta -> bool, membership in the open natural parameter domain.
    name : str
        Informal label used in error messages.
    """

    dim: int
    eval_F: Callable[[np.ndarray], float]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    eval_grad_inv: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool]
    name: str = "generator"

    def require_domain(self, theta: np.ndarray, what: str = "parameter") -> np.ndarray:
        """``theta`` as a float vector of length ``dim``, else a DomainError
        naming ``what``.  A non-finite theta is outside the domain, whatever
        ``in_domain`` answers."""
        if (theta := _float_array(theta, what)).ndim == 0:
            theta = theta.reshape(1)
        if theta.shape != (self.dim,):
            raise DomainError(
                f"{self.name}: {what} has shape {theta.shape}, expected ({self.dim},)"
            )
        if not (np.isfinite(theta).all() and self.in_domain(theta)):
            raise DomainError(f"{self.name}: {what} {theta!r} outside the domain")
        return theta


def check_weights(weights: Optional[Sequence], n: int) -> np.ndarray:
    """Weights of an n-point set: uniform for None, else validated.

    Given weights must have shape (n,), be finite and strictly positive, and
    sum to 1 within 1e-12.  Every failure, and an empty set, raises
    :class:`DomainError`.
    """
    if n == 0:
        raise DomainError("empty set")
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _float_array(weights, "weights")
    if w.shape != (n,):
        raise DomainError(f"weights of shape {w.shape} for {n} points")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise DomainError("weights must be finite and strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise DomainError(f"weights sum to {w.sum()!r}, expected 1")
    return w


@dataclass(frozen=True)
class WeightedParamSet:
    """Parameter vectors with strictly positive weights summing to one."""

    points: np.ndarray
    weights: Optional[np.ndarray]

    def __post_init__(self):
        points = np.atleast_2d(_float_array(self.points, "points"))
        if points.ndim != 2:
            raise DomainError(f"points must be a 2-D array, got shape {points.shape}")
        object.__setattr__(self, "weights", check_weights(self.weights, points.shape[0]))
        object.__setattr__(self, "points", points)

    @classmethod
    def of(cls, points: Sequence, weights: Optional[Sequence] = None) -> "WeightedParamSet":
        """Build a set; uniform weights when none are given."""
        return cls(points, weights)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class CenterDiagnostics:
    """Per-computation record attached to every returned center.

    An iterative center builds it with :meth:`after`; ``tolerance`` is the
    stopping tolerance in force.  The CLI reports a closed-form center as
    ``CenterDiagnostics(status="exact")``.
    """

    iterations: int = 0
    final_gap: float = 0.0
    residual: float = 0.0
    elapsed_ns: int = 0
    status: str = "converged"
    tolerance: float = 0.0

    @classmethod
    def after(
        cls,
        t0_ns: int,
        iterations: int,
        gap: float,
        tolerance: float,
        residual: Optional[float] = None,
    ) -> "CenterDiagnostics":
        """Record of an iteration started at ``time.perf_counter_ns() == t0_ns``.

        The status is "converged" when ``gap <= tolerance``, else "max_iter";
        ``residual`` defaults to ``gap``.
        """
        return cls(
            iterations=iterations,
            final_gap=gap,
            residual=gap if residual is None else residual,
            elapsed_ns=time.perf_counter_ns() - t0_ns,
            status="converged" if gap <= tolerance else "max_iter",
            tolerance=tolerance,
        )


def _check_set(gen: GeneratorSpec, pset: WeightedParamSet) -> None:
    for i, theta in enumerate(pset.points):
        gen.require_domain(theta, f"point {i}")


def bregman_div(gen: GeneratorSpec, theta1, theta2) -> float:
    """Bregman divergence B_F(theta1 : theta2)."""
    t1 = gen.require_domain(theta1, "first argument")
    t2 = gen.require_domain(theta2, "second argument")
    return float(gen.eval_F(t1) - gen.eval_F(t2) - (t1 - t2) @ gen.eval_grad(t2))


def symmetrized_bregman(gen: GeneratorSpec, theta1, theta2) -> float:
    """Symmetrized Bregman divergence S_F(theta1, theta2) =
    <theta1 - theta2, grad F(theta1) - grad F(theta2)>."""
    t1 = gen.require_domain(theta1, "first argument")
    t2 = gen.require_domain(theta2, "second argument")
    return float((t1 - t2) @ (gen.eval_grad(t1) - gen.eval_grad(t2)))


def quasi_arithmetic_center(gen: GeneratorSpec, pset: WeightedParamSet) -> np.ndarray:
    """Weighted quasi-arithmetic center (grad F)^{-1}(sum_i w_i grad F(theta_i))."""
    _check_set(gen, pset)
    if pset.n == 1:
        return pset.points[0].copy()
    mean_grad = np.einsum("i,ij->j", pset.weights,
                          np.array([gen.eval_grad(t) for t in pset.points]))
    return np.asarray(gen.eval_grad_inv(mean_grad), dtype=float)


def right_bregman_centroid(pset: WeightedParamSet) -> np.ndarray:
    """Weighted arithmetic mean of the parameters (right Bregman centroid)."""
    return np.einsum("i,ij->j", pset.weights, pset.points)


def jeffreys_loss(gen: GeneratorSpec, pset: WeightedParamSet, theta) -> float:
    """Weighted symmetrized-Bregman loss sum_i w_i S_F(theta_i, theta)."""
    t = gen.require_domain(theta, "query point")
    _check_set(gen, pset)
    grad_t = gen.eval_grad(t)
    return float(
        sum(w * float((p - t) @ (gen.eval_grad(p) - grad_t))
            for w, p in zip(pset.weights, pset.points))
    )
