"""Generator-agnostic Legendre/Bregman machinery.

A :class:`GeneratorSpec` bundles a Legendre-type convex generator F with its
gradient, reciprocal gradient and domain test.  On top of it live the Bregman
and symmetrized Bregman divergences, quasi-arithmetic centers, the sided
Bregman centroids and the Jeffreys loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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


def _has_non_number(x) -> bool:
    """Whether a boolean or string leaf hides at any depth of ``x``'s lists, tuples and arrays."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "bUS" or (x.dtype.kind == "O" and any(map(_has_non_number, x.flat)))
    if isinstance(x, (list, tuple)):
        # a list of Python floats and ints, as a row read from text is, is passed in one sweep
        return not set(map(type, x)) <= {float, int} and any(map(_has_non_number, x))
    return isinstance(x, (bool, np.bool_, str, bytes))


def _ragged_rows(x) -> Optional[str]:
    """"row i has length m, row 0 has length n" for the first row of ``x`` whose
    length differs from row 0's; None if ``x`` or a row has no length, or none differs."""
    try:
        lengths = [len(row) for row in x]
    except TypeError:
        return None
    i = next((i for i, m in enumerate(lengths) if m != lengths[0]), None)
    return None if i is None else f"row {i} has length {lengths[i]}, row 0 has length {lengths[0]}"


def _float_array(x, what: str, shape: Optional[Tuple[Optional[int], ...]] = None) -> np.ndarray:
    """The one parse of a caller's array: ``x`` as a float64 ndarray of ``shape``.

    A boolean or string leaf at any depth, or a ragged or non-numeric ``x``, is a
    :class:`DomainError` "``what`` is not an array of numbers" (numpy alone reads True as
    1.0 and "0.5" as 0.5), naming the first row of ``x`` whose length differs from row 0's
    if there is one; only lists, tuples and object arrays are scanned, and a float64
    ndarray is returned as it is.  Input of fewer dimensions than ``shape`` gains leading
    axes of length 1, as ``np.atleast_2d`` adds them; any other mismatch of ``shape``, where
    None matches any length, is a DomainError "``what`` has shape ..., expected ...", and
    ``shape=None`` takes every shape.  Values are not checked: finiteness and every domain
    rule belong to the caller.
    """
    if not (type(x) is np.ndarray and x.dtype == np.float64):
        try:
            if _has_non_number(x):
                raise TypeError("boolean or string entries")
            x = np.asarray(x).astype(float, copy=False)
        except (TypeError, ValueError) as exc:
            why = isinstance(exc, ValueError) and _ragged_rows(x) or exc
            raise DomainError(f"{what} is not an array of numbers: {why}") from None
    if shape is None or x.shape == shape:
        return x
    given = x.shape
    if x.ndim < len(shape):
        x = x.reshape((1,) * (len(shape) - x.ndim) + given)
    # None entries alone, as most callers pass, need no loop over the axes
    if x.ndim == len(shape) and (shape.count(None) == x.ndim
                                 or all(s in (None, n) for s, n in zip(shape, x.shape))):
        return x
    raise DomainError(f"{what} has shape {given}, expected {str(shape).replace('None', '*')}")


def _check_simplex(p: np.ndarray, what: str) -> None:
    """Require a vector, or every row of a matrix, to lie on the open simplex:
    finite positive entries summing to 1 within 1e-12.

    The valid path is two reductions and builds no temporary of p's size: the
    minimum is NaN if any entry is, and the mass is non-finite if any entry is
    infinite; the ufuncs reduce directly, skipping ``min``'s and ``sum``'s method
    wrappers.  A vector's one mass is tested as a Python float.  The offending
    row is located only on the error path.
    """
    if p.size and np.minimum.reduce(p, axis=None) > 0.0 and (
        abs(float(np.add.reduce(p)) - 1.0) if p.ndim == 1
        else np.abs(np.add.reduce(p, -1) - 1.0).max()
    ) <= 1e-12:
        return
    rows = np.atleast_2d(p)
    bad_entry = ~(np.isfinite(rows) & (rows > 0.0)).all(axis=-1)
    i = int(np.argmax(bad_entry | (np.abs(rows.sum(-1) - 1.0) > 1e-12)))
    where = what if p.ndim == 1 else f"{what} row {i}"
    if bad_entry[i]:
        raise DomainError(f"{where} has a non-finite or non-positive entry")
    raise DomainError(f"{where} mass {rows[i].sum()!r} differs from 1")


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
        """``theta`` parsed as a float vector of length ``dim``, else a DomainError
        naming ``what``.  A non-finite theta is outside the domain, whatever
        ``in_domain`` answers."""
        theta = _float_array(theta, what, (self.dim,))
        if not (np.isfinite(theta).all() and self.in_domain(theta)):
            raise DomainError(f"{self.name}: {what} {theta!r} outside the domain")
        return theta


def check_weights(weights: Optional[Sequence], n: int) -> np.ndarray:
    """Weights of an n-point set: uniform for None, else validated.

    Given weights are parsed with shape (n,) and, being a point of the open
    simplex, must pass :func:`_check_simplex`.  Every failure, and an empty set,
    raises :class:`DomainError`.
    """
    if n == 0:
        raise DomainError("empty set")
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _float_array(weights, "weights", (n,))
    _check_simplex(w, "weights")
    return w


@dataclass(frozen=True)
class WeightedParamSet:
    """Parameter vectors with strictly positive weights summing to one;
    uniform weights when none are given."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        points = _float_array(self.points, "points", (None, None))
        object.__setattr__(self, "weights", check_weights(self.weights, points.shape[0]))
        object.__setattr__(self, "points", points)

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
