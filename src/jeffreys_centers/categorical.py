"""Categorical (normalized histogram) family.

Coordinate conversions to/from the natural log-ratio parameters, the weighted
arithmetic and normalized geometric means, the exact numerical Jeffreys
centroid (Lambert-W fixed point + safeguarded Newton on the multiplier), the
closed-form Jeffreys-Fisher-Rao center, and the inductive Gauss-Bregman center.

The Newton solve keeps W between its steps: only the two bracket ends call
:func:`lambert_w0` from scratch, and each later W starts its Halley iteration
from the previous one, moved along dW/dlambda = W / (1 + W).

All inputs live on the open simplex: empty bins must be smoothed by the caller
before ingestion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import CenterDiagnostics, GeneratorSpec, check_weights
from .special_functions import _w0_halley, lambert_w0

__all__ = [
    "SimplexPoint",
    "HistogramSet",
    "JeffreysCatResult",
    "cat_to_natural",
    "cat_from_natural",
    "cat_generator",
    "arithmetic_mean",
    "normalized_geometric_mean",
    "c_of_lambda",
    "jeffreys_centroid_cat",
    "jfr_center_cat",
    "gb_center_cat",
    "unnormalized_center",
    "kl_cat",
    "jeffreys_cat",
    "tv_cat",
    "jeffreys_loss_cat",
    "approximation_factor",
    "GB_CAT_EPSILON",
]

# Effective stopping tolerance of the reference experiments' Gauss-Bregman
# runs (see decisions ledger): the double sequence performs at least one step
# and stops once the total-variation gap falls below this value.
GB_CAT_EPSILON = 0.1

# Initial TV gap below which the double sequence is treated as already
# converged (all-rows-equal inputs).
_DEGENERATE_GAP = 1e-14


def _check_simplex(p: np.ndarray, what: str) -> None:
    """Require a vector, or every row of a matrix, to lie on the open simplex.

    The valid path is two reductions and builds no temporary of p's size: the
    minimum is NaN if any bin is, and the mass is non-finite if any bin is
    infinite.  The offending row is located only on the error path.
    """
    if p.size and p.min() > 0.0 and np.abs(p.sum(-1) - 1.0).max() <= 1e-12:
        return
    rows = np.atleast_2d(p)
    bad_bin = ~(np.isfinite(rows) & (rows > 0.0)).all(axis=-1)
    i = int(np.argmax(bad_bin | (np.abs(rows.sum(-1) - 1.0) > 1e-12)))
    where = what if p.ndim == 1 else f"{what} row {i}"
    if bad_bin[i]:
        raise DomainError(f"{where} has a non-finite or non-positive bin")
    raise DomainError(f"{where} mass {rows[i].sum()!r} differs from 1")


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the open probability simplex."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if p.ndim != 1 or p.size < 2:
            raise DomainError("SimplexPoint needs a vector of at least 2 bins")
        _check_simplex(p, "SimplexPoint")
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.probs.size


def _read_only(x: np.ndarray) -> np.ndarray:
    """A read-only view of ``x``; ``x``, possibly the caller's array, keeps its flags."""
    view = x.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class HistogramSet:
    """Rows of same-dimension simplex points with open-simplex weights.

    ``rows`` and ``weights`` are stored as read-only views, not copies, so the
    set cannot be changed through them and :attr:`means` is computed once per
    set and shared by every center.  The views share memory with the arrays
    the caller passed, which stay writable; writing to those afterwards is not
    supported.
    """

    rows: np.ndarray
    weights: Optional[np.ndarray]

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        weights = check_weights(self.weights, rows.shape[0])
        _check_simplex(rows, "histogram")
        object.__setattr__(self, "rows", _read_only(rows))
        object.__setattr__(self, "weights", _read_only(weights))

    @cached_property
    def means(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sided KL centroids (a, g), read-only, computed on first use.

        a is :func:`arithmetic_mean` and g is :func:`normalized_geometric_mean`;
        the exact, JFR and GB centers all start from this pair.
        """
        return (
            _read_only(arithmetic_mean(self).probs),
            _read_only(normalized_geometric_mean(self).probs),
        )

    @classmethod
    def uniform(cls, rows) -> "HistogramSet":
        return cls(rows, None)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass
class JeffreysCatResult:
    """Numerical Jeffreys centroid with its fixed-point multiplier."""

    center: SimplexPoint
    lam: float
    mass_residual: float
    diagnostics: CenterDiagnostics


def cat_to_natural(p: SimplexPoint) -> np.ndarray:
    """Natural parameters theta_i = log(p_i / p_d), a (d-1)-vector."""
    q = p.probs
    return np.log(q[:-1] / q[-1])


def cat_from_natural(theta) -> SimplexPoint:
    """Inverse of :func:`cat_to_natural` via a stabilized softmax."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    logits = np.concatenate([theta, [0.0]])
    logits -= logits.max()
    e = np.exp(logits)
    return SimplexPoint(e / e.sum())


def cat_generator(dim: int) -> GeneratorSpec:
    """Cumulant generator F(theta) = log(1 + sum exp(theta_i)) over (d-1) log-ratios."""
    if dim < 2:
        raise DomainError("categorical family needs at least 2 bins")

    def eval_F(theta: np.ndarray) -> float:
        m = max(0.0, float(theta.max()))
        return m + float(np.log(np.exp(-m) + np.sum(np.exp(theta - m))))

    def eval_grad(theta: np.ndarray) -> np.ndarray:
        logits = np.concatenate([theta, [0.0]])
        logits -= logits.max()
        e = np.exp(logits)
        return (e / e.sum())[:-1]

    def eval_grad_inv(eta: np.ndarray) -> np.ndarray:
        tail = 1.0 - eta.sum()
        if tail <= 0.0 or np.any(eta <= 0.0):
            raise DomainError("moment parameter outside the open simplex")
        return np.log(eta / tail)

    return GeneratorSpec(
        dim=dim - 1,
        eval_F=eval_F,
        eval_grad=eval_grad,
        eval_grad_inv=eval_grad_inv,
        in_domain=lambda th: bool(np.all(np.isfinite(th))),
        name=f"categorical(d={dim})",
    )


def arithmetic_mean(hset: HistogramSet) -> SimplexPoint:
    """Weighted per-bin arithmetic mean."""
    return SimplexPoint(hset.weights @ hset.rows)


def normalized_geometric_mean(hset: HistogramSet) -> SimplexPoint:
    """Weighted per-bin geometric mean, renormalized to unit mass."""
    log_g = hset.weights @ np.log(hset.rows)
    u = np.exp(log_g - log_g.max())
    return SimplexPoint(u / u.sum())


def c_of_lambda(a: SimplexPoint, g: SimplexPoint, lam: float) -> np.ndarray:
    """Candidate center c_j(lambda) = a_j / W0((a_j/g_j) e^{1+lambda}).

    Positive but not necessarily normalized; its mass is monotone decreasing
    in ``lam``.
    """
    av = a.probs if isinstance(a, SimplexPoint) else np.asarray(a, dtype=float)
    gv = g.probs if isinstance(g, SimplexPoint) else np.asarray(g, dtype=float)
    return av / lambert_w0((av / gv) * np.exp(1.0 + lam))


def kl_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Kullback-Leibler divergence KL(p : q) on the open simplex."""
    pv, qv = p.probs, q.probs
    if pv.size != qv.size:
        raise DomainError("dimension mismatch")
    return float(np.sum(pv * np.log(pv / qv)))


def jeffreys_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Jeffreys divergence KL(p:q) + KL(q:p)."""
    pv, qv = p.probs, q.probs
    if pv.size != qv.size:
        raise DomainError("dimension mismatch")
    return float(np.sum((pv - qv) * np.log(pv / qv)))


def tv_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Total variation distance, half the l1 gap."""
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def jeffreys_loss_cat(hset: HistogramSet, c: SimplexPoint) -> float:
    """Weighted Jeffreys loss sum_i w_i D_J(p_i, c)."""
    cv = c.probs
    diff = hset.rows - cv
    logs = np.log(hset.rows / cv)
    return float(hset.weights @ np.sum(diff * logs, axis=1))


def jeffreys_centroid_cat(
    hset: HistogramSet, epsilon: float = 1e-10, max_iter: int = 200
) -> JeffreysCatResult:
    """Numerical Jeffreys centroid via safeguarded Newton on the multiplier lambda.

    The unit-mass root of s(lambda) = sum_j c_j(lambda) lies in the bracket
    [max_j(a_j + log g_j) - 1, 0].  Newton starts at lambda = 0 with the slope
    s'(lambda) = -sum_j c_j / (1 + W_j) = -sum_j c_j^2 / (c_j + a_j), read off
    the candidate itself since W_j = a_j / c_j.  Each step narrows the bracket
    on the sign of s - 1 and falls back to its midpoint when the Newton iterate
    leaves the closed bracket.  The solve stops once the step or the bracket is
    at most ``epsilon`` wide; that width is ``final_gap``.  The returned center
    is renormalized; the raw mass defect is kept in ``mass_residual``.

    W_j is evaluated from scratch by :func:`lambert_w0` only at lambda_lo and
    0.  After a step dlambda, Halley starts from the predictor
    W_j exp(dlambda / (1 + W_j)), which follows dW/dlambda = W / (1 + W) and
    stays positive, and stops on lambert_w0's residual test
    ``|w e^w - x| <= 1e-12 max(1, |x|)``; most iterates need at most one step.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    t0 = time.perf_counter_ns()
    a, g = hset.means
    r = (a / g) * math.e  # W_j's argument is r_j e^lambda
    lam_lo = float(np.max(a + np.log(g)) - 1.0)
    lam_hi = lam = 0.0
    s_lo = float((a / lambert_w0(r * math.exp(lam_lo))).sum())
    w = lambert_w0(r)
    c_raw = a / w
    s = float(c_raw.sum())
    if s_lo < 1.0 - 1e-9 or s > 1.0 + 1e-9:
        raise NumericalError(
            f"multiplier bracket does not straddle unit mass: "
            f"s({lam_lo:.6g})={s_lo:.12g}, s(0)={s:.12g}"
        )
    iterations = 0
    gap = lam_hi - lam_lo
    while gap > epsilon and iterations < max_iter:
        if s > 1.0:
            lam_lo = lam
        else:
            lam_hi = lam
        step = (s - 1.0) / float(np.sum(c_raw * c_raw / (c_raw + a)))
        # closed test: an exact root (s == 1) gives step 0, a bracket end
        if not lam_lo <= lam + step <= lam_hi:
            step = 0.5 * (lam_lo + lam_hi) - lam
        if step != 0.0:  # a zero step keeps lam, and c_raw is already its candidate
            lam += step
            w = _w0_halley(r * math.exp(lam), w * np.exp(step / (1.0 + w)))
            c_raw = a / w
            s = float(c_raw.sum())
        iterations += 1
        gap = min(abs(step), lam_hi - lam_lo)
    center = SimplexPoint(c_raw / s)
    fixed_point_residual = abs(lam + float(np.sum(center.probs * np.log(center.probs / g))))
    diag = CenterDiagnostics.after(t0, iterations, gap, epsilon, fixed_point_residual)
    return JeffreysCatResult(
        center=center, lam=lam, mass_residual=abs(s - 1.0), diagnostics=diag
    )


def jfr_center_cat(hset: HistogramSet) -> SimplexPoint:
    """Closed-form Jeffreys-Fisher-Rao center.

    c_j = (sqrt(a_j) + sqrt(g_j))^2 / (2 (1 + sum_l sqrt(a_l g_l))); the
    denominator normalizes the numerator mass analytically.
    """
    a, g = hset.means
    num = (np.sqrt(a) + np.sqrt(g)) ** 2
    return SimplexPoint(num / (2.0 * (1.0 + np.sum(np.sqrt(a * g)))))


def gb_center_cat(
    hset: HistogramSet, epsilon: float = GB_CAT_EPSILON, max_iter: int = 1000
) -> Tuple[SimplexPoint, CenterDiagnostics]:
    """Inductive Gauss-Bregman center of a histogram set.

    Double sequence from the (arithmetic, normalized geometric) means: the
    arithmetic track averages per bin, the geometric track takes the per-bin
    root product renormalized to unit mass.  At least one step is performed
    (unless the initial gap is already degenerate); the sequence stops once
    the total-variation gap drops to ``epsilon`` and the last arithmetic
    iterate is returned.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    t0 = time.perf_counter_ns()
    a, g = hset.means
    gap = 0.5 * float(np.abs(a - g).sum())
    iterations = 0
    if gap > min(epsilon, _DEGENERATE_GAP):
        while iterations < max_iter:
            u = np.sqrt(a * g)
            a, g = 0.5 * (a + g), u / u.sum()
            gap = 0.5 * float(np.abs(a - g).sum())
            iterations += 1
            if gap <= epsilon:
                break
    if gap > epsilon:
        raise NumericalError(
            f"categorical Gauss-Bregman did not reach epsilon={epsilon} "
            f"within {max_iter} iterations (gap={gap:.3g})"
        )
    return SimplexPoint(a), CenterDiagnostics.after(t0, iterations, gap, epsilon)


def unnormalized_center(hset: HistogramSet) -> Tuple[np.ndarray, float]:
    """The lambda = 0 candidate c(0) and its mass s(0) <= 1 + slack."""
    a, g = hset.means
    c0 = c_of_lambda(a, g, 0.0)
    return c0, float(c0.sum())


def approximation_factor(
    hset: HistogramSet, candidate: SimplexPoint, reference: SimplexPoint
) -> float:
    """Relative Jeffreys-loss excess L_J(candidate)/L_J(reference) - 1."""
    loss_ref = jeffreys_loss_cat(hset, reference)
    if loss_ref <= 0.0:
        raise NumericalError(
            "reference Jeffreys loss is zero (all rows identical); "
            "approximation factor undefined"
        )
    return jeffreys_loss_cat(hset, candidate) / loss_ref - 1.0
