"""Categorical (normalized histogram) family.

The weighted arithmetic and normalized geometric means, the exact numerical Jeffreys
centroid (a Lambert-W fixed point whose multiplier ``special_functions._bracketed_newton``
solves from the JFR center's), the closed-form Jeffreys-Fisher-Rao center, and the
inductive Gauss-Bregman center (``gauss_bregman._double_sequence`` on probabilities).

All inputs live on the open simplex: empty bins must be smoothed by the caller
before ingestion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .gauss_bregman import _check_stopping, _double_sequence
from .legendre import CenterDiagnostics, _check_simplex, _float_array, check_weights
from .special_functions import _bracketed_newton, _w0_shifted, lambert_w0

__all__ = [
    "SimplexPoint",
    "HistogramSet",
    "JeffreysCatResult",
    "arithmetic_mean",
    "normalized_geometric_mean",
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


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the open probability simplex."""

    probs: np.ndarray

    def __post_init__(self):
        p = _float_array(self.probs, "SimplexPoint", (None,))
        if p.size < 2:
            raise DomainError(f"SimplexPoint needs at least 2 bins, got {p.size}")
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


def _frozen(x: np.ndarray) -> np.ndarray:
    """``x`` itself, made read-only in place: only for an array the library made."""
    x.setflags(write=False)
    return x


class _lazy:
    """``functools.cached_property`` without the lock it takes before Python 3.12: the
    first value stored in the instance ``__dict__`` shadows this non-data descriptor."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.fn(obj))


@dataclass(frozen=True)
class HistogramSet:
    """Rows of same-dimension simplex points with open-simplex weights, uniform
    when ``weights`` is None.

    ``rows`` and ``weights`` are stored as read-only views, not copies, of the
    caller's arrays, which stay writable; writing to those afterwards is not
    supported.  :attr:`means` and the JFR center's bins :attr:`jfr_probs` are
    computed once per set, on first use and without a lock, and shared by every
    center: they are the library's own arrays made read-only in place, and
    :attr:`jfr_probs` is the ``probs`` of :func:`jfr_center_cat`.
    """

    rows: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = _float_array(self.rows, "histogram rows", (None, None))
        if rows.shape[1] < 2:
            raise DomainError(f"histogram rows need at least 2 bins, got {rows.shape[1]}")
        weights = check_weights(self.weights, rows.shape[0])
        _check_simplex(rows, "histogram")
        object.__setattr__(self, "rows", _read_only(rows))
        object.__setattr__(self, "weights", _read_only(weights))

    @_lazy
    def means(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sided KL centroids (a, g), read-only, computed on first use.

        a is :func:`arithmetic_mean` and g is :func:`normalized_geometric_mean`;
        the exact, JFR and GB centers all start from this pair.
        """
        return (
            _frozen(arithmetic_mean(self).probs),
            _frozen(normalized_geometric_mean(self).probs),
        )

    @_lazy
    def jfr_probs(self) -> np.ndarray:
        """The JFR center's bins, read-only, computed on first use.

        :func:`jfr_center_cat` returns them, and :func:`jeffreys_centroid_cat`
        seeds its multiplier from them.
        """
        return _frozen(_jfr_probs(*self.means))

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


def arithmetic_mean(hset: HistogramSet) -> SimplexPoint:
    """Weighted per-bin arithmetic mean.  A bin whose weighted terms all
    underflow to 0 on valid rows is a :class:`NumericalError`."""
    try:
        return SimplexPoint(hset.weights @ hset.rows)
    except DomainError as exc:
        raise NumericalError(f"weighted arithmetic mean failed on valid input: {exc}") from exc


def normalized_geometric_mean(hset: HistogramSet) -> SimplexPoint:
    """Weighted per-bin geometric mean, renormalized to unit mass."""
    log_g = hset.weights @ np.log(hset.rows)
    u = np.exp(log_g - log_g.max())
    return SimplexPoint(u / u.sum())


def _check_same_dim(d1: int, d2: int) -> None:
    if d1 != d2:
        raise DomainError(f"dimension mismatch: {d1} vs {d2} bins")


def kl_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Kullback-Leibler divergence KL(p : q) on the open simplex."""
    _check_same_dim(p.dim, q.dim)
    pv, qv = p.probs, q.probs
    return float(np.sum(pv * np.log(pv / qv)))


def jeffreys_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Jeffreys divergence KL(p:q) + KL(q:p)."""
    _check_same_dim(p.dim, q.dim)
    pv, qv = p.probs, q.probs
    return float(np.sum((pv - qv) * np.log(pv / qv)))


def tv_cat(p: SimplexPoint, q: SimplexPoint) -> float:
    """Total variation distance, half the l1 gap."""
    _check_same_dim(p.dim, q.dim)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def jeffreys_loss_cat(hset: HistogramSet, c: SimplexPoint) -> float:
    """Weighted Jeffreys loss sum_i w_i D_J(p_i, c)."""
    _check_same_dim(hset.dim, c.dim)
    cv = c.probs
    diff = hset.rows - cv
    logs = np.log(hset.rows / cv)
    return float(hset.weights @ np.sum(diff * logs, axis=1))


def jeffreys_centroid_cat(
    hset: HistogramSet, epsilon: float = 1e-10, max_iter: int = 200
) -> JeffreysCatResult:
    """Numerical Jeffreys centroid via bracketed Newton on the multiplier lambda.

    The candidate c_j(lambda) = a_j / W0((a_j/g_j) e^{1+lambda}) has a mass
    s(lambda) = sum_j c_j(lambda) decreasing in lambda, whose unit-mass root
    lies in the bracket [a_k + log g_k - 1, 0] for any bin k, here k = argmax_j g_j
    (no log pass over g): there W0's argument in bin k is a_k e^{a_k}, so
    W_k = a_k, c_k = 1 and s >= 1, the other bins' candidates being positive.
    At the root lambda = -KL(c : g), so Newton starts at the multiplier the
    closed-form JFR center implies, lambda_J = -KL(c_JFR : g), clamped into the bracket;
    c_JFR is read from the set's :attr:`HistogramSet.jfr_probs`, so a set
    computes it once for this solve and :func:`jfr_center_cat`.
    The slope is
    s'(lambda) = -sum_j c_j / (1 + W_j), which is -sum_j c_j^2 / (c_j + a_j)
    since a_j = c_j W_j; the 1 + W it computes serves the next W's shift too.
    :func:`_bracketed_newton` solves 1 - s = 0 to ``epsilon``; its last gap is
    ``final_gap``.  The center is renormalized; the raw mass defect is kept in
    ``mass_residual``.  A solve that ends more than 1e-9 off unit mass checks
    the masses at both bracket ends and raises :class:`NumericalError` if they
    do not straddle 1.

    W_j is evaluated by :func:`lambert_w0` only at lambda_J.  W_j solves
    w + log w = log x_j with log x_j = log(a_j / g_j) + 1 + lambda, so after a
    step dlambda the previous W's residual is exactly dlambda, and
    :func:`_w0_shifted` takes it at the order dlambda needs, with no logarithm
    for |dlambda| <= 1e-4: one Newton step up to |dlambda| = 1e-8 (relative
    error at most dlambda^2 / 2 <= 5e-17), one Fritsch-Shafer-Crowley step up
    to 1e-4 (about 1.4 dlambda^4 <= 1.4e-16), FSC steps up to 1, and a cold
    start beyond.  Every W is at rounding.
    """
    _check_stopping(epsilon, max_iter, "epsilon")
    t0 = time.perf_counter_ns()
    a, g = hset.means
    r = (a / g) * math.e  # W_j's argument is r_j e^lambda
    k = g.argmax()
    lam_lo = float(a[k] + math.log(g[k]) - 1.0)
    c_jfr = hset.jfr_probs
    lam = min(max(-float((c_jfr * np.log(c_jfr / g)).sum()), lam_lo), 0.0)
    # W, 1 + W, the candidate and its mass at the last point solved, each
    # candidate and 1 + W written over the last: the slope computes 1 + W, and
    # the next W's shift reuses it
    w = wp1 = c_raw = s = None

    def defect(lam_k: float, dlam: float) -> float:  # 1 - s
        nonlocal w, c_raw, s
        x = r * math.exp(lam_k)
        w = _w0_shifted(x, w, wp1, dlam) if dlam else lambert_w0(x)
        c_raw = np.divide(a, w, out=c_raw)
        s = float(c_raw.sum())
        return 1.0 - s

    def slope(_: float) -> float:  # -s' at the last lambda solved
        nonlocal wp1
        wp1 = np.add(1.0, w, out=wp1)
        return float((c_raw / wp1).sum())

    lam, iterations, gap = _bracketed_newton(defect, slope, lam_lo, 0.0, lam, max_iter, epsilon)
    if abs(s - 1.0) > 1e-9:
        # s is monotone in lambda, so a bracket whose ends do not straddle
        # unit mass always ends the solve off it: only then are they checked
        s_lo = float((a / lambert_w0(r * math.exp(lam_lo))).sum())
        s_hi = float((a / lambert_w0(r)).sum())
        if s_lo < 1.0 - 1e-9 or s_hi > 1.0 + 1e-9:
            raise NumericalError(
                f"multiplier bracket does not straddle unit mass: "
                f"s({lam_lo:.6g})={s_lo:.12g}, s(0)={s_hi:.12g}"
            )
    center = SimplexPoint(c_raw / s)
    fixed_point_residual = abs(lam + float((center.probs * np.log(center.probs / g)).sum()))
    diag = CenterDiagnostics.after(t0, iterations, gap, epsilon, fixed_point_residual)
    return JeffreysCatResult(
        center=center, lam=lam, mass_residual=abs(s - 1.0), diagnostics=diag
    )


def _jfr_probs(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The JFR center's bins from the sided means: see :func:`jfr_center_cat`."""
    num = (np.sqrt(a) + np.sqrt(g)) ** 2
    return num / (2.0 * (1.0 + np.sqrt(a * g).sum()))


def jfr_center_cat(hset: HistogramSet) -> SimplexPoint:
    """Closed-form Jeffreys-Fisher-Rao center.

    c_j = (sqrt(a_j) + sqrt(g_j))^2 / (2 (1 + sum_l sqrt(a_l g_l))); the
    denominator normalizes the numerator mass analytically.  The bins are the
    set's read-only :attr:`HistogramSet.jfr_probs`.
    """
    return SimplexPoint(hset.jfr_probs)


def gb_center_cat(
    hset: HistogramSet, epsilon: float = GB_CAT_EPSILON, max_iter: int = 1000
) -> Tuple[SimplexPoint, CenterDiagnostics]:
    """Inductive Gauss-Bregman center of a histogram set.

    Double sequence from the (arithmetic, normalized geometric) means: the
    arithmetic track averages per bin, the geometric track takes the per-bin
    root product renormalized to unit mass.  At least one step is performed
    (unless the initial gap is already degenerate); the sequence stops once
    the total-variation gap drops to ``epsilon`` or ``max_iter`` steps are
    taken, and the last arithmetic iterate is returned.  The status is
    "max_iter" when the gap target was not met.
    """
    _check_stopping(epsilon, max_iter, "epsilon")
    (a, _), diag = _double_sequence(
        lambda: hset.means, _gb_step_cat, lambda p, q: 0.5 * float(np.abs(p - q).sum()),
        epsilon, max_iter, min(epsilon, _DEGENERATE_GAP),
    )
    # with no step taken, a is the set's cached mean: the center gets its own copy
    return SimplexPoint(a if diag.iterations else a.copy()), diag


def _gb_step_cat(a: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    u = np.sqrt(a * g)
    return 0.5 * (a + g), u / u.sum()


def unnormalized_center(hset: HistogramSet) -> Tuple[np.ndarray, float]:
    """The lambda = 0 candidate c(0) and its mass s(0) <= 1 + slack (see
    :func:`jeffreys_centroid_cat`)."""
    a, g = hset.means
    c0 = a / lambert_w0((a / g) * math.e)
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
