"""Scalar special functions: the principal Lambert W branch.

The Lambert W implementation is a Halley iteration with a piecewise seed
(series near the branch point, log-based for large arguments).  The same
Halley loop also runs from a start the caller supplies: :func:`lambert_w0`
takes one, which the histogram Jeffreys solve draws from its closed-form JFR
center, and the solve starts each later W from the previous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = ["ToleranceConfig", "lambert_w0"]

_NEG_INV_E = -math.exp(-1.0)

# A caller's start is used where it lies in [_START_MIN, _START_MAX] and x is
# at most _START_MAX e^_START_MAX (3.2e302).  There every product of Halley's
# step stays finite, so no floating-point warning can arise, and the step
# measures the start's error: toward w = -1 it shrinks with w + 1 however far
# the root is.
_START_MIN = -0.5
_START_MAX = 690.0
_START_MAX_X = _START_MAX * math.exp(_START_MAX)
# Sizes of the first Halley step from a start, absolute where |w| >= 1 and
# relative below: past _START_FAR the start is not used, and past _START_NEAR
# a second step follows (see _from_start).
_START_FAR = 0.1
_START_NEAR = 1e-6


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping control for iterative routines.

    ``rel_tol`` is the precision parameter of the double-sequence algorithms
    and ``max_iter`` caps their loops.  The scalar functions of this module
    run at the fixed ``DEFAULT_TOL``.  The histogram multiplier's safeguarded
    Newton solve takes its own ``epsilon`` and ``max_iter``.
    """

    rel_tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOL = ToleranceConfig()


def _w0_seed(x: np.ndarray) -> np.ndarray:
    # Branch-point series for x near -1/e, log1p in the middle range,
    # two-term asymptotic expansion for large x.  Each branch is evaluated on
    # the whole array with its argument clamped into range.
    p = np.sqrt(np.maximum(2.0 * (math.e * np.minimum(x, -0.25) + 1.0), 0.0))
    near = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    l1 = np.log(np.maximum(x, math.e))
    return np.where(x < -0.25, near, np.where(x > math.e, l1 - np.log(l1), np.log1p(x)))


def _halley_step(w: np.ndarray, ew: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Halley's step for ``w e^w = x`` at ``w``, from ``ew = e^w`` and the
    residual ``f = w e^w - x``: the new iterate is ``w`` minus it."""
    wp1 = w + 1.0
    # wp1 stays positive away from the branch point
    return f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))


def _w0_halley(x: np.ndarray, w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Halley iteration for ``w e^w = x`` on the W0 branch, from the start ``w``.

    No input check: ``x`` must be a finite array above -1/e and ``w`` a start
    above -1 (past it Halley's step leaves the branch).  Stops once
    ``|w e^w - x| <= rel_tol * max(1, |x|)`` holds for every entry; a start
    that already meets it is returned after one residual evaluation.
    """
    target = tol.rel_tol * np.maximum(1.0, np.abs(x))
    for _ in range(tol.max_iter):
        ew = np.exp(w)
        f = w * ew - x
        if (np.abs(f) <= target).all():
            break
        w = w - _halley_step(w, ew, f)
    else:
        if (np.abs(w * np.exp(w) - x) > target).any():
            raise NumericalError("lambert_w0 failed to converge")
    return w


def _from_start(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The caller's start after Halley's first step, or the piecewise seed.

    The step is taken even where the start already meets the residual test,
    which lets an error of up to about 1e-12 pass, 1e-11 relative where
    |x| < 1.  Halley's error after a step of size s is about s^3, so the
    largest step decides:

    - past ``_START_FAR`` the seed is used instead: far from the root Halley
      moves w by at most about 2 a step;
    - past ``_START_NEAR`` a second step follows, so that a start off by 1e-5
      still lands at rounding level rather than where the test lets it pass.
    """
    ew = np.exp(w)
    dw = _halley_step(w, ew, w * ew - x)
    w = w - dw
    # the floor keeps w = 0 from dividing by 0; there dw is the start, at most 690
    moved = (np.abs(dw) / np.maximum(np.minimum(np.abs(w), 1.0), 1e-300)).max()
    if not moved <= _START_FAR:
        return _w0_seed(x)
    if moved > _START_NEAR:
        ew = np.exp(w)
        w = w - _halley_step(w, ew, w * ew - x)
    return w


def _w_start(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Two Newton steps on w + log w = log x from ``w``, given
    ``u = 1 + log x - log w >= 1``.

    A step maps w to w u / (1 + w).  w + log w is concave, so each step lands
    at or below the root W0(x), and u stays at least 1.
    """
    t = 1.0 + w
    w1 = w * u / t
    u = u + np.log(t / u)  # w / w1 = t / u
    return w1 * u / (1.0 + w1)


def _w0_log(x: np.ndarray) -> np.ndarray:
    """W0 of x > _START_MAX_X from w + log w = log x, where nothing overflows.

    The start L - log L (L = log x, here between 696 and 710) lies below the
    root by less than 0.01, and Newton's error shrinks to its square times
    about 1 / (2 w^2) at each step: the two steps of :func:`_w_start` reach
    rounding.
    """
    log_x = np.log(x)
    w = log_x - np.log(log_x)
    return _w_start(w, 1.0 + log_x - np.log(w))


def lambert_w0(x, start=None):
    """Principal branch W0 of the Lambert W function.

    Solves ``w * exp(w) = x`` for ``x >= -1/e`` with residual
    ``|w e^w - x| <= rel_tol * max(1, |x|)``.  Accepts scalars or arrays.

    ``start``, if given, is an estimate of W0(x): finite, above -1 and of the
    shape of ``x``.  Halley then takes one step from it in place of the
    piecewise seed, two if that step is larger than 1e-6, and iterates on to
    the residual test.  The start is not used, and the whole array starts
    from the seed, where some entry of it lies outside [-0.5, 690], some x
    exceeds 3.2e302, or the first step moves some entry by more than 0.1
    (absolutely where |w| >= 1, relatively below); a poor start then costs
    one Halley step more than none.  Entries above 3.2e302, where Halley's
    products can overflow, are solved as w + log w = log x instead.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if start is not None:
        w = np.asarray(start, dtype=float)
        if w.shape != arr.shape:
            raise DomainError(f"lambert_w0 start has shape {w.shape}, x has {arr.shape}")
        w = np.atleast_1d(w)
    arr = np.atleast_1d(arr)
    if not arr.size:
        return np.empty_like(arr)
    # two reductions check x: the minimum is NaN if any entry is, the maximum
    # infinite if any entry is +inf; the error path then names the fault
    lo, hi = arr.min(), arr.max()
    if not (lo >= _NEG_INV_E and hi < math.inf):
        if not np.isfinite(arr).all():
            raise DomainError("lambert_w0 requires finite input")
        raise DomainError(f"lambert_w0 requires x >= -1/e = {_NEG_INV_E!r}")
    started = False
    if start is not None:
        w_lo, w_hi = w.min(), w.max()
        if not (w_lo > -1.0 and w_hi < math.inf):
            raise DomainError("lambert_w0 requires a finite start above -1")
        started = _START_MIN <= w_lo and w_hi <= _START_MAX and hi <= _START_MAX_X

    # W0(-1/e) = -1 exactly, where Halley's step divides by w + 1 = 0, and
    # above _START_MAX_X Halley's products can overflow: those entries iterate
    # on x = 0 (W0(0) = 0, already converged) and are set afterwards.
    aside = lo == _NEG_INV_E or hi > _START_MAX_X
    if aside:
        at_branch = arr == _NEG_INV_E
        huge = arr > _START_MAX_X
        w_huge = _w0_log(arr[huge])
        arr = np.where(at_branch | huge, 0.0, arr)
    w = _w0_halley(arr, _from_start(arr, w) if started else _w0_seed(arr))
    if aside:
        w[at_branch] = -1.0
        w[huge] = w_huge
    return float(w[0]) if scalar else w
