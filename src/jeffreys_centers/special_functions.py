"""Scalar special functions: the principal Lambert W branch, and the one bracketed
Newton that solves the histogram multiplier and both roots of the scalar JFR center.

For x > 0, W0 solves w + log w = log x by Fritsch-Shafer-Crowley steps (CACM
16(2), 1973, Alg. 443; Veberič, CPC 183, 2012) from Winitzki's start.  Nothing
is exponentiated, so every finite x > 0 is covered.

A W known at x e^-dlam has residual dlam at x, and is shifted to x at the order
dlam needs: one Newton step for |dlam| <= 1e-8 (relative error at most
dlam^2 / 2 <= 5e-17), one FSC step for |dlam| <= 1e-4 (about 1.4 dlam^4), FSC
steps for |dlam| <= 1, and a restart from Winitzki's start beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import _float_array

__all__ = ["ToleranceConfig", "lambert_w0"]

# One FSC step from residual z leaves a relative error of about 1.4 z^4, so
# the step taken from max|z| <= _FSC_LAST lands at rounding (1.4e-16): it is
# the last one, and no further log is taken to confirm it.
_FSC_LAST = 1e-4
# A Newton step from residual z leaves a relative error of at most
# z^2 / (2 (1 + w)^3) <= z^2 / 2 for w > 0, so from |z| <= _NEWTON_LAST it is
# at most 5e-17, under half an ulp: a shift that small needs no FSC step.
_NEWTON_LAST = 1e-8
# The step cap of the FSC loop.
_W0_MAX_STEPS = 100


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping control for iterative routines.

    ``rel_tol`` is the precision parameter of the generic double sequence and
    ``max_iter`` caps its loop: it controls ``gb_center`` and ``gb_center_mvn``
    only.  ``gb_center_cat`` and the histogram multiplier's Newton solve take
    their own ``epsilon`` and ``max_iter``.
    """

    rel_tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


def _w0_fsc(x: np.ndarray, w: np.ndarray, z, wp1=None) -> np.ndarray:
    """W0 of x > 0 by FSC steps on w + log w = log x from ``w``, given its
    residual ``z = log(x / w) - w``, an array (which later residuals overwrite)
    or one number for every entry, and ``wp1 = 1 + w`` if known; no input check.
    The ratio form of z keeps the digits that log x - log w loses for small x.
    The steps share three temporaries and apply the formula's operations in its
    order, so each w is the formula's to the bit; ``w`` and ``wp1`` are not
    written to."""
    q, num, den = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(_W0_MAX_STEPS):
        scalar = not isinstance(z, np.ndarray)
        last = (abs(z) if scalar else np.abs(z, out=den).max(initial=0.0)) <= _FSC_LAST
        if wp1 is None:
            wp1 = 1.0 + w
        # q = 2 wp1 (wp1 + 2z/3);  w += w z (q - z) / (wp1 (q - 2z))
        np.add(wp1, (2.0 / 3.0) * z if scalar else np.multiply(2.0 / 3.0, z, out=num), out=num)
        np.multiply(np.multiply(2.0, wp1, out=q), num, out=q)
        np.multiply(np.multiply(w, z, out=num), np.subtract(q, z, out=den), out=num)
        np.subtract(q, 2.0 * z if scalar else np.multiply(2.0, z, out=den), out=den)
        num /= np.multiply(wp1, den, out=den)
        if last:
            return np.add(w, num, out=num)
        w = w + num
        if scalar:
            z = np.empty_like(x)
        np.log(np.divide(x, w, out=z), out=z)
        z -= w
        wp1 = None
    raise NumericalError("lambert_w0 failed to converge")


def _w0_pos(x: np.ndarray) -> np.ndarray:
    """W0 of x > 0 from Winitzki's start, within 2% of W0 for every x > 0."""
    w = np.log1p(x)  # l, then l (1 - log1p(l) / (2 + l)) in place
    t = np.log1p(w)
    t /= 2.0 + w
    w *= np.subtract(1.0, t, out=t)
    z = np.log(np.divide(x, w, out=t), out=t)
    z -= w
    return _w0_fsc(x, w, z)


def _w0_shifted(x: np.ndarray, w: np.ndarray, wp1: np.ndarray, dlam: float) -> np.ndarray:
    """W0 of x > 0 given ``w = W0(x e^-dlam)`` and ``wp1 = 1 + w``; w's residual
    at x is dlam, and the shift takes the order dlam needs.

    Up to ``_NEWTON_LAST`` one Newton step w + dlam w / (1 + w) lands at
    rounding, and up to ``_FSC_LAST`` one FSC step.  FSC steps from w converge
    for |dlam| <= 2.5 over w in [1e-12, 700], but from w <= 1e-3 a jump of +3
    takes the log of a negative number: a jump larger than 1 starts from
    Winitzki's start instead.  ``w`` and ``wp1`` are not written to."""
    if abs(dlam) <= _NEWTON_LAST:
        step = np.multiply(dlam, w)
        step /= wp1
        return np.add(w, step, out=step)
    return _w0_fsc(x, w, dlam, wp1) if abs(dlam) <= 1.0 else _w0_pos(x)


def lambert_w0(x):
    """Principal branch W0 of the Lambert W function.

    Solves ``w * exp(w) = x`` for finite ``x > 0``, the domain of the histogram
    multiplier solve; accepts scalars or arrays.  Every entry is solved to
    rounding.
    """
    arr = _float_array(x, "lambert_w0 input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not arr.size:
        return np.empty_like(arr)
    # two reductions check x: the minimum is NaN if any entry is, the maximum
    # infinite if any entry is +inf; the error path then names the fault
    if not (arr.min() > 0.0 and arr.max() < math.inf):
        if not np.isfinite(arr).all():
            raise DomainError("lambert_w0 requires finite input")
        raise DomainError("lambert_w0 requires x > 0")
    w = _w0_pos(arr)
    return float(w[0]) if scalar else w


def _bracketed_newton(fun, slope, lo, hi, x, max_steps, atol=0.0, rtol=0.0):
    """Root in [lo, hi] of an increasing ``fun(x, dx) -> value`` from x, as
    (x, steps, gap), fun last called at x; dx is the step that reached x (0.0 at
    the start), and its slope(x) is called before each step.  A zero value is a
    root and steps 0, whatever the slope; a Newton step leaving the closed sign
    bracket or over half the last step is a bisection, which on two adjacent
    floats moves to one of them, then steps 0.  Stops once gap = min(|step|,
    hi - lo) <= atol + rtol |x|, or after max_steps."""
    value = fun(x, 0.0)
    steps, step, gap = 0, hi - lo, hi - lo
    while gap > atol + rtol * abs(x) and steps < max_steps:
        lo, hi = (x, hi) if value < 0.0 else (lo, x)
        last, step = step, -value / d if (d := slope(x)) > 0.0 else math.inf if value else 0.0
        if not lo <= x + step <= hi or abs(step) > 0.5 * abs(last):
            step = 0.5 * (lo + hi) - x
        if step != 0.0:
            x += step
            value = fun(x, step)
        steps += 1
        gap = min(abs(step), hi - lo)
    return x, steps, gap
