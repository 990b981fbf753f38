"""Scalar special functions: principal Lambert W branch and complete elliptic
integral of the first kind.

The Lambert W implementation is a Halley iteration with a piecewise seed
(series near the branch point, log-based for large arguments).  The same
Halley loop also runs from a start the caller supplies: the histogram
Jeffreys solve starts it from the previous multiplier's W.  K(u) is
evaluated by adaptive quadrature of its defining integral rather than by the
arithmetic-geometric mean (AGM), so the AGM, which is the Gauss-Bregman center
under the Shannon generator, can be tested against it without circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = ["ToleranceConfig", "lambert_w0", "elliptic_k"]

_NEG_INV_E = -math.exp(-1.0)


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
        wp1 = w + 1.0
        # Halley step; wp1 stays positive away from the branch point.
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    else:
        if (np.abs(w * np.exp(w) - x) > target).any():
            raise NumericalError("lambert_w0 failed to converge")
    return w


def lambert_w0(x):
    """Principal branch W0 of the Lambert W function.

    Solves ``w * exp(w) = x`` for ``x >= -1/e`` with residual
    ``|w e^w - x| <= rel_tol * max(1, |x|)``.  Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.isfinite(arr).all():
        raise DomainError("lambert_w0 requires finite input")
    if (arr < _NEG_INV_E).any():
        raise DomainError(f"lambert_w0 requires x >= -1/e = {_NEG_INV_E!r}")

    # W0(-1/e) = -1 exactly, where Halley's step divides by w + 1 = 0: those
    # entries iterate on x = 0 (W0(0) = 0, already converged) and are pinned.
    at_branch = arr == _NEG_INV_E
    pinned = at_branch.any()
    if pinned:
        arr = np.where(at_branch, 0.0, arr)
    w = _w0_halley(arr, _w0_seed(arr))
    if pinned:
        w[at_branch] = -1.0
    return float(w[0]) if scalar else w


def elliptic_k(u: float) -> float:
    """Complete elliptic integral of the first kind, K(u) with modulus u.

    K(u) = int_0^{pi/2} dt / sqrt(1 - u^2 sin^2 t), requires |u| < 1.
    Evaluated by adaptive quadrature of the defining integral.
    """
    if not math.isfinite(u) or abs(u) >= 1.0:
        raise DomainError(f"elliptic_k requires |u| < 1, got {u!r}")
    from scipy.integrate import quad

    usq = u * u
    val, err = quad(
        lambda t: 1.0 / math.sqrt(1.0 - usq * math.sin(t) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=1e-14,
        epsrel=DEFAULT_TOL.rel_tol,
        limit=200,
    )
    if err > 1e-6 * max(1.0, abs(val)):
        raise NumericalError(f"elliptic_k quadrature error too large: {err}")
    return val

