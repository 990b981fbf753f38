"""Jeffreys-Fisher-Rao center for one-parameter exponential families.

The Fisher-Rao geometry of a uni-order family is Euclidean in the coordinate
h(theta) = int sqrt(f''(u)) du, so the JFR center is the h-quasi-arithmetic
midpoint of the two sided KL centroids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import check_weights

__all__ = ["ScalarGenerator", "h_of", "h_inverse", "jfr_center_1d"]

_QUAD_ABS_TOL = 1e-12


@dataclass(frozen=True)
class ScalarGenerator:
    """A scalar convex generator f with derivatives and an open domain.

    ``theta_ref`` anchors the lower limit of the h integral; the additive
    constant cancels in midpoints, so it only affects conditioning.
    """

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    f_second: Callable[[float], float]
    domain: Tuple[float, float]
    theta_ref: float

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < self.theta_ref < hi:
            raise DomainError(f"theta_ref {self.theta_ref} outside domain ({lo}, {hi})")

    def require(self, theta: float) -> float:
        theta = float(theta)
        lo, hi = self.domain
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(f"theta {theta!r} outside domain ({lo}, {hi})")
        return theta


def h_of(gen: ScalarGenerator, theta: float) -> float:
    """h(theta) = int_{theta_ref}^{theta} sqrt(f''(u)) du by adaptive quadrature.

    A quadrature that warns (roundoff, subdivision limit, divergence) raises
    :class:`NumericalError` instead, and so does a value that is zero or of the
    wrong sign for theta != theta_ref, which a strictly increasing h cannot
    take: over a long interval quad can miss all of a saturating integrand.
    """
    from scipy.integrate import IntegrationWarning, quad

    theta = gen.require(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(
                lambda u: math.sqrt(gen.f_second(u)),
                gen.theta_ref,
                theta,
                epsabs=_QUAD_ABS_TOL,
                epsrel=1e-12,
                limit=200,
            )
        except IntegrationWarning as exc:
            raise NumericalError(f"h quadrature to theta={theta:.6g} failed: {exc}") from exc
    if err > 1e-8 * max(1.0, abs(val)):
        raise NumericalError(f"h quadrature did not converge (err {err:.3g})")
    if theta != gen.theta_ref and not val * (theta - gen.theta_ref) > 0.0:
        raise NumericalError(f"h quadrature to theta={theta:.6g} returned {val!r}")
    return val


def _monotone_root(
    fun: Callable[[float], float],
    target: float,
    start: float,
    domain: Tuple[float, float],
    xtol: float,
) -> float:
    """The theta with fun(theta) = target for an increasing ``fun``: a bracket
    grown geometrically around ``start`` inside ``domain``, then Brent's method
    to ``xtol``.

    The growth raises :class:`NumericalError` once ``fun`` has moved toward
    the target and then stops moving, as it does at a finite end of
    ``domain`` or where a bounded ``fun`` levels off: the target is then
    outside the range of ``fun``.
    """
    from scipy.optimize import brentq

    lo, hi = domain
    step = max(1e-6, abs(start) * 1e-3)
    a = b = start
    fa = fb = f0 = fun(start) - target
    for _ in range(200):
        if fa <= 0.0 <= fb or fb <= 0.0 <= fa:
            break
        step *= 2.0
        if fa > 0.0:  # monotone increasing fun: move left
            f_end = fa
            a = max(a - step, lo + (start - lo) * 1e-15) if math.isfinite(lo) else a - step
            fa = fun(a) - target
            stalled = f_end < f0 and fa >= f_end
        else:
            f_end = fb
            b = min(b + step, hi - (hi - start) * 1e-15) if math.isfinite(hi) else b + step
            fb = fun(b) - target
            stalled = f_end > f0 and fb <= f_end
        if stalled:
            raise NumericalError(
                f"target {target!r} outside the range reached in {domain}: "
                f"bracket growth stopped at [{a!r}, {b!r}]"
            )
    else:
        raise NumericalError("bracket growth failed; target may be out of range")
    if a == b:
        return a
    try:
        return float(brentq(lambda t: fun(t) - target, a, b, xtol=xtol, rtol=8.9e-16))
    except ValueError as exc:
        raise NumericalError(f"bracketing failed: {exc}") from exc


def h_inverse(gen: ScalarGenerator, y: float) -> float:
    """Monotone inversion of h: the theta with h(theta) = y, to 1e-9."""
    if y == 0.0:
        return gen.theta_ref
    return _monotone_root(lambda t: h_of(gen, t), float(y), gen.theta_ref, gen.domain, 1e-12)


def jfr_center_1d(
    gen: ScalarGenerator,
    thetas: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """JFR center of scalar natural parameters: m_h of the sided KL centroids.

    theta_bar is the weighted arithmetic mean, theta_under the f'-quasi
    arithmetic mean (by bracketed root-finding), and the result is
    h^{-1}((h(theta_bar) + h(theta_under)) / 2), which lies between the two.
    """
    ts = np.atleast_1d(np.asarray(thetas, dtype=float))
    w = check_weights(weights, ts.size)
    for t in ts:
        gen.require(float(t))
    theta_bar = float(w @ ts)
    theta_under = _monotone_root(
        gen.f_prime, float(w @ np.array([gen.f_prime(t) for t in ts])),
        0.5 * (float(ts.min()) + float(ts.max())), gen.domain, 1e-13,
    )
    if abs(theta_bar - theta_under) < 1e-15:
        return theta_bar
    mid = 0.5 * (h_of(gen, theta_bar) + h_of(gen, theta_under))
    center = h_inverse(gen, mid)
    lo, hi = min(theta_bar, theta_under), max(theta_bar, theta_under)
    # betweenness can only be violated by root-finding noise
    return min(max(center, lo), hi)
