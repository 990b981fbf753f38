"""Jeffreys-Fisher-Rao center for one-parameter exponential families.

The Fisher-Rao geometry of a uni-order family is Euclidean in the coordinate
h(theta) = int sqrt(f''(u)) du, so the JFR center is the h-quasi-arithmetic
midpoint of the two sided KL centroids.  Both roots it takes are solved by
``special_functions._bracketed_newton`` inside intervals the input fixes: the
left centroid lies between the smallest and the largest theta_i, and the
center between the two centroids, so no bracket grows and no integral leaves
the two centroids.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import _float_array, check_weights
from .special_functions import _bracketed_newton

__all__ = ["ScalarGenerator", "jfr_center_1d"]

# Adaptive Gauss-Legendre: a piece whose one-rule value and two-halves value
# differ by more than _H_REL_TOL of the larger of that value and the whole
# interval's is halved, _MAX_SPLITS times at most.  Near a zero of f'' a piece's
# own value shrinks with its error, so a kink of sqrt f'' there needs that floor.
_GL_NODES = 20
_H_REL_TOL = 1e-12
_MAX_SPLITS = 200
# Newton stops on a step or bracket within _STEP_TOL (|x| + min |bracket end|), or raises
# after _MAX_STEPS; the floor meets a root at 0, which relative steps alone never reach.
_STEP_TOL = 4e-16
_MAX_STEPS = 200


@dataclass(frozen=True)
class ScalarGenerator:
    """A scalar convex generator f, by its first two derivatives, on an open domain."""

    f_prime: Callable[[float], float]
    f_second: Callable[[float], float]
    domain: Tuple[float, float]

    def require(self, theta: float) -> float:
        theta = float(theta)
        lo, hi = self.domain
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(f"theta {theta!r} outside domain ({lo}, {hi})")
        return theta


def _call(fun: Callable[[float], float], theta: float) -> float:
    """fun(theta) as a float; an overflow or a non-finite value raises NumericalError."""
    try:
        value = float(fun(theta))
    except OverflowError as exc:
        raise NumericalError(f"generator overflowed at theta={theta!r}") from exc
    if not math.isfinite(value):
        raise NumericalError(f"generator returned {value!r} at theta={theta!r}")
    return value


def _sqrt_f2(gen: ScalarGenerator, theta: float) -> float:
    value = _call(gen.f_second, theta)
    if value < 0.0:
        raise NumericalError(f"f'' is {value!r} < 0 at theta={theta!r}")
    return math.sqrt(value)


@functools.lru_cache(maxsize=None)
def _gl_rule() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def _gl(gen: ScalarGenerator, a: float, b: float) -> float:
    """int_a^b sqrt(f'') by one rule."""
    u, w = _gl_rule()
    return (b - a) * float(w @ [_sqrt_f2(gen, t) for t in (a + (b - a) * u).tolist()])


def _h_pieces(gen: ScalarGenerator, a: float, b: float) -> Tuple[List[float], List[float]]:
    """The starts of the pieces of [a, b], left to right, and int_a sqrt(f'') up
    to each start and to b, each piece by one rule on each of its halves."""
    whole = _gl(gen, a, b)
    todo, starts, before, splits = [(a, b, whole)], [], [0.0], 0
    while todo:
        lo, hi, coarse = todo.pop()
        mid = 0.5 * (lo + hi)
        left, right = _gl(gen, lo, mid), _gl(gen, mid, hi)
        if abs(left + right - coarse) <= _H_REL_TOL * max(left + right, whole):
            starts.append(lo)
            before.append(before[-1] + left + right)
        elif splits == _MAX_SPLITS:
            raise NumericalError(f"h quadrature over [{a!r}, {b!r}] did not converge")
        else:
            splits += 1
            todo += [(mid, hi, right), (lo, mid, left)]
    return starts, before


def _newton(fun, slope, lo: float, hi: float) -> float:
    """:func:`_bracketed_newton` on ``fun(x)`` from the midpoint; out of steps, raises."""
    atol = _STEP_TOL * min(abs(lo), abs(hi))
    x, _, gap = _bracketed_newton(
        lambda t, _: fun(t), slope, lo, hi, 0.5 * (lo + hi), _MAX_STEPS, atol, _STEP_TOL
    )
    if gap > atol + _STEP_TOL * abs(x):
        raise NumericalError(f"Newton did not converge in {_MAX_STEPS} steps on [{lo!r}, {hi!r}]")
    return x


def jfr_center_1d(
    gen: ScalarGenerator,
    thetas: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """JFR center of scalar natural parameters: m_h of the sided KL centroids.

    theta_under, the f'-quasi arithmetic mean, is solved by Newton on
    [min theta_i, max theta_i].  With lo < hi the two centroids, m solves
    int_lo^m sqrt(f'') = (1/2) int_lo^hi sqrt(f'') by Newton on [lo, hi].
    """
    ts = _float_array(thetas, "thetas", (None,))
    w = check_weights(weights, ts.size)
    ts = [gen.require(t) for t in ts.tolist()]
    theta_bar = float(w @ ts)
    slopes = [_call(gen.f_prime, t) for t in ts]
    if min(ts) < max(ts) and min(slopes) == max(slopes):
        raise NumericalError("f' is one float at every theta: the left centroid is not determined")
    eta = float(w @ slopes)
    f_second = functools.partial(_call, gen.f_second)
    theta_under = _newton(lambda t: _call(gen.f_prime, t) - eta, f_second, min(ts), max(ts))
    if theta_under == theta_bar:
        return theta_bar
    lo, hi = sorted((theta_bar, theta_under))
    starts, before = _h_pieces(gen, lo, hi)

    def h_minus_half(m: float) -> float:
        # the pieces before m, then one rule on each half of the rest
        k = bisect.bisect_right(starts, m) - 1
        mid = 0.5 * (starts[k] + m)
        return before[k] + _gl(gen, starts[k], mid) + _gl(gen, mid, m) - 0.5 * before[-1]

    return _newton(h_minus_half, functools.partial(_sqrt_f2, gen), lo, hi)
