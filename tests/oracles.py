"""Reference computations the tests check the library against.

Each one is independent of the library path it checks: scipy quadrature and
bracketed root finding for the scalar h coordinate and the elliptic integral,
centered finite differences for optimality residuals, spectral matrix
powers, exact rational arithmetic for the symmetrized log-det divergence, and
the Gaussian conversions composed one step at a time.  None of them runs in
the library.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from jeffreys_centers import (
    DomainError,
    GeneratorSpec,
    NumericalError,
    ScalarGenerator,
    SPDMatrix,
    WeightedParamSet,
    check_weights,
    jeffreys_loss,
)
from jeffreys_centers.special_functions import DEFAULT_TOL
from jeffreys_centers.spd import _as_spd, _check_same_dim, _geomean, _power, _same_dim_stack

# cube root of machine epsilon, the standard centered-difference step scale
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

_QUAD_ABS_TOL = 1e-12


@dataclass(frozen=True)
class AnchoredGenerator(ScalarGenerator):
    """A scalar generator with ``theta_ref``, the lower limit of the h integral.

    The additive constant cancels in midpoints, so it only affects conditioning.
    """

    theta_ref: float = 0.0

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < self.theta_ref < hi:
            raise DomainError(f"theta_ref {self.theta_ref} outside domain ({lo}, {hi})")


def h_of(gen: AnchoredGenerator, theta: float) -> float:
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


def h_inverse(gen: AnchoredGenerator, y: float) -> float:
    """Monotone inversion of h: the theta with h(theta) = y, to 1e-9."""
    if y == 0.0:
        return gen.theta_ref
    return _monotone_root(lambda t: h_of(gen, t), float(y), gen.theta_ref, gen.domain, 1e-12)


def elliptic_k(u: float) -> float:
    """Complete elliptic integral of the first kind, K(u) with modulus u.

    K(u) = int_0^{pi/2} dt / sqrt(1 - u^2 sin^2 t), requires |u| < 1.
    Evaluated by adaptive quadrature of the defining integral, so the AGM,
    which is the Gauss-Bregman center under the Shannon generator, can be
    tested against it without circularity.
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


def energy_grad_residual(gen: GeneratorSpec, pset: WeightedParamSet, theta) -> float:
    """Norm of the centered finite-difference gradient of the Jeffreys loss.

    Near zero exactly when ``theta`` is near the symmetrized Bregman centroid
    of the set.  Steps are eps^(1/3)-scaled per component.
    """
    t = gen.require_domain(theta, "query point")
    grad = np.empty(gen.dim)
    for k in range(gen.dim):
        h = _FD_STEP * max(1.0, abs(t[k]))
        tp, tm = t.copy(), t.copy()
        tp[k] += h
        tm[k] -= h
        if tp[k] == t[k] or tm[k] == t[k]:
            raise NumericalError("finite-difference step underflow")
        grad[k] = (jeffreys_loss(gen, pset, tp) - jeffreys_loss(gen, pset, tm)) / (2 * h)
    return float(np.linalg.norm(grad))


def spd_power(x: SPDMatrix, p: float) -> SPDMatrix:
    """Matrix power X^p through the spectral decomposition."""
    return SPDMatrix(_power(_as_spd(x).entries, p))


def spd_sqrt(x: SPDMatrix) -> SPDMatrix:
    """Principal matrix square root."""
    return spd_power(x, 0.5)


def sld_grad_residual(
    mats: Sequence[SPDMatrix], weights: Optional[Sequence], x: SPDMatrix
) -> float:
    """Finite-difference gradient norm of sum_i w_i S_ld(X, P_i) at X.

    Perturbs the independent entries of X symmetrically with centered
    differences; near zero exactly at the symmetrized log-det centroid.
    """
    w = check_weights(weights, len(mats))
    arrays = _same_dim_stack(mats)
    xa = _as_spd(x).entries
    d = xa.shape[0]

    def loss(m: np.ndarray) -> float:
        total = 0.0
        for wi, p in zip(w, arrays):
            total += wi * (
                np.trace(np.linalg.solve(m, p)) + np.trace(np.linalg.solve(p, m)) - 2 * d
            )
        return float(total)

    grad = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            h = _FD_STEP * max(1.0, abs(xa[i, j]))
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            grad[i, j] = grad[j, i] = (loss(xa + h * e) - loss(xa - h * e)) / (2 * h)
    return float(np.linalg.norm(grad))


def g_invariance_residual(a: SPDMatrix, h: SPDMatrix) -> float:
    """Frobenius residual of G(A,H) = G((A+H)/2, 2(A^{-1}+H^{-1})^{-1})."""
    aa, ha = _as_spd(a).entries, _as_spd(h).entries
    _check_same_dim(aa, ha)
    lhs = _geomean(aa, ha)
    harm = 2.0 * np.linalg.inv(np.linalg.inv(aa) + np.linalg.inv(ha))
    rhs = _geomean(0.5 * (aa + ha), 0.5 * (harm + harm.T))
    return float(np.linalg.norm(lhs - rhs))


def exact_symmetrized_logdet(x: np.ndarray, y: np.ndarray) -> float:
    """tr(X^{-1} Y + Y^{-1} X) - 2d in exact rational arithmetic."""

    def solve_trace(m, rhs):  # tr(m^{-1} rhs) by Gauss-Jordan elimination
        d = len(m)
        aug = [[Fraction(v) for v in row] + [Fraction(v) for v in r] for row, r in zip(m, rhs)]
        for c in range(d):
            p = next(i for i in range(c, d) if aug[i][c] != 0)
            aug[c], aug[p] = aug[p], aug[c]
            aug[c] = [v / aug[c][c] for v in aug[c]]
            for i in range(d):
                if i != c and aug[i][c] != 0:
                    aug[i] = [v - aug[i][c] * w for v, w in zip(aug[i], aug[c])]
        return sum(aug[i][d + i] for i in range(d))

    return float(solve_trace(x.tolist(), y.tolist()) + solve_trace(y.tolist(), x.tolist())
                 - 2 * len(x))


# --- the Gaussian conversions, composed step by step ----------------------------

def _vech_tables(d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale (1 on the diagonal, sqrt(2) off it), raveled upper-triangle
    positions, and the vech position of each raveled matrix entry."""
    r, c = np.triu_indices(d)
    vech_of = np.empty((d, d), dtype=np.intp)
    vech_of[r, c] = vech_of[c, r] = np.arange(r.size)
    return np.where(r == c, 1.0, np.sqrt(2.0)), r * d + c, vech_of.ravel()


def _flatten(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    scale, upper, _ = _vech_tables(vec.size)
    return np.concatenate([vec, mat.ravel()[upper] * scale])


def _unflatten(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    scale, _, vech_of = _vech_tables(d)
    return x[:d], (x[d:] / scale)[vech_of].reshape(d, d)


def _sym_inv(m: np.ndarray) -> np.ndarray:
    inv = np.linalg.inv(m)
    return 0.5 * (inv + inv.T)


def mvn_to_natural_composed(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Flat naturals of N(mean, cov): invert, scale by -1/2 and flatten, one step at a time."""
    prec = _sym_inv(cov)
    return _flatten(prec @ mean, -0.5 * prec)


def mvn_from_natural_composed(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of the flat naturals x: unflatten, scale theta_M by
    -2 and invert, one step at a time."""
    tv, tm = _unflatten(x, d)
    cov = _sym_inv(-2.0 * tm)
    return cov @ tv, cov


def mvn_grad_composed(x: np.ndarray, d: int) -> np.ndarray:
    """The moment parameter (mu, mu mu^T + Sigma) of the flat naturals x."""
    mu, cov = mvn_from_natural_composed(x, d)
    return _flatten(mu, mu[:, None] * mu + cov)


def mvn_grad_inv_composed(e: np.ndarray, d: int) -> np.ndarray:
    """The flat naturals of the moment parameter e."""
    ev, em = _unflatten(e, d)
    return mvn_to_natural_composed(ev, em - ev[:, None] * ev)
