"""Reference computations the tests check the library against.

Each one is independent of the library path it checks: scipy quadrature and
bracketed root finding for the scalar h coordinate and the elliptic integral,
centered finite differences for optimality residuals, eigendecomposition matrix
powers, exact rational and decimal arithmetic for the two-matrix divergences,
the Gaussian conversions composed one step at a time, the categorical
generator over log-ratio naturals, the squared generator, the histogram
multiplier's candidate center evaluated cold, and the Gauss-Bregman step in
primal coordinates.  None of them runs in the library.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from jeffreys_centers import (
    DomainError,
    GeneratorSpec,
    NumericalError,
    ScalarGenerator,
    SimplexPoint,
    SPDMatrix,
    ToleranceConfig,
    WeightedParamSet,
    check_weights,
    geometric_mean,
    jeffreys_loss,
    lambert_w0,
    quasi_arithmetic_center,
    right_bregman_centroid,
)
from jeffreys_centers.gauss_bregman import _gap
from jeffreys_centers.generators import _separable
from jeffreys_centers.legendre import _float_array
from jeffreys_centers.spd import _as_spd, _same_dim_stack

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
        epsrel=1e-12,
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


def gb_step_primal(gen: GeneratorSpec, theta_bar, theta_under) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Bregman step in primal coordinates: the arithmetic midpoint and
    (grad F)^{-1}((grad F(theta_bar) + grad F(theta_under))/2), re-evaluating
    grad F(theta_under) where the library's step carries it."""
    tb = gen.require_domain(theta_bar, "arithmetic iterate")
    tu = gen.require_domain(theta_under, "quasi-arithmetic iterate")
    new_under = gen.eval_grad_inv(0.5 * (gen.eval_grad(tb) + gen.eval_grad(tu)))
    return 0.5 * (tb + tu), np.asarray(new_under, dtype=float)


def gb_center_primal(
    gen: GeneratorSpec, pset: WeightedParamSet, tol: ToleranceConfig
) -> Tuple[np.ndarray, int, str]:
    """``gb_center``'s sequence run with :func:`gb_step_primal`, under its start,
    gap and stopping rule: the last arithmetic iterate, the step count and the status."""
    bar, under = right_bregman_centroid(pset), quasi_arithmetic_center(gen, pset)
    steps = 0
    while (gap := _gap(bar, under)) > tol.rel_tol and steps < tol.max_iter:
        bar, under = gb_step_primal(gen, bar, under)
        steps += 1
    return bar, steps, "converged" if gap <= tol.rel_tol else "max_iter"


def spd_power(x: SPDMatrix, p: float) -> SPDMatrix:
    """Matrix power X^p = V diag(w^p) V^T through the eigendecomposition of X."""
    w, v = np.linalg.eigh(_as_spd(x).entries)
    out = (v * w**p) @ v.T
    return SPDMatrix(0.5 * (out + out.T))


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
    lhs = geometric_mean(aa, ha).entries
    harm = 2.0 * np.linalg.inv(np.linalg.inv(aa) + np.linalg.inv(ha))
    rhs = geometric_mean(0.5 * (aa + ha), 0.5 * (harm + harm.T)).entries
    return float(np.linalg.norm(lhs - rhs))


def _exact_det(m: list):
    """Determinant of a small square matrix of exact or decimal numbers, by cofactors."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _exact_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _mat_mul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _adjugate(m: list) -> list:
    """adj(m) of a small square matrix, entry (i, j) the (j, i) cofactor."""
    return [[(-1) ** (i + j) * _exact_det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
             for j in range(len(m))] for i in range(len(m))]


def _exact_quotient(m: np.ndarray, rhs: np.ndarray) -> Tuple[list, int]:
    """(N, q), integers with m^{-1} rhs = N / q exactly, rhs a matrix or a vector taken as
    one column: both are scaled by one power of two to integers, and N = adj(m) rhs,
    q = det(m) (small d only)."""
    rhs = np.asarray(rhs, dtype=float).reshape(len(m), -1)
    ratios = [[[v.as_integer_ratio() for v in row] for row in a.tolist()] for a in (m, rhs)]
    scale = max(den for a in ratios for row in a for _, den in row)
    mi, ri = ([[num * (scale // den) for num, den in row] for row in a] for a in ratios)
    return _mat_mul(_adjugate(mi), ri), _exact_det(mi)


def _exact_trace(m: np.ndarray, rhs: np.ndarray) -> Fraction:
    """tr(m^{-1} rhs) in exact rational arithmetic."""
    n, q = _exact_quotient(m, rhs)
    return Fraction(sum(n[i][i] for i in range(len(n))), q)


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_symmetrized_logdet(x: np.ndarray, y: np.ndarray) -> float:
    """tr(X^{-1} Y + Y^{-1} X) - 2d in exact rational arithmetic."""
    return float(_exact_trace(x, y) + _exact_trace(y, x) - 2 * len(x))


def exact_logdet_div(x: np.ndarray, y: np.ndarray) -> float:
    """tr(Y^{-1} X) - log det(Y^{-1} X) - d: the trace and the determinant in exact
    rational arithmetic, the log and the difference in 60-digit decimals."""
    n, q = _exact_quotient(y, x)
    d = len(x)
    with localcontext() as ctx:
        ctx.prec = 60
        trace = _decimal(Fraction(sum(n[i][i] for i in range(d)), q) - d)
        return float(trace - _decimal(Fraction(_exact_det(n), q**d)).ln())


def exact_mahalanobis(cov: np.ndarray, v: np.ndarray) -> float:
    """v^T cov^{-1} v in exact rational arithmetic."""
    n, q = _exact_quotient(cov, v)
    return float(Fraction(sum(Fraction(vi) * ni[0] for vi, ni in zip(v.tolist(), n)), q))


def _largest_root(coeffs: list) -> Decimal:
    """Largest root of the polynomial with the given Decimal coefficients (highest degree
    first), all of whose roots are real and positive, by Newton's method from
    -c1/c0, the sum of the roots, above which it descends monotonically."""
    x = -coeffs[1] / coeffs[0]
    for _ in range(2000):
        p = dp = Decimal(0)
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        step = p / dp
        x -= step
        if abs(step) <= x.scaleb(-70):
            return x
    raise AssertionError("Newton did not converge")


def exact_trace_metric_distance(x: np.ndarray, y: np.ndarray) -> float:
    """||log(X^{-1/2} Y X^{-1/2})||_F for d <= 3, from the eigenvalues of M = X^{-1} Y.

    The characteristic polynomial's coefficients (sums of principal minors of M)
    are exact rationals; its largest root and the reciprocal of the largest root
    of the reversed polynomial are found by Newton's method in 80-digit decimals,
    and for d = 3 the middle one is det M over their product."""
    d = len(x)
    assert d <= 3, "the closed form covers d <= 3"
    n, q = _exact_quotient(x, y)
    e = [Fraction(sum(_exact_det([[n[i][j] for j in s] for i in s])
                      for s in itertools.combinations(range(d), k)), q**k)
         for k in range(d + 1)]
    with localcontext() as ctx:
        ctx.prec = 80
        coeffs = [_decimal((-1) ** k * ek) for k, ek in enumerate(e)]
        hi = _largest_root(coeffs)
        lam = [hi]
        if d > 1:
            lo = 1 / _largest_root(coeffs[::-1])
            lam.append(lo)
        if d == 3:
            lam.append(_decimal(e[3]) / (hi * lo))
        return float(sum(v.ln() ** 2 for v in lam).sqrt())


def _cofactor_inverse(m: list) -> list:
    """Inverse of a small square matrix of exact or decimal numbers, adj(m) / det(m)."""
    det = _exact_det(m)
    return [[v / det for v in row] for row in _adjugate(m)]


def _frame_norm(e: list, p: list) -> float:
    """||P^{-1/2} E P^{-1/2}||_F of symmetric E and SPD P, as sqrt(tr((E P^{-1})^2))."""
    q = _mat_mul(e, _cofactor_inverse(p))
    return math.sqrt(float(sum(q[i][j] * q[j][i] for i in range(len(q)) for j in range(len(q)))))


def _exact_geomean_error(x: list, y: list, g: list) -> float:
    """The error ||R^{-1/2} (G - R) R^{-1/2}||_F of G against R = X # Y, for matrices of
    exact rationals.

    For 2 x 2 it is read off Bhatia's closed form R = sqrt(ab) S / sqrt(det S),
    S = X/a + Y/b, a = sqrt(det X), b = sqrt(det Y), in 80-digit decimals.  For
    d >= 3 it is bounded by half the Riccati residual F = G X^{-1} G - Y read in
    Y's frame, ||Y^{-1/2} F Y^{-1/2}||_F / 2, in exact rational arithmetic: with
    E = R^{-1/2} (G - R) R^{-1/2} and M = R^{-1/2} Y R^{-1/2} = Q diag(m) Q^T, the
    residual's entries in Q's basis are E_ij (sqrt(m_i / m_j) + sqrt(m_j / m_i)) to
    first order in E, each at least 2 |E_ij|.
    """
    if len(x) == 2:
        with localcontext() as ctx:
            ctx.prec = 80
            xd, yd, gd = ([[_decimal(v) for v in row] for row in m] for m in (x, y, g))
            a, b = _exact_det(xd).sqrt(), _exact_det(yd).sqrt()
            s = [[u / a + v / b for u, v in zip(ru, rv)] for ru, rv in zip(xd, yd)]
            c = (a * b).sqrt() / _exact_det(s).sqrt()
            r = [[c * v for v in row] for row in s]
            return _frame_norm([[u - v for u, v in zip(ru, rv)] for ru, rv in zip(gd, r)], r)
    f = _mat_mul(_mat_mul(g, _cofactor_inverse(x)), g)
    return _frame_norm([[u - v for u, v in zip(ru, rv)] for ru, rv in zip(f, y)], y) / 2


def _fractions(m: np.ndarray) -> list:
    return [[Fraction(v) for v in row] for row in np.asarray(m, dtype=float).tolist()]


def geometric_mean_error(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> float:
    """The error of a computed G against X # Y, as :func:`_exact_geomean_error` reads it."""
    return _exact_geomean_error(_fractions(x), _fractions(y), _fractions(g))


def sld_centroid_error(mats: Sequence[np.ndarray], weights: Sequence[float],
                       g: np.ndarray) -> float:
    """The error of a computed G against the symmetrized log-det centroid A # H, as
    :func:`_exact_geomean_error` reads it, with the weighted arithmetic mean A and
    harmonic mean H of the members formed in exact rational arithmetic (small d only)."""
    w = [Fraction(float(v)) for v in weights]
    ms = [_fractions(m) for m in mats]
    d = len(ms[0])

    def mean(terms: list) -> list:
        return [[sum(wi * t[i][j] for wi, t in zip(w, terms)) for j in range(d)]
                for i in range(d)]

    a = mean(ms)
    h = _cofactor_inverse(mean([_cofactor_inverse(m) for m in ms]))
    return _exact_geomean_error(a, h, _fractions(g))


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


# --- the categorical family on log-ratio naturals, for the generic layer ------

def cat_to_natural(p: SimplexPoint) -> np.ndarray:
    """Natural parameters theta_i = log(p_i / p_d), a (d-1)-vector."""
    q = p.probs
    return np.log(q[:-1] / q[-1])


def cat_from_natural(theta) -> SimplexPoint:
    """Inverse of :func:`cat_to_natural` via a stabilized softmax."""
    theta = np.atleast_1d(_float_array(theta, "theta"))
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


# --- the squared generator and the histogram candidate, for the generic layer -

def squared_generator(dim: int = 1) -> GeneratorSpec:
    """F(theta) = |theta|^2 / 2 on all of R^dim; grad is the identity.

    It induces the arithmetic mean and the squared Euclidean distance.
    """
    return _separable(
        dim,
        f=lambda th: 0.5 * th * th,
        f_prime=lambda th: th,
        f_prime_inv=lambda eta: eta,
        in_domain_scalar=np.isfinite,
        name="squared",
    )


def c_of_lambda(a, g, lam: float) -> np.ndarray:
    """Candidate center c_j(lambda) = a_j / W0((a_j/g_j) e^{1+lambda}), evaluated cold.

    Positive but not necessarily normalized; its mass is monotone decreasing
    in ``lam``.  Raw ``a`` and ``g`` are parsed as :class:`SimplexPoint`.
    """
    a, g = (p if isinstance(p, SimplexPoint) else SimplexPoint(p) for p in (a, g))
    if a.dim != g.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {g.dim} bins")
    return a.probs / lambert_w0((a.probs / g.probs) * np.exp(1.0 + lam))
