"""Multivariate normal family.

A normal is a :class:`GaussianParam` (mean, covariance); its only other
representation is the flat natural vector.  Conversions between the two, the
cumulant generator over flat naturals, Kullback-Leibler and Jeffreys
divergences, sided KL centroids, the inductive Gauss-Bregman center, the
Fisher-Rao geodesic midpoint through the (2d+1)-dimensional SPD embedding,
the Jeffreys-Fisher-Rao center, and the closed-form Jeffreys centroid of
same-mean sets.

The natural parameters theta_v = Sigma^{-1} mu, theta_M = -Sigma^{-1}/2 are
flattened as (theta_v, vech(theta_M)) with off-diagonal entries scaled by
sqrt(2), so the Euclidean inner product of flattened vectors equals trace
pairing on the matrix block and the generic double-sequence norm is the
natural one.  Moment parameters (mu, mu mu^T + Sigma) are flattened the same
way.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .gauss_bregman import GB_TOL, ToleranceConfig, gb_center
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    WeightedParamSet,
    _float_array,
    check_weights,
)
from .spd import (
    SPDMatrix,
    _as_spd,
    _check_spd,
    _computed_spd,
    _lapack,
    _log_divided_differences,
    _log_eigs,
    _weighted_sum,
    geometric_mean,
    logdet_div,
    sld_centroid,
    symmetrized_logdet,
)

__all__ = [
    "GaussianParam",
    "mvn_to_natural",
    "mvn_from_natural",
    "mvn_generator",
    "kl_mvn",
    "jeffreys_mvn",
    "jeffreys_loss_mvn",
    "sided_kl_centroids_mvn",
    "fisher_rao_midpoint_mvn",
    "jfr_center_mvn",
    "gb_center_mvn",
    "jeffreys_centroid_centered",
]

# Fiber-alignment residuals at or below this count as an exact root: rounding
# leaves about 1e-16 of log's entries at a root.  They are snapped to zero, so a
# solve that starts at a root (k = 0 of a same-mean pair, which has no scale at
# all) stops after one evaluation.
_ALIGN_ZERO = 1e-14
# Newton steps of the alignment, and halvings of one step, before giving up.
_NEWTON_MAX_ITER = 50
_NEWTON_HALVINGS = 10
# Residuals the alignment's rounding can leave at a root of a large spread
# (1e-14 to 5e-13 seen): where the full step does not lower the norm from
# here, Newton stops without halving.
_ROUNDING_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianParam:
    """A d-variate normal in source coordinates (mean, covariance)."""

    mean: np.ndarray
    cov: SPDMatrix

    def __post_init__(self):
        cov = _as_spd(self.cov)
        mean = _float_array(self.mean, "mean", (cov.dim,))
        if not np.isfinite(mean).all():
            raise DomainError("mean entries must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _computed_gaussian(mean: np.ndarray, cov: np.ndarray, what: str) -> GaussianParam:
    """N(mean, cov) of a mean and a symmetric covariance the library computed: no parse,
    but the SPD rule and a finite mean, a failure being a DomainError naming ``what``."""
    cov = _computed_spd(cov, f"{what} covariance")
    if not np.isfinite(mean).all():
        raise DomainError(f"{what} mean entries must be finite")
    out = object.__new__(GaussianParam)
    object.__setattr__(out, "mean", mean)
    object.__setattr__(out, "cov", cov)
    return out


# --- flattening of (vector, symmetric matrix) pairs -------------------------

class _IndexTables(NamedTuple):
    scale: np.ndarray  # 1 on the diagonal, sqrt(2) off it
    strict_upper: Tuple[np.ndarray, np.ndarray]  # gauge parameters of the fiber
    strict_lower: Tuple[np.ndarray, np.ndarray]
    upper_flat: np.ndarray  # vech order: raveled upper triangle, row-major
    flat_of: np.ndarray  # (d, d): the flat position of each matrix entry
    scale_of: np.ndarray  # (d, d): x[flat_of] / scale_of is theta_M, in one pass
    neg_scale_of: np.ndarray  # ... is -theta_M
    neg_half_scale_of: np.ndarray  # ... is -2 theta_M: x / (-s/2) is -2 (x / s) bit for bit


@functools.lru_cache(maxsize=None)
def _index_tables(d: int) -> _IndexTables:
    """Index tables of dimension d, built once and shared read-only; d < 1 is a DomainError."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    (r, c), (sr, sc) = np.triu_indices(d), np.triu_indices(d, 1)
    vech_of = np.empty((d, d), dtype=np.intp)
    vech_of[r, c] = vech_of[c, r] = np.arange(r.size)
    s = np.where(r == c, 1.0, np.sqrt(2.0))
    arrays = (s, sr, sc, r * d + c, d + vech_of, *(k * s[vech_of] for k in (1, -1, -0.5)))
    for a in arrays:
        a.setflags(write=False)
    return _IndexTables(s, (sr, sc), (sc, sr), *arrays[3:])


def _flatten(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Pack (vector, symmetric matrix) into the trace-isometric flat vector."""
    t = _index_tables(vec.size)
    return np.concatenate([vec, mat.ravel()[t.upper_flat] * t.scale])


def _unflatten(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_flatten`."""
    t = _index_tables(d)
    return x[:d], x[t.flat_of] / t.scale_of


def _sym_inv(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric matrix, symmetrized against rounding; a singular
    ``m`` is a DomainError naming ``what``."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"{what} is singular: {exc}") from exc
    return 0.5 * (inv + inv.T)


def _source_to_natural(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Flat naturals (Sigma^{-1} mu, -Sigma^{-1}/2) of N(mean, cov)."""
    prec = _sym_inv(cov)
    return _flatten(prec @ mean, -0.5 * prec)


def _natural_to_source(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of flat naturals x of dimension d; singular -theta_M: DomainError."""
    t = _index_tables(d)
    cov = _sym_inv(x[t.flat_of] / t.neg_half_scale_of, "-theta_M")
    return cov @ x[:d], cov


def mvn_to_natural(p: GaussianParam) -> np.ndarray:
    """The flat natural parameters of p."""
    return _source_to_natural(p.mean, p.cov.entries)


def mvn_from_natural(x: np.ndarray, d: int) -> GaussianParam:
    """The d-variate normal of the flat natural parameters x.

    Raises DomainError unless x is finite, has the flat length of dimension d
    and -theta_M is invertible with a covariance that passes the SPD rule of
    :mod:`spd`, the one spectral check of the readback.
    """
    x = _float_array(x, f"flat naturals of dimension {d}", (d + d * (d + 1) // 2,))
    if not np.isfinite(x).all():
        raise DomainError("flat naturals must be finite")
    return _computed_gaussian(*_natural_to_source(x, d), "readback")


@functools.lru_cache(maxsize=None)
def mvn_generator(dim: int) -> GeneratorSpec:
    """Cumulant generator of the d-variate normal family on flattened naturals.

    The gradient maps theta to the moment parameter (mu, mu mu^T + Sigma); the
    reciprocal gradient inverts it.  The domain is the open cone -theta_M > 0;
    the reciprocal gradient's covariance must pass the SPD rule of :mod:`spd`.
    Each callable raises DomainError unless its argument has the flat shape, ``eval_F``
    outside the domain too, ``eval_grad_inv`` on a non-finite entry, and ``eval_grad`` and
    ``eval_grad_inv`` on a singular inverse.
    Each dimension's spec is built once: it is frozen and its callables hold no state.
    """
    d = dim
    flat_dim = d + d * (d + 1) // 2
    name = f"mvn(d={d})"
    natural, moment = f"{name}: natural parameter", f"{name}: moment parameter"
    t = _index_tables(d)

    def cone_factor(x: np.ndarray) -> Optional[np.ndarray]:
        """The Cholesky factor of -theta_M of the parsed naturals x, None outside the open cone
        or where x is not finite.  No condition bound: -theta_M of a member near the bound is
        its inverted covariance, whose computed condition can pass it."""
        if not np.isfinite(x).all():
            return None
        try:
            return np.linalg.cholesky(x[t.flat_of] / t.neg_scale_of)
        except np.linalg.LinAlgError:
            return None

    def eval_F(x: np.ndarray) -> float:
        # with L L^T = -theta_M: |L^-1 theta_v|^2 / 4 - sum log(diag L / sqrt(pi)); the constant
        # folded into each log loses fewer digits than one subtracted from their sum
        x = _float_array(x, natural, (flat_dim,))
        if (chol := cone_factor(x)) is None:
            raise DomainError(f"{natural} {x!r} outside the domain")
        z = np.linalg.solve(chol, x[:d])
        return float(0.25 * (z @ z) - np.log(chol.diagonal() / np.sqrt(np.pi)).sum())

    def eval_grad(x: np.ndarray) -> np.ndarray:
        mu, cov = _natural_to_source(_float_array(x, natural, (flat_dim,)), d)
        return _flatten(mu, mu[:, None] * mu + cov)

    def eval_grad_inv(e: np.ndarray) -> np.ndarray:
        e = _float_array(e, moment, (flat_dim,))
        if not np.isfinite(e).all():  # before em - ev ev^T meets inf - inf
            raise DomainError(f"{moment} {e!r} outside the domain")
        ev, em = _unflatten(e, d)
        cov = em - ev[:, None] * ev
        _check_spd(cov, "moment parameter covariance")
        return _source_to_natural(ev, cov)

    def in_domain(x: np.ndarray) -> bool:
        return cone_factor(_float_array(x, natural, (flat_dim,))) is not None

    return GeneratorSpec(
        dim=flat_dim,
        eval_F=eval_F,
        eval_grad=eval_grad,
        eval_grad_inv=eval_grad_inv,
        in_domain=in_domain,
        name=name,
    )


# --- divergences -------------------------------------------------------------

def kl_mvn(p: GaussianParam, q: GaussianParam) -> float:
    """KL(p : q) = (logdet_div(S_p, S_q) + dm^T S_q^{-1} dm) / 2 with dm = mu_q - mu_p."""
    div = logdet_div(p.cov, q.cov)  # first, as it checks that the dimensions agree
    dm = q.mean - p.mean
    return 0.5 * (div + float(dm @ np.linalg.solve(q.cov.entries, dm)))


def jeffreys_mvn(p: GaussianParam, q: GaussianParam) -> float:
    """Jeffreys divergence KL(p:q) + KL(q:p)
    = (symmetrized_logdet(S_p, S_q) + dm^T (S_p^{-1} + S_q^{-1}) dm) / 2."""
    div = symmetrized_logdet(p.cov, q.cov)
    dm = q.mean - p.mean
    maha = dm @ (np.linalg.solve(p.cov.entries, dm) + np.linalg.solve(q.cov.entries, dm))
    return 0.5 * (div + float(maha))


@contextmanager
def _internal_failure(what: str):
    """Re-raise a DomainError met while computing on validated inputs as a NumericalError.

    Every Gaussian and weight vector was checked on entry, so a value that
    leaves the domain on the way (a sided centroid past the condition bound, a
    quasi-arithmetic iterate outside the cone) is an internal failure.
    """
    try:
        yield
    except DomainError as exc:
        raise NumericalError(f"{what} failed on valid input: {exc}") from exc


def _checked_set(
    gaussians: Sequence[GaussianParam], weights: Optional[Sequence]
) -> Tuple[int, np.ndarray]:
    """The dimension and the checked weights of a set."""
    w = check_weights(weights, len(gaussians))  # also rejects an empty set
    d = gaussians[0].dim
    if any(g.dim != d for g in gaussians):
        raise DomainError("mixed dimensions in Gaussian set")
    return d, w


def jeffreys_loss_mvn(
    gaussians: Sequence[GaussianParam],
    weights: Optional[Sequence],
    query: GaussianParam,
) -> float:
    """Weighted Jeffreys loss sum_i w_i D_J(p_i, query)."""
    w = check_weights(weights, len(gaussians))
    return float(sum(wi * jeffreys_mvn(g, query) for wi, g in zip(w, gaussians)))


def sided_kl_centroids_mvn(
    gaussians: Sequence[GaussianParam], weights: Optional[Sequence] = None
) -> Tuple[GaussianParam, GaussianParam]:
    """Sided KL centroids (right, left) of a weighted set, in closed form.

    The right Bregman centroid averages the natural parameters: its precision
    is sum_i w_i Sigma_i^{-1} and its mean Sigma_R sum_i w_i Sigma_i^{-1} mu_i.
    The left one averages the moment parameters: its mean is
    mu_L = sum_i w_i mu_i and its covariance sum_i w_i (Sigma_i + d_i d_i^T)
    with d_i = mu_i - mu_L, which avoids the cancellation of
    E[x x^T] - mu_L mu_L^T when the means lie far from the origin.  A centroid
    whose covariance fails the SPD rule of :mod:`spd` raises NumericalError.
    """
    _, w = _checked_set(gaussians, weights)
    means = np.array([g.mean for g in gaussians])
    covs = np.array([g.cov.entries for g in gaussians])
    with _internal_failure("sided KL centroids"):
        precs = np.linalg.inv(covs)
        prec = _weighted_sum(w, precs)
        cov_r = _sym_inv(0.5 * (prec + prec.T), "the precision mean")
        mean_r = cov_r @ np.einsum("i,ijk,ik->j", w, precs, means)
        mean_l = w @ means
        dev = means - mean_l
        cov_l = _weighted_sum(w, covs) + (w[:, None] * dev).T @ dev
        cov_l = 0.5 * (cov_l + cov_l.T)  # the product's rounding is not symmetric
        return (
            _computed_gaussian(mean_r, cov_r, "right centroid"),
            _computed_gaussian(mean_l, cov_l, "left centroid"),
        )


# --- Fisher-Rao midpoint through the (2d+1) SPD embedding --------------------

def _embed_array(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = mean.size
    D = np.zeros((2 * d + 1, 2 * d + 1))
    D[:d, :d] = _sym_inv(cov)
    D[d, d] = 1.0
    D[d + 1 :, d + 1 :] = cov
    M = np.eye(2 * d + 1)
    M[d, :d] = mean
    M[d + 1 :, d] = -mean
    M[d + 1 :, :d] = -0.5 * np.outer(mean, mean)
    G = M @ D @ M.T
    return 0.5 * (G + G.T)


def _fiber_move(G: np.ndarray, k: np.ndarray, d: int) -> np.ndarray:
    """Congruence by the gauge element with skew block K in position (3,1)."""
    t = _index_tables(d)
    F = np.eye(2 * d + 1)
    K = F[d + 1 :, :d]
    K[t.strict_upper] = k
    K[t.strict_lower] = -k
    out = F @ G @ F.T
    return 0.5 * (out + out.T)


class _RootResult(NamedTuple):
    """The end of a root solve: the point, its residual, evaluations, success,
    and the rest of what ``fun`` returned at the point."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    success: bool
    state: tuple


def root(fun, x0) -> _RootResult:
    """Newton's method for fun(x) = 0, where fun returns (residual, Jacobian, *state).

    The Jacobian is a zero-argument callable, called only when a step is about
    to be taken from x, so the evaluation that ends the solve and the trials
    that a halving rejects build none.  Each step solves with the exact
    Jacobian and is halved until the residual norm drops.  The solve succeeds
    once max |residual| <= 1e-14 and stops without success when no halving
    lowers the norm, when the full step does not lower it from
    max |residual| <= 1e-12, when the Jacobian is singular, or after 50 steps.
    The state of the evaluation at the returned point comes back with it.
    """
    x = np.asarray(x0, dtype=float)
    res, jac, *state = fun(x)
    nfev = 1
    for _ in range(_NEWTON_MAX_ITER):
        worst = np.abs(res).max()
        if worst <= _ALIGN_ZERO:
            break
        try:
            step = np.linalg.solve(jac(), -res)
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(res)
        # at the rounding floor no shorter step lowers the norm either
        for _ in range(1 if worst <= _ROUNDING_FLOOR else _NEWTON_HALVINGS):
            trial = fun(x + step)
            nfev += 1
            if np.linalg.norm(trial[0]) < norm:
                break
            step = 0.5 * step
        else:
            break
        x = x + step
        res, jac, *state = trial
    return _RootResult(x, res, nfev, bool(np.abs(res).max() <= _ALIGN_ZERO), tuple(state))


def _align_fiber(G1: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauge-align G1 to the identity so the connecting geodesic is horizontal.

    The trace-metric geodesic from the identity to G1 has initial velocity
    log(G1); the alignment zeroes the skew part of its mean-covariance coupling
    block, solved as a root-finding problem over the d(d-1)/2 gauge
    parameters k by Newton's method (:func:`root`), with the Jacobian in
    closed form.  Returns the aligned lift and its ascending eigenvalues, both
    from the evaluation at the point the solve returns, so the caller
    decomposes the lift no more; at d = 1 there is no gauge and G1 is
    decomposed once here.

    With X = F G1 F^T = V diag(w) V^T, the residual entry q is <U_q, diag(log w)>
    / 2, where U_q = V^T (e_a e_{d+1+b}^T - e_b e_{d+1+a}^T) V for the pair
    (a, b) = q of the strict upper triangle; only the diagonal of U_q enters,
    (V[a] o V[d+1+b] - V[b] o V[d+1+a]) @ log w.  Moving gauge parameter p moves
    X by D_p X + X D_p^T with V^T D_p V = -U_p^T, so its derivative is
    -<U_q, Gamma o (U_p^T W + W U_p)> / 2, Gamma the divided differences of log;
    the full U and Gamma are built only when :func:`root` asks for a Jacobian.
    """
    nk = d * (d - 1) // 2
    if nk == 0:
        return G1, _lapack(np.linalg.eigvalsh, G1)
    a, b = _index_tables(d).strict_upper

    def residual(k: np.ndarray):
        X = _fiber_move(G1, k, d)
        w, V = _lapack(np.linalg.eigh, X)
        res = 0.5 * ((V[a] * V[d + 1 + b] - V[b] * V[d + 1 + a]) @ _log_eigs(w))
        if np.abs(res).max() <= _ALIGN_ZERO:
            res = np.zeros(nk)

        def jacobian() -> np.ndarray:
            U = (V[a][:, :, None] * V[d + 1 + b][:, None, :]
                 - V[b][:, :, None] * V[d + 1 + a][:, None, :])
            dX = (np.swapaxes(U, 1, 2) * w + w[:, None] * U) * _log_divided_differences(w)
            return -0.5 * (U.reshape(nk, -1) @ dX.reshape(nk, -1).T)

        return res, jacobian, X, w

    sol = root(residual, np.zeros(nk))
    worst = float(np.abs(sol.fun).max())
    if not sol.success and worst > 1e-9:
        raise NumericalError(f"fiber alignment failed: residual {worst:.3g}")
    return sol.state


def fisher_rao_midpoint_mvn(p0: GaussianParam, p1: GaussianParam) -> GaussianParam:
    """Fisher-Rao geodesic midpoint of two d-variate normals.

    The midpoint is affine-equivariant, so it is computed in the frame that
    whitens p0: with L the Cholesky factor of p0's covariance, p1 becomes
    N(L^{-1}(mu1 - mu0), L^{-1} Sigma1 L^{-T}) and p0 becomes N(0, I), whose
    (2d+1)-dimensional SPD lift is the identity.  The lift G1 of the whitened
    p1 is gauge-aligned, the trace-metric midpoint I # G1 is read back as a
    normal N(m, S) off its top-left block and the adjacent column, and mapped
    back to N(mu0 + L m, L S L^T).  The midpoint loses about sqrt(cond(G1)) *
    1e-15 of relative accuracy, and the condition number grows like the fourth
    power of the separation in p0's standard deviations, so an aligned lift past
    the condition bound of the SPD rule of :mod:`spd` raises NumericalError.  The
    rule reads the eigenvalues the alignment returns with the lift, so the
    lift is not decomposed again for it.  Both normals are valid, so any other
    value that leaves the domain on the way is a NumericalError too.
    """
    if p0.dim != p1.dim:
        raise DomainError("dimension mismatch")
    d = p0.dim
    with _internal_failure("Fisher-Rao midpoint"):
        L = np.linalg.cholesky(p0.cov.entries)
        mean_w = np.linalg.solve(L, p1.mean - p0.mean)
        cov_w = np.linalg.solve(L, np.linalg.solve(L, p1.cov.entries).T)  # L^-1 Sigma1 L^-T
        G1, eigenvalues = _align_fiber(_embed_array(mean_w, 0.5 * (cov_w + cov_w.T)), d)
        lift = _computed_spd(G1, "whitened lift", eigenvalues)
        n = 2 * d + 1
        G = geometric_mean(_computed_spd(np.eye(n), "identity", np.ones(n)), lift).entries
        S = _sym_inv(G[:d, :d])
        cov = L @ S @ L.T
        return _computed_gaussian(p0.mean + L @ (S @ G[:d, d]), 0.5 * (cov + cov.T), "midpoint")


def jfr_center_mvn(
    gaussians: Sequence[GaussianParam], weights: Optional[Sequence] = None
) -> GaussianParam:
    """Jeffreys-Fisher-Rao center: Fisher-Rao midpoint of the sided KL centroids."""
    return fisher_rao_midpoint_mvn(*sided_kl_centroids_mvn(gaussians, weights))


def gb_center_mvn(
    gaussians: Sequence[GaussianParam],
    weights: Optional[Sequence] = None,
    tol: ToleranceConfig = GB_TOL,
) -> Tuple[GaussianParam, CenterDiagnostics]:
    """Gauss-Bregman inductive center under the normal cumulant generator.

    The paper states that the Gauss-Bregman center always converges, the
    non-separable normal generator included.  The diagnostics ``status`` field
    still reports 'max_iter' when the gap target was not met: the stopping gap
    is absolute where |theta_bar| >= 1, so a set with small covariances, whose
    precisions are large, can stall at a rounding gap above it.
    """
    d, w = _checked_set(gaussians, weights)
    pset = WeightedParamSet(np.array([mvn_to_natural(g) for g in gaussians]), w)
    with _internal_failure("Gauss-Bregman center"):
        theta, diag = gb_center(mvn_generator(d), pset, tol)
        return mvn_from_natural(theta, d), diag


def jeffreys_centroid_centered(
    covs: Sequence[SPDMatrix],
    weights: Optional[Sequence] = None,
    mean: Optional[np.ndarray] = None,
) -> GaussianParam:
    """Closed-form Jeffreys centroid of same-mean normals.

    Covariance is the geometric mean of the weighted arithmetic covariance
    mean and the weighted harmonic covariance mean; the common mean is kept.
    """
    cov = sld_centroid(covs, weights)
    return GaussianParam(np.zeros(cov.dim) if mean is None else mean, cov)
