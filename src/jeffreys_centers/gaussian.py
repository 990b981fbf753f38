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
from .gauss_bregman import GB_TOL, gb_center
from .legendre import (
    CenterDiagnostics,
    GeneratorSpec,
    WeightedParamSet,
    check_weights,
    quasi_arithmetic_center,
    right_bregman_centroid,
)
from .special_functions import ToleranceConfig
from .spd import (
    _MAX_CONDITION,
    SPDMatrix,
    _eigh,
    _log_divided_differences,
    _log_eigs,
    geometric_mean,
    sld_centroid,
)

__all__ = [
    "GaussianParam",
    "mvn_to_natural",
    "mvn_from_natural",
    "mvn_generator",
    "mvn_flatten",
    "mvn_unflatten",
    "kl_mvn",
    "jeffreys_mvn",
    "jeffreys_loss_mvn",
    "sided_kl_centroids_mvn",
    "fisher_rao_midpoint_mvn",
    "jfr_center_mvn",
    "gb_center_mvn",
    "jeffreys_centroid_centered",
]

_EIG_FLOOR = 1e-13

# Fiber-alignment residuals at or below this count as an exact root.  Rounding
# leaves about 1e-16 of log's entries at a root, where hybr's relative step test
# cannot be met (the root k = 0 of a same-mean pair has no scale at all), and it
# would keep evaluating until it detects no progress; a zero residual stops it.
_ALIGN_ZERO = 1e-14


@dataclass(frozen=True)
class GaussianParam:
    """A d-variate normal in source coordinates (mean, covariance)."""

    mean: np.ndarray
    cov: SPDMatrix

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = self.cov if isinstance(self.cov, SPDMatrix) else SPDMatrix(self.cov)
        if mean.shape != (cov.dim,):
            raise DomainError(
                f"mean shape {mean.shape} incompatible with covariance dim {cov.dim}"
            )
        if not np.isfinite(mean).all():
            raise DomainError("mean entries must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


# --- flattening of (vector, symmetric matrix) pairs -------------------------

class _IndexTables(NamedTuple):
    upper: Tuple[np.ndarray, np.ndarray]  # vech order: upper triangle, row-major
    lower: Tuple[np.ndarray, np.ndarray]  # the mirror image of each vech entry
    scale: np.ndarray  # 1 on the diagonal, sqrt(2) off it
    strict_upper: Tuple[np.ndarray, np.ndarray]  # gauge parameters of the fiber
    strict_lower: Tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def _index_tables(d: int) -> _IndexTables:
    """Index tables of dimension d, built once and shared read-only."""
    iu, su = np.triu_indices(d), np.triu_indices(d, 1)
    arrays = (*iu, *su, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0)))
    for a in arrays:
        a.setflags(write=False)
    r, c, sr, sc, scale = arrays
    return _IndexTables((r, c), (c, r), scale, (sr, sc), (sc, sr))


def mvn_flatten(vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Pack (vector, symmetric matrix) into the trace-isometric flat vector."""
    t = _index_tables(vec.size)
    return np.concatenate([vec, mat[t.upper] * t.scale])


def mvn_unflatten(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`mvn_flatten`."""
    t = _index_tables(d)
    entries = x[d:] / t.scale
    mat = np.empty((d, d))
    mat[t.upper] = entries
    mat[t.lower] = entries
    return x[:d], mat


def _sym_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix, symmetrized against rounding."""
    inv = np.linalg.inv(m)
    return 0.5 * (inv + inv.T)


def _source_to_natural(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Flat naturals (Sigma^{-1} mu, -Sigma^{-1}/2) of N(mean, cov)."""
    prec = _sym_inv(cov)
    return mvn_flatten(prec @ mean, -0.5 * prec)


def _natural_to_source(x: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of the flat naturals x of dimension d; no domain check."""
    tv, tm = mvn_unflatten(x, d)
    cov = _sym_inv(-2.0 * tm)
    return cov @ tv, cov


def mvn_to_natural(p: GaussianParam) -> np.ndarray:
    """The flat natural parameters of p."""
    return _source_to_natural(p.mean, p.cov.entries)


def mvn_from_natural(x: np.ndarray, d: int) -> GaussianParam:
    """The d-variate normal of the flat natural parameters x.

    Raises DomainError unless x is finite, has the flat length of dimension d
    and -theta_M is invertible with a covariance that passes the
    :class:`SPDMatrix` check, the one spectral check of the readback.
    """
    x = np.asarray(x, dtype=float)
    if d < 1 or x.shape != (d + d * (d + 1) // 2,):
        raise DomainError(f"flat naturals of shape {x.shape} do not have dimension {d}")
    if not np.isfinite(x).all():
        raise DomainError("flat naturals must be finite")
    try:
        mean, cov = _natural_to_source(x, d)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"-theta_M is singular: {exc}") from exc
    return GaussianParam(mean, SPDMatrix(cov))


def mvn_generator(dim: int) -> GeneratorSpec:
    """Cumulant generator of the d-variate normal family on flattened naturals.

    The gradient maps theta to the moment parameter (mu, mu mu^T + Sigma); the
    reciprocal gradient inverts it.  The domain requires -theta_M positive
    definite.
    """
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    d = dim

    def eval_F(x: np.ndarray) -> float:
        tv, tm = mvn_unflatten(x, d)
        neg2tm = -2.0 * tm
        sign, logdet = np.linalg.slogdet(neg2tm)
        if sign <= 0.0:
            raise DomainError("-2 theta_M is not positive definite")
        tm_inv_tv = np.linalg.solve(tm, tv)
        return float(
            -0.25 * tv @ tm_inv_tv - 0.5 * logdet + 0.5 * d * np.log(2.0 * np.pi)
        )

    def eval_grad(x: np.ndarray) -> np.ndarray:
        mu, cov = _natural_to_source(x, d)
        return mvn_flatten(mu, np.outer(mu, mu) + cov)

    def eval_grad_inv(e: np.ndarray) -> np.ndarray:
        ev, em = mvn_unflatten(e, d)
        cov = em - np.outer(ev, ev)
        if np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise DomainError("moment parameter has no positive-definite covariance")
        return _source_to_natural(ev, cov)

    def in_domain(x: np.ndarray) -> bool:
        if not np.all(np.isfinite(x)):
            return False
        _, tm = mvn_unflatten(x, d)
        return bool(np.linalg.eigvalsh(-tm)[0] > _EIG_FLOOR)

    return GeneratorSpec(
        dim=d + d * (d + 1) // 2,
        eval_F=eval_F,
        eval_grad=eval_grad,
        eval_grad_inv=eval_grad_inv,
        in_domain=in_domain,
        name=f"mvn(d={d})",
    )


# --- divergences -------------------------------------------------------------

def kl_mvn(p: GaussianParam, q: GaussianParam) -> float:
    """KL(p : q) between two normals in closed form."""
    if p.dim != q.dim:
        raise DomainError("dimension mismatch")
    d = p.dim
    sq_inv = np.linalg.inv(q.cov.entries)
    dm = q.mean - p.mean
    _, logdet_q = np.linalg.slogdet(q.cov.entries)
    _, logdet_p = np.linalg.slogdet(p.cov.entries)
    return 0.5 * float(
        np.trace(sq_inv @ p.cov.entries) + dm @ sq_inv @ dm - d + logdet_q - logdet_p
    )


def jeffreys_mvn(p: GaussianParam, q: GaussianParam) -> float:
    """Jeffreys divergence KL(p:q) + KL(q:p).

    Equals ((mu2-mu1)^T (S1^{-1}+S2^{-1}) (mu2-mu1)
           + tr(S1^{-1} S2 + S2^{-1} S1) - 2d) / 2.
    """
    if p.dim != q.dim:
        raise DomainError("dimension mismatch")
    d = p.dim
    s1_inv = np.linalg.inv(p.cov.entries)
    s2_inv = np.linalg.inv(q.cov.entries)
    dm = q.mean - p.mean
    return 0.5 * float(
        dm @ (s1_inv + s2_inv) @ dm
        + np.trace(s1_inv @ q.cov.entries)
        + np.trace(s2_inv @ p.cov.entries)
        - 2 * d
    )


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


def _natural_set(
    gaussians: Sequence[GaussianParam], weights: Optional[Sequence]
) -> Tuple[int, WeightedParamSet]:
    """The dimension and the weighted flattened natural parameters of a set."""
    w = check_weights(weights, len(gaussians))  # also rejects an empty set
    d = gaussians[0].dim
    if any(g.dim != d for g in gaussians):
        raise DomainError("mixed dimensions in Gaussian set")
    thetas = np.array([mvn_to_natural(g) for g in gaussians])
    return d, WeightedParamSet(thetas, w)


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
    """Sided KL centroids: (arithmetic mean in theta, moment mean pulled back).

    Returns (right Bregman centroid, left Bregman centroid) as normals.
    """
    d, pset = _natural_set(gaussians, weights)
    with _internal_failure("sided KL centroids"):
        left = quasi_arithmetic_center(mvn_generator(d), pset)
        return mvn_from_natural(right_bregman_centroid(pset), d), mvn_from_natural(left, d)


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


def root(fun, x0, **kwargs):
    """``scipy.optimize.root``, imported on first call.

    Importing the library then leaves scipy.optimize unloaded, which keeps it
    off the histogram path.
    """
    from scipy.optimize import root as scipy_root

    return scipy_root(fun, x0, **kwargs)


def _align_fiber(G1: np.ndarray, d: int) -> np.ndarray:
    """Gauge-align G1 to the identity so the connecting geodesic is horizontal.

    The trace-metric geodesic from the identity to G1 has initial velocity
    log(G1); the alignment zeroes the skew part of its mean-covariance coupling
    block, solved as a root-finding problem over the d(d-1)/2 gauge
    parameters k, with the Jacobian in closed form.

    With X = F G1 F^T = V diag(w) V^T, the residual entry q is <U_q, diag(log w)>
    / 2, where U_q = V^T (e_a e_{d+1+b}^T - e_b e_{d+1+a}^T) V for the pair
    (a, b) = q of the strict upper triangle.  Moving gauge parameter p moves X
    by D_p X + X D_p^T with V^T D_p V = -U_p^T, so its derivative is
    -<U_q, Gamma o (U_p^T W + W U_p)> / 2, Gamma the divided differences of log.
    """
    nk = d * (d - 1) // 2
    if nk == 0:
        return G1
    a, b = _index_tables(d).strict_upper

    def residual_and_jacobian(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        w, V = _eigh(_fiber_move(G1, k, d))
        log_w = _log_eigs(w)
        U = (V[a][:, :, None] * V[d + 1 + b][:, None, :]
             - V[b][:, :, None] * V[d + 1 + a][:, None, :])
        res = 0.5 * (np.diagonal(U, axis1=1, axis2=2) @ log_w)
        if np.abs(res).max() <= _ALIGN_ZERO:
            res = np.zeros(nk)
        dX = (np.swapaxes(U, 1, 2) * w + w[:, None] * U) * _log_divided_differences(w)
        return res, -0.5 * (U.reshape(nk, -1) @ dX.reshape(nk, -1).T)

    sol = root(residual_and_jacobian, np.zeros(nk), jac=True, method="hybr", tol=1e-14)
    worst = float(np.abs(sol.fun).max())
    if not sol.success and worst > 1e-9:
        raise NumericalError(f"fiber alignment failed: residual {worst:.3g}")
    return _fiber_move(G1, sol.x, d)


def fisher_rao_midpoint_mvn(p0: GaussianParam, p1: GaussianParam) -> GaussianParam:
    """Fisher-Rao geodesic midpoint of two d-variate normals.

    The midpoint is affine-equivariant, so it is computed in the frame that
    whitens p0: with L the Cholesky factor of p0's covariance, p1 becomes
    N(L^{-1}(mu1 - mu0), L^{-1} Sigma1 L^{-T}) and p0 becomes N(0, I), whose
    (2d+1)-dimensional SPD lift is the identity.  The lift G1 of the whitened
    p1 is gauge-aligned, the trace-metric midpoint I # G1 is read back as a
    normal N(m, S) off its top-left block and the adjacent column, and mapped
    back to N(mu0 + L m, L S L^T).  The midpoint loses about cond(G1) * 1e-16
    of relative accuracy, and the condition number grows like the fourth power
    of the separation in p0's standard deviations, so an aligned lift past the
    1e12 bound of SPDMatrix raises NumericalError.
    """
    if p0.dim != p1.dim:
        raise DomainError("dimension mismatch")
    d = p0.dim
    L = np.linalg.cholesky(p0.cov.entries)
    mean_w = np.linalg.solve(L, p1.mean - p0.mean)
    cov_w = np.linalg.solve(L, np.linalg.solve(L, p1.cov.entries).T)  # L^-1 Sigma1 L^-T
    G1 = _align_fiber(_embed_array(mean_w, 0.5 * (cov_w + cov_w.T)), d)
    eig = np.linalg.eigvalsh(G1)
    if not eig[-1] <= _MAX_CONDITION * eig[0]:
        raise NumericalError(
            f"whitened lift condition number {eig[-1] / eig[0]:.3g} exceeds "
            f"{_MAX_CONDITION:.0e}: the normals are too far apart"
        )
    G = geometric_mean(np.eye(2 * d + 1), G1).entries
    S = _sym_inv(G[:d, :d])
    cov = L @ S @ L.T
    return GaussianParam(p0.mean + L @ (S @ G[:d, d]), SPDMatrix(0.5 * (cov + cov.T)))


def jfr_center_mvn(
    gaussians: Sequence[GaussianParam], weights: Optional[Sequence] = None
) -> GaussianParam:
    """Jeffreys-Fisher-Rao center: Fisher-Rao midpoint of the sided KL centroids."""
    right, left = sided_kl_centroids_mvn(gaussians, weights)
    with _internal_failure("JFR center"):
        return fisher_rao_midpoint_mvn(right, left)


def gb_center_mvn(
    gaussians: Sequence[GaussianParam],
    weights: Optional[Sequence] = None,
    tol: ToleranceConfig = GB_TOL,
) -> Tuple[GaussianParam, CenterDiagnostics]:
    """Gauss-Bregman inductive center under the normal cumulant generator.

    The generator is non-separable, so there is no convergence theorem; the
    diagnostics ``status`` field reports 'max_iter' when the gap target was
    not met.
    """
    d, pset = _natural_set(gaussians, weights)
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
    mu = np.zeros(cov.dim) if mean is None else np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianParam(mu, cov)
