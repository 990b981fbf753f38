"""Symmetric positive-definite matrix kernel.

The two-point matrix geometric mean X#Y, the affine-invariant (trace metric)
geodesic distance, log-det Bregman divergences, and the closed-form
symmetrized log-det centroid A#H.  The arithmetic-harmonic double sequence
converging to X#Y is the Gaussian Gauss-Bregman center of the centered pair
N(0, X), N(0, Y).

One LAPACK boundary, :func:`_lapack`, turns a failed decomposition into a
NumericalError.  Caller input is parsed into an :class:`SPDMatrix`; a matrix the
library computed is wrapped by :func:`_computed_spd`, which applies the rule
alone.  X#Y and the two-matrix divergences, the Gaussian ones' log-det part,
read one Cholesky quotient A^{-1} B of X = A A^T, Y = B B^T.  A#H is read from
chol(A)^T chol(P), P the weighted mean of the inverses, so H = P^{-1} is never
formed; it and X#Y share one congruence (A U) diag(s) (A U)^T of an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import _float_array, check_weights

__all__ = [
    "SPDMatrix",
    "geometric_mean",
    "trace_metric_distance",
    "logdet_div",
    "symmetrized_logdet",
    "sld_centroid",
]

_MAX_CONDITION = 1e12
# Floor of the asymmetry test's scale, so that an all-zero matrix divides by it.
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class SPDMatrix:
    """A symmetric positive-definite matrix with verified spectral positivity.

    Constructing one parses caller input: the entries must convert to a finite
    non-empty square matrix, whose relative asymmetry above 1e-8 is rejected
    and which is symmetrized to (M + M^T)/2; then the SPD rule of
    :func:`_check_spd` applies.  The matrices the library computes, which are
    symmetric by construction, skip the parse but not the rule: they are built
    by :func:`_computed_spd`.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _float_array(self.entries, "SPDMatrix entries", (None, None))
        if m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DomainError(
                f"SPDMatrix entries of shape {m.shape}: not a non-empty square matrix"
            )
        if not np.isfinite(m).all():
            raise DomainError("SPDMatrix entries must be finite")
        scale = max(float(np.abs(m).max()), _TINY)
        asym = float(np.abs(m - m.T).max()) / scale
        if asym > 1e-8:
            raise DomainError(f"matrix asymmetry {asym:.3g} exceeds 1e-8")
        half = 0.5 * m  # halving first: m + m^T overflows past half the float max
        sym = half + half.T
        _check_spd(sym)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _computed_spd(sym: np.ndarray, what: str, w: Optional[np.ndarray] = None) -> SPDMatrix:
    """An SPDMatrix of the symmetric matrix ``sym`` that the library computed.

    Its entries are tested for finiteness and its spectrum for the SPD rule,
    a failure being a DomainError naming ``what``; the parse of caller input
    is skipped, so ``sym`` must already be exactly symmetric.  A caller that
    has the ascending eigenvalues ``w`` of ``sym`` passes them, sparing a decomposition.
    """
    if not np.isfinite(sym).all():
        raise DomainError(f"{what} entries must be finite")
    _check_spectrum(_lapack(np.linalg.eigvalsh, sym) if w is None else w, what)
    out = object.__new__(SPDMatrix)
    object.__setattr__(out, "entries", sym)
    return out


def _as_spd(x) -> SPDMatrix:
    """``x`` if it is an SPDMatrix; else caller input, parsed as one."""
    return x if isinstance(x, SPDMatrix) else SPDMatrix(x)


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DomainError(f"dimension mismatch: {x.shape} vs {y.shape}")


def _lapack(routine, *args, **kwargs):
    """``routine(*args, **kwargs)``, a ``numpy.linalg`` routine on matrices the library computed
    or validated: its LinAlgError (e.g. on non-finite entries) is a NumericalError naming it."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"numpy.linalg.{routine.__name__} failed: {exc}") from exc


def _check_spectrum(w: np.ndarray, what: str = "matrix") -> None:
    """The one SPD rule on the ascending eigenvalues ``w`` of a symmetric matrix:
    positive definite with condition number at most ``_MAX_CONDITION``, else a
    DomainError naming ``what``.  Written so that a NaN fails both tests."""
    if not w[0] > 0.0:
        raise DomainError(f"{what} is not positive definite (min eig {w[0]:.3g})")
    if not w[-1] / w[0] <= _MAX_CONDITION:
        raise DomainError(f"{what} condition number {w[-1] / w[0]:.3g} exceeds {_MAX_CONDITION:g}")


def _check_spd(m: np.ndarray, what: str = "matrix") -> None:
    """The SPD rule of :func:`_check_spectrum` on the symmetric matrix ``m``."""
    _check_spectrum(_lapack(np.linalg.eigvalsh, m), what)


def _log_eigs(w: np.ndarray) -> np.ndarray:
    """log of the ascending eigenvalues ``w`` of a matrix logarithm's argument; a least
    eigenvalue that is not positive, NaN included, is a NumericalError."""
    if not w[0] > 0.0:
        raise NumericalError("matrix function of a non-positive-definite argument")
    return np.log(w)


def _log_divided_differences(w: np.ndarray) -> np.ndarray:
    """(log w_i - log w_j) / (w_i - w_j), and 1/w_i where w_i = w_j.

    For M = V diag(w) V^T the Frechet derivative of log at M in the direction
    E is V (Gamma o (V^T E V)) V^T with this Gamma (Daleckii-Krein).  Written
    as log1p(t) / (t lo) with lo = min(w_i, w_j) and t = max(w_i, w_j) / lo - 1,
    and as its Taylor polynomial for t < 1e-6, so that close eigenvalues lose
    no accuracy.
    """
    lo = np.minimum(w[:, None], w[None, :])
    t = np.maximum(w[:, None], w[None, :]) / lo - 1.0
    close = t < 1e-6
    t_far = np.where(close, 1.0, t)
    return np.where(close, 1.0 - t / 2.0 + t * t / 3.0, np.log1p(t_far) / t_far) / lo


def _factor_pair(x: SPDMatrix, y: SPDMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Cholesky factors A, B of X = A A^T, Y = B B^T, raw input parsed by :func:`_as_spd`;
    the quotient A^{-1} B has the square root of the condition of X^{-1} Y."""
    xa, ya = _as_spd(x).entries, _as_spd(y).entries
    _check_same_dim(xa, ya)
    return np.linalg.cholesky(xa), np.linalg.cholesky(ya)


def _congruence(a: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(A U) diag(s) (A U)^T, symmetrized: the one X # Y kernel, for X = A A^T and
    U diag(s) U^T = A^{-1} (X # Y) A^{-T} read off an SVD, so that no matrix of the
    condition of X^{-1} Y is formed (Iannazzo, NLAA 2016)."""
    au = a @ u
    out = (au * s) @ au.T
    return 0.5 * (out + out.T)


def geometric_mean(x: SPDMatrix, y: SPDMatrix) -> SPDMatrix:
    """Matrix geometric mean X # Y = X^{1/2}(X^{-1/2} Y X^{-1/2})^{1/2} X^{1/2}.

    The trace-metric geodesic midpoint; solves the Riccati equation
    Z X^{-1} Z = Y.  With X = A A^T, Y = B B^T and A^{-1} B = U diag(s) V^T,
    A^{-1} Y A^{-T} = U diag(s^2) U^T, so X # Y = (A U) diag(s) (A U)^T.
    """
    a, b = _factor_pair(x, y)
    u, s, _ = _lapack(np.linalg.svd, np.linalg.solve(a, b))
    return _computed_spd(_congruence(a, u, s), "geometric mean")


def trace_metric_distance(p1: SPDMatrix, p2: SPDMatrix) -> float:
    """Affine-invariant geodesic distance ||log(P1^{-1/2} P2 P1^{-1/2})||_F, as 2 ||log s||
    over the singular values s of A^{-1} B with P1 = A A^T, P2 = B B^T."""
    a, b = _factor_pair(p1, p2)
    s = _lapack(np.linalg.svd, np.linalg.solve(a, b), compute_uv=False)
    return 2.0 * float(np.sqrt(np.sum(np.log(s) ** 2)))


def logdet_div(x: SPDMatrix, y: SPDMatrix) -> float:
    """Log-det Bregman divergence tr(X Y^{-1}) - log det(X Y^{-1}) - d, as the sum of
    t - log(s^2) with t = (s - 1)(s + 1) over the singular values s of B^{-1} A,
    X = A A^T, Y = B B^T: non-negative terms of order t^2 near X = Y, where the traces cancel.
    The log is log1p(t) there, and 2 log(s) for s^2 < 1/2, where 1 + t loses the digits
    of s^2 (all of them below 1.1e-16, where t rounds to -1).  Past the float max it is +inf."""
    a, b = _factor_pair(x, y)
    s = _lapack(np.linalg.svd, np.linalg.solve(b, a), compute_uv=False)
    if s[0] > math.sqrt(_MAX):  # t = (s - 1)(s + 1) would overflow
        return math.inf
    t = (s - 1.0) * (s + 1.0)
    log_s2 = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)), 2.0 * np.log(s))
    with np.errstate(over="ignore"):
        return float(np.sum(t - log_s2))


def symmetrized_logdet(x: SPDMatrix, y: SPDMatrix) -> float:
    """Symmetrized log-det divergence tr(X^{-1} Y + Y^{-1} X - 2 I), as the sum of squares
    |C - C^{-T}|_F^2 with C = A^{-1} B, X = A A^T, Y = B B^T: no cancellation near X = Y.
    Past the float max it is +inf."""
    a, b = _factor_pair(x, y)
    diff = np.linalg.solve(a, b) - np.linalg.solve(b, a).T
    with np.errstate(over="ignore"):
        return float(np.sum(diff * diff))


def _same_dim_stack(mats: Sequence[SPDMatrix]) -> np.ndarray:
    """The members' entries as one stack; raw members are parsed by :func:`_as_spd`."""
    arrays = [_as_spd(m).entries for m in mats]
    for m in arrays[1:]:
        _check_same_dim(arrays[0], m)
    return np.array(arrays)


def _weighted_sum(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i w_i stack[i] of a stack of n equal-shape arrays, as one matrix product."""
    return (w @ stack.reshape(w.size, -1)).reshape(stack.shape[1:])


def sld_centroid(mats: Sequence[SPDMatrix], weights: Optional[Sequence] = None) -> SPDMatrix:
    """Symmetrized log-det centroid A # H of a weighted SPD set.

    A is the weighted arithmetic mean and H = P^{-1} the weighted harmonic mean,
    P the weighted mean of the inverses.  H is never formed: with A = L L^T,
    P = R R^T and L^T R = U diag(s) V^T, the quotient L^{-1} R^{-T} of A and H is
    U diag(1/s) V^T, so A # H = (L U) diag(1/s) (L U)^T.  A failed inversion or
    factorization is a NumericalError.
    """
    w = check_weights(weights, len(mats))
    stack = _same_dim_stack(mats)
    prec = _weighted_sum(w, _lapack(np.linalg.inv, stack))
    l = _lapack(np.linalg.cholesky, _weighted_sum(w, stack))
    # Computed inverses are not exactly symmetric, and cholesky reads one
    # triangle: near the 1e12 bound, P's lower triangle alone put A # H 42% off.
    r = _lapack(np.linalg.cholesky, 0.5 * (prec + prec.T))
    u, s, _ = _lapack(np.linalg.svd, l.T @ r)
    return _computed_spd(_congruence(l, u, 1.0 / s), "A#H centroid")
