"""Symmetric positive-definite matrix kernel.

Spectral square roots and powers, the two-point matrix geometric mean X#Y,
the affine-invariant (trace metric) geodesic distance, log-det Bregman
divergences, the arithmetic-harmonic double sequence converging to X#Y, and
the closed-form symmetrized log-det centroid A#H.

All matrix functions go through one symmetric-eigendecomposition kernel,
which turns a failed decomposition into a NumericalError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .legendre import _FD_STEP, CenterDiagnostics, check_weights
from .special_functions import ToleranceConfig

__all__ = [
    "SPDMatrix",
    "spd_sqrt",
    "spd_power",
    "geometric_mean",
    "trace_metric_distance",
    "logdet_div",
    "symmetrized_logdet",
    "sld_centroid",
    "sld_grad_residual",
    "nakamura_ah",
    "g_invariance_residual",
    "NAKAMURA_TOL",
]

NAKAMURA_TOL = ToleranceConfig(rel_tol=1e-10, max_iter=200)

_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class SPDMatrix:
    """A symmetric positive-definite matrix with verified spectral positivity.

    Construction symmetrizes (M + M^T)/2, rejecting relative asymmetry above
    1e-8, then checks the smallest eigenvalue and the condition number.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        if np.any(~np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        scale = max(float(np.abs(m).max()), np.finfo(float).tiny)
        asym = float(np.abs(m - m.T).max()) / scale
        if asym > 1e-8:
            raise DomainError(f"matrix asymmetry {asym:.3g} exceeds 1e-8")
        sym = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(sym)
        if eigvals[0] <= 0.0:
            raise DomainError(f"matrix is not positive definite (min eig {eigvals[0]:.3g})")
        if eigvals[-1] / eigvals[0] > _MAX_CONDITION:
            raise DomainError(
                f"matrix condition number {eigvals[-1] / eigvals[0]:.3g} exceeds 1e12"
            )
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _as_array(x) -> np.ndarray:
    return x.entries if isinstance(x, SPDMatrix) else np.asarray(x, dtype=float)


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DomainError(f"dimension mismatch: {x.shape} vs {y.shape}")


def _eigh(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix.

    A failed decomposition (e.g. non-finite entries) is a NumericalError.
    """
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def _spectral(m: np.ndarray, *fns: Callable[[np.ndarray], np.ndarray]) -> List[np.ndarray]:
    """Spectral functions V f(w) V^T of a symmetric matrix, one per ``fns``,
    from a single eigendecomposition; each output is symmetrized."""
    w, v = _eigh(m)
    outs = []
    for f in fns:
        out = (v * f(w)) @ v.T
        outs.append(0.5 * (out + out.T))
    return outs


def _positive(w: np.ndarray) -> np.ndarray:
    if w[0] <= 0.0:
        raise NumericalError("matrix function of a non-positive-definite argument")
    return w


def _log_eigs(w: np.ndarray) -> np.ndarray:
    return np.log(_positive(w))


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


def _sqrt_pair(m: np.ndarray) -> List[np.ndarray]:
    """M^{1/2} and M^{-1/2} of a positive-definite M from one eigendecomposition."""
    return _spectral(m, lambda w: _positive(w) ** 0.5, lambda w: w**-0.5)


def _power(m: np.ndarray, p: float) -> np.ndarray:
    return _spectral(m, lambda w: w**p)[0]


def spd_power(x: SPDMatrix, p: float) -> SPDMatrix:
    """Matrix power X^p through the spectral decomposition."""
    return SPDMatrix(_power(_as_array(x), p))


def spd_sqrt(x: SPDMatrix) -> SPDMatrix:
    """Principal matrix square root."""
    return spd_power(x, 0.5)


def _geomean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xh, xmh = _sqrt_pair(x)
    mid = _power(xmh @ y @ xmh, 0.5)
    out = xh @ mid @ xh
    return 0.5 * (out + out.T)


def geometric_mean(x: SPDMatrix, y: SPDMatrix) -> SPDMatrix:
    """Matrix geometric mean X # Y = X^{1/2}(X^{-1/2} Y X^{-1/2})^{1/2} X^{1/2}.

    The trace-metric geodesic midpoint; solves the Riccati equation
    Z X^{-1} Z = Y.
    """
    xa, ya = _as_array(x), _as_array(y)
    _check_same_dim(xa, ya)
    return SPDMatrix(_geomean(xa, ya))


def trace_metric_distance(p1: SPDMatrix, p2: SPDMatrix) -> float:
    """Affine-invariant geodesic distance ||log(P1^{-1/2} P2 P1^{-1/2})||_F."""
    a, b = _as_array(p1), _as_array(p2)
    _check_same_dim(a, b)
    amh = _power(a, -0.5)
    eig = np.linalg.eigvalsh(amh @ b @ amh)
    if eig[0] <= 0.0:
        raise NumericalError("similarity transform lost positive definiteness")
    return float(np.sqrt(np.sum(np.log(eig) ** 2)))


def logdet_div(x: SPDMatrix, y: SPDMatrix) -> float:
    """Log-det Bregman divergence tr(X Y^{-1}) - log det(X Y^{-1}) - d."""
    xa, ya = _as_array(x), _as_array(y)
    _check_same_dim(xa, ya)
    d = xa.shape[0]
    m = np.linalg.solve(ya, xa)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise NumericalError("log-det argument is not positive definite")
    return float(np.trace(m) - logdet - d)


def symmetrized_logdet(x: SPDMatrix, y: SPDMatrix) -> float:
    """Symmetrized log-det divergence tr(X^{-1} Y + Y^{-1} X - 2 I)."""
    xa, ya = _as_array(x), _as_array(y)
    _check_same_dim(xa, ya)
    d = xa.shape[0]
    return float(np.trace(np.linalg.solve(xa, ya)) + np.trace(np.linalg.solve(ya, xa)) - 2 * d)


def _same_dim_arrays(mats: Sequence[SPDMatrix]) -> list:
    arrays = [_as_array(m) for m in mats]
    for m in arrays[1:]:
        _check_same_dim(arrays[0], m)
    return arrays


def sld_centroid(mats: Sequence[SPDMatrix], weights: Optional[Sequence] = None) -> SPDMatrix:
    """Symmetrized log-det centroid A # H of a weighted SPD set.

    A is the weighted arithmetic mean and H the weighted harmonic mean.
    """
    w = check_weights(weights, len(mats))
    arrays = _same_dim_arrays(mats)
    a = sum(wi * m for wi, m in zip(w, arrays))
    h = np.linalg.inv(sum(wi * np.linalg.inv(m) for wi, m in zip(w, arrays)))
    return SPDMatrix(_geomean(a, 0.5 * (h + h.T)))


def sld_grad_residual(
    mats: Sequence[SPDMatrix], weights: Optional[Sequence], x: SPDMatrix
) -> float:
    """Finite-difference gradient norm of sum_i w_i S_ld(X, P_i) at X.

    Perturbs the independent entries of X symmetrically with centered
    differences; near zero exactly at the symmetrized log-det centroid.
    """
    w = check_weights(weights, len(mats))
    arrays = _same_dim_arrays(mats)
    xa = _as_array(x)
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


def nakamura_ah(
    p: SPDMatrix, q: SPDMatrix, tol: ToleranceConfig = NAKAMURA_TOL
) -> Tuple[SPDMatrix, CenterDiagnostics]:
    """Arithmetic-harmonic double sequence converging to the geometric mean.

    P <- (P+Q)/2, Q <- 2 (P^{-1} + Q^{-1})^{-1}; the Frobenius gap decreases
    quadratically and the common limit is P # Q.
    """
    t0 = time.perf_counter_ns()
    a, b = _as_array(p).copy(), _as_array(q).copy()
    _check_same_dim(a, b)
    gap = float(np.linalg.norm(a - b))
    iterations = 0
    while gap > tol.rel_tol and iterations < tol.max_iter:
        harm = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
        a, b = 0.5 * (a + b), 0.5 * (harm + harm.T)
        gap = float(np.linalg.norm(a - b))
        iterations += 1
    return SPDMatrix(0.5 * (a + a.T)), CenterDiagnostics.after(t0, iterations, gap, tol.rel_tol)


def g_invariance_residual(a: SPDMatrix, h: SPDMatrix) -> float:
    """Frobenius residual of G(A,H) = G((A+H)/2, 2(A^{-1}+H^{-1})^{-1})."""
    aa, ha = _as_array(a), _as_array(h)
    _check_same_dim(aa, ha)
    lhs = _geomean(aa, ha)
    harm = 2.0 * np.linalg.inv(np.linalg.inv(aa) + np.linalg.inv(ha))
    rhs = _geomean(0.5 * (aa + ha), 0.5 * (harm + harm.T))
    return float(np.linalg.norm(lhs - rhs))
