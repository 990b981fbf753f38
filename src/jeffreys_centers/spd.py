"""Symmetric positive-definite matrix kernel.

The two-point matrix geometric mean X#Y from spectral square roots, the
affine-invariant (trace metric) geodesic distance, log-det Bregman
divergences, and the closed-form symmetrized log-det centroid A#H.  The
arithmetic-harmonic double sequence converging to X#Y is the Gaussian
Gauss-Bregman center of the centered pair N(0, X), N(0, Y).

One symmetric-eigendecomposition kernel, which turns a failed decomposition
into a NumericalError, serves every matrix function and the one SPD rule.
Caller input is parsed into an :class:`SPDMatrix`; a matrix the library
computed is wrapped by :func:`_computed_spd`, which applies the rule alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
        m = np.atleast_2d(_float_array(self.entries, "SPDMatrix entries"))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DomainError(f"expected a non-empty square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("matrix entries must be finite")
        scale = max(float(np.abs(m).max()), _TINY)
        asym = float(np.abs(m - m.T).max()) / scale
        if asym > 1e-8:
            raise DomainError(f"matrix asymmetry {asym:.3g} exceeds 1e-8")
        sym = 0.5 * (m + m.T)
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
    _check_spectrum(_eigvalsh(sym) if w is None else w, what)
    out = object.__new__(SPDMatrix)
    object.__setattr__(out, "entries", sym)
    return out


def _as_spd(x) -> SPDMatrix:
    """``x`` if it is an SPDMatrix; else caller input, parsed as one."""
    return x if isinstance(x, SPDMatrix) else SPDMatrix(x)


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


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix; a failure as in :func:`_eigh`."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


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
    _check_spectrum(_eigvalsh(m), what)


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
    if not w[0] > 0.0:
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
    return _spectral(m, lambda w: _positive(w) ** p)[0]


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
    xa, ya = _as_spd(x).entries, _as_spd(y).entries
    _check_same_dim(xa, ya)
    return _computed_spd(_geomean(xa, ya), "geometric mean")


def trace_metric_distance(p1: SPDMatrix, p2: SPDMatrix) -> float:
    """Affine-invariant geodesic distance ||log(P1^{-1/2} P2 P1^{-1/2})||_F."""
    a, b = _as_spd(p1).entries, _as_spd(p2).entries
    _check_same_dim(a, b)
    amh = _power(a, -0.5)
    return float(np.sqrt(np.sum(_log_eigs(_eigvalsh(amh @ b @ amh)) ** 2)))


def logdet_div(x: SPDMatrix, y: SPDMatrix) -> float:
    """Log-det Bregman divergence tr(X Y^{-1}) - log det(X Y^{-1}) - d, never below 0."""
    xa, ya = _as_spd(x).entries, _as_spd(y).entries
    _check_same_dim(xa, ya)
    d = xa.shape[0]
    m = np.linalg.solve(ya, xa)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise NumericalError("log-det argument is not positive definite")
    return max(0.0, float(np.trace(m) - logdet - d))


def symmetrized_logdet(x: SPDMatrix, y: SPDMatrix) -> float:
    """Symmetrized log-det divergence tr(X^{-1} Y + Y^{-1} X - 2 I), as the sum of squares
    |C - C^{-T}|_F^2 with C = A^{-1} B, X = A A^T, Y = B B^T: no cancellation near X = Y."""
    xa, ya = _as_spd(x).entries, _as_spd(y).entries
    _check_same_dim(xa, ya)
    a, b = np.linalg.cholesky(xa), np.linalg.cholesky(ya)
    diff = np.linalg.solve(a, b) - np.linalg.solve(b, a).T
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

    A is the weighted arithmetic mean and H the weighted harmonic mean.
    """
    w = check_weights(weights, len(mats))
    stack = _same_dim_stack(mats)
    a = _weighted_sum(w, stack)
    h = np.linalg.inv(_weighted_sum(w, np.linalg.inv(stack)))
    return _computed_spd(_geomean(a, 0.5 * (h + h.T)), "A#H centroid")
