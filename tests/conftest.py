import numpy as np
import pytest

from jeffreys_centers import (
    GaussianParam,
    GeneratorSpec,
    SPDMatrix,
    ToleranceConfig,
    fisher_rao_midpoint_mvn,
    gauss_bregman,
    gaussian,
    gb_center_mvn,
    geometric_mean,
    lambert_w0,
    trace_metric_distance,
)
from jeffreys_centers.generators import _separable


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> SPDMatrix:
    """Well-conditioned random SPD matrix."""
    a = rng.normal(size=(d, d)) * spread
    return SPDMatrix(a @ a.T + d * spread**2 * np.eye(d))


def random_spd_unit(rng: np.random.Generator, d: int) -> SPDMatrix:
    """Random SPD with spectrum in [0.5, 2]: keeps finite-difference probes sharp."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(0.5, 2.0, size=d)
    return SPDMatrix((q * lam) @ q.T)


# The tolerance every arithmetic-harmonic check runs at.  At GB_TOL the limit
# lands up to 9e-7 (Frobenius) from X#Y on random_spd pairs at d <= 16, too
# loose for the 1e-8 bounds of the tests that use it.
AH_TOL = ToleranceConfig(rel_tol=1e-12, max_iter=300)


def ah_limit(x: SPDMatrix, y: SPDMatrix, tol: ToleranceConfig = AH_TOL):
    """Limit of the arithmetic-harmonic sequence X <- (X+Y)/2, Y <- 2(X^-1+Y^-1)^-1.

    On the centered pair N(0, X), N(0, Y) the Gaussian Gauss-Bregman sequence
    averages precisions and covariances, so its center is N(0, X#Y).  Returns
    the limit covariance and the diagnostics.
    """
    zero = np.zeros(x.dim)
    center, diag = gb_center_mvn([GaussianParam(zero, x), GaussianParam(zero, y)], None, tol)
    return center.cov, diag


def positive_burg(dim: int = 1) -> GeneratorSpec:
    """Burg's generator with the domain test t > 0 alone, which +inf passes."""
    return _separable(
        dim,
        f=lambda t: -np.log(t),
        f_prime=lambda t: -1.0 / t,
        f_prime_inv=lambda e: -1.0 / e,
        in_domain_scalar=lambda t: t > 0.0,
        name="positive",
    )


def random_simplex(rng: np.random.Generator, d: int, floor: float = 1e-12) -> np.ndarray:
    p = rng.dirichlet(np.ones(d))
    while p.min() < floor:
        p = rng.dirichlet(np.ones(d))
    return p


def polished_w0(x) -> np.ndarray:
    """W0(x) to rounding, away from the branch point: the lambert_w0 value and
    one more Halley step on w e^w = x.

    For x > 0 lambert_w0 is already at rounding, from Fritsch-Shafer-Crowley
    steps on w + log w = log x, so the step is an independent check of it.  For
    x < 0 the value meets only |w e^w - x| <= 1e-12 |x|, and the step polishes
    it.
    """
    x = np.asarray(x, dtype=float)
    w = lambert_w0(x)
    ew = np.exp(w)
    f = w * ew - x
    return w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def embedded_equidistance_residual(p0: GaussianParam, p1: GaussianParam) -> float:
    """|rho(I, G) - rho(G, G1)| for the whitened, aligned lift of the FR midpoint.

    Rebuilds fisher_rao_midpoint_mvn's (2d+1) x (2d+1) triple from the library's
    embedding, gauge alignment and geometric mean, and first requires its
    readback to equal the library's midpoint, so the residual is that of the
    library's own midpoint.  The trace metric is congruence-invariant, so the
    distances are those of the unwhitened lifts.
    """
    d = p0.dim
    L = np.linalg.cholesky(p0.cov.entries)
    mean_w = np.linalg.solve(L, p1.mean - p0.mean)
    cov_w = np.linalg.solve(L, np.linalg.solve(L, p1.cov.entries).T)
    G0 = np.eye(2 * d + 1)
    G1, _ = gaussian._align_fiber(gaussian._embed_array(mean_w, 0.5 * (cov_w + cov_w.T)), d)
    G = geometric_mean(G0, G1).entries
    S = gaussian._sym_inv(G[:d, :d])
    cov = L @ S @ L.T
    mid = fisher_rao_midpoint_mvn(p0, p1)
    np.testing.assert_allclose(p0.mean + L @ (S @ G[:d, d]), mid.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(0.5 * (cov + cov.T), mid.cov.entries, rtol=1e-12, atol=1e-12)
    return abs(trace_metric_distance(G0, G) - trace_metric_distance(G, G1))


@pytest.fixture
def gb_steps(monkeypatch) -> list:
    """The library's own double-sequence iterates, recorded by wrapping gb_step.

    gb_center calls gb_step through the gauss_bregman module, so every step it
    takes appends ((bar, under) before, (bar, under) after) to the list; the
    moment iterate the step also carries is not recorded.
    """
    calls = []
    step = gauss_bregman.gb_step

    def recording_step(gen, theta_bar, theta_under, eta_under):
        out = step(gen, theta_bar, theta_under, eta_under)
        calls.append(((np.array(theta_bar, dtype=float), np.array(theta_under, dtype=float)), out[:2]))
        return out

    monkeypatch.setattr(gauss_bregman, "gb_step", recording_step)
    return calls
