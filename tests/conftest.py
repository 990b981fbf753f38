import numpy as np
import pytest

from jeffreys_centers import (
    GaussianParam,
    SPDMatrix,
    fisher_rao_midpoint_mvn,
    gauss_bregman,
    gaussian,
    geometric_mean,
    trace_metric_distance,
)


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> SPDMatrix:
    """Well-conditioned random SPD matrix."""
    a = rng.normal(size=(d, d)) * spread
    return SPDMatrix(a @ a.T + d * spread**2 * np.eye(d))


def random_spd_unit(rng: np.random.Generator, d: int) -> SPDMatrix:
    """Random SPD with spectrum in [0.5, 2]: keeps finite-difference probes sharp."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(0.5, 2.0, size=d)
    return SPDMatrix((q * lam) @ q.T)


def random_simplex(rng: np.random.Generator, d: int, floor: float = 1e-12) -> np.ndarray:
    p = rng.dirichlet(np.ones(d))
    while p.min() < floor:
        p = rng.dirichlet(np.ones(d))
    return p


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
    G1 = gaussian._align_fiber(gaussian._embed_array(mean_w, 0.5 * (cov_w + cov_w.T)), d)
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
    takes appends ((bar, under) before, (bar, under) after) to the list.
    """
    calls = []
    step = gauss_bregman.gb_step

    def recording_step(gen, theta_bar, theta_under):
        out = step(gen, theta_bar, theta_under)
        calls.append(((np.array(theta_bar, dtype=float), np.array(theta_under, dtype=float)), out))
        return out

    monkeypatch.setattr(gauss_bregman, "gb_step", recording_step)
    return calls
