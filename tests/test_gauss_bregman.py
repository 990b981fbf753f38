import math

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    GeneratorSpec,
    ToleranceConfig,
    WeightedParamSet,
    burg_generator,
    elliptic_k,
    gb_center,
    gb_step,
    make_separable_generator,
    quasi_arithmetic_center,
    scalar_agm,
    shannon_generator,
)
from jeffreys_centers.gauss_bregman import GB_TOL

TIGHT = ToleranceConfig(rel_tol=1e-13, max_iter=300)


def gb_invariance_check(
    gen: GeneratorSpec, theta1, theta2, tol: ToleranceConfig = GB_TOL
) -> float:
    """Residual of the invariance m_GB(t1, t2) = m_GB(A(t1,t2), m_gradF(t1,t2)).

    Both sides are run to ``tol``; returns the norm of their difference.
    """
    t1 = gen.require_domain(theta1, "first point")
    t2 = gen.require_domain(theta2, "second point")
    pair = WeightedParamSet.of([t1, t2])
    lhs, _ = gb_center(gen, pair, tol)
    mid_arith = 0.5 * (t1 + t2)
    mid_quasi = quasi_arithmetic_center(gen, pair)
    stepped = WeightedParamSet.of([mid_arith, mid_quasi])
    rhs, _ = gb_center(gen, stepped, tol)
    return float(np.linalg.norm(lhs - rhs))


class TestGBStep:
    def test_fixed_point(self, rng):
        gen = shannon_generator(2)
        theta = rng.uniform(0.5, 2.0, size=2)
        nb, nu = gb_step(gen, theta, theta)
        assert np.allclose(nb, theta) and np.allclose(nu, theta)

    def test_burg_means(self):
        nb, nu = gb_step(burg_generator(1), [1.0], [4.0])
        assert nb[0] == pytest.approx(2.5) and nu[0] == pytest.approx(1.6)

    def test_shannon_means(self):
        nb, nu = gb_step(shannon_generator(1), [1.0], [4.0])
        assert nb[0] == pytest.approx(2.5) and nu[0] == pytest.approx(2.0)

    def test_domain_escape_detected(self):
        # artificial generator whose domain excludes the arithmetic midpoint
        gen = GeneratorSpec(
            dim=1,
            eval_F=lambda t: float(0.5 * t @ t),
            eval_grad=lambda t: t,
            eval_grad_inv=lambda e: e,
            in_domain=lambda t: bool(abs(t[0] - 1.75) > 0.1),
            name="gapped",
        )
        with pytest.raises(DomainError):
            gb_step(gen, np.array([1.5]), np.array([2.0]))


class TestGBCenter:
    def test_all_equal_zero_iterations(self, rng):
        gen = shannon_generator(3)
        theta = rng.uniform(0.5, 2.0, size=3)
        center, diag = gb_center(gen, WeightedParamSet.of([theta, theta]))
        assert diag.status == "converged"
        assert diag.iterations == 0
        assert np.allclose(center, theta)

    def test_burg_pair_geometric_mean(self):
        center, _ = gb_center(burg_generator(1), WeightedParamSet.of([[1.0], [4.0]]), TIGHT)
        assert center[0] == pytest.approx(2.0, abs=1e-12)

    def test_shannon_pair_is_agm_of_initial_centroids(self):
        center, _ = gb_center(shannon_generator(1), WeightedParamSet.of([[1.0], [4.0]]), TIGHT)
        a0, g0 = 2.5, 2.0
        expect = (math.pi / 4.0) * (a0 + g0) / elliptic_k((a0 - g0) / (a0 + g0))
        assert center[0] == pytest.approx(expect, rel=1e-10)
        assert center[0] == pytest.approx(scalar_agm(a0, g0), rel=1e-12)

    def test_scalar_gap_halving(self, rng, gb_steps):
        gen = shannon_generator(1)
        pts = rng.uniform(0.1, 10.0, size=(2, 1))
        gb_center(gen, WeightedParamSet.of(pts), TIGHT)
        assert gb_steps
        for (tb, tu), (nb, nu) in gb_steps:
            assert abs(nb[0] - nu[0]) <= 0.5 * abs(tb[0] - tu[0]) + 1e-15

    def test_separable_multivariate_halving(self, rng, gb_steps):
        gen = make_separable_generator(
            3,
            f=lambda t: t * np.log(t) - t,
            f_prime=np.log,
            f_prime_inv=np.exp,
            in_domain_scalar=lambda t: t > 0,
            name="shannon3",
        )
        pts = rng.uniform(0.2, 5.0, size=(4, 3))
        _, diag = gb_center(gen, WeightedParamSet.of(pts), TIGHT)
        assert diag.status == "converged"
        assert gb_steps
        for (tb0, tu0), (tb1, tu1) in gb_steps:
            assert np.all(np.abs(tb1 - tu1) <= 0.5 * np.abs(tb0 - tu0) + 1e-15)

    def test_trace_length_matches_iterations(self, rng, gb_steps):
        gen = burg_generator(1)
        _, diag = gb_center(gen, WeightedParamSet.of([[0.5], [7.0]]))
        assert diag.iterations > 0
        assert len(gb_steps) == diag.iterations

    def test_gap_strictly_decreasing(self, rng, gb_steps):
        gen = shannon_generator(2)
        pts = rng.uniform(0.2, 5.0, size=(3, 2))
        gb_center(gen, WeightedParamSet.of(pts), TIGHT)
        assert gb_steps
        for (tb, tu), (nb, nu) in gb_steps:
            g0, g1 = np.linalg.norm(tb - tu), np.linalg.norm(nb - nu)
            assert g1 < g0 or g0 == 0

    def test_nonconvergence_reported(self):
        gen = shannon_generator(1)
        _, diag = gb_center(gen, WeightedParamSet.of([[0.1], [9.0]]), ToleranceConfig(1e-12, 2))
        assert diag.status == "max_iter"
        assert diag.final_gap > 1e-12

    def test_weighted_initialization(self):
        # weights shift the initial sided centroids, hence the limit
        gen = burg_generator(1)
        center, _ = gb_center(gen, WeightedParamSet([[1.0], [4.0]], [0.9, 0.1]), TIGHT)
        a0 = 0.9 * 1.0 + 0.1 * 4.0
        h0 = 1.0 / (0.9 / 1.0 + 0.1 / 4.0)
        assert center[0] == pytest.approx(math.sqrt(a0 * h0), abs=1e-10)


class TestGBInvariance:
    def test_equal_points(self):
        gen = shannon_generator(1)
        assert gb_invariance_check(gen, [2.0], [2.0]) == pytest.approx(0.0, abs=1e-14)

    def test_burg_pair(self):
        assert gb_invariance_check(burg_generator(1), [1.0], [4.0], TIGHT) <= 1e-10

    def test_random_shannon_pairs(self, rng):
        gen = shannon_generator(1)
        for _ in range(20):
            x, y = rng.uniform(0.1, 10.0, size=2)
            assert gb_invariance_check(gen, [x], [y], TIGHT) <= 1e-10
