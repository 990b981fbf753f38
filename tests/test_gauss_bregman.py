import dataclasses
import math

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    GaussianParam,
    GeneratorSpec,
    ToleranceConfig,
    WeightedParamSet,
    burg_generator,
    gb_center,
    gb_center_mvn,
    gb_step,
    mvn_generator,
    mvn_to_natural,
    quasi_arithmetic_center,
    right_bregman_centroid,
    shannon_generator,
)
from jeffreys_centers.gauss_bregman import GB_TOL, _norm
from jeffreys_centers.generators import _separable

from conftest import positive_burg, random_spd
from oracles import elliptic_k, gb_center_primal

TIGHT = ToleranceConfig(rel_tol=1e-13, max_iter=300)


def gb_invariance_check(
    gen: GeneratorSpec, theta1, theta2, tol: ToleranceConfig = GB_TOL
) -> float:
    """Residual of the invariance m_GB(t1, t2) = m_GB(A(t1,t2), m_gradF(t1,t2)).

    Both sides are run to ``tol``; returns the norm of their difference.
    """
    t1 = gen.require_domain(theta1, "first point")
    t2 = gen.require_domain(theta2, "second point")
    pair = WeightedParamSet([t1, t2])
    lhs, _ = gb_center(gen, pair, tol)
    mid_arith = 0.5 * (t1 + t2)
    mid_quasi = quasi_arithmetic_center(gen, pair)
    stepped = WeightedParamSet([mid_arith, mid_quasi])
    rhs, _ = gb_center(gen, stepped, tol)
    return float(np.linalg.norm(lhs - rhs))


def _step(gen, theta_bar, theta_under):
    """gb_step from a pair, its moment iterate evaluated here."""
    return gb_step(gen, theta_bar, theta_under, gen.eval_grad(np.atleast_1d(theta_under)))


class TestToleranceConfig:
    def test_defaults(self):
        assert ToleranceConfig() == GB_TOL
        assert GB_TOL.rel_tol == 1e-8 and GB_TOL.max_iter == 200


class TestGBStep:
    def test_fixed_point(self, rng):
        gen = shannon_generator(2)
        theta = rng.uniform(0.5, 2.0, size=2)
        nb, nu, ne = _step(gen, theta, theta)
        assert np.allclose(nb, theta) and np.allclose(nu, theta)
        assert np.allclose(ne, gen.eval_grad(theta))

    def test_burg_means(self):
        nb, nu, ne = _step(burg_generator(1), [1.0], [4.0])
        assert nb[0] == pytest.approx(2.5) and nu[0] == pytest.approx(1.6)
        assert ne[0] == pytest.approx(-1.0 / 1.6)

    def test_shannon_means(self):
        nb, nu, ne = _step(shannon_generator(1), [1.0], [4.0])
        assert nb[0] == pytest.approx(2.5) and nu[0] == pytest.approx(2.0)
        assert ne[0] == pytest.approx(math.log(2.0))

    def test_moment_iterate_is_carried_not_recomputed(self):
        # the step averages the eta it is given: Burg's eta = -1/theta, so the
        # harmonic midpoint of 1 and 4 is read from -1/4, not recomputed from theta_under
        nb, nu, ne = gb_step(burg_generator(1), [1.0], [4.0], [-0.5])
        assert nb[0] == 2.5 and ne[0] == -0.75 and nu[0] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize(
        "bar, under, what",
        [([-1.0], [2.0], "arithmetic iterate"), ([1.0], [np.inf], "quasi-arithmetic iterate")],
        ids=["negative", "infinite"],
    )
    def test_inputs_outside_the_domain_rejected(self, bar, under, what):
        # unchecked, ([1], [inf]) would step to (inf, 2): -1/inf = -0 averages finitely
        with pytest.raises(DomainError, match=f"^positive: {what}"):
            gb_step(positive_burg(), bar, under, [-0.5])

    @pytest.mark.parametrize(
        "eta, message",
        [
            ([-0.5, -0.5], r"has shape \(2,\), expected \(3,\)"),
            ([-0.5], r"has shape \(1,\), expected \(3,\)"),
            (-0.5, r"has shape \(\), expected \(3,\)"),
            ([[-0.5, -0.5, -0.5]], r"has shape \(1, 3\), expected \(3,\)"),
            ([-0.5, np.nan, -0.5], r"array\(.*\) is not finite"),
            ([-0.5, -0.5, -np.inf], r"array\(.*\) is not finite"),
            (["-0.5", "-0.5", "-0.5"], "is not an array of numbers"),
        ],
        ids=["short", "one", "scalar", "2-D", "nan", "inf", "strings"],
    )
    def test_moment_iterate_parsed(self, eta, message):
        with pytest.raises(DomainError, match=f"moment iterate {message}"):
            gb_step(burg_generator(3), [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], eta)


class TestDualSequence:
    """The dual step carries grad F(theta_under) where the primal step of
    ``oracles.gb_step_primal`` re-evaluates it; both runs agree."""

    TOLS = [GB_TOL, ToleranceConfig(rel_tol=1e-8, max_iter=3)]

    @staticmethod
    def _agree(gen, pset, tol):
        center, diag = gb_center(gen, pset, tol)
        ref, steps, status = gb_center_primal(gen, pset, tol)
        assert (diag.iterations, diag.status) == (steps, status)
        assert np.linalg.norm(center - ref) <= 1e-13 * np.linalg.norm(ref)
        return steps

    @pytest.mark.parametrize("make", [burg_generator, shannon_generator])
    @pytest.mark.parametrize("tol", TOLS, ids=["default", "max_iter=3"])
    def test_separable_generators_match_the_primal_sequence(self, rng, make, tol):
        steps = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            pts = np.exp(rng.uniform(-3.0, 3.0, size=(n, 3)))
            steps += self._agree(make(3), WeightedParamSet(pts, rng.dirichlet(np.ones(n))), tol)
        assert steps > 0

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("tol", TOLS, ids=["default", "max_iter=3"])
    def test_mvn_generator_matches_the_primal_sequence(self, rng, d, tol):
        steps = 0
        for _ in range(10):
            gs = [GaussianParam(3.0 * rng.normal(size=d), random_spd(rng, d)) for _ in range(4)]
            pset = WeightedParamSet(np.array([mvn_to_natural(g) for g in gs]), None)
            steps += self._agree(mvn_generator(d), pset, tol)
        assert steps > 0

    def test_burg_keeps_the_product_and_reaches_the_geometric_mean(self, rng, gb_steps):
        """Burg's sequence is the arithmetic-harmonic one: a step keeps theta_bar *
        theta_under, so the limit is sqrt(theta_bar_0 * theta_under_0) per coordinate."""
        gen = burg_generator(3)
        for _ in range(20):
            gb_steps.clear()
            pset = WeightedParamSet(np.exp(rng.uniform(-4.0, 4.0, size=(3, 3))))
            a0, h0 = right_bregman_centroid(pset), quasi_arithmetic_center(gen, pset)
            center, diag = gb_center(gen, pset, TIGHT)
            assert diag.status == "converged" and len(gb_steps) == diag.iterations > 0
            for (tb, tu), (nb, nu) in gb_steps:
                np.testing.assert_allclose(nb * nu, tb * tu, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(center, np.sqrt(a0 * h0), rtol=1e-13, atol=0.0)


class TestGBCenter:
    def test_all_equal_zero_iterations(self, rng):
        gen = shannon_generator(3)
        theta = rng.uniform(0.5, 2.0, size=3)
        center, diag = gb_center(gen, WeightedParamSet([theta, theta]))
        assert diag.status == "converged"
        assert diag.iterations == 0
        assert np.allclose(center, theta)

    def test_burg_pair_geometric_mean(self):
        center, _ = gb_center(burg_generator(1), WeightedParamSet([[1.0], [4.0]]), TIGHT)
        assert center[0] == pytest.approx(2.0, abs=1e-12)

    def test_shannon_pair_is_agm_of_initial_centroids(self):
        center, _ = gb_center(shannon_generator(1), WeightedParamSet([[1.0], [4.0]]), TIGHT)
        a0, g0 = 2.5, 2.0
        expect = (math.pi / 4.0) * (a0 + g0) / elliptic_k((a0 - g0) / (a0 + g0))
        assert center[0] == pytest.approx(expect, rel=1e-12)

    def test_scalar_gap_halving(self, rng, gb_steps):
        gen = shannon_generator(1)
        pts = rng.uniform(0.1, 10.0, size=(2, 1))
        gb_center(gen, WeightedParamSet(pts), TIGHT)
        assert gb_steps
        for (tb, tu), (nb, nu) in gb_steps:
            assert abs(nb[0] - nu[0]) <= 0.5 * abs(tb[0] - tu[0]) + 1e-15

    def test_separable_multivariate_halving(self, rng, gb_steps):
        gen = _separable(
            3,
            f=lambda t: t * np.log(t) - t,
            f_prime=np.log,
            f_prime_inv=np.exp,
            in_domain_scalar=lambda t: t > 0,
            name="shannon3",
        )
        pts = rng.uniform(0.2, 5.0, size=(4, 3))
        _, diag = gb_center(gen, WeightedParamSet(pts), TIGHT)
        assert diag.status == "converged"
        assert gb_steps
        for (tb0, tu0), (tb1, tu1) in gb_steps:
            assert np.all(np.abs(tb1 - tu1) <= 0.5 * np.abs(tb0 - tu0) + 1e-15)

    def test_trace_length_matches_iterations(self, rng, gb_steps):
        gen = burg_generator(1)
        _, diag = gb_center(gen, WeightedParamSet([[0.5], [7.0]]))
        assert diag.iterations > 0
        assert len(gb_steps) == diag.iterations

    def test_gap_strictly_decreasing(self, rng, gb_steps):
        gen = shannon_generator(2)
        pts = rng.uniform(0.2, 5.0, size=(3, 2))
        gb_center(gen, WeightedParamSet(pts), TIGHT)
        assert gb_steps
        for (tb, tu), (nb, nu) in gb_steps:
            g0, g1 = np.linalg.norm(tb - tu), np.linalg.norm(nb - nu)
            assert g1 < g0 or g0 == 0

    def test_domain_escape_detected(self):
        # The domain excludes 2.25, the first arithmetic midpoint of {1, 4}
        # under Shannon's generator (its starts are 2.5 and 2): the escape is
        # caught where the midpoint is next used, as the next step's input or
        # as the result of a run capped at one step.
        gen = _separable(
            1,
            f=lambda t: t * np.log(t) - t,
            f_prime=np.log,
            f_prime_inv=np.exp,
            in_domain_scalar=lambda t: (t > 0) & (np.abs(t - 2.25) > 0.005),
            name="gapped",
        )
        pair = WeightedParamSet([[1.0], [4.0]])
        with pytest.raises(DomainError, match="^gapped: arithmetic iterate"):
            gb_center(gen, pair)
        with pytest.raises(DomainError, match="^gapped: final arithmetic iterate"):
            gb_center(gen, pair, ToleranceConfig(rel_tol=1e-8, max_iter=1))

    @pytest.mark.parametrize("make", [burg_generator, shannon_generator])
    @pytest.mark.parametrize(
        "points, tol, status",
        [
            ([[2.0, 0.5]] * 3, GB_TOL, "converged"),
            ([[0.5, 2.0], [7.0, 1.0], [3.0, 0.2]], GB_TOL, "converged"),
            ([[0.1, 1.0], [9.0, 2.0]], ToleranceConfig(rel_tol=1e-12, max_iter=2), "max_iter"),
        ],
        ids=["k=0", "k>0", "max_iter"],
    )
    def test_each_iterate_checked_once(self, make, points, tol, status):
        """n member checks of the quasi-arithmetic start, then each pair once:
        the starts and every stepped pair on entry to the next step, the last
        pair before it is returned."""
        gen = make(2)
        calls = []

        def in_domain(theta):
            calls.append(theta)
            return gen.in_domain(theta)

        counted = dataclasses.replace(gen, in_domain=in_domain)
        _, diag = gb_center(counted, WeightedParamSet(points), tol)
        k = diag.iterations
        assert diag.status == status and (k > 0) == (points[0] != points[1])
        assert len(calls) == len(points) + 2 + 2 * k

    def test_nonconvergence_reported(self):
        gen = shannon_generator(1)
        _, diag = gb_center(gen, WeightedParamSet([[0.1], [9.0]]), ToleranceConfig(1e-12, 2))
        assert diag.status == "max_iter"
        assert diag.final_gap > 1e-12

    def test_small_pair_reaches_the_agm(self, gb_steps):
        # Below |theta_bar| = 1 the gap is relative: an absolute 1e-8 gap
        # would stop {1e-12, 4e-12} at once, at its arithmetic mean, 11% off.
        unit, _ = gb_center(shannon_generator(1), WeightedParamSet([[1.0], [4.0]]), TIGHT)
        gb_steps.clear()
        small, diag = gb_center(shannon_generator(1), WeightedParamSet([[1e-12], [4e-12]]))
        assert diag.status == "converged" and diag.iterations > 0
        assert small[0] == pytest.approx(1e-12 * unit[0], rel=GB_TOL.rel_tol)
        _, (nb, nu) = gb_steps[-1]
        assert diag.final_gap == abs(nb[0] - nu[0]) / abs(nb[0])

    def test_gap_spans_the_float_range(self):
        # Run under the suite's filterwarnings = error.  Squared, the gap of [1e-300], [1e300]
        # overflowed with a warning on each of its 200 steps, and the gap 5e-201 of
        # [1e-200], [3e-200] underflowed to 0 and stopped it at once, 15% off.
        _, diag = gb_center(burg_generator(1), WeightedParamSet([[1e-300], [1e300]]))
        assert diag.status == "max_iter" and math.isfinite(diag.final_gap)
        for scale in (1e-200, 1e200):
            center, diag = gb_center(burg_generator(1), WeightedParamSet([[scale], [3 * scale]]))
            assert diag.status == "converged" and diag.iterations > 0
            assert center[0] == pytest.approx(math.sqrt(3.0) * scale, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_centered_pair_far_from_unit_covariance(self, scale):
        # the GB center of N(0, c), N(0, 2c) is N(0, sqrt(2) c); natural parameters near
        # 1e300 overflowed the squared gap, near 1e-300 underflowed it to 0
        pair = [GaussianParam([0.0], [[scale]]), GaussianParam([0.0], [[2.0 * scale]])]
        center, diag = gb_center_mvn(pair)
        assert diag.status == "converged" and diag.iterations > 0
        assert center.cov.entries[0, 0] == pytest.approx(math.sqrt(2.0) * scale, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e-300, 1e-120, 1e-80, 1.0, 1e80, 1e120, 1e300])
    def test_norm_is_scale_free(self, scale):
        assert _norm(np.array([3.0, -4.0]) * scale) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_norm_is_the_sum_of_squares_in_the_normal_range(self, rng):
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 45)) * 10.0 ** rng.uniform(-90, 90)
            assert _norm(v) == math.sqrt(v.dot(v))

    def test_norm_of_zero_and_non_finite_vectors(self):
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([np.inf, 1.0])) == math.inf
        assert math.isnan(_norm(np.array([np.nan, 1.0])))

    def test_zero_arithmetic_iterate_reports_the_absolute_gap(self):
        gen = _separable(
            1, f=np.exp, f_prime=np.exp, f_prime_inv=np.log,
            in_domain_scalar=np.isfinite, name="exp",
        )
        center, diag = gb_center(gen, WeightedParamSet([[-1.0], [1.0]]), ToleranceConfig(0.5, 10))
        # theta_bar = 0 and theta_under = log(cosh 1): no division by |theta_bar|
        assert center[0] == 0.0 and diag.iterations == 0
        assert diag.final_gap == pytest.approx(math.log(math.cosh(1.0)), rel=1e-15)
        assert diag.status == "converged"

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
