import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import root

from jeffreys_centers import (
    DomainError,
    GaussianParam,
    NumericalError,
    SPDMatrix,
    ToleranceConfig,
    WeightedParamSet,
    fisher_rao_midpoint_mvn,
    gb_center,
    gb_center_mvn,
    geometric_mean,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jeffreys_mvn,
    jfr_center_mvn,
    kl_mvn,
    logdet_div,
    mvn_from_natural,
    mvn_generator,
    mvn_to_natural,
    quasi_arithmetic_center,
    right_bregman_centroid,
    sided_kl_centroids_mvn,
    sld_centroid,
    symmetrized_bregman,
    symmetrized_logdet,
)
from jeffreys_centers import gaussian, spd
from jeffreys_centers.gauss_bregman import GB_TOL
from jeffreys_centers.gaussian import (
    _embed_array,
    _flatten,
    _index_tables,
    _unflatten,
)

from conftest import embedded_equidistance_residual, random_spd, random_spd_unit
from oracles import (
    energy_grad_residual,
    mvn_from_natural_composed,
    mvn_grad_composed,
    mvn_grad_inv_composed,
    mvn_to_natural_composed,
)

TIGHT = ToleranceConfig(rel_tol=1e-12, max_iter=300)


def random_gaussian(rng, d, mean_scale=1.0):
    return GaussianParam(mean_scale * rng.normal(size=d), random_spd(rng, d))


def counting(counts, name, fn):
    """fn, counting its calls in counts[name]."""

    def call(*args):
        counts[name] += 1
        return fn(*args)

    return call


def random_affine(rng, d):
    a = rng.normal(size=(d, d))
    while abs(np.linalg.det(a)) < 0.3 or np.linalg.cond(a) > 20:
        a = rng.normal(size=(d, d))
    return a, rng.normal(size=d)


class TestConversions:
    def test_standard_normal(self):
        g = GaussianParam(np.zeros(2), SPDMatrix(np.eye(2)))
        x = mvn_to_natural(g)
        theta_v, theta_M = _unflatten(x, 2)
        assert np.allclose(theta_v, 0.0)
        assert np.allclose(theta_M, -0.5 * np.eye(2))
        eta_v, eta_M = _unflatten(mvn_generator(2).eval_grad(x), 2)
        assert np.allclose(eta_v, 0.0) and np.allclose(eta_M, np.eye(2))

    def test_moment_formula(self, rng):
        g = random_gaussian(rng, 3)
        _, eta_M = _unflatten(mvn_generator(3).eval_grad(mvn_to_natural(g)), 3)
        assert np.allclose(eta_M, np.outer(g.mean, g.mean) + g.cov.entries)

    def test_roundtrips(self, rng):
        gen = mvn_generator(3)
        for _ in range(10):
            g = random_gaussian(rng, 3)
            x = mvn_to_natural(g)
            g1 = mvn_from_natural(x, 3)
            g2 = mvn_from_natural(gen.eval_grad_inv(gen.eval_grad(x)), 3)
            for other in (g1, g2):
                assert np.abs(other.mean - g.mean).max() < 1e-10
                assert np.abs(other.cov.entries - g.cov.entries).max() < 1e-10

    @pytest.mark.parametrize("d", range(1, 9))
    def test_roundtrips_by_dimension(self, rng, d):
        gen = mvn_generator(d)
        for _ in range(5):
            g = random_gaussian(rng, d, mean_scale=3.0)
            x = mvn_to_natural(g)
            back = mvn_from_natural(x, d)
            assert np.abs(back.mean - g.mean).max() <= 1e-10 * (1.0 + np.abs(g.mean).max())
            assert np.abs(back.cov.entries - g.cov.entries).max() <= 1e-10 * np.abs(g.cov.entries).max()
            eta = gen.eval_grad(x)
            assert np.abs(gen.eval_grad_inv(eta) - x).max() <= 1e-10 * np.abs(x).max()

    def test_type_validation(self):
        with pytest.raises(DomainError):
            # -theta_M not SPD
            mvn_from_natural(_flatten(np.zeros(2), 0.5 * np.eye(2)), 2)
        with pytest.raises(DomainError):
            # eta_M - eta_v eta_v^T indefinite
            mvn_generator(1).eval_grad_inv(_flatten(np.array([2.0]), np.array([[1.0]])))
        with pytest.raises(DomainError):
            GaussianParam(np.zeros(3), SPDMatrix(np.eye(2)))

    @pytest.mark.parametrize(
        "x, d",
        [
            (np.zeros(4), 2),  # flat length of d=2 is 5
            (np.zeros(6), 2),
            (np.zeros((1, 5)), 2),
            (np.zeros(5), 0),
        ],
        ids=["short", "long", "matrix", "d0"],
    )
    def test_from_natural_wrong_shape(self, x, d):
        with pytest.raises(DomainError, match="dimension"):
            mvn_from_natural(x, d)

    @pytest.mark.parametrize(
        "neg_theta_M",
        [
            -np.eye(2),  # negative definite
            np.diag([1.0, -1.0]),  # indefinite
            np.zeros((2, 2)),  # singular
            np.ones((2, 2)),  # singular, rank one
            np.diag([1.0, 1e-20]),  # positive, but past the condition bound
            np.full((2, 2), np.nan),
        ],
        ids=["negative", "indefinite", "zero", "rank_one", "ill_conditioned", "nan"],
    )
    def test_from_natural_outside_the_domain(self, neg_theta_M):
        x = _flatten(np.ones(2), -neg_theta_M)
        with pytest.raises(DomainError):
            mvn_from_natural(x, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_natural_non_finite_theta_v(self, bad):
        x = _flatten(np.array([bad, 0.0]), -0.5 * np.eye(2))
        with pytest.raises(DomainError):
            mvn_from_natural(x, 2)


class TestGenerator:
    def test_grad_at_standard(self):
        gen = mvn_generator(2)
        theta = mvn_to_natural(GaussianParam(np.zeros(2), SPDMatrix(np.eye(2))))
        eta = gen.eval_grad(theta)
        expect = _flatten(np.zeros(2), -0.5 * np.eye(2))
        # eta flat = (mu, vech(mu mu^T + Sigma)): for the standard normal the
        # matrix block is the identity, packed like theta_M = -I/2 scaled by -2
        assert np.allclose(eta, -2.0 * expect)

    def test_bregman_matches_logdet_on_centered_pairs(self, rng):
        # B_F(theta1 : theta2) = D_ld(P1 : P2) / 2 on centered normals
        gen = mvn_generator(3)
        from jeffreys_centers.legendre import bregman_div

        for _ in range(5):
            s1, s2 = random_spd(rng, 3), random_spd(rng, 3)
            t1 = mvn_to_natural(GaussianParam(np.zeros(3), s1))
            t2 = mvn_to_natural(GaussianParam(np.zeros(3), s2))
            lhs = bregman_div(gen, t1, t2)
            rhs = 0.5 * logdet_div(
                SPDMatrix(np.linalg.inv(s1.entries)), SPDMatrix(np.linalg.inv(s2.entries))
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("name", ["eval_F", "eval_grad", "eval_grad_inv", "in_domain"])
    def test_wrong_length_is_a_domain_error(self, name):
        # at d = 2 a 3-vector used to broadcast: eval_grad returned a 5-vector
        # and in_domain decided on a garbage matrix
        fn = getattr(mvn_generator(2), name)
        for x in (np.ones(3), np.ones(6), np.ones((5, 1)), 1.0):
            with pytest.raises(DomainError, match="shape"):
                fn(x)

    def test_a_list_of_the_right_length_is_accepted(self, rng):
        gen = mvn_generator(2)
        theta = mvn_to_natural(random_gaussian(rng, 2))
        eta = gen.eval_grad(theta)
        assert gen.eval_F(list(theta)) == gen.eval_F(theta)
        assert np.array_equal(gen.eval_grad(list(theta)), eta)
        assert np.array_equal(gen.eval_grad_inv(list(eta)), gen.eval_grad_inv(eta))
        assert gen.in_domain(list(theta)) and not gen.in_domain(list(-theta))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_outside_the_cone(self, rng, bad):
        # theta_M keeps its negative-definite block: only the finiteness test refuses
        theta = mvn_to_natural(random_gaussian(rng, 2))
        theta[0] = bad
        assert mvn_generator(2).in_domain(theta) is False

    @pytest.mark.parametrize(
        "eta",
        [np.full(5, np.inf), np.full(5, np.nan), [np.inf, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, np.inf, 1.0]],
        ids=["all_inf", "all_nan", "inf_mean", "inf_second_moment"],
    )
    def test_non_finite_moment_is_a_domain_error(self, eta):
        # an infinite moment used to meet inf - inf in eta_M - eta_v eta_v^T: a
        # RuntimeWarning, which the suite's warning filter raises, before any rule
        with pytest.raises(DomainError, match="moment parameter .* outside the domain"):
            mvn_generator(2).eval_grad_inv(eta)

    @pytest.mark.parametrize(
        "x", [[1.0, 1.0, 1.0, 0.0, 1.0], [np.nan] * 5], ids=["theta_M=I", "nan"]
    )
    def test_eval_F_outside_the_domain_is_a_domain_error(self, x):
        # det(-2 theta_M) > 0 at even d with theta_M = I: eval_F returned 0.6447; an
        # all-NaN point returned nan with a RuntimeWarning
        with pytest.raises(DomainError, match="natural parameter .* outside the domain"):
            mvn_generator(2).eval_F(np.array(x))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_eval_F_is_the_log_normalizer(self, rng, d):
        """F = mu^T Sigma^-1 mu / 2 + log det(2 pi Sigma) / 2, read off (mu, Sigma)."""
        for _ in range(20):
            p = random_gaussian(rng, d)
            cov = p.cov.entries
            _, logdet = np.linalg.slogdet(2.0 * np.pi * cov)
            expect = 0.5 * p.mean @ np.linalg.solve(cov, p.mean) + 0.5 * logdet
            got = mvn_generator(d).eval_F(mvn_to_natural(p))
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_singular_theta_M_is_a_domain_error(self):
        # raised a raw LinAlgError from the inverse
        with pytest.raises(DomainError, match="-theta_M is singular"):
            mvn_generator(2).eval_grad(np.zeros(5))


    def test_one_spec_per_dimension(self):
        assert mvn_generator(3) is mvn_generator(3)
        assert mvn_generator(3) is not mvn_generator(4)

    def test_dimension_zero_is_a_domain_error(self):
        with pytest.raises(DomainError, match="dimension must be >= 1, got 0"):
            mvn_generator(0)


class TestConeTest:
    """in_domain decides the open cone -theta_M > 0 by a Cholesky factorization."""

    @staticmethod
    def _eigen_verdict(x, d):
        return bool(np.isfinite(x).all()) and bool(
            np.linalg.eigvalsh(-_unflatten(x, d)[1])[0] > 0.0
        )

    @pytest.mark.parametrize("d", range(1, 9))
    def test_agrees_with_the_least_eigenvalue(self, d):
        rng = np.random.default_rng(d)
        gen = mvn_generator(d)
        verdicts = Counter()
        for _ in range(250):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            lam = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
            if rng.uniform() < 0.5:  # outside: flip the signs of some eigenvalues
                lam *= np.where(rng.uniform(size=d) < 0.5, -1.0, 1.0)
            neg_theta_M = (q * lam) @ q.T
            x = _flatten(rng.normal(size=d), -0.5 * (neg_theta_M + neg_theta_M.T))
            verdict = gen.in_domain(x)
            assert verdict is self._eigen_verdict(x, d)
            verdicts[verdict] += 1
        assert min(verdicts[True], verdicts[False]) > 50

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize(
        "neg_theta_M",
        [
            lambda d: np.zeros((d, d)),
            # integer entries, so the factorization meets an exact zero pivot
            lambda d: np.outer(np.arange(1.0, d + 1), np.arange(1.0, d + 1)),
            lambda d: np.diag(np.r_[1.0, -np.ones(d - 1)]),
            lambda d: -np.eye(d),
        ],
        ids=["zero", "rank_one", "indefinite", "negative"],
    )
    def test_boundary_and_outside(self, d, neg_theta_M):
        assert mvn_generator(d).in_domain(_flatten(np.ones(d), -neg_theta_M(d))) is False

    @pytest.mark.parametrize("theta_M", [0.0, 1.0], ids=["zero", "negative"])
    def test_univariate_boundary_and_outside(self, theta_M):
        assert mvn_generator(1).in_domain(np.array([1.0, theta_M])) is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["theta_v", "theta_M diagonal", "theta_M off-diagonal"])
    def test_non_finite(self, bad, where):
        x = _flatten(np.ones(3), -0.5 * np.eye(3))
        x[{"theta_v": 0, "theta_M diagonal": 3, "theta_M off-diagonal": 4}[where]] = bad
        assert mvn_generator(3).in_domain(x) is False


class TestConversionsBitIdentical:
    """The fused conversions compute what the step-by-step compositions in
    oracles compute, bit for bit."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_gradient_and_its_inverse(self, d):
        rng = np.random.default_rng(100 + d)
        gen = mvn_generator(d)
        for _ in range(50):
            g = random_gaussian(rng, d, mean_scale=10.0 ** rng.uniform(-2.0, 2.0))
            x = mvn_to_natural(g)
            eta = gen.eval_grad(x)
            assert eta.tobytes() == mvn_grad_composed(x, d).tobytes()
            assert gen.eval_grad_inv(eta).tobytes() == mvn_grad_inv_composed(eta, d).tobytes()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_public_conversions(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(50):
            g = random_gaussian(rng, d, mean_scale=10.0 ** rng.uniform(-2.0, 2.0))
            x = mvn_to_natural(g)
            assert x.tobytes() == mvn_to_natural_composed(g.mean, g.cov.entries).tobytes()
            back = mvn_from_natural(x, d)
            mean, cov = mvn_from_natural_composed(x, d)
            assert back.mean.tobytes() == mean.tobytes()
            assert back.cov.entries.tobytes() == cov.tobytes()


class TestDivergences:
    def test_zero_at_equal(self, rng):
        g = random_gaussian(rng, 2)
        assert kl_mvn(g, g) == pytest.approx(0.0, abs=1e-12)
        assert jeffreys_mvn(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_univariate_scale_family(self, rng):
        for _ in range(10):
            s2 = float(rng.uniform(0.3, 4.0))
            p = GaussianParam([0.0], SPDMatrix([[1.0]]))
            q = GaussianParam([0.0], SPDMatrix([[s2]]))
            assert jeffreys_mvn(p, q) == pytest.approx(
                0.5 * (s2 + 1.0 / s2 - 2.0), rel=1e-12
            )

    def test_equal_means_half_sld_of_precisions(self, rng):
        for _ in range(10):
            mu = rng.normal(size=3)
            s1, s2 = random_spd(rng, 3), random_spd(rng, 3)
            lhs = jeffreys_mvn(GaussianParam(mu, s1), GaussianParam(mu, s2))
            rhs = 0.5 * symmetrized_logdet(
                SPDMatrix(np.linalg.inv(s1.entries)), SPDMatrix(np.linalg.inv(s2.entries))
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_jeffreys_equals_symmetrized_bregman(self, rng):
        gen = mvn_generator(3)
        for _ in range(10):
            p, q = random_gaussian(rng, 3), random_gaussian(rng, 3)
            sb = symmetrized_bregman(
                gen,
                mvn_to_natural(p),
                mvn_to_natural(q),
            )
            assert jeffreys_mvn(p, q) == pytest.approx(sb, rel=1e-9, abs=1e-9)

    def test_past_the_float_max_is_inf(self):
        wide, narrow = GaussianParam([0.0], [[1e300]]), GaussianParam([0.0], [[1e-300]])
        assert kl_mvn(wide, narrow) == math.inf
        assert jeffreys_mvn(wide, narrow) == math.inf
        assert kl_mvn(narrow, wide) == pytest.approx(690.2755278982137, rel=1e-12)

    def test_jeffreys_is_kl_plus_kl(self, rng):
        p, q = random_gaussian(rng, 2), random_gaussian(rng, 2)
        assert jeffreys_mvn(p, q) == pytest.approx(
            kl_mvn(p, q) + kl_mvn(q, p), rel=1e-12
        )


class TestSidedCentroids:
    def test_all_equal(self, rng):
        g = random_gaussian(rng, 2)
        for back in sided_kl_centroids_mvn([g, g, g]):
            assert np.abs(back.mean - g.mean).max() < 1e-10
            assert np.abs(back.cov.entries - g.cov.entries).max() < 1e-10

    def test_centered_set_formulas(self, rng):
        covs = [random_spd(rng, 3) for _ in range(4)]
        gs = [GaussianParam(np.zeros(3), c) for c in covs]
        w = rng.uniform(0.2, 1.0, size=4)
        w /= w.sum()
        right, left = sided_kl_centroids_mvn(gs, w)
        # right centroid: precision is the weighted precision mean
        prec_mean = sum(wi * np.linalg.inv(c.entries) for wi, c in zip(w, covs))
        assert np.abs(np.linalg.inv(right.cov.entries) - prec_mean).max() < 1e-10
        # left centroid: covariance is the weighted covariance mean
        cov_mean = sum(wi * c.entries for wi, c in zip(w, covs))
        assert np.abs(left.cov.entries - cov_mean).max() < 1e-9

    def test_shifted_standard_normals(self):
        e1 = np.array([1.0, 0.0])
        gs = [
            GaussianParam(-e1, SPDMatrix(np.eye(2))),
            GaussianParam(e1, SPDMatrix(np.eye(2))),
        ]
        r, l = sided_kl_centroids_mvn(gs)
        assert np.abs(r.mean).max() < 1e-12
        assert np.abs(r.cov.entries - np.eye(2)).max() < 1e-12
        assert np.abs(l.mean).max() < 1e-12
        assert np.abs(l.cov.entries - (np.eye(2) + np.outer(e1, e1))).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_closed_form_matches_the_generic_path(self, d):
        """The generic path: both averages of the flat naturals under the
        normal generator, read back as normals."""
        rng = np.random.default_rng([12, d])
        gs = [random_gaussian(rng, d, mean_scale=3.0) for _ in range(4)]
        w = rng.uniform(0.2, 1.0, size=4)
        w /= w.sum()
        pset = WeightedParamSet(np.array([mvn_to_natural(g) for g in gs]), w)
        generic = (
            mvn_from_natural(right_bregman_centroid(pset), d),
            mvn_from_natural(quasi_arithmetic_center(mvn_generator(d), pset), d),
        )
        for closed, ref in zip(sided_kl_centroids_mvn(gs, w), generic):
            assert np.abs(closed.mean - ref.mean).max() <= 1e-10 * np.abs(ref.mean).max()
            cov = ref.cov.entries
            assert np.abs(closed.cov.entries - cov).max() <= 1e-10 * np.abs(cov).max()

    def test_left_variance_of_means_far_from_the_origin(self):
        """Means 1e5 + N(0, 1): E[x^2] - mu^2 would cancel ten digits of the
        variance; the sum of centred terms keeps it, against exact rationals."""
        rng = np.random.default_rng(12)
        means = 1e5 + rng.normal(size=4)
        variances = rng.uniform(0.5, 2.0, size=4)
        gs = [GaussianParam([m], SPDMatrix([[v]])) for m, v in zip(means, variances)]
        _, left = sided_kl_centroids_mvn(gs)
        mu = sum(Fraction(m) for m in means) / 4
        exact = sum(Fraction(v) + (Fraction(m) - mu) ** 2 for m, v in zip(means, variances)) / 4
        assert left.mean[0] == pytest.approx(float(mu), rel=1e-15)
        assert left.cov.entries[0, 0] == pytest.approx(float(exact), rel=1e-9)


class TestFisherRaoMidpoint:
    def test_identical_inputs(self, rng):
        g = random_gaussian(rng, 2)
        mid = fisher_rao_midpoint_mvn(g, g)
        assert np.abs(mid.mean - g.mean).max() < 1e-10
        assert np.abs(mid.cov.entries - g.cov.entries).max() < 1e-10

    def test_same_mean_reduces_to_geometric_mean(self, rng):
        for _ in range(5):
            mu = rng.normal(size=3)
            s0, s1 = random_spd(rng, 3), random_spd(rng, 3)
            mid = fisher_rao_midpoint_mvn(GaussianParam(mu, s0), GaussianParam(mu, s1))
            assert np.abs(mid.mean - mu).max() < 1e-8
            assert np.abs(mid.cov.entries - geometric_mean(s0, s1).entries).max() < 1e-8

    def test_univariate_symmetric_midpoint(self):
        p0 = GaussianParam([0.0], SPDMatrix([[1.0]]))
        p1 = GaussianParam([1.0], SPDMatrix([[1.0]]))
        mid = fisher_rao_midpoint_mvn(p0, p1)
        assert mid.mean[0] == pytest.approx(0.5, abs=1e-12)
        # apex of the half-plane geodesic: variance 9/8
        assert mid.cov.entries[0, 0] == pytest.approx(1.125, abs=1e-12)

    def test_reflection_symmetry_univariate(self, rng):
        for _ in range(5):
            m0, m1 = rng.normal(size=2)
            v0, v1 = rng.uniform(0.3, 3.0, size=2)
            mid = fisher_rao_midpoint_mvn(
                GaussianParam([m0], SPDMatrix([[v0]])), GaussianParam([m1], SPDMatrix([[v1]]))
            )
            ref = fisher_rao_midpoint_mvn(
                GaussianParam([-m0], SPDMatrix([[v0]])), GaussianParam([-m1], SPDMatrix([[v1]]))
            )
            assert mid.mean[0] == pytest.approx(-ref.mean[0], abs=1e-10)
            assert mid.cov.entries[0, 0] == pytest.approx(ref.cov.entries[0, 0], abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_embedded_equidistance(self, rng, d):
        for _ in range(10):
            p0, p1 = random_gaussian(rng, d), random_gaussian(rng, d)
            assert embedded_equidistance_residual(p0, p1) <= 1e-9

    def test_swap_symmetry(self, rng):
        p0, p1 = random_gaussian(rng, 3), random_gaussian(rng, 3)
        a = fisher_rao_midpoint_mvn(p0, p1)
        b = fisher_rao_midpoint_mvn(p1, p0)
        assert np.abs(a.mean - b.mean).max() < 1e-8
        assert np.abs(a.cov.entries - b.cov.entries).max() < 1e-8


def half_plane_midpoint(m0, s0, m1, s1):
    """Fisher-Rao midpoint of N(m0, s0^2) and N(m1, s1^2) in closed form.

    In (x, y) = (m / sqrt(2), s) the univariate normal metric is twice the
    Poincare half-plane metric, so the midpoint is that of the half-plane
    geodesic.  It is computed in the hyperboloid model, where the geodesic
    midpoint is the Lorentz-normalized sum of the endpoints.
    """

    def lift(m, s):
        x, y = m / np.sqrt(2.0), s
        q = (x * x + y * y) / (2.0 * y)
        return np.array([q + 0.5 / y, q - 0.5 / y, x / y])

    v = lift(m0, s0) + lift(m1, s1)
    v /= np.sqrt(v[0] ** 2 - v[1] ** 2 - v[2] ** 2)
    y = 1.0 / (v[0] - v[1])
    return np.sqrt(2.0) * v[2] * y, y


def unwhitened_midpoint(p0, p1):
    """The construction without whitening: gauge-align the lift G1 to the lift
    G0 with a two-eigendecomposition residual and a finite-difference Jacobian,
    then take G0 # G1."""
    d = p0.dim
    G0 = _embed_array(p0.mean, p0.cov.entries)
    G1 = _embed_array(p1.mean, p1.cov.entries)
    iu = np.triu_indices(d, 1)

    def spectral(m, f):
        w, v = np.linalg.eigh(m)
        return (v * f(w)) @ v.T

    def moved(k):
        F = np.eye(2 * d + 1)
        K = np.zeros((d, d))
        K[iu] = k
        F[d + 1 :, :d] = K - K.T
        return F @ G1 @ F.T

    def residual(k):
        g1 = moved(k)
        g1h, g1mh = spectral(g1, np.sqrt), spectral(g1, lambda w: w**-0.5)
        B = g1h @ spectral(g1mh @ G0 @ g1mh, np.log) @ g1mh
        blk = B[:d, d + 1 :]
        return (0.5 * (blk - blk.T))[iu]

    # hybr's default initial step bound (100 at k = 0) lets the finite-difference
    # iteration run the gauge away on some d = 8 pairs; a unit bound does not
    sol = root(residual, np.zeros(iu[0].size), method="hybr", tol=1e-14, options={"factor": 1.0})
    assert np.abs(residual(sol.x)).max() <= 1e-9
    G = geometric_mean(G0, moved(sol.x)).entries
    cov = np.linalg.inv(G[:d, :d])
    return cov @ G[:d, d], cov


class TestMidpointOracles:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        m0=st.floats(-2.0, 2.0),
        m1=st.floats(-2.0, 2.0),
        s0=st.floats(0.5, 2.0),
        s1=st.floats(0.5, 2.0),
    )
    def test_univariate_matches_half_plane_geodesic(self, m0, m1, s0, s1):
        mid = fisher_rao_midpoint_mvn(
            GaussianParam([m0], SPDMatrix([[s0 * s0]])), GaussianParam([m1], SPDMatrix([[s1 * s1]]))
        )
        m, s = half_plane_midpoint(m0, s0, m1, s1)
        assert abs(mid.mean[0] - m) <= 1e-10
        assert abs(np.sqrt(mid.cov.entries[0, 0]) - s) <= 1e-10

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        m1=st.floats(0.0, 1e3),
        s0=st.floats(10**-0.5, 10**0.5),
        s1=st.floats(10**-0.5, 10**0.5),
    )
    def test_univariate_far_pairs_are_accurate_or_refused(self, m1, s0, s1):
        """Past the lift's condition bound the midpoint is refused, not inaccurate."""
        try:
            mid = fisher_rao_midpoint_mvn(
                GaussianParam([0.0], SPDMatrix([[s0 * s0]])), GaussianParam([m1], SPDMatrix([[s1 * s1]]))
            )
        except NumericalError:
            return
        m, s = half_plane_midpoint(0.0, s0, m1, s1)
        assert abs(mid.mean[0] - m) <= 1e-4 * s
        assert abs(np.sqrt(mid.cov.entries[0, 0]) - s) <= 1e-4 * s

    @pytest.mark.parametrize("r", [1, 10, 60, 300])
    def test_univariate_midpoint_is_accurate_at_each_separation(self, r):
        """200 seeded pairs with both sigma log-uniform in [0.1, 10] and the means
        r sigma0 apart.  Through X^{-1/2} Y X^{-1/2} the worst returned midpoint was
        off by 1.3e-12, 8.4e-7, 1.2e-8 and 4.9e-10 relative at r = 1, 10, 60 and 300;
        the Cholesky quotient keeps every one within 1e-9.  A lift past the condition
        bound is still refused."""
        rng = np.random.default_rng(r)
        for _ in range(200):
            s0, s1 = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            try:
                mid = fisher_rao_midpoint_mvn(
                    GaussianParam([0.0], SPDMatrix([[s0 * s0]])),
                    GaussianParam([r * s0], SPDMatrix([[s1 * s1]])),
                )
            except NumericalError:
                continue
            m, s = half_plane_midpoint(0.0, s0, r * s0, s1)
            assert abs(mid.mean[0] - m) <= 1e-8 * s
            assert abs(np.sqrt(mid.cov.entries[0, 0]) - s) <= 1e-8 * s

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_unwhitened_construction(self, rng, d):
        """Covariance eigenvalues in [0.5, 2], means at most 3 apart."""
        for _ in range(5):
            u = rng.normal(size=d)
            m0 = rng.normal(size=d)
            m1 = m0 + rng.uniform(0.0, 3.0) * u / np.linalg.norm(u)
            p0 = GaussianParam(m0, random_spd_unit(rng, d))
            p1 = GaussianParam(m1, random_spd_unit(rng, d))
            mid = fisher_rao_midpoint_mvn(p0, p1)
            mean, cov = unwhitened_midpoint(p0, p1)
            assert np.abs(mid.mean - mean).max() <= 1e-10
            assert np.abs(mid.cov.entries - cov).max() <= 1e-10


class TestFiberAlignment:
    @pytest.fixture
    def solves(self, monkeypatch):
        """(residual function, root result) of each alignment solve."""
        calls = []
        real = gaussian.root

        def spy(fun, x0, **kwargs):
            sol = real(fun, x0, **kwargs)
            calls.append((fun, sol))
            return sol

        monkeypatch.setattr(gaussian, "root", spy)
        return calls

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_jacobian_matches_finite_differences(self, rng, solves, d):
        p0, p1 = random_gaussian(rng, d), random_gaussian(rng, d)
        fisher_rao_midpoint_mvn(p0, p1)
        ((fun, _),) = solves
        k = 0.3 * rng.normal(size=d * (d - 1) // 2)
        jac = fun(k)[1]()
        h = 1e-6
        fd = np.column_stack([
            (fun(k + h * e)[0] - fun(k - h * e)[0]) / (2.0 * h) for e in np.eye(k.size)
        ])
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    def test_same_mean_set_stops_at_once(self, rng, solves):
        """The sided centroids of a same-mean set share their mean up to rounding,
        so k = 0 is a root up to rounding; the solve must not wander there."""
        mu = rng.normal(size=5)
        jfr_center_mvn([GaussianParam(mu, random_spd(rng, 5)) for _ in range(4)])
        ((fun, sol),) = solves
        assert np.abs(fun(np.zeros(10))[0]).max() == 0.0
        assert sol.success
        assert sol.nfev <= 4  # about 20 without the exact-root cut-off
        assert np.all(sol.x == 0.0)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """(root result, [[residual, Jacobian builds], ...]) of each alignment solve.

        Every evaluation's Jacobian callable is wrapped, so the list counts the
        Jacobians the solve builds at each point it evaluated.
        """
        solves = []
        real = gaussian.root

        def spy(fun, x0):
            evals = []

            def counted(x):
                res, jac, *state = fun(x)
                record = [res, 0]
                evals.append(record)

                def counted_jac():
                    record[1] += 1
                    return jac()

                return (res, counted_jac, *state)

            sol = real(counted, x0)
            solves.append((sol, evals))
            return sol

        monkeypatch.setattr(gaussian, "root", spy)
        return solves

    @staticmethod
    def count_calls(monkeypatch, owner, name, counts):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_same_mean_pair_builds_no_jacobian(self, rng, evaluations, monkeypatch, d):
        """k = 0 is the root of a same-mean pair: one residual evaluation, no
        Jacobian and no divided differences, and the lift is moved once."""
        mu = rng.normal(size=d)
        p0, p1 = GaussianParam(mu, random_spd(rng, d)), GaussianParam(mu, random_spd(rng, d))
        counts = Counter()
        for name in ("_fiber_move", "_log_divided_differences"):
            self.count_calls(monkeypatch, gaussian, name, counts)
        fisher_rao_midpoint_mvn(p0, p1)
        ((sol, evals),) = evaluations
        assert sol.success and sol.nfev == 1
        assert [builds for _, builds in evals] == [0]
        assert counts == {"_fiber_move": 1}

    def test_jacobian_only_before_a_step(self, rng, evaluations, monkeypatch):
        """A Jacobian is built once at each point a Newton step is taken from,
        never at a trial that halving rejects, and never at the root a solve
        ends on, so a successful solve builds one per step."""
        counts = Counter()
        self.count_calls(monkeypatch, gaussian, "_log_divided_differences", counts)
        rejected = 0
        for d in (2, 3, 5, 8):
            for scale in (3.0, 10.0):
                for _ in range(3):
                    fisher_rao_midpoint_mvn(random_gaussian(rng, d), random_gaussian(rng, d, scale))
        for sol, evals in evaluations:
            norms = [np.linalg.norm(res) for res, _ in evals]
            base, stepped_from, steps = 0, set(), 0
            for i in range(1, len(evals)):
                stepped_from.add(base)
                if norms[i] < norms[base]:
                    base, steps = i, steps + 1
                else:
                    rejected += 1
            assert [builds for _, builds in evals] == [
                int(i in stepped_from) for i in range(len(evals))
            ]
            if sol.success:
                assert len(stepped_from) == steps
        assert rejected > 0
        assert counts["_log_divided_differences"] == sum(
            builds for _, evals in evaluations for _, builds in evals
        )

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("scale", [3.0, 10.0])
    def test_returned_lift_is_the_accepted_evaluations(self, rng, solves, d, scale):
        """The lift and eigenvalues come from the point the solve returns, not
        from its last evaluation, which may be a rejected trial."""
        G1 = _embed_array(scale * rng.normal(size=d), random_spd_unit(rng, d).entries)
        lift, eigenvalues = gaussian._align_fiber(G1, d)
        ((_, sol),) = solves
        assert sol.nfev > 1
        assert np.array_equal(lift, gaussian._fiber_move(G1, sol.x, d))
        assert np.array_equal(eigenvalues, np.linalg.eigh(lift)[0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_lift_is_decomposed_once_per_evaluation(self, rng, evaluations, monkeypatch, d):
        """Outside the geometric mean, the midpoint decomposes a (2d+1) lift only
        in the alignment's evaluations: the SPD rule reads the accepted one's
        eigenvalues.  At d = 1 there is no gauge and the lift is decomposed once."""
        p0, p1 = random_gaussian(rng, d), random_gaussian(rng, d, 3.0)
        sizes, in_mean = [], [False]
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(m, *args, _real=real, **kwargs):
                if not in_mean[0]:
                    sizes.append(m.shape[0])
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        real_mean = gaussian.geometric_mean

        def mean(x, y):
            in_mean[0] = True
            try:
                return real_mean(x, y)
            finally:
                in_mean[0] = False

        monkeypatch.setattr(gaussian, "geometric_mean", mean)
        fisher_rao_midpoint_mvn(p0, p1)
        expected = evaluations[0][0].nfev if d > 1 else 1
        assert sizes.count(2 * d + 1) == expected

    def test_aligned_lift_past_the_bound_is_a_numerical_error(self, evaluations):
        """d = 2: the alignment takes a Newton step and succeeds, and the SPD rule
        refuses the aligned lift (condition 1.6e14) from the eigenvalues it
        returns, as it refuses one at d = 1."""
        with pytest.raises(NumericalError, match="condition number"):
            fisher_rao_midpoint_mvn(
                GaussianParam([0.0, 0.0], np.eye(2)),
                GaussianParam([1e-3, 2e-3], [[2e-7, 5e-8], [5e-8, 1e-7]]),
            )
        ((sol, _),) = evaluations
        assert sol.success and sol.nfev > 1


class TestNewtonRoot:
    def test_halving_keeps_newton_from_diverging(self):
        """Full Newton steps on atan from 3 overshoot further at every step;
        halved until the residual drops, they reach the root."""
        sol = gaussian.root(lambda x: (np.arctan(x), lambda: np.diag(1.0 / (1.0 + x * x))), np.array([3.0]))
        assert sol.success
        assert abs(sol.x[0]) <= 1e-14
        assert np.abs(sol.fun).max() <= 1e-14

    def test_singular_jacobian_ends_the_solve(self):
        def fun(x):
            return np.array([x[0] ** 2 + 1.0, x[0] + x[1]]), lambda: np.array([[2.0 * x[0], 0.0], [1.0, 1.0]])

        sol = gaussian.root(fun, np.zeros(2))
        assert not sol.success
        assert sol.nfev == 1
        assert np.all(sol.x == 0.0)
        assert np.array_equal(sol.fun, [1.0, 0.0])

    def test_no_halving_helps(self):
        """A residual norm that no step lowers: x^2 + 1 at its minimum's side."""
        sol = gaussian.root(lambda x: (x * x + 1.0, lambda: np.diag(2.0 * x)), np.array([1e-3]))
        assert not sol.success
        assert sol.nfev == 1 + gaussian._NEWTON_HALVINGS
        assert np.array_equal(sol.x, [1e-3])

    @pytest.mark.parametrize("level, nfev", [(5e-13, 2), (2e-12, 1 + gaussian._NEWTON_HALVINGS)])
    def test_rounding_floor_stops_without_halving(self, level, nfev):
        """A residual norm no step lowers: at or below 1e-12 it is taken for
        rounding, and only the full step is tried."""
        sol = gaussian.root(lambda x: (np.full(1, level), lambda: np.eye(1)), np.zeros(1))
        assert not sol.success
        assert sol.nfev == nfev
        assert np.array_equal(sol.x, [0.0])


class TestIndexTables:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_flatten_roundtrip(self, rng, d):
        """Exact up to the sqrt(2) scaling, which rounds off the diagonal."""
        vec, a = rng.normal(size=d), rng.normal(size=(d, d))
        mat = a + a.T
        x = _flatten(vec, mat)
        assert x.size == d + d * (d + 1) // 2
        back_vec, back_mat = _unflatten(x, d)
        assert np.array_equal(back_vec, vec)
        assert np.array_equal(back_mat, back_mat.T)
        assert np.array_equal(np.diag(back_mat), np.diag(mat))
        np.testing.assert_array_max_ulp(back_mat, mat, maxulp=1)
        np.testing.assert_array_max_ulp(_flatten(back_vec, back_mat), x, maxulp=1)
        # distinct powers of two scale exactly, so every entry must come back in place
        iu = np.triu_indices(d)
        powers = np.zeros((d, d))
        powers[iu] = 2.0 ** np.arange(iu[0].size)
        powers = np.maximum(powers, powers.T)
        assert np.array_equal(_unflatten(_flatten(vec, powers), d)[1], powers)

    def test_tables_are_read_only(self):
        t = _index_tables(4)
        assert _index_tables(4) is t
        arrays = [a for f in t for a in (f if isinstance(f, tuple) else (f,))]
        assert len(arrays) == 10
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    # Per d: GB iterations and (mean . u, <cov, V>) of the GB and JFR centers
    # of three Gaussians drawn from default_rng(d), with u, V drawn from
    # default_rng(1000 + d); values computed before the tables were cached.
    # At d = 5 and 6 the GB iterates stay below unit norm, so since the
    # stopping gap became relative there GB takes one more step (3 -> 4) and
    # its fingerprint moved by up to 1.2e-8 relative, toward the limit.
    FINGERPRINTS = {
        1: (3, (0.5274307779557323, -0.24177787048057126), (0.5274305326170083, -0.24177788843468598)),
        2: (4, (0.19829244034223967, 9.424439816716674), (0.19829729415602862, 9.4244420750258)),
        3: (4, (-1.0713462015393356, -1.4811388024669383), (-1.0713459138644457, -1.4811384066310207)),
        4: (4, (0.07636528745062275, 4.607177330698924), (0.07637030459289118, 4.607178991893019)),
        5: (4, (1.0302698111584843, -3.6422640702578857), (1.0302653051158632, -3.6422386469179058)),
        6: (4, (0.42925542381221893, 28.30170942848679), (0.42925434447010735, 28.301725203876963)),
        7: (3, (-1.273976909278826, 64.1695544604878), (-1.2739776502711868, 64.16955637382809)),
        8: (4, (-0.13309646445555426, 34.134598542425756), (-0.13309448622447184, 34.13461440929675)),
    }

    @pytest.mark.parametrize("d", range(1, 9))
    def test_centers_unchanged(self, d):
        rng = np.random.default_rng(d)
        gs = [GaussianParam(rng.normal(size=d), random_spd(rng, d)) for _ in range(3)]
        probe = np.random.default_rng(1000 + d)
        u, v = probe.normal(size=d), probe.normal(size=(d, d))
        iterations, gb_print, jfr_print = self.FINGERPRINTS[d]
        gb, diag = gb_center_mvn(gs)
        assert diag.iterations == iterations
        # GB runs the same arithmetic; the JFR midpoint is now whitened by p0
        assert [gb.mean @ u, np.sum(gb.cov.entries * v)] == pytest.approx(gb_print, rel=1e-12)
        jfr = jfr_center_mvn(gs)
        assert [jfr.mean @ u, np.sum(jfr.cov.entries * v)] == pytest.approx(jfr_print, rel=1e-10)


class TestJFRCenter:
    def test_all_equal(self, rng):
        g = random_gaussian(rng, 2)
        c = jfr_center_mvn([g, g])
        assert np.abs(c.mean - g.mean).max() < 1e-9
        assert np.abs(c.cov.entries - g.cov.entries).max() < 1e-9

    def test_same_mean_matches_closed_form(self, rng):
        covs = [random_spd(rng, 3) for _ in range(3)]
        mu = rng.normal(size=3)
        gs = [GaussianParam(mu, c) for c in covs]
        jfr = jfr_center_mvn(gs)
        closed = jeffreys_centroid_centered(covs, mean=mu)
        assert np.abs(jfr.mean - closed.mean).max() < 1e-8
        assert np.abs(jfr.cov.entries - closed.cov.entries).max() < 1e-8

    def test_distinct_means_close_to_gb(self, rng):
        gs = [random_gaussian(rng, 2), random_gaussian(rng, 2)]
        jfr = jfr_center_mvn(gs)
        gb, _ = gb_center_mvn(gs, tol=TIGHT)
        gap = np.abs(jfr.cov.entries - gb.cov.entries).max()
        assert gap > 1e-12  # genuinely different centers
        assert jeffreys_mvn(jfr, gb) < 0.05 * jeffreys_mvn(gs[0], gs[1])


class TestGBCenterMvn:
    def test_all_equal(self, rng):
        g = random_gaussian(rng, 2)
        center, diag = gb_center_mvn([g, g])
        assert diag.iterations == 0
        assert np.abs(center.mean - g.mean).max() < 1e-12

    def test_centered_matches_sld_centroid(self, rng):
        covs = [random_spd(rng, 3) for _ in range(4)]
        gs = [GaussianParam(np.zeros(3), c) for c in covs]
        center, diag = gb_center_mvn(gs, tol=TIGHT)
        assert diag.status == "converged"
        # A#H on covariances, equivalently the precision-side sld centroid
        closed = jeffreys_centroid_centered(covs)
        assert np.abs(center.cov.entries - closed.cov.entries).max() < 1e-8
        prec_centroid = sld_centroid([SPDMatrix(np.linalg.inv(c.entries)) for c in covs])
        assert np.abs(
            np.linalg.inv(center.cov.entries) - prec_centroid.entries
        ).max() < 1e-8

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 4), (3, 3), (5, 4)])
    def test_every_domain_check_kept(self, rng, monkeypatch, d, n):
        """The generator is called as the generic double sequence calls it: the
        quasi-arithmetic start maps and checks each member and takes the
        gradient of its result once, each step takes one gradient and one
        reciprocal gradient, and each pair of iterates is checked once, as a
        step's input or as the result."""
        counts = Counter()
        make = gaussian.mvn_generator

        def counted(dim):
            spec = make(dim)

            def wrap(name):
                fn = getattr(spec, name)

                def call(x):
                    counts[name] += 1
                    return fn(x)

                return call

            names = ("eval_F", "eval_grad", "eval_grad_inv", "in_domain")
            return dataclasses.replace(spec, **{c: wrap(c) for c in names})

        monkeypatch.setattr(gaussian, "mvn_generator", counted)
        _, diag = gb_center_mvn([random_gaussian(rng, d) for _ in range(n)])
        k = diag.iterations
        assert k > 0
        assert counts == {"in_domain": n + 2 + 2 * k, "eval_grad": n + 1 + k,
                          "eval_grad_inv": 1 + k}

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("tol", [GB_TOL, ToleranceConfig(rel_tol=1e-8, max_iter=3)],
                             ids=["default", "max_iter=3"])
    def test_bit_identical_to_the_plain_domain_test(self, rng, d, tol):
        """gb_center_mvn is the generic double sequence over mvn_generator, bit
        for bit: with the generator's cone test replaced by a plain one, and
        the members mapped to naturals and back here, the result does not move."""
        gs = [random_gaussian(rng, d, mean_scale=3.0) for _ in range(4)]
        center, diag = gb_center_mvn(gs, tol=tol)

        def plain(x):
            if not np.isfinite(x).all():
                return False
            return bool(np.linalg.eigvalsh(-_unflatten(x, d)[1])[0] > 0.0)

        gen = dataclasses.replace(mvn_generator(d), in_domain=plain)
        pset = WeightedParamSet(np.array([mvn_to_natural(g) for g in gs]), None)
        theta, ref_diag = gb_center(gen, pset, tol)
        ref = mvn_from_natural(theta, d)
        assert center.mean.tobytes() == ref.mean.tobytes()
        assert center.cov.entries.tobytes() == ref.cov.entries.tobytes()
        assert np.float64(diag.final_gap).tobytes() == np.float64(ref_diag.final_gap).tobytes()
        assert (diag.status, diag.iterations) == (ref_diag.status, ref_diag.iterations)

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 4), (3, 3), (5, 4), (2, 5)])
    def test_each_point_is_decomposed_once(self, rng, monkeypatch, d, n):
        """Each point is checked once, at the cost of one cone factorization,
        and each reciprocal gradient costs one SPD-rule eigensolve."""
        counts = Counter()
        make = gaussian.mvn_generator

        def counted(dim):
            spec = make(dim)
            return dataclasses.replace(
                spec, in_domain=counting(counts, "in_domain", spec.in_domain)
            )

        monkeypatch.setattr(gaussian, "mvn_generator", counted)
        monkeypatch.setattr(np.linalg, "cholesky", counting(counts, "cone", np.linalg.cholesky))
        monkeypatch.setattr(gaussian, "_check_spd", counting(counts, "spd", gaussian._check_spd))
        _, diag = gb_center_mvn([random_gaussian(rng, d) for _ in range(n)])
        k = diag.iterations
        assert k > 0
        assert counts == {"in_domain": n + 2 + 2 * k, "cone": n + 2 + 2 * k, "spd": 1 + k}

    def test_univariate_grid_oracle(self):
        gs = [
            GaussianParam([0.0], SPDMatrix([[1.0]])),
            GaussianParam([1.0], SPDMatrix([[2.0]])),
        ]
        center, _ = gb_center_mvn(gs, tol=TIGHT)
        loss = jeffreys_loss_mvn(gs, None, center)
        best = np.inf
        for mu in np.linspace(0.0, 1.0, 101):
            for v in np.linspace(0.8, 2.2, 141):
                cand = GaussianParam([mu], SPDMatrix([[v]]))
                best = min(best, jeffreys_loss_mvn(gs, None, cand))
        assert loss <= best * 1.05


class TestCenteredClosedForm:
    # Per d: (<cov, V>, tr cov) of the closed-form centroid of four covariances
    # of scales 10^U(-1, 1) with weights U(0.2, 1), normalized, all drawn from
    # default_rng(d), and V from default_rng(1000 + d); values computed when
    # A # H was read off chol(A) and chol(H).
    FINGERPRINTS = {
        1: (1.5993162455439627, 1.7154110909465932),
        2: (0.8230453356271225, 9.439229542132598),
        3: (-0.22714701491042355, 1.1267038110368548),
        5: (-31.725070679967615, 46.65415603048181),
        8: (-93.93656442982119, 159.0656978225796),
    }

    @pytest.mark.parametrize("d", sorted(FINGERPRINTS))
    def test_centers_unchanged(self, d):
        rng = np.random.default_rng(d)
        covs = [random_spd(rng, d, spread=10.0 ** rng.uniform(-1, 1)) for _ in range(4)]
        w = rng.uniform(0.2, 1.0, size=4)
        w /= w.sum()
        v = np.random.default_rng(1000 + d).normal(size=(d, d))
        mean = np.arange(d, dtype=float)
        center = jeffreys_centroid_centered(covs, w, mean=mean)
        assert np.array_equal(center.mean, mean)
        cov = center.cov.entries
        assert [np.sum(cov * v), np.trace(cov)] == pytest.approx(self.FINGERPRINTS[d], rel=1e-12)

    def test_all_equal(self, rng):
        c = random_spd(rng, 3)
        out = jeffreys_centroid_centered([c, c], mean=np.zeros(3))
        assert np.abs(out.cov.entries - c.entries).max() < 1e-10

    def test_scalar_variances(self):
        out = jeffreys_centroid_centered([SPDMatrix([[1.0]]), SPDMatrix([[4.0]])])
        assert out.cov.entries[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_gradient_residual_at_centroid(self, rng):
        covs = [random_spd_unit(rng, 3) for _ in range(3)]
        gs = [GaussianParam(np.zeros(3), c) for c in covs]
        gen = mvn_generator(3)
        center = jeffreys_centroid_centered(covs)
        theta = mvn_to_natural(center)
        thetas = np.array([mvn_to_natural(g) for g in gs])
        pset = WeightedParamSet(thetas)
        assert energy_grad_residual(gen, pset, theta) <= 1e-8

    def test_proxies_have_positive_gradient_when_means_differ(self, rng):
        gs = [random_gaussian(rng, 2), random_gaussian(rng, 2)]
        gen = mvn_generator(2)
        thetas = np.array([mvn_to_natural(g) for g in gs])
        pset = WeightedParamSet(thetas)
        for center in (jfr_center_mvn(gs), gb_center_mvn(gs, tol=TIGHT)[0]):
            resid = energy_grad_residual(gen, pset, mvn_to_natural(center))
            assert resid > 1e-6


class TestAffineEquivariance:
    @pytest.mark.parametrize("d", [2, 3])
    def test_all_three_centers(self, rng, d):
        gs = [random_gaussian(rng, d) for _ in range(3)]
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()
        a, b = random_affine(rng, d)

        def push(g):
            return GaussianParam(a @ g.mean + b, SPDMatrix(a @ g.cov.entries @ a.T))

        mapped = [push(g) for g in gs]

        jfr0, jfr1 = jfr_center_mvn(gs, w), jfr_center_mvn(mapped, w)
        assert np.abs(jfr1.mean - (a @ jfr0.mean + b)).max() < 1e-8
        assert np.abs(jfr1.cov.entries - a @ jfr0.cov.entries @ a.T).max() < 1e-8

        gb0, _ = gb_center_mvn(gs, w, tol=TIGHT)
        gb1, _ = gb_center_mvn(mapped, w, tol=TIGHT)
        assert np.abs(gb1.mean - (a @ gb0.mean + b)).max() < 1e-8
        assert np.abs(gb1.cov.entries - a @ gb0.cov.entries @ a.T).max() < 1e-8

    def test_centered_closed_form(self, rng):
        d = 3
        covs = [random_spd(rng, d) for _ in range(3)]
        a, _ = random_affine(rng, d)
        c0 = jeffreys_centroid_centered(covs)
        c1 = jeffreys_centroid_centered([SPDMatrix(a @ c.entries @ a.T) for c in covs])
        assert np.abs(c1.cov.entries - a @ c0.cov.entries @ a.T).max() < 1e-8


class TestSameMeanCoincidence:
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4)])
    def test_three_centers_agree(self, rng, d, n):
        covs = [random_spd(rng, d) for _ in range(n)]
        gs = [GaussianParam(np.zeros(d), c) for c in covs]
        closed = jeffreys_centroid_centered(covs)
        gb, _ = gb_center_mvn(gs, tol=TIGHT)
        jfr = jfr_center_mvn(gs)
        for other in (gb, jfr):
            assert np.abs(other.cov.entries - closed.cov.entries).max() < 1e-8
            assert np.abs(other.mean).max() < 1e-8


class TestEveryRuleCheckKept:
    """Each center applies the SPD rule as often as when every matrix it
    computed went through the caller-input parse: computed matrices skip only
    the parse, never the rule."""

    @pytest.fixture
    def checks(self, monkeypatch):
        counts = Counter()
        rule = counting(counts, "rule", spd._check_spectrum)
        monkeypatch.setattr(spd, "_check_spectrum", rule)
        return counts

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_jfr(self, rng, checks, d):
        """Both sided centroids, the aligned lift, the identity, I # G1 and the
        midpoint.  The lift and the identity are checked on the spectra already
        at hand, the alignment's eigenvalues and all ones."""
        gs = [random_gaussian(rng, d) for _ in range(4)]
        checks.clear()
        jfr_center_mvn(gs)
        assert checks == {"rule": 6}

    def test_centered_closed_form(self, rng, checks):
        covs = [random_spd(rng, 3) for _ in range(4)]
        checks.clear()
        jeffreys_centroid_centered(covs)
        assert checks == {"rule": 1}

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_gb(self, rng, checks, d):
        """One per reciprocal gradient (1 + k for k steps) and the readback."""
        gs = [random_gaussian(rng, d) for _ in range(4)]
        checks.clear()
        _, diag = gb_center_mvn(gs)
        assert diag.iterations > 0
        assert checks == {"rule": 2 + diag.iterations}
