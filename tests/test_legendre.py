import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    GeneratorSpec,
    WeightedParamSet,
    bregman_div,
    burg_generator,
    gb_center,
    jeffreys_loss,
    lambert_w0,
    mvn_generator,
    quasi_arithmetic_center,
    right_bregman_centroid,
    shannon_generator,
    symmetrized_bregman,
)

from conftest import positive_burg, random_simplex
from oracles import cat_generator, energy_grad_residual, squared_generator


def mixed_bregman(gen: GeneratorSpec, theta1, theta, theta2) -> float:
    """Mixed Bregman divergence
    Delta_F(theta1 : theta : theta2) = (B_F(theta1:theta) + B_F(theta:theta2)) / 2."""
    return 0.5 * bregman_div(gen, theta1, theta) + 0.5 * bregman_div(gen, theta, theta2)


def dual_generator(gen: GeneratorSpec) -> GeneratorSpec:
    """Convex conjugate F*(eta) = <eta, (grad F)^{-1}(eta)> - F((grad F)^{-1}(eta)).

    Its gradient is (grad F)^{-1} and vice versa, so the triple is assembled by
    swapping the gradient maps.
    """

    def eval_F_star(eta: np.ndarray) -> float:
        theta = np.atleast_1d(np.asarray(gen.eval_grad_inv(eta), dtype=float))
        return float(eta @ theta - gen.eval_F(theta))

    def in_dual_domain(eta: np.ndarray) -> bool:
        try:
            theta = np.atleast_1d(np.asarray(gen.eval_grad_inv(eta), dtype=float))
        except (DomainError, FloatingPointError, ValueError):
            return False
        return bool(np.all(np.isfinite(theta))) and gen.in_domain(theta)

    return GeneratorSpec(
        dim=gen.dim,
        eval_F=eval_F_star,
        eval_grad=gen.eval_grad_inv,
        eval_grad_inv=gen.eval_grad,
        in_domain=in_dual_domain,
        name=f"{gen.name}*",
    )


def all_generators(dim_small: int = 3):
    """Generators exercised by the shared Legendre invariants, with samplers."""

    def pos(rng, gen):
        return rng.uniform(0.3, 4.0, size=gen.dim)

    def cat_sample(rng, gen):
        p = random_simplex(rng, gen.dim + 1, floor=1e-3)
        return np.log(p[:-1] / p[-1])

    def mvn_sample(rng, gen):
        d = dim_small
        a = rng.normal(size=(d, d))
        cov = a @ a.T + d * np.eye(d)
        prec = np.linalg.inv(cov)
        from jeffreys_centers.gaussian import _flatten

        return _flatten(prec @ rng.normal(size=d), -0.5 * prec)

    return [
        (burg_generator(3), pos),
        (shannon_generator(3), pos),
        (squared_generator(3), lambda rng, gen: rng.normal(size=gen.dim)),
        (cat_generator(4), cat_sample),
        (mvn_generator(dim_small), mvn_sample),
    ]


class TestGeneratorInvariants:
    @pytest.mark.parametrize("gen,sampler", all_generators(), ids=lambda g: getattr(g, "name", ""))
    def test_grad_roundtrip(self, gen, sampler, rng):
        for _ in range(10):
            theta = sampler(rng, gen)
            back = np.asarray(gen.eval_grad_inv(gen.eval_grad(theta)))
            assert np.abs(back - theta).max() < 1e-9 * max(1.0, np.abs(theta).max())

    @pytest.mark.parametrize("gen,sampler", all_generators(), ids=lambda g: getattr(g, "name", ""))
    def test_grad_matches_finite_differences(self, gen, sampler, rng):
        h = 1e-6
        for _ in range(5):
            theta = sampler(rng, gen)
            grad = np.asarray(gen.eval_grad(theta))
            for k in range(gen.dim):
                e = np.zeros(gen.dim)
                e[k] = h * max(1.0, abs(theta[k]))
                fd = (gen.eval_F(theta + e) - gen.eval_F(theta - e)) / (2 * e[k])
                assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-6)


class TestBregman:
    def test_identity(self, rng):
        gen = shannon_generator(2)
        theta = rng.uniform(0.5, 2.0, size=2)
        assert bregman_div(gen, theta, theta) == pytest.approx(0.0, abs=1e-14)

    def test_squared_norm_is_squared_distance(self):
        # B_F for F = x^2/2 is (x-y)^2/2; with F = x^2 it is the squared distance
        gen = squared_generator(1)
        assert bregman_div(gen, [3.0], [1.0]) == pytest.approx(2.0, abs=1e-14)
        gen2 = GeneratorSpec(
            dim=1,
            eval_F=lambda t: float(t @ t),
            eval_grad=lambda t: 2.0 * t,
            eval_grad_inv=lambda e: 0.5 * e,
            in_domain=lambda t: bool(np.all(np.isfinite(t))),
            name="x^2",
        )
        assert bregman_div(gen2, [3.0], [1.0]) == pytest.approx(4.0, abs=1e-14)

    def test_itakura_saito_value(self):
        # hand evaluation: B_{-log}(1:2) = 1/2 - log(1/2) - 1
        gen = burg_generator(1)
        assert bregman_div(gen, [1.0], [2.0]) == pytest.approx(
            0.5 - math.log(0.5) - 1.0, abs=1e-14
        )

    def test_nonnegative_random(self, rng):
        gen = shannon_generator(4)
        for _ in range(50):
            t1, t2 = rng.uniform(0.2, 5.0, size=(2, 4))
            val = bregman_div(gen, t1, t2)
            assert val >= -1e-14
            if np.abs(t1 - t2).max() > 1e-8:
                assert val > 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bregman_div(burg_generator(1), [-1.0], [1.0])

    def test_non_finite_argument_rejected(self):
        # F(inf) - F(1) - (inf - 1) F'(1) = -inf + inf: a NaN, unless refused
        with pytest.raises(DomainError, match="first argument"):
            bregman_div(positive_burg(), [np.inf], [1.0])


class TestRequireDomain:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_is_outside_whatever_in_domain_answers(self, bad):
        gen = positive_burg(2)
        assert gen.in_domain(np.array([np.inf, 1.0]))
        with pytest.raises(DomainError, match="positive: query"):
            gen.require_domain([1.0, bad], "query")
        assert gen.require_domain([1.0, 2.0]).tolist() == [1.0, 2.0]


class TestSymmetrizedBregman:
    def test_identity_and_symmetry(self, rng):
        gen = shannon_generator(3)
        t1, t2 = rng.uniform(0.2, 5.0, size=(2, 3))
        assert symmetrized_bregman(gen, t1, t1) == pytest.approx(0.0, abs=1e-14)
        assert symmetrized_bregman(gen, t1, t2) == pytest.approx(
            symmetrized_bregman(gen, t2, t1), rel=1e-14
        )

    def test_cosh_distance_for_burg(self, rng):
        gen = burg_generator(1)
        for _ in range(20):
            x, y = rng.uniform(0.1, 10.0, size=2)
            assert symmetrized_bregman(gen, [x], [y]) == pytest.approx(
                x / y + y / x - 2.0, rel=1e-12, abs=1e-12
            )

    def test_equals_sum_of_sided(self, rng):
        for gen, sampler in all_generators():
            t1, t2 = sampler(rng, gen), sampler(rng, gen)
            lhs = symmetrized_bregman(gen, t1, t2)
            rhs = bregman_div(gen, t1, t2) + bregman_div(gen, t2, t1)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_duality(self, rng):
        for gen in (burg_generator(2), shannon_generator(2), cat_generator(3)):
            dual = dual_generator(gen)
            for _ in range(10):
                if gen.name.startswith("categorical"):
                    p1 = random_simplex(rng, 3, floor=1e-3)
                    p2 = random_simplex(rng, 3, floor=1e-3)
                    t1, t2 = np.log(p1[:-1] / p1[-1]), np.log(p2[:-1] / p2[-1])
                else:
                    t1, t2 = rng.uniform(0.3, 4.0, size=(2, 2))
                lhs = symmetrized_bregman(gen, t1, t2)
                rhs = symmetrized_bregman(
                    dual, np.asarray(gen.eval_grad(t1)), np.asarray(gen.eval_grad(t2))
                )
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestCenters:
    def test_quasi_arithmetic_reflexive(self, rng):
        gen = shannon_generator(3)
        theta = rng.uniform(0.5, 2.0, size=3)
        pset = WeightedParamSet.of([theta, theta, theta])
        assert np.abs(quasi_arithmetic_center(gen, pset) - theta).max() < 1e-12

    def test_quasi_arithmetic_singleton_is_the_member(self):
        theta = np.array([0.3, 1.7, 2.9])
        pset = WeightedParamSet.of([theta])
        center = quasi_arithmetic_center(shannon_generator(3), pset)
        assert center.tobytes() == theta.tobytes()
        assert not np.shares_memory(center, pset.points)

    def test_burg_harmonic_mean(self):
        pset = WeightedParamSet.of([[1.0], [4.0]])
        assert quasi_arithmetic_center(burg_generator(1), pset)[0] == pytest.approx(1.6)

    def test_shannon_geometric_mean(self):
        pset = WeightedParamSet.of([[1.0], [4.0]])
        assert quasi_arithmetic_center(shannon_generator(1), pset)[0] == pytest.approx(2.0)

    def test_scalar_betweenness(self, rng):
        gen = shannon_generator(1)
        for _ in range(20):
            pts = rng.uniform(0.1, 10.0, size=(4, 1))
            c = quasi_arithmetic_center(gen, WeightedParamSet.of(pts))[0]
            assert pts.min() - 1e-12 <= c <= pts.max() + 1e-12

    def test_right_centroid(self):
        assert right_bregman_centroid(WeightedParamSet.of([[2.0, 3.0]]))[0] == 2.0
        c = right_bregman_centroid(WeightedParamSet.of([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(c, [1.0, 1.0])
        c = right_bregman_centroid(WeightedParamSet([[1.0], [4.0]], [0.25, 0.75]))
        assert c[0] == pytest.approx(3.25)

    def test_mixed_bregman(self, rng):
        gen = shannon_generator(2)
        t = rng.uniform(0.5, 2.0, size=2)
        assert mixed_bregman(gen, t, t, t) == pytest.approx(0.0, abs=1e-14)
        t1, t2 = rng.uniform(0.5, 2.0, size=(2, 2))
        assert mixed_bregman(gen, t1, t1, t2) == pytest.approx(
            0.5 * bregman_div(gen, t1, t2), rel=1e-12
        )
        q = rng.uniform(0.5, 2.0, size=2)
        assert mixed_bregman(gen, t1, q, t2) == pytest.approx(
            0.5 * bregman_div(gen, t1, q) + 0.5 * bregman_div(gen, q, t2), rel=1e-12
        )


class TestJeffreysLossAndResidual:
    def test_zero_at_singleton(self, rng):
        gen = shannon_generator(2)
        theta = rng.uniform(0.5, 2.0, size=2)
        pset = WeightedParamSet.of([theta])
        assert jeffreys_loss(gen, pset, theta) == pytest.approx(0.0, abs=1e-14)
        assert energy_grad_residual(gen, pset, theta) < 1e-8

    def test_center_beats_endpoint(self):
        gen = shannon_generator(1)
        pset = WeightedParamSet.of([[1.0], [4.0]])
        center = quasi_arithmetic_center(gen, pset)
        assert jeffreys_loss(gen, pset, center) < jeffreys_loss(gen, pset, [1.0])

    def test_scalar_jeffreys_closed_form_residual(self):
        # the exact positive-measure Jeffreys centroid of {1, 4} under the
        # Shannon generator is c = a / W0((a/g) e) with a = 2.5, g = 2
        a, g = 2.5, 2.0
        c = a / lambert_w0((a / g) * math.e)
        gen = shannon_generator(1)
        pset = WeightedParamSet.of([[1.0], [4.0]])
        assert energy_grad_residual(gen, pset, [c]) < 1e-6
        assert energy_grad_residual(gen, pset, [c + 0.3]) > 1e-3


class TestSetMembers:
    """Each member of a set goes through require_domain, the check of every
    generic input, in every function that takes a set."""

    @pytest.mark.parametrize(
        "call",
        [
            quasi_arithmetic_center,  # Burg's center of {inf, 1} under t > 0 was [2.0]
            lambda gen, pset: jeffreys_loss(gen, pset, [1.0]),
            gb_center,
        ],
        ids=["quasi_arithmetic_center", "jeffreys_loss", "gb_center"],
    )
    def test_non_finite_member_rejected(self, call):
        with pytest.raises(DomainError, match="point 0"):
            call(positive_burg(), WeightedParamSet.of([[np.inf], [1.0]]))

    def test_member_of_the_wrong_dimension_rejected(self):
        with pytest.raises(DomainError, match=r"point 0 has shape \(1,\), expected \(2,\)"):
            quasi_arithmetic_center(burg_generator(2), WeightedParamSet.of([[1.0], [2.0]]))

    def test_jeffreys_loss_checks_each_point_once(self):
        gen = burg_generator(1)
        counts = Counter()

        def counted(name):
            fn = getattr(gen, name)

            def call(theta):
                counts[name] += 1
                return fn(theta)

            return call

        counted_gen = dataclasses.replace(
            gen, in_domain=counted("in_domain"), eval_grad=counted("eval_grad")
        )
        pset = WeightedParamSet([[1.0], [2.0], [4.0]], [0.5, 0.25, 0.25])
        loss = jeffreys_loss(counted_gen, pset, [1.5])
        # one check and one gradient per point, the query included
        assert counts == {"in_domain": 4, "eval_grad": 4}
        assert loss == sum(
            w * symmetrized_bregman(gen, p, [1.5]) for w, p in zip(pset.weights, pset.points)
        )


class TestWeightedParamSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedParamSet([[1.0]], [0.0])
        with pytest.raises(ValueError):
            WeightedParamSet([[1.0], [2.0]], [0.6, 0.6])
        with pytest.raises(ValueError):
            WeightedParamSet(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError):
            WeightedParamSet([[1.0], [2.0]], [1.0])

    def test_uniform_default(self):
        pset = WeightedParamSet.of([[1.0], [2.0], [3.0]])
        assert np.allclose(pset.weights, 1.0 / 3.0)
        assert pset.n == 3 and pset.dim == 1
