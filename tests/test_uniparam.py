import math
import warnings

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    HistogramSet,
    NumericalError,
    ScalarGenerator,
    SimplexPoint,
    cat_to_natural,
    h_inverse,
    h_of,
    jfr_center_1d,
    jfr_center_cat,
)
from jeffreys_centers import uniparam
from jeffreys_centers.uniparam import _monotone_root


def squared() -> ScalarGenerator:
    return ScalarGenerator(
        f=lambda t: 0.5 * t * t,
        f_prime=lambda t: t,
        f_second=lambda t: 1.0,
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


def poisson() -> ScalarGenerator:
    return ScalarGenerator(
        f=math.exp,
        f_prime=math.exp,
        f_second=math.exp,
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


def exponential_family() -> ScalarGenerator:
    # F = -log(-theta) on theta < 0
    return ScalarGenerator(
        f=lambda t: -math.log(-t),
        f_prime=lambda t: -1.0 / t,
        f_second=lambda t: 1.0 / (t * t),
        domain=(-math.inf, 0.0),
        theta_ref=-1.0,
    )


def bernoulli() -> ScalarGenerator:
    def sig(t):
        return 1.0 / (1.0 + math.exp(-t))

    return ScalarGenerator(
        f=lambda t: math.log1p(math.exp(t)) if t < 30 else t,
        f_prime=sig,
        f_second=lambda t: sig(t) * (1.0 - sig(t)),
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


class TestH:
    def test_zero_at_anchor(self):
        assert h_of(squared(), 0.0) == 0.0

    def test_identity_for_squared(self, rng):
        gen = squared()
        for t in rng.uniform(-5.0, 5.0, size=10):
            assert h_of(gen, float(t)) == pytest.approx(float(t), abs=1e-10)

    def test_poisson_antiderivative(self, rng):
        # h(theta) = 2 (e^{theta/2} - 1), the symbolic antiderivative of e^{u/2}
        gen = poisson()
        for t in rng.uniform(-3.0, 3.0, size=10):
            assert h_of(gen, float(t)) == pytest.approx(
                2.0 * (math.exp(t / 2.0) - 1.0), abs=1e-10
            )

    def test_strictly_increasing(self, rng):
        gen = bernoulli()
        ts = np.sort(rng.uniform(-4.0, 4.0, size=30))
        hs = [h_of(gen, float(t)) for t in ts]
        assert all(h1 > h0 for h0, h1 in zip(hs, hs[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h_of(exponential_family(), 1.0)

    @pytest.mark.parametrize("theta", [1.7e4, 1e5])
    def test_a_missed_integrand_raises(self, theta):
        """Over [0, theta] quad misses the Bernoulli integrand, which is
        negligible outside a few units of 0, and returns 0.0 without a warning;
        h(theta) is pi/2 up to 2 e^{-theta/2}."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="returned 0.0"):
                h_of(bernoulli(), theta)


class TestHInverse:
    def test_zero_maps_to_anchor(self):
        assert h_inverse(poisson(), 0.0) == 0.0

    def test_roundtrip(self, rng):
        gen = poisson()
        for t in rng.uniform(-2.0, 2.0, size=10):
            y = h_of(gen, float(t))
            assert h_inverse(gen, y) == pytest.approx(float(t), abs=1e-9)

    def test_poisson_value(self):
        assert h_inverse(poisson(), 2.0 * (math.exp(0.5) - 1.0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_out_of_range(self):
        # h of the exponential-distribution generator maps (-inf, 0) onto R,
        # but the bracket cannot escape the domain; use a bounded-range case
        gen = ScalarGenerator(
            f=lambda t: 0.5 * t * t,
            f_prime=lambda t: t,
            f_second=lambda t: 1.0,
            domain=(-1.0, 1.0),
            theta_ref=0.0,
        )
        with pytest.raises(NumericalError):
            h_inverse(gen, 5.0)

    def test_out_of_the_range_of_a_bounded_h(self, monkeypatch):
        # h of the Bernoulli generator maps R onto (-pi/2, pi/2): the bracket
        # grows right until the quadrature to theta = 33.55 fails, 25 h
        # evaluations in all, and raises the classified error, not a warning
        calls = []

        def counted(gen, theta):
            calls.append(theta)
            return h_of(gen, theta)

        monkeypatch.setattr(uniparam, "h_of", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="h quadrature"):
                h_inverse(bernoulli(), 3.0)
        assert caught == []
        assert len(calls) == 25


class TestMonotoneRoot:
    """The bracket growth of the shared monotone root finder."""

    @staticmethod
    def counted(fun):
        calls = []

        def wrapped(t):
            calls.append(t)
            return fun(t)

        return wrapped, calls

    @pytest.mark.parametrize("target", [2.0, -2.0])
    def test_growth_stops_where_fun_stops_growing(self, target):
        # tanh reaches +-1.0 in floating point near |theta| = 19; the doubling
        # end passes 33.55 without moving it, the 26th evaluation
        fun, calls = self.counted(math.tanh)
        with pytest.raises(NumericalError, match="outside the range"):
            _monotone_root(fun, target, 0.0, (-math.inf, math.inf), 1e-12)
        assert len(calls) == 26

    def test_growth_stops_at_a_finite_domain_end(self):
        # the end is clamped just inside 1 after 19 doublings; the 20th
        # doubling evaluates the same point again, and fun has stopped moving
        fun, calls = self.counted(lambda t: t)
        with pytest.raises(NumericalError, match="outside the range"):
            _monotone_root(fun, 5.0, 0.0, (-1.0, 1.0), 1e-12)
        assert len(calls) == 21

    def test_a_flat_start_keeps_growing(self):
        # the logistic function is 1.0 in floating point from theta = 45 down
        # to about 36.7: a target just below 1 is reached by moving left
        # through that flat stretch, which is not a stall
        def logistic(t):
            return 1.0 / (1.0 + math.exp(-t))

        target = 0.5 * (logistic(30.0) + logistic(60.0))
        root = _monotone_root(logistic, target, 45.0, (-math.inf, math.inf), 1e-13)
        assert 30.0 < root < 45.0
        assert logistic(root) == pytest.approx(target, abs=1e-15)


class TestJFRCenter1d:
    def test_all_equal(self):
        assert jfr_center_1d(poisson(), [0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-12)

    def test_fixed_variance_normal_returns_mean(self, rng):
        # linear f' makes both sided centroids the arithmetic mean
        gen = squared()
        ts = rng.uniform(-3.0, 3.0, size=5)
        assert jfr_center_1d(gen, ts) == pytest.approx(float(ts.mean()), abs=1e-10)

    def test_exponential_family_geometric_midpoint(self, rng):
        # h ~ log(-theta), so m_h is minus the geometric mean of the sided centroids
        gen = exponential_family()
        for _ in range(10):
            ts = -rng.uniform(0.2, 5.0, size=4)
            w = rng.uniform(0.2, 1.0, size=4)
            w /= w.sum()
            theta_bar = float(w @ ts)
            theta_under = -1.0 / float(w @ (-1.0 / ts))
            expect = -math.sqrt(theta_bar * theta_under)
            assert jfr_center_1d(gen, ts, w) == pytest.approx(expect, abs=1e-9)

    def test_betweenness(self, rng):
        gen = poisson()
        for _ in range(10):
            ts = rng.uniform(-2.0, 2.0, size=5)
            w = rng.uniform(0.1, 1.0, size=5)
            w /= w.sum()
            theta_bar = float(w @ ts)
            theta_under = math.log(float(w @ np.exp(ts)))
            c = jfr_center_1d(gen, ts, w)
            assert min(theta_bar, theta_under) - 1e-12 <= c <= max(theta_bar, theta_under) + 1e-12

    def test_matches_categorical_closed_form_d2(self, rng):
        # the d=2 categorical family reduced to its scalar natural parameter
        gen = bernoulli()
        for _ in range(10):
            p = rng.uniform(0.05, 0.95, size=3)
            rows = np.stack([p, 1.0 - p], axis=1)
            w = rng.uniform(0.2, 1.0, size=3)
            w /= w.sum()
            hset = HistogramSet(rows, w)
            cat_theta = float(cat_to_natural(jfr_center_cat(hset))[0])
            thetas = [float(cat_to_natural(SimplexPoint(r))[0]) for r in rows]
            assert jfr_center_1d(gen, thetas, w) == pytest.approx(cat_theta, abs=1e-8)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            jfr_center_1d(poisson(), [1.0, 2.0], [0.6, 0.6])
        with pytest.raises(DomainError):
            jfr_center_1d(poisson(), [])
