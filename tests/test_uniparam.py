"""The scalar JFR center, checked against the scipy quadrature oracle of
``oracles.py`` and against 50-digit values; and that oracle's own h
coordinate, its inverse and its bracket growth."""

import math
import warnings

import numpy as np
import pytest

import oracles
from jeffreys_centers import (
    DomainError,
    HistogramSet,
    NumericalError,
    ScalarGenerator,
    SimplexPoint,
    jfr_center_1d,
    jfr_center_cat,
)
from jeffreys_centers import uniparam
from jeffreys_centers.uniparam import _newton
from oracles import AnchoredGenerator, _monotone_root, cat_to_natural, h_inverse, h_of


def squared() -> AnchoredGenerator:
    return AnchoredGenerator(
        f_prime=lambda t: t,
        f_second=lambda t: 1.0,
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


def poisson() -> AnchoredGenerator:
    return AnchoredGenerator(
        f_prime=math.exp,
        f_second=math.exp,
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


def exponential_family() -> AnchoredGenerator:
    # F = -log(-theta) on theta < 0
    return AnchoredGenerator(
        f_prime=lambda t: -1.0 / t,
        f_second=lambda t: 1.0 / (t * t),
        domain=(-math.inf, 0.0),
        theta_ref=-1.0,
    )


def sig(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


def bernoulli() -> AnchoredGenerator:
    # F = log(1 + e^theta); sig(t) (1 - sig(t)) cancels to 0 above t = 37
    return AnchoredGenerator(
        f_prime=sig,
        f_second=lambda t: sig(t) * (1.0 - sig(t)),
        domain=(-math.inf, math.inf),
        theta_ref=0.0,
    )


def stable_bernoulli() -> ScalarGenerator:
    """The Bernoulli generator with f'' = e^{-|t|} / (1 + e^{-|t|})^2, which
    keeps its relative accuracy where sig(t) rounds to 1."""

    def f_second(t):
        e = math.exp(-abs(t))
        return e / (1.0 + e) ** 2

    return ScalarGenerator(f_prime=sig, f_second=f_second, domain=(-math.inf, math.inf))


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
        gen = AnchoredGenerator(
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

        monkeypatch.setattr(oracles, "h_of", counted)
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
            assert jfr_center_1d(gen, ts, w) == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("lo, hi", [(-100.0, -0.1), (-1e4, -1e-3), (-1e8, -1e-8)])
    def test_exponential_family_far_apart(self, lo, hi):
        # 1/|theta| grows a thousand to a hundred million fold toward the pole
        # between the centroids, so the pieces next to it must be halved
        theta_bar = 0.5 * (lo + hi)
        theta_under = -1.0 / (0.5 * (-1.0 / lo - 1.0 / hi))
        expect = -math.sqrt(theta_bar * theta_under)
        assert jfr_center_1d(exponential_family(), [lo, hi]) == pytest.approx(expect, abs=1e-13)

    def test_the_pieces_are_refined_once_per_call(self, monkeypatch):
        # Newton on m reuses the accepted pieces: about 40 f'' values a step
        calls, f2 = [], []
        pieces = uniparam._h_pieces
        monkeypatch.setattr(uniparam, "_h_pieces", lambda *a: calls.append(a) or pieces(*a))
        gen = ScalarGenerator(
            f_prime=math.exp, f_second=lambda t: f2.append(t) or math.exp(t),
            domain=(-math.inf, math.inf),
        )
        jfr_center_1d(gen, [-2.0, 0.5, 3.0])
        assert len(calls) == 1
        assert len(f2) <= 600

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
            assert jfr_center_1d(gen, thetas, w) == pytest.approx(cat_theta, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            jfr_center_1d(poisson(), [1.0, 2.0], [0.6, 0.6])
        with pytest.raises(DomainError):
            jfr_center_1d(poisson(), [])

    def test_thetas_must_be_one_dimensional(self):
        # a 2-D list raised a raw TypeError
        with pytest.raises(DomainError, match=r"thetas has shape \(2, 2\), expected \(\*,\)"):
            jfr_center_1d(poisson(), [[1.0, 2.0], [3.0, 4.0]])

    def test_an_overflowing_generator_is_a_numerical_error(self):
        # math.exp(720) raises OverflowError: internal trouble on valid input
        with pytest.raises(NumericalError, match="theta=720.0"):
            jfr_center_1d(poisson(), [1.0, 720.0])

    def test_an_f_prime_that_rounds_to_one_value_is_a_numerical_error(self):
        # sig(40) and sig(60) both round to 1: f' - target is 0 at the bracket
        # midpoint 50, while the center is the mirror image of -42.06
        for make in (bernoulli, stable_bernoulli):
            with pytest.raises(NumericalError, match="left centroid is not determined"):
                jfr_center_1d(make(), [40.0, 60.0])
        mirror = jfr_center_1d(bernoulli(), [-60.0, -40.0])
        assert mirror == pytest.approx(-42.0604739747, abs=1e-9)

    def test_a_non_finite_generator_value_is_a_numerical_error(self):
        gen = ScalarGenerator(
            f_prime=lambda t: t, f_second=lambda t: math.inf, domain=(-math.inf, math.inf)
        )
        with pytest.raises(NumericalError, match=r"returned inf at theta="):
            jfr_center_1d(gen, [1.0, 2.0])

    def test_a_negative_f_second_is_a_numerical_error(self):
        # a generator whose f'' is negative is not convex: a NumericalError, as for inf
        gen = ScalarGenerator(f_prime=lambda t: t**3, f_second=lambda t: -1.0, domain=(-10, 10))
        with pytest.raises(NumericalError, match=r"f'' is -1\.0 < 0"):
            jfr_center_1d(gen, [1.0, 2.0])


def oracle_center(gen: AnchoredGenerator, ts, w) -> float:
    """h^{-1}((h(theta_bar) + h(theta_under)) / 2) with both h by scipy quad
    from theta_ref, theta_under and the inverse by bracket growth and brentq."""
    theta_bar = float(w @ ts)
    target = float(w @ np.array([gen.f_prime(float(t)) for t in ts]))
    theta_under = _monotone_root(
        gen.f_prime, target, 0.5 * float(ts.min() + ts.max()), gen.domain, 1e-13
    )
    return h_inverse(gen, 0.5 * (h_of(gen, theta_bar) + h_of(gen, theta_under)))


# Each test generator with the law of its seeded 4-point sets.
ORACLE_SETS = {
    "squared": (squared, lambda rng: rng.uniform(-3.0, 3.0, size=4)),
    "poisson": (poisson, lambda rng: rng.uniform(-3.0, 3.0, size=4)),
    "exponential": (exponential_family, lambda rng: -rng.uniform(0.2, 5.0, size=4)),
    "bernoulli": (bernoulli, lambda rng: rng.uniform(-4.0, 4.0, size=4)),
}

# 50-digit values from mpmath: h^{-1} of the midpoint of the exact h of both
# sided centroids.
PINNED = [
    (bernoulli, [-60.0, -30.0], -32.077877794330813947),
    (bernoulli, [-700.0, -35.0], -37.079441541679836401),
    (poisson, [1.0, 700.0], 697.92055845832016407),
]


class TestJFRCenter1dAccuracy:
    @pytest.mark.parametrize("family", sorted(ORACLE_SETS))
    def test_matches_the_quadrature_oracle(self, family):
        make, draw = ORACLE_SETS[family]
        gen = make()
        rng = np.random.default_rng(17)
        for _ in range(40):
            ts = draw(rng)
            w = rng.uniform(0.2, 1.0, size=4)
            w /= w.sum()
            expect = oracle_center(gen, ts, w)
            assert abs(jfr_center_1d(gen, ts, w) - expect) <= 1e-12 * max(1.0, abs(expect))

    @pytest.mark.parametrize("make, thetas, expect", PINNED)
    def test_pinned_high_precision_values(self, make, thetas, expect):
        assert jfr_center_1d(make(), thetas) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_saturated_set_lies_between_its_centroids(self):
        """Bernoulli [30, 60]: sig(60) rounds to 1, so the left centroid is only
        about 1e-3 accurate, but the center stays between the centroids and
        near the mirror image of the pinned [-60, -30] value."""
        theta_under = 30.0 + math.log(2.0) - math.log1p(math.exp(-30.0))
        center = jfr_center_1d(stable_bernoulli(), [30.0, 60.0])
        assert theta_under < center < 45.0
        assert center == pytest.approx(32.077877794330813947, abs=1e-2)

    def test_a_kink_of_sqrt_f2_between_the_centroids_converges(self):
        # f' = t^3: sqrt f'' = sqrt(3) |t| has a kink at 0, where a piece's own
        # integral vanishes, so the piece check reads the whole interval's
        # integral too.  h = (sqrt 3 / 2) t |t|, so m |m| = c with
        # c = (theta_bar |theta_bar| + theta_under |theta_under|) / 2.
        gen = ScalarGenerator(
            f_prime=lambda t: t**3, f_second=lambda t: 3.0 * t * t, domain=(-math.inf, math.inf)
        )
        straddling = 0  # sets whose two centroids lie on both sides of the kink
        for ts in np.random.default_rng(0).uniform(-2.0, 2.0, size=(300, 3)):
            bar, under = ts.mean(), np.cbrt(np.mean(ts**3))
            straddling += bar * under < 0.0
            c = 0.5 * (bar * abs(bar) + under * abs(under))
            expect = math.copysign(math.sqrt(abs(c)), c)
            assert abs(jfr_center_1d(gen, ts) - expect) <= 1e-10 * abs(expect)
        assert straddling >= 25

    def test_a_cancelling_second_derivative_fails_the_piece_check(self):
        # sig(t) (1 - sig(t)) loses its relative accuracy toward t = 37 and is
        # 0 above: no halving makes the halves agree
        with pytest.raises(NumericalError, match="h quadrature"):
            jfr_center_1d(bernoulli(), [30.0, 60.0])


class TestNewton:
    """The safeguarded Newton routine both roots of the scalar center share."""

    def test_a_step_function_stops_at_two_adjacent_floats(self):
        # every Newton step is 1 long, out of the bracket or not halving, so
        # the routine bisects until the bracket stops shrinking
        root = 1.0 / 3.0
        x = _newton(lambda t: -1.0 if t < root else 1.0, lambda t: 1.0, 0.0, 1.0)
        assert abs(x - root) <= 2.0 * math.ulp(root)

    def test_steps_that_do_not_halve_are_bisections(self):
        # from far right of the root, Newton on e^t = 1 moves about 1 per step:
        # 350 steps without the halving rule, a few dozen with it
        calls = []

        def fun(t):
            calls.append(t)
            return math.exp(t) - 1.0

        assert abs(_newton(fun, math.exp, -1.0, 700.0)) <= 1e-15
        assert len(calls) <= 60

    def test_a_zero_slope_bisects(self):
        x = _newton(lambda t: t - 0.3, lambda t: 0.0, 0.0, 1.0)
        assert abs(x - 0.3) <= math.ulp(0.3)

    def test_an_exact_root_with_a_zero_slope_is_returned(self):
        # the midpoint 0 is the root of t^3, and f'' = 3t^2 vanishes there
        assert _newton(lambda t: t**3, lambda t: 3.0 * t * t, -1.0, 1.0) == 0.0
        gen = ScalarGenerator(
            f_prime=lambda t: t**3, f_second=lambda t: 3.0 * t * t, domain=(-math.inf, math.inf)
        )
        assert jfr_center_1d(gen, [-1.0, 1.0]) == 0.0

    @pytest.mark.parametrize(
        "thetas, weights, sign",
        [([-1.0, 2.0], [8 / 9, 1 / 9], -1.0), ([-2.0, 1.0], [1 / 9, 8 / 9], 1.0)],
    )
    def test_a_root_at_zero_that_no_iterate_hits_is_met(self, thetas, weights, sign):
        # the weights put the left centroid at 0, where f'' = 3t^2 vanishes:
        # Newton nears it linearly, so a step within 4e-16 |x| never comes and
        # only the floor at the bracket's scale stops it.  With theta_bar = -2/3
        # (the mirror: 2/3) and h = (sqrt 3 / 2) t |t|, the center is -sqrt(2)/3.
        gen = ScalarGenerator(
            f_prime=lambda t: t**3, f_second=lambda t: 3.0 * t * t, domain=(-math.inf, math.inf)
        )
        center = jfr_center_1d(gen, thetas, weights)
        assert center == pytest.approx(sign * math.sqrt(2.0) / 3.0, rel=1e-15, abs=0.0)

    def test_a_point_bracket_returns_the_point(self):
        assert _newton(lambda t: 1e-20, lambda t: 1.0, 2.5, 2.5) == 2.5

    def test_running_out_of_steps_raises(self):
        # a zero slope only bisects, and [0, 1e300] takes about 1000 halvings
        # to come within 4e-16 relative of the root
        with pytest.raises(NumericalError, match="did not converge in 200 steps"):
            _newton(lambda t: t - 1.0, lambda t: 0.0, 0.0, 1e300)
