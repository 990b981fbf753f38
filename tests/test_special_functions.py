import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jeffreys_centers import (
    DomainError,
    ToleranceConfig,
    WeightedParamSet,
    gb_center,
    lambert_w0,
    shannon_generator,
)
from jeffreys_centers.special_functions import _bracketed_newton, _w0_shifted

from conftest import polished_w0
from oracles import elliptic_k


def bisect_w(x: float, tol: float = 1e-13) -> float:
    """Independent oracle: bisection on w exp(w) = x over [-1, max(1, x)]."""
    lo, hi = -1.0, max(1.0, x)
    while hi * math.exp(hi) < x:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_w0(x: np.ndarray) -> np.ndarray:
    """Reference for x <= 0: lambert_w0's piecewise seed and Halley loop
    written out in one function, at the default tolerance; the step taken from
    residuals that all pass the test is the last."""
    at_branch = x == -math.exp(-1.0)
    arr = np.where(at_branch, 0.0, x)
    p = np.sqrt(np.maximum(2.0 * (math.e * np.minimum(arr, -0.25) + 1.0), 0.0))
    near = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    w = np.where(arr < -0.25, near, np.log1p(arr))
    target = 1e-12 * np.abs(arr)
    for _ in range(100):
        ew = np.exp(w)
        f = w * ew - arr
        last = (np.abs(f) <= target).all()
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        if last:
            break
    w[at_branch] = -1.0
    return w


def reference_fsc(x: np.ndarray, w: np.ndarray, z) -> np.ndarray:
    """Reference for x > 0: lambert_w0's Fritsch-Shafer-Crowley loop on
    w + log w = log x from w with residual z, written out as the textbook
    formula, one new array per operation; the step taken from max|z| <= 1e-4
    is the last."""
    for _ in range(100):
        last = np.abs(z).max(initial=0.0) <= 1e-4
        wp1 = 1.0 + w
        q = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * z)
        w = w + w * z * (q - z) / (wp1 * (q - 2.0 * z))
        if last:
            return w
        z = np.log(x / w) - w
    raise AssertionError("no convergence")


def reference_w0_positive(x: np.ndarray) -> np.ndarray:
    """The reference loop from Winitzki's start."""
    l = np.log1p(x)
    w = l * (1.0 - np.log1p(l) / (2.0 + l))
    return reference_fsc(x, w, np.log(x / w) - w)


# frozen from the bisection oracle before the main build
W_OF_ONE = 0.5671432904097838
# frozen from a 30-digit quadrature/mpmath evaluation of the defining integral
K_HALF = 1.685750354812596
# (x, W0(x)) frozen from a 40-digit mpmath lambertw of each float x
W0_PINNED = [
    (-0.36, -0.8060843159708176),
    (-0.3, -0.4894022271802149),
    (-0.1, -0.11183255915896297),
    (-0.001, -0.001001001502671886),
    (-1e-08, -1.0000000100000002e-08),
    (-1e-20, -1e-20),
    (-1e-300, -1e-300),
    (5e-324, 5e-324),
    (1e-300, 1e-300),
    (1e-100, 1e-100),
    (1e-20, 1e-20),
    (1e-08, 9.999999900000002e-09),
    (1e-05, 9.999900001499974e-06),
    (0.001, 0.0009990014973385308),
    (0.1, 0.09127652716086226),
    (1.0, 0.5671432904097838),
    (10.0, 1.7455280027406994),
    (1000.0, 5.249602852401596),
    (1e20, 42.306755091738395),
    (1e100, 224.8431064451185),
    (1e300, 684.2472086297608),
    (1e308, 702.6413620341068),
    (1.7976931348623157e308, 703.2270331047702),
]
# more (x, W0(x)) on [-0.36, -1e-8], frozen the same way: of 300 log-spaced x,
# the one in each run of 15 that a single Halley solve stopped furthest from W0
# while it returned once the residual test passed (up to 5710 ulps)
W0_HALLEY_PINNED = [
    (-1e-08, -1.0000000100000002e-08),
    (-4.283491090849917e-08, -4.2834912743328875e-08),
    (-5.730037201146247e-08, -5.7300375294795385e-08),
    (-1.3716274322436584e-07, -1.3716276203798785e-07),
    (-4.392122623768637e-07, -4.3921245528440226e-07),
    (-8.829526885594049e-07, -8.829534681658876e-07),
    (-3.1762856835650017e-06, -3.176295772403813e-06),
    (-4.773346488333556e-06, -4.773369273333395e-06),
    (-1.0780273176637436e-05, -1.0780389392806467e-05),
    (-2.7351452952112076e-05, -2.7352201084784676e-05),
    (-6.54725298700224e-05, -6.547681694322593e-05),
    (-0.00015672484292100352, -0.0001567494113733739),
    (-0.0003539522270975664, -0.0003540775758343771),
    (-0.0019135075323351688, -0.0019171795887902565),
    (-0.004580457911566007, -0.004601583841771621),
    (-0.006494420206237221, -0.006537013382441897),
    (-0.011621428976292857, -0.011758890704253467),
    (-0.027818791093652814, -0.028626658217466436),
    (-0.0890792491139249, -0.09827845945438027),
    (-0.21323341793293102, -0.28297652731341555),
]


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_w_of_one_frozen(self):
        assert bisect_w(1.0) == pytest.approx(W_OF_ONE, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(W_OF_ONE, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == -1.0

    def test_residual_property(self, rng):
        xs = np.concatenate(
            [
                rng.uniform(-math.exp(-1.0), 0.0, size=200),
                rng.uniform(0.0, 10.0, size=200),
                10.0 ** rng.uniform(1.0, 300.0, size=100),
            ]
        )
        w = lambert_w0(xs)
        resid = np.abs(w * np.exp(np.clip(w, None, 700)) - xs)
        assert np.all(resid <= 1e-12 * np.maximum(1.0, np.abs(xs)))
        assert np.all(w >= -1.0)

    def test_strictly_increasing(self, rng):
        xs = np.sort(rng.uniform(-math.exp(-1.0) + 1e-12, 50.0, size=300))
        w = lambert_w0(xs)
        assert np.all(np.diff(w) > 0.0)

    def test_against_oracle_random(self, rng):
        for x in rng.uniform(-0.35, 20.0, size=25):
            x = max(x, -math.exp(-1.0) + 1e-9)
            assert lambert_w0(float(x)) == pytest.approx(bisect_w(float(x)), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)
        with pytest.raises(DomainError):
            lambert_w0(np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            lambert_w0(float("nan"))
        with pytest.raises(DomainError):
            lambert_w0(np.array([0.5, float("inf")]))

    def test_mixed_array_every_seed_branch(self):
        # the branch point, the series range (-1/e, -0.25), zero, the log1p
        # range of Halley's seed and x > 0, in one array
        xs = np.array(
            [-math.exp(-1.0), -0.36, -0.3, -0.26, 0.0, 0.5, 1.0, 2.0, math.e, 3.0, 10.0]
            + [50.0, 500.0]
        )
        w = lambert_w0(xs)
        assert w[0] == -1.0 and w[4] == 0.0
        scalar = np.array([lambert_w0(float(x)) for x in xs])
        assert np.abs(w - scalar).max() <= 1e-12
        oracle = np.array([bisect_w(float(x)) for x in xs])
        assert np.abs(w - oracle).max() <= 1e-12

    def test_bit_identical_to_the_reference_loop(self):
        # both seed branches, from the branch point to -1e-300; each value is
        # also evaluated alone, where the loop stops once that value converges
        xs = np.concatenate(
            [
                [-math.exp(-1.0)],
                np.linspace(-math.exp(-1.0), 0.0, 200)[1:],
                -np.geomspace(1e-300, 0.25, 100),
            ]
        )
        assert np.array_equal(lambert_w0(xs), reference_w0(xs))
        for x in xs[::7]:
            assert lambert_w0(float(x)) == reference_w0(np.array([x]))[0]

    def test_positive_x_bit_identical_to_the_reference_loop(self):
        # the kernels reuse their temporaries; every W must stay the formula's to the bit
        xs = np.concatenate([[5e-324, 1e-300], np.geomspace(1e-250, 1e300, 3000), [np.finfo(float).max]])
        assert np.array_equal(lambert_w0(xs), reference_w0_positive(xs))
        for x in xs[::97]:
            assert lambert_w0(float(x)) == reference_w0_positive(np.array([x]))[0]

    @pytest.mark.parametrize("x", [5e307, 1e308, np.finfo(float).max])
    def test_largest_inputs(self, x):
        # w e^w overflows here, but nothing is exponentiated for x > 0; a
        # floating-point warning fails the test
        w = lambert_w0(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-15 * math.log(x)
        both = lambert_w0(np.array([x, -math.exp(-1.0), 1.0]))
        assert both[0] == w and both[1] == -1.0 and both[2] == lambert_w0(1.0)


    def test_pinned_high_precision_values(self):
        # to rounding (two ulps) everywhere, as an array and one value at a time
        xs, ws = (np.array(col) for col in zip(*W0_PINNED, *W0_HALLEY_PINNED))
        for w in (lambert_w0(xs), np.array([lambert_w0(x) for x in xs])):
            assert np.all(np.abs(w / ws - 1.0) <= 4.5e-16)

    @pytest.mark.parametrize("x, message", [
        ([1.0, float("nan")], "finite input"), ([float("inf"), 1.0], "finite input"),
        ([1.0, -float("inf")], "finite input"), ([1.0, -0.5], "x >= -1/e"),
        ([-1.0, 1.0], "x >= -1/e"),
    ])
    def test_input_errors_keep_their_messages(self, x, message):
        with pytest.raises(DomainError, match=message):
            lambert_w0(np.array(x))

    def test_branch_point_is_pinned_in_an_array(self):
        w = lambert_w0(np.array([-math.exp(-1.0), 1.0, -0.2]))
        assert w[0] == -1.0 and w[1] == W_OF_ONE and w[2] == lambert_w0(-0.2)

    @pytest.mark.parametrize("x", [np.array([]), []], ids=["array", "list"])
    def test_empty_input(self, x):
        w = lambert_w0(x)
        assert isinstance(w, np.ndarray) and w.shape == (0,)


class TestShiftedW:
    """W carried to x from W0(x e^-dlam), whose residual at x is dlam: one Newton
    step up to |dlam| = 1e-8, one FSC step up to 1e-4, FSC steps up to 1."""

    # x from 1e-12 to 1e300 spans W from 1e-12 to 684, the multiplier solve's range
    X = np.geomspace(1e-12, 1e300, 4001)

    @pytest.mark.parametrize(
        "dlam", [s * m for m in (1e-16, 1e-12, 1e-9, 1e-8, 1.0001e-8, 1e-4) for s in (1.0, -1.0)]
    )
    def test_each_order_lands_at_rounding(self, dlam):
        x = self.X * math.exp(dlam)
        w = lambert_w0(self.X)
        shifted = _w0_shifted(x, w, 1.0 + w, dlam)
        assert np.abs(shifted / polished_w0(x) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("dlam", [2e-8, -3e-5, 1e-4, 2e-4, -0.3, 1.0])
    def test_fsc_shifts_bit_identical_to_the_reference_loop(self, dlam):
        x = self.X * math.exp(dlam)
        w = lambert_w0(self.X)
        assert np.array_equal(_w0_shifted(x, w, 1.0 + w, dlam), reference_fsc(x, w, dlam))

    def test_w_and_one_plus_w_are_not_written(self):
        w = lambert_w0(self.X)
        wp1 = 1.0 + w
        before = w.copy(), wp1.copy()
        for dlam in (1e-9, 1e-5, 0.5, 3.0):
            _w0_shifted(self.X * math.exp(dlam), w, wp1, dlam)
        assert np.array_equal(w, before[0]) and np.array_equal(wp1, before[1])


class TestEllipticK:
    def test_zero_is_half_pi(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_frozen_half(self):
        assert elliptic_k(0.5) == pytest.approx(K_HALF, rel=1e-12)

    def test_even_in_modulus(self, rng):
        for u in rng.uniform(0.0, 0.95, size=10):
            assert elliptic_k(float(u)) == pytest.approx(elliptic_k(float(-u)), rel=1e-13)

    def test_domain_error(self):
        for bad in (1.0, -1.0, 1.5, float("inf")):
            with pytest.raises(DomainError):
                elliptic_k(bad)


def agm(x: float, y: float) -> float:
    """Gauss's arithmetic-geometric mean of x and y, run as gb_center.

    Under the Shannon generator the double sequence of {x, y} starts at their
    arithmetic and geometric means, whose AGM is that of x and y.
    """
    pair = WeightedParamSet.of([[x], [y]])
    return float(gb_center(shannon_generator(1), pair, ToleranceConfig(1e-13, 300))[0][0])


class TestScalarAGM:
    def test_fixed_point(self):
        assert agm(3.7, 3.7) == pytest.approx(3.7, rel=1e-15)

    def test_one_four_vs_elliptic(self):
        expect = (math.pi / 4.0) * 5.0 / elliptic_k(-3.0 / 5.0)
        assert agm(1.0, 4.0) == pytest.approx(expect, rel=1e-12)

    def test_homogeneous(self):
        assert agm(2.0, 8.0) == pytest.approx(2.0 * agm(1.0, 4.0), rel=1e-13)

    def test_bounds_symmetry_homogeneity(self, rng):
        for _ in range(50):
            x, y = rng.uniform(0.1, 10.0, size=2)
            m = agm(x, y)
            assert min(x, y) <= m <= max(x, y)
            assert m == pytest.approx(agm(y, x), rel=1e-14)
            c = rng.uniform(0.5, 2.0)
            assert agm(c * x, c * y) == pytest.approx(c * m, rel=1e-13)

    def test_quadratic_gap_decay(self, rng):
        # one double-sequence step contracts the gap quadratically,
        # |a1-g1| <= C |a0-g0|^2 with C = 1/(2 (sqrt a + sqrt g)^2) <= 1.25 here
        for _ in range(200):
            a, g = rng.uniform(0.1, 10.0, size=2)
            a1, g1 = 0.5 * (a + g), math.sqrt(a * g)
            assert abs(a1 - g1) <= 1.26 * abs(a - g) ** 2

    def test_agrees_with_elliptic_form_random(self, rng):
        for _ in range(30):
            x, y = rng.uniform(0.1, 10.0, size=2)
            if abs(x - y) < 1e-3:
                continue
            expect = (math.pi / 4.0) * (x + y) / elliptic_k((x - y) / (x + y))
            assert agm(x, y) == pytest.approx(expect, rel=1e-10)

    def test_domain_error(self):
        for bad in ((0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)):
            with pytest.raises(DomainError):
                agm(*bad)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.rel_tol == 1e-12 and tol.max_iter == 100

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": 1.0}, {"rel_tol": -1e-3}, {"max_iter": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)


def recorded(fun):
    """``fun(x) -> (value, slope)`` as the solver's ``fun(x, dx) -> value`` and
    ``slope(x)``; the list of (x, dx, value) fun is called with; and the list
    of the x slope is called at."""
    calls, slopes = [], []

    def wrapped(x, dx):
        value = fun(x)[0]
        calls.append((x, dx, value))
        return value

    def slope(x):
        slopes.append(x)
        return fun(x)[1]

    return wrapped, slope, calls, slopes


def cubic(a, b, c):
    """a x^3 + b x + c, each value correctly rounded, and its slope.  Where no
    value near the root underflows to 0, each sign is exact."""
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    return lambda x: (float(fa * Fraction(x) ** 3 + fb * Fraction(x) + fc), 3.0 * a * x * x + b)


def check_calls(calls, lo, hi):
    """The solver's contract on its calls: dx is 0.0 at the start and then the
    exact increment, and each x lies in the sign bracket the earlier values
    leave inside [lo, hi]."""
    assert calls[0][1] == 0.0
    for (x0, _, _), (x1, dx, _) in zip(calls, calls[1:]):
        assert dx != 0.0 and x1 == x0 + dx
    for k, (x, _, _) in enumerate(calls):
        below = [lo] + [t for t, _, v in calls[:k] if v < 0.0]
        above = [hi] + [t for t, _, v in calls[:k] if v >= 0.0]
        assert max(below) <= x <= min(above)


class TestBracketedNewton:
    """The one scalar root solver: the histogram multiplier and both roots of
    the scalar JFR center run it."""

    @pytest.mark.parametrize(
        "fun, lo, hi, x",
        [
            (lambda t: (math.exp(t) - 1.0, math.exp(t)), -1.0, 700.0, 350.0),
            (lambda t: (-1.0 if t < 1.0 / 3.0 else 1.0, 1.0), 0.0, 1.0, 0.9),
            (lambda t: (t - 0.3, 0.0), 0.0, 1.0, 0.0),
            (cubic(1.0, 1e-3, -2.0), -5.0, 5.0, 5.0),
        ],
        ids=["far-start", "step", "zero-slope", "cubic"],
    )
    def test_calls_keep_the_contract(self, fun, lo, hi, x):
        wrapped, slope, calls, slopes = recorded(fun)
        root, steps, gap = _bracketed_newton(wrapped, slope, lo, hi, x, 200, rtol=4e-16)
        check_calls(calls, lo, hi)
        assert calls[-1][0] == root
        assert steps < 200 and gap <= 4e-16 * abs(root)
        # one slope per step, each at the point the step is taken from
        assert len(slopes) == steps and slopes[0] == x
        assert set(slopes) <= {t for t, _, _ in calls}

    def test_a_capped_solve_returns_without_raising(self):
        # a zero slope only bisects: from 0.5, the fifth bisection steps 1/64
        x, steps, gap = _bracketed_newton(lambda t, _: t - 0.3, lambda t: 0.0, 0.0, 1.0, 0.5, 5)
        assert steps == 5 and gap == 1.0 / 64.0 and abs(x - 0.3) <= 1.0 / 32.0

    def test_a_point_bracket_returns_its_point(self):
        wrapped, slope, calls, slopes = recorded(lambda t: (1e-20, 1.0))
        assert _bracketed_newton(wrapped, slope, 2.5, 2.5, 2.5, 10) == (2.5, 0, 0.0)
        assert calls == [(2.5, 0.0, 1e-20)] and slopes == []

    def test_an_exact_root_takes_a_zero_step_whatever_its_slope(self):
        # x^3 and its slope are both 0 at 0: a Newton step from there would
        # divide by the zero slope and bisect away from the root
        wrapped, slope, calls, slopes = recorded(lambda t: (t**3, 3.0 * t * t))
        assert _bracketed_newton(wrapped, slope, -1.0, 1.0, 0.0, 200, rtol=4e-16) == (0.0, 1, 0.0)
        assert calls == [(0.0, 0.0, 0.0)] and slopes == [0.0]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        a=st.floats(1e-6, 1e3),
        b=st.floats(1e-6, 1e3),
        c=st.floats(-1e3, 1e3),
        lo=st.floats(-1e4, -1.0),
        hi=st.floats(1.0, 1e4),
        start=st.floats(0.0, 1.0),
        rel=st.sampled_from([0.0, 4e-16, 1e-12, 1e-6]),
    )
    def test_increasing_cubics(self, a, b, c, lo, hi, start, rel):
        """The root is found to the tolerance, or to the two adjacent floats
        that bracket it, and every call keeps the bracket.  |c| >= 1e-3 keeps
        the root at least 1e-6 from 0, so no value near it underflows."""
        fun = cubic(a, b, c)
        assume(abs(c) >= 1e-3 and fun(lo)[0] < 0.0 <= fun(hi)[0])
        wrapped, slope, calls, _ = recorded(fun)
        x0 = lo + start * (hi - lo)
        x, steps, _ = _bracketed_newton(wrapped, slope, lo, hi, x0, 200, rtol=rel)
        check_calls(calls, lo, hi)
        assert steps < 200
        # the root's bracket of adjacent floats, by bisection on exact signs
        r_lo, r_hi = lo, hi
        while r_lo < 0.5 * (r_lo + r_hi) < r_hi:
            mid = 0.5 * (r_lo + r_hi)
            r_lo, r_hi = (mid, r_hi) if fun(mid)[0] < 0.0 else (r_lo, mid)
        assert x in (r_lo, r_hi) or min(abs(x - r_lo), abs(x - r_hi)) <= 2.0 * rel * abs(x)
