import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    HistogramSet,
    NumericalError,
    SimplexPoint,
    ToleranceConfig,
    WeightedParamSet,
    approximation_factor,
    arithmetic_mean,
    gb_center,
    gb_center_cat,
    jeffreys_cat,
    jeffreys_centroid_cat,
    jeffreys_loss_cat,
    jfr_center_cat,
    kl_cat,
    normalized_geometric_mean,
    tv_cat,
    unnormalized_center,
)
from jeffreys_centers import categorical
from jeffreys_centers.bench import sample_histogram_pair
from jeffreys_centers.special_functions import _bracketed_newton, _w0_shifted, lambert_w0

from conftest import polished_w0, random_simplex
from oracles import c_of_lambda, cat_from_natural, cat_generator, cat_to_natural

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLE2 = np.array([[1 / 3, 1 / 3, 1 / 3], [0.9, 0.05, 0.05]])


def table2_hset(alpha):
    return HistogramSet.uniform(
        np.array([[1 / 3, 1 / 3, 1 / 3], [1 - alpha, alpha / 2, alpha / 2]])
    )


def bisect_lambda(hset, tol=1e-14):
    """Oracle: plain bisection of the unit-mass multiplier, and its normalized center."""
    a, g = arithmetic_mean(hset).probs, normalized_geometric_mean(hset).probs
    lo, hi = float(np.max(a + np.log(g)) - 1.0), 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if c_of_lambda(a, g, mid).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    c = c_of_lambda(a, g, lam)
    return lam, c / c.sum()


def bracket_low(a, g):
    """The solve's lower multiplier end a_k + log g_k - 1, at k = argmax g."""
    k = int(np.argmax(g))
    return float(a[k] + math.log(g[k]) - 1.0)


def jfr_seed(hset):
    """The multiplier the seeded solve starts from: lambda_J = -KL(c_JFR : g),
    clamped into the bracket [bracket_low(a, g), 0]."""
    a, g = hset.means
    return min(max(-kl_cat(jfr_center_cat(hset), SimplexPoint(g)), bracket_low(a, g)), 0.0)


def cold_newton_iterations(hset, start, epsilon=1e-10, max_iter=200):
    """Reference: the safeguarded Newton solve from the multiplier ``start``,
    with every candidate evaluated cold by c_of_lambda; returns the number of
    Newton iterations."""
    a, g = hset.means
    lo, hi, lam = bracket_low(a, g), 0.0, start
    c = c_of_lambda(a, g, lam)
    s = float(c.sum())
    iterations, gap = 0, hi - lo
    while gap > epsilon and iterations < max_iter:
        if s > 1.0:
            lo = lam
        else:
            hi = lam
        step = (s - 1.0) / float(np.sum(c * c / (c + a)))
        if not lo <= lam + step <= hi:
            step = 0.5 * (lo + hi) - lam
        if step != 0.0:
            lam += step
            c = c_of_lambda(a, g, lam)
            s = float(c.sum())
        iterations += 1
        gap = min(abs(step), hi - lo)
    return iterations


def tiny_bin_hset(e):
    """Two 3-bin rows, the second with a bin of 10^-e."""
    return HistogramSet.uniform(np.array([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 10.0**-e]]))


def random_hset(rng, d, n, floor=1e-9):
    rows = np.array([random_simplex(rng, d, floor) for _ in range(n)])
    w = rng.uniform(0.2, 1.0, size=n)
    return HistogramSet(rows, w / w.sum())


class TestTypes:
    def test_simplex_validation(self):
        with pytest.raises(DomainError):
            SimplexPoint([0.5, 0.5, 0.1])
        with pytest.raises(DomainError):
            SimplexPoint([1.0, 0.0])
        with pytest.raises(DomainError):
            SimplexPoint([1.2, -0.2])
        with pytest.raises(DomainError):
            SimplexPoint([1.0])

    def test_histogram_set_validation(self):
        with pytest.raises(DomainError):
            HistogramSet(TABLE2, [0.5, 0.6])
        with pytest.raises(DomainError):
            HistogramSet(np.array([[0.5, 0.5], [0.7, 0.2]]), [0.5, 0.5])
        with pytest.raises(DomainError):
            HistogramSet(np.empty((0, 3)), np.empty(0))

    # Three bins each; the first entry, or the total mass, is what is wrong.
    BAD_SIMPLEX = {
        "nan": ([np.nan, 0.5, 0.5], "non-finite or non-positive entry"),
        "pos_inf": ([np.inf, 0.5, 0.5], "non-finite or non-positive entry"),
        "neg_inf": ([-np.inf, 0.5, 0.5], "non-finite or non-positive entry"),
        "zero": ([0.0, 0.5, 0.5], "non-finite or non-positive entry"),
        "negative": ([-0.1, 0.6, 0.5], "non-finite or non-positive entry"),
        "mass": ([0.25 + 2e-12, 0.25, 0.5], "differs from 1"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_SIMPLEX))
    def test_simplex_point_rejects(self, case):
        probs, message = self.BAD_SIMPLEX[case]
        with pytest.raises(DomainError, match=f"^SimplexPoint .*{message}"):
            SimplexPoint(probs)

    @pytest.mark.parametrize("case", sorted(BAD_SIMPLEX))
    def test_histogram_row_rejects(self, case):
        probs, message = self.BAD_SIMPLEX[case]
        rows = np.array([[0.2, 0.3, 0.5], probs, [0.3, 0.3, 0.4]])
        with pytest.raises(DomainError, match=f"^histogram row 1 .*{message}"):
            HistogramSet(rows, None)

    @pytest.mark.parametrize(
        "rows", [np.full((2, 2, 3), 1 / 3), np.ones((2, 1))], ids=["3-D", "one bin"]
    )
    def test_histogram_rows_of_the_wrong_shape(self, rows):
        # were built as a set, and failed later in the centers and the loss
        with pytest.raises(DomainError, match="^histogram rows"):
            HistogramSet(rows, None)

    def test_histogram_rows_without_bins(self):
        with pytest.raises(DomainError, match="histogram rows need at least 2 bins, got 0"):
            HistogramSet(np.empty((3, 0)), None)


class TestConversions:
    def test_uniform_maps_to_origin(self):
        theta = cat_to_natural(SimplexPoint([1 / 3, 1 / 3, 1 / 3]))
        assert np.allclose(theta, 0.0)

    def test_half_quarter_quarter(self):
        theta = cat_to_natural(SimplexPoint([0.5, 0.25, 0.25]))
        assert theta[0] == pytest.approx(math.log(2.0)) and theta[1] == pytest.approx(0.0)

    def test_roundtrip(self, rng):
        for _ in range(20):
            p = SimplexPoint(random_simplex(rng, 5, floor=1e-6))
            back = cat_from_natural(cat_to_natural(p))
            assert np.abs(back.probs - p.probs).max() < 1e-12


class TestCatGenerator:
    def test_grad_at_origin(self):
        gen = cat_generator(4)
        assert np.allclose(gen.eval_grad(np.zeros(3)), 0.25)

    def test_F_at_origin(self):
        assert cat_generator(5).eval_F(np.zeros(4)) == pytest.approx(math.log(5.0))

    def test_roundtrip(self, rng):
        gen = cat_generator(4)
        for _ in range(10):
            p = random_simplex(rng, 4, floor=1e-4)
            theta = np.log(p[:-1] / p[-1])
            assert np.abs(gen.eval_grad_inv(gen.eval_grad(theta)) - theta).max() < 1e-9


class TestMeans:
    def test_singleton(self, rng):
        p = random_simplex(rng, 4)
        hset = HistogramSet.uniform([p])
        assert np.allclose(arithmetic_mean(hset).probs, p)
        assert np.abs(normalized_geometric_mean(hset).probs - p).max() < 1e-15

    def test_symmetric_pair(self):
        hset = HistogramSet.uniform([[0.8, 0.2], [0.2, 0.8]])
        assert np.allclose(arithmetic_mean(hset).probs, 0.5)
        assert np.allclose(normalized_geometric_mean(hset).probs, 0.5)

    def test_table2_arithmetic(self):
        a = arithmetic_mean(HistogramSet.uniform(TABLE2)).probs
        assert np.allclose(a, [0.9 / 2 + 1 / 6, 0.05 / 2 + 1 / 6, 0.05 / 2 + 1 / 6])


def _centers(hset, method):
    """The output arrays of one center method, for bit-for-bit comparison."""
    if method == "exact":
        res = jeffreys_centroid_cat(hset)
        return res.center.probs, np.array([res.lam])
    if method == "jfr":
        return (jfr_center_cat(hset).probs,)
    return (gb_center_cat(hset)[0].probs,)


class TestCachedMeans:
    """HistogramSet computes its sided means and the JFR center's bins once and
    shares them across centers."""

    METHODS = ("exact", "jfr", "gb")

    @pytest.mark.parametrize("order", list(itertools.permutations(METHODS)))
    def test_any_order_matches_fresh_sets(self, rng, order):
        for d, n in ((2, 2), (16, 2), (256, 5)):
            rows = np.array([random_simplex(rng, d, 1e-9) for _ in range(n)])
            w = rng.uniform(0.2, 1.0, size=n)
            w /= w.sum()
            shared = HistogramSet(rows, w)
            got = {m: _centers(shared, m) for m in order}
            for m in self.METHODS:
                fresh = _centers(HistogramSet(rows, w), m)
                for x, y in zip(got[m], fresh):
                    assert np.array_equal(x, y)

    def test_means_computed_once_per_set(self, rng, monkeypatch):
        calls = {"arithmetic_mean": 0, "normalized_geometric_mean": 0}
        for name in calls:
            original = getattr(categorical, name)

            def counted(hset, _name=name, _original=original):
                calls[_name] += 1
                return _original(hset)

            monkeypatch.setattr(categorical, name, counted)
        hset = random_hset(rng, 16, 3)
        jeffreys_centroid_cat(hset)
        jfr_center_cat(hset)
        gb_center_cat(hset)
        unnormalized_center(hset)
        assert calls == {"arithmetic_mean": 1, "normalized_geometric_mean": 1}
        random_hset(rng, 16, 3).means
        assert calls == {"arithmetic_mean": 2, "normalized_geometric_mean": 2}

    @pytest.mark.parametrize("order", list(itertools.permutations(METHODS)))
    def test_jfr_bins_computed_once_per_set(self, rng, monkeypatch, order):
        calls = []
        original = categorical._jfr_probs

        def counted(a, g):
            calls.append((a, g))
            return original(a, g)

        monkeypatch.setattr(categorical, "_jfr_probs", counted)
        hset = random_hset(rng, 16, 3)
        for m in order:
            _centers(hset, m)
        unnormalized_center(hset)
        assert len(calls) == 1
        random_hset(rng, 16, 3).jfr_probs
        assert len(calls) == 2

    def test_jfr_bins_equal_a_fresh_computation(self, rng):
        hset = random_hset(rng, 256, 5)
        got = hset.jfr_probs
        assert np.array_equal(got, categorical._jfr_probs(*hset.means))
        assert np.shares_memory(jfr_center_cat(hset).probs, got)

    def test_jfr_center_is_read_only(self, rng):
        hset = random_hset(rng, 8, 3)
        before = hset.jfr_probs.copy()
        center = jfr_center_cat(hset)
        with pytest.raises(ValueError):
            center.probs[0] = 0.5
        assert np.array_equal(hset.jfr_probs, before)
        assert np.array_equal(jfr_center_cat(hset).probs, before)

    def test_means_equal_the_public_means(self, rng):
        hset = random_hset(rng, 8, 4)
        a, g = hset.means
        assert np.array_equal(a, arithmetic_mean(hset).probs)
        assert np.array_equal(g, normalized_geometric_mean(hset).probs)

    def test_stored_arrays_are_read_only(self, rng):
        hset = random_hset(rng, 4, 3)
        for arr in (hset.rows, hset.weights, *hset.means, hset.jfr_probs):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @pytest.mark.parametrize("order", list(itertools.permutations(METHODS)))
    def test_cached_arrays_are_frozen_in_place(self, rng, order):
        # the cache holds the arrays the library computed, read-only, not views;
        # the caller's rows and weights keep their flags
        rows = np.array([random_simplex(rng, 16) for _ in range(3)])
        weights = np.array([0.2, 0.3, 0.5])
        hset = HistogramSet(rows, weights)
        for m in order:
            _centers(hset, m)
        for arr in (*hset.means, hset.jfr_probs):
            assert arr.base is None and not arr.flags.writeable
        assert rows.flags.writeable and weights.flags.writeable

    def test_caller_arrays_stay_writable_and_uncopied(self, rng):
        rows = np.array([random_simplex(rng, 4) for _ in range(3)])
        weights = np.array([0.2, 0.3, 0.5])
        hset = HistogramSet(rows, weights)
        assert rows.flags.writeable and weights.flags.writeable
        assert np.shares_memory(hset.rows, rows)
        assert np.shares_memory(hset.weights, weights)


class TestCOfLambda:
    def test_equal_means_lambda_zero(self, rng):
        p = SimplexPoint(random_simplex(rng, 4))
        c = c_of_lambda(p, p, 0.0)
        assert np.abs(c - p.probs).max() < 1e-12

    def test_mass_monotone_decreasing_in_lambda(self, rng):
        # direction of the bisection predicate, verified numerically
        for _ in range(10):
            hset = random_hset(rng, 5, 3)
            a, g = arithmetic_mean(hset), normalized_geometric_mean(hset)
            lams = np.linspace(-2.0, 0.0, 15)
            masses = [c_of_lambda(a, g, lam).sum() for lam in lams]
            assert all(m0 > m1 for m0, m1 in zip(masses, masses[1:]))

    def test_mass_near_one_at_converged_lambda(self, rng):
        hset = random_hset(rng, 6, 3)
        res = jeffreys_centroid_cat(hset, 1e-10)
        a, g = arithmetic_mean(hset), normalized_geometric_mean(hset)
        assert abs(c_of_lambda(a, g, res.lam).sum() - 1.0) < 1e-8

    @pytest.mark.parametrize(
        "a, g, match",
        [
            ([0.0, 1.0], [0.5, 0.5], "non-positive entry"),  # was [nan, 0.727]
            ([0.5, 0.5], [0.5, np.inf], "non-finite"),
            ([0.5, 0.5], [0.2, 0.3, 0.5], "dimension mismatch"),
        ],
    )
    def test_raw_means_are_parsed_as_simplex_points(self, a, g, match):
        with pytest.raises(DomainError, match=match):
            c_of_lambda(a, g, 0.0)


class TestJeffreysCentroid:
    def test_all_rows_equal(self, rng):
        p = random_simplex(rng, 4)
        res = jeffreys_centroid_cat(HistogramSet.uniform([p, p, p]), 1e-10)
        assert np.abs(res.center.probs - p).max() < 1e-9
        assert abs(res.lam) < 1e-9

    def test_symmetric_pair(self):
        res = jeffreys_centroid_cat(HistogramSet.uniform([[0.8, 0.2], [0.2, 0.8]]), 1e-10)
        assert np.allclose(res.center.probs, 0.5, atol=1e-10)

    def test_fixed_point_and_mass(self, rng):
        for _ in range(20):
            hset = random_hset(rng, int(rng.integers(2, 16)), int(rng.integers(2, 5)))
            res = jeffreys_centroid_cat(hset, 1e-10)
            g = normalized_geometric_mean(hset)
            fp = abs(res.lam + kl_cat(res.center, g))
            assert fp <= 1e-6
            assert res.mass_residual <= 1e-8
            assert res.lam <= 1e-12
            assert res.diagnostics.status == "converged"

    def test_loss_no_worse_than_proxies(self, rng):
        for _ in range(20):
            hset = random_hset(rng, int(rng.integers(2, 32)), int(rng.integers(2, 6)))
            ref = jeffreys_centroid_cat(hset, 1e-10).center
            loss_ref = jeffreys_loss_cat(hset, ref)
            assert loss_ref <= jeffreys_loss_cat(hset, jfr_center_cat(hset)) + 1e-12
            gb, _ = gb_center_cat(hset)
            assert loss_ref <= jeffreys_loss_cat(hset, gb) + 1e-12

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            jeffreys_centroid_cat(HistogramSet.uniform(TABLE2), 0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    @pytest.mark.parametrize("center", [jeffreys_centroid_cat, gb_center_cat])
    def test_max_iter_validation(self, center, max_iter):
        # max_iter=0 used to return the arithmetic mean after no step, "converged"
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            center(HistogramSet([[0.2, 0.8], [0.6, 0.4]], None), max_iter=max_iter)


class TestNewtonSolve:
    """The safeguarded Newton multiplier solve against the bisection oracle."""

    @staticmethod
    def check_against_oracle(hset):
        res = jeffreys_centroid_cat(hset)
        lam, center = bisect_lambda(hset)
        assert abs(res.lam - lam) <= 1e-12
        assert np.abs(res.center.probs - center).max() <= 1e-12
        assert res.diagnostics.status == "converged"
        assert res.diagnostics.iterations <= 6
        assert res.diagnostics.final_gap <= 1e-10

    @pytest.mark.parametrize("d", [2, 16, 256, 4096])
    def test_dirichlet_pairs(self, d):
        for trial in range(12):
            self.check_against_oracle(HistogramSet.uniform(sample_histogram_pair(301, d, trial)))

    @pytest.mark.parametrize("k", range(1, 12))
    def test_table2_family(self, k):
        self.check_against_oracle(table2_hset(10.0**-k))

    def test_exact_root_is_accepted(self, monkeypatch):
        # Found by search from the JFR seed: the second Newton iterate lands
        # where the computed mass is exactly 1, so the next Newton iterate
        # equals the bracket's upper end.  Rejecting it as outside the bracket
        # bisects from there (7 iterations instead of 3).
        hset = HistogramSet.uniform(
            [[0.9855902777657048, 0.014409722234295153], [0.786808680829478, 0.21319131917052203]]
        )
        a = hset.means[0]
        masses = []

        def recording(w0):
            def wrapped(*args):
                w = w0(*args)
                masses.append(float((a / w).sum()))
                return w

            return wrapped

        # the solve's candidate is a / W: W comes from a cold lambert_w0 at
        # the JFR seed, and is carried from the previous W at each iterate
        monkeypatch.setattr(categorical, "lambert_w0", recording(lambert_w0))
        monkeypatch.setattr(categorical, "_w0_shifted", recording(_w0_shifted))
        res = jeffreys_centroid_cat(hset)
        assert 1.0 in masses
        assert res.diagnostics.iterations <= 6
        assert res.diagnostics.status == "converged"

    @pytest.mark.parametrize(
        "kind, value", [("alpha", k) for k in range(1, 17)] + [("d", d) for d in (2, 16, 256, 4096)]
    )
    def test_bracket_low_end_has_unit_mass_in_one_bin(self, monkeypatch, kind, value):
        # lam_lo = a_k + log g_k - 1 at k = argmax g makes W0's argument in bin k
        # a_k e^{a_k}, so W_k = a_k, c_k = 1 and s(lam_lo) >= 1
        if kind == "alpha":
            sets = [table2_hset(10.0**-value)]
        else:
            sets = [HistogramSet.uniform(sample_histogram_pair(303, value, t)) for t in range(4)]
        low_ends = []

        def recording(fun, slope, lo, *rest):
            low_ends.append(lo)
            return _bracketed_newton(fun, slope, lo, *rest)

        monkeypatch.setattr(categorical, "_bracketed_newton", recording)
        for hset in sets:
            jeffreys_centroid_cat(hset)
            a, g = hset.means
            k = int(np.argmax(g))
            assert low_ends[-1] == bracket_low(a, g)
            w = lambert_w0((a / g) * math.e * math.exp(low_ends[-1]))
            assert float((a / w).sum()) >= 1.0 - 1e-12
            assert w[k] == pytest.approx(a[k], rel=1e-14, abs=0.0)

    @staticmethod
    def check_warm_start(hset):
        """The warm-started solve against cold evaluations: the Newton iteration
        count of the cold reference from the same seed, unit cold mass at the
        returned lambda, and the center of the bisection oracle."""
        res = jeffreys_centroid_cat(hset)
        a, g = hset.means
        assert res.diagnostics.iterations == cold_newton_iterations(hset, jfr_seed(hset))
        assert abs(float(c_of_lambda(a, g, res.lam).sum()) - 1.0) <= 1e-10
        assert np.abs(res.center.probs - bisect_lambda(hset)[1]).max() <= 1e-12
        return res

    @pytest.mark.parametrize("d", [2, 16, 256, 4096])
    def test_warm_start_dirichlet_sets(self, d):
        rng = np.random.default_rng([302, d])
        for _ in range(6):
            self.check_warm_start(HistogramSet.uniform(rng.dirichlet(np.ones(d), size=4)))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_warm_start_table2_family(self, k):
        self.check_warm_start(table2_hset(10.0**-k))

    def test_warm_start_after_a_bisection_fallback(self):
        # Found by search over pairs of nearly equal rows.  s is convex and
        # decreasing in lambda, and the JFR seed was left of the root on every
        # set searched, so Newton from it leaves the bracket only by rounding.
        # Here the seed is -1.2e-16, at the rounding level of the masses, with
        # s > 1; the Newton iterate passes 0, so the first step is the
        # bisection fallback and the next W is predicted across the half
        # bracket.
        hset = HistogramSet.uniform(
            [
                [9.699519596066245e-09, 3.8655706758719685e-10, 1.0098513110040877e-09, 0.9993543020604535, 0.0006456868436186134],
                [9.702317574633165e-09, 3.8655827430200093e-10, 1.01006889318407e-09, 0.9993542745109107, 0.0006457143901445585],
            ]
        )
        a, g = hset.means
        lam = jfr_seed(hset)
        c = a / lambert_w0((a / g) * math.e * math.exp(lam))  # the solve's first candidate
        newton = lam + (c.sum() - 1.0) / np.sum(c * c / (c + a))
        assert c.sum() > 1.0 and lam < 0.0 < newton
        res = self.check_warm_start(hset)
        # one step, to the midpoint of [lambda_J, 0], ends the solve
        assert res.diagnostics.iterations == 1 and res.lam == 0.5 * lam

    def test_a_jump_larger_than_one_restarts_w(self):
        # W(0) carried to lambda_lo, a step of about -7.4 at d = 4096: FSC
        # steps from W(0) would take the log of a negative number (a
        # floating-point warning fails the test), so W restarts from
        # Winitzki's start and lands at rounding
        rng = np.random.default_rng([303, 4096])
        a, g = HistogramSet.uniform(rng.dirichlet(np.ones(4096), size=2)).means
        r = (a / g) * math.e
        lam_lo = float(np.max(a + np.log(g)) - 1.0)
        assert lam_lo < -7.0
        x = r * math.exp(lam_lo)
        w0 = lambert_w0(r)
        w = _w0_shifted(x, w0, 1.0 + w0, lam_lo)
        assert np.abs(w / polished_w0(x) - 1.0).max() <= 4.5e-16

    # Newton iterations of the solve from lambda = 0 (the cold reference) and
    # from the JFR seed, on Table 2's alpha = 10^-k, k = 1..16
    TABLE2_FROM_ZERO = [3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6]
    TABLE2_SEEDED = [2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]

    @pytest.mark.parametrize("k", range(1, 17))
    def test_seed_is_no_slower_on_peaked_sets(self, k):
        hset = table2_hset(10.0**-k)
        res = jeffreys_centroid_cat(hset)
        from_zero = cold_newton_iterations(hset, 0.0)
        assert from_zero == self.TABLE2_FROM_ZERO[k - 1]
        assert res.diagnostics.iterations == self.TABLE2_SEEDED[k - 1] <= from_zero
        assert np.abs(res.center.probs - bisect_lambda(hset)[1]).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 16, 256, 4096])
    def test_seed_is_no_slower_on_dirichlet_pairs(self, d):
        rng = np.random.default_rng([304, d])
        seeded, from_zero = [], []
        for _ in range(12):
            hset = HistogramSet.uniform(rng.dirichlet(np.ones(d), size=2))
            res = jeffreys_centroid_cat(hset)
            seeded.append(res.diagnostics.iterations)
            from_zero.append(cold_newton_iterations(hset, 0.0))
            assert np.abs(res.center.probs - bisect_lambda(hset)[1]).max() <= 1e-12
        assert np.mean(seeded) <= np.mean(from_zero)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_bracket_that_does_not_straddle_raises(self, monkeypatch, scale):
        # W times a constant divides every candidate mass by it: the Table 2
        # set's masses, 0.999 at lambda = 0 to 1.53 at lambda_lo, move all
        # above (scale 0.5) or all below (scale 2) unit mass
        monkeypatch.setattr(categorical, "lambert_w0", lambda x: scale * lambert_w0(x))
        monkeypatch.setattr(
            categorical, "_w0_shifted",
            lambda x, w, wp1, dlam: scale * _w0_shifted(x, w / scale, 1.0 + w / scale, dlam),
        )
        with pytest.raises(NumericalError, match="does not straddle unit mass"):
            jeffreys_centroid_cat(HistogramSet.uniform(TABLE2))

    def test_max_iter_status(self):
        res = jeffreys_centroid_cat(table2_hset(1e-3), epsilon=1e-10, max_iter=1)
        assert res.diagnostics.iterations == 1
        assert res.diagnostics.status == "max_iter"
        assert res.diagnostics.final_gap > 1e-10

    # (lam, iterations, final_gap, mass_residual, center . u) of the solve at
    # the default epsilon, keyed by Table 2's alpha or by d of the Dirichlet
    # pair sample_histogram_pair(0, d, 0), with u drawn from
    # default_rng(1000 + bins); values computed while the solve ran its own
    # inline Newton loop, before it moved to special_functions.  The solve's
    # own numbers are pinned bit for bit, which assumes a numpy build whose
    # exp, log and sum round as the one they were computed with; center . u
    # is a BLAS dot product, whose summation order varies, so it is held to
    # 1e-15 relative.
    FINGERPRINTS = {
        ("alpha", 1e-1): (-0.0021897681012637772, 2, 4.5589378573761456e-12, 0.0, -0.9341837255074239),
        ("alpha", 1e-6): (-0.21043137369952902, 4, 9.671483765707115e-11, 0.0, -1.0040865563529304),
        ("alpha", 1e-11): (-0.27448897607075246, 4, 2.9069742121813725e-13, 0.0, -1.0131512166873633),
        ("d", 2): (-0.008354481209371403, 3, 0.0, 0.0, -0.5966474021715126),
        ("d", 16): (-0.007798018862311944, 3, 4.424279776771911e-16, 1.1102230246251565e-16, -0.0554920386915343),
        ("d", 256): (-0.015044492398732946, 3, 1.9400385835068093e-14, 0.0, 0.08337504159734767),
    }

    @pytest.mark.parametrize("key", FINGERPRINTS, ids=lambda k: f"{k[0]}={k[1]:g}")
    def test_solve_unchanged(self, key):
        kind, value = key
        hset = table2_hset(value) if kind == "alpha" else HistogramSet.uniform(
            sample_histogram_pair(0, value, 0)
        )
        res = jeffreys_centroid_cat(hset)
        u = np.random.default_rng(1000 + hset.dim).normal(size=hset.dim)
        diag = res.diagnostics
        *solve, dot = self.FINGERPRINTS[key]
        assert (res.lam, diag.iterations, diag.final_gap, res.mass_residual) == tuple(solve)
        assert float(res.center.probs @ u) == pytest.approx(dot, rel=1e-15, abs=0.0)


class TestStartedW:
    """The solve's W: one cold lambert_w0 call at the JFR multiplier, then each
    W carried from the previous one by Fritsch-Shafer-Crowley steps."""

    TINY_BIN_EXPONENTS = [20, 50, 100, 150, 200, 250, 300]
    DIRICHLET = [
        HistogramSet.uniform(sample_histogram_pair(301, d, trial))
        for d in (2, 16, 256, 4096) for trial in range(12)
    ]
    TABLE2 = [table2_hset(10.0**-k) for k in range(1, 17)]
    TINY = [tiny_bin_hset(e) for e in TINY_BIN_EXPONENTS]

    @pytest.mark.parametrize("e", TINY_BIN_EXPONENTS)
    def test_tiny_bins(self, e):
        hset = tiny_bin_hset(e)
        res = jeffreys_centroid_cat(hset)
        assert res.diagnostics.status == "converged"
        assert np.abs(res.center.probs - bisect_lambda(hset)[1]).max() <= 1e-12

    @pytest.mark.parametrize("family", ["DIRICHLET", "TABLE2", "TINY"])
    def test_every_w_is_exact(self, monkeypatch, family):
        first, carried = [], []

        def recording(fn, into):
            def wrapped(x, *args):
                w = fn(x, *args)
                into.append((x, w))
                return w

            return wrapped

        monkeypatch.setattr(categorical, "lambert_w0", recording(lambert_w0, first))
        monkeypatch.setattr(categorical, "_w0_shifted", recording(_w0_shifted, carried))
        for hset in getattr(self, family):
            jeffreys_centroid_cat(hset)
        assert len(first) == len(getattr(self, family))  # one call per solve
        for x, w in first + carried:
            assert np.abs(w / polished_w0(x) - 1.0).max() <= 1e-15


class TestHighPrecisionCenters:
    """The solve against centers frozen from a 40-digit mpmath solve of the
    same fixed point from the same float rows, to 1e-15 relative per bin."""

    # hist-pairs sets of seed 300 (perfbench/workloads.py): 37, 73 and 127
    # are the first 150 sets' hardest for a W that stops short of rounding
    HIST_PAIRS = {
        37: [
            0.07021118971072875, 0.05581700253606738, 0.0759655750411061,
            0.08531281295702013, 0.04627944798503962, 0.06562393964477321,
            0.08123989591562115, 0.08793533694684622, 0.020240045017079652,
            0.19160969605042114, 0.013276975295670651, 0.01908934397872483,
            0.08428238911807306, 0.04467734387067439, 0.0351148421755364,
            0.023324163756617347,
        ],
        73: [
            0.014564912898727848, 0.1000914076220442, 0.04669429917959348,
            0.048029234522198684, 0.059430495238077294, 0.03310379486485668,
            0.08008334244572632, 0.04142542402800666, 0.04985939479232907,
            0.01820473971711162, 0.04160988872607848, 0.15751190395582595,
            0.021622210105451296, 0.07713208296933849, 0.17903211367077834,
            0.031604755263855595,
        ],
        127: [
            0.04416972040353235, 0.00819444549472449, 0.2568914654497829,
            0.06061313746467636, 0.06765588855282986, 0.04704170672875663,
            0.031111459248501346, 0.03901045378517526, 0.03760854695418622,
            0.09273053355115961, 0.0643634742495549, 0.02838109615307773,
            0.12179509261118437, 0.04839365308148856, 0.03431628474160549,
            0.01772304152976391,
        ],
    }
    TABLE2_1E6 = [0.9291523635050027, 0.03542381824749865, 0.03542381824749865]

    def test_hist_pairs_sets(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        for k, center in self.HIST_PAIRS.items():
            hset = HistogramSet.uniform(workloads.hist_inputs(300, k, 2, 16)["rows"])
            probs = jeffreys_centroid_cat(hset).center.probs
            assert np.abs(probs / np.array(center) - 1.0).max() <= 1e-15

    def test_table2(self):
        probs = jeffreys_centroid_cat(table2_hset(1e-6)).center.probs
        assert np.abs(probs / np.array(self.TABLE2_1E6) - 1.0).max() <= 1e-15


class TestJFRCenter:
    def test_all_rows_equal(self, rng):
        p = random_simplex(rng, 5)
        c = jfr_center_cat(HistogramSet.uniform([p, p]))
        assert np.abs(c.probs - p).max() < 1e-12

    def test_symmetric_pair(self):
        c = jfr_center_cat(HistogramSet.uniform([[0.8, 0.2], [0.2, 0.8]]))
        assert np.allclose(c.probs, 0.5)

    def test_unit_mass_analytic(self, rng):
        for _ in range(20):
            hset = random_hset(rng, int(rng.integers(2, 64)), int(rng.integers(2, 6)))
            assert abs(jfr_center_cat(hset).probs.sum() - 1.0) < 1e-14

    def test_table2_info_eps(self):
        hset = HistogramSet.uniform(TABLE2)
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        info = approximation_factor(hset, jfr_center_cat(hset), ref)
        assert info == pytest.approx(6.882e-09, rel=0.05)


class TestGBCenterCat:
    def test_all_rows_equal_zero_iterations(self, rng):
        p = random_simplex(rng, 4)
        center, diag = gb_center_cat(HistogramSet.uniform([p, p]))
        assert diag.iterations == 0
        assert np.abs(center.probs - p).max() < 1e-12

    @pytest.mark.parametrize("equal_rows", [True, False])
    def test_center_does_not_share_the_cached_means(self, rng, equal_rows):
        # equal rows take no step, where the last iterate is the cached mean a
        p = random_simplex(rng, 4)
        hset = HistogramSet.uniform([p, p if equal_rows else random_simplex(rng, 4)])
        center, diag = gb_center_cat(hset)
        assert (diag.iterations == 0) == equal_rows
        assert center.probs.flags.writeable
        assert not any(np.shares_memory(center.probs, m) for m in hset.means)

    def test_symmetric_pair(self):
        center, _ = gb_center_cat(HistogramSet.uniform([[0.8, 0.2], [0.2, 0.8]]), 1e-10)
        assert np.allclose(center.probs, 0.5)

    def test_table2_values(self):
        hset = HistogramSet.uniform(TABLE2)
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        center, _ = gb_center_cat(hset)
        assert approximation_factor(hset, center, ref) == pytest.approx(1.338e-06, rel=0.05)
        assert tv_cat(center, ref) == pytest.approx(3.480e-04, rel=0.05)

    def test_gap_non_increasing(self, rng):
        # monitored expectation: the TV gap never grows along the sequence
        for _ in range(10):
            hset = random_hset(rng, 8, 2)
            a = arithmetic_mean(hset).probs
            g = normalized_geometric_mean(hset).probs
            prev = 0.5 * np.abs(a - g).sum()
            for _ in range(30):
                a, g = categorical._gb_step_cat(a, g)
                gap = 0.5 * np.abs(a - g).sum()
                assert gap <= prev + 1e-15
                prev = gap

    # (iterations, final_gap, center . u) at the default epsilon, taken before
    # the loop moved into gauss_bregman._double_sequence: Table 2's pair at
    # alpha, and Table 1's seed-0 pair (d, trial), with u drawn from
    # default_rng(1000 + d).  (iterations, final_gap) are pinned bit for bit;
    # center . u is a BLAS dot product, held to 1e-15 relative.
    FINGERPRINTS = {
        ("alpha", 1e-1, 0): (1, 0.0006467553082500077, -0.9340970565430508),
        ("alpha", 1e-6, 0): (2, 0.028506999299256056, -0.9976630805551611),
        ("alpha", 1e-11, 0): (2, 0.06708122714557799, -1.000790570825682),
        ("d", 2, 0): (1, 0.0015850419695515594, -0.5983343867602232),
        ("d", 16, 0): (1, 0.003989151453257204, -0.052777697338041676),
        ("d", 256, 0): (1, 0.00871597651386325, 0.08441137810986071),
        ("d", 256, 11): (1, 0.004693239291956107, 0.09474964074816072),
    }
    # pinned sets whose first TV gap is already <= epsilon
    WITHIN_EPSILON = [("alpha", 1e-1, 0), ("d", 16, 0), ("d", 256, 11)]

    @staticmethod
    def pinned_hset(key):
        kind, value, trial = key
        if kind == "alpha":
            return table2_hset(value)
        return HistogramSet.uniform(sample_histogram_pair(0, value, trial))

    @pytest.mark.parametrize("key", FINGERPRINTS, ids=lambda k: "-".join(map(str, k)))
    def test_center_unchanged(self, key):
        hset = self.pinned_hset(key)
        center, diag = gb_center_cat(hset)
        u = np.random.default_rng(1000 + hset.dim).normal(size=hset.dim)
        *loop, dot = self.FINGERPRINTS[key]
        assert (diag.iterations, diag.final_gap) == tuple(loop)
        assert float(center.probs @ u) == pytest.approx(dot, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("key", WITHIN_EPSILON, ids=lambda k: "-".join(map(str, k)))
    def test_a_start_within_epsilon_takes_the_owed_step(self, key):
        hset = self.pinned_hset(key)
        a, g = hset.means
        assert tv_cat(SimplexPoint(a), SimplexPoint(g)) <= categorical.GB_CAT_EPSILON
        assert gb_center_cat(hset)[1].iterations == 1

    def test_converged_iteration_matches_generic_gb(self, rng):
        # run to convergence: the probability-space sequence and the generic
        # natural-parameter sequence share their limit
        hset = random_hset(rng, 4, 3, floor=1e-3)
        center, _ = gb_center_cat(hset, 1e-12)
        gen = cat_generator(4)
        thetas = np.array([cat_to_natural(SimplexPoint(r)) for r in hset.rows])
        theta, _ = gb_center(gen, WeightedParamSet(thetas, hset.weights), ToleranceConfig(1e-12, 500))
        generic = cat_from_natural(theta)
        assert tv_cat(center, generic) < 1e-10

    def test_proxies_within_tv_envelope(self, rng):
        for d in (4, 32, 256):
            hset = HistogramSet.uniform(
                np.array([random_simplex(rng, d), random_simplex(rng, d)])
            )
            ref = jeffreys_centroid_cat(hset, 1e-10).center
            gb, _ = gb_center_cat(hset)
            assert tv_cat(gb, ref) <= 5e-2
            assert tv_cat(jfr_center_cat(hset), ref) <= 5e-2


class TestDivergences:
    def test_coincidence_zero(self, rng):
        p = SimplexPoint(random_simplex(rng, 4))
        assert kl_cat(p, p) == 0.0
        assert jeffreys_cat(p, p) == 0.0
        assert tv_cat(p, p) == 0.0

    def test_kl_value(self):
        p, q = SimplexPoint([0.5, 0.5]), SimplexPoint([0.25, 0.75])
        assert kl_cat(p, q) == pytest.approx(
            0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), abs=1e-14
        )

    def test_jeffreys_is_symmetrized_kl(self, rng):
        for _ in range(20):
            p = SimplexPoint(random_simplex(rng, 6))
            q = SimplexPoint(random_simplex(rng, 6))
            assert jeffreys_cat(p, q) == pytest.approx(
                kl_cat(p, q) + kl_cat(q, p), rel=1e-12, abs=1e-12
            )
            assert 0.0 <= tv_cat(p, q) < 1.0

    @pytest.mark.parametrize(
        "name", ["kl_cat", "jeffreys_cat", "tv_cat", "jeffreys_loss_cat", "approximation_factor"]
    )
    def test_dimension_mismatch_is_a_domain_error(self, name):
        p, q = SimplexPoint([0.5, 0.5]), SimplexPoint([0.2, 0.3, 0.5])
        hset = HistogramSet.uniform([p.probs, [0.25, 0.75]])
        call = {
            "kl_cat": lambda: kl_cat(p, q),
            "jeffreys_cat": lambda: jeffreys_cat(p, q),
            "tv_cat": lambda: tv_cat(p, q),
            "jeffreys_loss_cat": lambda: jeffreys_loss_cat(hset, q),
            "approximation_factor": lambda: approximation_factor(hset, q, p),
        }[name]
        with pytest.raises(DomainError, match="dimension mismatch: 2 vs 3 bins"):
            call()


class TestApproximationFactor:
    def test_zero_at_reference(self, rng):
        hset = random_hset(rng, 5, 3)
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        assert approximation_factor(hset, ref, ref) == 0.0

    def test_degenerate_rejected(self, rng):
        p = random_simplex(rng, 4)
        hset = HistogramSet.uniform([p, p])
        with pytest.raises(NumericalError):
            approximation_factor(hset, SimplexPoint(p), SimplexPoint(p))


class TestUnnormalizedCenter:
    def test_all_rows_equal(self, rng):
        p = random_simplex(rng, 4)
        c0, s = unnormalized_center(HistogramSet.uniform([p, p]))
        assert np.abs(c0 - p).max() < 1e-12
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair(self):
        c0, s = unnormalized_center(HistogramSet.uniform([[0.8, 0.2], [0.2, 0.8]]))
        assert np.allclose(c0, 0.5) and s == pytest.approx(1.0, abs=1e-12)

    def test_table2_mass_below_one(self):
        _, s = unnormalized_center(HistogramSet.uniform(TABLE2))
        assert s < 1.0
        # the normalized c(0) approximates the centroid within ~|s-1|
        hset = HistogramSet.uniform(TABLE2)
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        c0, s = unnormalized_center(hset)
        factor = approximation_factor(hset, SimplexPoint(c0 / s), ref)
        assert factor >= -1e-12


class TestGeneratorConsistency:
    def test_jeffreys_cat_equals_symmetrized_bregman(self, rng):
        from jeffreys_centers import symmetrized_bregman

        gen = cat_generator(5)
        for _ in range(10):
            p = SimplexPoint(random_simplex(rng, 5, floor=1e-6))
            q = SimplexPoint(random_simplex(rng, 5, floor=1e-6))
            sb = symmetrized_bregman(gen, cat_to_natural(p), cat_to_natural(q))
            assert jeffreys_cat(p, q) == pytest.approx(sb, rel=1e-10, abs=1e-12)

    def test_generic_loss_matches_categorical_loss_on_table2(self):
        from jeffreys_centers import jeffreys_loss

        gen = cat_generator(3)
        hset = HistogramSet.uniform(TABLE2)
        thetas = np.array([cat_to_natural(SimplexPoint(r)) for r in hset.rows])
        pset = WeightedParamSet(thetas, hset.weights)
        query = jfr_center_cat(hset)
        lhs = jeffreys_loss(gen, pset, cat_to_natural(query))
        assert lhs == pytest.approx(jeffreys_loss_cat(hset, query), rel=1e-10)


class TestPermutationEquivariance:
    def test_all_centers(self, rng):
        hset = random_hset(rng, 6, 3)
        perm = rng.permutation(6)
        permuted = HistogramSet(hset.rows[:, perm], hset.weights)
        for fn in (
            lambda h: jeffreys_centroid_cat(h, 1e-10).center,
            jfr_center_cat,
            lambda h: gb_center_cat(h)[0],
            arithmetic_mean,
            normalized_geometric_mean,
        ):
            direct = fn(permuted).probs
            mapped = fn(hset).probs[perm]
            assert np.abs(direct - mapped).max() < 1e-10
