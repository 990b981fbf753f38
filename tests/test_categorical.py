import itertools
import math

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
    c_of_lambda,
    cat_from_natural,
    cat_generator,
    cat_to_natural,
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
from jeffreys_centers.special_functions import _w0_halley, lambert_w0

from conftest import random_simplex

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


def cold_newton_iterations(hset, epsilon=1e-10, max_iter=200):
    """Reference: the safeguarded Newton solve with every candidate evaluated
    cold by c_of_lambda; returns the number of Newton iterations."""
    a, g = hset.means
    lo, hi, lam = float(np.max(a + np.log(g)) - 1.0), 0.0, 0.0
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
        "nan": ([np.nan, 0.5, 0.5], "non-finite or non-positive bin"),
        "pos_inf": ([np.inf, 0.5, 0.5], "non-finite or non-positive bin"),
        "neg_inf": ([-np.inf, 0.5, 0.5], "non-finite or non-positive bin"),
        "zero": ([0.0, 0.5, 0.5], "non-finite or non-positive bin"),
        "negative": ([-0.1, 0.6, 0.5], "non-finite or non-positive bin"),
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

    def test_histogram_rows_without_bins(self):
        with pytest.raises(DomainError, match="histogram row 0 "):
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
    """HistogramSet computes its sided means once and shares them across centers."""

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

    def test_means_equal_the_public_means(self, rng):
        hset = random_hset(rng, 8, 4)
        a, g = hset.means
        assert np.array_equal(a, arithmetic_mean(hset).probs)
        assert np.array_equal(g, normalized_geometric_mean(hset).probs)

    def test_stored_arrays_are_read_only(self, rng):
        hset = random_hset(rng, 4, 3)
        for arr in (hset.rows, hset.weights, *hset.means):
            with pytest.raises(ValueError):
                arr[0] = 0.5

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
        # Found by search: the third Newton iterate lands where the computed
        # mass is exactly 1, so the next Newton iterate equals the bracket's
        # upper end.  Rejecting it as outside the bracket bisects from there
        # (13 iterations instead of 4).
        hset = HistogramSet.uniform(
            [[0.01515999847426323, 0.9848400015257368], [0.8148038500151109, 0.1851961499848891]]
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
        # lambda_lo and 0, and from the warm-started Halley loop at each iterate
        monkeypatch.setattr(categorical, "lambert_w0", recording(lambert_w0))
        monkeypatch.setattr(categorical, "_w0_halley", recording(_w0_halley))
        res = jeffreys_centroid_cat(hset)
        assert 1.0 in masses
        assert res.diagnostics.iterations <= 6
        assert res.diagnostics.status == "converged"

    @staticmethod
    def check_warm_start(hset):
        """The warm-started solve against cold evaluations: the Newton iteration
        count of the cold reference, unit cold mass at the returned lambda, and
        the center of the bisection oracle."""
        res = jeffreys_centroid_cat(hset)
        a, g = hset.means
        assert res.diagnostics.iterations == cold_newton_iterations(hset)
        assert abs(float(c_of_lambda(a, g, res.lam).sum()) - 1.0) <= 1e-10
        assert np.abs(res.center.probs - bisect_lambda(hset)[1]).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 16, 256, 4096])
    def test_warm_start_dirichlet_sets(self, d):
        rng = np.random.default_rng([302, d])
        for _ in range(6):
            self.check_warm_start(HistogramSet.uniform(rng.dirichlet(np.ones(d), size=4)))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_warm_start_table2_family(self, k):
        self.check_warm_start(table2_hset(10.0**-k))

    def test_warm_start_after_a_bisection_fallback(self):
        # Found by search over sets of log-uniform bins: the Newton iterate from
        # lambda = 0 falls below lambda_lo, so the first step is the bisection
        # fallback and the next W is predicted across the half bracket.
        hset = HistogramSet.uniform(
            [
                [0.0037701533437101697, 0.9653750427018268, 0.00873746083295551, 0.022117343121507357],
                [0.9999999959677108, 6.030972102309495e-14, 5.1157636808922293e-11, 3.981071349363443e-09],
            ]
        )
        a, g = hset.means
        c0 = c_of_lambda(a, g, 0.0)
        newton = (c0.sum() - 1.0) / np.sum(c0 * c0 / (c0 + a))
        assert newton < np.max(a + np.log(g)) - 1.0
        self.check_warm_start(hset)

    def test_halley_from_the_predictor_across_the_bracket(self):
        # W(0) carried to lambda_lo, a step of about -7.4 at d = 4096: the
        # predictor W exp(dlambda / (1 + W)) is positive, so Halley stays on
        # the W0 branch and meets lambert_w0's residual test within 4 steps
        rng = np.random.default_rng([303, 4096])
        a, g = HistogramSet.uniform(rng.dirichlet(np.ones(4096), size=2)).means
        r = (a / g) * math.e
        lam_lo = float(np.max(a + np.log(g)) - 1.0)
        assert lam_lo < -7.0
        w = lambert_w0(r)
        x = r * math.exp(lam_lo)
        w = _w0_halley(x, w * np.exp(lam_lo / (1.0 + w)), ToleranceConfig(max_iter=4))
        assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * np.maximum(1.0, x))
        assert np.abs(w / lambert_w0(x) - 1.0).max() <= 1e-10

    def test_max_iter_status(self):
        res = jeffreys_centroid_cat(table2_hset(1e-3), epsilon=1e-10, max_iter=1)
        assert res.diagnostics.iterations == 1
        assert res.diagnostics.status == "max_iter"
        assert res.diagnostics.final_gap > 1e-10


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
                u = np.sqrt(a * g)
                a, g = 0.5 * (a + g), u / u.sum()
                gap = 0.5 * np.abs(a - g).sum()
                assert gap <= prev + 1e-15
                prev = gap

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
