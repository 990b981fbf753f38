import ast
import math
from collections import Counter
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeffreys_centers import (
    DomainError,
    GaussianParam,
    SPDMatrix,
    ToleranceConfig,
    geometric_mean,
    jeffreys_centroid_centered,
    jeffreys_mvn,
    kl_mvn,
    logdet_div,
    sld_centroid,
    symmetrized_logdet,
    trace_metric_distance,
)

from jeffreys_centers.errors import NumericalError
from jeffreys_centers.spd import _check_spectrum, _log_divided_differences, _log_eigs

from conftest import ah_limit, random_spd
from oracles import (
    exact_logdet_div,
    exact_mahalanobis,
    exact_symmetrized_logdet,
    exact_trace_metric_distance,
    g_invariance_residual,
    geometric_mean_error,
    sld_centroid_error,
    sld_grad_residual,
    spd_power,
    spd_sqrt,
)


class TestSPDMatrix:
    def test_symmetrizes_small_noise(self, rng):
        base = random_spd(rng, 3).entries
        noisy = base + 1e-12 * rng.normal(size=(3, 3))
        m = SPDMatrix(noisy)
        assert np.allclose(m.entries, m.entries.T)

    def test_rejects_asymmetry(self, rng):
        base = random_spd(rng, 3).entries
        noisy = base + 1e-2 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(DomainError):
            SPDMatrix(noisy)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            SPDMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(DomainError):
            SPDMatrix(np.zeros((2, 2)))

    def test_rejects_ill_conditioned(self):
        with pytest.raises(DomainError):
            SPDMatrix(np.diag([1e13, 0.5]))

    @pytest.mark.parametrize("m", [
        [[1e308, 0.0], [0.0, 1e308]], [[1.3e308]], [[1.5e308, 1e307], [1e307, 1e308]],
    ])
    def test_entries_near_the_float_max_are_parsed(self, m):
        """(M + M^T)/2 overflows past half the float max; the parse halves first."""
        assert np.array_equal(SPDMatrix(m).entries, m)


class TestNaN:
    """NaN fails every comparison, so a test written as `bad > limit` lets it through."""

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_spd_rule_rejects_a_nan_spectrum(self, w):
        with pytest.raises(DomainError):
            _check_spectrum(np.array(w))

    def test_matrix_functions_reject_a_nan_least_eigenvalue(self):
        with pytest.raises(NumericalError):
            _log_eigs(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "fn", [geometric_mean, trace_metric_distance, logdet_div, symmetrized_logdet]
    )
    def test_raw_non_finite_input_is_a_domain_error(self, fn):
        eye = np.eye(2)
        for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
            with pytest.raises(DomainError, match="finite"):
                fn(eye, bad)
            with pytest.raises(DomainError, match="finite"):
                fn(bad, eye)

    @pytest.mark.parametrize("x, y", [
        ([[1e160]], [[1e-160]]),
        # each term is finite, their sum is not
        (1.5e154 * np.eye(2), 1e-154 * np.eye(2)),
    ], ids=["t-overflows", "sum-overflows"])
    def test_divergences_past_the_float_max_are_inf(self, x, y):
        """t = s^2 - 1 overflowed for s > 1.34e154 and t - log1p(t) was inf - inf."""
        assert logdet_div(x, y) == math.inf
        assert symmetrized_logdet(x, y) == math.inf
        assert math.isfinite(logdet_div(y, x))

    def test_valid_pair_near_the_condition_bound_never_warns(self):
        """X^{-1/2} Y X^{-1/2} can lose definiteness in rounding when X and Y
        are both near the bound, and its square root once warned and gave a NaN;
        X # Y must be a value or a classified error, never a warning."""
        for seed in range(300):
            rng = np.random.default_rng(seed)
            d = 2 + seed % 2
            x, y = raw_matrix("spd", d, rng, 11.0), raw_matrix("spd", d, rng, 11.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    assert np.isfinite(geometric_mean(x, y).entries).all()
                except (DomainError, NumericalError):
                    pass


# The kinds of raw matrix a caller can pass; only the first is valid input.
KINDS = ("spd", "indefinite", "singular", "asymmetric", "ill-conditioned", "non-finite")


def raw_matrix(kind: str, d: int, rng: np.random.Generator, decades: float = 6.0) -> np.ndarray:
    """A raw d x d matrix of one of KINDS.  The spd kind's eigenvalues span
    ``decades`` decades around 1; an asymmetric one is 1e-6 off symmetric,
    relative, and an ill-conditioned one has condition number 10^12.5 to 10^16."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=d)
    if kind == "indefinite":
        lam[0] = -lam[0]
    elif kind == "singular":
        lam[0] = 0.0
    elif kind == "ill-conditioned":
        lam[0] = lam[1:].max() * 10.0 ** -rng.uniform(12.5, 16.0)
    m = (q * lam) @ q.T
    m = 0.5 * (m + m.T)
    if kind == "asymmetric":
        m[0, -1] += 1e-6 * np.abs(m).max()
    elif kind == "non-finite":
        m[rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    return m


def valid_pairs(seeds, decades: float):
    """(X, Y, rng) for each seed whose two spd-kind raw_matrix draws, 2 x 2 or
    3 x 3 by the seed's parity and spanning ``decades`` decades each, are both
    valid; rng has made just those two draws."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        x, y = raw_matrix("spd", d, rng, decades), raw_matrix("spd", d, rng, decades)
        try:
            x, y = SPDMatrix(x).entries, SPDMatrix(y).entries
        except DomainError:
            continue
        yield x, y, rng


class TestRawInputIsParsed:
    """A raw matrix argument of a public SPD function is caller input, parsed as
    an SPDMatrix: invalid input is a DomainError (exit code 2), never a value, a
    raw LinAlgError or a NumericalError."""

    @pytest.mark.parametrize(
        "fn", [geometric_mean, trace_metric_distance, logdet_div, symmetrized_logdet]
    )
    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.diag([1.0, -1.0]), "not positive definite"),
            (np.zeros((2, 2)), "not positive definite"),
            (np.array([[1.0, 5.0], [0.0, 1.0]]), "asymmetry"),
            (np.diag([1e-14, 1.0]), "condition number"),
        ],
        ids=["indefinite", "zero", "asymmetric", "condition-1e14"],
    )
    def test_invalid_raw_matrix_is_a_domain_error(self, fn, bad, match):
        for x, y in ((bad, np.eye(2)), (np.eye(2), bad)):
            with pytest.raises(DomainError, match=match):
                fn(x, y)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
        d=st.sampled_from([2, 3]),
        same=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_finite_result_or_a_domain_error(self, kinds, d, same, seed):
        """Each pair of raw matrices gives a finite result, non-negative for
        the distance and the divergences, when both are valid, and a
        DomainError otherwise.  No warning (a NaN) escapes."""
        rng = np.random.default_rng(seed)
        x = raw_matrix(kinds[0], d, rng)
        y = x.copy() if same else raw_matrix(kinds[1], d, rng)
        valid = kinds[0] == "spd" and (same or kinds[1] == "spd")
        for fn in (geometric_mean, trace_metric_distance, logdet_div, symmetrized_logdet,
                   lambda x, y: sld_centroid([x, y])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if not valid:
                    with pytest.raises(DomainError):
                        fn(x, y)
                    continue
                out = fn(x, y)
            if isinstance(out, SPDMatrix):
                assert np.isfinite(out.entries).all()
            else:
                assert math.isfinite(out) and out >= 0.0


class TestSqrtPower:
    def test_identity(self):
        eye = SPDMatrix(np.eye(3))
        assert np.allclose(spd_sqrt(eye).entries, np.eye(3))

    def test_diagonal_sqrt(self):
        m = spd_power(SPDMatrix(np.diag([4.0, 9.0])), 0.5)
        assert np.allclose(m.entries, np.diag([2.0, 3.0]))

    def test_power_one_is_identity_map(self, rng):
        x = random_spd(rng, 4)
        assert np.abs(spd_power(x, 1.0).entries - x.entries).max() < 1e-12

    def test_sqrt_squares_back(self, rng):
        for _ in range(10):
            x = random_spd(rng, 5)
            r = spd_sqrt(x).entries
            rel = np.linalg.norm(r @ r - x.entries) / np.linalg.norm(x.entries)
            assert rel < 1e-10


class TestGeometricMean:
    def test_identity_left(self, rng):
        x = random_spd(rng, 3)
        m = geometric_mean(SPDMatrix(np.eye(3)), x)
        assert np.abs(m.entries - spd_sqrt(x).entries).max() < 1e-12

    def test_commuting_diagonals(self):
        m = geometric_mean(SPDMatrix(np.diag([1.0, 4.0])), SPDMatrix(np.diag([9.0, 1.0])))
        assert np.allclose(m.entries, np.diag([3.0, 2.0]))

    def test_riccati_property(self, rng):
        for _ in range(20):
            x, y = random_spd(rng, 4), random_spd(rng, 4)
            z = geometric_mean(x, y).entries
            resid = np.linalg.norm(z @ np.linalg.inv(x.entries) @ z - y.entries)
            assert resid / np.linalg.norm(y.entries) < 1e-10

    def test_inversion_invariance(self, rng):
        for _ in range(10):
            x, y = random_spd(rng, 3), random_spd(rng, 3)
            lhs = np.linalg.inv(geometric_mean(x, y).entries)
            rhs = geometric_mean(
                SPDMatrix(np.linalg.inv(x.entries)), SPDMatrix(np.linalg.inv(y.entries))
            ).entries
            assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-10

    def test_valid_pairs_near_the_bound(self):
        """The 1000 seeded pairs of TestLogDet.test_valid_pairs_near_the_bound, where
        X^{-1} Y reaches condition 1e23.  Formed as X^{1/2} (X^{-1/2} Y X^{-1/2})^{1/2}
        X^{1/2}, X # Y raised NumericalError on 21 of them, and 163 of the other values
        were off by more than 1e-4 (7 by more than 100%) while passing the SPD rule.
        The Cholesky quotient has the square root of that condition: worst 1.3e-5."""
        worst = max(
            geometric_mean_error(x, y, geometric_mean(x, y).entries)
            for x, y, _ in valid_pairs(range(1000), 11.9)
        )
        assert worst <= 1e-4


class TestLogDerivative:
    def test_divided_differences_closed_form(self):
        gam = _log_divided_differences(np.array([1.0, math.e, math.e]))
        assert gam[0, 1] == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
        assert gam[1, 0] == gam[0, 1]
        assert np.diag(gam) == pytest.approx([1.0, 1.0 / math.e, 1.0 / math.e], rel=1e-15)
        assert gam[1, 2] == pytest.approx(1.0 / math.e, rel=1e-15)
        # eigenvalues 1e-7 apart take the Taylor branch
        close = _log_divided_differences(np.array([1.0, 1.0 + 1e-7]))
        assert close[0, 1] == pytest.approx(math.log1p(1e-7) / 1e-7, rel=1e-14)

    @pytest.mark.parametrize(
        "spectrum",
        [np.logspace(-3.0, 3.0, 5), 1.0 + 1e-9 * np.arange(5), np.full(5, 2.0), [1e-20, 1e-3, 1.0, 1e3, 1e20]],
        ids=["spread", "close", "repeated", "extreme"],
    )
    def test_frechet_derivative_of_log(self, rng, spectrum):
        """V (Gamma o V^T E V) V^T against central differences of log."""
        w = np.asarray(spectrum)
        gam = _log_divided_differences(w)
        assert np.all(np.isfinite(gam)) and np.all(gam > 0.0)
        if w[-1] / w[0] > 1e12:
            return  # too wide for a finite-difference check; finiteness is the point
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m = (q * w) @ q.T
        a = rng.normal(size=(5, 5))
        e = a + a.T
        vals, vecs = np.linalg.eigh(m)

        def logm(x):
            lw, lv = np.linalg.eigh(x)
            return (lv * np.log(lw)) @ lv.T

        exact = vecs @ (_log_divided_differences(vals) * (vecs.T @ e @ vecs)) @ vecs.T
        h = 1e-4 * vals[0]
        fd = (logm(m + h * e) - logm(m - h * e)) / (2.0 * h)
        assert np.abs(exact - fd).max() <= 1e-5 * np.abs(exact).max()


class TestTraceMetric:
    def test_zero_at_equal(self, rng):
        x = random_spd(rng, 3)
        assert trace_metric_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_log_eigenvalue(self):
        d = trace_metric_distance(
            SPDMatrix(np.eye(2)), SPDMatrix(np.diag([math.e**2, 1.0]))
        )
        assert d == pytest.approx(2.0, rel=1e-12)

    def test_symmetry(self, rng):
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        assert trace_metric_distance(x, y) == pytest.approx(
            trace_metric_distance(y, x), rel=1e-12
        )

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            x, y = random_spd(rng, 3), random_spd(rng, 3)
            a = rng.normal(size=(3, 3))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.normal(size=(3, 3))
            lhs = trace_metric_distance(
                SPDMatrix(a @ x.entries @ a.T), SPDMatrix(a @ y.entries @ a.T)
            )
            assert lhs == pytest.approx(trace_metric_distance(x, y), rel=1e-9, abs=1e-9)

    def test_midpoint_equidistance(self, rng):
        for _ in range(20):
            x, y = random_spd(rng, 4), random_spd(rng, 4)
            mid = geometric_mean(x, y)
            assert abs(
                trace_metric_distance(x, mid) - trace_metric_distance(mid, y)
            ) <= 1e-9


class TestLogDet:
    def test_zero_at_equal(self, rng):
        x = random_spd(rng, 3)
        assert logdet_div(x, x) == pytest.approx(0.0, abs=1e-12)
        assert symmetrized_logdet(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_cosh(self, rng):
        for _ in range(10):
            x, y = rng.uniform(0.2, 5.0, size=2)
            s = symmetrized_logdet(SPDMatrix([[x]]), SPDMatrix([[y]]))
            assert s == pytest.approx(x / y + y / x - 2.0, rel=1e-12, abs=1e-12)

    def test_symmetrization_identity(self, rng):
        for _ in range(10):
            x, y = random_spd(rng, 4), random_spd(rng, 4)
            assert symmetrized_logdet(x, y) == pytest.approx(
                logdet_div(x, y) + logdet_div(y, x), rel=1e-10, abs=1e-10
            )

    def test_inversion_invariance(self, rng):
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        xi = SPDMatrix(np.linalg.inv(x.entries))
        yi = SPDMatrix(np.linalg.inv(y.entries))
        assert symmetrized_logdet(xi, yi) == pytest.approx(
            symmetrized_logdet(x, y), rel=1e-9
        )

    def test_congruence_invariance(self, rng):
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        lhs = symmetrized_logdet(
            SPDMatrix(a @ x.entries @ a.T), SPDMatrix(a @ y.entries @ a.T)
        )
        assert lhs == pytest.approx(symmetrized_logdet(x, y), rel=1e-9)

    def test_eigenvalue_identity(self, rng):
        for _ in range(10):
            x, y = random_spd(rng, 4), random_spd(rng, 4)
            lam = np.linalg.eigvals(np.linalg.inv(x.entries) @ y.entries).real
            expect = float(np.sum((np.sqrt(lam) - 1.0 / np.sqrt(lam)) ** 2))
            assert symmetrized_logdet(x, y) == pytest.approx(expect, rel=1e-10)

    @staticmethod
    def _of_condition(rng, d, cond):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        m = (q * np.logspace(0.0, np.log10(cond), d)) @ q.T
        return 0.5 * (m + m.T)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_equal_pair_at_condition_1e6(self, rng, d):
        """The traces of X^{-1} Y and Y^{-1} X cancel at X = Y, leaving about
        cond * 1e-16 * d (5.6e-11 seen for symmetrized_logdet, 8.9e-16 for
        logdet_div, 2.3e-11 for kl_mvn, 4.5e-11 for jeffreys_mvn); the sums over
        the singular values of the Cholesky quotient do not cancel.  The distance
        is a norm of logs, whose rounding is not squared (2e-10 read through
        X^{-1/2} X X^{-1/2}, 7e-14 through the quotient)."""
        for _ in range(10):
            x = self._of_condition(rng, d, 1e6)
            for name, fn in DIVERGENCES.items():
                bound = 1e-12 if name == "trace_metric_distance" else 1e-18
                assert 0.0 <= fn(x, x, np.zeros(d)) <= bound, name

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_near_equal_pair_at_condition_1e4(self, rng, d):
        """Y = c X with c = 1 + eps has every eigenvalue of X^{-1} Y equal to c, so
        each divergence has a closed form, evaluated in 40-digit decimals; at
        eps = 1e-6 the trace forms were off by up to 13% (symmetrized_logdet),
        3.5e-4 (logdet_div), 77% (kl_mvn) and 28% (jeffreys_mvn) of it."""
        c = 1.0 + 1e-6
        with localcontext() as ctx:
            ctx.prec = 40
            cd, n = Decimal(c), Decimal(d)
            sld, ld = n * (cd - 1) ** 2 / cd, n * (cd.ln() - (cd - 1) / cd)
            expect = {
                "symmetrized_logdet": float(sld),
                "logdet_div": float(ld),
                "trace_metric_distance": float(n.sqrt() * cd.ln()),
                "kl_mvn": float(ld / 2),
                "jeffreys_mvn": float(sld / 2),
            }
        for _ in range(10):
            x = self._of_condition(rng, d, 1e4)
            for name, fn in DIVERGENCES.items():
                got = fn(x, c * x, np.zeros(d))
                assert got == pytest.approx(expect[name], rel=1e-5, abs=0.0), name

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", [2.0**-56, 13.0 * 2.0**-55])
    def test_pairs_of_different_scale(self, rng, d, c):
        """Y = c X with X of integer entries, so that c X is exact and every eigenvalue
        of X^{-1} Y is c.  SPD matrices have no floor on their scale; an eigenvalue s^2
        of Y^{-1} X below 1.1e-16 made t = s^2 - 1 round to -1 and log1p(t) read -inf
        (logdet_div and kl_mvn were inf at c = 2^-56), and at c = 3.6e-16, between two
        neighbours of 1, log1p(t) read the log of the one that 1 + t rounds to."""
        with localcontext() as ctx:
            ctx.prec = 60
            distance = float(Decimal(d).sqrt() * abs(Decimal(c).ln()))
        for _ in range(5):
            x = np.round(1e3 * self._of_condition(rng, d, 1e4))
            dm = rng.normal(size=d)
            for p, q in ((x, c * x), (c * x, x)):
                ld, sld = exact_logdet_div(p, q), exact_symmetrized_logdet(p, q)
                mq = exact_mahalanobis(q, dm)
                expect = {
                    "symmetrized_logdet": sld,
                    "logdet_div": ld,
                    "trace_metric_distance": distance,
                    "kl_mvn": (ld + mq) / 2,
                    "jeffreys_mvn": (sld + exact_mahalanobis(p, dm) + mq) / 2,
                }
                for name, fn in DIVERGENCES.items():
                    got = fn(p, q, dm)
                    assert got == pytest.approx(expect[name], rel=1e-12, abs=0.0), name

    @staticmethod
    def _worst_errors(seeds, decades):
        """Worst relative error of each divergence against its exact value over seeded
        pairs of 2 x 2 or 3 x 3 SPD matrices, each spanning ``decades`` decades, and
        normals with those covariances whose means differ by a N(0, I) draw."""
        worst = dict.fromkeys(DIVERGENCES, 0.0)
        for x, y, rng in valid_pairs(seeds, decades):
            dm = rng.normal(size=x.shape[0])
            ld, sld = exact_logdet_div(x, y), exact_symmetrized_logdet(x, y)
            my = exact_mahalanobis(y, dm)
            expect = {
                "symmetrized_logdet": sld,
                "logdet_div": ld,
                "trace_metric_distance": exact_trace_metric_distance(x, y),
                "kl_mvn": (ld + my) / 2,
                "jeffreys_mvn": (sld + exact_mahalanobis(x, dm) + my) / 2,
            }
            for name, fn in DIVERGENCES.items():
                worst[name] = max(worst[name], abs(fn(x, y, dm) - expect[name]) / expect[name])
        return worst

    def test_valid_pairs_far_apart(self):
        """Pairs whose spectra span 11 decades each, against exact rational
        arithmetic.  X^{-1} Y can have condition near 1e22: a sum over its
        eigenvalues, whose small ones no eigensolve resolves, was off by up to
        1.6e-2 (2e-6 here for symmetrized_logdet, 1.4e-7 for its trace form), and
        logdet_div through Y^{-1} X raised NumericalError on 2 of these pairs."""
        worst = self._worst_errors(range(100), 11.0)
        assert max(worst.values()) <= 1e-5, worst

    def test_valid_pairs_near_the_bound(self):
        """Spectra spanning 11.9 decades, so X^{-1} Y reaches condition 1e23: forming
        X^{-1/2} Y X^{-1/2} or Y^{-1} X raised NumericalError on 19 of these 1000
        pairs in trace_metric_distance and in logdet_div each, and the trace distance
        was 0.18 off on one it kept.  The Cholesky quotient has the square root of
        that condition, and its factors' rounding, cond(Y) * 1e-16, bounds the rest
        (1.7e-5 for logdet_div, 2.6e-5 for symmetrized_logdet)."""
        worst = self._worst_errors(range(1000), 11.9)
        assert max(worst.values()) <= 1e-4, worst


def _gaussian_pair(fn):
    """fn of N(0, X) and N(dm, Y), as a function of (X, Y, dm)."""
    return lambda x, y, dm: fn(GaussianParam(np.zeros_like(dm), x), GaussianParam(dm, y))


def _spd_pair(fn):
    """fn of (X, Y), as a function of (X, Y, dm) that ignores dm."""
    return lambda x, y, dm: fn(x, y)


# Each two-matrix divergence as a function of (X, Y, dm); dm, the difference of
# the two normals' means, enters only the Gaussian ones.
DIVERGENCES = {
    "symmetrized_logdet": _spd_pair(symmetrized_logdet),
    "logdet_div": _spd_pair(logdet_div),
    "trace_metric_distance": _spd_pair(trace_metric_distance),
    "kl_mvn": _gaussian_pair(kl_mvn),
    "jeffreys_mvn": _gaussian_pair(jeffreys_mvn),
}


class TestSldCentroid:
    def test_all_equal(self, rng):
        x = random_spd(rng, 3)
        c = sld_centroid([x, x, x])
        assert np.abs(c.entries - x.entries).max() < 1e-10

    def test_commuting_diagonals(self):
        c = sld_centroid([SPDMatrix(np.diag([1.0, 4.0])), SPDMatrix(np.diag([4.0, 1.0]))])
        assert np.allclose(c.entries, np.diag([2.0, 2.0]), atol=1e-12)

    def test_gradient_residual(self, rng):
        mats = [random_spd(rng, 3) for _ in range(4)]
        w = rng.uniform(0.2, 1.0, size=4)
        w /= w.sum()
        c = sld_centroid(mats, w)
        assert sld_grad_residual(mats, w, c) <= 1e-8

    def test_random_perturbation_no_improvement(self, rng):
        mats = [random_spd(rng, 3) for _ in range(4)]
        c = sld_centroid(mats)

        def loss(m):
            return sum(symmetrized_logdet(SPDMatrix(m), p) for p in mats) / len(mats)

        base = loss(c.entries)
        for _ in range(20):
            d = rng.normal(size=(3, 3)) * 1e-3
            assert loss(c.entries + d + d.T) >= base - 1e-12

    @pytest.mark.parametrize(
        "center",
        [sld_centroid, lambda mats: jeffreys_centroid_centered(mats).cov],
        ids=["sld_centroid", "jeffreys_centroid_centered"],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([1.0, -1.0]), "not positive definite"),
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "asymmetry"),
            (np.diag([1e14, 1.0]), "condition number"),
        ],
        ids=["indefinite", "asymmetric", "ill-conditioned"],
    )
    def test_raw_members_are_parsed_as_caller_input(self, center, bad, message):
        for mats in ([bad, np.eye(2)], [np.eye(2), bad.tolist()]):
            with pytest.raises(DomainError, match=message):
                center(mats)

    def test_weight_validation(self, rng):
        mats = [random_spd(rng, 2), random_spd(rng, 2)]
        with pytest.raises(DomainError):
            sld_centroid(mats, [0.7, 0.7])
        with pytest.raises(DomainError):
            sld_centroid([], None)

    def test_valid_pairs_near_the_bound(self):
        """The 1000 seeded pairs of TestLogDet.test_valid_pairs_near_the_bound, with
        uniform weights.  The inversions of the members bound the error (4.6e-6 when
        A # H was read off chol(A) and chol(H)); with H never formed, symmetrizing the
        precision mean P before its factorization is what keeps it there: from P's
        lower triangle alone one 3 x 3 pair was 0.42 off."""
        worst = max(
            sld_centroid_error([x, y], [0.5, 0.5], sld_centroid([x, y]).entries)
            for x, y, _ in valid_pairs(range(1000), 11.9)
        )
        assert worst <= 1e-5

    def test_lapack_calls(self, rng, monkeypatch):
        """One call inverts the members as one stack, factors A and the precision
        mean P, takes one SVD and the output's eigenvalues, and solves nothing: the
        harmonic mean H = P^{-1} is never formed."""
        mats = [random_spd(rng, 3) for _ in range(4)]
        calls = Counter()
        for name in ("inv", "cholesky", "svd", "eigvalsh", "eigh", "solve"):
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        sld_centroid(mats)
        assert calls == Counter(inv=1, cholesky=2, svd=1, eigvalsh=1)

    @pytest.mark.parametrize("name", ["inv", "cholesky"])
    def test_a_failed_factorization_is_a_numerical_error(self, rng, monkeypatch, name):
        mats = [random_spd(rng, 2), random_spd(rng, 2)]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(NumericalError, match="forced failure"):
            sld_centroid(mats)


class TestNakamura:
    """Nakamura's arithmetic-harmonic sequence, run as the centered Gaussian GB center."""

    def test_equal_inputs_zero_iterations(self, rng):
        x = random_spd(rng, 3)
        limit, diag = ah_limit(x, x)
        assert diag.iterations == 0
        assert np.abs(limit.entries - x.entries).max() < 1e-12

    def test_scalars(self):
        limit, _ = ah_limit(SPDMatrix([[1.0]]), SPDMatrix([[4.0]]))
        assert limit.entries[0, 0] == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_geometric_mean(self, rng, d):
        x, y = random_spd(rng, d), random_spd(rng, d)
        limit, diag = ah_limit(x, y)
        assert diag.status == "converged"
        expect = geometric_mean(x, y).entries
        assert np.linalg.norm(limit.entries - expect) <= 1e-8

    def test_gap_decreases(self, rng):
        a = random_spd(rng, 4).entries
        b = random_spd(rng, 4).entries
        prev = np.linalg.norm(a - b)
        for _ in range(12):
            harm = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
            a, b = 0.5 * (a + b), harm
            gap = np.linalg.norm(a - b)
            assert gap <= prev + 1e-12
            prev = gap

    def test_max_iter_reported(self, rng):
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        _, diag = ah_limit(x, y, ToleranceConfig(rel_tol=1e-14, max_iter=1))
        assert diag.status == "max_iter"


class TestGInvariance:
    def test_equal(self, rng):
        x = random_spd(rng, 3)
        assert g_invariance_residual(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonals(self):
        a = SPDMatrix(np.diag([1.0, 4.0]))
        h = SPDMatrix(np.diag([2.0, 0.5]))
        assert g_invariance_residual(a, h) <= 1e-12

    def test_random_d4(self, rng):
        for _ in range(10):
            a, h = random_spd(rng, 4), random_spd(rng, 4)
            assert g_invariance_residual(a, h) <= 1e-9


def test_only_spd_calls_the_eigensolver():
    """The SPD rule and the LAPACK boundary live in spd.py: no other module of
    the package decomposes a symmetric matrix with numpy directly, only through
    ``spd._lapack``, which it passes the routine."""
    package = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spd.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        passed = {
            id(node.args[0]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_lapack" and node.args
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
                    and id(node) not in passed):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(
                a.name in ("eigh", "eigvalsh") for a in node.names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_caller_input_is_parsed():
    """Inside the package, SPDMatrix(...) is called at one site, spd._as_spd,
    through which every raw matrix of the caller is parsed: every matrix the
    library computes is wrapped by spd._computed_spd, which applies the SPD
    rule without the parse."""
    package = Path(__file__).resolve().parent.parent / "src" / "jeffreys_centers"
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "SPDMatrix":
                    callers.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [])
    assert callers == ["spd.py:_as_spd"]
