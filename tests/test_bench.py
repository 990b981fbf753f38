import hashlib

import numpy as np
import pytest

from jeffreys_centers import categorical
from jeffreys_centers.bench import (
    run_table1,
    run_table2,
    sample_histogram_pair,
    table1_csv,
    table2_csv,
    TABLE1_HEADER,
    TABLE2_HEADER,
)
from jeffreys_centers.errors import DomainError


@pytest.fixture
def mean_calls(monkeypatch):
    """Counts calls of categorical.arithmetic_mean, once per set's cached means."""
    calls = []
    original = categorical.arithmetic_mean

    def counted(hset):
        calls.append(hset)
        return original(hset)

    monkeypatch.setattr(categorical, "arithmetic_mean", counted)
    return calls


@pytest.fixture
def jfr_calls(monkeypatch):
    """Counts calls of categorical._jfr_probs, once per set's cached JFR bins."""
    calls = []
    original = categorical._jfr_probs

    def counted(a, g):
        calls.append(None)
        return original(a, g)

    monkeypatch.setattr(categorical, "_jfr_probs", counted)
    return calls


def assert_jfr_bins_in_exact_and_jfr_sets(mean_calls):
    # mean_calls holds each trial's sets in timing order: exact, JFR, GB
    for k in range(0, len(mean_calls), 3):
        cached = ["jfr_probs" in vars(h) for h in mean_calls[k:k + 3]]
        assert cached == [True, True, False]


class TestOwnMeansPerTimedMethod:
    """Each timed method gets its own set, so its time includes its own means
    and, for the exact and JFR centers, its own JFR bins."""

    def test_table1_three_means_per_trial(self, mean_calls):
        run_table1(dims=(4, 8), trials=5, seed=2, timing=False)
        assert len(mean_calls) == 3 * 5 * 2
        assert len({id(h) for h in mean_calls}) == len(mean_calls)

    def test_table2_three_means_per_alpha(self, mean_calls):
        run_table2([1e-1, 1e-2, 1e-3], timing=False)
        assert len(mean_calls) == 3 * 3
        assert len({id(h) for h in mean_calls}) == len(mean_calls)

    def test_table1_two_jfr_bins_per_trial(self, mean_calls, jfr_calls):
        run_table1(dims=(4, 8), trials=5, seed=2, timing=False)
        assert len(jfr_calls) == 2 * 5 * 2
        assert_jfr_bins_in_exact_and_jfr_sets(mean_calls)

    def test_table2_two_jfr_bins_per_alpha(self, mean_calls, jfr_calls):
        run_table2([1e-1, 1e-2, 1e-3], timing=False)
        assert len(jfr_calls) == 2 * 3
        assert_jfr_bins_in_exact_and_jfr_sets(mean_calls)


class TestSampling:
    def test_deterministic_per_trial(self):
        a = sample_histogram_pair(7, 8, 3)
        b = sample_histogram_pair(7, 8, 3)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        a = sample_histogram_pair(7, 8, 3)
        b = sample_histogram_pair(7, 8, 4)
        assert not np.array_equal(a, b)

    def test_open_simplex(self):
        rows = sample_histogram_pair(0, 16, 0)
        assert rows.shape == (2, 16)
        assert rows.min() >= 1e-12
        assert np.allclose(rows.sum(axis=1), 1.0)


class TestRecords:
    def test_config_validation(self):
        with pytest.raises(DomainError, match="trials"):
            run_table1(trials=0)
        with pytest.raises(DomainError, match="dimension"):
            run_table1(dims=[1])
        with pytest.raises(DomainError, match="epsilon"):
            run_table1(dims=(4,), trials=1, epsilon=0.0)


class TestTable1:
    def test_determinism_without_timing(self):
        config = dict(dims=(4,), trials=20, seed=11)
        a = table1_csv(run_table1(**config, timing=False))
        b = table1_csv(run_table1(**config, timing=False))
        assert a == b
        assert a.splitlines()[0] == TABLE1_HEADER

    def test_single_trial_max_equals_avg(self):
        for rec in run_table1(dims=(4,), trials=1, seed=3, timing=False):
            assert rec.max_info_eps == rec.avg_info_eps
            assert rec.max_tv == rec.avg_tv

    def test_info_eps_nonnegative(self):
        for rec in run_table1(dims=(4, 8), trials=30, seed=5):
            assert rec.avg_info_eps >= -1e-12
            assert rec.max_info_eps >= rec.avg_info_eps
            assert rec.speedup_vs_jeffreys > 0.0

    def test_methods_and_dims_layout(self):
        recs = run_table1(dims=(2, 4), trials=2, seed=5, timing=False)
        assert [(r.dim, r.method) for r in recs] == [
            (2, "jfr"), (2, "gb"), (4, "jfr"), (4, "gb"),
        ]


class TestTable2:
    def test_identical_inputs_all_zero(self):
        # alpha = 2/3 makes the second histogram uniform too
        rows = run_table2([2.0 / 3.0], timing=False)
        for r in rows:
            assert abs(r.info_eps) < 1e-9
            assert r.tv_eps < 1e-9

    def test_alpha_range_rejected(self):
        with pytest.raises(DomainError):
            run_table2([1.5])
        with pytest.raises(DomainError):
            run_table2([0.0])

    def test_flagging_of_degenerate_alphas(self):
        rows = run_table2([1e-1, 1e-16], timing=False)
        by_alpha = {r.alpha: r.flagged for r in rows if r.method == "jfr"}
        assert by_alpha[1e-1] is False
        assert by_alpha[1e-16] is True

    def test_csv_shape(self):
        rows = run_table2([1e-1], timing=False)
        text = table2_csv(rows)
        lines = text.splitlines()
        assert lines[0] == TABLE2_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("1.00000e-01,jfr,")

    def test_paper_values_alpha_1e1(self):
        rows = {r.method: r for r in run_table2([1e-1], timing=False)}
        assert rows["jfr"].info_eps == pytest.approx(6.882e-09, rel=0.05)
        assert rows["jfr"].tv_eps == pytest.approx(2.495e-05, rel=0.05)
        assert rows["gb"].info_eps == pytest.approx(1.338e-06, rel=0.05)
        assert rows["gb"].tv_eps == pytest.approx(3.480e-04, rel=0.05)


class TestGoldenCsv:
    """The --no-timing CSVs, byte for byte, against SHA-256 digests taken
    before the histogram solve moved to the shared bracketed Newton.  Table 1
    runs 100 trials per dimension to stay under a second; the default 1000
    (digest 797c83e5...) is checked by hand with ``centers bench table1
    --no-timing``.  The CSVs print 6 digits, but a numpy or BLAS build whose
    exp, log or reductions round differently can still move one of them."""

    def test_table1(self):
        dims = (2, 4, 8, 16, 32, 64, 128, 256)
        text = table1_csv(run_table1(dims=dims, trials=100, seed=0, timing=False))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e8ed8998f3599bcfbf5963e2699461ad15eee1a461623f8a33ba145cd5db86a"
        )

    def test_table2(self):
        text = table2_csv(run_table2(timing=False))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b25b5d025f3580a0dbb68921da6415f0be32c377c0b87f3644374394f74d387e"
        )
