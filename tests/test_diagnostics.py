"""One diagnostics contract for every double sequence.

Each iterative center returns a CenterDiagnostics built by
CenterDiagnostics.after: it names the tolerance in force, its status is
"converged" exactly when the final gap is within that tolerance, and it is
timed.  A run cut short by its iteration cap reports "max_iter".  All four
refuse the same stopping parameters: a tolerance outside (0, 1) or no step.
"""

import math

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    GaussianParam,
    HistogramSet,
    SPDMatrix,
    ToleranceConfig,
    WeightedParamSet,
    gb_center,
    gb_center_cat,
    gb_center_mvn,
    jeffreys_centroid_cat,
    shannon_generator,
)
from jeffreys_centers.categorical import GB_CAT_EPSILON
from jeffreys_centers.gauss_bregman import GB_TOL

PAIR = WeightedParamSet([[0.1], [9.0]])
HSET = HistogramSet(np.array([[0.7, 0.2, 0.1], [0.05, 0.35, 0.6], [0.2, 0.2, 0.6]]), None)
GAUSSIANS = [
    GaussianParam([0.0, 1.0], SPDMatrix([[1.0, 0.3], [0.3, 2.0]])),
    GaussianParam([1.5, -0.5], SPDMatrix([[4.0, -1.0], [-1.0, 1.0]])),
]


def _gb(tol=GB_TOL):
    return gb_center(shannon_generator(1), PAIR, tol)[1]


def _gb_cat(epsilon=GB_CAT_EPSILON, max_iter=1000):
    return gb_center_cat(HSET, epsilon, max_iter)[1]


def _gb_mvn(tol=GB_TOL):
    return gb_center_mvn(GAUSSIANS, None, tol)[1]


def _jeffreys(epsilon=1e-10, max_iter=200):
    return jeffreys_centroid_cat(HSET, epsilon, max_iter).diagnostics


# name -> (run with defaults, default tolerance, run with (tolerance, max_iter),
#          the name of the tolerance in its error messages)
CENTERS = {
    "gb_center": (
        _gb, GB_TOL.rel_tol, lambda t, n: _gb(ToleranceConfig(t, n)), "rel_tol",
    ),
    "gb_center_cat": (_gb_cat, GB_CAT_EPSILON, _gb_cat, "epsilon"),
    "gb_center_mvn": (
        _gb_mvn, GB_TOL.rel_tol, lambda t, n: _gb_mvn(ToleranceConfig(t, n)), "rel_tol",
    ),
    "jeffreys_centroid_cat": (_jeffreys, 1e-10, _jeffreys, "epsilon"),
}


def check_record(diag, tolerance):
    assert diag.tolerance == tolerance
    assert (diag.status == "converged") == (diag.final_gap <= diag.tolerance)
    assert diag.status in ("converged", "max_iter")
    assert diag.elapsed_ns > 0


@pytest.mark.parametrize("name", CENTERS)
def test_default_tolerance_is_reported(name):
    run, tolerance, _, _ = CENTERS[name]
    diag = run()
    check_record(diag, tolerance)
    assert diag.status == "converged"


@pytest.mark.parametrize("tolerance", [1e-3, 1e-6, 1e-11])
@pytest.mark.parametrize("name", CENTERS)
def test_passed_tolerance_is_reported(name, tolerance):
    _, _, run_with, _ = CENTERS[name]
    check_record(run_with(tolerance, 200), tolerance)


@pytest.mark.parametrize("name", CENTERS)
def test_capped_run_reports_max_iter(name):
    diag = CENTERS[name][2](1e-12, 1)
    assert diag.status == "max_iter"
    assert diag.final_gap > diag.tolerance
    assert diag.elapsed_ns > 0


@pytest.mark.parametrize("tolerance, max_iter", [
    (0.0, 200), (-1e-3, 200), (1.0, 200), (math.inf, 200), (math.nan, 200), (1e-3, 0),
])
@pytest.mark.parametrize("name", CENTERS)
def test_one_stopping_rule(name, tolerance, max_iter):
    _, _, run_with, parameter = CENTERS[name]
    with pytest.raises(DomainError, match=parameter if max_iter else "max_iter"):
        run_with(tolerance, max_iter)
