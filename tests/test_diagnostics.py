"""One diagnostics contract for every double sequence.

Each iterative center returns a CenterDiagnostics built by
CenterDiagnostics.after: it names the tolerance in force, its status is
"converged" exactly when the final gap is within that tolerance, and it is
timed.  A run cut short by its iteration cap reports "max_iter", except the
categorical Gauss-Bregman center, which raises NumericalError.
"""

import numpy as np
import pytest

from jeffreys_centers import (
    GaussianParam,
    HistogramSet,
    NumericalError,
    SPDMatrix,
    ToleranceConfig,
    WeightedParamSet,
    gb_center,
    gb_center_cat,
    gb_center_mvn,
    jeffreys_centroid_cat,
    nakamura_ah,
    shannon_generator,
)
from jeffreys_centers.categorical import GB_CAT_EPSILON
from jeffreys_centers.gauss_bregman import GB_TOL
from jeffreys_centers.spd import NAKAMURA_TOL

PAIR = WeightedParamSet.of([[0.1], [9.0]])
HSET = HistogramSet(np.array([[0.7, 0.2, 0.1], [0.05, 0.35, 0.6], [0.2, 0.2, 0.6]]), None)
GAUSSIANS = [
    GaussianParam([0.0, 1.0], SPDMatrix([[1.0, 0.3], [0.3, 2.0]])),
    GaussianParam([1.5, -0.5], SPDMatrix([[4.0, -1.0], [-1.0, 1.0]])),
]
P = SPDMatrix([[1.0, 0.2], [0.2, 3.0]])
Q = SPDMatrix([[5.0, -1.0], [-1.0, 0.5]])


def _gb(tol=GB_TOL):
    return gb_center(shannon_generator(1), PAIR, tol)[1]


def _gb_cat(epsilon=GB_CAT_EPSILON, max_iter=1000):
    return gb_center_cat(HSET, epsilon, max_iter)[1]


def _gb_mvn(tol=GB_TOL):
    return gb_center_mvn(GAUSSIANS, None, tol)[1]


def _nakamura(tol=NAKAMURA_TOL):
    return nakamura_ah(P, Q, tol)[1]


def _jeffreys(epsilon=1e-10, max_iter=200):
    return jeffreys_centroid_cat(HSET, epsilon, max_iter).diagnostics


# name -> (run with defaults, default tolerance, run with a passed tolerance,
#          run capped at one or two iterations)
CENTERS = {
    "gb_center": (
        _gb, GB_TOL.rel_tol,
        lambda t: _gb(ToleranceConfig(t, 200)),
        lambda: _gb(ToleranceConfig(1e-12, 2)),
    ),
    "gb_center_cat": (
        _gb_cat, GB_CAT_EPSILON,
        _gb_cat,
        lambda: _gb_cat(1e-12, 1),
    ),
    "gb_center_mvn": (
        _gb_mvn, GB_TOL.rel_tol,
        lambda t: _gb_mvn(ToleranceConfig(t, 200)),
        lambda: _gb_mvn(ToleranceConfig(1e-12, 2)),
    ),
    "nakamura_ah": (
        _nakamura, NAKAMURA_TOL.rel_tol,
        lambda t: _nakamura(ToleranceConfig(t, 200)),
        lambda: _nakamura(ToleranceConfig(1e-12, 1)),
    ),
    "jeffreys_centroid_cat": (
        _jeffreys, 1e-10,
        _jeffreys,
        lambda: _jeffreys(1e-10, 1),
    ),
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
    check_record(run_with(tolerance), tolerance)


@pytest.mark.parametrize("name", CENTERS)
def test_capped_run_reports_max_iter(name):
    capped = CENTERS[name][3]
    if name == "gb_center_cat":
        with pytest.raises(NumericalError):
            capped()
        return
    diag = capped()
    assert diag.status == "max_iter"
    assert diag.final_gap > diag.tolerance
    assert diag.elapsed_ns > 0
