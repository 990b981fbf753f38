"""Input validation and failure classification.

Weights go through one validator, so every entry point rejects the same bad
weights with a DomainError; an internal eigendecomposition failure surfaces as
a NumericalError (CLI exit code 3), never as a raw LinAlgError, and so does a
value that leaves the domain while a center is computed from valid input.  Valid inputs
at extreme covariance scales are not misclassified as either.
"""

import json
import math

import numpy as np
import pytest

from jeffreys_centers import (
    DomainError,
    GaussianParam,
    HistogramSet,
    NumericalError,
    ScalarGenerator,
    SPDMatrix,
    WeightedParamSet,
    gb_center_mvn,
    jeffreys_centroid_centered,
    jfr_center_1d,
    jfr_center_mvn,
    sld_centroid,
)
from jeffreys_centers.cli import main
from jeffreys_centers.gaussian import fisher_rao_midpoint_mvn, sided_kl_centroids_mvn
from jeffreys_centers.spd import _spectral

from conftest import embedded_equidistance_residual

# mvn workload seed 300, set 48 (d=5, spread means): the fiber alignment failed
# on it before the midpoint was computed in the frame that whitens p0.
HARD_MEANS = [
    [3.273802000035928, -1.3362102780561227, 2.942805923369252, -0.23497731653356713, 1.3164428948769336],
    [1.889485284451192, 0.9115228373807578, 0.3584109401943846, 0.5764587628124389, -0.8377136852859056],
    [1.9462856569990852, 1.047692379505821, 0.4013465922699523, 0.5307016619020706, -0.8227256209018996],
    [1.8283420273142428, 1.089312878922691, 0.5234366823871157, 0.4291779977572802, -0.7004276659646477],
]
HARD_COVS = [
    [
        [0.45980862812202367, 0.01644645430060497, -0.08086022181587692, 0.03546276656401782, -0.02717812960615654],
        [0.01644645430060497, 0.32183820585564615, -0.021420145945201398, 0.020685314672057562, -0.008682324387516944],
        [-0.08086022181587692, -0.021420145945201398, 0.3514203598115372, -0.019281140414936858, -0.018167357669020313],
        [0.03546276656401782, 0.020685314672057562, -0.019281140414936858, 0.35894031468726717, 0.029584186551777393],
        [-0.02717812960615654, -0.008682324387516944, -0.018167357669020313, 0.029584186551777393, 0.51296617163219],
    ],
    [
        [0.7336776543689842, 0.06417508891822836, -0.01773540981589462, -0.11262756811776378, 0.025444030623366174],
        [0.06417508891822836, 0.5368680940092335, 0.059702838631150855, -0.004128239144722412, 0.11782056249441106],
        [-0.01773540981589462, 0.059702838631150855, 0.756264857847859, -0.07247944989705826, -0.05229727557324461],
        [-0.11262756811776378, -0.004128239144722412, -0.07247944989705826, 0.912099927706141, -0.08474597497427375],
        [0.025444030623366174, 0.11782056249441106, -0.05229727557324461, -0.08474597497427375, 0.6672782110534028],
    ],
    [
        [0.040821010965403665, -0.007598000971657399, -0.005556834428269897, 0.007538279448142442, 0.002490294602012595],
        [-0.007598000971657399, 0.030369085150173197, 0.0007760242136171846, -0.011046778057954811, -0.009258111898974672],
        [-0.005556834428269897, 0.0007760242136171846, 0.03220389189455563, 0.0014828223295511424, -0.005110979895769249],
        [0.007538279448142442, -0.011046778057954811, 0.0014828223295511424, 0.036552648853122406, 0.008654767971735783],
        [0.002490294602012595, -0.009258111898974672, -0.005110979895769249, 0.008654767971735783, 0.030187569527442816],
    ],
    [
        [0.012131719385095953, 0.0008501662788493176, -0.00014869077199809155, -0.0008551585293873096, -0.0036335919696982586],
        [0.0008501662788493176, 0.010766717080546977, 0.0004900139298983549, 0.000256447889710425, -0.0017086603135230641],
        [-0.00014869077199809155, 0.0004900139298983549, 0.009296692121168862, 0.0020549131248031724, -0.0017017109361313625],
        [-0.0008551585293873096, 0.000256447889710425, 0.0020549131248031724, 0.0206112149436691, -3.723291105050821e-05],
        [-0.0036335919696982586, -0.0017086603135230641, -0.0017017109361313625, -3.723291105050821e-05, 0.01873354060344437],
    ],
]

# Means 1e5 standard deviations apart, outside the domain of the Fisher-Rao
# midpoint (README): the lift loses definiteness during the fiber alignment.
FAILING_MEANS = [[0.0, 0.0], [1e5, 0.0], [0.0, 1e5], [1e5, 1e5]]
FAILING_COVS = [np.eye(2).tolist()] * 4

_COVS = [np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]
_SQUARED = ScalarGenerator(
    f=lambda t: 0.5 * t * t,
    f_prime=lambda t: t,
    f_second=lambda t: 1.0,
    domain=(-math.inf, math.inf),
    theta_ref=0.0,
)

# Each entry point on a set of three points, taking only the weights.
ENTRY_POINTS = {
    "WeightedParamSet": lambda w: WeightedParamSet([[1.0], [2.0], [3.0]], w),
    "HistogramSet": lambda w: HistogramSet(
        np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]]), w
    ),
    "sld_centroid": lambda w: sld_centroid(_COVS, w),
    "gb_center_mvn": lambda w: gb_center_mvn(
        [GaussianParam([float(i), 0.0], c) for i, c in enumerate(_COVS)], w
    ),
    "jeffreys_centroid_centered": lambda w: jeffreys_centroid_centered(_COVS, w),
    "jfr_center_1d": lambda w: jfr_center_1d(_SQUARED, [1.0, 2.0, 3.0], w),
}

BAD_WEIGHTS = {
    "nan": [np.nan, 0.5, 0.5],
    "too_short": [0.5, 0.5],
    "too_long": [0.1, 0.2, 0.3, 0.4],
}


@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_weights_rejected_by_the_weight_check(entry, bad):
    with pytest.raises(DomainError, match="weights"):
        ENTRY_POINTS[entry](BAD_WEIGHTS[bad])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_weights_accepted(entry):
    ENTRY_POINTS[entry]([0.2, 0.3, 0.5])


def test_spectral_kernel_classifies_nan_matrix():
    with pytest.raises(NumericalError):
        _spectral(np.full((3, 3), np.nan), np.sqrt)


def _gaussians(means, covs):
    return [GaussianParam(m, SPDMatrix(c)) for m, c in zip(means, covs)]


def test_formerly_failing_mvn_set_returns_a_center():
    gs = _gaussians(HARD_MEANS, HARD_COVS)
    center = jfr_center_mvn(gs)
    assert np.all(np.isfinite(center.mean))
    assert np.linalg.eigvalsh(center.cov.entries)[0] > 0.0
    assert embedded_equidistance_residual(*sided_kl_centroids_mvn(gs)) <= 1e-9


def test_failing_mvn_set_is_a_numerical_error():
    with pytest.raises(NumericalError):
        jfr_center_mvn(_gaussians(FAILING_MEANS, FAILING_COVS))


def test_distant_pair_midpoint_is_a_numerical_error():
    """A lift past the 1e12 condition bound is internal trouble, not invalid input."""
    with pytest.raises(NumericalError, match="condition number"):
        fisher_rao_midpoint_mvn(GaussianParam([0.0], [[1.0]]), GaussianParam([1e3], [[1.0]]))


def test_failing_mvn_set_exits_3(tmp_path, capsys):
    path = tmp_path / "gaussians.json"
    path.write_text(json.dumps(
        [{"mean": m, "cov": c} for m, c in zip(FAILING_MEANS, FAILING_COVS)]
    ))
    code = main(["compute", "--family", "gaussian", "--method", "jfr", "--input", str(path)])
    capsys.readouterr()
    assert code == 3


# Valid sets of unit-covariance normals whose means are 1e7 apart.  Before the
# Gaussian centers mapped internal domain trouble to NumericalError, JFR raised
# DomainError at d=5 (the left sided centroid's covariance passed the 1e12
# condition bound) and GB at d=8 (its initial quasi-arithmetic centroid left
# the domain): CLI exit code 2, "invalid input".
FAR_SETS = {
    "jfr": [
        [1e7, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1e7, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1e7, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1e7, 0.0],
    ],
    "gb": [
        [1e7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1e7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1e7, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1e7, 0.0, 0.0, 0.0, 0.0],
    ],
}
FAR_CENTERS = {"jfr": jfr_center_mvn, "gb": gb_center_mvn}
# The sided-centroid methods read back both centroids, so the left one fails on
# the JFR set whichever of the two is asked for.
FAR_CLI_SETS = {**FAR_SETS, "arithmetic": FAR_SETS["jfr"], "geometric": FAR_SETS["jfr"]}


@pytest.mark.parametrize("method", sorted(FAR_SETS))
def test_far_apart_valid_set_is_a_numerical_error(method):
    means = FAR_SETS[method]
    covs = [np.eye(len(means[0]))] * len(means)
    with pytest.raises(NumericalError, match="failed on valid input"):
        FAR_CENTERS[method](_gaussians(means, covs))


@pytest.mark.parametrize("method", sorted(FAR_CLI_SETS))
def test_far_apart_valid_set_exits_3(method, tmp_path, capsys):
    means = FAR_CLI_SETS[method]
    path = tmp_path / "gaussians.json"
    path.write_text(json.dumps(
        [{"mean": m, "cov": np.eye(len(m)).tolist()} for m in means]
    ))
    code = main(["compute", "--family", "gaussian", "--method", method, "--input", str(path)])
    assert "numerical failure" in capsys.readouterr().err
    assert code == 3


# A valid set whose JFR center failed at covariance scales 1e-8 and 1e-6 (the
# (2d+1) lift tripped the 1e12 condition guard, a DomainError) and 1e6 (the
# fiber alignment stalled, a NumericalError) before whitening by p0.
SCALE_MEANS = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
SCALE_COVS = np.array([[[1.0, 0.3], [0.3, 0.8]], [[1.5, -0.4], [-0.4, 0.6]], [[0.7, 0.1], [0.1, 1.2]]])


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e6])
def test_jfr_center_follows_covariance_scale(scale):
    """x -> sqrt(s) x maps the unit-scale center to the scaled one (criterion 10's 1e-8)."""
    unit = jfr_center_mvn(_gaussians(SCALE_MEANS, SCALE_COVS))
    scaled = jfr_center_mvn(_gaussians(np.sqrt(scale) * SCALE_MEANS, scale * SCALE_COVS))
    assert np.abs(scaled.mean / np.sqrt(scale) - unit.mean).max() <= 1e-8
    assert np.abs(scaled.cov.entries / scale - unit.cov.entries).max() <= 1e-8


# A non-finite mean is invalid input: GaussianParam rejects it, so no center
# sees it (JFR and GB used to fail on it as "failed on valid input", and the
# exact method wrote NaN into its report).
NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
SAME_MEAN_COVS = [np.eye(2), 2.0 * np.eye(2)]
MEAN_CENTERS = {
    "jfr": lambda m: jfr_center_mvn(_gaussians([m, m], SAME_MEAN_COVS)),
    "gb": lambda m: gb_center_mvn(_gaussians([m, m], SAME_MEAN_COVS)),
    "jeffreys": lambda m: jeffreys_centroid_centered(SAME_MEAN_COVS, mean=m),
}


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("method", sorted(MEAN_CENTERS))
def test_non_finite_mean_is_a_domain_error(method, bad):
    with pytest.raises(DomainError, match="mean entries must be finite"):
        MEAN_CENTERS[method]([NON_FINITE[bad], 0.0])


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("method", sorted(MEAN_CENTERS))
def test_non_finite_mean_exits_2(method, bad, tmp_path, capsys):
    path = tmp_path / "gaussians.json"
    mean = [NON_FINITE[bad], 0.0]
    path.write_text(json.dumps([{"mean": mean, "cov": c.tolist()} for c in SAME_MEAN_COVS]))
    code = main(["compute", "--family", "gaussian", "--method", method, "--input", str(path)])
    assert "mean entries must be finite" in capsys.readouterr().err
    assert code == 2
