"""Input validation and failure classification.

Weights go through one validator, so every entry point rejects the same bad
weights with a DomainError; an internal eigendecomposition failure surfaces as
a NumericalError (CLI exit code 3), never as a raw LinAlgError, and so does a
value that leaves the domain while a center is computed from valid input.  Valid inputs
at extreme covariance scales are not misclassified as either.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import jeffreys_centers as jc
from jeffreys_centers import (
    DomainError,
    GaussianParam,
    HistogramSet,
    NumericalError,
    ScalarGenerator,
    SimplexPoint,
    SPDMatrix,
    WeightedParamSet,
    check_weights,
    gb_center_mvn,
    geometric_mean,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jeffreys_mvn,
    jfr_center_1d,
    jfr_center_mvn,
    kl_mvn,
    lambert_w0,
    logdet_div,
    sld_centroid,
    symmetrized_logdet,
    trace_metric_distance,
)
from jeffreys_centers.cli import main
from jeffreys_centers.gaussian import fisher_rao_midpoint_mvn, sided_kl_centroids_mvn
from jeffreys_centers.spd import _lapack

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
    f_prime=lambda t: t,
    f_second=lambda t: 1.0,
    domain=(-math.inf, math.inf),
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


def test_points_that_are_not_a_2d_array_are_a_domain_error():
    """A 3-D stack of points used to pass and fail later in a raw einsum."""
    with pytest.raises(DomainError, match=r"points has shape \(2, 1, 1\), expected \(\*, \*\)"):
        WeightedParamSet(np.ones((2, 1, 1)), None)


RAGGED = {
    "HistogramSet": lambda: HistogramSet([[0.5, 0.5], [1.0]], None),
    "SPDMatrix": lambda: SPDMatrix([[1.0], [0, 1.0]]),
    "GaussianParam": lambda: GaussianParam([0.0, [1.0]], np.eye(2)),
    "WeightedParamSet": lambda: WeightedParamSet([[1.0], [2.0, 3.0]], None),
    "jfr_center_1d": lambda: jfr_center_1d(_SQUARED, [[1.0, 2.0], [3.0]]),
}


@pytest.mark.parametrize("entry", sorted(RAGGED))
def test_ragged_input_is_a_domain_error(entry):
    """numpy refuses a ragged nested list with a raw ValueError."""
    with pytest.raises(DomainError, match="not an array of numbers"):
        RAGGED[entry]()


def test_ragged_rows_name_the_first_row_that_differs():
    """numpy's own text names neither the row nor a length."""
    with pytest.raises(DomainError, match="histogram rows .*: row 2 has length 3, row 0 has length 2$"):
        HistogramSet([[0.5, 0.5], [0.2, 0.8], [0.2, 0.3, 0.5], [1.0]], None)


# Inputs numpy converts to floats without complaint: True to 1.0, "0.5" to 0.5.
NOT_NUMBERS = {
    "boolean weight": lambda: check_weights([True], 1),
    "string weights": lambda: check_weights(["0.5", "0.5"], 2),
    "string mean": lambda: GaussianParam(["1.0"], [[2.0]]),
    "string covariance": lambda: GaussianParam([1.0], [["2.0"]]),
    "string lambert_w0 input": lambda: lambert_w0("1.0"),
    # an object array is converted entry by entry, so it is scanned for them
    "object string weights": lambda: check_weights(np.array(["0.5", "0.5"], dtype=object), 2),
    "object boolean weight": lambda: check_weights(np.array([True], dtype=object), 1),
    "object numpy boolean weight": lambda: check_weights(np.array([0.5, np.True_], dtype=object), 2),
    "object string SimplexPoint": lambda: SimplexPoint(np.array([0.5, "0.5"], dtype=object)),
    "object bytes SPDMatrix": lambda: SPDMatrix(np.array([[1.0, 0.0], [0.0, b"2"]], dtype=object)),
    "object boolean mean": lambda: GaussianParam(np.array([True], dtype=object), [[2.0]]),
    "object string covariance": lambda: GaussianParam([1.0], np.array([["2.0"]], dtype=object)),
}


@pytest.mark.parametrize("entry", sorted(NOT_NUMBERS))
def test_booleans_and_strings_are_a_domain_error(entry):
    with pytest.raises(DomainError, match="not an array of numbers"):
        NOT_NUMBERS[entry]()


def test_object_arrays_of_numbers_are_read():
    half = np.array([Fraction(1, 2), 0.5], dtype=object)
    assert check_weights(half, 2).tolist() == [0.5, 0.5]
    assert SimplexPoint(half).probs.tolist() == [0.5, 0.5]
    assert SPDMatrix(np.array([[2, 0], [0, 1.0]], dtype=object)).entries.dtype == float
    assert GaussianParam(np.array([np.float32(1.0)], dtype=object), [[2.0]]).mean.tolist() == [1.0]


def test_spectral_kernel_classifies_nan_matrix():
    with pytest.raises(NumericalError):
        _lapack(np.linalg.eigh, np.full((3, 3), np.nan))


def test_empty_matrix_is_a_domain_error():
    with pytest.raises(DomainError, match="non-empty square matrix"):
        SPDMatrix(np.zeros((0, 0)))


def test_empty_gaussian_is_a_domain_error():
    with pytest.raises(DomainError, match="non-empty square matrix"):
        GaussianParam(np.zeros(0), np.zeros((0, 0)))


_X2, _X3 = SPDMatrix(np.diag([1.0, 2.0])), SPDMatrix(np.diag([1.0, 2.0, 3.0]))
_G2, _G3 = GaussianParam(np.zeros(2), _X2), GaussianParam(np.ones(3), _X3)

MIXED_DIMENSIONS = {
    "kl_mvn": lambda: kl_mvn(_G2, _G3),
    "jeffreys_mvn": lambda: jeffreys_mvn(_G2, _G3),
    "jeffreys_loss_mvn": lambda: jeffreys_loss_mvn([_G2, _G2], None, _G3),
    "fisher_rao_midpoint_mvn": lambda: fisher_rao_midpoint_mvn(_G2, _G3),
    "jfr_center_mvn": lambda: jfr_center_mvn([_G2, _G3]),
    "gb_center_mvn": lambda: gb_center_mvn([_G2, _G3]),
    "logdet_div": lambda: logdet_div(_X2, _X3),
    "symmetrized_logdet": lambda: symmetrized_logdet(_X2, _X3),
    "trace_metric_distance": lambda: trace_metric_distance(_X2, _X3),
    "geometric_mean": lambda: geometric_mean(_X2, _X3),
    "sld_centroid": lambda: sld_centroid([_X2, _X3]),
}


@pytest.mark.parametrize("entry", sorted(MIXED_DIMENSIONS))
def test_mixed_dimensions_are_a_domain_error(entry):
    """Every two-argument function checks the dimensions before it computes: a mean
    difference taken first is a raw numpy broadcast ValueError."""
    with pytest.raises(DomainError, match="dimension"):
        MIXED_DIMENSIONS[entry]()


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


# Valid pairs whose midpoint fails past the lift's condition check.  The first
# one's whitened covariance inverts as singular in the embedding: it raised
# DomainError, the class of invalid input, while only the lift check was
# classified.  The second one's fiber alignment stalls at residual 5.29e-09.
MIDPOINT_FAILURES = {
    "singular embedding": (
        GaussianParam([7.941560572342518e-06, 3.325717990762515e-06],
                      [[2.443289232369225e-07, -2.783327205121828e-04],
                       [-2.783327205121828e-04, 3.1706932503533436e-01]]),
        GaussianParam([-5.238298948572426e-06, 1.3363748618582703e-06],
                      [[0.20043695108994927, 0.05187418911933341],
                       [0.05187418911933341, 0.01342532643869311]]),
        "failed on valid input",
    ),
    "fiber alignment": (
        GaussianParam([-1.3865532509133734e-06, 3.300010398406011e-07],
                      [[60.158623586439084, 27.488124207693623],
                       [27.488124207693623, 12.560077467016635]]),
        GaussianParam([1.2188436051712234e-05, 3.829295827134724e-06],
                      [[0.007031995101787173, -0.014079583002470177],
                       [-0.014079583002470177, 0.028190386178568852]]),
        r"fiber alignment failed: residual 5\.29e-09",
    ),
}


@pytest.mark.parametrize("case", sorted(MIDPOINT_FAILURES))
def test_a_failing_midpoint_of_a_valid_pair_is_a_numerical_error(case):
    p0, p1, match = MIDPOINT_FAILURES[case]
    with pytest.raises(NumericalError, match=match):
        fisher_rao_midpoint_mvn(p0, p1)


def _near_singular_member(rng, d):
    """N(1e-5 z, s Q diag(e) Q^T): e_0 = 1, the smallest e 10^U(-12, -10), any others
    log-uniform between them, s = 10^U(-3, 3); a draw past the condition bound is redrawn."""
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        smallest = rng.uniform(-12.0, -10.0)
        e = 10.0 ** np.concatenate([[0.0], rng.uniform(smallest, 0.0, d - 2), [smallest]])
        c = 10.0 ** rng.uniform(-3.0, 3.0) * (q * e) @ q.T
        try:
            return GaussianParam(1e-5 * rng.normal(size=d), 0.5 * (c + c.T))
        except DomainError:
            continue


@pytest.mark.parametrize("d", [2, 3, 5])
def test_midpoints_of_near_singular_pairs_are_classified(d):
    """Every pair is valid, so the midpoint returns or raises NumericalError, never
    DomainError.  While only the lift check was classified, 4000 pairs of these
    draws at d = 2 gave 3 to 7 DomainErrors (seeds 1, 2 and 37); at d = 3 and 5, none."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([37, d])))
    for i in range(500):
        p0, p1 = _near_singular_member(rng, d), _near_singular_member(rng, d)
        try:
            fisher_rao_midpoint_mvn(p0, p1)
        except NumericalError:
            pass
        except DomainError as exc:
            pytest.fail(f"pair {i}: {exc}")


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


# Two valid rows whose first bins, 5e-324 each, halve to 0 in the weighted
# arithmetic mean: a zero bin built from valid input.
UNDERFLOW_ROWS = [[5e-324, 0.5, 0.5], [5e-324, 0.3, 0.7]]


def test_an_underflowing_arithmetic_mean_is_a_numerical_error():
    with pytest.raises(NumericalError, match="weighted arithmetic mean failed on valid input"):
        jc.arithmetic_mean(HistogramSet(UNDERFLOW_ROWS, None))


@pytest.mark.parametrize("method", ["arithmetic", "gb", "jeffreys", "jfr"])
def test_an_underflowing_arithmetic_mean_exits_3(method, tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in UNDERFLOW_ROWS))
    code = main(["compute", "--family", "categorical", "--method", method, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("centers: numerical failure: ")


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


def _mvn_workload_set(index: int, seed: int = 300):
    """Means and covariances of set ``index`` of the benchmark's ``mvn`` workload:
    four normals at d in (1, 2, 3, 5, 8), covariance scales 1e-2..1e2, sets
    alternating five at a time between one shared mean and spread means."""
    d = (1, 2, 3, 5, 8)[index % 5]
    same_mean = (index // 5) % 2 == 0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, d, index])))
    m0 = rng.normal(size=d)
    means, covs = np.empty((4, d)), np.empty((4, d, d))
    for i in range(4):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
        c = (q * (scale * rng.uniform(0.5, 2.0, size=d))) @ q.T
        covs[i] = 0.5 * (c + c.T)
        if same_mean:
            means[i] = m0
        else:
            u = rng.normal(size=d)
            means[i] = m0 + 10.0 ** rng.uniform(-1.0, 1.0) * np.sqrt(scale) * u / np.linalg.norm(u)
    return means, covs


def _scale_errors(unit: GaussianParam, scaled: GaussianParam, scale: float):
    """Largest mean and covariance errors of ``scaled`` against ``unit`` moved
    to the scale, each relative to the largest entry of ``unit``."""
    mean_err = np.abs(scaled.mean / np.sqrt(scale) - unit.mean).max()
    cov_err = np.abs(scaled.cov.entries / scale - unit.cov.entries).max()
    return mean_err / np.abs(unit.mean).max(), cov_err / np.abs(unit.cov.entries).max()


# Before the Gaussian domain test became the open cone, an absolute eigenvalue
# floor on -theta_M rejected the members themselves at large scales: 40 of
# these 50 sets failed JFR and GB at s = 1e12 and all 50 at s = 1e14.  The
# natural coordinates shrink like 1/s, so a GB stopping gap that stayed
# absolute below unit norm would stop early at large s (9e-5 off at 1e6).
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12, 1e14])
def test_mvn_centers_follow_covariance_scale(scale):
    """Covariances x s and means x sqrt(s): JFR moves with the scale to 1e-8
    relative, and GB to 1e-7."""
    for index in range(50):
        means, covs = _mvn_workload_set(index)
        unit_set = _gaussians(means, covs)
        scaled_set = _gaussians(np.sqrt(scale) * means, scale * covs)
        jfr_errs = _scale_errors(jfr_center_mvn(unit_set), jfr_center_mvn(scaled_set), scale)
        assert max(jfr_errs) <= 1e-8, index
        gb_errs = _scale_errors(gb_center_mvn(unit_set)[0], gb_center_mvn(scaled_set)[0], scale)
        assert max(gb_errs) <= 1e-7, index


# Members whose condition number sits just under the 1e12 bound.  Inverting
# such a covariance moves its computed condition number by up to about 1e-4,
# so a domain test that applied the condition bound to -theta_M (rather than
# the open cone) rejected some of these valid members.
NEAR_BOUND_CONDITION = 1e12 * (1.0 - 1e-4)


def _near_bound_pair(index: int):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, index])))
    d = 2 + index % 4
    while True:  # a draw whose rounding puts it past the bound is not a valid member
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        c = (q * np.geomspace(1.0, NEAR_BOUND_CONDITION, d)) @ q.T
        try:
            member = GaussianParam(rng.normal(size=d), SPDMatrix(0.5 * (c + c.T)))
        except DomainError:
            continue
        return [member, GaussianParam(rng.normal(size=d), np.eye(d))]


def test_members_near_the_condition_bound_keep_their_centers():
    for index in range(100):
        pair = _near_bound_pair(index)
        _, diag = gb_center_mvn(pair)
        assert diag.status == "converged", index
        right, left = sided_kl_centroids_mvn(pair)
        assert np.all(np.isfinite(right.mean)) and np.all(np.isfinite(left.mean)), index


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


# --- the parse contract ---------------------------------------------------------
#
# Every public entry point parses a caller's array with ``legendre._float_array``,
# so each refuses the same malformed input with a DomainError naming the argument.

def _with_first_leaf(x, leaf):
    """A copy of the nested list ``x`` whose first leaf is ``leaf``."""
    return [_with_first_leaf(x[0], leaf), *x[1:]] if isinstance(x, list) else leaf


def _first_leaf(x):
    return _first_leaf(x[0]) if isinstance(x, list) else x


def _ragged(x):
    """``x`` with its last leaf wrapped in a list."""
    return [*x[:-1], _ragged(x[-1])] if isinstance(x, list) else [x]


def _shorter(x):
    """``x`` less the last entry along its last axis."""
    return [_shorter(v) for v in x] if isinstance(x[0], list) else x[:-1]


BAD_ARRAYS = {
    "boolean leaf": lambda v: _with_first_leaf(v, True),
    "numeric string leaf": lambda v: _with_first_leaf(v, str(_first_leaf(v))),
    "ragged": _ragged,
    "wrong ndim": lambda v: [v, v],
    "wrong length": _shorter,
    "nan": lambda v: _with_first_leaf(v, math.nan),
}

_HALVES = [0.5, 0.5]
_SPD = [[2.0, 0.0], [0.0, 1.0]]
_ROWS = [[0.5, 0.5], [0.2, 0.8]]
_G = [jc.GaussianParam([0.0, 1.0], np.eye(2)), jc.GaussianParam([0.0, 1.0], 2.0 * np.eye(2))]
_BURG = jc.burg_generator(2)
_MVN = jc.mvn_generator(1)  # flat naturals (theta_v, theta_M), moments (mu, mu^2 + sigma^2)
# Kinds an entry point takes by design: any length along a free axis, any shape, or a
# non-finite value whose domain is checked by the caller of a generator callable.
_ANY_LENGTH, _ANY_SHAPE, _NO_DOMAIN = {"wrong length"}, {"wrong ndim", "wrong length"}, {"nan"}

# "entry.argument" -> (name the error carries, call on the array, a valid array, kinds it takes)
PARSE_CONTRACT = {
    "GaussianParam.mean": ("mean", lambda x: jc.GaussianParam(x, np.eye(2)), [0.0, 1.0], ()),
    "GaussianParam.cov": ("SPDMatrix entries", lambda x: jc.GaussianParam([0.0, 1.0], x), _SPD, ()),
    "SPDMatrix.entries": ("SPDMatrix entries", jc.SPDMatrix, _SPD, ()),
    "check_weights.weights": ("weights", lambda x: jc.check_weights(x, 2), _HALVES, ()),
    "WeightedParamSet.points": (
        "points", lambda x: jc.WeightedParamSet(x, None), [[1.0], [2.0]], _ANY_LENGTH | _NO_DOMAIN
    ),
    "WeightedParamSet.weights": (
        "weights", lambda x: jc.WeightedParamSet([[1.0], [2.0]], x), _HALVES, ()
    ),
    "SimplexPoint.probs": ("SimplexPoint", jc.SimplexPoint, _HALVES, ()),
    "HistogramSet.rows": ("histogram row", lambda x: jc.HistogramSet(x, None), _ROWS, ()),
    "HistogramSet.weights": ("weights", lambda x: jc.HistogramSet(_ROWS, x), _HALVES, ()),
    "GeneratorSpec.require_domain": (
        "theta", lambda x: _BURG.require_domain(x, "theta"), [1.0, 2.0], ()
    ),
    "bregman_div.theta1": (
        "first argument", lambda x: jc.bregman_div(_BURG, x, [1.0, 1.0]), [1.0, 2.0], ()
    ),
    "symmetrized_bregman.theta2": (
        "second argument", lambda x: jc.symmetrized_bregman(_BURG, [1.0, 1.0], x), [1.0, 2.0], ()
    ),
    "jeffreys_loss.theta": (
        "query point",
        lambda x: jc.jeffreys_loss(_BURG, jc.WeightedParamSet([[1.0, 1.0]], None), x),
        [1.0, 2.0], (),
    ),
    "gb_step.theta_bar": (
        "arithmetic iterate", lambda x: jc.gb_step(_BURG, x, [1.0, 1.0], [-1.0, -1.0]),
        [1.0, 2.0], (),
    ),
    "gb_step.theta_under": (
        "quasi-arithmetic iterate", lambda x: jc.gb_step(_BURG, [1.0, 1.0], x, [-1.0, -1.0]),
        [1.0, 2.0], (),
    ),
    "gb_step.eta_under": (
        "moment iterate", lambda x: jc.gb_step(_BURG, [1.0, 1.0], [1.0, 1.0], x),
        [-1.0, -1.0], (),
    ),
    "mvn_from_natural.x": ("flat naturals", lambda x: jc.mvn_from_natural(x, 1), [0.0, -0.5], ()),
    "mvn_generator.eval_F": ("natural parameter", _MVN.eval_F, [0.0, -0.5], ()),
    "mvn_generator.eval_grad": ("natural parameter", _MVN.eval_grad, [0.0, -0.5], _NO_DOMAIN),
    "mvn_generator.eval_grad_inv": ("moment parameter", _MVN.eval_grad_inv, [0.0, 1.0], ()),
    "mvn_generator.in_domain": ("natural parameter", _MVN.in_domain, [0.0, -0.5], _NO_DOMAIN),
    "lambert_w0.x": ("lambert_w0", jc.lambert_w0, [0.5, 1.0], _ANY_SHAPE),
    "jfr_center_1d.thetas": (
        "theta", lambda x: jc.jfr_center_1d(_SQUARED, x), [1.0, 2.0], _ANY_LENGTH
    ),
    "jfr_center_1d.weights": (
        "weights", lambda x: jc.jfr_center_1d(_SQUARED, [1.0, 2.0], x), _HALVES, ()
    ),
    "sld_centroid.mats": ("SPDMatrix entries", lambda x: jc.sld_centroid([x, _SPD]), _SPD, ()),
    "sld_centroid.weights": ("weights", lambda x: jc.sld_centroid([_SPD, _SPD], x), _HALVES, ()),
    "geometric_mean.x": ("SPDMatrix entries", lambda x: jc.geometric_mean(x, _SPD), _SPD, ()),
    "trace_metric_distance.p2": (
        "SPDMatrix entries", lambda x: jc.trace_metric_distance(_SPD, x), _SPD, ()
    ),
    "logdet_div.x": ("SPDMatrix entries", lambda x: jc.logdet_div(x, _SPD), _SPD, ()),
    "symmetrized_logdet.y": (
        "SPDMatrix entries", lambda x: jc.symmetrized_logdet(_SPD, x), _SPD, ()
    ),
    "jeffreys_centroid_centered.covs": (
        "SPDMatrix entries", lambda x: jc.jeffreys_centroid_centered([_SPD, x]), _SPD, ()
    ),
    "jeffreys_centroid_centered.weights": (
        "weights", lambda x: jc.jeffreys_centroid_centered([_SPD, _SPD], x), _HALVES, ()
    ),
    "jeffreys_centroid_centered.mean": (
        "mean", lambda x: jc.jeffreys_centroid_centered([_SPD, _SPD], mean=x), [0.0, 1.0], ()
    ),
    "sided_kl_centroids_mvn.weights": (
        "weights", lambda x: jc.sided_kl_centroids_mvn(_G, x), _HALVES, ()
    ),
    "jfr_center_mvn.weights": ("weights", lambda x: jc.jfr_center_mvn(_G, x), _HALVES, ()),
    "gb_center_mvn.weights": ("weights", lambda x: jc.gb_center_mvn(_G, x), _HALVES, ()),
    "jeffreys_loss_mvn.weights": (
        "weights", lambda x: jc.jeffreys_loss_mvn(_G, x, _G[0]), _HALVES, ()
    ),
}

# Public callables whose arguments are library types, scalars or callables, never a caller's array.
TAKES_NO_CALLER_ARRAYS = {
    "DomainError", "NumericalError", "ToleranceConfig", "CenterDiagnostics", "ScalarGenerator",
    "JeffreysCatResult", "burg_generator", "shannon_generator", "quasi_arithmetic_center",
    "right_bregman_centroid", "gb_center", "arithmetic_mean", "normalized_geometric_mean",
    "jeffreys_centroid_cat", "jfr_center_cat", "gb_center_cat", "unnormalized_center", "kl_cat",
    "jeffreys_cat", "tv_cat", "jeffreys_loss_cat", "approximation_factor", "mvn_to_natural",
    "kl_mvn", "jeffreys_mvn", "fisher_rao_midpoint_mvn",
}


@pytest.mark.parametrize("kind", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("entry", sorted(PARSE_CONTRACT))
def test_every_entry_point_refuses_a_malformed_array(entry, kind):
    name, call, valid, takes = PARSE_CONTRACT[entry]
    call(valid)
    if kind in takes:
        return
    with pytest.raises(DomainError, match=name):
        call(BAD_ARRAYS[kind](valid))


# lambert_w0 solves x > 0 only, the domain of the histogram multiplier solve.
W0_REFUSED = [0.0, -0.0, -5e-324, -math.exp(-1.0), -0.5]


@pytest.mark.parametrize("x", W0_REFUSED, ids=repr)
def test_lambert_w0_refuses_x_at_or_below_zero(x):
    for arg in (x, [0.5, x]):
        with pytest.raises(DomainError, match="x > 0"):
            jc.lambert_w0(arg)


def test_every_public_callable_is_held_to_the_parse_contract():
    """A new public entry point joins PARSE_CONTRACT, or TAKES_NO_CALLER_ARRAYS if it takes
    no array from its caller."""
    public = {name for name in jc.__all__ if callable(getattr(jc, name))}
    in_table = {entry.split(".")[0] for entry in PARSE_CONTRACT}
    assert public - in_table - TAKES_NO_CALLER_ARRAYS == set()
    assert in_table & TAKES_NO_CALLER_ARRAYS == set()
    assert (in_table | TAKES_NO_CALLER_ARRAYS) - public == set()


# numpy reads a list that mixes booleans and numbers as floats before any check sees it.
MIXED_LEAVES = {
    "GaussianParam": lambda: GaussianParam([True, 1.0], np.eye(2)),
    "lambert_w0": lambda: lambert_w0([True, 1.0]),
    "check_weights": lambda: check_weights(np.array(["0.5", "0.5"], dtype=object), 2),
    "nested ndarray": lambda: SimplexPoint([np.array([True]), np.array([0.5])]),
}


@pytest.mark.parametrize("entry", sorted(MIXED_LEAVES))
def test_a_boolean_or_string_beside_numbers_is_a_domain_error(entry):
    with pytest.raises(DomainError, match="not an array of numbers"):
        MIXED_LEAVES[entry]()


def _weighted_gaussians(first_weight):
    return [{"mean": [0.0], "cov": [[1.0]], "weight": first_weight},
            {"mean": [0.0], "cov": [[2.0]], "weight": 0.5}]


# case -> (family, input file contents, weights file contents or None)
CLI_BAD_INPUTS = {
    "boolean JSON weight": ("gaussian", _weighted_gaussians(True), None),
    "string JSON weight": ("gaussian", _weighted_gaussians("0.5"), None),
    "ragged CSV rows": ("categorical", "0.5,0.5\n0.2,0.3,0.5\n", None),
    "wrong weights count": ("categorical", "0.5,0.5\n0.2,0.8\n", "0.2,0.3,0.5\n"),
}


@pytest.mark.parametrize("case", sorted(CLI_BAD_INPUTS))
def test_malformed_cli_input_exits_2_with_one_line(case, tmp_path, capsys):
    family, data, weights = CLI_BAD_INPUTS[case]
    path = tmp_path / ("in.json" if family == "gaussian" else "in.csv")
    path.write_text(json.dumps(data) if family == "gaussian" else data)
    args = ["compute", "--family", family, "--method", "arithmetic", "--input", str(path)]
    if weights is not None:
        (tmp_path / "w.csv").write_text(weights)
        args += ["--weights", str(tmp_path / "w.csv")]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("centers: ")
