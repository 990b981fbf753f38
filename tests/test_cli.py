import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jeffreys_centers import (
    HistogramSet,
    SimplexPoint,
    approximation_factor,
    jeffreys_centroid_cat,
    tv_cat,
    unnormalized_center,
)
from jeffreys_centers.cli import main, render_report

SRC = Path(__file__).resolve().parent.parent / "src"

# The iterative methods that take --epsilon, and the input fixture of each family.
EPSILON_METHODS = [("categorical", "jeffreys"), ("categorical", "gb"), ("gaussian", "gb")]
NON_ITERATING_METHODS = [
    ("categorical", "jfr"), ("categorical", "arithmetic"), ("categorical", "geometric"),
    ("categorical", "unnormalized"), ("gaussian", "jfr"), ("gaussian", "jeffreys"),
    ("gaussian", "arithmetic"), ("gaussian", "geometric"),
]
FAMILY_INPUT = {"categorical": "table2_csv_file", "gaussian": "gaussian_json_file"}


@pytest.fixture
def table2_csv_file(tmp_path):
    path = tmp_path / "hists.csv"
    path.write_text(
        f"{1/3!r},{1/3!r},{1/3!r}\n0.9,0.05,0.05\n"
    )
    return path


@pytest.fixture
def gaussian_json_file(tmp_path):
    path = tmp_path / "gaussians.json"
    data = [
        {"mean": [0.0, 0.0], "cov": [[1.0, 0.2], [0.2, 2.0]]},
        {"mean": [0.0, 0.0], "cov": [[1.0, 0.2], [0.2, 2.0]]},
    ]
    path.write_text(json.dumps(data))
    return path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_a_process(args) -> subprocess.CompletedProcess:
    """``centers`` in a fresh interpreter, so its own logging setup runs (CENTERS_LOG=warn)."""
    return subprocess.run(
        [sys.executable, "-m", "jeffreys_centers.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC), CENTERS_LOG="warn"),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestRenderReport:
    def test_floats_scientific(self):
        text = render_report({"x": 0.5, "n": 3, "name": "y", "ok": True})
        assert '"x": 5.00000e-01' in text
        assert '"n": 3' in text
        assert '"ok": true' in text
        json.loads(text)  # stays valid JSON

    def test_nested(self):
        text = render_report({"center": [0.25, 0.75], "d": {"residual": 1e-9}})
        parsed = json.loads(text)
        assert parsed["center"] == [0.25, 0.75]


class TestCompute:
    def test_categorical_jfr_with_reference(self, table2_csv_file, capsys):
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "jfr",
                "--input", str(table2_csv_file), "--reference",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert abs(sum(report["center"]) - 1.0) < 1e-9
        assert report["info_eps"] == pytest.approx(6.882e-09, rel=0.06)
        assert report["tv_eps"] == pytest.approx(2.495e-05, rel=0.06)

    def test_categorical_jeffreys(self, table2_csv_file, capsys):
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "jeffreys",
                "--input", str(table2_csv_file), "--epsilon", "1e-10",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["lambda"] <= 0.0
        assert report["mass_residual"] <= 1e-8
        assert report["diagnostics"]["status"] == "converged"

    def test_categorical_unnormalized(self, table2_csv_file, capsys):
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "unnormalized",
                "--input", str(table2_csv_file),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mass"] < 1.0

    def test_weights_file(self, table2_csv_file, tmp_path, capsys):
        wpath = tmp_path / "w.csv"
        wpath.write_text("0.25,0.75\n")
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "arithmetic",
                "--input", str(table2_csv_file), "--weights", str(wpath),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        expect = 0.25 * np.array([1 / 3, 1 / 3, 1 / 3]) + 0.75 * np.array([0.9, 0.05, 0.05])
        assert np.abs(np.array(report["center"]) - expect).max() < 1e-6

    def test_malformed_csv_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,oops\n")
        code, _, err = run(
            ["compute", "--family", "categorical", "--method", "jfr", "--input", str(path)],
            capsys,
        )
        assert code == 2
        assert "row 1" in err

    def test_negative_bin_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n1.2,-0.2\n")
        code, _, err = run(
            ["compute", "--family", "categorical", "--method", "jfr", "--input", str(path)],
            capsys,
        )
        assert code == 2
        assert "row 1" in err

    def test_row_sum_slack(self, tmp_path, capsys):
        path = tmp_path / "offsum.csv"
        path.write_text("0.5000001,0.5\n")  # within 1e-6: renormalized
        code, out, _ = run(
            ["compute", "--family", "categorical", "--method", "arithmetic", "--input", str(path)],
            capsys,
        )
        assert code == 0
        path.write_text("0.6,0.5\n")  # outside: rejected
        code, _, _ = run(
            ["compute", "--family", "categorical", "--method", "arithmetic", "--input", str(path)],
            capsys,
        )
        assert code == 2

    def test_dimension_mismatch(self, tmp_path, capsys):
        path = tmp_path / "dims.csv"
        path.write_text("0.5,0.5\n0.2,0.3,0.5\n")
        code, _, err = run(
            ["compute", "--family", "categorical", "--method", "jfr", "--input", str(path)],
            capsys,
        )
        assert code == 2
        assert "row 1 has length 3, row 0 has length 2" in err

    def test_gaussian_gb_equal_inputs(self, gaussian_json_file, capsys):
        code, out, _ = run(
            [
                "compute", "--family", "gaussian", "--method", "gb",
                "--input", str(gaussian_json_file),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["diagnostics"]["iterations"] == 0
        assert np.abs(np.array(report["center"]["cov"]) - [[1.0, 0.2], [0.2, 2.0]]).max() < 1e-6

    def test_gaussian_jeffreys_needs_same_mean(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                [
                    {"mean": [0.0], "cov": [[1.0]]},
                    {"mean": [1.0], "cov": [[2.0]]},
                ]
            )
        )
        code, _, err = run(
            ["compute", "--family", "gaussian", "--method", "jeffreys", "--input", str(path)],
            capsys,
        )
        assert code == 2
        assert "same-mean" in err

    @pytest.mark.parametrize(
        "members, code",
        [
            # 100 standard deviations apart, though the means differ by only 1e-13
            ([([0.0], [[1e-30]]), ([1e-13], [[4e-30]])], 2),
            # 1e-13 standard deviations apart, though the means differ by 1e-3
            ([([0.0, 0.0], [[1e20, 0.0], [0.0, 1e20]]),
              ([1e-3, 0.0], [[2e20, 0.0], [0.0, 1e20]])], 0),
        ],
        ids=["tiny-scale-apart", "huge-scale-same"],
    )
    def test_gaussian_same_mean_is_read_in_standard_deviations(
        self, tmp_path, capsys, members, code
    ):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([{"mean": m, "cov": c} for m, c in members]))
        got, out, err = run(
            ["compute", "--family", "gaussian", "--method", "jeffreys", "--input", str(path)],
            capsys,
        )
        assert got == code
        if code == 2:
            assert "same-mean" in err
        else:
            assert json.loads(out)["center"]["mean"] == members[0][0]

    def test_gaussian_same_mean_jeffreys(self, gaussian_json_file, capsys):
        code, out, _ = run(
            [
                "compute", "--family", "gaussian", "--method", "jeffreys",
                "--input", str(gaussian_json_file),
            ],
            capsys,
        )
        assert code == 0

    def test_gaussian_rejects_unnormalized(self, gaussian_json_file, capsys):
        code, _, _ = run(
            [
                "compute", "--family", "gaussian", "--method", "unnormalized",
                "--input", str(gaussian_json_file),
            ],
            capsys,
        )
        assert code == 2

    def test_gaussian_rejects_reference(self, gaussian_json_file, capsys):
        code, _, _ = run(
            [
                "compute", "--family", "gaussian", "--method", "jfr",
                "--input", str(gaussian_json_file), "--reference",
            ],
            capsys,
        )
        assert code == 2

    def test_output_file(self, table2_csv_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "gb",
                "--input", str(table2_csv_file), "--output", str(out_path),
            ],
            capsys,
        )
        assert code == 0 and out == ""
        json.loads(out_path.read_text())

    @pytest.mark.parametrize("row", ["0.5,0.5", "0.2,0.3,0.5"], ids=["zero-loss", "noise-loss"])
    def test_identical_rows_reference_scores_zero(self, row, tmp_path, capsys):
        """The scoring rule of ``bench``: the reference loss of identical rows is zero
        (which made the report fail) or rounding noise (which made ``info_eps`` a ratio
        of noise, 5.6e-01 on the second rows); every center coincides, so it is 0."""
        path = tmp_path / "same.csv"
        path.write_text(f"{row}\n{row}\n")
        code, out, _ = run(
            [
                "compute", "--family", "categorical", "--method", "jfr",
                "--input", str(path), "--reference",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["info_eps"] == 0.0

    def test_gaussian_partial_weights_rejected(self, tmp_path, capsys):
        path = tmp_path / "gp.json"
        path.write_text(
            json.dumps(
                [
                    {"mean": [0.0], "cov": [[1.0]], "weight": 0.5},
                    {"mean": [0.0], "cov": [[4.0]]},
                ]
            )
        )
        code, _, _ = run(
            ["compute", "--family", "gaussian", "--method", "arithmetic", "--input", str(path)],
            capsys,
        )
        assert code == 2

    def test_gaussian_weights_in_json(self, tmp_path, capsys):
        path = tmp_path / "gw.json"
        path.write_text(
            json.dumps(
                [
                    {"mean": [0.0], "cov": [[1.0]], "weight": 0.3},
                    {"mean": [0.0], "cov": [[4.0]], "weight": 0.7},
                ]
            )
        )
        code, out, _ = run(
            ["compute", "--family", "gaussian", "--method", "arithmetic", "--input", str(path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["center"]["cov"][0][0] == pytest.approx(0.3 * 1.0 + 0.7 * 4.0, rel=1e-6)

    @pytest.mark.parametrize("family, method", EPSILON_METHODS)
    def test_epsilon_is_the_reported_tolerance(self, family, method, request, capsys):
        path = request.getfixturevalue(FAMILY_INPUT[family])
        code, out, _ = run(
            ["compute", "--family", family, "--method", method, "--input", str(path),
             "--epsilon", "1e-3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["diagnostics"]["tolerance"] == 1e-3

    @pytest.mark.parametrize("family, method", EPSILON_METHODS)
    def test_zero_epsilon_exits_2(self, family, method, request, capsys):
        path = request.getfixturevalue(FAMILY_INPUT[family])
        code, _, err = run(
            ["compute", "--family", family, "--method", method, "--input", str(path),
             "--epsilon", "0"],
            capsys,
        )
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize("family, method", NON_ITERATING_METHODS)
    def test_epsilon_of_a_method_that_does_not_iterate_exits_2(
        self, family, method, request, capsys
    ):
        path = request.getfixturevalue(FAMILY_INPUT[family])
        code, out, err = run(
            ["compute", "--family", family, "--method", method, "--input", str(path),
             "--epsilon", "1e-3"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "--epsilon applies to categorical jeffreys and gb, and gaussian gb only" in err

    @pytest.mark.parametrize(
        "bad",
        [
            {"mean": [0.0], "cov": [[1.0]], "weight": "heavy"},
            {"mean": {"x": 0.0}, "cov": [[1.0]], "weight": 0.5},
            # numpy would read these as floats: True as 1.0, "0.5" as 0.5
            {"mean": ["1.0"], "cov": [[1.0]], "weight": 0.5},
            {"mean": [True], "cov": [[1.0]], "weight": 0.5},
            {"mean": [True, 1.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "weight": 0.5},
            {"mean": [0.0], "cov": [[True]], "weight": 0.5},
            {"mean": [0.0], "cov": [[1.0]], "weight": "0.5"},
            {"mean": [0.0], "cov": [[1.0]], "weight": True},
        ],
        ids=["non-numeric weight", "mean object", "numeric string in mean", "boolean mean",
             "boolean beside a number in mean", "boolean in cov", "numeric string weight",
             "boolean weight"],
    )
    def test_malformed_gaussian_entry_names_entry(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"mean": [0.0], "cov": [[1.0]], "weight": 0.5}, bad]))
        code, _, err = run(
            ["compute", "--family", "gaussian", "--method", "arithmetic", "--input", str(path)],
            capsys,
        )
        assert code == 2
        assert "gaussian entry 1" in err

    def test_parse_error_is_printed_once(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,oops\n")
        proc = run_in_a_process(
            ["compute", "--family", "categorical", "--method", "jfr", "--input", str(path)]
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "centers: invalid input: histogram row 1, column 1: cannot parse 'oops' as a number"
        ]


class TestBenchCli:
    def test_table1_deterministic(self, tmp_path, capsys):
        args = [
            "bench", "table1", "--dims", "4", "--trials", "10", "--seed", "42",
            "--no-timing",
        ]
        code, out1, _ = run(args, capsys)
        assert code == 0
        code, out2, _ = run(args, capsys)
        assert out1 == out2
        assert out1.splitlines()[0] == (
            "dim,method,avg_info_eps,max_info_eps,avg_tv,max_tv,avg_time_ns,speedup"
        )
        assert len(out1.splitlines()) == 3

    def test_table2_runs(self, capsys):
        code, out, _ = run(
            ["bench", "table2", "--alphas", "1e-1,1e-2", "--no-timing"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_table2_bad_alpha(self, capsys):
        code, _, _ = run(["bench", "table2", "--alphas", "2.0"], capsys)
        assert code == 2

    def test_table1_bad_dims(self, capsys):
        code, _, err = run(
            ["bench", "table1", "--dims", "1", "--trials", "2"], capsys
        )
        assert code == 2
        assert err == "centers: invalid input: every dimension must be >= 2, got [1]\n"

    def test_table1_no_trials(self, capsys):
        code, out, err = run(["bench", "table1", "--dims", "4", "--trials", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "centers: invalid input: trials must be >= 1, got 0\n"

    def test_table2_warns_once_per_indistinguishable_alpha(self):
        proc = run_in_a_process(["bench", "table2", "--alphas", "1e-16,1e-1", "--no-timing"])
        assert proc.returncode == 0
        warned = [ln for ln in proc.stderr.splitlines() if "loses distinguishability" in ln]
        assert len(warned) == 1 and "alpha=1.000e-16" in warned[0]


def _file(directory, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


def _compute(family: str, path: str, *extra: str) -> list:
    return ["compute", "--family", family, "--method", "arithmetic", "--input", path, *extra]


# case -> the arguments of a command, given a directory to write its input files in
CLI_ERRORS = {
    "missing CSV input": lambda d: _compute("categorical", str(d / "missing.csv")),
    "missing JSON input": lambda d: _compute("gaussian", str(d / "missing.json")),
    "invalid JSON": lambda d: _compute("gaussian", _file(d, "in.json", "[{")),
    "empty JSON list": lambda d: _compute("gaussian", _file(d, "in.json", "[]")),
    "entry without cov": lambda d: _compute(
        "gaussian", _file(d, "in.json", json.dumps([{"mean": [0.0]}]))
    ),
    "weights with a gaussian input": lambda d: _compute(
        "gaussian", _file(d, "in.json", json.dumps([{"mean": [0.0], "cov": [[1.0]]}])),
        "--weights", _file(d, "w.csv", "1.0\n"),
    ),
    "two-row weights CSV": lambda d: _compute(
        "categorical", _file(d, "in.csv", "0.5,0.5\n0.2,0.8\n"),
        "--weights", _file(d, "w.csv", "0.5,0.5\n0.5,0.5\n"),
    ),
    "unparsable dims": lambda d: ["bench", "table1", "--dims", "4,x"],
    "unparsable alphas": lambda d: ["bench", "table2", "--alphas", "0.1,y"],
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_error_exits_2_with_one_line(case, tmp_path, capsys):
    code, out, err = run(CLI_ERRORS[case](tmp_path), capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("centers: invalid input: ")


# A NaN, infinite or unit tolerance is invalid input like 0, but NaN passes an
# `epsilon <= 0` test and inf an `epsilon > 0` one: each command would report a
# center after no iteration.
@pytest.mark.parametrize("epsilon", ["nan", "inf", "1"])
@pytest.mark.parametrize(
    "command",
    [
        ["compute", "--family", "categorical", "--method", "jeffreys"],
        ["compute", "--family", "categorical", "--method", "gb"],
        ["compute", "--family", "gaussian", "--method", "gb"],
        ["bench", "table1", "--dims", "4", "--trials", "2"],
        ["bench", "table2", "--alphas", "1e-1"],
    ],
    ids=["compute-jeffreys", "compute-gb", "compute-gaussian-gb", "table1", "table2"],
)
def test_nan_epsilon_exits_2(command, epsilon, request, capsys):
    inputs = []
    if command[0] == "compute":
        inputs = ["--input", str(request.getfixturevalue(FAMILY_INPUT[command[2]]))]
    code, out, err = run(command + inputs + ["--epsilon", epsilon], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("centers: invalid input: ")


# Report keys in order: the common head, each method's own fields, then the center,
# its loss and its diagnostics.
HEAD_KEYS = ["schema_version", "family", "method", "n", "dim"]
TAIL_KEYS = ["center", "jeffreys_loss", "diagnostics"]
OWN_KEYS = {
    ("categorical", "jeffreys"): ["lambda", "mass_residual"] + TAIL_KEYS,
    ("categorical", "unnormalized"): ["center", "mass", "jeffreys_loss", "diagnostics"],
}
REFERENCE_KEYS = ["reference_center", "info_eps", "tv_eps"]
ALL_PAIRS = [
    (family, method)
    for family in ("categorical", "gaussian")
    for method in ("jeffreys", "jfr", "gb", "arithmetic", "geometric", "unnormalized")
]


@pytest.mark.parametrize("family, method", ALL_PAIRS)
def test_every_family_and_method_pair(family, method, request, capsys):
    path = request.getfixturevalue(FAMILY_INPUT[family])
    code, out, err = run(
        ["compute", "--family", family, "--method", method, "--input", str(path)], capsys
    )
    if (family, method) == ("gaussian", "unnormalized"):
        assert code == 2 and out == ""
        assert err == (
            "centers: invalid input: method 'unnormalized' applies to the categorical family only\n"
        )
        return
    assert code == 0
    assert list(json.loads(out)) == HEAD_KEYS + OWN_KEYS.get((family, method), TAIL_KEYS)


def test_unnormalized_reference_scores_the_renormalized_center(table2_csv_file, capsys):
    code, out, _ = run(
        ["compute", "--family", "categorical", "--method", "unnormalized",
         "--input", str(table2_csv_file), "--reference"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert list(report)[-3:] == REFERENCE_KEYS
    assert report["info_eps"] >= 0.0
    # the raw candidate is reported, the scores read its renormalization
    hset = HistogramSet([[1 / 3, 1 / 3, 1 / 3], [0.9, 0.05, 0.05]])
    raw, mass = unnormalized_center(hset)
    ref = jeffreys_centroid_cat(hset, 1e-10).center
    center = SimplexPoint(raw / mass)
    assert report["info_eps"] == pytest.approx(approximation_factor(hset, center, ref), rel=1e-5)
    assert report["tv_eps"] == pytest.approx(tv_cat(center, ref), rel=1e-5)


@pytest.mark.parametrize("bad_row", ["1.2,-0.2", "1.0,0.0"], ids=["negative", "zero"])
def test_bin_signs_are_checked_by_the_library(bad_row, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"0.5,0.5\n{bad_row}\n")
    code, _, err = run(
        ["compute", "--family", "categorical", "--method", "jfr", "--input", str(path)], capsys
    )
    assert code == 2
    assert err == "centers: invalid input: histogram row 1 has a non-finite or non-positive entry\n"


def test_weight_signs_are_checked_by_the_library(table2_csv_file, tmp_path, capsys):
    wpath = tmp_path / "w.csv"
    wpath.write_text("-0.5,1.5\n")
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps([{"mean": [0.0], "cov": [[1.0]], "weight": -0.5},
                                 {"mean": [0.0], "cov": [[2.0]], "weight": 1.5}]))
    for family, inputs in [("categorical", ["--input", str(table2_csv_file),
                                            "--weights", str(wpath)]),
                           ("gaussian", ["--input", str(gpath)])]:
        code, _, err = run(
            ["compute", "--family", family, "--method", "arithmetic"] + inputs, capsys
        )
        assert code == 2
        assert err == "centers: invalid input: weights has a non-finite or non-positive entry\n"
