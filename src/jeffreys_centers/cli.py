"""Command-line front end.

``centers compute`` evaluates any center of a histogram CSV or Gaussian JSON
input and writes a JSON report; ``centers bench table1`` and ``centers bench
table2`` reproduce the approximation-quality experiment protocols as CSV.

Exit codes: 0 success, 2 parse/validation error, 3 numerical failure.
The CENTERS_LOG environment variable (error|warn|info|debug) controls
diagnostics on standard error.  Numeric report fields use lowercase
scientific notation with 6 significant digits.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bench import (
    DEFAULT_ALPHAS,
    RunConfig,
    run_table1,
    run_table2,
    table1_csv,
    table2_csv,
)
from .categorical import (
    HistogramSet,
    SimplexPoint,
    approximation_factor,
    arithmetic_mean,
    gb_center_cat,
    jeffreys_centroid_cat,
    jeffreys_loss_cat,
    jfr_center_cat,
    normalized_geometric_mean,
    tv_cat,
    unnormalized_center,
)
from .errors import DomainError, NumericalError
from .gauss_bregman import GB_TOL
from .gaussian import (
    GaussianParam,
    gb_center_mvn,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jfr_center_mvn,
    sided_kl_centroids_mvn,
)
from .legendre import CenterDiagnostics

log = logging.getLogger("centers")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3

_ROW_SUM_SLACK = 1e-6
_EPSILON_METHODS = {("categorical", "jeffreys"), ("categorical", "gb"), ("gaussian", "gb")}


class CliError(Exception):
    """Input parsing or validation failure (exit code 2)."""


# --- JSON rendering with scientific-notation floats --------------------------

def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_render(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_render(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.5e}"
    return json.dumps(obj)


def render_report(report: dict) -> str:
    return _render(report) + "\n"


# --- input parsing ------------------------------------------------------------

def _parse_positive_row(
    fields: Sequence[str], row_index: int, kind: str
) -> np.ndarray:
    values = []
    for col, token in enumerate(fields):
        token = token.strip()
        try:
            v = float(token)
        except ValueError:
            raise CliError(
                f"{kind} row {row_index}, column {col}: cannot parse {token!r} as a number"
            )
        values.append(v)
    row = np.array(values, dtype=float)
    if np.any(~np.isfinite(row)) or np.any(row <= 0.0):
        raise CliError(f"{kind} row {row_index}: simplex violation (non-positive entry)")
    return row


def _renormalize(row: np.ndarray, row_index: int, kind: str) -> np.ndarray:
    total = row.sum()
    if abs(total - 1.0) > _ROW_SUM_SLACK:
        raise CliError(
            f"{kind} row {row_index}: mass {total!r} deviates from 1 by more than {_ROW_SUM_SLACK}"
        )
    return row / total


def read_histograms(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (l.strip() for l in fh) if ln]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    if not lines:
        raise CliError(f"{path}: no histogram rows")
    rows = []
    for i, line in enumerate(lines):
        row = _parse_positive_row(line.split(","), i, "histogram")
        rows.append(_renormalize(row, i, "histogram"))
    dims = {r.size for r in rows}
    if len(dims) != 1:
        raise CliError(f"inconsistent histogram dimensions: {sorted(dims)}")
    return np.array(rows)


def read_weights(path: str, n: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (l.strip() for l in fh) if ln]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    if len(lines) != 1:
        raise CliError(f"{path}: weights file must contain exactly one CSV row")
    row = _parse_positive_row(lines[0].split(","), 0, "weights")
    if row.size != n:
        raise CliError(f"{row.size} weights for {n} inputs")
    return _renormalize(row, 0, "weights")


def read_gaussians(path: str) -> Tuple[List[GaussianParam], Optional[np.ndarray]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(data, list) or not data:
        raise CliError(f"{path}: expected a non-empty JSON list of Gaussian objects")
    gaussians: List[GaussianParam] = []
    weights: List[Optional[float]] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or "mean" not in obj or "cov" not in obj:
            raise CliError(f"gaussian entry {i}: expected an object with 'mean' and 'cov'")
        try:
            g = GaussianParam(obj["mean"], obj["cov"])
            weights.append(float(obj["weight"]) if "weight" in obj else None)
        except (DomainError, TypeError, ValueError) as exc:
            raise CliError(f"gaussian entry {i}: {exc}")
        gaussians.append(g)
    dims = {g.dim for g in gaussians}
    if len(dims) != 1:
        raise CliError(f"inconsistent Gaussian dimensions: {sorted(dims)}")
    if all(w is None for w in weights):
        return gaussians, None
    if any(w is None for w in weights):
        raise CliError("either every Gaussian carries a 'weight' or none does")
    w = np.array([float(x) for x in weights])
    if np.any(w <= 0.0):
        raise CliError("Gaussian weights must be strictly positive")
    return gaussians, _renormalize(w, 0, "weights")


# --- report helpers -----------------------------------------------------------

def _gauss_dict(g: GaussianParam) -> dict:
    return {"mean": list(g.mean), "cov": [list(r) for r in g.cov.entries]}


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- compute ------------------------------------------------------------------

def _compute_categorical(args) -> dict:
    rows = read_histograms(args.input)
    weights = read_weights(args.weights, rows.shape[0]) if args.weights else None
    hset = HistogramSet(rows, weights)
    report: dict = {
        "schema_version": 1,
        "family": "categorical",
        "method": args.method,
        "n": hset.n,
        "dim": hset.dim,
    }
    diag = CenterDiagnostics(status="exact")
    eps = {} if args.epsilon is None else {"epsilon": args.epsilon}
    if args.method == "jeffreys":
        result = jeffreys_centroid_cat(hset, **eps)
        center = result.center
        diag = result.diagnostics
        report["lambda"] = result.lam
        report["mass_residual"] = result.mass_residual
    elif args.method == "jfr":
        center = jfr_center_cat(hset)
    elif args.method == "gb":
        center, diag = gb_center_cat(hset, **eps)
    elif args.method == "arithmetic":
        center = arithmetic_mean(hset)
    elif args.method == "geometric":
        center = normalized_geometric_mean(hset)
    elif args.method == "unnormalized":
        raw, mass = unnormalized_center(hset)
        report["center"] = list(raw)
        report["mass"] = mass
        center = SimplexPoint(raw / mass)
        report["jeffreys_loss"] = jeffreys_loss_cat(hset, center)
        report["diagnostics"] = asdict(diag)
        return report
    report["center"] = list(center.probs)
    report["jeffreys_loss"] = jeffreys_loss_cat(hset, center)
    report["diagnostics"] = asdict(diag)
    if args.reference and args.method != "jeffreys":
        ref = jeffreys_centroid_cat(hset, 1e-10)
        report["reference_center"] = list(ref.center.probs)
        report["info_eps"] = approximation_factor(hset, center, ref.center)
        report["tv_eps"] = tv_cat(center, ref.center)
    return report


def _compute_gaussian(args) -> dict:
    if args.reference:
        raise CliError("--reference requires --family categorical")
    gaussians, weights = read_gaussians(args.input)
    if args.weights:
        raise CliError("gaussian inputs carry weights in the JSON objects")
    report: dict = {
        "schema_version": 1,
        "family": "gaussian",
        "method": args.method,
        "n": len(gaussians),
        "dim": gaussians[0].dim,
    }
    diag = CenterDiagnostics(status="exact")
    if args.method == "jfr":
        center = jfr_center_mvn(gaussians, weights)
    elif args.method == "gb":
        tol = GB_TOL if args.epsilon is None else replace(GB_TOL, rel_tol=args.epsilon)
        center, diag = gb_center_mvn(gaussians, weights, tol)
    elif args.method == "jeffreys":
        # Same mean: each member's offset from the first mean is at most 1e-12 of
        # its own standard deviations, sqrt(dm^T S_i^{-1} dm), at any scale.
        mu0 = gaussians[0].mean
        if any((g.mean - mu0) @ np.linalg.solve(g.cov.entries, g.mean - mu0) > 1e-24
               for g in gaussians):
            raise CliError(
                "exact Jeffreys centroid is only available for same-mean Gaussian sets"
            )
        center = jeffreys_centroid_centered(
            [g.cov for g in gaussians], weights, mean=gaussians[0].mean
        )
    elif args.method == "arithmetic":
        _, center = sided_kl_centroids_mvn(gaussians, weights)
    elif args.method == "geometric":
        center, _ = sided_kl_centroids_mvn(gaussians, weights)
    elif args.method == "unnormalized":
        raise CliError("method 'unnormalized' applies to the categorical family only")
    report["center"] = _gauss_dict(center)
    report["jeffreys_loss"] = jeffreys_loss_mvn(gaussians, weights, center)
    report["diagnostics"] = asdict(diag)
    return report


def cmd_compute(args) -> int:
    if args.epsilon is not None and (args.family, args.method) not in _EPSILON_METHODS:
        raise CliError("--epsilon applies to categorical jeffreys and gb, and gaussian gb only")
    report = (
        _compute_categorical(args)
        if args.family == "categorical"
        else _compute_gaussian(args)
    )
    _write(render_report(report), args.output)
    return EXIT_OK


# --- bench --------------------------------------------------------------------

def _parse_list(text: str, cast, what: str):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse {what} list {text!r}")


def cmd_bench_table1(args) -> int:
    dims = _parse_list(args.dims, int, "dims")
    try:
        config = RunConfig(
            seed=args.seed, trials=args.trials, dims=dims, epsilon=args.epsilon
        )
    except ValueError as exc:
        raise CliError(str(exc))
    log.info("table1: dims=%s trials=%d seed=%d", dims, args.trials, args.seed)
    records = run_table1(config, timing=not args.no_timing)
    _write(table1_csv(records), args.output)
    return EXIT_OK


def cmd_bench_table2(args) -> int:
    alphas = (
        _parse_list(args.alphas, float, "alphas") if args.alphas else list(DEFAULT_ALPHAS)
    )
    rows = run_table2(alphas, epsilon=args.epsilon, timing=not args.no_timing)
    for r in rows:
        if r.flagged and r.method == "jfr":
            log.warning(
                "alpha=%.3e loses distinguishability in double precision", r.alpha
            )
    _write(table2_csv(rows), args.output)
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centers",
        description="Jeffreys centroids and fast proxy centers for categorical "
        "and Gaussian families",
    )
    parser.add_argument("--version", action="version", version=f"centers {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute a center of an input set")
    comp.add_argument("--family", choices=["categorical", "gaussian"], required=True)
    comp.add_argument(
        "--method",
        choices=["jeffreys", "jfr", "gb", "arithmetic", "geometric", "unnormalized"],
        required=True,
    )
    comp.add_argument("--input", required=True, help="CSV of histograms or JSON of Gaussians")
    comp.add_argument("--weights", help="single-row CSV of weights (categorical only)")
    comp.add_argument(
        "--reference",
        action="store_true",
        help="also score against the numerical Jeffreys centroid (categorical)",
    )
    comp.add_argument("--epsilon", type=float, help="stopping tolerance of the iterating methods")
    comp.add_argument("--output", help="report path (stdout when omitted)")
    comp.set_defaults(fn=cmd_compute)

    bench = sub.add_parser("bench", help="experiment harness")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    t1 = bench_sub.add_parser("table1", help="randomized pairs across dimensions")
    t1.add_argument("--dims", default="2,4,8,16,32,64,128,256")
    t1.add_argument("--trials", type=int, default=1000)
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--epsilon", type=float, default=1e-10, help="reference multiplier tolerance")
    t1.add_argument("--no-timing", action="store_true", help="zero timing columns")
    t1.add_argument("--output", help="CSV path (stdout when omitted)")
    t1.set_defaults(fn=cmd_bench_table1)

    t2 = bench_sub.add_parser("table2", help="deterministic 3-bin family")
    t2.add_argument("--alphas", help="comma-separated list in (0,1)")
    t2.add_argument("--epsilon", type=float, default=1e-10, help="reference multiplier tolerance")
    t2.add_argument("--no-timing", action="store_true", help="zero timing columns")
    t2.add_argument("--output", help="CSV path (stdout when omitted)")
    t2.set_defaults(fn=cmd_bench_table2)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("CENTERS_LOG", "warn").lower()
    mapping = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr,
        level=mapping.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"centers: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"centers: invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"centers: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
