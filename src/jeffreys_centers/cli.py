"""Command-line front end.

``centers compute`` evaluates any center of a histogram CSV or Gaussian JSON
input and writes a JSON report; ``centers bench table1`` and ``centers bench
table2`` reproduce the approximation-quality experiment protocols as CSV.

Exit codes: 0 success, 2 invalid input (DomainError), 3 numerical failure (NumericalError).
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
    _info_eps,
    _sci,
    run_table1,
    run_table2,
    table1_csv,
    table2_csv,
)
from .categorical import (
    JEFFREYS_CAT_EPSILON,
    HistogramSet,
    SimplexPoint,
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
    _checked_set,
    gb_center_mvn,
    jeffreys_centroid_centered,
    jeffreys_loss_mvn,
    jfr_center_mvn,
    sided_kl_centroids_mvn,
)
from .legendre import CenterDiagnostics, _float_array

__all__ = ["main"]

log = logging.getLogger("centers")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3

_ROW_SUM_SLACK = 1e-6
_EPSILON_METHODS = {("categorical", "jeffreys"), ("categorical", "gb"), ("gaussian", "gb")}


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
        return "[" + ", ".join(_render(v, indent + 1) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _sci(float(obj))
    return json.dumps(obj)


def render_report(report: dict) -> str:
    return _render(report) + "\n"


# --- input parsing ------------------------------------------------------------

def _renormalize(row: np.ndarray, row_index: int, kind: str) -> np.ndarray:
    total = row.sum()
    if abs(total - 1.0) > _ROW_SUM_SLACK:
        raise DomainError(
            f"{kind} row {row_index}: mass {total!r} deviates from 1 by more than {_ROW_SUM_SLACK}"
        )
    return row / total


def _read_csv(path: str, kind: str) -> List[np.ndarray]:
    """The non-blank rows of a CSV file of numbers, each renormalized; the
    library (:class:`HistogramSet`, ``check_weights``) checks their shapes and signs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (l.strip() for l in fh) if ln]
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    rows = []
    for i, line in enumerate(lines):
        values = []
        for col, token in enumerate(t.strip() for t in line.split(",")):
            try:
                values.append(float(token))
            except ValueError:
                raise DomainError(
                    f"{kind} row {i}, column {col}: cannot parse {token!r} as a number"
                )
        rows.append(_renormalize(np.array(values), i, kind))
    return rows


def read_weights(path: str) -> np.ndarray:
    rows = _read_csv(path, "weights")
    if len(rows) != 1:
        raise DomainError(f"{path}: weights file must contain exactly one CSV row")
    return rows[0]


def read_gaussians(path: str) -> Tuple[List[GaussianParam], Optional[np.ndarray]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(data, list) or not data:
        raise DomainError(f"{path}: expected a non-empty JSON list of Gaussian objects")
    gaussians: List[GaussianParam] = []
    weights: List[Optional[np.ndarray]] = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or "mean" not in obj or "cov" not in obj:
            raise DomainError(f"gaussian entry {i}: expected an object with 'mean' and 'cov'")
        try:
            gaussians.append(GaussianParam(obj["mean"], obj["cov"]))
            weights.append(_float_array(obj["weight"], "weight", ()) if "weight" in obj else None)
        except DomainError as exc:
            raise DomainError(f"gaussian entry {i}: {exc}")
    if all(w is None for w in weights):
        return gaussians, None
    if any(w is None for w in weights):
        raise DomainError("either every Gaussian carries a 'weight' or none does")
    return gaussians, _renormalize(np.array(weights), 0, "weights")


# --- report helpers -----------------------------------------------------------

def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- compute ------------------------------------------------------------------

def _read_categorical(args) -> Tuple[HistogramSet, int, int]:
    rows = _read_csv(args.input, "histogram")
    hset = HistogramSet(rows, read_weights(args.weights) if args.weights else None)
    return hset, hset.n, hset.dim


def _read_gaussian(args) -> Tuple[tuple, int, int]:
    gaussians, weights = read_gaussians(args.input)
    if args.weights:
        raise DomainError("gaussian inputs carry weights in the JSON objects")
    return (gaussians, weights), len(gaussians), gaussians[0].dim


# family -> (read(args) -> (input, n, dim), loss(input, center), center -> report value)
_FAMILIES = {
    "categorical": (_read_categorical, jeffreys_loss_cat, lambda c: list(c.probs)),
    "gaussian": (_read_gaussian, lambda gw, c: jeffreys_loss_mvn(*gw, c),
                 lambda g: {"mean": list(g.mean), "cov": [list(r) for r in g.cov.entries]}),
}


def _exact(center, /, **fields) -> tuple:
    """A closed-form center: no iteration to report."""
    return center, CenterDiagnostics(status="exact"), fields


def _categorical_jeffreys(hset: HistogramSet, eps: dict) -> tuple:
    result = jeffreys_centroid_cat(hset, **eps)
    fields = {"lambda": result.lam, "mass_residual": result.mass_residual}
    return result.center, result.diagnostics, fields


def _categorical_unnormalized(hset: HistogramSet, _) -> tuple:
    # the report keeps the raw candidate; the scores read its renormalization
    raw, mass = unnormalized_center(hset)
    return _exact(SimplexPoint(raw / mass), center=list(raw), mass=mass)


def _gaussian_gb(gw, eps: dict) -> tuple:
    tol = replace(GB_TOL, rel_tol=eps["epsilon"]) if eps else GB_TOL
    return (*gb_center_mvn(*gw, tol), {})


def _gaussian_jeffreys(gw, _) -> tuple:
    gaussians, weights = gw
    _checked_set(gaussians, weights)  # first: the same-mean test needs one dimension
    # Same mean: each member's offset from the first mean is at most 1e-12 of
    # its own standard deviations, sqrt(dm^T S_i^{-1} dm), at any scale.
    mu0 = gaussians[0].mean
    if any((g.mean - mu0) @ np.linalg.solve(g.cov.entries, g.mean - mu0) > 1e-24
           for g in gaussians):
        raise DomainError("exact Jeffreys centroid is only available for same-mean Gaussian sets")
    return _exact(jeffreys_centroid_centered([g.cov for g in gaussians], weights, mean=mu0))


# family -> method -> call(input, {"epsilon": ...} or {}) -> (center, diagnostics, report fields)
_METHODS = {
    "categorical": {
        "jeffreys": _categorical_jeffreys,
        "jfr": lambda hset, _: _exact(jfr_center_cat(hset)),
        "gb": lambda hset, eps: (*gb_center_cat(hset, **eps), {}),
        "arithmetic": lambda hset, _: _exact(arithmetic_mean(hset)),
        "geometric": lambda hset, _: _exact(normalized_geometric_mean(hset)),
        "unnormalized": _categorical_unnormalized,
    },
    "gaussian": {
        "jeffreys": _gaussian_jeffreys,
        "jfr": lambda gw, _: _exact(jfr_center_mvn(*gw)),
        "gb": _gaussian_gb,
        "arithmetic": lambda gw, _: _exact(sided_kl_centroids_mvn(*gw)[1]),
        "geometric": lambda gw, _: _exact(sided_kl_centroids_mvn(*gw)[0]),
    },
}


def cmd_compute(args) -> int:
    if args.epsilon is not None and (args.family, args.method) not in _EPSILON_METHODS:
        raise DomainError("--epsilon applies to categorical jeffreys and gb, and gaussian gb only")
    if args.reference and args.family != "categorical":
        raise DomainError("--reference requires --family categorical")
    read, loss, report_center = _FAMILIES[args.family]
    data, n, dim = read(args)
    if args.method not in _METHODS[args.family]:
        raise DomainError(f"method {args.method!r} applies to the categorical family only")
    eps = {} if args.epsilon is None else {"epsilon": args.epsilon}
    center, diag, fields = _METHODS[args.family][args.method](data, eps)
    report = {"schema_version": 1, "family": args.family, "method": args.method,
              "n": n, "dim": dim, **fields}
    report.setdefault("center", report_center(center))
    report["jeffreys_loss"] = loss(data, center)
    report["diagnostics"] = asdict(diag)
    if args.reference and args.method != "jeffreys":
        ref = jeffreys_centroid_cat(data, JEFFREYS_CAT_EPSILON)
        report["reference_center"] = list(ref.center.probs)
        report["info_eps"] = _info_eps(data, center, ref.center)
        report["tv_eps"] = tv_cat(center, ref.center)
    _write(render_report(report), args.output)
    return EXIT_OK


# --- bench --------------------------------------------------------------------

def _parse_list(text: str, cast, what: str):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse {what} list {text!r}")


def cmd_bench_table1(args) -> int:
    dims = _parse_list(args.dims, int, "dims")
    log.info("table1: dims=%s trials=%d seed=%d", dims, args.trials, args.seed)
    records = run_table1(dims, trials=args.trials, seed=args.seed, epsilon=args.epsilon,
                         timing=not args.no_timing)
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
    comp.add_argument("--family", choices=list(_METHODS), required=True)
    comp.add_argument("--method", choices=list(_METHODS["categorical"]), required=True)
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
    t1.add_argument("--epsilon", type=float, default=JEFFREYS_CAT_EPSILON,
                    help="reference multiplier tolerance")
    t1.add_argument("--no-timing", action="store_true", help="zero timing columns")
    t1.add_argument("--output", help="CSV path (stdout when omitted)")
    t1.set_defaults(fn=cmd_bench_table1)

    t2 = bench_sub.add_parser("table2", help="deterministic 3-bin family")
    t2.add_argument("--alphas", help="comma-separated list in (0,1)")
    t2.add_argument("--epsilon", type=float, default=JEFFREYS_CAT_EPSILON,
                    help="reference multiplier tolerance")
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
    except DomainError as exc:
        print(f"centers: invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"centers: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
