"""Frozen input generators, the timed per-set calls, and the output checks.

The samplers live here, not in the library, so that no library change can
alter a workload.  Every set is drawn from its own
``SeedSequence([seed, dim, index])`` stream, which is the Table 1 protocol of
the paper (and of ``jeffreys_centers.bench``), extended to the other two
workloads.

A workload runs one *set* at a time: it builds the library's input types from
the raw arrays, then calls each method once.  The caller passes a ``call``
function that times (and, in a traced run, spans) each library call; the set's
own time runs from the first build to the last call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import jeffreys_centers as jc
from jeffreys_centers.categorical import GB_CAT_EPSILON
from jeffreys_centers.gauss_bregman import GB_TOL

METHODS = ("exact", "jfr", "gb")
EXACT_EPSILON = 1e-10          # Table 1's epsilon for the numerical centroid
MVN_DIMS = (1, 2, 3, 5, 8)     # the Gaussian dimensions of the ROADMAP rows
MVN_SET_SIZE = 4
CHECK_RTOL = 1e-10             # JFR against the independently recomputed closed form
SAME_MEAN_BOUND = 1e-8         # acceptance criterion 8's bound on same-mean sets


@dataclass
class CallRecord:
    """One library call: its wall time, and its output or the exception it raised."""

    ns: int
    out: object = None
    err: Optional[BaseException] = None


@dataclass
class SetRecord:
    """One set: total timed ns (build plus every call) and the calls by method."""

    index: int
    d: int
    ns: int
    calls: Dict[str, CallRecord]


def timed_call(name: str, fn, *args) -> CallRecord:
    """Call the library once, timing it; an exception is kept, to be counted by class.

    ``name`` is the span name a traced run records for this call.
    """
    t = time.perf_counter_ns()
    try:
        rec = CallRecord(0, fn(*args))
    except Exception as exc:  # the benchmark classifies and counts every failure
        rec = CallRecord(0, None, exc)
    rec.ns = time.perf_counter_ns() - t
    return rec


# --- generators ---------------------------------------------------------------

def _rng(seed: int, dim: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, dim, index])))


def _dirichlet_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    # Components below 1e-12 leave the open simplex the library accepts;
    # redraw as Table 1 does.
    rows = rng.dirichlet(np.ones(dim), size=n)
    while rows.min() < 1e-12:
        rows = rng.dirichlet(np.ones(dim), size=n)
    return rows


def hist_inputs(seed: int, index: int, n: int, dim: int) -> dict:
    rows = _dirichlet_rows(_rng(seed, dim, index), n, dim)
    return {"rows": rows, "weights": np.full(n, 1.0 / n), "d": dim}


def mvn_inputs(seed: int, index: int) -> dict:
    """Four Gaussians; the dimension cycles through MVN_DIMS and sets alternate,
    five at a time, between one shared mean and spread means."""
    d = MVN_DIMS[index % len(MVN_DIMS)]
    same_mean = (index // len(MVN_DIMS)) % 2 == 0
    rng = _rng(seed, d, index)
    m0 = rng.normal(size=d)
    means, covs = np.empty((MVN_SET_SIZE, d)), np.empty((MVN_SET_SIZE, d, d))
    for i in range(MVN_SET_SIZE):
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
    return {"means": means, "covs": covs, "m0": m0, "same_mean": same_mean, "d": d}


def digest(inputs: List[dict]) -> str:
    """SHA-256 over every array of the given sets, in order."""
    h = hashlib.sha256()
    for inp in inputs:
        for key in sorted(inp):
            h.update(key.encode())
            h.update(np.ascontiguousarray(inp[key]).tobytes())
    return h.hexdigest()


# --- the timed calls ------------------------------------------------------------

Call = Callable[..., CallRecord]


def _run_set(index: int, d: int, call: Call, build, methods) -> SetRecord:
    """Time the build and then each method; `methods` maps a method to
    (span name, function, argument builder).

    The method order rotates with the set index, so no method always runs
    right after another: the cache and branch state one call leaves behind
    would otherwise bias the next call's latency.
    """
    t0 = time.perf_counter_ns()
    built = call("build", *build)
    names = list(methods)
    if built.err is None:
        calls = {}
        shift = index % len(names)
        for m in names[shift:] + names[:shift]:
            span, fn, args = methods[m]
            calls[m] = call(span, fn, *args(built.out))
    else:
        calls = {m: CallRecord(0, None, built.err) for m in names}
    return SetRecord(index, d, time.perf_counter_ns() - t0, calls)


def run_hist_set(index: int, inp: dict, call: Call) -> SetRecord:
    return _run_set(index, inp["d"], call, (jc.HistogramSet, inp["rows"], inp["weights"]), {
        "exact": ("categorical.solve", jc.jeffreys_centroid_cat, lambda h: (h, EXACT_EPSILON)),
        "jfr": ("categorical.jfr", jc.jfr_center_cat, lambda h: (h,)),
        "gb": ("categorical.gb", jc.gb_center_cat, lambda h: (h,)),
    })


def _build_gaussians(means, covs):
    return [jc.GaussianParam(m, jc.SPDMatrix(c)) for m, c in zip(means, covs)]


def run_mvn_set(index: int, inp: dict, call: Call) -> SetRecord:
    methods = {
        "jfr": ("gaussian.jfr", jc.jfr_center_mvn, lambda gs: (gs,)),
        "gb": ("gaussian.gb", jc.gb_center_mvn, lambda gs: (gs,)),
    }
    if inp["same_mean"]:
        methods["exact"] = ("gaussian.exact", jc.jeffreys_centroid_centered,
                            lambda gs: ([g.cov for g in gs], None, inp["m0"]))
    return _run_set(index, inp["d"], call, (_build_gaussians, inp["means"], inp["covs"]), methods)


# --- output checks (outside the timed region) ------------------------------------

def _simplex_ok(p, d: int) -> bool:
    v = getattr(p, "probs", None)
    return (
        isinstance(v, np.ndarray) and v.shape == (d,) and bool(np.all(np.isfinite(v)))
        and bool(np.all(v > 0.0)) and abs(float(v.sum()) - 1.0) <= 1e-12
    )


def jfr_closed_form(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The paper's closed-form JFR center, written out independently of the library."""
    a = weights @ rows
    log_g = weights @ np.log(rows)
    g = np.exp(log_g - log_g.max())
    g /= g.sum()
    num = (np.sqrt(a) + np.sqrt(g)) ** 2
    return num / (2.0 * (1.0 + np.sum(np.sqrt(a * g))))


def check_hist(inp: dict, rec: SetRecord) -> Dict[str, Optional[str]]:
    """Map each method that returned to None (passed) or the reason it failed."""
    d = inp["d"]
    verdict: Dict[str, Optional[str]] = {}
    exact = rec.calls["exact"]
    if exact.err is None:
        res = exact.out
        if not _simplex_ok(res.center, d):
            verdict["exact"] = "exact centroid is not an open-simplex point"
        elif res.diagnostics.status != "converged":
            verdict["exact"] = f"exact centroid status {res.diagnostics.status!r}"
        else:
            verdict["exact"] = None
    jfr = rec.calls["jfr"]
    if jfr.err is None:
        if not _simplex_ok(jfr.out, d):
            verdict["jfr"] = "JFR center is not an open-simplex point"
        elif not np.allclose(jfr.out.probs, jfr_closed_form(inp["rows"], inp["weights"]),
                             rtol=CHECK_RTOL, atol=0.0):
            verdict["jfr"] = "JFR center differs from the closed form"
        else:
            verdict["jfr"] = None
    gb = rec.calls["gb"]
    if gb.err is None:
        center, diag = gb.out
        if not _simplex_ok(center, d):
            verdict["gb"] = "GB center is not an open-simplex point"
        elif not (diag.status == "converged" and diag.final_gap <= GB_CAT_EPSILON):
            verdict["gb"] = f"GB gap {diag.final_gap:.3g} above epsilon {GB_CAT_EPSILON}"
        else:
            verdict["gb"] = None
    return verdict


def hist_quality(inp: dict, rec: SetRecord) -> Dict[str, float]:
    """approximation_factor of JFR and GB against the exact centroid, when all three returned."""
    if any(rec.calls[m].err is not None for m in METHODS):
        return {}
    hset = jc.HistogramSet(inp["rows"], inp["weights"])
    ref = rec.calls["exact"].out.center
    return {
        "jfr": jc.approximation_factor(hset, rec.calls["jfr"].out, ref),
        "gb": jc.approximation_factor(hset, rec.calls["gb"].out[0], ref),
    }


def _gaussian_ok(p, d: int) -> bool:
    mean = getattr(p, "mean", None)
    cov = getattr(getattr(p, "cov", None), "entries", None)
    if not (isinstance(mean, np.ndarray) and isinstance(cov, np.ndarray)):
        return False
    if mean.shape != (d,) or cov.shape != (d, d):
        return False
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov)) and np.array_equal(cov, cov.T)):
        return False
    return bool(np.linalg.eigvalsh(cov)[0] > 0.0)


def _whitened_gap(mean, cov, ref) -> float:
    """JFR against A#H: criterion 8's covariance gap, made scale-free by whitening
    with ref's covariance, and the mean gap in the same whitened units."""
    w, v = np.linalg.eigh(ref.cov.entries)
    rmh = (v / np.sqrt(w)) @ v.T
    cov_gap = np.linalg.norm(rmh @ cov @ rmh - np.eye(cov.shape[0]))
    return float(max(cov_gap, np.linalg.norm(rmh @ (mean - ref.mean))))


def _natural_gap(mean, cov, ref) -> float:
    """GB against A#H, in the coordinates of GB's stopping rule: the Euclidean
    distance of the natural parameters (Sigma^-1 mu, -Sigma^-1 / 2)."""
    p, q = np.linalg.inv(cov), np.linalg.inv(ref.cov.entries)
    dv = p @ mean - q @ ref.mean
    return float(np.sqrt(dv @ dv + np.sum((0.5 * (p - q)) ** 2)))


def check_mvn(inp: dict, rec: SetRecord) -> Dict[str, Optional[str]]:
    d = inp["d"]
    outs = {}
    verdict: Dict[str, Optional[str]] = {}
    for m, c in rec.calls.items():
        if c.err is not None:
            continue
        out = c.out
        if m == "gb":
            out, diag = out
            if not (diag.status == "converged" and diag.final_gap <= GB_TOL.rel_tol):
                verdict[m] = f"GB gap {diag.final_gap:.3g} above epsilon {GB_TOL.rel_tol}"
                continue
        if not _gaussian_ok(out, d):
            verdict[m] = f"{m} output is not a valid {d}-variate Gaussian"
            continue
        outs[m] = out
        verdict[m] = None
    ref = outs.get("exact")
    if ref is not None:
        for m, gap in (("jfr", _whitened_gap), ("gb", _natural_gap)):
            if m in outs:
                g = gap(outs[m].mean, outs[m].cov.entries, ref)
                if g > SAME_MEAN_BOUND:
                    verdict[m] = f"{m} differs from A#H by {g:.3g} on a same-mean set"
    return verdict


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int            # sets generated at set-up, cycled by the timed loop
    window: int          # sets per throughput window
    warmup: int          # sets run once before timing
    trace_pass: int      # sets in one traced (or matched untraced) pass
    inputs: Callable[[int, int], dict]
    run_set: Callable[..., SetRecord]
    check: Callable[[dict, SetRecord], Dict[str, Optional[str]]]
    quality: Optional[Callable[[dict, SetRecord], Dict[str, float]]]
    family: str


WORKLOADS = {
    w.name: w
    for w in (
        # Table 1 protocol: call overhead dominates (lambert_w0 on 16 entries).
        Workload(
            "hist-pairs",
            pool=2048, window=64, warmup=16, trace_pass=480,
            inputs=lambda seed, k: hist_inputs(seed, k, 2, 16),
            run_set=run_hist_set, check=check_hist, quality=hist_quality, family="categorical",
        ),
        # The same calls where per-entry arithmetic dominates; 2 MiB per set.
        Workload(
            "hist-wide",
            pool=16, window=4, warmup=1, trace_pass=8,
            inputs=lambda seed, k: hist_inputs(seed, k, 16, 16384),
            run_set=run_hist_set, check=check_hist, quality=hist_quality, family="categorical",
        ),
        # The Gaussian, SPD, Legendre and GB layers; same-mean sets check against A#H.
        Workload(
            "mvn",
            pool=1000, window=20, warmup=10, trace_pass=200,
            inputs=mvn_inputs,
            run_set=run_mvn_set, check=check_mvn, quality=None, family="gaussian",
        ),
    )
}
