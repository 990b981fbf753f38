"""Spans around the library's layer boundaries, recorded from outside the package.

A traced run rebinds, in its own process only, the public names through which
one layer calls the next (``categorical.lambert_w0``, ``gaussian.root``, the
validators of the input types, the callables of the Gaussian generator, ...).
Each wrapper records a span: name, start, end, parent span, set index and
dimension.  Spans stay in memory; per-layer metrics are computed from them at
the end, and they are written out as a gzipped CSV.

Self time is a span's duration minus that of its direct children.  The run is
one thread with no queues or locks, so no layer waits and no waiting time is
reported.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from jeffreys_centers import categorical, gauss_bregman, gaussian, spd

from workloads import CallRecord, timed_call

GENERATOR_CALLABLES = ("eval_F", "eval_grad", "eval_grad_inv", "in_domain")

# Spans that must fire on every pass of a workload family and stay silent on
# the other family.  A rename in the library that silently zeroes a layer
# therefore fails the run.
FAMILY_SPANS = {
    "categorical": (
        "special_functions.lambert_w0",
        "categorical.arithmetic_mean",
        "categorical.normalized_geometric_mean",
        "categorical.HistogramSet",
        "categorical.SimplexPoint",
    ),
    "gaussian": (
        "spd.SPDMatrix",
        "spd.geometric_mean",
        "gaussian.sided_centroids",
        "gaussian.fr_midpoint",
        "gaussian.align",
        "gauss_bregman.gb_step",
        "legendre.quasi_arithmetic_center",
        "legendre.eval_grad",
        "legendre.eval_grad_inv",
        "legendre.in_domain",
    ),
}

NAME, START, END, PARENT, SET, DIM, FACTOR, EXTRA = range(8)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.set_index = -1
        self.d = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter_ns(), 0, parent, self.set_index, self.d, 1.0, 0]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: int = 0) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[EXTRA] = extra

    def span(self, name: str, fn, extra=None):
        """Wrap ``fn`` so each call records a span; ``extra`` maps (args, result) to an int."""

        def wrapped(*args, **kwargs):
            idx = self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(idx, extra(args, out) if extra is not None and out is not None else 0)

        return wrapped

    def rescale(self, first: int, factor: float) -> None:
        """Give the spans from index ``first`` on the speed probe's factor for their set."""
        for span in self.spans[first:]:
            span[FACTOR] = factor

    def call(self, name: str, fn, *args) -> CallRecord:
        """Timed call from the benchmark into the library, recorded as a span."""
        idx = self.open(name)
        rec = timed_call(name, fn, *args)
        self.close(idx)
        return rec

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_ns", "end_ns", "parent", "set", "d", "speed_factor", "extra"])
            out.writerows(self.spans)


class Rebinding:
    """The set of (owner, attribute) pairs a traced pass replaces with spans."""

    def __init__(self, rec: Recorder):
        entries = lambda args, out: int(np.size(args[0]))  # noqa: E731
        nfev = lambda args, out: int(getattr(out, "nfev", 0))  # noqa: E731
        targets = [
            (categorical, "lambert_w0", "special_functions.lambert_w0", entries),
            (categorical, "arithmetic_mean", "categorical.arithmetic_mean", None),
            (categorical, "normalized_geometric_mean", "categorical.normalized_geometric_mean", None),
            (categorical.HistogramSet, "__post_init__", "categorical.HistogramSet", None),
            (categorical.SimplexPoint, "__post_init__", "categorical.SimplexPoint", None),
            (spd.SPDMatrix, "__post_init__", "spd.SPDMatrix", None),
            (gaussian, "geometric_mean", "spd.geometric_mean", None),
            (gaussian, "root", "gaussian.align", nfev),
            (gaussian, "sided_kl_centroids_mvn", "gaussian.sided_centroids", None),
            (gaussian, "fisher_rao_midpoint_mvn", "gaussian.fr_midpoint", None),
            (gauss_bregman, "gb_step", "gauss_bregman.gb_step", None),
            (gauss_bregman, "quasi_arithmetic_center", "legendre.quasi_arithmetic_center", None),
        ]
        missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in targets if not hasattr(o, a)]
        if not hasattr(gaussian, "mvn_generator"):
            missing.append("gaussian.mvn_generator")
        if missing:
            raise SystemExit(f"trace: rebinding targets missing from the library: {', '.join(missing)}")
        self._swaps = [(o, a, getattr(o, a), rec.span(n, getattr(o, a), x)) for o, a, n, x in targets]
        make = gaussian.mvn_generator

        def traced_generator(dim):
            spec = make(dim)
            fields = {c: rec.span(f"legendre.{c}", getattr(spec, c)) for c in GENERATOR_CALLABLES}
            return dataclasses.replace(spec, **fields)

        self._swaps.append((gaussian, "mvn_generator", make, traced_generator))

    def install(self) -> None:
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)

    def remove(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)


def aggregate(spans: List[list]) -> Dict[str, dict]:
    """Per span name: count, speed-scaled self ns, summed extra, and calls made from a 'build' span."""
    child_ns = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    agg: Dict[str, dict] = defaultdict(lambda: {"count": 0, "self_ns": 0, "extra": 0, "boundary": 0})
    for i, s in enumerate(spans):
        a = agg[s[NAME]]
        a["count"] += 1
        a["self_ns"] += (s[END] - s[START] - child_ns[i]) * s[FACTOR]
        a["extra"] += s[EXTRA]
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "build":
            a["boundary"] += 1
    return agg


def count_signature(spans: List[list]) -> Dict[str, tuple]:
    """The timing-free content of a pass: per name, (count, summed extra)."""
    sig = defaultdict(lambda: [0, 0])
    for s in spans:
        sig[s[NAME]][0] += 1
        sig[s[NAME]][1] += s[EXTRA]
    return {k: tuple(v) for k, v in sig.items()}


def firing_errors(family: str, agg: Dict[str, dict], spans: List[list]) -> List[str]:
    """Spans that stayed silent where their layer runs, or fired where it must not."""
    errors = []
    for fam, names in FAMILY_SPANS.items():
        for name in names:
            n = agg[name]["count"] if name in agg else 0
            if fam == family and n == 0:
                errors.append(f"span {name} never fired on a {family} workload")
            if fam != family and n:
                errors.append(f"span {name} fired {n} times on a {family} workload")
    d1 = sum(1 for s in spans if s[NAME] == "gaussian.align" and s[DIM] == 1)
    if d1:
        errors.append(f"gaussian.align fired {d1} times at d=1")
    return errors
