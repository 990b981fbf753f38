"""Closed-loop benchmark of the jeffreys_centers library.

    python3 perfbench/run.py --workload hist-pairs --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next to
this directory.  One caller in one thread runs one set at a time, each set
only after the previous set's calls returned.  Inputs come from the seed
alone and are generated before timing.

``--trace 0`` times the library calls and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over a fixed list of sets
and prints the per-layer metrics.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the calls of one pass over the sets (the
whole pool, or the traced sets), so one seed always gives the same counts.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# Single-threaded BLAS, fixed before numpy loads: numpy's scipy-openblas reads
# these at import, and no thread-pool control package is available.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5     # set-up is timed this many times, in fresh interpreters
TRACE_DIR = HERE / "traces"
# The reference speed: each speed-probe kernel's time in ns (eigensolves,
# short-array calls, Python loop, long-array exp), about its median on the
# machine the README's numbers come from.
PROBE_REF_NS = (320e3, 100e3, 120e3, 40e3)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to sample setup_s)")
    return p.parse_args(argv)


def import_library():
    init = SRC / "jeffreys_centers" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no library at {init.parent}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import jeffreys_centers

    if Path(jeffreys_centers.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {jeffreys_centers.__file__}, expected {init}")


# --- statistics -------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile; returns (value, samples strictly above it)."""
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def windowed_rate(set_ns, window):
    """Median over consecutive windows of `window` sets of sets per timed second."""
    wins = [set_ns[i:i + window] for i in range(0, len(set_ns) - window + 1, window)] or [set_ns]
    return statistics.median(len(w) / (sum(w) * 1e-9) for w in wins)


def error_class(exc):
    from jeffreys_centers import DomainError, NumericalError

    if isinstance(exc, DomainError):
        return "domain"
    if isinstance(exc, NumericalError):
        return "numerical"
    return "unclassified"


class SpeedProbe:
    """Tracks the machine's momentary speed with fixed kernels run between sets.

    Other tenants of the machine slow every process on it, by a factor that
    switches within tens of milliseconds and reached 2 while this benchmark was
    written.  So the probe runs after every set, and each set's times are
    scaled by the probe's speed around it: per kernel, the kernel's reference
    time over the mean of its times just before and just after the set; over
    the kernels, the geometric mean of those ratios.  A metric then reads as
    the time the set would take at the reference speed.

    The tenants slow different work by different amounts, so the probe runs
    one small kernel of each kind of work the library does: a LAPACK
    eigensolve, short-array numpy calls, a pure-Python loop and a
    transcendental over a long array.  Together they take about 0.6 ms and
    never call the library, so a library change cannot move them.
    """

    def __init__(self):
        import numpy as np

        m = np.eye(16) + 0.01 * (np.arange(256.0).reshape(16, 16) % 7.0)
        self._m, self._v = m @ m.T, np.linspace(0.1, 1.0, 16)
        self._wide = np.linspace(-1.0, 1.0, 16384)
        self.factors = []
        self.last = self.measure()

    def _eigh(self):
        import numpy as np

        for _ in range(6):
            np.linalg.eigh(self._m)

    def _short(self):
        import numpy as np

        for _ in range(30):
            np.log(self._v).sum()

    @staticmethod
    def _python():
        x = 0
        for i in range(1500):
            x += i * i
        return x

    def _whole(self):
        import numpy as np

        np.exp(self._wide)

    def measure(self):
        """Each kernel's time in ns, in the order of PROBE_REF_NS."""
        times = []
        for kernel in (self._eigh, self._short, self._python, self._whole):
            t = time.perf_counter_ns()
            kernel()
            times.append(time.perf_counter_ns() - t)
        return times

    @staticmethod
    def factor(before, after):
        return math.exp(statistics.fmean(
            math.log(2.0 * ref / (b + a)) for ref, b, a in zip(PROBE_REF_NS, before, after)))

    def restart(self):
        """Probe before a set that does not directly follow a probed one."""
        self.last = self.measure()

    def next_factor(self):
        """Probe now; return the factor of the set run since the previous probe."""
        after = self.measure()
        f = self.factor(self.last, after)
        self.last = after
        self.factors.append(f)
        return f

    def settle(self, n=5):
        """Factor from the median time of each kernel over n back-to-back probes."""
        runs = [self.measure() for _ in range(n)]
        med = [statistics.median(r[i] for r in runs) for i in range(len(PROBE_REF_NS))]
        return self.factor(med, med)


class Tally:
    """Outcome of every call of a run: latencies, failures by class, check misses."""

    def __init__(self, workload):
        self.w = workload
        self.set_ns = []              # speed-scaled, as every time in a tally
        self.raw_set_ns = []
        self.lat = {m: [] for m in ("exact", "jfr", "gb")}
        self.failures = {}            # (method, class) -> count
        self.misses = []              # wrong outputs, with their reason
        self.iters = {"exact": 0, "gb": 0}
        self.quality = {"jfr": [], "gb": []}
        self.attempted = self.failed = 0

    def add(self, inp, rec, factor=1.0):
        self.set_ns.append(rec.ns * factor)
        self.raw_set_ns.append(rec.ns)
        verdict = self.w.check(inp, rec)
        for m, c in rec.calls.items():
            self.attempted += 1
            reason = verdict.get(m) if c.err is None else None
            if c.err is not None or reason is not None:
                self.failed += 1
                self.lat[m].append(math.inf)
                cls = error_class(c.err) if c.err is not None else "check"
                self.failures[(m, cls)] = self.failures.get((m, cls), 0) + 1
                if reason is not None:
                    self.misses.append(f"set {rec.index} {m}: {reason}")
                continue
            self.lat[m].append(c.ns * factor)
            if self.w.family == "categorical":
                diag = c.out.diagnostics if m == "exact" else c.out[1] if m == "gb" else None
                if diag is not None:
                    self.iters[m] += diag.iterations
        if self.w.quality is not None:
            for m, v in self.w.quality(inp, rec).items():
                self.quality[m].append(v)

    def merge(self, other):
        self.set_ns += other.set_ns
        self.raw_set_ns += other.raw_set_ns
        for m in self.lat:
            self.lat[m] += other.lat[m]
        for key, n in other.failures.items():
            self.failures[key] = self.failures.get(key, 0) + n
        self.misses += other.misses
        for m in self.iters:
            self.iters[m] += other.iters[m]
        for m in self.quality:
            self.quality[m] += other.quality[m]
        self.attempted += other.attempted
        self.failed += other.failed

    def outcome(self):
        """Calls attempted, calls failed and failures by class, so far."""
        return {"attempted": self.attempted, "failed": self.failed, "failures": dict(self.failures)}

    def counts(self):
        """Timing-free outcome, identical between passes over the same sets."""
        return (sorted(self.failures.items()), dict(self.iters), len(self.misses),
                {m: sum(v) for m, v in self.quality.items()})


# --- running sets ---------------------------------------------------------------------

def run_pass(w, pool, indices, tally, probe=None, call=None, recorder=None):
    """Run the sets `indices` of the pool one after another, adding each to `tally`.

    With a probe, the first set's speed factor starts from the probe's latest
    measurement, so the caller restarts the probe after any pause.
    """
    from workloads import timed_call

    call = call or timed_call
    for k in indices:
        inp = pool[k % len(pool)]
        first_span = 0
        if recorder is not None:
            recorder.set_index, recorder.d, first_span = k, inp["d"], len(recorder.spans)
        rec = w.run_set(k, inp, call)
        factor = probe.next_factor() if probe is not None else 1.0
        if recorder is not None:
            recorder.rescale(first_span, factor)
        tally.add(inp, rec, factor)


def setup(args):
    """Imports, input generation and warm-up: everything before the first timed set.

    Returns the set-up time scaled to the reference speed like every other time.
    """
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    pool = [w.inputs(args.seed, k) for k in range(w.pool)]
    run_pass(w, pool, range(w.warmup), Tally(w))
    elapsed = time.perf_counter() - T_START
    probe = SpeedProbe()
    return w, pool, probe, elapsed * probe.settle()


def setup_samples(args, own):
    """setup_s samples: this process's own set-up plus fresh interpreters doing the same."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def machine_record(probe):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    fs = sorted(probe.factors) or [math.nan]
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "speed_factor": {"n": len(probe.factors), "min": fs[0], "median": statistics.median(fs),
                         "max": fs[-1], "reference_probe_us": [r / 1e3 for r in PROBE_REF_NS]},
    }


# --- the two modes --------------------------------------------------------------------

def end_to_end(args, w, pool, probe, setup_s):
    tally = Tally(w)
    deadline = time.perf_counter() + args.seconds
    k = 0
    probe.restart()
    # Every set of the pool runs at least once.  The failure counts are those of
    # this first pass, so they depend on the seed alone, not on how many sets
    # the machine's speed let the loop run; later passes repeat the same sets.
    while k < len(pool) or time.perf_counter() < deadline:
        run_pass(w, pool, (k,), tally, probe)
        k += 1
        if k == len(pool):
            outcome = tally.outcome()
    total_us = sum(tally.set_ns) / 1e3
    metrics = {"sets_per_s": (windowed_rate(tally.set_ns, w.window), "sets/s")}
    lines = [f"sets {k}, pool {len(pool)}; throughput windows of {w.window} sets; "
             f"unscaled sets_per_s {windowed_rate(tally.raw_set_ns, w.window):.4f}"]
    for m, lat in tally.lat.items():
        for q in (50, 90):
            v, above = percentile(lat, q / 100)
            # A failed call counts as slower than every success; if one sits on
            # the percentile, report the whole timed run as its latency.
            metrics[f"{m}_p{q}_us"] = (v / 1e3 if v != math.inf else total_us, "us")
            lines.append(f"{m}_p{q}_us  n={len(lat)}  above={above}")
    metrics["ok_frac"] = (1.0 - outcome["failed"] / outcome["attempted"], "ratio")
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    lines.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_s))
    for m, vals in tally.quality.items():
        if vals:
            lines.append(f"{m}_info_eps_mean {statistics.fmean(vals):.6e}  n={len(vals)}")
    return tally, outcome, metrics, lines, []


def per_layer(args, w, pool, probe):
    from spans import GENERATOR_CALLABLES, Rebinding, Recorder, aggregate, count_signature, firing_errors

    rec = Recorder()
    rebind = Rebinding(rec)
    indices = range(w.trace_pass)
    plain, traced = Tally(w), Tally(w)
    signatures = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not signatures:
        probe.restart()
        run_pass(w, pool, indices, plain, probe)
        first_span = len(rec.spans)
        pass_tally = Tally(w)
        rebind.install()
        try:
            probe.restart()
            run_pass(w, pool, indices, pass_tally, probe, rec.call, rec)
        finally:
            rebind.remove()
        signatures.append((count_signature(rec.spans[first_span:]), pass_tally.counts()))
        if len(signatures) == 1:
            outcome = pass_tally.outcome()
        traced.merge(pass_tally)
    sets = len(signatures) * w.trace_pass
    agg = aggregate(rec.spans)
    errors = firing_errors(w.family, agg, rec.spans)
    if any(s != signatures[0] for s in signatures[1:]):
        errors.append("span counts or outcomes differ between traced passes over the same sets")
    rec.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.csv.gz")

    def a(name, key="count"):
        return agg[name][key] if name in agg else 0

    def per_set(name):
        return a(name) / sets

    def us_per_set(*names):
        return sum(a(n, "self_ns") for n in names) / sets / 1e3

    def mean(total, n):
        return total / n if n else 0.0

    def us_per_call(name):
        return mean(a(name, "self_ns"), a(name)) / 1e3

    def ok_calls(m):
        return sum(1 for v in traced.lat[m] if v != math.inf)

    lam = "special_functions.lambert_w0"
    means = ("categorical.arithmetic_mean", "categorical.normalized_geometric_mean")
    metrics = {
        f"{lam}.calls_per_set": (per_set(lam), "count"),
        f"{lam}.self_us_per_set": (us_per_set(lam), "us"),
        f"{lam}.ns_per_entry": (mean(a(lam, "self_ns"), a(lam, "extra")), "ns"),
        "categorical.solve.iterations": (mean(traced.iters["exact"], ok_calls("exact")), "count"),
        "categorical.solve.self_us_per_call": (us_per_call("categorical.solve"), "us"),
        "categorical.HistogramSet.self_us_per_set": (us_per_set("categorical.HistogramSet"), "us"),
        "categorical.means.calls_per_set": (per_set(means[0]), "count"),
        "categorical.means.self_us_per_set": (us_per_set(*means), "us"),
        "categorical.SimplexPoint.calls_per_set": (per_set("categorical.SimplexPoint"), "count"),
        "categorical.SimplexPoint.self_us_per_set": (us_per_set("categorical.SimplexPoint"), "us"),
        "categorical.gb.iterations": (mean(traced.iters["gb"], ok_calls("gb")), "count"),
        "categorical.jfr.self_us_per_call": (us_per_call("categorical.jfr"), "us"),
        "categorical.jfr.info_eps_mean":
            (mean(sum(traced.quality["jfr"]), len(traced.quality["jfr"])), "ratio"),
        "categorical.gb.info_eps_mean":
            (mean(sum(traced.quality["gb"]), len(traced.quality["gb"])), "ratio"),
        "legendre.eval_grad.calls_per_set": (per_set("legendre.eval_grad"), "count"),
        "legendre.eval_grad_inv.calls_per_set": (per_set("legendre.eval_grad_inv"), "count"),
        "legendre.in_domain.calls_per_set": (per_set("legendre.in_domain"), "count"),
        "legendre.generator.self_us_per_set":
            (us_per_set(*(f"legendre.{c}" for c in GENERATOR_CALLABLES)), "us"),
        "legendre.quasi_arithmetic_center.self_us_per_set":
            (us_per_set("legendre.quasi_arithmetic_center"), "us"),
        "gauss_bregman.gb_step.calls_per_set": (per_set("gauss_bregman.gb_step"), "count"),
        "gauss_bregman.gb_step.self_us_per_call": (us_per_call("gauss_bregman.gb_step"), "us"),
        "spd.SPDMatrix.calls_per_set": (per_set("spd.SPDMatrix"), "count"),
        "spd.SPDMatrix.self_us_per_set": (us_per_set("spd.SPDMatrix"), "us"),
        "spd.SPDMatrix.boundary_ratio":
            (mean(a("spd.SPDMatrix", "boundary"), a("spd.SPDMatrix")), "ratio"),
        "spd.geometric_mean.calls_per_set": (per_set("spd.geometric_mean"), "count"),
        "spd.geometric_mean.self_us_per_call": (us_per_call("spd.geometric_mean"), "us"),
        "gaussian.sided_centroids.self_us_per_set": (us_per_set("gaussian.sided_centroids"), "us"),
        "gaussian.fr_midpoint.self_us_per_call": (us_per_call("gaussian.fr_midpoint"), "us"),
        "gaussian.align.calls_per_set": (per_set("gaussian.align"), "count"),
        "gaussian.align.nfev_per_call": (mean(a("gaussian.align", "extra"), a("gaussian.align")), "count"),
        "gaussian.align.self_us_per_call": (us_per_call("gaussian.align"), "us"),
    }
    for m in ("exact", "jfr", "gb"):
        for cls in ("domain", "numerical", "unclassified"):
            metrics[f"failures.{m}.{cls}"] = (mean(traced.failures.get((m, cls), 0), len(traced.lat[m])), "ratio")
    metrics["trace.overhead_frac"] = (1.0 - sum(plain.set_ns) / sum(traced.set_ns), "ratio")
    lines = [f"traced passes {len(signatures)} of {w.trace_pass} sets; spans {len(rec.spans)}"]
    lines += [f"trace self-test: {e}" for e in errors]
    traced.merge(plain)
    return traced, outcome, metrics, lines, errors


def main(argv=None):
    args = parse_args(argv)
    w, pool, probe, own_setup = setup(args)
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0
    if args.trace:
        tally, outcome, metrics, lines, errors = per_layer(args, w, pool, probe)
    else:
        tally, outcome, metrics, lines, errors = end_to_end(args, w, pool, probe, setup_samples(args, own_setup))
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(machine_record(probe)))
    for line in lines:
        print(line)
    for (m, cls), n in sorted(outcome["failures"].items()):
        print(f"failures {m} {cls} {n}")
    for miss in tally.misses[:20]:
        print(f"check miss: {miss}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not tally.misses and not errors,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
