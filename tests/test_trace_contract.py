"""The benchmark's traced run rebinds library names from outside the package.

``perfbench/spans.py`` replaces, in its own process, the module globals through
which one layer calls the next, and requires each layer's spans to fire on the
workload family that exercises it and to stay silent on the other.  This test
runs that rebinding on a few benchmark sets, so a rename or a re-routed call
in the library fails here, not only in the traced benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize(
    "workload, family, sets",
    [
        ("hist-pairs", "categorical", [0]),
        # d = 16384: the pins hold where per-entry work, not call overhead, dominates
        ("hist-wide", "categorical", [0]),
        # d = 1, 2, 3: the fiber alignment runs from d = 2 on and never at d = 1
        ("mvn", "gaussian", [0, 1, 2]),
    ],
)
def test_traced_spans_fire_per_family(perfbench_modules, workload, family, sets):
    spans, workloads = perfbench_modules
    w = workloads.WORKLOADS[workload]
    rec = spans.Recorder()
    rebinding = spans.Rebinding(rec)  # exits naming any missing target
    steps = []  # the Gauss-Bregman step count of each Gaussian set
    rebinding.install()
    try:
        for k in sets:
            inp = w.inputs(300, k)
            rec.set_index, rec.d = k, inp["d"]
            out = w.run_set(k, inp, rec.call)
            assert all(c.err is None for c in out.calls.values())
            if family == "gaussian":
                steps.append(out.calls["gb"].out[1].iterations)
    finally:
        rebinding.remove()
    agg = spans.aggregate(rec.spans)
    errors = spans.firing_errors(family, agg, rec.spans)
    assert errors == []
    if family == "categorical":
        # a set computes its means once for all three centers: one call of each
        # mean and 5 SimplexPoints (a, g and the three centers) per set
        assert agg["categorical.arithmetic_mean"]["count"] == len(sets)
        assert agg["categorical.normalized_geometric_mean"]["count"] == len(sets)
        assert agg["categorical.SimplexPoint"]["count"] == 5 * len(sets)
        # the exact solve evaluates W cold only at its start, the multiplier of
        # the JFR center; every Newton iterate warm-starts from the previous W
        assert agg["special_functions.lambert_w0"]["count"] == 1 * len(sets)
    else:
        # the span's extra is the solve's nfev, read with getattr(out, "nfev", 0):
        # a result without the field would read as zero evaluations
        assert agg["gaussian.align"]["extra"] > 0
        # the generic GB center over a set of n members taking k steps: the
        # quasi-arithmetic start maps the n members and takes the gradient of
        # its result; a step takes one gradient and one reciprocal gradient,
        # carrying the quasi-arithmetic iterate's moment parameter; every
        # member and every pair of iterates is checked once
        n = workloads.MVN_SET_SIZE
        assert min(steps) > 0
        assert agg["legendre.eval_grad"]["count"] == sum(n + 1 + k for k in steps)
        assert agg["legendre.eval_grad_inv"]["count"] == sum(1 + k for k in steps)
        assert agg["legendre.in_domain"]["count"] == sum(n + 2 + 2 * k for k in steps)
