"""Experiment harness reproducing the approximation-quality benchmarks.

Table-1 style runs draw seeded Dirichlet(1,...,1) histogram pairs per
dimension and score the JFR and Gauss-Bregman centers against the numerical
Jeffreys centroid (relative Jeffreys-loss excess and total variation).
Table-2 style runs score the deterministic two-histogram family
(1/3, 1/3, 1/3) vs (1-alpha, alpha/2, alpha/2).

Per-trial seeds derive from (seed, dim, trial) through a fixed splitting rule,
so identical configurations produce identical reports; timing columns are the
only nondeterministic fields and can be zeroed.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass
from typing import List, Sequence

import numpy as np

from .categorical import (
    GB_CAT_EPSILON,
    JEFFREYS_CAT_EPSILON,
    HistogramSet,
    approximation_factor,
    gb_center_cat,
    jeffreys_centroid_cat,
    jeffreys_loss_cat,
    jfr_center_cat,
    tv_cat,
)
from .errors import DomainError

__all__ = [
    "BenchRecord",
    "Table2Row",
    "DEFAULT_ALPHAS",
    "sample_histogram_pair",
    "run_table1",
    "run_table2",
    "table1_csv",
    "table2_csv",
]

TABLE1_HEADER = "dim,method,avg_info_eps,max_info_eps,avg_tv,max_tv,avg_time_ns,speedup"
TABLE2_HEADER = "alpha,method,info_eps,tv_eps,time_ns,speedup,flagged"

DEFAULT_ALPHAS = tuple(10.0**-k for k in range(1, 17))


@dataclass(frozen=True)
class BenchRecord:
    """One aggregated row of a Table-1 style report."""

    dim: int
    method: str
    avg_info_eps: float
    max_info_eps: float
    avg_tv: float
    max_tv: float
    avg_time_ns: int
    speedup_vs_jeffreys: float


@dataclass(frozen=True)
class Table2Row:
    alpha: float
    method: str
    info_eps: float
    tv_eps: float
    time_ns: int
    speedup_vs_jeffreys: float
    flagged: bool


def sample_histogram_pair(seed: int, dim: int, trial: int) -> np.ndarray:
    """Two Dirichlet(1,...,1) histograms; components below 1e-12 trigger resampling."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, dim, trial])))
    rows = rng.dirichlet(np.ones(dim), size=2)
    while rows.min() < 1e-12:
        rows = rng.dirichlet(np.ones(dim), size=2)
    return rows


def _timed(fn, timing: bool):
    """``fn()`` and its wall time in ns, read as 0 when ``timing`` is off."""
    clock = time.perf_counter_ns if timing else lambda: 0
    t0 = clock()
    out = fn()
    return out, clock() - t0


def _info_eps(hset: HistogramSet, center, reference) -> float:
    """:func:`approximation_factor`, or 0 where the reference loss is below 1e-15: there
    the rows are identical, every center coincides and the ratio is rounding noise."""
    if jeffreys_loss_cat(hset, reference) < 1e-15:
        return 0.0
    return approximation_factor(hset, center, reference)


def _score_pair(rows: np.ndarray, epsilon: float, timing: bool):
    """Time the exact, JFR and GB centers of a uniform set of ``rows`` (every
    time 0 when ``timing`` is off) and score the two proxies against the exact one.

    Each timed method gets its own HistogramSet: a set caches its sided means
    and the JFR center's bins on first use, so separate sets keep each time
    inclusive of the method's own means and, for the exact and JFR centers, of
    its own JFR bins, as when it runs alone.  Returns the reference time and,
    per proxy, ``(info_eps, tv_eps, time_ns)``.
    """
    hset, h_jfr, h_gb = (HistogramSet(rows) for _ in range(3))
    ref, t_ref = _timed(lambda: jeffreys_centroid_cat(hset, epsilon), timing)
    jfr, t_jfr = _timed(lambda: jfr_center_cat(h_jfr), timing)
    (gb, _), t_gb = _timed(lambda: gb_center_cat(h_gb, GB_CAT_EPSILON), timing)
    scores = {
        method: (_info_eps(hset, center, ref.center), tv_cat(center, ref.center), t)
        for method, center, t in (("jfr", jfr, t_jfr), ("gb", gb, t_gb))
    }
    return t_ref, scores


def run_table1(
    dims: Sequence[int] = (16,), trials: int = 1000, seed: int = 0,
    epsilon: float = JEFFREYS_CAT_EPSILON, timing: bool = True,
) -> List[BenchRecord]:
    """Score JFR and GB against the numerical Jeffreys centroid per dimension; fewer
    than 1 trial or a dimension below 2 is a DomainError, and the reference checks epsilon."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    if any(d < 2 for d in dims):
        raise DomainError(f"every dimension must be >= 2, got {list(dims)!r}")
    records: List[BenchRecord] = []
    for dim in dims:
        scored = [
            _score_pair(sample_histogram_pair(seed, dim, trial), epsilon, timing)
            for trial in range(trials)
        ]
        t_ref = sum(t for t, _ in scored)
        for method in ("jfr", "gb"):
            eps, tv, times = map(np.array, zip(*(scores[method] for _, scores in scored)))
            total = int(times.sum())
            records.append(
                BenchRecord(
                    dim=dim,
                    method=method,
                    avg_info_eps=float(eps.mean()),
                    max_info_eps=float(eps.max()),
                    avg_tv=float(tv.mean()),
                    max_tv=float(tv.max()),
                    avg_time_ns=int(round(total / trials)),
                    speedup_vs_jeffreys=t_ref / max(total, 1),
                )
            )
    return records


def _alpha_flagged(alpha: float) -> bool:
    # The second histogram is built from 1-alpha; flag when the float
    # representation distorts alpha materially or underflows the half bins.
    if alpha / 2.0 == 0.0:
        return True
    recovered = 1.0 - (1.0 - alpha)
    return abs(recovered / alpha - 1.0) > 1e-3


def run_table2(
    alphas: Sequence[float] = DEFAULT_ALPHAS, epsilon: float = JEFFREYS_CAT_EPSILON,
    timing: bool = True,
) -> List[Table2Row]:
    """Deterministic two-histogram benchmark over a list of alphas."""
    rows: List[Table2Row] = []
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
        flagged = _alpha_flagged(alpha)
        pair = np.array([[1 / 3, 1 / 3, 1 / 3], [1.0 - alpha, alpha / 2, alpha / 2]])
        t_ref, scores = _score_pair(pair, epsilon, timing)
        for method, (info_eps, tv_eps, t) in scores.items():
            rows.append(
                Table2Row(
                    alpha=alpha,
                    method=method,
                    info_eps=info_eps,
                    tv_eps=tv_eps,
                    time_ns=t,
                    speedup_vs_jeffreys=t_ref / max(t, 1),
                    flagged=flagged,
                )
            )
    return rows


def _sci(x: float) -> str:
    return f"{x:.5e}"


def _field(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    return _sci(x) if isinstance(x, float) else str(x)


def _csv(header: str, rows) -> str:
    """``header`` and one line per dataclass row, its fields in order: floats
    through :func:`_sci`, bools as 0/1, the rest (ints, method names) as ``str``."""
    lines = [header] + [",".join(map(_field, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"


def table1_csv(records: Sequence[BenchRecord]) -> str:
    return _csv(TABLE1_HEADER, records)


def table2_csv(rows: Sequence[Table2Row]) -> str:
    return _csv(TABLE2_HEADER, rows)
