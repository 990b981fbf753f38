"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from jeffreys_centers import (
    GaussianParam,
    HistogramSet,
    SPDMatrix,
    ScalarGenerator,
    SimplexPoint,
    ToleranceConfig,
    WeightedParamSet,
    burg_generator,
    gb_center,
    gb_center_cat,
    gb_center_mvn,
    geometric_mean,
    jeffreys_centroid_cat,
    jeffreys_centroid_centered,
    jeffreys_loss_cat,
    jeffreys_mvn,
    jfr_center_1d,
    jfr_center_cat,
    jfr_center_mvn,
    kl_cat,
    mvn_generator,
    mvn_to_natural,
    normalized_geometric_mean,
    shannon_generator,
    symmetrized_bregman,
    symmetrized_logdet,
    trace_metric_distance,
)
from jeffreys_centers.bench import run_table1, run_table2

from conftest import ah_limit, embedded_equidistance_residual, random_simplex, random_spd_unit
from oracles import cat_to_natural, elliptic_k, energy_grad_residual, g_invariance_residual

TIGHT = ToleranceConfig(rel_tol=1e-12, max_iter=300)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {tag}: {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def within_factor(value: float, target: float, factor: float = 3.0) -> bool:
    return target / factor <= value <= target * factor


def random_instances(seed: int, count: int = 200):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 65))
        n = int(rng.integers(2, 9))
        rows = np.array([random_simplex(rng, d, floor=1e-9) for _ in range(n)])
        w = rng.uniform(0.2, 1.0, size=n)
        out.append(HistogramSet(rows, w / w.sum()))
    return out


def test_criterion_1_table2_deterministic():
    t0 = time.perf_counter()
    rows = {r.method: r for r in run_table2([1e-1], epsilon=1e-10, timing=False)}
    elapsed = time.perf_counter() - t0
    ok = (
        within_factor(rows["jfr"].info_eps, 6.882e-09)
        and within_factor(rows["jfr"].tv_eps, 2.495e-05)
        and within_factor(rows["gb"].info_eps, 1.338e-06)
        and within_factor(rows["gb"].tv_eps, 3.480e-04)
        and elapsed < 1.0
    )
    report(
        1,
        "Table 2 alpha=1e-1 reproduction within factor 3",
        ok,
        f"jfr info {rows['jfr'].info_eps:.3e} tv {rows['jfr'].tv_eps:.3e}, "
        f"gb info {rows['gb'].info_eps:.3e} tv {rows['gb'].tv_eps:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_table2_trend():
    t0 = time.perf_counter()
    alphas = [10.0**-k for k in range(1, 9)]
    rows = run_table2(alphas, epsilon=1e-10, timing=False)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    detail = []
    for method in ("jfr", "gb"):
        eps = [r.info_eps for r in rows if r.method == method]
        inversions = sum(1 for a, b in zip(eps, eps[1:]) if b < a)
        detail.append(f"{method} inversions={inversions}")
        ok = ok and inversions <= 1
    jfr_1e3 = next(r.info_eps for r in rows if r.method == "jfr" and r.alpha == 1e-3)
    ok = ok and within_factor(jfr_1e3, 6.262e-04)
    report(
        2,
        "Table 2 trend over alpha 1e-1..1e-8 with <=1 adjacent inversion",
        ok,
        f"{', '.join(detail)}, jfr@1e-3 {jfr_1e3:.3e}, {elapsed:.2f}s",
    )


def test_criterion_3_table1_envelope():
    t0 = time.perf_counter()
    recs = {
        r.method: r
        for r in run_table1(dims=(16,), trials=1000, seed=0, timing=False)
    }
    elapsed = time.perf_counter() - t0
    jfr, gb = recs["jfr"].avg_info_eps, recs["gb"].avg_info_eps
    ok = 1.2e-05 <= jfr <= 1.1e-04 and 4.6e-04 <= gb <= 4.2e-03 and elapsed < 60.0
    report(
        3,
        "Table 1 d=16 stochastic envelope (1000 seeded trials)",
        ok,
        f"avg jfr {jfr:.3e} in [1.2e-05,1.1e-04], avg gb {gb:.3e} in "
        f"[4.6e-04,4.2e-03], {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def instances():
    return random_instances(seed=1234, count=200)


def test_criterion_4_fixed_point(instances):
    worst_fp, worst_mass = 0.0, 0.0
    for hset in instances:
        res = jeffreys_centroid_cat(hset, 1e-10)
        g = normalized_geometric_mean(hset)
        worst_fp = max(worst_fp, abs(res.lam + kl_cat(res.center, g)))
        worst_mass = max(worst_mass, res.mass_residual)
    ok = worst_fp <= 1e-6 and worst_mass <= 1e-8
    report(
        4,
        "Jeffreys fixed point on 200 random instances",
        ok,
        f"max |lambda + KL(c:g)| {worst_fp:.3e} <= 1e-6, max |mass-1| {worst_mass:.3e} <= 1e-8",
    )


def grid_min_loss(hset: HistogramSet, step: float = 2e-4) -> float:
    rows, w = hset.rows, hset.weights
    best = np.inf
    for c1 in np.arange(step, 1.0 - step, step):
        c2 = np.arange(step, 1.0 - c1, step)
        c3 = 1.0 - c1 - c2
        mask = c3 > step / 2
        c2, c3 = c2[mask], c3[mask]
        if c2.size == 0:
            continue
        loss = np.zeros(c2.size)
        for wi, p in zip(w, rows):
            loss += wi * (
                (p[0] - c1) * np.log(p[0] / c1)
                + (p[1] - c2) * np.log(p[1] / c2)
                + (p[2] - c3) * np.log(p[2] / c3)
            )
        best = min(best, float(loss.min()))
    return best


def test_criterion_5_optimality_ordering(instances):
    worst = np.inf
    for hset in instances:
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        loss_ref = jeffreys_loss_cat(hset, ref)
        for cand in (jfr_center_cat(hset), gb_center_cat(hset)[0]):
            worst = min(worst, jeffreys_loss_cat(hset, cand) - loss_ref)
    ordering_ok = worst >= -1e-12

    rng = np.random.default_rng(77)
    grid_ok = True
    details = []
    for _ in range(3):
        rows = np.array([random_simplex(rng, 3, 1e-6) for _ in range(3)])
        hset = HistogramSet(rows)
        ref = jeffreys_centroid_cat(hset, 1e-10).center
        loss_ref = jeffreys_loss_cat(hset, ref)
        gmin = grid_min_loss(hset)
        grid_ok = grid_ok and gmin >= loss_ref - 1e-7
        details.append(f"{gmin - loss_ref:+.2e}")
    report(
        5,
        "optimality ordering + d=3 grid oracle at 2e-4",
        ordering_ok and grid_ok,
        f"min(loss_cand - loss_ref) {worst:.2e} >= -1e-12; grid-ref gaps {details}",
    )


def test_criterion_6_scalar_inductive_means(gb_steps):
    rng = np.random.default_rng(99)
    burg = burg_generator(1)
    shannon = shannon_generator(1)
    worst_geo, worst_agm, worst_quad = 0.0, 0.0, 0.0
    for _ in range(100):
        x, y = rng.uniform(0.1, 10.0, size=2)
        pair = WeightedParamSet([[x], [y]])
        gb_steps.clear()
        center, diag = gb_center(burg, pair, ToleranceConfig(1e-13, 300))
        assert len(gb_steps) == diag.iterations
        worst_geo = max(worst_geo, abs(center[0] - math.sqrt(x * y)))
        for (tb, tu), (nb, nu) in gb_steps:
            g0, g1 = abs(tb[0] - tu[0]), abs(nb[0] - nu[0])
            if g0 > 1e-6:  # below that, roundoff dominates the quadratic model
                worst_quad = max(worst_quad, g1 / (g0 * g0))
        a0, g0 = 0.5 * (x + y), math.sqrt(x * y)
        center2, _ = gb_center(shannon, pair, ToleranceConfig(1e-13, 300))
        closed = (math.pi / 4.0) * (a0 + g0) / elliptic_k((a0 - g0) / (a0 + g0)) \
            if abs(a0 - g0) > 1e-14 else a0
        worst_agm = max(worst_agm, abs(center2[0] - closed))
    ok = worst_geo <= 1e-12 and worst_agm <= 1e-10 and worst_quad <= 2.6
    report(
        6,
        "scalar inductive oracles: AHM->geometric, (A,G)->elliptic AGM",
        ok,
        f"max |ahm - sqrt(xy)| {worst_geo:.2e} <= 1e-12, max |agm - closed| "
        f"{worst_agm:.2e} <= 1e-10, quadratic C {worst_quad:.2f} <= 2.6",
    )


def test_criterion_7_spd_suite():
    rng = np.random.default_rng(4321)
    worst = {
        "riccati": 0.0, "equid": 0.0, "nakamura": 0.0, "ginv": 0.0,
        "congr": 0.0, "inv": 0.0, "eig": 0.0,
    }
    for i in range(100):
        d = (2, 3, 5, 8)[i % 4]
        x, y = random_spd_unit(rng, d), random_spd_unit(rng, d)
        z = geometric_mean(x, y)
        worst["riccati"] = max(
            worst["riccati"],
            np.linalg.norm(z.entries @ np.linalg.inv(x.entries) @ z.entries - y.entries)
            / np.linalg.norm(y.entries),
        )
        worst["equid"] = max(
            worst["equid"],
            abs(trace_metric_distance(x, z) - trace_metric_distance(z, y)),
        )
        limit, _ = ah_limit(x, y)
        worst["nakamura"] = max(worst["nakamura"], np.linalg.norm(limit.entries - z.entries))
        worst["ginv"] = max(worst["ginv"], g_invariance_residual(x, y))
        a = rng.normal(size=(d, d))
        while abs(np.linalg.det(a)) < 0.2 or np.linalg.cond(a) > 20:
            a = rng.normal(size=(d, d))
        base = symmetrized_logdet(x, y)
        congr = symmetrized_logdet(
            SPDMatrix(a @ x.entries @ a.T), SPDMatrix(a @ y.entries @ a.T)
        )
        worst["congr"] = max(worst["congr"], abs(congr - base) / max(1.0, base))
        invd = symmetrized_logdet(
            SPDMatrix(np.linalg.inv(x.entries)), SPDMatrix(np.linalg.inv(y.entries))
        )
        worst["inv"] = max(worst["inv"], abs(invd - base) / max(1.0, base))
        lam = np.linalg.eigvals(np.linalg.inv(x.entries) @ y.entries).real
        eig_form = float(np.sum((np.sqrt(lam) - 1.0 / np.sqrt(lam)) ** 2))
        worst["eig"] = max(worst["eig"], abs(eig_form - base) / max(1.0, base))
    ok = (
        worst["riccati"] <= 1e-10
        and worst["equid"] <= 1e-9
        and worst["nakamura"] <= 1e-8
        and worst["ginv"] <= 1e-9
        and worst["congr"] <= 1e-9
        and worst["inv"] <= 1e-9
        and worst["eig"] <= 1e-10
    )
    report(
        7,
        "SPD suite residuals on 100 random pairs (d in {2,3,5,8})",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_8_same_mean_coincidence():
    rng = np.random.default_rng(8)
    worst_pair, worst_grad = 0.0, 0.0
    for d in (2, 3, 5):
        for n in (2, 4, 6):
            covs = [random_spd_unit(rng, d) for _ in range(n)]
            gs = [GaussianParam(np.zeros(d), c) for c in covs]
            w = rng.uniform(0.2, 1.0, size=n)
            w /= w.sum()
            closed = jeffreys_centroid_centered(covs, w)
            gb, _ = gb_center_mvn(gs, w, tol=TIGHT)
            jfr = jfr_center_mvn(gs, w)
            for other in (gb, jfr):
                worst_pair = max(
                    worst_pair, np.linalg.norm(other.cov.entries - closed.cov.entries)
                )
            worst_pair = max(worst_pair, np.linalg.norm(gb.cov.entries - jfr.cov.entries))
            gen = mvn_generator(d)
            thetas = np.array([mvn_to_natural(g) for g in gs])
            resid = energy_grad_residual(
                gen, WeightedParamSet(thetas, w), mvn_to_natural(closed)
            )
            worst_grad = max(worst_grad, resid)
    ok = worst_pair <= 1e-8 and worst_grad <= 1e-8
    report(
        8,
        "same-mean coincidence of closed-form, GB and JFR centers",
        ok,
        f"max pairwise cov gap {worst_pair:.2e} <= 1e-8, max loss gradient {worst_grad:.2e} <= 1e-8",
    )


def test_criterion_9_fisher_rao_midpoint():
    rng = np.random.default_rng(9)
    worst_equid, worst_reduction = 0.0, 0.0
    for i in range(100):
        d = (1, 2, 3)[i % 3]
        p0 = GaussianParam(rng.normal(size=d), random_spd_unit(rng, d))
        p1 = GaussianParam(rng.normal(size=d), random_spd_unit(rng, d))
        worst_equid = max(worst_equid, embedded_equidistance_residual(p0, p1))
    for _ in range(20):
        d = int(rng.integers(1, 4))
        mu = rng.normal(size=d)
        s0, s1 = random_spd_unit(rng, d), random_spd_unit(rng, d)
        from jeffreys_centers import fisher_rao_midpoint_mvn

        mid = fisher_rao_midpoint_mvn(GaussianParam(mu, s0), GaussianParam(mu, s1))
        worst_reduction = max(
            worst_reduction,
            np.abs(mid.cov.entries - geometric_mean(s0, s1).entries).max(),
            np.abs(mid.mean - mu).max(),
        )
    ok = worst_equid <= 1e-9 and worst_reduction <= 1e-8
    report(
        9,
        "Fisher-Rao midpoint: embedded equidistance and same-mean reduction",
        ok,
        f"max equidistance residual {worst_equid:.2e} <= 1e-9, "
        f"max same-mean reduction gap {worst_reduction:.2e} <= 1e-8",
    )


def test_criterion_10_affine_equivariance():
    rng = np.random.default_rng(10)
    worst = 0.0
    for d in (2, 3):
        gs = [GaussianParam(rng.normal(size=d), random_spd_unit(rng, d)) for _ in range(3)]
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()
        a = rng.normal(size=(d, d))
        while abs(np.linalg.det(a)) < 0.3 or np.linalg.cond(a) > 10:
            a = rng.normal(size=(d, d))
        b = rng.normal(size=d)
        mapped = [
            GaussianParam(a @ g.mean + b, SPDMatrix(a @ g.cov.entries @ a.T)) for g in gs
        ]
        jfr0, jfr1 = jfr_center_mvn(gs, w), jfr_center_mvn(mapped, w)
        worst = max(
            worst,
            np.abs(jfr1.mean - (a @ jfr0.mean + b)).max(),
            np.abs(jfr1.cov.entries - a @ jfr0.cov.entries @ a.T).max(),
        )
        gb0, _ = gb_center_mvn(gs, w, tol=TIGHT)
        gb1, _ = gb_center_mvn(mapped, w, tol=TIGHT)
        worst = max(
            worst,
            np.abs(gb1.mean - (a @ gb0.mean + b)).max(),
            np.abs(gb1.cov.entries - a @ gb0.cov.entries @ a.T).max(),
        )
        covs = [g.cov for g in gs]
        c0 = jeffreys_centroid_centered(covs, w)
        c1 = jeffreys_centroid_centered([SPDMatrix(a @ c.entries @ a.T) for c in covs], w)
        worst = max(worst, np.abs(c1.cov.entries - a @ c0.cov.entries @ a.T).max())
    ok = worst <= 1e-8
    report(
        10,
        "affine equivariance of Jeffreys-centered, JFR and GB centers",
        ok,
        f"max equivariance gap {worst:.2e} <= 1e-8",
    )


def test_criterion_11_cross_module_consistency():
    rng = np.random.default_rng(11)
    worst_sb = 0.0
    gen3 = mvn_generator(3)
    for _ in range(20):
        p = GaussianParam(rng.normal(size=3), random_spd_unit(rng, 3))
        q = GaussianParam(rng.normal(size=3), random_spd_unit(rng, 3))
        sb = symmetrized_bregman(
            gen3,
            mvn_to_natural(p),
            mvn_to_natural(q),
        )
        worst_sb = max(worst_sb, abs(jeffreys_mvn(p, q) - sb) / max(1.0, sb))

    def sig(t):
        return 1.0 / (1.0 + math.exp(-t))

    bernoulli = ScalarGenerator(
        f_prime=sig,
        f_second=lambda t: sig(t) * (1.0 - sig(t)),
        domain=(-math.inf, math.inf),
    )
    worst_cat = 0.0
    for _ in range(10):
        p = rng.uniform(0.05, 0.95, size=4)
        rows = np.stack([p, 1.0 - p], axis=1)
        w = rng.uniform(0.2, 1.0, size=4)
        hset = HistogramSet(rows, w / w.sum())
        cat_theta = float(cat_to_natural(jfr_center_cat(hset))[0])
        thetas = [float(cat_to_natural(SimplexPoint(r))[0]) for r in rows]
        uni_theta = jfr_center_1d(bernoulli, thetas, w / w.sum())
        worst_cat = max(worst_cat, abs(uni_theta - cat_theta))
    ok = worst_sb <= 1e-9 and worst_cat <= 1e-8
    report(
        11,
        "cross-module consistency: Jeffreys=S_F (MVN); d=2 JFR via scalar path",
        ok,
        f"max relative gap {worst_sb:.2e} <= 1e-9, max theta gap {worst_cat:.2e} <= 1e-8",
    )
