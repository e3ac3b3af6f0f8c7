"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured statistics.
"""

import math
import time

import numpy as np
import pytest

from geopriv.accounting import (
    BudgetLedger,
    CgpBudget,
    GpBudget,
    cgp_to_relaxed_gp,
    compose_cgp,
    compose_gp,
    gp_to_cgp,
    matched_gp_budget,
)
from geopriv.bench import ExperimentConfig, main, run_sweep
from geopriv.geometry import PointTuple, center, dist_inf, max_radius
from geopriv.hull import convex_hull
from geopriv.mechanisms import (
    kpnn,
    pch_anchors_detailed,
    pnn_detailed,
    private_convex_hull,
    svt,
)
from geopriv.noise import RandomStream
from geopriv.statcheck import (
    check_cgp_radial_tail,
    check_expected_draws,
    check_gp_radial_tail,
    check_laplace_sum_pdf,
    check_planar_laplace_mean,
    renyi_divergence_gaussian_quadrature,
)
from helpers import brute_first_below, brute_knn, directed_excess, min_dist, point_polygon_distance


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_distributional_exactness():
    t0 = time.monotonic()
    checks = []
    sid = iter(range(100))
    for eps in (0.5, 1.0, 2.0):
        checks.append(check_gp_radial_tail(eps, (1.0, 3.0, 5.0), 10**6, RandomStream(0, next(sid))))
    for rho in (0.5, 1.0, 2.0):
        checks.append(check_cgp_radial_tail(rho, (0.5, 1.0, 1.5), 10**6, RandomStream(0, next(sid))))
    for b in (0.5, 1.0, 2.0):
        checks.append(check_laplace_sum_pdf(b, 10**6, RandomStream(0, next(sid))))
    # the draw count given the gate is geometric with a heavy tail (infinite
    # variance), so the 1e5-sample mean wobbles around its true value ~3.74;
    # fixed streams keep the flat 4.2 acceptance margin deterministic
    draw_checks = [
        check_expected_draws(b, 10**5, RandomStream(0, 40 + i))
        for i, b in enumerate((0.5, 1.0, 2.0))
    ]
    checks.extend(draw_checks)
    for dim in (2, 3, 5):
        checks.append(check_planar_laplace_mean(dim, 1.0, 10**6, RandomStream(0, next(sid))))
    elapsed = time.monotonic() - t0
    ok = all(c.passed for c in checks)
    ok = ok and all(c.statistic <= 4.2 for c in draw_checks)
    ok = ok and elapsed < 60.0
    detail = f"{len(checks)} checks, worst draw-mean {max(c.statistic for c in draw_checks):.3f}, {elapsed:.1f}s"
    for c in checks:
        if not c.passed:
            detail += f" | {c}"
    report(1, "distributional exactness", ok, detail)


def test_criterion_2_renyi_oracles():
    t0 = time.monotonic()
    worst = 0.0
    for shift in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            for alpha in (1.5, 2.0, 3.0):
                closed = alpha * shift**2 / (2 * sigma**2)
                quad = renyi_divergence_gaussian_quadrature(0.0, shift, sigma, alpha)
                worst = max(worst, abs(quad - closed))
    # the Gaussian mechanism's divergence curve: alpha * rho * dist^2
    for rho in (0.25, 0.5, 1.0):
        sigma = 1.0 / math.sqrt(2 * rho)
        for dist in (0.5, 1.0, 2.0):
            for alpha in (1.5, 2.0, 3.0):
                quad = renyi_divergence_gaussian_quadrature(0.0, dist, sigma, alpha)
                worst = max(worst, abs(quad - alpha * rho * dist**2))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(2, "Renyi divergence oracles", ok, f"worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_conversion_algebra():
    checks = []
    checks.append(abs(gp_to_cgp(1.0).rho - 0.5) <= 1e-12)
    rho = 0.37
    checks.append(abs(gp_to_cgp(math.sqrt(2 * rho)).rho / rho - 1.0) <= 1e-12)
    out = cgp_to_relaxed_gp(0.01, 1e-10, 10.0)
    expected = 0.1 + 2 * math.sqrt(0.01 * math.log(1e10))
    checks.append(abs(out.eps / expected - 1.0) <= 1e-12)
    checks.append(abs(out.eps - 1.0597051824376162) <= 1e-12 * out.eps)
    eps = matched_gp_budget(0.01, 1e-10, 10.0)
    tail = 0.01 * math.log(1e10)
    checks.append(abs(eps / (math.sqrt(0.1 + tail) + math.sqrt(tail)) - 1.0) <= 1e-12)
    c = compose_cgp([CgpBudget(0.1), CgpBudget(0.2)])
    checks.append(abs(c.rho / 0.3 - 1.0) <= 1e-12)
    g = compose_gp([GpBudget(0.5, 1e-10), GpBudget(0.5, 1e-10)])
    checks.append(abs(g.eps / 1.0 - 1.0) <= 1e-12 and abs(g.delta / 2e-10 - 1.0) <= 1e-12)
    report(3, "conversion and composition algebra", all(checks), f"{len(checks)} identities at 1e-12 relative")


def value_queries(values):
    return [lambda _x, v=float(v): v for v in values]


def test_criterion_4_zero_noise_oracle_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(0)
    zero = RandomStream(0, zero_noise=True)
    x0 = PointTuple([[0.0, 0.0]])

    svt_ok = 0
    for _ in range(500):
        vals = gen.random(int(gen.integers(1, 50))) * 4
        thresh = float(gen.random() * 4)
        out = svt(x0, 1.0, thresh, 1.0, value_queries(vals), len(vals), zero)
        expect = brute_first_below(vals, thresh, len(vals))
        svt_ok += (out.index == expect) if out.halted else (expect is None)

    pnn_ok = 0
    for _ in range(500):
        n = int(gen.integers(1, 201))
        pts = gen.random((n, 2)) * 1000
        x = PointTuple(pts)
        m = int(gen.integers(1, n + 1))
        subset = sorted(int(i) + 1 for i in gen.choice(n, size=m, replace=False))
        p = gen.random(2) * 1000
        got, _ = pnn_detailed(x, p, subset, 1.0, zero)
        d = np.linalg.norm(pts[np.asarray(subset) - 1] - p, axis=1)
        pnn_ok += got == subset[int(np.argmin(d))]

    kpnn_ok = 0
    for _ in range(500):
        n = int(gen.integers(2, 201))
        pts = gen.random((n, 2)) * 1000
        k = int(gen.integers(1, min(n, 10) + 1))
        p = gen.random(2) * 1000
        kpnn_ok += kpnn(PointTuple(pts), p, k, 1.0, zero) == brute_knn(pts, p, k)

    pch_ok = 0
    for _ in range(500):
        n = int(gen.integers(1, 201))
        pts = gen.random((n, 2)) * 1000
        k = int(gen.integers(3, 9))
        rho, beta = 0.5, 0.05
        anchors, info = pch_anchors_detailed(PointTuple(pts), rho, beta, zero, k=k)
        c = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        radius = float(np.linalg.norm(pts - c, axis=1).max()) + math.sqrt(
            3 * math.log(2 / beta) / (rho / 20)
        )
        expect = []
        for j in range(k):
            theta = 2 * math.pi * j / k
            probe = c + radius * np.array([math.cos(theta), math.sin(theta)])
            expect.append(int(np.argmin(np.linalg.norm(pts - probe, axis=1))) + 1)
        pch_ok += anchors == expect

    elapsed = time.monotonic() - t0
    ok = svt_ok == pnn_ok == kpnn_ok == pch_ok == 500 and elapsed < 30.0
    report(
        4,
        "zero-noise oracle equivalence",
        ok,
        f"svt {svt_ok}/500, pnn {pnn_ok}/500, kpnn {kpnn_ok}/500, pch {pch_ok}/500, {elapsed:.1f}s",
    )


def test_criterion_5_utility_bounds():
    t0 = time.monotonic()
    n, beta, trials = 1000, 0.05, 200
    gen = np.random.default_rng(1)
    x = PointTuple(gen.random((n, 2)) * 10_000)

    # nearest-neighbour excess bound with the standard failure split
    eps, m = 1.0, n
    beta1 = beta3 = beta / (4 * m + 2)
    beta2 = 4 * m * beta / (4 * m + 2)
    u = math.log(1 / beta1)
    gamma_pnn = (3 / eps) * (math.sqrt(2 * u) + u) + (6 / eps) * math.log(4 * m / (beta2 * beta3))
    hits, total_steps = 0, 0
    for t in range(trials):
        p = gen.random(2) * 10_000
        got, outcome = pnn_detailed(x, p, range(1, n + 1), eps, RandomStream(1, t))
        h = min_dist(x, p)[1]
        hits += float(np.linalg.norm(x.points[got - 1] - p)) <= h + gamma_pnn
        total_steps += outcome.steps
    pnn_frac = hits / trials
    mean_steps = total_steps / trials
    pnn_ok = pnn_frac >= 1 - beta and mean_steps <= 4 * m

    # sequential k-selection: per-rank excess bound
    k, rho = 10, 1.0
    gamma_k = (15 * math.sqrt(k) / math.sqrt(2 * rho)) * math.log((4 * n + 2) / beta) + (
        3 * math.sqrt(k) / math.sqrt(rho)
    ) * math.sqrt(math.log((4 * n + 2) / beta))
    hits = 0
    for t in range(trials):
        p = gen.random(2) * 10_000
        got = kpnn(x, p, k, rho, RandomStream(2, t))
        truth = brute_knn(x.points, p, k)
        got_d = np.linalg.norm(x.points[np.asarray(got) - 1] - p, axis=1)
        true_d = np.linalg.norm(x.points[np.asarray(truth) - 1] - p, axis=1)
        hits += bool(np.all(got_d <= true_d + gamma_k))
    kpnn_frac = hits / trials
    kpnn_ok = kpnn_frac >= 1 - beta

    # hull sandwich: released-hull expansion covers the true hull
    hull_trials, k_hull = 100, 16
    true_hull = convex_hull(x.points)
    scale = 10_000.0
    outer_hits, inner_hits = 0, 0
    for t in range(hull_trials):
        res = private_convex_hull(x, rho, beta, RandomStream(3, t), k=k_hull)
        info = res.info
        L = math.log(4 * (4 * n + 2) * info.k / beta)
        g1 = (15 * L + 3 * math.sqrt(2 * L)) / math.sqrt(info.probe_budget)
        g2 = 2 * math.pi * info.radius / info.k
        g3 = math.sqrt(2 * info.k * math.log(2 * info.k / beta)) / math.sqrt(rho)
        gamma = g1 + g2 + g3
        released_hull = convex_hull(res.points)
        if not released_hull.degenerate and directed_excess(released_hull, true_hull) <= gamma:
            outer_hits += 1
        anchor_pts = x.points[np.asarray(res.anchors) - 1]
        anchor_hull = convex_hull(anchor_pts)
        if anchor_hull.degenerate:
            inside = all(point_polygon_distance(p, true_hull) <= 1e-9 * scale for p in anchor_pts)
        else:
            inside = directed_excess(true_hull, anchor_hull) <= 1e-9 * scale
        inner_hits += inside
    hull_ok = outer_hits / hull_trials >= 1 - beta and inner_hits == hull_trials

    elapsed = time.monotonic() - t0
    ok = pnn_ok and kpnn_ok and hull_ok and elapsed < 600.0
    report(
        5,
        "utility bounds at stated confidence",
        ok,
        f"pnn {pnn_frac:.3f} (steps {mean_steps:.0f} <= {4 * m}), kpnn {kpnn_frac:.3f}, "
        f"hull outer {outer_hits}/{hull_trials} inner {inner_hits}/{hull_trials}, {elapsed:.1f}s",
    )


def test_criterion_6_scaling_trends():
    t0 = time.monotonic()
    n = 1024

    cfg = ExperimentConfig(
        task="identity", rho_grid=[0.005, 0.01, 0.02], n_grid=[n], trials=25, collections=4, seed=0
    )
    rows = run_sweep(cfg)
    d = {(r.mechanism, r.budget, r.metric): r.mean for r in rows}
    ratio = d[("gp_basic", 0.01, "max_point_err")] / d[("cgp_basic", 0.01, "max_point_err")]
    ratio_ok = math.sqrt(n) / 4 <= ratio <= 4 * math.sqrt(n)
    mono_ok = all(
        d[(m, 0.005, "max_point_err")] > d[(m, 0.01, "max_point_err")] > d[(m, 0.02, "max_point_err")]
        for m in ("gp_basic", "cgp_basic")
    )

    cfg = ExperimentConfig(
        task="knn", rho_grid=[0.01], n_grid=[n], k_grid=[16, 64], trials=25, collections=4, seed=0
    )
    kd = {(r.mechanism, r.k, r.metric): r.mean for r in run_sweep(cfg)}
    cgp_growth = kd[("cgp_pnn", 64, "mean_rank_excess")] / kd[("cgp_pnn", 16, "mean_rank_excess")]
    gp_growth = kd[("gp_pnn", 64, "mean_rank_excess")] / kd[("gp_pnn", 16, "mean_rank_excess")]
    knn_ok = cgp_growth < 3.0 and gp_growth > cgp_growth

    cfg = ExperimentConfig(
        task="hull", rho_grid=[5e-4], n_grid=[4096], trials=25, collections=4, seed=0
    )
    hd = {r.mechanism: r.mean for r in run_sweep(cfg)}
    hull_ok = all(
        hd[pch] > hd[base]
        for pch in ("gp_pch", "cgp_pch")
        for base in ("gp_basic", "cgp_basic")
    )

    elapsed = time.monotonic() - t0
    ok = ratio_ok and mono_ok and knn_ok and hull_ok and elapsed < 900.0
    report(
        6,
        "scaling trends",
        ok,
        f"identity ratio {ratio:.1f} in [{math.sqrt(n)/4:.0f},{4*math.sqrt(n):.0f}], monotone {mono_ok}, "
        f"k-growth cgp {cgp_growth:.2f} vs gp {gp_growth:.2f}, hull pch {hd['gp_pch']:.2f}/{hd['cgp_pch']:.2f} "
        f"vs base {hd['gp_basic']:.2f}/{hd['cgp_basic']:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_lipschitz_certificates():
    gen = np.random.default_rng(2)
    pairs = 10_000
    slack = 1e-9
    violations = {"min_dist": 0, "max_radius": 0, "center": 0}
    for _ in range(pairs):
        n = int(gen.integers(1, 16))
        a = PointTuple(gen.random((n, 2)))
        b = PointTuple(gen.random((n, 2)))
        q = gen.random(2)
        d = dist_inf(a, b)
        if abs(min_dist(a, q)[1] - min_dist(b, q)[1]) > d + slack:
            violations["min_dist"] += 1
        if abs(max_radius(a, q) - max_radius(b, q)) > d + slack:
            violations["max_radius"] += 1
        if float(np.linalg.norm(center(a) - center(b))) > math.sqrt(2) * d + slack:
            violations["center"] += 1
    ok = not any(violations.values())
    report(7, "Lipschitz certificates", ok, f"{pairs} pairs, violations {violations}")


def test_criterion_8_reproducibility(tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"identity_{name}.csv"
        rc = main(
            [
                "identity",
                "--rho-grid", "0.01,0.02",
                "--n-grid", "64",
                "--trials", "3",
                "--collections", "2",
                "--seed", "11",
                "--extent", "2000",
                "--out", str(path),
            ]
        )
        assert rc == 0
        outs.append(path.read_bytes())
    identity_same = outs[0] == outs[1]

    vouts = []
    for name in ("a", "b"):
        path = tmp_path / f"verify_{name}.csv"
        rc = main(["verify", "--samples", "30000", "--seed", "11", "--out", str(path)])
        assert rc == 0
        vouts.append(path.read_bytes())
    verify_same = vouts[0] == vouts[1]

    ok = identity_same and verify_same
    report(8, "byte-identical reproducibility", ok, f"identity {identity_same}, verify {verify_same}")
