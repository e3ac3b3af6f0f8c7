"""Brute-force reference implementations used as independent test oracles."""

import math
from itertools import combinations, cycle, islice

import numpy as np

from geopriv.geometry import PointTuple, _validate_indices, query_dists
from geopriv.hull import ORIENT_EPS, ConvexPolygon, _bbox_scale, _cross
from geopriv.mechanisms import _CGP, _GP, _MAX_CYCLES, _Calibration
from geopriv.noise import RandomStream, laplace_sum_pdf, sample_laplace, sample_planar_laplace
from geopriv.statcheck import CheckReport, _binomial_band, _laplace_sum_cdf, accept_probability


def brute_hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Hull vertices by point-in-triangle elimination (O(n^3) triangles)."""
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    if n <= 2:
        return np.unique(pts, axis=0)
    span = pts.max(axis=0) - pts.min(axis=0)
    tol = 1e-12 * float(span.max()) ** 2
    tris = np.array(list(combinations(range(n), 3)))
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]

    def cross(u, v, p):
        # (T, n) cross products of (v - u) x (p - u)
        d = v - u
        return d[:, None, 0] * (p[None, :, 1] - u[:, None, 1]) - d[:, None, 1] * (
            p[None, :, 0] - u[:, None, 0]
        )

    s1 = cross(a, b, pts)
    s2 = cross(b, c, pts)
    s3 = cross(c, a, pts)
    inside = ((s1 > tol) & (s2 > tol) & (s3 > tol)) | ((s1 < -tol) & (s2 < -tol) & (s3 < -tol))
    interior = inside.any(axis=0)
    return np.unique(pts[~interior], axis=0)


def monotone_chain(pts: np.ndarray, eps: float) -> tuple[np.ndarray, bool]:
    """Andrew's monotone chain over every point, no prefilter: the hull
    vertices counter-clockwise and the degenerate flag, with the orientation
    tolerance ``eps`` times the squared bounding-box scale."""
    pts = np.unique(np.asarray(pts, dtype=np.float64), axis=0)
    if len(pts) == 1:
        return pts, True
    tol = eps * float((pts.max(axis=0) - pts.min(axis=0)).max()) ** 2

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= tol:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if len(hull) < 3:
        return np.array([pts[0], pts[-1]]), True
    return np.asarray(hull), False


def brute_knn(pts: np.ndarray, p: np.ndarray, k: int) -> list[int]:
    """1-based indices of the k nearest points, ties to the lowest index."""
    d = np.linalg.norm(np.asarray(pts) - np.asarray(p), axis=1)
    return [int(i) + 1 for i in np.argsort(d, kind="stable")[:k]]


def brute_first_below(values, threshold: float, max_steps: int):
    """First 1-based position with value <= threshold, or None within the cap."""
    for j, v in enumerate(values[:max_steps], start=1):
        if v <= threshold:
            return j
    return None


def stepwise_scan(values, gate: float, scale: float, max_steps: int, gen: np.random.Generator):
    """Query-by-query below-threshold scan: whenever its block of Laplace
    draws is used up it draws the next, of min(256, steps left) values.
    Stops at ``max_steps`` or when ``values`` runs out; returns
    (halted, steps)."""
    buf, pos, steps = np.empty(0), 0, 0
    for v in values:
        if steps == max_steps:
            break
        steps += 1
        if pos == len(buf):
            buf, pos = gen.laplace(0.0, scale, size=min(256, max_steps - steps + 1)), 0
        if v + buf[pos] <= gate:
            return True, steps
        pos += 1
    return False, steps


def mask_kpnn(cal: _Calibration, x: PointTuple, query_point, k: int, budget: float, rng: RandomStream) -> list[int]:
    """``kpnn`` (``cal`` = ``_CGP``) or ``kpnn_gp`` (``_GP``) at the default
    scan parameters, as k rounds over a mask of the points not yet chosen:
    each round scans the distances of ``np.flatnonzero(remaining)``, query
    by query (``stepwise_scan``), with pnn's threshold and svt noise."""
    eps = cal.round_rate(budget / k)
    dists = query_dists(x.points, query_point)
    remaining = np.ones(x.n, dtype=bool)
    chosen = []
    for _ in range(k):
        left = np.flatnonzero(remaining)
        d = dists[left]
        gate = float(d.min()) + sample_laplace(3.0 / eps, rng)
        svt_eps = 2.0 * eps / 3.0
        gate += sample_laplace(2.0 / svt_eps, rng)
        max_steps = _MAX_CYCLES * len(d)
        halted, steps = stepwise_scan(islice(cycle(d), max_steps), gate, 4.0 / svt_eps, max_steps, rng.generator)
        assert halted
        t = int(left[(steps - 1) % len(d)])
        chosen.append(t + 1)
        remaining[t] = False
    return chosen


def min_dist(x: PointTuple, q, indices=None) -> tuple[int, float]:
    """Index in the (1-based) subset minimizing ||x_i - q||, and that distance.

    Ties break to the lowest position in the subset.  The distance itself is
    1-Lipschitz in x under the max per-point metric.
    """
    dists = query_dists(x.points, q)
    idx = _validate_indices(indices, x.n)
    d = dists[idx - 1]
    pos = int(np.argmin(d))
    return int(idx[pos]), float(d[pos])


def _point_segment_dist(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def point_polygon_distance(p, poly: ConvexPolygon) -> float:
    """Euclidean distance from a point to a convex polygon (0 inside)."""
    if poly.degenerate:
        raise ValueError("polygon is degenerate")
    p = np.asarray(p, dtype=np.float64)
    v = poly.vertices
    m = len(v)
    tol = ORIENT_EPS * _bbox_scale(v) ** 2
    inside = True
    best = math.inf
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        if _cross(a, b, p) < -tol:
            inside = False
        best = min(best, _point_segment_dist(p, a, b))
    return 0.0 if inside else best


def directed_excess(outer_candidate: ConvexPolygon, inner: ConvexPolygon) -> float:
    """Smallest gamma such that ``inner`` fits inside ``outer_candidate``
    expanded by a ball of radius gamma.

    Equals the max over the inner polygon's vertices of their distance to the
    outer polygon (the distance-to-a-convex-set function is convex, so its
    max over a polytope is attained at a vertex); 0 when inner is contained.
    """
    if outer_candidate.degenerate or inner.degenerate:
        raise ValueError("directed_excess requires non-degenerate polygons")
    return max(point_polygon_distance(p, outer_candidate) for p in inner.vertices)


def laplace_sum_cdf_numeric(points: np.ndarray, scale: float) -> np.ndarray:
    """CDF of the two-Laplace sum at the given points, as ``verify`` integrates it."""
    return _laplace_sum_cdf(scale)(points)


def random_tuple(gen: np.random.Generator, n: int, dim: int = 2, scale: float = 1.0) -> np.ndarray:
    return gen.random((n, dim)) * scale


# One-shot sampling checks: each draws all of its samples in one call, as the
# checks did before they drew in chunks.  The chunked checks must match them
# wherever the chunks continue the one-shot draw stream.


def _one_shot_survival(name, radii, r_grid, reference) -> CheckReport:
    samples = len(radii)
    worst = 0.0
    for r in r_grid:
        p = reference(float(r))
        emp = float(np.mean(radii > r))
        worst = max(worst, abs(emp - p) / _binomial_band(p, samples))
    return CheckReport(name, worst, 1.0, worst < 1.0, samples)


def one_shot_gp_radial_tail(eps, r_grid, samples, rng) -> CheckReport:
    radii = np.linalg.norm(_GP.noise(2, eps, rng, size=samples), axis=1)
    ref = lambda r: (1.0 + r * eps) * math.exp(-r * eps)
    return _one_shot_survival(f"gp_radial_tail(eps={eps:g})", radii, r_grid, ref)


def one_shot_cgp_radial_tail(rho, r_grid, samples, rng) -> CheckReport:
    radii = np.linalg.norm(_CGP.noise(2, rho, rng, size=samples), axis=1)
    ref = lambda r: math.exp(-rho * r * r)
    return _one_shot_survival(f"cgp_radial_tail(rho={rho:g})", radii, r_grid, ref)


def one_shot_laplace_sum_pdf(b, samples, rng) -> CheckReport:
    ks_threshold = max(0.005, 1.63 / math.sqrt(samples))
    y = np.sort(sample_laplace(b, rng, size=samples) + sample_laplace(b, rng, size=samples))
    span = 40.0 * b
    grid = np.linspace(-span, span, 400_001)
    pdf = laplace_sum_pdf(grid, b)
    step = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * step)])
    cdf /= cdf[-1]
    ref = np.interp(y, grid, cdf)
    i = np.arange(1, samples + 1)
    ks = max(float(np.max(i / samples - ref)), float(np.max(ref - (i - 1) / samples)))
    return CheckReport(f"laplace_sum_pdf(b={b:g})", ks, ks_threshold, ks < ks_threshold, samples)


def one_shot_expected_draws(b, samples, rng) -> CheckReport:
    y = sample_laplace(b, rng, size=samples) + sample_laplace(b, rng, size=samples)
    counts = rng.generator.geometric(accept_probability(y, 2.0 * b)).astype(np.float64)
    stat = float(counts.mean())
    threshold = 4.0 + 3.0 * float(counts.std(ddof=1)) / math.sqrt(samples)
    return CheckReport(f"expected_draws(b={b:g})", stat, threshold, stat <= threshold, samples)


def one_shot_planar_laplace_mean(dim, eps, samples, rng) -> CheckReport:
    mean = float(np.linalg.norm(sample_planar_laplace(dim, eps, rng, size=samples), axis=1).mean())
    stat = abs(mean * eps / dim - 1.0)
    tol = 4.0 / math.sqrt(dim * samples)
    return CheckReport(f"planar_laplace_mean(d={dim},eps={eps:g})", stat, tol, stat < tol, samples)
