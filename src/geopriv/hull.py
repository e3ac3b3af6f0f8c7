"""Exact 2-D convex-polygon geometry: hull construction and intersection
areas (the Jaccard similarity of two hulls)."""

from __future__ import annotations

import math

import numpy as np

from .geometry import bounds

# orientation tolerance, relative to the bounding-box scale of the input
ORIENT_EPS = 1e-9


class ConvexPolygon:
    """Convex polygon as a counter-clockwise vertex list.

    Inputs with fewer than 3 non-collinear points produce a degenerate
    polygon (a point or a segment) flagged via ``degenerate``.
    """

    __slots__ = ("vertices", "degenerate", "_area")

    def __init__(self, vertices, degenerate: bool = False):
        arr = np.array(vertices, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"vertices must be an (m, 2) array, got shape {arr.shape}")
        arr.setflags(write=False)
        self.vertices = arr
        self.degenerate = bool(degenerate)
        self._area = 0.0 if self.degenerate else shoelace_area(arr)

    @property
    def area(self) -> float:
        return self._area

    def __len__(self) -> int:
        return self.vertices.shape[0]


def shoelace_area(vertices: np.ndarray) -> float:
    """Unsigned polygon area by the shoelace formula.

    The vertices are translated by their minimum first: at Mercator offsets
    (~1e7 m) the raw coordinate products round at about 0.016 m^2, more
    than the whole area of a 10 cm hull.
    """
    v = np.asarray(vertices, dtype=np.float64)
    if len(v) < 3:
        return 0.0
    v = v - bounds(v)[0]
    # strided views: np.dot sums a contiguous copy in another order
    x, y = v[:, 0], v[:, 1]
    s = np.dot(x, _roll(y, -1)) - np.dot(_roll(x, -1), y)
    return abs(s) / 2.0


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    """``np.roll(a, shift, axis=0)`` for ``|shift| < len(a)``, without
    np.roll's general-case overhead; like it, a new contiguous array."""
    return np.concatenate((a[-shift:], a[:-shift]))


def _bbox_scale(pts: np.ndarray) -> float:
    lo, hi = bounds(pts)
    return float((hi - lo).max())


def _orient_tol(span: float) -> float:
    """``ORIENT_EPS * span**2``, refused once the square overflows (from a
    span of about 1.34e154; an infinite span squares to inf unraised)."""
    try:
        if (square := span**2) < math.inf:
            return ORIENT_EPS * square
    except OverflowError:
        pass
    raise ValueError(f"the points span {span:g}, whose square overflows")


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# The prefilter runs from this many points on; below it the chain is cheap.
_FILTER_MIN_N = 32
# Dropped points lie inside the extreme polygon by more than this many
# orientation tolerances (as a cross product) against every edge.
_FILTER_MARGIN = 4.0
_FILTER_ANGLES = 2.0 * np.pi * np.arange(16) / 16
_FILTER_DIRS = np.column_stack([np.cos(_FILTER_ANGLES), np.sin(_FILTER_ANGLES)])


def _drop_interior(pts: np.ndarray, margin: float) -> np.ndarray:
    """Akl-Toussaint filter: ``pts`` without those strictly inside the
    polygon of extreme points by more than ``margin`` against every edge."""
    ext = pts[np.argmax(_FILTER_DIRS @ pts.T, axis=1)]  # counter-clockwise
    ext = ext[np.any(ext != _roll(ext, 1), axis=1)]
    if len(ext) < 3:
        return pts
    # per edge: ex * (y - oy) - ey * (x - ox) > margin, on contiguous columns
    x, y = pts.T.copy()
    t, u = np.empty_like(x), np.empty_like(x)
    inside = np.ones(len(pts), dtype=bool)
    for (ox, oy), (ex, ey) in zip(ext.tolist(), (_roll(ext, -1) - ext).tolist()):
        np.subtract(y, oy, out=t)
        t *= ex
        np.subtract(x, ox, out=u)
        u *= ey
        t -= u
        inside &= t > margin
    return pts[~inside]


def _unique_rows(pts: np.ndarray) -> np.ndarray:
    """``np.unique(pts, axis=0)`` for an (n, 2) array: the distinct rows,
    sorted by x, then y, by a lexsort and a row diff done per column.  Of
    rows equal but for a zero's sign it keeps the first; np.unique's
    unstable sort keeps either."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x, y = pts[order, 0], pts[order, 1]
    keep = np.empty(len(order), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    keep[1:] |= y[1:] != y[:-1]
    return pts[order[keep]]


def convex_hull(points) -> ConvexPolygon:
    """Convex hull by Andrew's monotone chain behind an Akl-Toussaint filter.

    Collinear points are dropped (orientation tolerance ORIENT_EPS relative
    to the bounding-box scale); inputs whose hull has fewer than 3 vertices
    come back flagged degenerate.  Points whose bounding box spans about
    1.34e154 or more are refused: the tolerance's square would overflow.
    The chain emits the vertices counter-clockwise by construction; the
    shoelace sum of the raw coordinates is no check of that, because at
    Mercator offsets (~1e7 m) rounding can flip its sign for small hulls.

    From ``_FILTER_MIN_N`` points on, an Akl-Toussaint filter runs first.
    The extreme points in 16 evenly spaced directions span a convex polygon
    inside the hull, and every point inside it by more than
    ``_FILTER_MARGIN`` tolerances (as a cross product) against each of its
    edges is dropped.  A dropped point is strictly inside the hull, while
    every point on or within a few tolerances of a hull edge survives, so
    the chain still sees every tolerance-collinear point it drops, and the
    tolerance itself comes from the full input.  On noisy data one point is
    often the extreme in several adjacent directions: the repeats are
    collapsed first, because a zero-length edge gives every point a cross
    product of 0 and nothing would be dropped.  With fewer than 3 distinct
    extremes the filter is skipped.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("cannot build a hull from an empty point set")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")

    tol = _orient_tol(_bbox_scale(pts))
    if len(pts) >= _FILTER_MIN_N:
        pts = _drop_interior(pts, _FILTER_MARGIN * tol)
    pts = _unique_rows(pts)  # also sorts lexicographically
    if len(pts) == 1:
        return ConvexPolygon(pts, degenerate=True)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= tol:
                out.pop()
            out.append(p)
        return out

    rows = pts.tolist()  # Python floats: the same arithmetic, cheaper per step
    lower = chain(rows)
    upper = chain(rows[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return ConvexPolygon(np.array([pts[0], pts[-1]]), degenerate=True)
    return ConvexPolygon(hull)


def _clip_convex(subject: np.ndarray, clip: np.ndarray, tol: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a CCW convex clip polygon."""
    out, clip = subject.tolist(), clip.tolist()  # Python floats, as in convex_hull
    m = len(clip)
    for i in range(m):
        if not out:
            break
        a = clip[i]
        b = clip[(i + 1) % m]
        ex, ey = b[0] - a[0], b[1] - a[1]
        inp = out
        out = []
        prev = inp[-1]
        prev_side = ex * (prev[1] - a[1]) - ey * (prev[0] - a[0])
        for cur in inp:
            cur_side = ex * (cur[1] - a[1]) - ey * (cur[0] - a[0])
            if cur_side >= -tol:
                if prev_side < -tol:
                    t = prev_side / (prev_side - cur_side)
                    out.append(
                        (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                    )
                out.append(cur)
            elif prev_side >= -tol:
                t = prev_side / (prev_side - cur_side)
                out.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            prev, prev_side = cur, cur_side
    return np.asarray(out, dtype=np.float64).reshape(-1, 2)


def _degenerate_equal(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    va = _unique_rows(a.vertices)
    vb = _unique_rows(b.vertices)
    return va.shape == vb.shape and np.array_equal(va, vb)


def jaccard(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Area of intersection over area of union for two convex polygons.

    Degenerate polygons score 0 against anything except an identical
    degenerate polygon, which scores 1.  The clip runs on both polygons
    translated by their common bounding-box minimum, so its edge tests keep
    their precision at Mercator offsets.  Polygons spanning about 1.34e154
    or more are refused, as in :func:`convex_hull`.
    """
    if a.degenerate or b.degenerate:
        return 1.0 if (a.degenerate and b.degenerate and _degenerate_equal(a, b)) else 0.0
    lo, hi = bounds(np.vstack([a.vertices, b.vertices]))
    tol = _orient_tol(float((hi - lo).max()))
    inter = _clip_convex(a.vertices - lo, b.vertices - lo, tol)
    inter_area = shoelace_area(inter) if len(inter) >= 3 else 0.0
    union = a.area + b.area - inter_area
    if union <= 0:
        return 0.0
    return min(inter_area / union, 1.0)
