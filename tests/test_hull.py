import numpy as np
import pytest

from geopriv import hull
from geopriv.hull import ConvexPolygon, convex_hull, jaccard, shoelace_area
from helpers import brute_hull_vertices, directed_excess, point_polygon_distance

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestConvexHull:
    def test_square_with_interior_point(self):
        h = convex_hull(np.vstack([SQUARE, [[0.5, 0.5]]]))
        assert not h.degenerate
        assert sorted(map(tuple, h.vertices)) == sorted(map(tuple, SQUARE))

    def test_ccw_orientation(self):
        h = convex_hull(SQUARE)
        v = h.vertices
        signed = np.dot(v[:, 0], np.roll(v[:, 1], -1)) - np.dot(np.roll(v[:, 0], -1), v[:, 1])
        assert signed > 0

    def test_collinear_is_degenerate(self):
        h = convex_hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert h.degenerate
        assert sorted(map(tuple, h.vertices)) == [(0.0, 0.0), (2.0, 2.0)]

    def test_single_and_duplicate_points(self):
        assert convex_hull([[1.0, 2.0]]).degenerate
        assert convex_hull([[1.0, 2.0], [1.0, 2.0]]).degenerate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.empty((0, 2)))

    @pytest.mark.parametrize("span", [1.35e154, 1e155, 1e300])
    def test_a_span_whose_square_overflows_is_refused_before_the_chain(self, span, monkeypatch):
        # refused with the tolerance, before the prefilter or the chain reads a point
        monkeypatch.setattr(hull, "_unique_rows", None)
        with pytest.raises(ValueError, match="whose square overflows"):
            convex_hull(SQUARE * span)
        with pytest.raises(ValueError, match="whose square overflows"):
            convex_hull(np.vstack([SQUARE] * 10) * span)  # through the prefilter's path

    def test_a_span_whose_square_is_finite_is_kept(self):
        assert convex_hull(SQUARE * 1e150).area == pytest.approx(1e300, rel=1e-12)

    def test_matches_brute_force_elimination(self):
        gen = np.random.default_rng(0)
        for _ in range(500):
            pts = gen.random((int(gen.integers(3, 21)), 2))
            h = convex_hull(pts)
            expect = brute_hull_vertices(pts)
            got = np.unique(h.vertices, axis=0)
            assert np.array_equal(got, expect)

    def test_idempotent(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            pts = gen.random((12, 2))
            h = convex_hull(pts)
            again = convex_hull(h.vertices)
            assert np.array_equal(np.unique(h.vertices, axis=0), np.unique(again.vertices, axis=0))

    def test_area(self):
        assert convex_hull(SQUARE).area == pytest.approx(1.0, rel=1e-12)
        assert shoelace_area(np.array([[0, 0], [2, 0], [0, 2]])) == pytest.approx(2.0)

    def test_area_at_mercator_offset(self):
        # a 10 cm set at 1e7 m: the raw coordinate products round at 0.016 m^2
        pts = np.random.default_rng(0).random((40, 2)) * 0.1 + 1e7
        area = convex_hull(pts).area
        assert area == pytest.approx(convex_hull(pts - 1e7).area, rel=1e-9)  # exact shift
        assert area == pytest.approx(0.00846, abs=1e-5)


class TestJaccard:
    def test_identical(self):
        h = convex_hull(SQUARE)
        assert jaccard(h, h) == 1.0

    def test_disjoint(self):
        a = convex_hull(SQUARE)
        b = convex_hull(SQUARE + 10.0)
        assert jaccard(a, b) == 0.0

    def test_half_overlap_squares(self):
        a = convex_hull(SQUARE)
        b = convex_hull(SQUARE + np.array([0.5, 0.0]))
        assert jaccard(a, b) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_symmetry(self):
        gen = np.random.default_rng(2)
        for _ in range(100):
            a = convex_hull(gen.random((8, 2)))
            b = convex_hull(gen.random((8, 2)) + 0.2)
            assert jaccard(a, b) == pytest.approx(jaccard(b, a), abs=1e-12)

    def test_monotone_on_nested_squares(self):
        outer = convex_hull(SQUARE)
        vals = [jaccard(convex_hull(SQUARE * s), outer) for s in (0.2, 0.5, 0.8, 1.0)]
        assert vals == sorted(vals)
        assert vals[-1] == 1.0

    def test_mercator_offset(self):
        gen = np.random.default_rng(3)
        a, b = gen.random((40, 2)) * 0.1 + 1e7, gen.random((40, 2)) * 0.1 + (1e7 + 0.03)
        at_origin = jaccard(convex_hull(a - 1e7), convex_hull(b - 1e7))  # exact shift
        assert 0.2 < at_origin < 0.8
        assert jaccard(convex_hull(a), convex_hull(b)) == pytest.approx(at_origin, rel=1e-9)

    @pytest.mark.parametrize("offset", [1e155, 1e160])
    def test_a_span_whose_square_overflows_is_refused_before_the_clip(self, offset, monkeypatch):
        # each polygon is small; the two together span 2 * offset
        a = ConvexPolygon(SQUARE * (offset / 1e15) - offset)
        b = ConvexPolygon(SQUARE * (offset / 1e15) + offset)
        assert not (a.degenerate or b.degenerate) and a.area > 0
        monkeypatch.setattr(hull, "_clip_convex", None)
        with pytest.raises(ValueError, match="whose square overflows"):
            jaccard(a, b)

    def test_degenerate_rules(self):
        seg = convex_hull([[0.0, 0.0], [1.0, 1.0]])
        square = convex_hull(SQUARE)
        assert jaccard(seg, square) == 0.0
        assert jaccard(square, seg) == 0.0
        assert jaccard(seg, convex_hull([[0.0, 0.0], [1.0, 1.0]])) == 1.0
        assert jaccard(seg, convex_hull([[0.0, 0.0], [2.0, 2.0]])) == 0.0


class TestDirectedExcess:
    def test_contained_is_zero(self):
        outer = convex_hull(SQUARE * 3.0 - 1.0)
        inner = convex_hull(SQUARE)
        assert directed_excess(outer, inner) == 0.0

    def test_point_to_square_distance(self):
        square = convex_hull(SQUARE)
        assert point_polygon_distance([2.0, 0.5], square) == pytest.approx(1.0, rel=1e-12)
        assert point_polygon_distance([0.5, 0.5], square) == 0.0

    def test_translated_square_against_dense_sampling(self):
        outer = convex_hull(SQUARE)
        inner = convex_hull(SQUARE + np.array([3.0, 4.0]))
        got = directed_excess(outer, inner)
        # sample the inner boundary densely, take the max point-to-polygon distance
        samples = []
        verts = inner.vertices
        for i in range(len(verts)):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            ts = np.linspace(0.0, 1.0, 2500, endpoint=False)
            samples.extend(a + t * (b - a) for t in ts)
        oracle = max(point_polygon_distance(p, outer) for p in samples)
        assert got >= oracle - 1e-9
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_zero_iff_contained(self):
        gen = np.random.default_rng(3)
        outer = convex_hull(gen.random((20, 2)))
        for _ in range(100):
            inner = convex_hull(gen.random((6, 2)) * 0.8 + 0.4)
            excess = directed_excess(outer, inner)
            contained = all(point_polygon_distance(v, outer) == 0.0 for v in inner.vertices)
            assert (excess == 0.0) == contained

    def test_degenerate_rejected(self):
        seg = convex_hull([[0.0, 0.0], [1.0, 1.0]])
        square = convex_hull(SQUARE)
        with pytest.raises(ValueError):
            directed_excess(seg, square)
        with pytest.raises(ValueError):
            directed_excess(square, seg)
