import math
import warnings

import numpy as np
import pytest

from geopriv.dataset import (
    EARTH_RADIUS_M,
    load_traces,
    mercator,
    query_point_pool,
    sample_points,
)
from geopriv.geometry import PointTuple
from geopriv.noise import RandomStream


class TestMercator:
    def test_origin(self):
        assert mercator(0.0, 0.0) == (0.0, 0.0)

    def test_antimeridian(self):
        x, y = mercator(0.0, 180.0)
        assert x == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)
        assert x == pytest.approx(20037508.34, abs=0.01)
        assert y == 0.0

    def test_north_south_symmetry(self):
        for lat in (10.0, 37.75, 80.0):
            _, y1 = mercator(lat, 0.0)
            _, y2 = mercator(-lat, 0.0)
            assert y1 == pytest.approx(-y2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mercator(85.06, 0.0)
        with pytest.raises(ValueError):
            mercator(-85.06, 0.0)
        with pytest.raises(ValueError):
            mercator(0.0, 180.5)

    def test_y_is_the_textbook_formula(self):
        # computed as R * asinh(tan(lat)); the textbook form agrees within 3e-8 m
        lat = np.random.default_rng(0).uniform(-85.0, 85.0, 1000)
        _, y = mercator(lat, np.zeros_like(lat))
        textbook = EARTH_RADIUS_M * np.log(np.tan(np.pi / 4 + np.radians(lat) / 2))
        assert np.max(np.abs(y - textbook)) < 1e-6


class TestLoader:
    def test_origin_line(self, tmp_path):
        f = tmp_path / "new_cab.txt"
        f.write_text("0.0 0.0 0 0\n")
        traces = load_traces(f)
        assert len(traces) == 1
        assert np.array_equal(traces[0].points, [[0.0, 0.0]])

    def test_chronological_order(self, tmp_path):
        f = tmp_path / "new_cab.txt"
        f.write_text(
            "37.75 -122.39 0 300\n"
            "37.76 -122.40 1 100\n"
            "37.74 -122.38 0 200\n"
            "37.73 -122.37 0 100\n"
        )
        (pts,) = load_traces(f)
        assert not pts.points.flags.writeable
        # by time, and a tie in file order
        fixes = [(37.76, -122.40), (37.73, -122.37), (37.74, -122.38), (37.75, -122.39)]
        expect = [mercator(lat, lon) for lat, lon in fixes]
        assert np.array_equal(pts.points, expect)

    def test_malformed_lines_skipped(self, tmp_path):
        f = tmp_path / "new_cab.txt"
        f.write_text(
            "37.75 -122.39 0 300\n"
            "garbage line here\n"
            "85.06 0.0 0 100\n"
            "37.75 -122.39 0\n"
            "37.74 -122.38 yes 350\n"
            "37.73 -122.37 0.5 360\n"
            "37.76 -122.40 1 400\n"
        )
        traces = load_traces(f)
        assert len(traces) == 1
        assert len(traces[0]) == 2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "new_cab.txt"
        f.write_text("")
        assert load_traces(f) == []

    def test_directory_of_cabs(self, tmp_path, caplog):
        # read in name order; a cab with no valid line is dropped
        (tmp_path / "new_b.txt").write_text("3.0 3.0 1 1\n")
        (tmp_path / "new_a.txt").write_text("1.0 1.0 0 1\n2.0 2.0 0 2\n")
        (tmp_path / "new_c.txt").write_text("garbage\n")
        (tmp_path / "notes.csv").write_text("4.0 4.0 0 1\n")
        traces = load_traces(tmp_path)
        assert [len(t) for t in traces] == [2, 1]
        assert np.array_equal(traces[1].points, [mercator(3.0, 3.0)])
        assert "skipped 1 malformed or out-of-domain lines" in caplog.text

    def test_missing_path(self):
        with pytest.raises(ValueError):
            load_traces("/nonexistent/path/xyz")

    def test_finite_coordinates(self, tmp_path):
        f = tmp_path / "new_cab.txt"
        f.write_text("nan 0.0 0 1\n1.0 1.0 0 2\n")
        traces = load_traces(f)
        assert all(np.all(np.isfinite(t.points)) for t in traces)


class TestSamplePoints:
    def test_n_at_least_length_returns_whole_trace(self):
        x = PointTuple(np.arange(10.0).reshape(5, 2))
        assert sample_points(x, 5, RandomStream(0)) is x
        assert sample_points(x, 9, RandomStream(0)) is x

    def test_single_point(self):
        x = PointTuple(np.arange(10.0).reshape(5, 2))
        out = sample_points(x, 1, RandomStream(1))
        assert len(out) == 1
        assert any(np.array_equal(out.points[0], row) for row in x.points)

    def test_deterministic_and_order_preserving(self):
        x = PointTuple(np.arange(40.0).reshape(20, 2))
        a = sample_points(x, 7, RandomStream(2, 3))
        b = sample_points(x, 7, RandomStream(2, 3))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.points[:, 0], np.sort(a.points[:, 0]))

    def test_a_sample_is_read_only_and_not_a_view_of_the_trace(self):
        x = PointTuple(np.arange(40.0).reshape(20, 2))
        out = sample_points(x, 7, RandomStream(2, 3))
        assert not out.points.flags.writeable
        assert not np.shares_memory(out.points, x.points)

    def test_invalid_n(self):
        x = PointTuple([[0.0, 0.0]])
        with pytest.raises(ValueError):
            sample_points(x, 0, RandomStream(0))


class TestQueryPointPool:
    def test_single_point(self):
        pool = query_point_pool([PointTuple([[0.3, 0.7]])])
        assert np.array_equal(pool, [[0.5, 0.5]])

    def test_two_points_one_cell(self):
        pool = query_point_pool([PointTuple([[0.3, 0.7], [0.9, 0.1]])])
        assert np.array_equal(pool, [[0.5, 0.5]])

    def test_matches_hash_grid_oracle(self):
        gen = np.random.default_rng(3)
        pts = gen.random((500, 2)) * 50
        pool = query_point_pool([PointTuple(pts)])
        oracle = {(math.floor(x), math.floor(y)) for x, y in pts}
        assert len(pool) == len(oracle)
        assert {(x - 0.5, y - 0.5) for x, y in pool} == {(float(a), float(b)) for a, b in oracle}

    def test_half_integer_grid(self):
        gen = np.random.default_rng(4)
        pool = query_point_pool([PointTuple(gen.random((100, 2)) * 9)])
        assert np.all(pool - np.floor(pool) == 0.5)

    def test_large_coordinates_stay_in_the_data_cells(self):
        # from about 9.2e18 on an int64 cell index is an invalid cast
        pts = 1e20 + np.random.default_rng(5).random((50, 2)) * 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool = query_point_pool([PointTuple(pts)], cell=1000.0)
        assert len(pool) == len(np.unique(np.floor(pts / 1000.0), axis=0))
        assert np.all(pool >= pts.min(axis=0) - 1000.0) and np.all(pool <= pts.max(axis=0) + 1000.0)

    def test_cell_size(self):
        pool = query_point_pool([PointTuple([[3.0, 7.0]])], cell=2.0)
        assert np.array_equal(pool, [[3.0, 7.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            query_point_pool([])
