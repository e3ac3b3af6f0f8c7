import math

import numpy as np
import pytest

from geopriv.geometry import (
    PointTuple,
    _validate_indices,
    center,
    dist_2,
    dist_inf,
    max_radius,
)
from helpers import min_dist


def rand_pair(gen, n=None, dim=2, scale=1.0):
    n = n or int(gen.integers(1, 20))
    return (
        PointTuple(gen.random((n, dim)) * scale),
        PointTuple(gen.random((n, dim)) * scale),
    )


class TestPointTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointTuple(np.empty((0, 2)))
        with pytest.raises(ValueError):
            PointTuple([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            PointTuple([1.0, 2.0])

    def test_immutable(self):
        x = PointTuple([[0.0, 0.0]])
        with pytest.raises(ValueError):
            x.points[0, 0] = 1.0

    def test_a_caller_array_is_copied(self):
        arr = np.arange(6.0).reshape(3, 2)
        x = PointTuple(arr)
        arr[0, 0] = 99.0
        assert x.points[0, 0] == 0.0
        assert not np.shares_memory(x.points, arr)
        assert arr.flags.writeable

    def test_a_handed_over_buffer_is_kept_and_checked(self):
        arr = np.arange(6.0).reshape(3, 2)
        x = PointTuple._own(arr)
        assert x.points is arr and not arr.flags.writeable
        with pytest.raises(ValueError, match="coordinates must be finite"):
            PointTuple._own(np.array([[0.0, np.inf]]))
        with pytest.raises(ValueError, match="must be an"):
            PointTuple._own(np.zeros(2))
        with pytest.raises(ValueError, match="at least one point"):
            PointTuple._own(np.empty((0, 2)))
        with pytest.raises(TypeError, match="float64"):
            PointTuple._own(np.zeros((1, 2), dtype=np.float32))


class TestTupleMetrics:
    def test_worked_examples(self):
        x = PointTuple([[0, 0], [0, 0]])
        y = PointTuple([[3, 4], [0, 0]])
        assert dist_inf(x, y) == 5.0
        assert dist_2(x, y) == 5.0

    def test_two_differing_points(self):
        x = PointTuple([[0, 0], [10, 10]])
        y = PointTuple([[3, 4], [13, 14]])
        assert dist_2(x, y) == pytest.approx(math.sqrt(50.0), rel=1e-12)
        assert dist_inf(x, y) == pytest.approx(5.0, rel=1e-12)

    def test_identity_and_symmetry(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            x, y = rand_pair(gen)
            for d in (dist_inf, dist_2):
                assert d(x, x) == 0.0
                assert d(x, y) == pytest.approx(d(y, x), rel=1e-12)

    def test_triangle_inequality(self):
        gen = np.random.default_rng(1)
        for _ in range(1000):
            n = int(gen.integers(1, 10))
            x, y = rand_pair(gen, n)
            z = PointTuple(gen.random((n, 2)))
            for d in (dist_inf, dist_2):
                assert d(x, z) <= d(x, y) + d(y, z) + 1e-12

    def test_norm_ordering(self):
        gen = np.random.default_rng(2)
        for _ in range(1000):
            x, y = rand_pair(gen)
            assert dist_inf(x, y) <= dist_2(x, y) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dist_inf(PointTuple([[0, 0]]), PointTuple([[0, 0], [1, 1]]))


class TestCenter:
    def test_examples(self):
        assert np.allclose(center(PointTuple([[0, 0], [2, 4]])), [1, 2])
        assert np.allclose(center(PointTuple([[3.5, -1.0]])), [3.5, -1.0])

    def test_sqrt2_lipschitz(self):
        gen = np.random.default_rng(3)
        for _ in range(1000):
            x, y = rand_pair(gen)
            lhs = float(np.linalg.norm(center(x) - center(y)))
            assert lhs <= math.sqrt(2) * dist_inf(x, y) + 1e-9

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            center(PointTuple([[1.0, 2.0, 3.0]]))


class TestMaxRadius:
    def test_examples(self):
        square = PointTuple([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert max_radius(square, [0.5, 0.5]) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        assert max_radius(square, [1.0, 1.0]) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_one_lipschitz(self):
        gen = np.random.default_rng(4)
        for _ in range(1000):
            x, y = rand_pair(gen)
            q = gen.random(2)
            assert abs(max_radius(x, q) - max_radius(y, q)) <= dist_inf(x, y) + 1e-9


class TestMinDist:
    def test_one_based_example(self):
        x = PointTuple([[4.0], [1.0], [7.0]])
        idx, d = min_dist(x, [0.0])
        assert (idx, d) == (2, 1.0)

    def test_singleton_subset(self):
        x = PointTuple([[4.0], [1.0], [7.0]])
        assert min_dist(x, [0.0], [3])[0] == 3

    def test_tie_breaks_to_lowest_index(self):
        x = PointTuple([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        assert min_dist(x, [0.0, 0.0])[0] == 1

    def test_distance_one_lipschitz(self):
        gen = np.random.default_rng(5)
        for _ in range(1000):
            x, y = rand_pair(gen)
            q = gen.random(2)
            assert abs(min_dist(x, q)[1] - min_dist(y, q)[1]) <= dist_inf(x, y) + 1e-9

    def test_index_validation(self):
        x = PointTuple([[0.0, 0.0]])
        with pytest.raises(ValueError):
            min_dist(x, [0.0, 0.0], [])
        with pytest.raises(ValueError):
            min_dist(x, [0.0, 0.0], [0])
        with pytest.raises(ValueError):
            min_dist(x, [0.0, 0.0], [2])

    def test_index_subset_kinds(self):
        x = PointTuple([[4.0], [1.0], [7.0], [1.0]])
        kinds = [
            [2, 3, 4],
            range(2, 5),
            np.array([2, 3, 4]),
            np.array([2, 3, 4], dtype=np.int32),
            [np.int64(2), np.int64(3), np.int64(4)],
        ]
        for kind in kinds:
            idx = _validate_indices(kind, 4)
            assert idx.dtype == np.intp and idx.tolist() == [2, 3, 4]
            got = min_dist(x, [0.0], kind)
            assert got == (2, 1.0) and type(got[0]) is int
        assert _validate_indices(None, 3).tolist() == [1, 2, 3]

    def test_index_messages(self):
        with pytest.raises(ValueError, match="must be nonempty"):
            _validate_indices(np.array([], dtype=np.int64), 3)
        with pytest.raises(ValueError, match="must be nonempty"):
            _validate_indices(range(1, 1), 3)
        with pytest.raises(ValueError, match=r"^index 0 outside the valid range 1\.\.3$"):
            _validate_indices([1, 0, 5], 3)
        with pytest.raises(ValueError, match=r"^index 5 outside the valid range 1\.\.3$"):
            _validate_indices(np.array([2, 5, 0]), 3)
        for huge in ([1, 2**70], [1, -(2**70)], np.array([1, 2**63 + 5], dtype=np.uint64)):
            with pytest.raises(ValueError, match=r"outside the valid range 1\.\.3$"):
                _validate_indices(huge, 3)
        with pytest.raises(ValueError):
            _validate_indices(np.array([[1, 2], [2, 3]]), 3)
        for floats in ([1.5, 2.0], [1, 2.0], [np.float64(2.0)]):
            with pytest.raises(ValueError, match=r"^index .* is not an integer$"):
                _validate_indices(floats, 3)
            with pytest.raises(ValueError, match="is not an integer"):
                min_dist(PointTuple([[0.0], [1.0], [2.0]]), [0.0], floats)
        for array in (np.array([1.5, 2.0]), np.array([1.0, 2.0]), np.array([True, False])):
            with pytest.raises(ValueError, match=r"^index subset must hold integers, got dtype"):
                _validate_indices(array, 3)
