"""Metrics over point tuples and the Lipschitz functionals the mechanisms query.

Index values crossing this API (arguments and return values) are 1-based, so
they line up with the usual mathematical convention for tuples indexed by
[n]; storage is plain 0-based numpy underneath.

Reductions and broadcasts over an (n, d) point array run per column
(``bounds``, ``query_dists``, ``dist_inf``, ``dist_2``).  numpy runs
``points.min(axis=0)`` or ``points - q`` with an inner loop of length d,
which at d = 2 makes them about ten times slower on a few thousand points
than the same work done on each column in turn.  Each element's arithmetic
is unchanged, so the results are the same bytes.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

# The largest coordinate span the hull pipeline takes: the orientation
# tolerance squares a span, and the shoelace area sums products of two
# spans, which overflow before the square does (from about 1e154 on).  At
# 1e150 a product is at most 1e300, so a sum of up to ~1e8 stays finite.
MAX_SPAN = 1e150


class PointTuple:
    """Ordered tuple of n points in d-dimensional Euclidean space."""

    __slots__ = ("points",)

    def __init__(self, points):
        self._adopt(np.array(points, dtype=np.float64))

    @classmethod
    def _own(cls, arr: np.ndarray) -> PointTuple:
        """A tuple over ``arr`` itself, without ``__init__``'s copy.

        For a fresh float64 buffer that its maker hands over and no longer
        writes, such as a release's noise plus the true points.  The checks
        and the read-only flag are ``__init__``'s.
        """
        if arr.dtype != np.float64:
            raise TypeError(f"a handed-over buffer must be float64, got {arr.dtype}")
        self = cls.__new__(cls)
        self._adopt(arr)
        return self

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError(f"points must be an (n, d) array, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one point of dimension >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        self.points = arr

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointTuple(n={self.n}, dim={self.dim})"


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a float (n, d) array, the same bytes as
    numpy's ``norm(v, axis=1)``.

    numpy's ``norm`` is ``sqrt(add.reduce(v * v, axis=1))``, and ``add.reduce``
    sums rows shorter than 8 in column order, so summing the squares column
    by column into one buffer gives the same sums without the (n, d)
    temporary.  Rows of 8 or more are summed pairwise, so those go to
    ``norm`` itself, which keeps its bytes for every width
    (``test_row_norms_are_numpy_norm_bytes``).
    """
    d = v.shape[1]
    if d >= 8:
        return np.linalg.norm(v, axis=1)
    s = v[:, 0] * v[:, 0]
    for j in range(1, d):
        s += v[:, j] * v[:, j]
    return np.sqrt(s, out=s)


def _squared_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of an (n, d) array ``a``
    and those of an (n, d) ``b``, or one point ``b`` of shape (d,), in a
    fresh buffer: the sums that ``row_norms(a - b)`` takes the root of.

    Below 8 columns ``norm`` sums them in column order, so subtracting,
    squaring and summing one column at a time gives them without the (n, d)
    difference.  It sums rows of 8 or more pairwise, so those go to its
    ``add.reduce``.
    """
    d = a.shape[1]
    if d >= 8:
        v = a - b
        v *= v
        return np.add.reduce(v, axis=1)
    s = a[:, 0] - b[..., 0]
    s *= s
    for j in range(1, d):
        t = a[:, j] - b[..., j]
        t *= t
        s += t
    return s


def _per_point_dists(x: PointTuple, y: PointTuple) -> np.ndarray:
    """Squared distance between the i-th points of x and y (``_squared_dists``)."""
    if x.points.shape != y.points.shape:
        raise ValueError(
            f"point tuples must share shape, got {x.points.shape} and {y.points.shape}"
        )
    return _squared_dists(x.points, y.points)


def dist_inf(x: PointTuple, y: PointTuple) -> float:
    """Max over i of the Euclidean distance between the i-th points.

    IEEE sqrt is correctly rounded and monotone, so the root of the largest
    square is the largest root, bit for bit."""
    return math.sqrt(_per_point_dists(x, y).max())


def dist_2(x: PointTuple, y: PointTuple) -> float:
    """Root-sum-of-squares of per-point Euclidean distances.

    The per-point distances are rounded before they are squared again, as
    ``sqrt(sum(row_norms(x - y) ** 2))`` rounds them."""
    r = _per_point_dists(x, y)
    np.sqrt(r, out=r)
    r *= r
    return math.sqrt(r.sum())


def bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's min and max of an (n, d) array: the values of
    ``points.min(axis=0)`` and ``points.max(axis=0)``.  Of 0.0 and -0.0,
    either may come back, as from numpy's own reductions."""
    cols = [points[:, j] for j in range(points.shape[1])]
    # the ufunc reductions skip ndarray.min's Python wrapper
    lo = np.array([np.minimum.reduce(c) for c in cols])
    hi = np.array([np.maximum.reduce(c) for c in cols])
    return lo, hi


def center(x: PointTuple) -> np.ndarray:
    """Per-coordinate midpoint between min and max coordinate (2-D only).

    This bounding-box centre is sqrt(2)-Lipschitz in the tuple under the max
    per-point metric.
    """
    if x.dim != 2:
        raise ValueError(f"center is defined for 2-D tuples, got dim {x.dim}")
    lo, hi = bounds(x.points)
    return 0.5 * (lo + hi)


def query_dists(points: np.ndarray, q) -> np.ndarray:
    """Distances ||p_i - q|| from each row of an (n, d) array to the query
    point q, which must have shape (d,).

    The bytes of ``row_norms(points - q)``, from ``_squared_dists``.
    """
    q = np.asarray(q, dtype=np.float64)
    d = points.shape[1]
    if q.shape != (d,):
        raise ValueError(f"query point must have shape ({d},), got {q.shape}")
    s = _squared_dists(points, q)
    return np.sqrt(s, out=s)


def max_radius(x: PointTuple, q) -> float:
    """Max over i of ||x_i - q||; 1-Lipschitz in x under the max per-point metric."""
    return float(query_dists(x.points, q).max())


def _as_index(i, name: str = "index") -> int:
    """``operator.index(i)``: a float such as 2.0, or a string, raises
    ValueError rather than being truncated or parsed."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{name} {i!r} is not an integer") from None


# The input domain (README, "Input domain"): a rate, scale or budget is
# positive and finite (NaN fails both comparisons), a probability is in
# (0, 1), a count an integer of at least its floor; else ValueError.


def _positive(name: str, v) -> None:
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v}")


def _probability(name: str, v) -> None:
    if not 0 < v < 1:
        raise ValueError(f"{name} must be in (0, 1), got {v}")


def _count(name: str, v, least: int = 1) -> int:
    """``v`` as an int (see ``_as_index``), refused below ``least``."""
    v = _as_index(v, name)
    if v < least:
        raise ValueError(f"{name} must be at least {least}, got {v}")
    return v


def _validate_indices(indices: Iterable[int] | None, n: int) -> np.ndarray:
    """The 1-based index subset as an ``intp`` array, range-checked at once.

    Accepts any iterable of integers: lists, ``range``, numpy integer
    scalars, 1-D integer ndarrays.  None means every index ``1..n``.  A
    non-integer index, such as 1.5 or 2.0, raises ValueError rather than
    being truncated to another subset.
    """
    if indices is None:
        return np.arange(1, n + 1)
    if isinstance(indices, np.ndarray):
        if indices.dtype.kind not in "iu":
            raise ValueError(f"index subset must hold integers, got dtype {indices.dtype}")
    elif not isinstance(indices, range):
        indices = map(_as_index, indices)
    try:
        idx = np.fromiter(indices, dtype=np.intp)
    except OverflowError:
        # Only a value past the intp range overflows; it is past n too.
        raise ValueError(f"an index overflows intp, outside the valid range 1..{n}") from None
    if idx.size == 0:
        raise ValueError("index subset must be nonempty")
    bad = (idx < 1) | (idx > n)
    if bad.any():
        raise ValueError(f"index {idx[bad.argmax()]} outside the valid range 1..{n}")
    return idx
