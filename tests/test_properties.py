"""Property tests over random tuple sizes, neighbour counts, budgets and
failure probabilities, including n = 1, k = n, duplicate or collinear
points and Mercator-scale coordinates: for both the GP and the CGP
calibration, every composite mechanism's ledger closes (also when a
scan gives up), and under zero noise the k nearest neighbours and every
hull anchor are exactly the brute-force ones.  The sparse vector scan is checked against a brute-force
first-below search under zero noise, and against a query-by-query scan on
seeded streams: same outcome, same draws.  Its cycling blocks are checked
against the distances at their indices modulo m, however many cycles in,
with the seam copy's indices below m + 256, and seeded ``kpnn``/``kpnn_gp`` against rounds
over a mask of the points not yet chosen, each a query-by-query scan.  The prefiltered convex hull is
checked against point-in-triangle elimination and against a plain
monotone chain over every point, up to the hull sweep's n = 4096.  The
row-norm kernel is checked byte for byte against ``np.linalg.norm``, and
each column-wise kernel against the numpy expression it replaces: query
distances, bounds, the box centre and scale, the row dedup, the
prefilter's edge loop and the cached hull area.  The clip on Python floats
is checked against the same clip on numpy scalars, and the knn baseline's
partial selection against a stable argsort."""

import math
from itertools import cycle, islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geopriv import mechanisms
from geopriv.accounting import BudgetLedger, CgpBudget, GpBudget
from geopriv.bench import _k_smallest
from geopriv.geometry import PointTuple, bounds, center, query_dists, row_norms
from geopriv.hull import (
    _FILTER_DIRS,
    _FILTER_MARGIN,
    ORIENT_EPS,
    _bbox_scale,
    _clip_convex,
    _drop_interior,
    _unique_rows,
    convex_hull,
    shoelace_area,
)
from geopriv.mechanisms import (
    _CGP,
    _GP,
    NonHaltError,
    SvtOutcome,
    _cycle,
    _scan,
    kpnn,
    kpnn_gp,
    pch_anchors_detailed,
    pnn,
    private_convex_hull,
    private_convex_hull_gp,
    svt,
)
from geopriv.noise import RandomStream, sample_laplace
from helpers import (
    brute_first_below,
    brute_hull_vertices,
    brute_knn,
    mask_kpnn,
    monotone_chain,
    stepwise_scan,
)

Q = [500.0, 500.0]

# name -> (budget type, call(case, rng, ledger))
MECHANISMS = {
    "pnn": (GpBudget, lambda c, rng, led: pnn(c.x, Q, range(1, c.x.n + 1), c.budget, rng, ledger=led)),
    "kpnn": (CgpBudget, lambda c, rng, led: kpnn(c.x, Q, c.k, c.budget, rng, ledger=led)),
    "kpnn_gp": (GpBudget, lambda c, rng, led: kpnn_gp(c.x, Q, c.k, c.budget, rng, ledger=led)),
    "pch_anchors_detailed": (
        CgpBudget,
        lambda c, rng, led: pch_anchors_detailed(
            c.x, c.budget, c.beta, rng, k=c.hull_k, ledger=led
        ),
    ),
    "private_convex_hull": (
        CgpBudget,
        lambda c, rng, led: private_convex_hull(
            c.x, c.budget, c.beta, rng, k=c.hull_k, ledger=led
        ),
    ),
    "private_convex_hull_gp": (
        GpBudget,
        lambda c, rng, led: private_convex_hull_gp(
            c.x, c.budget, c.beta, rng, k=c.hull_k, ledger=led
        ),
    ),
}


def make_case(n, seed, collinear, duplicates, offset, k, budget, beta, hull_k):
    points = np.random.default_rng(seed).random((n, 2)) * 1000.0
    if collinear:
        points[:, 1] = 0.5 * points[:, 0]
    if duplicates:
        points[n // 2 :] = points[0]
    return SimpleNamespace(
        x=PointTuple(points + offset), k=k, budget=budget, beta=beta, hull_k=hull_k, seed=seed
    )


# Only the nearest point can pass the gate: the next is 67 m farther from Q,
# against noise of a few metres at budget 1.  On this stream pnn accepts it
# after 1155 steps, about 96 cycles over the 12 candidates.
LONG_SCAN_CASE = make_case(
    n=12, seed=758291, collinear=False, duplicates=False, offset=1e7,
    k=3, budget=1.0, beta=0.05, hull_k="auto",
)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    return make_case(
        n,
        seed=draw(st.integers(0, 2**32 - 1)),
        collinear=draw(st.booleans()),
        duplicates=draw(st.booleans()),
        offset=draw(st.sampled_from([0.0, 1e7])),  # Mercator-scale offset
        k=draw(st.integers(1, n)),
        budget=10.0 ** draw(st.floats(-3.0, 1.0)),
        beta=draw(st.floats(0.001, 0.5)),
        hull_k=draw(st.sampled_from(["auto", 3, 7])),
    )


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@settings(max_examples=25, deadline=None, database=None)
@given(case=cases())
# a scan longer than 64 cycles, which pnn's default cap must let finish
@example(case=LONG_SCAN_CASE)
def test_ledger_closes(name, case):
    budget_type, mech = MECHANISMS[name]
    ledger = BudgetLedger(budget_type(case.budget))
    try:
        mech(case, RandomStream(case.seed), ledger)
    except NonHaltError:
        # an aborted pnn scan has spent its whole budget, charged up front
        assert name == "pnn"
        assert [label for label, _ in ledger.entries] == [
            "pnn_threshold",
            "svt_threshold",
            "svt_queries",
        ]
    ledger.close()


def test_pnn_default_cap_outlasts_64_cycles(monkeypatch):
    c = LONG_SCAN_CASE
    every = range(1, c.x.n + 1)
    with monkeypatch.context() as patch:
        patch.setattr(mechanisms, "_MAX_CYCLES", 64)
        with pytest.raises(NonHaltError, match="within 64 cycles over 12 candidates"):
            pnn(c.x, Q, every, c.budget, RandomStream(c.seed))
    assert pnn(c.x, Q, every, c.budget, RandomStream(c.seed)) == 3


@pytest.mark.parametrize("select", [kpnn, kpnn_gp])
@settings(max_examples=50, deadline=None, database=None)
@given(case=cases())
def test_zero_noise_knn_is_brute_force(select, case):
    # ties, duplicates included, resolve to the lowest index
    got = select(case.x, Q, case.k, case.budget, RandomStream(case.seed, zero_noise=True))
    assert list(got) == brute_knn(case.x.points, Q, case.k)


@pytest.mark.parametrize("select, cal", [(kpnn, _CGP), (kpnn_gp, _GP)])
@settings(max_examples=50, deadline=None, database=None)
@given(case=cases())
@example(case=LONG_SCAN_CASE)
def test_seeded_knn_is_the_mask_rounds(select, cal, case):
    # the in-place shrink against rounds over np.flatnonzero(remaining), each a
    # query-by-query scan: same indices, same draws, and the tuple untouched
    before = case.x.points.copy()
    fast, ref = RandomStream(case.seed, 3), RandomStream(case.seed, 3)
    assert select(case.x, Q, case.k, case.budget, fast) == mask_kpnn(cal, case.x, Q, case.k, case.budget, ref)
    assert fast.generator.random() == ref.generator.random()
    assert case.x.points.tobytes() == before.tobytes()


def _hull_stage(release):
    def run(c, rng):
        out = release(c.x, c.budget, c.beta, rng, k=c.hull_k)
        # zero noise releases the anchors themselves
        assert np.array_equal(out.points, c.x.points[np.array(out.anchors) - 1])
        return out.anchors, out.info

    return run


ANCHOR_STAGES = {
    "pch_anchors_detailed": lambda c, rng: pch_anchors_detailed(
        c.x, c.budget, c.beta, rng, k=c.hull_k
    ),
    "private_convex_hull": _hull_stage(private_convex_hull),
    "private_convex_hull_gp": _hull_stage(private_convex_hull_gp),
}


@pytest.mark.parametrize("name", sorted(ANCHOR_STAGES))
@settings(max_examples=50, deadline=None, database=None)
@given(case=cases())
def test_zero_noise_anchors_are_per_probe_argmins(name, case):
    anchors, info = ANCHOR_STAGES[name](case, RandomStream(case.seed, zero_noise=True))
    assert len(anchors) == info.k
    for j, a in enumerate(anchors):
        theta = 2.0 * math.pi * j / info.k
        probe = info.center + info.radius * np.array([math.cos(theta), math.sin(theta)])
        assert [a] == brute_knn(case.x.points, probe, 1)


# max_steps around the 256-draw block edges as well as anywhere
STEP_CAPS = st.one_of(st.integers(1, 1100), st.sampled_from([255, 256, 257, 511, 512, 513, 769]))


class TakeLog(np.ndarray):
    """An array that records the largest index each ``take`` is handed."""

    def take(self, indices, *args, **kwargs):
        self.largest.append(int(np.max(indices)))
        return np.asarray(self).take(indices, *args, **kwargs)


@settings(max_examples=300, deadline=None, database=None)
@given(
    m=st.integers(1, 600),
    cycles=st.one_of(st.integers(0, 5), st.integers(0, 2**40)),
    offset=st.integers(0, 599),
    size=st.integers(1, 256),
)
# around the block edges: 256 and 512 candidates, and blocks ending on or past a seam
@example(m=256, cycles=1, offset=0, size=256)
@example(m=256, cycles=2, offset=1, size=256)
@example(m=512, cycles=0, offset=256, size=256)
@example(m=512, cycles=3, offset=257, size=256)
@example(m=1, cycles=5, offset=0, size=256)
# a seam after the default cap's 16384 cycles, and a block spanning many cycles
@example(m=200, cycles=16384, offset=199, size=256)
@example(m=3, cycles=10**9, offset=2, size=256)
def test_cycle_blocks_are_the_wrapped_take(m, cycles, offset, size):
    v = np.random.default_rng(m).random(m).view(TakeLog)
    v.largest = []
    done = cycles * m + offset % m
    got = _cycle(v)(done, size)
    assert got.tobytes() == np.asarray(v)[np.arange(done, done + size) % m].tobytes()
    # the seam copy's work does not grow with done: its indices stay below m + 256
    assert all(i < m + 256 for i in v.largest)


@settings(max_examples=200, deadline=None, database=None)
@given(
    values=st.lists(st.integers(0, 6), min_size=1, max_size=300),
    gate=st.integers(-1, 6),
    max_steps=STEP_CAPS,
)
def test_zero_noise_scan_is_the_first_value_below(values, gate, max_steps):
    # small integers put values exactly at the gate; gate -1 never halts
    m = len(values)
    first = brute_first_below([values[i % m] for i in range(max_steps)], gate, max_steps)
    expect = SvtOutcome(True, first, first) if first else SvtOutcome(False, max_steps, None)
    zero = RandomStream(0, zero_noise=True)
    assert _scan(_cycle(np.array(values, dtype=float)), float(gate), 1.0, max_steps, zero) == expect
    queries = (lambda _x, v=v: v for v in cycle(values))
    assert svt(PointTuple([[0.0, 0.0]]), 1.0, float(gate), 1.0, queries, max_steps, zero) == expect


@pytest.mark.parametrize("path", ["halt", "cap", "exhausted"])
@settings(max_examples=40, deadline=None, database=None)
@given(
    m=st.integers(1, 700),
    extra=st.integers(0, 900),
    hit=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_svt_draws_like_the_array_scan(path, m, extra, hit, seed):
    # values sit 100 above the threshold 0 and noise scales are 2 and 4, so
    # only a value planted at -100 accepts
    values = 100.0 + np.random.default_rng(seed).random(m)
    if path == "exhausted":
        max_steps = m + 1 + extra
        seq = list(values)
        block = lambda done, size: values[done : done + size]  # noqa: E731
    else:
        max_steps = 1 + extra
        if path == "halt":
            values[hit % min(m, max_steps)] = -100.0
        seq = list(islice(cycle(values), max_steps))
        block = _cycle(values)

    ref = RandomStream(seed, 1)
    halted, steps = stepwise_scan(seq, 0.0 + sample_laplace(2.0, ref), 4.0, max_steps, ref.generator)
    expect = SvtOutcome(halted, steps, steps if halted else None)

    public = RandomStream(seed, 1)
    queries = (lambda _x, v=v: v for v in (seq if path == "exhausted" else cycle(values)))
    assert svt(PointTuple([[0.0, 0.0]]), 1.0, 0.0, 1.0, queries, max_steps, public) == expect

    array = RandomStream(seed, 1)
    assert _scan(block, 0.0 + sample_laplace(2.0, array), 4.0, max_steps, array) == expect

    draws = {s.generator.random() for s in (ref, public, array)}
    assert len(draws) == 1
    assert (halted, steps) == {
        "halt": (True, hit % min(m, max_steps) + 1),
        "cap": (False, max_steps),
        "exhausted": (False, m),
    }[path]


HULL_KINDS = [
    "uniform", "gauss", "cauchy", "duplicates", "collinear", "circle", "outlier", "small", "1mm", "3mm"
]


def _hull_points(kind, n, gen):
    """n points around the hull sweep's uniform 10 km tuple, shaped by kind."""
    pts = gen.random((n, 2)) * 1e4
    if kind == "gauss":
        pts += gen.normal(0.0, 300.0, (n, 2))
    elif kind == "cauchy":
        pts += 30.0 * gen.standard_cauchy((n, 2))
    elif kind == "duplicates":
        pts[n // 2 :] = pts[gen.integers(0, max(n // 2, 1), n - n // 2)]
    elif kind == "collinear":
        pts[:, 1] = 0.5 * pts[:, 0]
    elif kind == "circle":
        angle = gen.random(n) * 2.0 * math.pi
        pts = 5e3 + 5e3 * np.c_[np.cos(angle), np.sin(angle)]
    elif kind == "outlier":
        # 1e6 m out: the extreme in several adjacent filter directions
        angle = gen.random() * 2.0 * math.pi
        pts[0] = 5e3 + 1e6 * np.array([math.cos(angle), math.sin(angle)])
    elif kind == "small":
        pts *= 1e-5  # a 10 cm square
    elif kind == "1mm":
        pts *= 1e-7  # a 1 mm square
    elif kind == "3mm":
        pts *= 3e-7  # a 3 mm square
    elif kind == "grid":
        pts = np.floor(pts / 2e3)  # a 5 x 5 grid: duplicate and collinear rows
    elif kind == "zeros":
        # a 2 x 2 grid whose zero coordinates are 0.0 or -0.0 at random
        pts = np.floor(pts / 5e3)
        pts[pts == 0] = np.where(gen.random(n * 2) < 0.5, 0.0, -0.0)[: np.count_nonzero(pts == 0)]
    return pts


@st.composite
def hull_points(draw, n_min, n_max, kinds):
    n = draw(st.integers(n_min, n_max))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _hull_points(draw(st.sampled_from(kinds)), n, gen)
    return pts + draw(st.sampled_from([0.0, 1e7]))  # Mercator-scale offset


@settings(max_examples=40, deadline=None, database=None)
@given(pts=hull_points(32, 60, ["uniform", "gauss", "cauchy", "duplicates", "1mm", "3mm"]))
def test_prefiltered_hull_is_brute_force(pts):
    # n >= 32 runs the prefilter; brute force keeps points on an edge, so no
    # collinear or circle sets here
    assert np.array_equal(np.unique(convex_hull(pts).vertices, axis=0), brute_hull_vertices(pts))


@settings(max_examples=100, deadline=None, database=None)
@given(pts=hull_points(1, 4096, HULL_KINDS))
# a small hull at a Mercator offset, where the raw signed area has the wrong sign
@example(pts=np.random.default_rng(0).random((40, 2)) * 0.1 + 1e7)
# a 1 mm set at a Mercator offset: with the tolerance's scale floored at 1 m, the
# prefiltered hull and the plain chain differed here
@example(pts=np.random.default_rng(61).random((40, 2)) * 1e-3 + 1e7)
def test_prefiltered_hull_is_the_monotone_chain(pts):
    hull = convex_hull(pts)
    vertices, degenerate = monotone_chain(pts, ORIENT_EPS)
    assert hull.degenerate == degenerate
    assert np.array_equal(hull.vertices, vertices)


@settings(max_examples=20, deadline=None, database=None)
@given(n=st.integers(1000, 4096), seed=st.integers(0, 2**32 - 1))
def test_prefilter_drops_the_interior_past_a_repeated_extreme(n, seed):
    pts = _hull_points("outlier", n, np.random.default_rng(seed))
    assert np.count_nonzero(np.argmax(_FILTER_DIRS @ pts.T, axis=1) == 0) >= 2
    kept = _drop_interior(pts, _FILTER_MARGIN * ORIENT_EPS * _bbox_scale(pts) ** 2)
    assert len(kept) < n // 4


@settings(max_examples=200, deadline=None, database=None)
@given(
    cols=st.integers(1, 12),
    rows=st.integers(1, 300),
    offset=st.sampled_from([0.0, 1e7]),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
# the fallback boundary: 7 columns are summed in column order, 8 pairwise (on
# this array, 76 of the 300 column-order sums differ from norm's at 8 columns)
@example(cols=7, rows=300, offset=1e7, layout="C", seed=0)
@example(cols=8, rows=300, offset=1e7, layout="C", seed=0)
def test_row_norms_are_numpy_norm_bytes(cols, rows, offset, layout, seed):
    v = np.random.default_rng(seed).standard_normal((2 * rows, cols)) * 1e3 + offset
    v = {"C": v[:rows], "F": np.asfortranarray(v[:rows]), "strided": v[::2]}[layout]
    assert row_norms(v).tobytes() == np.linalg.norm(v, axis=1).tobytes()


def _layout(v, rows, layout):
    """v, of 2 * rows rows and a spare first column, as ``rows`` rows
    without that column: C-ordered, F-ordered or a strided slice of v."""
    return {
        "C": np.ascontiguousarray(v[:rows, 1:]),
        "F": np.asfortranarray(v[:rows, 1:]),
        "sliced": v[::2, 1:],
    }[layout]


@settings(max_examples=200, deadline=None, database=None)
@given(
    cols=st.integers(1, 9),
    rows=st.integers(1, 300),
    offset=st.sampled_from([0.0, 1e7]),
    layout=st.sampled_from(["C", "F", "sliced"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cols=7, rows=300, offset=1e7, layout="C", seed=0)
@example(cols=8, rows=300, offset=1e7, layout="C", seed=0)
def test_query_dists_are_the_bytes_of_row_norms_of_the_difference(cols, rows, offset, layout, seed):
    gen = np.random.default_rng(seed)
    v = _layout(gen.standard_normal((2 * rows, cols + 1)) * 1e3 + offset, rows, layout)
    q = gen.standard_normal(cols) * 1e3 + offset
    assert query_dists(v, q).tobytes() == row_norms(v - q).tobytes()
    assert query_dists(v, list(q)).tobytes() == row_norms(v - q).tobytes()


def _with_signed_zeros(v, gen):
    """v with about a third of its entries set to 0.0 or -0.0."""
    v = v.copy()
    mask = gen.random(v.shape) < 1 / 3
    v[mask] = np.where(gen.random(v.shape) < 0.5, 0.0, -0.0)[mask]
    return v


@settings(max_examples=200, deadline=None, database=None)
@given(
    cols=st.integers(1, 4),
    rows=st.integers(1, 300),
    offset=st.sampled_from([0.0, 1e7, -1e7]),
    zeros=st.booleans(),
    layout=st.sampled_from(["C", "F", "sliced"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bounds_center_and_scale_are_the_axis_reductions(cols, rows, offset, zeros, layout, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal((2 * rows, cols + 1)) * 1e3 + offset
    if zeros:
        v = _with_signed_zeros(v, gen)
    v = _layout(v, rows, layout)

    def raw(a):
        # Of 0.0 and -0.0, a column reduction and an axis-0 one may return
        # either; adding 0.0 maps -0.0 to 0.0 and leaves every other value.
        a = np.asarray(a, dtype=np.float64)
        return (a + 0.0 if zeros else a).tobytes()

    lo, hi = bounds(v)
    assert raw(lo) == raw(v.min(axis=0))
    assert raw(hi) == raw(v.max(axis=0))
    if cols == 2:
        assert raw(center(PointTuple(v))) == raw(0.5 * (v.min(axis=0) + v.max(axis=0)))
        assert raw(_bbox_scale(v)) == raw(float((v.max(axis=0) - v.min(axis=0)).max()))


@settings(max_examples=200, deadline=None, database=None)
@given(
    pts=hull_points(1, 600, HULL_KINDS + ["grid", "zeros"]),
    layout=st.sampled_from(["C", "sliced"]),
)
@example(pts=np.array([[3.0, -2.0]]), layout="C")
@example(pts=np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]] * 5), layout="C")
@example(pts=_hull_points("zeros", 600, np.random.default_rng(0)), layout="sliced")
def test_unique_rows_are_numpy_unique(pts, layout):
    if layout == "sliced":
        pts = np.repeat(pts, 2, axis=0)[::2]
    got, want = _unique_rows(pts), np.unique(pts, axis=0)
    assert got.shape == want.shape
    if not np.any(np.signbit(pts) & (pts == 0)):
        assert got.tobytes() == want.tobytes()
        return
    # Rows equal but for a zero's sign: np.unique's sort is not stable, so
    # it keeps either; _unique_rows keeps the first.  Adding 0.0 maps -0.0
    # to 0.0 and leaves every other value.
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    for row in got:
        first = pts[np.flatnonzero((pts == row).all(axis=1))[0]]
        assert row.tobytes() == first.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(pts=hull_points(32, 4096, HULL_KINDS))
def test_prefilter_edge_loop_is_the_strided_expression(pts):
    margin = _FILTER_MARGIN * ORIENT_EPS * _bbox_scale(pts) ** 2
    ext = pts[np.argmax(_FILTER_DIRS @ pts.T, axis=1)]
    ext = ext[np.any(ext != np.roll(ext, 1, axis=0), axis=1)]
    want = pts
    if len(ext) >= 3:
        x, y = pts[:, 0], pts[:, 1]
        inside = np.ones(len(pts), dtype=bool)
        for (ox, oy), (ex, ey) in zip(ext, np.roll(ext, -1, axis=0) - ext):
            inside &= ex * (y - oy) - ey * (x - ox) > margin
        want = pts[~inside]
    assert _drop_interior(pts, margin).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(pts=hull_points(1, 600, HULL_KINDS))
def test_cached_hull_area_is_the_shoelace_area(pts):
    hull = convex_hull(pts)
    want = 0.0 if hull.degenerate else shoelace_area(hull.vertices)
    assert np.float64(hull.area).tobytes() == np.float64(want).tobytes()
    # the shoelace sum as it stood: np.roll of strided views
    v = hull.vertices - hull.vertices.min(axis=0)
    x, y = v[:, 0], v[:, 1]
    old = abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) / 2.0
    if not hull.degenerate:
        assert np.float64(hull.area).tobytes() == np.float64(old).tobytes()


def _numpy_scalars(a):
    """a as an object array of np.float64 scalars, which ``tolist`` hands
    back as they are: code that calls it then runs on numpy scalars."""
    out = np.empty(a.shape, dtype=object)
    out[...] = [[np.float64(v) for v in row] for row in a.tolist()]
    return out


@settings(max_examples=100, deadline=None, database=None)
@given(pts=hull_points(6, 200, ["uniform", "gauss", "cauchy", "duplicates", "small", "1mm"]))
def test_clip_on_python_floats_is_the_clip_on_numpy_scalars(pts):
    # two overlapping hulls, clipped as jaccard clips them
    a, b = convex_hull(pts[::2]), convex_hull(pts[1::2])
    assume(not (a.degenerate or b.degenerate))
    lo, hi = bounds(np.vstack([a.vertices, b.vertices]))
    tol = ORIENT_EPS * float((hi - lo).max()) ** 2
    subject, clip = a.vertices - lo, b.vertices - lo
    got = _clip_convex(subject, clip, tol)
    want = _clip_convex(_numpy_scalars(subject), _numpy_scalars(clip), np.float64(tol))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 3000),
    levels=st.integers(1, 50),
    k=st.sampled_from([1, 16, 64, "n"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2000, levels=3, k=64, seed=0)
@example(n=64, levels=1, k="n", seed=0)
def test_k_smallest_is_the_stable_argsort_prefix(n, levels, k, seed):
    # few distinct levels: many ties, also across the k-th value
    k = n if k == "n" else min(k, n)
    values = np.random.default_rng(seed).integers(0, levels, n) * 0.5
    assert np.array_equal(_k_smallest(values, k), np.argsort(values, kind="stable")[:k])
