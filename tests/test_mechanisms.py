import contextlib
import math
import re

import numpy as np
import pytest

from geopriv import mechanisms
from geopriv.accounting import BudgetLedger, CgpBudget, GpBudget
from geopriv.geometry import PointTuple, dist_inf, max_radius
from geopriv.hull import convex_hull
from geopriv.mechanisms import (
    NonHaltError,
    identity_cgp_inf,
    identity_cgp_l2,
    identity_gp_inf,
    identity_gp_l2,
    kpnn,
    kpnn_gp,
    pnn,
    private_convex_hull,
    private_convex_hull_gp,
    svt,
)
from geopriv.noise import RandomStream
from helpers import brute_knn, directed_excess, min_dist

ZERO = RandomStream(0, zero_noise=True)

# corners of a diamond, one per probe angle when k=4
DIAMOND = PointTuple([[1000.0, 0.0], [0.0, 1000.0], [-1000.0, 0.0], [0.0, -1000.0]])


def uniform_tuple(seed: int, n: int, scale: float = 1000.0) -> PointTuple:
    return PointTuple(np.random.default_rng(seed).random((n, 2)) * scale)


class TestIdentityMechanisms:
    def test_zero_noise_returns_input(self):
        x = uniform_tuple(0, 20)
        for mech, budget in (
            (identity_gp_inf, 1.0),
            (identity_cgp_inf, 1.0),
            (identity_gp_l2, 1.0),
            (identity_cgp_l2, 1.0),
        ):
            out = mech(x, budget, RandomStream(0, zero_noise=True))
            assert np.array_equal(out.points, x.points)

    @pytest.mark.parametrize("mech", [identity_gp_inf, identity_cgp_inf, identity_gp_l2, identity_cgp_l2])
    @pytest.mark.parametrize("stream", ["plain", "taped", "zero"])
    def test_a_release_owns_its_read_only_points(self, mech, stream):
        arr = np.random.default_rng(0).random((20, 2)) * 1000.0
        x = PointTuple(arr)
        rng = RandomStream(1, 2, zero_noise=stream == "zero")
        with rng.taped() if stream == "taped" else contextlib.nullcontext():
            out = mech(x, 0.5, rng)
            draws = [a for a, _ in rng._memo.values()] if stream == "taped" else []
        assert not out.points.flags.writeable
        with pytest.raises(ValueError):
            out.points[0, 0] = 1.0
        for other in (x.points, arr, *draws):
            assert not np.shares_memory(out.points, other)
        before = out.points.copy()
        arr[:] = -1.0
        assert np.array_equal(out.points, before)

    @pytest.mark.parametrize("mech", [identity_gp_inf, identity_gp_l2])
    def test_a_release_whose_noise_overflows_is_refused(self, mech):
        # noise of scale 1e300 or more pushes a coordinate at the largest double past it
        x = PointTuple(np.full((4, 2), np.finfo(np.float64).max))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="coordinates must be finite"):
            mech(x, 1e-300, RandomStream(0))

    def test_parameter_errors(self):
        x = uniform_tuple(0, 3)
        for mech in (identity_gp_inf, identity_cgp_inf, identity_gp_l2, identity_cgp_l2):
            with pytest.raises(ValueError):
                mech(x, 0.0, RandomStream(0))

    def test_gp_inf_max_error_quantile(self):
        # union-bound quantile: (n/eps) * (sqrt(2 log(n/beta)) + log(n/beta))
        n, eps, beta, trials = 100, 1.0, 0.05, 400
        x = uniform_tuple(1, n)
        u = math.log(n / beta)
        bound = (n / eps) * (math.sqrt(2 * u) + u)
        assert bound == pytest.approx(1150.0, abs=0.2)
        hits = sum(
            dist_inf(identity_gp_inf(x, eps, RandomStream(2, t)), x) <= bound
            for t in range(trials)
        )
        assert hits / trials >= 1 - beta

    def test_cgp_inf_max_error_quantile(self):
        # bound sqrt(n log(n/beta) / rho); the per-point norm is Rayleigh, so
        # the containment probability is exactly (1 - beta/n)^n = 0.95122 at
        # these parameters -- knife-edge above the 0.95 assertion.  The
        # two-sided band checks the sampler against that exact value; the
        # stream id is fixed to a draw that also clears the one-sided claim.
        n, rho, beta, trials = 100, 1.0, 0.05, 400
        x = uniform_tuple(3, n)
        bound = math.sqrt(n * math.log(n / beta) / rho)
        assert bound == pytest.approx(27.57, abs=0.01)
        hits = sum(
            dist_inf(identity_cgp_inf(x, rho, RandomStream(4, t)), x) <= bound
            for t in range(trials)
        )
        exact = (1 - beta / n) ** n
        sem = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits / trials - exact) <= 3.5 * sem
        assert hits / trials >= 1 - beta

    def test_gp_inf_single_point_radial_tail(self):
        # n=1 is the plain 2-D Laplace mechanism: Pr[r > R] = (1+R eps) e^{-R eps}
        eps, trials = 1.0, 40_000
        x = PointTuple([[0.0, 0.0]])
        radii = np.array(
            [
                dist_inf(identity_gp_inf(x, eps, RandomStream(5, t)), x)
                for t in range(trials)
            ]
        )
        for r in (1.0, 3.0):
            expect = (1 + r * eps) * math.exp(-r * eps)
            assert abs(float((radii > r).mean()) - expect) < 0.01

    def test_gp_l2_mean_norm(self):
        n, eps, trials = 4, 1.0, 30_000
        x = uniform_tuple(6, n)
        norms = [
            float(np.linalg.norm((identity_gp_l2(x, eps, RandomStream(7, t)).points - x.points)))
            for t in range(trials)
        ]
        assert abs(np.mean(norms) * eps / (2 * n) - 1.0) < 0.01

    def test_cgp_l2_mean_norm(self):
        n, rho, trials = 4, 0.5, 30_000
        x = uniform_tuple(8, n)
        norms = [
            float(np.linalg.norm((identity_cgp_l2(x, rho, RandomStream(9, t)).points - x.points)))
            for t in range(trials)
        ]
        expect = math.gamma(n + 0.5) / math.gamma(n) / math.sqrt(rho)
        assert abs(np.mean(norms) / expect - 1.0) < 0.01


def value_queries(values):
    return [lambda _x, v=float(v): v for v in values]


def force_abort(monkeypatch, cycles):
    """Cap every nearest-neighbour scan at ``cycles`` passes and pull each
    threshold far below every distance, so that no candidate can accept."""
    monkeypatch.setattr(mechanisms, "_MAX_CYCLES", cycles)
    monkeypatch.setattr(mechanisms, "sample_laplace", lambda scale, rng: -1e9)


class TestSvt:
    def test_zero_noise_first_below_threshold(self):
        x = PointTuple([[0.0, 0.0]])
        out = svt(x, 1.0, 2.0, 1.0, value_queries([5, 3, 1]), 10, ZERO)
        assert out.halted and out.index == 3 and out.steps == 3

    def test_zero_noise_non_halt_at_cap(self):
        x = PointTuple([[0.0, 0.0]])
        out = svt(x, 1.0, 2.0, 1.0, value_queries([5] * 50), 10, ZERO)
        assert not out.halted and out.steps == 10 and out.index is None

    def test_exhausted_queries_non_halt(self):
        x = PointTuple([[0.0, 0.0]])
        out = svt(x, 1.0, 2.0, 1.0, value_queries([5, 6]), 10, ZERO)
        assert not out.halted and out.steps == 2

    def test_queries_evaluate_a_block_at_a_time(self):
        x = PointTuple([[0.0, 0.0]])
        seen = []

        def query(j):
            def g(_x):
                seen.append(j)
                if j == 7:
                    raise RuntimeError("query 7")
                return 1.0 if j == 2 else 5.0
            return g

        # The block of 256 is evaluated whole: query 7, after the accepted
        # query 2, still runs and its exception propagates.
        with pytest.raises(RuntimeError, match="query 7"):
            svt(x, 1.0, 2.0, 1.0, (query(j) for j in range(1, 1000)), 1000, ZERO)
        assert seen == list(range(1, 8))
        # Within the cap of 3 the block is queries 1..3, so query 7 never runs.
        seen.clear()
        out = svt(x, 1.0, 2.0, 1.0, (query(j) for j in range(1, 1000)), 3, ZERO)
        assert out.halted and out.index == 2 and seen == [1, 2, 3]

    def test_huge_gap_halts_immediately(self):
        x = PointTuple([[0.0, 0.0]])
        hits = 0
        for t in range(10_000):
            out = svt(x, 1.0, 100.0, 1.0, value_queries([1, 200, 200]), 3, RandomStream(10, t))
            hits += out.halted and out.index == 1
        assert hits / 10_000 >= 0.999

    def test_outcome_invariant(self):
        x = PointTuple([[0.0, 0.0]])
        gen = np.random.default_rng(0)
        for t in range(200):
            vals = gen.random(8) * 4
            out = svt(x, 1.0, 2.0, 1.0, value_queries(vals), 5, RandomStream(11, t))
            if out.halted:
                assert out.index == out.steps
            else:
                assert out.index is None

    def test_parameter_errors(self):
        x = PointTuple([[0.0, 0.0]])
        with pytest.raises(ValueError):
            svt(x, 0.0, 1.0, 1.0, [], 1, ZERO)
        with pytest.raises(ValueError):
            svt(x, 1.0, 1.0, 0.0, [], 1, ZERO)
        with pytest.raises(ValueError):
            svt(x, 1.0, 1.0, 1.0, [], 0, ZERO)

    def test_ledger_splits_evenly(self):
        x = PointTuple([[0.0, 0.0]])
        ledger = BudgetLedger(GpBudget(1.0))
        svt(x, 1.0, 2.0, 1.0, value_queries([1]), 5, ZERO, ledger=ledger)
        assert [a for _, a in ledger.entries] == [0.5, 0.5]
        ledger.close()


class TestPnn:
    def test_zero_noise_returns_argmin(self):
        x = PointTuple([[4.0], [1.0], [7.0]])
        assert pnn(x, [0.0], [1, 2, 3], 1.0, ZERO) == 2

    def test_singleton_subset(self):
        x = PointTuple([[4.0], [1.0], [7.0]])
        assert pnn(x, [0.0], [3], 1.0, RandomStream(12)) == 3

    def test_returns_member_of_subset(self):
        x = uniform_tuple(13, 50)
        subset = [3, 9, 17, 41]
        for t in range(50):
            assert pnn(x, [500.0, 500.0], subset, 1.0, RandomStream(14, t)) in subset

    def test_non_halt_charges_the_whole_budget(self, monkeypatch):
        x = PointTuple([[4.0], [1.0], [7.0]])
        force_abort(monkeypatch, 3)
        ledger = BudgetLedger(GpBudget(1.0))
        with pytest.raises(NonHaltError, match="within 3 cycles over 3 candidates"):
            pnn(x, [0.0], [1, 2, 3], 1.0, ZERO, ledger=ledger)
        # the aborted scan has spent its whole budget, charged up front
        assert [label for label, _ in ledger.entries] == [
            "pnn_threshold",
            "svt_threshold",
            "svt_queries",
        ]
        ledger.close()

    def test_ledger_closes(self):
        x = uniform_tuple(15, 10)
        ledger = BudgetLedger(GpBudget(0.7))
        pnn(x, [0.0, 0.0], range(1, 11), 0.7, RandomStream(16), ledger=ledger)
        ledger.close()

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            pnn(uniform_tuple(0, 3), [0.0, 0.0], [], 1.0, ZERO)

    def test_index_kinds_give_the_same_python_int(self):
        x = uniform_tuple(13, 50)
        kinds = [list(range(5, 30)), range(5, 30), np.arange(5, 30), [np.int64(i) for i in range(5, 30)]]
        got = [pnn(x, [500.0, 500.0], kind, 0.05, RandomStream(14, 3)) for kind in kinds]
        assert all(type(t) is int for t in got) and len(set(got)) == 1
        with pytest.raises(ValueError, match="index 51 outside the valid range 1..50"):
            pnn(x, [500.0, 500.0], np.array([3, 51]), 1.0, ZERO)


class TestKpnn:
    def test_zero_noise_exact_rank_order(self):
        x = uniform_tuple(17, 60)
        p = np.array([500.0, 500.0])
        assert kpnn(x, p, 5, 1.0, RandomStream(0, zero_noise=True)) == brute_knn(x.points, p, 5)

    @pytest.mark.parametrize("mech, budget", [(kpnn, CgpBudget(1.0)), (kpnn_gp, GpBudget(1.0))])
    @pytest.mark.parametrize("n", [1, 2, 12, 255, 256, 257])
    def test_k_equals_n_is_permutation(self, mech, budget, n):
        # the last two rounds scan 2 candidates, then 1; at n = 255, 256 and
        # 257 the first round's first block wraps, ends at the seam, or stops
        # one short of it
        x = uniform_tuple(18, n)
        ledger = BudgetLedger(budget)
        out = mech(x, [0.0, 0.0], n, 1.0, RandomStream(19), ledger=ledger)
        assert sorted(out) == list(range(1, n + 1))
        assert [label for label, _ in ledger.entries] == [f"round_{j}" for j in range(1, n + 1)]
        ledger.close()

    def test_indices_distinct(self):
        x = uniform_tuple(20, 40)
        for t in range(20):
            out = kpnn(x, [100.0, 900.0], 8, 0.5, RandomStream(21, t))
            assert len(set(out)) == 8

    def test_gp_variant_k1_matches_pnn_under_same_stream(self):
        x = uniform_tuple(22, 30)
        p = [200.0, 300.0]
        a = kpnn_gp(x, p, 1, 0.8, RandomStream(23, 5))
        b = [pnn(x, p, range(1, 31), 0.8, RandomStream(23, 5))]
        assert a == b

    def test_gp_variant_zero_noise(self):
        x = uniform_tuple(24, 50)
        p = np.array([10.0, 10.0])
        assert kpnn_gp(x, p, 4, 1.0, RandomStream(0, zero_noise=True)) == brute_knn(x.points, p, 4)

    def test_k_out_of_range(self):
        x = uniform_tuple(25, 5)
        with pytest.raises(ValueError):
            kpnn(x, [0.0, 0.0], 6, 1.0, ZERO)
        with pytest.raises(ValueError):
            kpnn(x, [0.0, 0.0], 0, 1.0, ZERO)

    @pytest.mark.parametrize("select", [kpnn, kpnn_gp])
    @pytest.mark.parametrize("k", [2.0, 2.5, "2"])
    def test_non_integer_k_rejected(self, select, k):
        with pytest.raises(ValueError, match="is not an integer"):
            select(uniform_tuple(25, 5), [0.0, 0.0], k, 1.0, ZERO)

    def test_numpy_integer_k(self):
        x = uniform_tuple(25, 5)
        assert kpnn(x, [0.0, 0.0], np.int64(3), 1.0, ZERO) == kpnn(x, [0.0, 0.0], 3, 1.0, ZERO)

    def test_ledgers_close(self):
        x = uniform_tuple(26, 20)
        ledger = BudgetLedger(CgpBudget(0.9))
        kpnn(x, [0.0, 0.0], 4, 0.9, RandomStream(27), ledger=ledger)
        ledger.close()
        ledger = BudgetLedger(GpBudget(1.3))
        kpnn_gp(x, [0.0, 0.0], 4, 1.3, RandomStream(28), ledger=ledger)
        ledger.close()

    @pytest.mark.parametrize("mech, budget", [(kpnn, CgpBudget(0.9)), (kpnn_gp, GpBudget(0.9))])
    def test_abort_leaves_the_started_round_charged(self, mech, budget, monkeypatch):
        # a scan that cannot accept aborts in round 1, after its charge
        x = uniform_tuple(26, 20)
        ledger = BudgetLedger(budget)
        force_abort(monkeypatch, 1)
        with pytest.raises(NonHaltError):
            mech(x, [0.0, 0.0], 4, 0.9, RandomStream(27), ledger=ledger)
        assert ledger.entries == [("round_1", 0.9 / 4)]

    def test_gp_variant_per_rank_error_bound(self):
        # per-round budget eps/k: each rank's excess stays within
        # (15 k / eps) L + (3 sqrt(2) k / eps) sqrt(L), L = log((4n+2)/beta)
        n, k, eps, beta, trials = 500, 5, 1.0, 0.05, 100
        gen = np.random.default_rng(50)
        x = PointTuple(gen.random((n, 2)) * 10_000)
        big = math.log((4 * n + 2) / beta)
        gamma = (15 * k / eps) * big + (3 * math.sqrt(2) * k / eps) * math.sqrt(big)
        hits = 0
        for t in range(trials):
            p = gen.random(2) * 10_000
            got = kpnn_gp(x, p, k, eps, RandomStream(51, t))
            truth = brute_knn(x.points, p, k)
            got_d = np.linalg.norm(x.points[np.asarray(got) - 1] - p, axis=1)
            true_d = np.linalg.norm(x.points[np.asarray(truth) - 1] - p, axis=1)
            hits += bool(np.all(got_d <= true_d + gamma))
        assert hits / trials >= 1 - beta


class TestRadiusSlack:
    """The anchor stage draws its radius noise as ``cal.noise(1, b0 / 3)``:
    Laplace(3/b0) for GP (planar Laplace at d = 1) and N(0, 3/(2 b0)) for
    CGP.  The slack added to the radius bounds that noise's lower tail by
    beta/2, so the privatized circle holds the tuple with that chance."""

    @pytest.mark.parametrize("beta", [0.5, 0.05, 1e-6])
    @pytest.mark.parametrize("b0", [1e-4, 1e-2, 1.0])
    def test_gp_slack_bounds_the_laplace_tail(self, b0, beta):
        slack = mechanisms._GP.radius_slack(b0, beta)
        tail = 0.5 * math.exp(-slack / (3.0 / b0))  # Pr[L < -slack]
        assert tail <= beta / 2
        assert tail / (beta / 2) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 0.05, 1e-6])
    @pytest.mark.parametrize("b0", [1e-4, 1e-2, 1.0])
    def test_cgp_slack_bounds_the_gaussian_tail(self, b0, beta):
        slack = mechanisms._CGP.radius_slack(b0, beta)
        sigma = math.sqrt(3.0 / (2.0 * b0))
        tail = 0.5 * math.erfc(slack / (sigma * math.sqrt(2.0)))  # Pr[Z < -slack]
        assert tail <= beta / 2
        assert 0.05 < tail / (beta / 2) < 0.2


class TestPchAnchors:
    # the anchor stage, through a CGP hull release at twice the stage's
    # budget and beta: the release runs the stage at half of each

    def test_zero_noise_diamond_hits_each_corner(self):
        res = private_convex_hull(DIAMOND, 2.0, 0.1, RandomStream(0, zero_noise=True), k=4)
        assert res.anchors == [1, 2, 3, 4]

    def test_single_point_every_anchor_is_one(self):
        x = PointTuple([[123.0, 456.0]])
        assert private_convex_hull(x, 1.0, 0.1, RandomStream(29), k=6).anchors == [1] * 6

    def test_zero_noise_matches_per_probe_argmin(self):
        x = uniform_tuple(30, 200)
        res = private_convex_hull(x, 1.0, 0.1, RandomStream(0, zero_noise=True), k=8)
        for j, a in enumerate(res.anchors):
            theta = 2 * math.pi * j / 8
            probe = res.info.center + res.info.radius * np.array([math.cos(theta), math.sin(theta)])
            assert a == min_dist(x, probe)[0]

    def test_auto_k_formula_and_clamp(self):
        # raw count ((radius sqrt(rho)) / log(n/beta))^(2/3): at radius 1000,
        # rho 1e-4, n 20000, beta 0.05 it is ~0.84, so the clamp floor applies
        raw = (1000.0 * math.sqrt(1e-4) / math.log(20000 / 0.05)) ** (2.0 / 3.0)
        assert raw == pytest.approx(0.8439, abs=1e-3)

        x = uniform_tuple(31, 500, scale=100.0)
        res = private_convex_hull(x, 2e-4, 0.1, RandomStream(0, zero_noise=True))
        assert res.info.k == 16 and len(res.anchors) == 16

    def test_auto_k_inside_clamp_range(self):
        x = uniform_tuple(32, 400, scale=10_000.0)
        res = private_convex_hull(x, 2.0, 0.1, RandomStream(0, zero_noise=True), k="auto")
        info = res.info
        expect = round((info.radius * math.sqrt(1.0) / math.log(400 / 0.05)) ** (2.0 / 3.0))
        assert 16 <= info.k <= 128 and info.k == expect == len(res.anchors)

    def test_budget_split_and_ledger(self):
        x = uniform_tuple(33, 50)
        rho = 0.8
        ledger = BudgetLedger(CgpBudget(2 * rho))
        info = private_convex_hull(x, 2 * rho, 0.1, RandomStream(34), k=5, ledger=ledger).info
        labels = [l for l, _ in ledger.entries]
        amounts = dict(ledger.entries)
        assert labels[:2] == ["centre", "radius"]
        assert amounts["centre"] == pytest.approx(2 * (rho / 20) / 3, rel=1e-12)
        assert amounts["radius"] == pytest.approx((rho / 20) / 3, rel=1e-12)
        assert info.probe_budget == pytest.approx((rho - rho / 20) / 5, rel=1e-12)
        assert [amounts[f"probe_{j}"] for j in range(1, 6)] == [info.probe_budget] * 5
        ledger.close()

    def test_requires_2d(self):
        for release in (private_convex_hull, private_convex_hull_gp):
            with pytest.raises(ValueError, match="2-D only"):
                release(PointTuple([[1.0, 2.0, 3.0]]), 2.0, 0.2, ZERO, k=3)

    def test_param_validation(self):
        # the hull releases check their own budget and beta, which the
        # anchor stage then gets halved
        bad = [
            (0.0, 0.05, {}),
            (1.0, 0.0, {}),
            (1.0, 1.0, {}),
            (1.0, 1.5, {}),
            (1.0, 0.05, {"k": 2}),
            # a non-integer k is rejected, not truncated or parsed
            (1.0, 0.05, {"k": 5.9}),
            (1.0, 0.05, {"k": "7"}),
        ]
        x = uniform_tuple(42, 10)
        for release in (private_convex_hull, private_convex_hull_gp):
            for budget, beta, kwargs in bad:
                ledger = BudgetLedger(CgpBudget(1.0))
                with pytest.raises(ValueError):
                    release(x, budget, beta, ZERO, ledger=ledger, **kwargs)
                assert ledger.entries == [], (release.__name__, budget, beta, kwargs)

    def test_integer_kinds_are_accepted(self):
        x = uniform_tuple(30, 200)
        a = private_convex_hull(x, 1.0, 0.1, ZERO, k=np.int64(8))
        b = private_convex_hull(x, 1.0, 0.1, ZERO, k=8)
        assert a.anchors == b.anchors and type(a.info.k) is int


class TestPrivateConvexHull:
    def test_zero_noise_releases_anchor_points(self):
        x = uniform_tuple(35, 100)
        res = private_convex_hull(x, 1.0, 0.05, RandomStream(0, zero_noise=True), k=8)
        assert np.array_equal(res.points, x.points[np.asarray(res.anchors) - 1])

    def test_anchor_hull_contained_in_true_hull(self):
        x = uniform_tuple(36, 150)
        true_hull = convex_hull(x.points)
        for t in range(10):
            res = private_convex_hull(x, 1.0, 0.05, RandomStream(37, t), k=8)
            anchor_hull = convex_hull(x.points[np.asarray(res.anchors) - 1])
            if anchor_hull.degenerate:
                continue
            assert directed_excess(true_hull, anchor_hull) <= 1e-9 * 1000

    @staticmethod
    def assert_ledger_labels_and_close(ledger, k):
        expect = ["centre", "radius"] + [f"probe_{j}" for j in range(1, k + 1)]
        expect += [f"release_{j}" for j in range(1, k + 1)]
        assert [label for label, _ in ledger.entries] == expect
        ledger.close()

    def test_ledger_closes_to_total(self):
        x = uniform_tuple(38, 60)
        ledger = BudgetLedger(CgpBudget(0.6))
        private_convex_hull(x, 0.6, 0.05, RandomStream(39), k=6, ledger=ledger)
        self.assert_ledger_labels_and_close(ledger, 6)

    def test_gp_variant_ledger_closes(self):
        x = uniform_tuple(40, 60)
        ledger = BudgetLedger(GpBudget(0.4))
        private_convex_hull_gp(x, 0.4, 0.05, RandomStream(41), k=6, ledger=ledger)
        self.assert_ledger_labels_and_close(ledger, 6)

    def test_gp_variant_zero_noise_anchors_match_gaussian_variant(self):
        a = private_convex_hull(DIAMOND, 1.0, 0.05, RandomStream(0, zero_noise=True), k=4)
        b = private_convex_hull_gp(DIAMOND, 1.0, 0.05, RandomStream(0, zero_noise=True), k=4)
        assert a.anchors == b.anchors == [1, 2, 3, 4]
        assert np.array_equal(b.points, DIAMOND.points)

    def test_an_overflowing_circle_raises_before_any_probe_is_charged(self):
        # every scale is finite (about 1e307), but the circle's draws overflow
        ledger = BudgetLedger(GpBudget(1e-305))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="circle overflows"):
            private_convex_hull_gp(uniform_tuple(47, 10), 1e-305, 0.05, RandomStream(0), k=3, ledger=ledger)
        assert [label for label, _ in ledger.entries] == ["centre", "radius"]

    def test_parameter_errors(self):
        x = uniform_tuple(42, 10)
        with pytest.raises(ValueError):
            private_convex_hull(x, 0.0, 0.05, ZERO)
        with pytest.raises(ValueError):
            private_convex_hull_gp(x, 1.0, 0.0, ZERO)
        with pytest.raises(ValueError, match="k 5.9 is not an integer"):
            private_convex_hull_gp(x, 1.0, 0.05, ZERO, k=5.9)


class TestMonotonePrivacy:
    def test_identity_median_error_never_grows_with_budget(self):
        x = uniform_tuple(43, 64)
        for mech, budgets in (
            (identity_cgp_inf, (0.25, 0.5, 1.0, 2.0)),
            (identity_gp_inf, (0.5, 1.0, 2.0, 4.0)),
        ):
            medians = []
            for b in budgets:
                errs = [
                    dist_inf(mech(x, b, RandomStream(44, t)), x) for t in range(21)
                ]
                medians.append(float(np.median(errs)))
            assert all(hi >= lo for hi, lo in zip(medians, medians[1:]))


# name -> call(x, q, ledger).  Each call has a second bad argument that is
# reported after the query point: eps for pnn, the subset for min_dist.
QUERY_POINT_TAKERS = {
    "pnn": lambda x, q, led: pnn(x, q, [1, 2], 0.0, ZERO, ledger=led),
    "kpnn": lambda x, q, led: kpnn(x, q, 2, 1.0, ZERO, ledger=led),
    "kpnn_gp": lambda x, q, led: kpnn_gp(x, q, 2, 1.0, ZERO, ledger=led),
    "max_radius": lambda x, q, led: max_radius(x, q),
    "min_dist": lambda x, q, led: min_dist(x, q, []),
}


@pytest.mark.parametrize("q", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 5.0], ids=["3", "1x2", "scalar"])
@pytest.mark.parametrize("name", sorted(QUERY_POINT_TAKERS))
def test_wrong_shaped_query_point_rejected(name, q):
    ledger = BudgetLedger(GpBudget(1.0))
    message = f"query point must have shape (2,), got {np.shape(q)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        QUERY_POINT_TAKERS[name](uniform_tuple(45, 5), q, ledger)
    assert ledger.entries == []


class Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"a refused call touched the generator ({name})")


# name -> (the arguments it takes, call(x, rng, ledger, args))
MECHANISM_CALLS = {
    "identity_gp_inf": (("budget",), lambda x, r, led, a: identity_gp_inf(x, a["budget"], r, led)),
    "identity_cgp_inf": (("budget",), lambda x, r, led, a: identity_cgp_inf(x, a["budget"], r, led)),
    "identity_gp_l2": (("budget",), lambda x, r, led, a: identity_gp_l2(x, a["budget"], r, led)),
    "identity_cgp_l2": (("budget",), lambda x, r, led, a: identity_cgp_l2(x, a["budget"], r, led)),
    "svt": (
        ("budget", "threshold", "max_steps"),
        lambda x, r, led, a: svt(
            x, a["budget"], a["threshold"], 1.0, value_queries([1.0] * 4), a["max_steps"], r, led
        ),
    ),
    "pnn": (("budget", "query"), lambda x, r, led, a: pnn(x, a["query"], [1, 2, 3], a["budget"], r, led)),
    "kpnn": (("budget", "query", "k"), lambda x, r, led, a: kpnn(x, a["query"], a["k"], a["budget"], r, led)),
    "kpnn_gp": (
        ("budget", "query", "k"),
        lambda x, r, led, a: kpnn_gp(x, a["query"], a["k"], a["budget"], r, led),
    ),
    # the anchor stage, at half of a CGP hull release's budget and beta
    "anchor_stage": (
        ("budget", "beta", "k"),
        lambda x, r, led, a: private_convex_hull(x, 2 * a["budget"], 2 * a["beta"], r, a["k"], led),
    ),
    "private_convex_hull": (
        ("budget", "beta", "k"),
        lambda x, r, led, a: private_convex_hull(x, a["budget"], a["beta"], r, a["k"], led),
    ),
    "private_convex_hull_gp": (
        ("budget", "beta", "k"),
        lambda x, r, led, a: private_convex_hull_gp(x, a["budget"], a["beta"], r, a["k"], led),
    ),
}
GOOD_ARGS = {"budget": 1.0, "threshold": 2.0, "max_steps": 4, "query": [500.0, 500.0], "k": 3, "beta": 0.05}
BAD_ARGS = {
    # 1e-320 is subnormal: a noise scale it buys overflows to inf
    "budget": [math.inf, math.nan, 0.0, -1.0, 1e-320],
    "threshold": [math.nan, math.inf, -math.inf],
    "max_steps": [0, 2.5, math.inf, math.nan],
    "query": [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]],
    "k": [0, 2.5, "3"],
    "beta": [0.0, 1.0, math.nan],
}


@pytest.mark.parametrize(
    "name, arg, value",
    [
        (name, arg, value)
        for name, (takes, _) in sorted(MECHANISM_CALLS.items())
        for arg in takes
        for value in BAD_ARGS[arg]
        # kpnn's scan rate sqrt(2 rho / k) keeps its scales finite at 1e-320
        if (name, value) != ("kpnn", 1e-320)
    ],
)
def test_bad_arguments_are_refused_before_any_charge_or_draw(name, arg, value):
    _, call = MECHANISM_CALLS[name]
    rng = RandomStream(0)
    rng._generator = Untouchable()
    ledger = BudgetLedger(GpBudget(1.0))
    x = uniform_tuple(46, 10)
    with pytest.raises(ValueError):
        call(x, rng, ledger, {**GOOD_ARGS, arg: value})
    assert ledger.entries == []
    # with the good value the same call goes through
    call(x, RandomStream(0), None, GOOD_ARGS)
