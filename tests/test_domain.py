"""The input domain, public function by public function: every rate, scale,
probability and count outside it raises ValueError before any draw or
charge (README, "Input domain")."""

import math

import numpy as np
import pytest

from geopriv import accounting, dataset, mechanisms, noise, statcheck
from geopriv.accounting import BudgetLedger, GpBudget
from geopriv.bench import ExperimentConfig
from geopriv.geometry import PointTuple
from geopriv.noise import RandomStream

NAN, INF = math.nan, math.inf

# the values each rule refuses
BAD = {
    "positive": [-1.0, NAN, INF, 0.0],
    "nonnegative": [-1.0, NAN, INF],
    "probability": [-1.0, NAN, INF, 0.0, 1.0],
    "delta below 1": [-1.0, NAN, INF, 1.0],
    "above 1": [-1.0, NAN, INF, 0.0, 1.0],
    "finite": [NAN, INF, -INF],
    "nonnegative and finite": [-1.0, NAN, INF, -INF],
    "count": [-1, NAN, INF, 0, 2.5],
    "size": [-1, NAN, INF, 2.5],
    "samples, at least 2": [-1, NAN, INF, 0, 2.5, 1],
    "hull k, at least 3": [-1, NAN, INF, 0, 2.5, 2],
}

X = PointTuple(np.random.default_rng(7).random((10, 2)) * 1000.0)
Q = [500.0, 500.0]


def knn(f):
    return lambda a, r, led: f(X, Q, a["k"], a["budget"], r, led)


def hull(f):
    return lambda a, r, led: f(X, a["budget"], a["beta"], r, a["k"], led)


def config(a, r, led):
    grids = {name: [a[name]] for name in ("rho_grid", "eps_grid", "n_grid", "k_grid")}
    fields = ("trials", "collections", "samples", "beta", "delta", "min_eps_dist", "extent")
    return ExperimentConfig(task="knn", **grids, **{name: a[name] for name in fields})


BUDGET = {"budget": ("positive", 1.0)}
# name -> (call(args, rng, ledger), {argument: (rule, a value inside the domain)})
CALLS = {
    "noise.sample_laplace": (
        lambda a, r, led: noise.sample_laplace(a["scale"], r, a["size"]),
        {"scale": ("positive", 1.0), "size": ("size", 3)},
    ),
    "noise.sample_gaussian_vec": (
        lambda a, r, led: noise.sample_gaussian_vec(a["dim"], a["sigma"], r, a["size"]),
        {"dim": ("count", 2), "sigma": ("positive", 1.0), "size": ("size", 3)},
    ),
    "noise.sample_planar_laplace": (
        lambda a, r, led: noise.sample_planar_laplace(a["dim"], a["eps"], r, a["size"]),
        {"dim": ("count", 2), "eps": ("positive", 1.0), "size": ("size", 3)},
    ),
    "accounting.GpBudget": (
        lambda a, r, led: accounting.GpBudget(a["eps"], a["delta"]),
        {"eps": ("nonnegative", 1.0), "delta": ("nonnegative", 0.0)},
    ),
    "accounting.CgpBudget": (lambda a, r, led: accounting.CgpBudget(a["rho"]), {"rho": ("nonnegative", 1.0)}),
    "accounting.RelaxedGpBudget": (
        lambda a, r, led: accounting.RelaxedGpBudget(a["eps"], a["delta"], a["dist_cap"]),
        {"eps": ("nonnegative", 1.0), "delta": ("delta below 1", 0.0), "dist_cap": ("positive", 1.0)},
    ),
    "accounting.gp_to_cgp": (lambda a, r, led: accounting.gp_to_cgp(a["eps"]), {"eps": ("nonnegative", 1.0)}),
    "accounting.cgp_to_relaxed_gp": (
        lambda a, r, led: accounting.cgp_to_relaxed_gp(a["rho"], a["delta"], a["dist_cap"]),
        {"rho": ("nonnegative", 1.0), "delta": ("probability", 0.1), "dist_cap": ("positive", 1.0)},
    ),
    "accounting.matched_gp_budget": (
        lambda a, r, led: accounting.matched_gp_budget(a["rho"], a["delta"], a["min_eps_dist"]),
        {"rho": ("positive", 1.0), "delta": ("probability", 0.1), "min_eps_dist": ("positive", 10.0)},
    ),
    **{
        f"mechanisms.{name}": (
            lambda a, r, led, f=getattr(mechanisms, name): f(X, a["budget"], r, led),
            BUDGET,
        )
        for name in ("identity_gp_inf", "identity_cgp_inf", "identity_gp_l2", "identity_cgp_l2")
    },
    "mechanisms.svt": (
        lambda a, r, led: mechanisms.svt(
            X, a["budget"], 2.0, a["lipschitz"], [lambda _x: 1.0] * 4, a["max_steps"], r, led
        ),
        {**BUDGET, "lipschitz": ("positive", 1.0), "max_steps": ("count", 4)},
    ),
    "mechanisms.pnn": (lambda a, r, led: mechanisms.pnn(X, Q, [1, 2, 3], a["budget"], r, led), BUDGET),
    "mechanisms.kpnn": (knn(mechanisms.kpnn), {**BUDGET, "k": ("count", 3)}),
    "mechanisms.kpnn_gp": (knn(mechanisms.kpnn_gp), {**BUDGET, "k": ("count", 3)}),
    "mechanisms.private_convex_hull": (
        hull(mechanisms.private_convex_hull),
        {**BUDGET, "beta": ("probability", 0.05), "k": ("hull k, at least 3", 3)},
    ),
    "mechanisms.private_convex_hull_gp": (
        hull(mechanisms.private_convex_hull_gp),
        {**BUDGET, "beta": ("probability", 0.05), "k": ("hull k, at least 3", 3)},
    ),
    "statcheck.check_gp_radial_tail": (
        lambda a, r, led: statcheck.check_gp_radial_tail(a["eps"], (1.0, a["radius"]), a["samples"], r),
        {"eps": ("positive", 1.0), "radius": ("nonnegative and finite", 3.0), "samples": ("count", 100)},
    ),
    "statcheck.check_cgp_radial_tail": (
        lambda a, r, led: statcheck.check_cgp_radial_tail(a["rho"], (0.5, a["radius"]), a["samples"], r),
        {"rho": ("positive", 1.0), "radius": ("nonnegative and finite", 1.0), "samples": ("count", 100)},
    ),
    "statcheck.accept_probability": (
        lambda a, r, led: statcheck.accept_probability(1.0, a["scale"]),
        {"scale": ("positive", 1.0)},
    ),
    "statcheck.check_expected_draws": (
        lambda a, r, led: statcheck.check_expected_draws(a["b"], a["samples"], r),
        {"b": ("positive", 1.0), "samples": ("samples, at least 2", 100)},
    ),
    "statcheck.renyi_divergence_gaussian_quadrature": (
        lambda a, r, led: statcheck.renyi_divergence_gaussian_quadrature(
            a["mu1"], a["mu2"], a["sigma"], a["alpha"]
        ),
        {"mu1": ("finite", 0.0), "mu2": ("finite", 1.0), "sigma": ("positive", 1.0), "alpha": ("above 1", 2.0)},
    ),
    "statcheck.check_renyi_gaussian": (
        lambda a, r, led: statcheck.check_renyi_gaussian(a["mu1"], a["mu2"], a["sigma"]),
        {"mu1": ("finite", 0.0), "mu2": ("finite", 1.0), "sigma": ("positive", 1.0)},
    ),
    "statcheck.check_gaussian_mech_divergence": (
        lambda a, r, led: statcheck.check_gaussian_mech_divergence(a["rho"]),
        {"rho": ("positive", 1.0)},
    ),
    "statcheck.check_laplace_sum_pdf": (
        lambda a, r, led: statcheck.check_laplace_sum_pdf(a["b"], a["samples"], r),
        {"b": ("positive", 1.0), "samples": ("count", 100)},
    ),
    "statcheck.check_planar_laplace_mean": (
        lambda a, r, led: statcheck.check_planar_laplace_mean(a["dim"], a["eps"], a["samples"], r),
        {"dim": ("count", 2), "eps": ("positive", 1.0), "samples": ("count", 100)},
    ),
    "dataset.sample_points": (lambda a, r, led: dataset.sample_points(X, a["n"], r), {"n": ("count", 4)}),
    "dataset.query_point_pool": (
        lambda a, r, led: dataset.query_point_pool([X], a["cell"]),
        {"cell": ("positive", 100.0)},
    ),
    "bench.ExperimentConfig": (
        config,
        {
            **{name: ("count", 4) for name in ("trials", "collections", "samples", "n_grid", "k_grid")},
            **{name: ("positive", 1e-3) for name in ("rho_grid", "eps_grid")},
            **{name: ("probability", 0.05) for name in ("beta", "delta")},
            "min_eps_dist": ("positive", 10.0),
            "extent": ("positive", 1000.0),
        },
    ),
}


class Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"a refused call touched the generator ({name})")


def good_args(name: str) -> dict:
    return {arg: good for arg, (_, good) in CALLS[name][1].items()}


@pytest.mark.parametrize(
    "name, arg, value",
    [
        (name, arg, value)
        for name, (_, takes) in CALLS.items()
        for arg, (rule, _) in takes.items()
        for value in BAD[rule]
    ],
)
def test_outside_the_domain_is_refused_before_any_draw_or_charge(name, arg, value):
    rng = RandomStream(0)
    rng._generator = Untouchable()
    ledger = BudgetLedger(GpBudget(1.0))
    with pytest.raises(ValueError):
        CALLS[name][0]({**good_args(name), arg: value}, rng, ledger)
    assert ledger.entries == []


@pytest.mark.parametrize("name", CALLS)
def test_inside_the_domain_goes_through(name):
    CALLS[name][0](good_args(name), RandomStream(0), None)


@pytest.mark.parametrize(
    "call",
    [
        lambda: statcheck.check_renyi_gaussian(0.0, 1.0, 1e6),
        lambda: statcheck.check_renyi_gaussian(0.0, 1.0, 1e-6),
        lambda: statcheck.check_gaussian_mech_divergence(1e-300),
    ],
    ids=["sigma=1e6", "sigma=1e-6", "rho=1e-300"],
)
def test_a_quadrature_far_from_unit_sigma_passes(call):
    # each of these used to miss the adaptive quadrature's tolerance
    assert call().passed


@pytest.mark.parametrize(
    "call",
    [
        lambda: statcheck.check_gaussian_mech_divergence(1e300),
        lambda: statcheck.check_renyi_gaussian(0.0, 1.0, 5e-324),
        lambda: statcheck.renyi_divergence_gaussian_quadrature(0.0, 1.0, 1.0, 1e101),
    ],
    ids=["rho=1e300", "sigma=5e-324", "alpha=1e101"],
)
def test_a_gap_the_quadrature_cannot_square_is_refused(call):
    # a RuntimeWarning fails the test: the refusal comes before any array
    with pytest.raises(ValueError, match="too large for the quadrature"):
        call()


def test_a_nan_statistic_fails(monkeypatch):
    # max(worst, nan) keeps worst: such a check used to PASS with statistic 0
    monkeypatch.setattr(statcheck, "renyi_divergence_gaussian_quadrature", lambda *args: NAN)
    for report in (statcheck.check_renyi_gaussian(0.0, 1.0, 1.0), statcheck.check_gaussian_mech_divergence(1.0)):
        assert math.isnan(report.statistic) and not report.passed
    monkeypatch.setattr(statcheck, "_binomial_band", lambda p, samples: NAN)
    report = statcheck.check_gp_radial_tail(1.0, (1.0, 3.0), 100, RandomStream(0))
    assert math.isnan(report.statistic) and not report.passed


def test_a_radius_of_zero_goes_through():
    # survival at 0 is 1 for both references: every draw's norm exceeds 0
    for check in (statcheck.check_gp_radial_tail, statcheck.check_cgp_radial_tail):
        assert check(1.0, (0.0,), 100, RandomStream(0)).passed


def test_a_gate_scale_past_the_largest_double_is_refused_before_any_draw():
    # 2b overflows at b = 1e308, where b itself is finite
    rng = RandomStream(0)
    rng._generator = Untouchable()
    with pytest.raises(ValueError, match="gate scale 2b"):
        statcheck.check_expected_draws(1e308, 100, rng)


def test_the_ks_check_takes_a_scale_past_the_square_root_of_the_largest_double():
    # the exact CDF divides by b once: nothing squares it
    report = statcheck.check_laplace_sum_pdf(1e200, 1000, RandomStream(0))
    assert report.samples == 1000 and math.isfinite(report.statistic)
