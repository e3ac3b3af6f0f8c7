"""Property tests over random tuple sizes, neighbour counts, budgets and
failure probabilities, including n = 1, k = n, duplicate points and
Mercator-scale coordinates: for both the GP and the CGP calibration, every
composite mechanism's ledger closes, and the zero-noise k nearest
neighbours are exactly the brute-force ones."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopriv.accounting import BudgetLedger, CgpBudget, GpBudget
from geopriv.geometry import PointTuple
from geopriv.mechanisms import (
    PchParams,
    kpnn,
    kpnn_gp,
    pch_anchors_detailed,
    pnn,
    private_convex_hull,
    private_convex_hull_gp,
)
from geopriv.noise import RandomStream
from helpers import brute_knn

Q = [500.0, 500.0]

# name -> (budget type, call(case, rng, ledger))
MECHANISMS = {
    "pnn": (GpBudget, lambda c, rng, led: pnn(c.x, Q, range(1, c.x.n + 1), c.budget, rng, ledger=led)),
    "kpnn": (CgpBudget, lambda c, rng, led: kpnn(c.x, Q, c.k, c.budget, rng, ledger=led)),
    "kpnn_gp": (GpBudget, lambda c, rng, led: kpnn_gp(c.x, Q, c.k, c.budget, rng, ledger=led)),
    "pch_anchors_detailed": (
        CgpBudget,
        lambda c, rng, led: pch_anchors_detailed(
            c.x, PchParams(rho=c.budget, beta=c.beta, k=c.hull_k, k_clamp=(3, 24)), rng, led
        ),
    ),
    "private_convex_hull": (
        CgpBudget,
        lambda c, rng, led: private_convex_hull(
            c.x, c.budget, c.beta, rng, k=c.hull_k, k_clamp=(3, 24), ledger=led
        ),
    ),
    "private_convex_hull_gp": (
        GpBudget,
        lambda c, rng, led: private_convex_hull_gp(
            c.x, c.budget, c.beta, rng, k=c.hull_k, k_clamp=(3, 24), ledger=led
        ),
    ),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    points = np.random.default_rng(seed).random((n, 2)) * 1000.0
    if draw(st.booleans()):
        points[n // 2 :] = points[0]  # duplicates
    points += draw(st.sampled_from([0.0, 1e7]))  # Mercator-scale offset
    return SimpleNamespace(
        x=PointTuple(points),
        k=draw(st.integers(1, n)),
        budget=10.0 ** draw(st.floats(-3.0, 1.0)),
        beta=draw(st.floats(0.001, 0.5)),
        hull_k=draw(st.sampled_from(["auto", 3, 7])),
        seed=seed,
    )


@pytest.mark.parametrize("name", sorted(MECHANISMS))
@settings(max_examples=25, deadline=None, database=None)
@given(case=cases())
def test_ledger_closes(name, case):
    budget_type, mech = MECHANISMS[name]
    ledger = BudgetLedger(budget_type(case.budget))
    mech(case, RandomStream(case.seed), ledger)
    ledger.close()


@pytest.mark.parametrize("select", [kpnn, kpnn_gp])
@settings(max_examples=50, deadline=None, database=None)
@given(case=cases())
def test_zero_noise_knn_is_brute_force(select, case):
    # ties, duplicates included, resolve to the lowest index
    got = select(case.x, Q, case.k, case.budget, RandomStream(case.seed, zero_noise=True))
    assert list(got) == brute_knn(case.x.points, Q, case.k)
