"""White-box noise audit: each mechanism release draws noise that covers the
budget its ledger entry charges.

The samplers are recorded where ``geopriv.mechanisms`` binds them, so each
draw's scale is seen as the calibration computed it.  A draw of ``rows``
rows pays for the next ledger entry spread over its rows, except that the
hull's ``release_j`` entries are paid one per row.  A GP charge eps per row
needs a planar-Laplace rate of at most eps / Delta; a CGP charge rho per
row needs sigma^2 >= Delta^2 / (2 rho), with Delta = sqrt(2) for the
bounding-box centre and 1 elsewhere.  Scan noise (the ``probe_j`` entries)
is not audited here.
"""

import math

import numpy as np
import pytest

from geopriv import mechanisms
from geopriv.accounting import BudgetLedger, CgpBudget, GpBudget
from geopriv.geometry import PointTuple
from geopriv.noise import RandomStream

LIPSCHITZ = {"centre": math.sqrt(2.0)}
REL_TOL = 1e-12
EPS, RHO, BETA = 0.5, 0.01, 0.05

CASES = {
    "identity_gp_inf": (GpBudget(EPS), lambda x, r, led: mechanisms.identity_gp_inf(x, EPS, r, led)),
    "identity_cgp_inf": (CgpBudget(RHO), lambda x, r, led: mechanisms.identity_cgp_inf(x, RHO, r, led)),
    "identity_gp_l2": (GpBudget(EPS), lambda x, r, led: mechanisms.identity_gp_l2(x, EPS, r, led)),
    "identity_cgp_l2": (CgpBudget(RHO), lambda x, r, led: mechanisms.identity_cgp_l2(x, RHO, r, led)),
    "private_convex_hull": (
        CgpBudget(RHO),
        lambda x, r, led: mechanisms.private_convex_hull(x, RHO, BETA, r, ledger=led),
    ),
    "private_convex_hull_k7": (
        CgpBudget(RHO),
        lambda x, r, led: mechanisms.private_convex_hull(x, RHO, BETA, r, k=7, ledger=led),
    ),
    "private_convex_hull_gp": (
        GpBudget(EPS),
        lambda x, r, led: mechanisms.private_convex_hull_gp(x, EPS, BETA, r, ledger=led),
    ),
    "private_convex_hull_gp_k7": (
        GpBudget(EPS),
        lambda x, r, led: mechanisms.private_convex_hull_gp(x, EPS, BETA, r, k=7, ledger=led),
    ),
}


def record_draws(monkeypatch) -> list[tuple[str, float, int]]:
    """Log (sampler, scale, rows) for every release draw the mechanisms make."""
    draws = []
    for name in ("sample_planar_laplace", "sample_gaussian_vec"):
        sampler = getattr(mechanisms, name)

        def recorder(dim, scale, rng, size=None, _name=name, _sampler=sampler):
            draws.append((_name, scale, 1 if size is None else size))
            return _sampler(dim, scale, rng, size=size)

        monkeypatch.setattr(mechanisms, name, recorder)
    return draws


def pair(entries, draws):
    """Each draw with the ledger entries it pays for: (sampler, scale, [(label, charge per row)])."""
    entries = [e for e in entries if not e[0].startswith("probe_")]
    out = []
    for name, scale, rows in draws:
        if entries[0][0].startswith("release_"):
            paid, entries = entries[:rows], entries[rows:]
        else:
            (label, amount), entries = entries[0], entries[1:]
            paid = [(label, amount / rows)]
        out.append((name, scale, paid))
    assert not entries, f"charges without a release draw: {entries}"
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_release_covers_its_charge(case, seed, monkeypatch):
    budget, mech = CASES[case]
    draws = record_draws(monkeypatch)
    x = PointTuple(np.random.default_rng(seed).random((40, 2)) * 1000.0)
    ledger = BudgetLedger(budget)
    mech(x, RandomStream(seed, 17), ledger)
    ledger.close()
    assert draws
    gp = isinstance(budget, GpBudget)
    for name, scale, paid in pair(ledger.entries, draws):
        assert name == ("sample_planar_laplace" if gp else "sample_gaussian_vec")
        for label, charge in paid:
            delta = LIPSCHITZ.get(label, 1.0)
            if gp:
                assert scale <= charge / delta * (1.0 + REL_TOL), (label, scale, charge)
            else:
                assert scale**2 >= delta**2 / (2.0 * charge) * (1.0 - REL_TOL), (label, scale, charge)


def test_hull_pays_each_release_in_one_draw(monkeypatch):
    draws = record_draws(monkeypatch)
    ledger = BudgetLedger(CgpBudget(RHO))
    x = PointTuple(np.random.default_rng(3).random((40, 2)) * 1000.0)
    mechanisms.private_convex_hull(x, RHO, BETA, RandomStream(3, 17), k=7, ledger=ledger)
    labels = [label for _, _, paid in pair(ledger.entries, draws) for label, _ in paid]
    assert labels == ["centre", "radius"] + [f"release_{j}" for j in range(1, 8)]
    assert [rows for _, _, rows in draws] == [1, 1, 7]
