"""White-box noise audit: each charge on a mechanism's ledger is paid by
noise that covers it.

The samplers and the array scan are recorded where ``geopriv.mechanisms``
binds them, so each draw's scale is seen as the mechanism computed it.  The
charges and the draws come in a fixed order, and ``pair`` splits both into
payments:

- a release: one draw pays the next entry spread over its rows, except that
  the hull's ``release_j`` entries are paid one per row.  A GP charge eps
  per row needs a planar-Laplace rate of at most eps / Delta; a CGP charge
  rho per row needs sigma^2 >= Delta^2 / (2 rho), with Delta = sqrt(2) for
  the bounding-box centre and 1 elsewhere.
- a private nearest-neighbour step (``pnn``'s three entries, or one
  ``round_j`` or ``probe_j``): two scalar Laplace draws, then one scan.  A
  step at GP rate r needs scales of at least 3/r, 3/r and 6/r (the split of
  Lyu, Su & Li, VLDB 2017, Alg. 1).  r is the charge itself under GP; a
  CGP share s affords r <= sqrt(2 s), since an r-GP scan is r^2/2-CGP.
- ``svt`` at eps over K-Lipschitz queries (its two entries): one Laplace
  draw of at least 2K/eps, then one scan of at least 4K/eps.

The required scales come from the charges alone, never from the
calibration under audit.
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
# A CGP share above 1/2, where 2 s > sqrt(2 s): below it a scan rate of 2 s
# in place of sqrt(2 s) would only add noise.
WIDE_RHO = 4.0
SVT_K = 2.0
Q = [500.0, 500.0]
STEP = (("sample_laplace", 3.0), ("sample_laplace", 3.0), ("_scan", 6.0))

CASES = {
    "identity_gp_inf": (GpBudget(EPS), lambda x, r, led: mechanisms.identity_gp_inf(x, EPS, r, led)),
    "identity_cgp_inf": (CgpBudget(RHO), lambda x, r, led: mechanisms.identity_cgp_inf(x, RHO, r, led)),
    "identity_gp_l2": (GpBudget(EPS), lambda x, r, led: mechanisms.identity_gp_l2(x, EPS, r, led)),
    "identity_cgp_l2": (CgpBudget(RHO), lambda x, r, led: mechanisms.identity_cgp_l2(x, RHO, r, led)),
    "svt": (
        GpBudget(EPS),
        lambda x, r, led: mechanisms.svt(x, EPS, 0.0, SVT_K, [lambda _x: 1e6] * 300, 300, r, led),
    ),
    "pnn": (GpBudget(EPS), lambda x, r, led: mechanisms.pnn(x, Q, range(1, x.n + 1), EPS, r, led)),
    "kpnn": (CgpBudget(RHO), lambda x, r, led: mechanisms.kpnn(x, Q, 5, RHO, r, led)),
    "kpnn_wide": (CgpBudget(WIDE_RHO), lambda x, r, led: mechanisms.kpnn(x, Q, 2, WIDE_RHO, r, led)),
    "kpnn_gp": (GpBudget(EPS), lambda x, r, led: mechanisms.kpnn_gp(x, Q, 5, EPS, r, led)),
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
    """Log (sampler, scale, rows) for every draw the mechanisms make; a scan
    is logged once, with the scale of all its per-query draws."""
    draws = []
    for name in ("sample_planar_laplace", "sample_gaussian_vec"):
        sampler = getattr(mechanisms, name)

        def recorder(dim, scale, rng, size=None, _name=name, _sampler=sampler):
            draws.append((_name, scale, 1 if size is None else size))
            return _sampler(dim, scale, rng, size=size)

        monkeypatch.setattr(mechanisms, name, recorder)

    laplace, scan = mechanisms.sample_laplace, mechanisms._scan

    def laplace_recorder(scale, rng):
        draws.append(("sample_laplace", scale, 1))
        return laplace(scale, rng)

    def scan_recorder(block, gate, scale, max_steps, rng):
        draws.append(("_scan", scale, 1))
        return scan(block, gate, scale, max_steps, rng)

    monkeypatch.setattr(mechanisms, "sample_laplace", laplace_recorder)
    monkeypatch.setattr(mechanisms, "_scan", scan_recorder)
    return draws


def payment(label):
    """The kind of the payment that starts at ``label``, and how many ledger
    entries and draws it spans."""
    if label == "pnn_threshold":
        return "step", 3, 3
    if label == "svt_threshold":
        return "svt", 2, 2
    if label.startswith(("round_", "probe_")):
        return "step", 1, 3
    return "release", 1, 1


def pair(entries, draws):
    """Split the ledger entries and the draws into payments, in order:
    (kind, [(label, charge per row)], [(sampler, scale)]).  A step's or an
    svt's one (label, charge) is its first label and the sum of its
    entries."""
    out = []
    while entries:
        label = entries[0][0]
        if label.startswith("release_"):
            (name, scale, rows), draws = draws[0], draws[1:]
            paid, entries = entries[:rows], entries[rows:]
            out.append(("release", paid, [(name, scale)]))
            continue
        kind, spans, count = payment(label)
        group, entries = entries[:spans], entries[spans:]
        drawn, draws = draws[:count], draws[count:]
        if kind == "release":
            ((name, scale, rows),) = drawn
            out.append((kind, [(label, group[0][1] / rows)], [(name, scale)]))
        else:
            out.append((kind, [(label, sum(amount for _, amount in group))], [d[:2] for d in drawn]))
    assert not draws, f"draws without a charge: {draws}"
    return out


def check(kind, paid, drawn, gp):
    """Assert that the draws cover the charges they pay for."""
    if kind == "release":
        ((name, scale),) = drawn
        assert name == ("sample_planar_laplace" if gp else "sample_gaussian_vec")
        for label, charge in paid:
            delta = LIPSCHITZ.get(label, 1.0)
            if gp:
                assert scale <= charge / delta * (1.0 + REL_TOL), (label, scale, charge)
            else:
                assert scale**2 >= delta**2 / (2.0 * charge) * (1.0 - REL_TOL), (label, scale, charge)
        return
    ((label, charge),) = paid
    if kind == "svt":
        need = (("sample_laplace", 2.0 * SVT_K), ("_scan", 4.0 * SVT_K))
    else:
        # the GP rate the step may spend
        charge = charge if gp else math.sqrt(2.0 * charge)
        need = STEP
    assert [name for name, _ in drawn] == [name for name, _ in need], (label, drawn)
    for (_, scale), (_, factor) in zip(drawn, need):
        assert scale >= factor / charge * (1.0 - REL_TOL), (label, scale, factor, charge)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_charge_is_covered_by_its_noise(case, seed, monkeypatch):
    budget, mech = CASES[case]
    draws = record_draws(monkeypatch)
    x = PointTuple(np.random.default_rng(seed).random((40, 2)) * 1000.0)
    ledger = BudgetLedger(budget)
    mech(x, RandomStream(seed, 17), ledger)
    ledger.close()
    assert draws
    gp = isinstance(budget, GpBudget)
    for kind, paid, drawn in pair(ledger.entries, draws):
        check(kind, paid, drawn, gp)


def test_hull_pays_each_release_in_one_draw(monkeypatch):
    draws = record_draws(monkeypatch)
    ledger = BudgetLedger(CgpBudget(RHO))
    x = PointTuple(np.random.default_rng(3).random((40, 2)) * 1000.0)
    mechanisms.private_convex_hull(x, RHO, BETA, RandomStream(3, 17), k=7, ledger=ledger)
    payments = pair(ledger.entries, draws)
    labels = [label for _, paid, _ in payments for label, _ in paid]
    assert labels == ["centre", "radius"] + [f"probe_{j}" for j in range(1, 8)] + [
        f"release_{j}" for j in range(1, 8)
    ]
    assert [kind for kind, _, _ in payments] == ["release"] * 2 + ["step"] * 7 + ["release"]
    assert [rows for name, _, rows in draws if name == "sample_gaussian_vec"] == [1, 1, 7]
