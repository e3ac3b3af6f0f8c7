"""Behaviour lock: CLI CSVs and seeded mechanism outputs compared byte for
byte with the files under ``tests/golden/``.

A deliberate change to a draw stream, a noise scale or a ledger label must
re-baseline these files in the same change and name it in CHANGES.md.
Regenerate with::

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each file whose bytes it changed.
"""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from geopriv.accounting import BudgetLedger, CgpBudget, GpBudget
from geopriv.bench import main
from geopriv.geometry import PointTuple
from geopriv.mechanisms import (
    HullResult,
    identity_cgp_inf,
    identity_cgp_l2,
    identity_gp_inf,
    identity_gp_l2,
    kpnn,
    kpnn_gp,
    private_convex_hull,
    private_convex_hull_gp,
)
from geopriv.noise import RandomStream

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "identity": "identity --rho-grid 1e-3,1e-2 --n-grid 64,256 --trials 3 --collections 2 --seed 7",
    "knn": "knn --rho-grid 1e-3,1e-2 --n-grid 128 --k-grid 4,16 --trials 3 --collections 2 --seed 7",
    "knn_eps": "knn --eps-grid 0.05,0.5 --n-grid 128 --k-grid 8 --trials 3 --collections 2 --seed 7",
    # two n: pins the (ni, ki) indices of the mechanism stream keys and the k > n skip
    "knn_multi_n": "knn --rho-grid 1e-3,1e-2 --n-grid 64,128 --k-grid 4,100 --trials 3 --collections 2 --seed 7",
    "knn_true_walk": (
        "knn --rho-grid 1e-3,1e-2 --n-grid 128 --k-grid 4,16 --trials 3 --collections 2 --seed 7 "
        "--baseline-true-locations --input synthetic-walk"
    ),
    "hull": "hull --rho-grid 1e-3,1e-2 --n-grid 256 --trials 2 --collections 2 --seed 7",
    "hull_walk_multi_n": (
        "hull --rho-grid 1e-3,1e-2 --n-grid 64,200 --trials 2 --collections 2 --seed 7 --input synthetic-walk"
    ),
    "hull_zero_noise": "hull --rho-grid 1e-3 --n-grid 256 --trials 1 --collections 2 --zero-noise --seed 7",
    "verify": "verify --samples 20000 --seed 7",
    # three 65536-row draw chunks: pins the chunked planar-noise stream
    "verify_chunks": "verify --samples 140000 --seed 7",
}

SEEDS = (1, 2, 3)


def run_cli(name: str, out: Path) -> bytes:
    assert main(shlex.split(CLI_CASES[name]) + ["--out", str(out)]) == 0
    return out.read_bytes()


def _record(result, ledger: BudgetLedger) -> dict:
    if isinstance(result, PointTuple):
        result = result.points.tolist()
    elif isinstance(result, HullResult):
        result = {"anchors": result.anchors, "points": result.points.tolist(), "info": _info(result.info)}
    return {"result": result, "ledger": [[label, amount] for label, amount in ledger.entries]}


def _info(info) -> dict:
    return {
        "center": info.center.tolist(),
        "radius": info.radius,
        "k": info.k,
        "probe_budget": info.probe_budget,
    }


def mechanism_outputs(seeds=SEEDS) -> dict:
    """Seeded outputs and ledger entries of every public GP/CGP mechanism."""
    rho, eps, beta = 0.01, 0.5, 0.05
    cases = {
        "identity_gp_inf": (GpBudget(eps), lambda x, r, led: identity_gp_inf(x, eps, r, led)),
        "identity_cgp_inf": (CgpBudget(rho), lambda x, r, led: identity_cgp_inf(x, rho, r, led)),
        "identity_gp_l2": (GpBudget(eps), lambda x, r, led: identity_gp_l2(x, eps, r, led)),
        "identity_cgp_l2": (CgpBudget(rho), lambda x, r, led: identity_cgp_l2(x, rho, r, led)),
        "kpnn": (CgpBudget(rho), lambda x, r, led: kpnn(x, [500.0, 500.0], 5, rho, r, ledger=led)),
        "kpnn_gp": (GpBudget(eps), lambda x, r, led: kpnn_gp(x, [500.0, 500.0], 5, eps, r, ledger=led)),
        "private_convex_hull": (
            CgpBudget(rho),
            lambda x, r, led: private_convex_hull(x, rho, beta, r, ledger=led),
        ),
        "private_convex_hull_k6": (
            CgpBudget(rho),
            lambda x, r, led: private_convex_hull(x, rho, beta, r, k=6, ledger=led),
        ),
        "private_convex_hull_gp": (
            GpBudget(eps),
            lambda x, r, led: private_convex_hull_gp(x, eps, beta, r, ledger=led),
        ),
    }
    out = {}
    for seed in seeds:
        x = PointTuple(np.random.default_rng(seed).random((40, 2)) * 1000.0)
        for name, (budget, mech) in cases.items():
            ledger = BudgetLedger(budget)
            out[f"{name}/seed{seed}"] = _record(mech(x, RandomStream(seed, 17), ledger), ledger)
    return out


def render_mechanisms(seeds=SEEDS) -> str:
    """JSON with one line per case; floats in round-trip form."""
    cases = sorted(mechanism_outputs(seeds).items())
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in cases) + "\n}\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_csv_matches_golden(name, tmp_path):
    assert run_cli(name, tmp_path / f"{name}.csv") == (GOLDEN / f"{name}.csv").read_bytes()


def test_mechanism_outputs_match_golden():
    assert render_mechanisms() == (GOLDEN / "mechanisms.json").read_text(encoding="utf-8")


def _rebaseline(path: Path, write) -> None:
    """``write(path)``, then print the file's name if its bytes changed."""
    before = path.read_bytes() if path.exists() else None
    write(path)
    if path.read_bytes() != before:
        print(path.name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _rebaseline(GOLDEN / "mechanisms.json", lambda p: p.write_text(render_mechanisms(), encoding="utf-8"))
    for case in CLI_CASES:
        _rebaseline(GOLDEN / f"{case}.csv", lambda p, case=case: run_cli(case, p))
