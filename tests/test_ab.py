"""Smoke test of the in-process A/B harness, ``benchmarks/ab.py``, on a
one-trial identity grid: two imports of this checkout write the same CSV,
and sides whose CSVs differ get no report."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = "identity --rho-grid 1e-3,1e-2 --n-grid 64 --trials 1 --collections 1 --seed 0".split()


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m.startswith("geopriv_ab")]:
        del sys.modules[name]


@pytest.mark.parametrize("serial", [False, True])
def test_two_copies_of_one_tree_write_equal_csvs(ab, serial):
    report = ab.compare([ROOT, ROOT], TINY, rounds=1, serial=serial)
    assert len(report["csv_sha256"]) == 64
    assert [s["tree"] for s in report["sides"]] == [str(ROOT)] * 2
    assert report["sides"][0]["cpu_ratio"] == 1.0
    assert all(s["median_wall_s"] > 0 and s["faster_cpu_rounds"] in (0, 1) for s in report["sides"])


def test_sides_with_different_csvs_get_no_report(ab, monkeypatch):
    monkeypatch.setattr(ab, "_sweep", lambda bench, argv, out: (1.0, 1.0, 0, bench.__name__))
    with pytest.raises(ValueError, match="different CSVs"):
        ab.compare([ROOT, ROOT], TINY, rounds=1)


def test_the_workload_argv_is_perfbench_s(ab):
    assert ab.workload_argv("identity-sweep", 3)[:1] == ["identity"]
    assert ab.workload_argv("identity-sweep", 3)[-2:] == ["--seed", "3"]
