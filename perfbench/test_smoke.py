"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, in both modes, must emit exactly the metrics BENCHMARK.json
names, with their units, and pass its output checks.  The seed must be
honoured: a second seed runs clean and writes a different CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
FULL_SIZE_NAMES = list(run.WORKLOADS)

TINY = {
    "knn-sweep": "knn --rho-grid 1e-2 --n-grid 64 --k-grid 4 --trials 2 --collections 1 --extent 1000",
    "hull-sweep": "hull --rho-grid 1e-2 --n-grid 128 --trials 1 --collections 1 --extent 1000",
    "identity-sweep": "identity --rho-grid 1e-2 --n-grid 64 --trials 2 --collections 1",
    "verify": "verify --samples 200000",
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_TIMED_SWEEPS", 1)


def bench(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    *_, record, result = capsys.readouterr().out.splitlines()
    return json.loads(record), json.loads(result)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY) == FULL_SIZE_NAMES


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_and_a_second_seed(capsys, workload):
    shas = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = bench(capsys, workload, 0, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        assert set(record["env"]) == {"nproc", "cpu", "python", "numpy", "scipy"}
        shas[trace] = record["csv_sha256"]
    assert shas[0] == shas[1]  # traced sweeps write the untraced bytes
    record, result = bench(capsys, workload, 1, 0)
    assert result["correct"] and result["failed"] == 0
    assert record["csv_sha256"] != shas[0]


def test_uncalled_spans_report_zero(capsys):
    _, result = bench(capsys, "identity-sweep", 0, 1)
    metrics = result["metrics"]
    assert metrics["mechanisms.kpnn.calls"]["value"] == 0
    assert metrics["hull.convex_hull.calls"]["value"] == 0
    assert metrics["geometry.dist_inf.calls"]["value"] > 0


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
