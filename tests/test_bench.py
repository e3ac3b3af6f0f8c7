import csv
import itertools
import logging
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import geopriv
from geopriv import bench, mechanisms, statcheck
from geopriv.bench import (
    ExperimentConfig,
    ResultRow,
    _build_parser,
    _collections,
    _sampled,
    config_from_args,
    main,
    render_csv,
    run_sweep,
    run_verify,
)
from geopriv.hull import convex_hull, jaccard
from geopriv.mechanisms import NonHaltError
from geopriv.noise import RandomStream

HEADER = "task,mechanism,n,budget,k,metric,mean,p25,p75,trials"


def test_the_package_exports_the_product_only():
    # test oracles and tuning knobs live in tests/helpers.py, not here
    assert geopriv.__all__ == [
        "BudgetError", "BudgetLedger", "CgpBudget", "ConvexPolygon", "GpBudget",
        "HullResult", "NonHaltError", "PchInfo", "PointTuple", "RandomStream",
        "RelaxedGpBudget", "SvtOutcome", "center", "cgp_to_relaxed_gp",
        "compose_cgp", "compose_gp", "convex_hull", "dist_2", "dist_inf",
        "gp_to_cgp", "identity_cgp_inf", "identity_cgp_l2", "identity_gp_inf",
        "identity_gp_l2", "jaccard", "kpnn", "kpnn_gp", "matched_gp_budget",
        "max_radius", "pnn", "private_convex_hull", "private_convex_hull_gp",
        "sample_gaussian_vec", "sample_laplace", "sample_planar_laplace", "svt",
    ]
    assert all(hasattr(geopriv, name) for name in geopriv.__all__)


def no_draw(*args, **kwargs):
    raise AssertionError("a refused config drew a stream")


def small_cfg(**kw):
    base = dict(
        rho_grid=[0.01],
        n_grid=[64],
        k_grid=[4],
        trials=3,
        collections=2,
        seed=5,
        extent=1000.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_default_budget_grid(self):
        cfg = ExperimentConfig()
        assert cfg.rho_grid == [1e-4, 1e-3, 1e-2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples"):
                ExperimentConfig(task="verify", samples=samples)
        with pytest.raises(ValueError):
            ExperimentConfig(n_grid=[])
        with pytest.raises(ValueError):
            ExperimentConfig(rho_grid=[0.1, 0.2], eps_grid=[1.0])
        with pytest.raises(ValueError, match="task"):
            ExperimentConfig(task="bogus")

    @pytest.mark.parametrize(
        "argv, field",
        [
            ("knn --k-grid 0", "k_grid"),
            ("knn --k-grid 4,-1", "k_grid"),
            ("identity --n-grid 0", "n_grid"),
            ("hull --rho-grid 0.01,0", "rho_grid"),
            ("knn --rho-grid=-1e-3", "rho_grid"),
            ("identity --eps-grid 0", "eps_grid"),
            ("knn --eps-grid 1,nan", "eps_grid"),
            ("hull --rho-grid inf", "rho_grid"),
            ("identity --eps-grid 1,inf", "eps_grid"),
            ("hull --beta 2", "beta"),
            ("hull --beta 0", "beta"),
            ("knn --delta 2", "delta"),
            ("knn --min-eps-dist=-1", "min_eps_dist"),
            ("identity --extent=-5", "extent"),
            ("identity --extent 0", "extent"),
            ("identity --extent inf", "extent"),
            # its hulls would be refused only after the data had drawn
            ("hull --extent 1e151", "extent"),
            # the CLI parses sizes as integers; through the API, a size that is
            # not one used to fail mid-sweep with TypeError
            (dict(task="identity", n_grid=[2.5]), "n_grid"),
            (dict(task="hull", n_grid=[64, 64.0]), "n_grid"),
            (dict(task="knn", k_grid=[2.5]), "k_grid"),
            (dict(task="knn", k_grid=["4"]), "k_grid"),
            (dict(task="identity", trials=2.5), "trials"),
            (dict(task="knn", collections=1.5), "collections"),
            (dict(task="verify", samples=1000.5), "samples"),
        ],
    )
    def test_non_positive_grid_entries_are_refused_before_any_draw(self, monkeypatch, argv, field):
        monkeypatch.setattr(bench, "RandomStream", no_draw)
        with pytest.raises(ValueError, match=field):
            if isinstance(argv, dict):
                cfg = ExperimentConfig(**{"trials": 1, "collections": 1, **argv})
                run_verify(cfg) if cfg.task == "verify" else run_sweep(cfg)
            else:
                main(argv.split() + ["--trials", "1", "--collections", "1"])

    def test_verify_needs_a_thousand_samples(self):
        # at 1 or 2 samples a KS threshold of 1.63 / sqrt(samples) passes every statistic
        for samples in (1, 999):
            with pytest.raises(ValueError, match="samples must be at least 1000"):
                main(["verify", "--samples", str(samples)])
        assert ExperimentConfig(task="verify", samples=1000).samples == 1000
        # the sweeps ignore samples and keep the floor of 1
        assert ExperimentConfig(task="knn", samples=1).samples == 1

    def test_cli_defaults_come_from_the_config(self):
        for task in ("identity", "knn", "hull", "verify"):
            assert config_from_args(_build_parser().parse_args([task])) == ExperimentConfig(task=task)

    def test_every_flag_lands_in_its_field(self):
        argv = (
            "knn --rho-grid 0.1,0.2 --eps-grid 1,2 --n-grid 5,6 --k-grid 2 --trials 4 "
            "--collections 3 --seed 9 --delta 1e-6 --input synthetic-walk --zero-noise "
            "--extent 50 --beta 0.2 --min-eps-dist 3 --baseline-true-locations "
            "--samples 77 --out o.csv"
        ).split()
        cfg = config_from_args(_build_parser().parse_args(argv))
        assert cfg == ExperimentConfig(
            task="knn", rho_grid=[0.1, 0.2], eps_grid=[1.0, 2.0], n_grid=[5, 6], k_grid=[2],
            trials=4, collections=3, seed=9, delta=1e-6, input="synthetic-walk",
            zero_noise=True, extent=50.0, beta=0.2, min_eps_dist=3.0,
            baseline_true_locations=True, samples=77, out="o.csv",
        )
        # no field is left at its default
        default = ExperimentConfig()
        assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == []

    def test_eps_only_grid(self):
        cfg = small_cfg(rho_grid=None, eps_grid=[1.0])
        rows = run_sweep(cfg)
        assert {r.budget for r in rows} == {1.0}


class TestStreamKeys:
    @staticmethod
    def _record_keys(monkeypatch) -> Counter:
        seen = Counter()
        real = bench.RandomStream

        def spy(seed, key, **kw):
            seen[key] += 1
            return real(seed, key, **kw)

        monkeypatch.setattr(bench, "RandomStream", spy)
        return seen

    @pytest.mark.parametrize("task, k_grid", [("knn", [2, 4]), ("hull", [4]), ("identity", [4])])
    def test_each_key_is_built_once_and_every_budget_restarts_it(self, monkeypatch, task, k_grid):
        seen = self._record_keys(monkeypatch)
        releases = Counter()  # (key, budget, whether the release is a fresh stream's of its key)

        def record(release):
            def run(cfg, trial, rho, eps, rng):
                out = release(cfg, trial, rho, eps, rng)
                fresh = release(cfg, trial, rho, eps, RandomStream(cfg.seed, rng.stream_id))
                same = np.array_equal(getattr(out, "points", out), getattr(fresh, "points", fresh))
                releases[rng.stream_id, rho, same] += 1
                return out

            return run

        for name, release in bench._TASKS[task].mechanisms.items():
            monkeypatch.setitem(bench._TASKS[task].mechanisms, name, record(release))
        n_grid, budgets, colls, trials = [32, 48], [0.01, 0.02, 0.03], 2, 2
        cfg = small_cfg(task=task, n_grid=n_grid, k_grid=k_grid, rho_grid=budgets, trials=trials, collections=colls)
        run_sweep(cfg)
        # hull and identity sweep one k, at index 0
        cells = list(itertools.product(range(len(n_grid)), range(len(k_grid) if task == "knn" else 1)))
        mech_keys = [
            (bench._MECH, ni, ki, mi, ci, t)
            for (ni, ki), mi, ci, t in itertools.product(
                cells, range(len(bench._TASKS[task].mechanisms)), range(colls), range(trials)
            )
        ]
        expected = Counter(mech_keys)
        for ci in range(colls):
            expected[bench._DATA, ci] = 1
            for ni in range(len(n_grid)):
                expected[bench._SAMPLE, ci, ni] = 1
            for t in range(trials):
                if task == "knn":  # one query point per (collection, trial), for the whole sweep
                    expected[bench._QUERY, ci, t] = 1
        assert seen == expected
        # common random numbers: at every budget, each release is the one a fresh stream of its key makes
        assert releases == Counter({(key, rho, True): 1 for key in mech_keys for rho in budgets})

    def test_a_knn_trial_on_its_query_is_dropped_from_every_budget(self, monkeypatch):
        # at k = 1 a query on a data point has a true nearest distance sum of 0
        budgets, trials = [1e-3, 1e-2, 1e-1], 6
        cfg = small_cfg(task="knn", n_grid=[64], k_grid=[1, 2], rho_grid=budgets, trials=trials)
        on_point = _collections(cfg)[0].points[5]  # in collection 0's data: n is the collection's size
        monkeypatch.setattr(bench, "query_point_pool", lambda colls: np.array([on_point, on_point + 0.25]))
        on = [
            t for t in range(trials) if RandomStream(cfg.seed, (bench._QUERY, 0, t)).generator.integers(2) == 0
        ]
        assert 0 < len(on) < trials
        rows = run_sweep(cfg)
        assert len(rows) == 2 * len(budgets) * 4 * 2  # every k, budget, mechanism and metric
        pairs = cfg.collections * trials
        assert all(r.trials == (pairs - len(on) if r.k == 1 else pairs) for r in rows)
        assert all(math.isfinite(v) for r in rows for v in (r.mean, r.p25, r.p75))

    @pytest.mark.parametrize("source", ["synthetic", "synthetic-walk"])
    def test_synthetic_collections_are_read_only_and_distinct(self, source):
        colls = _collections(small_cfg(input=source))
        assert all(not c.points.flags.writeable for c in colls)
        assert not np.shares_memory(colls[0].points, colls[1].points)

    def test_a_knn_cell_with_every_trial_skipped_gives_no_rows(self, monkeypatch, caplog):
        # it used to raise IndexError from np.percentile over no values
        cfg = small_cfg(task="knn", n_grid=[64], k_grid=[1, 2], trials=1, collections=1)
        on_point = _collections(cfg)[0].points[5]
        monkeypatch.setattr(bench, "query_point_pool", lambda colls: np.array([on_point]))
        with pytest.warns(UserWarning, match="skipping"), caplog.at_level(logging.WARNING, logger="geopriv.bench"):
            rows = run_sweep(cfg)
        assert {r.k for r in rows} == {2}
        assert [r.getMessage() for r in caplog.records] == ["skipping n=64, k=1: every trial was skipped"]

    def test_a_knn_trial_on_a_trace_shorter_than_k_is_dropped_from_every_budget(self, tmp_path, caplog):
        # sample_points returns the 40-fix cab whole: at k = 64 it has no k nearest
        gen = np.random.default_rng(0)
        for name, fixes in (("new_a", 40), ("new_b", 300)):
            lat, lon = 37.7 + 0.05 * gen.random(fixes), -122.45 + 0.05 * gen.random(fixes)
            lines = (f"{a:.6f} {o:.6f} 0 {t}\n" for t, (a, o) in enumerate(zip(lat, lon)))
            (tmp_path / f"{name}.txt").write_text("".join(lines))
        cfg = small_cfg(
            task="knn", input=str(tmp_path), n_grid=[200], k_grid=[16, 64], rho_grid=[1e-3, 1e-2], trials=2
        )
        with pytest.warns(UserWarning, match="skipping"), caplog.at_level(logging.WARNING, logger="geopriv.bench"):
            rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 4 * 2  # every k, budget, mechanism and metric
        assert {(r.k, r.trials) for r in rows} == {(16, 4), (64, 2)}
        assert [r.getMessage() for r in caplog.records] == [
            "skipping 2 trials at k=64: their trace has fewer than k points"
        ]

    def test_verify_never_tapes_a_stream(self, monkeypatch):
        def no_tape(self):
            raise AssertionError("verify taped a stream")

        monkeypatch.setattr(RandomStream, "taped", no_tape)
        assert run_verify(ExperimentConfig(task="verify", seed=2, samples=2000))[1]

    def test_verify_checks_draw_from_distinct_keys(self, monkeypatch):
        seen = self._record_keys(monkeypatch)
        run_verify(ExperimentConfig(task="verify", seed=2, samples=2000))
        assert seen == Counter({(bench._VERIFY, i): 1 for i in range(len(seen))})
        assert len(seen) == 15

    def test_no_grid_or_trial_count_is_capped(self):
        # once refused: the packed integer ids of these configs overlapped
        ExperimentConfig(task="knn", trials=100_001)
        ExperimentConfig(task="knn", collections=10_001)
        for task in ("identity", "knn", "hull"):
            ExperimentConfig(task=task, n_grid=list(range(1, 66)))


def abort_step(monkeypatch, call=None):
    """Make the ``call``-th nearest-neighbour step of a run (0-based), or
    every one, raise NonHaltError as an aborted scan does."""
    real, calls = mechanisms._pnn_scan, itertools.count()

    def step(dists, rate, rng):
        if call is None or next(calls) == call:
            raise NonHaltError("aborted")
        return real(dists, rate, rng)

    monkeypatch.setattr(mechanisms, "_pnn_scan", step)


class TestScanAborts:
    @pytest.mark.parametrize(
        "cfg, call, cell, pair",
        [
            # round 2 of cgp_pnn's second budget in pair (0, 0): the first
            # budget's release of the same stream, and every other, stand
            (
                small_cfg(task="knn", n_grid=[48], k_grid=[4, 8], rho_grid=[1e-2, 1e-1], trials=2),
                13,
                ("cgp_pnn", 48, 0.1, 4),
                (0, 0),
            ),
            # a probe of gp_pch's anchor stage in pair (0, 1), at one budget: no tape
            (small_cfg(task="hull", n_grid=[48], trials=2), 40, ("gp_pch", 48, 0.01, None), (0, 1)),
        ],
        ids=["knn", "hull"],
    )
    def test_an_aborted_release_moves_only_its_own_cell(self, monkeypatch, caplog, cfg, call, cell, pair):
        base = render_csv(run_sweep(cfg)).splitlines()
        abort_step(monkeypatch, call)
        with pytest.warns(UserWarning, match="a scan aborted"), caplog.at_level(logging.WARNING, logger="geopriv.bench"):
            rows = run_sweep(cfg)
        hit = render_csv(rows).splitlines()
        assert len(hit) == len(base)
        moved = [i for i, (a, b) in enumerate(zip(base, hit)) if a != b]
        assert sorted(rows[i - 1].metric for i in moved) == sorted(bench._TASKS[cfg.task].metrics)
        pairs = cfg.collections * cfg.trials
        for i in moved:
            r = rows[i - 1]
            assert (r.mechanism, r.n, r.budget, r.k, r.trials) == (*cell, pairs - 1)
        m, n, budget, k = cell
        assert [r.getMessage() for r in caplog.records] == [
            f"dropping {m} at n={n}, k={k}, budget={budget} for (collection, trial) {pair}: a scan aborted"
        ]

    def test_a_cell_whose_every_release_aborts_gives_no_row(self, monkeypatch):
        cfg = small_cfg(task="knn", n_grid=[48], k_grid=[4], trials=2)
        base = render_csv(run_sweep(cfg)).splitlines()
        abort_step(monkeypatch)
        with pytest.warns(UserWarning, match="a scan aborted"):
            hit = render_csv(run_sweep(cfg)).splitlines()
        assert hit == [line for line in base if "_pnn," not in line]
        assert len(hit) == 1 + 2 * 2  # the header, then the two basic releases' two metrics

    def test_a_sweep_with_aborting_scans_writes_its_csv(self, monkeypatch, tmp_path):
        # it raised NonHaltError and wrote nothing
        monkeypatch.setattr(mechanisms, "_MAX_CYCLES", 1)
        out = tmp_path / "knn.csv"
        argv = "knn --rho-grid 1e-2 --n-grid 64 --k-grid 16 --trials 2 --collections 2".split()
        with pytest.warns(UserWarning, match="a scan aborted"):
            assert main(argv + ["--out", str(out)]) == 0
        body = out.read_text().splitlines()
        assert body[0] == HEADER and any(",gp_basic," in line for line in body)


class TestZeroNoiseModes:
    def test_identity_errors_are_zero(self):
        rows = run_sweep(small_cfg(task="identity", zero_noise=True))
        assert all(r.mean == 0.0 and r.p25 == 0.0 and r.p75 == 0.0 for r in rows)

    def test_knn_normalized_error_is_one(self):
        rows = run_sweep(small_cfg(task="knn", zero_noise=True))
        norm = [r for r in rows if r.metric == "norm_sum_dist"]
        excess = [r for r in rows if r.metric == "mean_rank_excess"]
        assert norm and all(r.mean == 1.0 for r in norm)
        assert all(r.mean == 0.0 for r in excess)

    def test_hull_baselines_one_and_pch_matches_noiseless_pipeline(self):
        cfg = small_cfg(task="hull", n_grid=[48], trials=2, collections=2)
        cfg.zero_noise = True
        rows = run_sweep(cfg)
        by_mech = {r.mechanism: r for r in rows}
        assert by_mech["gp_basic"].mean == 1.0
        assert by_mech["cgp_basic"].mean == 1.0

        # independent noiseless-pipeline oracle for the Gaussian-variant rows
        rho, beta = 0.01, cfg.beta
        colls = _collections(cfg)
        data = _sampled(cfg, colls, 0, 48)
        expected = []
        for x in data:
            pts = x.points
            c = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            rho0 = (rho / 2) / 20
            radius = float(np.linalg.norm(pts - c, axis=1).max()) + math.sqrt(
                3 * math.log(2 / (beta / 2)) / rho0
            )
            raw = (radius * math.sqrt(rho / 2) / math.log(len(pts) / (beta / 2))) ** (2 / 3)
            k = min(max(int(round(raw)), 16), 128)
            anchors = []
            for j in range(k):
                theta = 2 * math.pi * j / k
                probe = c + radius * np.array([math.cos(theta), math.sin(theta)])
                anchors.append(int(np.argmin(np.linalg.norm(pts - probe, axis=1))))
            expected.append(jaccard(convex_hull(pts[anchors]), convex_hull(pts)))
        assert by_mech["cgp_pch"].mean == pytest.approx(float(np.mean(expected)), rel=1e-12)


class TestRowsAndRendering:
    def test_schema_and_sorting(self):
        rows = run_sweep(small_cfg(rho_grid=[0.02, 0.01]))
        keys = [(r.task, r.mechanism, r.n, r.budget, -1 if r.k is None else r.k, r.metric) for r in rows]
        assert keys == sorted(keys)
        assert all(r.p25 <= r.p75 for r in rows)
        assert all(r.trials == 6 for r in rows)  # collections x trials

    def test_render_csv(self):
        rows = [ResultRow("identity", "gp_basic", 4, 0.5, None, "l2_err", 1.5, 1.0, 2.0, 6)]
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == HEADER
        assert lines[1] == "identity,gp_basic,4,0.5,,l2_err,1.5,1.0,2.0,6"
        assert text.endswith("\n")

    def test_a_non_finite_metric_fails_the_sweep_and_writes_nothing(self, tmp_path):
        # at rho = 1e-307 the matched GP noise overflows to inf
        out = tmp_path / "out.csv"
        argv = "identity --rho-grid 1e-307 --n-grid 16 --trials 1 --collections 1".split()
        cell = "identity gp_basic at n=16, budget=1e-307, k=None: max_point_err is not finite"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=cell):
            main(argv + ["--out", str(out)])
        assert not out.exists()

    def test_missing_dataset_is_refused_before_any_draw(self, monkeypatch, tmp_path):
        # a mistyped path used to fall back to synthetic data and exit 0
        monkeypatch.setattr(bench, "RandomStream", no_draw)
        out = tmp_path / "out.csv"
        argv = ["knn", "--input", str(tmp_path / "no-such-dir"), "--out", str(out)]
        with pytest.raises(ValueError, match="no such file or directory"):
            main(argv)
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, "", "not a record\n91.0 0.0 1 1000\n"])
    def test_dataset_without_a_valid_trace_is_refused_before_any_draw(self, monkeypatch, tmp_path, content):
        monkeypatch.setattr(bench, "RandomStream", no_draw)
        if content is not None:
            (tmp_path / "cab.txt").write_text(content)
        cfg = small_cfg(input=str(tmp_path))
        with pytest.raises(ValueError, match="holds no valid trace"):
            _collections(cfg)

    def test_k_above_n_skip_is_logged(self, caplog):
        cfg = small_cfg(task="knn", n_grid=[8], k_grid=[4, 16], trials=1, collections=1)
        with (
            pytest.warns(UserWarning, match="skipping"),
            caplog.at_level(logging.WARNING, logger="geopriv.bench"),
        ):
            rows = run_sweep(cfg)
        assert {r.k for r in rows} == {4}
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("geopriv.bench", logging.WARNING, "skipping k=16 > n=8")
        ]

    def test_unconfigured_logging_prints_nothing(self, tmp_path):
        # without a logging setup only the UserWarning reaches stderr, once
        argv = "knn --n-grid 8 --k-grid 4,16 --rho-grid 0.01 --trials 1 --collections 1"
        src = Path(geopriv.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "geopriv.bench", *argv.split(), "--out", str(tmp_path / "out.csv")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("skipping k=16 > n=8") == 1
        assert "UserWarning" in done.stderr


class TestTrendExamples:
    def test_knn_desk_scale_comparison(self):
        # large-k regime: the sequential-selection mechanisms ordered as the
        # sqrt(k) vs k noise growth predicts, the Gaussian baseline flat in k
        cfg = ExperimentConfig(
            task="knn",
            rho_grid=[5e-4],
            n_grid=[2000],
            k_grid=[16, 96],
            trials=25,
            collections=6,
            seed=1,
        )
        d = {(r.mechanism, r.k, r.metric): r.mean for r in run_sweep(cfg)}
        assert d[("cgp_pnn", 96, "mean_rank_excess")] < d[("gp_pnn", 96, "mean_rank_excess")]
        flat = d[("cgp_basic", 96, "norm_sum_dist")] / d[("cgp_basic", 16, "norm_sum_dist")]
        assert abs(flat - 1.0) < 0.15
        assert d[("cgp_pnn", 96, "mean_rank_excess")] > 1.5 * d[("cgp_pnn", 16, "mean_rank_excess")]

    def test_hull_utility_stable_in_n_while_baselines_degrade(self):
        cfg = ExperimentConfig(
            task="hull",
            rho_grid=[5e-4],
            n_grid=[2048, 8192],
            trials=10,
            collections=4,
            seed=3,
        )
        d = {(r.mechanism, r.n): r.mean for r in run_sweep(cfg)}
        for base in ("gp_basic", "cgp_basic"):
            assert d[(base, 8192)] < d[(base, 2048)]
        for pch in ("gp_pch", "cgp_pch"):
            assert abs(d[(pch, 8192)] / d[(pch, 2048)] - 1.0) < 0.10

    def test_hull_jaccard_monotone_in_budget(self):
        cfg = ExperimentConfig(
            task="hull",
            rho_grid=[1e-4, 1e-3],
            n_grid=[256],
            trials=5,
            collections=3,
            seed=2,
            extent=10_000.0,
        )
        rows = run_sweep(cfg)
        for mech in ("gp_basic", "cgp_basic", "gp_pch", "cgp_pch"):
            vals = [r.mean for r in rows if r.mechanism == mech]
            assert len(vals) == 2 and vals[0] <= vals[1]


class TestVerifyTask:
    def test_small_battery_passes_and_deterministic(self):
        cfg = ExperimentConfig(task="verify", seed=3, samples=50_000)
        rows1, ok1 = run_verify(cfg)
        rows2, ok2 = run_verify(cfg)
        assert ok1 and ok2
        assert rows1 == rows2
        assert all(r.metric == "pass" for r in rows1)


class TestCli:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "identity",
            "--rho-grid", "0.01,0.02",
            "--n-grid", "32",
            "--trials", "2",
            "--collections", "2",
            "--seed", "7",
            "--extent", "500",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == HEADER

    def test_verify_exit_code_and_output(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        rc = main(["verify", "--samples", "20000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        assert out.read_text().startswith(HEADER)
        # check names such as planar_laplace_mean(d=2,eps=1) hold commas
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 28 and all(len(r) == 10 for r in rows)

    def test_verify_without_samples_is_refused(self):
        # it used to die in the binomial band with ZeroDivisionError
        with pytest.raises(ValueError, match="samples must be at least 1"):
            main(["verify", "--samples", "0"])

    def test_verify_without_out_writes_only_csv(self, capsys):
        rc = main(["verify", "--samples", "20000", "--seed", "1"])
        out, err = capsys.readouterr()
        assert rc == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 28 and all(len(r) == 10 for r in rows)
        assert ",".join(rows[0]) == HEADER
        # the check reports go to stderr instead
        assert len(err.splitlines()) == 27 and all(line.startswith("PASS ") for line in err.splitlines())

    def test_knn_and_hull_subcommands(self, tmp_path):
        for task in ("knn", "hull"):
            out = tmp_path / f"{task}.csv"
            rc = main(
                [
                    task,
                    "--rho-grid", "0.01",
                    "--n-grid", "48",
                    "--k-grid", "4",
                    "--trials", "2",
                    "--collections", "2",
                    "--seed", "9",
                    "--extent", "500",
                    "--zero-noise",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            body = out.read_text().splitlines()
            assert body[0] == HEADER and len(body) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            "identity --n-grid 16 --rho-grid 0.01 --trials 1 --collections 1",
            "knn --n-grid 16 --k-grid 2 --rho-grid 0.01 --trials 1 --collections 1",
            "hull --n-grid 32 --rho-grid 0.01 --trials 1 --collections 1",
            "verify --samples 20000 --seed 1",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_runs_without_scipy(self, tmp_path, argv):
        # the runtime depends on numpy alone; scipy is a test dependency
        no_scipy = "import sys; sys.modules['scipy'] = None; from geopriv.bench import cli; cli()"
        src = Path(geopriv.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", no_scipy, *argv.split(), "--out", str(tmp_path / "out.csv")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("task", ["identity", "knn", "hull"])
    def test_the_csv_does_not_depend_on_the_budget_order(self, tmp_path, task):
        # the first budget records each trial's draws and the others replay them
        argv = f"{task} --n-grid 48 --k-grid 4 --trials 2 --collections 2 --seed 3".split()
        texts = set()
        for i, grid in enumerate(("1e-3,1e-2,1e-1", "1e-1,1e-3,1e-2", "1e-2,1e-1,1e-3")):
            out = tmp_path / f"{i}.csv"
            assert main(argv + ["--rho-grid", grid, "--out", str(out)]) == 0
            texts.add(out.read_bytes())
        assert len(texts) == 1

    def test_walk_input_mode(self):
        rows = run_sweep(small_cfg(input="synthetic-walk"))
        assert rows


def _bounded(fn, *args, timeout=120.0):
    """``fn(*args)`` on a daemon thread: a deadlocked pool fails the test
    after ``timeout`` seconds instead of hanging it."""
    done = {}

    def target():
        try:
            done["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the test's thread
            done["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"{fn.__name__} did not return within {timeout} s"
    if "error" in done:
        raise done["error"]
    return done["value"]


def _spy(monkeypatch, name, seen, delay=0.0):
    """Rebind ``bench.<name>`` to record the thread of every call."""
    real = getattr(bench, name)

    def spy(*args, **kwargs):
        seen.add(threading.get_ident())
        time.sleep(delay)  # a held worker leaves the next pair to another thread
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, name, spy)


class TestTrialPool:
    @pytest.mark.parametrize("extra_workers", [0, 2], ids=["machine", "oversubscribed"])
    def test_pooled_identity_sweep_has_the_serial_bytes(self, monkeypatch, extra_workers):
        cfg = small_cfg(task="identity", rho_grid=[1e-3, 1e-2], n_grid=[64, 256], trials=4, collections=3)
        cores = bench._cores() + extra_workers
        monkeypatch.setattr(bench, "_cores", lambda: cores)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a misordered result shows in the bytes
        try:
            pooled = render_csv(_bounded(run_sweep, cfg))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        monkeypatch.setattr(bench, "_cores", lambda: 1)
        assert render_csv(_bounded(run_sweep, cfg)) == pooled

    @pytest.mark.parametrize(
        "argv",
        [
            "identity --n-grid 1 --rho-grid 1e-3,1e-2",
            "knn --n-grid 16 --k-grid 4,16 --rho-grid 1e-3,1e-2",
        ],
        ids=["identity_n1", "knn_k_is_n"],
    )
    def test_edge_cells_have_the_serial_bytes_pooled(self, monkeypatch, tmp_path, argv):
        texts = []
        for cores in (bench._cores() + 2, 1):
            monkeypatch.setattr(bench, "_cores", lambda: cores)
            out = tmp_path / f"{cores}.csv"
            args = argv.split() + ["--trials", "3", "--collections", "2", "--seed", "4", "--out", str(out)]
            assert _bounded(main, args) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_the_scanning_sweeps_leave_the_pool_unimported(self, tmp_path):
        # concurrent.futures alone adds about 0.6 MiB to a sweep's peak memory
        src = Path(geopriv.__file__).resolve().parents[1]
        code = (
            "import sys; from geopriv import bench; print('concurrent.futures' in sys.modules)\n"
            "for task in ('knn', 'hull'):\n"
            "    argv = [task, '--n-grid', '16', '--k-grid', '4', '--trials', '2', '--out', sys.argv[1]]\n"
            "    assert bench.main(argv) == 0\n"
            "print('concurrent.futures' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out.csv")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-2:] == ["False", "False"]

    def test_identity_trials_run_on_one_thread_per_core(self, monkeypatch):
        seen = set()
        _spy(monkeypatch, "identity_gp_inf", seen, delay=0.002)
        _bounded(run_sweep, small_cfg(task="identity", trials=4, collections=2))
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert bench._cores() == cores
        assert 1 < len(seen) <= cores if cores >= 2 else len(seen) == 1

    @pytest.mark.parametrize(
        "task, names",
        [
            ("knn", ("identity_gp_inf", "identity_cgp_inf", "kpnn", "kpnn_gp")),
            ("hull", ("identity_gp_inf", "identity_cgp_inf", "private_convex_hull", "private_convex_hull_gp")),
        ],
    )
    def test_scanning_tasks_run_on_the_calling_thread(self, monkeypatch, task, names):
        monkeypatch.setattr(bench, "_cores", lambda: 4)
        seen = set()
        for name in names:
            _spy(monkeypatch, name, seen)
        caller = set()

        def sweep():
            caller.add(threading.get_ident())
            return run_sweep(small_cfg(task=task, n_grid=[48], trials=4))

        assert _bounded(sweep)
        assert seen == caller

    def test_a_failing_trial_raises_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(bench, "_cores", lambda: 2)
        error = RuntimeError("third call")
        calls = itertools.count(1)
        real = bench.identity_cgp_inf

        def flaky(*args):
            if next(calls) == 3:
                raise error
            return real(*args)

        monkeypatch.setattr(bench, "identity_cgp_inf", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            _bounded(run_sweep, small_cfg(task="identity", trials=4, collections=2))
        assert raised.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize("extra_workers", [0, 2], ids=["machine", "oversubscribed"])
    def test_verify_rows_do_not_depend_on_the_worker_count(self, monkeypatch, extra_workers):
        cfg = ExperimentConfig(task="verify", seed=4, samples=20_000)
        monkeypatch.setattr(bench, "_cores", lambda: 2 + extra_workers)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out any order dependence
        try:
            pooled = _bounded(run_verify, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        monkeypatch.setattr(bench, "_cores", lambda: 1)
        assert _bounded(run_verify, cfg) == pooled

    def test_verify_checks_run_on_one_thread_per_core(self, monkeypatch):
        monkeypatch.setattr(bench, "_cores", lambda: 2)
        seen = set()
        real = statcheck.check_renyi_gaussian

        def spy(*args):
            seen.add(threading.get_ident())
            time.sleep(0.002)  # a held worker leaves the next check to another thread
            return real(*args)

        monkeypatch.setattr(statcheck, "check_renyi_gaussian", spy)
        assert _bounded(run_verify, ExperimentConfig(task="verify", seed=4, samples=2000))[1]
        assert len(seen) == 2

    @pytest.mark.parametrize("cores", [2, 4])
    def test_ks_checks_run_one_at_a_time_on_the_calling_thread(self, monkeypatch, cores):
        monkeypatch.setattr(bench, "_cores", lambda: cores)
        real = statcheck.check_laplace_sum_pdf
        running, calls = [], []  # threads of the calls in flight; that list at each call's entry

        def spy(*args):
            running.append(threading.get_ident())
            calls.append(tuple(running))
            time.sleep(0.002)  # a second call in flight would find this one
            try:
                return real(*args)
            finally:
                running.remove(threading.get_ident())

        monkeypatch.setattr(statcheck, "check_laplace_sum_pdf", spy)
        caller = []

        def verify():
            caller.append(threading.get_ident())
            return run_verify(ExperimentConfig(task="verify", seed=4, samples=2000))

        assert _bounded(verify)[1]
        assert calls == [tuple(caller)] * 3

    def test_a_failing_check_raises_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(bench, "_cores", lambda: 2)
        error = RuntimeError("second laplace sum")
        calls = itertools.count(1)
        real = statcheck.check_laplace_sum_pdf

        def flaky(*args):
            if next(calls) == 2:
                raise error
            return real(*args)

        monkeypatch.setattr(statcheck, "check_laplace_sum_pdf", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            _bounded(run_verify, ExperimentConfig(task="verify", seed=4, samples=2000))
        assert raised.value is error
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        probe = "import threading, geopriv.bench; print(threading.active_count())"
        src = Path(geopriv.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


GOLDEN = Path(__file__).parent / "golden"
KS = "check_laplace_sum_pdf"


def _spy_checks(monkeypatch, hook=lambda name: None):
    """Rebind every battery check in ``statcheck`` to log, at entry,
    ``(name, thread, KS checks in flight, checks in flight)`` and then call
    ``hook(name)``; returns the log."""
    log, live, lock = [], Counter(), threading.Lock()
    battery = {check.func for check in bench._verify_checks(ExperimentConfig(task="verify"))}
    for real in battery:

        def spy(*args, real=real):
            name = real.__name__
            with lock:
                live[name == KS] += 1
                log.append((name, threading.get_ident(), live[True], live[True] + live[False]))
            try:
                hook(name)
                time.sleep(0.001)  # a check in flight overlaps what another thread starts
                return real(*args)
            finally:
                with lock:
                    live[name == KS] -= 1

        monkeypatch.setattr(statcheck, real.__name__, spy)
    return log


class TestVerifySchedule:
    """The calling thread runs the KS checks, then every pooled check no
    helper has started; one helper runs per further core."""

    def test_reports_are_the_golden_bytes_on_any_core_count(self, monkeypatch, tmp_path):
        cfg = ExperimentConfig(task="verify", seed=7, samples=20_000)
        reports = []
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(bench, "_cores", lambda: cores)
            before = threading.active_count()
            reports.append(_bounded(bench._verify_battery, cfg))
            out = tmp_path / f"{cores}.csv"
            assert _bounded(main, ["verify", "--samples", "20000", "--seed", "7", "--out", str(out)]) == 0
            assert threading.active_count() == before
            assert out.read_bytes() == (GOLDEN / "verify.csv").read_bytes()
        assert all(r == reports[0] for r in reports)

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_ks_checks_run_alone_on_the_calling_thread_and_cores_threads_work(self, monkeypatch, cores):
        monkeypatch.setattr(bench, "_cores", lambda: cores)
        log = _spy_checks(monkeypatch)
        caller = []

        def battery():
            caller.append(threading.get_ident())
            return bench._verify_battery(ExperimentConfig(task="verify", seed=4, samples=2000))

        assert len(_bounded(battery)) == len(log) == 27
        ks = [entry for entry in log if entry[0] == KS]
        assert len(ks) == 3
        assert all(thread == caller[0] and in_flight == 1 for _, thread, in_flight, _ in ks)
        assert max(entry[3] for entry in log) <= cores
        assert len({entry[1] for entry in log}) <= cores

    def test_the_caller_runs_the_pooled_checks_a_held_helper_has_not_started(self, monkeypatch):
        monkeypatch.setattr(bench, "_cores", lambda: 2)
        cfg = ExperimentConfig(task="verify", seed=4, samples=2000)
        unspied = _bounded(bench._verify_battery, cfg)
        pooled = 27 - 3
        released = threading.Event()
        caller, taken = [], []  # the pooled checks the caller started

        def hold(name):
            if threading.get_ident() != caller[0]:
                assert released.wait(60), "the caller never took the other checks"
            elif name != KS:
                taken.append(name)
                if len(taken) == pooled - 1:  # all but the check a helper holds
                    released.set()

        log = _spy_checks(monkeypatch, hold)

        def battery():
            caller.append(threading.get_ident())
            return bench._verify_battery(cfg)

        assert _bounded(battery) == unspied
        helper = [entry for entry in log if entry[1] != caller[0]]
        assert len(helper) <= 1
        # a helper takes checks from the head of the queue, the first pooled check
        assert [name for name, *_ in helper] in ([], ["check_gp_radial_tail"])
        assert len(taken) == pooled - len(helper)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize(
        "failing", ["check_gp_radial_tail", "check_gaussian_mech_divergence"], ids=["head", "tail"]
    )
    def test_a_failing_pooled_check_raises_and_leaves_no_thread(self, monkeypatch, cores, failing):
        monkeypatch.setattr(bench, "_cores", lambda: cores)
        error = RuntimeError(failing)

        def fail(name):
            if name == failing:
                raise error

        _spy_checks(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            _bounded(bench._verify_battery, ExperimentConfig(task="verify", seed=4, samples=2000))
        assert raised.value is error
        assert threading.active_count() == before
