"""Experiment harness and command-line interface.

Subcommands ``identity``, ``knn`` and ``hull`` reproduce the head-to-head
mechanism comparisons on synthetic or loaded trace data and emit one CSV row
per (task, mechanism, n, budget, k, metric) cell with mean and quartiles
over collections x trials.  ``verify`` runs the statistical check battery
and exits nonzero on any failure.

Everything is deterministic under a fixed seed: data, query points and each
mechanism invocation draw from disjoint stream ids derived from the config.
Budgets are excluded from the mechanism stream key, so sweeping the budget
grid reuses the same underlying draws (common random numbers).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .accounting import matched_gp_budget
from .dataset import load_traces, query_point_pool, sample_points
from .geometry import PointTuple, dist_2, dist_inf
from .hull import convex_hull, jaccard
from .mechanisms import (
    identity_cgp_inf,
    identity_gp_inf,
    kpnn,
    kpnn_gp,
    private_convex_hull,
    private_convex_hull_gp,
)
from .noise import RandomStream
from . import statcheck

_DATA_BASE = 1_000_000_000
_SAMPLE_BASE = 1_500_000_000
_QUERY_BASE = 2_000_000_000
_MECH_BASE = 3_000_000_000
_VERIFY_BASE = 4_000_000_000

_WALK_STEP_M = 50.0


@dataclass
class ExperimentConfig:
    task: str = "identity"
    rho_grid: list[float] | None = None
    eps_grid: list[float] | None = None
    n_grid: list[int] = field(default_factory=lambda: [1024])
    k_grid: list[int] = field(default_factory=lambda: [16, 64])
    trials: int = 25
    collections: int = 50
    seed: int = 0
    delta: float = 1e-10
    input: str = "synthetic"
    zero_noise: bool = False
    extent: float = 10_000.0
    beta: float = 0.05
    min_eps_dist: float = 10.0
    baseline_true_locations: bool = False
    samples: int = 10**6
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.rho_grid is None and self.eps_grid is None:
            self.rho_grid = [1e-4, 1e-3, 1e-2]
        for name in ("rho_grid", "eps_grid", "n_grid", "k_grid"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.collections < 1:
            raise ValueError(f"collections must be at least 1, got {self.collections}")
        if self.rho_grid is not None and self.eps_grid is not None:
            if len(self.rho_grid) != len(self.eps_grid):
                raise ValueError("rho_grid and eps_grid must have equal lengths when both given")
        if self.fmt != "csv":
            raise ValueError(f"unsupported output format {self.fmt!r}")


@dataclass(frozen=True)
class ResultRow:
    task: str
    mechanism: str
    n: int
    budget: float
    k: int | None
    metric: str
    mean: float
    p25: float
    p75: float
    trials: int


def _budget_pairs(cfg: ExperimentConfig) -> list[tuple[float, float, float]]:
    """(budget column value, rho, eps) triplets for the configured grid."""
    out = []
    if cfg.rho_grid is not None:
        for i, rho in enumerate(cfg.rho_grid):
            if cfg.eps_grid is not None:
                eps = cfg.eps_grid[i]
            else:
                eps = matched_gp_budget(rho, cfg.delta, cfg.min_eps_dist)
            out.append((rho, rho, eps))
    else:
        for eps in cfg.eps_grid:
            out.append((eps, 0.5 * eps * eps, eps))
    return out


def _stream(cfg: ExperimentConfig, base: int, offset: int, noisy: bool = False) -> RandomStream:
    zero = cfg.zero_noise if noisy else False
    return RandomStream(cfg.seed, base + offset, zero_noise=zero)


def _mech_stream(cfg: ExperimentConfig, cell: int, mech: int, coll: int, trial: int) -> RandomStream:
    offset = ((cell * 8 + mech) * cfg.collections + coll) * cfg.trials + trial
    return _stream(cfg, _MECH_BASE, offset, noisy=True)


def _synthetic_collection(cfg: ExperimentConfig, index: int) -> PointTuple:
    size = max(cfg.n_grid)
    gen = _stream(cfg, _DATA_BASE, index).generator
    if cfg.input == "synthetic-walk":
        start = gen.random(2) * cfg.extent
        heading = gen.random(size) * 2.0 * math.pi
        step = gen.exponential(_WALK_STEP_M, size)
        moves = step[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
        pts = start + np.cumsum(moves, axis=0)
    else:
        pts = gen.random((size, 2)) * cfg.extent
    return PointTuple(pts)


def _collections(cfg: ExperimentConfig) -> list[PointTuple]:
    if cfg.input.startswith("synthetic"):
        return [_synthetic_collection(cfg, i) for i in range(cfg.collections)]
    path = Path(cfg.input)
    traces = load_traces(path) if path.exists() else []
    if not traces:
        warnings.warn(
            f"input {cfg.input!r} missing or empty; falling back to synthetic data"
        )
        return [_synthetic_collection(cfg, i) for i in range(cfg.collections)]
    if len(traces) <= cfg.collections:
        return traces
    gen = _stream(cfg, _DATA_BASE, 999_999_999).generator
    chosen = np.sort(gen.choice(len(traces), size=cfg.collections, replace=False))
    return [traces[i] for i in chosen]


def _sampled(cfg: ExperimentConfig, colls: list[PointTuple], n_index: int, n: int) -> list[PointTuple]:
    return [
        sample_points(c, n, _stream(cfg, _SAMPLE_BASE, ci * 64 + n_index))
        for ci, c in enumerate(colls)
    ]


def _aggregate(task, mechanism, n, budget, k, metric, values) -> ResultRow:
    arr = np.asarray(values, dtype=np.float64)
    return ResultRow(
        task,
        mechanism,
        int(n),
        float(budget),
        k,
        metric,
        float(arr.mean()),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
        int(arr.size),
    )


def _row_key(r: ResultRow):
    return (r.task, r.mechanism, r.n, r.budget, -1 if r.k is None else r.k, r.metric)


def run_identity(cfg: ExperimentConfig) -> list[ResultRow]:
    """Whole-tuple release: max single-point error and l2 error for the GP
    and CGP baselines, the GP budget matched from rho."""
    colls = _collections(cfg)
    rows = []
    for ni, n in enumerate(cfg.n_grid):
        data = _sampled(cfg, colls, ni, n)
        for budget, rho, eps in _budget_pairs(cfg):
            vals = {m: {"max_point_err": [], "l2_err": []} for m in ("gp_basic", "cgp_basic")}
            for ci, x in enumerate(data):
                for t in range(cfg.trials):
                    y = identity_gp_inf(x, eps, _mech_stream(cfg, ni, 0, ci, t))
                    vals["gp_basic"]["max_point_err"].append(dist_inf(y, x))
                    vals["gp_basic"]["l2_err"].append(dist_2(y, x))
                    z = identity_cgp_inf(x, rho, _mech_stream(cfg, ni, 1, ci, t))
                    vals["cgp_basic"]["max_point_err"].append(dist_inf(z, x))
                    vals["cgp_basic"]["l2_err"].append(dist_2(z, x))
            for mech, metrics in vals.items():
                for metric, v in metrics.items():
                    rows.append(_aggregate("identity", mech, n, budget, None, metric, v))
    return sorted(rows, key=_row_key)


def _baseline_knn_distance(released: PointTuple, x: PointTuple, p, k: int, true_locations: bool) -> float:
    d_priv = np.linalg.norm(released.points - p, axis=1)
    sel = np.argsort(d_priv, kind="stable")[:k]
    if true_locations:
        return float(np.linalg.norm(x.points[sel] - p, axis=1).sum())
    return float(d_priv[sel].sum())


def run_knn(cfg: ExperimentConfig) -> list[ResultRow]:
    """k-nearest-neighbour utility: the sum of output-neighbour distances to
    the query point, normalized by the true nearest neighbours' sum
    (``norm_sum_dist``), plus the per-rank mean excess (``mean_rank_excess``).

    Baselines release the whole tuple and post-process; distances for them
    use the released locations unless ``baseline_true_locations`` is set.
    """
    colls = _collections(cfg)
    pool = query_point_pool(colls)
    mechs = ("gp_basic", "cgp_basic", "gp_pnn", "cgp_pnn")
    rows = []
    for ni, n in enumerate(cfg.n_grid):
        data = _sampled(cfg, colls, ni, n)
        for ki, k in enumerate(cfg.k_grid):
            if k > n:
                warnings.warn(f"skipping k={k} > n={n}")
                continue
            cell = ni * len(cfg.k_grid) + ki
            for budget, rho, eps in _budget_pairs(cfg):
                vals = {m: {"norm_sum_dist": [], "mean_rank_excess": []} for m in mechs}
                for ci, x in enumerate(data):
                    for t in range(cfg.trials):
                        qgen = _stream(cfg, _QUERY_BASE, ci * 100_000 + t).generator
                        p = pool[int(qgen.integers(len(pool)))]
                        d_true = np.linalg.norm(x.points - p, axis=1)
                        true_sum = float(np.sort(d_true, kind="stable")[:k].sum())
                        if true_sum <= 0.0:
                            continue
                        sums = {}
                        y = identity_gp_inf(x, eps, _mech_stream(cfg, cell, 0, ci, t))
                        sums["gp_basic"] = _baseline_knn_distance(
                            y, x, p, k, cfg.baseline_true_locations
                        )
                        z = identity_cgp_inf(x, rho, _mech_stream(cfg, cell, 1, ci, t))
                        sums["cgp_basic"] = _baseline_knn_distance(
                            z, x, p, k, cfg.baseline_true_locations
                        )
                        idx = kpnn_gp(x, p, k, eps, _mech_stream(cfg, cell, 2, ci, t))
                        sums["gp_pnn"] = float(
                            np.linalg.norm(x.points[np.asarray(idx) - 1] - p, axis=1).sum()
                        )
                        idx = kpnn(x, p, k, rho, _mech_stream(cfg, cell, 3, ci, t))
                        sums["cgp_pnn"] = float(
                            np.linalg.norm(x.points[np.asarray(idx) - 1] - p, axis=1).sum()
                        )
                        for m in mechs:
                            vals[m]["norm_sum_dist"].append(sums[m] / true_sum)
                            vals[m]["mean_rank_excess"].append((sums[m] - true_sum) / k)
                for m in mechs:
                    for metric, v in vals[m].items():
                        rows.append(_aggregate("knn", m, n, budget, k, metric, v))
    return sorted(rows, key=_row_key)


def run_hull(cfg: ExperimentConfig) -> list[ResultRow]:
    """Convex hull utility: Jaccard similarity between the hull of each
    mechanism's released points and the true hull (higher is better)."""
    colls = _collections(cfg)
    mechs = ("gp_basic", "cgp_basic", "gp_pch", "cgp_pch")
    rows = []
    for ni, n in enumerate(cfg.n_grid):
        data = _sampled(cfg, colls, ni, n)
        true_hulls = [convex_hull(x.points) for x in data]
        for budget, rho, eps in _budget_pairs(cfg):
            vals = {m: [] for m in mechs}
            for ci, x in enumerate(data):
                ht = true_hulls[ci]
                for t in range(cfg.trials):
                    y = identity_gp_inf(x, eps, _mech_stream(cfg, ni, 0, ci, t))
                    vals["gp_basic"].append(jaccard(convex_hull(y.points), ht))
                    z = identity_cgp_inf(x, rho, _mech_stream(cfg, ni, 1, ci, t))
                    vals["cgp_basic"].append(jaccard(convex_hull(z.points), ht))
                    g = private_convex_hull_gp(x, eps, cfg.beta, _mech_stream(cfg, ni, 2, ci, t))
                    vals["gp_pch"].append(jaccard(convex_hull(g.points), ht))
                    c = private_convex_hull(x, rho, cfg.beta, _mech_stream(cfg, ni, 3, ci, t))
                    vals["cgp_pch"].append(jaccard(convex_hull(c.points), ht))
            for m in mechs:
                rows.append(_aggregate("hull", m, n, budget, None, "jaccard", vals[m]))
    return sorted(rows, key=_row_key)


def _verify_battery(cfg: ExperimentConfig) -> list[statcheck.CheckReport]:
    samples = cfg.samples
    draws = max(samples // 10, 1000)
    sid = iter(range(10_000))

    def s() -> RandomStream:
        return _stream(cfg, _VERIFY_BASE, next(sid))

    checks = []
    for eps in (0.5, 1.0, 2.0):
        checks.append(statcheck.check_gp_radial_tail(eps, (1.0, 3.0, 5.0), samples, s()))
    for rho in (0.5, 1.0, 2.0):
        checks.append(statcheck.check_cgp_radial_tail(rho, (0.5, 1.0, 1.5), samples, s()))
    for b in (0.5, 1.0, 2.0):
        checks.append(statcheck.check_laplace_sum_pdf(b, samples, s()))
    for b in (0.5, 1.0, 2.0):
        checks.append(statcheck.check_expected_draws(b, draws, s()))
    for dim, eps in ((2, 1.0), (3, 2.0), (5, 1.0)):
        checks.append(statcheck.check_planar_laplace_mean(dim, eps, samples, s()))
    for shift in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            checks.append(statcheck.check_renyi_gaussian(0.0, shift, sigma))
    for rho in (0.25, 0.5, 1.0):
        checks.append(statcheck.check_gaussian_mech_divergence(rho))
    return checks


def run_verify(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    """Run the statistical verification battery; returns rows and overall pass."""
    reports = _verify_battery(cfg)
    rows = []
    for r in reports:
        print(r)
        rows.append(
            ResultRow(
                "verify",
                r.name,
                r.samples,
                0.0,
                None,
                "pass" if r.passed else "fail",
                r.statistic,
                r.statistic,
                r.threshold,
                1,
            )
        )
    return sorted(rows, key=_row_key), all(r.passed for r in reports)


def render_csv(rows: list[ResultRow]) -> str:
    """One header line and one line per row; a None ``k`` is an empty field,
    floats are written in round-trip form, and fields holding commas (verify
    check names) are quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(ResultRow))
    writer.writerows(astuple(r) for r in sorted(rows, key=_row_key))
    return buf.getvalue()


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    # Defaults live in ExperimentConfig only: an absent flag adds nothing to the namespace.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--rho-grid", type=_float_list, help="comma-separated CGP rates")
    common.add_argument("--eps-grid", type=_float_list, help="comma-separated GP rates (default: matched from rho)")
    common.add_argument("--n-grid", type=_int_list, help="comma-separated tuple sizes")
    common.add_argument("--k-grid", type=_int_list, help="comma-separated neighbour counts")
    common.add_argument("--trials", type=int)
    common.add_argument("--collections", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--delta", type=float)
    common.add_argument("--input", help="dataset path, 'synthetic' or 'synthetic-walk'")
    common.add_argument("--zero-noise", action="store_true", help="run mechanisms with the degenerate zero-noise stream")
    common.add_argument("--extent", type=float, help="synthetic square side, meters")
    common.add_argument("--beta", type=float, help="failure probability for the hull pipeline")
    common.add_argument("--min-eps-dist", type=float, help="eps*Delta floor for GP budget matching")
    common.add_argument("--baseline-true-locations", action="store_true", help="score baseline kNN with true instead of released locations")
    common.add_argument("--samples", type=int, help="Monte Carlo draws for verify")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", dest="fmt", choices=["csv"])

    ap = argparse.ArgumentParser(prog="geopriv", description="Geo-privacy mechanism benchmarks")
    sub = ap.add_subparsers(dest="task", required=True)
    for task in ("identity", "knn", "hull", "verify"):
        sub.add_parser(task, parents=[common])
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(args))


_RUNNERS = {"identity": run_identity, "knn": run_knn, "hull": run_hull}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.task == "verify":
        rows, ok = run_verify(cfg)
    else:
        rows, ok = _RUNNERS[cfg.task](cfg), True
    text = render_csv(rows)
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def cli() -> None:  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
