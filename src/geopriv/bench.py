"""Experiment harness and command-line interface.

Subcommands ``identity``, ``knn`` and ``hull`` reproduce the head-to-head
mechanism comparisons on synthetic or loaded trace data and emit one CSV row
per (task, mechanism, n, budget, k, metric) cell with mean and quartiles
over collections x trials.  ``verify`` runs the statistical check battery
and exits nonzero on any failure.

The three sweeps are one driver, :func:`run_sweep`, over a task table: each
entry names its mechanisms, its metrics, a scorer that rates one output
against the trial's reference and a hook that builds that reference (the
true tuple, k nearest or hull).  The identity sweep runs its trials on a
thread pool, one worker per available core, with the same bytes; knn and
hull, which scan, run on one thread.  ``verify`` maps its checks over a pool
of the same size.

Everything is deterministic under a fixed seed: each stream is keyed by a
tuple, a tag naming what it draws and then its indices, such as a sample's
``(_SAMPLE, ci, ni)``.  A mechanism's key ``(_MECH, ni, ki, mi, ci, t)``
holds no budget, so every budget shares its draws (common random numbers):
the stream is built once per (cell, pair, mechanism), taped on the first
budget and replayed on the rest (see :mod:`geopriv.noise`), so a noise
array is drawn once per trial, not once per budget.  A grid of one budget
has nothing to replay and is not taped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import logging
import math
import os
import sys
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .accounting import matched_gp_budget
from .dataset import load_traces, query_point_pool, sample_points
from .geometry import PointTuple, _as_index, dist_2, dist_inf, query_dists
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

logger = logging.getLogger(__name__)
# a library logs only where the application configures logging; without this,
# Python's last-resort handler would print each warning a second time
logger.addHandler(logging.NullHandler())

# the first element of every stream key: what the stream draws
_DATA, _CHOICE, _SAMPLE, _QUERY, _VERIFY, _MECH = range(6)

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

    def __post_init__(self):
        if self.task not in (*_TASKS, "verify"):
            raise ValueError(f"task must be one of {', '.join(_TASKS)} or verify, got {self.task!r}")
        if self.rho_grid is None and self.eps_grid is None:
            self.rho_grid = [1e-4, 1e-3, 1e-2]
        # before any draw: 2.5 trials or points would fail mid-sweep, not be rounded
        for name in ("trials", "collections", "samples"):
            _as_index(getattr(self, name), name)
        for name in ("rho_grid", "eps_grid", "n_grid", "k_grid"):
            grid = getattr(self, name)
            if grid is None:
                continue
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if name in ("n_grid", "k_grid"):
                for v in grid:
                    _as_index(v, name)
            # before any draw: a k of 0 would skip every knn trial, a rate of 0 fail mid-sweep
            if not all(0 < v < math.inf for v in grid):
                raise ValueError(f"{name} entries must be positive and finite, got {grid}")
        for name in ("beta", "delta"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        for name in ("min_eps_dist", "extent"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.collections < 1:
            raise ValueError(f"collections must be at least 1, got {self.collections}")
        # at 2 samples the KS thresholds, 1.63 / sqrt(samples), pass any statistic;
        # 1000 is the floor the battery already puts on its expected-draws count
        min_samples = 1000 if self.task == "verify" else 1
        if self.samples < min_samples:
            raise ValueError(f"samples must be at least {min_samples} for {self.task}, got {self.samples}")
        if self.rho_grid is not None and self.eps_grid is not None:
            if len(self.rho_grid) != len(self.eps_grid):
                raise ValueError("rho_grid and eps_grid must have equal lengths when both given")


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


def _stream(cfg: ExperimentConfig, *key: int) -> RandomStream:
    """``--zero-noise`` silences only mechanism streams: data and query draws stay noisy."""
    return RandomStream(cfg.seed, key, zero_noise=cfg.zero_noise and key[0] == _MECH)


def _synthetic_collection(cfg: ExperimentConfig, index: int) -> PointTuple:
    size = max(cfg.n_grid)
    gen = _stream(cfg, _DATA, index).generator
    if cfg.input == "synthetic-walk":
        start = gen.random(2) * cfg.extent
        heading = gen.random(size) * 2.0 * math.pi
        step = gen.exponential(_WALK_STEP_M, size)
        moves = step[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
        pts = start + np.cumsum(moves, axis=0)
    else:
        pts = gen.random((size, 2)) * cfg.extent
    return PointTuple(pts)


def _warn(message: str) -> None:
    """Report a substituted or skipped part of a sweep: logged at WARNING and
    raised as a UserWarning."""
    logger.warning(message)
    warnings.warn(message, stacklevel=2)


def _collections(cfg: ExperimentConfig) -> list[PointTuple]:
    if not cfg.input.startswith("synthetic"):
        path = Path(cfg.input)
        traces = load_traces(path) if path.exists() else []
        if len(traces) > cfg.collections:
            gen = _stream(cfg, _CHOICE).generator
            chosen = np.sort(gen.choice(len(traces), size=cfg.collections, replace=False))
            return [traces[i] for i in chosen]
        if traces:
            return traces
        _warn(f"input {cfg.input!r} missing or empty; falling back to synthetic data")
    return [_synthetic_collection(cfg, i) for i in range(cfg.collections)]


def _sampled(cfg: ExperimentConfig, colls: list[PointTuple], n_index: int, n: int) -> list[PointTuple]:
    return [
        sample_points(c, n, _stream(cfg, _SAMPLE, ci, n_index))
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


@dataclass
class _Trial:
    """What one trial's mechanisms release from and are scored against, at
    every budget."""

    x: PointTuple
    k: int | None
    true_hull: np.ndarray | None = None
    query: np.ndarray | None = None
    true_sum: float = 0.0  # sum of the k true nearest distances to ``query``


@dataclass(frozen=True)
class _Task:
    """One sweep.  ``mechanisms`` maps each name, in stream-key order, to
    ``(cfg, trial, rho, eps, rng) -> output``; ``score(trial, output)`` gives
    one value per name in ``metrics``.  The lambdas look mechanisms up at
    call time, so rebinding a module attribute (as a tracer does) reaches
    every call.

    ``references(cfg, colls, pairs)`` is the reference hook, called once
    per sweep.  It returns ``cell(data, k)``, which builds the :class:`_Trial`
    of every (collection, trial) pair of one (n, k) cell, in pair order, or
    None for a trial skipped under every budget.  ``sweeps_k`` says whether
    the cells run over ``cfg.k_grid`` (else k is None).

    ``scans`` says whether some mechanism makes a sparse-vector scan.  A scan
    takes and releases the GIL every draw block, so such trials run on the
    calling thread: on a thread pool the knn sweep ran slower and the hull
    sweep gained less than its run-to-run spread."""

    mechanisms: dict
    metrics: tuple[str, ...]
    score: Callable
    scans: bool
    references: Callable
    sweeps_k: bool = False


def _k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` for 1 <= k <= len(values),
    ties included: the k first by (value, index) are all at or below the
    k-th smallest value, so only those entries are sorted."""
    kth = np.partition(values, k - 1)[k - 1]
    cand = np.flatnonzero(values <= kth)
    return cand[np.argsort(values[cand], kind="stable")[:k]]


def _knn_baseline(cfg: ExperimentConfig, t: _Trial, released: PointTuple) -> np.ndarray:
    """The k points nearest the query by released location, at the locations
    they are scored on: released, or true with ``baseline_true_locations``."""
    sel = _k_smallest(query_dists(released.points, t.query), t.k)
    return (t.x if cfg.baseline_true_locations else released).points[sel]


def _knn_score(t: _Trial, reported: np.ndarray) -> tuple[float, float]:
    s = float(query_dists(reported, t.query).sum())
    return s / t.true_sum, (s - t.true_sum) / t.k


def _identity_references(cfg: ExperimentConfig, colls: list[PointTuple], pairs: list[tuple[int, int]]):
    return lambda data, k: [_Trial(data[ci], k) for ci, _ in pairs]


def _knn_references(cfg: ExperimentConfig, colls: list[PointTuple], pairs: list[tuple[int, int]]):
    """One query point per pair, for the whole sweep; per cell, the sum of
    each trial's k true nearest distances.  A trial whose k true nearest all
    sit on the query (a sum of 0) is skipped, and so, with one warning per
    cell, is a trial on a loaded trace of fewer than k points."""
    pool = query_point_pool(colls)
    queries = [pool[int(_stream(cfg, _QUERY, *p).generator.integers(len(pool)))] for p in pairs]

    def cell(data: list[PointTuple], k: int) -> list[_Trial | None]:
        trials = []
        short = 0
        for (ci, _), query in zip(pairs, queries):
            if len(data[ci]) < k:  # sample_points returns a short trace whole
                short += 1
                trials.append(None)
                continue
            dists = query_dists(data[ci].points, query)
            true_sum = float(dists[_k_smallest(dists, k)].sum())  # ascending, as a sorted prefix
            trials.append(_Trial(data[ci], k, query=query, true_sum=true_sum) if true_sum > 0.0 else None)
        if short:
            _warn(f"skipping {short} trials at k={k}: their trace has fewer than k points")
        return trials

    return cell


def _hull_references(cfg: ExperimentConfig, colls: list[PointTuple], pairs: list[tuple[int, int]]):
    """Each collection's true hull, built once per cell and shared by its trials."""

    def cell(data: list[PointTuple], k: int | None) -> list[_Trial]:
        hulls = [convex_hull(x.points) for x in data]
        return [_Trial(data[ci], k, true_hull=hulls[ci]) for ci, _ in pairs]

    return cell


_TASKS = {
    # Whole-tuple release: max single-point error and l2 error.
    "identity": _Task(
        {
            "gp_basic": lambda cfg, t, rho, eps, rng: identity_gp_inf(t.x, eps, rng),
            "cgp_basic": lambda cfg, t, rho, eps, rng: identity_cgp_inf(t.x, rho, rng),
        },
        ("max_point_err", "l2_err"),
        lambda t, y: (dist_inf(y, t.x), dist_2(y, t.x)),
        scans=False,
        references=_identity_references,
    ),
    # k nearest neighbours of a query point: the reported points' distance sum
    # over the true k nearest's, and the per-rank mean excess.
    "knn": _Task(
        {
            "gp_basic": lambda cfg, t, rho, eps, rng: _knn_baseline(cfg, t, identity_gp_inf(t.x, eps, rng)),
            "cgp_basic": lambda cfg, t, rho, eps, rng: _knn_baseline(cfg, t, identity_cgp_inf(t.x, rho, rng)),
            "gp_pnn": lambda cfg, t, rho, eps, rng: t.x.points[np.asarray(kpnn_gp(t.x, t.query, t.k, eps, rng)) - 1],
            "cgp_pnn": lambda cfg, t, rho, eps, rng: t.x.points[np.asarray(kpnn(t.x, t.query, t.k, rho, rng)) - 1],
        },
        ("norm_sum_dist", "mean_rank_excess"),
        _knn_score,
        scans=True,
        references=_knn_references,
        sweeps_k=True,
    ),
    # Convex hull: Jaccard similarity to the true hull (higher is better).
    "hull": _Task(
        {
            "gp_basic": lambda cfg, t, rho, eps, rng: identity_gp_inf(t.x, eps, rng),
            "cgp_basic": lambda cfg, t, rho, eps, rng: identity_cgp_inf(t.x, rho, rng),
            "gp_pch": lambda cfg, t, rho, eps, rng: private_convex_hull_gp(t.x, eps, cfg.beta, rng),
            "cgp_pch": lambda cfg, t, rho, eps, rng: private_convex_hull(t.x, rho, cfg.beta, rng),
        },
        ("jaccard",),
        lambda t, out: (jaccard(convex_hull(out.points), t.true_hull),),
        scans=True,
        references=_hull_references,
    ),
}


def _cores() -> int:
    """Cores this process may run on (the host's count where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _pool_map(jobs: int):
    """A ``map`` for ``jobs`` independent calls: over a thread pool of
    ``min(cores, jobs)`` workers, shut down on exit, or the builtin ``map``
    on the calling thread when that is one worker.  Results come back in
    call order and the first exception raised in a call propagates."""
    workers = min(_cores(), jobs)
    if workers <= 1:
        yield map
        return
    with ThreadPoolExecutor(workers) as pool:
        yield pool.map


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every mechanism of ``cfg.task`` on each (n, k, budget, collection,
    trial) cell and aggregate each metric over collections x trials.

    knn also sweeps ``k_grid`` (skipping k > n) and draws one query point per
    (collection, trial), for the whole sweep; a trial whose true k nearest all
    sit on the query, or whose loaded trace holds fewer than k points, is
    skipped under every budget, and a cell whose every trial is skipped
    gives no rows.  The GP budget is matched from rho unless
    ``eps_grid`` is given.

    The loop is pair-outer, budget-inner: one job per (collection, trial)
    pair of a cell builds each mechanism's stream, tapes it on the first
    budget and replays it on the rest (a grid of one budget is not taped),
    and returns the scores of every budget; the tape lives for one trial.
    A task without scans maps its pair jobs over a thread pool of
    ``min(cores, pairs)`` workers (numpy's samplers and ufunc loops release
    the GIL), shut down when the sweep returns or raises; with one worker,
    or for a scanning task, the jobs run on the calling thread.  Each trial
    draws only from its own streams and the scores are collected in pair
    order, so the rows do not depend on the worker count.
    """
    task = _TASKS[cfg.task]
    colls = _collections(cfg)
    # the (collection, trial) pairs, collection-major: the order scores are collected in
    pairs = list(itertools.product(range(len(colls)), range(cfg.trials)))
    references = task.references(cfg, colls, pairs)
    budgets = _budget_pairs(cfg)
    # the order of a trial's scores: mechanism-major, then budget
    slots = list(itertools.product(task.mechanisms, range(len(budgets))))
    rows = []
    with _pool_map(1 if task.scans else len(pairs)) as pmap:
        for ni, n in enumerate(cfg.n_grid):
            data = _sampled(cfg, colls, ni, n)
            for ki, k in enumerate(cfg.k_grid if task.sweeps_k else [None]):
                if k is not None and k > n:
                    _warn(f"skipping k={k} > n={n}")
                    continue
                trials = references(data, k)
                if not any(trials):  # no value to aggregate: no rows
                    _warn(f"skipping n={n}, k={k}: every trial was skipped")
                    continue

                def scores(pair: tuple[int, int], trial: _Trial | None):
                    """Each mechanism's metric values on one trial at every budget, or None if skipped."""
                    if trial is None:
                        return None
                    out = []
                    for mi, release in enumerate(task.mechanisms.values()):
                        rng = _stream(cfg, _MECH, ni, ki, mi, *pair)
                        # one budget has nothing to replay, and recording it cost hull-sweep 7%
                        with rng.taped() if len(budgets) > 1 else contextlib.nullcontext():
                            for bi, (_, rho, eps) in enumerate(budgets):
                                if bi:
                                    rng.rewind()
                                out.append(task.score(trial, release(cfg, trial, rho, eps, rng)))
                    return out

                vals = {(m, bi, metric): [] for m, bi in slots for metric in task.metrics}
                # consumed here, before the cell loop rebinds what ``scores`` reads
                for trial_scores in pmap(scores, pairs, trials):
                    for (m, bi), values in zip(slots, trial_scores or ()):
                        for metric, v in zip(task.metrics, values):
                            vals[m, bi, metric].append(v)
                for (m, bi, metric), v in vals.items():
                    rows.append(_aggregate(cfg.task, m, n, budgets[bi][0], k, metric, v))
    return sorted(rows, key=_row_key)


def _verify_battery(cfg: ExperimentConfig) -> list[statcheck.CheckReport]:
    """Every check's report, in battery order.  The checks are built as
    thunks with their stream keys fixed in that order.  The Laplace-sum KS
    checks, which hold about 16 MiB each where every other check holds a few,
    run one after another on the calling thread, while the others are mapped
    like the identity sweep's trials (see ``_pool_map``).  The calling thread
    is the same in every sweep, so the KS buffers land in the same malloc
    arena each time, and no two of them are alive at once.  Each check draws only
    from its own stream, so the reports do not depend on the worker count."""
    samples = cfg.samples
    draws = max(samples // 10, 1000)
    sid = itertools.count()

    def s() -> RandomStream:
        return _stream(cfg, _VERIFY, next(sid))

    checks = []
    for eps in (0.5, 1.0, 2.0):
        checks.append(functools.partial(statcheck.check_gp_radial_tail, eps, (1.0, 3.0, 5.0), samples, s()))
    for rho in (0.5, 1.0, 2.0):
        checks.append(functools.partial(statcheck.check_cgp_radial_tail, rho, (0.5, 1.0, 1.5), samples, s()))
    for b in (0.5, 1.0, 2.0):
        checks.append(functools.partial(statcheck.check_laplace_sum_pdf, b, samples, s()))
    for b in (0.5, 1.0, 2.0):
        checks.append(functools.partial(statcheck.check_expected_draws, b, draws, s()))
    for dim, eps in ((2, 1.0), (3, 2.0), (5, 1.0)):
        checks.append(functools.partial(statcheck.check_planar_laplace_mean, dim, eps, samples, s()))
    for shift in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            checks.append(functools.partial(statcheck.check_renyi_gaussian, 0.0, shift, sigma))
    for rho in (0.25, 0.5, 1.0):
        checks.append(functools.partial(statcheck.check_gaussian_mech_divergence, rho))
    alone = [check.func is statcheck.check_laplace_sum_pdf for check in checks]
    with _pool_map(alone.count(False)) as pmap:
        pooled = pmap(lambda check: check(), [c for c, a in zip(checks, alone) if not a])
        own = iter([c() for c, a in zip(checks, alone) if a])
        return [next(own) if a else next(pooled) for a in alone]


def run_verify(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool]:
    """Run the statistical verification battery; returns rows and overall pass."""
    reports = _verify_battery(cfg)
    rows = []
    # Without --out the CSV goes to stdout, so the reports go to stderr.
    log = sys.stdout if cfg.out else sys.stderr
    for r in reports:
        print(r, file=log)
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

    ap = argparse.ArgumentParser(prog="geopriv", description="Geo-privacy mechanism benchmarks")
    sub = ap.add_subparsers(dest="task", required=True)
    for task in (*_TASKS, "verify"):
        sub.add_parser(task, parents=[common])
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(args))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.task == "verify":
        rows, ok = run_verify(cfg)
    else:
        rows, ok = run_sweep(cfg), True
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
