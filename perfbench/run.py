"""Benchmark of the ``geopriv`` CLI: budget sweeps driven in process.

    python3 perfbench/run.py --workload knn-sweep --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``geopriv`` from ``src/``.
One process runs the sweeps of one workload back to back (a closed loop,
one caller, no pool) through ``geopriv.bench.main(argv)``.  The workload
seed becomes the CLI ``--seed``, so the program receives only generated
CLI inputs.  The last line of standard output is the result as JSON; the
line before it records the environment and the sha256 of the sweep CSV.

``--trace 0`` reports the end-to-end metrics of untraced sweeps.
``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics of the traced ones (see ``tracer.py``) plus the tracing
overhead.  Either way every sweep is checked: it must exit 0 and write the
same CSV bytes as every other sweep of the run, traced or not; a
``--zero-noise`` sweep must give the exact noiseless values; ``verify``
must pass every check.  ``--workload all`` runs every workload in both
modes, each in its own process, and prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(__file__).resolve().parent / ".work"

# CLI argv of one sweep, without --seed and --out.  BENCHMARK.json says why
# each workload is in the benchmark; README.md maps layers to workloads.
WORKLOADS = {
    "knn-sweep": "knn --rho-grid 5e-4,1e-2 --n-grid 2000 --k-grid 16,64 --trials 6 --collections 2",
    "hull-sweep": "hull --rho-grid 5e-4 --n-grid 4096 --trials 8 --collections 4",
    "identity-sweep": "identity --rho-grid 1e-4,1e-3,1e-2 --n-grid 16384 --trials 8 --collections 4",
    "verify": "verify",
}

MIN_TIMED_SWEEPS = 3
# The warm-up sweep and the zero-noise check run the workload's grids at one
# trial of one collection (verify: 2e5 samples).  That reaches every code
# path, and the exact noiseless values do not depend on the trial count.
SMALL = ["--trials", "1", "--collections", "1", "--samples", "200000"]
ZERO_NOISE = ["--zero-noise", *SMALL]
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
_SETUP_PROBE = "import time, geopriv.bench; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
_HEADER = "task,mechanism,n,budget,k,metric,mean,p25,p75,trials"


def parse_csv(text: str) -> list[dict]:
    """Rows of a geopriv CSV.  Verify check names contain commas and are not
    quoted, so the eight numeric-side columns are split off from the right."""
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        head, n, budget, k, metric, mean, p25, p75, trials = line.rsplit(",", 8)
        task, mechanism = head.split(",", 1)
        rows.append(dict(task=task, mechanism=mechanism, n=int(n), metric=metric,
                         mean=float(mean), p25=float(p25), p75=float(p75), trials=int(trials)))
    return rows


def _select(rows, mechanism, metric):
    return [r for r in rows if r["mechanism"] == mechanism and r["metric"] == metric]


def invocations(task: str, rows: list[dict]) -> int:
    """Mechanism invocations (verify: checks) one sweep made, from its CSV."""
    if task == "verify":
        return len(rows)
    metric = {"identity": "max_point_err", "knn": "norm_sum_dist", "hull": "jaccard"}[task]
    return sum(r["trials"] for r in rows if r["metric"] == metric)


def utility_loss(task: str, rows: list[dict]) -> float:
    """Accuracy lost by the headline mechanism of the sweep (lower is better).

    identity: mean gp_basic max_point_err (m); knn: mean cgp_pnn
    norm_sum_dist - 1; hull: 1 - mean cgp_pch jaccard; verify: mean error of
    the Renyi-divergence quadrature checks as a share of their tolerance.
    """
    if task == "identity":
        return statistics.fmean(r["mean"] for r in _select(rows, "gp_basic", "max_point_err"))
    if task == "knn":
        return statistics.fmean(r["mean"] for r in _select(rows, "cgp_pnn", "norm_sum_dist")) - 1.0
    if task == "hull":
        return 1.0 - statistics.fmean(r["mean"] for r in _select(rows, "cgp_pch", "jaccard"))
    return statistics.fmean(r["mean"] / r["p75"] for r in rows if r["n"] == 0)


def zero_noise_problems(task: str, rows: list[dict]) -> list[str]:
    """Exact values a --zero-noise sweep must produce, whatever the draw stream."""
    want = {
        "identity": lambda r: 0.0,
        "knn": lambda r: {"norm_sum_dist": 1.0, "mean_rank_excess": 0.0}[r["metric"]],
        "hull": lambda r: 1.0 if r["mechanism"] in ("gp_basic", "cgp_basic") else None,
    }[task]
    problems = []
    for r in rows:
        value = want(r)
        if value is not None and (r["mean"], r["p25"], r["p75"]) != (value, value, value):
            problems.append(f"zero-noise {r['mechanism']} {r['metric']}: {r['mean']!r} != {value!r}")
    if not rows:
        problems.append("zero-noise sweep wrote no rows")
    return problems


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def measure_setup(env: dict) -> float:
    """Median time from a fresh interpreter's start until ``import geopriv.bench`` returns."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout) - t0)
    return statistics.median(times)


class Run:
    """Sweeps of one workload in this process, with their output checks."""

    def __init__(self, bench, workload: str, seed: int, work: str):
        self.bench = bench
        self.argv = WORKLOADS[workload].split() + ["--seed", str(seed)]
        self.task = self.argv[0]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sha256 = None
        self.rows = None
        self.walls: list[float] = []  # untraced timed sweeps, in seconds

    def sweep(self, extra=(), timer=None):
        """One CLI sweep; returns what ``timer`` measured (default: wall
        seconds), or None if the sweep failed."""
        self.attempted += 1
        out = os.path.join(self.work, f"sweep{self.attempted}.csv")
        argv = self.argv + ["--out", out, *extra]
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                if timer is None:
                    t0 = time.perf_counter()
                    rc = self.bench.main(argv)
                    timed = time.perf_counter() - t0
                else:
                    rc, *timed = timer(self.bench.main, argv)
            text = Path(out).read_text(encoding="utf-8")
            rows = parse_csv(text)
        except Exception:  # a failed sweep is counted, and the run goes on
            self.failed += 1
            self.problems.append(f"sweep {self.attempted} raised: {traceback.format_exc(limit=3)}")
            return None
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if self.task == "verify":
            lines = printed.getvalue().splitlines()
            if len(lines) != len(rows) or not all(line.startswith("PASS ") for line in lines):
                problems.append("verify: not every check passed")
        if extra == ZERO_NOISE:
            problems += zero_noise_problems(self.task, rows)
        elif not extra:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if self.sha256 is None:
                self.sha256, self.rows = digest, rows
            elif digest != self.sha256:
                problems.append(f"CSV sha256 {digest} differs from the first sweep's {self.sha256}")
        if problems:
            self.failed += 1
            self.problems.append(f"sweep {self.attempted}: " + "; ".join(problems))
            return None
        return timed


def warm_up(run: Run) -> None:
    if run.task != "verify":
        run.sweep(ZERO_NOISE)
    run.sweep(SMALL)


def end_to_end(run: Run, seconds: float, env: dict) -> dict:
    setup_s = measure_setup(env)
    warm_up(run)
    walls = run.walls
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_SWEEPS or time.perf_counter() - start < seconds:
        done = run.sweep()
        if done is None:
            break
        walls.append(done)
    if not walls:
        return {}
    # Host slowdowns come in phases several sweeps long; the mean over the
    # timed window moved less from run to run than the median did.
    return {
        "sweep_s": (statistics.fmean(walls), "s"),
        "trials_per_s": (invocations(run.task, run.rows) / statistics.fmean(walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "utility_loss": (utility_loss(run.task, run.rows), "loss"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    from tracer import SPANS, Tracer

    tracer = Tracer()
    warm_up(run)
    plain, traced, snapshots = run.walls, [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        done = run.sweep()
        if done is None:
            break
        plain.append(done)
        tracer.reset()
        with tracer.installed():
            done = run.sweep(timer=tracer.root)
        if done is None:
            break
        wall, other = done
        traced.append(wall)
        snapshots.append(({k: dict(v) for k, v in tracer.stats.items()}, other))
    if not snapshots:
        return {}
    for name in tracer.missing:
        print(f"traced function {name} not found; reported as never called", file=sys.stderr)
    metrics = {}
    first = snapshots[0][0]
    for layer, name, counts, _ in SPANS:
        key = f"{layer}.{name}"
        for count in ("calls",) + counts:
            if any(s[key][count] != first[key][count] for s, _ in snapshots):
                run.problems.append(f"{key}.{count} differs between traced sweeps")
            if count != "halts":
                metrics[f"{key}.{count}"] = (first[key][count], "count")
        if name == "svt":
            steps = first[key]["steps"]
            metrics[f"{key}.accept_ratio"] = (first[key]["halts"] / steps if steps else 0.0, "ratio")
        metrics[f"{key}.self_s"] = (statistics.fmean(s[key]["self_s"] for s, _ in snapshots), "s")
    metrics["bench.other_s"] = (statistics.fmean(other for _, other in snapshots), "s")
    metrics["trace_overhead"] = (statistics.fmean(traced) / statistics.fmean(plain), "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (SRC / "geopriv" / "bench.py").is_file():
        print(f"no geopriv sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc  # cap BLAS threads before numpy loads
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    import geopriv.bench

    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        run = Run(geopriv.bench, workload, seed, work)
        metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                      "argv": run.argv, "csv_sha256": run.sha256, "env": environment(),
                      "sweep_walls_s": [round(w, 4) for w in run.walls]}))
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh process; prints each
    result, then one merged result with metrics named ``<workload>/<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            print(workload, f"trace={trace}", json.dumps(result))
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(
                (f"{workload}/{name}", value) for name, value in result["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
