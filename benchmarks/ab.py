"""In-process A/B of two geopriv checkouts on one perfbench workload.

    python benchmarks/ab.py --tree PARENT --tree . --workload identity-sweep --seed 0 --rounds 20
    python benchmarks/ab.py --tree PARENT --tree . --control --serial --workload identity-sweep

Each ``--tree`` is the root of a checkout.  Its ``src/geopriv`` is imported
in this one process under its own package name (``geopriv_ab0``,
``geopriv_ab1``; ``--control`` adds a second import of the first tree as
``geopriv_ab2``), so every side shares one interpreter, one heap and one
host phase.  Every side runs ``bench.main`` on perfbench's argv of the
workload (``perfbench/run.py``'s ``WORKLOADS``, plus ``--seed`` and
``--out``) once as a warm-up, then once per round; the side that goes first
moves on by one each round.  ``--serial`` makes every side's ``_cores``
report one core, so the identity sweep and verify run on the calling
thread instead of the pool.

Per sweep it records wall time, process CPU time and minor page faults
(``ru_minflt``).  The report is one JSON object: per side its median of
each, its ratio over the first tree, the rounds in which it was faster than
the first tree, and its CSV sha256.  Every sweep of every side must write
the same CSV bytes; if any differ, nothing is reported and the exit status
is 1.  perfbench's pairs of separate processes stay the end-to-end record;
this reading sits beside them, since one process removes the per-process
page-fault modes and phase drift that swamp a 5-10% change on a small host.
The module is not a test file, so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workload_argv(workload: str, seed: int) -> list[str]:
    """perfbench's CLI argv of ``workload`` at ``seed``."""
    spec = importlib.util.spec_from_file_location("_perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS[workload].split() + ["--seed", str(seed)]


def import_tree(tree: Path, name: str):
    """``geopriv.bench`` of the checkout at ``tree``, imported as ``name``."""
    init = Path(tree).resolve() / "src" / "geopriv" / "__init__.py"
    if not init.is_file():
        raise ValueError(f"no geopriv sources under {tree}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.bench")


def _sweep(bench, argv: list[str], out: Path) -> tuple[float, float, int, str]:
    """One sweep: wall s, CPU s, minor faults and the CSV's sha256."""
    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu, wall = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = bench.main(argv + ["--out", str(out)])
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
    if rc != 0:
        raise RuntimeError(f"{bench.__name__}.main exited {rc}")
    return wall, cpu, flt, hashlib.sha256(out.read_bytes()).hexdigest()


def compare(trees: list[Path], argv: list[str], rounds: int, serial: bool = False) -> dict:
    """Run ``argv`` on every tree for ``rounds`` rotated rounds after one
    warm-up each; the report described in the module docstring.  Raises
    ValueError when two sweeps write different CSVs."""
    if len(trees) < 2 or rounds < 1:
        raise ValueError("need at least two trees and one round")
    benches = [import_tree(t, f"geopriv_ab{i}") for i, t in enumerate(trees)]
    if serial:
        for b in benches:
            b._cores = lambda: 1
    sides = range(len(benches))
    samples = {i: [] for i in sides}
    hashes = {i: set() for i in sides}
    with tempfile.TemporaryDirectory(prefix="geopriv-ab-") as work:
        out = Path(work) / "sweep.csv"
        for r in range(rounds + 1):
            for i in [(r + j) % len(benches) for j in sides]:
                wall, cpu, flt, sha = _sweep(benches[i], argv, out)
                hashes[i].add(sha)
                if r:  # round 0 is the warm-up
                    samples[i].append((wall, cpu, flt))
    shas = set().union(*hashes.values())
    if len(shas) != 1:
        raise ValueError(f"the sides wrote different CSVs: {sorted(hashes[i] for i in sides)}")
    medians = {i: [statistics.median(col) for col in zip(*samples[i])] for i in sides}
    report = {"argv": argv, "rounds": rounds, "serial": serial, "csv_sha256": shas.pop(), "sides": []}
    for i in sides:
        wall, cpu, flt = medians[i]
        report["sides"].append({
            "tree": str(trees[i]),
            "median_wall_s": round(wall, 5),
            "median_cpu_s": round(cpu, 5),
            "median_minflt": flt,
            "wall_ratio": round(wall / medians[0][0], 4),
            "cpu_ratio": round(cpu / medians[0][1], 4),
            "faster_wall_rounds": sum(s[0] < a[0] for s, a in zip(samples[i], samples[0])),
            "faster_cpu_rounds": sum(s[1] < a[1] for s, a in zip(samples[i], samples[0])),
        })
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", type=Path, required=True,
                        help="root of a checkout; give it twice or more, the first is the baseline")
    parser.add_argument("--control", action="store_true", help="add a second import of the first tree")
    parser.add_argument("--workload", required=True, help="a perfbench workload, such as identity-sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--serial", action="store_true", help="run every sweep on the calling thread")
    args = parser.parse_args(argv)
    trees = args.tree + args.tree[:1] if args.control else args.tree
    try:
        report = compare(trees, workload_argv(args.workload, args.seed), args.rounds, args.serial)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
