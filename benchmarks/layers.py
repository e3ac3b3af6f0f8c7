"""Layer timings of the geopriv scan stack.

    python benchmarks/layers.py                        # this checkout, JSON to stdout
    python benchmarks/layers.py --src OTHER/src        # another checkout's source
    python benchmarks/layers.py --compare PARENT_ROOT --out BENCH.json [--tier1]

Each layer is timed with stdlib ``timeit``: ``autorange`` picks the call
count, and the best of 5 runs is reported in milliseconds per call.
Every call starts from a fresh ``RandomStream``, so each run repeats the
same work.  The layers, on uniform points on a 10 km square:

- first, at n = 16384, the identity sweep's size: ``dist_inf`` and
  ``dist_2`` between the tuple and its CGP release at rho 1e-3, and
  ``identity_gp_inf`` (at the matched eps) and ``identity_cgp_inf``;
- ``kpnn``/``kpnn_gp`` at k in {16, 64}, n = 2000 and two budgets;
- ``pnn`` over every index, ``pch_anchors_detailed`` and the query
  distances ``query_dists`` at n in {1k, 4k, 16k, 64k};
- ``sample_planar_laplace`` and ``sample_gaussian_vec`` in 2-D at
  n = 16384 (the identity sweep's batch) and n = 10^6 (the verify batch);
- ``convex_hull`` at n in {1k, 4k, 16k, 64k} of the uniform tuple and of
  its CGP- and GP-noisy releases at the hull sweep's budget (rho 5e-4);
- at n = 4096, ``jaccard`` of a noisy release's hull against the true
  hull, and ``private_convex_hull``/``private_convex_hull_gp``;
- last, each check of ``geopriv verify``'s battery at its default 10^6
  samples, one check per call on the calling thread: the 15 sampling
  checks (``gp_radial_tail`` and ``cgp_radial_tail`` at three budgets,
  ``laplace_sum_pdf`` and ``expected_draws`` at three scales, the latter at
  the battery's 10^5 draws, and ``planar_laplace_mean`` at d = 2, 3, 5)
  and the 12 quadrature checks (``renyi_gaussian`` on a 3 x 3 grid,
  ``gaussian_mech_divergence`` at three rates).  ``perfbench``'s tracer
  keeps one span stack for all threads, so under the battery's thread pool
  its per-check times are not per-check; these layers are.

End-to-end sweep times and CSV hashes are ``perfbench/run.py``'s to measure.

``--compare`` runs the harness on a parent checkout and on this one in six
alternating subprocess rounds, keeps each layer's best time over the rounds,
and writes both sides with their ratio, the numpy version and the core
counts: the host's (``cores``) and this process's (``usable_cores``).
``rounds_ms`` holds every round's time of each layer on each side, and
``quartiles_ms`` each side's first quartile, median and third quartile of
them.  A layer is ``resolved`` when the two sides' quartile ranges do not
overlap; the ratio of an unresolved layer is noise.
Both sides run this file's ``measure``, so the parent must take the same
calls: a checkout without ``geometry.query_dists``, or whose anchor stage
takes a ``PchParams``, fails its side of the comparison.
``--tier1`` adds the wall time of each side's tier-1 suite.  The module is
not a test file, so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXTENT = 10_000.0
SCAN_N = (1000, 4000, 16000, 64000)
KNN_N = 2000
KNN_K = (16, 64)
KNN_RHO = (5e-4, 1e-2)
PNN_EPS = 0.01  # about the GP rate of one kpnn round at rho 5e-4, k 16
HULL_RHO = 5e-4  # the hull sweep's budget; its anchor stage gets rho/2 and beta/2
HULL_BETA = 0.05
HULL_N = 4096
NOISE_N = (16384, 10**6)  # identity sweep and verify batch sizes
VERIFY_SAMPLES = 10**6  # geopriv verify's default; expected_draws takes a tenth
IDENTITY_N = 16384
IDENTITY_RHO = 1e-3  # the middle of the identity sweep's grid
REPEAT = 5  # timeit runs per layer; the best is kept
ROUNDS = 6  # alternating subprocess rounds per side with --compare


def _time(fn) -> float:
    """Best ms per call over REPEAT timeit runs."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=REPEAT, number=number)) / number * 1e3


def measure() -> dict:
    """Time every layer of the geopriv importable now: ``ms`` per call,
    keyed by layer."""
    import numpy as np

    from geopriv import bench, geometry, statcheck
    from geopriv.accounting import matched_gp_budget
    from geopriv.geometry import PointTuple
    from geopriv.hull import convex_hull, jaccard
    from geopriv.mechanisms import (
        identity_cgp_inf,
        identity_gp_inf,
        kpnn,
        kpnn_gp,
        pch_anchors_detailed,
        pnn,
        private_convex_hull,
        private_convex_hull_gp,
    )
    from geopriv.noise import RandomStream, sample_gaussian_vec, sample_planar_laplace

    def uniform(n):
        return PointTuple(np.random.default_rng(n).random((n, 2)) * EXTENT)

    q = [0.37 * EXTENT, 0.61 * EXTENT]
    ms = {}

    def time_layer(key, fn):
        ms[key] = _time(fn)

    # First: glibc's trim threshold only rises (to twice the largest mmapped
    # block freed so far), so after the 10^6-row layers no layer pays the
    # page faults that these layers take in an identity sweep.
    x = uniform(IDENTITY_N)
    y = identity_cgp_inf(x, IDENTITY_RHO, RandomStream(7))
    identity_eps = matched_gp_budget(
        IDENTITY_RHO, bench.ExperimentConfig.delta, bench.ExperimentConfig.min_eps_dist
    )
    time_layer(f"dist_inf n={IDENTITY_N}", lambda: geometry.dist_inf(x, y))
    time_layer(f"dist_2 n={IDENTITY_N}", lambda: geometry.dist_2(x, y))
    time_layer(
        f"identity_gp_inf n={IDENTITY_N} eps={identity_eps:.4g}",
        lambda: identity_gp_inf(x, identity_eps, RandomStream(7)),
    )
    time_layer(
        f"identity_cgp_inf n={IDENTITY_N} rho={IDENTITY_RHO:g}",
        lambda: identity_cgp_inf(x, IDENTITY_RHO, RandomStream(7)),
    )
    x = uniform(KNN_N)
    for rho in KNN_RHO:
        eps = matched_gp_budget(rho, bench.ExperimentConfig.delta, bench.ExperimentConfig.min_eps_dist)
        for k in KNN_K:
            time_layer(
                f"kpnn k={k} n={KNN_N} rho={rho:g}",
                lambda: kpnn(x, q, k, rho, RandomStream(1)),
            )
            time_layer(
                f"kpnn_gp k={k} n={KNN_N} eps={eps:.4g}",
                lambda: kpnn_gp(x, q, k, eps, RandomStream(1)),
            )
    stage_rho, stage_beta = HULL_RHO / 2.0, HULL_BETA / 2.0
    for n in SCAN_N:
        x = uniform(n)
        every = range(1, n + 1)
        time_layer(f"pnn n={n} eps={PNN_EPS:g}", lambda: pnn(x, q, every, PNN_EPS, RandomStream(2)))
        time_layer(
            f"pch_anchors_detailed n={n} rho={stage_rho:g}",
            lambda: pch_anchors_detailed(x, stage_rho, stage_beta, RandomStream(3)),
        )
        time_layer(f"query_dists n={n}", lambda: geometry.query_dists(x.points, q))
    for n in NOISE_N:
        time_layer(
            f"sample_planar_laplace d=2 n={n}",
            lambda: sample_planar_laplace(2, 1.0, RandomStream(6), size=n),
        )
        time_layer(
            f"sample_gaussian_vec d=2 n={n}",
            lambda: sample_gaussian_vec(2, 1.0, RandomStream(6), size=n),
        )
    hull_eps = matched_gp_budget(HULL_RHO, bench.ExperimentConfig.delta, bench.ExperimentConfig.min_eps_dist)
    for n in SCAN_N:
        x = uniform(n)
        tuples = {
            "uniform": x,
            "cgp_noisy": identity_cgp_inf(x, HULL_RHO, RandomStream(4)),
            "gp_noisy": identity_gp_inf(x, hull_eps, RandomStream(4)),
        }
        for kind, y in tuples.items():
            time_layer(f"convex_hull {kind} n={n}", lambda: convex_hull(y.points))
    x = uniform(HULL_N)
    true_hull = convex_hull(x.points)
    noisy_hull = convex_hull(identity_cgp_inf(x, HULL_RHO, RandomStream(4)).points)
    time_layer(f"jaccard cgp_noisy n={HULL_N}", lambda: jaccard(noisy_hull, true_hull))
    time_layer(
        f"private_convex_hull n={HULL_N} rho={HULL_RHO:g}",
        lambda: private_convex_hull(x, HULL_RHO, HULL_BETA, RandomStream(5)),
    )
    time_layer(
        f"private_convex_hull_gp n={HULL_N} eps={hull_eps:.4g}",
        lambda: private_convex_hull_gp(x, hull_eps, HULL_BETA, RandomStream(5)),
    )
    # the verify battery's checks, in its order and with its arguments
    n = VERIFY_SAMPLES
    for eps in (0.5, 1.0, 2.0):
        time_layer(
            f"check_gp_radial_tail eps={eps:g} n={n}",
            lambda: statcheck.check_gp_radial_tail(eps, (1.0, 3.0, 5.0), n, RandomStream(8)),
        )
    for rho in (0.5, 1.0, 2.0):
        time_layer(
            f"check_cgp_radial_tail rho={rho:g} n={n}",
            lambda: statcheck.check_cgp_radial_tail(rho, (0.5, 1.0, 1.5), n, RandomStream(8)),
        )
    for b in (0.5, 1.0, 2.0):
        time_layer(f"check_laplace_sum_pdf b={b:g} n={n}", lambda: statcheck.check_laplace_sum_pdf(b, n, RandomStream(8)))
    for b in (0.5, 1.0, 2.0):
        time_layer(
            f"check_expected_draws b={b:g} n={n // 10}",
            lambda: statcheck.check_expected_draws(b, n // 10, RandomStream(8)),
        )
    for dim, eps in ((2, 1.0), (3, 2.0), (5, 1.0)):
        time_layer(
            f"check_planar_laplace_mean d={dim} eps={eps:g} n={n}",
            lambda: statcheck.check_planar_laplace_mean(dim, eps, n, RandomStream(8)),
        )
    for shift in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            time_layer(
                f"check_renyi_gaussian mu={shift:g} sigma={sigma:g}",
                lambda: statcheck.check_renyi_gaussian(0.0, shift, sigma),
            )
    for rho in (0.25, 0.5, 1.0):
        time_layer(f"check_gaussian_mech_divergence rho={rho:g}", lambda: statcheck.check_gaussian_mech_divergence(rho))
    return {"ms": ms}


def _run_side(root: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(root / "src")]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _tier1_s(root: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=root, env=env, check=False, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def compare(parent: Path, tier1: bool) -> dict:
    """Before/after timings of a parent checkout and this one."""
    import numpy as np

    runs = {"before": [], "after": []}
    for r in range(ROUNDS):
        order = [("before", parent), ("after", ROOT)]
        for side, root in order if r % 2 == 0 else order[::-1]:
            runs[side].append(_run_side(root))
    rounds = {side: {key: [run["ms"][key] for run in done] for key in done[0]["ms"]} for side, done in runs.items()}
    before = {key: min(ms) for key, ms in rounds["before"].items()}
    after = {key: min(ms) for key, ms in rounds["after"].items()}
    ratio = {key: after[key] / ms for key, ms in before.items()}
    quartiles = {
        side: {key: np.percentile(ms, [25, 50, 75]).tolist() for key, ms in by_key.items()}
        for side, by_key in rounds.items()
    }
    resolved = {
        key: bool(q[2] < quartiles["after"][key][0] or quartiles["after"][key][2] < q[0])
        for key, q in quartiles["before"].items()
    }
    result = {
        "harness": "benchmarks/layers.py --compare",
        "method": f"timeit best of {REPEAT} runs (autorange call count), best over {ROUNDS} "
                  "alternating subprocess rounds per side (each round in rounds_ms, their "
                  "[q1, median, q3] in quartiles_ms); ms per call; resolved: the sides' "
                  "[q1, q3] ranges do not overlap",
        "env": {
            "cores": os.cpu_count(),
            # the cores this process may run on: the identity sweep's pool is capped here
            "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "before_ms": before,
        "after_ms": after,
        "after_over_before": ratio,
        "quartiles_ms": quartiles,
        "resolved": resolved,
        "rounds_ms": rounds,
    }
    if tier1:
        result["tier1_s"] = {"before": _tier1_s(parent), "after": _tier1_s(ROOT)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="geopriv source to time")
    parser.add_argument("--compare", type=Path, metavar="PARENT_ROOT", help="checkout to time against")
    parser.add_argument("--tier1", action="store_true", help="also time each side's tier-1 suite")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.compare is not None:
        result = compare(args.compare.resolve(), args.tier1)
    else:
        sys.path.insert(0, str(args.src.resolve()))
        result = measure()
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
