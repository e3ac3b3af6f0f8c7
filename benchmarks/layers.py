"""Layer timings of the geopriv scan stack.

    python benchmarks/layers.py                        # this checkout, JSON to stdout
    python benchmarks/layers.py --src OTHER/src        # another checkout's source

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

End-to-end sweep times, CSV hashes and before/after comparisons are
``perfbench/run.py``'s to measure, in alternating pairs.  To compare one
layer across two checkouts, time each one's ``--src`` in alternating
rounds and keep every round: one best-of figure per side cannot tell a
change from the host's run-to-run spread.  The module is not a test file,
so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="geopriv source to time")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    text = json.dumps(measure(), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
