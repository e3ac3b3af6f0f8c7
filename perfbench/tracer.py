"""Outside-in span tracer for the geopriv layers.

Python modules bind imported names at import time, so a function is reached
through the attribute of every module that imported it
(``geopriv.bench.kpnn``, ``geopriv.mechanisms.sample_laplace``,
``geopriv.statcheck.adaptive_simpson``, ...).  ``Tracer.installed()`` replaces
each such binding of a traced public function with a wrapper and restores the
originals on exit; nothing under ``src/`` is edited.  Private helpers
(``_validate_indices``, ``_kpnn_rounds``, ``_pch_anchors_gp_detailed``, ...)
are not wrapped, so their time is self time of the public caller.

A wrapper records the call count, the self time (span duration minus the
time covered by traced callees) and the work counts named in ``SPANS``.
Time no span covers is the self time of the root frame: ``bench.other_s``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _svt(args, kwargs, result):
    return {"steps": result.steps, "halts": int(result.halted)}


def _candidates(args, kwargs, result):
    return {"candidates": len(_arg(args, kwargs, 2, "indices"))}


def _anchors(args, kwargs, result):
    return {"anchors": len(result.anchors)}


def _points_in(args, kwargs, result):
    return {"points_in": len(_arg(args, kwargs, 0, "points"))}


# (layer, public function, work counts, counter).  The layer is the module
# that defines the function; the counter maps (args, kwargs, result) to the
# work counts.
SPANS = (
    ("noise", "sample_laplace", ("draws",), _draws),
    ("noise", "sample_gaussian_vec", ("draws",), _draws),
    ("noise", "sample_planar_laplace", ("draws",), _draws),
    ("geometry", "dist_inf", (), None),
    ("geometry", "dist_2", (), None),
    ("mechanisms", "svt", ("steps", "halts"), _svt),
    ("mechanisms", "pnn", ("candidates",), _candidates),
    ("mechanisms", "kpnn", (), None),
    ("mechanisms", "kpnn_gp", (), None),
    ("mechanisms", "pch_anchors_detailed", (), None),
    ("mechanisms", "private_convex_hull", ("anchors",), _anchors),
    ("mechanisms", "private_convex_hull_gp", ("anchors",), _anchors),
    ("mechanisms", "identity_gp_inf", (), None),
    ("mechanisms", "identity_cgp_inf", (), None),
    ("hull", "convex_hull", ("points_in",), _points_in),
    ("hull", "jaccard", (), None),
    ("dataset", "sample_points", (), None),
    ("dataset", "query_point_pool", (), None),
    ("statcheck", "check_gp_radial_tail", (), None),
    ("statcheck", "check_cgp_radial_tail", (), None),
    ("statcheck", "check_laplace_sum_pdf", (), None),
    ("statcheck", "check_expected_draws", (), None),
    ("statcheck", "check_planar_laplace_mean", (), None),
    ("statcheck", "check_renyi_gaussian", (), None),
    ("statcheck", "check_gaussian_mech_divergence", (), None),
    ("statcheck", "adaptive_simpson", (), None),
)


class Tracer:
    """Per-span call counts, work counts and self times for one sweep at a time."""

    def __init__(self):
        self.stats = {
            f"{layer}.{name}": dict.fromkeys(("calls",) + counts + ("self_s",), 0)
            for layer, name, counts, _ in SPANS
        }
        self._stack = [0.0]  # time covered by traced callees, one entry per open frame
        self.missing = []

    def reset(self) -> None:
        """Zero every statistic in place (the wrappers hold the dicts)."""
        for entry in self.stats.values():
            for name in entry:
                entry[name] = 0

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root frame; returns (result, wall, uncovered)."""
        self._stack[:] = [0.0]
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, wall - self._stack[0]

    def _wrap(self, key, fn, counter):
        entry = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                covered = stack.pop()
                stack[-1] += elapsed
                entry["calls"] += 1
                entry["self_s"] += elapsed - covered
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    entry[name] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each traced function in the loaded geopriv
        modules; restore the original bindings on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geopriv" or n.startswith("geopriv."))]
        patched = []
        self.missing = []
        try:
            for layer, name, _, counter in SPANS:
                original = getattr(sys.modules.get(f"geopriv.{layer}"), name, None)
                if original is None:
                    # a span the code no longer has reports zero calls
                    self.missing.append(f"{layer}.{name}")
                    continue
                traced = self._wrap(f"{layer}.{name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
