"""Taxi traces as Mercator point tuples, subsampling, and query pools."""

from __future__ import annotations

import logging
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import PointTuple, _count, _positive
from .noise import RandomStream

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6378137.0  # WGS-84 equatorial radius
MAX_ABS_LATITUDE = 85.06  # Mercator validity cutoff, degrees


def mercator(lat, lon):
    """Project (latitude, longitude) degrees to Mercator meters.

    x = R * lon_rad, y = R * log(tan(pi/4 + lat_rad/2)) with the WGS-84
    radius, computed as R * asinh(tan(lat_rad)) for accuracy near the
    equator; only valid for |latitude| < 85.06 degrees.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if np.any(np.abs(lat) >= MAX_ABS_LATITUDE):
        raise ValueError(f"latitude must satisfy |lat| < {MAX_ABS_LATITUDE} degrees")
    if np.any(np.abs(lon) > 180.0):
        raise ValueError("longitude must satisfy |lon| <= 180 degrees")
    x = EARTH_RADIUS_M * np.radians(lon)
    y = EARTH_RADIUS_M * np.arcsinh(np.tan(np.radians(lat)))
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def _parse_trace_file(path: Path) -> tuple[list[tuple[float, float, float]], int]:
    """The ``(lat, lon, timestamp)`` fixes of one file in time order, ties in
    file order, and the count of lines skipped as malformed or out of domain."""
    fixes = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 4:
                if parts:
                    skipped += 1
                continue
            try:
                lat, lon = float(parts[0]), float(parts[1])
                int(parts[2])  # the occupancy flag: unused, but a line without one is malformed
                ts = float(parts[3])
            except ValueError:
                skipped += 1
                continue
            if abs(lat) >= MAX_ABS_LATITUDE or abs(lon) > 180.0 or not (
                math.isfinite(lat) and math.isfinite(lon) and math.isfinite(ts)
            ):
                skipped += 1
                continue
            fixes.append((lat, lon, ts))
    fixes.sort(key=lambda f: f[2])  # stable
    return fixes, skipped


def load_traces(path) -> list[PointTuple]:
    """Projected point tuples, one per cab.

    ``path`` may be a single file or a directory of per-cab files (``*.txt``,
    read in name order, one ``latitude longitude occupancy timestamp``
    record per line).  Malformed or out-of-domain lines are skipped with a
    logged count; cabs left with no valid record are dropped.  Points are in
    Mercator meters, chronologically ordered.
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.txt"))
    elif p.is_file():
        files = [p]
    else:
        raise ValueError(f"no such file or directory: {path}")

    out = []
    total_skipped = 0
    for f in files:
        fixes, skipped = _parse_trace_file(f)
        total_skipped += skipped
        if fixes:
            lat, lon, _ = np.array(fixes).T
            out.append(PointTuple._own(np.column_stack(mercator(lat, lon))))
    if total_skipped:
        logger.warning("skipped %d malformed or out-of-domain lines in %s", total_skipped, path)
    return out


def sample_points(trace: PointTuple, n: int, rng: RandomStream) -> PointTuple:
    """Uniform sample of n points without replacement, order preserved.

    A trace with fewer than n points is returned whole.
    """
    n = _count("n", n)
    if n >= len(trace):
        return trace
    idx = rng.generator.choice(len(trace), size=n, replace=False)
    idx.sort()
    return PointTuple._own(trace.points[idx])


def query_point_pool(traces: Iterable[PointTuple], cell: float = 1.0) -> np.ndarray:
    """Centers of the axis-aligned ``cell x cell`` squares containing at
    least one trace point, deduplicated.

    Cell membership is decided per point (segments between consecutive fixes
    are not rasterized).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    _positive("cell", cell)
    pts = np.vstack([t.points for t in traces])
    cells = np.floor(pts / cell)  # as floats: an int64 cast fails from about 9.2e18
    uniq = np.unique(cells, axis=0)
    return (uniq + 0.5) * cell
