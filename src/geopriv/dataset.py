"""Taxi-trace ingestion, Mercator projection, subsampling, and query pools."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import PointTuple
from .noise import RandomStream

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6378137.0  # WGS-84 equatorial radius
MAX_ABS_LATITUDE = 85.06  # Mercator validity cutoff, degrees


@dataclass(frozen=True)
class TraceRecord:
    """One GPS fix: position in degrees, occupancy flag, epoch seconds."""

    latitude: float
    longitude: float
    occupied: bool
    timestamp: float


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


def inverse_mercator(x, y):
    """Invert the Mercator projection back to (latitude, longitude) degrees."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lat = np.degrees(np.arctan(np.sinh(y / EARTH_RADIUS_M)))
    lon = np.degrees(x / EARTH_RADIUS_M)
    if x.ndim == 0:
        return float(lat), float(lon)
    return lat, lon


def _parse_trace_file(path: Path) -> tuple[list[TraceRecord], int]:
    records: list[TraceRecord] = []
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
                occ = bool(int(parts[2]))
                ts = float(parts[3])
            except ValueError:
                skipped += 1
                continue
            if abs(lat) >= MAX_ABS_LATITUDE or abs(lon) > 180.0 or not (
                math.isfinite(lat) and math.isfinite(lon) and math.isfinite(ts)
            ):
                skipped += 1
                continue
            records.append(TraceRecord(lat, lon, occ, ts))
    records.sort(key=lambda r: r.timestamp)
    return records, skipped


def load_cab_traces(path) -> list[tuple[str, PointTuple, np.ndarray]]:
    """Load plain-text traces as (cab_id, projected points, timestamps) triples.

    ``path`` may be a single file or a directory of per-cab files (``*.txt``,
    one ``latitude longitude occupancy timestamp`` record per line).
    Malformed or out-of-domain lines are skipped with a logged count; cabs
    left with no valid record are dropped.  Points are in Mercator meters,
    chronologically ordered.
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
        records, skipped = _parse_trace_file(f)
        total_skipped += skipped
        if not records:
            continue
        lat = np.array([r.latitude for r in records])
        lon = np.array([r.longitude for r in records])
        xs, ys = mercator(lat, lon)
        ts = np.array([r.timestamp for r in records])
        out.append((f.stem, PointTuple(np.column_stack([xs, ys])), ts))
    if total_skipped:
        logger.warning("skipped %d malformed or out-of-domain lines in %s", total_skipped, path)
    return out


def load_traces(path) -> list[PointTuple]:
    """Projected point tuples, one per cab (see load_cab_traces)."""
    return [points for _, points, _ in load_cab_traces(path)]


def sample_points(trace: PointTuple, n: int, rng: RandomStream) -> PointTuple:
    """Uniform sample of n points without replacement, order preserved.

    A trace with fewer than n points is returned whole.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n >= len(trace):
        return trace
    idx = rng.generator.choice(len(trace), size=n, replace=False)
    idx.sort()
    return PointTuple(trace.points[idx])


def query_point_pool(traces: Iterable[PointTuple], cell: float = 1.0) -> np.ndarray:
    """Centers of the axis-aligned ``cell x cell`` squares containing at
    least one trace point, deduplicated.

    Cell membership is decided per point (segments between consecutive fixes
    are not rasterized).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    if not cell > 0:
        raise ValueError(f"cell must be positive, got {cell}")
    pts = np.vstack([t.points for t in traces])
    cells = np.floor(pts / cell).astype(np.int64)
    uniq = np.unique(cells, axis=0)
    return (uniq + 0.5) * cell
