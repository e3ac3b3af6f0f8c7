"""Seedable noise samplers and the two-Laplace-sum density.

Every sampler draws from an explicitly passed :class:`RandomStream`, so a
fixed ``(seed, stream_id)`` pair reproduces identical sequences and distinct
stream ids give statistically independent streams for parallel trials.  A
stream id is an integer or a tuple of 32-bit words, so a caller can key its
streams by position, e.g. ``(tag, collection, trial)``, without packing the
position into one integer.  A degenerate zero-noise stream is provided for
deterministic testing: with it, every sampler returns 0 (or the zero
vector), so mechanisms built on top become exact.  A sampler's ``dim`` and
``size`` must be integers: 2.5, 3.7 or "3" raises ValueError before any
draw rather than being truncated or parsed.  Its scale must be positive and
finite; so must planar Laplace's rate and its scale 1/eps, which overflows
for a subnormal rate.

Common random numbers are replayed, not redrawn.  Inside
``with rng.taped():`` the stream records every normal and gamma array that
``sample_planar_laplace`` and ``sample_gaussian_vec`` take through it, with
the generator state after each.  After ``rng.rewind()`` a request equal to
the next recorded one (same method, same arguments) is served from the
tape, as a read-only array the sampler scales into a fresh buffer, so the
tape is never written to.  The first request that differs, a request past
the end of the tape, any use of ``rng.generator`` (``sample_laplace``, the
scan's noise blocks, a caller's own draws) and leaving the scope end the
replay: the generator is set to the state after the last served entry, so
what follows is drawn exactly as a fresh stream of the same key would draw
it, and every byte stays the same.  Nothing drawn after a use of
``rng.generator`` in one pass is recorded, since a replay would skip that
use.  Outside the scope a stream keeps no reference to its draws.  The
budget sweeps tape each trial's streams; ``verify`` never does, as it
draws each stream once, in 64k-row chunks a tape would only hold on to.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .geometry import _as_index


def _as_uint(v, name: str = "stream_id element", bits: int = 32) -> int:
    v = _as_index(v, name)
    if not 0 <= v < 2**bits:
        raise ValueError(f"{name} must be in [0, 2**{bits}), got {v}")
    return v


class RandomStream:
    """Deterministic randomness source keyed by (seed, stream_id).

    Backed by a PCG64 generator seeded through :class:`numpy.random.SeedSequence`
    with ``stream_id`` as the spawn key, which makes streams with distinct ids
    statistically independent.  ``stream_id`` is an integer ``i`` in
    [0, 2**64), the key ``(i,)``, or a tuple of integers in [0, 2**32).
    SeedSequence splits a larger element into 32-bit words (``(2**32,)``
    would be the stream of ``(0, 1)``), so only one-word elements keep
    distinct tuples distinct streams.  Pass ``zero_noise=True`` to get the
    degenerate test stream.
    """

    __slots__ = ("seed", "stream_id", "zero_noise", "_generator", "_tape")

    def __init__(self, seed: int = 0, stream_id: int | tuple[int, ...] = 0, zero_noise: bool = False):
        self.seed = _as_uint(seed, "seed", 64)
        if isinstance(stream_id, tuple):
            self.stream_id = key = tuple(map(_as_uint, stream_id))
        else:
            self.stream_id = _as_uint(stream_id, "stream_id", 64)
            key = (self.stream_id,)
        self.zero_noise = bool(zero_noise)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        self._generator = np.random.Generator(np.random.PCG64(ss))
        self._tape = None

    @property
    def generator(self) -> np.random.Generator:
        """The generator, for draws the tape does not see: inside ``taped()``
        this ends a replay and stops recording until the next ``rewind()``."""
        tape = self._tape
        if tape is not None:
            if tape.replaying:
                self._end_replay()
            tape.recording = False
        return self._generator

    @contextlib.contextmanager
    def taped(self):
        """Record this stream's sampler draws until the scope ends (see the
        module docstring); the tape is dropped on exit."""
        if self._tape is not None:
            raise RuntimeError("stream is already taped")
        self._tape = _Tape(self._generator.bit_generator.state)
        try:
            yield self
        finally:
            if self._tape.replaying:
                self._end_replay()
            self._tape = None

    def rewind(self) -> None:
        """Restart the taped stream from its state at ``taped()``: matching
        sampler requests are served from the tape."""
        tape = self._tape
        if tape is None:
            raise RuntimeError("rewind() needs a taped() stream")
        tape.pos, tape.replaying, tape.recording = 0, True, True

    def _end_replay(self) -> None:
        tape = self._tape
        del tape.entries[tape.pos :]
        self._generator.bit_generator.state = tape.entries[-1][2] if tape.entries else tape.start
        tape.replaying = False

    def _draw(self, method: str, *args) -> np.ndarray:
        """``generator.<method>(*args)``, recorded or replayed inside ``taped()``.
        A taped array is read-only: a sampler must scale it into a new buffer."""
        tape = self._tape
        if tape is None:
            return getattr(self._generator, method)(*args)
        request = (method, args)
        if tape.replaying:
            if tape.pos < len(tape.entries) and tape.entries[tape.pos][0] == request:
                tape.pos += 1
                return tape.entries[tape.pos - 1][1]
            self._end_replay()
        out = getattr(self._generator, method)(*args)
        if tape.recording:
            out.flags.writeable = False
            tape.entries.append((request, out, self._generator.bit_generator.state))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = ", zero_noise=True" if self.zero_noise else ""
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}{tag})"


class _Tape:
    """One ``taped()`` scope: the generator state at its start and a
    ``(request, array, state after)`` entry per recorded draw.  While
    ``replaying``, entries before ``pos`` have been served and the generator
    is behind; ``recording`` is off after a direct use of the generator."""

    __slots__ = ("start", "entries", "pos", "replaying", "recording")

    def __init__(self, start: dict):
        self.start = start
        self.entries = []
        self.pos = 0
        self.replaying = False
        self.recording = True


def _buffer(draw: np.ndarray) -> np.ndarray:
    """Where a sampler scales ``draw``: the fresh draw itself, or a new
    buffer in its place for a taped, read-only one."""
    return draw if draw.flags.writeable else np.empty_like(draw)


def _as_dim(dim) -> int:
    dim = _as_index(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    return dim


def sample_laplace(scale: float, rng: RandomStream, size: int | None = None):
    """Draw from Laplace(0, scale), pdf ``exp(-|y|/scale) / (2*scale)``."""
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    size = None if size is None else _as_index(size, "size")
    if rng.zero_noise:
        return 0.0 if size is None else np.zeros(size)
    if size is None:
        return float(rng.generator.laplace(0.0, scale))
    return rng.generator.laplace(0.0, scale, size=size)


def sample_gaussian_vec(dim: int, sigma: float, rng: RandomStream, size: int | None = None):
    """Draw a vector of ``dim`` independent N(0, sigma^2) coordinates.

    With ``size`` given, returns a ``(size, dim)`` array of independent draws.
    """
    dim = _as_dim(dim)
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    size = None if size is None else _as_index(size, "size")
    if rng.zero_noise:
        return np.zeros(dim) if size is None else np.zeros((size, dim))
    z = rng._draw("standard_normal", dim if size is None else (size, dim))
    return np.multiply(z, sigma, out=_buffer(z))


def sample_planar_laplace(dim: int, eps: float, rng: RandomStream, size: int | None = None):
    """Draw from the d-dimensional distribution with pdf proportional to
    ``exp(-eps * ||y||)``.

    This is the noise of the planar Laplace mechanism of Andres et al.
    (CCS 2013), generalized to d dimensions.  It is drawn as a normal scale
    mixture (Andrews & Mallows, JRSS B 1974): ``sqrt(2 V) * Z / eps`` with
    Z ~ N(0, I_d) and V ~ Gamma((d+1)/2, 1) has exactly this law, and at
    d = 1 it is Laplace(1/eps).  Each call draws the (n, d) normals first,
    then the n gammas, and scales the normals in place (into a fresh buffer
    when they come from a tape).
    """
    dim = _as_dim(dim)
    if not (0 < eps < math.inf and 1.0 / float(eps) < math.inf):
        raise ValueError(f"eps must be positive and finite with a finite scale 1/eps, got {eps}")
    size = None if size is None else _as_index(size, "size")
    if rng.zero_noise:
        return np.zeros(dim) if size is None else np.zeros((size, dim))
    n = 1 if size is None else size
    # the normals' buffer before the gamma's: the other way round, one
    # identity sweep at n = 16384 takes about 13k minor page faults instead
    # of single digits
    z = rng._draw("standard_normal", (n, dim))
    y = _buffer(z)
    v = rng._draw("standard_gamma", (dim + 1) / 2, n)
    scale = np.multiply(v, 2.0, out=_buffer(v))
    np.sqrt(scale, out=scale)
    scale /= eps
    np.multiply(z, scale[:, None], out=y)
    return y[0] if size is None else y


def laplace_sum_pdf(y, scale: float):
    """Density of the sum of two iid Laplace(scale) variables:
    ``(scale + |y|) * exp(-|y|/scale) / (4 * scale**2)``."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    a = np.abs(np.asarray(y, dtype=np.float64))
    out = (scale + a) * np.exp(-a / scale) / (4.0 * scale**2)
    return float(out) if np.isscalar(y) or out.ndim == 0 else out
