"""Seedable noise samplers.

Every sampler draws from an explicitly passed :class:`RandomStream`, so a
fixed ``(seed, stream_id)`` pair reproduces identical sequences and distinct
stream ids give statistically independent streams for parallel trials.  A
stream id is an integer or a tuple of 32-bit words, so a caller can key its
streams by position, e.g. ``(tag, collection, trial)``, without packing the
position into one integer.  A degenerate zero-noise stream is provided for
deterministic testing: with it, every sampler returns 0 (or the zero
vector), so mechanisms built on top become exact.  The samplers check their
arguments against the input domain (README, "Input domain") before any
draw: ``dim`` is an integer of at least 1 and ``size`` one of at least 0
(2.5 or "3" is refused, not truncated or parsed), and a scale or rate is
positive and finite; planar Laplace's scale 1/eps must be finite too, which
a subnormal rate overflows.

Common random numbers are served from a memo, not redrawn.  Inside
``with rng.taped():`` each normal and gamma array that
``sample_planar_laplace`` and ``sample_gaussian_vec`` take through the
stream is recorded, read-only, under the generator state before it and the
request (method and arguments), with the state after it.  The same request
met again at the same state is served from the memo, and the generator is
set to the recorded state after it; the sampler scales the array into a
fresh buffer.  So the generator always stands where a fresh stream of the
same key would stand, whatever else draws from it (``sample_laplace``, the
scan's noise blocks, a caller's own draws), and every byte stays the same.
``rewind()`` restores the state at ``taped()``.  A scope holds one entry per
distinct (state, request) it met, and leaving it drops them all: outside
the scope a stream keeps no reference to its draws.  The budget sweeps tape
each trial's streams; ``verify`` never does, as it draws each stream once,
in 64k-row chunks a memo would only hold on to.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .geometry import _as_index, _count, _positive


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

    __slots__ = ("seed", "stream_id", "zero_noise", "_generator", "_bits", "_start", "_memo")

    def __init__(self, seed: int = 0, stream_id: int | tuple[int, ...] = 0, zero_noise: bool = False):
        self.seed = _as_uint(seed, "seed", 64)
        if isinstance(stream_id, tuple):
            self.stream_id = key = tuple(map(_as_uint, stream_id))
        else:
            self.stream_id = _as_uint(stream_id, "stream_id", 64)
            key = (self.stream_id,)
        self.zero_noise = bool(zero_noise)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        self._bits = np.random.PCG64(ss)
        self._generator = np.random.Generator(self._bits)
        self._memo = None

    @property
    def generator(self) -> np.random.Generator:
        """The stream's numpy generator, for draws the memo does not see."""
        return self._generator

    @contextlib.contextmanager
    def taped(self):
        """Memoise this stream's sampler draws until the scope ends (see the
        module docstring)."""
        if self._memo is not None:
            raise RuntimeError("stream is already taped")
        self._start, self._memo = self._bits.state, {}
        try:
            yield self
        finally:
            self._memo = None

    def rewind(self) -> None:
        """Set the taped stream back to its state at ``taped()``."""
        if self._memo is None:
            raise RuntimeError("rewind() needs a taped() stream")
        self._bits.state = self._start

    def _draw(self, method: str, *args) -> np.ndarray:
        """``generator.<method>(*args)``, served from or recorded in the memo
        inside ``taped()``.  A memo's array is read-only: a sampler must
        scale it into a new buffer."""
        memo = self._memo
        if memo is None:
            return getattr(self._generator, method)(*args)
        s = self._bits.state
        key = (s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"], method, args)
        hit = memo.get(key)
        if hit is not None:
            self._bits.state = hit[1]
            return hit[0]
        out = getattr(self._generator, method)(*args)
        out.flags.writeable = False
        memo[key] = out, self._bits.state
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = ", zero_noise=True" if self.zero_noise else ""
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}{tag})"


def _buffer(draw: np.ndarray) -> np.ndarray:
    """Where a sampler scales ``draw``: the fresh draw itself, or a new
    buffer in its place for a memo's read-only one."""
    return draw if draw.flags.writeable else np.empty_like(draw)


def sample_laplace(scale: float, rng: RandomStream, size: int | None = None):
    """Draw from Laplace(0, scale), pdf ``exp(-|y|/scale) / (2*scale)``."""
    _positive("scale", scale)
    size = None if size is None else _count("size", size, least=0)
    if rng.zero_noise:
        return 0.0 if size is None else np.zeros(size)
    if size is None:
        return float(rng.generator.laplace(0.0, scale))
    return rng.generator.laplace(0.0, scale, size=size)


def _laplace_value(u: float, scale: float) -> float:
    """The variate ``Generator.laplace(0.0, scale)`` builds from its uniform
    ``u`` in (0, 1), bit for bit: numpy's formula, whose C code calls libm's
    ``log``, as ``math.log`` does.  numpy draws ``u`` again when it is 0."""
    if u >= 0.5:
        return 0.0 - scale * math.log(2.0 - u - u)
    return 0.0 + scale * math.log(u + u)


def sample_gaussian_vec(dim: int, sigma: float, rng: RandomStream, size: int | None = None):
    """Draw a vector of ``dim`` independent N(0, sigma^2) coordinates.

    With ``size`` given, returns a ``(size, dim)`` array of independent draws.
    """
    dim = _count("dim", dim)
    _positive("sigma", sigma)
    size = None if size is None else _count("size", size, least=0)
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
    when they come from a memo).  Up to d = 2 each column is scaled in turn:
    numpy broadcasts ``z * scale[:, None]`` with an inner loop of length d,
    about three times slower at n = 16384 than two column multiplies.  From
    d = 5 on the column loop loses to the broadcast (×2.3 at d = 8), so it
    stops at the sweeps' d = 2.
    """
    dim = _count("dim", dim)
    if not (0 < eps < math.inf and 1.0 / float(eps) < math.inf):
        raise ValueError(f"eps must be positive and finite with a finite scale 1/eps, got {eps}")
    size = None if size is None else _count("size", size, least=0)
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
    if dim <= 2:
        for j in range(dim):
            np.multiply(z[:, j], scale, out=y[:, j])
    else:
        np.multiply(z, scale[:, None], out=y)
    return y[0] if size is None else y

