"""Private mechanisms over point tuples.

Identity queries (planar-Laplace for GP, Gaussian for CGP, under both the
max-per-point and the flattened l2 tuple metrics), a below-threshold sparse
vector scan for Lipschitz queries, private (k-)nearest-neighbour selection
built on it, and the private convex hull pipeline.

Each GP/CGP pair (``identity_gp_inf``/``identity_cgp_inf``,
``identity_gp_l2``/``identity_cgp_l2``, ``kpnn_gp``/``kpnn``,
``private_convex_hull_gp``/``private_convex_hull``) shares one
implementation.  The two differ only by a calibration, ``_GP`` or
``_CGP``: the noise rule every release draws through (a Delta-Lipschitz
release charged ``b`` gets planar-Laplace noise at rate ``b / Delta`` or
Gaussian noise with ``sigma = Delta / sqrt(2 b)``; Delta is sqrt(2) for
the bounding-box centre, 1 elsewhere), a selection round's scan rate, the
bounding-circle slack, and the auto anchor count.

Every sparse vector scan (``svt``, ``pnn``, each round of ``kpnn`` and
``kpnn_gp``, each probe of the anchor stage) runs through one array scan,
``_scan``.  It takes the queries in blocks of up to 256.  Per block it
draws the uniforms that numpy builds a Laplace draw of the block's size
from, and finds at once the candidates: the values below a limit, computed
from their uniform, that every accepting value meets.  It confirms them in
order with numpy's own variate and halts at the first whose noisy value is
below the gate.  The blocks are the ones a query-by-query scan would draw,
and a block with a zero uniform, which numpy draws again, is replayed, so
the draw stream, and every output at a fixed seed, is that of such a scan.

``pnn``, each ``kpnn`` round and each anchor probe are one private
nearest-neighbour step, ``_pnn_scan(dists, rate, rng) -> (pos, steps)``,
over distances computed once per query point by ``geometry.query_dists``;
the step charges nothing, its caller charges the step's budget first.  The step cycles through its
distances (``_cycle``): a block that does not cross the end of the array is
a view of it, and only a block across the seam is a wrapped copy, taken
from the block's offset ``done % m`` so that its cost does not grow with
the cycle count.  A ``kpnn`` round scans the distances of the indices not
yet chosen, in ascending index order, kept in place at the front of the
array (``_kpnn`` shifts the entries past each round's pick left by one);
an anchor probe scans all n.

A mechanism takes only the paper's parameters: the tuple, a query point, k,
a budget and beta (``svt`` also its threshold, Lipschitz constant, queries
and step cap).  Every noise scale follows from them.  A nearest-neighbour
step gives up with NonHaltError after ``_MAX_CYCLES`` passes over its
candidates, and the hull's auto anchor count is clamped to 16..128.  The
arguments are checked against the input domain (README, "Input domain")
before any charge or draw: a budget and every noise scale it buys are
positive and finite (a subnormal budget's overflow), beta is in (0, 1), k
and ``svt``'s step cap are integers in range, and a query point and
``svt``'s threshold are finite; otherwise ValueError.  One overflow shows
only in the draws: a finite noise scale near the largest double can draw a
privatized bounding circle whose centre or radius is not finite.  The
anchor stage raises ValueError for it after ``centre`` and ``radius`` are
charged, before any probe is charged.

Every mechanism takes an explicit RandomStream and, optionally, a
BudgetLedger that audits its internal splits.  Each part is charged before
the scan or draw that spends it, so an aborted scan leaves its budget on
record; only an identity release draws first, since its sampler is what
refuses an infinite scale.  The labels are:

- identity releases: ``points`` (max metric) or ``tuple`` (l2 metric)
- ``svt``: ``svt_threshold``, ``svt_queries``; ``pnn``: ``pnn_threshold``
  and then the ``svt`` labels
- ``kpnn``, ``kpnn_gp``: ``round_1`` .. ``round_k``
- ``private_convex_hull``, ``private_convex_hull_gp``: the anchor stage's
  ``centre``, ``radius``, ``probe_1`` .. ``probe_k``, then ``release_1`` ..
  ``release_k``

Indices crossing the API are 1-based (see geometry module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from .accounting import BudgetLedger
from .geometry import (
    PointTuple, _as_index, _count, _positive, _probability, _validate_indices, center, max_radius, query_dists
)
from .noise import (
    RandomStream,
    _laplace_value,
    sample_gaussian_vec,
    sample_laplace,
    sample_planar_laplace,
)


class NonHaltError(RuntimeError):
    """A threshold scan exceeded its step cap without accepting a query."""


@dataclass(frozen=True)
class SvtOutcome:
    """Result of a sparse vector scan.

    When ``halted`` is True the output sequence was ``index - 1`` rejections
    followed by one acceptance, and ``steps == index``; otherwise ``index``
    is None and ``steps`` counts the queries evaluated before giving up.
    """

    halted: bool
    steps: int
    index: int | None = None


@dataclass(frozen=True)
class PchInfo:
    """Diagnostics of an anchor-selection run: the privatized circle centre
    and radius, the anchor count used, and the per-probe budget share
    (a CGP rate for the Gaussian variant, a GP rate for the Laplace one)."""

    center: np.ndarray
    radius: float
    k: int
    probe_budget: float


@dataclass(frozen=True)
class HullResult:
    """Privatized convex hull release: selected anchor indices (1-based),
    their noised locations (k x 2), and the anchor-stage diagnostics."""

    anchors: list[int]
    points: np.ndarray
    info: PchInfo


# ---------------------------------------------------------------------------
# calibrations: the only place where GP and CGP differ


@dataclass(frozen=True)
class _Calibration:
    """How a budget (eps for GP, rho for CGP) becomes noise.

    ``noise(dim, budget, rng, count=1, lipschitz=1.0, size=None)`` is the
    noise of one of ``count`` releases of a ``lipschitz``-Lipschitz
    ``dim``-vector that share ``budget`` (``size`` rows of it if given).
    ``round_rate(share)`` is the GP rate of a selection scan charged
    ``share``; ``radius_slack(b0, beta)`` inflates the bounding-circle
    radius bought with a third of ``b0``; ``auto_k(radius, budget, n, beta)``
    is the unclamped anchor count.
    """

    unit: str
    noise: Callable[..., np.ndarray]
    round_rate: Callable[[float], float]
    radius_slack: Callable[[float, float], float]
    auto_k: Callable[[float, float, int, float], float]


# The samplers are looked up at call time, so rebinding a module attribute
# (as a tracer does) reaches them.
_GP = _Calibration(
    unit="eps",
    noise=lambda dim, budget, rng, count=1, lipschitz=1.0, size=None: sample_planar_laplace(
        dim, budget / count / lipschitz, rng, size=size
    ),
    round_rate=lambda share: share,
    radius_slack=lambda b0, beta: (3.0 / b0) * math.log(2.0 / beta),
    auto_k=lambda radius, budget, n, beta: math.sqrt(radius * budget / math.log(n / beta)),
)

_CGP = _Calibration(
    unit="rho",
    noise=lambda dim, budget, rng, count=1, lipschitz=1.0, size=None: sample_gaussian_vec(
        dim, lipschitz * math.sqrt(count / (2.0 * budget)), rng, size=size
    ),
    round_rate=lambda share: math.sqrt(2.0 * share),
    radius_slack=lambda b0, beta: math.sqrt(3.0 * math.log(2.0 / beta) / b0),
    auto_k=lambda radius, budget, n, beta: (
        radius * math.sqrt(budget) / math.log(n / beta)
    ) ** (2.0 / 3.0),
)


def _check_query_point(query_point) -> None:
    # at the public boundary, not in query_dists, so an anchor probe pays nothing
    if not np.isfinite(np.asarray(query_point, dtype=np.float64)).all():
        raise ValueError(f"query point must be finite, got {query_point}")


def _charge(ledger: BudgetLedger | None, label: str, amount: float) -> None:
    if ledger is not None:
        ledger.charge(label, amount)


# ---------------------------------------------------------------------------
# identity queries


def _identity_inf(
    cal: _Calibration, x: PointTuple, budget: float, rng: RandomStream, ledger: BudgetLedger | None
) -> PointTuple:
    _positive(cal.unit, budget)
    n = len(x)
    noise = cal.noise(x.dim, budget, rng, count=n, size=n)  # refuses an infinite scale
    _charge(ledger, "points", budget)
    noise += x.points
    return PointTuple._own(noise)


def identity_gp_inf(
    x: PointTuple, eps: float, rng: RandomStream, ledger: BudgetLedger | None = None
) -> PointTuple:
    """Release the whole tuple under eps-GP w.r.t. the max per-point metric.

    Each point independently gets planar-Laplace noise at rate eps/n; the
    guarantee follows from basic composition over the n points.
    """
    return _identity_inf(_GP, x, eps, rng, ledger)


def identity_cgp_inf(
    x: PointTuple, rho: float, rng: RandomStream, ledger: BudgetLedger | None = None
) -> PointTuple:
    """Release the whole tuple under rho-CGP w.r.t. the max per-point metric.

    Each coordinate of each point gets Gaussian noise with standard deviation
    sqrt(n / (2 rho)): each point is released at rho/n and the rates add.
    """
    return _identity_inf(_CGP, x, rho, rng, ledger)


def _identity_l2(
    cal: _Calibration, x: PointTuple, budget: float, rng: RandomStream, ledger: BudgetLedger | None
) -> PointTuple:
    _positive(cal.unit, budget)
    noise = cal.noise(x.n * x.dim, budget, rng).reshape(x.n, x.dim)  # refuses an infinite scale
    _charge(ledger, "tuple", budget)
    noise += x.points
    return PointTuple._own(noise)


def identity_gp_l2(
    x: PointTuple, eps: float, rng: RandomStream, ledger: BudgetLedger | None = None
) -> PointTuple:
    """Release the whole tuple under eps-GP w.r.t. the flattened l2 metric:
    a single (n*d)-dimensional planar-Laplace draw at rate eps."""
    return _identity_l2(_GP, x, eps, rng, ledger)


def identity_cgp_l2(
    x: PointTuple, rho: float, rng: RandomStream, ledger: BudgetLedger | None = None
) -> PointTuple:
    """Release the whole tuple under rho-CGP w.r.t. the flattened l2 metric:
    per-coordinate Gaussian noise with standard deviation 1/sqrt(2 rho)."""
    return _identity_l2(_CGP, x, rho, rng, ledger)


# ---------------------------------------------------------------------------
# sparse vector technique

# Queries per block of the scan's noise; the block sizes fix the draw stream.
_BLOCK = 256
# The relative slack of the candidate bound, per unit of 1 + |gate| / scale.
_SLACK = 1e-9
# The largest gate and the range of scales decided from uniforms: there a
# variate is a normal double and the candidate limit is finite (see ``_scan``).
_TAME = 2.0**960


def _scan(
    block: Callable[[int, int], np.ndarray],
    gate: float,
    scale: float,
    max_steps: int,
    rng: RandomStream,
) -> SvtOutcome:
    """The one below-threshold scan loop behind ``svt`` and ``pnn``, in the
    blocks the module docstring describes.

    ``block(done, size)`` returns the values of queries ``done + 1`` ..
    ``done + size``, fewer only when the query stream runs out; it may
    return a view, which the scan does not write to.  A block of
    ``min(256, max_steps - done)`` queries halts the scan at its first
    ``noise + value <= gate``, the noise being the block's
    ``generator.laplace(0.0, scale, size)``.

    That draw is not made, but its uniforms are.  numpy builds each
    variate from one uniform u, as ``scale * log(2u)`` below 1/2 and
    ``-scale * log(2 - 2u)`` from 1/2 on, non-decreasing in u, and draws u
    again when it is 0.  The scan draws ``generator.random(size)``, the
    same uniforms.  In real arithmetic a value accepts iff u <= F(t), the
    Laplace CDF at ``t = (gate - value) / scale``, and F(t) <= exp(t) / 2,
    so every accepting value has ``u <= (1 + delta) exp(t) / 2``, that is
    ``value <= gate + scale * log((1 + delta) / 2) - scale * log(u)``.  The
    scan compares the whole block with that limit at once (``np.log``).
    ``delta = 1e-9 (1 + |gate| / scale)`` also covers rounding, which moves
    the acceptance boundary by a relative few ulps times
    ``40 + |gate| / scale`` (|log u| <= 36.8 for u >= 2**-53).  The
    candidates are confirmed in order with numpy's own variate
    (``noise._laplace_value``, libm's log) and the same comparison, so the
    first confirmed one is the hit, bit for bit.  A block whose uniforms
    hold a zero (one block in 2**45) is decided value by value as numpy
    draws it, with a fresh uniform in place of each zero, so the generator
    ends every block where ``laplace`` leaves it.

    Outside the regime that argument covers, a scale outside
    [2**-960, 2**960], or a gate that is not finite, above 2**960 in size
    or above 1e12 scales, the scan draws ``laplace`` itself.
    """
    gen = None if rng.zero_noise else rng.generator
    ratio = abs(gate) / scale
    shift = None
    if gen is not None and 1.0 / _TAME <= scale <= _TAME and ratio <= 1e12 and abs(gate) <= _TAME:
        # value <= shift - scale * log(u) is u <= (1 + delta) exp(t) / 2
        shift = gate + scale * math.log(0.5 * (1.0 + _SLACK * (1.0 + ratio)))
    done = 0
    while done < max_steps:
        size = min(_BLOCK, max_steps - done)
        values = block(done, size)
        n = len(values)
        if n == 0:
            break
        if shift is not None:
            i = _block_hit(gen, values, size, gate, scale, shift)
        else:
            if gen is not None:
                # numpy's IEEE sum decides, where it overflows or is nan too
                with np.errstate(over="ignore", invalid="ignore"):
                    values = gen.laplace(0.0, scale, size)[:n] + values
            hit = values <= gate
            i = int(hit.argmax())
            i = i if hit[i] else None
        if i is not None:
            steps = done + i + 1
            return SvtOutcome(True, steps, steps)
        done += n
    return SvtOutcome(False, done, None)


def _block_hit(gen: np.random.Generator, values: np.ndarray, size: int, gate: float, scale: float, shift: float):
    """The first position of one block whose value accepts, or None,
    decided from the block's ``size`` uniforms (see ``_scan``)."""
    n = len(values)
    u = gen.random(size)
    if np.count_nonzero(u) < size:
        return _replay(gen, values, u, gate, scale)
    # log u is finite, in [-36.8, 0): the limit neither overflows nor warns
    limit = np.log(u)
    limit *= -scale
    limit += shift
    cand = np.less_equal(values, limit if n == size else limit[:n])
    p = int(cand.argmax())
    while cand[p]:
        if _laplace_value(u.item(p), scale) + values.item(p) <= gate:
            return p
        if p + 1 == n:
            break
        p += 1 + int(cand[p + 1 :].argmax())
    return None


def _replay(gen: np.random.Generator, values: np.ndarray, u: np.ndarray, gate: float, scale: float):
    """A block whose uniforms hold a zero, decided as numpy's ``laplace``
    draws it: its variates are the block's nonzero uniforms in order, then
    fresh ones, drawn in place of each zero until there are ``len(u)``."""
    w = u[u != 0.0]
    while len(w) < len(u):
        more = gen.random(len(u) - len(w))
        w = np.concatenate((w, more[more != 0.0]))
    for j, x in enumerate(w[: len(values)].tolist()):
        if _laplace_value(x, scale) + values.item(j) <= gate:
            return j
    return None


def _cycle(values: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """Scan blocks that cycle through ``values`` from its first entry: a
    view ``values[start:start + size]`` (``start = done % m``) while the
    block does not wrap, and a wrapped copy only at the seam."""
    m = len(values)

    def block(done: int, size: int) -> np.ndarray:
        start = done % m
        if start + size <= m:
            return values[start : start + size]
        # indices below m + 256: wrap mode's cost grows with an index's size
        return values.take(np.arange(start, start + size), mode="wrap")

    return block


def svt(
    x: PointTuple,
    eps: float,
    threshold: float,
    lipschitz: float,
    queries: Iterable[Callable[[PointTuple], float]],
    max_steps: int,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> SvtOutcome:
    """Below-threshold sparse vector scan, eps-GP for K-Lipschitz queries.

    The budget is split evenly: the threshold perturbation W is
    Laplace(2K/eps), each per-query perturbation V_j is Laplace(4K/eps), and
    the scan halts at the first j with ``g_j(x) + V_j <= threshold + W``.
    If no query accepts within ``max_steps`` (or the query stream runs out)
    the outcome reports a budget-safe non-halt; privacy is unaffected either
    way, only the caller's utility is.

    The queries are evaluated a block at a time, up to 256 of them, and fed
    to the same array scan as ``pnn``: one block of V draws per block of
    queries, so the draw stream is that of a query-by-query scan.  The
    queries after the accepted one in its block are evaluated too; their
    values are not used, but an exception one of them raises propagates.
    Queries past that block are never evaluated.
    """
    _positive("eps", eps)
    _positive("lipschitz", lipschitz)
    _positive("query noise scale 4K/eps", 4.0 * lipschitz / eps)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    max_steps = _count("max_steps", max_steps)
    stream = iter(queries)

    def block(done, size):
        return np.fromiter((q(x) for q in islice(stream, size)), dtype=np.float64)

    _charge(ledger, "svt_threshold", eps / 2.0)
    _charge(ledger, "svt_queries", eps / 2.0)
    gate = threshold + sample_laplace(2.0 * lipschitz / eps, rng)
    return _scan(block, gate, 4.0 * lipschitz / eps, max_steps, rng)


# ---------------------------------------------------------------------------
# private nearest neighbours


# Passes over the candidates before a nearest-neighbour scan gives up with
# NonHaltError: about 1.4e-7 aborts per scan, so the cap only guards runtime.
_MAX_CYCLES = 16384


def _check_step_rate(rate: float) -> None:
    """Refuse, before anything is charged, a nearest-neighbour step rate at
    which its largest noise scale, the scan's 6/rate, overflows."""
    svt_eps = 2.0 * rate / 3.0  # as _pnn_scan splits it; > 0 whenever rate > 0
    if not (svt_eps > 0 and 4.0 / svt_eps < math.inf):
        raise ValueError(f"a nearest-neighbour step at rate {rate} has an infinite noise scale")


def _pnn_scan(dists: np.ndarray, rate: float, rng: RandomStream) -> tuple[int, int]:
    """The private nearest-neighbour step behind ``pnn``, each ``kpnn`` round
    and each anchor probe: a rate-GP scan cycling the candidate distances,
    with ``pnn``'s split of the rate.  Returns the accepted 0-based position
    in ``dists`` and the scan's step count; charges nothing."""
    m = len(dists)
    svt_eps = 2.0 * rate / 3.0
    gate = (float(np.minimum.reduce(dists)) + sample_laplace(3.0 / rate, rng)) + sample_laplace(2.0 / svt_eps, rng)
    outcome = _scan(_cycle(dists), gate, 4.0 / svt_eps, _MAX_CYCLES * m, rng)
    if not outcome.halted:
        raise NonHaltError(
            f"nearest-neighbour scan did not accept within {_MAX_CYCLES} cycles over {m} candidates"
        )
    return (outcome.steps - 1) % m, outcome.steps


def pnn(
    x: PointTuple,
    query_point,
    indices: Iterable[int],
    eps: float,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> int:
    """Private nearest neighbour in the given 1-based index subset; eps-GP.

    Perturbs the minimum distance with Laplace(3/eps) noise (one third of
    the budget) to form the scan threshold, then runs the sparse vector scan
    (remaining two thirds, noise scales 3/eps and 6/eps) cycling through the
    candidate distances until one accepts.  Returns the accepted index as a
    Python int.

    The subset may be any iterable of integers or an integer array; it is
    validated once, and the distances are computed once, as one array, and
    scanned in blocks (see the module docstring).
    """
    idx = _validate_indices(indices, x.n)
    dists = query_dists(x.points[idx - 1], query_point)
    _check_query_point(query_point)
    _positive("eps", eps)
    _check_step_rate(eps)
    _charge(ledger, "pnn_threshold", eps / 3.0)
    _charge(ledger, "svt_threshold", 2.0 * eps / 3.0 / 2.0)
    _charge(ledger, "svt_queries", 2.0 * eps / 3.0 / 2.0)
    pos, _ = _pnn_scan(dists, eps, rng)
    return int(idx[pos])


def _kpnn(
    cal: _Calibration,
    x: PointTuple,
    query_point,
    k: int,
    budget: float,
    rng: RandomStream,
    ledger: BudgetLedger | None,
) -> list[int]:
    """``kpnn`` and ``kpnn_gp``: k ``_pnn_scan`` rounds, each charged
    ``budget / k``.  The first m entries of ``dists`` and ``index`` hold the
    distances and 1-based indices of the m points not yet chosen, in
    ascending index order; after each round the entries past the chosen
    position shift left by one, in place, and the next round scans
    ``dists[:m - 1]``."""
    _positive(cal.unit, budget)
    k = _as_index(k, "k")
    n = x.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    dists = query_dists(x.points, query_point)
    _check_query_point(query_point)
    share = budget / k
    rate = cal.round_rate(share)
    _check_step_rate(rate)
    index = np.arange(1, n + 1)
    chosen: list[int] = []
    for j in range(1, k + 1):
        m = n - j + 1
        if ledger is not None:
            ledger.charge(f"round_{j}", share)
        pos, _ = _pnn_scan(dists[:m], rate, rng)
        chosen.append(int(index[pos]))
        dists[pos : m - 1] = dists[pos + 1 : m]
        index[pos : m - 1] = index[pos + 1 : m]
    return chosen


def kpnn(
    x: PointTuple,
    query_point,
    k: int,
    rho: float,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> list[int]:
    """k private nearest neighbours under rho-CGP.

    Runs k sequential nearest-neighbour selections, each at GP rate
    sqrt(2 rho / k) (hence rho/k as a CGP rate), removing the returned index
    every round; the k rates add to rho.  Returns the 1-based indices in
    discovery order.
    """
    return _kpnn(_CGP, x, query_point, k, rho, rng, ledger)


def kpnn_gp(
    x: PointTuple,
    query_point,
    k: int,
    eps: float,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> list[int]:
    """k private nearest neighbours under eps-GP (basic composition, eps/k
    per round)."""
    return _kpnn(_GP, x, query_point, k, eps, rng, ledger)


# ---------------------------------------------------------------------------
# private convex hull


# The auto anchor count's clamp.
_AUTO_K_MIN, _AUTO_K_MAX = 16, 128


def _anchors(
    cal: _Calibration,
    x: PointTuple,
    budget: float,
    beta: float,
    k: int | str,
    rng: RandomStream,
    ledger: BudgetLedger | None,
) -> tuple[list[int], PchInfo]:
    # budget is the stage's own, in the calibration's unit (eps for GP);
    # the arguments have passed _hull's checks.
    if x.dim != 2:
        raise ValueError(f"the convex hull pipeline is 2-D only, got dim {x.dim}")
    n = len(x)
    b0 = budget / 20.0
    # Before the first charge, at the largest k: every other share of the
    # stage and of the hull's release is at least budget / (60 k) per row
    # (the radius's b0 / 3 = budget / 60, a release row's budget / k).
    k_max = _AUTO_K_MAX if k == "auto" else k
    _positive("noise scale 60k/budget", 60.0 * k_max / budget)
    _check_step_rate(cal.round_rate((budget - b0) / k_max))

    _charge(ledger, "centre", 2.0 * b0 / 3.0)
    c_priv = center(x) + cal.noise(2, 2.0 * b0 / 3.0, rng, lipschitz=math.sqrt(2.0))
    _charge(ledger, "radius", b0 / 3.0)
    r_noise = float(cal.noise(1, b0 / 3.0, rng)[0])
    r_priv = max_radius(x, c_priv) + cal.radius_slack(b0, beta) + r_noise
    # a finite noise scale near the largest double can draw a circle that
    # overflows; its probes would be nan, and no scan at them could halt
    if not (np.isfinite(c_priv).all() and math.isfinite(r_priv)):
        raise ValueError(f"the privatized circle overflows: centre {c_priv}, radius {r_priv}")

    if k == "auto":
        raw = cal.auto_k(max(r_priv, 0.0), budget, n, beta)
        k = min(max(int(round(raw)), _AUTO_K_MIN), _AUTO_K_MAX) if math.isfinite(raw) else _AUTO_K_MIN

    share = (budget - b0) / k
    rate = cal.round_rate(share)
    anchors: list[int] = []
    for j in range(k):
        theta = 2.0 * math.pi * j / k
        probe = c_priv + r_priv * np.array([math.cos(theta), math.sin(theta)])
        _charge(ledger, f"probe_{j + 1}", share)
        pos, _ = _pnn_scan(query_dists(x.points, probe), rate, rng)
        anchors.append(pos + 1)
    return anchors, PchInfo(c_priv, float(r_priv), k, share)


def _hull(
    cal: _Calibration,
    x: PointTuple,
    budget: float,
    beta: float,
    rng: RandomStream,
    k: int | str,
    ledger: BudgetLedger | None,
) -> HullResult:
    _positive(cal.unit, budget)
    _probability("beta", beta)
    if k != "auto":
        k = _count("explicit k", k, least=3)
    anchors, info = _anchors(cal, x, budget / 2.0, beta / 2.0, k, rng, ledger)
    for j in range(info.k):
        _charge(ledger, f"release_{j + 1}", budget / (2.0 * info.k))
    noise = cal.noise(2, budget / 2.0, rng, count=info.k, size=info.k)
    return HullResult(anchors, x.points[np.asarray(anchors) - 1] + noise, info)


def private_convex_hull(
    x: PointTuple,
    rho: float,
    beta: float,
    rng: RandomStream,
    k: int | str = "auto",
    ledger: BudgetLedger | None = None,
) -> HullResult:
    """Privatized convex hull release under rho-CGP.

    Half the budget and half of beta select anchors; the other half of the
    budget releases each anchor location through the Gaussian mechanism at
    rho/(2k) per anchor, i.e. per-coordinate standard deviation sqrt(k/rho).
    The hull of the returned points is computed by the caller as
    post-processing.

    The anchor stage, at its rho_s = rho/2 and beta_s = beta/2, spends
    rho_s/20 on a privatized bounding circle (centre via the Gaussian
    mechanism for the sqrt(2)-Lipschitz bounding-box centre at 2/3 of that,
    radius via the 1-Lipschitz max distance at the remaining 1/3, inflated
    by sqrt(3 log(2/beta_s) / (rho_s/20)) so the circle encloses the tuple
    with probability 1 - beta_s/2).  Then k probes are placed evenly on the
    circle and each probe's nearest neighbour is selected privately with an
    equal share of the stage's remaining budget.  ``info`` holds the
    circle, k and that share.

    With ``k="auto"`` the anchor count balances the probe-selection noise
    against the circle-arc coverage gap:
    ``k = round((radius * sqrt(rho_s) / log(n/beta_s)) ** (2/3))`` clamped
    to 16..128.  An explicit ``k`` must be an integer of at least 3;
    otherwise ValueError, with nothing charged.
    """
    return _hull(_CGP, x, rho, beta, rng, k, ledger)


def private_convex_hull_gp(
    x: PointTuple,
    eps: float,
    beta: float,
    rng: RandomStream,
    k: int | str = "auto",
    ledger: BudgetLedger | None = None,
) -> HullResult:
    """Privatized convex hull release under eps-GP (basic composition).

    Half the budget and half of beta select anchors with the pure-GP anchor
    stage, the other half of the budget releases each anchor with
    planar-Laplace noise at rate eps/(2k).  ``k`` is checked as in
    ``private_convex_hull``.

    The anchor stage mirrors ``private_convex_hull``'s at eps_s = eps/2 and
    beta_s = beta/2: eps0 = eps_s/20 buys the bounding circle, with
    planar-Laplace centre noise and Laplace(3/eps0) radius noise inflated by
    (3/eps0) log(2/beta_s).  Its auto anchor count balances the
    linear-in-k selection noise against the coverage gap:
    ``k = round(sqrt(radius * eps_s / log(n/beta_s)))``, clamped to 16..128.
    """
    return _hull(_GP, x, eps, beta, rng, k, ledger)
