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
``_scan``.  It takes the queries in blocks of up to 256, makes one
Laplace draw of the block's size per block, compares the whole block with
the gate at once and halts at the first value below it.  The blocks are
the ones a query-by-query scan would draw, so the draw stream, and every
output at a fixed seed, is that of such a scan.

``pnn``, each ``kpnn`` round and each anchor probe are one private
nearest-neighbour step, ``_pnn_scan``, over distances computed once per
query point by ``geometry.query_dists``.  The step cycles through its
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
arguments are checked before any charge or draw: a budget must be positive
and finite, and so must every noise scale it buys (a subnormal budget's
overflow), a query point and ``svt``'s threshold must be finite, beta in
(0, 1), and k and ``svt``'s step cap integers in range; otherwise
ValueError.

Every mechanism takes an explicit RandomStream and, optionally, a
BudgetLedger that audits its internal splits.  Each part is charged before
the scan or draw that spends it, so an aborted scan leaves its budget on
record; only an identity release draws first, since its sampler is what
refuses an infinite scale.  The labels are:

- identity releases: ``points`` (max metric) or ``tuple`` (l2 metric)
- ``svt``: ``svt_threshold``, ``svt_queries``; ``pnn``: ``pnn_threshold``
  and then the ``svt`` labels
- ``kpnn``, ``kpnn_gp``: ``round_1`` .. ``round_k``
- ``pch_anchors_detailed``: ``centre``, ``radius``, ``probe_1`` .. ``probe_k``
- ``private_convex_hull``, ``private_convex_hull_gp``: the anchor labels,
  then ``release_1`` .. ``release_k``

Indices crossing the API are 1-based (see geometry module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from .accounting import BudgetLedger
from .geometry import PointTuple, _as_index, _validate_indices, center, max_radius, query_dists
from .noise import (
    RandomStream,
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


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
    _check_positive(cal.unit, budget)
    n = len(x)
    noise = cal.noise(x.dim, budget, rng, count=n, size=n)  # refuses an infinite scale
    _charge(ledger, "points", budget)
    noise += x.points
    return PointTuple(noise)


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
    _check_positive(cal.unit, budget)
    noise = cal.noise(x.n * x.dim, budget, rng).reshape(x.n, x.dim)  # refuses an infinite scale
    _charge(ledger, "tuple", budget)
    noise += x.points
    return PointTuple(noise)


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

# Queries per Laplace draw of the scan; the block sizes fix the draw stream.
_BLOCK = 256


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
    ``value + noise <= gate``.
    """
    laplace = None if rng.zero_noise else rng.generator.laplace
    done = 0
    while done < max_steps:
        size = min(_BLOCK, max_steps - done)
        values = block(done, size)
        n = len(values)
        if n == 0:
            break
        if laplace is not None:
            values = laplace(0.0, scale, size)[:n] + values
        hit = values <= gate
        i = int(hit.argmax())
        if hit[i]:
            steps = done + i + 1
            return SvtOutcome(True, steps, steps)
        done += n
    return SvtOutcome(False, done, None)


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


def _svt(
    block: Callable[[int, int], np.ndarray],
    eps: float,
    threshold: float,
    lipschitz: float,
    max_steps: int,
    rng: RandomStream,
    ledger: BudgetLedger | None,
) -> SvtOutcome:
    _charge(ledger, "svt_threshold", eps / 2.0)
    _charge(ledger, "svt_queries", eps / 2.0)
    gate = threshold + sample_laplace(2.0 * lipschitz / eps, rng)
    return _scan(block, gate, 4.0 * lipschitz / eps, max_steps, rng)


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
    _check_positive("eps", eps)
    _check_positive("lipschitz", lipschitz)
    _check_positive("query noise scale 4K/eps", 4.0 * lipschitz / eps)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if _as_index(max_steps, "max_steps") < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    stream = iter(queries)

    def block(done, size):
        return np.fromiter((q(x) for q in islice(stream, size)), dtype=np.float64)

    return _svt(block, eps, threshold, lipschitz, max_steps, rng, ledger)


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


def _pnn_scan(
    dists: np.ndarray, eps: float, rng: RandomStream, ledger: BudgetLedger | None
) -> tuple[int, SvtOutcome]:
    """The private nearest-neighbour step behind ``pnn``, each ``kpnn`` round
    and each anchor probe: an eps-GP scan cycling the candidate distances.
    Returns the accepted 0-based position in ``dists`` and the outcome."""
    m = len(dists)
    _charge(ledger, "pnn_threshold", eps / 3.0)
    gate = float(dists.min()) + sample_laplace(3.0 / eps, rng)
    outcome = _svt(_cycle(dists), 2.0 * eps / 3.0, gate, 1.0, _MAX_CYCLES * m, rng, ledger)
    if not outcome.halted:
        raise NonHaltError(
            f"nearest-neighbour scan did not accept within {_MAX_CYCLES} cycles over {m} candidates"
        )
    return (outcome.steps - 1) % m, outcome


def pnn_detailed(
    x: PointTuple,
    query_point,
    indices: Iterable[int],
    eps: float,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> tuple[int, SvtOutcome]:
    """Private nearest neighbour with scan diagnostics.

    Perturbs the minimum distance with Laplace(3/eps) noise (one third of
    the budget) to form the scan threshold, then runs the sparse vector scan
    (remaining two thirds, noise scales 3/eps and 6/eps) cycling through the
    candidate distances until one accepts.  Returns the accepted 1-based
    index and the SvtOutcome; eps-GP overall.

    The distances are computed once, as one array, and scanned in blocks
    (see the module docstring).
    """
    idx = _validate_indices(indices, x.n)
    dists = query_dists(x.points[idx - 1], query_point)
    _check_query_point(query_point)
    _check_positive("eps", eps)
    _check_step_rate(eps)
    pos, outcome = _pnn_scan(dists, eps, rng, ledger)
    return int(idx[pos]), outcome


def pnn(
    x: PointTuple,
    query_point,
    indices: Iterable[int],
    eps: float,
    rng: RandomStream,
    ledger: BudgetLedger | None = None,
) -> int:
    """Private nearest neighbour in the given 1-based index subset; eps-GP.

    The subset may be any iterable of integers or an integer array; it is
    validated once and its distances are computed once (see
    ``pnn_detailed``).  Returns a Python int.
    """
    return pnn_detailed(x, query_point, indices, eps, rng, ledger)[0]


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
    _check_positive(cal.unit, budget)
    k = _as_index(k, "k")
    if not 1 <= k <= x.n:
        raise ValueError(f"k must be in 1..{x.n}, got {k}")
    dists = query_dists(x.points, query_point)
    _check_query_point(query_point)
    share = budget / k
    rate = cal.round_rate(share)
    _check_step_rate(rate)
    index = np.arange(1, x.n + 1)
    chosen: list[int] = []
    for j in range(1, k + 1):
        m = x.n - j + 1
        _charge(ledger, f"round_{j}", share)
        pos, _ = _pnn_scan(dists[:m], rate, rng, None)
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


def _stage_args(cal: _Calibration, budget: float, beta: float, k: int | str) -> int | str:
    """Check the anchor stage's or a hull release's arguments, before anything
    is charged; returns ``k``, as a Python int unless it is "auto"."""
    _check_positive(cal.unit, budget)
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if k != "auto":
        k = _as_index(k, "k")
        if k < 3:
            raise ValueError(f"explicit k must be at least 3, got {k}")
    return k


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
    # the arguments have passed _stage_args.
    if x.dim != 2:
        raise ValueError(f"the convex hull pipeline is 2-D only, got dim {x.dim}")
    n = len(x)
    b0 = budget / 20.0
    # Before the first charge, at the largest k: every other share of the
    # stage and of the hull's release is at least budget / (60 k) per row
    # (the radius's b0 / 3 = budget / 60, a release row's budget / k).
    k_max = _AUTO_K_MAX if k == "auto" else k
    _check_positive("noise scale 60k/budget", 60.0 * k_max / budget)
    _check_step_rate(cal.round_rate((budget - b0) / k_max))

    _charge(ledger, "centre", 2.0 * b0 / 3.0)
    c_priv = center(x) + cal.noise(2, 2.0 * b0 / 3.0, rng, lipschitz=math.sqrt(2.0))
    _charge(ledger, "radius", b0 / 3.0)
    r_noise = float(cal.noise(1, b0 / 3.0, rng)[0])
    r_priv = max_radius(x, c_priv) + cal.radius_slack(b0, beta) + r_noise

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
        pos, _ = _pnn_scan(query_dists(x.points, probe), rate, rng, None)
        anchors.append(pos + 1)
    return anchors, PchInfo(c_priv, float(r_priv), k, share)


def pch_anchors_detailed(
    x: PointTuple,
    rho: float,
    beta: float,
    rng: RandomStream,
    k: int | str = "auto",
    ledger: BudgetLedger | None = None,
) -> tuple[list[int], PchInfo]:
    """Anchor selection for the private convex hull: the 1-based anchor
    indices, one per circle probe, and the stage's diagnostics.

    Spends rho/20 on a privatized bounding circle (centre via the Gaussian
    mechanism for the sqrt(2)-Lipschitz bounding-box centre at 2/3 of that,
    radius via the 1-Lipschitz max distance at the remaining 1/3, inflated
    by sqrt(3 log(2/beta) / rho0) so the circle encloses the tuple with
    probability 1 - beta/2).  Then k probes are placed evenly on the circle
    and each probe's nearest neighbour is selected privately with an equal
    share of the remaining budget.  rho-CGP overall.

    With ``k="auto"`` the anchor count balances the probe-selection noise
    against the circle-arc coverage gap:
    ``k = round((radius * sqrt(rho) / log(n/beta)) ** (2/3))`` clamped to
    16..128.  An explicit ``k`` must be an integer of at least 3; otherwise
    ValueError, with nothing charged.
    """
    k = _stage_args(_CGP, rho, beta, k)
    return _anchors(_CGP, x, rho, beta, k, rng, ledger)


def _hull(
    cal: _Calibration,
    x: PointTuple,
    budget: float,
    beta: float,
    rng: RandomStream,
    k: int | str,
    ledger: BudgetLedger | None,
) -> HullResult:
    k = _stage_args(cal, budget, beta, k)
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

    Half the budget and half of beta select anchors (the stage of
    ``pch_anchors_detailed`` at rho/2 and beta/2), the other half of the
    budget releases each anchor location through the Gaussian mechanism at
    rho/(2k) per anchor, i.e. per-coordinate standard deviation sqrt(k/rho).
    ``k`` is checked as there.  The hull of the returned points is computed
    by the caller as post-processing.
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
    planar-Laplace noise at rate eps/(2k).

    The anchor stage mirrors ``pch_anchors_detailed`` at eps/2 and beta/2:
    eps0 = eps/40 buys the bounding circle, with planar-Laplace centre noise
    and Laplace(3/eps0) radius noise inflated by (3/eps0) log(2/beta).  Its
    auto anchor count balances the linear-in-k selection noise against the
    coverage gap: ``k = round(sqrt(radius * eps / log(n/beta)))`` at the
    stage's eps and beta, clamped to 16..128.
    """
    return _hull(_GP, x, eps, beta, rng, k, ledger)
