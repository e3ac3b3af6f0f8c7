"""Monte Carlo and quadrature checks validating the closed-form
distributional claims the mechanisms rely on.

Every check is deterministic under a fixed stream, reports its measured
statistic even on pass, and uses thresholds derived from binomial/KS
sampling theory rather than tuned constants.

The sampling checks draw in chunks of ``_CHUNK`` rows and fold each chunk
into their statistic, so at 10^6 samples a check holds 2-3.5 MiB rather
than tens.  The Laplace-sum KS check must keep its sorted sums (8 MB); it
evaluates its exact reference CDF chunk by chunk and holds about 10 MiB.
Survival counts and the KS maximum are exact under chunking,
and chunked draws of one distribution continue one stream, so the
Gaussian, Laplace-sum and expected-draws checks give the one-shot bytes.
Planar Laplace noise draws its normals, then its gammas, per chunk, so
above ``_CHUNK`` samples the GP tail and planar-mean checks see another
(equally valid) stream than one ``samples``-row draw.  ``_CHUNK`` fixes the
draw stream; it is not a tuning knob.  A check refuses an argument outside
the input domain (README, "Input domain") before any draw; ``samples`` must
be at least 2 for the expected-draws check, which needs a standard error.

``geopriv verify`` runs the three KS checks one after another on the
calling thread and the rest of the battery on a thread pool, one worker per
usable core; each check draws from its own stream, so the reports do not
depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import _count, _positive, row_norms
from .mechanisms import _CGP, _GP
from .noise import RandomStream, sample_laplace, sample_planar_laplace

_RENYI_TOL = 1e-6  # quadrature against closed-form Renyi divergence
_NODES = 4097  # trapezoid nodes of the Renyi quadrature on [-12, 12]
_ALPHA_GRID = (1.5, 2.0, 3.0)  # Renyi orders checked
_DIST_GRID = (0.5, 1.0, 2.0)  # input distances of the Gaussian mechanism check
_CHUNK = 1 << 16  # rows per draw of a sampling check; part of the draw stream


@dataclass(frozen=True)
class CheckReport:
    name: str
    statistic: float
    threshold: float
    passed: bool
    samples: int

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.name}: statistic={self.statistic:.6g} "
            f"threshold={self.threshold:.6g} samples={self.samples}"
        )


def _binomial_band(p: float, samples: int) -> float:
    # 4-sigma binomial sampling band plus a small absolute floor
    return 4.0 * math.sqrt(p * (1.0 - p) / samples) + 0.002


def _worst(stats) -> float:
    """The largest statistic, or nan if any is nan (``max`` would skip it),
    so that a check with a nan statistic fails."""
    return float(np.max(stats))


def _chunks(samples: int):
    """(start, stop) of each ``_CHUNK``-row slice of ``range(samples)``."""
    for start in range(0, samples, _CHUNK):
        yield start, min(start + _CHUNK, samples)


def _survival_check(
    name: str,
    draw: Callable[[int], np.ndarray],
    samples: int,
    r_grid: Sequence[float],
    reference: Callable[[float], float],
) -> CheckReport:
    """Empirical survival of the norms of ``samples`` rows of ``draw(size)``
    at each radius against ``reference``; the counts are exact, so
    ``count / samples`` is the one-shot ``np.mean(radii > r)``."""
    if not (len(r_grid) and all(0 <= r < math.inf for r in r_grid)):
        raise ValueError(f"r_grid must be nonempty, nonnegative and finite, got {r_grid}")
    counts = [0] * len(r_grid)
    for start, stop in _chunks(samples):
        radii = row_norms(draw(stop - start))
        for j, r in enumerate(r_grid):
            counts[j] += int(np.count_nonzero(radii > r))
    gaps = []
    for r, count in zip(r_grid, counts):
        p = reference(float(r))
        gaps.append(abs(count / samples - p) / _binomial_band(p, samples))
    worst = _worst(gaps)
    return CheckReport(name, worst, 1.0, worst < 1.0, samples)


def check_gp_radial_tail(eps: float, r_grid: Sequence[float], samples: int, rng: RandomStream) -> CheckReport:
    """Empirical norm survival of the GP release noise (``_GP.noise``) in
    2-D at ``eps`` against ``(1 + r*eps) * exp(-r*eps)``."""
    _positive("eps", eps)
    samples = _count("samples", samples)
    ref = lambda r: (1.0 + r * eps) * math.exp(-r * eps)
    draw = lambda size: _GP.noise(2, eps, rng, size=size)
    return _survival_check(f"gp_radial_tail(eps={eps:g})", draw, samples, r_grid, ref)


def check_cgp_radial_tail(rho: float, r_grid: Sequence[float], samples: int, rng: RandomStream) -> CheckReport:
    """Empirical norm survival of the CGP release noise (``_CGP.noise``)
    in 2-D at ``rho`` against ``exp(-rho * r**2)``."""
    _positive("rho", rho)
    samples = _count("samples", samples)
    ref = lambda r: math.exp(-rho * r * r)
    draw = lambda size: _CGP.noise(2, rho, rng, size=size)
    return _survival_check(f"cgp_radial_tail(rho={rho:g})", draw, samples, r_grid, ref)


def accept_probability(y, scale: float):
    """Pr[V <= y] for V ~ Laplace(scale): the per-visit accept chance of a
    scan whose gate sits at y."""
    _positive("scale", scale)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):  # |y| / scale past the largest double is inf: a tail of 0
        tail = 0.5 * np.exp(-np.abs(y) / scale)
    out = np.where(y < 0, tail, 1.0 - tail)
    return float(out) if out.ndim == 0 else out


def _laplace_sum(b: float, samples: int, rng: RandomStream) -> np.ndarray:
    """``samples`` sums of two Laplace(b) draws: the first draw whole, the
    second added in chunks (the bytes of two whole draws)."""
    y = sample_laplace(b, rng, size=samples)
    for start, stop in _chunks(samples):
        y[start:stop] += sample_laplace(b, rng, size=stop - start)
    return y


def check_expected_draws(b: float, samples: int, rng: RandomStream) -> CheckReport:
    """Mean number of Laplace(2b) draws until one falls below Z + W, for Z, W
    iid Laplace(b); the closed-form bound is 4.

    Given the gate value y the draw count is geometric with success
    probability Pr[V <= y], so the count is sampled directly from that
    geometric law.  Passes when the sample mean is within three standard
    errors of the bound.
    """
    _positive("b", b)
    _positive("gate scale 2b", 2.0 * b)
    samples = _count("samples", samples, least=2)
    y = _laplace_sum(b, samples, rng)
    counts = np.empty(samples)
    for start, stop in _chunks(samples):
        counts[start:stop] = rng.generator.geometric(accept_probability(y[start:stop], 2.0 * b))
    stat = float(counts.mean())
    sem = float(counts.std(ddof=1)) / math.sqrt(samples)
    threshold = 4.0 + 3.0 * sem
    return CheckReport(f"expected_draws(b={b:g})", stat, threshold, stat <= threshold, samples)


def renyi_divergence_gaussian_quadrature(mu1: float, mu2: float, sigma: float, alpha: float) -> float:
    """Order-alpha Renyi divergence between N(mu1, sigma^2) and N(mu2, sigma^2)
    by numeric quadrature of the defining integral.

    The integral of ``N(y; mu1)^alpha * N(y; mu2)^(1 - alpha)`` is taken in
    ``t = (y - mu_alpha) / sigma``, about the tilted mean ``mu_alpha = alpha
    mu1 + (1 - alpha) mu2``.  With ``d = (mu1 - mu2) / sigma``,
    ``z1 = t + (alpha - 1) d`` and ``z2 = t + alpha d``, the log integrand
    is ``alpha (-z1^2 / 2) + (1 - alpha)(-z2^2 / 2) - log(2 pi) / 2``: the
    ``-log sigma`` terms cancel against ``dy = sigma dt``, so sigma enters
    only through d.  In t the integrand is a unit Gaussian times a
    constant, so the trapezoid rule on ``_NODES`` nodes over [-12, 12]
    converges geometrically (error about ``2 exp(-2 pi^2 / h^2)`` at step h,
    truncation ``e^-72``), and only rounding is left.  The integrand is
    scaled by its largest value, since that can be hundreds of orders of
    magnitude from 1.

    ValueError when ``alpha (|alpha d| + 12)^2`` reaches 1e300 (``|alpha d|``
    near 1e150 at the battery's orders), where the log integrand's terms
    would overflow; d is inf at a subnormal sigma.
    """
    if not (alpha > 1 and math.isfinite(alpha)):
        raise ValueError(f"alpha must exceed 1 and be finite, got {alpha}")
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError(f"means must be finite, got {mu1} and {mu2}")
    _positive("sigma", sigma)
    d = (mu1 - mu2) / sigma
    reach = abs(alpha * d) + 12.0  # bounds |z1| and |z2| on the grid
    if not alpha * reach * reach < 1e300:
        raise ValueError(f"the gap alpha * |mu1 - mu2| / sigma = {abs(alpha * d):g} is too large for the quadrature")
    t = np.linspace(-12.0, 12.0, _NODES)
    z1 = t + (alpha - 1.0) * d
    z2 = t + alpha * d
    log_f = alpha * (-0.5 * z1 * z1) + (1.0 - alpha) * (-0.5 * z2 * z2) - 0.5 * math.log(2.0 * math.pi)
    offset = float(log_f.max())
    f = np.exp(log_f - offset)
    integral = 24.0 / (_NODES - 1) * (float(f.sum()) - 0.5 * (f[0] + f[-1]))
    return (offset + math.log(integral)) / (alpha - 1.0)


def check_renyi_gaussian(mu1: float, mu2: float, sigma: float) -> CheckReport:
    """Quadrature Renyi divergence of equal-variance Gaussians against the
    closed form ``alpha * (mu1 - mu2)^2 / (2 sigma^2)``."""
    gaps = []
    for alpha in _ALPHA_GRID:
        quad = renyi_divergence_gaussian_quadrature(mu1, mu2, sigma, alpha)
        gaps.append(abs(quad - alpha * (mu1 - mu2) ** 2 / (2.0 * sigma**2)))
    worst = _worst(gaps)
    return CheckReport(
        f"renyi_gaussian(mu={mu2 - mu1:g},sigma={sigma:g})", worst, _RENYI_TOL, worst < _RENYI_TOL, 0
    )


def check_gaussian_mech_divergence(rho: float) -> CheckReport:
    """For the 1-D Gaussian mechanism on the identity (sigma = 1/sqrt(2 rho)),
    the order-alpha divergence between outputs at inputs dist apart equals
    ``alpha * rho * dist^2`` exactly; verified by quadrature."""
    _positive("rho", rho)
    sigma = 1.0 / math.sqrt(2.0 * rho)
    worst = _worst([
        abs(renyi_divergence_gaussian_quadrature(0.0, float(dist), sigma, alpha) - alpha * rho * dist * dist)
        for dist in _DIST_GRID
        for alpha in _ALPHA_GRID
    ])
    return CheckReport(
        f"gaussian_mech_divergence(rho={rho:g})", worst, _RENYI_TOL, worst < _RENYI_TOL, 0
    )


def _laplace_sum_cdf(y: np.ndarray, b: float) -> np.ndarray:
    """Exact CDF of the sum of two iid Laplace(b) draws: ``1 - (2 + y/b) *
    exp(-y/b) / 4`` for y >= 0, and its mirror ``(2 + |y|/b) * exp(-|y|/b) / 4``
    below 0."""
    a = np.abs(y) / b
    tail = (2.0 + a) * np.exp(-a) / 4.0
    return np.where(y < 0, tail, 1.0 - tail)


def check_laplace_sum_pdf(b: float, samples: int, rng: RandomStream) -> CheckReport:
    """KS distance between an empirical two-Laplace sum and the exact CDF of
    its law.

    The threshold is the larger of 0.005 and the one-sample KS 99% critical
    value 1.63/sqrt(samples); at 10^6 samples the 0.005 floor governs.
    """
    _positive("b", b)
    samples = _count("samples", samples)
    ks_threshold = max(0.005, 1.63 / math.sqrt(samples))
    y = _laplace_sum(b, samples, rng)
    y.sort()
    gaps = []  # the maximum is exact whatever the chunking
    for start, stop in _chunks(samples):
        ref = _laplace_sum_cdf(y[start:stop], b)
        i = np.arange(start + 1, stop + 1)
        gaps += np.max(i / samples - ref), np.max(ref - (i - 1) / samples)
    ks = _worst(gaps)
    return CheckReport(f"laplace_sum_pdf(b={b:g})", ks, ks_threshold, ks < ks_threshold, samples)


def check_planar_laplace_mean(dim: int, eps: float, samples: int, rng: RandomStream) -> CheckReport:
    """Mean norm of d-dimensional planar-Laplace noise against the closed
    form d/eps.

    The norm is Gamma(d, 1/eps), so the sample mean's relative standard
    error is ``1 / sqrt(d * samples)``; the check passes within 4 of them.
    The norms are summed chunk by chunk, so up to ``_CHUNK`` samples the
    mean is the one-shot ``norms.mean()``.
    """
    samples = _count("samples", samples)
    total = 0.0
    for start, stop in _chunks(samples):
        total += float(row_norms(sample_planar_laplace(dim, eps, rng, size=stop - start)).sum())
    mean = total / samples
    stat = abs(mean * eps / dim - 1.0)
    tol = 4.0 / math.sqrt(dim * samples)
    return CheckReport(f"planar_laplace_mean(d={dim},eps={eps:g})", stat, tol, stat < tol, samples)
