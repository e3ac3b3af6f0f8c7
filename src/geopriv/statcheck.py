"""Monte Carlo and quadrature checks validating the closed-form
distributional claims the mechanisms rely on.

Every check is deterministic under a fixed stream, reports its measured
statistic even on pass, and uses thresholds derived from binomial/KS
sampling theory rather than tuned constants.

The sampling checks draw in chunks of ``_CHUNK`` rows and fold each chunk
into their statistic, so at 10^6 samples a check holds 2-3.5 MiB rather
than tens.  The Laplace-sum KS check must keep its sorted sums (8 MB) and
its reference CDF, which it builds before drawing so that the reference's
build temporaries are gone before the sums exist; it holds about 16 MiB.
Survival counts and the KS maximum are exact under chunking,
and chunked draws of one distribution continue one stream, so the
Gaussian, Laplace-sum and expected-draws checks give the one-shot bytes.
Planar Laplace noise draws its normals, then its gammas, per chunk, so
above ``_CHUNK`` samples the GP tail and planar-mean checks see another
(equally valid) stream than one ``samples``-row draw.  ``_CHUNK`` fixes the
draw stream; it is not a tuning knob.  Every sampling check raises
ValueError before any draw when ``samples`` is below 1 (2 for the
expected-draws check, which needs a standard error).

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

from .geometry import _as_index, row_norms
from .mechanisms import _CGP, _GP
from .noise import RandomStream, laplace_sum_pdf, sample_laplace, sample_planar_laplace

_SIMPSON_TOL = 1e-10  # adaptive Simpson tolerance of the Renyi quadrature
_RENYI_TOL = 1e-6  # quadrature against closed-form Renyi divergence
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


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""

    def simpson(fa, fm, fb, h):
        return h * (fa + 4.0 * fm + fb) / 6.0

    def rec(a, m, b, fa, fm, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, lm, m, fa, flm, fm, left, tol / 2.0, depth - 1) + rec(
            m, rm, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, m, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 48)


def _binomial_band(p: float, samples: int) -> float:
    # 4-sigma binomial sampling band plus a small absolute floor
    return 4.0 * math.sqrt(p * (1.0 - p) / samples) + 0.002


def _samples(samples, least: int = 1) -> int:
    """``samples`` as an int, refused below ``least`` before anything is drawn."""
    samples = _as_index(samples, "samples")
    if samples < least:
        raise ValueError(f"samples must be at least {least}, got {samples}")
    return samples


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
    counts = [0] * len(r_grid)
    for start, stop in _chunks(samples):
        radii = row_norms(draw(stop - start))
        for j, r in enumerate(r_grid):
            counts[j] += int(np.count_nonzero(radii > r))
    worst = 0.0
    for r, count in zip(r_grid, counts):
        p = reference(float(r))
        emp = count / samples
        worst = max(worst, abs(emp - p) / _binomial_band(p, samples))
    return CheckReport(name, worst, 1.0, worst < 1.0, samples)


def check_gp_radial_tail(eps: float, r_grid: Sequence[float], samples: int, rng: RandomStream) -> CheckReport:
    """Empirical norm survival of the GP release noise (``_GP.noise``) in
    2-D at ``eps`` against ``(1 + r*eps) * exp(-r*eps)``."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    samples = _samples(samples)
    ref = lambda r: (1.0 + r * eps) * math.exp(-r * eps)
    draw = lambda size: _GP.noise(2, eps, rng, size=size)
    return _survival_check(f"gp_radial_tail(eps={eps:g})", draw, samples, r_grid, ref)


def check_cgp_radial_tail(rho: float, r_grid: Sequence[float], samples: int, rng: RandomStream) -> CheckReport:
    """Empirical norm survival of the CGP release noise (``_CGP.noise``)
    in 2-D at ``rho`` against ``exp(-rho * r**2)``."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    samples = _samples(samples)
    ref = lambda r: math.exp(-rho * r * r)
    draw = lambda size: _CGP.noise(2, rho, rng, size=size)
    return _survival_check(f"cgp_radial_tail(rho={rho:g})", draw, samples, r_grid, ref)


def accept_probability(y, scale: float):
    """Pr[V <= y] for V ~ Laplace(scale): the per-visit accept chance of a
    scan whose gate sits at y."""
    y = np.asarray(y, dtype=np.float64)
    out = np.where(y < 0, 0.5 * np.exp(y / scale), 1.0 - 0.5 * np.exp(-y / scale))
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
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    samples = _samples(samples, least=2)
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

    The integrand can span hundreds of orders of magnitude, so it is scaled
    by a log offset found by scanning the interval before the adaptive pass;
    the tolerance is then effectively relative.
    """
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    mu_alpha = alpha * mu1 + (1.0 - alpha) * mu2  # mean of the tilted density
    lo = min(mu1, mu2, mu_alpha) - 12.0 * sigma
    hi = max(mu1, mu2, mu_alpha) + 12.0 * sigma

    # alpha * log N(y; mu1, sigma^2) + (1 - alpha) * log N(y; mu2, sigma^2),
    # with the constants of the Gaussian log density computed once
    log_sigma = math.log(sigma)
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def log_integrand(y: float) -> float:
        z1 = (y - mu1) / sigma
        z2 = (y - mu2) / sigma
        return alpha * (-0.5 * z1 * z1 - log_sigma - half_log_2pi) + (1.0 - alpha) * (
            -0.5 * z2 * z2 - log_sigma - half_log_2pi
        )

    # one array pass: the same IEEE operations as the scalar calls below
    offset = float(log_integrand(np.linspace(lo, hi, 4097)).max())

    def integrand(y: float) -> float:
        return math.exp(log_integrand(y) - offset)

    integral = adaptive_simpson(integrand, lo, hi, _SIMPSON_TOL)
    return (offset + math.log(integral)) / (alpha - 1.0)


def check_renyi_gaussian(mu1: float, mu2: float, sigma: float) -> CheckReport:
    """Quadrature Renyi divergence of equal-variance Gaussians against the
    closed form ``alpha * (mu1 - mu2)^2 / (2 sigma^2)``."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    worst = 0.0
    for alpha in _ALPHA_GRID:
        closed = alpha * (mu1 - mu2) ** 2 / (2.0 * sigma**2)
        quad = renyi_divergence_gaussian_quadrature(mu1, mu2, sigma, alpha)
        worst = max(worst, abs(quad - closed))
    return CheckReport(
        f"renyi_gaussian(mu={mu2 - mu1:g},sigma={sigma:g})", worst, _RENYI_TOL, worst < _RENYI_TOL, 0
    )


def check_gaussian_mech_divergence(rho: float) -> CheckReport:
    """For the 1-D Gaussian mechanism on the identity (sigma = 1/sqrt(2 rho)),
    the order-alpha divergence between outputs at inputs dist apart equals
    ``alpha * rho * dist^2`` exactly; verified by quadrature."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    sigma = 1.0 / math.sqrt(2.0 * rho)
    worst = 0.0
    for dist in _DIST_GRID:
        for alpha in _ALPHA_GRID:
            quad = renyi_divergence_gaussian_quadrature(0.0, float(dist), sigma, alpha)
            worst = max(worst, abs(quad - alpha * rho * dist * dist))
    return CheckReport(
        f"gaussian_mech_divergence(rho={rho:g})", worst, _RENYI_TOL, worst < _RENYI_TOL, 0
    )


def _laplace_sum_cdf(scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of the two-Laplace sum, by numeric integration of its density on
    a fine grid (independent of any closed-form tail); the grid is built
    once and the returned function interpolates in it."""
    span = 40.0 * scale
    grid = np.linspace(-span, span, 400_001)
    pdf = laplace_sum_pdf(grid, scale)
    step = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * step)])
    cdf /= cdf[-1]
    return lambda points: np.interp(points, grid, cdf)


def check_laplace_sum_pdf(b: float, samples: int, rng: RandomStream) -> CheckReport:
    """KS distance between an empirical two-Laplace sum and the numerically
    integrated density of its closed form.

    The threshold is the larger of 0.005 and the one-sample KS 99% critical
    value 1.63/sqrt(samples); at 10^6 samples the 0.005 floor governs.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    samples = _samples(samples)
    ks_threshold = max(0.005, 1.63 / math.sqrt(samples))
    # the reference draws nothing: built first, its grid temporaries are
    # freed before the sums exist
    cdf = _laplace_sum_cdf(b)
    y = _laplace_sum(b, samples, rng)
    y.sort()
    ks = 0.0  # the maximum is exact whatever the chunking
    for start, stop in _chunks(samples):
        ref = cdf(y[start:stop])
        i = np.arange(start + 1, stop + 1)
        ks = max(ks, float(np.max(i / samples - ref)), float(np.max(ref - (i - 1) / samples)))
    return CheckReport(f"laplace_sum_pdf(b={b:g})", ks, ks_threshold, ks < ks_threshold, samples)


def check_planar_laplace_mean(dim: int, eps: float, samples: int, rng: RandomStream) -> CheckReport:
    """Mean norm of d-dimensional planar-Laplace noise against the closed
    form d/eps.

    The norm is Gamma(d, 1/eps), so the sample mean's relative standard
    error is ``1 / sqrt(d * samples)``; the check passes within 4 of them.
    The norms are summed chunk by chunk, so up to ``_CHUNK`` samples the
    mean is the one-shot ``norms.mean()``.
    """
    samples = _samples(samples)
    total = 0.0
    for start, stop in _chunks(samples):
        total += float(row_norms(sample_planar_laplace(dim, eps, rng, size=stop - start)).sum())
    mean = total / samples
    stat = abs(mean * eps / dim - 1.0)
    tol = 4.0 / math.sqrt(dim * samples)
    return CheckReport(f"planar_laplace_mean(d={dim},eps={eps:g})", stat, tol, stat < tol, samples)
