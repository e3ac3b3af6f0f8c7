import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from geopriv import statcheck
from geopriv.noise import RandomStream, sample_laplace, sample_planar_laplace
from geopriv.statcheck import (
    accept_probability,
    check_cgp_radial_tail,
    check_expected_draws,
    check_gaussian_mech_divergence,
    check_gp_radial_tail,
    check_laplace_sum_pdf,
    check_planar_laplace_mean,
    check_renyi_gaussian,
    renyi_divergence_gaussian_quadrature,
)

from helpers import (
    laplace_sum_pdf,
    one_shot_cgp_radial_tail,
    one_shot_expected_draws,
    one_shot_gp_radial_tail,
    one_shot_laplace_sum_pdf,
    one_shot_planar_laplace_mean,
)

SAMPLES = 10**5  # module tests run the battery at reduced size; acceptance uses 1e6


def too_fast(cal):
    """``cal`` with its noise drawn at 1.5 times the rate: a faulty calibration."""
    return dataclasses.replace(
        cal, noise=lambda dim, budget, rng, count=1, lipschitz=1.0, size=None: cal.noise(
            dim, 1.5 * budget, rng, count, lipschitz, size
        )
    )


class TestRadialTails:
    def test_gp_tail_passes(self):
        rep = check_gp_radial_tail(1.0, (1.0, 3.0, 5.0), SAMPLES, RandomStream(0))
        assert rep.passed and rep.samples == SAMPLES

    def test_gp_tail_survival_at_zero_is_one(self):
        rep = check_gp_radial_tail(1.0, (0.0,), SAMPLES, RandomStream(1))
        assert rep.passed  # both sides equal 1 exactly at r=0

    def test_gp_tail_scaling_equivalence(self):
        # eps=2 at radius r behaves like eps=1 at radius 2r
        a = check_gp_radial_tail(2.0, (1.0, 2.0), SAMPLES, RandomStream(2))
        b = check_gp_radial_tail(1.0, (2.0, 4.0), SAMPLES, RandomStream(2))
        assert a.passed and b.passed

    def test_gp_tail_fault_injection_fails(self, monkeypatch):
        monkeypatch.setattr(statcheck, "_GP", too_fast(statcheck._GP))
        rep = check_gp_radial_tail(1.0, (1.0, 3.0), SAMPLES, RandomStream(3))
        assert not rep.passed

    def test_cgp_tail_passes(self):
        rep = check_cgp_radial_tail(1.0, (0.5, 1.0, 1.5), SAMPLES, RandomStream(4))
        assert rep.passed

    def test_cgp_tail_scaling_equivalence(self):
        a = check_cgp_radial_tail(4.0, (0.5,), SAMPLES, RandomStream(5))
        b = check_cgp_radial_tail(1.0, (1.0,), SAMPLES, RandomStream(5))
        assert a.passed and b.passed

    def test_cgp_tail_fault_injection_fails(self, monkeypatch):
        monkeypatch.setattr(statcheck, "_CGP", too_fast(statcheck._CGP))
        rep = check_cgp_radial_tail(1.0, (0.5, 1.0), SAMPLES, RandomStream(6))
        assert not rep.passed

    def test_determinism(self):
        a = check_gp_radial_tail(1.0, (1.0,), SAMPLES, RandomStream(7, 9))
        b = check_gp_radial_tail(1.0, (1.0,), SAMPLES, RandomStream(7, 9))
        assert a.statistic == b.statistic


class TestExpectedDraws:
    def test_mean_within_bound(self):
        rep = check_expected_draws(1.0, SAMPLES, RandomStream(8))
        assert rep.passed and rep.statistic <= 4.2

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_scale_free(self, b):
        rep = check_expected_draws(b, SAMPLES, RandomStream(9))
        assert rep.passed and rep.statistic <= 4.2

    def test_always_accepting_gate_gives_one_draw(self):
        assert accept_probability(np.inf, 2.0) == 1.0
        counts = RandomStream(10).generator.geometric(1.0, size=100)
        assert np.all(counts == 1)

    def test_a_gate_far_from_zero_warns_nothing(self):
        # a RuntimeWarning fails the test: the branch not taken used to overflow
        y = np.array([800.0, -800.0, 1e6, -1e6, np.inf, -np.inf, np.nan])
        for scale in (1.0, 1e-300):
            got = accept_probability(y, scale)
            assert got[:6].tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0] and np.isnan(got[6])
            assert accept_probability(800.0, scale) == 1.0 and accept_probability(-800.0, scale) == 0.0


class TestRenyiGaussian:
    def test_equal_means_zero(self):
        rep = check_renyi_gaussian(0.7, 0.7, 1.0)
        assert rep.passed and rep.statistic < 1e-9

    def test_alpha_two_unit_shift(self):
        # closed form alpha * shift^2 / (2 sigma^2) = 1 at alpha=2, shift=1, sigma=1
        d = renyi_divergence_gaussian_quadrature(0.0, 1.0, 1.0, 2.0)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_alpha_three_sigma_two(self):
        d = renyi_divergence_gaussian_quadrature(0.0, 1.0, 2.0, 3.0)
        assert d == pytest.approx(3.0 / 8.0, abs=1e-9)

    @pytest.mark.parametrize("sigma", [1e-3, 0.02, 0.05, 0.07, 0.5, 1.0, 2.0, 1e3, 1e6])
    @pytest.mark.parametrize("shift", [0.5, 1.0, 2.0])
    def test_grid_passes(self, shift, sigma):
        # the standardised grid resolves a peak a few sigma wide at any sigma
        assert check_renyi_gaussian(0.0, shift, sigma).passed
        for alpha in (1.01, 1.5, 2.0, 3.0, 10.0):
            closed = alpha * shift**2 / (2.0 * sigma**2)
            assert abs(renyi_divergence_gaussian_quadrature(0.0, shift, sigma, alpha) - closed) < statcheck._RENYI_TOL


class TestGaussianMechDivergence:
    def test_zero_distance(self):
        d = renyi_divergence_gaussian_quadrature(0.0, 0.0, 1.0, 2.0)
        assert d == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_point(self):
        # alpha rho dist^2 = 2 * 0.5 * 4 = 4 at rho=0.5, dist=2, alpha=2
        sigma = 1.0 / math.sqrt(2.0 * 0.5)
        d = renyi_divergence_gaussian_quadrature(0.0, 2.0, sigma, 2.0)
        assert d == pytest.approx(4.0, abs=1e-8)

    def test_grid_passes(self):
        for rho in (0.25, 0.5, 1.0):
            assert check_gaussian_mech_divergence(rho).passed


class TestLaplaceSumCheck:
    def test_ks_passes(self):
        # at 10^5 samples the 99% critical value 1.63/sqrt(n) = 0.00515 is above the 0.005 floor
        rep = check_laplace_sum_pdf(1.0, SAMPLES, RandomStream(11))
        assert rep.threshold == 1.63 / math.sqrt(SAMPLES)
        assert rep.passed

    def test_empirical_mean_near_zero(self):
        rng = RandomStream(12)
        y = sample_laplace(1.0, rng, size=SAMPLES) + sample_laplace(1.0, rng, size=SAMPLES)
        assert abs(float(y.mean())) < 0.02

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_exact_cdf_is_the_integral_of_the_density(self, b):
        # split at the density's kink at 0, so quad meets 1e-14
        tol = dict(args=(b,), epsabs=1e-14, epsrel=1e-14)
        below = quad(laplace_sum_pdf, -np.inf, 0.0, **tol)[0]
        pts = np.linspace(-30.0 * b, 30.0 * b, 121)
        for y, got in zip(pts, statcheck._laplace_sum_cdf(pts, b)):
            if y <= 0:
                want = quad(laplace_sum_pdf, -np.inf, y, **tol)[0]
            else:
                want = below + quad(laplace_sum_pdf, 0.0, y, **tol)[0]
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_exact_cdf_is_monotone_and_symmetric(self, b):
        pts = np.linspace(0.0, 40.0 * b, 4001)
        up, down = statcheck._laplace_sum_cdf(pts, b), statcheck._laplace_sum_cdf(-pts, b)
        assert up[0] == down[0] == 0.5
        assert np.all(np.diff(up) >= 0) and np.all(np.diff(down) <= 0)
        np.testing.assert_allclose(down, 1.0 - up, rtol=0, atol=1e-16)


class TestPlanarLaplaceMean:
    @pytest.mark.parametrize("dim,eps", [(2, 1.0), (3, 2.0), (5, 1.0)])
    def test_mean_radius(self, dim, eps):
        rep = check_planar_laplace_mean(dim, eps, SAMPLES, RandomStream(14 + dim))
        assert rep.passed

    def test_report_fields(self):
        rep = check_planar_laplace_mean(2, 1.0, SAMPLES, RandomStream(20))
        assert rep.passed == (rep.statistic < rep.threshold)
        assert "PASS" in str(rep)

    @pytest.mark.parametrize("dim,samples", [(2, 20000), (3, 50000), (5, 10**5)])
    def test_band_is_four_standard_errors(self, dim, samples):
        # the norm is Gamma(d, 1/eps): relative standard error 1/sqrt(d * samples)
        rep = check_planar_laplace_mean(dim, 1.0, samples, RandomStream(21))
        assert rep.threshold == 4.0 / math.sqrt(dim * samples)

    def test_small_sample_sway_passes(self):
        # 1.6% off at 20000 samples: outside a fixed 1% band, inside 4 standard errors (2%)
        rep = check_planar_laplace_mean(2, 1.0, 20000, RandomStream(84))
        assert 0.01 < rep.statistic < 0.02
        assert rep.passed

    def test_large_sample_catches_half_percent_scale_error(self, monkeypatch):
        # a sampler 0.5% too wide passed a fixed 1% band at 10^6 samples
        honest = statcheck.sample_planar_laplace
        monkeypatch.setattr(
            statcheck, "sample_planar_laplace", lambda *a, **kw: 1.005 * honest(*a, **kw)
        )
        rep = check_planar_laplace_mean(2, 1.0, 10**6, RandomStream(22))
        assert rep.statistic < 0.01
        assert not rep.passed


CHUNK = statcheck._CHUNK
# one short of a chunk, exactly one, one over, and two chunks and a short third
EDGES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


class TestChunkedDraws:
    """The sampling checks draw in chunks of ``_CHUNK`` rows: wherever the
    chunks continue the one-shot draw stream, the reports are the one-shot
    reports bit for bit."""

    @pytest.mark.parametrize("samples", EDGES)
    def test_gaussian_tail_is_the_one_shot_check(self, samples):
        got = check_cgp_radial_tail(0.7, (0.5, 1.0, 1.5), samples, RandomStream(3, 1))
        assert got == one_shot_cgp_radial_tail(0.7, (0.5, 1.0, 1.5), samples, RandomStream(3, 1))

    @pytest.mark.parametrize("samples", EDGES)
    def test_laplace_sum_is_the_one_shot_check(self, samples):
        got = check_laplace_sum_pdf(1.5, samples, RandomStream(3, 2))
        assert got == one_shot_laplace_sum_pdf(1.5, samples, RandomStream(3, 2))

    @pytest.mark.parametrize("samples", EDGES)
    def test_expected_draws_is_the_one_shot_check(self, samples):
        got = check_expected_draws(0.5, samples, RandomStream(3, 3))
        assert got == one_shot_expected_draws(0.5, samples, RandomStream(3, 3))

    @pytest.mark.parametrize("samples", [1, 2, 1000, CHUNK - 1, CHUNK])
    def test_planar_checks_in_one_chunk_are_the_one_shot_checks(self, samples):
        got = check_gp_radial_tail(0.5, (1.0, 3.0, 5.0), samples, RandomStream(3, 4))
        assert got == one_shot_gp_radial_tail(0.5, (1.0, 3.0, 5.0), samples, RandomStream(3, 4))
        got = check_planar_laplace_mean(3, 2.0, samples, RandomStream(3, 5))
        assert got == one_shot_planar_laplace_mean(3, 2.0, samples, RandomStream(3, 5))

    def test_planar_mean_draws_normals_then_gammas_per_chunk(self):
        # above one chunk the stream differs from one draw of every row
        samples = CHUNK + 5
        rng = RandomStream(3, 6)
        sums = [float(np.linalg.norm(sample_planar_laplace(2, 1.0, rng, size=n), axis=1).sum()) for n in (CHUNK, 5)]
        got = check_planar_laplace_mean(2, 1.0, samples, RandomStream(3, 6))
        assert got.statistic == abs((sums[0] + sums[1]) / samples * 1.0 / 2 - 1.0)
        assert got != one_shot_planar_laplace_mean(2, 1.0, samples, RandomStream(3, 6))

    @pytest.mark.parametrize(
        "check",
        [
            lambda n, rng: check_gp_radial_tail(1.0, (1.0,), n, rng),
            lambda n, rng: check_cgp_radial_tail(1.0, (1.0,), n, rng),
            lambda n, rng: check_laplace_sum_pdf(1.0, n, rng),
            lambda n, rng: check_planar_laplace_mean(2, 1.0, n, rng),
            lambda n, rng: check_expected_draws(1.0, n, rng),
        ],
        ids=["gp_tail", "cgp_tail", "laplace_sum", "planar_mean", "expected_draws"],
    )
    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_refused_before_any_draw(self, check, samples):
        rng = RandomStream(3, 7)
        state = rng.generator.bit_generator.state
        with pytest.raises(ValueError, match="samples"):
            check(samples, rng)
        assert rng.generator.bit_generator.state == state

    def test_expected_draws_needs_two_samples(self):
        # one sample has no standard error: the threshold would be nan
        rng = RandomStream(3, 8)
        state = rng.generator.bit_generator.state
        with pytest.raises(ValueError, match="at least 2"):
            check_expected_draws(1.0, 1, rng)
        assert rng.generator.bit_generator.state == state
        assert check_expected_draws(1.0, 2, rng).samples == 2

    @pytest.mark.parametrize(
        "check, mib",
        [
            (lambda rng: check_gp_radial_tail(1.0, (1.0, 3.0, 5.0), 10**6, rng), 8),
            (lambda rng: check_planar_laplace_mean(5, 1.0, 10**6, rng), 8),
            # the 8 MB sorted sums and one chunk's CDF temporaries
            (lambda rng: check_laplace_sum_pdf(1.0, 10**6, rng), 12),
        ],
        ids=["gp_tail", "planar_mean_d5", "laplace_sum"],
    )
    def test_a_million_samples_hold_a_few_mib(self, check, mib):
        # one-shot, these held 31-54 MiB of numpy buffers
        tracemalloc.start()
        try:
            rep = check(RandomStream(3, 9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.samples == 10**6
        assert peak < mib * 2**20
