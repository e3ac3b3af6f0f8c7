import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, lambertw
from scipy.stats import chi2

from geopriv.noise import (
    RandomStream,
    laplace_sum_pdf,
    sample_gaussian_vec,
    sample_laplace,
    sample_planar_laplace,
)
from geopriv.statcheck import adaptive_simpson


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    n = len(samples)
    order = np.argsort(samples)
    f = cdf_values[order]
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))


class TestRandomStream:
    def test_same_key_reproduces_identical_sequences(self):
        a = RandomStream(123, 7).generator.laplace(0, 1, size=1000)
        b = RandomStream(123, 7).generator.laplace(0, 1, size=1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RandomStream(123, 7).generator.laplace(0, 1, size=100)
        b = RandomStream(123, 8).generator.laplace(0, 1, size=100)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, 2**64)

    @pytest.mark.parametrize("key", [(1.7, 0), (0, 1.7), (2.0, 0), ("3", 0)])
    def test_rejects_non_integer_keys(self, key):
        # neither truncated (1.7 -> 1) nor parsed ("3" -> 3)
        with pytest.raises(ValueError, match="is not an integer"):
            RandomStream(*key)

    def test_an_int_id_is_the_one_element_tuple(self):
        for i in (0, 7, 2**32 - 1):
            a = RandomStream(123, i).generator.bytes(64)
            assert a == RandomStream(123, (i,)).generator.bytes(64)

    def test_distinct_tuple_keys_differ(self):
        keys = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (2**32 - 1,), (5, 0, 0, 1, 0, 2), (5, 0, 0, 1, 2, 0)]
        streams = {RandomStream(3, key).generator.bytes(32) for key in keys}
        assert len(streams) == len(keys)

    @pytest.mark.parametrize("key", [(-1,), (2**32,), (0, 2**32), (1, -1), (1.0,), (0, "2"), (np.float64(1),)])
    def test_rejects_tuple_elements_outside_one_word(self, key):
        # SeedSequence splits 2**32 into the words (0, 1): it would be the stream (0, 1)
        with pytest.raises(ValueError, match="stream_id element"):
            RandomStream(0, key)

    def test_numpy_integer_keys(self):
        a = RandomStream(np.int64(5), np.uint32(2))
        assert (a.seed, a.stream_id) == (5, 2) and type(a.seed) is int
        assert a.generator.random() == RandomStream(5, 2).generator.random()
        b = RandomStream(5, (np.int64(2), np.uint32(3)))
        assert b.stream_id == (2, 3) and all(type(v) is int for v in b.stream_id)
        assert b.generator.random() == RandomStream(5, (2, 3)).generator.random()


# Requests a stream serves: planar Laplace and Gaussian vectors, which go
# through the tape, and scalar Laplace and the caller's own draws, which use
# the generator directly.
REQUESTS = st.one_of(
    st.tuples(st.just("planar"), st.integers(1, 5), st.none() | st.integers(0, 6), st.sampled_from([0.5, 1.0, 3.0])),
    st.tuples(st.just("gaussian"), st.integers(1, 5), st.none() | st.integers(0, 6), st.sampled_from([0.5, 2.0])),
    st.tuples(st.just("laplace"), st.none() | st.integers(1, 4)),
    st.tuples(st.just("generator"), st.integers(1, 4)),
)


def _serve(request, rng):
    kind, *args = request
    if kind == "planar":
        dim, size, eps = args
        return sample_planar_laplace(dim, eps, rng, size=size)
    if kind == "gaussian":
        dim, size, sigma = args
        return sample_gaussian_vec(dim, sigma, rng, size=size)
    if kind == "laplace":
        return sample_laplace(1.5, rng, size=args[0])
    return rng.generator.random(args[0])


def _same(got, want) -> bool:
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.array_equal(got, want)


class TestTape:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        passes=st.lists(st.tuples(st.integers(0, 8), st.lists(REQUESTS, max_size=6)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_pass_draws_what_a_fresh_stream_of_its_key_draws(self, passes, seed):
        # each pass after the first rewinds and keeps a prefix of the last
        # pass's requests, then diverges; a kept prefix as long as the last
        # pass, with nothing added, repeats it
        rng = RandomStream(seed, 3)
        requests = []
        with rng.taped():
            for i, (keep, added) in enumerate(passes):
                if i:
                    rng.rewind()
                requests = requests[:keep] + added
                fresh = RandomStream(seed, 3)
                for request in requests:
                    got = _serve(request, rng)
                    assert _same(got, _serve(request, fresh)), request
                    assert not isinstance(got, np.ndarray) or got.flags.writeable
        assert rng.generator.bit_generator.state == fresh.generator.bit_generator.state

    def test_a_replay_is_served_from_the_tape(self):
        class Spy:
            def __init__(self, generator):
                self.generator, self.used = generator, []

            def __getattr__(self, name):
                self.used.append(name)
                return getattr(self.generator, name)

        rng = RandomStream(2, 5)
        with rng.taped():
            first = sample_planar_laplace(2, 1.0, rng, size=8), sample_gaussian_vec(3, 2.0, rng, size=4)
            rng.rewind()
            rng._generator = spy = Spy(rng._generator)
            # the same requests at other scales: the recorded draws, scaled anew
            again = sample_planar_laplace(2, 4.0, rng, size=8), sample_gaussian_vec(3, 1.0, rng, size=4)
            assert spy.used == []
        assert np.allclose(again[0], first[0] / 4.0, rtol=1e-15) and np.array_equal(again[1], first[1] / 2.0)

    def test_a_mutated_output_does_not_corrupt_the_tape(self):
        rng, fresh = RandomStream(4, 2), RandomStream(4, 2)
        want = sample_planar_laplace(2, 1.0, fresh, size=5), sample_gaussian_vec(3, 2.0, fresh, size=4)
        with rng.taped():
            for _ in range(3):  # the recorded outputs, then two replayed ones
                got = sample_planar_laplace(2, 1.0, rng, size=5), sample_gaussian_vec(3, 2.0, rng, size=4)
                assert all(map(np.array_equal, got, want))
                got[0][:] = 0.0
                got[1][:] += 1.0
                rng.rewind()

    def test_an_untaped_stream_keeps_no_reference_to_its_draws(self):
        # so verify's 64k-row chunks are dropped as soon as they are folded
        rng = RandomStream(1)
        for draw in (
            lambda: sample_planar_laplace(2, 1.0, rng, size=65536),
            lambda: sample_gaussian_vec(2, 1.0, rng, size=65536),
        ):
            y = draw()
            ref = weakref.ref(y)
            del y
            assert ref() is None
        with rng.taped():
            pass
        y = sample_planar_laplace(2, 1.0, rng, size=4)
        ref = weakref.ref(y)
        del y
        assert ref() is None

    def test_scope_errors(self):
        rng = RandomStream(0)
        with pytest.raises(RuntimeError, match="taped"):
            rng.rewind()
        with rng.taped(), pytest.raises(RuntimeError, match="already taped"):
            with rng.taped():
                pass


class TestLaplace:
    def test_zero_noise_returns_mean(self):
        assert sample_laplace(1.0, RandomStream(0, zero_noise=True)) == 0.0

    def test_tail_probability(self):
        draws = sample_laplace(1.0, RandomStream(1), size=10**6)
        assert abs(float((draws > 1.0).mean()) - math.exp(-1) / 2) < 0.005

    def test_scale_equivariance_under_same_seed(self):
        a = sample_laplace(1.0, RandomStream(2), size=100)
        b = sample_laplace(2.0, RandomStream(2), size=100)
        assert np.array_equal(b, 2.0 * a)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            sample_laplace(0.0, RandomStream(0))


class TestGaussianVec:
    def test_zero_noise(self):
        assert np.array_equal(sample_gaussian_vec(2, 1.0, RandomStream(0, zero_noise=True)), np.zeros(2))

    def test_standard_normal_tail(self):
        draws = sample_gaussian_vec(1, 1.0, RandomStream(3), size=10**6)[:, 0]
        assert abs(float((draws > 1.0).mean()) - 0.15865525393145707) < 0.005

    def test_radial_survival_matches_gaussian_mechanism_law(self):
        # per-coordinate sigma 1/sqrt(2 rho) at rho=1: Pr[||Z|| > r] = exp(-rho r^2)
        draws = sample_gaussian_vec(2, 1.0 / math.sqrt(2.0), RandomStream(4), size=10**6)
        r = np.linalg.norm(draws, axis=1)
        assert abs(float((r > 1.0).mean()) - math.exp(-1.0)) < 0.005

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sample_gaussian_vec(0, 1.0, RandomStream(0))
        with pytest.raises(ValueError):
            sample_gaussian_vec(2, 0.0, RandomStream(0))


class TestPlanarLaplace:
    @pytest.mark.parametrize("r", [1.0, 3.0, 5.0])
    def test_radial_tail_2d(self, r):
        draws = sample_planar_laplace(2, 1.0, RandomStream(9), size=10**6)
        radii = np.linalg.norm(draws, axis=1)
        assert abs(float((radii > r).mean()) - (1 + r) * math.exp(-r)) < 0.005

    def test_mean_radius_3d(self):
        draws = sample_planar_laplace(3, 2.0, RandomStream(10), size=10**6)
        mean = float(np.linalg.norm(draws, axis=1).mean())
        assert abs(mean / 1.5 - 1.0) < 0.01

    def test_zero_noise_any_dim(self):
        for d in (1, 2, 5):
            assert np.array_equal(
                sample_planar_laplace(d, 1.0, RandomStream(0, zero_noise=True)), np.zeros(d)
            )

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_radial_law_ks_against_gen_gamma_cdf(self, d):
        # the radius of exp(-eps ||y||) on R^d is Gamma(d, 1/eps), whose CDF
        # is the regularized lower incomplete gamma; d = 2 alone cannot tell
        # a mixing shape of (d+1)/2 from d - 1/2
        eps = 2.0
        draws = sample_planar_laplace(d, eps, RandomStream(11), size=10**6)
        radii = np.linalg.norm(draws, axis=1)
        assert ks_statistic(radii, gammainc(d, radii * eps)) < 0.005

    def test_one_dim_is_laplace(self):
        eps = 2.0
        y = sample_planar_laplace(1, eps, RandomStream(15), size=10**6)[:, 0]
        half = 0.5 * np.exp(-np.abs(y) * eps)
        assert ks_statistic(y, np.where(y < 0, half, 1.0 - half)) < 0.005

    @pytest.mark.parametrize("size", [None, 1, 7])
    def test_one_normal_draw_then_one_gamma_draw(self, size):
        d, eps = 3, 2.0
        rng = RandomStream(16)
        y = sample_planar_laplace(d, eps, rng, size=size)
        ref = RandomStream(16).generator
        n = 1 if size is None else size
        z = ref.standard_normal((n, d))
        v = ref.standard_gamma((d + 1) / 2, n)
        expected = z * (np.sqrt(2.0 * v) / eps)[:, None]
        assert np.array_equal(y, expected[0] if size is None else expected)
        # nothing else was drawn: no redraw loop, no separate direction
        assert rng.generator.random() == ref.random()

    def test_rejects_bad_params(self):
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="eps must be positive"):
                sample_planar_laplace(2, eps, RandomStream(0))
        with pytest.raises(ValueError, match="dim must be at least 1"):
            sample_planar_laplace(0, 1.0, RandomStream(0))

    def test_gaussian_radial_law_ks(self):
        rho = 1.0
        draws = sample_gaussian_vec(2, 1.0 / math.sqrt(2 * rho), RandomStream(12), size=10**6)
        radii = np.sort(np.linalg.norm(draws, axis=1))
        assert ks_statistic(radii, 1.0 - np.exp(-rho * radii**2)) < 0.005

    def test_isotropy_chi_squared(self):
        draws = sample_planar_laplace(2, 1.0, RandomStream(13), size=10**6)
        angles = np.arctan2(draws[:, 1], draws[:, 0]) + math.pi
        counts, _ = np.histogram(angles, bins=36, range=(0.0, 2 * math.pi))
        expected = len(draws) / 36
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, 35) > 0.001


NON_INTEGER_ARGUMENTS = {
    "gaussian_vec dim=2.5": lambda rng: sample_gaussian_vec(2.5, 1.0, rng),
    "planar_laplace dim=2.9": lambda rng: sample_planar_laplace(2.9, 1.0, rng),
    'gaussian_vec dim="3"': lambda rng: sample_gaussian_vec("3", 1.0, rng, size=4),
    'planar_laplace dim="3"': lambda rng: sample_planar_laplace("3", 1.0, rng, size=4),
    "laplace size=3.7": lambda rng: sample_laplace(1.0, rng, size=3.7),
    "gaussian_vec size=3.7": lambda rng: sample_gaussian_vec(2, 1.0, rng, size=3.7),
    "planar_laplace size=3.7": lambda rng: sample_planar_laplace(2, 1.0, rng, size=3.7),
    "planar_laplace size=2.0": lambda rng: sample_planar_laplace(2, 1.0, rng, size=2.0),
}

# Scales that are not positive and finite, and planar rates whose scale
# 1/eps is not: a subnormal rate overflows it.
BAD_SCALES = {
    **{f"laplace scale={v}": (lambda v: lambda rng: sample_laplace(v, rng, size=3))(v)
       for v in (0.0, -1.0, math.nan, math.inf)},
    **{f"gaussian_vec sigma={v}": (lambda v: lambda rng: sample_gaussian_vec(2, v, rng))(v)
       for v in (0.0, -1.0, math.nan, math.inf)},
    **{f"planar_laplace eps={v!r}": (lambda v: lambda rng: sample_planar_laplace(2, v, rng, size=3))(v)
       for v in (0.0, -1.0, math.nan, math.inf, 1e-320, np.float64(1e-320), 5e-324)},
}


class TestSamplerArguments:
    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("call", BAD_SCALES.values(), ids=BAD_SCALES.keys())
    def test_a_scale_that_is_not_positive_and_finite_raises_before_any_draw(self, call, zero_noise):
        rng = RandomStream(0, zero_noise=zero_noise)
        with pytest.raises(ValueError, match="must be positive and finite"):
            call(rng)
        assert rng.generator.random() == RandomStream(0).generator.random()

    def test_the_smallest_normal_rate_is_accepted(self):
        eps = float(np.finfo(np.float64).tiny)
        assert np.array_equal(sample_planar_laplace(2, eps, RandomStream(0, zero_noise=True)), np.zeros(2))

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("call", NON_INTEGER_ARGUMENTS.values(), ids=NON_INTEGER_ARGUMENTS.keys())
    def test_non_integer_dim_or_size_raises_before_any_draw(self, call, zero_noise):
        # neither truncated (2.9 -> 2, 3.7 -> 3) nor parsed ("3" -> 3)
        rng = RandomStream(0, zero_noise=zero_noise)
        with pytest.raises(ValueError, match="is not an integer"):
            call(rng)
        assert rng.generator.random() == RandomStream(0).generator.random()

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("size", [None, 0, 3, np.int64(3)])
    def test_integer_sizes_keep_their_shapes(self, size, zero_noise):
        rng = RandomStream(0, zero_noise=zero_noise)
        rows = () if size is None else (int(size),)
        assert np.shape(sample_laplace(1.0, rng, size=size)) == rows
        assert np.shape(sample_gaussian_vec(np.int64(2), 1.0, rng, size=size)) == rows + (2,)
        assert np.shape(sample_planar_laplace(3, 1.0, rng, size=size)) == rows + (3,)


class TestLaplaceSum:
    def test_pdf_at_zero(self):
        assert laplace_sum_pdf(0.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_pdf_integrates_to_one(self):
        total = adaptive_simpson(lambda y: laplace_sum_pdf(y, 1.0), -40.0, 40.0, tol=1e-12)
        assert abs(total - 1.0) < 1e-8

    def test_pdf_matches_empirical_sum(self):
        rng = RandomStream(14)
        y = sample_laplace(1.0, rng, size=10**6) + sample_laplace(1.0, rng, size=10**6)
        ys = np.sort(y)
        # CDF from the density itself: Pr[|Y| <= r] = 1 - e^{-r}(1 + r/2) at b=1
        surv = np.exp(-np.abs(ys)) * (1 + np.abs(ys) / 2)
        cdf = np.where(ys >= 0, 1 - surv / 2, surv / 2)
        assert ks_statistic(ys, cdf) < 0.005


class TestLambertBounds:
    @pytest.mark.parametrize("u", [0.1, 1.0, 10.0])
    def test_inverse_sandwich(self, u):
        # lower-branch w of w * e^w = -e^{-u-1}, the inverse behind the
        # closed-form GP radius bound the identity tests use
        w = float(lambertw(-math.exp(-u - 1.0), k=-1).real)
        assert -1 - math.sqrt(2 * u) - u < w < -1 - math.sqrt(2 * u) - 2 * u / 3
