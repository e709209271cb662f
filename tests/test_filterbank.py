import math

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import filterbank as fb
from adamoge.autodiff import ParameterStore, Variable
from adamoge.moge import ModelConfig
from adamoge.spectral import spectrum_of

from oracles import dog_response, passbands, sub_bands


def make_bank(e_max=3, bins=9, filter="dog"):
    store = ParameterStore()
    ModelConfig(e_max=e_max, filter=filter).validate(2 * (bins - 1))
    bank = fb.FilterBank(store, "bank", bins, e_max, filter)
    return store, bank


def random_spectrum(rng, b=2, l=16, v=2, scale=1.0):
    return spectrum_of(Variable(scale * rng.standard_normal((b, l, v)).transpose(0, 2, 1)))


class TestResponse:
    def test_zero_at_midpoint_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f1 = rng.uniform(0.01, 20.0)
            f2 = f1 + rng.uniform(1e-6, 30.0)
            sigma = rng.uniform(0.2, 25.0)
            mid = (f1 + f2) / 2.0
            h = dog_response(f1, f2, sigma, np.array([mid]))
            assert h[0] == 0.0

    def test_unity_at_lower_cutoff_when_far_separated(self):
        sigma = 1.0
        f1, f2 = 3.0, 3.0 + 10.0 * sigma
        h = dog_response(f1, f2, sigma, np.array([f1]))
        assert abs(h[0] - (1.0 - math.exp(-50.0))) < 1e-15

    def test_scalar_example(self):
        # independent evaluation: exp(-(5-4)^2/8) - exp(-(5-8)^2/8)
        want = math.exp(-1.0 / 8.0) - math.exp(-9.0 / 8.0)
        h = dog_response(4.0, 8.0, 2.0, np.array([5.0]))
        assert abs(h[0] - want) < 1e-14
        assert abs(h[0] - 0.5578444) < 1e-6

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            dog_response(1.0, 2.0, 0.0, np.arange(5.0))

    def test_bounded_by_one_and_small_far_out(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f1 = rng.uniform(0.1, 10.0)
            f2 = f1 + rng.uniform(0.1, 10.0)
            sigma = rng.uniform(0.3, 4.0)
            freqs = np.linspace(-60, 120, 500)
            h = dog_response(f1, f2, sigma, freqs)
            assert np.max(np.abs(h)) <= 1.0
            far = (freqs >= f2 + 6 * sigma) | (freqs <= f1 - 6 * sigma)
            assert np.all(np.abs(h[far]) < 2e-8)


def packed_spectrum(re, im):
    """A (B, V, 2F) spectrum Variable packed ``[re | im]``."""
    return Variable(np.concatenate([re, im], axis=-1))


class TestAdaptiveSigma:
    @pytest.mark.parametrize("bins, e_max", [(2, 1), (9, 3), (49, 7), (361, 5)])
    def test_bounds_follow_from_bins(self, bins, e_max):
        # scale f_nyq / (2 e_max), clamp [0.5, f_nyq / 2], f_nyq = bins - 1
        _, bank = make_bank(e_max=e_max, bins=bins)
        assert bank.scale == (bins - 1) / (2 * e_max)
        assert bank.sigma_min == fb.SIGMA_MIN == 0.5
        assert bank.sigma_max == (bins - 1) / 2

    def test_direct_substitution(self):
        # |X|^2 = 3 in every bin: sigma = f_nyq / (2 e_max) * 3 / centre =
        # (8 / 6) * 3 / centre = 4 / centre, inside [0.5, 4] for every filter
        _, bank = make_bank(e_max=3, bins=9)
        re = np.full((1, 2, 9), np.sqrt(3.0))
        s = bank.apply(packed_spectrum(re, np.zeros_like(re))).sigma.value.T
        center = passbands(bank).mean(axis=1)
        assert np.all(s > bank.sigma_min) and np.all(s < bank.sigma_max)
        assert np.allclose(s, 4.0 / center[None, :])

    def test_zero_spectrum_clamps_to_min(self):
        _, bank = make_bank(e_max=3, bins=9)
        s = bank.apply(packed_spectrum(np.zeros((2, 2, 9)), np.zeros((2, 2, 9)))).sigma.value
        assert np.all(s == 0.5)

    def test_loud_spectrum_clamps_to_max(self):
        # |X|^2 = 1e6 puts every raw sigma far above f_nyq / 2 = 4
        _, bank = make_bank(e_max=3, bins=9)
        bp = bank.apply(packed_spectrum(np.full((2, 2, 9), 1e3), np.zeros((2, 2, 9))))
        assert np.all(bp.raw_sigma.value > 100.0)
        assert np.all(bp.sigma.value == 4.0)

    def test_inverse_proportional_to_center(self):
        # mean |X|^2 = 3.75: sigma * centre is the same for every filter (the
        # scale f_nyq / (2 e_max) is 8 / 8 = 1), inside the clamp
        _, bank = make_bank(e_max=4, bins=9)
        re = np.full((1, 2, 9), np.sqrt(3.75))
        s = bank.apply(packed_spectrum(re, np.zeros_like(re))).sigma.value[:, 0]
        center = passbands(bank).mean(axis=1)
        assert len(np.unique(center)) == 4
        assert np.all(s > bank.sigma_min) and np.all(s < bank.sigma_max)
        assert np.allclose(s * center, 3.75)

    def test_bank_sigma_always_inside_bounds(self):
        rng = np.random.default_rng(2)
        store, bank = make_bank(e_max=4, bins=9)
        for scale in (1e-6, 1.0, 1e3):
            spec = random_spectrum(rng, scale=scale)
            sig = bank.apply(spec).sigma.value
            assert np.all(sig >= bank.sigma_min) and np.all(sig <= bank.sigma_max)

    @pytest.mark.parametrize("filter", ["dog", "truncation"])
    def test_power_sums_bin_power_over_variables(self, filter):
        # integer parts keep every sum exact
        rng = np.random.default_rng(13)
        _, bank = make_bank(e_max=3, bins=9, filter=filter)
        re, im = rng.integers(-9, 10, size=(2, 3, 4, 9)).astype(np.float64)
        power = bank.apply(packed_spectrum(re, im)).power
        assert np.array_equal(power, (re * re + im * im).sum(axis=1))


class TestInit:
    def test_two_filters_tile_halves(self):
        _, bank = make_bank(e_max=2, bins=49)
        bands = passbands(bank)
        assert bands[0][0] < 0.05
        assert abs(bands[0][1] - 24.0) < 0.5
        assert abs(bands[1][0] - 24.0) < 0.5
        assert abs(bands[1][1] - 48.0) < 0.5

    def test_single_filter_spans_all(self):
        _, bank = make_bank(e_max=1, bins=49)
        bands = passbands(bank)
        assert bands[0][0] < 0.05 and bands[0][1] > 47.5

    def test_eight_filters_six_bins_each(self):
        _, bank = make_bank(e_max=8, bins=49)
        widths = np.diff(passbands(bank), axis=1).ravel()
        assert np.allclose(widths, 6.0, atol=0.1)

    def test_ordering_holds_for_any_parameters(self):
        rng = np.random.default_rng(3)
        store, bank = make_bank(e_max=5, bins=49)
        for _ in range(200):
            store["bank.a"].value[...] = rng.uniform(-30, 30, size=5)
            store["bank.b"].value[...] = rng.uniform(-30, 30, size=5)
            f1, f2 = bank.cutoffs()
            assert np.all(f1.value > 0.0)
            assert np.all(f1.value < f2.value)
            assert np.all(f2.value <= bank.f_nyq)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(e_max=0).validate(2 * (9 - 1))
        with pytest.raises(ValueError):
            ModelConfig(e_max=2, filter="boxcar").validate(2 * (9 - 1))


class TestApply:
    def test_allpass_stub_is_identity(self):
        rng = np.random.default_rng(4)
        _, bank = make_bank(e_max=1, bins=9, filter="truncation")
        spec = random_spectrum(rng)
        sub = sub_bands(spec.value, bank.apply(spec).h.value)
        assert np.array_equal(sub[0, :, :, :9], spec.value[..., :9])
        assert np.array_equal(sub[0, :, :, 9:], spec.value[..., 9:])

    def test_zero_stub_is_zero(self):
        rng = np.random.default_rng(5)
        _, bank = make_bank(e_max=2, bins=9, filter="truncation")
        bank._masks[...] = 0.0
        spec = random_spectrum(rng)
        sub = sub_bands(spec.value, bank.apply(spec).h.value)
        assert np.all(sub[..., :9] == 0.0) and np.all(sub[..., 9:] == 0.0)

    def test_matches_per_bin_oracle(self):
        rng = np.random.default_rng(6)
        store, bank = make_bank(e_max=1, bins=9)
        spec = random_spectrum(rng, b=1, l=16, v=1)
        h = bank.apply(spec).h.value
        sub = sub_bands(spec.value, h)
        for f in range(9):
            assert abs(sub[0, 0, 0, f] - spec.value[0, 0, f] * h[0, 0, f]) < 1e-12
            assert abs(sub[0, 0, 0, 9 + f] - spec.value[0, 0, 9 + f] * h[0, 0, f]) < 1e-12

    @pytest.mark.parametrize("filter", ["dog", "truncation"], ids=["gaussian", "truncation"])
    def test_every_expert_and_sample_is_spectrum_times_response(self, filter):
        rng = np.random.default_rng(12)
        _, bank = make_bank(e_max=3, bins=9, filter=filter)
        spec = random_spectrum(rng, b=2)
        h = bank.apply(spec).h.value
        sub = sub_bands(spec.value, h)
        assert sub.shape == (3, 2, 2, 18) and h.shape == (3, 2, 9)
        for e, b in np.ndindex(3, 2):
            for half in (slice(0, 9), slice(9, 18)):
                want = spec.value[b, :, half] * h[e, b]
                assert np.array_equal(sub[e, b, :, half], want), (e, b, half)

    def test_bin_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        _, bank = make_bank(e_max=2, bins=5)
        with pytest.raises(ValueError):
            bank.apply(random_spectrum(rng))

    def test_autodiff_path_matches_plain_response(self):
        rng = np.random.default_rng(8)
        store, bank = make_bank(e_max=3, bins=9)
        spec = random_spectrum(rng, scale=0.4)
        h = bank.apply(spec).h.value
        bands = passbands(bank)
        sig = bank.apply(spec).sigma.value
        for b in range(spec.value.shape[0]):
            want = dog_response(
                bands[:, 0], bands[:, 1], sig[:, b], np.arange(9.0)
            )
            assert np.max(np.abs(h[:, b] - want)) < 1e-13


class TestGradients:
    def test_filtering_path_including_sigma(self):
        rng = np.random.default_rng(10)
        store, bank = make_bank(e_max=3, bins=9)
        # each sample scaled to a mean |X|^2 of 3.2, which puts every sigma,
        # (8 / 6) * 3.2 / centre, inside the clamp [0.5, 4]
        x = rng.standard_normal((2, 16, 2)).transpose(0, 2, 1)
        re, im = np.split(spectrum_of(Variable(x)).value, 2, axis=-1)
        mp = (re * re + im * im).mean(axis=(1, 2))
        store.add("x", x * np.sqrt(3.2 / mp)[:, None, None])

        def build(s):
            # the sub-band product of tests/oracles.sub_bands, in ad ops so
            # that the check reaches sigma through the responses
            spec = spectrum_of(s["x"])
            b, v, _ = spec.shape
            h = bank.apply(spec).h
            sub = ad.reshape(spec, (1, b, v, 2, 9)) * ad.reshape(h, (3, b, 1, 1, 9))
            return ad.vsum(ad.square(sub))

        # verify sigma sits strictly inside the clamp so the check is smooth
        sig = bank.apply(spectrum_of(store["x"])).sigma.value
        assert np.all(sig > bank.sigma_min + 1e-3)
        assert np.all(sig < bank.sigma_max - 1e-3)
        err = ad.grad_check(build, store)
        assert err < 1e-4

    def test_cutoff_ordering_survives_optimization(self):
        # plain gradient steps on a random quadratic over the responses
        rng = np.random.default_rng(11)
        store, bank = make_bank(e_max=4, bins=25)
        x = rng.standard_normal((2, 48, 2))
        target = rng.standard_normal((2, 4, 25)).transpose(1, 0, 2)
        for _ in range(100):
            store.zero_grads()
            with ad.Tape() as tape:
                h = bank.apply(spectrum_of(Variable(x.transpose(0, 2, 1)))).h
                loss = ad.vmean(ad.square(h - target))
                tape.backward(loss)
            for p in store:
                p.value -= 0.05 * p.grad
            f1, f2 = bank.cutoffs()
            assert np.all(f1.value < f2.value) and np.all(f1.value > 0.0)
