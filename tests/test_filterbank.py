import math

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import filterbank as fb
from adamoge.autodiff import ParameterStore, Variable
from adamoge.spectral import spectrum_of


def make_bank(e_max=3, bins=9, **kw):
    store = ParameterStore()
    bank = fb.FilterBank(store, "bank", e_max=e_max, bins=bins, **kw)
    return store, bank


def random_spectrum(rng, b=2, l=16, v=2, scale=1.0):
    return spectrum_of(Variable(scale * rng.standard_normal((b, l, v))))


class TestResponse:
    def test_zero_at_midpoint_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f1 = rng.uniform(0.01, 20.0)
            f2 = f1 + rng.uniform(1e-6, 30.0)
            sigma = rng.uniform(0.2, 25.0)
            mid = (f1 + f2) / 2.0
            h = fb.dog_response(f1, f2, sigma, np.array([mid]))
            assert h[0] == 0.0

    def test_unity_at_lower_cutoff_when_far_separated(self):
        sigma = 1.0
        f1, f2 = 3.0, 3.0 + 10.0 * sigma
        h = fb.dog_response(f1, f2, sigma, np.array([f1]))
        assert abs(h[0] - (1.0 - math.exp(-50.0))) < 1e-15

    def test_scalar_example(self):
        # independent evaluation: exp(-(5-4)^2/8) - exp(-(5-8)^2/8)
        want = math.exp(-1.0 / 8.0) - math.exp(-9.0 / 8.0)
        h = fb.dog_response(4.0, 8.0, 2.0, np.array([5.0]))
        assert abs(h[0] - want) < 1e-14
        assert abs(h[0] - 0.5578444) < 1e-6

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            fb.dog_response(1.0, 2.0, 0.0, np.arange(5.0))

    def test_bounded_by_one_and_small_far_out(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f1 = rng.uniform(0.1, 10.0)
            f2 = f1 + rng.uniform(0.1, 10.0)
            sigma = rng.uniform(0.3, 4.0)
            freqs = np.linspace(-60, 120, 500)
            h = fb.dog_response(f1, f2, sigma, freqs)
            assert np.max(np.abs(h)) <= 1.0
            far = (freqs >= f2 + 6 * sigma) | (freqs <= f1 - 6 * sigma)
            assert np.all(np.abs(h[far]) < 2e-8)


class TestAdaptiveSigma:
    def test_direct_substitution(self):
        s = fb.adaptive_sigma(1.0, 1.0, np.array([2.0]), np.array([1.0]), 0.01, 100.0)
        assert np.allclose(s, 0.5)

    def test_zero_spectrum_clamps_to_min(self):
        s = fb.adaptive_sigma(1.0, 1.0, np.array([2.0]), np.array([0.0]), 0.5, 24.0)
        assert np.all(s == 0.5)

    def test_inverse_proportional_to_center(self):
        lo = fb.adaptive_sigma(1.0, 1.0, np.array([2.0]), np.array([3.0]), 1e-9, 1e9)
        hi = fb.adaptive_sigma(1.0, 1.0, np.array([4.0]), np.array([3.0]), 1e-9, 1e9)
        assert np.allclose(lo, 2.0 * hi)

    def test_bank_sigma_always_inside_bounds(self):
        rng = np.random.default_rng(2)
        store, bank = make_bank(e_max=4, bins=9)
        for scale in (1e-6, 1.0, 1e3):
            spec = random_spectrum(rng, scale=scale)
            sig = bank.evaluate(spec).sigma.value
            assert np.all(sig >= bank.sigma_min) and np.all(sig <= bank.sigma_max)


class TestInit:
    def test_two_filters_tile_halves(self):
        _, bank = make_bank(e_max=2, bins=49)
        bands = bank.passbands()
        assert bands[0][0] < 0.05
        assert abs(bands[0][1] - 24.0) < 0.5
        assert abs(bands[1][0] - 24.0) < 0.5
        assert abs(bands[1][1] - 48.0) < 0.5

    def test_single_filter_spans_all(self):
        _, bank = make_bank(e_max=1, bins=49)
        bands = bank.passbands()
        assert bands[0][0] < 0.05 and bands[0][1] > 47.5

    def test_eight_filters_six_bins_each(self):
        _, bank = make_bank(e_max=8, bins=49)
        widths = np.diff(bank.passbands(), axis=1).ravel()
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
        store = ParameterStore()
        with pytest.raises(ValueError):
            fb.FilterBank(store, "x", e_max=0, bins=9)
        with pytest.raises(ValueError):
            fb.FilterBank(store, "y", e_max=2, bins=9, mode="boxcar")


class TestApply:
    def test_allpass_stub_is_identity(self):
        rng = np.random.default_rng(4)
        _, bank = make_bank(e_max=1, bins=9, family="truncation")
        spec = random_spectrum(rng)
        sre, sim, _ = bank.apply(spec)
        assert np.array_equal(sre.value[:, 0], spec.re.value)
        assert np.array_equal(sim.value[:, 0], spec.im.value)

    def test_zero_stub_is_zero(self):
        rng = np.random.default_rng(5)
        _, bank = make_bank(e_max=2, bins=9, family="truncation")
        bank._masks[...] = 0.0
        spec = random_spectrum(rng)
        sre, sim, _ = bank.apply(spec)
        assert np.all(sre.value == 0.0) and np.all(sim.value == 0.0)

    def test_matches_per_bin_oracle(self):
        rng = np.random.default_rng(6)
        store, bank = make_bank(e_max=1, bins=9)
        spec = random_spectrum(rng, b=1, l=16, v=1)
        sre, sim, bp = bank.apply(spec)
        h = bp.h.value
        for f in range(9):
            assert abs(sre.value[0, 0, 0, f] - spec.re.value[0, 0, f] * h[0, 0, f]) < 1e-12
            assert abs(sim.value[0, 0, 0, f] - spec.im.value[0, 0, f] * h[0, 0, f]) < 1e-12

    def test_bin_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        _, bank = make_bank(e_max=2, bins=5)
        with pytest.raises(ValueError):
            bank.apply(random_spectrum(rng))

    def test_autodiff_path_matches_plain_response(self):
        rng = np.random.default_rng(8)
        store, bank = make_bank(e_max=3, bins=9)
        spec = random_spectrum(rng, scale=0.4)
        h = bank.evaluate(spec).h.value
        bands = bank.passbands()
        sig = bank.evaluate(spec).sigma.value
        for b in range(spec.batch):
            want = fb.dog_response(
                bands[:, 0], bands[:, 1], sig[b], np.arange(9.0)
            )
            assert np.max(np.abs(h[b] - want)) < 1e-13

    def test_abs_mode_is_magnitude_of_dog(self):
        rng = np.random.default_rng(9)
        store, bank = make_bank(e_max=3, bins=9)
        store2 = ParameterStore()
        bank2 = fb.FilterBank(store2, "bank", e_max=3, bins=9, mode="abs-dog")
        spec = random_spectrum(rng)
        h1 = bank.evaluate(spec).h.value
        h2 = bank2.evaluate(spec).h.value
        assert np.allclose(np.abs(h1), h2, atol=1e-15)


class TestGradients:
    def test_filtering_path_including_sigma(self):
        rng = np.random.default_rng(10)
        store, bank = make_bank(e_max=3, bins=9, sigma_min=0.05, sigma_max=20.0)
        store.add("x", 0.5 * rng.standard_normal((2, 16, 2)))

        def build(s):
            spec = spectrum_of(s["x"])
            sre, sim, _ = bank.apply(spec)
            return ad.vsum(ad.square(sre)) + ad.vsum(ad.square(sim))

        # verify sigma sits strictly inside the clamp so the check is smooth
        sig = bank.evaluate(spectrum_of(store["x"])).sigma.value
        assert np.all(sig > bank.sigma_min + 1e-3)
        assert np.all(sig < bank.sigma_max - 1e-3)
        err = ad.grad_check(build, store)
        assert err < 1e-4

    def test_cutoff_ordering_survives_optimization(self):
        # plain gradient steps on a random quadratic over the responses
        rng = np.random.default_rng(11)
        store, bank = make_bank(e_max=4, bins=25)
        x = rng.standard_normal((2, 48, 2))
        target = rng.standard_normal((2, 4, 25))
        for _ in range(100):
            store.zero_grads()
            with ad.Tape() as tape:
                h = bank.evaluate(spectrum_of(Variable(x))).h
                loss = ad.vmean(ad.square(h - target))
                tape.backward(loss)
            for p in store.trainable():
                p.value -= 0.05 * p.grad
            f1, f2 = bank.cutoffs()
            assert np.all(f1.value < f2.value) and np.all(f1.value > 0.0)
