import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adamoge import autodiff as ad
from adamoge import spectral
from adamoge.autodiff import Variable


def spectrum_from_windows(x):
    """Spectrum of (B, L, V) windows, passed in the model's (B, V, L) layout."""
    return spectral.spectrum_of(Variable(x.transpose(0, 2, 1)))


def re_im(spec):
    """The (re, im) halves of a spectrum packed ``[re | im]``."""
    f = spec.value.shape[-1] // 2
    return spec.value[..., :f], spec.value[..., f:]


def loop_mu(re, im):
    b, v, f = re.shape
    out = np.zeros((b, f))
    for bi in range(b):
        for fi in range(f):
            acc = 0.0
            for vi in range(v):
                acc += (re[bi, vi, fi] ** 2 + im[bi, vi, fi] ** 2) ** 0.5
            out[bi, fi] = acc / v
    return out


def loop_intensity(re, im):
    b, v, f = re.shape
    out = np.zeros((b, v))
    for bi in range(b):
        for vi in range(v):
            acc = 0.0
            for fi in range(f):
                acc += (re[bi, vi, fi] ** 2 + im[bi, vi, fi] ** 2) ** 0.5
            out[bi, vi] = acc / f
    return out


class TestCrossVariableResponse:
    def test_single_variable_equals_magnitude(self):
        x = np.random.default_rng(0).standard_normal((2, 8, 1))
        spec = spectrum_from_windows(x)
        mu = spectral.summarize(spec).mu
        mag = np.hypot(*re_im(spec))[:, 0, :]
        assert np.allclose(mu.value, mag, atol=1e-14)

    def test_mean_of_two_dc_spectra(self):
        # variables constant 0.5 and 1.0 over 4 steps: spectra [2,0,0] and [4,0,0]
        x = np.stack(
            [np.full(4, 0.5), np.full(4, 1.0)], axis=1
        )[None, :, :]
        mu = spectral.summarize(spectrum_from_windows(x)).mu
        assert np.allclose(mu.value, [[3.0, 0.0, 0.0]], atol=1e-13)

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(1).standard_normal((2, 8, 3))
        spec = spectrum_from_windows(x)
        mu = spectral.summarize(spec).mu
        want = loop_mu(*re_im(spec))
        assert np.max(np.abs(mu.value - want)) < 1e-12


class TestSpectralIntensity:
    def test_zero_signal(self):
        spec = spectrum_from_windows(np.zeros((1, 8, 2)))
        e = spectral.summarize(spec).e
        assert np.all(e.value == 0.0)

    def test_constant_signal_dc_only(self):
        c, L = 1.5, 8
        spec = spectrum_from_windows(np.full((1, L, 1), c))
        e = spectral.summarize(spec).e
        f = L // 2 + 1
        assert np.allclose(e.value, c * L / f, atol=1e-12)

    def test_matches_loop_oracle(self):
        x = np.random.default_rng(2).standard_normal((3, 12, 2))
        spec = spectrum_from_windows(x)
        e = spectral.summarize(spec).e
        want = loop_intensity(*re_im(spec))
        assert np.max(np.abs(e.value - want)) < 1e-12


class TestGateFeatures:
    def test_concatenation_order(self):
        # chi is [mu ; e] per sample, checked against the loop oracles
        x = np.random.default_rng(3).standard_normal((2, 10, 3))
        spec = spectrum_from_windows(x)
        chi = spectral.summarize(spec).chi
        re, im = re_im(spec)
        want = np.concatenate([loop_mu(re, im), loop_intensity(re, im)], axis=1)
        assert np.max(np.abs(chi.value - want)) < 1e-12

    def test_zero_in_zero_out(self):
        chi = spectral.summarize(spectrum_from_windows(np.zeros((2, 6, 3)))).chi
        assert chi.value.shape == (2, 4 + 3)
        assert np.all(chi.value == 0.0)

    def test_ett_sized_feature_length(self):
        x = np.zeros((1, 96, 7))
        summary = spectral.summarize(spectrum_from_windows(x))
        assert summary.chi.value.shape == (1, 49 + 7)


class TestInvariants:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_variable_permutation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 16, 4))
        perm = rng.permutation(4)
        s1 = spectral.summarize(spectrum_from_windows(x))
        s2 = spectral.summarize(spectrum_from_windows(x[:, :, perm]))
        assert np.allclose(s1.mu.value, s2.mu.value, atol=1e-12)
        assert np.allclose(s1.e.value[:, perm], s2.e.value, atol=1e-12)

    @given(
        seed=st.integers(0, 2**31 - 1),
        c=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_positive_homogeneity(self, seed, c):
        x = np.random.default_rng(seed).standard_normal((1, 12, 3))
        s1 = spectral.summarize(spectrum_from_windows(x))
        s2 = spectral.summarize(spectrum_from_windows(c * x))
        for a, b in ((s1.mu, s2.mu), (s1.e, s2.e), (s1.chi, s2.chi)):
            assert np.allclose(c * a.value, b.value, rtol=1e-12, atol=1e-13)

    def test_nonnegative(self):
        x = np.random.default_rng(5).standard_normal((4, 16, 3))
        s = spectral.summarize(spectrum_from_windows(x))
        assert np.all(s.mu.value >= 0.0) and np.all(s.e.value >= 0.0)


class TestGradients:
    def test_chi_differentiable_to_window(self):
        rng = np.random.default_rng(6)
        store = ad.ParameterStore()
        store.add("x", rng.standard_normal((2, 12, 2)).transpose(0, 2, 1))

        def build(s):
            summary = spectral.summarize(spectral.spectrum_of(s["x"]))
            return ad.vsum(ad.square(summary.chi))

        err = ad.grad_check(build, store)
        assert err < 1e-6
