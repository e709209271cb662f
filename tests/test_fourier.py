import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamoge import fourier

from oracles import naive_half_spectrum, naive_irfft


def rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1.0)
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / scale


class TestForward:
    def test_constant_signal_is_dc_only(self):
        re, im = fourier.rfft(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(re, [4.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(im, 0.0, atol=1e-14)

    def test_alternating_signal_is_nyquist_only(self):
        re, im = fourier.rfft(np.array([1.0, -1.0, 1.0, -1.0]))
        assert np.allclose(re, [0.0, 0.0, 4.0], atol=1e-14)
        assert np.allclose(im, 0.0, atol=1e-14)

    # 1023 and 1024 are the longest odd and even lengths below the limit
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16, 96, 97, 1023, 1024])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.uniform(-1, 1, size=n)
        re, im = fourier.rfft(x)
        want = naive_half_spectrum(x.tolist())
        assert rel_err(re + 1j * im, want) < 1e-10

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fourier.rfft(np.array([1.0]))

    def test_rejects_lengths_above_limit(self):
        n = fourier.MAX_LENGTH + 1
        with pytest.raises(ValueError, match=str(fourier.MAX_LENGTH)):
            fourier.rfft(np.zeros(n))
        f = fourier.half_bins(n)
        with pytest.raises(ValueError, match=str(fourier.MAX_LENGTH)):
            fourier.irfft(np.zeros(f), np.zeros(f), n)

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2, 12))
        re, im = fourier.rfft(x)
        for i in range(4):
            for j in range(2):
                r1, i1 = fourier.rfft(x[i, j])
                assert np.allclose(re[i, j], r1, atol=1e-13)
                assert np.allclose(im[i, j], i1, atol=1e-13)


class TestInverse:
    def test_dc_only_spectrum(self):
        out = fourier.irfft(np.array([4.0, 0.0, 0.0]), np.zeros(3), 4)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_single_interior_bin(self):
        # spectrum [0, 2, 0] at L=4: x[t] = (1/4)*2*Re(2*exp(2i*pi*t/4))
        out = fourier.irfft(np.array([0.0, 2.0, 0.0]), np.zeros(3), 4)
        want = naive_irfft([0j, 2 + 0j, 0j], 4)
        assert np.allclose(out, want, atol=1e-12)
        assert np.allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(16)
        re, im = fourier.rfft(x)
        assert rel_err(fourier.irfft(re, im, 16), x) < 1e-10

    def test_rejects_bin_count_mismatch(self):
        with pytest.raises(ValueError):
            fourier.irfft(np.zeros(4), np.zeros(4), 4)

    # the longest model horizon and the limit; the spectra are random, so
    # every interior imaginary part counts
    @pytest.mark.parametrize("n", [720, 1023, 1024])
    def test_matches_naive_irfft(self, n):
        rng = np.random.default_rng(200 + n)
        re, im = rng.standard_normal((2, fourier.half_bins(n)))
        want = np.array(naive_irfft([complex(a, b) for a, b in zip(re, im)], n))
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(fourier.irfft(re, im, n) - want)) / scale < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 96, 97, 720, 1023, 1024])
    @pytest.mark.parametrize("junk", [np.nan, np.inf, -np.inf, 1e300])
    def test_dc_and_nyquist_imaginary_parts_ignored(self, n, junk):
        rng = np.random.default_rng(n)
        re, im = rng.standard_normal((2, 3, fourier.half_bins(n)))
        ignored = [0, -1] if n % 2 == 0 else [0]
        im[:, ignored] = 0.0
        want = fourier.irfft(re, im, n)
        im[:, ignored] = junk
        assert fourier.irfft(re, im, n).tobytes() == want.tobytes()


class TestInvariants:
    @given(n=st.integers(min_value=2, max_value=512), seed=st.integers(0, 2**32 - 1))
    @example(n=1023, seed=0)
    @example(n=1024, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity(self, n, seed):
        x = np.random.default_rng(seed).uniform(-5, 5, size=n)
        re, im = fourier.rfft(x)
        assert rel_err(fourier.irfft(re, im, n), x) < 1e-10

    @given(n=st.integers(min_value=2, max_value=256), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_parseval(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        re, im = fourier.rfft(x)
        power = (re * re + im * im) * fourier.half_weights(n)
        lhs = np.sum(x * x)
        rhs = power.sum() / n
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

    def test_deterministic(self):
        x = np.random.default_rng(5).standard_normal(96)
        a = fourier.rfft(x)
        b = fourier.rfft(x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
