"""Half-spectrum transform pair for real signals.

Convention: unnormalised forward transform, 1/n-scaled inverse, so that for
a length-L real signal with half spectrum X

    sum(x**2) == (|X_0|**2 + 2*sum_{0<k<L/2} |X_k|**2 + [L even]|X_{L/2}|**2) / L.

The algorithm is chosen by length alone:

* n <= ``_DENSE_MAX``: dense real-DFT GEMMs.  Each length gets one cached
  (n, 2F) ``[cos | -sin]`` matrix; :func:`rfft` is one matrix product against
  it and :func:`irfft` one product against its transpose, after the spectrum
  is scaled by the half-weights and 1/n.  The model only ever transforms a
  few fixed lengths (L = 96 in, H in {96, 192, 336, 720} out), so the plans
  are built once.
* n > ``_DENSE_MAX``: an O(n log n) complex FFT on whole row batches --
  iterative radix-2 for powers of two, Bluestein's chirp-z on a padded power
  of two for everything else.  Known cost: a long length with an odd factor
  pays for Bluestein's three padded transforms (a 224 x 1440 rfft takes about
  0.4 s on a 2-vCPU Xeon VM with one BLAS thread, against about 0.1 s at
  2048).  No default model length reaches this path.

Everything here is plain numpy arithmetic; ``numpy.fft`` serves only as an
oracle in the tests and the benchmark.
"""

from __future__ import annotations

import numpy as np

# Largest length served by a dense plan.  A plan holds 8*n**2 bytes (4 MB at
# 720, 8 MB at 1024) and costs O(n**2) per row.  On a 2-vCPU Xeon VM with one
# BLAS thread radix-2 only catches up with the dense product between n = 2048
# and 4096, where a plan would take 34-134 MB; the cap keeps plans small while
# every model length (up to 720) stays dense.
_DENSE_MAX = 1024


def half_bins(n: int) -> int:
    """Number of non-redundant spectrum bins of a length-n real signal."""
    return n // 2 + 1


# --- dense real-DFT plans (n <= _DENSE_MAX) -------------------------------------

_dense_plans: dict[int, np.ndarray] = {}


def _dense_plan(n: int) -> np.ndarray:
    """(n, 2F) real-DFT matrix ``[cos | -sin]``: :func:`rfft` multiplies by it,
    :func:`irfft` by its transpose."""
    plan = _dense_plans.get(n)
    if plan is None:
        t = np.arange(n, dtype=np.int64)
        k = np.arange(half_bins(n), dtype=np.int64)
        # reduce k*t mod n in integers so every angle lies in [0, 2*pi)
        angle = (2.0 * np.pi / n) * ((t[:, None] * k[None, :]) % n)
        plan = np.concatenate([np.cos(angle), -np.sin(angle)], axis=1)
        plan.flags.writeable = False
        _dense_plans[n] = plan
    return plan


# --- O(n log n) complex FFT (n > _DENSE_MAX) ------------------------------------

_pow2_plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_bluestein_plans: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
    return rev


def _pow2_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    plan = _pow2_plans.get(n)
    if plan is None:
        rev = _bit_reverse(n)
        tw = np.exp(-2j * np.pi * np.arange(max(n // 2, 1)) / n)
        plan = (rev, tw)
        _pow2_plans[n] = plan
    return plan


def _fft_pow2(z: np.ndarray) -> np.ndarray:
    """Forward radix-2 FFT of each row of ``z`` (power-of-two length),
    unnormalised.  Returns a new array."""
    n = z.shape[1]
    rev, tw = _pow2_plan(n)
    z = z[:, rev]
    m = 2
    while m <= n:
        half = m // 2
        w = tw[0 : n // 2 : n // m]
        z3 = z.reshape(z.shape[0], n // m, m)
        t = z3[:, :, half:] * w
        u = z3[:, :, :half]
        z3[:, :, half:] = u - t
        z3[:, :, :half] = u + t
        m *= 2
    return z


def _bluestein_plan(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    plan = _bluestein_plans.get(n)
    if plan is None:
        m = 1 << (2 * n - 1).bit_length()
        # chirp phase n^2/2 handled via k^2 mod 2n to keep sin/cos arguments small
        k = np.arange(n, dtype=np.int64)
        phase = np.pi * ((k * k) % (2 * n)) / n
        a = np.exp(-1j * phase)
        b = np.zeros(m, dtype=np.complex128)
        b[:n] = np.conj(a)
        b[m - n + 1 :] = np.conj(a[1:][::-1])
        plan = (a, _fft_pow2(b[None, :])[0], m)
        _bluestein_plans[n] = plan
    return plan


def _fft_bluestein(z: np.ndarray) -> np.ndarray:
    n = z.shape[1]
    a, bfft, m = _bluestein_plan(n)
    y = np.zeros((z.shape[0], m), dtype=np.complex128)
    y[:, :n] = z * a
    conv = _fft_pow2(y)
    conv *= bfft
    conv = np.conj(_fft_pow2(np.conj(conv))) / m
    return conv[:, :n] * a


def _fft(z: np.ndarray) -> np.ndarray:
    """Unnormalised complex DFT of each row of a (rows, n) complex array."""
    if _is_pow2(z.shape[1]):
        return _fft_pow2(z)
    return _fft_bluestein(z)


# --- public pair -----------------------------------------------------------------


def rfft(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half spectrum of real input along the last axis.

    Returns (re, im) float64 arrays of shape ``x.shape[:-1] + (L//2+1,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        raise ValueError(f"rfft needs length >= 2, got {n}")
    f = half_bins(n)
    flat = x.reshape(-1, n)
    if n <= _DENSE_MAX:
        spec = flat @ _dense_plan(n)
        re, im = spec[:, :f], spec[:, f:]
    else:
        spec = _fft(flat.astype(np.complex128))[:, :f]
        re, im = spec.real, spec.imag
    shape = x.shape[:-1] + (f,)
    re = np.ascontiguousarray(re).reshape(shape)
    im = np.ascontiguousarray(im).reshape(shape)
    # bin 0 (and Nyquist for even n) of a real signal is exactly real; the
    # rounding of sin(pi) and the chirp-z path leave residue there, so pin it.
    im[..., 0] = 0.0
    if n % 2 == 0:
        im[..., -1] = 0.0
    return re, im


def irfft(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rfft`: real signal of length ``n`` along the last axis.

    Imaginary parts of the DC bin (and of the Nyquist bin for even ``n``) do
    not contribute, matching the Hermitian-extension definition; they never
    enter the arithmetic, so even a NaN or inf there leaves the output bits
    unchanged.
    """
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    if re.shape != im.shape:
        raise ValueError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    f = half_bins(n)
    if n < 2 or re.shape[-1] != f:
        raise ValueError(
            f"spectrum has {re.shape[-1]} bins, inconsistent with output length {n}"
        )
    stop = (n + 1) // 2  # bins 1 .. stop-1 are interior: their imaginary parts count
    re2, im2 = re.reshape(-1, f), im.reshape(-1, f)
    if n <= _DENSE_MAX:
        # columns: cos for every bin, then -sin for bins 0 .. stop-1; the DC
        # column stays zero so that only interior imaginary parts are read
        scale = half_weights(n) / n
        spec = np.zeros((re2.shape[0], f + stop))
        np.multiply(re2, scale, out=spec[:, :f])
        np.multiply(im2[:, 1:stop], scale[1:stop], out=spec[:, f + 1 :])
        out = spec @ _dense_plan(n)[:, : f + stop].T
    else:
        full = np.zeros((re2.shape[0], n), dtype=np.complex128)
        full.real[:, :f] = re2
        full.imag[:, 1:stop] = im2[:, 1:stop]
        full[:, f:] = np.conj(full[:, 1:stop])[:, ::-1]
        # inverse DFT = conj(DFT(conj(z))), and only the real part is kept
        out = _fft(np.conj(full)).real / n
    return np.ascontiguousarray(out).reshape(re.shape[:-1] + (n,))


def half_weights(n: int) -> np.ndarray:
    """Energy multiplicity of each half-spectrum bin: 1 at DC (and Nyquist for
    even n), 2 for interior bins that stand in for a conjugate pair."""
    w = np.full(half_bins(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w
