"""Half-spectrum transform pair for real signals.

Convention: unnormalised forward transform, 1/n-scaled inverse, so that for
a length-L real signal with half spectrum X

    sum(x**2) == (|X_0|**2 + 2*sum_{0<k<L/2} |X_k|**2 + [L even]|X_{L/2}|**2) / L.

One algorithm serves every length from 2 to ``MAX_LENGTH``: dense real-DFT
GEMMs.  Each length gets one cached (n, 2F) ``[cos | -sin]`` matrix;
:func:`rfft` is one matrix product against it and :func:`irfft` one product
against its transpose, after the spectrum is scaled by the half-weights and
1/n.  The model only ever transforms a few fixed lengths (L = 96 in,
H in {96, 192, 336, 720} out), so the plans are built once.  Longer lengths
are rejected, and the run configuration refuses a lookback or horizon above
the limit before any data is loaded.

Everything here is plain numpy arithmetic; ``numpy.fft`` serves only as an
oracle in the tests and the benchmark.
"""

from __future__ import annotations

import numpy as np

# Longest transform length.  A plan holds 8*n**2 bytes (4 MB at 720, 8 MB at
# 1024) and costs O(n**2) per row; the longest horizon of the ETT protocol is
# 720, so every model length fits with room to spare.
MAX_LENGTH = 1024


def half_bins(n: int) -> int:
    """Number of non-redundant spectrum bins of a length-n real signal."""
    return n // 2 + 1


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


def _check_length(n: int) -> None:
    if not 2 <= n <= MAX_LENGTH:
        raise ValueError(f"transform length must lie in [2, {MAX_LENGTH}], got {n}")


def rfft(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half spectrum of real input along the last axis.

    Returns (re, im) float64 arrays of shape ``x.shape[:-1] + (L//2+1,)``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    _check_length(n)
    f = half_bins(n)
    spec = x.reshape(-1, n) @ _dense_plan(n)
    shape = x.shape[:-1] + (f,)
    re = np.ascontiguousarray(spec[:, :f]).reshape(shape)
    im = np.ascontiguousarray(spec[:, f:]).reshape(shape)
    # bin 0 (and Nyquist for even n) of a real signal is exactly real; the
    # rounding of sin(pi) leaves residue in the Nyquist column, so pin both.
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
    _check_length(n)
    f = half_bins(n)
    if re.shape[-1] != f:
        raise ValueError(
            f"spectrum has {re.shape[-1]} bins, inconsistent with output length {n}"
        )
    stop = (n + 1) // 2  # bins 1 .. stop-1 are interior: their imaginary parts count
    re2, im2 = re.reshape(-1, f), im.reshape(-1, f)
    # columns: cos for every bin, then -sin for bins 0 .. stop-1; the DC
    # column stays zero so that only interior imaginary parts are read
    scale = half_weights(n) / n
    spec = np.zeros((re2.shape[0], f + stop))
    np.multiply(re2, scale, out=spec[:, :f])
    np.multiply(im2[:, 1:stop], scale[1:stop], out=spec[:, f + 1 :])
    out = spec @ _dense_plan(n)[:, : f + stop].T
    return np.ascontiguousarray(out).reshape(re.shape[:-1] + (n,))


def half_weights(n: int) -> np.ndarray:
    """Energy multiplicity of each half-spectrum bin: 1 at DC (and Nyquist for
    even n), 2 for interior bins that stand in for a conjugate pair."""
    w = np.full(half_bins(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w
