"""Half-spectrum transform pair for real signals.

Convention: unnormalised forward transform, 1/n-scaled inverse, so that for
a length-L real signal with half spectrum X

    sum(x**2) == (|X_0|**2 + 2*sum_{0<k<L/2} |X_k|**2 + [L even]|X_{L/2}|**2) / L.

One algorithm serves every length from 2 to ``MAX_LENGTH``: a folded
real DFT as two dense GEMMs.  Time t is paired with time n - t for
0 < t < n/2.  The cosine part of the spectrum depends only on the even fold
x[t] + x[n-t] (with x[0], and x[n/2] for even n) and the sine part only on
the odd fold x[t] - x[n-t], so :func:`rfft` is one product of the even fold
with a cached cosine plan and one of the odd fold with a cached sine plan.
:func:`irfft` multiplies the spectrum by the same two matrices, which are
symmetric, to get the cosine part c and the sine part s at t <= n/2, and
writes x[t] = c + s and x[n-t] = c - s.  That is half the multiply-adds of
a full (n, n) real-DFT matrix in either direction.  The model only ever
transforms a few fixed lengths (L = 96 in, H in {96, 192, 336, 720} out), so
the plans are built once.  Longer lengths are rejected, and the run
configuration refuses a lookback or horizon above the limit before any data
is loaded.

Everything here is plain numpy arithmetic; ``numpy.fft`` serves only as an
oracle in the tests and the benchmark.
"""

from __future__ import annotations

import numpy as np

# Longest transform length.  A plan holds about 4*n**2 bytes (2 MB at 720,
# 4 MB at 1024) and costs O(n**2) per row; the longest horizon of the ETT
# protocol is 720, so every model length fits with room to spare.
MAX_LENGTH = 1024


def half_bins(n: int) -> int:
    """Number of non-redundant spectrum bins of a length-n real signal."""
    return n // 2 + 1


_plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded real-DFT plan of length ``n``, with h = n//2 and m = (n-1)//2.

    ``cos`` is the (h+1, h+1) matrix cos(2*pi*k*t/n) over t, k in [0, h], with
    the DC row (and the Nyquist row for even n) halved; ``sin`` is the (m, m)
    matrix -sin(2*pi*k*t/n) over t, k in [1, m].  Both are symmetric in
    (t, k), so :func:`rfft` and :func:`irfft` multiply by the same two.
    """
    plan = _plans.get(n)
    if plan is None:
        h, m = n // 2, (n - 1) // 2
        t = np.arange(h + 1, dtype=np.int64)
        # reduce k*t mod n in integers so every angle lies in [0, 2*pi)
        angle = (2.0 * np.pi / n) * ((t[:, None] * t[None, :]) % n)
        cos = np.cos(angle)
        cos[0] *= 0.5
        if n % 2 == 0:
            cos[h] *= 0.5
        sin = -np.sin(angle[1 : m + 1, 1 : m + 1])
        cos.flags.writeable = sin.flags.writeable = False
        plan = _plans[n] = (cos, sin)
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
    h, m = n // 2, (n - 1) // 2
    cos, sin = _plan(n)
    rows = x.reshape(-1, n)
    # x[t] pairs with x[n-t]; x[0] (and x[n/2] for even n) pairs with itself,
    # so it enters doubled and meets the plan's halved row
    even = np.empty((rows.shape[0], h + 1))
    np.multiply(rows[:, 0], 2.0, out=even[:, 0])
    np.add(rows[:, 1 : h + 1], rows[:, n - 1 : n - h - 1 : -1], out=even[:, 1:])
    re = even @ cos
    # bin 0 (and Nyquist for even n) of a real signal is exactly real
    im = np.zeros((rows.shape[0], h + 1))
    np.matmul(rows[:, 1 : m + 1] - rows[:, :h:-1], sin, out=im[:, 1 : m + 1])
    shape = x.shape[:-1] + (h + 1,)
    return re.reshape(shape), im.reshape(shape)


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
    h, m = n // 2, (n - 1) // 2
    if re.shape[-1] != h + 1:
        raise ValueError(
            f"spectrum has {re.shape[-1]} bins, inconsistent with output length {n}"
        )
    cos, sin = _plan(n)
    out = np.empty(re.shape[:-1] + (n,))
    rows = out.reshape(-1, n)
    # c and s are n/2 times the cosine part at t = 0..h (written in place)
    # and the sine part at t = 1..m (read from the interior imaginary parts
    # only); x[n-t] = c - s and x[t] = c + s, then scaled by 2/n
    c = rows[:, : h + 1]
    np.matmul(re.reshape(-1, h + 1), cos, out=c)
    s = im.reshape(-1, h + 1)[:, 1 : m + 1] @ sin
    np.subtract(c[:, 1 : m + 1], s, out=rows[:, :h:-1])
    c[:, 1 : m + 1] += s
    out *= 2.0 / n
    return out


def half_weights(n: int) -> np.ndarray:
    """Energy multiplicity of each half-spectrum bin: 1 at DC (and Nyquist for
    even n), 2 for interior bins that stand in for a conjugate pair."""
    w = np.full(half_bins(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w
