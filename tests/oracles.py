"""Independent reference implementations used as test oracles, and helpers
that only the tests use.

The oracles are deliberately naive (double loops, O(n^2) transforms, scalar
math, closed-form numpy) and share no code with the package under test.  The
helpers at the end read the package's objects (a filter bank, a model, a
series table) and compute what the tests ask of them; no program code calls
them.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from adamoge import checkpoint, moge
from adamoge.autodiff import Variable
from adamoge.data import SeriesTable
from adamoge.synthetic import hourly_timestamps
from adamoge.training import Adam


def naive_dft(x):
    """O(L^2) forward DFT, bin k = sum_t x[t] * exp(-2i*pi*k*t/L)."""
    n = len(x)
    out = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(-2j * cmath.pi * k * t / n)
        out.append(acc)
    return out


def naive_half_spectrum(x):
    return naive_dft(x)[: len(x) // 2 + 1]


def naive_irfft(spec, n):
    """Inverse of the half spectrum: real part of the 1/n-normalised inverse
    DFT of the Hermitian extension."""
    full = list(spec) + [spec[n - k].conjugate() for k in range(len(spec), n)]
    out = []
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += full[k] * cmath.exp(2j * cmath.pi * k * t / n)
        out.append(acc.real / n)
    return out


def scalar_softmax(logits):
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    s = sum(e)
    return [v / s for v in e]


def complex_matvec(w, x):
    """w: list of rows (complex), x: complex vector."""
    return [sum(wrow[j] * x[j] for j in range(len(x))) for wrow in w]


def sub_bands(spec, h) -> np.ndarray:
    """Every expert's band-passed spectrum: a (B, V, 2F) spectrum packed
    ``[re | im]`` times the expert-major (E, B, F) real responses, the same
    response on both halves -> (E, B, V, 2F) packed the same way."""
    f = h.shape[-1]
    re, im = spec[..., :f], spec[..., f:]
    hb = h[:, :, None, :]
    return np.concatenate([re[None] * hb, im[None] * hb], axis=-1)


class ExpertParts(NamedTuple):
    """Writable views of one block's experts in complex (real, imaginary)
    form: weights (E, O, F) and biases (E, O)."""

    wre: np.ndarray
    wim: np.ndarray
    bre: np.ndarray
    bim: np.ndarray


def expert_parts(w, b) -> ExpertParts:
    """The parts of experts in the stored layout, the (E, F, 2O) weights
    [Re W^T | Im W^T] and the (E, 1, 1, 2O) biases [Re b | Im b], as views:
    writing a part writes the packed array.  ``w`` and ``b`` may be a
    store's values or gradients."""
    o = w.shape[-1] // 2
    wt = w.transpose(0, 2, 1)
    flat = b.reshape(b.shape[0], 2 * o)
    return ExpertParts(wt[:, :o], wt[:, o:], flat[:, :o], flat[:, o:])


def packed_experts(w, bias) -> tuple[np.ndarray, np.ndarray]:
    """Complex (E, O, F) weights and (E, O) biases in the stored layout."""
    e, o, f = w.shape
    packed = np.empty((e, f, 2 * o)), np.empty((e, 1, 1, 2 * o))
    for part, value in zip(expert_parts(*packed), (w.real, w.imag, bias.real, bias.imag)):
        part[...] = value
    return packed


def expert_spectra(spec, h, w, b) -> np.ndarray:
    """Every expert's complex affine map on its band-passed spectrum for
    every sample, in complex numpy: a (B, V, 2F) spectrum, (E, B, F)
    responses and the stored (E, F, 2O) weights and (E, 1, 1, 2O) biases ->
    (E, B, V, 2O) packed ``[re | im]``,
    y[e,b,v] = W[e] @ (h[e,b] * spec[b,v]) + b[e]."""
    sub = sub_bands(spec, h)
    f = sub.shape[-1] // 2
    x = sub[..., :f] + 1j * sub[..., f:]
    wre, wim, bre, bim = expert_parts(w, b)
    y = np.einsum("eof,ebvf->ebvo", wre + 1j * wim, x) + (bre + 1j * bim)[:, None, None]
    return np.concatenate([y.real, y.imag], axis=-1)


def dog_response(f1, f2, sigma, freqs) -> np.ndarray:
    """Difference-of-Gaussians response at the given frequencies (bin units).

    Vectorised over filters when f1/f2/sigma are arrays of matching shape;
    ``freqs`` is broadcast against them on a trailing axis.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    center = (f1 + f2) / 2.0
    half = (f2 - f1) / 2.0
    d = freqs - center[..., None]
    lo = (d + half[..., None]) / sigma[..., None]
    hi = (d - half[..., None]) / sigma[..., None]
    return np.exp(-0.5 * lo * lo) - np.exp(-0.5 * hi * hi)


# --- test-only helpers on package objects -------------------------------------


def passbands(bank) -> np.ndarray:
    """(E, 2) array of a filter bank's current [f1, f2] in bin units."""
    return np.stack([f.value for f in bank.cutoffs()], axis=1)


def constant_table(rows: int, variables: int, value: float) -> SeriesTable:
    values = np.full((rows, variables), value, dtype=np.float64)
    names = [f"c{v}" for v in range(variables)]
    return SeriesTable(hourly_timestamps(rows), values, names)


def duplicate_last_entry(path: str) -> str:
    """Append a second copy of the last entry of the checkpoint at ``path``
    and raise its entry count by one; return that entry's name."""
    fingerprint, entries = checkpoint.load(path)
    name, arr = list(entries.items())[-1]
    size = 4 + len(name.encode("utf-8")) + 4 + 8 * arr.ndim + arr.nbytes
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    at = len(checkpoint.MAGIC) + 4 + len(fingerprint.encode("utf-8"))
    count = int.from_bytes(blob[at : at + 4], "little")
    blob[at : at + 4] = (count + 1).to_bytes(4, "little")
    blob += blob[-size:]
    with open(path, "wb") as fh:
        fh.write(blob)
    return name


def reshape_last_entry(path: str, shape: tuple[int, ...]) -> str:
    """Give the last entry of the checkpoint at ``path`` the rank and dims
    of ``shape``, followed by that many zero values, whether or not numpy
    can hold such an array; return that entry's name."""
    _, entries = checkpoint.load(path)
    name, arr = list(entries.items())[-1]
    with open(path, "rb") as fh:
        blob = fh.read()
    blob = blob[: len(blob) - (4 + 8 * arr.ndim + arr.nbytes)]
    blob += len(shape).to_bytes(4, "little")
    blob += b"".join(d.to_bytes(8, "little") for d in shape)
    blob += bytes(8 * math.prod(shape))
    with open(path, "wb") as fh:
        fh.write(blob)
    return name


def adam_poisoned_from(step: int) -> type:
    """An ``Adam`` that sets its first parameter's gradient to NaN from
    optimizer step ``step`` (0-based) on, just before the step's finiteness
    check, and keeps the parameters it found there in ``poisoned_state``.
    The loss stays finite; only the gradient is not."""

    class PoisonedAdam(Adam):
        poisoned_state = None

        def step(self, lr: float) -> None:
            if self.step_count >= step:
                PoisonedAdam.poisoned_state = self.store.state_dict()
                first = next(iter(self.store))
                first.grad = np.full_like(first.value, np.nan)
            super().step(lr)

    return PoisonedAdam


def decision_margins(model, windows: np.ndarray) -> dict[str, float]:
    """Distances of a forward pass from the model's discrete decision
    boundaries; finite-difference harnesses require these to exceed the
    perturbation scale.

    Returns the minimum over blocks and samples of: ``coverage`` (distance
    of the cumulative band-energy share from the coverage threshold on
    either side of the chosen K: the K largest shares' sum above it and the
    K - 1 largest shares' sum below it; inf under a fixed K), ``topk`` (gap
    between the lowest kept and highest dropped probability; inf when all
    experts are kept) and ``sigma`` (gap between the adaptive bandwidth and
    its clamp bounds; inf for the truncation filter).
    """
    diag = []
    model.forward(Variable(windows), diag)
    cover_m, topk_m, sigma_m = np.inf, np.inf, np.inf
    for block, d in zip(model.blocks, diag):
        if not block.fixed_k:
            cum = np.cumsum(np.sort(d.shares, axis=1)[:, ::-1], axis=1)
            cum = np.concatenate([np.zeros((len(cum), 1)), cum], axis=1)
            rows = np.arange(len(cum))
            above = cum[rows, d.decision.k] - moge.COVERAGE
            below = moge.COVERAGE - cum[rows, d.decision.k - 1]
            cover_m = min(cover_m, float(np.minimum(above, below).min()))
        p_sorted = np.sort(d.probabilities, axis=1)[:, ::-1]
        for row, kk in enumerate(d.decision.k):
            if kk < p_sorted.shape[1]:
                topk_m = min(topk_m, float(p_sorted[row, kk - 1] - p_sorted[row, kk]))
        if block.bank.filter != "truncation":
            # distance of the raw bandwidth from either clamp edge: a value
            # deep inside the clamp's flat region is as smooth as an interior
            # one, only near-crossings are fragile
            sigma_m = min(
                sigma_m,
                float(np.min(np.abs(d.raw_sigmas - block.bank.sigma_min))),
                float(np.min(np.abs(d.raw_sigmas - block.bank.sigma_max))),
            )
    return {"coverage": cover_m, "topk": topk_m, "sigma": sigma_m}
