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

import numpy as np

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


def expert_spectra(sub, wre, wim, bre, bim) -> np.ndarray:
    """Every expert's complex affine map on every sample, in complex numpy:
    expert-major sub-bands (E, B, V, 2F) packed ``[re | im]`` ->
    (E, B, V, 2O) packed the same way, y[e,b,v] = W[e] @ x[e,b,v] + b[e]."""
    f = sub.shape[-1] // 2
    x = sub[..., :f] + 1j * sub[..., f:]
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


def khead_parameter_names(model) -> list[str]:
    """Parameters whose only path to the loss crosses the count-rounding
    discontinuity (excluded from finite-difference checks)."""
    names = []
    for i in range(model.cfg.depth):
        for leaf in ("w1", "b1", "w2", "b2"):
            name = f"b{i}.gate.{leaf}"
            if name in model.store:
                names.append(name)
    return names


def decision_margins(model, windows: np.ndarray) -> dict[str, float]:
    """Distances of a forward pass from the model's discrete decision
    boundaries; finite-difference harnesses require these to exceed the
    perturbation scale.

    Returns the minimum over blocks and samples of: ``round`` (gap between
    k_hat and the nearest rounding threshold), ``topk`` (gap between the
    lowest kept and highest dropped probability; inf when all experts are
    kept) and ``sigma`` (gap between the adaptive bandwidth and its clamp
    bounds; inf for the truncation family).
    """
    diag = []
    model.forward(Variable(windows), diag)
    round_m, topk_m, sigma_m = np.inf, np.inf, np.inf
    for block, d in zip(model.blocks, diag):
        if d.k_hat is not None:
            frac = np.abs(d.k_hat - np.floor(d.k_hat) - 0.5)
            round_m = min(round_m, float(frac.min()))
        p_sorted = np.sort(d.probabilities, axis=1)[:, ::-1]
        for row, kk in enumerate(d.decision.k):
            if kk < p_sorted.shape[1]:
                topk_m = min(topk_m, float(p_sorted[row, kk - 1] - p_sorted[row, kk]))
        if block.bank.family == "gaussian":
            # distance of the raw bandwidth from either clamp edge: a value
            # deep inside the clamp's flat region is as smooth as an interior
            # one, only near-crossings are fragile
            sigma_m = min(
                sigma_m,
                float(np.min(np.abs(d.raw_sigmas - block.bank.sigma_min))),
                float(np.min(np.abs(d.raw_sigmas - block.bank.sigma_max))),
            )
    return {"round": round_m, "topk": topk_m, "sigma": sigma_m}
