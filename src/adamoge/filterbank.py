"""Learnable Gaussian band-pass filter bank for soft spectral decoupling.

Each of the E filters is a difference of two Gaussians centred at its lower
and upper cutoff, evaluated at integer bin frequencies.  Cutoffs are stored
through nested sigmoids so 0 < f1 < f2 < f_nyq holds for any parameter
value, and the bandwidth is recomputed per sample from the window's mean
spectral power scaled by 1/(centre frequency), clamped to a safe interval.

The response is evaluated around the filter centre, H(f) =
exp(-((d+h)/s)^2/2) - exp(-((d-h)/s)^2/2) with d = f - (f1+f2)/2 and
h = (f2-f1)/2, so the null at the exact centre is an exact floating-point
zero, not a cancellation residue.

A ``truncation`` family (fixed equal bands, hard 0/1 response) exists as an
ablation baseline against the learnable Gaussian family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Variable
from .spectral import SpectrumBatch

SIGMA_MIN_DEFAULT = 0.5


def logit(p: np.ndarray | float) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-4, 1.0 - 1e-4)
    return np.log(p / (1.0 - p))


# sigmoid output bounded away from {0, 1} so the derived cutoffs keep a
# representable gap f2 - f1 > 0 for every finite parameter value
_SQUASH_EPS = 1e-6


def _squash(t):
    return ad.sigmoid(t) * (1.0 - 2.0 * _SQUASH_EPS) + _SQUASH_EPS


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


def adaptive_sigma(
    sigma0: float,
    alpha: float,
    center: np.ndarray,
    mean_power: np.ndarray,
    sigma_min: float,
    sigma_max: float,
) -> np.ndarray:
    """Per-sample bandwidth sigma0 * (alpha / center) * mean|X|^2, clamped."""
    raw = sigma0 * alpha * mean_power[..., None] / center
    return np.clip(raw, sigma_min, sigma_max)


@dataclass
class BankPass:
    """The Variables of one evaluation of the bank on a spectrum.

    For the truncation family f1/f2 are the fixed band edges and both sigmas
    are zero, since its response has no bandwidth.
    """

    f1: Variable  # (E,) lower cutoffs
    f2: Variable  # (E,) upper cutoffs
    raw_sigma: Variable  # (B, E) adaptive bandwidth before the clamp
    sigma: Variable  # (B, E) clamped bandwidth
    h: Variable  # (B, E, F) responses at integer bins


class FilterBank:
    """E learnable band-pass filters over the half spectrum of a window.

    family="gaussian": difference-of-Gaussians with learnable cutoffs and
    sample-adaptive bandwidth.  family="truncation": fixed equal bands with
    a hard 0/1 response (ablation baseline); carries no parameters.
    """

    def __init__(
        self,
        store: ParameterStore,
        prefix: str,
        e_max: int,
        bins: int,
        sigma0: float | None = None,
        alpha: float = 1.0,
        sigma_min: float = SIGMA_MIN_DEFAULT,
        sigma_max: float | None = None,
        mode: str = "dog",
        family: str = "gaussian",
    ):
        if e_max < 1:
            raise ValueError("e_max must be >= 1")
        if mode not in ("dog", "abs-dog"):
            raise ValueError(f"unknown filter mode {mode!r}")
        if family not in ("gaussian", "truncation"):
            raise ValueError(f"unknown filter family {family!r}")
        self.e_max = e_max
        self.bins = bins
        self.f_nyq = float(bins - 1)
        self.sigma0 = self.f_nyq / (2.0 * e_max) if sigma0 is None else float(sigma0)
        self.alpha = float(alpha)
        self.sigma_min = float(sigma_min)
        self.sigma_max = self.f_nyq / 2.0 if sigma_max is None else float(sigma_max)
        self.mode = mode
        self.family = family
        self._freqs = np.arange(bins, dtype=np.float64)
        # equal tiling of [0, f_nyq]: the initial Gaussian cutoffs and the
        # fixed truncation bands
        self._edges = np.linspace(0.0, self.f_nyq, e_max + 1)
        if family == "gaussian":
            lo = self._edges[:-1].copy()
            lo[0] = self.f_nyq * 1e-4  # the first lower cutoff sits just above 0
            hi = self._edges[1:]
            self.a = store.add(f"{prefix}.a", logit(lo / self.f_nyq))
            self.b = store.add(f"{prefix}.b", logit((hi - lo) / (self.f_nyq - lo)))
        else:
            self.a = self.b = None
            self._masks = self._truncation_masks()

    def _truncation_masks(self) -> np.ndarray:
        edges = self._edges
        masks = np.zeros((self.e_max, self.bins))
        for e in range(self.e_max):
            inside = (self._freqs >= edges[e]) & (self._freqs < edges[e + 1])
            if e == self.e_max - 1:
                inside |= self._freqs == self.f_nyq
            masks[e, inside] = 1.0
        return masks

    def cutoffs(self) -> tuple[Variable, Variable]:
        """(f1, f2) as (E,) variables with 0 < f1 < f2 < f_nyq; the fixed band
        edges for the truncation family."""
        if self.family == "truncation":
            return Variable(self._edges[:-1]), Variable(self._edges[1:])
        f1 = _squash(self.a) * self.f_nyq
        f2 = f1 + (self.f_nyq - f1) * _squash(self.b)
        return f1, f2

    def passbands(self) -> np.ndarray:
        """(E, 2) array of current [f1, f2] in bin units."""
        return np.stack([f.value for f in self.cutoffs()], axis=1)

    def evaluate(self, spec: SpectrumBatch) -> BankPass:
        """Cutoffs, per-sample bandwidths and responses from one cutoffs() call.

        sigma = clamp(sigma0 * alpha * mean|X|^2 / centre), the mean taken over
        every bin of every variable of a sample.
        """
        if spec.bins != self.bins:
            raise ValueError(f"spectrum has {spec.bins} bins, bank expects {self.bins}")
        b = spec.batch
        f1, f2 = self.cutoffs()
        if self.family == "truncation":
            zeros = Variable(np.zeros((b, self.e_max)))
            h = Variable(np.broadcast_to(self._masks, (b, self.e_max, self.bins)).copy())
            return BankPass(f1, f2, zeros, zeros, h)
        center = (f1 + f2) * 0.5
        power = ad.square(spec.re) + ad.square(spec.im)
        mp = ad.reshape(ad.vmean(power, axis=(1, 2)), (-1, 1))
        raw = mp * (self.sigma0 * self.alpha) / ad.reshape(center, (1, -1))
        sigma = ad.clamp(raw, self.sigma_min, self.sigma_max)
        half = ad.reshape((f2 - f1) * 0.5, (1, -1, 1))
        d = Variable(self._freqs.reshape(1, 1, -1)) - ad.reshape(center, (1, -1, 1))
        s = ad.reshape(sigma, (b, self.e_max, 1))
        lo = (d + half) / s
        hi = (d - half) / s
        h = ad.exp(ad.square(lo) * -0.5) - ad.exp(ad.square(hi) * -0.5)
        if self.mode == "abs-dog":
            h = ad.absval(h)
        return BankPass(f1, f2, raw, sigma, h)

    def apply(self, spec: SpectrumBatch) -> tuple[Variable, Variable, BankPass]:
        """Sub-band spectra (B, E, V, F), the input spectrum times each
        response, and the bank pass that produced the responses."""
        bp = self.evaluate(spec)
        hexp = ad.reshape(bp.h, (spec.batch, self.e_max, 1, self.bins))
        xre = ad.reshape(spec.re, (spec.batch, 1, spec.variables, self.bins))
        xim = ad.reshape(spec.im, (spec.batch, 1, spec.variables, self.bins))
        return xre * hexp, xim * hexp, bp
