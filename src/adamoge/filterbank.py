"""Learnable Gaussian band-pass filter bank for soft spectral decoupling.

Each of the E filters is a difference of two Gaussians centred at its lower
and upper cutoff, evaluated at integer bin frequencies.  Cutoffs are stored
through nested sigmoids so 0 < f1 < f2 < f_nyq holds for any parameter
value, and the bandwidth is recomputed per sample from the window's mean
spectral power: sigma = clamp(f_nyq / (2 E) * mean|X|^2 / centre, SIGMA_MIN,
f_nyq / 2).  The rule has no options; the bounds follow from the bin count.

The response is evaluated around the filter centre, H(f) =
exp(-((d+h)/s)^2/2) - exp(-((d-h)/s)^2/2) with d = f - (f1+f2)/2 and
h = (f2-f1)/2, so the null at the exact centre is an exact floating-point
zero, not a cancellation residue.

The bank returns the responses, expert-major (E, B, F), and forms no
sub-band: the expert map multiplies the spectrum by the gate-weighted
responses inside its GEMM operand.

``truncation`` (fixed equal bands, hard 0/1 response) is the direct band
truncation the learnable Gaussian filters are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Variable

FILTERS = ("dog", "truncation")

# the narrowest bandwidth, half a bin: the responses are evaluated at integer
# bins, and a narrower Gaussian can fall between them; it also keeps the
# division by sigma finite for a window with no power (raw sigma 0)
SIGMA_MIN = 0.5


def logit(p: np.ndarray | float) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-4, 1.0 - 1e-4)
    return np.log(p / (1.0 - p))


# sigmoid output bounded away from {0, 1} so the derived cutoffs keep a
# representable gap f2 - f1 > 0 for every finite parameter value
_SQUASH_EPS = 1e-6


def _squash(t):
    return ad.sigmoid(t) * (1.0 - 2.0 * _SQUASH_EPS) + _SQUASH_EPS


@dataclass
class BankPass:
    """The Variables of one evaluation of the bank on a spectrum, expert-major.

    For the truncation filter f1/f2 are the fixed band edges and both sigmas
    are zero, since its response has no bandwidth.
    """

    f1: Variable  # (E,) lower cutoffs
    f2: Variable  # (E,) upper cutoffs
    raw_sigma: Variable  # (E, B) adaptive bandwidth before the clamp
    sigma: Variable  # (E, B) clamped bandwidth
    h: Variable  # (E, B, F) responses at integer bins
    power: np.ndarray  # (B, F) sum over variables of |X|^2, a value off the tape


class FilterBank:
    """E learnable band-pass filters over the half spectrum of a window.

    filter="dog": difference-of-Gaussians with learnable cutoffs and
    sample-adaptive bandwidth, whose scale f_nyq / (2 E) and clamp
    [SIGMA_MIN, f_nyq / 2] follow from ``bins`` and ``e_max``.
    filter="truncation": fixed equal bands with a hard 0/1 response
    (ablation baseline); carries no parameters.  The caller checks its
    arguments (``ModelConfig.validate``).
    """

    def __init__(self, store: ParameterStore, prefix: str, bins: int, e_max: int, filter: str):
        self.e_max = e_max
        self.bins = bins
        self.f_nyq = float(bins - 1)
        self.scale = self.f_nyq / (2.0 * e_max)  # the bandwidth of an equal share of the bins
        self.sigma_min = SIGMA_MIN
        # wider than half the spectrum, a Gaussian no longer tells bands apart
        self.sigma_max = self.f_nyq / 2.0
        self.filter = filter
        self._freqs = np.arange(bins, dtype=np.float64)
        # equal tiling of [0, f_nyq]: the initial Gaussian cutoffs and the
        # fixed truncation bands
        self._edges = np.linspace(0.0, self.f_nyq, self.e_max + 1)
        if self.filter != "truncation":
            lo = self._edges[:-1].copy()
            lo[0] = self.f_nyq * 1e-4  # the first lower cutoff sits just above 0
            hi = self._edges[1:]
            self.a = store.add(f"{prefix}.a", logit(lo / self.f_nyq))
            self.b = store.add(f"{prefix}.b", logit((hi - lo) / (self.f_nyq - lo)))
        else:
            self.a = self.b = None
            self._masks = self._truncation_masks()

    def _truncation_masks(self) -> np.ndarray:
        edges, freqs = self._edges[:, None], self._freqs
        inside = (freqs >= edges[:-1]) & (freqs < edges[1:])
        inside[-1] |= freqs == self.f_nyq
        return inside.astype(np.float64)

    def cutoffs(self) -> tuple[Variable, Variable]:
        """(f1, f2) as (E,) variables with 0 < f1 < f2 < f_nyq; the fixed band
        edges for the truncation filter."""
        if self.filter == "truncation":
            return Variable(self._edges[:-1]), Variable(self._edges[1:])
        f1 = _squash(self.a) * self.f_nyq
        f2 = f1 + (self.f_nyq - f1) * _squash(self.b)
        return f1, f2

    def apply(self, spec: Variable) -> BankPass:
        """Cutoffs, per-sample bandwidths and responses from one cutoffs() call
        on a (B, V, 2F) spectrum packed ``[re | im]``, expert-major: (E, B, ...).

        sigma = clamp(scale * mean|X|^2 / centre), the mean taken over every
        bin of every variable of a sample.  ``power`` hands the per-bin sum
        of |X|^2 over variables to band-energy coverage.
        """
        b, v, packed = spec.value.shape
        if packed != 2 * self.bins:
            raise ValueError(f"spectrum has {packed // 2} bins, bank expects {self.bins}")
        f1, f2 = self.cutoffs()
        if self.filter == "truncation":
            zeros = Variable(np.zeros((self.e_max, b)))
            h = Variable(np.broadcast_to(self._masks[:, None], (self.e_max, b, self.bins)).copy())
            power = np.square(spec.value).reshape(b, v, 2, self.bins).sum(axis=2)
            return BankPass(f1, f2, zeros, zeros, h, power.sum(axis=1))
        center = (f1 + f2) * 0.5
        # |X|^2 per bin (re^2 + im^2) before the mean over (V, F)
        power = ad.vsum(ad.reshape(ad.square(spec), (b, v, 2, self.bins)), axis=2)
        mp = ad.reshape(ad.vmean(power, axis=(1, 2)), (1, -1))
        raw = mp * self.scale / ad.reshape(center, (-1, 1))
        sigma = ad.clamp(raw, self.sigma_min, self.sigma_max)
        half = ad.reshape((f2 - f1) * 0.5, (-1, 1, 1))
        d = Variable(self._freqs.reshape(1, 1, -1)) - ad.reshape(center, (-1, 1, 1))
        s = ad.reshape(sigma, (self.e_max, b, 1))
        lo = (d + half) / s
        hi = (d - half) / s
        h = ad.exp(ad.square(lo) * -0.5) - ad.exp(ad.square(hi) * -0.5)
        return BankPass(f1, f2, raw, sigma, h, power.value.sum(axis=1))
