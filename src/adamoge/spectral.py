"""Spectral summary features that drive the expert gate.

Windows arrive in the model's internal (B, V, L) layout: one time series
per (sample, variable) row.  From their half spectra two magnitude
summaries are formed: the per-bin mean over variables (which frequencies
the channels agree on) and the per-variable mean over bins (which channels
are active).  Their concatenation is the gate's input feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Variable


@dataclass
class SpectrumBatch:
    """Complex half spectra of a window batch, shape (B, V, F)."""

    re: Variable
    im: Variable

    @property
    def batch(self) -> int:
        return self.re.value.shape[0]

    @property
    def variables(self) -> int:
        return self.re.value.shape[1]

    @property
    def bins(self) -> int:
        return self.re.value.shape[2]


def spectrum_of(x: Variable) -> SpectrumBatch:
    """Half spectrum along time of a (B, V, L) window batch -> (B, V, F)."""
    re, im = ad.rfft_op(x)
    return SpectrumBatch(re, im)


@dataclass
class SpectralSummary:
    mu: Variable  # (B, F) per-bin magnitude averaged over variables
    e: Variable  # (B, V) per-variable magnitude averaged over bins
    chi: Variable  # (B, F+V) the gate features [mu ; e]


def summarize(spec: SpectrumBatch) -> SpectralSummary:
    mag = ad.magnitude(spec.re, spec.im)
    mu = ad.vmean(mag, axis=1)
    e = ad.vmean(mag, axis=2)
    return SpectralSummary(mu=mu, e=e, chi=ad.concat([mu, e], axis=1))
