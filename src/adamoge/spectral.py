"""Spectral summary features that drive the expert gate.

Windows arrive in the model's internal (B, V, L) layout: one time series
per (sample, variable) row.  Their half spectra are one (B, V, 2F)
Variable packed ``[re | im]`` along the bin axis, the engine's complex
format.  From it two magnitude summaries are formed: the per-bin mean over
variables (which frequencies the channels agree on) and the per-variable
mean over bins (which channels are active).  Their concatenation is the
gate's input feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Variable


def spectrum_of(x: Variable) -> Variable:
    """Half spectrum along time of a (B, V, L) window batch -> (B, V, 2F)
    packed ``[re | im]``."""
    return ad.rfft_op(x)


@dataclass
class SpectralSummary:
    mu: Variable  # (B, F) per-bin magnitude averaged over variables
    e: Variable  # (B, V) per-variable magnitude averaged over bins
    chi: Variable  # (B, F+V) the gate features [mu ; e]


def summarize(spec: Variable) -> SpectralSummary:
    mag = ad.magnitude(spec)
    mu = ad.vmean(mag, axis=1)
    e = ad.vmean(mag, axis=2)
    return SpectralSummary(mu=mu, e=e, chi=ad.concat([mu, e], axis=1))
