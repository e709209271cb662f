"""Adaptive mixture of band-limited experts.

Per input window the layer (a) summarises the spectrum into gate features
and evaluates the filter bank, (b) activates the fewest experts whose
responses hold ``COVERAGE`` of the spectral energy (or ``fixed_k``), (c)
keeps the top K of a softmax gate with renormalised weights, and (d) mixes
the selected experts, each a complex affine map shared across variables on
its band-passed spectrum, and inverts the mix once per (sample, variable).
Band-pass, map, mix and inverse transform are all linear in the spectrum,
so the gate weights scale the bank's responses, the spectrum times those
coefficients meets the maps of every expert some sample selects in one
primitive, and the result equals mixing the experts' time-domain
forecasts.  That primitive (``autodiff.complex_expert_map``) mixes each
sample's maps first when the block has no more output than input bins, and
otherwise applies the stacked maps to stacked band-passed copies; the
masking below holds in both orders.  The block's output gain scales the
gate weights it passes in; ``GateDecision.weights`` stays unscaled.

Masking.  A (sample, expert) pair outside the selection forms no product:
its coefficients (gate weight times response) are exact zeros, so its
response and bias never reach the output, and it receives no gradient.
An expert that no sample of the batch selects is never read, so even
non-finite weights of it are inert.  An expert that some samples select
is read for the whole batch: its finite weights stay bit-inert for the
samples that do not select it (they multiply exact zeros), but a NaN or
inf weight reaches them as 0 * NaN.

Depth > 1 stacks length-preserving blocks (band mixing plus a residual
pointwise feed-forward over the time axis); the final block maps the
lookback to the horizon.

Blocks work per variable along time, in the (B, V, T) layout: one series
per (sample, variable) row.  The model transposes the public (B, L, V)
window once on entry and its (B, V, H) forecast once on exit.  The bank's
responses are expert-major, (E, B, F), and no sub-band tensor exists: the
expert map reads the (B, V, 2F) spectrum and the responses and writes the
mixed (B, V, 2O) spectrum.  Each block stores its experts in the layout
that map reads: ``experts.w`` (E, F, 2O), each complex (O, F) weight W as
[Re W^T | Im W^T], and ``experts.b`` (E, 1, 1, 2O), each bias as
[Re b | Im b].  The gate's outputs and ``BlockDiagnostics`` stay (B, E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Variable
from .filterbank import FILTERS, FilterBank
from .fourier import half_bins
from .spectral import spectrum_of, summarize

# the band-energy share that K experts must cover: on synthetic.regime_table
# 0.9 keeps 1 < K < E on every window at the test MSE of a fixed K = E
COVERAGE = 0.9


@dataclass
class ModelConfig:
    """Architecture knobs (a subset of the run config's model section).
    ``validate`` is the one place that checks them; the filter bank derives
    its bandwidth bounds from its bin count and takes no options."""

    e_max: int = 7
    depth: int = 1
    feature_dim: int = 16
    filter: str = "dog"  # dog | truncation
    fixed_k: int = 0  # 0 -> band-energy coverage picks K per window

    def validate(self, lookback: int) -> None:
        """Raise ValueError naming the first ``model.*`` key that no model
        over a ``lookback``-step window can use, or the lookback itself."""
        # one step has a single bin, f_nyq = 0: no band for a filter to pass
        if lookback < 2:
            raise ValueError(f"lookback must be >= 2 for a model, got {lookback}")
        for name in ("e_max", "depth", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        # more experts than bins leaves some bands without a bin
        bins = half_bins(lookback)
        if self.e_max > bins:
            raise ValueError(f"model.e_max {self.e_max} exceeds the {bins} frequency bins "
                             f"of a {lookback}-step window")
        if self.filter not in FILTERS:
            raise ValueError(f"model.filter must be one of {FILTERS}, got {self.filter!r}")
        if self.fixed_k not in range(self.e_max + 1):  # a fraction, inf and NaN fail too
            raise ValueError(f"model.fixed_k {self.fixed_k} is not an integer in [0, "
                             f"model.e_max = {self.e_max}] (0 = band-energy coverage picks K)")


@dataclass
class GateDecision:
    """Per-sample expert budget, selection and renormalised mixture weights."""

    k: np.ndarray  # (B,) int64
    mask: np.ndarray  # (B, E) bool
    weights: Variable  # (B, E), zero outside the mask, rows sum to 1

    def indices(self, b: int) -> np.ndarray:
        return np.flatnonzero(self.mask[b])


def coverage_count(power: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the expert count K (B,) and the band-energy shares (B, E)
    that set it, from the bank's (B, F) power P[f] = sum_v |X[v, f]|^2
    (``BankPass.power``) and its (E, B, F) responses h: E_e = sum_f
    h_e(f)^2 P[f], and K is the fewest experts whose shares E_e / sum E
    reach ``COVERAGE`` (top-p routing, Huang et al. 2024, over band energy).  Comparing
    energies gives a sample with none equal shares and K = ceil(COVERAGE *
    E) exactly.  Plain numpy on values: K records no tape node."""
    energy = np.einsum("ebf,ebf,bf->be", h, h, power)
    energy[energy.sum(axis=1) == 0.0] = 1.0
    covered = np.cumsum(-np.sort(-energy, axis=1), axis=1)
    total = covered[:, -1:]
    k = 1 + np.count_nonzero(covered < COVERAGE * total, axis=1)
    return k, energy / total


def select_topk(p: Variable, k: np.ndarray | int) -> GateDecision:
    """Keep the k largest probabilities per sample (ties to the lower index),
    renormalise them to sum 1, and zero out the rest."""
    b, e = p.value.shape
    kvec = np.full(b, k, dtype=np.int64) if np.isscalar(k) else np.asarray(k, dtype=np.int64)
    if kvec.shape != (b,):
        raise ValueError(f"k has shape {kvec.shape}, expected ({b},)")
    if np.any(kvec < 1) or np.any(kvec > e):
        raise ValueError(f"k out of range [1, {e}]: {kvec}")
    order = np.argsort(-p.value, axis=1, kind="stable")
    mask = np.empty((b, e), dtype=bool)
    np.put_along_axis(mask, order, np.arange(e) < kvec[:, None], axis=1)
    kept = p * mask.astype(np.float64)
    weights = kept / ad.vsum(kept, axis=1, keepdims=True)
    return GateDecision(k=kvec, mask=mask, weights=weights)


class AdaMoGeBlock:
    """One band-mixing block, (B, V, in_len) -> (B, V, out_len): filter bank
    + gate + experts + residual FFN.  ``cfg`` has passed
    ``ModelConfig.validate(in_len)``."""

    def __init__(
        self,
        store: ParameterStore,
        prefix: str,
        in_len: int,
        out_len: int,
        variables: int,
        cfg: ModelConfig,
        rng: np.random.Generator,
        residual: bool = False,
    ):
        self.in_len = in_len
        self.out_len = out_len
        self.residual = residual
        self.fixed_k = cfg.fixed_k
        self.bins = half_bins(in_len)
        self.out_bins = half_bins(out_len)
        self.bank = FilterBank(store, f"{prefix}.bank", self.bins, cfg.e_max, cfg.filter)
        feat = self.bins + variables
        hid = cfg.feature_dim

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        self.wg = store.add(f"{prefix}.gate.wg", uniform((cfg.e_max, feat), feat))
        self.bg = store.add(f"{prefix}.gate.bg", np.zeros(cfg.e_max))
        # complex expert maps, unit-magnitude entries scaled by 1/sqrt(F)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.e_max, self.out_bins, self.bins))
        scale = 1.0 / np.sqrt(self.bins)
        w = np.concatenate([scale * np.cos(phase), scale * np.sin(phase)], axis=1)
        self.ew = store.add(f"{prefix}.experts.w", w.transpose(0, 2, 1))
        self.eb = store.add(f"{prefix}.experts.b", np.zeros((cfg.e_max, 1, 1, 2 * self.out_bins)))
        self.fw1 = store.add(f"{prefix}.ffn.w1", uniform((hid, out_len), out_len))
        self.fb1 = store.add(f"{prefix}.ffn.b1", np.zeros(hid))
        self.fw2 = store.add(f"{prefix}.ffn.w2", uniform((out_len, hid), hid))
        self.fb2 = store.add(f"{prefix}.ffn.b2", np.zeros(out_len))

    def gate_decision(self, chi: Variable, power: np.ndarray,
                      h: Variable) -> tuple[GateDecision, np.ndarray, Variable]:
        """Top-K selection, ``coverage_count`` shares, softmax probabilities,
        from the gate features and the bank's (B, F) power and responses."""
        p = ad.softmax(ad.linear(chi, self.wg, self.bg), axis=1)
        k, shares = coverage_count(power, h.value)
        return select_topk(p, self.fixed_k or k), shares, p

    def experts_forward(self, spec: Variable, h: Variable, weights: Variable,
                        mask: np.ndarray) -> Variable:
        """The mix of the selected experts' output half spectra under the
        (B, E) ``weights`` and ``mask``, (B, V, 2 * out_bins), from the
        (B, V, 2 * bins) input spectrum, both packed ``[re | im]``, and the
        bank's expert-major (E, B, bins) responses; not yet inverted.  The
        band-pass, the maps and the weights run in one primitive on the
        spectrum; the biases, which do not depend on the input, are mixed
        per sample on their own."""
        mapped = ad.complex_expert_map(spec, h, weights, mask, self.ew)
        return mapped + ad.masked_weighted_sum(self.eb, weights, mask)

    def _ffn(self, y: Variable) -> Variable:
        b, v, t = y.value.shape
        flat = ad.reshape(y, (b * v, t))
        h = ad.relu(ad.linear(flat, self.fw1, self.fb1))
        out = ad.linear(h, self.fw2, self.fb2)
        return y + ad.reshape(out, (b, v, t))

    def forward(self, x: Variable, diag: list | None = None) -> Variable:
        spec = spectrum_of(x)
        summary = summarize(spec)
        bp = self.bank.apply(spec)
        decision, shares, probs = self.gate_decision(summary.chi, bp.power, bp.h)
        # the output gain out_len / in_len scales the (B, E) gate weights, not
        # the mixed spectrum; the inverse transform is linear, so the gate
        # mixes the spectra and each (B, V) row is inverted once
        weights = decision.weights * (self.out_len / self.in_len)
        spec_mix = self.experts_forward(spec, bp.h, weights, decision.mask)
        mixed = ad.irfft_op(spec_mix, self.out_len)
        if diag is not None:
            diag.append(
                BlockDiagnostics(
                    mu=summary.mu.value.copy(),
                    e=summary.e.value.copy(),
                    probabilities=probs.value.copy(),
                    decision=decision,
                    shares=shares,
                    passbands=np.stack([bp.f1.value, bp.f2.value], axis=1),
                    sigmas=bp.sigma.value.T.copy(),
                    raw_sigmas=bp.raw_sigma.value.T.copy(),
                    responses=bp.h.value.transpose(1, 0, 2).copy(),
                )
            )
        if self.residual:
            mixed = x + mixed
        return self._ffn(mixed)


@dataclass
class BlockDiagnostics:
    mu: np.ndarray
    e: np.ndarray
    probabilities: np.ndarray
    decision: GateDecision
    shares: np.ndarray  # (B, E) band-energy shares, see coverage_count
    passbands: np.ndarray
    sigmas: np.ndarray
    raw_sigmas: np.ndarray
    responses: np.ndarray


class AdaMoGeModel:
    """Stack of band-mixing blocks mapping (B, L, V) windows to (B, H, V).

    The blocks run in (B, V, T); ``forward`` transposes the window once
    before the first block and the last block's output once after it."""

    def __init__(
        self,
        store: ParameterStore,
        lookback: int,
        horizon: int,
        variables: int,
        cfg: ModelConfig,
        seed: int = 0,
    ):
        cfg.validate(lookback)
        self.store = store
        self.lookback = lookback
        self.horizon = horizon
        self.variables = variables
        rng = np.random.default_rng(np.random.SeedSequence([seed, lookback, horizon]))
        self.blocks = []
        for i in range(cfg.depth):
            final = i == cfg.depth - 1
            self.blocks.append(
                AdaMoGeBlock(
                    store,
                    f"b{i}",
                    lookback,
                    horizon if final else lookback,
                    variables,
                    cfg,
                    rng,
                    residual=not final,
                )
            )

    def forward(self, window: Variable, diag: list | None = None) -> Variable:
        b, l, v = window.value.shape
        if l != self.lookback or v != self.variables:
            raise ValueError(
                f"window is (B,{l},{v}), model expects (B,{self.lookback},{self.variables})"
            )
        out = ad.transpose(window, (0, 2, 1))
        for block in self.blocks:
            out = block.forward(out, diag)
        return ad.transpose(out, (0, 2, 1))

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference on raw arrays (no tape)."""
        return self.forward(Variable(windows)).value

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.store)
