"""Adaptive mixture of band-limited experts.

Per input window the layer (a) summarises the spectrum into gate features,
(b) predicts how many experts to activate (a sigmoid-bounded count head with
straight-through rounding), (c) scores all experts with a softmax gating
network and keeps the top K with renormalised weights, and (d) forms the
gate-weighted mix of the selected experts, each a complex affine map
shared across variables on its band-passed sub-spectrum, and inverts the
mixed spectrum once per (sample, variable).  Map, mix and inverse
transform are linear, so the weights scale the sub-bands before one GEMM
over the stacked maps of every expert some sample selects, and the result
equals mixing the experts' time-domain forecasts.

Masking.  A (sample, expert) pair outside the selection forms no product:
its sub-band and bias never reach the output, and it receives no
gradient.  An expert that no sample of the batch selects is never read,
so even non-finite weights of it are inert.  An expert that some samples
select is read for the whole batch: its finite weights stay bit-inert for
the samples that do not select it (they multiply exact zeros), but a NaN
or inf weight reaches them as 0 * NaN.

Depth > 1 stacks length-preserving blocks (band mixing plus a residual
pointwise feed-forward over the time axis); the final block maps the
lookback to the horizon.

Blocks work per variable along time, in the (B, V, T) layout: one series
per (sample, variable) row.  The model transposes the public (B, L, V)
window once on entry and its (B, V, H) forecast once on exit.  Per-expert
tensors are expert-major, from the bank's responses (E, B, F) to the
sub-bands (E, B, V, 2F); the expert map reads them sample-major and writes
the mixed (B, V, 2O) spectrum.  The gate's outputs and
``BlockDiagnostics`` stay (B, E).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, ParameterStore, Variable
from .filterbank import FILTER_FAMILIES, FILTER_MODES, FilterBank
from .fourier import half_bins
from .spectral import spectrum_of, summarize


@dataclass
class ModelConfig:
    """Architecture knobs (a subset of the run config's model section).
    ``validate`` is the one place that checks them and resolves the 0 = auto
    values; the model, its blocks and their filter banks read its copy."""

    e_max: int = 7
    depth: int = 1
    feature_dim: int = 16
    filter_mode: str = "dog"
    filter_family: str = "gaussian"
    adaptive_k: bool = True
    fixed_k: int = 0  # 0 -> (e_max + 1) // 2
    sigma0: float = 0.0  # 0 -> f_nyq / (2 e_max)
    alpha: float = 1.0
    sigma_min: float = 0.5
    sigma_max: float = 0.0  # 0 -> f_nyq / 2

    def validate(self, lookback: int) -> ModelConfig:
        """Raise ValueError naming the first ``model.*`` key that no model
        over a ``lookback``-step window can use; otherwise return a copy with
        the auto values filled in, where f_nyq = lookback // 2."""
        for name in ("e_max", "depth", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        for name, choices in (("mode", FILTER_MODES), ("family", FILTER_FAMILIES)):
            value = getattr(self, f"filter_{name}")
            if value not in choices:
                raise ValueError(f"model.filter.{name} must be one of {choices}, got {value!r}")
        # sigma must stay positive and alpha must let it adapt
        for name in ("sigma_min", "alpha"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValueError(f"model.{name} must be > 0, got {getattr(self, name)}")
        for name in ("sigma0", "sigma_max", "fixed_k"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"model.{name} must be >= 0 (0 = auto), got {getattr(self, name)}")
        f_nyq = float(lookback // 2)
        cfg = replace(
            self,
            sigma0=self.sigma0 or f_nyq / (2.0 * self.e_max),
            sigma_max=self.sigma_max or f_nyq / 2.0,
            fixed_k=self.fixed_k or (self.e_max + 1) // 2,
        )
        if cfg.sigma_max < cfg.sigma_min:
            raise ValueError(f"model.sigma_max {cfg.sigma_max} is below model.sigma_min "
                             f"{cfg.sigma_min} (sigma_max 0 means (lookback // 2) / 2)")
        if not cfg.adaptive_k and not 1 <= cfg.fixed_k <= cfg.e_max:
            raise ValueError(f"model.fixed_k {cfg.fixed_k} outside [1, model.e_max = {cfg.e_max}]")
        return cfg


@dataclass
class GateDecision:
    """Per-sample expert budget, selection and renormalised mixture weights."""

    k: np.ndarray  # (B,) int64
    mask: np.ndarray  # (B, E) bool
    weights: Variable  # (B, E), zero outside the mask, rows sum to 1

    def indices(self, b: int) -> np.ndarray:
        return np.flatnonzero(self.mask[b])


def predict_expert_count(
    chi: Variable, w1: Parameter, b1: Parameter, w2: Parameter, b2: Parameter, e_max: int
) -> tuple[Variable, np.ndarray]:
    """Real-valued budget k_hat in [1, e_max] and its rounded integer K."""
    hidden = ad.relu(ad.linear(chi, w1, b1))
    z = ad.reshape(ad.linear(hidden, w2, b2), (-1,))
    k_hat = ad.sigmoid(z) * float(e_max - 1) + 1.0
    k = np.clip(np.rint(k_hat.value), 1, e_max).astype(np.int64)
    return k_hat, k


def gate_probabilities(chi: Variable, wg: Parameter, bg: Parameter) -> Variable:
    """Softmax expert activation probabilities, shape (B, E)."""
    return ad.softmax(ad.linear(chi, wg, bg), axis=1)


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


def straight_through_scale(k_hat: Variable, k: np.ndarray) -> Variable:
    """Forward-exact 1.0 whose backward routes the mixture cotangent into the
    count head as if rounding were the identity."""
    kf = k.astype(np.float64)
    return (k_hat - ad.detached(k_hat) + kf) / kf


class AdaMoGeBlock:
    """One band-mixing block, (B, V, in_len) -> (B, V, out_len): filter bank
    + gate + experts + residual FFN.  ``cfg`` is the resolved config that
    ``ModelConfig.validate(in_len)`` returns."""

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
        self.cfg = cfg
        self.bins = half_bins(in_len)
        self.out_bins = half_bins(out_len)
        self.bank = FilterBank(store, f"{prefix}.bank", self.bins, cfg)
        feat = self.bins + variables
        hid = cfg.feature_dim

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        if cfg.adaptive_k:
            self.w1 = store.add(f"{prefix}.gate.w1", uniform((hid, feat), feat))
            self.b1 = store.add(f"{prefix}.gate.b1", np.zeros(hid))
            self.w2 = store.add(f"{prefix}.gate.w2", uniform((1, hid), hid))
            self.b2 = store.add(f"{prefix}.gate.b2", np.zeros(1))
        self.wg = store.add(f"{prefix}.gate.wg", uniform((cfg.e_max, feat), feat))
        self.bg = store.add(f"{prefix}.gate.bg", np.zeros(cfg.e_max))
        # complex expert maps: unit-magnitude rows scaled by 1/sqrt(F)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.e_max, self.out_bins, self.bins))
        scale = 1.0 / np.sqrt(self.bins)
        self.ewre = store.add(f"{prefix}.experts.wre", scale * np.cos(phase))
        self.ewim = store.add(f"{prefix}.experts.wim", scale * np.sin(phase))
        self.ebre = store.add(f"{prefix}.experts.bre", np.zeros((cfg.e_max, self.out_bins)))
        self.ebim = store.add(f"{prefix}.experts.bim", np.zeros((cfg.e_max, self.out_bins)))
        self.fw1 = store.add(f"{prefix}.ffn.w1", uniform((hid, out_len), out_len))
        self.fb1 = store.add(f"{prefix}.ffn.b1", np.zeros(hid))
        self.fw2 = store.add(f"{prefix}.ffn.w2", uniform((out_len, hid), hid))
        self.fb2 = store.add(f"{prefix}.ffn.b2", np.zeros(out_len))

    def gate_decision(self, chi: Variable) -> tuple[GateDecision, Variable | None, Variable]:
        p = gate_probabilities(chi, self.wg, self.bg)
        if self.cfg.adaptive_k:
            k_hat, k = predict_expert_count(chi, self.w1, self.b1, self.w2, self.b2, self.cfg.e_max)
        else:
            k_hat, k = None, np.full(p.value.shape[0], self.cfg.fixed_k, np.int64)
        return select_topk(p, k), k_hat, p

    def experts_forward(self, sub: Variable, decision: GateDecision) -> Variable:
        """The gate's mix of the selected experts' output half spectra,
        (B, V, 2 * out_bins), from the expert-major (E, B, V, 2 * bins)
        sub-bands, both packed ``[re | im]``; not yet inverted.  The maps run
        as one GEMM on the gate-weighted sub-bands; the biases, which do not
        depend on the input, are mixed per sample on their own."""
        w, mask = decision.weights, decision.mask
        mapped = ad.complex_expert_map(sub, w, mask, self.ewre, self.ewim)
        bias = ad.reshape(ad.concat([self.ebre, self.ebim], axis=1), (self.cfg.e_max, 1, 1, -1))
        return mapped + ad.masked_weighted_sum(bias, w, mask)

    def _ffn(self, y: Variable) -> Variable:
        b, v, t = y.value.shape
        flat = ad.reshape(y, (b * v, t))
        h = ad.relu(ad.linear(flat, self.fw1, self.fb1))
        out = ad.linear(h, self.fw2, self.fb2)
        return y + ad.reshape(out, (b, v, t))

    def forward(self, x: Variable, diag: list | None = None) -> Variable:
        spec = spectrum_of(x)
        summary = summarize(spec)
        decision, k_hat, probs = self.gate_decision(summary.chi)
        sub, bp = self.bank.apply(spec)
        # the inverse transform is linear, so the gate mixes the spectra and
        # each (B, V) row is inverted once
        spec_mix = self.experts_forward(sub, decision)
        gain = self.out_len / self.in_len
        if k_hat is not None:
            st = straight_through_scale(k_hat, decision.k)
            gain = ad.reshape(st * gain, (-1, 1, 1))
        mixed = ad.irfft_op(spec_mix * gain, self.out_len)
        if diag is not None:
            diag.append(
                BlockDiagnostics(
                    mu=summary.mu.value.copy(),
                    e=summary.e.value.copy(),
                    probabilities=probs.value.copy(),
                    decision=decision,
                    k_hat=None if k_hat is None else k_hat.value.copy(),
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
    k_hat: np.ndarray | None
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
        self.cfg = cfg = cfg.validate(lookback)
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
