"""Adaptive mixture of band-limited experts.

Per input window the layer (a) summarises the spectrum into gate features,
(b) predicts how many experts to activate (a sigmoid-bounded count head with
straight-through rounding), (c) scores all experts with a softmax gating
network and keeps the top K with renormalised weights, (d) runs each kept
expert, a complex affine map shared across variables, on its band-passed
sub-spectrum, and (e) mixes the experts' output spectra with the gate
weights and inverts the mixture once per (sample, variable); the inverse
transform is linear, so this equals mixing the experts' time-domain
forecasts.  Experts outside the selection are hard-masked: the mix writes
literal zeros in their place, so their values never reach the output, and
they receive no gradient.

Depth > 1 stacks length-preserving blocks (band mixing plus a residual
pointwise feed-forward over the time axis); the final block maps the
lookback to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, ParameterStore, Variable
from .filterbank import FilterBank
from .fourier import half_bins
from .spectral import spectrum_of, summarize


@dataclass
class ModelConfig:
    """Architecture knobs (a subset of the run config's model section)."""

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

    def resolved_fixed_k(self) -> int:
        k = self.fixed_k if self.fixed_k > 0 else (self.e_max + 1) // 2
        if not 1 <= k <= self.e_max:
            raise ValueError(f"model.fixed_k {k} outside [1, model.e_max = {self.e_max}]")
        return k


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
    mask = np.zeros((b, e), dtype=bool)
    for row in range(b):
        mask[row, order[row, : kvec[row]]] = True
    kept = p * mask.astype(np.float64)
    weights = kept / ad.vsum(kept, axis=1, keepdims=True)
    return GateDecision(k=kvec, mask=mask, weights=weights)


def straight_through_scale(k_hat: Variable, k: np.ndarray) -> Variable:
    """Forward-exact 1.0 whose backward routes the mixture cotangent into the
    count head as if rounding were the identity."""
    kf = k.astype(np.float64)
    return (k_hat - ad.detached(k_hat) + kf) / kf


class AdaMoGeBlock:
    """One band-mixing block: filter bank + gate + experts + residual FFN."""

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
        self.e_max = cfg.e_max
        f_nyq = float(self.bins - 1)
        self.bank = FilterBank(
            store,
            f"{prefix}.bank",
            e_max=cfg.e_max,
            bins=self.bins,
            sigma0=cfg.sigma0 if cfg.sigma0 > 0 else None,
            alpha=cfg.alpha,
            sigma_min=cfg.sigma_min,
            sigma_max=cfg.sigma_max if cfg.sigma_max > 0 else None,
            mode=cfg.filter_mode,
            family=cfg.filter_family,
        )
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
            k_hat, k = predict_expert_count(chi, self.w1, self.b1, self.w2, self.b2, self.e_max)
        else:
            k_hat, k = None, np.full(p.value.shape[0], self.cfg.resolved_fixed_k(), np.int64)
        return select_topk(p, k), k_hat, p

    def experts_forward(self, sub_re: Variable, sub_im: Variable) -> Variable:
        """All experts on their sub-bands -> output half spectra, shape
        (B, E, V, 2 * out_bins), packed ``[re | im]``; not yet inverted."""
        return ad.complex_expert_map(sub_re, sub_im, self.ewre, self.ewim, self.ebre, self.ebim)

    def _ffn(self, y: Variable) -> Variable:
        b, t, v = y.value.shape
        flat = ad.reshape(ad.transpose(y, (0, 2, 1)), (b * v, t))
        h = ad.relu(ad.linear(flat, self.fw1, self.fb1))
        out = ad.linear(h, self.fw2, self.fb2)
        return y + ad.transpose(ad.reshape(out, (b, v, t)), (0, 2, 1))

    def forward(self, x: Variable, diag: list | None = None) -> Variable:
        spec = spectrum_of(x)
        summary = summarize(spec)
        decision, k_hat, probs = self.gate_decision(summary.chi)
        sub_re, sub_im, bp = self.bank.apply(spec)
        expert_spec = self.experts_forward(sub_re, sub_im)
        # the inverse transform is linear, so the gate mixes the spectra and
        # each (B, V) row is inverted once
        spec_mix = ad.masked_weighted_sum(expert_spec, decision.weights, decision.mask)
        gain = self.out_len / self.in_len
        if k_hat is not None:
            st = straight_through_scale(k_hat, decision.k)
            gain = ad.reshape(st * gain, (-1, 1, 1))
        yt = ad.irfft_op(spec_mix * gain, self.out_len)
        mixed = ad.transpose(yt, (0, 2, 1))
        if diag is not None:
            diag.append(
                BlockDiagnostics(
                    mu=summary.mu.value.copy(),
                    e=summary.e.value.copy(),
                    probabilities=probs.value.copy(),
                    decision=decision,
                    k_hat=None if k_hat is None else k_hat.value.copy(),
                    passbands=np.stack([bp.f1.value, bp.f2.value], axis=1),
                    sigmas=bp.sigma.value.copy(),
                    raw_sigmas=bp.raw_sigma.value.copy(),
                    responses=bp.h.value.copy(),
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
    """Stack of band-mixing blocks mapping (B, L, V) windows to (B, H, V)."""

    def __init__(
        self,
        store: ParameterStore,
        lookback: int,
        horizon: int,
        variables: int,
        cfg: ModelConfig,
        seed: int = 0,
    ):
        if cfg.depth < 1:
            raise ValueError("depth must be >= 1")
        self.store = store
        self.lookback = lookback
        self.horizon = horizon
        self.variables = variables
        self.cfg = cfg
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
        out = window
        for block in self.blocks:
            out = block.forward(out, diag)
        return out

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Inference on raw arrays (no tape)."""
        return self.forward(Variable(windows)).value

    def parameter_count(self) -> int:
        return self.store.count_trainable()

    def khead_parameter_names(self) -> list[str]:
        """Parameters whose only path to the loss crosses the count-rounding
        discontinuity (excluded from finite-difference checks)."""
        names = []
        for i in range(self.cfg.depth):
            for leaf in ("w1", "b1", "w2", "b2"):
                name = f"b{i}.gate.{leaf}"
                if name in self.store:
                    names.append(name)
        return names


def decision_margins(model: AdaMoGeModel, windows: np.ndarray) -> dict[str, float]:
    """Distances of a forward pass from the model's discrete decision
    boundaries; finite-difference harnesses require these to exceed the
    perturbation scale.

    Returns the minimum over blocks and samples of: ``round`` (gap between
    k_hat and the nearest rounding threshold), ``topk`` (gap between the
    lowest kept and highest dropped probability; inf when all experts are
    kept) and ``sigma`` (gap between the adaptive bandwidth and its clamp
    bounds; inf for the truncation family).
    """
    diag: list[BlockDiagnostics] = []
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
