import math
import warnings

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import filterbank as fb
from adamoge import fourier
from adamoge import moge, training
from adamoge.autodiff import ParameterStore, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig

from oracles import (
    decision_margins,
    dog_response,
    expert_parts,
    expert_spectra,
    naive_half_spectrum,
    naive_irfft,
    passbands,
    scalar_softmax,
)


def experts_of(store):
    """Writable complex-part views of block 0's stored experts."""
    return expert_parts(store["b0.experts.w"].value, store["b0.experts.b"].value)


def build_model(lookback=16, horizon=8, variables=2, seed=0, **cfg_kw):
    cfg = ModelConfig(**{"e_max": 3, "feature_dim": 16, **cfg_kw})
    store = ParameterStore()
    model = AdaMoGeModel(store, lookback, horizon, variables, cfg, seed=seed)
    return store, model


SQ_EPS = 1e-6


def squash(t):
    return 1.0 / (1.0 + math.exp(-t)) * (1.0 - 2.0 * SQ_EPS) + SQ_EPS


def reference_forward(store, model, x):
    """Straight-line scalar re-implementation of a depth-1 model."""
    block = model.blocks[0]
    L, H, V, E = model.lookback, model.horizon, model.variables, block.bank.e_max
    F = L // 2 + 1
    FO = H // 2 + 1
    fnyq = float(F - 1)
    B = x.shape[0]
    experts = experts_of(store)
    out = np.zeros((B, H, V))
    for b in range(B):
        X = [naive_half_spectrum(x[b, :, v].tolist()) for v in range(V)]
        mu = [sum(abs(X[v][f]) for v in range(V)) / V for f in range(F)]
        ev = [sum(abs(X[v][f]) for f in range(F)) / F for v in range(V)]
        chi = mu + ev
        # filters
        mp = sum(abs(X[v][f]) ** 2 for v in range(V) for f in range(F)) / (V * F)
        a, bb = store["b0.bank.a"].value, store["b0.bank.b"].value
        h = []
        for e in range(E):
            f1 = squash(a[e]) * fnyq
            f2 = f1 + (fnyq - f1) * squash(bb[e])
            center = (f1 + f2) / 2.0
            sigma = min(max(block.bank.scale * mp / center, block.bank.sigma_min), block.bank.sigma_max)
            h.append([math.exp(-0.5 * ((f - center + (f2 - f1) / 2.0) / sigma) ** 2)
                      - math.exp(-0.5 * ((f - center - (f2 - f1) / 2.0) / sigma) ** 2)
                      for f in range(F)])
        # band-energy coverage: the fewest experts holding COVERAGE of it
        energy = [sum(h[e][f] ** 2 * abs(X[v][f]) ** 2 for v in range(V) for f in range(F))
                  for e in range(E)]
        shares = sorted((en / sum(energy) for en in energy), reverse=True)
        K = next(k for k in range(1, E + 1) if sum(shares[:k]) >= moge.COVERAGE)
        # gating probabilities and hard top-K
        wg, bg = store["b0.gate.wg"].value, store["b0.gate.bg"].value
        logits = [sum(wg[e, j] * chi[j] for j in range(len(chi))) + bg[e] for e in range(E)]
        p = scalar_softmax(logits)
        order = sorted(range(E), key=lambda e: (-p[e], e))
        sel = sorted(order[:K])
        denom = sum(p[e] for e in sel)
        weights = {e: p[e] / denom for e in sel}
        mix = np.zeros((H, V))
        for e in sel:
            wre, wim, bre, bim = (part[e] for part in experts)
            for v in range(V):
                sub = [X[v][f] * h[e][f] for f in range(F)]
                Y = [
                    sum((wre[o, f] + 1j * wim[o, f]) * sub[f] for f in range(F))
                    + (bre[o] + 1j * bim[o])
                    for o in range(FO)
                ]
                yt = naive_irfft(Y, H)
                for t in range(H):
                    mix[t, v] += weights[e] * yt[t] * (H / L)
        # pointwise feed-forward with residual (final block: no input residual)
        fw1, fb1 = store["b0.ffn.w1"].value, store["b0.ffn.b1"].value
        fw2, fb2 = store["b0.ffn.w2"].value, store["b0.ffn.b2"].value
        for v in range(V):
            hidf = [max(0.0, sum(fw1[i, t] * mix[t, v] for t in range(H)) + fb1[i]) for i in range(fw1.shape[0])]
            for t in range(H):
                out[b, t, v] = mix[t, v] + sum(fw2[t, i] * hidf[i] for i in range(len(hidf))) + fb2[t]
    return out


class TestExpertCount:
    def test_emax_one_collapses(self):
        store, model = build_model(e_max=1)
        x = np.random.default_rng(0).standard_normal((3, 16, 2))
        diag = []
        model.forward(Variable(x), diag)
        assert np.all(diag[0].decision.k == 1)

    def test_zero_logit_gives_midpoint(self):
        # z = 0, e_max = 9 -> k_hat = 1 + 8*0.5 = 5
        z = Variable(np.zeros(4))
        k_hat = ad.sigmoid(z) * 8.0 + 1.0
        assert np.allclose(k_hat.value, 5.0)
        assert np.all(np.rint(k_hat.value) == 5)

    def test_count_monotone_in_logit(self):
        e_max = 7
        z = np.linspace(-20, 20, 400)
        k_hat = 1.0 + (e_max - 1) / (1.0 + np.exp(-z))
        k = np.clip(np.rint(k_hat), 1, e_max)
        assert np.all(np.diff(k) >= 0)
        assert k[0] == 1 and k[-1] == e_max


class TestGateProbabilities:
    def test_zero_parameters_give_uniform(self):
        store, model = build_model(e_max=4)
        store["b0.gate.wg"].value[...] = 0.0
        x = np.random.default_rng(2).standard_normal((2, 16, 2))
        diag = []
        model.forward(Variable(x), diag)
        assert np.allclose(diag[0].probabilities, 0.25, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 6))
        p1 = ad.softmax(Variable(logits), axis=1).value
        p2 = ad.softmax(Variable(logits + 7.5), axis=1).value
        assert np.allclose(p1, p2, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 5))
        p = ad.softmax(Variable(logits), axis=1).value
        for row in range(3):
            want = scalar_softmax(logits[row].tolist())
            assert np.max(np.abs(p[row] - want)) < 1e-12
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestSelectTopK:
    def test_renormalisation(self):
        p = Variable(np.array([[0.1, 0.6, 0.3]]))
        d = moge.select_topk(p, 2)
        assert list(d.indices(0)) == [1, 2]
        assert np.allclose(d.weights.value[0], [0.0, 2 / 3, 1 / 3])

    def test_full_selection_keeps_probabilities(self):
        p = Variable(np.array([[0.2, 0.5, 0.3]]))
        d = moge.select_topk(p, 3)
        assert np.allclose(d.weights.value[0], p.value[0])

    def test_tie_breaks_to_lower_index(self):
        p = Variable(np.array([[0.4, 0.4, 0.2]]))
        d = moge.select_topk(p, 1)
        assert list(d.indices(0)) == [0]

    def test_k_out_of_range_rejected(self):
        p = Variable(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError):
            moge.select_topk(p, 0)
        with pytest.raises(ValueError):
            moge.select_topk(p, 4)

    def test_per_sample_k(self):
        p = Variable(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
        d = moge.select_topk(p, np.array([1, 2]))
        assert list(d.indices(0)) == [0]
        assert list(d.indices(1)) == [1, 2]


def packed(re, im) -> np.ndarray:
    """A (B, V, 2F) spectrum packed [re | im] from (B, V, F) parts."""
    return np.concatenate([np.asarray(re, float), np.asarray(im, float)], axis=-1)


class TestCoverageCount:
    def test_shares_by_hand(self):
        # sample 0: P = [2, 2, 5]; h^2 = [1, 1/4, 0] and [0, 1, 1] give
        # E = [2 + 1/2, 2 + 5] = [2.5, 7], shares 2.5/9.5 and 7/9.5, and
        # 7/9.5 < 0.9 needs both experts.  Sample 1: P = [0, 0, 4] lies
        # wholly under expert 1, so one expert covers it
        power = np.array([[2.0, 2.0, 5.0], [0.0, 0.0, 4.0]])
        h = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 1.0]])[:, None].repeat(2, axis=1)
        k, shares = moge.coverage_count(power, h)
        assert k.tolist() == [2, 1]
        assert shares.shape == (2, 2)
        assert np.allclose(shares[0], [2.5 / 9.5, 7.0 / 9.5], rtol=0, atol=1e-15)
        assert shares[1].tolist() == [0.0, 1.0]

    def test_cumulative_share_exactly_at_tau(self):
        # one expert per bin: P = [1, 5, 4] gives shares [0.1, 0.5, 0.4], and
        # the two largest sum to exactly 0.9, which covers; [11, 50, 39] falls
        # one hundredth short and needs the third
        assert moge.COVERAGE == 0.9
        h = np.eye(3)[:, None]
        for power, want in (([1, 5, 4], 2), ([11, 50, 39], 3)):
            k, shares = moge.coverage_count(np.array([power], dtype=np.float64), h)
            assert k.tolist() == [want]
            assert np.allclose(shares[0], np.array(power) / sum(power), rtol=0, atol=1e-15)

    def test_truncation_band_energy_is_the_band_power(self):
        # hard 0/1 bands: E_e is the power of the bins in band e; integer
        # parts keep every sum exact
        store, model = build_model(lookback=16, horizon=8, variables=3, e_max=4,
                                   filter="truncation", fixed_k=1)
        bank = model.blocks[0].bank
        rng = np.random.default_rng(40)
        spec = packed(rng.integers(-9, 10, size=(5, 3, 9)), rng.integers(-9, 10, size=(5, 3, 9)))
        bp = bank.apply(Variable(spec))
        k, shares = moge.coverage_count(bp.power, bp.h.value)
        power = (spec ** 2).sum(axis=1)
        power = power[:, :9] + power[:, 9:]
        band = np.stack([power[:, m.astype(bool)].sum(axis=1) for m in bank._masks], axis=1)
        assert np.array_equal(shares, band / band.sum(axis=1, keepdims=True))
        for b in range(5):
            top = np.sort(band[b])[::-1]
            assert k[b] == 1 + np.count_nonzero(np.cumsum(top) < 0.9 * top.sum())

    @pytest.mark.parametrize("e_max", [1, 3, 7, 10])
    def test_zero_spectrum_gives_equal_shares(self, e_max):
        # no energy anywhere: equal shares, so K = ceil(tau * E), and no 0/0
        h = np.random.default_rng(41).standard_normal((e_max, 2, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k, shares = moge.coverage_count(np.zeros((2, 6)), h)
        assert k.tolist() == [math.ceil(moge.COVERAGE * e_max)] * 2
        assert np.all(shares == 1.0 / e_max)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_spectrum_keeps_k_in_range(self):
        # a NaN or inf power still yields a K that top-K selection accepts;
        # the forecast carries the non-finite value instead
        h = np.abs(np.random.default_rng(42).standard_normal((3, 2, 4)))
        power = np.ones((2, 4))
        power[0, 1], power[1, 2] = np.nan, np.inf
        k, shares = moge.coverage_count(power, h)
        assert np.all((k >= 1) & (k <= 3))
        assert not np.isfinite(shares).all()


class TestExpertForward:
    def test_zero_experts_zero_forecast(self):
        store, model = build_model()
        for part in experts_of(store):
            part[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        x = np.random.default_rng(5).standard_normal((2, 16, 2))
        assert np.all(model.predict(x) == 0.0)

    def test_identity_spectral_map_reproduces_window(self):
        # H = L, all-pass band, W = identity: expert output == input window
        store, model = build_model(lookback=16, horizon=16, e_max=1,
                                   filter="truncation", fixed_k=1)
        f = 9
        experts_of(store).wre[...] = np.eye(f)[None]
        experts_of(store).wim[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        x = np.random.default_rng(6).standard_normal((2, 16, 2))
        got = model.predict(x)
        assert np.max(np.abs(got - x)) < 1e-9

    def test_small_case_matches_complex_matvec_oracle(self):
        from oracles import complex_matvec

        store, model = build_model(lookback=8, horizon=4, variables=1, e_max=1,
                                   filter="truncation", fixed_k=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 8, 1))
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        spec = naive_half_spectrum(x[0, :, 0].tolist())
        w = experts_of(store).wre[0] + 1j * experts_of(store).wim[0]
        want_spec = complex_matvec(w.tolist(), spec)
        want = np.array(naive_irfft(want_spec, 4)) * (4 / 8)
        got = model.predict(x)[0, :, 0]
        assert np.max(np.abs(got - want)) < 1e-10


class TestForward:
    def test_matches_looped_reference(self):
        store, model = build_model(lookback=16, horizon=8, variables=2, e_max=3, seed=3)
        rng = np.random.default_rng(8)
        x = 0.7 * rng.standard_normal((2, 16, 2))
        got = model.predict(x)
        want = reference_forward(store, model, x)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("horizon", [9, 24])
    def test_matches_looped_reference_odd_and_long_horizon(self, horizon):
        # H = 9 has no Nyquist bin, H = 24 > L has more output than input
        # bins; the mixed spectrum's imaginary parts must land exactly where
        # each expert's own inverse transform would put them
        store, model = build_model(lookback=16, horizon=horizon, variables=2, e_max=3, seed=4)
        experts_of(store).bim[...] = np.random.default_rng(31).standard_normal(
            experts_of(store).bim.shape
        )
        x = 0.7 * np.random.default_rng(32).standard_normal((3, 16, 2))
        got = model.predict(x)
        want = reference_forward(store, model, x)
        assert got.shape == (3, horizon, 2)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("horizon", [8, 24])
    def test_matches_looped_reference_when_coverage_keeps_fewer(self, horizon):
        # white-noise windows spread their energy so that coverage keeps
        # every expert; a tone keeps one, and a tone with a second, weaker
        # one keeps two
        store, model = build_model(lookback=16, horizon=horizon, variables=2, e_max=3, seed=3)
        t = np.arange(16)
        tone = np.sin(2.0 * np.pi * 2.0 * t / 16.0)
        second = 0.3 * np.sin(2.0 * np.pi * 5.0 * t / 16.0)
        x = 0.7 * np.random.default_rng(34).standard_normal((3, 16, 2))
        x[0] = 0.1 * x[0] + tone[:, None]
        x[1] = 0.1 * x[1] + (tone + second)[:, None]
        diag = []
        got = model.forward(Variable(x), diag).value
        assert diag[0].decision.k.tolist() == [1, 2, 3]
        want = reference_forward(store, model, x)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_uniform_full_selection_is_mean_of_experts(self):
        store, model = build_model(e_max=3, fixed_k=3)
        store["b0.gate.wg"].value[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 16, 2))
        block = model.blocks[0]
        from adamoge.spectral import spectrum_of

        spec = spectrum_of(Variable(x.transpose(0, 2, 1)))
        h = block.bank.apply(spec).h
        spectra = expert_spectra(spec.value, h.value, store["b0.experts.w"].value,
                                 store["b0.experts.b"].value)
        o = block.out_bins
        per_expert = fourier.irfft(spectra[..., :o], spectra[..., o:], block.out_len) * (
            block.out_len / block.in_len
        )
        want = per_expert.mean(axis=0).transpose(0, 2, 1)
        got = model.predict(x)
        assert np.max(np.abs(got - want)) < 1e-9

    @staticmethod
    def starved_expert_model():
        """A model whose expert 2 loses the gate for every sample of x, and
        the forecast for x."""
        store, model = build_model(e_max=3, seed=1, fixed_k=2)
        store["b0.gate.wg"].value[...] = 0.0
        store["b0.gate.bg"].value[...] = np.array([2.0, 1.0, -5.0])
        x = np.random.default_rng(10).standard_normal((3, 16, 2))
        diag = []
        base = model.forward(Variable(x), diag).value
        assert all(2 not in d for d in (diag[0].decision.indices(b) for b in range(3)))
        return store, model, x, base

    def test_unselected_expert_is_bit_inert(self):
        store, model, x, base = self.starved_expert_model()
        experts_of(store).wre[2] += 3.5
        experts_of(store).bim[2] -= 1.25
        again = model.predict(x)
        assert base.tobytes() == again.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("planted", [np.nan, np.inf])
    def test_unselected_expert_nonfinite_weights_are_bit_inert(self, planted):
        store, model, x, base = self.starved_expert_model()
        experts_of(store).wre[2, 1] = planted
        again = model.predict(x)
        assert np.all(np.isfinite(again))
        assert base.tobytes() == again.tobytes()

    def test_partly_selected_expert_finite_change_is_bit_inert_for_other_samples(self):
        # the maps run as one GEMM over every expert that some sample selects,
        # so the samples that do not select expert 1 multiply its weights by
        # exact zeros: a finite change leaves their forecasts' bytes alone.
        # Coverage keeps all three experts of these white-noise windows, so
        # K is fixed at 2
        store, model = build_model(e_max=3, seed=2, fixed_k=2)
        x = np.random.default_rng(10).standard_normal((6, 16, 2))
        diag = []
        base = model.forward(Variable(x), diag).value
        picks = diag[0].decision.mask[:, 1]
        assert 0 < picks.sum() < len(picks)
        experts_of(store).wre[1] += 3.5
        experts_of(store).bim[1] -= 1.25
        again = model.predict(x)
        assert again[~picks].tobytes() == base[~picks].tobytes()
        assert np.all(again[picks] != base[picks])

    def test_unselected_expert_gets_zero_gradient(self):
        store, model = build_model(e_max=3, seed=1, fixed_k=2)
        store["b0.gate.wg"].value[...] = 0.0
        store["b0.gate.bg"].value[...] = np.array([2.0, 1.0, -5.0])
        x = np.random.default_rng(11).standard_normal((2, 16, 2))
        store.zero_grads()
        with ad.Tape() as tape:
            out = model.forward(Variable(x))
            loss = ad.vmean(ad.square(out))
            tape.backward(loss)
        grads = expert_parts(store["b0.experts.w"].grad, store["b0.experts.b"].grad)
        assert np.all(grads.wre[2] == 0.0)
        assert np.all(grads.wim[2] == 0.0)
        assert np.any(grads.wre[0] != 0.0)

    def test_weights_sum_to_one_with_exactly_k_nonzero(self):
        store, model = build_model(e_max=5, seed=2)
        x = np.random.default_rng(12).standard_normal((8, 16, 2))
        diag = []
        model.forward(Variable(x), diag)
        d = diag[0].decision
        w = d.weights.value
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal((w > 0).sum(axis=1), d.k)
        assert np.all((d.k >= 1) & (d.k <= 5))

    def test_depth_stacks_and_maps_horizon(self):
        store, model = build_model(lookback=16, horizon=8, depth=3)
        x = np.random.default_rng(13).standard_normal((2, 16, 2))
        out = model.predict(x)
        assert out.shape == (2, 8, 2)

    def test_wrong_window_shape_rejected(self):
        store, model = build_model()
        with pytest.raises(ValueError):
            model.predict(np.zeros((1, 12, 2)))

    @pytest.mark.parametrize("kw, key", [
        # one bin: no band for a filter to pass
        ({"lookback": 1}, "lookback"),
        ({"fixed_k": 8}, "model.fixed_k"),
        ({"e_max": 0}, "model.e_max"),
        ({"fixed_k": np.nan}, "model.fixed_k"),
        ({"fixed_k": np.inf}, "model.fixed_k"),
        # removed with no replacement
        ({"filter": "abs-dog"}, "model.filter"),
        ({"feature_dim": 0}, "model.feature_dim"),
        ({"depth": 0}, "model.depth"),
        ({"filter": "boxcar"}, "model.filter"),
        ({"filter": "gaussian"}, "model.filter"),
        ({"fixed_k": -3}, "model.fixed_k"),
        ({"fixed_k": 0.5}, "model.fixed_k"),
        # fixed_k is checked against the e_max given, not the default
        ({"e_max": 2, "fixed_k": 3}, "model.fixed_k"),
        # 2 bins at lookback 2
        ({"lookback": 2, "e_max": 3}, "model.e_max"),
        # filter names are case-sensitive
        ({"filter": "DOG"}, "model.filter"),
        # 9 bins at lookback 16
        ({"lookback": 16, "e_max": 10}, "model.e_max"),
    ])
    def test_bad_model_config_rejected_at_build(self, kw, key):
        with pytest.raises(ValueError, match=key):
            build_model(**{"lookback": 96, "horizon": 24, **kw})

    def test_one_expert_per_bin_builds(self):
        store, model = build_model(lookback=16, horizon=8, e_max=9)
        x = np.random.default_rng(14).standard_normal((2, 16, 2))
        assert np.all(np.isfinite(model.predict(x)))


def separate_bank_evaluation(bank, spec):
    """(passbands, raw sigmas, sigmas, responses) from the bank's cutoffs and
    the numpy filter formulas, in the arithmetic order of the forward."""
    bands = passbands(bank)
    batch = spec.value.shape[0]
    if bank.filter == "truncation":
        zeros = np.zeros((batch, bank.e_max))
        return bands, zeros, zeros, np.broadcast_to(bank._masks, (batch,) + bank._masks.shape)
    re, im = spec.value[..., :bank.bins], spec.value[..., bank.bins:]
    mp = (re * re + im * im).sum(axis=(1, 2)) * (1.0 / (re.shape[1] * re.shape[2]))
    center = (bands[:, 0] + bands[:, 1]) * 0.5
    raw = mp[:, None] * bank.scale / center[None, :]
    sigma = np.clip(raw, bank.sigma_min, bank.sigma_max)
    h = np.stack([dog_response(bands[:, 0], bands[:, 1], sig, np.arange(float(bank.bins)))
                  for sig in sigma])
    return bands, raw, sigma, h


class TestDiagnostics:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("with_diag", [False, True])
    @pytest.mark.parametrize("kw", [{}, {"fixed_k": 2}, {"filter": "truncation", "fixed_k": 2}])
    def test_one_cutoffs_call_per_block_and_fields_match(self, monkeypatch, depth, with_diag, kw):
        store, model = build_model(lookback=16, horizon=8, depth=depth, e_max=4, **kw)
        x = np.random.default_rng(30).standard_normal((3, 16, 2))
        calls, specs = [], []
        cutoffs, spectrum_of = fb.FilterBank.cutoffs, moge.spectrum_of

        def counted_cutoffs(bank):
            calls.append(bank)
            return cutoffs(bank)

        def recorded_spectrum_of(v):
            specs.append(spectrum_of(v))
            return specs[-1]

        monkeypatch.setattr(fb.FilterBank, "cutoffs", counted_cutoffs)
        monkeypatch.setattr(moge, "spectrum_of", recorded_spectrum_of)
        diag = [] if with_diag else None
        model.forward(Variable(x), diag)
        assert calls == [block.bank for block in model.blocks]
        if not with_diag:
            return
        assert len(diag) == depth
        for d, block, spec in zip(diag, model.blocks, specs):
            bands, raw, sigma, h = separate_bank_evaluation(block.bank, spec)
            assert np.array_equal(d.passbands, bands)
            assert np.array_equal(d.raw_sigmas, raw)
            assert np.array_equal(d.sigmas, sigma)
            assert np.array_equal(d.responses, h)
            summary = moge.summarize(spec)
            bp = block.bank.apply(spec)
            decision, shares, probs = block.gate_decision(summary.chi, bp.power, bp.h)
            assert np.array_equal(d.mu, summary.mu.value)
            assert np.array_equal(d.e, summary.e.value)
            assert np.array_equal(d.probabilities, probs.value)
            assert np.array_equal(d.decision.mask, decision.mask)
            assert np.array_equal(d.decision.weights.value, decision.weights.value)
            assert np.array_equal(d.decision.k, decision.k)
            assert np.array_equal(d.shares, shares)


class TestLayout:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_one_transpose_in_one_out_one_magnitude_per_block(self, monkeypatch, depth):
        # blocks work in (B, V, T): only the model's entry and exit transpose,
        # and each block's gate features share one |X|
        store, model = build_model(lookback=16, horizon=8, depth=depth)
        x = np.random.default_rng(31).standard_normal((3, 16, 2))
        calls = {"transpose": 0, "magnitude": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ad, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(ad, name, counted)
        with ad.Tape():
            out = model.forward(Variable(x))
        assert out.value.shape == (3, 8, 2)
        assert calls == {"transpose": 2, "magnitude": depth}

    @pytest.mark.parametrize("depth, nodes", [(1, 68), (3, 194)])
    def test_train_step_forms_no_sub_band_tensor(self, depth, nodes):
        # the band-pass runs inside the expert map's GEMM operand: no tape
        # node writes the expert-major (E, B, V, 2F) sub-bands, and each
        # block records 62 nodes (63 with the residual add)
        store, model = build_model(lookback=16, horizon=8, depth=depth)
        rng = np.random.default_rng(33)
        x, y = rng.standard_normal((5, 16, 2)), rng.standard_normal((5, 8, 2))
        with ad.Tape() as tape:
            loss = training.mse_loss(model.forward(Variable(x)), y)
            tape.backward(loss)
        sub_band = (model.blocks[0].bank.e_max, 5, 2, 2 * model.blocks[0].bins)
        assert sub_band == (3, 5, 2, 18)
        assert all(out.value.shape != sub_band for _, out, _ in tape._nodes)
        assert len(tape) == nodes


class TestParameterCount:
    def test_gate_parameter_arithmetic(self):
        # F+V = 56, e_max 7: the gating net's 7 * 56 + 7 = 399 are the whole
        # gate, since band-energy coverage sets K without parameters
        store, model = build_model(lookback=96, horizon=96, variables=7, e_max=7)
        gate = {p.name: p.value.size for p in store if p.name.startswith("b0.gate.")}
        assert gate == {"b0.gate.wg": 392, "b0.gate.bg": 7}
        assert sum(gate.values()) == 399
        assert model.parameter_count() == 37_897

    def test_default_ett_config_under_budget(self):
        store, model = build_model(lookback=96, horizon=96, variables=7, e_max=7,
                                   depth=1, feature_dim=16)
        assert model.parameter_count() <= 300_000


class TestFullGradient:
    def test_full_model_grad_check(self):
        assert self._full_model_grad_error(horizon=8) < 1e-4

    def test_full_model_grad_check_horizon_beyond_lookback(self):
        # H = 24 > L = 16 has more output than input bins, where the expert
        # map stacks the band-passed copies instead of mixing the maps first
        assert self._full_model_grad_error(horizon=24) < 1e-4

    @staticmethod
    def _full_model_grad_error(horizon):
        """grad_check error of a depth-1 L = 16 model over every parameter."""
        store, model = build_model(lookback=16, horizon=horizon, variables=2, e_max=3, seed=5)
        rng = np.random.default_rng(14)
        x = 0.6 * rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, horizon, 2))
        margins = decision_margins(model, x)
        assert margins["coverage"] >= 1e-3
        assert margins["topk"] >= 1e-3
        assert margins["sigma"] >= 1e-3

        def build(s):
            pred = model.forward(Variable(x))
            return ad.vmean(ad.square(pred - y))

        return ad.grad_check(build, store, eps=1e-5)

    def test_depth_two_grad_check(self):
        # the residual-stack adjoints at a fixed K = 1, where the one kept
        # gate weight is exactly 1
        store, model = build_model(lookback=12, horizon=6, variables=2, e_max=2,
                                   depth=2, feature_dim=8, seed=11,
                                   fixed_k=1)
        rng = np.random.default_rng(20)
        x = 0.5 * rng.standard_normal((2, 12, 2))
        margins = decision_margins(model, x)
        assert margins["topk"] >= 1e-3

        def build(s):
            return ad.vmean(ad.square(model.forward(Variable(x))))

        err = ad.grad_check(build, store, eps=1e-5)
        assert err < 1e-4

    def test_depth_two_grad_check_coverage_keeps_fewer_experts(self):
        # a two-cycle tone: coverage keeps 1 of 3 experts in the first block
        # and 2 in the second, which reads the first block's output; K has
        # no gradient path, so every parameter enters the check
        store, model = build_model(lookback=16, horizon=8, variables=2, e_max=3,
                                   depth=2, feature_dim=8, seed=5)
        rng = np.random.default_rng(21)
        tone = np.sin(2.0 * np.pi * 2.0 * np.arange(16) / 16.0)[None, :, None]
        x = tone + 0.1 * rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, 8, 2))
        diag = []
        model.forward(Variable(x), diag)
        assert [d.decision.k.tolist() for d in diag] == [[1, 1], [2, 2]]
        margins = decision_margins(model, x)
        assert margins["coverage"] >= 1e-3
        assert margins["topk"] >= 1e-3
        assert margins["sigma"] >= 1e-3

        def build(s):
            return ad.vmean(ad.square(model.forward(Variable(x)) - y))

        assert ad.grad_check(build, store, eps=1e-5) < 1e-4

    def test_chi_scales_with_input(self):
        store, model = build_model()
        x = np.random.default_rng(16).standard_normal((2, 16, 2))
        from adamoge.spectral import spectrum_of, summarize

        chi1 = summarize(spectrum_of(Variable(x.transpose(0, 2, 1)))).chi.value
        chi2 = summarize(spectrum_of(Variable(3.0 * x.transpose(0, 2, 1)))).chi.value
        assert np.allclose(chi2, 3.0 * chi1, rtol=1e-12, atol=1e-12)
