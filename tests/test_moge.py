import math

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import filterbank as fb
from adamoge import moge
from adamoge.autodiff import ParameterStore, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig

from oracles import naive_half_spectrum, naive_irfft, scalar_softmax


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
    cfg = model.cfg
    L, H, V, E = model.lookback, model.horizon, model.variables, cfg.e_max
    block = model.blocks[0]
    F = L // 2 + 1
    FO = H // 2 + 1
    fnyq = float(F - 1)
    B = x.shape[0]
    out = np.zeros((B, H, V))
    for b in range(B):
        X = [naive_half_spectrum(x[b, :, v].tolist()) for v in range(V)]
        mu = [sum(abs(X[v][f]) for v in range(V)) / V for f in range(F)]
        ev = [sum(abs(X[v][f]) for f in range(F)) / F for v in range(V)]
        chi = mu + ev
        # count head
        w1, b1 = store["b0.gate.w1"].value, store["b0.gate.b1"].value
        w2, b2 = store["b0.gate.w2"].value, store["b0.gate.b2"].value
        hid = [max(0.0, sum(w1[i, j] * chi[j] for j in range(len(chi))) + b1[i]) for i in range(w1.shape[0])]
        z = sum(w2[0, i] * hid[i] for i in range(len(hid))) + b2[0]
        k_hat = 1.0 + (E - 1) * (1.0 / (1.0 + math.exp(-z)))
        K = int(np.clip(np.rint(k_hat), 1, E))
        # gating probabilities and hard top-K
        wg, bg = store["b0.gate.wg"].value, store["b0.gate.bg"].value
        logits = [sum(wg[e, j] * chi[j] for j in range(len(chi))) + bg[e] for e in range(E)]
        p = scalar_softmax(logits)
        order = sorted(range(E), key=lambda e: (-p[e], e))
        sel = sorted(order[:K])
        denom = sum(p[e] for e in sel)
        weights = {e: p[e] / denom for e in sel}
        # filters
        mp = sum(abs(X[v][f]) ** 2 for v in range(V) for f in range(F)) / (V * F)
        a, bb = store["b0.bank.a"].value, store["b0.bank.b"].value
        mix = np.zeros((H, V))
        for e in sel:
            f1 = squash(a[e]) * fnyq
            f2 = f1 + (fnyq - f1) * squash(bb[e])
            center = (f1 + f2) / 2.0
            sigma = min(max(block.bank.sigma0 * block.bank.alpha * mp / center, block.bank.sigma_min), block.bank.sigma_max)
            h = [math.exp(-0.5 * ((f - center + (f2 - f1) / 2.0) / sigma) ** 2)
                 - math.exp(-0.5 * ((f - center - (f2 - f1) / 2.0) / sigma) ** 2)
                 for f in range(F)]
            wre = store["b0.experts.wre"].value[e]
            wim = store["b0.experts.wim"].value[e]
            bre = store["b0.experts.bre"].value[e]
            bim = store["b0.experts.bim"].value[e]
            for v in range(V):
                sub = [X[v][f] * h[f] for f in range(F)]
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

    def test_sigmoid_saturation_reaches_emax(self):
        store, model = build_model(e_max=5)
        store["b0.gate.b2"].value[...] = 50.0
        store["b0.gate.w1"].value[...] = 0.0
        store["b0.gate.w2"].value[...] = 0.0
        x = np.random.default_rng(1).standard_normal((2, 16, 2))
        diag = []
        model.forward(Variable(x), diag)
        assert np.all(diag[0].decision.k == 5)

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


class TestExpertForward:
    def test_zero_experts_zero_forecast(self):
        store, model = build_model()
        for leaf in ("wre", "wim", "bre", "bim"):
            store[f"b0.experts.{leaf}"].value[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        x = np.random.default_rng(5).standard_normal((2, 16, 2))
        assert np.all(model.predict(x) == 0.0)

    def test_identity_spectral_map_reproduces_window(self):
        # H = L, all-pass band, W = identity: expert output == input window
        store, model = build_model(lookback=16, horizon=16, e_max=1,
                                   filter_family="truncation", adaptive_k=False, fixed_k=1)
        f = 9
        store["b0.experts.wre"].value[...] = np.eye(f)[None]
        store["b0.experts.wim"].value[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        x = np.random.default_rng(6).standard_normal((2, 16, 2))
        got = model.predict(x)
        assert np.max(np.abs(got - x)) < 1e-9

    def test_small_case_matches_complex_matvec_oracle(self):
        from oracles import complex_matvec

        store, model = build_model(lookback=8, horizon=4, variables=1, e_max=1,
                                   filter_family="truncation", adaptive_k=False, fixed_k=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 8, 1))
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        spec = naive_half_spectrum(x[0, :, 0].tolist())
        w = store["b0.experts.wre"].value[0] + 1j * store["b0.experts.wim"].value[0]
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

    def test_uniform_full_selection_is_mean_of_experts(self):
        store, model = build_model(e_max=3, adaptive_k=False, fixed_k=3)
        store["b0.gate.wg"].value[...] = 0.0
        for leaf in ("w1", "w2", "b1", "b2"):
            store[f"b0.ffn.{leaf}"].value[...] = 0.0
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 16, 2))
        block = model.blocks[0]
        from adamoge.spectral import spectrum_of

        spec = spectrum_of(Variable(x))
        sre, sim, _ = block.bank.apply(spec)
        per_expert = block.experts_forward(sre, sim).value
        want = per_expert.mean(axis=1).transpose(0, 1, 2)
        got = model.predict(x)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_unselected_expert_is_bit_inert(self):
        store, model = build_model(e_max=3, seed=1)
        # force expert 2 to lose the gate for every sample
        store["b0.gate.wg"].value[...] = 0.0
        store["b0.gate.bg"].value[...] = np.array([2.0, 1.0, -5.0])
        store["b0.gate.w1"].value[...] = 0.0
        store["b0.gate.w2"].value[...] = 0.0
        store["b0.gate.b2"].value[...] = -3.0  # k_hat below 1.5 -> K = 1..2
        x = np.random.default_rng(10).standard_normal((3, 16, 2))
        diag = []
        base = model.forward(Variable(x), diag).value
        assert all(2 not in d for d in (diag[0].decision.indices(b) for b in range(3)))
        store["b0.experts.wre"].value[2] += 3.5
        store["b0.experts.bim"].value[2] -= 1.25
        again = model.predict(x)
        assert base.tobytes() == again.tobytes()

    def test_unselected_expert_gets_zero_gradient(self):
        store, model = build_model(e_max=3, seed=1)
        store["b0.gate.wg"].value[...] = 0.0
        store["b0.gate.bg"].value[...] = np.array([2.0, 1.0, -5.0])
        x = np.random.default_rng(11).standard_normal((2, 16, 2))
        store.zero_grads()
        with ad.Tape() as tape:
            out = model.forward(Variable(x))
            loss = ad.vmean(ad.square(out))
            tape.backward(loss)
        assert np.all(store["b0.experts.wre"].grad[2] == 0.0)
        assert np.all(store["b0.experts.wim"].grad[2] == 0.0)
        assert np.any(store["b0.experts.wre"].grad[0] != 0.0)

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


def separate_bank_evaluation(bank, spec):
    """(passbands, raw sigmas, sigmas, responses) from the bank's cutoffs and
    the numpy filter formulas, in the arithmetic order of the forward."""
    bands = bank.passbands()
    if bank.family == "truncation":
        zeros = np.zeros((spec.batch, bank.e_max))
        return bands, zeros, zeros, np.broadcast_to(bank._masks, (spec.batch,) + bank._masks.shape)
    re, im = spec.re.value, spec.im.value
    mp = (re * re + im * im).sum(axis=(1, 2)) * (1.0 / (re.shape[1] * re.shape[2]))
    center = (bands[:, 0] + bands[:, 1]) * 0.5
    raw = mp[:, None] * (bank.sigma0 * bank.alpha) / center[None, :]
    sigma = np.clip(raw, bank.sigma_min, bank.sigma_max)
    h = np.stack([fb.dog_response(bands[:, 0], bands[:, 1], sig, np.arange(float(bank.bins)))
                  for sig in sigma])
    if bank.mode == "abs-dog":
        h = np.abs(h)
    return bands, raw, sigma, h


class TestDiagnostics:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("with_diag", [False, True])
    @pytest.mark.parametrize("kw", [{}, {"filter_mode": "abs-dog"},
                                    {"filter_family": "truncation", "adaptive_k": False}])
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
            decision, k_hat, probs = block.gate_decision(summary.chi)
            assert np.array_equal(d.mu, summary.mu.value)
            assert np.array_equal(d.e, summary.e.value)
            assert np.array_equal(d.probabilities, probs.value)
            assert np.array_equal(d.decision.mask, decision.mask)
            assert np.array_equal(d.decision.weights.value, decision.weights.value)
            assert (d.k_hat is None) == (k_hat is None)
            if k_hat is not None:
                assert np.array_equal(d.k_hat, k_hat.value)


class TestParameterCount:
    def test_gate_parameter_arithmetic(self):
        # F+V = 56, hidden 16, e_max 7: count head 929 + gating net 399
        store, model = build_model(lookback=96, horizon=96, variables=7, e_max=7)
        gate = [p for p in store if p.name.startswith("b0.gate.")]
        khead = sum(p.value.size for p in gate if p.name.split(".")[-1] in ("w1", "b1", "w2", "b2"))
        router = sum(p.value.size for p in gate if p.name.split(".")[-1] in ("wg", "bg"))
        assert khead == 929
        assert router == 399
        assert khead + router == 1328

    def test_default_ett_config_under_budget(self):
        store, model = build_model(lookback=96, horizon=96, variables=7, e_max=7,
                                   depth=1, feature_dim=16)
        assert model.parameter_count() <= 300_000

    def test_count_tracks_trainable_flag(self):
        store, model = build_model()
        n = model.parameter_count()
        store.add("frozen", np.zeros(100), trainable=False)
        assert model.parameter_count() == n


class TestFullGradient:
    def test_full_model_grad_check(self):
        store, model = build_model(lookback=16, horizon=8, variables=2, e_max=3, seed=5)
        rng = np.random.default_rng(14)
        x = 0.6 * rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, 8, 2))
        margins = moge.decision_margins(model, x)
        assert margins["round"] >= 1e-3
        assert margins["topk"] >= 1e-3
        assert margins["sigma"] >= 1e-3

        def build(s):
            pred = model.forward(Variable(x))
            return ad.vmean(ad.square(pred - y))

        include = [p.name for p in store.trainable()
                   if p.name not in set(model.khead_parameter_names())]
        err = ad.grad_check(build, store, eps=1e-5, names=include)
        assert err < 1e-4

    def test_depth_two_grad_check(self):
        # fixed expert count: with straight-through rounding active, every
        # first-block parameter would feed the second block's count head and
        # carry a surrogate gradient that central differences cannot see, so
        # the residual-stack adjoints are verified on the fixed-K gate
        store, model = build_model(lookback=12, horizon=6, variables=2, e_max=2,
                                   depth=2, feature_dim=8, seed=11,
                                   adaptive_k=False, fixed_k=1)
        rng = np.random.default_rng(20)
        x = 0.5 * rng.standard_normal((2, 12, 2))
        margins = moge.decision_margins(model, x)
        assert margins["topk"] >= 1e-3

        def build(s):
            return ad.vmean(ad.square(model.forward(Variable(x))))

        err = ad.grad_check(build, store, eps=1e-5)
        assert err < 1e-4

    def test_straight_through_routes_gradient_to_count_head(self):
        store, model = build_model(lookback=16, horizon=8, variables=2, e_max=3, seed=5)
        x = 0.6 * np.random.default_rng(15).standard_normal((2, 16, 2))
        store.zero_grads()
        with ad.Tape() as tape:
            out = model.forward(Variable(x))
            loss = ad.vmean(ad.square(out))
            tape.backward(loss)
        assert np.any(store["b0.gate.w1"].grad != 0.0)

    def test_chi_scales_with_input(self):
        store, model = build_model()
        x = np.random.default_rng(16).standard_normal((2, 16, 2))
        from adamoge.spectral import spectrum_of, summarize

        chi1 = summarize(spectrum_of(Variable(x))).chi.value
        chi2 = summarize(spectrum_of(Variable(3.0 * x))).chi.value
        assert np.allclose(chi2, 3.0 * chi1, rtol=1e-12, atol=1e-12)
