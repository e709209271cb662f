"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 6 and 7 need the public ETTh1.csv benchmark file; place
it at <repo>/data/ETTh1.csv or point ADAMOGE_DATA_DIR at its directory,
otherwise those two skip.
"""

import csv
import json
import os

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import data as datamod
from adamoge import filterbank as fb
from adamoge import fourier
from adamoge.autodiff import ParameterStore, Tape, Variable
from adamoge.cli import main
from adamoge.moge import AdaMoGeModel, ModelConfig
from adamoge.spectral import spectrum_of
from adamoge.synthetic import sinusoid_table
from adamoge.training import Adam, TrainConfig, fit

from oracles import (
    decision_margins,
    dog_response,
    expert_parts,
    naive_half_spectrum,
    naive_irfft,
)

DATA_DIR = os.environ.get(
    "ADAMOGE_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data")
)
ETTH1 = os.path.join(DATA_DIR, "ETTh1.csv")
needs_etth1 = pytest.mark.skipif(
    not os.path.exists(ETTH1),
    reason="ETTh1.csv not available (set ADAMOGE_DATA_DIR or add data/ETTh1.csv)",
)


def announce(num: int, text: str) -> None:
    print(f"[ACCEPTANCE] criterion {num}: PASS — {text}")


def test_criterion_1_fft_oracle_equivalence():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 8, 12, 16, 96, 97):
        x = rng.uniform(-1.0, 1.0, size=n)
        re, im = fourier.rfft(x)
        want = np.array(naive_half_spectrum(x.tolist()))
        scale = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs((re + 1j * im) - want)) / scale < 1e-10, f"rfft L={n}"

        spec = [complex(a, b) for a, b in zip(re, im)]
        back = fourier.irfft(re, im, n)
        want_t = np.array(naive_irfft(spec, n))
        tscale = max(np.max(np.abs(want_t)), 1.0)
        assert np.max(np.abs(back - want_t)) / tscale < 1e-10, f"irfft L={n}"

        # Parseval under the unnormalised-forward convention
        power = (re * re + im * im) * fourier.half_weights(n)
        lhs = float(np.sum(x * x))
        assert abs(lhs - power.sum() / n) <= 1e-9 * max(abs(lhs), 1.0), f"parseval L={n}"
    announce(1, "rfft/irfft match the naive DFT oracle (<1e-10) and Parseval holds (1e-9)")


def test_criterion_2_full_model_gradient_fidelity():
    cfg = ModelConfig(e_max=3, depth=1, feature_dim=16)
    store = ParameterStore()
    model = AdaMoGeModel(store, lookback=16, horizon=8, variables=2, cfg=cfg, seed=5)
    rng = np.random.default_rng(14)
    x = 0.6 * rng.standard_normal((2, 16, 2))
    y = rng.standard_normal((2, 8, 2))

    margins = decision_margins(model, x)
    assert margins["coverage"] >= 1e-3, f"band-energy coverage margin {margins['coverage']}"
    assert margins["topk"] >= 1e-3, f"top-K margin {margins['topk']}"

    def build(s):
        return ad.vmean(ad.square(model.forward(Variable(x)) - y))

    err = ad.grad_check(build, store, eps=1e-5)
    assert err < 1e-4, f"max relative gradient error {err}"
    announce(2, f"full-model gradient error {err:.2e} < 1e-4 at verified margins")


def test_criterion_3_gate_invariants():
    e_max = 5
    cfg = ModelConfig(e_max=e_max, feature_dim=16)
    store = ParameterStore()
    model = AdaMoGeModel(store, lookback=16, horizon=8, variables=2, cfg=cfg, seed=9)
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(10):
        x = rng.standard_normal((100, 16, 2)) * rng.uniform(0.2, 3.0)
        diag = []
        model.forward(Variable(x), diag)
        d = diag[0].decision
        w = d.weights.value
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)
        assert np.array_equal((w > 0).sum(axis=1), d.k)
        assert np.all((d.k >= 1) & (d.k <= e_max))
        checked += x.shape[0]
    assert checked == 1000

    # hard masking: unselected experts are bit-inert
    bit_checks = 0
    for i in range(200):
        x = rng.standard_normal((1, 16, 2))
        diag = []
        base = model.forward(Variable(x), diag).value
        unselected = [e for e in range(e_max) if e not in diag[0].decision.indices(0)]
        if not unselected:
            continue
        e = unselected[bit_checks % len(unselected)]
        experts = expert_parts(store["b0.experts.w"].value, store["b0.experts.b"].value)
        saved = experts.wre[e].copy()
        experts.wre[e] += rng.uniform(0.5, 2.0)
        experts.bim[e] -= 1.0
        again = model.predict(x)
        experts.wre[e] = saved
        experts.bim[e] += 1.0
        assert base.tobytes() == again.tobytes()
        bit_checks += 1
        if bit_checks >= 50:
            break
    assert bit_checks >= 50
    announce(3, "1000 gate decisions: weights sum to 1, exactly K active, masking bit-exact")


def test_criterion_4_filter_properties():
    rng = np.random.default_rng(4)
    far_bins_checked = 0
    for trial in range(100):
        e_max = int(rng.integers(2, 6))
        bins = int(rng.integers(17, 50))
        store = ParameterStore()
        # a bandwidth scale, alpha * f_nyq / (2 e_max), of 0.5 .. 3
        scale = float(rng.uniform(0.5, 3.0))
        cfg = ModelConfig(e_max=e_max, alpha=scale / ((bins - 1) / (2.0 * e_max)))
        bank = fb.FilterBank(store, "bank", bins, cfg.validate(2 * (bins - 1)))
        store["bank.a"].value[...] = rng.uniform(-4.0, 4.0, size=e_max)
        store["bank.b"].value[...] = rng.uniform(-4.0, 4.0, size=e_max)

        # 100 Adam steps on a random loss over the responses
        x = rng.standard_normal((2, (bins - 1) * 2, 2)) * rng.uniform(0.3, 1.5)
        target = rng.standard_normal((2, e_max, bins)).transpose(1, 0, 2)
        opt = Adam(store)
        for _ in range(100):
            store.zero_grads()
            with Tape() as tape:
                h = bank.apply(spectrum_of(Variable(x.transpose(0, 2, 1)))).h
                loss = ad.vmean(ad.square(h - target))
                tape.backward(loss)
            opt.step(1e-2)

        f1, f2 = bank.cutoffs()
        f1v, f2v = f1.value, f2.value
        assert np.all(f1v < f2v) and np.all(f1v > 0.0), "cutoff ordering broke"

        sigma = bank.apply(spectrum_of(Variable(x.transpose(0, 2, 1)))).sigma.value.T
        assert np.all(sigma >= bank.sigma_min) and np.all(sigma <= bank.sigma_max)

        mid = (f1v + f2v) / 2.0
        for e in range(e_max):
            h_mid = dog_response(f1v[e], f2v[e], sigma[0, e], np.array([mid[e]]))
            assert h_mid[0] == 0.0, "midpoint null is not exact"

        freqs = np.arange(bins, dtype=np.float64)
        for e in range(e_max):
            s = sigma[0, e]
            h = dog_response(f1v[e], f2v[e], s, freqs)
            far = (freqs >= f2v[e] + 6.0 * s) | (freqs <= f1v[e] - 6.0 * s)
            assert np.all(np.abs(h[far]) < 2e-8)
            far_bins_checked += int(far.sum())
    assert far_bins_checked > 100  # the far-field clause was exercised
    announce(4, "100 trained banks: ordering, exact midpoint null, 6-sigma decay, sigma bounds")


@pytest.fixture(scope="module")
def two_tone_run(tmp_path_factory):
    """Train the two-sinusoid benchmark once through the CLI."""
    root = tmp_path_factory.mktemp("twotone")
    table = sinusoid_table(6000, variables=2, cycles_per_window=(3.0, 17.0),
                           window=96, snr_db=10.0, seed=0)
    csv_path = str(root / "twotone.csv")
    datamod.save_csv(table, csv_path)
    cfg = root / "run.cfg"
    cfg.write_text(
        f"data.path = {csv_path}\n"
        "data.kind = ratio\n"
        "data.lookback = 96\n"
        "data.horizon = 96\n"
        "train.epochs = 30\n"
        "train.patience = 30\n"
        "train.seed = 0\n"
    )
    out = str(root / "out")
    code = main(["train", "--config", str(cfg), "--out", out])
    assert code == 0
    return root, csv_path, out


def test_criterion_5_synthetic_recovery(two_tone_run):
    root, csv_path, out = two_tone_run
    report = json.loads(open(os.path.join(out, "report.json")).read())

    # oracle: least-squares fit of the two known tones on each lookback,
    # extrapolated over the horizon, lands at the noise floor
    table = datamod.load_csv(csv_path)
    ds = datamod.prepare(table, "ratio", 96, 96, "twotone")
    t = np.arange(192, dtype=np.float64)
    cols = [np.ones(192)]
    for k in (3.0, 17.0):
        cols.append(np.sin(2 * np.pi * k * t / 96))
        cols.append(np.cos(2 * np.pi * k * t / 96))
    design = np.stack(cols, axis=1)
    a_fit, a_fut = design[:96], design[96:]
    se = n = 0
    for batch in datamod.iter_windows(ds.values, ds.split.test, 96, 96, 64):
        for i in range(batch.x.shape[0]):
            for v in range(2):
                coef, *_ = np.linalg.lstsq(a_fit, batch.x[i, :, v], rcond=None)
                pred = a_fut @ coef
                se += float(np.sum((pred - batch.y[i, :, v]) ** 2))
                n += 96
    oracle_mse = se / n
    noise_floor = (0.1 / 1.1)  # tone power 1.0, SNR 10 dB, z-scored
    assert abs(oracle_mse - noise_floor) < 0.02
    assert oracle_mse < 0.1

    assert report["mse"] < 0.1, f"test MSE {report['mse']} (oracle {oracle_mse:.4f})"

    # inspect-spectrum on a test window: selected passbands cover both bins
    insp = str(root / "insp")
    code = main(["inspect-spectrum", os.path.join(out, "checkpoint.bin"),
                 "--origin", str(ds.split.test[0] + 10), "--out", insp])
    assert code == 0
    with open(os.path.join(insp, "filters.csv")) as fh:
        rows = [r for r in csv.DictReader(fh) if r["block"] == "0"]
    selected = [(float(r["f1"]), float(r["f2"])) for r in rows if int(r["selected"])]
    for target_bin in (3.0, 17.0):
        assert any(lo <= target_bin <= hi for lo, hi in selected), (
            f"no selected passband covers bin {target_bin}: {selected}"
        )
    announce(5, f"two-tone MSE {report['mse']:.4f} < 0.1 "
                f"(oracle {oracle_mse:.4f}); selected passbands cover bins 3 and 17")


def _train_etth1(horizon: int, seed: int, overrides: dict) -> float:
    table = datamod.load_csv(ETTH1)
    ds = datamod.prepare(table, "etth", 96, horizon, "ETTh1")
    cfg = ModelConfig(**overrides)
    store = ParameterStore()
    model = AdaMoGeModel(store, 96, horizon, table.variables, cfg, seed=seed)
    tc = TrainConfig(seed=seed)
    return fit(model, ds, tc).report.mse


@needs_etth1
def test_criterion_6_ablation_direction():
    variants = {
        "full": {},
        "gaussian_only": {"fixed_k": 4},
        "truncation_fixed_k": {"fixed_k": 4, "filter": "truncation"},
    }
    means = {}
    for name, overrides in variants.items():
        scores = [_train_etth1(96, seed, overrides) for seed in (0, 1, 2)]
        means[name] = float(np.mean(scores))
        print(f"  ablation {name}: seeds {scores} mean {means[name]:.4f}")
    assert means["full"] <= means["gaussian_only"] <= means["truncation_fixed_k"]
    assert means["full"] <= 0.995 * means["truncation_fixed_k"]
    announce(6, f"ablation ordering holds: {means}")


@needs_etth1
def test_criterion_7_etth1_benchmark_bound():
    table = datamod.load_csv(ETTH1)
    ds = datamod.prepare(table, "etth", 96, 96, "ETTh1")
    cfg = ModelConfig()
    store = ParameterStore()
    model = AdaMoGeModel(store, 96, 96, table.variables, cfg, seed=0)
    result = fit(model, ds, TrainConfig(seed=0))
    assert result.report.mse <= 0.45, f"ETTh1-96 MSE {result.report.mse}"
    assert result.report.mae <= 0.46, f"ETTh1-96 MAE {result.report.mae}"
    announce(7, f"ETTh1-96 MSE {result.report.mse:.4f} <= 0.45, MAE {result.report.mae:.4f} <= 0.46")


def test_criterion_8_parameter_budget():
    for horizon in (96, 192, 336, 720):
        cfg = ModelConfig(e_max=7, depth=1, feature_dim=16)
        store = ParameterStore()
        model = AdaMoGeModel(store, 96, horizon, 7, cfg, seed=0)
        assert model.parameter_count() <= 300_000, (
            f"H={horizon}: {model.parameter_count()} parameters"
        )
    announce(8, "default config stays under 300k trainable scalars for every horizon")


def test_criterion_9_determinism(tmp_path):
    table = sinusoid_table(900, variables=2, cycles_per_window=(4.0,), window=32,
                           snr_db=12.0, seed=2)
    csv_path = str(tmp_path / "d.csv")
    datamod.save_csv(table, csv_path)
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        f"data.path = {csv_path}\n"
        "data.kind = ratio\ndata.lookback = 32\ndata.horizon = 8\n"
        "model.e_max = 3\nmodel.feature_dim = 8\n"
        "train.epochs = 3\ntrain.batch_size = 32\ntrain.seed = 11\n"
    )
    reports, checkpoints = [], []
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        assert main(["train", "--config", str(cfg), "--out", out]) == 0
        reports.append(json.loads(open(os.path.join(out, "report.json")).read()))
        checkpoints.append(open(os.path.join(out, "checkpoint.bin"), "rb").read())
    for key in ("dataset", "horizon", "mse", "mae", "params", "fingerprint"):
        assert reports[0][key] == reports[1][key], key
    assert checkpoints[0] == checkpoints[1]
    announce(9, "same seed twice: bit-identical report fields and checkpoint bytes")
