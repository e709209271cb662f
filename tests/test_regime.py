"""Per-window adaptive K on ``synthetic.regime_table``: a series that
switches every 480 rows between one tone and five.  The default model is
trained briefly on one seed; on the test windows that lie wholly in one
regime, band-energy coverage must keep more experts for five tones than
for one.  The test also records the test MSE and the fractions of windows
with 1 < K < E and with K = 1 (``pytest -s`` prints them)."""

import numpy as np

from adamoge import data
from adamoge.autodiff import ParameterStore, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig
from adamoge.synthetic import regime_table
from adamoge.training import TrainConfig, fit

PERIOD, LOOKBACK = 480, 96


def test_coverage_keeps_more_experts_for_five_tones(record_property):
    ds = data.prepare(regime_table(period=PERIOD, window=LOOKBACK, seed=0), "ratio",
                      LOOKBACK, LOOKBACK, "regime")
    store = ParameterStore()
    model = AdaMoGeModel(store, LOOKBACK, LOOKBACK, 3, ModelConfig(), seed=0)
    result = fit(model, ds, TrainConfig(epochs=6, batch_size=32, patience=10, seed=0))
    ks, regimes = [], []
    for batch in data.iter_windows(ds.values, ds.split.test, LOOKBACK, LOOKBACK, 256):
        diag = []
        model.forward(Variable(batch.x), diag)
        ks.append(diag[0].decision.k)
        first, last = batch.origins // PERIOD, (batch.origins + LOOKBACK - 1) // PERIOD
        regimes.append(np.where(first == last, first % 2, -1))  # -1: spans a switch
    k, regime = np.concatenate(ks), np.concatenate(regimes)
    e = model.cfg.e_max
    record = {
        "test_mse": result.report.mse,
        "k_mean_one_tone": float(k[regime == 0].mean()),
        "k_mean_five_tones": float(k[regime == 1].mean()),
        "frac_k_inside": float(np.mean((k > 1) & (k < e))),
        "frac_k_one": float(np.mean(k == 1)),
    }
    for name, value in record.items():
        record_property(name, value)
    print("[REGIME] " + " ".join(f"{name} {value:.4f}" for name, value in record.items()))
    assert record["k_mean_five_tones"] > record["k_mean_one_tone"]


def test_regime_table_switches_between_one_and_five_tones():
    table = regime_table(seed=0)
    assert table.values.shape == (6000, 3)
    assert regime_table(seed=0).values.tobytes() == table.values.tobytes()
    assert regime_table(seed=1).values.tobytes() != table.values.tobytes()
    # a window inside each regime has its largest bins at its tones (5.3
    # cycles lies between bins 5 and 6); one tone of unit amplitude and five
    # of 1/sqrt(5) each carry the same variance, 0.5, plus the noise's 0.04
    for start, want in ((0, ({5}, {6})), (PERIOD, ({3, 9, 18, 26, 39},))):
        power = (np.abs(np.fft.rfft(table.values[start:start + LOOKBACK], axis=0)) ** 2).sum(axis=1)
        top = set(np.argsort(-power)[:len(want[0])].tolist())
        assert top in want
        assert abs(table.values[start:start + PERIOD].var() - 0.54) < 0.05
