import gc
import math
import weakref

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge import data, training
from adamoge.autodiff import ParameterStore, Tape, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig
from adamoge.synthetic import sinusoid_table
from adamoge.training import Adam, TrainConfig, cosine_lr, fit, grid_combinations, grid_search


class TestMetrics:
    def test_identical_inputs_are_zero(self):
        x = np.random.default_rng(0).standard_normal((2, 4, 3))
        assert training.mse(x, x) == 0.0
        assert training.mae(x, x) == 0.0

    def test_constant_error(self):
        a = np.zeros((2, 5, 3))
        b = a + 2.0
        assert training.mse(a, b) == 4.0
        assert training.mae(a, b) == 2.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((2, 3, 2))
        se = ae = 0.0
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    d = a[i, j, k] - b[i, j, k]
                    se += d * d
                    ae += abs(d)
        assert abs(training.mse(a, b) - se / 12) < 1e-12
        assert abs(training.mae(a, b) - ae / 12) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            training.mse(np.zeros((2, 3)), np.zeros((3, 2)))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        store = ParameterStore()
        p = store.add("w", np.array([1.0, -2.0, 3.0]))
        before = p.value.tobytes()
        opt = Adam(store)
        opt.step(0.1)
        assert p.value.tobytes() == before
        assert opt.step_count == 1

    def test_single_step_hand_computed(self):
        store = ParameterStore()
        p = store.add("w", np.array([0.5]))
        p.grad[...] = 1.0
        Adam(store).step(0.1)
        # m_hat = v_hat = 1 after bias correction: update = 0.1/(1 + 1e-8)
        assert abs((0.5 - p.value[0]) - 0.1 / (1.0 + 1e-8)) < 1e-15

    def test_quadratic_convergence_matches_scalar_recursion(self):
        # independent scalar recursion as the oracle
        theta, m, v = 1.0, 0.0, 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        trace = []
        for t in range(1, 201):
            g = 2.0 * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            trace.append(theta)
        assert abs(theta) < 1e-2

        store = ParameterStore()
        p = store.add("theta", np.array([1.0]))
        opt = Adam(store)
        for t in range(200):
            store.zero_grads()
            with Tape() as tape:
                loss = ad.vsum(ad.square(p))
                tape.backward(loss)
            opt.step(lr)
            assert abs(p.value[0] - trace[t]) < 1e-12
        assert abs(p.value[0]) < 1e-2

    def test_nonfinite_gradient_names_parameter(self):
        store = ParameterStore()
        store.add("fine", np.ones(2))
        bad = store.add("broken", np.ones(2))
        bad.grad[0] = np.nan
        with pytest.raises(ad.NumericError, match="broken"):
            Adam(store).step(0.1)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_monotone_nonincreasing(self):
        lrs = [cosine_lr(s, 500, 1e-3, 1e-5) for s in range(501)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_step_range_enforced(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 100, 1e-3, 1e-5)


def tiny_dataset(rows=420, seed=0, window=32, bins=(3.0,)):
    table = sinusoid_table(rows, variables=2, cycles_per_window=bins, window=window,
                           snr_db=14.0, seed=seed)
    return data.prepare(table, "ratio", lookback=window, horizon=8, name="synth")


def tiny_model(ds, seed=0, **cfg_kw):
    cfg = ModelConfig(**{"e_max": 3, "feature_dim": 8, **cfg_kw})
    store = ParameterStore()
    model = AdaMoGeModel(store, lookback=32, horizon=8, variables=2, cfg=cfg, seed=seed)
    return store, model


class TestFit:
    def test_loss_decreases_on_fixed_batch(self):
        failures = 0
        for seed in range(5):
            ds = tiny_dataset(seed=seed)
            store, model = tiny_model(ds, seed=seed)
            batch = next(data.iter_windows(ds.values, ds.split.train, 32, 8, 16))
            opt = Adam(store)
            losses = []
            for step in range(50):
                store.zero_grads()
                with Tape() as tape:
                    loss = training.mse_loss(model.forward(Variable(batch.x)), batch.y)
                    tape.backward(loss)
                losses.append(float(loss.value.sum()))
                opt.step(1e-3)
            if not losses[-1] < losses[0]:
                failures += 1
        assert failures <= 1

    def test_patience_zero_stops_after_first_non_improvement(self):
        # pure noise: validation cannot keep improving, so patience=0 stops
        # at the first epoch whose validation MSE fails to beat the best
        rng = np.random.default_rng(1)
        table = data.SeriesTable(
            [f"2020-01-{d // 24 + 1:02d} {d % 24:02d}:00:00" for d in range(420)],
            rng.standard_normal((420, 2)),
            ["a", "b"],
        )
        ds = data.prepare(table, "ratio", lookback=32, horizon=8, name="noise")
        store, model = tiny_model(ds)
        tc = TrainConfig(epochs=40, batch_size=64, patience=0, seed=1)
        result = fit(model, ds, tc)
        non_improving = 0
        best = np.inf
        for _, _, val in result.history:
            if val < best:
                best = val
                non_improving = 0
            else:
                non_improving += 1
        assert non_improving == 1  # stopped exactly one epoch past the best
        assert result.epochs_run < 40

    def test_same_seed_bit_identical(self):
        ds = tiny_dataset()
        tc = TrainConfig(epochs=3, batch_size=64, seed=7)
        r1 = fit(tiny_model(ds, seed=7)[1], ds, tc)
        r2 = fit(tiny_model(ds, seed=7)[1], ds, tc)
        assert r1.report.mse == r2.report.mse
        assert r1.report.mae == r2.report.mae
        assert r1.best_val_mse == r2.best_val_mse
        assert r1.report.content_hash() == r2.report.content_hash()
        for name, arr in r1.best_state.items():
            assert arr.tobytes() == r2.best_state[name].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # training diverges on purpose
    def test_divergence_aborts_and_keeps_finite_state(self):
        # a catastrophic learning rate overflows the forward pass within a
        # couple of steps; fit must stop and restore the best finite state
        ds = tiny_dataset()
        store, model = tiny_model(ds)
        tc = TrainConfig(epochs=4, batch_size=64, base_lr=1e160, min_lr=1e159, seed=2)
        result = fit(model, ds, tc)
        assert result.diverged
        for p in store:
            assert np.all(np.isfinite(p.value))

    def test_model_selection_never_reads_test_rows(self, monkeypatch):
        ds = tiny_dataset()
        store, model = tiny_model(ds)
        touched = []
        orig = data.iter_windows

        def spy(values, row_range, *a, **kw):
            touched.append(tuple(row_range))
            return orig(values, row_range, *a, **kw)

        monkeypatch.setattr(training, "iter_windows", spy)
        fit(model, ds, TrainConfig(epochs=2, batch_size=64, seed=3))
        test_uses = [r for r in touched if r == ds.split.test]
        assert len(test_uses) == 1  # only the final report
        assert touched[-1] == ds.split.test


class TestSyntheticRecovery:
    def test_single_tone_learns_fast(self):
        # one strong tone: frequency-domain linear experts should fit well
        ds = tiny_dataset(rows=2400, seed=4)
        store, model = tiny_model(ds, seed=4)
        tc = TrainConfig(epochs=12, batch_size=32, patience=12, seed=4)
        result = fit(model, ds, tc)
        assert result.report.mse < 0.15  # noise floor ~0.04 at 14 dB


class TestGrid:
    def test_enumeration_order_and_size(self):
        tc = TrainConfig()
        combos = grid_combinations(tc)
        assert len(combos) == 6 * 4 * 3
        assert combos[0] == {"e_max": 5, "depth": 1, "feature_dim": 8}
        tc2 = TrainConfig(grid_e_max=(3,), grid_depth=(1,), grid_feature_dim=(8,))
        assert grid_combinations(tc2) == [{"e_max": 3, "depth": 1, "feature_dim": 8}]

    def test_single_point_grid_matches_fit(self):
        ds = tiny_dataset()
        tc = TrainConfig(epochs=2, batch_size=64, seed=5,
                         grid_e_max=(3,), grid_depth=(1,), grid_feature_dim=(8,))

        def build(combo):
            return tiny_model(ds, seed=5, e_max=combo["e_max"], depth=combo["depth"],
                              feature_dim=combo["feature_dim"])

        gr = grid_search(ds, tc, build)
        direct = fit(tiny_model(ds, seed=5)[1], ds, tc)
        assert gr.winner_report.mse == direct.report.mse
        assert gr.winner.val_mse == direct.best_val_mse

    def test_representation_gap_ranks_clean_config_first(self):
        # two tones in different spectral halves; hard truncation with a
        # single selectable expert can only ever see one of them (a linear
        # map cannot reconstruct the other tone's phase from a different
        # bin), while a single full-band expert sees both: e_max=1 must win.
        table = sinusoid_table(3000, variables=2, cycles_per_window=(2.0, 12.0),
                               window=32, snr_db=20.0, seed=6)
        ds = data.prepare(table, "ratio", lookback=32, horizon=8, name="gap")
        tc = TrainConfig(epochs=10, batch_size=32, patience=10, seed=6,
                         grid_e_max=(1, 2), grid_depth=(1,), grid_feature_dim=(8,))

        def build(combo):
            return tiny_model(
                ds, seed=6, e_max=combo["e_max"],
                filter_family="truncation", adaptive_k=False, fixed_k=1,
            )

        gr = grid_search(ds, tc, build)
        assert gr.winner.combo["e_max"] == 1
        assert gr.entries[0].val_mse < gr.entries[1].val_mse
        # only the winner carries test metrics
        assert np.isfinite(gr.winner_report.mse)

    def test_only_the_winning_model_outlives_the_sweep(self, monkeypatch):
        ds = tiny_dataset()
        tc = TrainConfig(epochs=1, batch_size=64, seed=8,
                         grid_e_max=(1, 2, 3), grid_depth=(1, 2), grid_feature_dim=(8,))
        refs, alive_at_build = [], []

        def build(combo):
            gc.collect()
            alive_at_build.append(sum(r() is not None for r in refs))
            store, model = tiny_model(ds, seed=8, e_max=combo["e_max"], depth=combo["depth"])
            refs.append(weakref.ref(model))
            return store, model

        evaluate = training.evaluate
        seen = []

        def spy(model, ds_, row_range, *a, **kw):
            if row_range == ds.split.test:  # the search is over: only the winner is tested
                gc.collect()
                seen.append([i for i, r in enumerate(refs) if r() is not None])
                seen.append([i for i, r in enumerate(refs) if r() is model])
            return evaluate(model, ds_, row_range, *a, **kw)

        monkeypatch.setattr(training, "evaluate", spy)
        gr = grid_search(ds, tc, build)
        winner = grid_combinations(tc).index(gr.winner.combo)
        assert seen == [[winner], [winner]]
        assert alive_at_build == [0, 1, 1, 1, 1, 1]  # the running best only


class TestReport:
    def test_json_keys_exact(self):
        import json

        report = training.EvalReport("synth", 8, 0.5, 0.4, 123, 1.5, "abc")
        keys = list(json.loads(report.to_json()).keys())
        assert keys == ["dataset", "horizon", "mse", "mae", "params", "seconds", "fingerprint"]

    def test_content_hash_ignores_seconds(self):
        a = training.EvalReport("d", 96, 0.1, 0.2, 10, 1.0, "f")
        b = training.EvalReport("d", 96, 0.1, 0.2, 10, 99.0, "f")
        c = training.EvalReport("d", 96, 0.10001, 0.2, 10, 1.0, "f")
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()
