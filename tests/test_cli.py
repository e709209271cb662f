import csv
import json
import os

import numpy as np
import pytest

from adamoge import data as datamod
from adamoge.cli import main
from adamoge.synthetic import constant_table, sinusoid_table


@pytest.fixture()
def synth_csv(tmp_path):
    table = sinusoid_table(700, variables=2, cycles_per_window=(3.0,), window=32,
                           snr_db=14.0, seed=0)
    path = str(tmp_path / "synth.csv")
    datamod.save_csv(table, path)
    return path


@pytest.fixture()
def base_cfg(tmp_path, synth_csv):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"data.path = {synth_csv}\n"
        "data.kind = ratio\n"
        "data.lookback = 32\n"
        "data.horizon = 8\n"
        "model.e_max = 3\n"
        "model.feature_dim = 8\n"
        "train.epochs = 2\n"
        "train.batch_size = 64\n"
        "train.seed = 1\n"
    )
    return str(path)


def run_train(tmp_path, base_cfg, *extra):
    out = str(tmp_path / "out")
    code = main(["train", "--config", base_cfg, "--out", out, *extra])
    return code, out


def nan_checkpoint(tmp_path, base_cfg):
    """A fresh model with one NaN in its output bias, saved with its run.cfg."""
    from adamoge import checkpoint as ckpt
    from adamoge import config as cfgmod
    from adamoge.cli import build_model

    cfg = cfgmod.parse_file(base_cfg)
    store, _ = build_model(cfg, 2)
    store["b0.ffn.b2"].value[0] = np.nan
    out = tmp_path / "nan"
    out.mkdir()
    ckpt.save(str(out / "checkpoint.bin"), store, cfgmod.fingerprint(cfg))
    (out / "run.cfg").write_text(cfgmod.render(cfg))
    return str(out / "checkpoint.bin")


# train arguments, and the key the error message must name
BAD_VALUES = [
    (["--override", "train.batch_size=0"], "train.batch_size"),
    (["--override", "train.epochs=0"], "train.epochs"),
    (["--override", "model.e_max=0"], "model.e_max"),
    (["--override", "model.depth=0"], "model.depth"),
    (["--override", "model.feature_dim=0"], "model.feature_dim"),
    (["--override", "model.fixed_k=9", "--override", "model.adaptive_k=false"],
     "model.fixed_k"),
    (["--override", "data.lookback=1"], "data.lookback"),
    (["--override", "data.horizon=0"], "data.horizon"),
    (["--override", "data.lookback=2048"], "data.lookback"),
    (["--override", "train.grid.depth=", "--grid"], "train.grid.depth"),
    (["--override", "model.adaptive_k=false", "--override", "model.fixed_k=3",
      "--override", "train.grid.e_max=2,3", "--grid"], "model.fixed_k"),
    (["--seed", "-1"], "train.seed"),
    (["--override", "train.base_lr=nan"], "train.base_lr"),
    (["--override", "model.sigma0=inf"], "model.sigma0"),
    (["--override", "data.path=a\0b.csv"], "data.path"),
]


class TestTrain:
    def test_smoke_writes_artifacts(self, tmp_path, base_cfg, capsys):
        code, out = run_train(tmp_path, base_cfg)
        assert code == 0
        for name in ("checkpoint.bin", "run.cfg", "report.json", "report.csv"):
            assert os.path.exists(os.path.join(out, name))
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert list(report) == ["dataset", "horizon", "mse", "mae", "params",
                                "seconds", "fingerprint"]
        assert report["dataset"] == "synth"
        assert np.isfinite(report["mse"])

    @pytest.mark.parametrize("grid", [[], ["--grid", "--override", "train.grid.e_max=2,3",
                                           "--override", "train.grid.depth=1",
                                           "--override", "train.grid.feature_dim=8"]])
    def test_nonfinite_test_metrics_exit_3_without_artifacts(self, tmp_path, base_cfg, capsys,
                                                             grid):
        # a finite but huge target in the last row (test split only) leaves
        # training untouched and overflows the test MSE
        table = sinusoid_table(700, variables=2, cycles_per_window=(3.0,), window=32,
                               snr_db=14.0, seed=0)
        table.values[-1, 0] = 1e300
        path = str(tmp_path / "huge.csv")
        datamod.save_csv(table, path)
        out = str(tmp_path / "out")
        code = main(["train", "--config", base_cfg, "--override", f"data.path={path}",
                     "--out", out, *grid])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite test metrics" in err and "Traceback" not in err
        assert not os.path.exists(out) or os.listdir(out) == []

    def test_missing_dataset_names_path(self, tmp_path, base_cfg, capsys):
        code = main(["train", "--config", base_cfg, "--override",
                     "data.path=/nope/missing.csv", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    def test_unknown_override_is_usage_error(self, tmp_path, base_cfg, capsys):
        code = main(["train", "--config", base_cfg, "--override", "model.bogus=1"])
        assert code == 1
        assert "model.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", BAD_VALUES, ids=[
        " ".join(a for a in args if a != "--override").replace("\0", "NUL")
        for args, _ in BAD_VALUES
    ])
    def test_bad_value_exits_1_naming_key(self, tmp_path, base_cfg, capsys, args, key):
        out = tmp_path / "out"
        code = main(["train", "--config", base_cfg, "--out", str(out), *args])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_config_exits_1_naming_file(self, tmp_path, base_cfg, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(open(base_cfg, "rb").read() + b"# caf\xe9 \xff\n")
        out = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not out.exists()

    def test_non_utf8_csv_exits_2_naming_file(self, tmp_path, base_cfg, synth_csv, capsys):
        blob = bytearray(open(synth_csv, "rb").read())
        blob[-3] = 0xFF  # inside the last numeric cell
        path = tmp_path / "bad.csv"
        path.write_bytes(bytes(blob))
        out = tmp_path / "out"
        code = main(["train", "--config", base_cfg, "--override", f"data.path={path}",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not out.exists()

    def test_seed_determinism_same_report_hash(self, tmp_path, base_cfg, capsys):
        def hash_of(out_dir):
            code, out = run_train(tmp_path, base_cfg, "--override", "train.seed=7",
                                  "--out", str(tmp_path / out_dir))
            assert code == 0
            text = capsys.readouterr().out
            return [l for l in text.splitlines() if l.startswith("report sha256:")][0]

        assert hash_of("o1") == hash_of("o2")


class TestEval:
    def test_eval_matches_training_report(self, tmp_path, base_cfg, capsys):
        code, out = run_train(tmp_path, base_cfg)
        train_report = json.loads(open(os.path.join(out, "report.json")).read())
        capsys.readouterr()
        code = main(["eval", os.path.join(out, "checkpoint.bin"),
                     "--out", str(tmp_path / "evalout")])
        assert code == 0
        eval_report = json.loads(capsys.readouterr().out)
        assert eval_report["mse"] == train_report["mse"]
        assert eval_report["mae"] == train_report["mae"]
        assert eval_report["fingerprint"] == train_report["fingerprint"]

    def test_wrong_horizon_fingerprint_error(self, tmp_path, base_cfg, capsys):
        code, out = run_train(tmp_path, base_cfg)
        code = main(["eval", os.path.join(out, "checkpoint.bin"),
                     "--override", "data.horizon=16", "--out", str(tmp_path / "e2")])
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_zero_model_mse_equals_target_variance(self, tmp_path, base_cfg, capsys):
        # zero all parameters: the forecast is identically zero, so test MSE
        # equals the mean square of the test targets, computed independently
        from adamoge import checkpoint as ckpt
        from adamoge import config as cfgmod
        from adamoge.cli import build_model, load_dataset

        code, out = run_train(tmp_path, base_cfg)
        cfg = cfgmod.parse_file(os.path.join(out, "run.cfg"))
        ds = load_dataset(cfg)
        store, model = build_model(cfg, 2)
        for p in store:
            p.value[...] = 0.0
        ckpt.save(os.path.join(out, "zero.bin"), store, cfgmod.fingerprint(cfg))
        capsys.readouterr()
        code = main(["eval", os.path.join(out, "zero.bin"), "--out", str(tmp_path / "e3")])
        assert code == 0
        got = json.loads(capsys.readouterr().out)["mse"]

        se, n = 0.0, 0
        for b in datamod.iter_windows(ds.values, ds.split.test, 32, 8, 64):
            se += float(np.sum(b.y * b.y))
            n += b.y.size
        assert abs(got - se / n) < 1e-6

    def test_truncated_checkpoint_is_usage_error(self, tmp_path, base_cfg, capsys):
        code, out = run_train(tmp_path, base_cfg)
        path = os.path.join(out, "checkpoint.bin")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-12])  # cut inside the last array
        capsys.readouterr()
        code = main(["eval", path, "--out", str(tmp_path / "e4")])
        assert code == 1
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err

    def test_nonfinite_metrics_exit_3_without_report(self, tmp_path, base_cfg, capsys):
        path = nan_checkpoint(tmp_path, base_cfg)
        code = main(["eval", path, "--out", str(tmp_path / "e5")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "e5" / "report.json"))


class TestPredict:
    def test_boundary_origins(self, tmp_path, base_cfg, capsys):
        code, out = run_train(tmp_path, base_cfg)
        ok = main(["predict", os.path.join(out, "checkpoint.bin"),
                   "--origin", "32", "--out", str(tmp_path / "p1")])
        assert ok == 0
        bad = main(["predict", os.path.join(out, "checkpoint.bin"),
                    "--origin", "31", "--out", str(tmp_path / "p2")])
        assert bad == 2

    def test_constant_series_predicts_near_constant(self, tmp_path, base_cfg, capsys):
        # constant input z-scores to zero; an untrained-but-zeroed model emits
        # zeros, which denormalize back to the constant
        from adamoge import checkpoint as ckpt
        from adamoge import config as cfgmod
        from adamoge.cli import build_model

        const_csv = str(tmp_path / "const.csv")
        datamod.save_csv(constant_table(300, 2, 42.5), const_csv)
        cfg = cfgmod.parse_file(base_cfg)
        cfg.data.path = const_csv
        store, model = build_model(cfg, 2)
        for p in store:
            p.value[...] = 0.0
        os.makedirs(str(tmp_path / "c"), exist_ok=True)
        ckpt_path = str(tmp_path / "c" / "checkpoint.bin")
        ckpt.save(ckpt_path, store, cfgmod.fingerprint(cfg))
        with open(str(tmp_path / "c" / "run.cfg"), "w") as fh:
            fh.write(cfgmod.render(cfg))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant columns floor the std
            code = main(["predict", ckpt_path, "--origin", "100",
                         "--out", str(tmp_path / "pc")])
        assert code == 0
        with open(str(tmp_path / "pc" / "forecast.csv")) as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:2] == ["row", "segment"]
        history = [r for r in body if r[1] == "history"]
        forecast = [r for r in body if r[1] == "forecast"]
        assert len(history) == 32 and len(forecast) == 8
        for r in forecast:
            for cell in r[2:]:
                assert abs(float(cell) - 42.5) < 1e-6

    def test_nonfinite_forecast_exit_3_without_file(self, tmp_path, base_cfg, capsys):
        path = nan_checkpoint(tmp_path, base_cfg)
        code = main(["predict", path, "--origin", "100", "--out", str(tmp_path / "pn")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "pn" / "forecast.csv"))

    def test_failed_rewrite_keeps_previous_forecast(self, tmp_path, base_cfg, capsys, monkeypatch):
        from adamoge import cli

        code, out = run_train(tmp_path, base_cfg)
        args = ["predict", os.path.join(out, "checkpoint.bin"), "--origin", "100",
                "--out", str(tmp_path / "p")]
        assert main(args) == 0
        path = tmp_path / "p" / "forecast.csv"
        before = path.read_bytes()

        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh):
                self.writer = real_writer(fh)
                self.rows = 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 5:
                    raise RuntimeError("disk full")
                self.writer.writerow(row)

        monkeypatch.setattr(cli.csv, "writer", FailingWriter)
        with pytest.raises(RuntimeError, match="disk full"):
            main(args[:3] + ["101"] + args[4:])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path / "p") == ["forecast.csv"]


class TestInspect:
    def test_dominant_bin_selected_for_pure_tone(self, tmp_path, capsys):
        # train briefly on a strong single tone; the inspected window's mu
        # must peak at the tone bin and a selected expert's passband must
        # cover it
        table = sinusoid_table(2200, variables=2, cycles_per_window=(6.0,), window=32,
                               snr_db=30.0, seed=3)
        tone_csv = str(tmp_path / "tone.csv")
        datamod.save_csv(table, tone_csv)
        cfg_path = tmp_path / "tone.cfg"
        cfg_path.write_text(
            f"data.path = {tone_csv}\n"
            "data.kind = ratio\ndata.lookback = 32\ndata.horizon = 8\n"
            "model.e_max = 4\nmodel.feature_dim = 8\n"
            "train.epochs = 4\ntrain.batch_size = 32\ntrain.seed = 0\n"
        )
        out = str(tmp_path / "tout")
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        assert main(["inspect-spectrum", os.path.join(out, "checkpoint.bin"),
                     "--origin", "40", "--out", str(tmp_path / "insp")]) == 0
        with open(str(tmp_path / "insp" / "mu.csv")) as fh:
            mu = {int(r["bin"]): float(r["mu"]) for r in csv.DictReader(fh)}
        assert max(mu, key=mu.get) == 6
        # selection flags agree between the filter and gate tables
        with open(str(tmp_path / "insp" / "filters.csv")) as fh:
            fsel = {r["expert"]: r["selected"] for r in csv.DictReader(fh)}
        with open(str(tmp_path / "insp" / "gate.csv")) as fh:
            gate = list(csv.DictReader(fh))
        gsel = {r["expert"]: r["selected"] for r in gate}
        assert fsel == gsel
        assert sum(int(v) for v in gsel.values()) == int(gate[0]["k"])

    def test_uniform_gate_reports_uniform_probabilities(self, tmp_path, base_cfg, capsys):
        from adamoge import checkpoint as ckpt
        from adamoge import config as cfgmod
        from adamoge.cli import build_model

        cfg = cfgmod.parse_file(base_cfg)
        store, model = build_model(cfg, 2)
        store["b0.gate.wg"].value[...] = 0.0
        store["b0.gate.bg"].value[...] = 0.0
        cdir = tmp_path / "u"
        os.makedirs(str(cdir), exist_ok=True)
        ckpt.save(str(cdir / "checkpoint.bin"), store, cfgmod.fingerprint(cfg))
        (cdir / "run.cfg").write_text(cfgmod.render(cfg))
        assert main(["inspect-spectrum", str(cdir / "checkpoint.bin"),
                     "--origin", "0", "--out", str(tmp_path / "iu")]) == 0
        with open(str(tmp_path / "iu" / "gate.csv")) as fh:
            rows = list(csv.DictReader(fh))
        probs = [float(r["probability"]) for r in rows]
        assert np.allclose(probs, 1 / 3, atol=1e-9)

    def test_all_zero_window_zero_features(self, tmp_path, base_cfg, capsys):
        from adamoge import checkpoint as ckpt
        from adamoge import config as cfgmod
        from adamoge.cli import build_model

        zero_csv = str(tmp_path / "zeros.csv")
        datamod.save_csv(constant_table(200, 2, 0.0), zero_csv)
        cfg = cfgmod.parse_file(base_cfg)
        cfg.data.path = zero_csv
        store, model = build_model(cfg, 2)
        cdir = tmp_path / "z"
        os.makedirs(str(cdir), exist_ok=True)
        ckpt.save(str(cdir / "checkpoint.bin"), store, cfgmod.fingerprint(cfg))
        (cdir / "run.cfg").write_text(cfgmod.render(cfg))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["inspect-spectrum", str(cdir / "checkpoint.bin"),
                         "--origin", "0", "--out", str(tmp_path / "iz")])
        assert code == 0
        with open(str(tmp_path / "iz" / "mu.csv")) as fh:
            mu_vals = [float(r["mu"]) for r in csv.DictReader(fh)]
        assert all(v == 0.0 for v in mu_vals)
        with open(str(tmp_path / "iz" / "gate.csv")) as fh:
            rows = list(csv.DictReader(fh))
        k = int(rows[0]["k"])
        k_hat = float(rows[0]["k_hat"])
        assert k == int(np.clip(np.rint(k_hat), 1, 3))


class TestGridCli:
    def test_small_grid_runs(self, tmp_path, base_cfg, capsys):
        out = str(tmp_path / "g")
        code = main(["train", "--config", base_cfg, "--grid", "--out", out,
                     "--override", "train.grid.e_max=2,3",
                     "--override", "train.grid.depth=1",
                     "--override", "train.grid.feature_dim=8",
                     "--override", "train.epochs=1"])
        assert code == 0
        with open(os.path.join(out, "grid_summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
