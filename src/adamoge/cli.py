"""Command-line surface: train, eval, predict, inspect-spectrum.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import data as datamod
from .autodiff import NumericError, ParameterStore, Variable
from .config import ConfigError, RunConfig
from .data import DataError
from .moge import AdaMoGeModel, BlockDiagnostics
from .training import CSV_COLUMNS, EvalReport, grid_combinations, grid_search, report_on_test

CHECKPOINT_NAME = "checkpoint.bin"
CONFIG_NAME = "run.cfg"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="adamoge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="configuration file")
        p.add_argument(
            "--override", metavar="K=V", action="append", default=[],
            help="override a configuration key (repeatable)",
        )
        p.add_argument("--seed", type=int, metavar="N", help="shorthand for train.seed")
        p.add_argument("--out", metavar="DIR", help="output directory")

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p_train)
    p_train.add_argument("--grid", action="store_true", help="sweep the hyperparameter grid")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("checkpoint")
    common(p_eval)
    p_eval.add_argument("--allow-fingerprint-mismatch", action="store_true")

    p_pred = sub.add_parser("predict", help="forecast from a history window")
    p_pred.add_argument("checkpoint")
    common(p_pred)
    p_pred.add_argument("--csv", metavar="PATH", help="series to forecast (default: data.path)")
    p_pred.add_argument(
        "--origin", type=int, required=True,
        help="row where the forecast starts; needs lookback rows before it",
    )
    p_pred.add_argument("--allow-fingerprint-mismatch", action="store_true")

    p_insp = sub.add_parser(
        "inspect-spectrum", help="dump gate features, filters and routing for one window"
    )
    p_insp.add_argument("checkpoint")
    common(p_insp)
    p_insp.add_argument("--csv", metavar="PATH", help="series to inspect (default: data.path)")
    p_insp.add_argument(
        "--origin", type=int, default=0, help="first row of the inspected window"
    )
    p_insp.add_argument("--allow-fingerprint-mismatch", action="store_true")
    return parser


def resolve_config(args, default_path: str | None = None) -> RunConfig:
    cfg = RunConfig()
    path = args.config or default_path
    if path:
        cfg = cfgmod.parse_file(path, cfg)
    cfgmod.apply_overrides(cfg, args.override)
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.out is not None:
        cfg.output.dir = args.out
    return cfgmod.validate(cfg, grid=getattr(args, "grid", False))


def load_dataset(cfg: RunConfig) -> datamod.Dataset:
    if not cfg.data.path:
        raise DataError("data.path is not set")
    table = datamod.load_csv(cfg.data.path)
    kind = datamod.dataset_kind(cfg.data.path, cfg.data.kind)
    name = os.path.splitext(os.path.basename(cfg.data.path))[0]
    return datamod.prepare(table, kind, cfg.data.lookback, cfg.data.horizon, name)


def build_model(cfg: RunConfig, variables: int) -> tuple[ParameterStore, AdaMoGeModel]:
    store = ParameterStore()
    model = AdaMoGeModel(
        store, cfg.data.lookback, cfg.data.horizon, variables, cfg.model,
        seed=cfg.train.seed,
    )
    return store, model


def _make_out_dir(cfg: RunConfig) -> str:
    out_dir = cfg.output.dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir {out_dir!r} cannot be created: {exc}") from None
    return out_dir


def _write_report(out_dir: str, report: EvalReport) -> None:
    with ckpt.atomic_open(os.path.join(out_dir, "report.json")) as fh:
        fh.write(report.to_json() + "\n")
    with ckpt.atomic_open(os.path.join(out_dir, "report.csv")) as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n" + report.csv_row() + "\n")


def _require_finite(what: str, *values) -> None:
    """Refuse to write anything when a value bound for the output is non-finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericError(f"non-finite {what}; nothing written")


def cmd_train(args) -> int:
    """Sweep ``train.grid.*`` with ``--grid``, else the one combination that
    ``model.*`` names; save the winner, its config and its test report."""
    cfg = resolve_config(args)
    ds = load_dataset(cfg)
    if args.grid:
        combos = grid_combinations(cfg.train)
    else:
        combos = [{k: getattr(cfg.model, k) for k in ("e_max", "depth", "feature_dim")}]

    def combo_config(combo) -> RunConfig:
        return replace(cfg, model=replace(cfg.model, **combo))

    result = grid_search(
        ds, cfg.train, combos,
        lambda combo: build_model(combo_config(combo), ds.values.shape[1]),
        fingerprint_for=lambda combo: cfgmod.fingerprint(combo_config(combo)),
        log=print,
    )
    for e in result.entries:
        if e.diverged:
            print(f"warning: training diverged for {e.combo}; best finite parameters retained",
                  file=sys.stderr)
    report = result.winner_report
    _require_finite("test metrics", report.mse, report.mae)
    out_dir = _make_out_dir(cfg)
    if args.grid:
        with ckpt.atomic_open(os.path.join(out_dir, "grid_summary.csv")) as fh:
            writer = csv.writer(fh)
            writer.writerow(["e_max", "depth", "feature_dim", "val_mse", "params", "seconds",
                             "epochs"])
            for e in result.entries:
                writer.writerow([
                    e.combo["e_max"], e.combo["depth"], e.combo["feature_dim"],
                    e.val_mse if np.isfinite(e.val_mse) else "", e.params, e.seconds,
                    e.epochs_run,
                ])
        val = result.winner.val_mse
        print(f"grid: {len(result.entries)} runs, winner {result.winner.combo} "
              + (f"(val mse {val:.6f})" if np.isfinite(val) else "(no finite val mse)"))
    winner_cfg = combo_config(result.winner.combo)
    ckpt.save(os.path.join(out_dir, CHECKPOINT_NAME), result.winner_store, report.fingerprint)
    with ckpt.atomic_open(os.path.join(out_dir, CONFIG_NAME)) as fh:
        fh.write(cfgmod.render(winner_cfg))
    _write_report(out_dir, report)
    print(report.to_json())
    print(f"report sha256: {report.content_hash()}")
    print(f"checkpoint: {os.path.join(out_dir, CHECKPOINT_NAME)}")
    return 0


def _restore(args) -> tuple[RunConfig, datamod.Dataset, AdaMoGeModel, str]:
    sidecar = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), CONFIG_NAME)
    cfg = resolve_config(args, default_path=sidecar if os.path.exists(sidecar) else None)
    # fingerprinted as trained: --csv only names the series to run it on
    expected = cfgmod.fingerprint(cfg)
    if getattr(args, "csv", None):
        cfg.data.path = args.csv
    ds = load_dataset(cfg)
    store, model = build_model(cfg, ds.values.shape[1])
    fp = ckpt.load_into(
        args.checkpoint, store, expected,
        allow_mismatch=getattr(args, "allow_fingerprint_mismatch", False),
    )
    return cfg, ds, model, fp


def cmd_eval(args) -> int:
    cfg, ds, model, fp = _restore(args)
    report = report_on_test(model, ds, cfg.train.batch_size, fp)
    _require_finite("test metrics", report.mse, report.mae)
    out_dir = _make_out_dir(cfg)
    _write_report(out_dir, report)
    print(report.to_json())
    return 0


def cmd_predict(args) -> int:
    cfg, ds, model, _ = _restore(args)
    lookback, horizon = model.lookback, model.horizon
    if args.origin < lookback:
        raise DataError(
            f"origin {args.origin} has only {args.origin} history rows, needs {lookback}"
        )
    if args.origin > ds.values.shape[0]:
        raise DataError(f"origin {args.origin} beyond the {ds.values.shape[0]}-row series")
    window = ds.values[args.origin - lookback : args.origin]
    forecast = model.predict(window[None])[0]
    history_raw = datamod.denormalize(window, ds.stats)
    forecast_raw = datamod.denormalize(forecast, ds.stats)
    _require_finite("forecast", forecast_raw)
    out_dir = _make_out_dir(cfg)
    path = os.path.join(out_dir, "forecast.csv")
    with ckpt.atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "segment"] + ds.names)
        for i in range(lookback):
            writer.writerow([args.origin - lookback + i, "history"]
                            + [repr(float(v)) for v in history_raw[i]])
        for i in range(horizon):
            writer.writerow([args.origin + i, "forecast"]
                            + [repr(float(v)) for v in forecast_raw[i]])
    print(f"forecast: {path} ({horizon} rows x {len(ds.names)} variables)")
    return 0


def _write_inspection(out_dir: str, diag: list[BlockDiagnostics], names) -> None:
    with ckpt.atomic_open(os.path.join(out_dir, "mu.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "bin", "mu"])
        for bi, d in enumerate(diag):
            for f, v in enumerate(d.mu[0]):
                writer.writerow([bi, f, repr(float(v))])
    with ckpt.atomic_open(os.path.join(out_dir, "intensity.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "variable", "name", "intensity"])
        for bi, d in enumerate(diag):
            for v, val in enumerate(d.e[0]):
                writer.writerow([bi, v, names[v], repr(float(val))])
    with ckpt.atomic_open(os.path.join(out_dir, "filters.csv")) as fh:
        writer = csv.writer(fh)
        bins = diag[0].responses.shape[-1]
        writer.writerow(["block", "expert", "f1", "f2", "sigma", "selected"]
                        + [f"h{f}" for f in range(bins)])
        for bi, d in enumerate(diag):
            selected = set(d.decision.indices(0).tolist())
            for e in range(d.passbands.shape[0]):
                writer.writerow(
                    [bi, e, repr(float(d.passbands[e, 0])), repr(float(d.passbands[e, 1])),
                     repr(float(d.sigmas[0, e])), int(e in selected)]
                    + [repr(float(h)) for h in d.responses[0, e]]
                )
    with ckpt.atomic_open(os.path.join(out_dir, "gate.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "k", "expert", "share", "probability", "selected", "weight"])
        for bi, d in enumerate(diag):
            selected = set(d.decision.indices(0).tolist())
            for e in range(d.probabilities.shape[1]):
                writer.writerow([
                    bi, int(d.decision.k[0]), e, repr(float(d.shares[0, e])),
                    repr(float(d.probabilities[0, e])), int(e in selected),
                    repr(float(d.decision.weights.value[0, e])),
                ])


def cmd_inspect_spectrum(args) -> int:
    cfg, ds, model, _ = _restore(args)
    lookback = model.lookback
    if args.origin < 0 or args.origin + lookback > ds.values.shape[0]:
        raise DataError(
            f"window [{args.origin}, {args.origin + lookback}) outside the series"
        )
    window = ds.values[args.origin : args.origin + lookback]
    diag: list[BlockDiagnostics] = []
    model.forward(Variable(window[None]), diag)
    for d in diag:
        _require_finite("spectrum inspection", d.mu, d.e, d.passbands, d.sigmas, d.responses,
                        d.probabilities, d.decision.weights.value, d.shares)
    out_dir = _make_out_dir(cfg)
    _write_inspection(out_dir, diag, ds.names)
    for bi, d in enumerate(diag):
        sel = d.decision.indices(0).tolist()
        bands = ", ".join(
            f"e{e}:[{d.passbands[e, 0]:.2f},{d.passbands[e, 1]:.2f}]" for e in sel
        )
        print(f"block {bi}: K={int(d.decision.k[0])} selected={sel} passbands {bands}")
    print(f"inspection written to {out_dir}/(mu|intensity|filters|gate).csv")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "train": cmd_train,
            "eval": cmd_eval,
            "predict": cmd_predict,
            "inspect-spectrum": cmd_inspect_spectrum,
        }[args.command]
        return handler(args)
    except (ConfigError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
