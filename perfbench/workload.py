"""One benchmark workload in its own process.

Run by ``perfbench/run.py`` with the BLAS thread variables already set to 1
and ``src`` on the import path.  Three modes:

* ``inputs``: generate the run's inputs from the seed (a CSV shaped like
  ETT-hourly and a checkpoint of the workload's model) into a directory;
* ``setup``: time one cold set-up on those inputs and print it;
* ``measure``: set up, run the correctness gate, then run the workload's
  closed loop for the given number of seconds, and print one JSON record.

The program under test only ever sees the generated files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import adamoge
from adamoge import checkpoint, data, fourier, synthetic, training
from adamoge.autodiff import ParameterStore, Tape, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig

from tracing import END, INFO, NAME, START, STEP, Tracer, inside, self_times

LOOKBACK = 96
FINGERPRINT = "perfbench"
CSV_NAME = "etth_like.csv"
CHECKPOINT_NAME = "checkpoint.bin"
TRAIN_BATCH = 32
EVAL_BATCH = 64
BASE_LR, MIN_LR = 1e-3, 1e-5
ORACLE_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int
    depth: int
    train: bool
    episode_steps: int = 0  # training steps replayed from the same start


WORKLOADS = {
    "train-h96": Workload("train-h96", horizon=96, depth=1, train=True, episode_steps=32),
    "train-h720": Workload("train-h720", horizon=720, depth=1, train=True, episode_steps=8),
    "serve-d3": Workload("serve-d3", horizon=96, depth=3, train=False),
}


def _sub_seed(seed: int, purpose: int) -> int:
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0])


# --- inputs -------------------------------------------------------------------


def make_inputs(w: Workload, seed: int, out_dir: str) -> None:
    table = synthetic.load_like_table(seed=seed)
    data.save_csv(table, os.path.join(out_dir, CSV_NAME))
    # the served/resumed parameters come from another init than the set-up
    # build (seed 0), so loading the checkpoint really changes the model
    store = ParameterStore()
    AdaMoGeModel(store, LOOKBACK, w.horizon, table.variables, ModelConfig(depth=w.depth),
                 seed=seed + 1)
    checkpoint.save(os.path.join(out_dir, CHECKPOINT_NAME), store, FINGERPRINT)


# --- set-up -------------------------------------------------------------------


@dataclass
class Session:
    """Everything a workload's timed loop needs, built by :func:`set_up`."""

    ds: data.Dataset
    store: ParameterStore
    model: AdaMoGeModel
    initial: dict[str, np.ndarray]
    shuffle_seed: int
    setup_s: float


def _train_step(model, optimizer, batches, lr, tracer=None):
    """One closed-loop training step; returns (loss, tape nodes, windows)."""
    batch = next(batches) if tracer is None else tracer.call("data.iter_windows", next, batches)
    with Tape() as tape:
        loss = training.mse_loss(model.forward(Variable(batch.x)), batch.y)
        tape.backward(loss)
    optimizer.step(lr)
    return float(loss.value.sum()), len(tape), batch.x.shape[0]


def _window(ds: data.Dataset, origin: int) -> np.ndarray:
    return ds.values[origin : origin + LOOKBACK][None]


def set_up(w: Workload, seed: int, in_dir: str) -> Session:
    """Load, prepare, build, restore the checkpoint and make the first call."""
    t0 = time.perf_counter()
    table = data.load_csv(os.path.join(in_dir, CSV_NAME))
    ds = data.prepare(table, "etth", LOOKBACK, w.horizon, "etth_like")
    store = ParameterStore()
    model = AdaMoGeModel(store, LOOKBACK, w.horizon, table.variables,
                         ModelConfig(depth=w.depth), seed=0)
    checkpoint.load_into(os.path.join(in_dir, CHECKPOINT_NAME), store, FINGERPRINT)
    initial = store.state_dict()
    shuffle_seed = _sub_seed(seed, 1)
    if w.train:
        batches = data.iter_windows(ds.values, ds.split.train, LOOKBACK, w.horizon,
                                    TRAIN_BATCH, shuffle_seed=shuffle_seed)
        _train_step(model, training.Adam(store), batches, BASE_LR)
    else:
        model.predict(_window(ds, ds.split.test[0]))
    return Session(ds, store, model, initial, shuffle_seed, time.perf_counter() - t0)


# --- correctness gate ---------------------------------------------------------


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def correctness_gate(w: Workload, s: Session, seed: int, tally: Tally) -> None:
    rng = np.random.default_rng(_sub_seed(seed, 2))
    for n in (96, 720):
        x = rng.standard_normal((8, n))
        ref = np.fft.rfft(x, axis=-1)
        re, im = fourier.rfft(x)
        err = max(np.max(np.abs(re - ref.real)), np.max(np.abs(im - ref.imag)))
        tally.check(err <= ORACLE_TOL, f"fourier.rfft n={n} differs from numpy.fft by {err:.3g}")
        back = fourier.irfft(ref.real, ref.imag, n)
        err = np.max(np.abs(back - np.fft.irfft(ref, n, axis=-1)))
        tally.check(err <= ORACLE_TOL, f"fourier.irfft n={n} differs from numpy.fft by {err:.3g}")

    split = s.ds.split.train if w.train else s.ds.split.test
    size = TRAIN_BATCH if w.train else EVAL_BATCH
    batch = next(data.iter_windows(s.ds.values, split, LOOKBACK, w.horizon, size))
    diag: list = []
    pred = s.model.forward(Variable(batch.x), diag).value
    tally.check(bool(np.all(np.isfinite(pred))), "non-finite prediction on the gate batch")
    for i, d in enumerate(diag):
        dec = d.decision
        weights = dec.weights.value
        e = dec.mask.shape[1]
        ok = (
            bool(np.all((dec.k >= 1) & (dec.k <= e)))
            and bool(np.array_equal(dec.mask.sum(axis=1), dec.k))
            and float(np.max(np.abs(weights.sum(axis=1) - 1.0))) <= WEIGHT_SUM_TOL
            and bool(np.all(weights[~dec.mask] == 0.0))
        )
        tally.check(ok, f"gate invariants broken in block {i}")
    if not w.train:
        single = s.model.predict(batch.x[:1])[0]
        err = float(np.max(np.abs(single - pred[0])))
        tally.check(err <= 1e-9 * max(1.0, float(np.max(np.abs(pred[0])))),
                    f"single-window predict differs from its batch row by {err:.3g}")


# --- timed loops ----------------------------------------------------------------


@dataclass
class Timings:
    """Per-operation wall times (seconds), untraced and traced apart."""

    plain: list[float]
    traced: list[float]


def _run_op(tally: Tally, what: str, fn, tracer: Tracer | None = None, step: str = ""):
    """Run and time one operation, traced when a tracer is given.

    Returns (result, seconds); an exception counts as a failed operation
    and gives a None result."""
    if tracer is not None:
        tracer.step = step
        with tracer.installed():
            t0 = time.perf_counter()
            with tracer.span("op"):
                out = _run_op(tally, what, fn)[0]
            seconds = time.perf_counter() - t0
        tracer.step = None
        return out, seconds
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:  # the loop goes on and reports the failure
        traceback.print_exc()
        tally.check(False, f"{what} raised")
        out = None
    return out, time.perf_counter() - t0


def run_training(w: Workload, s: Session, seconds: float, tally: Tally,
                 tracer: Tracer | None) -> dict:
    """Episodes of ``w.episode_steps`` steps from the checkpoint's state until
    ``seconds`` have passed; in a traced run every other step is traced."""
    timings = Timings([], [])
    windows = 0
    first_losses: list[float] | None = None
    tape_nodes: list[int] = []
    deadline = time.perf_counter() + seconds
    episode = 0
    episode_s = 0.0
    while episode == 0 or time.perf_counter() + episode_s / 2 < deadline:
        episode_start = time.perf_counter()
        s.store.load_state_dict(s.initial)
        s.store.zero_grads()
        optimizer = training.Adam(s.store)
        batches = data.iter_windows(s.ds.values, s.ds.split.train, LOOKBACK, w.horizon,
                                    TRAIN_BATCH, shuffle_seed=s.shuffle_seed)
        losses = []
        for i in range(w.episode_steps):
            lr = training.cosine_lr(i, w.episode_steps, BASE_LR, MIN_LR)
            t = tracer if tracer is not None and (episode + i) % 2 == 1 else None
            out, dt = _run_op(tally, "training step",
                              lambda: _train_step(s.model, optimizer, batches, lr, t),
                              t, f"op:{episode}:{i}")
            if out is None:
                break
            loss, nodes, b = out
            if not tally.check(math.isfinite(loss), f"non-finite training loss at step {i}"):
                break
            (timings.plain if t is None else timings.traced).append(dt)
            windows += b
            losses.append(loss)
            if t is not None:
                tape_nodes.append(nodes)
        if first_losses is None:
            first_losses = losses
        else:
            tally.check(losses == first_losses,
                        f"episode {episode} losses differ from episode 0 at one seed")
        episode += 1
        episode_s = time.perf_counter() - episode_start
    return {
        "timings": timings,
        "quality": ("train_loss",
                    sum(first_losses) / len(first_losses) if first_losses else float("nan")),
        "windows_per_s": windows / sum(timings.plain + timings.traced),
        "tape_nodes": tape_nodes,
    }


def run_serving(w: Workload, s: Session, seconds: float, tally: Tally,
                tracer: Tracer | None) -> dict:
    """Evaluate sweeps over the test split for the first half of ``seconds``,
    then single-window predicts; in a traced run every other one is traced."""
    ds, model = s.ds, s.model
    start = time.perf_counter()
    test_origins = data.window_origins(ds.split.test, LOOKBACK, w.horizon)
    sweep_times: list[float] = []
    first_mse = None
    sweep = 0
    sweep_s = 0.0
    while sweep == 0 or time.perf_counter() + sweep_s / 2 < start + seconds / 2:
        t = tracer if sweep % 2 == 0 else None
        out, dt = _run_op(tally, "evaluate sweep",
                          lambda: training.evaluate(model, ds, ds.split.test, EVAL_BATCH),
                          t, f"eval:{sweep}")
        sweep += 1
        sweep_s = dt
        if out is None or not tally.check(math.isfinite(out[0]), "non-finite eval MSE"):
            break
        if t is None:
            sweep_times.append(dt)
        if first_mse is None:
            first_mse = out[0]
        else:
            tally.check(out[0] == first_mse, f"eval sweep {sweep - 1} MSE differs from sweep 0")

    timings = Timings([], [])
    origins = np.random.default_rng(_sub_seed(s.shuffle_seed, 3)).permutation(test_origins)
    deadline = start + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        origin = int(origins[i % len(origins)])
        t = tracer if i % 2 == 1 else None
        pred, dt = _run_op(tally, "predict",
                           lambda: model.predict(_window(ds, origin)), t, f"op:{i}")
        i += 1
        if pred is not None and tally.check(bool(np.all(np.isfinite(pred))),
                                            f"non-finite forecast at row {origin}"):
            (timings.plain if t is None else timings.traced).append(dt)
    return {
        "timings": timings,
        "quality": ("eval_mse", first_mse if first_mse is not None else float("nan")),
        "windows_per_s": len(test_origins) * len(sweep_times) / sum(sweep_times)
        if sweep_times else float("nan"),
        "sweep_s": sweep_times,
        "tape_nodes": [],
    }


# --- statistics -----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it:
    the 11th largest sample.  Needs at least 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return float("nan"), float("nan")
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer: Tracer, out: dict) -> dict:
    """Per-layer numbers from the spans.  Layer times are per traced operation
    (spans whose step is ``op:*``); set-up layers, evaluate and iter_windows
    are per call."""
    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = len(out["timings"].traced)
    all_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    op_total: dict[str, float] = {}
    op_self: dict[str, float] = {}
    rows_x_len = k_sum = k_samples = rows = out_bytes = 0
    fourier_shapes: dict[str, list] = {}
    first_op = None
    for idx, span in enumerate(spans):
        name = span[NAME]
        if name in ("fourier.rfft", "fourier.irfft"):
            name += ".bwd" if inside(spans, idx, "autodiff.backward") else ".fwd"
        dur = span[END] - span[START]
        all_total[name] = all_total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        step = span[STEP] or ""
        if not step.startswith("op:"):
            continue
        op_total[name] = op_total.get(name, 0.0) + dur
        op_self[name] = op_self.get(name, 0.0) + selfs[idx]
        info = span[INFO]
        if info is None:  # the call raised; the failure is already counted
            continue
        if name.startswith("fourier."):
            rows_x_len += info["work"]
            first_op = first_op or step
            if step == first_op:
                fourier_shapes.setdefault(name, []).append(info)
        elif name == "moge.gate_decision":
            k_sum += info["k_sum"]
            rows += info["rows"]
            k_samples += info["samples"]
        elif name == "moge.experts_forward":
            out_bytes += info["bytes"]

    def per_op(name, table=op_total):
        return 1e3 * table.get(name, 0.0) / n_ops

    def per_call(name):
        return 1e3 * all_total[name] / calls[name] if name in calls else 0.0

    metrics = {}
    for f in ("rfft", "irfft"):
        for d in ("fwd", "bwd"):
            metrics[f"fourier.{f}.{d}_ms"] = per_op(f"fourier.{f}.{d}")
            metrics[f"fourier.{f}.{d}_numpy_ceiling_ms"] = numpy_ceiling_ms(
                fourier_shapes.get(f"fourier.{f}.{d}", []))
    metrics.update({
        "fourier.rows_x_len": rows_x_len / n_ops,
        "spectral.spectrum_of.ms": per_op("spectral.spectrum_of"),
        "spectral.summarize.ms": per_op("spectral.summarize"),
        "filterbank.apply.ms": per_op("filterbank.apply"),
        "moge.gate_decision.ms": per_op("moge.gate_decision"),
        "moge.experts_forward.ms": per_op("moge.experts_forward"),
        "moge.mix.ms": per_op("moge.mix"),
        "moge.block.self_ms": per_op("moge.block", op_self),
        "moge.k_mean": k_sum / k_samples if k_samples else 0.0,
        "moge.experts_useful_frac": k_sum / rows if rows else 0.0,
        "moge.expert_out_mb_computed": out_bytes / 1e6 / n_ops,
        "autodiff.tape_nodes": float(np.mean(out["tape_nodes"])) if out["tape_nodes"] else 0.0,
        "autodiff.backward.ms": per_op("autodiff.backward"),
        # the FFT calls are the only spans inside the backward pass
        "autodiff.backward.self_ms": per_op("autodiff.backward", op_self),
        "autodiff.complex_expert_map.ms": per_op("autodiff.complex_expert_map"),
        "training.adam_step.ms": per_op("training.adam_step"),
        "training.evaluate.ms": per_call("training.evaluate"),
        "data.iter_windows.ms": per_call("data.iter_windows"),
        "data.load_csv.ms": per_call("data.load_csv"),
        "data.prepare.ms": per_call("data.prepare"),
        "checkpoint.load.ms": per_call("checkpoint.load"),
    })
    timings = out["timings"]
    metrics["trace.overhead_frac"] = float(np.median(timings.traced)
                                           / np.median(timings.plain) - 1.0)
    metrics["trace.unattributed_frac"] = op_self["op"] / op_total["op"]
    return metrics


def numpy_ceiling_ms(calls: list[dict], repeats: int = 7) -> float:
    """numpy.fft time for the same transform shapes as one traced operation:
    a reference for what the hand-built FFT could reach, not a compared metric."""
    if not calls:
        return 0.0
    rng = np.random.default_rng(0)
    replay = []
    for c in calls:
        if "n" in c:  # irfft takes the split (re, im) pair, as adamoge's does
            re, im = rng.standard_normal(c["shape"]), rng.standard_normal(c["shape"])
            replay.append(lambda re=re, im=im, n=c["n"]: np.fft.irfft(re + 1j * im, n, axis=-1))
        else:
            replay.append(lambda x=rng.standard_normal(c["shape"]): np.fft.rfft(x, axis=-1))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for fn in replay:
            fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": threads,
        "os_threads": len(os.listdir("/proc/self/task")),
        "adamoge": os.path.dirname(adamoge.__file__),
    }


# --- entry point ------------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, in_dir: str,
            spans_path: str | None) -> dict:
    tracer = Tracer() if spans_path else None
    if tracer is not None:
        tracer.step = "setup"
    with tracer.installed() if tracer is not None else nullcontext():
        s = set_up(w, seed, in_dir)
    tally = Tally()
    correctness_gate(w, s, seed, tally)
    out = (run_training if w.train else run_serving)(w, s, seconds, tally, tracer)
    timings = out["timings"]
    ops = timings.plain
    tail_value, tail_pct = tail(ops)
    quality_name, quality = out["quality"]
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(tracer is not None),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons[:20],
        "samples": len(ops),
        "tail_percentile": tail_pct,
        "setup_s": s.setup_s,
        "end_to_end": {
            "op_ms_mean": 1e3 * float(np.mean(ops)) if ops else float("nan"),
            "op_ms_p90": 1e3 * float(np.percentile(ops, 90)) if ops else float("nan"),
            "windows_per_s": out["windows_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "op_ms_p50": 1e3 * float(np.median(ops)) if ops else float("nan"),
        "op_ms_tail": 1e3 * tail_value,
        quality_name: quality,
        "quality_hex": float(quality).hex(),
        "op_ms": [1e3 * t for t in ops],
        "sweep_s": out.get("sweep_s", []),
        "environment": environment(),
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer, out)
        record["spans"] = len(tracer.spans)
        tracer.write(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("inputs", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="directory holding the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.mode == "inputs":
        make_inputs(w, args.seed, args.dir)
        return 0
    if args.mode == "setup":
        print(json.dumps({"setup_s": set_up(w, args.seed, args.dir).setup_s}))
        return 0
    record = measure(w, args.seed, args.seconds, args.dir, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
