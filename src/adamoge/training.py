"""Loss, metrics, Adam with cosine annealing, the fit loop, and grid search.

One fit is single-writer on its ParameterStore.  Model selection watches
validation MSE only; the test split is touched exactly once, after training,
to fill the report.  Under a fixed seed and single-threaded execution two
runs produce bit-identical reports (wall-clock time aside).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, ParameterStore, Tape, Variable
from .data import Dataset, iter_windows, window_origins
from .moge import AdaMoGeModel


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))


def mse_loss(pred: Variable, target: np.ndarray) -> Variable:
    return ad.vmean(ad.square(pred - target))


def cosine_lr(step: int, total_steps: int, base_lr: float, min_lr: float) -> float:
    """min_lr + 0.5*(base_lr - min_lr)*(1 + cos(pi * step/total_steps))."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    frac = step / total_steps if total_steps else 1.0
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * frac))


class Adam:
    """Bias-corrected Adam over a ParameterStore; zeroes gradients after each
    step and rejects non-finite gradients by parameter name."""

    def __init__(self, store: ParameterStore, betas=(0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value) for p in store}
        self._v = {p.name: np.zeros_like(p.value) for p in store}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p in self.store:
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
            m = self._m[p.name]
            v = self._v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.value -= lr * update
        self.store.zero_grads()


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    base_lr: float = 1e-3
    min_lr: float = 1e-5
    patience: int = 5
    seed: int = 0
    grid_e_max: tuple[int, ...] = (5, 6, 7, 8, 9, 10)
    grid_depth: tuple[int, ...] = (1, 2, 3, 4)
    grid_feature_dim: tuple[int, ...] = (8, 16, 32)

    def validate(self) -> None:
        """Raise ValueError naming the first ``train.*`` key out of range."""
        for name, low in (("epochs", 1), ("batch_size", 1), ("patience", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"train.{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("base_lr", "min_lr"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValueError(f"train.{name} must be positive, got {getattr(self, name)}")
        for name in ("e_max", "depth", "feature_dim"):
            values = getattr(self, f"grid_{name}")
            if not values or min(values) < 1:
                raise ValueError(
                    f"train.grid.{name} must be a nonempty list of positive integers, got {values}"
                )


@dataclass
class EvalReport:
    dataset: str
    horizon: int
    mse: float
    mae: float
    params: int
    seconds: float
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "horizon": self.horizon,
            "mse": self.mse,
            "mae": self.mae,
            "params": self.params,
            "seconds": self.seconds,
            "fingerprint": self.fingerprint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_row(self) -> str:
        d = self.to_dict()
        return ",".join(str(d[k]) for k in CSV_COLUMNS)

    def content_hash(self) -> str:
        """Hash of the deterministic fields (wall-clock time excluded)."""
        payload = self.to_dict()
        payload.pop("seconds")
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


CSV_COLUMNS = ("dataset", "horizon", "mse", "mae", "params", "seconds", "fingerprint")


def evaluate(model: AdaMoGeModel, ds: Dataset, row_range, batch_size: int = 64) -> tuple[float, float]:
    """Window-level MSE/MAE over a split, on the normalised scale."""
    se_sum = ae_sum = count = 0.0
    for batch in iter_windows(ds.values, row_range, model.lookback, model.horizon, batch_size):
        pred = model.predict(batch.x)
        diff = pred - batch.y
        se_sum += float(np.sum(diff * diff))
        ae_sum += float(np.sum(np.abs(diff)))
        count += diff.size
    return se_sum / count, ae_sum / count


@dataclass
class FitResult:
    report: EvalReport
    best_state: dict[str, np.ndarray]
    best_val_mse: float
    epochs_run: int
    diverged: bool = False
    history: list[tuple[int, float, float]] = field(default_factory=list)


def fit(
    model: AdaMoGeModel,
    ds: Dataset,
    tc: TrainConfig,
    fingerprint: str = "",
    compute_test: bool = True,
    log=None,
) -> FitResult:
    """Train with the MSE objective, early-stop on validation MSE, restore the
    best parameters, and (optionally) report test metrics."""
    tc.validate()
    store = model.store
    t0 = time.perf_counter()
    n_train = len(window_origins(ds.split.train, model.lookback, model.horizon))
    batches_per_epoch = (n_train + tc.batch_size - 1) // tc.batch_size
    total_steps = max(1, tc.epochs * batches_per_epoch)

    best_val = np.inf
    best_state = store.state_dict()
    since_best = 0
    epochs_run = 0
    diverged = False
    optimizer = Adam(store)
    history = []
    step = 0
    for epoch in range(tc.epochs):
        epochs_run = epoch + 1
        epoch_seed = int(np.random.SeedSequence([tc.seed, epoch]).generate_state(1)[0])
        train_loss = 0.0
        n_batches = 0
        for batch in iter_windows(
            ds.values, ds.split.train, model.lookback, model.horizon,
            tc.batch_size, shuffle_seed=epoch_seed,
        ):
            with Tape() as tape:
                pred = model.forward(Variable(batch.x))
                loss = mse_loss(pred, batch.y)
                loss_val = float(loss.value.sum())
                if not np.isfinite(loss_val):
                    diverged = True
                    break
                tape.backward(loss)
            try:
                optimizer.step(cosine_lr(min(step, total_steps), total_steps, tc.base_lr, tc.min_lr))
            except NumericError:
                diverged = True
                break
            train_loss += loss_val
            n_batches += 1
            step += 1
        if diverged:
            break
        val_mse, _ = evaluate(model, ds, ds.split.val, tc.batch_size)
        history.append((epoch, train_loss / max(n_batches, 1), val_mse))
        if log:
            log(f"epoch {epoch}: train {train_loss / max(n_batches, 1):.6f}  val {val_mse:.6f}")
        if val_mse < best_val:
            best_val = val_mse
            best_state = store.state_dict()
            since_best = 0
        else:
            since_best += 1
            if since_best > tc.patience:
                break
    store.load_state_dict(best_state)

    test_mse = test_mae = float("nan")
    if compute_test:
        test_mse, test_mae = evaluate(model, ds, ds.split.test, tc.batch_size)
    report = EvalReport(
        dataset=ds.name,
        horizon=model.horizon,
        mse=test_mse,
        mae=test_mae,
        params=model.parameter_count(),
        seconds=time.perf_counter() - t0,
        fingerprint=fingerprint,
    )
    return FitResult(
        report=report,
        best_state=best_state,
        best_val_mse=float(best_val),
        epochs_run=epochs_run,
        diverged=diverged,
        history=history,
    )


def grid_combinations(tc: TrainConfig) -> list[dict]:
    """All (e_max, depth, feature_dim) combinations, in sweep order."""
    return [
        {"e_max": e, "depth": d, "feature_dim": f}
        for e, d, f in itertools.product(tc.grid_e_max, tc.grid_depth, tc.grid_feature_dim)
    ]


@dataclass
class GridEntry:
    combo: dict
    val_mse: float
    params: int
    seconds: float
    epochs_run: int


@dataclass
class GridResult:
    entries: list[GridEntry]  # ranked by validation MSE, best first
    winner: GridEntry
    winner_report: EvalReport
    winner_state: dict[str, np.ndarray]


def grid_search(ds: Dataset, tc: TrainConfig, build_model, fingerprint_for=None) -> GridResult:
    """Train every grid combination, rank by validation MSE, and evaluate the
    test split only for the winner (no test-set selection).

    ``build_model`` maps a combo dict to a fresh (store, model) pair;
    ``fingerprint_for`` (optional) maps a combo to its config fingerprint.
    """
    tc.validate()
    entries: list[GridEntry] = []
    best_entry = best_model = best_result = None
    for combo in grid_combinations(tc):
        model = build_model(combo)[1]
        result = fit(model, ds, tc, compute_test=False)
        entry = GridEntry(
            combo=combo,
            val_mse=result.best_val_mse,
            params=model.parameter_count(),
            seconds=result.report.seconds,
            epochs_run=result.epochs_run,
        )
        entries.append(entry)
        # strict: a tie keeps the earlier combination
        if best_entry is None or entry.val_mse < best_entry.val_mse:
            best_entry, best_model, best_result = entry, model, result
        del model, result  # only the running best stays alive
    best_model.store.load_state_dict(best_result.best_state)
    test_mse, test_mae = evaluate(best_model, ds, ds.split.test, tc.batch_size)
    fingerprint = fingerprint_for(best_entry.combo) if fingerprint_for else ""
    winner_report = EvalReport(
        dataset=ds.name,
        horizon=best_model.horizon,
        mse=test_mse,
        mae=test_mae,
        params=best_entry.params,
        seconds=sum(e.seconds for e in entries),
        fingerprint=fingerprint,
    )
    return GridResult(
        entries=sorted(entries, key=lambda e: e.val_mse),
        winner=best_entry,
        winner_report=winner_report,
        winner_state=best_result.best_state,
    )
