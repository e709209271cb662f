"""Loss, metrics, Adam with cosine annealing, the fit loop, and grid search.

One fit is single-writer on its ParameterStore.  Model selection watches
validation MSE only: ``grid_search`` trains each combination it is given,
ranks them by their best validation MSE, and touches the test split exactly
once, for the winner, through ``report_on_test``, the one builder of a
test-split ``EvalReport``.  A single run is a sweep of one combination.
Under a fixed seed and single-threaded execution two runs produce
bit-identical reports (wall-clock time aside).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import asdict, dataclass, field, fields

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
    """Bias-corrected Adam over a ParameterStore.  A ``None`` gradient counts
    as zero.  ``step`` rejects a non-finite gradient by parameter name before
    it writes anything, and clears the gradients after an update."""

    def __init__(self, store: ParameterStore, betas=(0.9, 0.999), eps: float = 1e-8):
        self.store = store
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value) for p in store}
        self._v = {p.name: np.zeros_like(p.value) for p in store}

    def step(self, lr: float) -> None:
        for p in self.store:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p in self.store:
            g = 0.0 if p.grad is None else p.grad
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
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(
                    f"train.{name} must be positive and finite, got {getattr(self, name)}"
                )
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
        return asdict(self)

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


CSV_COLUMNS = tuple(f.name for f in fields(EvalReport))


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


def report_on_test(
    model: AdaMoGeModel, ds: Dataset, batch_size: int, fingerprint: str = "", *,
    seconds: float,
) -> EvalReport:
    """The model's metrics on the test split of ``ds``, as a report.  The
    caller measures ``seconds``: the fit time in a training report, this
    evaluation in an eval report."""
    test_mse, test_mae = evaluate(model, ds, ds.split.test, batch_size)
    return EvalReport(dataset=ds.name, horizon=model.horizon, mse=test_mse, mae=test_mae,
                      params=model.parameter_count(), seconds=seconds, fingerprint=fingerprint)


@dataclass
class FitResult:
    best_val_mse: float
    epochs_run: int
    seconds: float  # training and validation
    diverged: bool = False
    history: list[tuple[int, float, float]] = field(default_factory=list)


def fit(model: AdaMoGeModel, ds: Dataset, tc: TrainConfig, log=None) -> FitResult:
    """Train with the MSE objective, early-stop on validation MSE, and leave
    the model's store at the best epoch's parameters.  The test split is not
    touched: ``report_on_test`` reports on it.  ``log``, when given, receives
    one line per validated epoch."""
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
    return FitResult(
        best_val_mse=float(best_val),
        epochs_run=epochs_run,
        seconds=time.perf_counter() - t0,
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
    diverged: bool


@dataclass
class GridResult:
    entries: list[GridEntry]  # ranked by validation MSE, best first
    winner: GridEntry
    winner_report: EvalReport
    winner_store: ParameterStore  # the winner's parameters, at its best epoch


def _labelled(log, combo: dict):
    """``log`` with the combination appended to every line, or None."""
    if log is None:
        return None
    tag = "  (" + " ".join(f"{k}={v}" for k, v in combo.items()) + ")"
    return lambda line: log(line + tag)


def grid_search(
    ds: Dataset, tc: TrainConfig, combos: list[dict], build_model, fingerprint_for, log=None,
) -> GridResult:
    """Train every combination in ``combos``, rank by validation MSE, and
    evaluate the test split only for the winner (no test-set selection).

    ``build_model`` maps a combo dict to a fresh (store, model) pair;
    ``fingerprint_for`` maps a combo to its config fingerprint;
    ``log`` goes to each ``fit``, each line followed by the combination it
    belongs to, as in ``(e_max=3 depth=1 feature_dim=16)``, so that a
    sweep's log splits by combination.  ``fit`` leaves each model at its best
    epoch, so the result carries the winner's own store, ready to save.  The
    report's ``seconds`` sums every combination's fit, test evaluation aside.
    """
    tc.validate()
    entries: list[GridEntry] = []
    best_entry = best_model = None
    for combo in combos:
        model = build_model(combo)[1]
        result = fit(model, ds, tc, log=_labelled(log, combo))
        entry = GridEntry(combo, result.best_val_mse, model.parameter_count(), result.seconds,
                          result.epochs_run, result.diverged)
        entries.append(entry)
        # strict: a tie keeps the earlier combination
        if best_entry is None or entry.val_mse < best_entry.val_mse:
            best_entry, best_model = entry, model
        del model, result  # only the running best stays alive
    return GridResult(
        entries=sorted(entries, key=lambda e: e.val_mse),
        winner=best_entry,
        winner_report=report_on_test(
            best_model, ds, tc.batch_size, fingerprint_for(best_entry.combo),
            seconds=sum(e.seconds for e in entries),
        ),
        winner_store=best_model.store,
    )
