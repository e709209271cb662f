"""Dataset ingestion, chronological splits, z-scoring, window batching.

CSV contract (the public ETT layout): header row, first column ``date``,
remaining columns numeric, strictly increasing timestamps, no missing cells.
ETT-hourly uses the community 12/4/4-month row borders, ETT-minute the same
scaled by 4; everything else splits 7:1:2.  Validation/test ranges carry one
lookback of left context so every target row of the split is reachable.
Normalisation statistics come from training rows only and all reported
metrics live on the normalised scale.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime

import numpy as np


class DataError(ValueError):
    """Malformed input data (bad CSV, impossible split, missing file)."""


@dataclass
class SeriesTable:
    """Raw multivariate series: T timestamps x V named variables."""

    timestamps: list[str]
    values: np.ndarray  # (T, V) float64
    names: list[str]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def variables(self) -> int:
        return self.values.shape[1]


@dataclass
class SplitSpec:
    """Half-open row ranges; val/test include lookback rows of left context."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]


@dataclass
class NormStats:
    mean: np.ndarray  # (V,)
    std: np.ndarray  # (V,)


def _parse_timestamp(text: str, line: int) -> datetime:
    try:
        return datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"line {line}: unparseable timestamp {text!r}") from exc


def load_csv(path: str) -> SeriesTable:
    """Load an ETT-format CSV, rejecting NaN cells and unordered timestamps."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open dataset {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _parse_table(path, reader)
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc


def _parse_table(path: str, reader) -> SeriesTable:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if len(header) < 2:
        raise DataError(f"{path}: need a timestamp column plus data columns")
    names = [h.strip() for h in header[1:]]
    timestamps: list[str] = []
    rows: list[list[float]] = []
    prev: datetime | None = None
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: {len(row)} fields, header has {len(header)}"
            )
        stamp = _parse_timestamp(row[0], line_no)
        try:
            increasing = prev is None or stamp > prev
        except TypeError:  # an offset-aware and a naive timestamp
            raise DataError(
                f"line {line_no}: timestamps mix UTC offsets with naive times"
            ) from None
        if not increasing:
            raise DataError(f"line {line_no}: timestamps not strictly increasing")
        prev = stamp
        parsed = []
        for col, cell in enumerate(row[1:], start=2):
            try:
                val = float(cell)
            except ValueError:
                raise DataError(
                    f"line {line_no}, column {col} ({names[col - 2]}): "
                    f"non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(val):
                raise DataError(
                    f"line {line_no}, column {col} ({names[col - 2]}): "
                    f"missing/non-finite value"
                )
            parsed.append(val)
        timestamps.append(row[0].strip())
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return SeriesTable(timestamps, np.asarray(rows, dtype=np.float64), names)


def save_csv(table: SeriesTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + table.names)
        for stamp, row in zip(table.timestamps, table.values):
            writer.writerow([stamp] + [repr(float(v)) for v in row])


# community-standard ETT row borders: 12/4/4 months of hourly rows
_ETT_HOURLY = (8640, 11520, 14400)

# the values of data.kind: a split protocol, or "auto" to pick one from the
# file name (dataset_kind)
KINDS = ("auto", "etth", "ettm", "ratio")


def dataset_kind(path: str, configured: str = "auto") -> str:
    if configured != "auto":
        return configured
    stem = path.rsplit("/", 1)[-1].lower()
    if stem.startswith("etth"):
        return "etth"
    if stem.startswith("ettm"):
        return "ettm"
    return "ratio"


def make_split(rows: int, kind: str, lookback: int, horizon: int = 1) -> SplitSpec:
    """Chronological train/val/test ranges for a T-row table."""
    if kind in ("etth", "ettm"):
        scale = 1 if kind == "etth" else 4
        b1, b2, b3 = (scale * b for b in _ETT_HOURLY)
        if rows < b3:
            raise DataError(f"{kind} split needs {b3} rows, table has {rows}")
        spec = SplitSpec((0, b1), (b1 - lookback, b2), (b2 - lookback, b3))
    elif kind == "ratio":
        n_train = int(rows * 0.7)
        n_test = int(rows * 0.2)
        n_val = rows - n_train - n_test
        spec = SplitSpec(
            (0, n_train),
            (n_train - lookback, n_train + n_val),
            (rows - n_test - lookback, rows),
        )
    else:
        raise DataError(f"unknown dataset kind {kind!r}")
    minimum = lookback + horizon
    for name, (start, end) in (("train", spec.train), ("val", spec.val), ("test", spec.test)):
        if start < 0 or end - start < minimum:
            raise DataError(
                f"{name} range [{start},{end}) cannot hold a {lookback}+{horizon} window"
            )
    return spec


def fit_norm(table: SeriesTable, train_range: tuple[int, int]) -> NormStats:
    start, end = train_range
    if end <= start:
        raise DataError("empty training range")
    block = table.values[start:end]
    # finite cells can still overflow the sums: report that by column below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = block.mean(axis=0)
        std = block.std(axis=0)  # population std
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if np.any(overflow):
        names = [table.names[i] for i in np.flatnonzero(overflow)]
        raise DataError(f"columns {names}: mean or std of the training rows overflows float64")
    floored = std < 1e-8
    if np.any(floored):
        warnings.warn(
            f"zero-variance columns {list(np.flatnonzero(floored))}: std floored at 1e-8"
        )
        std = np.where(floored, 1e-8, std)
    return NormStats(mean=mean, std=std)


def apply_norm(table: SeriesTable, stats: NormStats) -> SeriesTable:
    return SeriesTable(
        timestamps=table.timestamps,
        values=(table.values - stats.mean) / stats.std,
        names=table.names,
    )


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return values * stats.std + stats.mean


@dataclass
class WindowBatch:
    x: np.ndarray  # (B, L, V)
    y: np.ndarray  # (B, H, V)
    origins: np.ndarray  # (B,) window start rows


def window_origins(row_range: tuple[int, int], lookback: int, horizon: int) -> np.ndarray:
    start, end = row_range
    last = end - lookback - horizon
    if last < start:
        raise DataError(f"range [{start},{end}) shorter than one {lookback}+{horizon} window")
    return np.arange(start, last + 1)


def iter_windows(
    values: np.ndarray,
    row_range: tuple[int, int],
    lookback: int,
    horizon: int,
    batch_size: int,
    shuffle_seed: int | None = None,
):
    """Yield WindowBatches covering every valid origin exactly once.

    Ascending order when shuffle_seed is None (evaluation), a seeded
    permutation otherwise (training).  The last partial batch is kept.
    """
    origins = window_origins(row_range, lookback, horizon)
    if shuffle_seed is not None:
        origins = np.random.default_rng(shuffle_seed).permutation(origins)
    for i in range(0, len(origins), batch_size):
        chunk = origins[i : i + batch_size]
        x = np.stack([values[o : o + lookback] for o in chunk])
        y = np.stack([values[o + lookback : o + lookback + horizon] for o in chunk])
        yield WindowBatch(x=x, y=y, origins=chunk)


@dataclass
class Dataset:
    """A loaded, normalised table with its split, ready for training."""

    name: str
    values: np.ndarray  # normalised (T, V)
    split: SplitSpec
    stats: NormStats
    names: list[str]


def prepare(table: SeriesTable, kind: str, lookback: int, horizon: int, name: str) -> Dataset:
    split = make_split(table.rows, kind, lookback, horizon)
    stats = fit_norm(table, split.train)
    normed = apply_norm(table, stats)
    return Dataset(name=name, values=normed.values, split=split, stats=stats, names=table.names)
