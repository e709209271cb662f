"""Synthetic series generators for smoke tests and benchmarks."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .data import SeriesTable


def hourly_timestamps(rows: int, start: str = "2016-07-01 00:00:00") -> list[str]:
    t0 = datetime.fromisoformat(start)
    return [(t0 + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S") for i in range(rows)]


def sinusoid_table(
    rows: int,
    variables: int = 2,
    cycles_per_window: tuple[float, ...] = (3.0, 17.0),
    window: int = 96,
    snr_db: float = 10.0,
    seed: int = 0,
) -> SeriesTable:
    """Sinusoids at fixed bins of a length-`window` spectrum plus white noise.

    ``cycles_per_window`` lists the active bins; each variable carries every
    tone with its own random phase.  The noise variance is set from the total
    tone power and the requested signal-to-noise ratio.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    amp = 1.0
    signal = np.zeros((rows, variables))
    for v in range(variables):
        for k in cycles_per_window:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signal[:, v] += amp * np.sin(2.0 * np.pi * k * t / window + phase)
    tone_power = len(cycles_per_window) * amp * amp / 2.0
    noise_var = tone_power / (10.0 ** (snr_db / 10.0))
    values = signal + rng.normal(0.0, np.sqrt(noise_var), size=signal.shape)
    names = [f"s{v}" for v in range(variables)]
    return SeriesTable(hourly_timestamps(rows), values, names)


def constant_table(rows: int, variables: int, value: float) -> SeriesTable:
    values = np.full((rows, variables), value, dtype=np.float64)
    names = [f"c{v}" for v in range(variables)]
    return SeriesTable(hourly_timestamps(rows), values, names)


def load_like_table(rows: int = 17420, variables: int = 7, seed: int = 0) -> SeriesTable:
    """Hourly load-style series: shared daily/half-day cycles, slow drift,
    AR(1) noise, and cross-variable coupling.  A stand-in for exercising the
    ETT pipeline when the public benchmark file is unavailable."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    half_day = np.sin(4 * np.pi * t / 24.0 + 0.7)
    weekly = np.sin(2 * np.pi * t / 168.0 + 1.3)
    base = np.zeros((rows, variables))
    ar = np.zeros(rows)
    for v in range(variables):
        w = rng.uniform(0.4, 1.4, size=3)
        phase_jitter = rng.uniform(-0.5, 0.5)
        eps = rng.normal(0.0, 0.35, size=rows)
        ar[0] = eps[0]
        for i in range(1, rows):
            ar[i] = 0.8 * ar[i - 1] + eps[i]
        drift = 0.0003 * t * rng.uniform(-1.0, 1.0)
        base[:, v] = (
            w[0] * np.sin(2 * np.pi * t / 24.0 + phase_jitter)
            + w[1] * half_day
            + w[2] * weekly
            + drift
            + ar
        )
    # couple variables a little, like feeders of one transformer
    mix = np.eye(variables) + rng.uniform(0.0, 0.15, size=(variables, variables))
    values = base @ mix.T + rng.uniform(-2.0, 8.0, size=variables)
    names = [f"v{v}" for v in range(variables)]
    return SeriesTable(hourly_timestamps(rows), values, names)
