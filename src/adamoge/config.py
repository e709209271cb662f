"""Run configuration: flat ``section.key = value`` text files plus overrides.

Every key has a default; unknown keys are rejected by name.  The fingerprint
is a SHA-256 over the canonical rendering of all non-output keys and is what
ties checkpoints, reports and eval runs together.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from .fourier import MAX_LENGTH
from .moge import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


@dataclass
class DataConfig:
    path: str = ""
    kind: str = "auto"  # auto | etth | ettm | ratio
    lookback: int = 96
    horizon: int = 96


@dataclass
class OutputConfig:
    dir: str = "runs"


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# key -> (section attr, field attr, parser)
_SCHEMA: dict[str, tuple[str, str, object]] = {
    "data.path": ("data", "path", str),
    "data.kind": ("data", "kind", str),
    "data.lookback": ("data", "lookback", int),
    "data.horizon": ("data", "horizon", int),
    "model.e_max": ("model", "e_max", int),
    "model.depth": ("model", "depth", int),
    "model.feature_dim": ("model", "feature_dim", int),
    "model.filter.mode": ("model", "filter_mode", str),
    "model.filter.family": ("model", "filter_family", str),
    "model.adaptive_k": ("model", "adaptive_k", _parse_bool),
    "model.fixed_k": ("model", "fixed_k", int),
    "model.sigma0": ("model", "sigma0", float),
    "model.alpha": ("model", "alpha", float),
    "model.sigma_min": ("model", "sigma_min", float),
    "model.sigma_max": ("model", "sigma_max", float),
    "train.epochs": ("train", "epochs", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.base_lr": ("train", "base_lr", float),
    "train.min_lr": ("train", "min_lr", float),
    "train.patience": ("train", "patience", int),
    "train.seed": ("train", "seed", int),
    "train.grid.e_max": ("train", "grid_e_max", _parse_int_list),
    "train.grid.depth": ("train", "grid_depth", _parse_int_list),
    "train.grid.feature_dim": ("train", "grid_feature_dim", _parse_int_list),
    "output.dir": ("output", "dir", str),
}

_VALID_CHOICES = {
    "data.kind": ("auto", "etth", "ettm", "ratio"),
    "model.filter.mode": ("dog", "abs-dog"),
    "model.filter.family": ("gaussian", "truncation"),
}


def set_key(cfg: RunConfig, key: str, raw: str) -> None:
    entry = _SCHEMA.get(key)
    if entry is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    section, attr, parser = entry
    try:
        value = parser(raw.strip())
    except ConfigError:
        raise
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    choices = _VALID_CHOICES.get(key)
    if choices and value not in choices:
        raise ConfigError(f"{key!r} must be one of {choices}, got {value!r}")
    setattr(getattr(cfg, section), attr, value)


def parse_file(path: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = stripped.partition("=")
        set_key(cfg, key.strip(), raw)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        set_key(cfg, key.strip(), raw)
    return cfg


def _value(cfg: RunConfig, key: str):
    section, attr, _ = _SCHEMA[key]
    return getattr(getattr(cfg, section), attr)


def validate(cfg: RunConfig, grid: bool = False) -> RunConfig:
    """Reject values no run can use, naming the key, before anything is loaded
    or written.  With ``grid`` the fixed expert count must suit every
    ``train.grid.e_max`` of the sweep instead of ``model.e_max``."""
    for key in ("data.lookback", "data.horizon"):
        if not 2 <= _value(cfg, key) <= MAX_LENGTH:
            raise ConfigError(f"{key} must lie in [2, {MAX_LENGTH}], got {_value(cfg, key)}")
    for key in ("model.e_max", "model.depth", "model.feature_dim"):
        if _value(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {_value(cfg, key)}")
    for key, (_, _, parser) in _SCHEMA.items():
        if parser is float and not math.isfinite(_value(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {_value(cfg, key)}")
        if parser is str and "\0" in _value(cfg, key):
            raise ConfigError(f"{key} contains a NUL character")
    try:
        cfg.train.validate()
        if not cfg.model.adaptive_k:
            for e_max in cfg.train.grid_e_max if grid else (cfg.model.e_max,):
                replace(cfg.model, e_max=e_max).resolved_fixed_k()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(cfg: RunConfig, include_output: bool = True) -> str:
    """Canonical text form (sorted keys); parses back to an equal config."""
    lines = []
    for key in sorted(_SCHEMA):
        if not include_output and key.startswith("output."):
            continue
        lines.append(f"{key} = {_render_value(_value(cfg, key))}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    """SHA-256 of everything that affects the trained artifact (output.dir
    is pure plumbing and excluded)."""
    return hashlib.sha256(render(cfg, include_output=False).encode()).hexdigest()
