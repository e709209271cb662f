"""Run configuration: flat ``section.key = value`` text files plus overrides.

Every key has a default; unknown keys are rejected by name.  The fingerprint
is a SHA-256 over the canonical rendering of every key that changes a trained
checkpoint, which leaves out ``output.*`` and the ``train.grid.*`` sweep, and
is what ties checkpoints, reports and eval runs together.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field, replace

from .data import KINDS
from .fourier import MAX_LENGTH
from .moge import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


@dataclass
class DataConfig:
    path: str = ""
    kind: str = "auto"  # one of data.KINDS
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
    "model.filter": ("model", "filter", str),
    "model.fixed_k": ("model", "fixed_k", int),
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

# a comment starts at a '#' that begins the line or follows whitespace, so a
# value keeps any other '#'
_COMMENT = re.compile(r"(?:^|\s)#")


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
    setattr(getattr(cfg, section), attr, value)


def parse_file(path: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
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
    or written.  With ``grid`` the model section must suit every
    ``train.grid.e_max`` of the sweep instead of ``model.e_max``."""
    for key in ("data.lookback", "data.horizon"):
        if not 2 <= _value(cfg, key) <= MAX_LENGTH:
            raise ConfigError(f"{key} must lie in [2, {MAX_LENGTH}], got {_value(cfg, key)}")
    if cfg.data.kind not in KINDS:
        raise ConfigError(f"data.kind must be one of {KINDS}, got {cfg.data.kind!r}")
    for key, (_, _, parser) in _SCHEMA.items():
        if parser is str:
            _check_writable(key, _value(cfg, key))
    # output.dir, or else its nearest existing ancestor, must be a directory
    probe = os.path.abspath(cfg.output.dir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"output.dir {cfg.output.dir!r}: {probe!r} is not a directory")
    try:
        cfg.train.validate()
        for e_max in cfg.train.grid_e_max if grid else (cfg.model.e_max,):
            replace(cfg.model, e_max=e_max).validate(cfg.data.lookback)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _check_writable(key: str, value: str) -> None:
    """Reject a string value that ``render`` cannot write so that
    ``parse_file`` reads it back unchanged."""
    if "\0" in value:
        raise ConfigError(f"{key} contains a NUL character")
    if "\n" in value or "\r" in value:
        raise ConfigError(f"{key} contains a line break")
    if value != value.strip():
        raise ConfigError(f"{key} {value!r} has leading or trailing whitespace")
    if _COMMENT.search(value):
        raise ConfigError(f"{key} {value!r} has a '#' at its start or after whitespace")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{key} {value!r} is not valid Unicode text") from None


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# where the artifacts go, and the sweep a --grid run reads; the combination
# a run trains is in model.*
_NOT_FINGERPRINTED = ("output.", "train.grid.")


def render(cfg: RunConfig, fingerprinted_only: bool = False) -> str:
    """Canonical text form (sorted keys); parses back to an equal config.
    With ``fingerprinted_only``, only the keys that change a checkpoint."""
    lines = []
    for key in sorted(_SCHEMA):
        if fingerprinted_only and key.startswith(_NOT_FINGERPRINTED):
            continue
        lines.append(f"{key} = {_render_value(_value(cfg, key))}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    """SHA-256 of everything that affects the trained artifact."""
    return hashlib.sha256(render(cfg, fingerprinted_only=True).encode()).hexdigest()
