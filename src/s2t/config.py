"""Run configuration: flat key=value files with command-line overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar, Optional

from .audio import FEATURE_DIM


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str = "text"                 # "text" | "speech"
    hidden_size: int = 256             # LSTM units per layer/direction
    embed_size: int = 256
    enc_layers: Optional[int] = None   # defaults: 2 for text, 3 for speech
    dec_layers: int = 2
    attention: Optional[str] = None    # defaults: "additive" text, "conv" speech
    conv_filter_size: int = 25
    prenet_size: int = 256
    dropout: float = 0.5
    learning_rate: float = 0.001
    batch_size: int = 64
    steps: int = 20000
    save_every: int = 1000
    seed: int = 1
    max_vocab: Optional[int] = None
    feature_dim: ClassVar[int] = FEATURE_DIM  # the width of every feature archive

    def resolved(self) -> "RunConfig":
        """Fill task-dependent defaults and validate."""
        cfg = replace(self)
        if cfg.task not in ("text", "speech"):
            raise ConfigError(f"unknown task {cfg.task!r}")
        if cfg.enc_layers is None:
            cfg.enc_layers = 2 if cfg.task == "text" else 3
        if cfg.attention is None:
            cfg.attention = "additive" if cfg.task == "text" else "conv"
        if cfg.attention not in ("additive", "conv"):
            raise ConfigError(f"unknown attention kind {cfg.attention!r}")
        if cfg.conv_filter_size % 2 != 1:
            raise ConfigError("conv_filter_size must be odd")
        for name in ("hidden_size", "embed_size", "enc_layers", "dec_layers", "conv_filter_size",
                     "prenet_size", "batch_size", "steps", "save_every"):
            if getattr(cfg, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if cfg.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not 0.0 <= cfg.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 0.0 <= cfg.learning_rate < float("inf"):  # NaN fails every comparison
            raise ConfigError("learning_rate must be finite and nonnegative")
        if cfg.max_vocab is not None and cfg.max_vocab < 1:
            raise ConfigError("max_vocab must be positive")
        return cfg

    @property
    def stride(self) -> int:
        """Source steps per encoder position of a resolved configuration,
        which is also the shortest source it accepts: the speech encoder's
        2nd and later layers read every other output of the layer below."""
        return 2 ** (self.enc_layers - 1) if self.task == "speech" else 1

    def to_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            out.append(f"{f.name}={'' if value is None else value}")
        return out


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    if raw == "":
        return None
    kind = _FIELD_TYPES[name]
    if kind in ("int", "Optional[int]"):
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_items(items) -> dict:
    """Parse ``key=value`` pairs into typed RunConfig field values."""
    values = {}
    for item in items:
        line = item.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {line!r} (expected key=value)")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key == "feature_dim":  # no field: older checkpoints and config dumps hold this line
            if raw.strip() != str(FEATURE_DIM):
                raise ConfigError(f"feature_dim must be {FEATURE_DIM}, the width of every feature archive")
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw.strip())
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {raw.strip()!r}") from None
    return values


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return RunConfig(**parse_config_items(fh))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def config_from_lines(lines) -> RunConfig:
    return RunConfig(**parse_config_items(lines))
