"""Experiment configuration: INI-style manifests with CLI overrides.

A config is a flat set of uniquely named keys grouped into sections. Every
key can be overridden on the command line as ``key=value`` (or
``section.key=value``).
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending keys."""


@dataclass
class RunConfig:
    # federation
    strategy: str = "fedsvd"
    svd_period: int = 1
    clients: int = 6
    participants: int = 3
    rounds: int = 100
    local_steps: int = 10
    learning_rate: float = 0.5
    batch_size: int = 64
    transmit_a: bool = False
    # model
    layers: int = 1
    hidden_dim: int = 32
    rank: int = 8
    lora_alpha: float = 8.0
    pretrain_backbone: bool = True
    pretrain_steps: int = 200
    pretrain_lr: float = 0.1
    # data
    source: str = "synthetic"
    classes: int = 3
    feature_dim: int = 64
    train_size: int = 6000
    margin: float = 3.0
    dirichlet_alpha: float = 0.5
    csv_path: str = ""
    # privacy (epsilon empty -> non-private: sigma 0, no clipping)
    epsilon: float | None = None
    delta: float = 1e-5
    clip_norm: float = 2.0
    noise_multiplier: float | None = None
    # output / execution
    metrics_path: str = "metrics.csv"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    threads: int = 1  # accepted and validated; no effect: clients train on one stacked axis
    record_timing: bool = True

    def validate(self) -> None:
        from .federation import STRATEGIES  # federation imports this module

        problems = []
        for key in _FLOAT_KEYS + _OPT_FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                problems.append(f"{key} must be finite, got {value}")
        if self.strategy not in STRATEGIES:
            problems.append(f"strategy must be one of {tuple(STRATEGIES)}, got {self.strategy!r}")
        for key in _INT_KEYS:
            if getattr(self, key) < (0 if key in ("rounds", "pretrain_steps") else 1):
                problems.append(f"{key} must be positive, got {getattr(self, key)}")
        if self.participants > self.clients:
            problems.append(f"participants ({self.participants}) exceeds clients ({self.clients})")
        if self.layers not in (1, 2):
            problems.append(f"layers must be 1 or 2, got {self.layers}")
        for key in ("learning_rate", "pretrain_lr"):
            if getattr(self, key) <= 0:
                problems.append(f"{key} must be positive, got {getattr(self, key)}")
        if self.lora_alpha <= 0:
            problems.append(f"lora_alpha must be positive, got {self.lora_alpha}")
        if self.source not in ("synthetic", "csv"):
            problems.append(f"source must be synthetic or csv, got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            problems.append("csv_path required when source = csv")
        for key in ("csv_path", "metrics_path"):
            path = getattr(self, key)
            if path != path.strip():
                problems.append(f"{key} must not start or end with whitespace, got {path!r}")
        if self.source == "synthetic":
            if self.classes < 2:
                problems.append(f"classes must be >= 2, got {self.classes}")
            if self.margin < 0:
                problems.append(f"margin must be >= 0, got {self.margin}")
        if self.dirichlet_alpha <= 0:
            problems.append(f"dirichlet_alpha must be positive, got {self.dirichlet_alpha}")
        if self.epsilon is not None and self.epsilon <= 0:
            problems.append(f"epsilon must be positive, got {self.epsilon}")
        if not (0 < self.delta < 1):
            problems.append(f"delta must be in (0, 1), got {self.delta}")
        if self.clip_norm <= 0:
            problems.append(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_multiplier is not None and self.noise_multiplier < 0:
            problems.append(f"noise_multiplier must be >= 0, got {self.noise_multiplier}")
        if self.epsilon is not None and self.noise_multiplier is not None:
            problems.append("epsilon and noise_multiplier are mutually exclusive, got "
                            f"epsilon={self.epsilon} and noise_multiplier={self.noise_multiplier}")
        if not self.seeds:
            problems.append("seeds must not be empty")
        if any(s < 0 for s in self.seeds):
            problems.append("seeds must be non-negative")
        if len(set(self.seeds)) < len(self.seeds):
            problems.append(f"seeds must not repeat, got {','.join(map(str, self.seeds))}")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def private(self) -> bool:
        return self.epsilon is not None or (
            self.noise_multiplier is not None and self.noise_multiplier > 0
        )

    def run_id(self) -> str:
        """Stable short id over the semantic fields (execution knobs excluded)."""
        skip = {"metrics_path", "threads", "record_timing"}
        blob = ";".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in skip
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:10]


_SECTIONS = {
    "federation": (
        "strategy", "svd_period", "clients", "participants", "rounds",
        "local_steps", "learning_rate", "batch_size", "transmit_a",
    ),
    "model": (
        "layers", "hidden_dim", "rank", "lora_alpha",
        "pretrain_backbone", "pretrain_steps", "pretrain_lr",
    ),
    "data": (
        "source", "classes", "feature_dim", "train_size", "margin",
        "dirichlet_alpha", "csv_path",
    ),
    "privacy": ("epsilon", "delta", "clip_norm", "noise_multiplier"),
    "output": ("metrics_path", "seeds", "threads", "record_timing"),
}
_KEY_SECTION = {key: sec for sec, keys in _SECTIONS.items() for key in keys}


def _keys_of_type(annotation: str) -> tuple[str, ...]:
    """RunConfig fields declared as `annotation`, in declaration order."""
    return tuple(f.name for f in fields(RunConfig) if f.type == annotation)


_INT_KEYS = _keys_of_type("int")
_FLOAT_KEYS = _keys_of_type("float")
_OPT_FLOAT_KEYS = _keys_of_type("float | None")
_BOOL_KEYS = _keys_of_type("bool")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _OPT_FLOAT_KEYS:
            return None if raw == "" else float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key == "seeds":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``key=value`` (or ``section.key=value``) strings in order."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if "." in key:
            section, key = key.split(".", 1)
            if _KEY_SECTION.get(key) != section:
                raise ConfigError(f"unknown override key {section}.{key}")
        if key not in _KEY_SECTION:
            raise ConfigError(f"unknown override key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def parse(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: "%" too
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(cfg, key, _parse_value(key, raw))
    return cfg


def load(path, overrides: list[str] | None = None) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        cfg = parse(fh.read())
    if overrides:
        apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg
