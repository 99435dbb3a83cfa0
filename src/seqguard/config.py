"""Experiment configuration: one JSON document, dotted-key overrides,
and labeled per-stage seed derivation from a single root seed. Each
section is the settings type its module takes, checked when it loads."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .drain import DEFAULT_HEADER_PATTERN, check_tree, compile_header_pattern
from .judge import JudgeConfig
from .model import ModelSettings
from .sessions import check_window
from .training import TrainConfig

ARMS = ("A", "B", "C")


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 32-bit sub-seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class DrainSettings:
    depth: int = 4
    sim_threshold: float = 0.4
    max_children: int = 100
    header_pattern: str = DEFAULT_HEADER_PATTERN

    def __post_init__(self):
        check_tree(self.depth, self.sim_threshold, self.max_children)
        compile_header_pattern(self.header_pattern)


@dataclass
class WindowSettings:
    window_length: int = 64
    stride: int = 64

    def __post_init__(self):
        check_window(self.window_length, self.stride)


@dataclass
class ExperimentConfig:
    logs: str = "logs.txt"
    labels: str = "anomaly_label.csv"
    out_dir: str = "out"
    seed: int = 0
    arm: str = "C"
    sample_size: int = 3000
    train_fraction: float = 0.9
    raw_vocab_size: int = 4096
    drain: DrainSettings = field(default_factory=DrainSettings)
    window: WindowSettings = field(default_factory=WindowSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    judge: JudgeConfig = field(default_factory=JudgeConfig)

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if self.sample_size < 0:
            raise ValueError("sample_size must be >= 0 (0 keeps the full pool)")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.raw_vocab_size < 1:
            raise ValueError("raw_vocab_size must be positive")
        if self.model.max_seq_len < self.window.window_length + 1:
            raise ValueError(
                f"max_seq_len {self.model.max_seq_len} must be at least "
                f"window_length + 1 = {self.window.window_length + 1}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def stage_seeds(self) -> dict[str, int]:
        return {
            name: derive_seed(self.seed, name)
            for name in ("sample", "split", "model_init", "pretrain", "train")
        }


_SECTIONS = {
    "drain": DrainSettings,
    "window": WindowSettings,
    "model": ModelSettings,
    "train": TrainConfig,
    "judge": JudgeConfig,
}


def _check_field_type(context: str, field_obj: dataclasses.Field, value: Any) -> Any:
    expected = field_obj.type
    optional_str = expected in ("Optional[str]", Optional[str])
    if optional_str:
        if value is None or isinstance(value, str):
            return value
        raise ValueError(f"{context}.{field_obj.name} must be a string or null")
    if expected in ("bool", bool):
        if isinstance(value, bool):
            return value
        raise ValueError(f"{context}.{field_obj.name} must be true or false")
    if isinstance(value, bool):
        # bool is an int subclass; reject it for numeric fields explicitly.
        raise ValueError(f"{context}.{field_obj.name} must be a number, got a boolean")
    if expected in ("int", int):
        if isinstance(value, int):
            return value
        raise ValueError(f"{context}.{field_obj.name} must be an integer, got {value!r}")
    if expected in ("float", float):
        if isinstance(value, (int, float)):
            return float(value)
        raise ValueError(f"{context}.{field_obj.name} must be a number, got {value!r}")
    if expected in ("str", str):
        if isinstance(value, str):
            return value
        raise ValueError(f"{context}.{field_obj.name} must be a string, got {value!r}")
    return value


def _build(cls, payload: dict, context: str):
    fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields_by_name)
    if unknown:
        raise ValueError(f"unknown config keys in {context}: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        if cls is not ExperimentConfig or key not in _SECTIONS:
            kwargs[key] = _check_field_type(context, fields_by_name[key], value)
        elif value is not None:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key!r} must be an object")
            kwargs[key] = _build(_SECTIONS[key], value, key)
    return cls(**kwargs)


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Strict construction: unknown keys are errors so typos cannot silently
    fall back to defaults."""
    if not isinstance(payload, dict):
        raise ValueError("config document must be a JSON object")
    return _build(ExperimentConfig, payload, "config")


def _coerce(raw: str) -> Any:
    # Overrides arrive as strings; interpret as JSON scalars when possible.
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(payload: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` (or ``key=value``) strings onto a config dict."""
    result = json.loads(json.dumps(payload))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        dotted, _, raw = item.partition("=")
        keys = dotted.split(".")
        node = result
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {dotted!r} descends into a non-object")
        node[keys[-1]] = _coerce(raw)
    return result
