"""Experiment configuration: one JSON document, dotted-key overrides,
and labeled per-stage seed derivation from a single root seed."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .drain import DEFAULT_HEADER_PATTERN

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


@dataclass
class WindowSettings:
    window_length: int = 64
    stride: int = 64


@dataclass
class ModelSettings:
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 256
    max_seq_len: int = 128
    dropout: float = 0.0


@dataclass
class TrainSettings:
    learning_rate: float = 2e-5
    epochs: int = 1
    batch_size: int = 8
    grad_accum_steps: int = 4
    max_grad_norm: float = 1.0
    warmup_fraction: float = 0.1
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    loss: str = "focal"
    alpha: float = 0.25
    gamma: float = 2.0
    threshold: float = 0.5
    pretrain_steps: int = 0


@dataclass
class JudgeSettings:
    enabled: bool = False
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4"
    timeout: float = 30.0
    max_retries: int = 3
    rate_limit: float = 2.0
    cache_dir: Optional[str] = None
    fixtures: Optional[str] = None
    prompt_template: Optional[str] = None


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
    train: TrainSettings = field(default_factory=TrainSettings)
    judge: JudgeSettings = field(default_factory=JudgeSettings)

    def __post_init__(self):
        if self.arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if self.sample_size < 0:
            raise ValueError("sample_size must be >= 0 (0 keeps the full pool)")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.raw_vocab_size < 1:
            raise ValueError("raw_vocab_size must be positive")

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
    "train": TrainSettings,
    "judge": JudgeSettings,
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


def _build_section(cls, payload: dict, context: str):
    fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields_by_name)
    if unknown:
        raise ValueError(f"unknown config keys in {context}: {sorted(unknown)}")
    checked = {
        key: _check_field_type(context, fields_by_name[key], value)
        for key, value in payload.items()
    }
    return cls(**checked)


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Strict construction: unknown keys are errors so typos cannot silently
    fall back to defaults."""
    if not isinstance(payload, dict):
        raise ValueError("config document must be a JSON object")
    top = dict(payload)
    kwargs: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = top.pop(name, None)
        if section is not None:
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            kwargs[name] = _build_section(cls, section, name)
    fields_by_name = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(top) - set(fields_by_name)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in top.items():
        kwargs[key] = _check_field_type("config", fields_by_name[key], value)
    return ExperimentConfig(**kwargs)


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


def dump_json_file(path: str, payload: dict) -> None:
    """Canonical JSON emission: sorted keys, two-space indent, trailing newline.

    Re-emitting a loaded document reproduces it byte for byte.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
