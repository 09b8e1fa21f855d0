"""Run configuration: defaults, config-file parsing, environment overrides.

A run is configured by a flat INI-style file with ``[robot]``,
``[shape]``, ``[control]``, and ``[run]`` sections.  Every key has a
default matching the standard training setup, so an empty (or missing)
file reproduces it; unknown sections or keys are rejected.  After the
file, environment variables named ``SHAPECTL_<SECTION>_<KEY>``
(uppercase) override single values, and explicit command-line flags
override both.  Every command writes its fully resolved configuration
next to its outputs so a run can be reproduced from the output
directory alone.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .control_node import ControlLossConfig, ControlTrainConfig
from .robot import ObstacleSpec, RobotConfig
from .shape_node import ShapeTrainConfig

ENV_PREFIX = "SHAPECTL"


class ConfigError(ValueError):
    """A configuration file, key, or value the run cannot proceed with."""


@contextmanager
def config_errors(what: str):
    """Re-raise a ``ValueError`` from a constructor fed with config values
    as a ``ConfigError`` about ``what``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {raw!r}") from exc


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"not a number: {raw!r}") from exc


def _parse_int_list(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty list")
    return tuple(_parse_int(p) for p in parts)


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_parse_float(p) for p in parts)


def _parse_str(raw: str) -> str:
    return raw.strip()


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "intlist": _parse_int_list,
    "floatlist": _parse_float_list,
    "str": _parse_str,
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# every key: (type name, default value)
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "robot": {
        "n_segments": ("int", 3),
        "segment_lengths": ("floatlist", ()),  # empty: 0.1 per segment
        "u_max": ("float", 15.0),
        "mismatch_amplitude": ("float", 0.1),
    },
    "shape": {
        "hidden": ("intlist", (256, 256)),
        "solver": ("str", "fixed-adams"),
        "steps_per_segment": ("int", 10),
        "batch_size": ("int", 256),
        "iterations": ("int", 10_000),
        "learning_rate": ("float", 1e-3),
        "val_fraction": ("float", 0.1),
        "val_interval": ("int", 100),
    },
    "control": {
        "hidden": ("intlist", (256, 256)),
        "horizon": ("int", 10),
        "batch_size": ("int", 256),
        "iterations": ("int", 10_000),
        "learning_rate": ("float", 1e-3),
        "reset_scale": ("float", 0.2),
        "target_scale": ("float", 0.03),
        "tracking_weight": ("float", 5000.0),
        "action_rate_weight": ("float", 100.0),
        "shape_weight": ("float", 200.0),
        "terminal_weight": ("float", 1000.0),
        "obstacle_weight": ("float", 100.0),
        "obstacle_threshold_sq": ("float", 1e-4),
        "noise_std": ("float", 0.00033),
    },
    "run": {
        "seed": ("int", 0),
        "n_samples": ("int", 10_000),
        "scenario": ("str", "tracking"),
        "trajectory": ("str", "circle"),
        "period": ("float", 100.0),
        "duration": ("float", 100.0),
        "payload_grams": ("float", 0.0),
        "obstacle": ("floatlist", ()),  # empty: no obstacle
    },
}


@dataclass
class RunConfig:
    """Resolved configuration for one command invocation."""

    values: dict[tuple[str, str], object] = field(default_factory=dict)

    def __post_init__(self):
        for section, keys in SCHEMA.items():
            for key, (_, default) in keys.items():
                self.values.setdefault((section, key), default)

    def get(self, section: str, key: str):
        if (section, key) not in self.values:
            raise KeyError(f"unknown config key [{section}] {key}")
        return self.values[(section, key)]

    def set_raw(self, section: str, key: str, raw: str) -> None:
        """Parse and store one value given as text.

        Every number must be finite and every integer non-negative; the
        typed views and model constructors check the tighter ranges.
        """
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        kind = SCHEMA[section][key][0]
        try:
            value = _PARSERS[kind](raw)
        except ConfigError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        items = value if isinstance(value, tuple) else (value,)
        if kind in ("float", "floatlist") and not all(map(math.isfinite, items)):
            raise ConfigError(f"{section} {key} must be finite, got {raw.strip()}")
        if kind in ("int", "intlist") and any(v < 0 for v in items):
            raise ConfigError(f"{section} {key} must not be negative, got {raw.strip()}")
        self.values[(section, key)] = value

    # ------------------------------------------------------------------
    # typed views

    def robot_config(self) -> RobotConfig:
        lengths = self.get("robot", "segment_lengths")
        with config_errors("robot config"):
            return RobotConfig(
                n_segments=self.get("robot", "n_segments"),
                segment_lengths=lengths if lengths else None,
                u_max=self.get("robot", "u_max"),
                mismatch_amplitude=self.get("robot", "mismatch_amplitude"),
            )

    def shape_train_config(self) -> ShapeTrainConfig:
        with config_errors("shape training config"):
            return ShapeTrainConfig(
                batch_size=self.get("shape", "batch_size"),
                iterations=self.get("shape", "iterations"),
                learning_rate=self.get("shape", "learning_rate"),
                val_fraction=self.get("shape", "val_fraction"),
                val_interval=self.get("shape", "val_interval"),
                seed=self.get("run", "seed"),
            )

    def control_train_config(self) -> ControlTrainConfig:
        with config_errors("control training config"):
            return ControlTrainConfig(
                batch_size=self.get("control", "batch_size"),
                iterations=self.get("control", "iterations"),
                learning_rate=self.get("control", "learning_rate"),
                reset_scale=self.get("control", "reset_scale"),
                target_scale=self.get("control", "target_scale"),
                seed=self.get("run", "seed"),
            )

    def control_loss_config(self) -> ControlLossConfig:
        with config_errors("control loss config"):
            return ControlLossConfig(
                tracking_weight=self.get("control", "tracking_weight"),
                action_rate_weight=self.get("control", "action_rate_weight"),
                shape_weight=self.get("control", "shape_weight"),
                terminal_weight=self.get("control", "terminal_weight"),
                obstacle_weight=self.get("control", "obstacle_weight"),
                noise_std=self.get("control", "noise_std"),
            )

    def obstacle_spec(self) -> ObstacleSpec | None:
        center = self.get("run", "obstacle")
        if not center:
            return None
        if len(center) != 3:
            raise ConfigError("obstacle must be three comma-separated numbers")
        with config_errors("obstacle"):
            return ObstacleSpec(
                center=list(center),
                threshold_sq=self.get("control", "obstacle_threshold_sq"),
            )

    def resolved_text(self) -> str:
        """Deterministic INI text of every section and key."""
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key in keys:
                lines.append(f"{key} = {_format_value(self.get(section, key))}")
            lines.append("")
        return "\n".join(lines)


def load_run_config(path=None, env=None) -> RunConfig:
    """Assemble a config from defaults, an optional file, and environment.

    ``env`` is a mapping (defaults to nothing); variables named
    ``SHAPECTL_<SECTION>_<KEY>`` override file values key by key.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                cfg.set_raw(section, key, raw)
    if env:
        for section, keys in SCHEMA.items():
            for key in keys:
                var = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
                if var in env:
                    cfg.set_raw(section, key, env[var])
    return cfg
