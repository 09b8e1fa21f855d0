"""Run configuration: defaults, config-file parsing, environment overrides.

A run is configured by a flat INI-style file with ``[robot]``,
``[shape]``, ``[control]``, and ``[run]`` sections.  Every key has a
default matching the standard training setup, so an empty (or missing)
file reproduces it; unknown sections or keys are rejected.  A key that
a library object takes reads its default from that object, so each
default is stated once, and the typed views build those objects from
the keys named after their parameters.  After the file, environment
variables named ``SHAPECTL_<SECTION>_<KEY>`` (uppercase) override single
values, and explicit command-line flags override both.  Every command
writes its fully resolved configuration next to its outputs so a run can
be reproduced from the output directory alone.
"""

from __future__ import annotations

import configparser
import inspect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .control_node import (
    ControlLossConfig,
    ControlTrainConfig,
    closed_loop_track,
    init_control_model,
)
from .robot import ObstacleSpec, RobotConfig
from .shape_node import ShapeTrainConfig, init_shape_model

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


def _default(owner, name: str):
    """The default of parameter ``name`` of ``owner``, a dataclass or a function."""
    return inspect.signature(owner).parameters[name].default


# every key: (type name, default value).  A key that a library object
# takes reads its default from that object, so each default is stated once.
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "robot": {
        "n_segments": ("int", _default(RobotConfig, "n_segments")),
        "segment_lengths": ("floatlist", _default(RobotConfig, "segment_lengths")),
        "u_max": ("float", _default(RobotConfig, "u_max")),
        "mismatch_amplitude": ("float", _default(RobotConfig, "mismatch_amplitude")),
    },
    "shape": {
        "hidden": ("intlist", _default(init_shape_model, "hidden")),
        "solver": ("str", _default(init_shape_model, "solver")),
        "steps_per_segment": ("int", _default(init_shape_model, "steps_per_segment")),
        "batch_size": ("int", _default(ShapeTrainConfig, "batch_size")),
        "iterations": ("int", _default(ShapeTrainConfig, "iterations")),
        "learning_rate": ("float", _default(ShapeTrainConfig, "learning_rate")),
        "val_fraction": ("float", _default(ShapeTrainConfig, "val_fraction")),
        "val_interval": ("int", _default(ShapeTrainConfig, "val_interval")),
    },
    "control": {
        "hidden": ("intlist", _default(init_control_model, "hidden")),
        "horizon": ("int", _default(init_control_model, "horizon")),
        "batch_size": ("int", _default(ControlTrainConfig, "batch_size")),
        "iterations": ("int", _default(ControlTrainConfig, "iterations")),
        "learning_rate": ("float", _default(ControlTrainConfig, "learning_rate")),
        "reset_scale": ("float", _default(ControlTrainConfig, "reset_scale")),
        "target_scale": ("float", _default(ControlTrainConfig, "target_scale")),
        "tracking_weight": ("float", _default(ControlLossConfig, "tracking_weight")),
        "action_rate_weight": ("float", _default(ControlLossConfig, "action_rate_weight")),
        "shape_weight": ("float", _default(ControlLossConfig, "shape_weight")),
        "terminal_weight": ("float", _default(ControlLossConfig, "terminal_weight")),
        "obstacle_weight": ("float", _default(ControlLossConfig, "obstacle_weight")),
        "obstacle_threshold_sq": ("float", _default(ObstacleSpec, "threshold_sq")),
        "noise_std": ("float", _default(ControlLossConfig, "noise_std")),
    },
    "run": {
        "seed": ("int", _default(ShapeTrainConfig, "seed")),
        "n_samples": ("int", 10_000),
        "scenario": ("str", "tracking"),
        "trajectory": ("str", "circle"),
        "period": ("float", _default(closed_loop_track, "period")),
        "duration": ("float", _default(closed_loop_track, "duration")),
        "payload_grams": ("float", _default(closed_loop_track, "payload_grams")),
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

    def _build(self, owner, section: str, what: str, **given):
        """``owner`` from the ``section`` keys named after its parameters, and ``given``."""
        params = inspect.signature(owner).parameters
        kwargs = {key: self.get(section, key) for key in SCHEMA[section] if key in params}
        with config_errors(what):
            return owner(**kwargs, **given)

    def robot_config(self) -> RobotConfig:
        return self._build(RobotConfig, "robot", "robot config")

    def shape_train_config(self) -> ShapeTrainConfig:
        seed = self.get("run", "seed")
        return self._build(ShapeTrainConfig, "shape", "shape training config", seed=seed)

    def control_train_config(self) -> ControlTrainConfig:
        seed = self.get("run", "seed")
        return self._build(ControlTrainConfig, "control", "control training config", seed=seed)

    def control_loss_config(self) -> ControlLossConfig:
        return self._build(ControlLossConfig, "control", "control loss config")

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
