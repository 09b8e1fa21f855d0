"""Run-configuration parsing, overrides, and typed views."""

import dataclasses
import inspect

import numpy as np
import pytest

from shapectl.config import SCHEMA, ConfigError, RunConfig, load_run_config
from shapectl.control_node import (
    ControlLossConfig,
    ControlTrainConfig,
    closed_loop_track,
    init_control_model,
)
from shapectl.robot import ObstacleSpec, RobotConfig
from shapectl.shape_node import ShapeTrainConfig, init_shape_model

# library object -> (section, {its setting: config key, if named otherwise});
# every field of a dataclass, the named keywords of a function
LIBRARY_DEFAULTS = {
    RobotConfig: ("robot", {}),
    ShapeTrainConfig: ("shape", {"seed": ("run", "seed")}),
    init_shape_model: ("shape", {}),
    ControlTrainConfig: ("control", {"seed": ("run", "seed")}),
    ControlLossConfig: ("control", {}),
    init_control_model: ("control", {}),
    closed_loop_track: ("run", {}),
    ObstacleSpec: ("control", {"threshold_sq": ("control", "obstacle_threshold_sq")}),
}
KEYWORDS = {
    init_shape_model: ("hidden", "solver", "steps_per_segment"),
    init_control_model: ("hidden", "horizon", "dt", "rate_scale"),
    closed_loop_track: ("duration", "period", "payload_grams"),
}


def test_defaults_match_standard_setup():
    cfg = RunConfig()
    assert cfg.get("robot", "n_segments") == 3
    assert cfg.get("robot", "u_max") == 15.0
    assert cfg.get("shape", "hidden") == (256, 256)
    assert cfg.get("shape", "solver") == "fixed-adams"
    assert cfg.get("shape", "iterations") == 10_000
    assert cfg.get("shape", "learning_rate") == 1e-3
    assert cfg.get("control", "horizon") == 10
    assert cfg.get("control", "tracking_weight") == 5000.0
    assert cfg.get("control", "obstacle_weight") == 100.0
    assert cfg.get("run", "seed") == 0
    with pytest.raises(KeyError):
        cfg.get("robot", "nonexistent")


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[robot]\nn_segments = 2\nsegment_lengths = 0.1, 0.2\n"
        "[shape]\nhidden = 32, 32\nsolver = rk4\n"
        "[run]\nseed = 9\nobstacle = 0.01,0.02,0.03\n"
    )
    cfg = load_run_config(path)
    assert cfg.get("robot", "n_segments") == 2
    assert cfg.get("robot", "segment_lengths") == (0.1, 0.2)
    assert cfg.get("shape", "hidden") == (32, 32)
    assert cfg.get("shape", "solver") == "rk4"
    assert cfg.get("run", "seed") == 9
    assert cfg.get("run", "obstacle") == (0.01, 0.02, 0.03)
    # untouched keys keep defaults
    assert cfg.get("control", "horizon") == 10


def test_unknown_keys_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_run_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[robot]\nwheels = 4\n")
    with pytest.raises(ConfigError):
        load_run_config(bad_key)
    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[robot]\nn_segments = many\n")
    with pytest.raises(ConfigError):
        load_run_config(bad_value)
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "missing.ini")


def test_env_overrides_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\nn_samples = 100\n")
    env = {"SHAPECTL_RUN_SEED": "42", "SHAPECTL_CONTROL_HORIZON": "4"}
    cfg = load_run_config(path, env)
    assert cfg.get("run", "seed") == 42
    assert cfg.get("run", "n_samples") == 100
    assert cfg.get("control", "horizon") == 4
    with pytest.raises(ConfigError):
        load_run_config(path, {"SHAPECTL_RUN_SEED": "not-a-number"})


def test_resolved_text_round_trips(tmp_path):
    cfg = RunConfig()
    cfg.set_raw("robot", "n_segments", "2")
    cfg.set_raw("control", "learning_rate", "0.00025")
    cfg.set_raw("run", "obstacle", "0.1,0.2,0.3")
    path = tmp_path / "resolved.ini"
    path.write_text(cfg.resolved_text())
    again = load_run_config(path)
    assert again.values == cfg.values
    assert again.resolved_text() == cfg.resolved_text()


def test_typed_views():
    cfg = RunConfig()
    cfg.set_raw("robot", "n_segments", "2")
    cfg.set_raw("run", "seed", "7")
    robot = cfg.robot_config()
    assert robot.n_segments == 2
    assert robot.segment_lengths == (0.1, 0.1)
    assert cfg.shape_train_config().seed == 7
    assert cfg.control_train_config().seed == 7
    assert cfg.control_loss_config().tracking_weight == 5000.0
    assert cfg.obstacle_spec() is None
    cfg.set_raw("run", "obstacle", "0.01,0.0,0.08")
    spec = cfg.obstacle_spec()
    assert np.allclose(spec.center, [0.01, 0.0, 0.08])
    assert spec.threshold_sq == cfg.get("control", "obstacle_threshold_sq")
    cfg.set_raw("run", "obstacle", "0.01,0.0")
    with pytest.raises(ConfigError):
        cfg.obstacle_spec()


def test_invalid_typed_values_become_config_errors():
    cfg = RunConfig()
    cfg.set_raw("robot", "n_segments", "9")
    with pytest.raises(ConfigError):
        cfg.robot_config()
    cfg = RunConfig()
    cfg.set_raw("shape", "iterations", "0")
    with pytest.raises(ConfigError):
        cfg.shape_train_config()
    cfg = RunConfig()
    cfg.set_raw("control", "iterations", "0")
    with pytest.raises(ConfigError):
        cfg.control_train_config()


@pytest.mark.parametrize("owner", list(LIBRARY_DEFAULTS), ids=lambda o: o.__name__)
def test_schema_defaults_equal_library_defaults(owner):
    # an empty run config and a library call without that setting must
    # run the same standard setup
    section, renamed = LIBRARY_DEFAULTS[owner]
    if dataclasses.is_dataclass(owner):
        defaults = {
            f.name: f.default
            for f in dataclasses.fields(owner)
            if f.default is not dataclasses.MISSING
        }
    else:
        params = inspect.signature(owner).parameters
        defaults = {name: params[name].default for name in KEYWORDS[owner]}
    assert defaults
    for name, default in defaults.items():
        key = renamed.get(name, (section, name))
        schema_default = SCHEMA[key[0]][key[1]][1]
        if owner is RobotConfig and name == "segment_lengths":
            default = ()  # None and the empty list both mean 0.1 per segment
        assert schema_default == default, (key, schema_default, default)
