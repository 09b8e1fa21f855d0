"""End-to-end command-line workflows on a one-segment toy setup."""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shapectl.cli
import shapectl.control_node
from shapectl.cli import main
from shapectl.config import ENV_PREFIX, SCHEMA, load_run_config
from shapectl.control_node import (
    init_control_model,
    load_control_model,
    save_control_model,
)
from shapectl.nn import array_to_b64
from shapectl.reports import (
    read_dataset_csv,
    read_metrics_csv,
    read_shape_eval_csv,
    read_tracking_log_csv,
)
from shapectl.robot import RobotConfig, sample_dataset
from shapectl.shape_node import init_shape_model, load_shape_model, save_shape_model

TINY_INI = """\
[robot]
n_segments = 1

[shape]
hidden = 16,16
solver = rk4
iterations = 40
batch_size = 16
val_interval = 10

[control]
hidden = 16
horizon = 3
batch_size = 4
iterations = 6

[run]
n_samples = 80
seed = 11
duration = 1.0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, shape model, and control model built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    assert main(["generate", "--config", str(ini), "--out", str(root / "gen")]) == 0
    assert (
        main(
            [
                "train-shape",
                "--config",
                str(ini),
                "--dataset",
                str(root / "gen" / "dataset.csv"),
                "--out",
                str(root / "ts"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-control",
                "--config",
                str(ini),
                "--shape-model",
                str(root / "ts" / "shape_model.json"),
                "--out",
                str(root / "tc"),
            ]
        )
        == 0
    )
    return root, ini


def _shape_model_path(workdir):
    return str(workdir[0] / "ts" / "shape_model.json")


def _control_model_path(workdir):
    return str(workdir[0] / "tc" / "control_model.json")


def test_generate_prints_count_and_seed(workdir, tmp_path, capsys):
    root, ini = workdir
    rc = main(
        [
            "generate",
            "--config",
            str(ini),
            "--n-samples",
            "3",
            "--out",
            str(tmp_path / "g"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "3 samples" in out and "seed 11" in out
    assert len((tmp_path / "g" / "dataset.csv").read_text().splitlines()) == 4
    assert (tmp_path / "g" / "resolved_config.ini").exists()


def test_generate_byte_identical(workdir, tmp_path):
    root, ini = workdir
    for name in ("a", "b"):
        assert (
            main(["generate", "--config", str(ini), "--out", str(tmp_path / name)])
            == 0
        )
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert a == b
    assert a == (root / "gen" / "dataset.csv").read_bytes()


def test_generated_dataset_matches_library(workdir):
    root, ini = workdir
    cfg = load_run_config(ini)
    robot = cfg.robot_config()
    q_back, points_back = read_dataset_csv(root / "gen" / "dataset.csv", robot)
    q, points = sample_dataset(robot, 80, np.random.default_rng(11))
    assert q_back.shape == (80, 2) and points_back.shape == (80, 10, 3)
    assert np.array_equal(q, q_back)
    assert np.array_equal(points, points_back)


def test_env_override(workdir, tmp_path, monkeypatch):
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_RUN_N_SAMPLES", "5")
    assert main(["generate", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "dataset.csv").read_text().splitlines()) == 6
    assert "n_samples = 5" in (tmp_path / "resolved_config.ini").read_text()


def test_train_shape_outputs(workdir):
    root, ini = workdir
    history = (root / "ts" / "shape_history.csv").read_text().splitlines()
    assert history[0] == "iteration,train_loss,val_loss"
    assert len(history) == 41
    model, saved_robot = load_shape_model(root / "ts" / "shape_model.json")
    assert saved_robot.n_segments == 1
    assert model.solver == "rk4"


def test_train_shape_resume_deterministic(workdir, tmp_path, monkeypatch):
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_SHAPE_ITERATIONS", "5")
    for name in ("r1", "r2"):
        assert (
            main(
                [
                    "train-shape",
                    "--config",
                    str(ini),
                    "--dataset",
                    str(root / "gen" / "dataset.csv"),
                    "--init-model",
                    _shape_model_path(workdir),
                    "--out",
                    str(tmp_path / name),
                ]
            )
            == 0
        )
    h1 = (tmp_path / "r1" / "shape_history.csv").read_bytes()
    h2 = (tmp_path / "r2" / "shape_history.csv").read_bytes()
    assert h1 == h2
    m1 = (tmp_path / "r1" / "shape_model.json").read_bytes()
    m2 = (tmp_path / "r2" / "shape_model.json").read_bytes()
    assert m1 == m2


def test_train_control_history_rows(workdir):
    root, ini = workdir
    history = (root / "tc" / "control_history.csv").read_text().splitlines()
    assert history[0] == "iteration,train_loss"
    assert len(history) == 7
    model, saved_robot = load_control_model(root / "tc" / "control_model.json")
    assert model.horizon == 3
    assert saved_robot.n_segments == 1


def test_train_control_byte_identical(workdir, tmp_path):
    root, ini = workdir
    args = ["train-control", "--config", str(ini), "--shape-model"]
    args += [_shape_model_path(workdir), "--out", str(tmp_path)]
    assert main(args) == 0
    for name in ("control_model.json", "control_history.csv", "resolved_config.ini"):
        assert (tmp_path / name).read_bytes() == (root / "tc" / name).read_bytes()


def test_train_shape_byte_identical(workdir, tmp_path):
    root, ini = workdir
    args = ["train-shape", "--config", str(ini), "--dataset"]
    args += [str(root / "gen" / "dataset.csv"), "--out", str(tmp_path)]
    assert main(args) == 0
    for name in ("shape_model.json", "shape_history.csv", "resolved_config.ini"):
        assert (tmp_path / name).read_bytes() == (root / "ts" / name).read_bytes()


def test_dataset_grid_follows_shape_config(workdir, tmp_path, monkeypatch, capsys):
    # one grid setting feeds both generate and train-shape
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_SHAPE_STEPS_PER_SEGMENT", "5")
    monkeypatch.setenv("SHAPECTL_SHAPE_ITERATIONS", "2")
    assert main(["generate", "--config", str(ini), "--out", str(tmp_path / "g")]) == 0
    dataset = tmp_path / "g" / "dataset.csv"
    header = dataset.read_text().splitlines()[0].split(",")
    assert header[-1] == "pz4"  # one segment of 5 points, base omitted
    args = ["train-shape", "--config", str(ini), "--dataset", str(dataset)]
    assert main(args + ["--out", str(tmp_path / "t")]) == 0
    model, _ = load_shape_model(tmp_path / "t" / "shape_model.json")
    assert model.steps_per_segment == 5
    capsys.readouterr()


def test_rollout_payload_above_max_is_config_error(
    workdir, tmp_path, monkeypatch, capsys
):
    args = ["rollout", "--config", str(workdir[1]), "--shape-model"]
    args += [_shape_model_path(workdir), "--open-loop", "--out", str(tmp_path)]
    monkeypatch.setenv("SHAPECTL_RUN_PAYLOAD_GRAMS", "50")
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: payload must lie in [0, 20] g, got 50")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "rollout.csv").exists()
    # the top of the evaluated range is still accepted
    assert main(args + ["--payload", "20"]) == 0
    capsys.readouterr()


def test_train_control_zero_iterations_rejected(workdir, tmp_path, monkeypatch):
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_CONTROL_ITERATIONS", "0")
    rc = main(
        [
            "train-control",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3


def test_obstacle_flag_changes_training_loss(workdir, tmp_path, monkeypatch, capsys):
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_CONTROL_ITERATIONS", "2")
    for scenario, name in (("tracking", "t"), ("obstacle", "o")):
        rc = main(
            [
                "train-control",
                "--config",
                str(ini),
                "--shape-model",
                _shape_model_path(workdir),
                "--scenario",
                scenario,
                "--out",
                str(tmp_path / name),
            ]
        )
        assert rc == 0
    out = capsys.readouterr().out
    assert "obstacle at (" in out
    losses = {}
    for name in ("t", "o"):
        row = (tmp_path / name / "control_history.csv").read_text().splitlines()[1]
        losses[name] = float(row.split(",")[1])
    assert losses["t"] != losses["o"]
    resolved = (tmp_path / "o" / "resolved_config.ini").read_text()
    obstacle_line = [x for x in resolved.splitlines() if x.startswith("obstacle")][0]
    assert obstacle_line.split("=")[1].strip() != ""


def test_evaluate_shape_table_matches_logs(workdir, tmp_path):
    root, ini = workdir
    rc = main(
        [
            "evaluate",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--scenario",
            "shape",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    table = read_metrics_csv(tmp_path / "metrics.csv")
    assert [r.axis for r in table.rows] == ["x", "y", "z"]
    assert all(r.n_trials == 50 for r in table.rows)
    truth, pred = read_shape_eval_csv(tmp_path / "shape_eval.csv")
    err = (pred - truth).reshape(-1, 3)
    rmse = np.sqrt((err * err).mean(axis=0)) * 1000.0
    std = err.std(axis=0) * 1000.0
    for j, row in enumerate(table.rows):
        assert abs(row.rmse_mm - rmse[j]) < 1e-9
        assert abs(row.std_mm - std[j]) < 1e-9


def test_evaluate_tracking_table_matches_logs(workdir, tmp_path, capsys):
    root, ini = workdir
    args = [
        "evaluate",
        "--config",
        str(ini),
        "--shape-model",
        _shape_model_path(workdir),
        "--control-model",
        _control_model_path(workdir),
        "--scenario",
        "tracking",
    ]
    assert main(args + ["--out", str(tmp_path / "e1")]) == 0
    out = capsys.readouterr().out
    assert "x̃" in out
    table = read_metrics_csv(tmp_path / "e1" / "metrics.csv")
    kinds = ("circle", "ellipse", "s_shape", "square")
    assert [r.scenario for r in table.rows] == [k for k in kinds for _ in range(3)]
    for kind in kinds:
        logs = [
            read_tracking_log_csv(tmp_path / "e1" / f"track_{kind}_trial{i}.csv")
            for i in range(5)
        ]
        err = np.concatenate([log.tips - log.goals for log in logs], axis=0)
        rmse = np.sqrt((err * err).mean(axis=0)) * 1000.0
        std = err.std(axis=0) * 1000.0
        rows = [r for r in table.rows if r.scenario == kind]
        for j, row in enumerate(rows):
            assert abs(row.rmse_mm - rmse[j]) < 1e-9
            assert abs(row.std_mm - std[j]) < 1e-9
            assert row.n_trials == 5
    import xml.etree.ElementTree as ET

    ET.parse(tmp_path / "e1" / "track_circle.svg")
    # same command, same bytes
    assert main(args + ["--out", str(tmp_path / "e2")]) == 0
    assert (tmp_path / "e1" / "metrics.csv").read_bytes() == (
        tmp_path / "e2" / "metrics.csv"
    ).read_bytes()
    assert (tmp_path / "e1" / "track_circle_trial0.csv").read_bytes() == (
        tmp_path / "e2" / "track_circle_trial0.csv"
    ).read_bytes()


# targets of each ik_solve call an evaluation makes, in order
IK_TARGETS_PER_CALL = {
    # the four kinds' starts, solved in lock step
    "tracking": [4],
    # one helix start shared by the five payloads
    "payload": [1],
    # the obstacle's placement, then each kind's start, shared by the
    # policy and the baseline
    "obstacle": [1, 2],
}


@pytest.mark.parametrize("scenario", list(IK_TARGETS_PER_CALL))
def test_evaluate_solves_every_ik_start_in_one_call(
    workdir, tmp_path, monkeypatch, capsys, scenario
):
    calls = []
    solve = shapectl.control_node.ik_solve

    def counted(shape_model, config, target, **kwargs):
        calls.append(np.reshape(target, (-1, 3)).shape[0])
        return solve(shape_model, config, target, **kwargs)

    monkeypatch.setattr(shapectl.control_node, "ik_solve", counted)
    monkeypatch.setattr(shapectl.cli, "ik_solve", counted)
    root, ini = workdir
    args = [
        "evaluate",
        "--config",
        str(ini),
        "--shape-model",
        _shape_model_path(workdir),
        "--control-model",
        _control_model_path(workdir),
        "--scenario",
        scenario,
        "--out",
        str(tmp_path),
    ]
    if scenario == "obstacle":
        args += ["--baseline-model", _control_model_path(workdir)]
    assert main(args) == 0
    assert calls == IK_TARGETS_PER_CALL[scenario]
    capsys.readouterr()


def test_evaluate_payload_emits_five_rows(workdir, tmp_path):
    root, ini = workdir
    rc = main(
        [
            "evaluate",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--control-model",
            _control_model_path(workdir),
            "--scenario",
            "payload",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    table = read_metrics_csv(tmp_path / "metrics.csv")
    assert [r.scenario for r in table.rows] == [
        "payload_0g",
        "payload_5g",
        "payload_10g",
        "payload_15g",
        "payload_20g",
    ]
    assert all(r.axis == "xyz" for r in table.rows)
    assert (tmp_path / "payload_20g_trial4.csv").exists()
    assert (tmp_path / "payload_helix.svg").exists()


def test_evaluate_obstacle_with_baseline(workdir, tmp_path, capsys):
    root, ini = workdir
    rc = main(
        [
            "evaluate",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--control-model",
            _control_model_path(workdir),
            "--baseline-model",
            _control_model_path(workdir),
            "--scenario",
            "obstacle",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "violation ticks" in out
    table = read_metrics_csv(tmp_path / "metrics.csv")
    scenarios = {r.scenario for r in table.rows}
    assert scenarios == {"circle", "baseline_circle", "square", "baseline_square"}
    log = read_tracking_log_csv(tmp_path / "obstacle_circle_trial0.csv")
    assert log.min_obstacle_dist is not None
    resolved = (tmp_path / "resolved_config.ini").read_text()
    obstacle_line = [x for x in resolved.splitlines() if x.startswith("obstacle")][0]
    assert obstacle_line.split("=")[1].strip() != ""
    assert (tmp_path / "obstacle_circle.svg").exists()


@pytest.mark.parametrize("scenario", ["tracking", "obstacle"])
def test_evaluate_byte_identical(workdir, tmp_path, scenario, capsys):
    # every file in --out, logs, plots and the resolved config (with the
    # placed obstacle) included, repeats byte for byte
    root, ini = workdir
    args = ["evaluate", "--config", str(ini), "--scenario", scenario]
    args += ["--shape-model", _shape_model_path(workdir)]
    args += ["--control-model", _control_model_path(workdir)]
    if scenario == "obstacle":
        args += ["--baseline-model", _control_model_path(workdir)]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert {"metrics.csv", "resolved_config.ini"} <= set(files)
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
    capsys.readouterr()


def test_rollout_closed_loop(workdir, tmp_path):
    root, ini = workdir
    rc = main(
        [
            "rollout",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--control-model",
            _control_model_path(workdir),
            "--closed-loop",
            "--trajectory",
            "circle",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    log = read_tracking_log_csv(tmp_path / "rollout.csv")
    assert log.n_ticks == 2
    assert np.all(log.actions > -15.0) and np.all(log.actions < 15.0)
    assert log.min_obstacle_dist is None


def test_non_finite_policy_action_is_numeric_failure(workdir, tmp_path, capsys):
    root, ini = workdir
    policy, config = load_control_model(_control_model_path(workdir))
    policy.params.weights[0][0, 0] = np.nan
    save_control_model(tmp_path / "nan_policy.json", policy, config)
    rc = main(
        [
            "rollout",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--control-model",
            str(tmp_path / "nan_policy.json"),
            "--closed-loop",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: closed-loop tick 1: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mode", ["--closed-loop", "--open-loop"])
def test_rollout_byte_identical(workdir, tmp_path, mode, capsys):
    root, ini = workdir
    args = [
        "rollout",
        "--config",
        str(ini),
        "--shape-model",
        _shape_model_path(workdir),
        "--control-model",
        _control_model_path(workdir),
        mode,
        "--trajectory",
        "square",
        "--payload",
        "5",
        "--obstacle",
        "0.02,0.0,0.08",
    ]
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    for name in ("rollout.csv", "resolved_config.ini"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
    capsys.readouterr()


def test_rollout_open_loop_ignores_plant_feedback(workdir, tmp_path):
    root, ini = workdir
    base = [
        "rollout",
        "--config",
        str(ini),
        "--shape-model",
        _shape_model_path(workdir),
        "--open-loop",
        "--trajectory",
        "circle",
    ]
    assert main(base + ["--out", str(tmp_path / "p0")]) == 0
    assert main(base + ["--payload", "0", "--out", str(tmp_path / "p0b")]) == 0
    assert main(base + ["--payload", "5", "--out", str(tmp_path / "p5")]) == 0
    # explicit zero payload equals omitting the flag
    assert (tmp_path / "p0" / "rollout.csv").read_bytes() == (
        tmp_path / "p0b" / "rollout.csv"
    ).read_bytes()
    clean = read_tracking_log_csv(tmp_path / "p0" / "rollout.csv")
    loaded = read_tracking_log_csv(tmp_path / "p5" / "rollout.csv")
    # no feedback: commanded actions identical though the plant drooped
    assert np.array_equal(clean.actions, loaded.actions)
    assert not np.array_equal(clean.tips, loaded.tips)


def test_rollout_obstacle_adds_distance_column(workdir, tmp_path):
    root, ini = workdir
    rc = main(
        [
            "rollout",
            "--config",
            str(ini),
            "--shape-model",
            _shape_model_path(workdir),
            "--open-loop",
            "--obstacle",
            "0.02,0.0,0.08",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    header = (tmp_path / "rollout.csv").read_text().splitlines()[0]
    assert header.endswith(",min_obstacle_dist")


def test_rollout_flag_conflicts_are_usage_errors(workdir, tmp_path, capsys):
    root, ini = workdir
    sm = _shape_model_path(workdir)
    rc = main(
        ["rollout", "--shape-model", sm, "--open-loop", "--closed-loop", "--out", str(tmp_path)]
    )
    assert rc == 2
    rc = main(["rollout", "--shape-model", sm, "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_cli_error_codes(workdir, tmp_path, capsys):
    root, ini = workdir
    sm = _shape_model_path(workdir)
    # closed loop without a control model: config error
    rc = main(
        [
            "rollout",
            "--config",
            str(ini),
            "--shape-model",
            sm,
            "--closed-loop",
            "--out",
            str(tmp_path / "a"),
        ]
    )
    assert rc == 3
    # negative payload: config error
    rc = main(
        [
            "rollout",
            "--config",
            str(ini),
            "--shape-model",
            sm,
            "--open-loop",
            "--payload",
            "-1",
            "--out",
            str(tmp_path / "b"),
        ]
    )
    assert rc == 3
    # missing dataset file: I/O error
    rc = main(
        [
            "train-shape",
            "--config",
            str(ini),
            "--dataset",
            str(tmp_path / "missing.csv"),
            "--out",
            str(tmp_path / "c"),
        ]
    )
    assert rc == 4
    # corrupt model file: clean config error, not a traceback
    bad = tmp_path / "bad_model.json"
    bad.write_text("{not json")
    rc = main(
        [
            "train-shape",
            "--config",
            str(ini),
            "--dataset",
            str(root / "gen" / "dataset.csv"),
            "--init-model",
            str(bad),
            "--out",
            str(tmp_path / "d"),
        ]
    )
    assert rc == 3
    # dataset whose points hold NaN: numeric failure while training
    lines = (root / "gen" / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = "nan"
    nan_ds = tmp_path / "nan.csv"
    nan_ds.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:32]))
    rc = main(
        [
            "train-shape",
            "--config",
            str(ini),
            "--dataset",
            str(nan_ds),
            "--out",
            str(tmp_path / "e"),
        ]
    )
    assert rc == 5
    # one sample leaves nothing to train on after the validation split
    one = tmp_path / "one.csv"
    one.write_text("\n".join(lines[:2]))
    args = ["train-shape", "--config", str(ini), "--dataset", str(one)]
    assert main(args + ["--out", str(tmp_path / "f")]) == 3
    assert "validation split" in capsys.readouterr().err


def _set_params(key, value):
    def tamper(doc):
        doc["params"][key] = value

    return tamper


def _widen_second_layer(doc):
    # its input grows by one: the weights no longer chain
    shape = doc["params"]["weights"][1]["shape"]
    doc["params"]["weights"][1] = array_to_b64(np.zeros((shape[0] + 1, shape[1])))


def _misshape_first_moment(doc):
    doc["params"]["adam_m"][0] = array_to_b64(np.zeros(3))


def _narrow_action_box(doc):
    # the hash is recomputed over the edited robot config, so only the
    # box itself disagrees with the file's robot
    doc["robot_config"]["q_min"] = -3.0
    blob = json.dumps(doc["robot_config"], sort_keys=True).encode("ascii")
    doc["robot_config_hash"] = hashlib.sha256(blob).hexdigest()


# (model, tampering) -> a model file that parses but is not one network
# bound to one robot
TAMPERED_MODELS = {
    "relu_output": ("shape", _set_params("out_activation", "relu")),
    "hidden_slope": ("shape", _set_params("hidden_slope", 0.02)),
    "identity_output": ("shape", _set_params("out_activation", "identity")),
    "widths_do_not_chain": ("shape", _widen_second_layer),
    "input_scale_length": ("shape", _set_params("input_scale", array_to_b64(np.ones(6)))),
    "output_scale_length_1": ("shape", _set_params("output_scale", array_to_b64([1.0]))),
    "adam_moment_shape": ("shape", _misshape_first_moment),
    "control_input_scale_length": (
        "control",
        _set_params("input_scale", array_to_b64(np.ones(4))),
    ),
    "action_box": ("shape", _narrow_action_box),
}


@pytest.mark.parametrize("case", list(TAMPERED_MODELS))
def test_tampered_model_file_is_config_error(workdir, tmp_path, case, capsys):
    root, ini = workdir
    kind, tamper = TAMPERED_MODELS[case]
    path = _shape_model_path if kind == "shape" else _control_model_path
    doc = json.loads(Path(path(workdir)).read_text())
    tamper(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if case == "adam_moment_shape":
        # only a resumed training reads the moments
        args = ["train-shape", "--dataset", str(root / "gen" / "dataset.csv")]
        args += ["--init-model", str(bad)]
    elif kind == "shape":
        args = ["evaluate", "--scenario", "shape", "--shape-model", str(bad)]
    else:
        args = ["rollout", "--closed-loop", "--shape-model", _shape_model_path(workdir)]
        args += ["--control-model", str(bad)]
    capsys.readouterr()
    rc = main(args + ["--config", str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"error: cannot load {kind} model: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_old_control_file_fields_are_ignored(workdir, tmp_path, capsys):
    # older control files carry the segment count and the action box at
    # top level; the robot config owns both, so a box that disagrees with
    # it changes nothing
    root, ini = workdir
    doc = json.loads(Path(_control_model_path(workdir)).read_text())
    doc.update(n_segments=1, q_min=-0.5, q_max=0.5)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    args = ["rollout", "--closed-loop", "--config", str(ini)]
    args += ["--shape-model", _shape_model_path(workdir)]
    for name, path in (("new", _control_model_path(workdir)), ("old", str(old))):
        args_out = ["--control-model", path, "--out", str(tmp_path / name)]
        assert main(args + args_out) == 0
    rollout = (tmp_path / "old" / "rollout.csv").read_bytes()
    assert rollout == (tmp_path / "new" / "rollout.csv").read_bytes()
    capsys.readouterr()


def test_policy_for_another_segment_count_is_config_error(
    workdir, tmp_path, monkeypatch, capsys
):
    # a two-segment policy in a file whose robot config says three
    root, ini = workdir
    rng = np.random.default_rng(0)
    robot = RobotConfig(n_segments=3)
    shape_model = init_shape_model(rng, robot, hidden=(16, 16), solver="rk4")
    save_shape_model(tmp_path / "shape.json", shape_model, robot)
    policy = init_control_model(rng, RobotConfig(n_segments=2), hidden=(16,))
    save_control_model(tmp_path / "policy.json", policy, robot)
    monkeypatch.setenv("SHAPECTL_ROBOT_N_SEGMENTS", "3")
    args = ["rollout", "--closed-loop", "--config", str(ini)]
    args += ["--shape-model", str(tmp_path / "shape.json")]
    args += ["--control-model", str(tmp_path / "policy.json")]
    assert main(args + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: cannot load control model:"
        " policy emits 4 actions, its robot config has 6\n"
    )



@pytest.mark.parametrize("command", ["rollout", "evaluate"])
@pytest.mark.parametrize(
    "env",
    [
        {"SHAPECTL_RUN_DURATION": "-1"},
        {"SHAPECTL_RUN_DURATION": "20", "SHAPECTL_RUN_PERIOD": "10"},
        {"SHAPECTL_RUN_DURATION": "nan"},
        {"SHAPECTL_RUN_PERIOD": "0"},
    ],
)
def test_bad_run_timing_is_config_error(
    workdir, tmp_path, monkeypatch, capsys, command, env
):
    root, ini = workdir
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    args = [
        command,
        "--config",
        str(ini),
        "--shape-model",
        _shape_model_path(workdir),
        "--control-model",
        _control_model_path(workdir),
        "--out",
        str(tmp_path),
    ]
    args += ["--closed-loop"] if command == "rollout" else ["--scenario", "tracking"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: run ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, setting, names",
    [
        ("train-control", "SHAPECTL_CONTROL_LEARNING_RATE=nan", "learning_rate"),
        ("train-control", "SHAPECTL_CONTROL_NOISE_STD=nan", "noise_std"),
        ("generate", "SHAPECTL_ROBOT_MISMATCH_AMPLITUDE=nan", "mismatch_amplitude"),
        ("train-shape", "SHAPECTL_SHAPE_HIDDEN=0", "widths"),
        ("train-control", "SHAPECTL_CONTROL_HIDDEN=0", "widths"),
        ("generate", "SHAPECTL_ROBOT_SEGMENT_LENGTHS=nan", "segment_lengths"),
        ("train-control", "SHAPECTL_CONTROL_HORIZON=0", "horizon"),
        ("generate", "SHAPECTL_ROBOT_U_MAX=inf", "u_max"),
        ("generate", "--n-samples=-1", "n_samples"),
        ("generate", "--seed=-1", "seed"),
        ("train-shape", "SHAPECTL_SHAPE_STEPS_PER_SEGMENT=5", "steps per segment"),
        ("generate", "SHAPECTL_ROBOT_U_MAX=nan", "u_max"),
        ("generate", "SHAPECTL_SHAPE_STEPS_PER_SEGMENT=0", "steps_per_segment"),
        ("generate", "SHAPECTL_SHAPE_SOLVER=midpoint", "solver"),
        ("train-shape", "SHAPECTL_ROBOT_U_MAX=1", "outside the robot config's bounds"),
        ("train-shape", "SHAPECTL_SHAPE_VAL_FRACTION=0.999", "validation split"),
        ("evaluate", "SHAPECTL_RUN_DURATION=0", "0 ticks"),
        ("evaluate", "SHAPECTL_RUN_PERIOD=1e308", "0 ticks"),
    ],
)
def test_bad_numeric_config_is_config_error(
    workdir, tmp_path, monkeypatch, capsys, command, setting, names
):
    root, ini = workdir
    args = [command, "--config", str(ini), "--out", str(tmp_path)]
    if setting.startswith("--"):
        args.append(setting)
    else:
        monkeypatch.setenv(*setting.split("=", 1))
    if command == "train-shape":
        args += ["--dataset", str(root / "gen" / "dataset.csv")]
    if command == "train-control":
        args += ["--shape-model", _shape_model_path(workdir)]
    if command == "evaluate":
        args += ["--shape-model", _shape_model_path(workdir)]
        args += ["--control-model", _control_model_path(workdir)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert len(err.strip().splitlines()) == 1


ONE_ITERATION = "SHAPECTL_CONTROL_ITERATIONS=1"


@pytest.mark.parametrize(
    "command, setting",
    [
        ("generate", "SHAPECTL_ROBOT_U_MAX=1e308"),
        ("train-control", "SHAPECTL_CONTROL_TARGET_SCALE=1e308"),
        ("generate", "SHAPECTL_ROBOT_SEGMENT_LENGTHS=1e300"),
        ("generate", "SHAPECTL_ROBOT_MISMATCH_AMPLITUDE=1e308"),
        # a training step that would leave non-finite weights; with one
        # iteration no later loss reads them
        ("train-shape", "SHAPECTL_SHAPE_LEARNING_RATE=1e308"),
        *(
            ("train-control", f"SHAPECTL_CONTROL_{key}=1e308 {ONE_ITERATION}")
            for key in (
                "LEARNING_RATE",
                "TRACKING_WEIGHT",
                "SHAPE_WEIGHT",
                "TERMINAL_WEIGHT",
                "ACTION_RATE_WEIGHT",
            )
        ),
    ],
)
def test_overflowing_config_is_numeric_failure(
    workdir, tmp_path, monkeypatch, capsys, command, setting
):
    # finite values whose sampling range, simulated backbone or training
    # step overflows
    args = [command, "--config", str(workdir[1]), "--out", str(tmp_path)]
    if command == "train-shape":
        args += ["--dataset", str(workdir[0] / "gen" / "dataset.csv")]
    if command == "train-control":
        args += ["--shape-model", _shape_model_path(workdir)]
    for assignment in setting.split():
        monkeypatch.setenv(*assignment.split("=", 1))
    assert main(args) == 5
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert len(err.strip().splitlines()) == 1


def test_dataset_segment_lengths_must_match_config(workdir, tmp_path, capsys):
    root, ini = workdir
    long_ini = tmp_path / "long.ini"
    long_ini.write_text(
        TINY_INI.replace("n_segments = 1", "n_segments = 1\nsegment_lengths = 0.2")
        .replace("n_samples = 80", "n_samples = 20")
    )
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(long_ini), "--out", str(gen)]) == 0
    capsys.readouterr()
    rc = main(
        [
            "train-shape",
            "--config",
            str(ini),
            "--dataset",
            str(gen / "dataset.csv"),
            "--out",
            str(tmp_path / "ts"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "segment lengths" in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_config_key_is_config_error(workdir, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[robot]\nwheels = 4\n")
    rc = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 3


# the tiny setup with the shortest runs: 2 shape and 1 control iterations,
# one tracking tick per trial; the robot matches the prebuilt models
FUZZ_INI = (
    TINY_INI.replace("iterations = 40", "iterations = 2")
    .replace("iterations = 6", "iterations = 1")
    .replace("n_samples = 80", "n_samples = 20")
    .replace("duration = 1.0", "duration = 0.5")
)

FUZZ_COMMANDS = (
    "generate",
    "train-shape",
    "train-control",
    "evaluate",
    "rollout --closed-loop",
    "rollout --open-loop",
)

FUZZ_KEYS = tuple((section, key) for section, keys in SCHEMA.items() for key in keys)

# edge text of every kind a key can take, plus small numbers so that no
# draw asks for a long run
FUZZ_VALUES = st.one_of(
    st.sampled_from(
        (
            "", " ", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308",
            "0", "-0", "-1", "0.999", "1,2", "0.1,0.1,0.1", ",",
            "shape", "payload", "obstacle", "euler", "helix",
        )
    ),
    st.integers(-2, 3).map(str),
    st.sampled_from((-0.5, 1e-9, 0.5, 2.5)).map(repr),
)


@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    key=st.sampled_from(FUZZ_KEYS),
    value=FUZZ_VALUES,
)
@example(command="train-shape", key=("robot", "u_max"), value="1")
@example(command="train-shape", key=("shape", "val_fraction"), value="0.999")
@example(command="generate", key=("robot", "u_max"), value="1e308")
@example(command="train-control", key=("control", "target_scale"), value="1e308")
@example(command="evaluate", key=("run", "duration"), value="0")
@example(command="evaluate", key=("run", "period"), value="1e308")
@example(command="generate", key=("robot", "segment_lengths"), value="1e308")
@settings(max_examples=30)
def test_any_single_config_value_ends_in_a_documented_exit(
    workdir, command, key, value
):
    # one SHAPECTL_* override per run: a documented exit code, at most one
    # line on stderr, and neither an exception nor a warning out of main
    root, _ = workdir
    name, *flags = command.split()
    args = [name, *flags]
    if name == "train-shape":
        args += ["--dataset", str(root / "gen" / "dataset.csv")]
    if name in ("train-control", "evaluate", "rollout"):
        args += ["--shape-model", _shape_model_path(workdir)]
    if name in ("evaluate", "rollout"):
        args += ["--control-model", _control_model_path(workdir)]
    var = f"{ENV_PREFIX}_{key[0].upper()}_{key[1].upper()}"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        ini = f"{tmp}/fuzz.ini"
        with open(ini, "w") as fh:
            fh.write(FUZZ_INI)
        mp.setenv(var, value)
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")
            rc = main(args + ["--config", ini, "--out", f"{tmp}/out"])
    assert rc in (0, 2, 3, 4, 5), (rc, err.getvalue())
    assert len(err.getvalue().strip().splitlines()) <= 1, err.getvalue()
    assert not caught, [str(w.message) for w in caught]
