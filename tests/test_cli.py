"""End-to-end command-line workflows on a one-segment toy setup."""

import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    array_to_b64,
    joined_model_file,
    model_file_arrays,
    read_metrics_csv,
    read_shape_eval_csv,
    read_tracking_log_csv,
    split_model_file,
)
import shapectl.cli
import shapectl.control_node
from shapectl.cli import main
from shapectl.config import ENV_PREFIX, SCHEMA, load_run_config
from shapectl.control_node import (
    init_control_model,
    load_control_model,
    save_control_model,
)
from shapectl.nn import write_json
from shapectl.reports import read_dataset_csv
from shapectl.robot import RobotConfig, sample_dataset
from shapectl.shape_node import (
    init_shape_model,
    load_shape_model,
    save_shape_model,
    train_shape_node,
)

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


def test_train_shape_reports_on_the_trainers_held_out_rows(
    workdir, tmp_path, monkeypatch, capsys
):
    # the final val RMSE is over exactly the rows the trainer validated
    # and checkpointed on, not over a split the command draws itself
    root, ini = workdir
    seen = {}
    validation_loss = shapectl.shape_node._validation_loss
    evaluate_shape_rmse = shapectl.cli.evaluate_shape_rmse

    def trainer(model, robot, q, *rest):
        seen["trainer"] = q.copy()
        return validation_loss(model, robot, q, *rest)

    def report(model, q, *rest):
        seen["report"] = q.copy()
        return evaluate_shape_rmse(model, q, *rest)

    monkeypatch.setattr(shapectl.shape_node, "_validation_loss", trainer)
    monkeypatch.setattr(shapectl.cli, "evaluate_shape_rmse", report)
    monkeypatch.setenv("SHAPECTL_SHAPE_ITERATIONS", "2")
    args = ["train-shape", "--config", str(ini), "--dataset"]
    assert main(args + [str(root / "gen" / "dataset.csv"), "--out", str(tmp_path)]) == 0
    assert len(seen["report"]) == 8  # 10% of the 80 rows
    assert np.array_equal(seen["report"], seen["trainer"])
    assert f"over {len(seen['report'])} samples" in capsys.readouterr().out


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


def test_train_control_unknown_scenario_is_config_error(
    workdir, tmp_path, monkeypatch, capsys
):
    # the library trains whatever it is given; the CLI alone checks the
    # scenario the user asked for
    monkeypatch.setenv("SHAPECTL_RUN_SCENARIO", "payload")
    args = ["train-control", "--config", str(workdir[1])]
    args += ["--shape-model", _shape_model_path(workdir), "--out", str(tmp_path)]
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == "error: unknown scenario 'payload' for train-control\n"
    assert not (tmp_path / "control_model.json").exists()


LOSS_WEIGHTS = ("TRACKING", "ACTION_RATE", "SHAPE", "TERMINAL", "OBSTACLE")


@pytest.mark.parametrize(
    "scenario, positive, refused",
    [
        ("tracking", (), True),
        ("obstacle", (), True),
        # the obstacle term counts only where there is an obstacle
        ("tracking", ("OBSTACLE",), True),
        ("obstacle", ("OBSTACLE",), False),
    ],
)
def test_train_control_refuses_a_loss_without_terms(
    workdir, tmp_path, monkeypatch, capsys, scenario, positive, refused
):
    monkeypatch.setenv("SHAPECTL_RUN_SCENARIO", scenario)
    monkeypatch.setenv("SHAPECTL_CONTROL_ITERATIONS", "1")
    for key in LOSS_WEIGHTS:
        monkeypatch.setenv(f"SHAPECTL_CONTROL_{key}_WEIGHT", "1" if key in positive else "0")
    args = ["train-control", "--config", str(workdir[1])]
    args += ["--shape-model", _shape_model_path(workdir), "--out", str(tmp_path)]
    capsys.readouterr()
    rc = main(args)
    err = capsys.readouterr().err
    if not refused:
        assert rc == 0 and (tmp_path / "control_model.json").exists()
        return
    assert rc == 3
    assert err == f"error: every {scenario} loss term has zero weight in [control]\n"
    assert not (tmp_path / "control_model.json").exists()
    resolved = load_run_config(tmp_path / "resolved_config.ini")
    assert resolved.get("run", "obstacle") == ()


@pytest.mark.parametrize("scenario", ["tracking", "obstacle"])
def test_train_control_refuses_a_grid_coarser_than_the_observation(
    workdir, tmp_path, monkeypatch, capsys, scenario
):
    # one segment of 4 rk4 steps trains and evaluates as a shape model,
    # but the policy observes 9 backbone points; the refusal comes before
    # the obstacle is placed
    root, ini = workdir
    robot = load_run_config(ini).robot_config()
    model = init_shape_model(
        np.random.default_rng(0), robot, hidden=(8,), solver="rk4", steps_per_segment=4
    )
    path = tmp_path / "coarse.json"
    save_shape_model(path, model, robot)
    monkeypatch.setenv("SHAPECTL_RUN_SCENARIO", scenario)
    out = tmp_path / "out"
    args = ["train-control", "--config", str(ini), "--shape-model", str(path)]
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: the shape model's grid has 4 points, the policy observes 9\n"
    assert not (out / "control_model.json").exists()
    assert load_run_config(out / "resolved_config.ini").get("run", "obstacle") == ()


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
    obstacle_line = [x for x in resolved.splitlines() if x.startswith("obstacle =")][0]
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
    obstacle_line = [x for x in resolved.splitlines() if x.startswith("obstacle =")][0]
    assert obstacle_line.split("=")[1].strip() != ""
    assert (tmp_path / "obstacle_circle.svg").exists()


def test_evaluate_records_the_obstacle_it_places(workdir, tmp_path, monkeypatch, capsys):
    # the placed obstacle lands in resolved_config.ini, and that file
    # alone reruns the evaluation, byte for byte, without placing again
    root, ini = workdir
    args = ["evaluate", "--scenario", "obstacle", "--shape-model"]
    args += [_shape_model_path(workdir), "--control-model", _control_model_path(workdir)]
    assert main(args + ["--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    printed = capsys.readouterr().out.split("obstacle at (")[1].split(")")[0]
    resolved = tmp_path / "a" / "resolved_config.ini"
    center = load_run_config(resolved).obstacle_spec().center
    assert [f"{c:.4f}" for c in center] == printed.split(", ")

    def placed_again(*_):
        raise AssertionError("the recorded obstacle was placed again")

    monkeypatch.setattr(shapectl.cli, "place_obstacle", placed_again)
    assert main(args + ["--config", str(resolved), "--out", str(tmp_path / "b")]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
    capsys.readouterr()


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
    doc = _model_document(_control_model_path(workdir))
    doc["params"]["weights"][0][0, 0] = np.nan
    (tmp_path / "nan_policy.json").write_bytes(_written(doc))
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
    # dataset whose points hold NaN: refused as it is read
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
    assert rc == 3
    # one sample leaves nothing to train on after the validation split
    one = tmp_path / "one.csv"
    one.write_text("\n".join(lines[:2]))
    args = ["train-shape", "--config", str(ini), "--dataset", str(one)]
    assert main(args + ["--out", str(tmp_path / "f")]) == 3
    assert "validation split" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [(5, "nan"), (3, "inf"), (0, "-inf")])
def test_non_finite_dataset_cell_is_config_error(workdir, tmp_path, column, value, capsys):
    # a point or an action that is not a number must not reach training
    root, ini = workdir
    lines = (root / "gen" / "dataset.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[column] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]))
    capsys.readouterr()
    args = ["train-shape", "--config", str(ini), "--dataset", str(bad)]
    assert main(args + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "error: cannot use dataset: dataset row 3 has a non-finite cell\n"


def _model_document(path):
    """The model file's header with each record's array in its place."""
    return model_file_arrays(*split_model_file(Path(path).read_bytes()))


def _written(doc) -> bytes:
    f = io.BytesIO()
    write_json(f, doc)
    return f.getvalue()


def _document_edit(edit):
    # edits the document with its arrays in place of their records and
    # writes it again, so a record taken out takes its bytes with it
    def tamper(path):
        doc = _model_document(path)
        edit(doc)
        return _written(doc)

    return tamper


def _header_edit(edit):
    # edits line 1 of the file and keeps the arrays after it as they are
    def tamper(path):
        doc, payload = split_model_file(Path(path).read_bytes())
        edit(doc)
        return joined_model_file(doc, payload)

    return tamper


def _payload_edit(edit):
    # keeps line 1 and edits the arrays after it
    def tamper(path):
        doc, payload = split_model_file(Path(path).read_bytes())
        return joined_model_file(doc, edit(payload))

    return tamper


def _set_params(key, value):
    def edit(doc):
        doc["params"][key] = value

    return _header_edit(edit)


def _set_field(key, value):
    def edit(doc):
        doc[key] = value

    return _header_edit(edit)


def _set_first_weight_shape(shape):
    def edit(doc):
        doc["params"]["weights"][0]["shape"] = shape

    return _header_edit(edit)


@_header_edit
def _widen_second_layer(doc):
    # as many values in one row: the weights no longer chain
    record = doc["params"]["weights"][1]
    record["shape"] = [1, math.prod(record["shape"])]


@_header_edit
def _shorten_input_scale(doc):
    # the output scale, next in the file, takes the value the input scale gives up
    p = doc["params"]
    p["input_scale"]["shape"][0] -= 1
    p["output_scale"]["shape"][0] += 1


@_header_edit
def _shorten_output_scale_to_1(doc):
    # the input scale, just before it in the file, takes the other values
    p = doc["params"]
    p["input_scale"]["shape"][0] += p["output_scale"]["shape"][0] - 1
    p["output_scale"]["shape"] = [1]


@_header_edit
def _shorten_control_input_scale(doc):
    # the last bias, just before it in the file, takes the value it gives up
    p = doc["params"]
    p["input_scale"]["shape"][0] -= 1
    p["biases"][-1]["shape"][0] += 1


@_header_edit
def _misshape_first_moment(doc):
    record = doc["params"]["adam_m"][0]
    record["shape"] = [math.prod(record["shape"])]


def _set_robot(key, value):
    # the hash is recomputed over the edited robot config, so only the
    # field itself disagrees with the file's robot
    def edit(doc):
        doc["robot_config"][key] = value
        blob = json.dumps(doc["robot_config"], sort_keys=True).encode("ascii")
        doc["robot_config_hash"] = hashlib.sha256(blob).hexdigest()

    return _header_edit(edit)


def _add_policy_adam_state(p):
    # a policy network as control-node-v3 and earlier files held it:
    # with its Adam moments, after one step
    arrays = [a for layer in zip(p["weights"], p["biases"]) for a in layer]
    p.update(
        adam_m=[np.zeros_like(a) for a in arrays],
        adam_v=[np.zeros_like(a) for a in arrays],
        step_count=1,
    )


def _as_v3_control_file(path):
    doc = _model_document(path)
    _add_policy_adam_state(doc["params"])
    return _written({**doc, "format": "control-node-v3"})


def _v2_document(path, tag):
    # the model's document as the -v2 and -v1 layouts held it: also the
    # layer sizes, the network form, the action box and, for a policy,
    # its Adam state and the step's dt and rate_scale, with no output scale
    doc = _model_document(path)
    fixed = ("format", "robot_config", "robot_config_hash", "params")
    fields = {k: v for k, v in doc.items() if k not in fixed}
    robot, p = doc["robot_config"], doc["params"]
    robot.update(q_min=-robot["u_max"], q_max=robot["u_max"])
    if "horizon" in fields:
        fields.update(dt=1.0, rate_scale=1.0)
        _add_policy_adam_state(p)
        p["output_scale"] = None
    sizes = [p["weights"][0].shape[0], *(w.shape[1] for w in p["weights"])]
    blob = json.dumps(robot, sort_keys=True).encode("ascii")
    return {
        "format": doc["format"].rsplit("-", 1)[0] + tag,
        **fields,
        "robot_config": robot,
        "robot_config_hash": hashlib.sha256(blob).hexdigest(),
        "params": {"sizes": sizes, "hidden_slope": 0.01, "out_activation": "tanh", **p},
    }


def _as_v2_file(path):
    return _written(_v2_document(path, "-v2"))


def _as_v1_file(path):
    # one JSON document, each array a base64 record
    return json.dumps(_v2_document(path, "-v1"), default=array_to_b64).encode("ascii")


def _deeply_nested_header(path):
    # a header field nested past the JSON parser's recursion limit
    doc, payload = split_model_file(Path(path).read_bytes())
    line = json.dumps(doc)[:-1] + ', "nested": ' + "[" * 100_000 + "]" * 100_000 + "}"
    return line.encode("ascii") + b"\n" + payload


# (model, tampering, message) -> a model file that is not one network
# bound to one robot, and what the one-line error says
TAMPERED_MODELS = {
    "widths_do_not_chain": ("shape", _widen_second_layer, "do not chain"),
    "input_scale_length": ("shape", _shorten_input_scale, "do not chain"),
    "output_scale_length_1": ("shape", _shorten_output_scale_to_1, "do not chain"),
    "adam_moment_shape": ("shape", _misshape_first_moment, "Adam moments do not match"),
    # the file ends one float64 inside the last moment, which only a
    # resumed training reads
    "adam_moment_data_length": ("shape", _payload_edit(lambda b: b[:-8]), "the arrays take"),
    # a network holds its moments exactly when it has taken a step
    "adam_moments_missing_after_a_step": (
        "shape",
        _document_edit(lambda doc: doc["params"].update(step_count=1, adam_m=[], adam_v=[])),
        "step_count 1 needs one of each parameter's shape",
    ),
    "adam_moments_before_a_step": (
        "shape",
        _set_params("step_count", 0),
        "step_count 0 needs none",
    ),
    "control_input_scale_length": ("control", _shorten_control_input_scale, "do not chain"),
    "action_box": ("shape", _set_robot("q_min", -3.0), "robot config hash mismatch"),
    # integer fields hold JSON integers: no fraction, no bool
    "steps_per_segment_fraction": (
        "shape",
        _set_field("steps_per_segment", 5.9),
        "steps_per_segment must be an integer",
    ),
    "steps_per_segment_bool": (
        "shape",
        _set_field("steps_per_segment", True),
        "steps_per_segment must be an integer",
    ),
    "step_count_bool": ("shape", _set_params("step_count", True), "step_count must be an integer"),
    # Adam's bias correction divides by 1 - b1**step_count
    "step_count_negative": ("shape", _set_params("step_count", -1), "must not be negative"),
    "horizon_fraction": ("control", _set_field("horizon", 2.5), "horizon must be an integer"),
    "n_segments_fraction": (
        "shape",
        _set_robot("n_segments", 2.5),
        "n_segments must be an integer",
    ),
    # a file states every segment length; none is not the default
    "no_segment_lengths": ("shape", _set_robot("segment_lengths", []), "segment_lengths"),
    # lengths and limits are finite JSON numbers: no string, no bool, no Infinity
    "u_max_string": ("shape", _set_robot("u_max", "15"), "u_max must be a number"),
    "u_max_bool": ("shape", _set_robot("u_max", True), "u_max must be a number"),
    # the robot config refuses a non-finite length or limit
    "u_max_infinity": ("shape", _set_robot("u_max", float("inf")), "u_max must be finite"),
    "mismatch_amplitude_string": (
        "shape",
        _set_robot("mismatch_amplitude", "0.1"),
        "mismatch_amplitude must be a number",
    ),
    "segment_length_string": (
        "shape",
        _set_robot("segment_lengths", ["0.1"]),
        "segment length must be a number",
    ),
    # the header's shapes say how many bytes follow it, to the byte
    "payload_one_byte_short": ("shape", _payload_edit(lambda b: b[:-1]), "the arrays take"),
    "payload_one_float64_too_many": (
        "control",
        _payload_edit(lambda b: b + bytes(8)),
        "the arrays take",
    ),
    # refused from the header, before 8 TiB is allocated
    "shape_beyond_the_file": ("shape", _set_first_weight_shape([2**40]), "the arrays take"),
    "negative_size": ("shape", _set_first_weight_shape([-1, 16]), "not a list of sizes"),
    "deeply_nested_header": ("shape", _deeply_nested_header, "nests deeper than the parser"),
    "v1_file": ("shape", _as_v1_file, "not a shape model file (shape-node-v3)"),
    "v1_control_file": ("control", _as_v1_file, "not a control model file (control-node-v4)"),
    "v2_file": ("shape", _as_v2_file, "not a shape model file (shape-node-v3)"),
    "v2_control_file": ("control", _as_v2_file, "not a control model file (control-node-v4)"),
    # a policy file with Adam state, as control-node-v3 wrote it
    "v3_control_file": (
        "control",
        _as_v3_control_file,
        "not a control model file (control-node-v4)",
    ),
}


@pytest.mark.parametrize("case", list(TAMPERED_MODELS))
def test_tampered_model_file_is_config_error(workdir, tmp_path, case, capsys):
    root, ini = workdir
    kind, tamper, message = TAMPERED_MODELS[case]
    path = _shape_model_path if kind == "shape" else _control_model_path
    bad = tmp_path / "bad.json"
    bad.write_bytes(tamper(path(workdir)))
    if kind == "shape":
        runs = [["evaluate", "--scenario", "shape", "--shape-model", str(bad)]]
        if case.startswith(("adam_moment", "step_count_negative")):
            # a resumed training reads the moments; every load checks them
            resume = ["train-shape", "--dataset", str(root / "gen" / "dataset.csv")]
            runs.append(resume + ["--init-model", str(bad)])
    else:
        args = ["rollout", "--closed-loop", "--shape-model", _shape_model_path(workdir)]
        runs = [args + ["--control-model", str(bad)]]
    for args in runs:
        capsys.readouterr()
        rc = main(args + ["--config", str(ini), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, args[0]
        assert err.startswith(f"error: cannot load {kind} model: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err, err


def _key_paths(obj, path=()):
    # the path of every key in a document, each record's "shape" included
    if isinstance(obj, np.ndarray):
        return [path + ("shape",)]
    if isinstance(obj, dict):
        return [q for k, v in obj.items() for q in [path + (k,), *_key_paths(v, path + (k,))]]
    if isinstance(obj, list):
        return [q for i, v in enumerate(obj) for q in _key_paths(v, path + (i,))]
    return []


def _without(doc, path):
    # the document with the key at ``path`` taken out; a record that
    # loses its "shape" is an empty object, and its array goes with it
    doc = copy.deepcopy(doc)
    *up, key = path
    parent = doc
    for k in up[:-1] if key == "shape" else up:
        parent = parent[k]
    if key == "shape":
        parent[up[-1]] = {}
    else:
        del parent[key]
    return doc


class _ReadKeys(dict):
    """A header object that notes the path of each key a load reads."""

    def __init__(self, obj, path, seen):
        super().__init__((k, _reading(v, path + (k,), seen)) for k, v in obj.items())
        self.path, self.seen = path, seen

    def __getitem__(self, key):
        self.seen.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(self.path + (key,))
        return super().get(key, default)


def _reading(obj, path, seen):
    if isinstance(obj, dict):
        return _ReadKeys(obj, path, seen)
    if isinstance(obj, list):
        return [_reading(v, path + (i,), seen) for i, v in enumerate(obj)]
    return obj


@pytest.mark.parametrize("kind", ["shape", "control"])
def test_every_header_key_is_read(workdir, tmp_path, monkeypatch, kind, capsys):
    # a load reads every key a save writes, and a file missing any one of
    # them, at any level, is refused: a record's array leaves the file
    # with its key, so only the missing key can make the load refuse
    root, ini = workdir
    path = _shape_model_path(workdir) if kind == "shape" else _control_model_path(workdir)
    load = load_shape_model if kind == "shape" else load_control_model
    doc = _model_document(path)
    assert _written(doc) == Path(path).read_bytes()
    written = _key_paths(doc)
    # top level, robot and network keys, then one record per array: the
    # trained shape model's Adam state is in its file, and a policy file
    # holds none
    if kind == "shape":
        assert doc["params"]["adam_m"] and doc["params"]["adam_v"]
    else:
        assert list(doc["params"]) == ["weights", "biases", "input_scale", "output_scale"]
    assert len(written) == {"shape": 6 + 4 + 7 + 20, "control": 5 + 4 + 4 + 6}[kind]

    seen = set()
    read_json = shapectl.shape_node.read_json
    with monkeypatch.context() as m:
        m.setattr(shapectl.shape_node, "read_json", lambda f: _reading(read_json(f), (), seen))
        load(path)
    assert {q for q in written if q[-1] != "shape"} <= seen

    if kind == "shape":
        args = ["evaluate", "--scenario", "shape"]
    else:
        args = ["rollout", "--closed-loop", "--shape-model", _shape_model_path(workdir)]
    bad = tmp_path / "bad.json"
    for key in written:
        bad.write_bytes(_written(_without(doc, key)))
        with pytest.raises(ValueError):
            load(bad)
        capsys.readouterr()
        argv = args + [f"--{kind}-model", str(bad), "--config", str(ini)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3, key
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {kind} model: "), (key, err)
        assert err.count("\n") == 1 and "Traceback" not in err, key


def test_only_a_resumed_training_loads_the_adam_moments(workdir, tmp_path, monkeypatch):
    # evaluate, train-control and rollout load their models without the
    # moments; train-shape --init-model loads the shape model's, and a
    # policy file holds no step count or moments to load
    root, ini = workdir
    loaded = []

    def spy(load, kind):
        def wrapper(path, **kwargs):
            model, config = load(path, **kwargs)
            p = model.params
            loaded.append((kind, len(p.adam_m), len(p.adam_v), p.step_count))
            return model, config

        return wrapper

    monkeypatch.setattr(shapectl.cli, "load_shape_model", spy(load_shape_model, "shape"))
    monkeypatch.setattr(shapectl.cli, "load_control_model", spy(load_control_model, "control"))
    monkeypatch.setenv("SHAPECTL_CONTROL_ITERATIONS", "1")
    monkeypatch.setenv("SHAPECTL_SHAPE_ITERATIONS", "1")
    sm = ["--shape-model", _shape_model_path(workdir)]
    both = sm + ["--control-model", _control_model_path(workdir)]
    commands = {
        "evaluate shape": ["evaluate", "--scenario", "shape", *sm],
        "evaluate tracking": ["evaluate", "--scenario", "tracking", *both],
        "train-control": ["train-control", *sm],
        "rollout": ["rollout", "--closed-loop", *both],
        "train-shape --init-model": [
            "train-shape", "--dataset", str(root / "gen" / "dataset.csv"),
            "--init-model", _shape_model_path(workdir),
        ],
    }
    held = {}
    for name, args in commands.items():
        loaded.clear()
        out = tmp_path / name.replace(" ", "_")
        assert main(args + ["--config", str(ini), "--out", str(out)]) == 0, name
        held[name] = list(loaded)
    assert held == {
        "evaluate shape": [("shape", 0, 0, 40)],
        "evaluate tracking": [("shape", 0, 0, 40), ("control", 0, 0, 0)],
        "train-control": [("shape", 0, 0, 40)],
        "rollout": [("shape", 0, 0, 40), ("control", 0, 0, 0)],
        "train-shape --init-model": [("shape", 6, 6, 40)],
    }


def test_init_model_resumes_with_the_saved_moments(workdir, tmp_path, monkeypatch):
    # the CLI's resumed training equals the library's on the saved
    # moments, bit for bit
    root, ini = workdir
    monkeypatch.setenv("SHAPECTL_SHAPE_ITERATIONS", "3")
    args = ["train-shape", "--config", str(ini), "--dataset", str(root / "gen" / "dataset.csv")]
    args += ["--init-model", _shape_model_path(workdir), "--out", str(tmp_path / "cli")]
    assert main(args) == 0
    cfg = load_run_config(ini, {"SHAPECTL_SHAPE_ITERATIONS": "3"})
    robot = cfg.robot_config()
    model, _ = load_shape_model(_shape_model_path(workdir), resume=True)
    assert model.params.adam_m and model.params.step_count == 40
    q, points = read_dataset_csv(root / "gen" / "dataset.csv", robot)
    model, _ = train_shape_node(q, points, cfg.shape_train_config(), robot, model=model)
    assert model.params.step_count == 43
    save_shape_model(tmp_path / "library.json", model, robot)
    want = (tmp_path / "library.json").read_bytes()
    assert (tmp_path / "cli" / "shape_model.json").read_bytes() == want


def test_old_control_file_fields_are_ignored(workdir, tmp_path, capsys):
    # a segment count and an action box at top level, where early policy
    # files kept them, are ignored: the robot config owns both, so a box
    # that disagrees with it changes nothing
    root, ini = workdir
    doc, payload = split_model_file(Path(_control_model_path(workdir)).read_bytes())
    doc.update(n_segments=1, q_min=-0.5, q_max=0.5)
    old = tmp_path / "old.json"
    old.write_bytes(joined_model_file(doc, payload))
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
