"""Command line interface.

Subcommands cover the full workflow: ``generate`` simulates a dataset,
``train-shape`` fits the shape model to it, ``train-control`` trains the
policy against the frozen shape model, ``evaluate`` runs the standard
benchmark scenarios and prints a metrics table, and ``rollout`` runs a
single tracking episode.  Every command accepts ``--config`` (INI file),
``--seed``, and ``--out``; environment variables named
``SHAPECTL_<SECTION>_<KEY>`` override file values key by key, and CLI
flags override both.  The resolved configuration is written into the
output directory so any run can be reproduced from its artifacts alone.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 I/O
error, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, config_errors, load_run_config
from .control_node import (
    ControlNodeModel,
    TrackingLog,
    closed_loop_track,
    count_violations,
    evaluate_tracking,
    ik_solve,
    init_control_model,
    load_control_model,
    place_obstacle,
    save_control_model,
    tick_count,
    train_control_node,
)
from .reports import (
    MetricsRow,
    MetricsTable,
    read_dataset_csv,
    read_shape_eval_csv,
    read_tracking_log_csv,
    svg_path_overlay,
    write_dataset_csv,
    write_metrics_csv,
    write_shape_eval_csv,
    write_table,
    write_tracking_log_csv,
)
from .robot import (
    PAYLOAD_MAX_GRAMS,
    TRAJECTORY_KINDS,
    ObstacleSpec,
    RobotConfig,
    per_axis_error_mm,
    reference_trajectory,
    sample_dataset,
)
from .shape_node import (
    ShapeNodeModel,
    check_dataset,
    check_grid,
    evaluate_shape_rmse,
    init_shape_model,
    load_shape_model,
    predict_shape_batch,
    robot_config_hash,
    save_shape_model,
    train_shape_node,
    validation_split,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

TRACKING_KINDS = ("circle", "ellipse", "s_shape", "square")
OBSTACLE_KINDS = ("circle", "square")
PAYLOAD_GRAMS = (0.0, 5.0, 10.0, 15.0, 20.0)
SHAPE_EVAL_TRIALS = 50
TRACKING_TRIALS = 5


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve(args) -> tuple[RunConfig, Path]:
    """Config from defaults, file, environment, then CLI flags."""
    cfg = load_run_config(args.config, os.environ)
    if args.seed is not None:
        cfg.set_raw("run", "seed", str(args.seed))
    for flag, section, key in (
        ("n_samples", "run", "n_samples"),
        ("scenario", "run", "scenario"),
        ("trajectory", "run", "trajectory"),
        ("payload", "run", "payload_grams"),
        ("obstacle", "run", "obstacle"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.set_raw(section, key, str(value))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _write_resolved(cfg: RunConfig, out: Path) -> None:
    (out / "resolved_config.ini").write_text(cfg.resolved_text(), encoding="utf-8")


def _check_kind(kind: str) -> str:
    if kind not in TRAJECTORY_KINDS:
        raise ConfigError(
            f"unknown trajectory {kind!r}; pick one of {', '.join(TRAJECTORY_KINDS)}"
        )
    return kind


def _load_model(load, kind: str, path, robot: RobotConfig):
    """``load(path)``'s model, which must be bound to ``robot``.

    ``kind`` ("shape" or "control") names the model in error messages.
    """
    try:
        model, saved = load(path)
    except ValueError as exc:
        raise ConfigError(f"cannot load {kind} model: {exc}") from exc
    if robot_config_hash(saved) != robot_config_hash(robot):
        raise ConfigError(f"{kind} model was trained for a different robot config")
    return model


def _run_timing(cfg: RunConfig) -> tuple[float, float]:
    """The run's (duration, period), checked before any episode uses them."""
    duration = cfg.get("run", "duration")
    period = cfg.get("run", "period")
    if not (np.isfinite(period) and period > 0.0):
        raise ConfigError(f"run period must be finite and positive, got {period:g}")
    if not (np.isfinite(duration) and 0.0 <= duration <= period):
        raise ConfigError(
            f"run duration must lie in [0, period] = [0, {period:g}], got {duration:g}"
        )
    return duration, period


def _ensure_obstacle(cfg: RunConfig, shape_model: ShapeNodeModel, robot: RobotConfig):
    """Obstacle from config, or placed on the swept body and recorded
    back into the config so the resolved file reproduces the run."""
    spec = cfg.obstacle_spec()
    if spec is None:
        kind = _check_kind(cfg.get("run", "trajectory"))
        center = place_obstacle(shape_model, robot, kind, period=_run_timing(cfg)[1])
        cfg.values[("run", "obstacle")] = tuple(float(v) for v in center)
        spec = cfg.obstacle_spec()
    return spec


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    cfg, out = _resolve(args)
    _write_resolved(cfg, out)
    robot = cfg.robot_config()
    n = cfg.get("run", "n_samples")
    if n < 1:
        raise ConfigError(f"run n_samples must be at least 1, got {n}")
    # the dataset grid is the one the shape model will integrate
    steps = cfg.get("shape", "steps_per_segment")
    with config_errors("shape grid"):
        check_grid(cfg.get("shape", "solver"), steps)
    seed = cfg.get("run", "seed")
    q, points = sample_dataset(
        robot, n, np.random.default_rng(seed), points_per_segment=steps
    )
    path = out / "dataset.csv"
    write_dataset_csv(path, q, points, robot)
    print(f"wrote {n} samples (seed {seed}) to {path}")
    return EXIT_OK


def cmd_train_shape(args) -> int:
    cfg, out = _resolve(args)
    _write_resolved(cfg, out)
    robot = cfg.robot_config()
    try:
        q, points = read_dataset_csv(args.dataset, robot)
    except ValueError as exc:
        raise ConfigError(f"cannot use dataset: {exc}") from exc
    train_cfg = cfg.shape_train_config()
    if args.init_model is not None:
        model = _load_model(load_shape_model, "shape", args.init_model, robot)
    else:
        with config_errors("shape model config"):
            model = init_shape_model(
                np.random.default_rng(train_cfg.seed + 1),
                robot,
                hidden=cfg.get("shape", "hidden"),
                solver=cfg.get("shape", "solver"),
                steps_per_segment=cfg.get("shape", "steps_per_segment"),
            )
    try:
        check_dataset(model, robot, q, points)
        # the same held-out split the trainer uses, reported on below
        val_idx, _ = validation_split(
            len(q), train_cfg.val_fraction, np.random.default_rng(train_cfg.seed)
        )
    except ValueError as exc:
        raise ConfigError(f"cannot use dataset: {exc}") from exc
    t0 = time.monotonic()
    model, history = train_shape_node(q, points, train_cfg, robot, model=model)
    minutes = (time.monotonic() - t0) / 60.0
    save_shape_model(out / "shape_model.json", model, robot)
    write_table(
        out / "shape_history.csv", ["iteration", "train_loss", "val_loss"], history
    )
    res = evaluate_shape_rmse(model, q[val_idx], points[val_idx], robot)
    rmse = res.rmse_mm
    print(f"trained {len(history)} iterations in {minutes:.1f} min")
    print(f"final train loss {history[-1][1]:.8f}")
    print(
        f"final val RMSE (mm): x={rmse[0]:.4f} y={rmse[1]:.4f} z={rmse[2]:.4f}"
        f" over {res.n_samples} samples"
    )
    print(f"wrote {out / 'shape_model.json'}")
    return EXIT_OK


def cmd_train_control(args) -> int:
    cfg, out = _resolve(args)
    robot = cfg.robot_config()
    shape_model = _load_model(load_shape_model, "shape", args.shape_model, robot)
    scenario = cfg.get("run", "scenario")
    if scenario not in ("tracking", "obstacle"):
        raise ConfigError(f"unknown scenario {scenario!r} for train-control")
    obstacle = _ensure_obstacle(cfg, shape_model, robot) if scenario == "obstacle" else None
    _write_resolved(cfg, out)
    train_cfg = cfg.control_train_config()
    loss_cfg = cfg.control_loss_config()
    with config_errors("control model config"):
        model = init_control_model(
            np.random.default_rng(train_cfg.seed + 1),
            robot,
            hidden=cfg.get("control", "hidden"),
            horizon=cfg.get("control", "horizon"),
            dt=cfg.get("control", "dt"),
            rate_scale=cfg.get("control", "rate_scale"),
        )
    t0 = time.monotonic()
    model, history = train_control_node(
        shape_model,
        robot,
        train_cfg,
        loss_cfg,
        scenario=scenario,
        obstacle=obstacle,
        model=model,
    )
    minutes = (time.monotonic() - t0) / 60.0
    save_control_model(out / "control_model.json", model, robot)
    write_table(out / "control_history.csv", ["iteration", "train_loss"], history)
    if obstacle is not None:
        c = obstacle.center
        print(f"obstacle at ({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f})")
    print(f"trained {len(history)} iterations in {minutes:.1f} min")
    print(f"final train loss {history[-1][1]:.6f}")
    print(f"wrote {out / 'control_model.json'}")
    return EXIT_OK


@dataclass
class _Trials:
    """What the seeded tracking trials of one evaluation share."""

    robot: RobotConfig
    shape_model: ShapeNodeModel
    policy: ControlNodeModel
    out: Path
    seed: int
    duration: float
    period: float
    noise_std: float

    def starts(self, kinds: tuple[str, ...]) -> dict[str, np.ndarray]:
        """Each kind's start action, from one lock-step IK solve for the
        references at t = 0 of all ``kinds``."""
        length = self.robot.total_length
        goals = [reference_trajectory(k, 0.0, length, self.period) for k in kinds]
        q = ik_solve(self.shape_model, self.robot, np.array(goals))
        return dict(zip(kinds, q))

    def run(
        self,
        prefix: str,
        policy: ControlNodeModel,
        kind: str,
        q_start: np.ndarray,
        payload_grams: float = 0.0,
        obstacle: ObstacleSpec | None = None,
    ) -> list[TrackingLog]:
        """One runner call for all trials, from ``q_start``; trial i uses
        seed + i, writes ``<prefix>_trial{i}.csv``, and its log is read
        back from there."""
        logs = closed_loop_track(
            policy,
            self.shape_model,
            self.robot,
            kind,
            [np.random.default_rng(self.seed + i) for i in range(TRACKING_TRIALS)],
            duration=self.duration,
            period=self.period,
            payload_grams=payload_grams,
            obstacle=obstacle,
            noise_std=self.noise_std,
            q_start=q_start,
        )
        paths = []
        for i, log in enumerate(logs):
            path = self.out / f"{prefix}_trial{i}.csv"
            write_tracking_log_csv(path, log)
            paths.append(path)
        return [read_tracking_log_csv(p) for p in paths]

    def reference(self, kind: str) -> np.ndarray:
        """The reference path sampled densely for plotting."""
        times = np.linspace(0.0, self.period, 401)
        return reference_trajectory(kind, times, self.robot.total_length, self.period)


def _trials(cfg: RunConfig, out: Path, args) -> _Trials:
    """Models and run settings for a tracking-style evaluation."""
    robot = cfg.robot_config()
    shape_model = _load_model(load_shape_model, "shape", args.shape_model, robot)
    if args.control_model is None:
        scenario = cfg.get("run", "scenario")
        raise ConfigError(f"{scenario} evaluation needs --control-model")
    policy = _load_model(load_control_model, "control", args.control_model, robot)
    duration, period = _run_timing(cfg)
    if tick_count(duration, period) == 0:
        raise ConfigError(
            f"run duration {duration:g} at period {period:g} gives 0 ticks;"
            f" {cfg.get('run', 'scenario')} evaluation needs at least one"
        )
    return _Trials(
        robot=robot,
        shape_model=shape_model,
        policy=policy,
        out=out,
        seed=cfg.get("run", "seed"),
        duration=duration,
        period=period,
        noise_std=cfg.get("control", "noise_std"),
    )


def _tracking_rows(name: str, logs: list[TrackingLog], rows: list[MetricsRow]):
    """Append one metrics row per axis for the pooled logs."""
    m = evaluate_tracking(logs)
    for j, axis in enumerate("xyz"):
        rows.append(
            MetricsRow(name, axis, float(m.rmse_mm[j]), float(m.std_mm[j]), len(logs))
        )


def _eval_shape(cfg: RunConfig, out: Path, args) -> MetricsTable:
    _write_resolved(cfg, out)
    robot = cfg.robot_config()
    model = _load_model(load_shape_model, "shape", args.shape_model, robot)
    seed = cfg.get("run", "seed")
    draws = [
        sample_dataset(
            robot,
            1,
            np.random.default_rng(seed + i),
            points_per_segment=model.steps_per_segment,
        )
        for i in range(SHAPE_EVAL_TRIALS)
    ]
    q = np.concatenate([d[0] for d in draws])
    truth = np.concatenate([d[1] for d in draws])
    pred = predict_shape_batch(model, q, robot)
    write_shape_eval_csv(out / "shape_eval.csv", truth, pred)
    t, p = read_shape_eval_csv(out / "shape_eval.csv")
    rmse, std = per_axis_error_mm(p - t)
    rows = [
        MetricsRow("shape", axis, float(rmse[j]), float(std[j]), SHAPE_EVAL_TRIALS)
        for j, axis in enumerate("xyz")
    ]
    side = np.column_stack  # x-z side view shows the backbone bending
    svg_path_overlay(
        out / "shape_eval.svg",
        [
            ("simulated", side([truth[0, :, 0], truth[0, :, 2]])),
            ("model", side([p[0, :, 0], p[0, :, 2]])),
        ],
        "backbone, first evaluation sample",
    )
    return MetricsTable(rows=rows)


def _eval_tracking(cfg: RunConfig, out: Path, args) -> MetricsTable:
    _write_resolved(cfg, out)
    trials = _trials(cfg, out, args)
    rows: list[MetricsRow] = []
    starts = trials.starts(TRACKING_KINDS)
    for kind in TRACKING_KINDS:
        logs = trials.run(f"track_{kind}", trials.policy, kind, starts[kind])
        _tracking_rows(kind, logs, rows)
        svg_path_overlay(
            out / f"track_{kind}.svg",
            [("reference", trials.reference(kind)), ("achieved", logs[0].tips)],
            f"{kind} tracking, trial 0",
        )
    return MetricsTable(rows=rows)


def _eval_payload(cfg: RunConfig, out: Path, args) -> MetricsTable:
    _write_resolved(cfg, out)
    trials = _trials(cfg, out, args)
    kind = "helix"
    rows: list[MetricsRow] = []
    first_logs = {}
    q_start = trials.starts((kind,))[kind]
    for grams in PAYLOAD_GRAMS:
        logs = trials.run(
            f"payload_{grams:g}g", trials.policy, kind, q_start, payload_grams=grams
        )
        first_logs[grams] = logs[0]
        err = np.concatenate([log.errors for log in logs], axis=0)
        norms = np.sqrt((err * err).sum(axis=1))
        rows.append(
            MetricsRow(
                f"payload_{grams:g}g",
                "xyz",
                float(np.sqrt((norms * norms).mean()) * 1000.0),
                float(norms.std() * 1000.0),
                TRACKING_TRIALS,
            )
        )
    svg_path_overlay(
        out / "payload_helix.svg",
        [
            ("reference", trials.reference(kind)),
            ("0 g", first_logs[PAYLOAD_GRAMS[0]].tips),
            ("20 g", first_logs[PAYLOAD_GRAMS[-1]].tips),
        ],
        "helix tracking under payload, trial 0",
    )
    return MetricsTable(rows=rows)


def _eval_obstacle(cfg: RunConfig, out: Path, args) -> MetricsTable:
    trials = _trials(cfg, out, args)
    baseline = (
        _load_model(load_control_model, "control", args.baseline_model, trials.robot)
        if args.baseline_model is not None
        else None
    )
    obstacle = _ensure_obstacle(cfg, trials.shape_model, trials.robot)
    _write_resolved(cfg, out)
    rows: list[MetricsRow] = []
    summary = []
    starts = trials.starts(OBSTACLE_KINDS)
    for kind in OBSTACLE_KINDS:
        for label, m in (("", trials.policy), ("baseline_", baseline)):
            if m is None:
                continue
            logs = trials.run(
                f"obstacle_{label}{kind}", m, kind, starts[kind], obstacle=obstacle
            )
            _tracking_rows(label + kind, logs, rows)
            violations = sum(count_violations(log, obstacle) for log in logs)
            ticks = sum(log.n_ticks for log in logs)
            summary.append((label + kind, violations, ticks))
            if not label:
                svg_path_overlay(
                    out / f"obstacle_{kind}.svg",
                    [("reference", trials.reference(kind)), ("achieved", logs[0].tips)],
                    f"{kind} with obstacle, trial 0",
                    marks=[
                        (
                            float(obstacle.center[0]),
                            float(obstacle.center[1]),
                            float(np.sqrt(obstacle.threshold_sq)),
                        )
                    ],
                )
    c = obstacle.center
    print(
        f"obstacle at ({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f}),"
        f" threshold {np.sqrt(obstacle.threshold_sq) * 1000.0:.1f} mm"
    )
    for name, violations, ticks in summary:
        print(f"{name}: {violations} violation ticks of {ticks}")
    return MetricsTable(rows=rows)


# each writes the resolved config, the obstacle one once it has placed
# its obstacle
_EVALUATIONS = {
    "shape": _eval_shape,
    "tracking": _eval_tracking,
    "obstacle": _eval_obstacle,
    "payload": _eval_payload,
}


def cmd_evaluate(args) -> int:
    cfg, out = _resolve(args)
    scenario = cfg.get("run", "scenario")
    if scenario not in _EVALUATIONS:
        raise ConfigError(f"unknown evaluation scenario {scenario!r}")
    table = _EVALUATIONS[scenario](cfg, out, args)
    write_metrics_csv(out / "metrics.csv", table)
    print(table.format_table())
    print(f"wrote {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    cfg, out = _resolve(args)
    robot = cfg.robot_config()
    shape_model = _load_model(load_shape_model, "shape", args.shape_model, robot)
    kind = _check_kind(cfg.get("run", "trajectory"))
    obstacle = cfg.obstacle_spec()
    _write_resolved(cfg, out)
    duration, period = _run_timing(cfg)
    payload = cfg.get("run", "payload_grams")
    if not 0.0 <= payload <= PAYLOAD_MAX_GRAMS:
        raise ConfigError(
            f"payload must lie in [0, {PAYLOAD_MAX_GRAMS:g}] g, got {payload:g}"
        )
    if args.closed_loop:
        if args.control_model is None:
            raise ConfigError("closed-loop rollout needs --control-model")
        policy = _load_model(load_control_model, "control", args.control_model, robot)
        mode = "closed-loop"
    else:
        policy, mode = None, "open-loop"
    (log,) = closed_loop_track(
        policy,
        shape_model,
        robot,
        kind,
        [np.random.default_rng(cfg.get("run", "seed"))],
        duration=duration,
        period=period,
        payload_grams=payload,
        obstacle=obstacle,
        noise_std=cfg.get("control", "noise_std"),
    )
    path = out / "rollout.csv"
    write_tracking_log_csv(path, log)
    if log.n_ticks > 0:
        m = evaluate_tracking(read_tracking_log_csv(path))
        print(
            f"{mode} {kind}: {m.n_ticks} ticks,"
            f" aggregate RMSE {m.aggregate_rmse_mm:.3f} mm"
        )
    else:
        print(f"{mode} {kind}: 0 ticks")
    if obstacle is not None:
        print(f"violation ticks: {count_violations(log, obstacle)}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapectl",
        description="Continuum-robot shape estimation and control workflows.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="master RNG seed")
    common.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="simulate a dataset")
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-shape", parents=[common], help="fit the shape model")
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.add_argument("--init-model", help="resume from a saved shape model")
    p.set_defaults(func=cmd_train_shape)

    p = sub.add_parser("train-control", parents=[common], help="train the policy")
    p.add_argument("--shape-model", required=True, help="saved shape model")
    p.add_argument("--scenario", choices=("tracking", "obstacle"))
    p.set_defaults(func=cmd_train_control)

    p = sub.add_parser("evaluate", parents=[common], help="run benchmark scenarios")
    p.add_argument("--shape-model", required=True, help="saved shape model")
    p.add_argument("--control-model", help="saved control model")
    p.add_argument("--baseline-model", help="obstacle scenario comparison model")
    p.add_argument("--scenario", choices=tuple(_EVALUATIONS))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rollout", parents=[common], help="run one tracking episode")
    p.add_argument("--shape-model", required=True, help="saved shape model")
    p.add_argument("--control-model", help="saved control model")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--open-loop", action="store_true")
    mode.add_argument("--closed-loop", action="store_true")
    p.add_argument("--trajectory", choices=TRAJECTORY_KINDS)
    p.add_argument("--payload", type=float, help="payload mass in grams")
    p.add_argument("--obstacle", help="obstacle center as x,y,z")
    p.set_defaults(func=cmd_rollout)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # non-finite values are caught where they matter and reported in
        # one line, so numpy's own warnings would only repeat them
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
