"""Full-scale acceptance suite: numeric oracles plus end-to-end benchmarks.

Each numbered test prints a single PASS/FAIL line on the real stdout so
the verdict survives output capture.  The session fixtures drive the
installed ``shapectl`` command line at benchmark scale -- four 10k-step
shape trainings, two policy trainings, and every evaluation scenario --
so the whole file takes several hours on one core.  Quick development
runs should deselect it (``pytest --ignore=tests/test_acceptance.py``).
"""

import os
import shutil
import subprocess
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import shapectl.autodiff as ad
from helpers import (
    arc_backbone,
    fd_grad_at,
    loglog_slope,
    read_metrics_csv,
    read_tracking_log_csv,
    rel_err,
    sample_coords,
)
from shapectl.autodiff import Tape
from shapectl.config import load_run_config
from shapectl.control_node import (
    ControlLossConfig,
    control_loss,
    evaluate_tracking,
    closed_loop_track,
    init_control_model,
    rollout_policy,
)
from shapectl.nn import init_mlp, mlp_forward
from shapectl.odeint import (
    SOLVER_KINDS,
    IntegrationGrid,
    integrate,
    integrate_batch_masked,
    masked_step_counts,
)
from shapectl.reports import read_dataset_csv
from shapectl.robot import (
    ObstacleSpec,
    RobotConfig,
    action_to_curvature,
    forward_kinematics,
)
from shapectl.shape_node import (
    evaluate_shape_rmse,
    init_shape_model,
    load_shape_model,
    rollout_shape,
    shape_loss_tensor,
    tip_jacobian,
)

SHAPECTL = shutil.which("shapectl")

SEGMENT_COUNTS = (1, 2, 3, 4)
SHAPE_RMSE_LIMITS_MM = {1: 1.0, 2: 1.0, 3: 2.5, 4: 4.0}
TRACKING_LIMITS_MM = {"circle": 10.0, "square": 10.0, "ellipse": 10.0, "s_shape": 6.0}
PAYLOAD_GRAMS = (0, 5, 10, 15, 20)
N_TRIALS = 5
# policy budget sized so one training plus its evaluation stays under an
# hour on a single desktop core
CONTROL_BATCH = 64
CONTROL_ITERATIONS = 2200


_CAPTURE_MANAGER = None


@pytest.fixture(scope="session", autouse=True)
def _capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE_MANAGER = None


def _console(line: str) -> None:
    """Print past pytest's output capture so verdicts reach the log."""
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc} [{detail}]"
    _console(line)
    assert ok, line


def _note(msg: str) -> None:
    _console(f"[acceptance] {msg}")


def run_cli(args, env: dict | None = None) -> str:
    """Run one installed-CLI command, failing loudly on a nonzero exit."""
    cmd = [SHAPECTL] + [str(a) for a in args]
    environ = dict(os.environ)
    if env:
        environ.update(env)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=environ)
    if proc.returncode != 0:
        raise AssertionError(
            f"command exited {proc.returncode}: {' '.join(cmd)}\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc.stdout


def _sampled_fd_error(rng, arrays, grads, loss_fn, per_array: int) -> float:
    """Worst relative gap between taped gradients and central differences
    over a random sample of entries from every parameter array."""
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        for idx in sample_coords(rng, arr.shape, per_array):
            fd = fd_grad_at(loss_fn, arr, idx)
            worst = max(worst, rel_err(grad[idx], fd))
    return worst


# ---------------------------------------------------------------------------
# criteria 1-4: numeric oracles, no trained artifacts involved


def test_criterion_1_gradient_oracle(rng):
    t0 = time.perf_counter()
    probes = []

    # (a) dense 7-256-256-7 network under a sum-of-squares head
    params = init_mlp(rng, [7, 256, 256, 7])
    x_in = rng.standard_normal((4, 7))

    def net_loss() -> float:
        tape = Tape()
        y = mlp_forward(params.as_tensors(tape), tape.tensor(x_in))
        return float(ad.reduce_sum(ad.square(y)).value)

    tape = Tape()
    mt = params.as_tensors(tape)
    acc = ad.backward(ad.reduce_sum(ad.square(mlp_forward(mt, tape.tensor(x_in)))))
    worst = _sampled_fd_error(
        rng,
        params.param_arrays(),
        [ad.grad_of(acc, t) for t in mt.param_tensors()],
        net_loss,
        per_array=12,
    )
    probes.append(("network", worst, 1e-4))

    # (b) backbone loss through a two-step arc integration; RK4 because
    # the multistep solver needs a longer grid, and the straight prior
    # is perturbed so gradients reach every layer
    config_b = RobotConfig(n_segments=1)
    model_b = init_shape_model(
        rng, config_b, hidden=(32, 32), solver="rk4", steps_per_segment=2
    )
    for arr in model_b.params.param_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    q_b = rng.uniform(config_b.q_min, config_b.q_max, (3, config_b.action_dim))
    truth_b = rng.normal(0.0, 0.02, (3, 2, 3))

    def arc_loss() -> float:
        tape = Tape()
        return float(
            shape_loss_tensor(rollout_shape(model_b, config_b, tape, q_b), truth_b).value
        )

    tape = Tape()
    roll = rollout_shape(model_b, config_b, tape, q_b)
    acc = ad.backward(shape_loss_tensor(roll, truth_b))
    worst = _sampled_fd_error(
        rng,
        model_b.params.param_arrays(),
        [ad.grad_of(acc, t) for t in roll.mt.param_tensors()],
        arc_loss,
        per_array=10,
    )
    probes.append(("arc integration", worst, 1e-4))

    # (c) full receding-horizon loss through a two-step policy rollout,
    # obstacle term active (the keep-out center sits in the sigmoid's
    # live band next to the initial backbone)
    config_c = RobotConfig(n_segments=2)
    shape_c = init_shape_model(rng, config_c, hidden=(16, 16), steps_per_segment=5)
    for arr in shape_c.params.param_arrays():
        arr += 0.05 * rng.standard_normal(arr.shape)
    policy_c = init_control_model(rng, config_c, hidden=(16, 16), horizon=2)
    q0 = rng.uniform(-2.0, 2.0, (2, config_c.action_dim))
    goal = np.array([[0.02, -0.01, 0.17], [-0.015, 0.02, 0.16]])
    obstacle = ObstacleSpec(center=(0.012, 0.0, 0.1))
    loss_cfg = ControlLossConfig()

    def mpc_loss() -> float:
        tape = Tape()
        r = rollout_policy(policy_c, shape_c, config_c, tape, q0, goal)
        return float(control_loss(r, loss_cfg, obstacle).value)

    tape = Tape()
    r = rollout_policy(policy_c, shape_c, config_c, tape, q0, goal)
    acc = ad.backward(control_loss(r, loss_cfg, obstacle))
    worst = _sampled_fd_error(
        rng,
        policy_c.params.param_arrays(),
        [ad.grad_of(acc, t) for t in r.policy_tensors.param_tensors()],
        mpc_loss,
        per_array=8,
    )
    probes.append(("policy rollout", worst, 1e-3))

    elapsed = time.perf_counter() - t0
    ok = all(w <= tol for _, w, tol in probes) and elapsed < 60.0
    detail = ", ".join(f"{name} {w:.1e}/{tol:g}" for name, w, tol in probes)
    _report(1, "autodiff matches central differences", ok, f"{detail}; {elapsed:.1f} s")


def test_criterion_2_solver_orders():
    def endpoint(kind: str, n: int) -> float:
        tape = Tape()
        traj = integrate(
            lambda t, x, u: x,
            tape.tensor(np.ones((1, 1))),
            IntegrationGrid(0.0, 1.0, n),
            kind=kind,
        )
        return float(traj[-1].value[0, 0])

    ns = {"euler": [40, 80, 160, 320], "rk4": [5, 10, 20, 40], "fixed-adams": [10, 20, 40, 80]}
    floors = {"euler": 0.9, "rk4": 3.8, "fixed-adams": 3.5}
    slopes = {
        kind: loglog_slope(
            [1.0 / n for n in ns[kind]],
            [abs(endpoint(kind, n) - np.e) for n in ns[kind]],
        )
        for kind in SOLVER_KINDS
    }
    ok = all(slopes[k] >= floors[k] for k in SOLVER_KINDS)
    detail = ", ".join(f"{k} {slopes[k]:.2f} (floor {floors[k]:g})" for k in SOLVER_KINDS)
    _report(2, "solver convergence orders on the exponential problem", ok, detail)


def test_criterion_3_kinematics_oracle(rng):
    worst = 0.0
    n_checked = 0
    for n_seg in SEGMENT_COUNTS:
        config = RobotConfig(n_segments=n_seg)
        um = config.u_max
        actions = [
            rng.uniform(config.q_min, config.q_max, config.action_dim)
            for _ in range(50)
        ]
        # per-segment extremes: saturated norms exercise the u_max shell
        for pair in ((um, 0.0), (0.0, um), (-um, 0.0), (0.0, -um),
                     (um, um), (um, -um), (-um, um), (-um, -um)):
            actions.append(np.tile(pair, n_seg))
        for q in actions:
            realized = action_to_curvature(config, q, mismatch=True)
            shape = forward_kinematics(config, q)
            oracle = arc_backbone(realized, config.segment_lengths, 10)
            worst = max(worst, float(np.max(np.abs(shape.points - oracle))))
            n_checked += 1
    straight_gap = 0.0
    for n_seg in SEGMENT_COUNTS:
        config = RobotConfig(n_segments=n_seg)
        tip = forward_kinematics(config, np.zeros(config.action_dim)).tip
        expected = np.array([0.0, 0.0, config.total_length])
        straight_gap = max(straight_gap, float(np.max(np.abs(tip - expected))))
    ok = worst <= 1e-6 and straight_gap <= 1e-9
    _report(
        3,
        "simulated kinematics equals closed-form arc composition",
        ok,
        f"max backbone gap {worst:.1e} m over {n_checked} actions (tol 1e-6); "
        f"straight-tip gap {straight_gap:.1e} m (tol 1e-9)",
    )


def test_criterion_4_masking_equivalence(rng):
    def field(t, x, u):
        return ad.sub(ad.scale(ad.tanh(ad.scale(x, 0.8)), 0.5), ad.scale(x, 0.3))

    n_steps = 8  # h = 0.125 is exact in binary, so k*h/k == h bitwise
    mismatched_rows = 0
    for trial in range(100):
        kind = SOLVER_KINDS[trial % len(SOLVER_KINDS)]
        batch = int(rng.integers(2, 7))
        # the multistep solver cannot run standalone below 4 steps, so
        # its per-sample spans stay at or above half the grid
        low = 0.5 if kind == "fixed-adams" else 0.2
        ends = rng.uniform(low, 1.0, batch)
        ends[rng.integers(batch)] = 1.0
        grid = IntegrationGrid(0.0, 1.0, n_steps, per_sample_end=ends)
        counts = masked_step_counts(grid)
        x0 = rng.standard_normal((batch, 3))
        masked = [
            st.value
            for st in integrate_batch_masked(field, Tape().tensor(x0), grid, kind)
        ]
        for i in range(batch):
            k_i = int(counts[i])
            solo = integrate(
                field,
                Tape().tensor(x0[i : i + 1]),
                IntegrationGrid(0.0, k_i * 0.125, k_i),
                kind,
            )
            alive = all(
                np.array_equal(masked[j][i], solo[j].value[0]) for j in range(k_i + 1)
            )
            frozen = all(
                np.array_equal(masked[j][i], masked[k_i][i])
                for j in range(k_i + 1, n_steps + 1)
            )
            if not (alive and frozen):
                mismatched_rows += 1
    ok = mismatched_rows == 0
    _report(
        4,
        "masked batch integration equals per-sample runs bitwise",
        ok,
        f"100 mixed-length batches across all three solvers, "
        f"{mismatched_rows} mismatching rows",
    )


# ---------------------------------------------------------------------------
# trained artifacts, built once per session through the installed CLI


@pytest.fixture(scope="session")
def acc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def shape_runs(acc_dir):
    """Dataset plus 10k-iteration shape model for each robot size."""
    runs = {}
    for n_seg in SEGMENT_COUNTS:
        ini = acc_dir / f"robot{n_seg}.ini"
        ini.write_text(
            f"[robot]\nn_segments = {n_seg}\n\n[run]\nseed = 0\nn_samples = 10000\n",
            encoding="ascii",
        )
        gen = acc_dir / f"dataset{n_seg}"
        _note(f"simulating the 10k-sample dataset for the {n_seg}-segment robot")
        run_cli(["generate", "--config", ini, "--out", gen])
        out = acc_dir / f"shape{n_seg}"
        _note(f"training the {n_seg}-segment shape model (10k iterations)")
        t0 = time.perf_counter()
        run_cli(
            ["train-shape", "--config", ini, "--dataset", gen / "dataset.csv", "--out", out]
        )
        secs = time.perf_counter() - t0
        _note(f"{n_seg}-segment shape model done in {secs / 60.0:.1f} min")
        runs[n_seg] = SimpleNamespace(
            ini=ini,
            dataset=gen / "dataset.csv",
            model=out / "shape_model.json",
            train_seconds=secs,
        )
    return runs


@pytest.fixture(scope="session")
def control_ini(acc_dir):
    ini = acc_dir / "control.ini"
    ini.write_text(
        "[robot]\nn_segments = 3\n\n"
        f"[control]\nbatch_size = {CONTROL_BATCH}\niterations = {CONTROL_ITERATIONS}\n\n"
        "[run]\nseed = 0\nn_samples = 10000\n",
        encoding="ascii",
    )
    return ini


@pytest.fixture(scope="session")
def tracking_policy(acc_dir, control_ini, shape_runs):
    out = acc_dir / "policy_tracking"
    _note("training the tracking policy")
    t0 = time.perf_counter()
    run_cli(
        ["train-control", "--config", control_ini, "--shape-model", shape_runs[3].model,
         "--scenario", "tracking", "--out", out]
    )
    secs = time.perf_counter() - t0
    _note(f"tracking policy done in {secs / 60.0:.1f} min")
    return SimpleNamespace(model=out / "control_model.json", train_seconds=secs)


@pytest.fixture(scope="session")
def tracking_eval(acc_dir, control_ini, shape_runs, tracking_policy):
    out = acc_dir / "eval_tracking"
    _note("running the tracking evaluation (4 trajectories x 5 seeded trials)")
    t0 = time.perf_counter()
    run_cli(
        ["evaluate", "--config", control_ini, "--scenario", "tracking",
         "--shape-model", shape_runs[3].model, "--control-model", tracking_policy.model,
         "--out", out]
    )
    return SimpleNamespace(out=out, eval_seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def avoidance_policy(acc_dir, control_ini, shape_runs):
    out = acc_dir / "policy_obstacle"
    _note("training the obstacle-avoidance policy")
    t0 = time.perf_counter()
    run_cli(
        ["train-control", "--config", control_ini, "--shape-model", shape_runs[3].model,
         "--scenario", "obstacle", "--out", out]
    )
    _note(f"avoidance policy done in {(time.perf_counter() - t0) / 60.0:.1f} min")
    return SimpleNamespace(model=out / "control_model.json")


@pytest.fixture(scope="session")
def obstacle_eval(acc_dir, control_ini, shape_runs, tracking_policy, avoidance_policy):
    out = acc_dir / "eval_obstacle"
    _note("running the obstacle evaluation for both policies")
    run_cli(
        ["evaluate", "--config", control_ini, "--scenario", "obstacle",
         "--shape-model", shape_runs[3].model, "--control-model", avoidance_policy.model,
         "--baseline-model", tracking_policy.model, "--out", out]
    )
    return SimpleNamespace(out=out)


@pytest.fixture(scope="session")
def payload_eval(acc_dir, control_ini, shape_runs, tracking_policy):
    out = acc_dir / "eval_payload"
    _note("running the helix payload sweep")
    run_cli(
        ["evaluate", "--config", control_ini, "--scenario", "payload",
         "--shape-model", shape_runs[3].model, "--control-model", tracking_policy.model,
         "--out", out]
    )
    return SimpleNamespace(out=out)


@pytest.fixture(scope="session")
def repro_runs(acc_dir, control_ini, shape_runs, tracking_policy, tracking_eval):
    """Re-run one instance of every command for the determinism check.

    Trainings are abbreviated through the environment override (30 shape
    iterations, 5 control iterations): the looped work is identical per
    iteration, so a short pair exercises the same code paths the full
    runs do without doubling the suite's hours.
    """
    _note("re-running commands for the determinism check")
    run3 = shape_runs[3]
    pairs = []

    gen_rerun = acc_dir / "repro_dataset"
    run_cli(["generate", "--config", run3.ini, "--out", gen_rerun])
    pairs.append(("generate", run3.dataset.parent, gen_rerun))

    eval_rerun = acc_dir / "repro_eval_tracking"
    run_cli(
        ["evaluate", "--config", control_ini, "--scenario", "tracking",
         "--shape-model", run3.model, "--control-model", tracking_policy.model,
         "--out", eval_rerun]
    )
    pairs.append(("evaluate", tracking_eval.out, eval_rerun))

    roll = []
    for tag in ("a", "b"):
        out = acc_dir / f"repro_rollout_{tag}"
        run_cli(
            ["rollout", "--config", control_ini, "--closed-loop",
             "--trajectory", "square", "--payload", "5",
             "--shape-model", run3.model, "--control-model", tracking_policy.model,
             "--out", out]
        )
        roll.append(out)
    pairs.append(("rollout", roll[0], roll[1]))

    shape_pair = []
    for tag in ("a", "b"):
        out = acc_dir / f"repro_train_shape_{tag}"
        run_cli(
            ["train-shape", "--config", run3.ini, "--dataset", run3.dataset, "--out", out],
            env={"SHAPECTL_SHAPE_ITERATIONS": "30"},
        )
        shape_pair.append(out)
    pairs.append(("train-shape", shape_pair[0], shape_pair[1]))

    control_pair = []
    for tag in ("a", "b"):
        out = acc_dir / f"repro_train_control_{tag}"
        run_cli(
            ["train-control", "--config", control_ini, "--shape-model", run3.model,
             "--scenario", "tracking", "--out", out],
            env={"SHAPECTL_CONTROL_ITERATIONS": "5"},
        )
        control_pair.append(out)
    pairs.append(("train-control", control_pair[0], control_pair[1]))
    return pairs


# ---------------------------------------------------------------------------
# criteria 5-11: trained-model quality and harness behavior


def test_criterion_5_shape_accuracy(shape_runs):
    ok = True
    details = []
    for n_seg in SEGMENT_COUNTS:
        run = shape_runs[n_seg]
        model, config = load_shape_model(run.model)
        q, points = read_dataset_csv(run.dataset, config)
        # same held-out split the trainer validated and checkpointed on
        perm = np.random.default_rng(0).permutation(len(q))
        held_out = perm[: max(1, round(0.1 * len(q)))]
        result = evaluate_shape_rmse(model, q[held_out], points[held_out], config)
        limit = SHAPE_RMSE_LIMITS_MM[n_seg]
        ok = ok and bool(np.all(result.rmse_mm <= limit))
        axes = "/".join(f"{v:.2f}" for v in result.rmse_mm)
        details.append(
            f"{n_seg} seg {axes} mm (limit {limit:g}) in {run.train_seconds / 60.0:.0f} min"
        )
    _report(
        5,
        "held-out per-axis RMSE of the trained shape models",
        ok,
        "; ".join(details) + "; runtime target 30 min per robot",
    )


def test_trained_tip_jacobian_matches_arc_geometry(shape_runs):
    # a bent arc of length l has d x_tip / d q_y = l^2/2 at zero action,
    # and the simulator's mismatch term has zero slope there
    model, config = load_shape_model(shape_runs[1].model)
    _, jac = tip_jacobian(model, np.zeros(config.action_dim), config)
    expected = config.segment_lengths[0] ** 2 / 2.0
    assert abs(jac[0, 1] - expected) <= 0.1 * expected


def test_criterion_6_tracking_accuracy(tracking_policy, tracking_eval):
    worst: dict[str, float] = {}
    for row in read_metrics_csv(tracking_eval.out / "metrics.csv").rows:
        worst[row.scenario] = max(worst.get(row.scenario, 0.0), row.rmse_mm)
    within = all(worst[k] <= TRACKING_LIMITS_MM[k] for k in TRACKING_LIMITS_MM)
    total = tracking_policy.train_seconds + tracking_eval.eval_seconds
    ok = within and total < 3600.0
    detail = ", ".join(
        f"{k} {worst[k]:.2f}/{TRACKING_LIMITS_MM[k]:g} mm"
        for k in ("circle", "square", "ellipse", "s_shape")
    )
    _report(
        6,
        "closed-loop tracking RMSE over 5 seeded trials",
        ok,
        f"worst axis {detail}; train+eval {total / 60.0:.1f} min (limit 60)",
    )


def test_criterion_7_closed_loop_beats_open_loop(tracking_eval, shape_runs):
    closed_logs = [
        read_tracking_log_csv(tracking_eval.out / f"track_square_trial{i}.csv")
        for i in range(N_TRIALS)
    ]
    closed = evaluate_tracking(closed_logs).aggregate_rmse_mm
    model, config = load_shape_model(shape_runs[3].model)
    open_rmse = evaluate_tracking(
        closed_loop_track(None, model, config, "square", [None])
    ).aggregate_rmse_mm
    ok = closed <= 0.5 * open_rmse
    _report(
        7,
        "closed loop at most half the open-loop square error",
        ok,
        f"closed {closed:.2f} mm vs open {open_rmse:.2f} mm; the open-loop "
        "baseline is noise-free, so one run covers every paired seed",
    )


def test_criterion_8_obstacle_avoidance(obstacle_eval):
    cfg = load_run_config(obstacle_eval.out / "resolved_config.ini")
    threshold_sq = cfg.get("control", "obstacle_threshold_sq")
    counts = {"avoid": 0, "base": 0}
    rmse: dict[tuple[str, str], float] = {}
    for kind in ("circle", "square"):
        for label, key in (("", "avoid"), ("baseline_", "base")):
            logs = [
                read_tracking_log_csv(
                    obstacle_eval.out / f"obstacle_{label}{kind}_trial{i}.csv"
                )
                for i in range(N_TRIALS)
            ]
            for log in logs:
                d = log.min_obstacle_dist
                counts[key] += int(np.count_nonzero(d * d < threshold_sq))
            rmse[(kind, key)] = evaluate_tracking(logs).aggregate_rmse_mm
    reduction_ok = counts["base"] > 0 and counts["avoid"] <= 0.2 * counts["base"]
    rmse_ok = all(
        rmse[(kind, "avoid")] <= 2.0 * rmse[(kind, "base")]
        for kind in ("circle", "square")
    )
    ok = reduction_ok and rmse_ok
    _report(
        8,
        "avoidance policy cuts keep-out violations by 80%",
        ok,
        f"violation ticks {counts['base']} -> {counts['avoid']}; aggregate RMSE "
        f"circle {rmse[('circle', 'avoid')]:.2f} vs {rmse[('circle', 'base')]:.2f} mm, "
        f"square {rmse[('square', 'avoid')]:.2f} vs {rmse[('square', 'base')]:.2f} mm "
        "(2x allowed)",
    )


def test_criterion_9_payload_robustness(payload_eval):
    rows = {
        row.scenario: row.rmse_mm
        for row in read_metrics_csv(payload_eval.out / "metrics.csv").rows
    }
    series = [rows[f"payload_{g}g"] for g in PAYLOAD_GRAMS]
    inversions = sum(1 for a, b in zip(series, series[1:]) if b < a - 1e-9)
    ok = series[-1] <= 2.0 * series[0] and inversions <= 1
    _report(
        9,
        "helix error grows mildly and near-monotonically with payload",
        ok,
        "aggregate RMSE " + " -> ".join(f"{v:.2f}" for v in series)
        + f" mm across {PAYLOAD_GRAMS} g; {inversions} inversions (max 1); "
        "20 g within 2x of 0 g",
    )


def test_criterion_10_action_bounds(
    acc_dir, shape_runs, tracking_eval, obstacle_eval, payload_eval, repro_runs
):
    _, config = load_shape_model(shape_runs[3].model)
    patterns = (
        "track_*_trial*.csv",
        "payload_*_trial*.csv",
        "obstacle_*_trial*.csv",
        "rollout.csv",
    )
    n_files = 0
    n_ticks = 0
    outside = 0
    for pattern in patterns:
        for path in sorted(acc_dir.rglob(pattern)):
            log = read_tracking_log_csv(path)
            n_files += 1
            n_ticks += log.n_ticks
            outside += int(
                np.count_nonzero(
                    (log.actions <= config.q_min) | (log.actions >= config.q_max)
                )
            )
    ok = n_files >= 50 and outside == 0
    _report(
        10,
        "every logged action stays strictly inside the bounds",
        ok,
        f"{n_files} logs, {n_ticks} ticks scanned, {outside} entries at or past a bound",
    )


def test_criterion_11_reproducibility(repro_runs):
    diffs = []
    n_files = 0
    for name, dir_a, dir_b in repro_runs:
        files_a = sorted(p.name for p in Path(dir_a).iterdir() if p.is_file())
        files_b = sorted(p.name for p in Path(dir_b).iterdir() if p.is_file())
        if files_a != files_b:
            diffs.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            n_files += 1
            if (Path(dir_a) / fname).read_bytes() != (Path(dir_b) / fname).read_bytes():
                diffs.append(f"{name}: {fname}")
    ok = not diffs
    _report(
        11,
        "re-running each command with the same config is byte-identical",
        ok,
        f"{n_files} files compared across {len(repro_runs)} command pairs"
        + ("" if ok else "; differs: " + ", ".join(diffs)),
    )
