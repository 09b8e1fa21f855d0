"""Control policy: bounding, observations, rollout loss, tracking loops."""

import dataclasses
import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    joined_model_file,
    listed_downsample,
    listed_min_sq_distance,
    listed_observation,
    model_file_arrays,
    rel_err,
    single_ik_solve,
    split_model_file,
)
from shapectl import autodiff as ad
from shapectl import control_node, shape_node
from shapectl.autodiff import Tape
from shapectl.control_node import (
    OBS_POINTS,
    ControlLossConfig,
    ControlNodeModel,
    ControlTrainConfig,
    TrackingLog,
    _downsample_plan,
    _min_sq_distance,
    bound_actions,
    clamp_to_workspace,
    closed_loop_track,
    control_loss,
    count_violations,
    damped_pinv,
    downsample_shape,
    evaluate_tracking,
    ik_solve,
    init_control_model,
    load_control_model,
    observation_blocks,
    policy_step,
    rollout_policy,
    save_control_model,
    train_control_node,
    unbound_actions,
)
from shapectl.nn import MlpParams, adam_step, collect_mlp_grads, init_mlp, mlp_forward
from shapectl.robot import (
    ObstacleSpec,
    RobotConfig,
    forward_kinematics,
    reference_trajectory,
)
from shapectl.shape_node import (
    TRAIN_DTYPE,
    init_shape_model,
    predict_shape_batch,
    robot_config_hash,
    rollout_shape,
    shape_loss_tensor,
    tip_jacobian,
)


def small_shape_model(rng, cfg, **kw):
    kw.setdefault("solver", "rk4")
    kw.setdefault("steps_per_segment", 10)
    m = init_shape_model(rng, cfg, hidden=(16, 16), **kw)
    # nonzero final layer so the predicted backbone depends on the action
    m.params.weights[-1][:] = 0.05 * rng.standard_normal(m.params.weights[-1].shape)
    m.params.biases[-1][:] += 0.02 * rng.standard_normal(7)
    return m


def small_policy(rng, cfg, **kw):
    kw.setdefault("hidden", (12,))
    kw.setdefault("horizon", 3)
    return init_control_model(rng, cfg, **kw)


@pytest.fixture
def setup1(rng):
    cfg = RobotConfig(n_segments=1)
    return cfg, small_shape_model(rng, cfg), small_policy(rng, cfg)


# ---------------------------------------------------------------------------
# action bounding


def test_bound_actions_examples(rng):
    tape = Tape()
    z = tape.tensor(np.array([[0.0, np.arctanh(1.0 / 3.0), 50.0, -50.0]]))
    q = bound_actions(z, -15.0, 15.0)
    assert q.value[0, 0] == 0.0
    assert abs(q.value[0, 1] - 5.0) < 1e-12
    assert q.value[0, 2] <= 15.0
    assert q.value[0, 3] >= -15.0
    # asymmetric interval: z = 0 lands on the midpoint
    q2 = bound_actions(tape.tensor(np.zeros((1, 1))), 2.0, 8.0)
    assert q2.value[0, 0] == 5.0


def test_bound_unbound_roundtrip(rng):
    z = rng.standard_normal((5, 6)) * 2.0
    tape = Tape()
    q = bound_actions(tape.tensor(z), -15.0, 15.0)
    back = unbound_actions(q.value, -15.0, 15.0)
    assert np.allclose(back, z, atol=1e-10)


def test_unbound_rejects_boundary():
    with pytest.raises(ValueError):
        unbound_actions(np.array([15.0]), -15.0, 15.0)
    with pytest.raises(ValueError):
        unbound_actions(np.array([-16.0]), -15.0, 15.0)


# ---------------------------------------------------------------------------
# observation downsampling


def test_downsample_plan_exact_rows():
    plan = _downsample_plan(30)
    assert len(plan) == 9
    # every third output is an exact grid row, the last one the tip
    assert plan[2] == (9, 9, 0.0)
    assert plan[5] == (19, 19, 0.0)
    assert plan[8] == (29, 29, 0.0)
    j0, j1, w = plan[0]
    assert (j0, j1) == (2, 3)
    assert abs(w - 1.0 / 3.0) < 1e-12
    # grid already at the output resolution: identity
    assert _downsample_plan(9) == [(i, i, 0.0) for i in range(9)]
    with pytest.raises(ValueError):
        _downsample_plan(8)


def test_downsample_tensor_value_twins_bitwise(rng):
    # the tensor stencil gives its plain numpy arithmetic bit for bit
    pts = rng.standard_normal((30, 3))  # 30 grid points, base excluded
    tape = Tape()
    ds = downsample_shape(tape.constant(pts[None])).value[0]
    assert ds.shape == (9, 3)
    for got, (j0, j1, w) in zip(ds, _downsample_plan(30), strict=True):
        want = pts[j0] if w == 0.0 else pts[j0] * (1.0 - w) + pts[j1] * w
        assert np.array_equal(got, want)
    # every third sample is an exact grid row, the final one the tip
    assert np.array_equal(ds[2], pts[9])
    assert np.array_equal(ds[5], pts[19])
    assert np.array_equal(ds[8], pts[29])


@pytest.mark.parametrize("n_points", [9, 10, 12, 30, 40])
def test_downsample_and_observation_match_listed_reference(rng, n_points, monkeypatch):
    # whole stencil rows and, below 18 points, grid points that two
    # samples share: the one stencil is the point-by-point blend bit for
    # bit, values and adjoints, and the observation keeps its column order
    cfg = RobotConfig(n_segments=1)
    pts = rng.standard_normal((3, n_points, 3))
    q, goal = rng.uniform(-3.0, 3.0, (3, 2)), rng.standard_normal((3, 3))
    tape = Tape()
    ds = downsample_shape(tape.constant(pts))
    ref = listed_downsample([tape.constant(pts[:, j]) for j in range(n_points)])
    assert np.array_equal(ds.value, np.stack([t.value for t in ref], axis=1))
    observed = []

    def recording_forward(mt, x):
        observed.append(x.value)
        return mlp_forward(mt, x)

    monkeypatch.setattr(control_node, "mlp_forward", recording_forward)
    policy = small_policy(rng, cfg)
    q_leaf, goal_leaf = tape.constant(q), tape.constant(goal)
    z = tape.constant(unbound_actions(q, cfg.q_min, cfg.q_max))
    pmt = policy.params.as_tensors(tape, frozen=True)
    policy_step(cfg, pmt, ds, q_leaf, z, goal_leaf, None, 0.0)
    want = listed_observation(ref, q_leaf, goal_leaf).value
    assert np.array_equal(observed[0], want)
    g = rng.standard_normal((3, OBS_POINTS, 3))
    tape = Tape(np.float32)
    whole = tape.tensor(pts)
    listed = [tape.tensor(pts[:, j]) for j in range(n_points)]
    grads = ad.backward(ad.reduce_sum(ad.cmul(downsample_shape(whole), g)))
    parts = [ad.reduce_sum(ad.cmul(t, g[:, i])) for i, t in enumerate(listed_downsample(listed))]
    ref_grads = ad.backward(functools.reduce(ad.add, parts))
    for j, leaf in enumerate(listed):
        assert np.array_equal(grads[whole.nid][:, j], ad.grad_of(ref_grads, leaf))


def test_observation_dim():
    # 9 backbone points and the tip, the action, the goal
    assert observation_blocks(2) == (30, 2, 3)
    for n_segments, width in ((1, 35), (3, 39), (4, 41)):
        cfg = RobotConfig(n_segments=n_segments)
        assert sum(observation_blocks(cfg.action_dim)) == width


# ---------------------------------------------------------------------------
# configs and model validation


def test_loss_config_validation():
    ControlLossConfig()
    with pytest.raises(ValueError):
        ControlLossConfig(tracking_weight=-1.0)
    with pytest.raises(ValueError):
        ControlLossConfig(noise_std=-0.1)


def test_train_config_validation():
    ControlTrainConfig()
    with pytest.raises(ValueError):
        ControlTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        ControlTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ControlTrainConfig(reset_scale=1.0)


def test_model_validation(rng):
    cfg = RobotConfig(n_segments=2)
    with pytest.raises(ValueError, match="must map"):
        ControlNodeModel(params=init_mlp(rng, [10, 8, 4]), horizon=10)
    with pytest.raises(ValueError):
        ControlNodeModel(params=init_mlp(rng, [37, 8, 4]), horizon=0)
    m = init_control_model(rng, cfg)
    assert m.params.sizes == [37, 256, 256, 4]
    assert m.action_dim == 4


# ---------------------------------------------------------------------------
# rollout behavior


def test_zeroed_policy_holds_actions_constant(setup1, rng):
    cfg, sm, policy = setup1
    policy.params.weights[-1][:] = 0.0
    policy.params.biases[-1][:] = 0.0
    q0 = rng.uniform(-3.0, 3.0, (4, 2))
    tape = Tape()
    res = rollout_policy(policy, sm, cfg, tape, q0, np.zeros((4, 3)))
    assert res.horizon == policy.horizon
    for qk in res.actions:
        assert np.allclose(qk.value, q0, atol=1e-12)
    assert np.allclose(res.shapes_ds[0].value, res.shapes_ds[-1].value, atol=1e-12)


def test_rollout_list_lengths_and_horizon_override(setup1, rng):
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (2, 2))
    tape = Tape()
    short = dataclasses.replace(policy, horizon=1)
    res = rollout_policy(short, sm, cfg, tape, q0, np.zeros((2, 3)))
    assert res.horizon == 1
    assert len(res.tips) == 1
    assert len(res.shapes_ds) == 2
    assert len(res.rollouts) == 1
    assert res.rollouts[0].tip is res.tips[0]
    with pytest.raises(ValueError):
        dataclasses.replace(policy, horizon=0)
    with pytest.raises(ValueError, match="goal"):
        rollout_policy(policy, sm, cfg, tape, q0, np.zeros((3, 3)))


def test_rollout_actions_stay_in_bounds(setup1, rng):
    cfg, sm, policy = setup1
    # saturate the drive so z runs far out; bounds must still hold
    for w in policy.params.weights:
        w *= 50.0
    q0 = rng.uniform(-14.0, 14.0, (3, 2))
    tape = Tape()
    long = dataclasses.replace(policy, horizon=6)
    res = rollout_policy(long, sm, cfg, tape, q0, np.zeros((3, 3)))
    assert res.horizon == 6
    for qk in res.actions:
        assert np.all(qk.value >= cfg.q_min)
        assert np.all(qk.value <= cfg.q_max)


def test_initial_points_feed_first_step(setup1, rng):
    # an observed backbone, not the model's prediction, is what the
    # first step sees
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (1, 2))
    shape = forward_kinematics(cfg, q0[0])
    tape = Tape()
    observed = tape.constant(shape.points[None, 1:])
    goal = np.zeros((1, 3))
    res = rollout_policy(policy, sm, cfg, tape, q0, goal, initial_points=observed)
    assert len(res.rollouts) == policy.horizon
    assert np.array_equal(res.shapes_ds[0].value, downsample_shape(observed).value)
    assert np.array_equal(res.shapes_ds[0].value[0, -1], shape.tip)
    fresh = rollout_policy(policy, sm, cfg, Tape(), q0, goal)
    assert not np.array_equal(res.actions[0].value, fresh.actions[0].value)


def test_given_shape_solve_equals_fresh_solve_bitwise(setup1, rng):
    # training hands in the solve it already made at q0: the actions, the
    # loss and the policy gradients must be the fresh solve's bit for bit
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (3, 2))
    goal = rng.uniform(-0.02, 0.02, (3, 3)) + np.array([0.0, 0.0, 0.09])
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.05]))

    def run(given):
        tape = Tape()
        points = rollout_shape(sm, cfg, tape, q0, frozen=True).points if given else None
        res = rollout_policy(
            policy,
            sm,
            cfg,
            tape,
            q0,
            goal,
            initial_points=points,
            noise_rng=np.random.default_rng(4),
            noise_std=1e-3,
        )
        loss = control_loss(res, ControlLossConfig(), obstacle)
        grads = collect_mlp_grads(ad.backward(loss), res.policy_tensors)
        return [a.value for a in res.actions], float(loss.value), grads

    fresh, given = run(False), run(True)
    for a, b in zip(fresh[0] + fresh[2], given[0] + given[2], strict=True):
        assert np.array_equal(a, b)
    assert fresh[1] == given[1]


def test_noise_is_seeded_and_reaches_the_first_action(setup1, rng):
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (2, 2))
    goal = np.zeros((2, 3))

    def run(seed, std=1e-3):
        res = rollout_policy(
            policy,
            sm,
            cfg,
            Tape(),
            q0,
            goal,
            noise_rng=np.random.default_rng(seed),
            noise_std=std,
        )
        return [a.value.copy() for a in res.actions]

    a1, a2 = run(5), run(5)
    for x, y in zip(a1, a2, strict=True):
        assert np.array_equal(x, y)
    clean = run(5, std=0.0)
    assert not np.allclose(a1[0], clean[0])
    assert not np.allclose(run(6)[0], a1[0])


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_action_is_the_rollouts_first_action(setup1, batch, seed):
    # the runner's tick (one step, frozen policy) computes exactly the
    # first action a full trainable rollout from the same observation takes
    cfg, sm, policy = setup1
    draw = np.random.default_rng(seed)
    q0 = draw.uniform(-3.0, 3.0, (batch, 2))
    goal = draw.uniform(-0.02, 0.02, (batch, 3)) + np.array([0.0, 0.0, 0.09])
    observed = np.stack([forward_kinematics(cfg, q).points[1:] for q in q0])

    tape = Tape()
    full = rollout_policy(
        policy,
        sm,
        cfg,
        tape,
        q0,
        goal,
        initial_points=tape.constant(observed),
        noise_rng=np.random.default_rng(100 + seed),
        noise_std=1e-3,
    )
    tape = Tape()
    _, q1 = policy_step(
        cfg,
        policy.params.as_tensors(tape, frozen=True),
        downsample_shape(tape.constant(observed)),
        tape.constant(q0),
        tape.constant(unbound_actions(q0, cfg.q_min, cfg.q_max)),
        tape.constant(goal),
        np.random.default_rng(100 + seed),
        1e-3,
    )
    assert np.array_equal(q1.value, full.actions[0].value)


def test_first_tick_is_the_plans_first_action(setup1):
    cfg, sm, policy = setup1
    (log,) = closed_loop_track(
        policy,
        sm,
        cfg,
        "circle",
        [np.random.default_rng(3)],
        duration=0.5,
        noise_std=1e-3,
    )
    q0 = ik_solve(sm, cfg, reference_trajectory("circle", 0.0, cfg.total_length, 100.0))
    goal = reference_trajectory("circle", 0.5, cfg.total_length, 100.0)
    tape = Tape()
    plan = rollout_policy(
        policy,
        sm,
        cfg,
        tape,
        q0[None],
        goal[None],
        initial_points=tape.constant(forward_kinematics(cfg, q0).points[None, 1:]),
        noise_rng=np.random.default_rng(3),
        noise_std=1e-3,
    )
    want = control_node._clip_inside(plan.actions[0].value[0], cfg.q_min, cfg.q_max)
    assert np.array_equal(log.actions[0], want)


def test_policy_ticks_make_no_shape_solves(setup1, monkeypatch):
    # a tick acts on the observed robot; the only model solves of a
    # closed-loop run are the inverse-kinematics start's
    cfg, sm, policy = setup1
    solve, ik = control_node.rollout_shape, control_node.ik_solve
    in_ik, outside, starts = [], [], []

    def counted_solve(*args, **kwargs):
        if not in_ik:
            outside.append(args[3])
        return solve(*args, **kwargs)

    def counted_ik(*args, **kwargs):
        starts.append(args[2])
        in_ik.append(True)
        try:
            return ik(*args, **kwargs)
        finally:
            in_ik.pop()

    monkeypatch.setattr(control_node, "rollout_shape", counted_solve)
    monkeypatch.setattr(shape_node, "rollout_shape", counted_solve)
    monkeypatch.setattr(control_node, "ik_solve", counted_ik)
    for duration in (0.5, 3.0):
        logs = closed_loop_track(
            policy,
            sm,
            cfg,
            "circle",
            [np.random.default_rng(1), None],
            duration=duration,
            noise_std=1e-3,
        )
        assert [log.n_ticks for log in logs] == [2 * duration] * 2
    assert len(starts) == 2
    assert outside == []


def test_non_finite_tick_names_the_tick(setup1):
    cfg, sm, policy = setup1
    policy.params.weights[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="tick 1: .*policy action"):
        closed_loop_track(policy, sm, cfg, "circle", [None], duration=0.5)


def test_rollout_failure_names_horizon_step(setup1, rng):
    cfg, sm, policy = setup1
    policy.params.weights[0][0, 0] = np.nan
    tape = Tape()
    with pytest.raises(FloatingPointError, match="horizon step 1"):
        rollout_policy(policy, sm, cfg, tape, np.zeros((1, 2)), np.zeros((1, 3)))


def test_receding_horizon_consistency(setup1, rng):
    # re-planning from the achieved state must continue the old plan
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (1, 2))
    goal = np.array([[0.01, -0.01, 0.09]])
    tape = Tape()
    full = rollout_policy(policy, sm, cfg, tape, q0, goal)
    assert full.horizon == 3
    q1 = full.actions[0].value.copy()
    tape2 = Tape()
    rest_policy = dataclasses.replace(policy, horizon=2)
    rest = rollout_policy(rest_policy, sm, cfg, tape2, q1, goal)
    for k in range(2):
        assert np.abs(rest.actions[k].value - full.actions[k + 1].value).max() < 1e-6
        assert np.abs(rest.tips[k].value - full.tips[k + 1].value).max() < 1e-6


# ---------------------------------------------------------------------------
# loss


def numpy_loss(result, cfg, obstacle=None):
    """Plain-numpy recomputation of the rollout loss from tensor values."""
    m = result.horizon
    total = 0.0
    for k in range(1, m + 1):
        tip = result.tips[k - 1].value
        total += cfg.tracking_weight * np.mean(
            ((tip - result.goal) ** 2).sum(axis=1)
        )
        prev_q = result.q0 if k == 1 else result.actions[k - 2].value
        dq = result.actions[k - 1].value - prev_q
        total += cfg.action_rate_weight * np.mean((dq**2).sum(axis=1))
        prev_ds, cur_ds = result.shapes_ds[k - 1].value, result.shapes_ds[k].value
        for i in range(prev_ds.shape[1]):
            dp = cur_ds[:, i] - prev_ds[:, i]
            total += cfg.shape_weight * np.mean((dp**2).sum(axis=1))
        if obstacle is not None:
            pts = result.rollouts[k - 1].points.value
            d2 = ((pts - obstacle.center) ** 2).sum(axis=2).min(axis=1)
            thr = obstacle.threshold_sq
            margin = (thr - d2) / (thr / 10.0)
            total += cfg.obstacle_weight * np.mean(1.0 / (1.0 + np.exp(-margin)))
    tip = result.tips[m - 1].value
    total += cfg.terminal_weight * np.mean(((tip - result.goal) ** 2).sum(axis=1))
    return total


def test_control_loss_matches_numpy_oracle(setup1, rng):
    cfg, sm, policy = setup1
    q0 = rng.uniform(-3.0, 3.0, (4, 2))
    goal = rng.uniform(-0.02, 0.02, (4, 3)) + np.array([0.0, 0.0, 0.09])
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.05]))
    tape = Tape()
    res = rollout_policy(policy, sm, cfg, tape, q0, goal)
    lcfg = ControlLossConfig()
    loss = control_loss(res, lcfg, obstacle)
    expect = numpy_loss(res, lcfg, obstacle)
    assert rel_err(np.array(float(loss.value)), np.array(expect)) < 1e-12


def test_control_loss_perfect_tracking_and_terminal_only(setup1, rng):
    cfg, sm, policy = setup1
    # a zeroed output layer holds the action, so every step reaches the
    # same tip
    policy.params.weights[-1][:] = 0.0
    policy.params.biases[-1][:] = 0.0
    q0 = rng.uniform(-3.0, 3.0, (3, 2))
    tape = Tape()
    res = rollout_policy(policy, sm, cfg, tape, q0, np.zeros((3, 3)))
    assert all(np.array_equal(t.value, res.tips[0].value) for t in res.tips)
    # the goal equal to the achieved tips: tracking terms vanish exactly
    res.goal = res.tips[0].value.copy()
    only_track = ControlLossConfig(
        action_rate_weight=0.0, shape_weight=0.0, obstacle_weight=0.0
    )
    assert float(control_loss(res, only_track).value) == 0.0

    off = np.array([0.002, -0.001, 0.003])
    res.goal = res.goal + off
    terminal_only = ControlLossConfig(
        tracking_weight=0.0,
        action_rate_weight=0.0,
        shape_weight=0.0,
        terminal_weight=7.0,
    )
    got = float(control_loss(res, terminal_only).value)
    assert abs(got - 7.0 * float((off**2).sum())) < 1e-12

    with pytest.raises(ValueError, match="zero weight"):
        control_loss(
            res,
            ControlLossConfig(
                tracking_weight=0.0,
                action_rate_weight=0.0,
                shape_weight=0.0,
                terminal_weight=0.0,
                obstacle_weight=0.0,
            ),
        )


def test_loss_node_counts_do_not_grow_with_the_grid(rng):
    # both losses compute on whole backbone tensors, with no node per
    # grid point
    cfg = RobotConfig(n_segments=2)
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.05]))
    q0 = rng.uniform(-3.0, 3.0, (2, 4))
    goal = rng.uniform(-0.02, 0.02, (2, 3)) + np.array([0.0, 0.0, 0.09])
    counts = []
    for steps in (5, 10):
        sm = small_shape_model(rng, cfg, steps_per_segment=steps)
        tape = Tape()
        ro = rollout_shape(sm, cfg, tape, q0)
        before = len(tape)
        shape_loss_tensor(ro, np.zeros(ro.points.shape))
        shape_nodes = len(tape) - before
        res = rollout_policy(small_policy(rng, cfg), sm, cfg, tape, q0, goal)
        before = len(tape)
        control_loss(res, ControlLossConfig(), obstacle)
        counts.append((shape_nodes, len(tape) - before))
    assert counts[0] == counts[1]


def test_min_sq_distance_value_and_gradient(rng):
    tape = Tape()
    pts = rng.standard_normal((4, 5, 3))
    center = np.array([0.25, -0.125, 0.5])
    # sample 0: points 1 and 3 mirror each other through the center and
    # tie as the closest; the first of them takes the subgradient
    pts[0, 1] = center + 0.125 * np.array([1.0, -2.0, 0.5])
    pts[0, 3] = 2.0 * center - pts[0, 1]
    leaf = tape.tensor(pts)
    d2min = _min_sq_distance(leaf, center)
    expect = ((pts - center) ** 2).sum(axis=2).min(axis=1)
    assert np.allclose(d2min.value, expect, atol=1e-14)
    g = ad.grad_of(ad.backward(ad.reduce_sum(d2min)), leaf)
    d2 = ((pts - center) ** 2).sum(axis=2)
    idx = d2.argmin(axis=1)
    assert d2[0, 1] == d2[0, 3] and idx[0] == 1
    for j in range(5):
        for b in range(4):
            if idx[b] == j:
                assert np.allclose(g[b, j], 2.0 * (pts[b, j] - center), atol=1e-12)
            else:
                assert np.all(g[b, j] == 0.0)
    # the point-by-point reference, in value and gradient
    ref_tape = Tape()
    listed = [ref_tape.tensor(pts[:, j]) for j in range(5)]
    ref = listed_min_sq_distance(listed, center)
    assert np.array_equal(d2min.value, ref.value)
    ref_grads = ad.backward(ad.reduce_sum(ref))
    want = np.stack([ad.grad_of(ref_grads, t) for t in listed], axis=1)
    assert np.array_equal(g, want)


def test_loss_gradient_fd(setup1, rng):
    cfg, sm, policy = setup1
    policy = small_policy(rng, cfg, horizon=2)
    q0 = rng.uniform(-3.0, 3.0, (2, 2))
    goal = rng.uniform(-0.02, 0.02, (2, 3)) + np.array([0.0, 0.0, 0.09])
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.05]))
    lcfg = ControlLossConfig(noise_std=0.0)

    tape = Tape()
    res = rollout_policy(policy, sm, cfg, tape, q0, goal)
    grads = ad.backward(control_loss(res, lcfg, obstacle))
    got = collect_mlp_grads(grads, res.policy_tensors)

    def loss_at(params):
        probe = dataclasses.replace(policy, params=params)
        t = Tape()
        r = rollout_policy(probe, sm, cfg, t, q0, goal)
        return float(control_loss(r, lcfg, obstacle).value)

    eps = 1e-6
    for arr_idx, pos in [(0, (0, 3)), (0, (34, 7)), (1, (5,)), (2, (11, 1)), (3, (0,))]:
        plus = policy.params.copy()
        plus.param_arrays()[arr_idx][pos] += eps
        minus = policy.params.copy()
        minus.param_arrays()[arr_idx][pos] -= eps
        fd = (loss_at(plus) - loss_at(minus)) / (2 * eps)
        an = got[arr_idx][pos]
        assert rel_err(np.array(an), np.array(fd), floor=1e-4) < 1e-3


# ---------------------------------------------------------------------------
# training


def test_training_reduces_loss(setup1, rng):
    cfg, sm, _ = setup1
    tcfg = ControlTrainConfig(batch_size=8, iterations=40, seed=3)
    lcfg = ControlLossConfig(noise_std=0.0)
    model, history = train_control_node(
        sm, cfg, tcfg, lcfg, model=init_control_model(rng, cfg, hidden=(16,))
    )
    assert len(history) == 40
    first = np.mean([h[1] for h in history[:5]])
    last = np.mean([h[1] for h in history[-5:]])
    assert last < first


def test_frozen_shape_model_leaves_policy_gradients_bitwise(setup1, monkeypatch):
    # the same training with every tape leaf trainable, shape weights
    # included, must feed Adam bitwise the same policy gradients; frozen,
    # the only leaves that get an adjoint are the policy's 4 parameters
    cfg, sm, _ = setup1
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.08]))

    def train():
        seen = {"grads": [], "leaf_adjoints": []}
        backward, adam_step = ad.backward, control_node.adam_step

        def counting_backward(loss):
            grads = backward(loss)
            parents = loss.tape.parents
            seen["leaf_adjoints"].append(sum(not parents[nid] for nid in grads))
            return grads

        def recording_adam_step(params, grads, lr):
            seen["grads"].append([g.copy() for g in grads])
            adam_step(params, grads, lr)

        with monkeypatch.context() as m:
            m.setattr(ad, "backward", counting_backward)
            m.setattr(control_node, "adam_step", recording_adam_step)
            train_control_node(
                sm,
                cfg,
                ControlTrainConfig(batch_size=3, iterations=2, seed=5),
                ControlLossConfig(),
                obstacle=obstacle,
                model=init_control_model(np.random.default_rng(5), cfg, hidden=(12,)),
            )
        return seen

    frozen = train()
    monkeypatch.setattr(Tape, "constant", Tape.tensor)
    trainable = train()
    for got, want in zip(frozen["grads"], trainable["grads"], strict=True):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
    assert frozen["leaf_adjoints"] == [4, 4]
    assert min(trainable["leaf_adjoints"]) > 4


def test_policy_training_peak_memory_does_not_grow_per_iteration():
    # each iteration's tape, residuals and bookkeeping die when its Adam
    # step ends, so a second iteration adds next to nothing to the traced
    # peak (the ratio reads about 1.004 here); with the residuals kept
    # until the tape dies the ratio is above 1.5
    def traced_peak(iterations):
        cfg = RobotConfig(n_segments=2)
        rng = np.random.default_rng(0)
        sm = init_shape_model(rng, cfg, hidden=(32, 32), solver="rk4", steps_per_segment=5)
        policy = init_control_model(rng, cfg, hidden=(32, 32))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            train_control_node(
                sm,
                cfg,
                ControlTrainConfig(batch_size=64, iterations=iterations),
                ControlLossConfig(),
                model=policy,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    one, two = traced_peak(1), traced_peak(2)
    assert two <= 1.1 * one, (one, two)


def test_policy_training_frees_each_iteration_tape(setup1, monkeypatch):
    # iteration k's tape and every tensor on it are gone, with the cycle
    # collector off, before iteration k+1 starts its first shape rollout
    cfg, sm, policy = setup1
    seen: list[weakref.ref] = []

    def watched(model, config, tape, q_batch, frozen=False):
        alive = [i for i, ref in enumerate(seen) if ref() not in (None, tape)]
        assert alive == [], f"training tapes {alive} outlive their iteration"
        if not any(ref() is tape for ref in seen):
            seen.append(weakref.ref(tape))
        return rollout_shape(model, config, tape, q_batch, frozen)

    monkeypatch.setattr(control_node, "rollout_shape", watched)
    train_cfg = ControlTrainConfig(batch_size=2, iterations=3)
    gc.collect()
    gc.disable()
    try:
        train_control_node(sm, cfg, train_cfg, ControlLossConfig(), model=policy)
    finally:
        gc.enable()
    assert len(seen) == 3


def test_frozen_jacobian_and_plan_match_trainable_tape(setup1, rng, monkeypatch):
    # IK (tip Jacobians) and every receding-horizon plan run on frozen
    # models; with every leaf trainable they must give the same bits
    cfg, sm, policy = setup1
    q = rng.uniform(cfg.q_min, cfg.q_max, (4, cfg.action_dim))
    q[0] = 0.8 * cfg.q_max  # outside the curvature norm ball

    def run():
        jacs = [tip_jacobian(sm, qi, cfg)[1] for qi in q]
        (log,) = closed_loop_track(
            policy,
            sm,
            cfg,
            "circle",
            [np.random.default_rng(2)],
            duration=2.0,
            noise_std=0.00033,
        )
        return jacs, log.actions

    frozen_jacs, frozen_actions = run()
    monkeypatch.setattr(Tape, "constant", Tape.tensor)
    jacs, actions = run()
    for got, want in zip(frozen_jacs, jacs):
        assert np.array_equal(got, want)
    assert np.array_equal(frozen_actions, actions)


@pytest.mark.parametrize("scenario", ["tracking", "obstacle"])
def test_float32_policy_gradient_matches_float64(scenario):
    # policy training computes on a float32 tape; over 2 segments, 32x32
    # models, batch 16 and the full horizon, the per-array policy
    # gradients agree with float64 to <= 8.4e-7 relative on these 4 seeds
    # (<= 1.3e-6 over 12), so 1e-5 leaves a 12x margin and still catches
    # a float16 or a dropped term
    cfg = RobotConfig(n_segments=2)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sm = init_shape_model(rng, cfg, hidden=(32, 32))
        sm.params.weights[-1][:] = 0.05 * rng.standard_normal((32, 7))
        policy = init_control_model(rng, cfg, hidden=(32, 32))
        q0 = rng.uniform(-3.0, 3.0, (16, cfg.action_dim))
        points = predict_shape_batch(sm, q0, cfg)
        goal = points[:, -1] + rng.uniform(-0.03, 0.03, (16, 3))
        obstacle = None
        if scenario == "obstacle":
            # 1 cm off the mean mid-backbone point: inside the penalty's band
            center = points[:, points.shape[1] // 2].mean(axis=0) + [0.01, 0.0, 0.0]
            obstacle = ObstacleSpec(center=center)
        grads = {}
        for dtype in (np.float64, TRAIN_DTYPE):
            res = rollout_policy(policy, sm, cfg, Tape(dtype), q0, goal)
            loss = control_loss(res, ControlLossConfig(noise_std=0.0), obstacle)
            grads[dtype] = collect_mlp_grads(ad.backward(loss), res.policy_tensors)
        for g32, g64 in zip(grads[TRAIN_DTYPE], grads[np.float64], strict=True):
            assert g32.dtype == np.float32
            assert np.linalg.norm(g32 - g64) <= 1e-5 * np.linalg.norm(g64)


def test_policy_training_runs_float32_keeps_float64_state(setup1, tmp_path, monkeypatch):
    cfg, sm, policy = setup1
    seen = []
    adam_step = control_node.adam_step

    def spy(params, grads, lr):
        seen.extend(g.dtype for g in grads)
        return adam_step(params, grads, lr)

    monkeypatch.setattr(control_node, "adam_step", spy)
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.08]))
    tcfg = ControlTrainConfig(batch_size=4, iterations=3, seed=2)
    model, _ = train_control_node(
        sm, cfg, tcfg, ControlLossConfig(), obstacle, model=policy
    )
    assert seen and set(seen) == {np.dtype(TRAIN_DTYPE)} == {np.dtype(np.float32)}
    p = model.params
    state = {
        "weights": p.weights, "biases": p.biases, "adam_m": p.adam_m, "adam_v": p.adam_v
    }
    for arrays in state.values():
        assert arrays and all(a.dtype == np.float64 for a in arrays)
    path = tmp_path / "control_model.json"
    save_control_model(path, model, cfg)
    # the file holds the network, bit for bit, and no Adam state
    saved = model_file_arrays(*split_model_file(path.read_bytes()))["params"]
    assert list(saved) == ["weights", "biases", "input_scale", "output_scale"]
    for key in ("weights", "biases"):
        for b, a in zip(saved[key], state[key], strict=True):
            assert b.shape == a.shape and b.tobytes() == a.tobytes()


def test_policy_training_equals_one_against_a_float32_shape_model(setup1):
    # training casts the frozen shape model to float32 itself: against a
    # copy already cast, the policy and the history are bit for bit the same
    cfg, sm, _ = setup1
    cast = dataclasses.replace(
        sm,
        params=dataclasses.replace(
            sm.params,
            weights=[w.astype(np.float32) for w in sm.params.weights],
            biases=[b.astype(np.float32) for b in sm.params.biases],
        ),
    )
    obstacle = ObstacleSpec(center=np.array([0.02, 0.0, 0.08]))
    runs = []
    for shape_model in (sm, cast):
        policy = small_policy(np.random.default_rng(5), cfg)
        tcfg = ControlTrainConfig(batch_size=4, iterations=2)
        _, history = train_control_node(
            shape_model, cfg, tcfg, ControlLossConfig(), obstacle, model=policy
        )
        runs.append((policy.params.param_arrays(), history))
    (params, history), (ref_params, ref_history) = runs
    assert history == ref_history
    for got, want in zip(params, ref_params, strict=True):
        assert np.array_equal(got, want)
    assert all(a.dtype == np.float64 for a in sm.params.param_arrays())


def test_the_frozen_shape_model_is_cast_once_per_training_call(setup1, monkeypatch):
    # every shape solve of a training call reads one float32 cast of the
    # shape model's weights and biases, not one per iteration or per solve
    cfg, sm, _ = setup1
    solves = []

    def watched(model, config, tape, q_batch, frozen=False):
        ro = rollout_shape(model, config, tape, q_batch, frozen)
        solves.append([t.value for t in ro.mt.param_tensors()])
        return ro

    monkeypatch.setattr(control_node, "rollout_shape", watched)
    casts = []
    for _ in range(2):
        solves.clear()
        policy = small_policy(np.random.default_rng(5), cfg)
        tcfg = ControlTrainConfig(batch_size=2, iterations=3)
        train_control_node(sm, cfg, tcfg, ControlLossConfig(), model=policy)
        assert len(solves) == tcfg.iterations * (policy.horizon + 1)
        first = solves[0]
        for arrays in solves:
            assert all(a is b for a, b in zip(arrays, first, strict=True))
        for a, master in zip(first, sm.params.param_arrays(), strict=True):
            assert a.dtype == np.float32 and np.array_equal(a, master.astype(np.float32))
        casts.append(first)
    # each call makes its own cast, from the arrays as they are then
    assert not any(a is b for a, b in zip(*casts, strict=True))


def test_saturated_float32_actions_past_an_unrepresentable_bound_train(rng):
    # float32(12.3) > 12.3, so a policy driving tanh to 1 on the float32
    # tape emits an action past q_max; the frozen shape solve must take it
    cfg = RobotConfig(n_segments=1, u_max=12.3)
    sm = small_shape_model(rng, cfg)
    policy = small_policy(rng, cfg, horizon=10)  # z reaches 10: tanh is 1
    policy.params.biases[-1][:] = 50.0
    tape = Tape(TRAIN_DTYPE)
    res = rollout_policy(policy, sm, cfg, tape, np.zeros((2, 2)), np.zeros((2, 3)))
    assert res.actions[-1].value.astype(np.float64).max() > cfg.q_max
    tcfg = ControlTrainConfig(batch_size=2, iterations=1)
    train_control_node(sm, cfg, tcfg, ControlLossConfig(), model=policy)


def test_deployment_tapes_are_float64(setup1, monkeypatch):
    # only training computes in float32: IK, the tip Jacobian and every
    # tick, closed- and open-loop, build float64 tapes
    cfg, sm, policy = setup1
    dtypes = []
    init = Tape.__init__

    def spy(tape, *args, **kwargs):
        init(tape, *args, **kwargs)
        dtypes.append(tape.dtype)

    monkeypatch.setattr(Tape, "__init__", spy)
    for step in (policy, None):
        closed_loop_track(step, sm, cfg, "circle", [None], duration=1.5)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        dtypes.clear()
    tip_jacobian(sm, np.zeros(cfg.action_dim), cfg)
    assert dtypes == [np.dtype(np.float64)]


def test_training_divergence_names_iteration(setup1, rng):
    cfg, sm, policy = setup1
    policy.params.weights[0][0, 0] = np.nan
    tcfg = ControlTrainConfig(batch_size=2, iterations=3)
    with pytest.raises(FloatingPointError, match="iteration 1"):
        train_control_node(sm, cfg, tcfg, ControlLossConfig(), model=policy)


def test_clamp_to_workspace():
    cfg = RobotConfig(n_segments=1)  # total length 0.1
    t = np.array(
        [
            [0.01, 0.02, -0.05],
            [0.2, 0.0, 0.0],
            [0.01, 0.0, 0.05],
        ]
    )
    out = clamp_to_workspace(t, cfg)
    assert out[0, 2] == 0.0
    assert abs(np.linalg.norm(out[1]) - 0.098) < 1e-12
    assert np.array_equal(out[2], t[2])


# ---------------------------------------------------------------------------
# deployment loops


def test_damped_pinv_matches_exact_pseudoinverse(rng, monkeypatch):
    jac = rng.standard_normal((3, 6))
    exact = np.linalg.pinv(jac)
    monkeypatch.setattr(control_node, "PINV_DAMPING", 0.0)
    assert np.abs(damped_pinv(jac) - exact).max() < 1e-8
    # Moore-Penrose identity on the damped variant, small damping
    monkeypatch.setattr(control_node, "PINV_DAMPING", 1e-12)
    jp = damped_pinv(jac)
    assert np.abs(jac @ jp @ jac - jac).max() < 1e-6


def test_evaluate_tracking_examples():
    n = 50
    goals = np.zeros((n, 3))
    perfect = TrackingLog(
        times=np.arange(n, dtype=float),
        goals=goals,
        tips=goals.copy(),
        actions=np.zeros((n, 2)),
    )
    m = evaluate_tracking([perfect])
    assert np.all(m.rmse_mm == 0.0)
    assert m.aggregate_rmse_mm == 0.0
    assert m.n_ticks == n

    off = np.array([0.003, -0.004, 0.0])
    shifted = TrackingLog(
        times=np.arange(n, dtype=float),
        goals=goals,
        tips=goals + off,
        actions=np.zeros((n, 2)),
    )
    m = evaluate_tracking([shifted, shifted])
    assert np.allclose(m.rmse_mm, np.abs(off) * 1000.0, atol=1e-9)
    assert np.allclose(m.std_mm, 0.0, atol=1e-9)
    assert abs(m.aggregate_rmse_mm - 5.0) < 1e-9
    assert m.n_ticks == 2 * n

    empty = TrackingLog(
        times=np.zeros(0),
        goals=np.zeros((0, 3)),
        tips=np.zeros((0, 3)),
        actions=np.zeros((0, 2)),
    )
    with pytest.raises(ValueError):
        evaluate_tracking([empty])


def test_count_violations():
    obstacle = ObstacleSpec(center=np.zeros(3), threshold_sq=1e-4)
    log = TrackingLog(
        times=np.arange(4, dtype=float),
        goals=np.zeros((4, 3)),
        tips=np.zeros((4, 3)),
        actions=np.zeros((4, 2)),
        min_obstacle_dist=np.array([0.02, 0.009, 0.0099, 0.0101]),
    )
    assert count_violations(log, obstacle) == 2
    log.min_obstacle_dist = None
    with pytest.raises(ValueError):
        count_violations(log, obstacle)


def test_ik_solve_reaches_model_tip(setup1, rng):
    cfg, sm, _ = setup1
    q_true = rng.uniform(-5.0, 5.0, 2)
    tape = Tape()
    target = rollout_shape(sm, cfg, tape, q_true[None]).tip.value[0]
    q = ik_solve(sm, cfg, target)
    tape2 = Tape()
    tip = rollout_shape(sm, cfg, tape2, q[None]).tip.value[0]
    assert np.linalg.norm(tip - target) < 2e-4
    assert np.all(q > cfg.q_min)
    assert np.all(q < cfg.q_max)


def test_ik_makes_one_shape_solve_per_iteration(setup1, rng, monkeypatch):
    # the tip the error reads comes from the Jacobian's own solve
    cfg, sm, _ = setup1
    solve, jacobian = shape_node.rollout_shape, control_node.tip_jacobian
    solves, jacobians = [], []

    def counted_solve(*args, **kwargs):
        solves.append(args[3])
        return solve(*args, **kwargs)

    def counted_jacobian(*args, **kwargs):
        jacobians.append(args[1])
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(control_node, "rollout_shape", counted_solve)
    monkeypatch.setattr(shape_node, "rollout_shape", counted_solve)
    monkeypatch.setattr(control_node, "tip_jacobian", counted_jacobian)
    reachable = predict_shape_batch(sm, rng.uniform(-5.0, 5.0, (2, 2)), cfg)[:, -1]
    unreachable = np.array([0.0, 0.0, 2.0 * cfg.total_length])
    for target in (*reachable, unreachable):
        del solves[:], jacobians[:]
        ik_solve(sm, cfg, target)
        assert len(jacobians) >= 1
        assert len(solves) == len(jacobians)


def test_batched_ik_runs_each_target_as_its_own_solve(setup1, rng, monkeypatch):
    # lock step: each target keeps its own best iterate, stall count and
    # stop test, and leaves the batch once it stops
    cfg, sm, _ = setup1
    jacobian = control_node.tip_jacobian
    batch_sizes = []

    def counted_jacobian(model, q, config):
        batch_sizes.append(len(q))
        return jacobian(model, q, config)

    monkeypatch.setattr(control_node, "tip_jacobian", counted_jacobian)
    reachable = predict_shape_batch(sm, rng.uniform(-5.0, 5.0, (2, 2)), cfg)[:, -1]
    unreachable = np.array([0.0, 0.0, 2.0 * cfg.total_length])
    targets = np.array([*reachable, unreachable])
    solo, iterations = [], []
    for target in targets:
        del batch_sizes[:]
        q = ik_solve(sm, cfg, target)
        assert q.shape == (cfg.action_dim,)
        # a single target's solve is the one-target arithmetic, bit for bit
        assert np.array_equal(q, single_ik_solve(sm, cfg, target))
        solo.append(q)
        iterations.append(len(batch_sizes))
    del batch_sizes[:]
    both = ik_solve(sm, cfg, targets)
    assert both.shape == (3, cfg.action_dim)
    for got, want in zip(both, solo):
        assert np.abs(got - want).max() <= 1e-9
    # a target stays in the batch for exactly its own solve's iterations
    assert batch_sizes == [
        sum(n > k for n in iterations) for k in range(max(iterations))
    ]
    # the unreachable target stalls first, and the others go on
    assert iterations[2] < min(iterations[:2])


def test_runner_starts_from_a_given_ik_start(setup1, monkeypatch):
    cfg, sm, policy = setup1
    start = ik_solve(sm, cfg, reference_trajectory("ellipse", 0.0, cfg.total_length, 100.0))
    for step in (policy, None):
        args = (step, sm, cfg, "ellipse")
        kw = dict(duration=1.5, noise_std=1e-3)
        (own,) = closed_loop_track(*args, [np.random.default_rng(5)], **kw)
        with monkeypatch.context() as patch:
            # a runner given its start solves no IK of its own
            patch.setattr(control_node, "ik_solve", None)
            (given,) = closed_loop_track(
                *args, [np.random.default_rng(5)], q_start=start, **kw
            )
        for field in ("goals", "tips", "actions"):
            assert np.array_equal(getattr(own, field), getattr(given, field)), field


def test_tracking_loops_structure(setup1, rng):
    cfg, sm, policy = setup1
    obstacle = ObstacleSpec(center=np.array([0.05, 0.0, 0.05]))
    (closed,) = closed_loop_track(
        policy,
        sm,
        cfg,
        "circle",
        [np.random.default_rng(0)],
        duration=2.5,
        period=100.0,
        obstacle=obstacle,
        noise_std=0.00033,
    )
    assert closed.n_ticks == 5
    assert np.allclose(closed.times, 0.5 * np.arange(1, 6))
    assert closed.min_obstacle_dist.shape == (5,)
    assert np.all(closed.actions > cfg.q_min)
    assert np.all(closed.actions < cfg.q_max)

    (open_log,) = closed_loop_track(
        None, sm, cfg, "circle", [None], duration=2.5, period=100.0
    )
    assert open_log.n_ticks == 5
    assert open_log.min_obstacle_dist is None
    assert np.all(open_log.actions > cfg.q_min)
    assert np.all(open_log.actions < cfg.q_max)

    # matched seeds reproduce the closed-loop run byte for byte
    (again,) = closed_loop_track(
        policy,
        sm,
        cfg,
        "circle",
        [np.random.default_rng(0)],
        duration=2.5,
        period=100.0,
        obstacle=obstacle,
        noise_std=0.00033,
    )
    assert np.array_equal(closed.tips, again.tips)
    assert np.array_equal(closed.actions, again.actions)

    (empty,) = closed_loop_track(policy, sm, cfg, "circle", [None], duration=0.0)
    assert empty.n_ticks == 0


def test_closed_loop_plans_from_the_observed_robot(setup1):
    # a payload the shape model knows nothing of moves only the simulated
    # backbone; a plan that observes it commands other actions
    cfg, sm, policy = setup1

    def actions(grams):
        (log,) = closed_loop_track(
            policy, sm, cfg, "circle", [None], duration=1.5, payload_grams=grams
        )
        return log.actions

    assert not np.array_equal(actions(0.0), actions(20.0))


@pytest.mark.parametrize("closed", [True, False])
def test_runner_trials_match_one_trial_calls(setup1, closed):
    cfg, sm, policy = setup1
    step = policy if closed else None
    obstacle = ObstacleSpec(center=np.array([0.05, 0.0, 0.05]))
    kw = dict(
        duration=2.0,
        period=100.0,
        payload_grams=5.0,
        obstacle=obstacle,
        noise_std=0.00033,
    )
    both = closed_loop_track(
        step,
        sm,
        cfg,
        "ellipse",
        [np.random.default_rng(3), np.random.default_rng(4)],
        **kw,
    )
    assert len(both) == 2
    for log, seed in zip(both, (3, 4)):
        (solo,) = closed_loop_track(
            step, sm, cfg, "ellipse", [np.random.default_rng(seed)], **kw
        )
        for field in ("times", "goals", "tips", "actions", "min_obstacle_dist"):
            assert np.array_equal(getattr(log, field), getattr(solo, field)), field
    # seeded observation noise separates closed-loop trials only
    assert np.array_equal(both[0].actions, both[1].actions) == (not closed)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(setup1, tmp_path):
    cfg, _, policy = setup1
    path = tmp_path / "policy.json"
    save_control_model(path, policy, cfg)
    loaded, cfg2 = load_control_model(path)
    assert cfg2 == cfg
    assert loaded.horizon == policy.horizon
    assert loaded.action_dim == cfg.action_dim
    doc, _ = split_model_file(path.read_bytes())
    # the policy holds only its horizon; the step rule is the program's,
    # and the robot config owns the segment count and the action box
    assert list(doc) == ["format", "horizon", "robot_config", "robot_config_hash", "params"]
    for a, b in zip(loaded.params.param_arrays(), policy.params.param_arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.params.input_scale, policy.params.input_scale)
    # the policy scales no output
    assert np.array_equal(loaded.params.output_scale, np.ones(cfg.action_dim))


def test_saving_a_policy_holds_one_array_at_a_time(rng, tmp_path):
    # a 256x256 policy is a 0.62 MB file, its trained network's moments
    # left out; each array is written from its own buffer, so a save
    # holds the header and no copy (24 KB traced), where writing one
    # array's base64 at a time peaked near 1.06 MB and building the whole
    # document's text at 7.5 MB
    cfg = RobotConfig(n_segments=3)
    policy = init_control_model(rng, cfg, hidden=(256, 256))
    adam_step(policy.params, [np.ones_like(a) for a in policy.params.param_arrays()], 1e-3)
    path = tmp_path / "policy.json"
    gc.collect()
    tracemalloc.start()
    try:
        save_control_model(path, policy, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header = path.read_bytes().split(b"\n", 1)[0]
    p = policy.params
    arrays = sum(a.nbytes for a in [*p.param_arrays(), p.input_scale, p.output_scale])
    assert arrays == 620_952
    assert path.stat().st_size == len(header) + 1 + arrays
    assert peak <= 64 * 1024, peak


def test_load_rejects_malformed(setup1, tmp_path):
    cfg, _, policy = setup1
    path = tmp_path / "policy.json"
    save_control_model(path, policy, cfg)

    (tmp_path / "junk.json").write_text("not json at all")
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "junk.json")

    doc, payload = split_model_file(path.read_bytes())
    doc["format"] = "something-else"
    (tmp_path / "other.json").write_bytes(joined_model_file(doc, payload))
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "other.json")

    doc, payload = split_model_file(path.read_bytes())
    doc["robot_config"]["u_max"] = 12.0
    (tmp_path / "tampered.json").write_bytes(joined_model_file(doc, payload))
    with pytest.raises(ValueError, match="hash"):
        load_control_model(tmp_path / "tampered.json")

    doc, payload = split_model_file(path.read_bytes())
    del doc["params"]
    (tmp_path / "partial.json").write_bytes(joined_model_file(doc, b""))
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "partial.json")

    # a one-segment policy bound to a two-segment robot, hash and all
    doc, payload = split_model_file(path.read_bytes())
    doc["robot_config"] = RobotConfig(n_segments=2).to_dict()
    doc["robot_config_hash"] = robot_config_hash(RobotConfig(n_segments=2))
    (tmp_path / "wider_robot.json").write_bytes(joined_model_file(doc, payload))
    with pytest.raises(ValueError, match="emits 2 actions, its robot config has 4"):
        load_control_model(tmp_path / "wider_robot.json")
