"""Control policy: bounding, observations, rollout loss, tracking loops."""

import base64
import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import rel_err, single_ik_solve
from shapectl import autodiff as ad
from shapectl import control_node, shape_node
from shapectl.autodiff import Tape
from shapectl.control_node import (
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
    observation_dim,
    policy_step,
    rollout_policy,
    save_control_model,
    train_control_node,
    unbound_actions,
)
from shapectl.nn import collect_mlp_grads, init_mlp
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
    ds = downsample_shape([tape.constant(pts[None, i]) for i in range(30)])
    assert len(ds) == 9
    for t, (j0, j1, w) in zip(ds, _downsample_plan(30)):
        want = pts[j0] if w == 0.0 else pts[j0] * (1.0 - w) + pts[j1] * w
        assert np.array_equal(t.value[0], want)
    # every third sample is an exact grid row, the final one the tip
    assert np.array_equal(ds[2].value[0], pts[9])
    assert np.array_equal(ds[5].value[0], pts[19])
    assert np.array_equal(ds[8].value[0], pts[29])


def test_observation_dim():
    assert observation_dim(RobotConfig(n_segments=1)) == 35
    assert observation_dim(RobotConfig(n_segments=3)) == 39
    assert observation_dim(RobotConfig(n_segments=4)) == 41


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
        ControlNodeModel(params=init_mlp(rng, [10, 8, 4]))
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
    for a, b in zip(res.shapes_ds[0], res.shapes_ds[-1]):
        assert np.allclose(a.value, b.value, atol=1e-12)


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
    observed = [tape.constant(p[None]) for p in shape.points[1:]]
    goal = np.zeros((1, 3))
    res = rollout_policy(policy, sm, cfg, tape, q0, goal, initial_points=observed)
    assert len(res.rollouts) == policy.horizon
    for got, want in zip(res.shapes_ds[0], downsample_shape(observed), strict=True):
        assert np.array_equal(got.value, want.value)
    assert np.array_equal(res.shapes_ds[0][-1].value[0], shape.tip)
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
    observed = np.stack([forward_kinematics(cfg, q).points[1:] for q in q0], axis=1)

    tape = Tape()
    full = rollout_policy(
        policy,
        sm,
        cfg,
        tape,
        q0,
        goal,
        initial_points=[tape.constant(p) for p in observed],
        noise_rng=np.random.default_rng(100 + seed),
        noise_std=1e-3,
    )
    tape = Tape()
    _, q1 = policy_step(
        policy,
        cfg,
        policy.params.as_tensors(tape, frozen=True),
        downsample_shape([tape.constant(p) for p in observed]),
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
    q0 = ik_solve(sm, cfg, reference_trajectory("circle", 0.0, cfg.total_length))
    goal = reference_trajectory("circle", 0.5, cfg.total_length)
    tape = Tape()
    plan = rollout_policy(
        policy,
        sm,
        cfg,
        tape,
        q0[None],
        goal[None],
        initial_points=[
            tape.constant(p[None]) for p in forward_kinematics(cfg, q0).points[1:]
        ],
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
        for prev_p, cur_p in zip(result.shapes_ds[k - 1], result.shapes_ds[k]):
            dp = cur_p.value - prev_p.value
            total += cfg.shape_weight * np.mean((dp**2).sum(axis=1))
        if obstacle is not None:
            pts = np.stack([p.value for p in result.rollouts[k - 1].points], axis=1)
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


def test_min_sq_distance_value_and_gradient(rng):
    tape = Tape()
    pts = rng.standard_normal((4, 5, 3))
    tensors = [tape.tensor(pts[:, j]) for j in range(5)]
    center = np.array([0.2, -0.1, 0.4])
    d2min = _min_sq_distance(tensors, center)
    expect = ((pts - center) ** 2).sum(axis=2).min(axis=1)
    assert np.allclose(d2min.value, expect, atol=1e-14)
    grads = ad.backward(ad.reduce_sum(d2min))
    idx = ((pts - center) ** 2).sum(axis=2).argmin(axis=1)
    for j, t in enumerate(tensors):
        g = ad.grad_of(grads, t)
        for b in range(4):
            if idx[b] == j:
                assert np.allclose(g[b], 2.0 * (pts[b, j] - center), atol=1e-12)
            else:
                assert np.all(g[b] == 0.0)


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
                scenario="obstacle",
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
    # the sweep frees each iteration's forward residuals, so a second
    # iteration adds only the first one's tape bookkeeping (node ids and
    # parent tuples, about 0.6 MB here) to the traced peak; with the
    # residuals kept until the tape dies the ratio is above 1.5
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
        sm, cfg, tcfg, ControlLossConfig(), "obstacle", obstacle, model=policy
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
    saved = json.loads(path.read_text())["params"]
    for key, arrays in state.items():
        for enc, a in zip(saved[key], arrays, strict=True):
            raw = base64.b64decode(enc["data"])
            assert len(raw) == 8 * a.size
            assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(a.shape), a)


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


def test_training_scenario_validation(setup1):
    cfg, sm, policy = setup1
    tcfg = ControlTrainConfig(batch_size=2, iterations=1)
    loss_cfg = ControlLossConfig()
    with pytest.raises(ValueError, match="scenario"):
        train_control_node(sm, cfg, tcfg, loss_cfg, scenario="flying", model=policy)
    with pytest.raises(ValueError, match="obstacle"):
        train_control_node(sm, cfg, tcfg, loss_cfg, scenario="obstacle", model=policy)


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
    m = evaluate_tracking(perfect)
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
        evaluate_tracking(empty)


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
    start = ik_solve(sm, cfg, reference_trajectory("ellipse", 0.0, cfg.total_length))
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
    assert loaded.dt == policy.dt
    assert loaded.rate_scale == policy.rate_scale
    assert loaded.action_dim == cfg.action_dim
    # the robot config owns the segment count and the action box
    assert not {"n_segments", "q_min", "q_max"} & set(json.loads(path.read_text()))
    for a, b in zip(loaded.params.param_arrays(), policy.params.param_arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.params.input_scale, policy.params.input_scale)


def test_load_rejects_malformed(setup1, tmp_path):
    import json

    cfg, _, policy = setup1
    path = tmp_path / "policy.json"
    save_control_model(path, policy, cfg)

    (tmp_path / "junk.json").write_text("not json at all")
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "junk.json")

    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    (tmp_path / "other.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "other.json")

    doc = json.loads(path.read_text())
    doc["robot_config"]["u_max"] = 12.0
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hash"):
        load_control_model(tmp_path / "tampered.json")

    doc = json.loads(path.read_text())
    del doc["params"]
    (tmp_path / "partial.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_control_model(tmp_path / "partial.json")

    # a one-segment policy bound to a two-segment robot, hash and all
    doc = json.loads(path.read_text())
    doc["robot_config"] = RobotConfig(n_segments=2).to_dict()
    doc["robot_config_hash"] = robot_config_hash(RobotConfig(n_segments=2))
    (tmp_path / "wider_robot.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="emits 2 actions, its robot config has 4"):
        load_control_model(tmp_path / "wider_robot.json")
