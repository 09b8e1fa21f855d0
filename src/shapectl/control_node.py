"""Time-domain neural ODE policy for whole-body tip control.

The policy is an MLP whose output drives the pre-activation action state
z through time; the emitted action is q = q_min + (tanh(z)+1)/2 *
(q_max - q_min) in the robot config's box, so bounds hold exactly for
all time.  One :func:`policy_step` observes a (batch, 9, 3) backbone
(nine points evenly spaced in grid index, one two-point stencil over a
shape rollout's (batch, P, 3) points), its tip, the current action and
the goal, and adds the policy output to z.  With the observation frozen
over the step the stage dynamics are constant, so any single-step
scheme lands on the same value, and the memoryless step makes acting
from an achieved state continue the plan.
Training rolls steps out against the shape model, each observing the
previous step's predicted backbone, and minimizes an MPC-style loss
(tracking, action rate, shape consistency, terminal, optional obstacle
proximity) through the full rollout.  Only a plan's first action is ever
applied, and it depends on the first observation alone, so the episode
runner :func:`closed_loop_track` makes one step per tick from the
observed robot; as the open-loop baseline it instead integrates
q' = J+ g' with the damped pseudo-inverse of the model tip Jacobian and
no feedback.  Both start from one inverse-kinematics solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor, check_finite
from .nn import (
    MlpParams,
    MlpTensors,
    adam_step,
    collect_mlp_grads,
    init_mlp,
    json_int,
    mlp_forward,
)
from .robot import (
    ObstacleSpec,
    RobotConfig,
    forward_kinematics,
    min_obstacle_distance,
    per_axis_error_mm,
    reference_trajectory,
)
from .shape_node import (
    TRAIN_DTYPE,
    ShapeNodeModel,
    ShapeRollout,
    _read_model_file,
    _write_model_file,
    rollout_shape,
    tip_jacobian,
)

OBS_POINTS = 9  # backbone samples per observation, tip included

CONTROL_MODEL_FORMAT = "control-node-v4"

TICKS_PER_PERIOD = 200

# the terms of the rollout loss, each weighted by ControlLossConfig's
# ``<term>_weight``; the obstacle term, last, needs an obstacle
LOSS_TERMS = ("tracking", "action_rate", "shape", "terminal", "obstacle")

# damped least squares: Tikhonov damping of the pseudo-inverse, and the
# inverse-kinematics iteration cap and tip tolerance (meters)
PINV_DAMPING = 1e-6
IK_MAX_ITERS = 200
IK_TOL = 1e-4


def observation_blocks(action_dim: int) -> tuple[int, int, int]:
    """Widths of the observation's blocks: the nine backbone points and
    the tip, the action, the goal."""
    return 3 * OBS_POINTS + 3, action_dim, 3


@dataclass
class ControlLossConfig:
    """Weights and noise settings for the MPC-style rollout loss."""

    tracking_weight: float = 5000.0
    action_rate_weight: float = 100.0
    shape_weight: float = 200.0
    terminal_weight: float = 1000.0
    obstacle_weight: float = 100.0
    noise_std: float = 0.00033

    def __post_init__(self):
        if any(getattr(self, f"{t}_weight") < 0 for t in LOSS_TERMS):
            raise ValueError("loss weights must be non-negative")
        if self.noise_std < 0:
            raise ValueError("noise stddev must be non-negative")

    def terms(self, obstacle: bool) -> tuple[str, ...]:
        """The loss terms a scenario adds: those of positive weight, the
        obstacle term only with an ``obstacle``."""
        used = LOSS_TERMS if obstacle else LOSS_TERMS[:-1]
        return tuple(t for t in used if getattr(self, f"{t}_weight") > 0.0)


@dataclass
class ControlTrainConfig:
    """Optimization schedule for :func:`train_control_node`."""

    batch_size: int = 256
    iterations: int = 10_000
    learning_rate: float = 1e-3
    reset_scale: float = 0.2
    target_scale: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.reset_scale < 1.0:
            raise ValueError("reset_scale must lie in (0, 1)")
        if self.target_scale <= 0:
            raise ValueError("target_scale must be positive")


@dataclass
class ControlNodeModel:
    """Policy network plus the horizon it was built for; the robot
    config passed alongside owns the action box."""

    params: MlpParams
    horizon: int

    def __post_init__(self):
        sizes = self.params.sizes
        expect_in = sum(observation_blocks(self.action_dim))
        if sizes[0] != expect_in:
            raise ValueError(
                f"policy must map {expect_in} -> {self.action_dim}, "
                f"got {sizes[0]} inputs"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @property
    def action_dim(self) -> int:
        return self.params.sizes[-1]


def init_control_model(
    rng: np.random.Generator,
    config: RobotConfig,
    hidden: tuple[int, ...] = (256, 256),
    horizon: int = 10,
) -> ControlNodeModel:
    """Fresh Glorot-initialized policy for one robot geometry."""
    out_dim = config.action_dim
    # positions in meters get x10, actions normalize by the bound
    blocks = observation_blocks(out_dim)
    input_scale = np.repeat([10.0, 1.0 / config.u_max, 10.0], blocks)
    sizes = [sum(blocks), *hidden, out_dim]
    params = init_mlp(rng, sizes, input_scale=input_scale)
    return ControlNodeModel(params=params, horizon=horizon)


def bound_actions(z: Tensor, q_min: float, q_max: float) -> Tensor:
    """Map the unbounded state to q_min + (tanh(z)+1)/2 (q_max - q_min)."""
    half = 0.5 * (q_max - q_min)
    mid = 0.5 * (q_max + q_min)
    return ad.add_const(ad.scale(ad.tanh(z), half), mid)


def unbound_actions(q: Array, q_min: float, q_max: float) -> Array:
    """Inverse of :func:`bound_actions`; actions must be strictly inside."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(q <= q_min) or np.any(q >= q_max):
        raise ValueError("actions must lie strictly inside the bounds")
    half = 0.5 * (q_max - q_min)
    mid = 0.5 * (q_max + q_min)
    return np.arctanh((q - mid) / half)


def _downsample_plan(n_points: int) -> list[tuple[int, int, float]]:
    """Interpolation stencil mapping the solver grid to nine samples.

    Output i targets index fraction (i+1)/OBS_POINTS; with grid point j
    at fraction (j+1)/n_points, each entry gives (j0, j1, w) for the
    convex combination (1-w) point[j0] + w point[j1].  The final entry
    is always the tip exactly.  Every segment has the same number of
    grid points, so the samples are equal in arc only when the segments
    are equal in length.
    """
    if n_points < OBS_POINTS:
        raise ValueError("grid has fewer points than the downsample asks for")
    plan = []
    for i in range(1, OBS_POINTS + 1):
        target = i * n_points / OBS_POINTS - 1.0
        j0 = min(int(np.floor(target)), n_points - 1)
        w = target - j0
        if w < 1e-12:
            plan.append((j0, j0, 0.0))
        else:
            plan.append((j0, min(j0 + 1, n_points - 1), w))
    return plan


def downsample_shape(points: Tensor) -> Tensor:
    """Nine backbone points (tip last), evenly spaced in grid index:
    (batch, P, 3) to (batch, 9, 3), one two-point stencil."""
    j0, j1, w = zip(*_downsample_plan(points.shape[1]))
    return ad.blend(points, list(j0), list(j1), w)


def policy_step(
    config: RobotConfig,
    pmt: MlpTensors,
    backbone: Tensor,
    q: Tensor,
    z: Tensor,
    goal: Tensor,
    noise_rng: np.random.Generator | None,
    noise_std: float,
) -> tuple[Tensor, Tensor]:
    """Observe ``backbone`` (batch, 9, 3), tip last, then its tip, ``q``
    and ``goal``, add one draw of noise (none without ``noise_rng``), add
    one call of ``pmt`` to ``z`` and bound it to ``config``'s action box.

    Returns the new ``(z, q)``; a non-finite action raises
    ``FloatingPointError``.
    """
    width = 3 * OBS_POINTS
    flat = ad.reshape(backbone, (backbone.shape[0], width))
    obs = ad.concat([flat, ad.slice_cols(flat, width - 3, width), q, goal], axis=1)
    if noise_rng is not None and noise_std > 0.0:
        obs = ad.add_const(obs, noise_rng.normal(0.0, noise_std, size=obs.value.shape))
    z = ad.add(z, mlp_forward(pmt, obs))
    q = bound_actions(z, config.q_min, config.q_max)
    check_finite(q.value, "policy action")
    return z, q


@dataclass
class RolloutResult:
    """One differentiable policy rollout over the horizon.

    ``actions``/``tips`` hold the M post-step tensors; ``shapes_ds`` has
    M+1 (batch, 9, 3) backbones (index 0 is the first observation);
    ``rollouts[k]`` is the full shape solve behind step k+1.  ``goal``
    (batch, 3) holds over the whole horizon.
    ``policy_tensors`` is the tape-resident parameter set every step
    reused, so adjoints accumulate across the horizon.
    """

    actions: list[Tensor]
    shapes_ds: list[Tensor]
    rollouts: list[ShapeRollout]
    policy_tensors: MlpTensors
    q0: Array
    goal: Array

    @property
    def horizon(self) -> int:
        return len(self.actions)

    @property
    def tips(self) -> list[Tensor]:
        return [ro.tip for ro in self.rollouts]


def rollout_policy(
    policy: ControlNodeModel,
    shape_model: ShapeNodeModel,
    config: RobotConfig,
    tape: Tape,
    q0: Array,
    goal: Array,
    initial_points: Tensor | None = None,
    noise_rng: np.random.Generator | None = None,
    noise_std: float = 0.0,
) -> RolloutResult:
    """Roll the policy for ``policy.horizon`` steps against the shape model.

    The training rollout: each step is one :func:`policy_step` on the
    trainable policy, then a frozen shape solve whose prediction is the
    next observation.  ``goal`` (batch, 3) holds over the horizon.  The
    first observation is ``initial_points``, a (batch, P, 3) backbone on
    this tape ordered base (excluded) to tip, or else a fresh shape solve
    at ``q0``.
    Gaussian noise of ``noise_std`` perturbs every observation.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if goal.shape != (q0.shape[0], 3):
        raise ValueError(f"goal must have shape ({q0.shape[0]}, 3)")
    if initial_points is None:
        initial_points = rollout_shape(shape_model, config, tape, q0, frozen=True).points
    shapes_ds = [downsample_shape(initial_points)]

    pmt = policy.params.as_tensors(tape)
    z = tape.constant(unbound_actions(q0, config.q_min, config.q_max))
    q_cur = tape.constant(q0)
    goal_leaf = tape.constant(goal)
    actions: list[Tensor] = []
    rollouts: list[ShapeRollout] = []
    for k in range(policy.horizon):
        try:
            z, q_cur = policy_step(
                config, pmt, shapes_ds[k], q_cur, z, goal_leaf, noise_rng, noise_std
            )
            ro = rollout_shape(shape_model, config, tape, q_cur, frozen=True)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"policy rollout failed at horizon step {k + 1}: {exc}"
            ) from exc
        actions.append(q_cur)
        shapes_ds.append(downsample_shape(ro.points))
        rollouts.append(ro)
    return RolloutResult(
        actions=actions,
        shapes_ds=shapes_ds,
        rollouts=rollouts,
        policy_tensors=pmt,
        q0=q0,
        goal=goal,
    )


def _min_sq_distance(points: Tensor, center: Array) -> Tensor:
    """Min squared obstacle distance per sample of a (batch, P, 3)
    backbone; the subgradient goes to the first closest point."""
    d2 = ad.reduce_sum(ad.square(ad.add_const(points, -center)), axis=2)
    nearest = np.argmin(d2.value, axis=1)
    onehot = np.arange(d2.shape[1]) == nearest[:, None]
    return ad.reduce_sum(ad.cmul(d2, onehot), axis=1)


def _mean_sq(x: Tensor) -> Tensor:
    """Batch mean of each sample's sum of squares."""
    return ad.scale(ad.reduce_sum(ad.square(x)), 1.0 / x.shape[0])


def control_loss(
    result: RolloutResult,
    cfg: ControlLossConfig,
    obstacle: ObstacleSpec | None = None,
    term_values: list[float] | None = None,
) -> Tensor:
    """Batch-mean MPC loss over the rollout, as a scalar tensor.

    Sum over horizon steps of tracking, action-rate, and shape
    consistency terms, a terminal tracking term, and (when an obstacle
    is given) a smooth proximity penalty on the closest predicted
    backbone point, standing in for the hard violation indicator:
    sigmoid((thr - d2_min) / tau) with thr the obstacle's
    ``threshold_sq`` and the surrogate width tau a tenth of it.

    A ``term_values`` list receives each weighted term as a python
    float, in the order the tape adds them: their sum is the loss in
    float64 whatever the tape's dtype, so a term far below the total
    still counts (on a float64 tape it equals the tensor bitwise).
    A loss with no term (:meth:`ControlLossConfig.terms`) raises
    ``ValueError``.
    """
    terms = cfg.terms(obstacle is not None)
    if not terms:
        raise ValueError("every loss term has zero weight")
    m = result.horizon
    tape = result.actions[0].tape
    q0_leaf = tape.constant(result.q0)
    total: Tensor | None = None

    def accumulate(term: Tensor, weight: float):
        nonlocal total
        part = ad.scale(term, weight)
        total = part if total is None else ad.add(total, part)
        if term_values is not None:
            term_values.append(float(term.value) * weight)

    for k in range(1, m + 1):
        if "tracking" in terms:
            tip_err = ad.add_const(result.tips[k - 1], -result.goal)
            accumulate(_mean_sq(tip_err), cfg.tracking_weight)
        if "action_rate" in terms:
            prev_q = q0_leaf if k == 1 else result.actions[k - 2]
            dq = ad.sub(result.actions[k - 1], prev_q)
            accumulate(_mean_sq(dq), cfg.action_rate_weight)
        if "shape" in terms:
            dp = ad.sub(result.shapes_ds[k], result.shapes_ds[k - 1])
            accumulate(_mean_sq(dp), cfg.shape_weight)
        if "obstacle" in terms:
            d2min = _min_sq_distance(result.rollouts[k - 1].points, obstacle.center)
            thr = obstacle.threshold_sq
            margin = ad.scale(ad.add_const(ad.neg(d2min), thr), 1.0 / (thr / 10.0))
            accumulate(ad.reduce_mean(ad.sigmoid(margin)), cfg.obstacle_weight)
    if "terminal" in terms:
        tip_err = ad.add_const(result.tips[m - 1], -result.goal)
        accumulate(_mean_sq(tip_err), cfg.terminal_weight)
    return total


def clamp_to_workspace(targets: Array, config: RobotConfig) -> Array:
    """Pull targets into the reachable dome: z >= 0, norm <= 0.98 L."""
    out = np.array(targets, dtype=np.float64)
    out[:, 2] = np.maximum(out[:, 2], 0.0)
    limit = 0.98 * config.total_length
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    over = norms > limit
    return np.where(over, out * (limit / np.where(over, norms, 1.0)), out)


def train_control_node(
    shape_model: ShapeNodeModel,
    config: RobotConfig,
    train_cfg: ControlTrainConfig,
    loss_cfg: ControlLossConfig,
    obstacle: ObstacleSpec | None = None,
    *,
    model: ControlNodeModel,
) -> tuple[ControlNodeModel, list[tuple[int, float]]]:
    """Train the policy ``model`` MPC-style against the frozen shape model.

    Every iteration draws a fresh batch of episodes: reset actions
    uniform within +-reset_scale * u_max, goals the episode's initial
    predicted tip perturbed by +-target_scale per axis and clamped to
    the workspace.  An ``obstacle`` adds the proximity penalty around
    it; without one the policy learns to track.  Returns the model and
    the history rows (iteration, train_loss); ``train_loss`` is the
    float64 sum of the weighted loss terms.

    Every iteration computes on a :data:`~shapectl.shape_node.TRAIN_DTYPE`
    (float32) tape, the frozen shape model's weights and the taped
    actions included, while the policy weights, the Adam moments and the
    model file stay float64 (mixed precision).  The shape model's weights
    and biases are cast once per call, into a copy that every solve of
    the run reads and that is neither trained nor saved.  Deployment,
    from :func:`ik_solve` to every tick of :func:`closed_loop_track`,
    computes in float64.
    """
    rng = np.random.default_rng(train_cfg.seed)
    reset_span = train_cfg.reset_scale * config.u_max
    cast = [a.astype(TRAIN_DTYPE) for a in shape_model.params.param_arrays()]
    frozen = replace(shape_model.params, weights=cast[::2], biases=cast[1::2])
    shape_model = replace(shape_model, params=frozen)

    def step(q0: Array) -> float:
        # the tape and its tensors die on return, before the next rollout
        tape = Tape(TRAIN_DTYPE)
        roll0 = rollout_shape(shape_model, config, tape, q0, frozen=True)
        targets = roll0.tip.value + rng.uniform(
            -train_cfg.target_scale,
            train_cfg.target_scale,
            (train_cfg.batch_size, 3),
        )
        targets = clamp_to_workspace(targets, config)
        result = rollout_policy(
            model,
            shape_model,
            config,
            tape,
            q0,
            targets,
            initial_points=roll0.points,
            noise_rng=rng,
            noise_std=loss_cfg.noise_std,
        )
        term_values: list[float] = []
        loss = control_loss(result, loss_cfg, obstacle, term_values)
        train_loss = sum(term_values)
        if not np.isfinite(train_loss):
            raise FloatingPointError("loss is not finite")
        grads = ad.backward(loss)
        policy_grads = collect_mlp_grads(grads, result.policy_tensors)
        adam_step(model.params, policy_grads, train_cfg.learning_rate)
        return train_loss

    history: list[tuple[int, float]] = []
    for it in range(1, train_cfg.iterations + 1):
        q0 = rng.uniform(
            -reset_span, reset_span, (train_cfg.batch_size, config.action_dim)
        )
        try:
            train_loss = step(q0)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"control training diverged at iteration {it}: {exc}"
            ) from exc
        history.append((it, train_loss))
    return model, history


# ---------------------------------------------------------------------------
# deployment


@dataclass
class TrackingLog:
    """Tick-by-tick record of one tracking run."""

    times: Array
    goals: Array
    tips: Array
    actions: Array
    min_obstacle_dist: Array | None = None

    @property
    def n_ticks(self) -> int:
        return self.times.shape[0]

    @property
    def errors(self) -> Array:
        return self.tips - self.goals


def damped_pinv(jac: Array) -> Array:
    """J+ = J^T (J J^T + d I)^-1 with d = :data:`PINV_DAMPING`, safe at
    singular configurations."""
    jac = np.asarray(jac, dtype=np.float64)
    gram = jac @ jac.T + PINV_DAMPING * np.eye(jac.shape[0])
    return np.linalg.solve(gram, jac).T


def _clip_inside(q: Array, q_min: float, q_max: float) -> Array:
    return np.clip(q, q_min + 1e-6, q_max - 1e-6)


def ik_solve(shape_model: ShapeNodeModel, config: RobotConfig, target: Array) -> Array:
    """Damped least-squares inverse kinematics on the model tip.

    ``target`` is one tip, (3,), giving one action, (2n,), or m of them,
    (m, 3), giving (m, 2n).  Each target starts from the zero action and
    gets the best iterate it has seen; it stops once within
    :data:`IK_TOL`, after :data:`IK_MAX_ITERS` iterations, or when its
    error stalls, which is what happens at the closest approach to an
    unreachable target.  The targets run in lock step, each with its own
    best iterate, stall count and stop test, and a target drops out of
    the batch once it stops.  Each iteration is one shape solve:
    one :func:`tip_jacobian` call on the actions still running gives
    both their tips, which the errors and the stop tests read, and the
    Jacobians of their steps.
    """
    target = np.asarray(target, dtype=np.float64)
    targets = np.reshape(target, (-1, 3))
    q = np.zeros((targets.shape[0], config.action_dim))
    best_q = q.copy()
    best_norm = [np.inf] * len(targets)
    stalled = [0] * len(targets)
    live = list(range(len(targets)))
    for _ in range(IK_MAX_ITERS):
        if not live:
            break
        tips, jacs = tip_jacobian(shape_model, q[live], config)
        running = []
        for i, tip, jac in zip(live, tips, jacs):
            err = targets[i] - tip
            norm = float(np.linalg.norm(err))
            if norm < (1.0 - 1e-3) * best_norm[i]:
                best_q[i], best_norm[i], stalled[i] = q[i], norm, 0
            else:
                stalled[i] += 1
            if best_norm[i] < IK_TOL or stalled[i] >= 5:
                continue
            step = damped_pinv(jac) @ err
            q[i] = _clip_inside(q[i] + step, config.q_min, config.q_max)
            running.append(i)
        live = running
    return best_q[0] if target.ndim == 1 else best_q


def place_obstacle(
    shape_model: ShapeNodeModel,
    config: RobotConfig,
    kind: str,
    period: float,
) -> Array:
    """Obstacle center on the swept body, 4 cm of arc back from the tip.

    Solves inverse kinematics for the reference point an eighth of the
    way through the period, then walks the ground-truth backbone at that
    action back from the tip by 0.04 m of arc length.  A plain
    tip-tracking controller sweeps its body through this point even
    though its tip path stays clear of it, so whole-body avoidance is
    what a policy has to learn.
    """
    target = reference_trajectory(kind, 0.125 * period, config.total_length, period)
    q = ik_solve(shape_model, config, target)
    shape = forward_kinematics(config, q)
    arc_from_tip = shape.s[-1] - shape.s
    idx = int(np.argmin(np.abs(arc_from_tip - 0.04)))
    return np.array(shape.points[idx], dtype=np.float64)


def tick_count(duration: float, period: float) -> int:
    """Ticks of a tracking run: ``TICKS_PER_PERIOD`` per period, rounded."""
    return int(round(duration / (period / TICKS_PER_PERIOD)))


def closed_loop_track(
    policy: ControlNodeModel | None,
    shape_model: ShapeNodeModel,
    config: RobotConfig,
    kind: str,
    rngs: list[np.random.Generator | None],
    duration: float = 100.0,
    period: float = 100.0,
    payload_grams: float = 0.0,
    obstacle: ObstacleSpec | None = None,
    noise_std: float = 0.0,
    q_start: Array | None = None,
) -> list[TrackingLog]:
    """Track the reference on the simulated robot, one log per ``rngs`` entry.

    Every trial starts from ``q_start``, by default one
    inverse-kinematics solve for the reference at t = 0; a caller that
    runs several trajectories can pass starts it solved together in one
    :func:`ik_solve` call.  Each tick advances the action by the step rule
    and logs the achieved tip (payload applied) against the reference at
    the new time.  With a ``policy`` the step is one frozen
    :func:`policy_step` from the backbone the last tick achieved, noised
    from the trial's generator (which makes seeded trials distinct); a
    non-finite action raises ``FloatingPointError`` naming the tick.
    With ``policy=None`` it is the open-loop baseline q += J+ (g_next -
    g_now) on the model tip Jacobian, with no feedback.
    """
    tick = period / TICKS_PER_PERIOD
    n = tick_count(duration, period)
    length = config.total_length
    g_start = reference_trajectory(kind, 0.0, length, period)
    if q_start is None:
        q_start = ik_solve(shape_model, config, g_start)
    logs = []
    for rng in rngs:
        q, g_now = q_start, g_start
        log = TrackingLog(
            times=np.zeros(n),
            goals=np.zeros((n, 3)),
            tips=np.zeros((n, 3)),
            actions=np.zeros((n, config.action_dim)),
            min_obstacle_dist=np.zeros(n) if obstacle is not None else None,
        )
        # each tick observes the backbone the previous tick achieved
        achieved = forward_kinematics(config, q, payload_grams=payload_grams)
        for k in range(n):
            t_next = (k + 1) * tick
            g_next = reference_trajectory(kind, t_next, length, period)
            if policy is None:
                _, jac = tip_jacobian(shape_model, q, config)
                q = q + damped_pinv(jac) @ (g_next - g_now)
            else:
                tape = Tape()
                leaf = tape.constant
                try:
                    _, q_next = policy_step(
                        config,
                        policy.params.as_tensors(tape, frozen=True),
                        downsample_shape(leaf(achieved.points[None, 1:])),
                        leaf(q[None]),
                        leaf(unbound_actions(q[None], config.q_min, config.q_max)),
                        leaf(g_next[None]),
                        rng,
                        noise_std,
                    )
                except FloatingPointError as exc:
                    raise FloatingPointError(f"closed-loop tick {k + 1}: {exc}") from exc
                q = q_next.value[0]
            # keep the applied action strictly inside the bounds: tanh can
            # hit the exact bound in float64, and the next tick inverts it
            q = _clip_inside(q, config.q_min, config.q_max)
            achieved = forward_kinematics(config, q, payload_grams=payload_grams)
            log.times[k] = t_next
            log.goals[k] = g_next
            log.tips[k] = achieved.tip
            log.actions[k] = q
            if obstacle is not None:
                log.min_obstacle_dist[k] = min_obstacle_distance(
                    achieved.points, obstacle
                )
            g_now = g_next
        logs.append(log)
    return logs


@dataclass
class TrackingMetrics:
    """Per-axis and aggregate tip error statistics in millimeters."""

    rmse_mm: Array
    std_mm: Array
    aggregate_rmse_mm: float
    n_ticks: int


def evaluate_tracking(logs: list[TrackingLog]) -> TrackingMetrics:
    """Error statistics over the logs pooled together."""
    if not logs or all(log.n_ticks == 0 for log in logs):
        raise ValueError("tracking log is empty")
    err = np.concatenate([log.errors for log in logs], axis=0)
    rmse, std = per_axis_error_mm(err)
    aggregate = float(np.sqrt((err * err).sum(axis=1).mean()) * 1000.0)
    return TrackingMetrics(
        rmse_mm=rmse, std_mm=std, aggregate_rmse_mm=aggregate, n_ticks=err.shape[0]
    )


def count_violations(log: TrackingLog, obstacle: ObstacleSpec) -> int:
    """Number of ticks whose backbone broke the hard distance threshold."""
    if log.min_obstacle_dist is None:
        raise ValueError("log has no obstacle distance column")
    d = log.min_obstacle_dist
    return int(np.count_nonzero(d * d < obstacle.threshold_sq))


# ---------------------------------------------------------------------------
# persistence


def save_control_model(path, model: ControlNodeModel, config: RobotConfig) -> None:
    """Write the policy plus its robot binding as one model file, without
    the network's Adam state: no command trains a saved policy on."""
    _write_model_file(path, CONTROL_MODEL_FORMAT, {"horizon": model.horizon}, model.params, config)


def load_control_model(path) -> tuple[ControlNodeModel, RobotConfig]:
    """Load a saved policy; malformed files and a policy whose width does
    not fit the file's robot config raise ``ValueError``.  Top-level
    fields it does not read are ignored.  The file holds no Adam state,
    so the loaded network has step count 0 and no moments."""

    def build(doc, params):
        return ControlNodeModel(params=params, horizon=json_int(doc["horizon"], "horizon"))

    model, config = _read_model_file(path, CONTROL_MODEL_FORMAT, "control", build)
    if model.action_dim != config.action_dim:
        raise ValueError(
            f"policy emits {model.action_dim} actions, its robot config"
            f" has {config.action_dim}"
        )
    return model, config
