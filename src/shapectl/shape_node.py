"""Arc-length neural ODE that learns the backbone shape map.

The model integrates a 7-dimensional state [position (3), curvature (3),
augmentation (1)] along arc length with an MLP as the derivative field.
Each robot segment is one solve: the initial state takes the previous
segment's predicted end position, the segment's commanded (mismatch-free)
curvature, and a zero augmentation coordinate.  Training regresses the
integrated positions onto simulated backbones; the mismatch between the
commanded curvature map and the simulated robot is exactly what the
network has to absorb.  A rollout's backbone is one (batch, P, 3)
tensor sliced from the integrated states, so the loss and the policy's
observations compute on it with no loop over points.

The derivative MLP uses LeakyReLU hidden layers and a Tanh output with
per-component scales: position derivatives scaled by 2 (unit tangent),
curvature derivatives by 2*u_max per meter, augmentation by 1.  The final
layer starts at zero with a position bias of atanh(e3/scale), so an
untrained model already predicts the straight zero-curvature backbone and
training only has to learn corrections.

A saved model is a JSON header line, then its arrays as raw float64;
a load reads each array straight from the file, and the Adam moments
only to resume training.  The header holds only what a load reads: the
format tag, the model's fields, the robot config with its hash, and the
network's arrays, plus its Adam state in a shape model file.  The
network form is the program's, not the file's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape, Tensor
from .nn import (
    MlpParams,
    MlpTensors,
    adam_from_dict,
    adam_step,
    adam_to_dict,
    collect_mlp_grads,
    init_mlp,
    json_int,
    mlp_forward,
    params_from_dict,
    params_to_dict,
    read_json,
    write_json,
)
from .odeint import IntegrationGrid, check_solver, integrate
from .robot import RobotConfig, action_to_curvature, per_axis_error_mm

STATE_DIM = 7  # position (3) + curvature (3) + augmentation (1)

# keeps the Euclidean distance differentiable when prediction hits truth
LOSS_EPS_SQ = 1e-24

SHAPE_MODEL_FORMAT = "shape-node-v3"

# the model files that carry Adam state: only a shape model resumes
# training (train-shape --init-model); a policy is only deployed
_ADAM_STATE_FORMATS = (SHAPE_MODEL_FORMAT,)

# compute dtype of every training tape: shape training and its
# validation, and policy training through the frozen shape model; the
# weights, the Adam moments and the model files stay float64 (mixed
# precision), and every prediction, IK solve and tick computes in float64
TRAIN_DTYPE = np.float32


def check_grid(solver: str, steps_per_segment: int) -> None:
    """Raise ``ValueError`` unless a shape model can integrate the grid.

    The same grid samples the datasets, so ``generate`` checks it too.
    """
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be positive")
    check_solver(solver, steps_per_segment)


@dataclass
class ShapeNodeModel:
    """Trained or initialized shape predictor.

    ``params`` is the derivative MLP (width 7 in and out); ``solver`` and
    ``steps_per_segment`` fix the arc-length discretization every
    prediction uses.
    """

    params: MlpParams
    solver: str
    steps_per_segment: int

    def __post_init__(self):
        sizes = self.params.sizes
        if sizes[0] != STATE_DIM or sizes[-1] != STATE_DIM:
            raise ValueError(f"shape model must map {STATE_DIM} -> {STATE_DIM}")
        check_grid(self.solver, self.steps_per_segment)


@dataclass
class ShapeTrainConfig:
    """Optimization settings for :func:`train_shape_node`."""

    batch_size: int = 256
    iterations: int = 10_000
    learning_rate: float = 1e-3
    val_fraction: float = 0.1
    val_interval: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.val_interval < 1:
            raise ValueError("val_interval must be at least 1")

    def split(self, n: int) -> tuple[Array, Array, np.random.Generator]:
        """(held-out, training) indices of an ``n``-row dataset, and the
        generator, seeded by ``seed``, whose one permutation drew them
        and whose stream the trainer's batch order continues.

        The first ``round(val_fraction * n)`` entries, at least one, are
        held out; a split that leaves nothing to train on raises
        ``ValueError``.
        """
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(n)
        n_val = max(1, int(round(self.val_fraction * n)))
        if n_val >= n:
            raise ValueError("dataset too small for the validation split")
        return perm[:n_val], perm[n_val:], rng


def init_shape_model(
    rng: np.random.Generator,
    config: RobotConfig,
    hidden: tuple[int, ...] = (256, 256),
    solver: str = "fixed-adams",
    steps_per_segment: int = 10,
) -> ShapeNodeModel:
    """Fresh model whose dynamics start at the straight-backbone prior."""
    um = config.u_max
    input_scale = np.array([10.0, 10.0, 10.0, 1.0 / um, 1.0 / um, 1.0 / um, 10.0])
    output_scale = np.array([2.0, 2.0, 2.0, 2.0 * um, 2.0 * um, 2.0 * um, 1.0])
    params = init_mlp(
        rng,
        [STATE_DIM, *hidden, STATE_DIM],
        input_scale=input_scale,
        output_scale=output_scale,
    )
    # zero final layer, position bias toward p' = e3: the untrained field
    # is exactly the zero-curvature straight-line prior
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    params.biases[-1][2] = np.arctanh(1.0 / output_scale[2])
    return ShapeNodeModel(
        params=params, solver=solver, steps_per_segment=steps_per_segment
    )


def _curvature_node(
    tape: Tape, q: Tensor, u_value: Array, seg: int, config: RobotConfig
) -> Tensor:
    """Tape node for one segment's commanded curvature of the action ``q``.

    Forward value is the precomputed ``u_value`` slice of the commanded
    (mismatch-free) :func:`action_to_curvature`, cast to the tape's
    dtype; backward chains through the norm saturation in closed form
    (identity inside the ball, the scaled projection on it), routing
    into the segment's two action columns in the adjoint's dtype.  A
    constant ``q`` makes the node a constant.
    """
    qv = q.value[:, 2 * seg : 2 * seg + 2]
    norms = np.sqrt((qv * qv).sum(axis=1, keepdims=True))
    um = config.u_max
    action_dim = config.action_dim

    def bk(grad):
        g2 = grad[:, :2]
        over = norms > um
        safe = np.where(over, norms, 1.0)
        qhat = qv / safe
        proj = qhat * (qhat * g2).sum(axis=1, keepdims=True)
        d2 = np.where(over, (um / safe) * (g2 - proj), g2)
        out = np.zeros((grad.shape[0], action_dim), dtype=grad.dtype)
        out[:, 2 * seg : 2 * seg + 2] = d2
        return (out,)

    return tape._record(np.asarray(u_value, dtype=tape.dtype), (q.nid,), bk)


@dataclass
class ShapeRollout:
    """Tape-resident prediction for one batch of actions.

    ``points`` is one (batch, P, 3) tensor: the integration output
    nodes, base excluded, ordered base to tip, ``steps_per_segment`` of
    them per segment.  ``tip`` (batch, 3) holds the values of
    ``points[:, -1]`` on the node the segment chaining slices from the
    last state.
    """

    points: Tensor
    tip: Tensor
    mt: MlpTensors


def rollout_shape(
    model: ShapeNodeModel,
    config: RobotConfig,
    tape: Tape,
    q_batch: Array | Tensor,
    frozen: bool = False,
) -> ShapeRollout:
    """Differentiable backbone rollout for a batch of actions.

    Per segment, the initial state is [previous predicted end position,
    commanded curvature, carried augmentation] and the MLP field is
    integrated over [0, l].  The augmentation coordinate starts at 0 at
    the base and flows through segment boundaries unreset, giving the
    field a persistent channel for whatever it learns to accumulate
    along the arc (the position alone does not determine the incoming
    direction once two or more segments lie behind it).  Segment lengths
    come from ``config``.

    ``q_batch`` may be a tape tensor, in which case gradients flow from
    the predicted points back into the actions through the saturating
    curvature map; an array enters the tape as a constant.  ``frozen``
    wraps the model weights as constants: no weight gradient is
    computed, and with array actions the rollout records nothing to
    backpropagate.  Weights already in the tape's dtype enter it without
    a copy, so a caller that solves one frozen model many times casts it
    once.  Array actions outside the bounds raise ``ValueError``.
    """
    if isinstance(q_batch, Tensor):
        q_leaf = q_batch
        # a float32 tape rounds a bound such as 12.3 up, so a saturated
        # policy action can sit one float32 ulp past it
        q = np.clip(q_leaf.value.astype(np.float64), config.q_min, config.q_max)
    else:
        q = np.asarray(q_batch, dtype=np.float64)
        q_leaf = tape.constant(q)
    u0 = action_to_curvature(config, q, mismatch=False)
    batch = q.shape[0]
    mt = model.params.as_tensors(tape, frozen=frozen)

    def field(t, x, u):
        return mlp_forward(mt, x)

    p = tape.constant(np.zeros((batch, 3)))
    aug = tape.constant(np.zeros((batch, 1)))
    states: list[Tensor] = []
    for seg in range(config.n_segments):
        u_leaf = _curvature_node(tape, q_leaf, u0[:, seg], seg, config)
        x0 = ad.concat([p, u_leaf, aug], axis=1)
        grid = IntegrationGrid(
            0.0, config.segment_lengths[seg], model.steps_per_segment
        )
        states += integrate(field, x0, grid, model.solver)[1:]
        p = ad.slice_cols(states[-1], 0, 3)
        aug = ad.slice_cols(states[-1], 6, 7)
    traj = ad.reshape(ad.concat(states, axis=1), (batch, len(states), STATE_DIM))
    return ShapeRollout(points=ad.slice_cols(traj, 0, 3), tip=p, mt=mt)


def predict_shape_batch(
    model: ShapeNodeModel, q_batch: Array, config: RobotConfig
) -> Array:
    """Predicted backbone points for a batch, shape (batch, P, 3).

    P counts every grid node except the base (steps_per_segment per
    segment), matching the layout :func:`shape_loss_tensor` and the
    evaluators use.
    """
    return rollout_shape(model, config, Tape(), q_batch, frozen=True).points.value


def shape_loss_tensor(rollout: ShapeRollout, truth_points: Array) -> Tensor:
    """Mean Euclidean position error over batch and grid points.

    ``truth_points`` has shape (batch, P, 3) like ``rollout.points``.
    The per-point distance uses a tiny epsilon under the square root so
    the gradient stays finite at zero error.
    """
    points = rollout.points
    truth = np.asarray(truth_points, dtype=np.float64)
    if truth.shape != points.shape:
        raise ValueError(f"truth has shape {truth.shape}, expected {points.shape}")
    ssum = ad.reduce_sum(ad.square(ad.add_const(points, -truth)), axis=2)
    dist = ad.sqrt(ad.add_const(ssum, LOSS_EPS_SQ))
    return ad.scale(ad.reduce_sum(dist), 1.0 / dist.value.size)


def check_dataset(
    model: ShapeNodeModel, config: RobotConfig, q: Array, points: Array
) -> None:
    """Raise ``ValueError`` unless ``model`` can fit the ``(q, points)`` dataset.

    ``q`` must be (n, action_dim) and ``points`` (n, P, 3) on the grid the
    model integrates, P = n_segments * steps_per_segment.
    """
    n = q.shape[0]
    q_fits = q.shape == (n, config.action_dim)
    if not q_fits or points.ndim != 3 or points.shape[::2] != (n, 3):
        raise ValueError(
            f"dataset arrays {q.shape} and {points.shape} do not fit"
            f" (n, {config.action_dim}) actions and (n, P, 3) points"
        )
    steps = model.steps_per_segment
    if points.shape[1] != config.n_segments * steps:
        raise ValueError(
            f"it has {points.shape[1] / config.n_segments:g} points per segment,"
            f" the shape model integrates {steps} steps per segment"
        )


def _validation_loss(
    model: ShapeNodeModel,
    config: RobotConfig,
    q: Array,
    truth: Array,
    batch_size: int,
) -> float:
    """Mean loss over the held-out samples, on the training dtype's tape."""
    total = 0.0
    for start in range(0, q.shape[0], batch_size):
        idx = slice(start, start + batch_size)
        ro = rollout_shape(model, config, Tape(TRAIN_DTYPE), q[idx], frozen=True)
        loss = shape_loss_tensor(ro, truth[idx])
        total += float(loss.value) * (q[idx].shape[0])
    return total / q.shape[0]


def train_shape_node(
    q: Array,
    points: Array,
    config: ShapeTrainConfig,
    robot: RobotConfig,
    model: ShapeNodeModel,
) -> tuple[ShapeNodeModel, list[tuple[int, float, float]]]:
    """Fit ``model``, fresh or resumed, to the simulated ``(q, points)``
    dataset.

    :func:`check_dataset` must accept the arrays.  Splits the dataset
    90/10 (:meth:`ShapeTrainConfig.split` by ``val_fraction``) with the
    configured seed, runs Adam over shuffled minibatches, evaluates
    validation loss every ``val_interval`` iterations, and returns the
    best-validation checkpoint plus history rows (iteration, train_loss,
    val_loss); the val column repeats the latest measurement between
    evaluations.  Divergence raises
    ``FloatingPointError`` naming the iteration.  Training and
    validation compute on :data:`TRAIN_DTYPE` tapes.
    """
    check_dataset(model, robot, q, points)
    # the batch order continues the generator the split drew from
    val_idx, train_idx, rng = config.split(q.shape[0])
    batch = min(config.batch_size, train_idx.size)

    def batches():
        while True:
            order = rng.permutation(train_idx)
            for start in range(0, order.size - batch + 1, batch):
                yield order[start : start + batch]

    stream = batches()
    history: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_params = None
    last_val = np.nan
    for it in range(1, config.iterations + 1):
        idx = next(stream)
        try:
            tape = Tape(TRAIN_DTYPE)
            ro = rollout_shape(model, robot, tape, q[idx])
            loss = shape_loss_tensor(ro, points[idx])
            train_loss = float(loss.value)
            if not np.isfinite(train_loss):
                raise FloatingPointError("loss is not finite")
            grads = collect_mlp_grads(ad.backward(loss), ro.mt)
            adam_step(model.params, grads, config.learning_rate)
            if it == 1 or it % config.val_interval == 0 or it == config.iterations:
                last_val = _validation_loss(
                    model, robot, q[val_idx], points[val_idx], batch
                )
                if last_val < best_val:
                    best_val = last_val
                    best_params = model.params.copy()
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"shape training diverged at iteration {it}: {exc}"
            ) from exc
        history.append((it, train_loss, last_val))
    if best_params is not None:
        model.params = best_params
    return model, history


def tip_jacobian(
    model: ShapeNodeModel, q: Array, config: RobotConfig
) -> tuple[Array, Array]:
    """Predicted tips and their sensitivity to the actions.

    ``q`` is one action, (2n,), or m of them, (m, 2n); the result is the
    tip (3,) and Jacobian (3, 2n), or m of each, (m, 3) and (m, 3, 2n).
    One frozen solve and one reverse sweep for all of them: each action
    is taped as three identical rows, row j of an action's three
    predicted tips is weighted by the unit vector e_j, and the action
    adjoint's row j is then d tip_j / d q.  The rows of a solve do not
    mix, so a batched action's tip and Jacobian are the single call's up
    to how BLAS rounds a larger batch.  The chain runs through the
    saturating action-to-curvature map of :func:`rollout_shape`
    (identity inside the norm ball, the norm-projection Jacobian on it).
    """
    q = np.asarray(q, dtype=np.float64)
    m = 1 if q.ndim == 1 else q.shape[0]
    tape = Tape()
    q_leaf = tape.tensor(np.repeat(np.reshape(q, (m, -1)), 3, axis=0))
    tip = rollout_shape(model, config, tape, q_leaf, frozen=True).tip
    grads = ad.backward(ad.reduce_sum(ad.cmul(tip, np.tile(np.eye(3), (m, 1)))))
    tips = tip.value[::3]
    jacs = ad.grad_of(grads, q_leaf).reshape(m, 3, -1)
    return (tips[0], jacs[0]) if q.ndim == 1 else (tips, jacs)


@dataclass
class ShapeEvalResult:
    """Per-axis backbone error statistics over a test set, in mm."""

    rmse_mm: Array
    std_mm: Array
    n_samples: int


def evaluate_shape_rmse(
    model: ShapeNodeModel, q: Array, points: Array, config: RobotConfig
) -> ShapeEvalResult:
    """Per-axis RMSE and error STD (mm) over all grid points of the
    ``(q, points)`` test set."""
    check_dataset(model, config, q, points)
    rmse, std = per_axis_error_mm(predict_shape_batch(model, q, config) - points)
    return ShapeEvalResult(rmse_mm=rmse, std_mm=std, n_samples=q.shape[0])


# ---------------------------------------------------------------------------
# persistence


def robot_config_hash(config: RobotConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def _write_model_file(
    path, fmt: str, fields: dict, params: MlpParams, config: RobotConfig
) -> None:
    """Model file: a JSON header (format tag, model fields, robot binding,
    network, with its Adam state where ``fmt`` carries it), then the
    network's arrays, by :func:`~shapectl.nn.write_json`."""
    network = params_to_dict(params)
    if fmt in _ADAM_STATE_FORMATS:
        network.update(adam_to_dict(params))
    doc = {
        "format": fmt,
        **fields,
        "robot_config": config.to_dict(),
        "robot_config_hash": robot_config_hash(config),
        "params": network,
    }
    with open(path, "wb") as f:
        write_json(f, doc)


def _read_model_file(path, fmt: str, kind: str, build, resume: bool = False):
    """Inverse of :func:`_write_model_file`: the header parsed by
    :func:`~shapectl.nn.read_json`, the arrays read from the file.

    ``build(doc, params)`` makes the model from the document fields;
    returns (model, robot config).  The network holds its Adam moments
    only to ``resume`` training, from a format that carries them.
    Malformed files, another format, a robot config that does not match
    its hash, a missing field (every field written is read) and weights
    that are not one network raise ``ValueError``.
    """
    with open(path, "rb") as f:
        try:
            doc = read_json(f)
        except ValueError as exc:
            raise ValueError(f"not a valid model file: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != fmt:
            raise ValueError(f"not a {kind} model file ({fmt})")
        try:
            config = RobotConfig.from_dict(doc["robot_config"])
            if doc["robot_config_hash"] != robot_config_hash(config):
                raise ValueError("robot config hash mismatch")
            params = params_from_dict(doc["params"], f)
            if fmt in _ADAM_STATE_FORMATS:
                adam_from_dict(params, doc["params"], f, resume)
            model = build(doc, params)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"incomplete model file: {exc!r}") from exc
    return model, config


def save_shape_model(path, model: ShapeNodeModel, config: RobotConfig) -> None:
    """Write the model plus its robot binding as one model file."""
    _write_model_file(
        path,
        SHAPE_MODEL_FORMAT,
        {"solver": model.solver, "steps_per_segment": model.steps_per_segment},
        model.params,
        config,
    )


def load_shape_model(path, *, resume: bool = False) -> tuple[ShapeNodeModel, RobotConfig]:
    """Load a saved model; malformed files raise ``ValueError``.

    Only a model loaded to ``resume`` training holds its Adam moments.
    """
    return _read_model_file(
        path,
        SHAPE_MODEL_FORMAT,
        "shape",
        lambda doc, params: ShapeNodeModel(
            params=params,
            solver=doc["solver"],
            steps_per_segment=json_int(doc["steps_per_segment"], "steps_per_segment"),
        ),
        resume,
    )
