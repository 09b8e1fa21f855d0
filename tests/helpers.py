"""Shared test oracles: finite differences, closed-form arcs, slopes,
and unfused tape primitives.

Everything here is computed independently of the library internals it
checks: finite differences only call a loss closure, the arc
composition uses the matrix-exponential formulas rather than any
integrator, and the unfused primitives (elementwise product, matrix
product, LeakyReLU) rebuild what the fused ``dense`` computes from
one operation per node.  The layered network is the fused network
node's oracle: one tape node per scale and per layer, each layer
keeping its own input until the sweep.  The per-coordinate tip
Jacobian backpropagates each tip coordinate on its own, where the
library weights all three in one reverse sweep.  The single-action tip Jacobian and the one-target
IK solve are the library's arithmetic for one action or target, without
the batch: a single call of the library must equal them bit for bit.
The shape evaluation, tracking log and metrics readers invert the
files that ``evaluate`` and ``rollout`` write, which the library itself
never reads back.
An array's base64 record is that of the earlier ``-v1`` model-file
layout, one JSON document, which the library refuses.  The model file
oracle reads a file whole, ``json`` on its first line and
``np.frombuffer`` on the rest, where the library reads each array on
its own into place.
The elementwise product and the bias add broadcast their operands as
numpy does and reduce each adjoint back to its operand's shape, where
the library's tape arithmetic takes operands of one shape.
The chained solver records each RK4 stage input and each update as the
``add``/``scale`` chain the fused solver nodes replace, and the
expression Adam step updates through numpy temporaries where the
library works in place: both must agree with the library bit for bit.
The listed references keep a backbone as one (batch, 3) tensor per
grid point, sliced from each integrated state, and loop over the
points where the library computes on one (batch, P, 3) tensor: the
rollout, the nine-point downsample, the policy observation, the shape
loss and the closest-point distance.
"""

import base64
import csv
import json
import math
from pathlib import Path

import numpy as np

from shapectl import autodiff as ad
from shapectl.autodiff import LEAKY_SLOPE, Tape, Tensor
from shapectl.control_node import (
    IK_MAX_ITERS,
    IK_TOL,
    TrackingLog,
    _clip_inside,
    _downsample_plan,
    damped_pinv,
)
from shapectl.nn import ADAM_BETAS, ADAM_EPS, MlpParams, mlp_forward
from shapectl.odeint import _AB4, IntegrationGrid, integrate
from shapectl.reports import (
    SHAPE_EVAL_HEADER,
    MetricsRow,
    MetricsTable,
    read_table,
    tracking_log_header,
)
from shapectl.robot import action_to_curvature
from shapectl.shape_node import LOSS_EPS_SQ, rollout_shape

E3 = np.array([0.0, 0.0, 1.0])


def rel_err(ga: np.ndarray, gf: np.ndarray, floor: float = 1e-6) -> float:
    """Worst relative disagreement, with a floor so near-zero entries
    are compared absolutely at floor scale."""
    ga = np.asarray(ga, dtype=np.float64)
    gf = np.asarray(gf, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gf)), floor)
    return float(np.max(np.abs(ga - gf) / denom))


def fd_grad_at(loss_fn, array: np.ndarray, idx, eps: float = 1e-5) -> float:
    """Central finite difference of ``loss_fn()`` w.r.t. one entry of
    ``array`` (mutated in place and restored)."""
    orig = array[idx]
    array[idx] = orig + eps
    lp = loss_fn()
    array[idx] = orig - eps
    lm = loss_fn()
    array[idx] = orig
    return (lp - lm) / (2.0 * eps)


def fd_grad_full(loss_fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Dense central-difference gradient for a small array."""
    g = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        g[it.multi_index] = fd_grad_at(loss_fn, array, it.multi_index, eps)
        it.iternext()
    return g


def sample_coords(rng: np.random.Generator, shape, k: int):
    """Up to ``k`` distinct coordinates of an array of given shape."""
    size = int(np.prod(shape))
    k = min(k, size)
    flat = rng.choice(size, size=k, replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def hat(u: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -u[2], u[1]],
            [u[2], 0.0, -u[0]],
            [-u[1], u[0], 0.0],
        ]
    )


def arc_transform(u: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form frame displacement for constant curvature ``u`` over
    arc length ``s``: Rodrigues rotation and its translation integral."""
    n = float(np.linalg.norm(u))
    K = hat(u)
    if n * s < 1e-8:
        # series expansions, adequate below the switch point
        R = np.eye(3) + s * K + 0.5 * s * s * (K @ K)
        V = s * np.eye(3) + 0.5 * s * s * K + (s**3 / 6.0) * (K @ K)
    else:
        th = n * s
        R = (
            np.eye(3)
            + (np.sin(th) / n) * K
            + ((1.0 - np.cos(th)) / n**2) * (K @ K)
        )
        V = (
            s * np.eye(3)
            + ((1.0 - np.cos(th)) / n**2) * K
            + ((th - np.sin(th)) / (n**2 * n)) * (K @ K)
        )
    return R, V @ E3


def arc_backbone(
    curvatures: np.ndarray,
    lengths,
    points_per_segment: int,
) -> np.ndarray:
    """Closed-form backbone points for piecewise-constant curvature.

    ``curvatures`` has one 3-vector row per segment.  Returns the same
    grid forward kinematics uses: base point plus ``points_per_segment``
    points per segment.
    """
    R = np.eye(3)
    p = np.zeros(3)
    pts = [p.copy()]
    for u, length in zip(curvatures, lengths):
        for k in range(1, points_per_segment + 1):
            Rl, pl = arc_transform(u, length * k / points_per_segment)
            pts.append(p + R @ pl)
        Re, pe = arc_transform(u, length)
        p = p + R @ pe
        R = R @ Re
    return np.array(pts)


def loglog_slope(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(hs)), np.log(np.asarray(errs)), 1)[0])


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcasting forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Taped elementwise product of two tensors (numpy broadcasting)."""
    av, bv = a.value, b.value

    def bk(grad):
        return unbroadcast(grad * bv, av.shape), unbroadcast(grad * av, bv.shape)

    return a.tape._record(av * bv, (a.nid, b.nid), bk)


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Taped sum of two tensors (numpy broadcasting), such as a (batch,
    n) layer output plus its (n,) bias."""
    ash, bsh = a.value.shape, b.value.shape

    def bk(grad):
        return unbroadcast(grad, ash), unbroadcast(grad, bsh)

    return a.tape._record(a.value + b.value, (a.nid, b.nid), bk)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Taped matrix product of 2-d tensors."""
    av, bv = a.value, b.value

    def bk(grad):
        return grad @ bv.T, av.T @ grad

    return a.tape._record(av @ bv, (a.nid, b.nid), bk)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """Taped LeakyReLU, max(x, slope * x)."""
    av = a.value

    def bk(grad):
        return (grad * np.where(av > 0.0, 1.0, slope),)

    return a.tape._record(np.maximum(av, slope * av), (a.nid,), bk)


def layer_dense(x: Tensor, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """One network layer as its own tape node, ``activation(x @ w + b)``
    with ``activation`` ``"leaky"`` or ``"tanh"``: a LeakyReLU layer keeps
    its packed sign mask, a tanh layer its float derivative, and the
    closure keeps ``x`` for an active ``w`` and ``w`` for an active ``x``."""
    z = x.value @ w.value
    z += b.value
    active = x.tape.active
    x_on, w_on, b_on = active[x.nid], active[w.nid], active[b.nid]
    recorded = x_on or w_on or b_on
    mask = factor = None
    if activation == "leaky":
        out = np.maximum(z, z * LEAKY_SLOPE, out=z)
        if recorded:
            mask = np.packbits(out > 0.0)
    else:
        out = np.tanh(z, out=z)
        if recorded:
            factor = 1.0 - out * out
    xv = x.value if w_on else None
    wv = w.value if x_on else None

    def bk(grad):
        if mask is None:
            dz = grad * factor
        else:
            bits = np.unpackbits(mask, count=grad.size).reshape(grad.shape)
            dz = grad * np.where(bits, 1.0, LEAKY_SLOPE).astype(grad.dtype)
        return (
            dz @ wv.T if x_on else None,
            xv.T @ dz if w_on else None,
            dz.sum(axis=0) if b_on else None,
        )

    return x.tape._record(out, (x.nid, w.nid, b.nid), bk)


def plain_dense(x: Tensor, layers) -> Tensor:
    """``ad.dense`` with scales of ones: a network that scales nothing."""
    ones = (np.ones(layers[0][0].value.shape[0]), np.ones(layers[-1][0].value.shape[1]))
    return ad.dense(x, layers, *ones)


def layered_mlp(x: Tensor, layers, input_scale=None, output_scale=None) -> Tensor:
    """The network of the fused ``ad.dense`` as one ``cmul`` per scale and
    one :func:`layer_dense` per layer, LeakyReLU layers into tanh."""
    h = x if input_scale is None else ad.cmul(x, input_scale)
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = layer_dense(h, w, b, "leaky" if i < last else "tanh")
    return h if output_scale is None else ad.cmul(h, output_scale)


def chained_solve(f, x0: Tensor, grid: IntegrationGrid, kind: str, counts=None) -> list[Tensor]:
    """The solver's step loop with every RK4 stage input and every update
    an ``add``/``scale`` chain; with ``counts``, row ``i`` freezes after
    ``counts[i]`` steps, as in masked integration."""

    def rk4(t, h, x):
        k1 = f(t, x, None)
        k2 = f(t + 0.5 * h, ad.add(x, ad.scale(k1, 0.5 * h)), None)
        k3 = f(t + 0.5 * h, ad.add(x, ad.scale(k2, 0.5 * h)), None)
        k4 = f(t + h, ad.add(x, ad.scale(k3, h)), None)
        incr = ad.add(ad.add(k1, k4), ad.scale(ad.add(k2, k3), 2.0))
        return ad.add(x, ad.scale(incr, h / 6.0)), k1

    h = grid.dt
    x = x0
    traj = [x0]
    hist = []
    for n in range(grid.n_steps):
        t = grid.t_start + n * h
        if kind == "euler":
            x_new = ad.add(x, ad.scale(f(t, x, None), h))
        elif kind == "rk4" or n < 3:
            x_new, k1 = rk4(t, h, x)
            hist.append(k1)
        else:
            hist.append(f(t, x, None))
            incr = ad.scale(hist[-1], _AB4[0] * h)
            for j, c in enumerate(_AB4[1:], start=2):
                incr = ad.add(incr, ad.scale(hist[-j], c * h))
            x_new = ad.add(x, incr)
        if counts is None or n < counts.min():
            x = x_new
        else:
            active = n < counts
            x = ad.add(ad.select_rows(x_new, active), ad.select_rows(x, ~active))
        traj.append(x)
    return traj


def expression_adam_step(params, grads, lr: float) -> None:
    """One Adam step as numpy expressions, each making its temporaries."""
    params.ensure_moments()
    params.step_count += 1
    t = params.step_count
    b1, b2 = ADAM_BETAS
    lr_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    for a, g, m, v in zip(params.param_arrays(), grads, params.adam_m, params.adam_v):
        g = np.asarray(g, dtype=np.float64)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        a -= lr_t * m / (np.sqrt(v) + ADAM_EPS)


def closure_arrays(fn) -> list[np.ndarray]:
    """Every array a backward closure holds, in lists and tuples too."""
    found = []
    stack = [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
    return found


def per_coordinate_tip_jacobian(model, q: np.ndarray, config) -> np.ndarray:
    """Tip Jacobian (3, 2n) from three batch-1 solves, one per tip
    coordinate, each with its own reverse sweep."""
    jac = np.zeros((3, config.action_dim))
    for j in range(3):
        tape = Tape()
        q_leaf = tape.tensor(np.reshape(q, (1, -1)))
        tip = rollout_shape(model, config, tape, q_leaf, frozen=True).tip
        grads = ad.backward(ad.reduce_sum(ad.slice_cols(tip, j, j + 1)))
        jac[j] = ad.grad_of(grads, q_leaf)[0]
    return jac


def single_tip_jacobian(model, q: np.ndarray, config) -> tuple[np.ndarray, np.ndarray]:
    """Tip (3,) and Jacobian (3, 2n) of one action from its own solve:
    the action taped as three rows, tip row j weighted by e_j."""
    tape = Tape()
    q_leaf = tape.tensor(np.repeat(np.reshape(q, (1, -1)), 3, axis=0))
    tip = rollout_shape(model, config, tape, q_leaf, frozen=True).tip
    grads = ad.backward(ad.reduce_sum(ad.cmul(tip, np.eye(3))))
    return tip.value[0], ad.grad_of(grads, q_leaf)


def single_ik_solve(model, config, target: np.ndarray):
    """Damped least-squares IK for one target on its own solves: best
    iterate, stop within ``IK_TOL``, after ``IK_MAX_ITERS`` solves or after
    five non-improving ones."""
    q = np.zeros(config.action_dim)
    best_q, best_norm, stalled = q, np.inf, 0
    for _ in range(IK_MAX_ITERS):
        tip, jac = single_tip_jacobian(model, q, config)
        err = target - tip
        norm = float(np.linalg.norm(err))
        if norm < (1.0 - 1e-3) * best_norm:
            best_q, best_norm, stalled = q, norm, 0
        else:
            stalled += 1
        if best_norm < IK_TOL or stalled >= 5:
            break
        q = _clip_inside(q + damped_pinv(jac) @ err, config.q_min, config.q_max)
    return best_q


def read_shape_eval_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (truth, prediction) arrays of a shape evaluation record, each
    (samples, points, 3)."""
    header, *rows = read_table(path)
    if header != SHAPE_EVAL_HEADER:
        raise ValueError("not a shape evaluation file")
    data = np.array(rows)
    n = int(data[:, 0].max()) + 1
    p = int(data[:, 1].max()) + 1
    return data[:, 2:5].reshape(n, p, 3), data[:, 5:8].reshape(n, p, 3)


def read_tracking_log_csv(path) -> TrackingLog:
    """The tracking log a ``write_tracking_log_csv`` file holds."""
    header, *rows = read_table(path)
    with_obs = header[-1] == "min_obstacle_dist"
    action_dim = len(header) - 7 - (1 if with_obs else 0)
    if header != tracking_log_header(action_dim, with_obs):
        raise ValueError("not a tracking log file")
    data = np.array(rows).reshape(len(rows), len(header))
    return TrackingLog(
        times=data[:, 0],
        goals=data[:, 1:4],
        tips=data[:, 4:7],
        actions=data[:, 7 : 7 + action_dim],
        min_obstacle_dist=data[:, -1] if with_obs else None,
    )


def read_metrics_csv(path) -> MetricsTable:
    """The metrics table a ``write_metrics_csv`` file holds."""
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["scenario", "axis", "rmse_mm", "std_mm", "n_trials"]:
            raise ValueError("not a metrics file")
        rows = [
            MetricsRow(r[0], r[1], float(r[2]), float(r[3]), int(r[4]))
            for r in reader
            if r
        ]
    return MetricsTable(rows=rows)


def listed_rollout(model, config, tape: Tape, q: np.ndarray):
    """Backbone of the array actions ``q`` as a list of (batch, 3) point
    tensors, one segment solve at a time, and the weight tensors."""
    mt = model.params.as_tensors(tape)
    u0 = action_to_curvature(config, q, mismatch=False)
    p = tape.constant(np.zeros((q.shape[0], 3)))
    aug = tape.constant(np.zeros((q.shape[0], 1)))
    points = []
    for seg in range(config.n_segments):
        x0 = ad.concat([p, tape.constant(u0[:, seg]), aug], axis=1)
        grid = IntegrationGrid(0.0, config.segment_lengths[seg], model.steps_per_segment)
        states = integrate(lambda t, x, u: mlp_forward(mt, x), x0, grid, model.solver)
        points += [ad.slice_cols(st, 0, 3) for st in states[1:]]
        p = points[-1]
        # the augmentation column seeds the next segment unreset
        aug = ad.slice_cols(states[-1], 6, 7)
    return points, mt


def listed_downsample(points: list[Tensor]) -> list[Tensor]:
    """Nine point tensors: a grid point itself where the stencil weight
    is whole, else its two-point blend."""
    out = []
    for j0, j1, w in _downsample_plan(len(points)):
        if w == 0.0:
            out.append(points[j0])
        else:
            out.append(ad.add(ad.scale(points[j0], 1.0 - w), ad.scale(points[j1], w)))
    return out


def listed_observation(backbone: list[Tensor], q: Tensor, goal: Tensor) -> Tensor:
    """The nine backbone points, the tip, the action and the goal."""
    return ad.concat(backbone + [backbone[-1], q, goal], axis=1)


def listed_shape_loss(points: list[Tensor], truth: np.ndarray) -> Tensor:
    """Mean Euclidean error, summed point by point."""
    total = None
    for k, pt in enumerate(points):
        ssum = ad.reduce_sum(ad.square(ad.add_const(pt, -truth[:, k])), axis=1)
        part = ad.reduce_sum(ad.sqrt(ad.add_const(ssum, LOSS_EPS_SQ)))
        total = part if total is None else ad.add(total, part)
    return ad.scale(total, 1.0 / truth[:, :, 0].size)


def listed_min_sq_distance(points: list[Tensor], center: np.ndarray) -> Tensor:
    """Min squared distance to ``center`` per sample, routed to the first
    closest point by one mask per point."""
    d2 = [ad.reduce_sum(ad.square(ad.add_const(p, -center)), axis=1) for p in points]
    idx = np.argmin(np.stack([t.value for t in d2], axis=1), axis=1)
    total = None
    for j, t in enumerate(d2):
        part = ad.cmul(t, (idx == j).astype(np.float64))
        total = part if total is None else ad.add(total, part)
    return total


def array_to_b64(a) -> dict:
    """An array's record in the ``-v1`` model-file layout: its shape and
    the base64 of its little-endian float64 bytes."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a).decode("ascii")}


def split_model_file(data: bytes) -> tuple[dict, bytes]:
    """A model file's header, as ``json`` reads its first line, and the
    bytes after that line."""
    line, payload = data.split(b"\n", 1)
    return json.loads(line), payload


def joined_model_file(header: dict, payload: bytes) -> bytes:
    """The model file with ``header`` as its first line, then ``payload``."""
    return json.dumps(header).encode("ascii") + b"\n" + payload


def model_file_arrays(header: dict, payload: bytes):
    """``header`` with each ``{"shape": [...]}`` record replaced by its
    float64 array, cut from ``payload`` in document order; the payload
    must hold exactly those arrays."""
    offset = 0

    def fill(obj):
        nonlocal offset
        if isinstance(obj, dict) and list(obj) == ["shape"]:
            n = math.prod(obj["shape"])
            a = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
            offset += 8 * n
            return a.astype(np.float64).reshape(obj["shape"])
        if isinstance(obj, dict):
            return {k: fill(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [fill(v) for v in obj]
        return obj

    doc = fill(header)
    assert offset == len(payload), (offset, len(payload))
    return doc


def read_model_file_oracle(path, resume: bool) -> tuple[dict, MlpParams]:
    """A model file read whole: ``json`` on its first line and
    ``np.frombuffer`` on the rest (:func:`model_file_arrays`), and its
    network.  A shape-node-v3 file also gives its step count, and its
    Adam moments only to ``resume``; a control-node-v4 file holds no
    Adam state, so its network has step count 0 and no moments."""
    doc = model_file_arrays(*split_model_file(Path(path).read_bytes()))
    d = doc["params"]
    params = MlpParams(
        weights=d["weights"],
        biases=d["biases"],
        input_scale=d["input_scale"],
        output_scale=d["output_scale"],
    )
    if doc["format"] == "shape-node-v3":
        params.step_count = d["step_count"]
        if resume:
            params.adam_m = d["adam_m"]
            params.adam_v = d["adam_v"]
    return doc, params
