"""Shared test oracles: finite differences, closed-form arcs, slopes,
and unfused tape primitives.

Everything here is computed independently of the library internals it
checks: finite differences only call a loss closure, the arc
composition uses the matrix-exponential formulas rather than any
integrator, and the unfused primitives (elementwise product, matrix
product, LeakyReLU) rebuild what the fused ``dense`` computes from
one operation per node.  The per-coordinate tip Jacobian backpropagates
each tip coordinate on its own, where the library weights all three in
one reverse sweep.  The single-action tip Jacobian and the one-target
IK solve are the library's arithmetic for one action or target, without
the batch: a single call of the library must equal them bit for bit.
"""

import numpy as np

from shapectl import autodiff as ad
from shapectl.autodiff import Tape, Tensor, _unbroadcast
from shapectl.control_node import IK_MAX_ITERS, IK_TOL, _clip_inside, damped_pinv
from shapectl.shape_node import rollout_shape

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


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Taped elementwise product of two tensors (numpy broadcasting)."""
    av, bv = a.value, b.value

    def bk(grad):
        return _unbroadcast(grad * bv, av.shape), _unbroadcast(grad * av, bv.shape)

    return a.tape._record(av * bv, (a.nid, b.nid), bk)


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
