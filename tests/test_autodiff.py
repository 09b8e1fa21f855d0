"""Unit tests for the tape engine: every primitive against finite
differences, plus the accumulation corner cases the engine relies on."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_grad_full, leaky_relu, matmul, mul, rel_err
from shapectl import autodiff as ad
from shapectl import control_node, shape_node
from shapectl.control_node import ControlLossConfig, ControlTrainConfig
from shapectl.robot import ObstacleSpec, RobotConfig, sample_dataset


def _leaf(tape, rng, shape):
    return tape.tensor(rng.standard_normal(shape))


def _check_primitive(build, arrays, tol=1e-6):
    """build(tape, tensors) -> scalar Tensor; arrays are the leaf values."""

    def run():
        tape = ad.Tape()
        leaves = [tape.tensor(a) for a in arrays]
        loss = build(tape, leaves)
        return tape, leaves, loss

    tape, leaves, loss = run()
    grads = ad.backward(loss)
    for i, arr in enumerate(arrays):
        def loss_value():
            _, _, l = run()
            return float(l.value)

        gf = fd_grad_full(loss_value, arr)
        ga = ad.grad_of(grads, leaves[i])
        assert rel_err(ga, gf) < tol, f"input {i}"


def test_square_derivative():
    tape = ad.Tape()
    x = tape.tensor(np.array([[3.0]]))
    loss = ad.reduce_sum(ad.square(x))
    g = ad.grad_of(ad.backward(loss), x)
    assert g[0, 0] == pytest.approx(6.0)


def test_tanh_derivative_at_zero():
    tape = ad.Tape()
    x = tape.tensor(np.zeros((1, 1)))
    loss = ad.reduce_sum(ad.tanh(x))
    g = ad.grad_of(ad.backward(loss), x)
    assert g[0, 0] == pytest.approx(1.0)


def test_add_sub_mul_fd(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    _check_primitive(lambda t, l: ad.reduce_sum(mul(ad.add(l[0], l[1]), ad.sub(l[0], l[1]))), [a.copy(), b.copy()])


def test_broadcast_bias_fd(rng):
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    _check_primitive(lambda t, l: ad.reduce_sum(ad.square(ad.add(l[0], l[1]))), [a.copy(), b.copy()])


def test_matmul_fd(rng):
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    _check_primitive(lambda t, l: ad.reduce_sum(ad.square(matmul(l[0], l[1]))), [a.copy(), b.copy()])


def test_activations_fd(rng):
    x = rng.standard_normal((4, 5))

    def build(kind):
        def inner(t, l):
            h = {
                "tanh": ad.tanh,
                "leaky": lambda v: leaky_relu(v, 0.01),
                "sigmoid": ad.sigmoid,
            }[kind](l[0])
            return ad.reduce_sum(ad.square(h))

        return inner

    for kind in ("tanh", "leaky", "sigmoid"):
        _check_primitive(build(kind), [x.copy()], tol=1e-5)


def test_dense_fd(rng):
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(5)
    for act in ("leaky", "tanh"):
        _check_primitive(
            lambda t, l, a=act: ad.reduce_sum(ad.square(ad.dense(l[0], l[1], l[2], a))),
            [x.copy(), w.copy(), b.copy()],
            tol=1e-5,
        )


def test_dense_matches_unfused_chain(rng):
    # fused layer must be bitwise identical to add(matmul) + activation
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    chains = [
        ("leaky", lambda pre: leaky_relu(pre, 0.01)),
        ("tanh", ad.tanh),
    ]
    for act, chain in chains:
        # one tape per pair: the two sweeps share only the leaves
        tape = ad.Tape()
        xt, wt, bt = tape.tensor(x), tape.tensor(w), tape.tensor(b)
        fused = ad.dense(xt, wt, bt, act)
        ref = chain(ad.add(matmul(xt, wt), bt))
        assert np.array_equal(fused.value, ref.value)
        gf = ad.grad_of(ad.backward(ad.reduce_sum(ad.square(fused))), xt)
        gr = ad.grad_of(ad.backward(ad.reduce_sum(ad.square(ref))), xt)
        assert np.allclose(gf, gr, rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        ad.dense(xt, wt, bt, "softmax")


def test_sqrt_fd(rng):
    x = np.abs(rng.standard_normal((3, 3))) + 0.5
    _check_primitive(lambda t, l: ad.reduce_sum(ad.sqrt(l[0])), [x.copy()])


def test_reduce_axis_and_concat_fd(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 2))

    def build(t, l):
        c = ad.concat([l[0], l[1]], axis=1)
        return ad.reduce_sum(ad.square(ad.reduce_sum(c, axis=1)))

    _check_primitive(build, [a.copy(), b.copy()])


def test_slice_cols_fd(rng):
    a = rng.standard_normal((4, 6))
    _check_primitive(
        lambda t, l: ad.reduce_sum(ad.square(ad.slice_cols(l[0], 2, 5))), [a.copy()]
    )


def test_scale_cmul_add_const_fd(rng):
    a = rng.standard_normal((2, 5))
    c = rng.standard_normal((2, 5))

    def build(t, l):
        h = ad.add_const(ad.cmul(ad.scale(l[0], -1.7), c), 0.3)
        return ad.reduce_sum(ad.square(h))

    _check_primitive(build, [a.copy()])


def test_constant_forward_records_no_closure(rng):
    # activity: a node computed only from constants is itself a constant
    tape = ad.Tape()
    x = tape.constant(rng.standard_normal((4, 3)))
    w = tape.constant(rng.standard_normal((3, 5)))
    b = tape.constant(rng.standard_normal(5))
    h = ad.concat([ad.dense(x, w, b, "leaky"), x], axis=1)
    h = ad.add_const(ad.scale(h, 2.0), -1.0)
    loss = ad.reduce_sum(ad.square(ad.tanh(h)))
    assert len(tape) > 3
    assert all(fn is None for fn in tape.backfns)
    assert all(p == () for p in tape.parents)
    assert not any(tape.active)
    assert list(ad.backward(loss)) == [loss.nid]
    assert np.all(ad.grad_of(ad.backward(loss), w) == 0.0)
    # mixed with a trainable leaf, only active nodes receive adjoints
    t = tape.tensor(rng.standard_normal(8))
    grads = ad.backward(ad.reduce_sum(ad.add(ad.reduce_sum(h, axis=0), t)))
    assert t.nid in grads and all(tape.active[nid] for nid in grads)


@pytest.mark.parametrize("frozen", ["weights", "input"])
def test_frozen_dense_parent_gets_no_adjoint(rng, frozen):
    # active parents get bitwise the all-trainable tape's adjoints,
    # constant parents get none, and the closure drops the operand that
    # only a constant parent's product would need
    x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)

    def run(const):
        tape = ad.Tape()
        leaves = [
            (tape.constant if name in const else tape.tensor)(v)
            for name, v in (("x", x), ("w", w), ("b", b))
        ]
        y = ad.dense(*leaves, "tanh")
        # the sweep releases the closure, so read what it holds first
        held = [c.cell_contents for c in tape.backfns[y.nid].__closure__]
        return leaves, held, ad.backward(ad.reduce_sum(ad.square(y)))

    const = ("w", "b") if frozen == "weights" else ("x",)
    (xt, wt, bt), held, grads = run(const)
    ref_leaves, _, ref = run(())
    for name, leaf, ref_leaf in zip("xwb", (xt, wt, bt), ref_leaves):
        if name in const:
            assert leaf.nid not in grads
        else:
            assert np.array_equal(grads[leaf.nid], ref[ref_leaf.nid])
    # dW = x.T @ dz needs x, dx = dz @ w.T needs w
    dropped = xt.value if frozen == "weights" else wt.value
    assert not any(v is dropped for v in held)


def test_select_rows_gradient(rng):
    a = rng.standard_normal((4, 3))
    tape = ad.Tape()
    x = tape.tensor(a)
    mask = np.array([True, False, True, False])
    loss = ad.reduce_sum(ad.select_rows(x, mask))
    g = ad.grad_of(ad.backward(loss), x)
    assert np.all(g[mask] == 1.0)
    assert np.all(g[~mask] == 0.0)


def test_same_tensor_used_twice(rng):
    # diamond pattern: both parents of add are the same node, so the
    # copy-on-write accumulator must not double-count through aliasing
    a = rng.standard_normal((3, 2))
    tape = ad.Tape()
    x = tape.tensor(a)
    y = ad.add(x, x)
    loss = ad.reduce_sum(mul(y, y))
    g = ad.grad_of(ad.backward(loss), x)
    assert rel_err(g, 8.0 * a) < 1e-12


def test_deep_reuse_chain(rng):
    # x feeds four RK4-style stages; gradient must accumulate all paths
    a = rng.standard_normal((2, 3))

    def build(t, l):
        x = l[0]
        k1 = ad.tanh(x)
        k2 = ad.tanh(ad.add(x, ad.scale(k1, 0.5)))
        k3 = ad.tanh(ad.add(x, ad.scale(k2, 0.5)))
        k4 = ad.tanh(ad.add(x, k3))
        s = ad.add(ad.add(k1, k4), ad.scale(ad.add(k2, k3), 2.0))
        return ad.reduce_sum(ad.square(ad.add(x, ad.scale(s, 1.0 / 6.0))))

    _check_primitive(build, [a.copy()], tol=1e-5)


def test_backward_requires_scalar(rng):
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((2, 2)))
    y = ad.square(x)
    with pytest.raises(ValueError):
        ad.backward(y)


def test_grad_of_unused_leaf(rng):
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal(3))
    y = tape.tensor(rng.standard_normal(3))
    loss = ad.reduce_sum(ad.square(x))
    g = ad.grad_of(ad.backward(loss), y)
    assert np.all(g == 0.0)


def test_backward_twice_identical(rng):
    # a tape is swept once: a second sweep raises instead of returning
    # zeros, and a rebuilt tape gives bitwise the same gradient
    a = rng.standard_normal((3, 3))

    def build():
        tape = ad.Tape()
        x = tape.tensor(a)
        return x, ad.reduce_sum(ad.sigmoid(ad.square(x)))

    x, loss = build()
    g1 = ad.grad_of(ad.backward(loss), x)
    with pytest.raises(ValueError, match=f"node {loss.nid} was released"):
        ad.backward(loss)
    x2, loss2 = build()
    g2 = ad.grad_of(ad.backward(loss2), x2)
    assert np.array_equal(g1, g2)


def test_sweep_reaching_released_node_raises(rng):
    # a second loss on the same tape may not reuse a swept interior node
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((2, 3)))
    h = ad.tanh(x)
    ad.backward(ad.reduce_sum(h))
    with pytest.raises(ValueError, match=f"node {h.nid} was released"):
        ad.backward(ad.reduce_sum(ad.square(h)))


def test_backward_releases_closures_and_interior_adjoints(rng):
    # every closure the sweep calls is released, and the map keeps only
    # the loss and the active leaves it reached
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((4, 3)))
    w = tape.tensor(rng.standard_normal((3, 5)))
    b = tape.constant(rng.standard_normal(5))
    tape.tensor(rng.standard_normal(5))  # an active leaf the loss never reaches
    h = ad.dense(x, w, b, "leaky")
    loss = ad.reduce_sum(ad.square(ad.add(h, ad.tanh(h))))
    reached = [nid for nid in range(len(tape)) if tape.backfns[nid] is not None]
    grads = ad.backward(loss)
    assert reached and all(tape.backfns[nid] is ad._RELEASED for nid in reached)
    assert sorted(grads) == [x.nid, w.nid, loss.nid]


def test_dense_residual_freed_by_sweep(rng):
    # the leaky factor lives only in the dense closure; the sweep frees it
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((4, 3)))
    w = tape.tensor(rng.standard_normal((3, 5)))
    b = tape.tensor(rng.standard_normal(5))
    y = ad.dense(x, w, b, "leaky")
    bk = tape.backfns[y.nid]
    cells = dict(zip(bk.__code__.co_freevars, bk.__closure__))
    factor = weakref.ref(cells["factor"].cell_contents)
    del bk, cells
    loss = ad.reduce_sum(ad.square(y))
    assert factor() is not None
    ad.backward(loss)
    assert factor() is None


def test_sigmoid_extreme_inputs():
    tape = ad.Tape()
    x = tape.tensor(np.array([[-1000.0, 1000.0, 0.0]]))
    y = ad.sigmoid(x)
    assert np.all(np.isfinite(y.value))
    assert y.value[0, 0] == 0.0
    assert y.value[0, 1] == 1.0
    assert y.value[0, 2] == 0.5


def test_check_finite_raises():
    with pytest.raises(FloatingPointError):
        ad.check_finite(np.array([1.0, np.nan]), "unit test")
    ad.check_finite(np.array([1.0, 2.0]), "unit test")


def test_leaf_values_are_float64():
    tape = ad.Tape()
    x = tape.tensor([[1, 2], [3, 4]])
    assert x.value.dtype == np.float64
    assert x.shape == (2, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.01, 0.2, 3.0])
def test_leaky_factor_is_np_where_bit_for_bit(rng, dtype, slope):
    # 3.0 has a larger bit pattern than 1.0, so the selection wraps around
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny]
    special += [info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
    z = np.concatenate(
        [
            np.array(special),
            rng.standard_normal(200),
            rng.standard_normal(200) * (1000.0 * float(tiny)),  # subnormals
        ]
    ).astype(dtype)
    uint = np.dtype(f"u{z.itemsize}")
    for zz in (z, z.reshape(2, -1)):
        want = np.where(zz > 0.0, dtype(1.0), dtype(slope))
        got = ad._leaky_factor(zz, slope)
        assert got.dtype == dtype and got.shape == zz.shape
        assert np.array_equal(got.view(uint), want.view(uint))


# every primitive on a float32 tape; a and b are (4, 3) trainable
# leaves, w (3, 5) and c (5,) too; constant operands are float64 arrays,
# numpy float64 scalars or python scalars
F64 = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
FLOAT32_CASES = {
    "add": lambda a, b, w, c: ad.add(a, b),
    "add_broadcast": lambda a, b, w, c: ad.add(ad.dense(a, w, c, "leaky"), c),
    "sub": lambda a, b, w, c: ad.sub(a, b),
    "neg": lambda a, b, w, c: ad.neg(a),
    "scale": lambda a, b, w, c: ad.scale(a, np.float64(0.3)),
    "add_const_array": lambda a, b, w, c: ad.add_const(a, F64),
    "add_const_scalar": lambda a, b, w, c: ad.add_const(a, 0.5),
    "cmul": lambda a, b, w, c: ad.cmul(a, F64),
    "dense_leaky": lambda a, b, w, c: ad.dense(a, w, c, "leaky"),
    "dense_tanh": lambda a, b, w, c: ad.dense(a, w, c, "tanh"),
    "tanh": lambda a, b, w, c: ad.tanh(a),
    "sigmoid": lambda a, b, w, c: ad.sigmoid(a),
    "sqrt": lambda a, b, w, c: ad.sqrt(ad.add_const(ad.square(a), 1.0)),
    "square": lambda a, b, w, c: ad.square(a),
    "reduce_sum_axis": lambda a, b, w, c: ad.reduce_sum(a, axis=0),
    "reduce_mean": lambda a, b, w, c: ad.reduce_mean(a),
    "reduce_mean_axis": lambda a, b, w, c: ad.reduce_mean(a, axis=1),
    "concat": lambda a, b, w, c: ad.concat([a, b, a], axis=1),
    "slice_cols": lambda a, b, w, c: ad.slice_cols(a, 1, 3),
    "select_rows": lambda a, b, w, c: ad.select_rows(a, [True, False, True, False]),
}


@pytest.mark.parametrize("case", sorted(FLOAT32_CASES))
def test_float32_tape_keeps_dtype(rng, case):
    # forward values and every adjoint stay in the tape's compute dtype
    tape = ad.Tape(np.float32)
    a, b, w = (tape.tensor(rng.standard_normal(s)) for s in ((4, 3), (4, 3), (3, 5)))
    c = tape.tensor(rng.standard_normal(5))
    out = FLOAT32_CASES[case](a, b, w, c)
    loss = ad.reduce_sum(out)
    assert out.value.dtype == np.float32 and loss.value.dtype == np.float32
    grads = ad.backward(loss)
    assert a.nid in grads
    for nid, g in grads.items():
        assert g.dtype == np.float32, (case, nid)


def _tape_with_every_primitive(rng) -> weakref.ref:
    tape = ad.Tape()
    a, b, w = (tape.tensor(rng.standard_normal(s)) for s in ((4, 3), (4, 3), (3, 5)))
    c = tape.tensor(rng.standard_normal(5))
    total = None
    for build in FLOAT32_CASES.values():
        part = ad.reduce_sum(build(a, b, w, c))
        total = part if total is None else ad.add(total, part)
    ad.backward(total)
    return weakref.ref(tape)


def test_dropped_tapes_need_no_cycle_collector(rng, monkeypatch):
    # a backward closure that held a tensor would hold the tape storing
    # it; with the cycle collector off, every dropped tape must still go
    made = [_tape_with_every_primitive(rng)]

    class Watched(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(shape_node, "Tape", Watched)
    monkeypatch.setattr(control_node, "Tape", Watched)
    robot = RobotConfig(n_segments=1)
    q, points = sample_dataset(robot, 20, rng)
    model = shape_node.init_shape_model(rng, robot, hidden=(8,), solver="rk4")
    gc.collect()
    gc.disable()
    try:
        made[0] = _tape_with_every_primitive(rng)
        shape_node.train_shape_node(
            q,
            points,
            shape_node.ShapeTrainConfig(batch_size=8, iterations=1),
            robot,
            model,
        )
        control_node.train_control_node(
            model,
            robot,
            ControlTrainConfig(batch_size=2, iterations=1),
            ControlLossConfig(),
            scenario="obstacle",
            obstacle=ObstacleSpec(center=np.array([0.02, 0.0, 0.08])),
            model=control_node.init_control_model(rng, robot, hidden=(8,)),
        )
        alive = [i for i, ref in enumerate(made) if ref() is not None]
    finally:
        gc.enable()
    # the primitives, one training and one validation tape, one policy tape
    assert len(made) == 4
    assert alive == []


@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_unbroadcast_restores_shape(rows, cols, seed):
    r = np.random.default_rng(seed)
    grad = r.standard_normal((rows, cols))
    for shape in [(rows, cols), (cols,), (1, cols), (rows, 1), ()]:
        out = ad._unbroadcast(grad, shape)
        assert out.shape == shape


@given(seed=st.integers(0, 2**16), pieces=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_concat_gradient_partitions(seed, pieces):
    r = np.random.default_rng(seed)
    widths = r.integers(1, 4, size=pieces)
    tape = ad.Tape()
    leaves = [tape.tensor(r.standard_normal((3, w))) for w in widths]
    weights = [r.standard_normal((3, w)) for w in widths]
    c = ad.concat(leaves, axis=1)
    loss = ad.reduce_sum(ad.cmul(c, np.concatenate(weights, axis=1)))
    grads = ad.backward(loss)
    for leaf, w in zip(leaves, weights):
        assert np.allclose(ad.grad_of(grads, leaf), w)
