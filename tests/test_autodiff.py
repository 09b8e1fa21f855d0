"""Unit tests for the tape engine: every primitive against finite
differences, plus the accumulation corner cases the engine relies on."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add_bias,
    closure_arrays,
    fd_grad_full,
    layered_mlp,
    leaky_relu,
    matmul,
    mul,
    plain_dense,
    rel_err,
    unbroadcast,
)
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
    _check_primitive(lambda t, l: ad.reduce_sum(ad.square(add_bias(l[0], l[1]))), [a.copy(), b.copy()])


# (primitive, tensor shape, operand shape, whether the operand fits):
# a tensor operand must have the tensor's shape, a constant must
# broadcast into it without growing it
SHAPE_CASES = [
    ("add", (4, 3), (4, 3), True),
    ("add", (4, 3), (3,), False),
    ("add", (1, 3), (4, 3), False),
    ("sub", (4, 3), (4, 3), True),
    ("sub", (4, 3), (4, 1), False),
    ("sub", (4, 3), (5,), False),
    ("add_const", (4, 3), (), True),
    ("add_const", (4, 3), (3,), True),
    ("add_const", (4, 3), (1, 3), True),
    ("add_const", (4, 1), (4, 3), False),
    ("add_const", (4, 3), (2, 4, 3), False),
    ("add_const", (4, 3), (5,), False),
    ("cmul", (4, 3), (), True),
    ("cmul", (4, 3), (4, 1), True),
    ("cmul", (3,), (4, 3), False),
    ("cmul", (4, 3), (3, 4), False),
]


@pytest.mark.parametrize(
    "op, shape, other, fits",
    SHAPE_CASES,
    ids=[f"{op}{shape}{other}".replace(" ", "") for op, shape, other, _ in SHAPE_CASES],
)
def test_arithmetic_keeps_the_tensor_shape(rng, op, shape, other, fits):
    # an operand that fits gives numpy's values and, bit for bit, the
    # adjoints the broadcast implies; one that does not is refused in one
    # line before anything is recorded
    x, y, g = rng.standard_normal(shape), rng.standard_normal(other), rng.standard_normal(shape)
    tape = ad.Tape()
    a = tape.tensor(x)
    b = tape.tensor(y) if op in ("add", "sub") else y
    if not fits:
        with pytest.raises(ValueError, match=f"^{op} keeps shape") as exc:
            getattr(ad, op)(a, b)
        assert len(str(exc.value).splitlines()) == 1
        assert len(tape) == 1 + (op in ("add", "sub"))
        return
    out = getattr(ad, op)(a, b)
    grads = ad.backward(ad.reduce_sum(ad.cmul(out, g)))
    want = {"add": (x + y, g), "sub": (x - y, g), "add_const": (x + y, g), "cmul": (x * y, g * y)}
    assert np.array_equal(out.value, want[op][0])
    assert np.array_equal(ad.grad_of(grads, a), want[op][1])
    if op in ("add", "sub"):
        assert np.array_equal(ad.grad_of(grads, b), g if op == "add" else -g)


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
    # a tanh layer alone, and a LeakyReLU layer into it between scales
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(5)
    w2 = rng.standard_normal((5, 2))
    b2 = rng.standard_normal(2)
    iscale, oscale = rng.uniform(0.5, 1.5, 3), rng.uniform(0.5, 2.0, 2)
    _check_primitive(
        lambda t, l: ad.reduce_sum(ad.square(plain_dense(l[0], [(l[1], l[2])]))),
        [x.copy(), w.copy(), b.copy()],
        tol=1e-5,
    )
    _check_primitive(
        lambda t, l: ad.reduce_sum(
            ad.square(ad.dense(l[0], [(l[1], l[2]), (l[3], l[4])], iscale, oscale))
        ),
        [x.copy(), w.copy(), b.copy(), w2.copy(), b2.copy()],
        tol=1e-5,
    )


def test_dense_matches_unfused_chain(rng):
    # the fused network must be bitwise identical to add(matmul) plus
    # activation, layer by layer
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    w2 = rng.standard_normal((3, 2))
    b2 = rng.standard_normal(2)
    # one tape: the two sweeps share only the leaves
    tape = ad.Tape()
    xt, wt, bt, w2t, b2t = (tape.tensor(v) for v in (x, w, b, w2, b2))
    fused = plain_dense(xt, [(wt, bt), (w2t, b2t)])
    hidden = leaky_relu(add_bias(matmul(xt, wt), bt), 0.01)
    ref = ad.tanh(add_bias(matmul(hidden, w2t), b2t))
    assert np.array_equal(fused.value, ref.value)
    gf = ad.grad_of(ad.backward(ad.reduce_sum(ad.square(fused))), xt)
    gr = ad.grad_of(ad.backward(ad.reduce_sum(ad.square(ref))), xt)
    assert np.allclose(gf, gr, rtol=1e-13, atol=0.0)


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


def test_reshape_and_slice_cols_any_rank_fd(rng):
    # the last axis of the input reshaped to (4, 2, 3)
    a = rng.standard_normal((4, 6))
    _check_primitive(
        lambda t, l: ad.reduce_sum(
            ad.square(ad.slice_cols(ad.reshape(l[0], (4, 2, 3)), 1, 3))
        ),
        [a.copy()],
    )


def test_blend_fd(rng):
    # grid point 1 is in three stencil rows, so its adjoint sums three
    # contributions
    a = rng.standard_normal((2, 5, 3))
    _check_primitive(
        lambda t, l: ad.reduce_sum(
            ad.square(ad.blend(l[0], [0, 1, 3], [1, 1, 4], [0.3, 0.0, 0.75]))
        ),
        [a.copy()],
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
    h = ad.concat([plain_dense(x, [(w, b)]), x], axis=1)
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
    # only a constant parent's product would need; every closure cell is
    # bound, whatever the depth of the network
    x = rng.standard_normal((6, 4))
    params = [rng.standard_normal(s) for s in ((4, 3), (3,), (3, 2), (2,))]

    def run(const, depth):
        tape = ad.Tape()
        names = ["x"] + ["w", "b"] * depth
        leaves = [
            (tape.constant if name in const else tape.tensor)(v)
            for name, v in zip(names, [x, *params[: 2 * depth]])
        ]
        y = plain_dense(leaves[0], list(zip(leaves[1::2], leaves[2::2])))
        # the sweep releases the closure, so read what it holds first
        held = closure_arrays(tape.backfns[y.nid])
        return names, leaves, held, ad.backward(ad.reduce_sum(ad.square(y)))

    const = ("w", "b") if frozen == "weights" else ("x",)
    for depth in (1, 2):
        names, leaves, held, grads = run(const, depth)
        _, ref_leaves, _, ref = run((), depth)
        for name, leaf, ref_leaf in zip(names, leaves, ref_leaves):
            if name in const:
                assert leaf.nid not in grads
            else:
                assert np.array_equal(grads[leaf.nid], ref[ref_leaf.nid])
        # dW = x.T @ dz needs x, dx = dz @ w.T needs w; the second
        # layer's weight gradient recomputes its input from x and w
        if frozen == "weights":
            assert not any(v is leaves[0].value for v in held)
        elif depth == 1:
            assert not any(v is leaves[1].value for v in held)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(6,), (6, 5)], ids=["one_hidden", "two_hidden"])
@pytest.mark.parametrize("leaves", ["trainable", "frozen_weights", "constant_input"])
def test_dense_matches_layered_oracle_bit_for_bit(rng, dtype, hidden, leaves):
    # the fused network node against one node per scale and per layer:
    # the same value, and the same adjoint for x, every weight and every
    # bias, bit for bit; with scales of ones, against the oracle with no
    # scale nodes, since multiplying by 1.0 is exact
    sizes = [4, *hidden, 3]
    x = rng.standard_normal((7, 4))
    params = [
        (rng.standard_normal((n_in, n_out)), rng.standard_normal(n_out))
        for n_in, n_out in zip(sizes, sizes[1:])
    ]
    scales = (rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 3))
    ones = (np.ones(4), np.ones(3))
    g = rng.standard_normal((7, 3))
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")

    def run(network, input_scale, output_scale):
        tape = ad.Tape(dtype)
        xt = (tape.constant if leaves == "constant_input" else tape.tensor)(x)
        leaf = tape.constant if leaves == "frozen_weights" else tape.tensor
        layers = [(leaf(w), leaf(b)) for w, b in params]
        y = network(xt, layers, input_scale, output_scale)
        grads = ad.backward(ad.reduce_sum(ad.cmul(y, g)))
        tensors = [xt, *(t for pair in layers for t in pair)]
        return y.value, [grads.get(t.nid) for t in tensors]

    for dense_scales, ref_scales in ((scales, scales), (ones, (None, None))):
        value, adjoints = run(ad.dense, *dense_scales)
        ref_value, ref_adjoints = run(layered_mlp, *ref_scales)
        assert value.dtype == dtype
        assert np.array_equal(value.view(uint), ref_value.view(uint))
        got = [a is not None for a in adjoints]
        want = [leaves != "constant_input"] + [leaves != "frozen_weights"] * 2 * len(params)
        assert got == want == [a is not None for a in ref_adjoints]
        for a, ref in zip(adjoints, ref_adjoints):
            if a is not None:
                assert a.dtype == dtype
                assert np.array_equal(a.view(uint), ref.view(uint))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [(6,), (6, 5)], ids=["one_hidden", "two_hidden"])
def test_dense_matches_layered_oracle_on_every_activity_pattern(rng, dtype, hidden):
    # each of the input, every weight and every bias trainable or
    # constant on its own (2**5 and 2**7 patterns), with scales and with
    # scales of ones (against the oracle with no scale nodes): the value
    # and every active parent's adjoint are the oracle's bit for bit,
    # and no constant parent gets an adjoint
    sizes = [4, *hidden, 3]
    arrays = [rng.standard_normal((7, 4))]
    for n_in, n_out in zip(sizes, sizes[1:]):
        arrays += [rng.standard_normal((n_in, n_out)), rng.standard_normal(n_out)]
    scales = (rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 3))
    ones = (np.ones(4), np.ones(3))
    g = rng.standard_normal((7, 3))
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")

    def run(network, pattern, input_scale, output_scale):
        tape = ad.Tape(dtype)
        leaves = [
            (tape.tensor if on else tape.constant)(a) for on, a in zip(pattern, arrays)
        ]
        layers = list(zip(leaves[1::2], leaves[2::2]))
        y = network(leaves[0], layers, input_scale, output_scale)
        grads = ad.backward(ad.reduce_sum(ad.cmul(y, g)))
        return y.value, [grads.get(t.nid) for t in leaves]

    for code in range(2 ** len(arrays)):
        pattern = [bool(code >> k & 1) for k in range(len(arrays))]
        for dense_scales, ref_scales in ((scales, scales), (ones, (None, None))):
            value, adjoints = run(ad.dense, pattern, *dense_scales)
            ref_value, ref_adjoints = run(layered_mlp, pattern, *ref_scales)
            assert np.array_equal(value.view(uint), ref_value.view(uint)), pattern
            assert [a is not None for a in adjoints] == pattern, pattern
            assert [a is not None for a in ref_adjoints] == pattern, pattern
            for a, ref in zip(adjoints, ref_adjoints):
                if a is not None:
                    assert a.dtype == dtype
                    assert np.array_equal(a.view(uint), ref.view(uint)), pattern


def test_dense_on_constants_keeps_no_residual(rng, monkeypatch):
    # a dense node with only constant parents is a constant: no closure,
    # no sign mask built for it, and bitwise the recorded node's value
    x, w, b = rng.standard_normal((5, 4)), rng.standard_normal((4, 9)), rng.standard_normal(9)
    w2, b2 = rng.standard_normal((9, 2)), rng.standard_normal(2)
    packed = []
    packbits = np.packbits

    def spy(a):
        packed.append(a.shape)
        return packbits(a)

    monkeypatch.setattr(ad.np, "packbits", spy)
    for arrays in ((x, w, b, w2, b2), (x, w, b)):
        const_tape, tape = ad.Tape(), ad.Tape()
        c0, *p0 = (const_tape.constant(v) for v in arrays)
        c1, *p1 = (tape.tensor(v) for v in arrays)
        y0 = plain_dense(c0, list(zip(p0[::2], p0[1::2])))
        y1 = plain_dense(c1, list(zip(p1[::2], p1[1::2])))
        assert const_tape.backfns[y0.nid] is None and not const_tape.active[y0.nid]
        assert tape.backfns[y1.nid] is not None
        assert np.array_equal(y0.value, y1.value)
    # only the recorded network's hidden layer packed a mask
    assert packed == [(5, 9)]


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
    h = plain_dense(x, [(w, b)])
    loss = ad.reduce_sum(ad.square(ad.add(h, ad.tanh(h))))
    reached = [nid for nid in range(len(tape)) if tape.backfns[nid] is not None]
    grads = ad.backward(loss)
    assert reached and all(tape.backfns[nid] is ad._RELEASED for nid in reached)
    assert sorted(grads) == [x.nid, w.nid, loss.nid]


def test_dense_residual_freed_by_sweep(rng):
    # the leaky sign mask lives only in the dense closure; the sweep frees it
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((4, 3)))
    w = tape.tensor(rng.standard_normal((3, 5)))
    b = tape.tensor(rng.standard_normal(5))
    w2 = tape.tensor(rng.standard_normal((5, 2)))
    b2 = tape.tensor(rng.standard_normal(2))
    y = plain_dense(x, [(w, b), (w2, b2)])
    bk = tape.backfns[y.nid]
    cells = dict(zip(bk.__code__.co_freevars, bk.__closure__))
    mask = weakref.ref(cells["masks"].cell_contents[0])
    del bk, cells
    loss = ad.reduce_sum(ad.square(y))
    assert mask() is not None
    ad.backward(loss)
    assert mask() is None


@pytest.mark.parametrize("axis", [None, 1])
def test_shape_only_closures_hold_no_array(rng, axis):
    # reduce_sum and slice_cols read only the input's shape and dtype, so
    # an input nothing else holds is freed during the forward pass, not
    # at the sweep
    tape = ad.Tape()
    x = tape.tensor(rng.standard_normal((4, 3, 5)))
    for y in (ad.reduce_sum(x, axis=axis), ad.slice_cols(x, 1, 3)):
        cells = tape.backfns[y.nid].__closure__
        assert not any(isinstance(c.cell_contents, np.ndarray) for c in cells)


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


def test_leaky_slope_is_between_zero_and_one():
    # dense's max(z, slope * z) is z * where(z > 0, 1, slope) only then
    assert 0.0 < ad.LEAKY_SLOPE < 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 7), (3, 5), (2, 43)], ids=["1x7", "3x5", "2x43"])
def test_dense_leaky_is_np_where_chain_bit_for_bit(rng, dtype, shape):
    # value and adjoints of a LeakyReLU layer into a tanh layer against
    # z * where(z > 0, 1, slope) and its chain rule, including special
    # values of z; widths that are not multiples of 8 leave the packed
    # mask padded.  The tanh layer's weight is the identity, so a finite
    # hidden unit reaches its own output alone; a non-finite one turns
    # its whole row NaN (0 * inf), so the finite specials also run alone
    rows, cols = shape
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    finite = [0.0, -0.0, tiny, -tiny, info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
    special = [np.inf, -np.inf, np.nan, -np.nan] + finite
    noise = list(rng.standard_normal(15) * (1000.0 * float(tiny)))
    # row 0 of x is zero, so row 0 of z is b itself (-0.0 there turns +0.0)
    x = rng.standard_normal((rows, 3))
    x[0] = 0.0
    w = rng.standard_normal((3, cols))
    g = rng.standard_normal(shape)
    uint = np.dtype(f"u{np.dtype(dtype).itemsize}")

    for pool in (finite + noise, special + noise):
        b = np.resize(pool, cols)
        tape = ad.Tape(dtype)
        xt, wt, bt = tape.tensor(x), tape.tensor(w), tape.tensor(b)
        w2t, b2t = tape.tensor(np.eye(cols)), tape.tensor(np.zeros(cols))
        with np.errstate(over="ignore", invalid="ignore"):  # not finite
            y = plain_dense(xt, [(wt, bt), (w2t, b2t)])
            grads = ad.backward(ad.reduce_sum(ad.cmul(y, g)))
            xv, wv, w2v, gv = xt.value, wt.value, w2t.value, g.astype(dtype)
            z = xv @ wv
            z += bt.value
            assert np.array_equal(z[0], bt.value, equal_nan=True)
            factor = np.where(z > 0.0, dtype(1.0), dtype(ad.LEAKY_SLOPE))
            h = z * factor
            z2 = h @ w2v
            z2 += b2t.value
            out = np.tanh(z2)
            dz2 = gv * (1.0 - out * out)
            dz = (dz2 @ w2v.T) * factor
            want = {
                "value": (y.value, out),
                "x": (grads[xt.nid], dz @ wv.T),
                "w": (grads[wt.nid], xv.T @ dz),
                "b": (grads[bt.nid], dz.sum(axis=0)),
                "w2": (grads[w2t.nid], h.T @ dz2),
                "b2": (grads[b2t.nid], dz2.sum(axis=0)),
            }
        for name, (got, ref) in want.items():
            assert got.dtype == dtype and got.shape == ref.shape, name
            assert np.array_equal(got.view(uint), ref.view(uint)), name


# every primitive on a float32 tape, and a dense output plus its bias
# through the test-side broadcasting add; a and b are (4, 3) trainable
# leaves, w (3, 5) and c (5,) too; constant operands are float64 arrays,
# numpy float64 scalars or python scalars
F64 = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
# a second layer (5, 2) for the networks, trainable on the tape of ``a``
W2 = np.linspace(-1.0, 1.0, 10).reshape(5, 2)


def _two_layers(a, w, c):
    w2, b2 = a.tape.tensor(W2), a.tape.tensor(W2[0])
    return ad.dense(a, [(w, c), (w2, b2)], F64[0], W2[1])


FLOAT32_CASES = {
    "add": lambda a, b, w, c: ad.add(a, b),
    "add_broadcast": lambda a, b, w, c: add_bias(plain_dense(a, [(w, c)]), c),
    "sub": lambda a, b, w, c: ad.sub(a, b),
    "neg": lambda a, b, w, c: ad.neg(a),
    "scale": lambda a, b, w, c: ad.scale(a, np.float64(0.3)),
    "add_const_array": lambda a, b, w, c: ad.add_const(a, F64),
    "add_const_scalar": lambda a, b, w, c: ad.add_const(a, 0.5),
    "cmul": lambda a, b, w, c: ad.cmul(a, F64),
    "dense_leaky": lambda a, b, w, c: _two_layers(a, w, c),
    "dense_tanh": lambda a, b, w, c: plain_dense(a, [(w, c)]),
    "tanh": lambda a, b, w, c: ad.tanh(a),
    "sigmoid": lambda a, b, w, c: ad.sigmoid(a),
    "sqrt": lambda a, b, w, c: ad.sqrt(ad.add_const(ad.square(a), 1.0)),
    "square": lambda a, b, w, c: ad.square(a),
    "reduce_sum_axis": lambda a, b, w, c: ad.reduce_sum(a, axis=0),
    "reduce_mean": lambda a, b, w, c: ad.reduce_mean(a),
    "reduce_mean_axis": lambda a, b, w, c: ad.reduce_mean(a, axis=1),
    "concat": lambda a, b, w, c: ad.concat([a, b, a], axis=1),
    "slice_cols": lambda a, b, w, c: ad.slice_cols(a, 1, 3),
    "reshape": lambda a, b, w, c: ad.reshape(a, (2, 2, 3)),
    "blend": lambda a, b, w, c: ad.blend(ad.reshape(a, (2, 2, 3)), [0, 1], [1, 1], [0.25, 0.0]),
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
        out = unbroadcast(grad, shape)
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
