"""MLP forward/backward, Adam behavior, RNG, and persistence."""

import numpy as np
import pytest

from helpers import fd_grad_at, rel_err, sample_coords
from shapectl import autodiff as ad
from shapectl import nn


def manual_forward(p: nn.MlpParams, x: np.ndarray) -> np.ndarray:
    h = x if p.input_scale is None else x * p.input_scale
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.01 * h)
    h = np.tanh(h)
    if p.output_scale is not None:
        h = h * p.output_scale
    return h


def forward_value(p: nn.MlpParams, x: np.ndarray) -> np.ndarray:
    tape = ad.Tape()
    mt = p.as_tensors(tape)
    return nn.mlp_forward(mt, tape.tensor(x)).value


def test_forward_matches_manual(rng):
    p = nn.init_mlp(
        rng,
        [7, 16, 16, 7],
        input_scale=np.linspace(0.5, 1.5, 7),
        output_scale=np.linspace(1.0, 2.0, 7),
    )
    x = rng.standard_normal((5, 7))
    assert np.allclose(forward_value(p, x), manual_forward(p, x), atol=1e-14)


def test_forward_zero_params_zero_input(rng):
    p = nn.init_mlp(rng, [4, 8, 8, 3])
    for w in p.weights:
        w[:] = 0.0
    out = forward_value(p, np.zeros((2, 4)))
    assert np.all(out == 0.0)


def test_tanh_output_bounded(rng):
    # float64 tanh saturates to exactly +-1 for huge pre-activations, so
    # the bound is closed, not strict
    p = nn.init_mlp(rng, [7, 32, 32, 7])
    x = 100.0 * rng.standard_normal((8, 7))
    out = forward_value(p, x)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)
    mild = forward_value(p, 0.01 * rng.standard_normal((8, 7)))
    assert np.all(np.abs(mild) < 1.0)


def test_single_neuron_tanh():
    p = nn.MlpParams(weights=[np.array([[2.0]])], biases=[np.array([0.5])])
    out = forward_value(p, np.array([[0.25]]))
    assert out[0, 0] == pytest.approx(np.tanh(1.0), rel=1e-15)


def test_leaky_relu_definition():
    tape = ad.Tape()
    x = tape.tensor(np.array([[-2.0, 3.0]]))
    y = ad.dense(x, tape.tensor(np.eye(2)), tape.tensor(np.zeros(2)), "leaky")
    assert y.value[0, 0] == pytest.approx(-0.02)
    assert y.value[0, 1] == pytest.approx(3.0)


def test_forward_input_width_mismatch(rng):
    p = nn.init_mlp(rng, [7, 8, 8, 7])
    tape = ad.Tape()
    mt = p.as_tensors(tape)
    with pytest.raises(ValueError):
        nn.mlp_forward(mt, tape.tensor(np.zeros((2, 5))))


def test_forward_nonfinite_input(rng):
    p = nn.init_mlp(rng, [3, 4, 4, 2])
    tape = ad.Tape()
    mt = p.as_tensors(tape)
    with pytest.raises(FloatingPointError):
        nn.mlp_forward(mt, tape.tensor(np.array([[1.0, np.nan, 0.0]])))


def test_mlp_gradcheck(rng):
    p = nn.init_mlp(rng, [7, 16, 16, 7], output_scale=np.full(7, 2.0))
    x = rng.standard_normal((4, 7))
    tgt = rng.standard_normal((4, 7))

    def loss_value():
        tape = ad.Tape()
        mt = p.as_tensors(tape)
        out = nn.mlp_forward(mt, tape.tensor(x))
        return float(ad.reduce_mean(ad.square(ad.sub(out, tape.tensor(tgt)))).value)

    tape = ad.Tape()
    mt = p.as_tensors(tape)
    out = nn.mlp_forward(mt, tape.tensor(x))
    loss = ad.reduce_mean(ad.square(ad.sub(out, tape.tensor(tgt))))
    grads = nn.collect_mlp_grads(ad.backward(loss), mt)
    coord_rng = np.random.default_rng(7)
    for arr, g in zip(p.param_arrays(), grads):
        for idx in sample_coords(coord_rng, arr.shape, 6):
            gf = fd_grad_at(loss_value, arr, idx)
            assert rel_err(np.array(g[idx]), np.array(gf)) < 1e-4


def test_glorot_bounds_and_zero_biases(rng):
    p = nn.init_mlp(rng, [7, 256, 256, 7])
    for w in p.weights:
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= limit)
        assert np.std(w) > 0.1 * limit
    for b in p.biases:
        assert np.all(b == 0.0)


def test_adam_zero_gradient_fixed_point(rng):
    p = nn.init_mlp(rng, [3, 4, 4, 2])
    before = [a.copy() for a in p.param_arrays()]
    zeros = [np.zeros_like(a) for a in p.param_arrays()]
    for _ in range(3):
        nn.adam_step(p, zeros, 1e-3)
    for a, b in zip(p.param_arrays(), before):
        assert np.array_equal(a, b)
    assert p.step_count == 3


def test_adam_first_step_magnitude():
    p = nn.MlpParams(weights=[np.array([[0.0]])], biases=[np.zeros(1)])
    g = [np.array([[1.0]]), np.zeros(1)]
    lr = 1e-3
    nn.adam_step(p, g, lr)
    assert p.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_converges_on_quadratic():
    p = nn.MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    lr = 0.1
    target = 1.0
    for _ in range(100):
        g = 2.0 * (p.weights[0] - target)
        nn.adam_step(p, [g, np.zeros(1)], lr)
    assert abs(p.weights[0][0, 0] - target) < 1e-2


def test_adam_shape_mismatch(rng):
    p = nn.init_mlp(rng, [3, 4, 2])
    bad = [np.zeros((1, 1)) for _ in p.param_arrays()]
    with pytest.raises(ValueError):
        nn.adam_step(p, bad, 1e-3)


@pytest.mark.parametrize("grad", [np.inf, np.nan, 1e308])
def test_adam_refuses_gradients_that_break_the_moments(grad):
    p = nn.MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="after the step"):
            nn.adam_step(p, [np.full((1, 1), grad), np.zeros(1)], 1e-3)


def test_adam_refuses_a_step_that_overflows_the_weights():
    p = nn.MlpParams(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    lr = 1e308
    # the first step lands near -1e308; the second one overflows
    nn.adam_step(p, [np.ones((1, 1)), np.zeros(1)], lr)
    assert np.isfinite(p.weights[0]).all()
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="after the step"):
            nn.adam_step(p, [np.ones((1, 1)), np.zeros(1)], lr)


def test_adam_config_validation(rng):
    p = nn.init_mlp(rng, [3, 4, 2])
    zeros = [np.zeros_like(a) for a in p.param_arrays()]
    with pytest.raises(ValueError):
        nn.adam_step(p, zeros, 0.0)


def test_persistence_roundtrip_bit_exact(rng):
    p = nn.init_mlp(
        rng,
        [7, 16, 16, 7],
        input_scale=rng.standard_normal(7),
        output_scale=np.abs(rng.standard_normal(7)) + 0.1,
    )
    grads = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    nn.adam_step(p, grads, 1e-3)
    q = nn.params_from_dict(nn.params_to_dict(p))
    assert q.sizes == p.sizes
    assert q.step_count == p.step_count
    for a, b in zip(p.param_arrays(), q.param_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(p.adam_m + p.adam_v, q.adam_m + q.adam_v):
        assert np.array_equal(a, b)
    assert np.array_equal(p.input_scale, q.input_scale)
    assert np.array_equal(p.output_scale, q.output_scale)


def test_resumed_update_identical(rng):
    # saving and reloading mid-training must reproduce the next update
    p = nn.init_mlp(rng, [3, 8, 8, 2])
    g1 = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    g2 = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    lr = 1e-3
    nn.adam_step(p, g1, lr)
    q = nn.params_from_dict(nn.params_to_dict(p))
    nn.adam_step(p, g2, lr)
    nn.adam_step(q, g2, lr)
    for a, b in zip(p.param_arrays(), q.param_arrays()):
        assert np.array_equal(a, b)


def test_copy_is_deep(rng):
    p = nn.init_mlp(rng, [3, 4, 2])
    q = p.copy()
    q.weights[0][0, 0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]
