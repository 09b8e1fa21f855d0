"""MLP forward/backward, Adam behavior, RNG, and persistence."""

import base64
import io
import json

import numpy as np
import pytest

from helpers import (
    array_to_b64,
    b64_to_array,
    expression_adam_step,
    fd_grad_at,
    rel_err,
    sample_coords,
)
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
    # a LeakyReLU layer into a tanh layer, both with identity weights
    tape = ad.Tape()
    x = tape.tensor(np.array([[-2.0, 3.0]]))
    layer = (tape.tensor(np.eye(2)), tape.tensor(np.zeros(2)))
    y = ad.dense(x, [layer, layer])
    assert y.value[0, 0] == pytest.approx(np.tanh(-0.02))
    assert y.value[0, 1] == pytest.approx(np.tanh(3.0))


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_place_matches_expression_bit_for_bit(rng, dtype):
    # weights and moments equal the expression's after every step, and
    # the gradients, some of which share one array as a backward map's
    # may, are left as they were
    p = nn.init_mlp(rng, [5, 8, 8, 3], input_scale=rng.uniform(0.5, 2.0, 5))
    q = p.copy()
    for _ in range(4):
        grads = [rng.standard_normal(a.shape).astype(dtype) for a in p.param_arrays()]
        grads[3] = grads[1]  # the two hidden biases share one array
        before = [g.copy() for g in grads]
        nn.adam_step(p, grads, 3e-3)
        expression_adam_step(q, grads, 3e-3)
        for g, g0 in zip(grads, before, strict=True):
            assert g.dtype == np.dtype(dtype)
            assert np.array_equal(g, g0)
        got = p.param_arrays() + p.adam_m + p.adam_v
        want = q.param_arrays() + q.adam_m + q.adam_v
        for a, b in zip(got, want, strict=True):
            assert a.dtype == np.float64
            assert np.array_equal(a, b)
    assert p.step_count == q.step_count == 4


def test_adam_config_validation(rng):
    p = nn.init_mlp(rng, [3, 4, 2])
    zeros = [np.zeros_like(a) for a in p.param_arrays()]
    with pytest.raises(ValueError):
        nn.adam_step(p, zeros, 0.0)


def reloaded(p: nn.MlpParams, resume: bool = True) -> nn.MlpParams:
    """``p`` written as a model file writes it, then read back."""
    f = io.BytesIO()
    nn.write_json(f, nn.params_to_dict(p))
    f.seek(0)
    return nn.params_from_dict(nn.read_json(f), f, resume)


def test_persistence_roundtrip_bit_exact(rng):
    p = nn.init_mlp(
        rng,
        [7, 16, 16, 7],
        input_scale=rng.standard_normal(7),
        output_scale=np.abs(rng.standard_normal(7)) + 0.1,
    )
    grads = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    nn.adam_step(p, grads, 1e-3)
    q = reloaded(p)
    assert q.sizes == p.sizes
    assert q.step_count == p.step_count
    for a, b in zip(p.param_arrays(), q.param_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(p.adam_m + p.adam_v, q.adam_m + q.adam_v, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(p.input_scale, q.input_scale)
    assert np.array_equal(p.output_scale, q.output_scale)


def test_loading_to_use_skips_the_moments(rng):
    # a network read back not to resume keeps its step count but holds
    # no moments, and it refuses to train on from fresh ones
    p = nn.init_mlp(rng, [3, 8, 2])
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    q = reloaded(p, resume=False)
    assert q.adam_m == [] and q.adam_v == []
    assert q.step_count == p.step_count == 1
    for a, b in zip(p.param_arrays(), q.param_arrays(), strict=True):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="without its Adam moments"):
        nn.adam_step(q, [np.zeros_like(a) for a in q.param_arrays()], 1e-3)


def _misshape_moment(d):
    d["adam_v"][2] = array_to_b64(np.zeros(3))


def _shorten_moment_data(d):
    # a record whose base64 holds one float64 fewer than its shape says
    d["adam_m"][1]["data"] = array_to_b64(np.zeros(7))["data"]


def _drop_moment(d):
    d["adam_v"].pop()


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize("tamper", [_misshape_moment, _shorten_moment_data, _drop_moment])
def test_bad_moment_records_are_refused_either_way(rng, tamper, resume):
    p = nn.init_mlp(rng, [3, 8, 2])
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    d = json.loads(_written(nn.params_to_dict(p)))
    tamper(d)
    f = io.BytesIO(json.dumps(d).encode("ascii"))
    with pytest.raises(ValueError, match="Adam moment"):
        nn.params_from_dict(nn.read_json(f), f, resume)


def test_resumed_update_identical(rng):
    # saving and reloading mid-training must reproduce the next update
    p = nn.init_mlp(rng, [3, 8, 8, 2])
    g1 = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    g2 = [rng.standard_normal(a.shape) for a in p.param_arrays()]
    lr = 1e-3
    nn.adam_step(p, g1, lr)
    q = reloaded(p)
    nn.adam_step(p, g2, lr)
    nn.adam_step(q, g2, lr)
    for a, b in zip(p.param_arrays(), q.param_arrays()):
        assert np.array_equal(a, b)


def test_copy_is_deep(rng):
    p = nn.init_mlp(rng, [3, 4, 2])
    q = p.copy()
    q.weights[0][0, 0] += 1.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]


def test_write_json_refuses_a_non_str_key():
    # json.dumps would quote an int key; the writer refuses it instead
    with pytest.raises(TypeError):
        nn.write_json(io.BytesIO(), {1: np.zeros(2)})


def _written(doc) -> bytes:
    f = io.BytesIO()
    nn.write_json(f, doc)
    return f.getvalue()


def _decoded(doc, f):
    """``doc`` from :func:`nn.read_json` with each record read from ``f``."""
    if isinstance(doc, nn.ArrayRecord):
        return nn.read_array(f, doc)
    if isinstance(doc, dict):
        return {k: _decoded(v, f) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_decoded(v, f) for v in doc]
    return doc


def _decoded_oracle(doc):
    """``doc`` from ``json.loads`` with each record decoded at once."""
    if isinstance(doc, dict) and "data" in doc:
        return b64_to_array(doc)
    if isinstance(doc, dict):
        return {k: _decoded_oracle(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_decoded_oracle(v) for v in doc]
    return doc


def _assert_same(a, b):
    if isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(b, dict):
        assert isinstance(a, dict) and list(a) == list(b)
        for k in b:
            _assert_same(a[k], b[k])
    elif isinstance(b, list):
        assert isinstance(a, list) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert type(a) is type(b) and a == b


# strings that end in escapes, hold quotes, look like keys or are "data"
# as a value: none may be taken for a record's base64
_AWKWARD_DOC = {
    "quote\"d": "a \\\" \"data\": \"x",
    "list": ["data", "", "\\", 1.5e-300, None, True, {"shape": [2]}],
    "empty": np.zeros((0, 3)),
    "nested": [[np.array([-0.0, 5e-324, np.inf, np.nan])], {"k": np.arange(7.0).reshape(7, 1)}],
    "scalar": np.array(3.25),
}


@pytest.mark.parametrize("chunk", [4, 8, 20, nn.READ_CHUNK])
@pytest.mark.parametrize("layout", ["written", "compact", "indent"])
def test_read_json_equals_json_loads_at_every_chunk_boundary(rng, monkeypatch, chunk, layout):
    # every split of a key, an escape or a record between two reads
    monkeypatch.setattr(nn, "READ_CHUNK", chunk)
    p = nn.init_mlp(rng, [3, 5, 2], input_scale=rng.standard_normal(3))
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    text = _written({**_AWKWARD_DOC, "params": nn.params_to_dict(p)})
    if layout != "written":
        kw = {"separators": (",", ":")} if layout == "compact" else {"indent": 1}
        text = json.dumps(json.loads(text), **kw).encode("ascii")
    f = io.BytesIO(text)
    _assert_same(_decoded(nn.read_json(f), f), _decoded_oracle(json.loads(text)))


def test_an_escaped_data_key_still_names_a_record():
    # json reads "data" as "data": its value is a record's base64 too
    text = _written({"a": np.ones(2)}).replace(b'"data"', b'"d\\u0061ta"')
    f = io.BytesIO(text)
    assert np.array_equal(nn.read_array(f, nn.read_json(f)["a"]), np.ones(2))
    f = io.BytesIO(text.replace(b'ta": "', b'ta": "!'))
    with pytest.raises(ValueError, match="inside an array's base64"):
        nn.read_json(f)


def _junk(text: bytes, nth: int) -> bytes:
    # "!*" inside the nth record's base64; b64decode would skip it
    at = -1
    for _ in range(nth + 1):
        at = text.index(b'"data": "', at + 1)
    return text[: at + 12] + b"!*" + text[at + 12 :]


@pytest.mark.parametrize("resume", [False, True])
def test_a_byte_outside_base64_is_refused_in_any_record(rng, resume):
    p = nn.init_mlp(rng, [3, 8, 2])
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    text = _written(nn.params_to_dict(p))
    for nth in (0, 3, 7):  # a weight, a bias, an Adam moment never decoded
        f = io.BytesIO(_junk(text, nth))
        with pytest.raises(ValueError, match=r"^byte \d+ is b'!' inside an array's base64$"):
            nn.params_from_dict(nn.read_json(f), f, resume)


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"data": "AAAAAAAAAAA=", "format": "x"}, "outside an array record"),
        ({"a": {"shape": [1], "data": "AAAAAAAAAAA=", "extra": 1}}, "outside an array record"),
        ({"a": {"shape": [1], "data": 5}}, "outside an array record"),
        ({"a": {"shape": [1.0], "data": "AAAAAAAAAAA="}}, "not a list of sizes"),
        ({"a": {"shape": [-1], "data": ""}}, "not a list of sizes"),
        ({"a": {"shape": 1, "data": "AAAAAAAAAAA="}}, "not a list of sizes"),
    ],
)
def test_read_json_refuses_a_data_key_outside_an_array_record(doc, match):
    with pytest.raises(ValueError, match=match):
        nn.read_json(io.BytesIO(json.dumps(doc).encode("ascii")))


@pytest.mark.parametrize(
    "text, match",
    [
        (b'{"a": {"shape": [1], "data": "AAAAAAAAAAA=', "Unterminated|Expecting"),
        (b'{"a": "\xc3\xa9"}', "ascii"),
        (b'{"a": 1', "Expecting"),
        (b"", "Expecting value"),
    ],
)
def test_read_json_refuses_what_json_refuses(text, match):
    with pytest.raises(ValueError, match=match):
        nn.read_json(io.BytesIO(text))


@pytest.mark.parametrize(
    "data, match",
    [
        ("AAAAAAAAAA==", "does not fit"),  # 7 bytes for one float64
        ("AAAAAAAAAAAA", "does not fit"),  # 9 bytes
        ("AAAAAAAAAA=A", "padded before its end"),
        ("AAAAAAAAA===", "padded before its end"),
    ],
)
def test_read_array_refuses_base64_that_is_not_its_shape(data, match):
    f = io.BytesIO(json.dumps({"shape": [1], "data": data}).encode("ascii"))
    with pytest.raises(ValueError, match=match):
        nn.read_array(f, nn.read_json(f))


def test_read_array_refuses_padding_between_two_reads(monkeypatch):
    # each read decodes on its own, so padding that ends one would pass
    monkeypatch.setattr(nn, "READ_CHUNK", 4)
    data = base64.b64encode(np.ones(2).tobytes()).decode("ascii")
    data = "AA==" + data[4:]  # 22 chars: two float64 fit, one byte moved
    f = io.BytesIO(json.dumps({"shape": [2], "data": data}).encode("ascii"))
    with pytest.raises(ValueError, match="padded before its end"):
        nn.read_array(f, nn.read_json(f))


def test_read_array_takes_only_a_record():
    with pytest.raises(TypeError, match="not an array record"):
        nn.read_array(io.BytesIO(), {"shape": [1], "data": "AAAAAAAAAAA="})
