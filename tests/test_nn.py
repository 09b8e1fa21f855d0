"""MLP forward/backward, Adam behavior, RNG, and persistence."""

import io
import json

import numpy as np
import pytest

from helpers import (
    expression_adam_step,
    fd_grad_at,
    model_file_arrays,
    plain_dense,
    rel_err,
    sample_coords,
    split_model_file,
)
from shapectl import autodiff as ad
from shapectl import nn


def manual_forward(p: nn.MlpParams, x: np.ndarray) -> np.ndarray:
    h = x * p.input_scale
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.01 * h)
    return np.tanh(h) * p.output_scale


def one_unit(w: float = 0.0, b: float = 0.0) -> nn.MlpParams:
    """The network ``tanh(w x + b)`` of one unit, with scales of ones."""
    ones = np.ones(1)
    return nn.MlpParams([np.array([[w]])], [np.array([b])], ones, ones.copy())


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
    p = one_unit(2.0, 0.5)
    out = forward_value(p, np.array([[0.25]]))
    assert out[0, 0] == pytest.approx(np.tanh(1.0), rel=1e-15)


def test_leaky_relu_definition():
    # a LeakyReLU layer into a tanh layer, both with identity weights
    tape = ad.Tape()
    x = tape.tensor(np.array([[-2.0, 3.0]]))
    layer = (tape.tensor(np.eye(2)), tape.tensor(np.zeros(2)))
    y = plain_dense(x, [layer, layer])
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
    p = nn.init_mlp(rng, [7, 256, 256, 3])
    for w in p.weights:
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= limit)
        assert np.std(w) > 0.1 * limit
    for b in p.biases:
        assert np.all(b == 0.0)
    # a scale not given is ones
    assert np.array_equal(p.input_scale, np.ones(7))
    assert np.array_equal(p.output_scale, np.ones(3))


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
    p = one_unit()
    g = [np.array([[1.0]]), np.zeros(1)]
    lr = 1e-3
    nn.adam_step(p, g, lr)
    assert p.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_converges_on_quadratic():
    p = one_unit()
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
    p = one_unit()
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="after the step"):
            nn.adam_step(p, [np.full((1, 1), grad), np.zeros(1)], 1e-3)


def test_adam_refuses_a_step_that_overflows_the_weights():
    p = one_unit()
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


def with_adam(p: nn.MlpParams) -> dict:
    """``p`` as a shape model file writes it: the network and its Adam state."""
    return {**nn.params_to_dict(p), **nn.adam_to_dict(p)}


def read_with_adam(f, resume: bool) -> nn.MlpParams:
    """The network a :func:`with_adam` document in ``f`` holds, read as a
    shape model file is read."""
    d = nn.read_json(f)
    p = nn.params_from_dict(d, f)
    nn.adam_from_dict(p, d, f, resume)
    return p


def reloaded(p: nn.MlpParams, resume: bool = True) -> nn.MlpParams:
    """``p`` written as a shape model file writes it, then read back."""
    f = io.BytesIO()
    nn.write_json(f, with_adam(p))
    f.seek(0)
    return read_with_adam(f, resume)


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
    # nor is it saved: a load refuses steps without moments
    with pytest.raises(ValueError, match="without its Adam moments cannot be saved"):
        nn.adam_to_dict(q)
    # the network alone, as a policy file holds it, reads back with step
    # count 0 and no moments
    f = io.BytesIO(_written(nn.params_to_dict(q)))
    r = nn.params_from_dict(nn.read_json(f), f)
    assert r.step_count == 0 and r.adam_m == [] and r.adam_v == []
    for a, b in zip(p.param_arrays(), r.param_arrays(), strict=True):
        assert np.array_equal(a, b)


def _misshape_moment(d):
    d["adam_v"][2] = np.zeros(3)


def _shorten_moment_data(d):
    # a record one float64 shorter than its parameter
    d["adam_m"][1] = np.zeros(7)


def _drop_moment(d):
    d["adam_v"].pop()


def _drop_all_moments(d):
    # a network that has taken a step keeps its moments
    d["adam_m"], d["adam_v"] = [], []


def _moments_before_a_step(d):
    # and one that has taken none holds none
    d["step_count"] = 0


@pytest.mark.parametrize("resume", [False, True])
@pytest.mark.parametrize(
    "tamper",
    [
        _misshape_moment,
        _shorten_moment_data,
        _drop_moment,
        _drop_all_moments,
        _moments_before_a_step,
    ],
)
def test_bad_moment_records_are_refused_either_way(rng, tamper, resume):
    p = nn.init_mlp(rng, [3, 8, 2])
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    d = with_adam(p)
    tamper(d)
    f = io.BytesIO(_written(d))
    with pytest.raises(ValueError, match="Adam moment"):
        read_with_adam(f, resume)


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


def test_write_json_writes_a_header_line_then_the_raw_arrays():
    # json.dumps of the document with each array as its shape, then the
    # arrays' float64 bytes in document order, a transposed view included
    a, b = np.arange(6.0).reshape(2, 3), np.array([-0.0, 5e-324, np.inf, np.nan])
    doc = {"k": [a.T, None], "q\"": {"b": b, "s": np.array(3.25)}, "n": 1.5e-300}
    header = {"k": [{"shape": [3, 2]}, None], "q\"": {"b": {"shape": [4]}, "s": {"shape": []}}}
    header["n"] = 1.5e-300
    payload = np.ascontiguousarray(a.T).tobytes() + b.tobytes() + np.float64(3.25).tobytes()
    assert _written(doc) == json.dumps(header).encode("ascii") + b"\n" + payload


@pytest.mark.parametrize(
    "shape",
    [[1.0], [-1], [True], 1, "1", None],
    ids=["float", "negative", "bool", "int", "str", "null"],
)
def test_read_json_refuses_a_shape_that_is_not_a_list_of_sizes(shape):
    text = json.dumps({"a": {"shape": shape}}).encode("ascii") + b"\n" + bytes(8)
    with pytest.raises(ValueError, match="not a list of sizes"):
        nn.read_json(io.BytesIO(text))


@pytest.mark.parametrize(
    "shape, size",
    [
        ([2], 15),
        ([2], 24),
        ([2**40], 16),  # 8 TiB asked of 16 bytes
        ([2**40, 2**40], 16),  # 2**83 bytes: no int64 wraps round
        ([], 0),
    ],
    ids=["one_byte_short", "one_float64_too_many", "8_tib", "2**83_bytes", "no_scalar"],
)
def test_read_json_refuses_arrays_that_do_not_end_with_the_file(shape, size):
    # refused by the header alone, before any array is allocated or read
    text = json.dumps({"a": {"shape": shape}}).encode("ascii") + b"\n" + bytes(size)
    with pytest.raises(ValueError, match=r"^the arrays take \d+ bytes after the header, the file"):
        nn.read_json(io.BytesIO(text))


def test_a_header_syntax_error_gives_its_place_in_the_file(rng):
    # the header is parsed as it lies in the file: a stray byte past the
    # first records is reported at its own offset
    text = _written(nn.params_to_dict(nn.init_mlp(rng, [3, 8, 2])))
    at = text.index(b'"biases"')
    text = text[:at] + b"x" + text[at:]
    with pytest.raises(json.JSONDecodeError) as err:
        nn.read_json(io.BytesIO(text))
    assert err.value.pos == at and f"(char {at})" in str(err.value)


def test_a_header_nested_past_the_recursion_limit_is_refused():
    # json's RecursionError, which is not a ValueError, is turned into one
    text = b"[" * 100_000 + b"]" * 100_000 + b"\n"
    with pytest.raises(ValueError, match="nests deeper than the parser can follow"):
        nn.read_json(io.BytesIO(text))


def test_read_array_refuses_a_file_that_ends_inside_the_array():
    f = io.BytesIO(bytes(12))
    assert np.array_equal(nn.read_array(f, nn.ArrayRecord((1,), 4)), np.zeros(1))
    with pytest.raises(ValueError, match="ends inside an array"):
        nn.read_array(f, nn.ArrayRecord((2,), 4))


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


def _decoded(doc, f):
    """``doc`` from :func:`nn.read_json` with each record read from ``f``."""
    if isinstance(doc, nn.ArrayRecord):
        return nn.read_array(f, doc)
    if isinstance(doc, dict):
        return {k: _decoded(v, f) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_decoded(v, f) for v in doc]
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


# strings that end in escapes, hold quotes or newlines, or look like keys,
# and an object with a "shape" member that is not a record
_AWKWARD_DOC = {
    "quote\"d": "a \\\" \"shape\": [1]}\n",
    "list": ["shape", "", "\\", 1.5e-300, None, True, {"shape": [2], "of": "a list"}],
    "empty": np.zeros((0, 3)),
    "nested": [[np.array([-0.0, 5e-324, np.inf, np.nan])], {"k": np.arange(7.0).reshape(7, 1)}],
    "scalar": np.array(3.25),
}


@pytest.mark.parametrize("chunk", [4, 8, 20, 1 << 16])
@pytest.mark.parametrize("layout", ["written", "compact"])
def test_read_json_equals_json_loads_at_every_chunk_boundary(rng, chunk, layout):
    # the file reaches the reader through a buffer of ``chunk`` bytes, so
    # the header and the arrays split between two reads everywhere; a
    # header re-serialized without spaces reads the same
    p = nn.init_mlp(rng, [3, 5, 2], input_scale=rng.standard_normal(3))
    nn.adam_step(p, [rng.standard_normal(a.shape) for a in p.param_arrays()], 1e-3)
    header, payload = split_model_file(_written({**_AWKWARD_DOC, "params": with_adam(p)}))
    separators = (",", ":") if layout == "compact" else None
    text = json.dumps(header, separators=separators).encode("ascii") + b"\n" + payload
    f = io.BufferedReader(io.BytesIO(text), buffer_size=chunk)
    _assert_same(_decoded(nn.read_json(f), f), model_file_arrays(header, payload))


def test_write_json_refuses_an_object_that_would_read_back_as_a_record():
    with pytest.raises(TypeError, match="array record"):
        nn.write_json(io.BytesIO(), {"a": {"shape": [2]}})


def test_read_array_takes_only_a_record():
    with pytest.raises(TypeError, match="not an array record"):
        nn.read_array(io.BytesIO(), {"shape": [1], "data": "AAAAAAAAAAA="})
