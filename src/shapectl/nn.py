"""MLP parameters, forward pass, Adam, and array serialization.

Every network has one form, LeakyReLU(0.01) hidden layers into a tanh
output layer, fixed by the program: a model file holds only the arrays
and, where the model resumes training, its Adam state.

Parameters live outside any tape as plain float64 arrays, together with
their step count and, once they train or are loaded to resume training
(:func:`adam_from_dict`), their Adam moment buffers.  A training
iteration wraps the weights once into tape leaves
(:meth:`MlpParams.as_tensors`), cast to the tape's compute dtype, runs
any number of forward passes that share those leaves, calls
:func:`shapectl.autodiff.backward`, and hands the
collected gradients to :func:`adam_step`, which updates the arrays in
place with the given learning rate and the fixed :data:`ADAM_BETAS` and
:data:`ADAM_EPS`.  The float64 arrays are the master copy: a float32
tape (shape and policy training) computes in float32, while the
weights, the moments and the saved files stay float64.  A model that is
only evaluated, or that other gradients flow through unchanged, is
wrapped ``frozen``: its weights become constant leaves, so no weight
gradient is computed, and a forward pass on constant inputs records
nothing to backpropagate.  A leaf takes an array already in the tape's
dtype without a copy, so a frozen network that many passes read (policy
training solves the frozen shape model eleven times per iteration) is
cast once by its owner, not once per pass.

:func:`mlp_forward` records one fused :func:`~shapectl.autodiff.dense`
node per evaluation, whatever the depth.  The node keeps no first
hidden layer output for its sweep, which recomputes it from the scaled
input; what else it keeps is listed in :mod:`shapectl.autodiff`.

A model file (:func:`write_json` on :func:`params_to_dict`, plus
:func:`adam_to_dict`'s fields where the model resumes training) is one
line of JSON, the header, in which each array is the record
``{"shape": [...]}``, then every array's little-endian float64 bytes in
the header's order, each written from the array's own buffer.  It is
read back the same way round (:func:`read_json`, then
:func:`params_from_dict` and :func:`adam_from_dict`): the header is
parsed, each record becomes an :class:`ArrayRecord` holding its offset,
the file's length is checked against the shapes, and only the arrays
the network needs are read, each straight into its new array
(:func:`read_array`), so a load holds its arrays and the header, never
an unused moment.  A load reads every field a save writes, and a file
missing any of them is refused.
"""

from __future__ import annotations

import copy
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Array, Tape, Tensor, check_finite, dense, grad_of


# Adam's moment decay rates and denominator guard: the defaults of
# Kingma & Ba (arXiv:1412.6980), which every model here trains with
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Fully connected network: LeakyReLU hidden layers, tanh output.

    ``input_scale`` and ``output_scale`` are constant per-component
    multipliers applied before the first layer and after the output
    activation; they carry unit normalization so the weights see O(1)
    values (ones where a network needs none), and they persist
    alongside the weights.  ``adam_m`` / ``adam_v`` / ``step_count``
    hold the optimizer state, from which a file that carries it
    (:func:`adam_to_dict`) resumes training exactly; a network loaded
    only to be used keeps at most its step count, never its moments.

    Construction checks the structure, so a model file that is not one
    network fails to load: the weights chain, and each bias and scale
    has its layer's width.  :func:`adam_from_dict` also checks that a
    file's moment records fit the parameters and its step count.
    """

    weights: list[Array]
    biases: list[Array]
    input_scale: Array
    output_scale: Array
    adam_m: list[Array] = field(default_factory=list)
    adam_v: list[Array] = field(default_factory=list)
    step_count: int = 0

    def __post_init__(self):
        if not self.weights or any(w.ndim != 2 for w in self.weights):
            raise ValueError("weights must be one or more matrices")
        sizes = self.sizes
        want = list(zip(sizes, sizes[1:])) + [(n,) for n in sizes[1:]]
        want += [(sizes[0],), (sizes[-1],)]
        got = [w.shape for w in self.weights] + [b.shape for b in self.biases]
        got += [self.input_scale.shape, self.output_scale.shape]
        if got != want:
            raise ValueError(f"layer shapes {got} do not chain as {want}")

    @property
    def sizes(self) -> list[int]:
        dims = [self.weights[0].shape[0]]
        dims += [w.shape[1] for w in self.weights]
        return dims

    def param_arrays(self) -> list[Array]:
        return [a for layer in zip(self.weights, self.biases) for a in layer]

    def ensure_moments(self) -> None:
        """Zero moments for a network that has none; one that has taken
        steps without its moments (loaded not to resume) raises
        ``ValueError``, since fresh moments would not resume it."""
        if not self.adam_m:
            if self.step_count:
                raise ValueError("a network loaded without its Adam moments cannot train on")
            self.adam_m = [np.zeros_like(a) for a in self.param_arrays()]
            self.adam_v = [np.zeros_like(a) for a in self.param_arrays()]

    def as_tensors(self, tape: Tape, frozen: bool = False) -> "MlpTensors":
        """The weights as new trainable tape leaves, or constants if ``frozen``."""
        leaves = [(tape.constant if frozen else tape.tensor)(a) for a in self.param_arrays()]
        return MlpTensors(self, list(zip(leaves[::2], leaves[1::2])))

    def copy(self) -> "MlpParams":
        return copy.deepcopy(self)


@dataclass
class MlpTensors:
    """Tape-resident view of :class:`MlpParams` for one iteration."""

    params: MlpParams
    layers: list[tuple[Tensor, Tensor]]

    def param_tensors(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer]


def init_mlp(
    rng: np.random.Generator,
    sizes: list[int],
    input_scale: Array | None = None,
    output_scale: Array | None = None,
) -> MlpParams:
    """Glorot-uniform weights, zero biases; a scale not given is ones."""
    if min(sizes) < 1:
        raise ValueError(f"layer widths must be positive, got {list(sizes)}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    input_scale = np.ones(sizes[0]) if input_scale is None else input_scale
    output_scale = np.ones(sizes[-1]) if output_scale is None else output_scale
    return MlpParams(
        weights=weights,
        biases=biases,
        input_scale=np.asarray(input_scale, dtype=np.float64),
        output_scale=np.asarray(output_scale, dtype=np.float64),
    )


def mlp_forward(mt: MlpTensors, x: Tensor) -> Tensor:
    """Evaluate the network on a batch ``x`` of shape (batch, in_dim):
    LeakyReLU hidden layers, then the tanh output layer, all one fused
    :func:`~shapectl.autodiff.dense` tape node."""
    p = mt.params
    if x.value.shape[-1] != p.weights[0].shape[0]:
        raise ValueError(
            f"input width {x.value.shape[-1]} does not match "
            f"first layer width {p.weights[0].shape[0]}"
        )
    check_finite(x.value, "mlp input")
    return dense(x, mt.layers, p.input_scale, p.output_scale)


def adam_step(params: MlpParams, grads: list[Array], lr: float) -> None:
    """One bias-corrected Adam update with learning rate ``lr``, in place
    on ``params``; the decay rates and guard are :data:`ADAM_BETAS` and
    :data:`ADAM_EPS`.

    Each gradient is copied into one float64 buffer, so the moments stay
    float64 whatever tape computed the gradients and the caller's arrays
    (which a :func:`~shapectl.autodiff.backward` map may share) are left
    as they are.  That copy and one scratch buffer, both as large as the
    largest parameter, hold every temporary: the update is computed in
    place, bit for bit ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2)
    g²``, ``a -= lr_t m / (sqrt(v) + eps)``.  A step leaving a weight or
    moment non-finite raises FloatingPointError.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    arrays = params.param_arrays()
    if len(grads) != len(arrays):
        raise ValueError("gradient count does not match parameter count")
    if any(a.shape != g.shape for a, g in zip(arrays, grads)):
        raise ValueError("gradient shape does not match parameter shape")
    params.ensure_moments()
    params.step_count += 1
    t = params.step_count
    b1, b2 = ADAM_BETAS
    lr_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    size = max(a.size for a in arrays)
    gbuf, sbuf = np.empty(size), np.empty(size)
    for a, g, m, v in zip(arrays, grads, params.adam_m, params.adam_v):
        g64 = gbuf[: a.size].reshape(a.shape)
        s = sbuf[: a.size].reshape(a.shape)
        g64[...] = g
        m *= b1
        m += np.multiply(g64, 1.0 - b1, out=s)
        v *= b2
        g64 *= g64
        v += np.multiply(g64, 1.0 - b2, out=s)
        np.sqrt(v, out=s)
        s += ADAM_EPS
        np.multiply(m, lr_t, out=g64)
        g64 /= s
        a -= g64
    for a in (*arrays, *params.adam_m, *params.adam_v):
        check_finite(a, "weights or Adam moments after the step")


def collect_mlp_grads(grads: dict[int, Array], mt: MlpTensors) -> list[Array]:
    """Gradients for every parameter tensor, zeros where unused."""
    return [grad_of(grads, t) for t in mt.param_tensors()]


# ---------------------------------------------------------------------------
# serialization: a JSON header line, then the arrays as raw float64


def _header(obj, arrays: list):
    """``obj`` with each array replaced by its record ``{"shape": [...]}``,
    the arrays appended to ``arrays`` in document order.  A non-str key,
    and a dict that would read back as a record, raise TypeError."""
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return {"shape": list(obj.shape)}
    if isinstance(obj, dict):
        if list(obj) == ["shape"]:
            raise TypeError('a dict whose one key is "shape" reads back as an array record')
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"model file keys are str, got {key!r}")
        return {key: _header(value, arrays) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_header(value, arrays) for value in obj]
    return obj


def write_json(f, obj) -> None:
    """Write ``obj`` to the binary handle ``f``: one line of JSON, the
    header, then every array's little-endian float64 bytes, back to back
    in the order the header names them, each from the array's own buffer
    (a C-contiguous float64 array is not copied).

    ``obj`` is built of dicts with str keys, lists, arrays, and values
    ``json.dumps`` writes on its own (str, numbers, bool, None, and
    containers of those).  The header is ``json.dumps`` of ``obj`` with
    each array replaced by the record ``{"shape": [...]}``; a non-str key,
    and a dict whose one key is ``"shape"``, raise TypeError.
    """
    arrays: list = []
    f.write(json.dumps(_header(obj, arrays)).encode("ascii") + b"\n")
    for a in arrays:
        f.write(np.ascontiguousarray(a, dtype="<f8").data)


@dataclass(frozen=True)
class ArrayRecord:
    """An array record :func:`read_json` left in its file: the array's
    shape, and the offset of its float64 bytes there."""

    shape: tuple[int, ...]
    offset: int


def read_json(f):
    """Inverse of :func:`write_json`: the header document in the binary
    handle ``f``, each array record as an :class:`ArrayRecord`.

    Only the header line is read and parsed; an object whose one member
    is ``"shape"`` is a record, and its array's bytes follow those of the
    record before it.  A shape that is not a list of sizes, malformed
    JSON, non-ASCII text, and arrays that do not end exactly where ``f``
    ends raise ``ValueError``, before any array is read:
    :func:`read_array` reads a record from the same handle.
    """
    line = f.readline()
    start = offset = f.tell()

    def record(pairs):
        nonlocal offset
        if len(pairs) != 1 or pairs[0][0] != "shape":
            return dict(pairs)
        shape = pairs[0][1]
        if not isinstance(shape, list) or any(type(k) is not int or k < 0 for k in shape):
            raise ValueError(f"array record shape {shape!r} is not a list of sizes")
        rec = ArrayRecord(tuple(shape), offset)
        offset += 8 * math.prod(shape)
        return rec

    try:
        doc = json.loads(line.decode("ascii"), object_pairs_hook=record)
    except RecursionError as exc:
        raise ValueError("the header nests deeper than the parser can follow") from exc
    size = f.seek(0, io.SEEK_END)
    if offset != size:
        raise ValueError(
            f"the arrays take {offset - start} bytes after the header, the file holds {size - start}"
        )
    return doc


def read_array(f, record: ArrayRecord) -> Array:
    """The array ``record`` holds, read from the binary handle ``f``
    :func:`read_json` read it from into a new writable float64 array.  A
    file that ends inside the array raises ``ValueError``; a value that
    is not a record raises ``TypeError``."""
    if not isinstance(record, ArrayRecord):
        raise TypeError(f"{type(record).__name__} is not an array record")
    out = np.empty(record.shape, dtype="<f8")
    f.seek(record.offset)
    if f.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise ValueError("the file ends inside an array")
    return out.astype(np.float64, copy=False)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool or a fraction raises ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """``value`` as a float if it is a JSON number; a bool and a string
    raise ``ValueError``.  ``NaN`` and ``Infinity``, which ``json`` reads,
    pass: the constructor that takes the value refuses them."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def params_to_dict(p: MlpParams) -> dict:
    """The network as a document for :func:`write_json`, arrays as they are."""
    return {
        "weights": list(p.weights),
        "biases": list(p.biases),
        "input_scale": p.input_scale,
        "output_scale": p.output_scale,
    }


def adam_to_dict(p: MlpParams) -> dict:
    """The network's Adam moments and step count as document fields for
    :func:`write_json`.  A network loaded without its moments raises
    ``ValueError``: its file would hold steps and no moments."""
    if p.step_count and not p.adam_m:
        raise ValueError("a network loaded without its Adam moments cannot be saved")
    return {"adam_m": list(p.adam_m), "adam_v": list(p.adam_v), "step_count": p.step_count}


def params_from_dict(d: dict, f) -> MlpParams:
    """Inverse of :func:`params_to_dict` as :func:`write_json` writes it and
    :func:`read_json` reads it back from the binary handle ``f``: the
    network, its arrays read from ``f`` (:func:`read_array`), with step
    count 0 and no moments.  A missing field raises ``KeyError``."""
    return MlpParams(
        weights=[read_array(f, w) for w in d["weights"]],
        biases=[read_array(f, b) for b in d["biases"]],
        input_scale=read_array(f, d["input_scale"]),
        output_scale=read_array(f, d["output_scale"]),
    )


def adam_from_dict(params: MlpParams, d: dict, f, resume: bool) -> None:
    """Inverse of :func:`adam_to_dict` on the network :func:`params_from_dict`
    read from ``d`` and ``f``: its step count, and its moments only to
    ``resume`` training.  Moment records that are not one ``adam_m`` and
    one ``adam_v`` of each parameter's shape once the network has taken
    a step, or any before, raise ``ValueError`` without a read."""
    step_count = json_int(d["step_count"], "step_count")
    if step_count < 0:
        raise ValueError(f"step_count must not be negative, got {step_count}")
    want = [a.shape for a in params.param_arrays()] if step_count else []
    for key in ("adam_m", "adam_v"):
        if [r.shape if isinstance(r, ArrayRecord) else None for r in d[key]] != want:
            need = "one of each parameter's shape" if step_count else "none"
            raise ValueError(
                f"Adam moments do not match the parameter shapes"
                f" (step_count {step_count} needs {need})"
            )
    params.step_count = step_count
    if resume:
        params.adam_m = [read_array(f, m) for m in d["adam_m"]]
        params.adam_v = [read_array(f, v) for v in d["adam_v"]]
