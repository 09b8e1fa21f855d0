"""MLP parameters, forward pass, Adam, and array serialization.

Every network has one form, LeakyReLU(0.01) hidden layers into a tanh
output layer.  A model file names it (``hidden_slope`` 0.01,
``out_activation`` ``"tanh"``), and loading refuses any other.

Parameters live outside any tape as plain float64 arrays, together with
their Adam moment buffers and step count.  A training iteration wraps the
weights once into tape leaves (:meth:`MlpParams.as_tensors`), cast to
the tape's compute dtype, runs any number of forward passes that share
those leaves, calls :func:`shapectl.autodiff.backward`, and hands the
collected gradients to :func:`adam_step`, which updates the arrays in
place with the given learning rate and the fixed :data:`ADAM_BETAS` and
:data:`ADAM_EPS`.  The float64 arrays are the master copy: a float32
tape (shape and policy training) computes in float32, while the
weights, the moments and the saved files stay float64.  A model that is
only evaluated, or that other gradients flow through unchanged, is
wrapped ``frozen``: its weights become constant leaves, so no weight
gradient is computed, and a forward pass on constant inputs records
nothing to backpropagate.
"""

from __future__ import annotations

import base64
import copy
from dataclasses import dataclass, field

import numpy as np

from .autodiff import LEAKY_SLOPE, Array, Tape, Tensor, check_finite, cmul, dense, grad_of


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
    values, and they persist alongside the weights.  ``adam_m`` /
    ``adam_v`` / ``step_count`` hold the optimizer state so a saved
    model resumes training exactly where it left off.

    Construction checks the structure, so a model file that is not one
    network fails to load: the weights chain, each bias and scale has
    its layer's width, and any moments have the parameters' shapes.  No
    field names the form; :func:`params_from_dict` checks what a file names.
    """

    weights: list[Array]
    biases: list[Array]
    input_scale: Array | None = None
    output_scale: Array | None = None
    adam_m: list[Array] = field(default_factory=list)
    adam_v: list[Array] = field(default_factory=list)
    step_count: int = 0

    def __post_init__(self):
        if not self.weights or any(w.ndim != 2 for w in self.weights):
            raise ValueError("weights must be one or more matrices")
        sizes = self.sizes
        want = list(zip(sizes, sizes[1:])) + [(n,) for n in sizes[1:]]
        got = [w.shape for w in self.weights] + [b.shape for b in self.biases]
        scales = ((self.input_scale, sizes[0]), (self.output_scale, sizes[-1]))
        for scale, width in scales:
            if scale is not None:
                want.append((width,))
                got.append(scale.shape)
        if got != want:
            raise ValueError(f"layer shapes {got} do not chain as {want}")
        shapes = [a.shape for a in self.param_arrays()]
        if (self.adam_m or self.adam_v) and not (
            [m.shape for m in self.adam_m] == [v.shape for v in self.adam_v] == shapes
        ):
            raise ValueError("Adam moments do not match the parameter shapes")

    @property
    def sizes(self) -> list[int]:
        dims = [self.weights[0].shape[0]]
        dims += [w.shape[1] for w in self.weights]
        return dims

    def param_arrays(self) -> list[Array]:
        out: list[Array] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def ensure_moments(self) -> None:
        if not self.adam_m:
            self.adam_m = [np.zeros_like(a) for a in self.param_arrays()]
            self.adam_v = [np.zeros_like(a) for a in self.param_arrays()]

    def as_tensors(self, tape: Tape, frozen: bool = False) -> "MlpTensors":
        """The weights as trainable tape leaves, or constants if ``frozen``."""
        leaf = tape.constant if frozen else tape.tensor
        layers = [(leaf(w), leaf(b)) for w, b in zip(self.weights, self.biases)]
        return MlpTensors(self, layers)

    def copy(self) -> "MlpParams":
        return copy.deepcopy(self)


@dataclass
class MlpTensors:
    """Tape-resident view of :class:`MlpParams` for one iteration."""

    params: MlpParams
    layers: list[tuple[Tensor, Tensor]]

    def param_tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out


def init_mlp(
    rng: np.random.Generator,
    sizes: list[int],
    input_scale: Array | None = None,
    output_scale: Array | None = None,
) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    if min(sizes) < 1:
        raise ValueError(f"layer widths must be positive, got {list(sizes)}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(
        weights=weights,
        biases=biases,
        input_scale=None if input_scale is None else np.asarray(input_scale, dtype=np.float64),
        output_scale=None if output_scale is None else np.asarray(output_scale, dtype=np.float64),
    )


def mlp_forward(mt: MlpTensors, x: Tensor) -> Tensor:
    """Evaluate the network on a batch ``x`` of shape (batch, in_dim):
    LeakyReLU hidden layers, then the tanh output layer."""
    p = mt.params
    if x.value.shape[-1] != p.weights[0].shape[0]:
        raise ValueError(
            f"input width {x.value.shape[-1]} does not match "
            f"first layer width {p.weights[0].shape[0]}"
        )
    check_finite(x.value, "mlp input")
    h = x
    if p.input_scale is not None:
        h = cmul(h, p.input_scale)
    last = len(mt.layers) - 1
    for i, (w, b) in enumerate(mt.layers):
        h = dense(h, w, b, "leaky" if i < last else "tanh")
    if p.output_scale is not None:
        h = cmul(h, p.output_scale)
    return h


def adam_step(params: MlpParams, grads: list[Array], lr: float) -> None:
    """One bias-corrected Adam update with learning rate ``lr``, in place
    on ``params``; the decay rates and guard are :data:`ADAM_BETAS` and
    :data:`ADAM_EPS`.

    Gradients are cast to float64 first (a no-op for float64 ones), so
    the moments stay float64 whatever tape computed the gradients.  A
    step leaving a weight or moment non-finite raises FloatingPointError.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    arrays = params.param_arrays()
    if len(grads) != len(arrays):
        raise ValueError("gradient count does not match parameter count")
    for a, g in zip(arrays, grads):
        if a.shape != g.shape:
            raise ValueError("gradient shape does not match parameter shape")
    params.ensure_moments()
    params.step_count += 1
    t = params.step_count
    b1, b2 = ADAM_BETAS
    lr_t = lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    for a, g, m, v in zip(arrays, grads, params.adam_m, params.adam_v):
        g = np.asarray(g, dtype=np.float64)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        a -= lr_t * m / (np.sqrt(v) + ADAM_EPS)
    for a in (*arrays, *params.adam_m, *params.adam_v):
        check_finite(a, "weights or Adam moments after the step")


def collect_mlp_grads(grads: dict[int, Array], mt: MlpTensors) -> list[Array]:
    """Gradients for every parameter tensor, zeros where unused."""
    return [grad_of(grads, t) for t in mt.param_tensors()]


# ---------------------------------------------------------------------------
# serialization: arrays as base64 little-endian float64, bit exact


def array_to_b64(a: Array) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def b64_to_array(d: dict) -> Array:
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return a.reshape(d["shape"])


def params_to_dict(p: MlpParams) -> dict:
    return {
        "sizes": p.sizes,
        "hidden_slope": LEAKY_SLOPE,
        "out_activation": "tanh",
        "weights": [array_to_b64(w) for w in p.weights],
        "biases": [array_to_b64(b) for b in p.biases],
        "input_scale": None if p.input_scale is None else array_to_b64(p.input_scale),
        "output_scale": None if p.output_scale is None else array_to_b64(p.output_scale),
        "adam_m": [array_to_b64(m) for m in p.adam_m],
        "adam_v": [array_to_b64(v) for v in p.adam_v],
        "step_count": p.step_count,
    }


def params_from_dict(d: dict) -> MlpParams:
    """Inverse of :func:`params_to_dict`; another network form raises ``ValueError``."""
    form = (float(d["hidden_slope"]), d["out_activation"])
    if form != (LEAKY_SLOPE, "tanh"):
        got = f"LeakyReLU({form[0]:g}) into {form[1]!r}"
        raise ValueError(f"network is {got}, not LeakyReLU({LEAKY_SLOPE:g}) into 'tanh'")
    return MlpParams(
        weights=[b64_to_array(w) for w in d["weights"]],
        biases=[b64_to_array(b) for b in d["biases"]],
        input_scale=None if d.get("input_scale") is None else b64_to_array(d["input_scale"]),
        output_scale=None if d.get("output_scale") is None else b64_to_array(d["output_scale"]),
        adam_m=[b64_to_array(m) for m in d.get("adam_m", [])],
        adam_v=[b64_to_array(v) for v in d.get("adam_v", [])],
        step_count=int(d.get("step_count", 0)),
    )
