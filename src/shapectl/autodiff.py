"""Tape-based reverse-mode automatic differentiation over numpy arrays.

A :class:`Tape` records every primitive applied to :class:`Tensor` values.
Calling :func:`backward` on a scalar loss walks the recording in reverse and
returns the gradients of the loss and of the leaves reachable from it.
The sweep is one-shot: it releases each closure it calls, and with it
the forward values the closure held, so a tape is swept once.  Values
are plain ``numpy.ndarray`` in the tape's one compute dtype (float64
unless the tape is built with another, such as float32 for training);
there is no broadcasting magic beyond what the individual primitives
declare.

Leaves are cast to the compute dtype where they enter the tape, and
constant operands (``add_const``, ``cmul``, ``select_rows``) where they
meet a tensor, so every forward value and every adjoint of a tape keeps
its dtype; a leaf array already in that dtype enters without a copy.
Tape arithmetic keeps the tensor's shape: ``add`` and ``sub`` take
tensors of one shape, and ``add_const`` and ``cmul`` a constant that
broadcasts into the tensor unchanged, so no adjoint is ever reduced.

Leaves are trainable (:meth:`Tape.tensor`) or constant
(:meth:`Tape.constant`).  A recorded node is active, that is, needs an
adjoint, only if at least one of its parents is active (activity
analysis).  An inactive node is stored as one more constant: the tape
keeps no backward closure for it, and so none of the forward values the
closure would have held.  A forward pass on constants alone is therefore
a no-record call into the same primitives, and ``backward`` sends no
contribution to a constant.  Primitives whose backward is costly (the
fused ``dense``) also skip the products an inactive parent would get.

One network evaluation is one ``dense`` node: input scale, LeakyReLU
layers, tanh layer and output scale.  It decides activity once per
network, from whether its input is active and whether any of its
weights is, and keeps what those two flags need until the sweep (see
:func:`dense`): packed sign masks and the tanh derivative, the layer
inputs for trainable weights, the first weight for a taped input.  A
frozen network on a taped input thus keeps no activations.  Likewise
one solver update or RK4 stage input is one node (``add_scaled``,
``rk4_update``) that keeps no forward value.

The engine favors a small, explicit primitive set over operator coverage:
tensors define no arithmetic operators, and every operation is a named
function (``add``, ``scale``, ``dense``, ``reduce_sum``, ...).  Backward
closures return one array (or None) per parent; the accumulator treats
first contributions as borrowed and copies on the second write, so
closures may hand back the upstream adjoint itself without defensive
copies.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

# Stands in a tape's closure slot once a backward sweep has called it.
_RELEASED = object()

# negative-side slope of the LeakyReLU hidden layers of every network
LEAKY_SLOPE = 0.01


class Tensor:
    """A node in the tape: an array in the tape's dtype plus its slot."""

    __slots__ = ("value", "tape", "nid")

    def __init__(self, value: Array, tape: "Tape", nid: int):
        self.value = value
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(nid={self.nid}, shape={self.value.shape})"


class Tape:
    """Linear recording of primitives.

    ``parents[i]`` holds the node ids feeding node ``i``, ``backfns[i]``
    the closure mapping the adjoint of node ``i`` to one contribution per
    parent until a sweep releases it, and ``active[i]`` whether node ``i``
    needs an adjoint.  Leaves and inactive nodes have no parents and no
    closure.  Node ids are assigned in creation order, so every parent id
    is smaller than its child id and a reverse sweep over ids is a valid
    reverse topological order.  ``dtype`` is the compute dtype of every
    value on the tape.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.parents: list[tuple[int, ...]] = []
        self.backfns: list = []
        self.active: list[bool] = []

    def tensor(self, value) -> Tensor:
        """Record a trainable leaf holding ``value`` in the tape's dtype."""
        return self._leaf(np.asarray(value, dtype=self.dtype), True)

    def constant(self, value) -> Tensor:
        """Record a constant leaf holding ``value`` in the tape's dtype."""
        return self._leaf(np.asarray(value, dtype=self.dtype), False)

    def _leaf(self, value: Array, active: bool) -> Tensor:
        nid = len(self.parents)
        self.parents.append(())
        self.backfns.append(None)
        self.active.append(active)
        return Tensor(value, self, nid)

    def _record(self, value: Array, parents: tuple[int, ...], backfn) -> Tensor:
        """Record a primitive's output; with no active parent it is a
        constant, and ``backfn`` is dropped along with what it holds."""
        active = self.active
        if not any(active[p] for p in parents):
            return self._leaf(value, False)
        nid = len(self.parents)
        self.parents.append(parents)
        self.backfns.append(backfn)
        active.append(True)
        return Tensor(value, self, nid)

    def __len__(self):
        return len(self.parents)


def backward(loss: Tensor) -> dict[int, Array]:
    """Reverse sweep from ``loss``; returns adjoints keyed by node id.

    ``loss`` must hold exactly one element.  The map holds ``loss`` and
    the active leaves reachable from it; arrays in it may be shared
    between entries, so callers must treat them as read-only.  The sweep
    releases every closure it calls and drops each interior adjoint once
    its closure has used it, so a node's forward residuals are freed as
    the sweep passes.  A later sweep that reaches a released node raises
    ``ValueError``: build a new tape to differentiate again.
    """
    if loss.value.size != 1:
        raise ValueError("backward needs a scalar loss")
    tape = loss.tape
    parents = tape.parents
    backfns = tape.backfns
    active = tape.active
    adj: dict[int, Array] = {}
    owned: dict[int, bool] = {}
    adj[loss.nid] = np.ones_like(loss.value)
    owned[loss.nid] = True
    for nid in range(loss.nid, -1, -1):
        grad = adj.get(nid)
        if grad is None:
            continue
        backfn = backfns[nid]
        if backfn is None:
            continue
        if backfn is _RELEASED:
            raise ValueError(f"node {nid} was released by an earlier backward sweep")
        backfns[nid] = _RELEASED
        contribs = backfn(grad)
        if nid != loss.nid:
            del adj[nid], owned[nid]
        for pid, contrib in zip(parents[nid], contribs):
            if contrib is None or not active[pid]:
                continue
            have = adj.get(pid)
            if have is None:
                adj[pid] = contrib
                owned[pid] = False
            else:
                if not owned[pid]:
                    have = have.copy()
                    adj[pid] = have
                    owned[pid] = True
                np.add(have, contrib, out=have)
    return adj


def grad_of(grads: dict[int, Array], t: Tensor) -> Array:
    """Gradient for the leaf ``t`` from a :func:`backward` result, zeros
    if unused."""
    g = grads.get(t.nid)
    if g is None:
        return np.zeros_like(t.value)
    return g


def _check_shape(op: str, a: Tensor, other) -> None:
    """Raise a one-line ``ValueError`` unless ``op`` keeps ``a``'s shape:
    a tensor ``other`` must have it, and a constant must broadcast into
    it unchanged, so the adjoints need no reducing."""
    shape = a.value.shape
    try:
        fits = other.shape == shape or (
            not isinstance(other, Tensor) and np.broadcast_shapes(shape, other.shape) == shape
        )
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"{op} keeps shape {shape}; an operand of {other.shape} does not fit")


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_shape("add", a, b)

    def bk(grad):
        return grad, grad

    return a.tape._record(a.value + b.value, (a.nid, b.nid), bk)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_shape("sub", a, b)

    def bk(grad):
        return grad, -grad

    return a.tape._record(a.value - b.value, (a.nid, b.nid), bk)


def neg(a: Tensor) -> Tensor:
    def bk(grad):
        return (-grad,)

    return a.tape._record(-a.value, (a.nid,), bk)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)

    def bk(grad):
        return (grad * c,)

    return a.tape._record(a.value * c, (a.nid,), bk)


def add_const(a: Tensor, c) -> Tensor:
    """Add a constant array or scalar; gradient passes through."""
    c = np.asarray(c, dtype=a.value.dtype)
    _check_shape("add_const", a, c)

    def bk(grad):
        return (grad,)

    return a.tape._record(a.value + c, (a.nid,), bk)


def cmul(a: Tensor, c) -> Tensor:
    """Elementwise multiply by a constant array (no gradient into ``c``)."""
    c = np.asarray(c, dtype=a.value.dtype)
    _check_shape("cmul", a, c)

    def bk(grad):
        return (grad * c,)

    return a.tape._record(a.value * c, (a.nid,), bk)


# ---------------------------------------------------------------------------
# fused solver updates: one node where the ``add``/``scale`` chain took
# several.  Each computes the chain's operations in the chain's order
# and gives each parent the chain's adjoint array, listing the parents in
# the order the chain's sweep reached them, so values and adjoints are
# bit for bit the chain's, a repeated parent included.  Operands share
# one shape, and the backward keeps no forward value.


def add_scaled(x: Tensor, ks: list[Tensor], cs: list[float]) -> Tensor:
    """``x + (k_1 c_1 + ... + k_n c_n)``, the sum taken left to right
    before ``x`` is added: an Euler update, an RK4 stage input and an
    Adams-Bashforth update.  The chain is ``add(x, add(...add(scale(k_1,
    c_1), scale(k_2, c_2))..., scale(k_n, c_n)))``."""
    cs = [float(c) for c in cs]
    out = ks[0].value * cs[0]
    for k, c in zip(ks[1:], cs[1:]):
        out += k.value * c
    out += x.value

    def bk(grad):
        return (grad, *(grad * c for c in reversed(cs)))

    return x.tape._record(out, (x.nid, *(k.nid for k in reversed(ks))), bk)


def rk4_update(x: Tensor, k1: Tensor, k2: Tensor, k3: Tensor, k4: Tensor, h: float) -> Tensor:
    """The classic RK4 update ``x + ((k1 + k4) + (k2 + k3) 2) h/6``, the
    chain ``add(x, scale(add(add(k1, k4), scale(add(k2, k3), 2)), h/6))``."""
    c = float(h / 6.0)
    out = k1.value + k4.value
    mid = k2.value + k3.value
    mid *= 2.0
    out += mid
    out *= c
    out += x.value

    def bk(grad):
        outer = grad * c
        inner = outer * 2.0
        return grad, inner, inner, outer, outer

    return x.tape._record(out, (x.nid, k2.nid, k3.nid, k1.nid, k4.nid), bk)


# per dtype: row k holds the LeakyReLU derivatives of the eight units
# whose sign bits, in np.packbits order, make up the byte k
_LEAKY_TABLES: dict[np.dtype, Array] = {}


def _leaky_factor(mask: Array, like: Array) -> Array:
    """LeakyReLU derivative from the packed sign mask of ``z > 0``: 1
    where the bit is set, else :data:`LEAKY_SLOPE`, in the shape and
    dtype of ``like``.

    Bit for bit ``np.where(z > 0, 1, LEAKY_SLOPE)``, built without a
    per-element branch (which costs more than the matmul in front of
    it): each packed byte looks up its eight factors in a 256-row table,
    so the bits are never unpacked.
    """
    table = _LEAKY_TABLES.get(like.dtype)
    if table is None:
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
        table = np.where(bits == 1, 1.0, LEAKY_SLOPE).astype(like.dtype)
        _LEAKY_TABLES[like.dtype] = table
    return np.take(table, mask, axis=0).reshape(-1)[: like.size].reshape(like.shape)


def _leaky_layer(h: Array, w: Array, b: Array) -> Array:
    """``leaky(h @ w + b)``; the forward pass and the recompute of the
    first hidden layer both call it, so they agree bit for bit."""
    z = h @ w
    z += b
    # z * where(z > 0, 1, slope), bit for bit, because 0 < slope < 1
    return np.maximum(z, z * LEAKY_SLOPE, out=z)


def dense(
    x: Tensor,
    layers: list[tuple[Tensor, Tensor]],
    input_scale: Array,
    output_scale: Array,
) -> Tensor:
    """One network evaluation as a single tape node.

    ``layers`` holds one (weight, bias) pair per layer.  The node
    computes ``x * input_scale``, then LeakyReLU (slope
    :data:`LEAKY_SLOPE`) layers ``max(z, slope z)`` with ``z = h @ w +
    b``, then ``tanh`` on the last layer, then ``* output_scale``.  The
    scales are constants.  Values and adjoints are bit for bit those of
    the chain of one node per scale and per layer.

    Activity is decided once per network, by two flags: whether ``x``
    is active, and whether any weight or bias is.  A network's leaves
    are either all trainable or all constant, so these cover every
    network a model builds.  Until the sweep, a recorded node keeps the
    packed sign mask of ``z > 0`` (one bit per unit) of each LeakyReLU
    layer and the float derivative ``1 - out**2`` of the tanh layer;
    with active weights, every layer's input but the first hidden
    output, which the backward recomputes from the kept scaled input at
    the cost of a matmul only as wide as the network input; and the
    first weight only for an active ``x``, since only the adjoint below
    layer 0 needs it.  Active weights give every weight and bias a
    product; ``backward`` drops those of a constant leaf, so a network
    that mixes trainable and constant leaves still gets exact adjoints.
    A node with no active parent keeps nothing.
    """
    active = x.tape.active
    dtype = x.value.dtype
    n = len(layers)
    x_on = active[x.nid]
    w_on = any(active[t.nid] for pair in layers for t in pair)
    iscale = np.asarray(input_scale, dtype=dtype)
    oscale = np.asarray(output_scale, dtype=dtype)
    h = x.value * iscale
    # the second layer's input is recomputed from the scaled input
    recompute = n > 1 and w_on
    xs, w1, b1 = (h, layers[0][0].value, layers[0][1].value) if recompute else (None,) * 3
    kept = [None] * n  # the other layers' inputs, for active weights
    # the first weight carries only the adjoint below layer 0
    weights = [w.value if x_on or i else None for i, (w, _) in enumerate(layers)]
    masks = [None] * (n - 1)
    for i, (w, b) in enumerate(layers):
        if w_on and i != 1:
            kept[i] = h
        if i == n - 1:
            break
        h = _leaky_layer(h, w.value, b.value)
        if x_on or w_on:
            masks[i] = np.packbits(h > 0.0)
    z = h @ w.value
    z += b.value
    out = np.tanh(z, out=z)
    factor = 1.0 - out * out if x_on or w_on else None
    out *= oscale

    def bk(grad):
        contribs = [None] * (1 + 2 * n)
        # below the borrowed upstream adjoint every array is the node's
        # own, so the activation derivatives multiply in place
        dz = grad * oscale
        dz *= factor
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                dz *= _leaky_factor(masks[i], dz)
            if w_on:
                hin = _leaky_layer(xs, w1, b1) if i == 1 else kept[i]
                contribs[1 + 2 * i] = hin.T @ dz
                contribs[2 + 2 * i] = dz.sum(axis=0)
            if i == 0 and not x_on:
                break
            dz = dz @ weights[i].T
        else:
            dz *= iscale
            contribs[0] = dz
        return contribs

    parents = (x.nid, *(t.nid for pair in layers for t in pair))
    return x.tape._record(out, parents, bk)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)

    def bk(grad):
        return (grad * (1.0 - out * out),)

    return a.tape._record(out, (a.nid,), bk)


def sigmoid(a: Tensor) -> Tensor:
    av = a.value
    out = np.empty_like(av)
    pos = av >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ez = np.exp(av[~pos])
    out[~pos] = ez / (1.0 + ez)

    def bk(grad):
        return (grad * out * (1.0 - out),)

    return a.tape._record(out, (a.nid,), bk)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; callers must keep inputs bounded away
    from zero (the derivative blows up at 0)."""
    out = np.sqrt(a.value)

    def bk(grad):
        return (grad * (0.5 / out),)

    return a.tape._record(out, (a.nid,), bk)


def square(a: Tensor) -> Tensor:
    av = a.value

    def bk(grad):
        return (grad * (2.0 * av),)

    return a.tape._record(av * av, (a.nid,), bk)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over everything when ``axis`` is None."""
    shape = a.value.shape
    out = a.value.sum(axis=axis)

    def bk(grad):
        if axis is None:
            return (np.full(shape, grad),)
        g = np.expand_dims(grad, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return a.tape._record(out, (a.nid,), bk)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return scale(reduce_sum(a, axis=axis), 1.0 / n)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``; backward splits the adjoint."""
    vals = [t.value for t in tensors]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def bk(grad):
        pieces = np.split(grad, splits, axis=axis)
        return tuple(p.copy() for p in pieces)

    tape = tensors[0].tape
    return tape._record(out, tuple(t.nid for t in tensors), bk)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in ``shape``; backward reshapes the adjoint back."""
    ash = a.value.shape

    def bk(grad):
        return (grad.reshape(ash),)

    return a.tape._record(a.value.reshape(shape), (a.nid,), bk)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Take entries ``start:stop`` of the last axis of a tensor of any rank."""
    av = a.value
    shape, dtype = av.shape, av.dtype
    out = av[..., start:stop].copy()

    def bk(grad):
        full = np.zeros(shape, dtype=dtype)
        full[..., start:stop] = grad
        return (full,)

    return a.tape._record(out, (a.nid,), bk)


def blend(a: Tensor, j0, j1, w) -> Tensor:
    """Two-point stencil along axis 1 of a (batch, P, d) tensor:
    ``a[:, j0] * (1 - w) + a[:, j1] * w`` for index lists ``j0``, ``j1``
    and constant weights ``w`` of one length K, giving (batch, K, d).
    The backward scatters each row's adjoint back with ``np.add.at``.
    """
    av = a.value
    shape = av.shape
    w = np.asarray(w, dtype=np.float64)[:, None]
    c0 = np.asarray(1.0 - w, dtype=av.dtype)
    c1 = np.asarray(w, dtype=av.dtype)
    # take, not fancy indexing, keeps the result C-ordered, so a later
    # full reduction sums it in the same order as any other (batch, K, d)
    out = np.take(av, j0, axis=1) * c0
    out += np.take(av, j1, axis=1) * c1

    def bk(grad):
        full = np.zeros(shape, dtype=grad.dtype)
        np.add.at(full, (slice(None), j0), grad * c0)
        np.add.at(full, (slice(None), j1), grad * c1)
        return (full,)

    return a.tape._record(out, (a.nid,), bk)


def select_rows(a: Tensor, mask) -> Tensor:
    """Zero out rows where ``mask`` is False; identity elsewhere.

    Used to freeze finished samples in masked batch integration: frozen
    rows carry no gradient, so upstream updates cannot leak through them.
    """
    m = np.asarray(mask, dtype=bool)
    keep = m.astype(a.value.dtype)[:, None]
    out = a.value * keep

    def bk(grad):
        return (grad * keep,)

    return a.tape._record(out, (a.nid,), bk)


def check_finite(value: Array, context: str) -> None:
    """Raise ``FloatingPointError`` when ``value`` has a NaN or infinity."""
    if not np.isfinite(value).all():
        raise FloatingPointError(f"non-finite values in {context}")
