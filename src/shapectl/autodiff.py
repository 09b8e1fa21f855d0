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
its dtype.

Leaves are trainable (:meth:`Tape.tensor`) or constant
(:meth:`Tape.constant`).  A recorded node is active, that is, needs an
adjoint, only if at least one of its parents is active (activity
analysis).  An inactive node is stored as one more constant: the tape
keeps no backward closure for it, and so none of the forward values the
closure would have held.  A forward pass on constants alone is therefore
a no-record call into the same primitives, and ``backward`` sends no
contribution to a constant.  Primitives whose backward is costly (the
fused ``dense``) also skip the products an inactive parent would get.

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


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
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


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.value + b.value
    ash, bsh = a.value.shape, b.value.shape

    def bk(grad):
        return _unbroadcast(grad, ash), _unbroadcast(grad, bsh)

    return a.tape._record(out, (a.nid, b.nid), bk)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.value - b.value
    ash, bsh = a.value.shape, b.value.shape

    def bk(grad):
        return _unbroadcast(grad, ash), _unbroadcast(-grad, bsh)

    return a.tape._record(out, (a.nid, b.nid), bk)


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
    ash = a.value.shape

    def bk(grad):
        return (_unbroadcast(grad, ash),)

    return a.tape._record(a.value + c, (a.nid,), bk)


def cmul(a: Tensor, c) -> Tensor:
    """Elementwise multiply by a constant array (no gradient into ``c``)."""
    c = np.asarray(c, dtype=a.value.dtype)
    ash = a.value.shape

    def bk(grad):
        return (_unbroadcast(grad * c, ash),)

    return a.tape._record(a.value * c, (a.nid,), bk)


def _leaky_factor(z: Array, slope: float) -> Array:
    """LeakyReLU derivative of ``z``: 1 where ``z > 0``, else ``slope``.

    Bit for bit ``np.where(z > 0.0, 1, slope)`` in ``z``'s dtype, built
    without a per-element branch (which costs more than the matmul in
    front of it): the mask, as unsigned integers, picks the bit pattern
    of 1 or ``slope``.  Modular arithmetic keeps that exact for any
    slope, above 1 too.
    """
    uint = np.dtype(f"u{z.itemsize}")
    one, low = np.array([1.0, slope], dtype=z.dtype).view(uint).tolist()
    factor = (z > 0.0).astype(uint)
    factor *= uint.type((one - low) % (1 << (8 * z.itemsize)))
    factor += uint.type(low)
    return factor.view(z.dtype)


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """Fused ``activation(x @ w + b)`` as a single tape node, with
    ``activation`` ``"leaky"`` (slope :data:`LEAKY_SLOPE`) or ``"tanh"``.

    Values are identical to the x @ w + b plus activation chain; fusing
    caches the activation derivative at forward time and cuts the
    per-layer node count, which dominates training cost.  The backward
    closure keeps ``x`` only for an active ``w`` and ``w`` only for an
    active ``x``, and computes no product for an inactive parent.
    """
    z = x.value @ w.value
    z += b.value
    if activation == "leaky":
        factor = _leaky_factor(z, LEAKY_SLOPE)
        out = np.multiply(z, factor, out=z)
    elif activation == "tanh":
        out = np.tanh(z, out=z)
        factor = 1.0 - out * out
    else:
        raise ValueError(f"unknown activation {activation!r}")
    active = x.tape.active
    x_on, w_on, b_on = active[x.nid], active[w.nid], active[b.nid]
    xv = x.value if w_on else None
    wv = w.value if x_on else None

    def bk(grad):
        dz = grad * factor
        return (
            dz @ wv.T if x_on else None,
            xv.T @ dz if w_on else None,
            dz.sum(axis=0) if b_on else None,
        )

    return x.tape._record(out, (x.nid, w.nid, b.nid), bk)


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
    av = a.value
    out = av.sum(axis=axis)

    def bk(grad):
        if axis is None:
            return (np.full(av.shape, grad),)
        g = np.expand_dims(grad, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

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


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Take columns ``start:stop`` of a 2-d tensor."""
    av = a.value
    out = av[:, start:stop].copy()

    def bk(grad):
        full = np.zeros_like(av)
        full[:, start:stop] = grad
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
