"""Timing hooks installed around shapectl functions from outside the library.

Modules bind the names they import (``from .autodiff import dense`` in
``nn``, ``from .shape_node import rollout_shape`` in ``control_node``), so
a hook replaces the function object under every name, in every loaded
``shapectl`` module, that holds it.  Patching only the defining module
would miss every call made through an imported name.

Three hook sets exist, one per child mode:

* :class:`SetupTimer` sums the time spent in the set-up functions
  (config resolution and input loading), a handful of calls per command;
  it is all an end-to-end run installs.
* :class:`Stopper` ends a command at its first piece of real work, so a
  set-up probe runs exactly the set-up of the real command.
* :class:`Tracer` records a span around every function in :data:`SPANS`
  with its parent span, plus the per-layer counts.
"""

from __future__ import annotations

import itertools
import sys
import time

# every traced function, as <module>.<function> under the shapectl package
SPANS = (
    "cli.main",
    "config.load_run_config",
    "reports.read_dataset_csv",
    "reports.write_dataset_csv",
    "reports.write_tracking_log_csv",
    "shape_node.load_shape_model",
    "control_node.load_control_model",
    "robot.sample_dataset",
    "robot.forward_kinematics",
    "autodiff.backward",
    "autodiff.dense",
    "odeint.integrate",
    "nn.mlp_forward",
    "nn.adam_step",
    "shape_node.rollout_shape",
    "shape_node.shape_loss_tensor",
    "shape_node.tip_jacobian",
    "shape_node.train_shape_node",
    "shape_node._validation_loss",
    "control_node.rollout_policy",
    "control_node.control_loss",
    "control_node.ik_solve",
    "control_node.closed_loop_track",
    "control_node.train_control_node",
)

# interpreter start and import are timed by the parent; these are the
# remaining parts of set-up: resolving the config and loading the inputs
SETUP_SPANS = (
    "config.load_run_config",
    "reports.read_dataset_csv",
    "shape_node.load_shape_model",
    "control_node.load_control_model",
)

# the first call of real work in each CLI command; a probe stops there
FIRST_WORK = {
    "generate": "robot.sample_dataset",
    "train-shape": "shape_node.init_shape_model",
    "train-control": "control_node.init_control_model",
    "evaluate": "control_node.closed_loop_track",
}


def replace_everywhere(qualname: str, make_wrapper) -> None:
    """Swap ``shapectl.<qualname>`` for a wrapper under every bound name.

    A function the library no longer has is skipped: its span then reads
    zero calls instead of breaking every run.
    """
    module, attr = qualname.split(".", 1)
    orig = getattr(sys.modules.get("shapectl." + module), attr, None)
    if orig is None:
        return
    wrapper = make_wrapper(orig)
    for name, mod in list(sys.modules.items()):
        if name == "shapectl" or name.startswith("shapectl."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


class SetupDone(BaseException):
    """Raised at a command's first work call; the CLI catches only
    ``Exception`` subclasses it knows, so this reaches the child."""


class SetupTimer:
    """Sums wall time spent inside :data:`SETUP_SPANS`."""

    def __init__(self):
        self.seconds = 0.0

    def install(self) -> None:
        for qualname in SETUP_SPANS:
            replace_everywhere(qualname, self._wrap)

    def _wrap(self, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        return wrapper


class Stopper:
    """Raises :class:`SetupDone` when ``command`` starts its real work."""

    def __init__(self, command: str):
        self.qualname = FIRST_WORK[command]

    def install(self) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                raise SetupDone()

            return wrapper

        replace_everywhere(self.qualname, make)


class Tracer:
    """Spans with parents and self time, plus the per-layer counts.

    A span's self time is its duration minus the durations of the spans
    it directly encloses.  Counts:

    * ``autodiff.tape_nodes``: tape length at each ``backward``;
    * ``shape_node.rollout_shape.batch``: batch size of each rollout;
    * ``control_node.ik_solve.jacobians``: ``tip_jacobian`` calls per
      IK solve;
    * the adjoint edges of each ``backward`` (from ``tape.parents``) and
      the leaves whose gradient the caller then reads via ``grad_of``
      (``collect_mlp_grads`` reads through it), from which
      :meth:`useful_contributions` derives the useful-work ratio.
    """

    def __init__(self):
        self.names = list(SPANS)
        self.spans: list[tuple] = []  # (id, parent id, name index, t0, t1, self)
        self.tape_nodes: list[int] = []
        self.rollout_batch: list[int] = []
        self.ik_jacobians: list[int] = []
        self.backward_graphs: list[tuple] = []  # (parents, loss nid, read nids)
        self._stack: list[list] = []  # [span id, seconds in child spans]
        self._ids = itertools.count()
        self._jacobian_calls = 0
        self._grads_id = None
        self._reads: set[int] = set()

    def install(self) -> None:
        hooks = {
            "autodiff.backward": (self._before_backward, self._after_backward),
            "shape_node.rollout_shape": (self._before_rollout, None),
            "shape_node.tip_jacobian": (self._count_jacobian, None),
            "control_node.ik_solve": (self._before_ik, self._after_ik),
        }
        for idx, qualname in enumerate(self.names):
            before, after = hooks.get(qualname, (None, None))
            replace_everywhere(
                qualname,
                lambda fn, idx=idx, b=before, a=after: self._wrap(idx, fn, b, a),
            )
        replace_everywhere("autodiff.grad_of", self._wrap_grad_read)

    def _wrap(self, idx, fn, before, after):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, idx, t0, t1, dur - frame[1]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_grad_read(self, fn):
        def wrapper(grads, t):
            if id(grads) == self._grads_id:
                self._reads.add(t.nid)
            return fn(grads, t)

        return wrapper

    # -- counters ------------------------------------------------------

    def _before_backward(self, args, kwargs):
        loss = args[0] if args else kwargs["loss"]
        self.tape_nodes.append(len(loss.tape))

    def _after_backward(self, args, kwargs, grads):
        loss = args[0] if args else kwargs["loss"]
        # reads of this gradient map arrive after backward returns, so the
        # set stays live until the next backward replaces it
        self._reads = set()
        self._grads_id = id(grads)
        self.backward_graphs.append(
            (loss.tape.parents[: loss.nid + 1], loss.nid, self._reads)
        )

    def _before_rollout(self, args, kwargs):
        q = args[3] if len(args) > 3 else kwargs["q_batch"]
        self.rollout_batch.append(int(getattr(q, "value", q).shape[0]))

    def _count_jacobian(self, args, kwargs):
        self._jacobian_calls += 1

    def _before_ik(self, args, kwargs):
        self._jacobian_calls = 0

    def _after_ik(self, args, kwargs, result):
        self.ik_jacobians.append(self._jacobian_calls)

    # -- results -------------------------------------------------------

    def useful_contributions(self) -> tuple[int, int]:
        """(useful, total) adjoint contributions over every ``backward``.

        A contribution is the adjoint a reached node sends to one parent.
        It is useful when that parent is a leaf the caller read, or lies
        on a path down to one.
        """
        useful_total = 0
        total = 0
        for parents, loss_nid, reads in self.backward_graphs:
            n = loss_nid + 1
            useful = bytearray(n)
            for i in range(n):
                if i in reads:
                    useful[i] = 1
                    continue
                for p in parents[i]:
                    if useful[p]:
                        useful[i] = 1
                        break
            reached = bytearray(n)
            reached[loss_nid] = 1
            for i in range(loss_nid, -1, -1):
                if reached[i]:
                    for p in parents[i]:
                        reached[p] = 1
                        total += 1
                        useful_total += useful[p]
        return useful_total, total

    def summary(self) -> dict:
        """Per-span self and total times, plus the counts."""
        per_name = {name: {"self_s": [], "dur_s": 0.0} for name in self.names}
        for _, _, idx, t0, t1, self_s in self.spans:
            entry = per_name[self.names[idx]]
            entry["self_s"].append(self_s)
            entry["dur_s"] += t1 - t0
        useful, total = self.useful_contributions()
        return {
            "spans": per_name,
            "tape_nodes": self.tape_nodes,
            "rollout_batch": self.rollout_batch,
            "ik_jacobians": self.ik_jacobians,
            "adjoint_useful": useful,
            "adjoint_total": total,
        }

    def raw_spans(self) -> dict:
        """Every span as columns: id, parent id, name, start, end."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        return {
            "names": self.names,
            "id": cols[0],
            "parent": cols[1],
            "name": cols[2],
            "start_s": cols[3],
            "end_s": cols[4],
        }
