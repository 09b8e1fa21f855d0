"""Fixed-step ODE integration on the autodiff tape.

Three solvers share one driver: forward Euler, classic RK4, and a 4-step
Adams-Bashforth scheme ("fixed-adams") that starts with three RK4 steps and
reuses each step's first stage evaluation as the stored derivative history.
All solvers take the same outer steps; only evaluations per step differ
(1, 4, and 4-then-1).

States are taped :class:`~shapectl.autodiff.Tensor` values so trajectories
stay differentiable end to end.  Besides the field's own nodes, a step
records one tape node per RK4 stage input and one per update
(:func:`~shapectl.autodiff.add_scaled`,
:func:`~shapectl.autodiff.rk4_update`), bit for bit the ``add``/``scale``
chain they replace: an RK4 step four nodes, an Euler or Adams-Bashforth
step one.  Batched integration with per-sample end times freezes
finished rows at their last valid state; frozen rows receive no gradient
from later steps.  Plain and masked integration share one step loop.

Fields have the signature ``f(t, x, u)``; ``u`` is always None and is kept
so fields written against that signature need no change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Array, Tensor, add, add_scaled, rk4_update, select_rows

SOLVER_KINDS: tuple[str, ...] = ("euler", "rk4", "fixed-adams")

# dx/dt = f(t, x, u); u is always None
DynamicsFn = Callable[[float, Tensor, object], Tensor]

# coefficients of the 4-step Adams-Bashforth predictor, newest first
_AB4 = (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0)


@dataclass(frozen=True)
class IntegrationGrid:
    """Uniform grid with ``n_steps`` intervals over [t_start, t_end].

    ``per_sample_end`` switches batched integration into masked mode:
    sample ``i`` integrates only to its own end value (snapped to the
    nearest grid node) and then freezes.  When present, every entry must
    lie in [t_start, t_end] and the largest must equal ``t_end``.
    """

    t_start: float
    t_end: float
    n_steps: int
    per_sample_end: Array | None = None

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.per_sample_end is not None:
            ends = np.asarray(self.per_sample_end, dtype=np.float64)
            if ends.ndim != 1 or ends.size == 0:
                raise ValueError("per_sample_end must be a non-empty 1-d array")
            if ends.min() < self.t_start or ends.max() > self.t_end:
                raise ValueError("per_sample_end entries must lie in [t_start, t_end]")
            if ends.max() != self.t_end:
                raise ValueError("max(per_sample_end) must equal t_end")
            object.__setattr__(self, "per_sample_end", ends)

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps


def check_solver(kind: str, n_steps: int) -> None:
    """Raise ``ValueError`` unless ``kind`` can integrate ``n_steps`` steps."""
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}")
    if kind == "fixed-adams" and n_steps < 4:
        raise ValueError("fixed-adams needs at least 4 steps")


def _check_step(x: Tensor, step: int) -> None:
    if not np.isfinite(x.value).all():
        raise FloatingPointError(f"non-finite state at integration step {step}")


def _rk4_step(f, t, h, x):
    k1 = f(t, x, None)
    k2 = f(t + 0.5 * h, add_scaled(x, [k1], [0.5 * h]), None)
    k3 = f(t + 0.5 * h, add_scaled(x, [k2], [0.5 * h]), None)
    k4 = f(t + h, add_scaled(x, [k3], [h]), None)
    return rk4_update(x, k1, k2, k3, k4, h), k1


def _advance(f, kind, n, t, h, x, hist):
    """One outer step of the named scheme; appends to the Adams history."""
    if kind == "euler":
        return add_scaled(x, [f(t, x, None)], [h])
    if kind == "rk4":
        return _rk4_step(f, t, h, x)[0]
    if n < 3:
        x_new, k1 = _rk4_step(f, t, h, x)
        hist.append(k1)
        return x_new
    hist.append(f(t, x, None))
    # the last four derivatives, newest first, as _AB4 weighs them
    return add_scaled(x, hist[:-5:-1], [c * h for c in _AB4])


def _solve(f, x0, grid, kind, counts) -> list[Tensor]:
    """The one step loop; with ``counts``, row ``i`` freezes after
    ``counts[i]`` steps."""
    h = grid.dt
    x = x0
    traj = [x0]
    hist: list[Tensor] = []
    for n in range(grid.n_steps):
        x_new = _advance(f, kind, n, grid.t_start + n * h, h, x, hist)
        _check_step(x_new, n)
        if counts is None or n < counts.min():
            x = x_new
        else:
            active = n < counts
            x = add(select_rows(x_new, active), select_rows(x, ~active))
        traj.append(x)
    return traj


def integrate(
    f: DynamicsFn,
    x0: Tensor,
    grid: IntegrationGrid,
    kind: str = "rk4",
) -> list[Tensor]:
    """Integrate ``f`` from ``x0`` over ``grid``; returns n_steps+1 states."""
    check_solver(kind, grid.n_steps)
    return _solve(f, x0, grid, kind, None)


def masked_step_counts(grid: IntegrationGrid) -> np.ndarray:
    """Number of active steps per sample for the grid's end times.

    Each end time is snapped to the nearest grid node, so a sample's
    integrated span differs from its requested span by at most half a
    step.
    """
    ends = grid.per_sample_end
    if ends is None:
        raise ValueError("grid has no per_sample_end")
    frac = (ends - grid.t_start) / (grid.t_end - grid.t_start)
    counts = np.rint(frac * grid.n_steps).astype(np.int64)
    return np.clip(counts, 0, grid.n_steps)


def integrate_batch_masked(
    f: DynamicsFn,
    x0: Tensor,
    grid: IntegrationGrid,
    kind: str = "rk4",
) -> list[Tensor]:
    """Batched integration where sample ``i`` stops after its own span.

    ``x0`` has shape (batch, dim) and ``grid.per_sample_end`` shape
    (batch,).  All samples share the grid; once sample ``i`` has taken
    its :func:`masked_step_counts` steps its row is frozen at the last
    valid state for the remaining output slots, and no gradient flows
    through the frozen updates.  The final trajectory entry therefore
    holds every sample's own endpoint state.
    """
    check_solver(kind, grid.n_steps)
    if grid.per_sample_end is None:
        raise ValueError("masked integration needs grid.per_sample_end")
    if grid.per_sample_end.size != x0.value.shape[0]:
        raise ValueError("per_sample_end length must match the batch size")
    return _solve(f, x0, grid, kind, masked_step_counts(grid))
