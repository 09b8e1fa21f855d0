"""Ground-truth continuum robot model and task geometry.

The robot is a chain of constant-curvature segments.  Actions are two
commands per segment (q_x, q_y), mapped to a body-frame curvature vector
u = [u_x, u_y, 0] whose norm never exceeds ``u_max``.  The backbone
follows the moving-frame system

    R'(s) = R(s) [u]x          p'(s) = R(s) e3

with the curvature held constant within each segment and each segment's
end pose seeding the next.  For constant u the system has an exact
solution (constant-curvature arcs; Webster & Jones, IJRR 2010).  With
k = |u|, theta = k s and

    a = sin(theta) / k = s sinc(theta / pi)
    b = (1 - cos(theta)) / k^2 = (s^2 / 2) sinc(theta / 2 pi)^2,

both finite at k = 0, a segment carries its base frame to the local
point [b u_y, -b u_x, a] and turns it by R = I + a [u]x + b [u]x^2.
The simulator composes those arcs segment by segment for a whole batch
of actions at once.  It is what the learned models are trained against
and evaluated on, and it shares no code with the taped solvers in
:mod:`shapectl.odeint`.  A dataset is two arrays and nothing else:
actions ``q`` of shape (n, action_dim) and backbone ``points`` of shape
(n, n_segments * points_per_segment, 3), base excluded.

The action-to-curvature map has a deliberate mismatch term so that the
commanded map (``mismatch=False``) and the simulated robot
(``mismatch=True``; ``mismatch_amplitude=0`` simulates the commanded
arc) disagree; learning that residual is the point of the shape model.
A payload droops the backbone quadratically in arc length, and
obstacles are spheres measured against every backbone point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Array
from .nn import json_float, json_int

TRAJECTORY_KINDS: tuple[str, ...] = ("circle", "square", "s_shape", "ellipse", "helix")

# the square's corners (x, y), in the order the reference visits them
_SQUARE_CORNERS = np.array([[0.03, 0.03], [-0.03, 0.03], [-0.03, -0.03], [0.03, -0.03]])

# every other path is x = ax cos(phase), y = ay sin(fy phase): (ax, ay, fy)
_SMOOTH_PATHS = {
    "circle": (0.05, 0.05, 1.0),
    "s_shape": (0.03, 0.05, 2.0),
    "ellipse": (0.05, 0.03, 1.0),
    "helix": (0.05, 0.05, 1.0),
}

# payload droop per gram at the tip, in meters
PAYLOAD_COEFF = 0.001

PAYLOAD_MAX_GRAMS = 20.0

# simulator output grid: points per segment of every simulated backbone
SIM_POINTS_PER_SEGMENT = 10


@dataclass(frozen=True)
class RobotConfig:
    """Geometry and actuation limit for one robot.  Every action channel
    lies in the read-only box [q_min, q_max] = [-u_max, u_max], which
    follows from ``u_max`` and is not written."""

    n_segments: int = 3
    segment_lengths: tuple[float, ...] = ()  # empty: 0.1 m per segment
    u_max: float = 15.0
    mismatch_amplitude: float = 0.1

    def __post_init__(self):
        if not 1 <= self.n_segments <= 4:
            raise ValueError("n_segments must be between 1 and 4")
        lengths = tuple(float(x) for x in self.segment_lengths)
        lengths = lengths or (0.1,) * self.n_segments
        if len(lengths) != self.n_segments:
            raise ValueError("segment_lengths must have n_segments entries")
        if not all(0 < x < np.inf for x in lengths):
            raise ValueError("segment lengths must be finite and positive")
        object.__setattr__(self, "segment_lengths", lengths)
        for name in ("u_max", "mismatch_amplitude"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 < self.u_max < np.inf:
            raise ValueError("u_max must be finite and positive")
        if not 0 <= self.mismatch_amplitude < np.inf:
            raise ValueError("mismatch_amplitude must be finite and non-negative")

    @property
    def q_min(self) -> float:
        return -self.u_max

    @property
    def q_max(self) -> float:
        return self.u_max

    @property
    def total_length(self) -> float:
        return float(sum(self.segment_lengths))

    @property
    def action_dim(self) -> int:
        return 2 * self.n_segments

    def to_dict(self) -> dict:
        return {
            "n_segments": self.n_segments,
            "segment_lengths": list(self.segment_lengths),
            "u_max": self.u_max,
            "mismatch_amplitude": self.mismatch_amplitude,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RobotConfig":
        """Inverse of :meth:`to_dict`; a file states every segment length,
        and every length and limit is a JSON number."""
        n_segments = json_int(d["n_segments"], "n_segments")
        if len(d["segment_lengths"]) != n_segments:
            raise ValueError("segment_lengths must have n_segments entries")
        return cls(
            n_segments=n_segments,
            segment_lengths=tuple(json_float(x, "segment length") for x in d["segment_lengths"]),
            u_max=json_float(d["u_max"], "u_max"),
            mismatch_amplitude=json_float(d["mismatch_amplitude"], "mismatch_amplitude"),
        )


@dataclass(frozen=True)
class ObstacleSpec:
    """Spherical keep-out region: violation when any backbone point has
    squared distance to ``center`` below ``threshold_sq``."""

    center: Array
    threshold_sq: float = 1e-4

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.shape != (3,):
            raise ValueError("obstacle center must be a 3-vector")
        object.__setattr__(self, "center", c)
        if self.threshold_sq <= 0:
            raise ValueError("threshold_sq must be positive")


@dataclass
class BackboneShape:
    """Sampled backbone curve: arc coordinates and xyz points."""

    s: Array
    points: Array

    @property
    def tip(self) -> Array:
        return self.points[-1]


def _saturate(u: Array, u_max: float) -> Array:
    """Scale each curvature row (last axis) down to norm ``u_max``."""
    norms = np.sqrt((u * u).sum(axis=-1, keepdims=True))
    over = norms > u_max
    denom = np.where(over, norms, 1.0)
    return np.where(over, u * (u_max / denom), u)


def action_to_curvature(config: RobotConfig, q: Array, mismatch: bool) -> Array:
    """Map actions to per-segment body-frame curvatures [u_x, u_y, 0].

    ``q`` is one action, shape (action_dim,), or a batch, shape (batch,
    action_dim); the result has shape (n_segments, 3) or (batch,
    n_segments, 3).  The commanded map embeds (q_x, q_y) as [q_x, q_y, 0]
    and saturates the norm at ``u_max``.  With ``mismatch`` the simulated
    robot adds a smooth cross-coupling between the two bending components
    (zero at q = 0) and re-saturates, so commanded and realized curvature
    differ most at large mixed bends.

    Raises ``ValueError`` for a wrong action width or actions outside the
    configured bounds.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != config.action_dim:
        raise ValueError(
            f"actions must have shape (batch, {config.action_dim}) "
            f"or ({config.action_dim},), got {q.shape}"
        )
    if np.any(q < config.q_min) or np.any(q > config.q_max):
        raise ValueError("action outside configured bounds")
    pairs = q.reshape(-1, config.n_segments, 2)
    um = config.u_max
    u = np.zeros(pairs.shape[:2] + (3,))
    u[..., :2] = pairs
    u = _saturate(u, um)
    amp = config.mismatch_amplitude
    if mismatch and amp > 0.0:
        qx, qy = pairs[..., 0], pairs[..., 1]
        u[..., 0] += amp * um * (np.sin(qx / um) * (qy / um))
        u[..., 1] += amp * um * (np.sin(qy / um) * (qx / um))
        u = _saturate(u, um)
    return u.reshape(q.shape[:-1] + (config.n_segments, 3))


def _rotate(R: Array, v: Array) -> Array:
    """Rows of ``v`` (batch, m, 3) rotated by ``R`` (batch, 3, 3).

    Spelled out as three elementwise products so every row rounds the
    same way whatever the batch size.
    """
    return (
        v[..., 0:1] * R[:, None, :, 0]
        + v[..., 1:2] * R[:, None, :, 1]
        + v[..., 2:3] * R[:, None, :, 2]
    )


def _arc_backbones(config: RobotConfig, u: Array, points_per_segment: int) -> Array:
    """Backbone points for per-segment curvatures ``u`` (batch, n_segments, 3).

    Returns shape (batch, 1 + n_segments * points_per_segment, 3), the base
    point first.  Every grid point comes from the closed-form arc of its
    own segment, composed onto that segment's base frame.
    """
    batch, n_seg = u.shape[:2]
    ux = u[..., 0, None]
    uy = u[..., 1, None]
    steps = np.arange(1, points_per_segment + 1)
    s = np.asarray(config.segment_lengths)[:, None] * steps / points_per_segment
    theta = np.sqrt(ux * ux + uy * uy) * s
    # sin(theta)/k and (1 - cos(theta))/k^2, both finite at k = 0
    a = s * np.sinc(theta / np.pi)
    b = 0.5 * s * s * np.sinc(theta / (2.0 * np.pi)) ** 2
    local = np.stack([b * uy, -b * ux, a], axis=-1)
    # segment-end rotation I + a[u]x + b[u]x^2, written out for u_z = 0
    ae, be, x, y = a[..., -1], b[..., -1], ux[..., 0], uy[..., 0]
    turn = np.stack(
        [
            1.0 - be * y * y, be * x * y, ae * y,
            be * x * y, 1.0 - be * x * x, -ae * x,
            -ae * y, ae * x, 1.0 - be * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(batch, n_seg, 3, 3)
    R = np.broadcast_to(np.eye(3), (batch, 3, 3))
    p = np.zeros((batch, 1, 3))
    points = [p]
    for seg in range(n_seg):
        p = p + _rotate(R, local[:, seg])
        points.append(p)
        p = p[:, -1:]
        R = _rotate(R, turn[:, seg].swapaxes(1, 2)).swapaxes(1, 2)
    return np.concatenate(points, axis=1)


def backbone_arc_coords(config: RobotConfig) -> Array:
    """Arc coordinates of the simulator grid, base included."""
    lengths = np.asarray(config.segment_lengths)
    starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    k = SIM_POINTS_PER_SEGMENT
    local = lengths[:, None] * np.arange(1, k + 1) / k
    return np.concatenate(([0.0], (starts[:, None] + local).ravel()))


def forward_kinematics(
    config: RobotConfig, q: Array, payload_grams: float = 0.0
) -> BackboneShape:
    """Simulate the backbone, mismatch included, for one action ``q``,
    shape (action_dim,), at :data:`SIM_POINTS_PER_SEGMENT` points per
    segment plus the base point.

    Each point is exact up to rounding: with the curvature constant over
    a segment, the frame ODE has the closed-form arc solution, so there
    is no step size to choose.  ``payload_grams`` droops the resulting
    curve; it does not enter the arc composition.  The action runs as a
    batch of one through the same code as :func:`sample_dataset`, so
    both give bitwise-equal backbones.
    """
    u = action_to_curvature(config, np.reshape(q, (1, -1)), mismatch=True)
    shape = BackboneShape(
        s=backbone_arc_coords(config),
        points=_arc_backbones(config, u, SIM_POINTS_PER_SEGMENT)[0],
    )
    if payload_grams != 0.0:
        shape = apply_payload(shape, payload_grams, config.total_length)
    return shape


def apply_payload(
    shape: BackboneShape, grams: float, total_length: float
) -> BackboneShape:
    """Droop the backbone under a tip payload.

    Each point drops by ``c * grams * (s / L)^2`` with c =
    :data:`PAYLOAD_COEFF`: zero at the base, ``c * grams`` meters at the
    tip, linear in the payload mass.  ``grams`` must lie in [0,
    :data:`PAYLOAD_MAX_GRAMS`].
    """
    if not 0.0 <= grams <= PAYLOAD_MAX_GRAMS:
        raise ValueError(
            f"payload must lie in [0, {PAYLOAD_MAX_GRAMS:g}] g, got {grams:g}"
        )
    droop = PAYLOAD_COEFF * grams * (shape.s / total_length) ** 2
    points = shape.points.copy()
    points[:, 2] -= droop
    return BackboneShape(s=shape.s.copy(), points=points)


def sample_dataset(
    config: RobotConfig,
    n_samples: int,
    rng: np.random.Generator,
    points_per_segment: int = SIM_POINTS_PER_SEGMENT,
) -> tuple[Array, Array]:
    """Draw uniform actions over [q_min, q_max] and simulate their
    backbones (with mismatch).

    Returns ``q``, shape (n_samples, action_dim), and ``points``, shape
    (n_samples, n_segments * points_per_segment, 3), base excluded: the
    layout of the dataset file and of the shape model's predictions.
    A config whose backbones overflow raises ``FloatingPointError``.
    """
    q = rng.uniform(config.q_min, config.q_max, size=(n_samples, config.action_dim))
    u = action_to_curvature(config, q, mismatch=True)
    points = _arc_backbones(config, u, points_per_segment)[:, 1:]
    if not np.isfinite(points).all():
        raise FloatingPointError("simulated backbones are not finite")
    return q, points


def reference_trajectory(
    kind: str,
    times: Array,
    total_length: float,
    period: float,
) -> Array:
    """Goal positions g(t) for the named reference path.

    All references lie in the plane z = L - 0.02 below the straight-up
    tip (the helix sweeps a +-0.01 band around it) and fit inside a 5 cm
    radius, which keeps them in the reachable set.  Times outside
    [0, period] are a contract error.
    """
    t_in = np.asarray(times, dtype=np.float64)
    if np.any(t_in < -1e-9) or np.any(t_in > period + 1e-9):
        raise ValueError("trajectory time outside [0, period]")
    if kind not in TRAJECTORY_KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    t = t_in.reshape(-1)
    out = np.zeros(t.shape + (3,))
    out[..., 2] = total_length - 0.02
    if kind == "square":
        # from corner to corner, one edge per quarter period
        u = np.mod(t / period, 1.0) * 4.0
        edge = np.floor(u).astype(int)
        start, end = _SQUARE_CORNERS[edge % 4], _SQUARE_CORNERS[(edge + 1) % 4]
        out[..., :2] = start + (u - edge)[:, None] * (end - start)
    else:
        ax, ay, fy = _SMOOTH_PATHS[kind]
        phase = 2.0 * np.pi * t / period
        out[..., 0] = ax * np.cos(phase)
        out[..., 1] = ay * np.sin(fy * phase)
    if kind == "helix":
        out[..., 2] = out[..., 2] - 0.01 + 0.02 * (t / period)
    return out.reshape(t_in.shape + (3,))


def min_obstacle_distance(points: Array, obstacle: ObstacleSpec) -> float:
    """Smallest Euclidean distance from any backbone point to the center."""
    d = np.linalg.norm(points - obstacle.center, axis=-1)
    return float(d.min())


def per_axis_error_mm(err: Array) -> tuple[Array, Array]:
    """Per-axis RMSE and error STD, in mm, over error rows (..., 3) in m."""
    err = np.reshape(err, (-1, 3))
    return np.sqrt((err * err).mean(axis=0)) * 1000.0, err.std(axis=0) * 1000.0
