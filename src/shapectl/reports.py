"""Report emission: CSV schemas, metrics tables, and SVG path overlays.

Every file format here is the canonical one: datasets read back into
the exact ``(q, points)`` arrays they were written from, tracking logs
round-trip bit-for-bit through the 17-significant-digit float format,
and metrics tables are always derived from emitted logs rather than
computed independently.  The all-number tables (datasets, training
histories, tracking logs, shape evaluation records) are written by one
:func:`write_table` and read by one :func:`read_table`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Array
from .control_node import TrackingLog
from .robot import RobotConfig


def fmt(x: float) -> str:
    """Float text at 17 significant digits: lossless for doubles."""
    return format(float(x), ".17g")


def write_table(path, header: list[str], table) -> None:
    """``header``, then the rows of the 2-d ``table`` in :func:`fmt`'s format
    (whole numbers print as integers), as ``csv.writer`` writes them."""
    # no field needs quoting; one tolist() keeps numpy scalars, slow to
    # format one by one, out of the loop
    rows = np.asarray(table, dtype=np.float64).tolist()
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join([format(v, ".17g") for v in row]) + "\r\n")


def read_table(path) -> tuple[list[str] | None, list[list[float]]]:
    """The header (None for an empty file) and the non-empty rows, as
    floats, of a file :func:`write_table` wrote; rows keep their widths."""
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [[float(v) for v in row] for row in reader if row]
    return header, rows


# ---------------------------------------------------------------------------
# dataset files


def dataset_header(config: RobotConfig, points_per_segment: int) -> list[str]:
    n = config.n_segments
    cols = [f"q{i}" for i in range(2 * n)]
    cols += [f"len{i}" for i in range(n)]
    for p in range(n * points_per_segment):
        cols += [f"px{p}", f"py{p}", f"pz{p}"]
    return cols


def write_dataset_csv(path, q: Array, points: Array, config: RobotConfig) -> None:
    """One row per sample: actions, the config's segment lengths, grid points.

    ``q`` is (n, action_dim) and ``points`` (n, n_segments * k, 3), base
    excluded, as :func:`shapectl.robot.sample_dataset` returns them.
    """
    n, width = points.shape[:2]
    if n == 0:
        raise ValueError("no samples to write")
    if q.shape != (n, config.action_dim) or width % config.n_segments:
        raise ValueError("actions and points do not fit the robot config")
    lengths = np.broadcast_to(config.segment_lengths, (n, config.n_segments))
    write_table(
        path,
        dataset_header(config, width // config.n_segments),
        np.hstack([q, lengths, points.reshape(n, -1)]),
    )


def read_dataset_csv(path, config: RobotConfig) -> tuple[Array, Array]:
    """Inverse of :func:`write_dataset_csv`: the ``(q, points)`` arrays.

    A header, segment lengths or actions not matching ``config`` are a
    ``ValueError``; so is a row whose width differs from the header's.
    """
    header, rows = read_table(path)
    if header is None:
        raise ValueError("dataset file is empty")
    if not rows:
        raise ValueError("dataset has no samples")
    n = config.n_segments
    base = 3 * n  # action plus length columns
    if len(header) <= base or (len(header) - base) % (3 * n) != 0:
        raise ValueError("dataset width does not fit the robot config")
    pps = (len(header) - base) // (3 * n)
    if header != dataset_header(config, pps):
        raise ValueError("dataset header does not match the robot config")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(
                f"dataset row {i + 1} has {len(row)} cells, the header {len(header)}"
            )
    data = np.array(rows)
    lengths = data[:, 2 * n : base]
    bad = np.any(lengths != config.segment_lengths, axis=1)
    if bad.any():
        raise ValueError(
            f"dataset segment lengths {lengths[bad][0].tolist()} do not match the "
            f"robot config's {list(config.segment_lengths)}"
        )
    q = data[:, : 2 * n]
    if not np.all((q >= config.q_min) & (q <= config.q_max)):
        raise ValueError(
            f"dataset actions lie outside the robot config's bounds"
            f" [{config.q_min:g}, {config.q_max:g}]"
        )
    return q, data[:, base:].reshape(len(rows), n * pps, 3)


# ---------------------------------------------------------------------------
# tracking logs


def tracking_log_header(action_dim: int, with_obstacle: bool) -> list[str]:
    cols = ["t", "gx", "gy", "gz", "x", "y", "z"]
    cols += [f"q{i}" for i in range(action_dim)]
    if with_obstacle:
        cols.append("min_obstacle_dist")
    return cols


def write_tracking_log_csv(path, log: TrackingLog) -> None:
    """Tick rows: time, goal, achieved tip, actions, obstacle distance."""
    with_obs = log.min_obstacle_dist is not None
    columns = [log.times, log.goals, log.tips, log.actions]
    if with_obs:
        columns.append(log.min_obstacle_dist)
    header = tracking_log_header(log.actions.shape[1], with_obs)
    write_table(path, header, np.column_stack(columns))


def read_tracking_log_csv(path) -> TrackingLog:
    header, rows = read_table(path)
    with_obs = header[-1] == "min_obstacle_dist"
    action_dim = len(header) - 7 - (1 if with_obs else 0)
    if header != tracking_log_header(action_dim, with_obs):
        raise ValueError("not a tracking log file")
    data = np.array(rows).reshape(len(rows), len(header))
    return TrackingLog(
        times=data[:, 0],
        goals=data[:, 1:4],
        tips=data[:, 4:7],
        actions=data[:, 7 : 7 + action_dim],
        min_obstacle_dist=data[:, -1] if with_obs else None,
    )


# ---------------------------------------------------------------------------
# metrics table


AXIS_DISPLAY = {"x": "x̃", "y": "ỹ", "z": "z̃"}


@dataclass(frozen=True)
class MetricsRow:
    scenario: str
    axis: str
    rmse_mm: float
    std_mm: float
    n_trials: int

    def __post_init__(self):
        if self.rmse_mm < 0 or self.std_mm < 0:
            raise ValueError("RMSE and STD must be non-negative")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")


@dataclass
class MetricsTable:
    """Result rows shaped like the tracking-error tables: one row per
    scenario and axis with RMSE and STD in millimeters."""

    rows: list[MetricsRow]

    def format_table(self) -> str:
        head = ("scenario", "axis", "RMSE (mm)", "STD (mm)", "trials")
        body = [
            (
                r.scenario,
                AXIS_DISPLAY.get(r.axis, r.axis),
                f"{r.rmse_mm:.3f}",
                f"{r.std_mm:.3f}",
                str(r.n_trials),
            )
            for r in self.rows
        ]
        widths = [
            max(len(head[i]), *(len(b[i]) for b in body)) if body else len(head[i])
            for i in range(5)
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(head)),
            "  ".join("-" * w for w in widths),
        ]
        for b in body:
            lines.append("  ".join(b[i].ljust(widths[i]) for i in range(5)))
        return "\n".join(lines)


def write_metrics_csv(path, table: MetricsTable) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "axis", "rmse_mm", "std_mm", "n_trials"])
        for r in table.rows:
            writer.writerow(
                [r.scenario, r.axis, fmt(r.rmse_mm), fmt(r.std_mm), str(r.n_trials)]
            )


def read_metrics_csv(path) -> MetricsTable:
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["scenario", "axis", "rmse_mm", "std_mm", "n_trials"]:
            raise ValueError("not a metrics file")
        rows = [
            MetricsRow(r[0], r[1], float(r[2]), float(r[3]), int(r[4]))
            for r in reader
            if r
        ]
    return MetricsTable(rows=rows)


# ---------------------------------------------------------------------------
# shape evaluation records


SHAPE_EVAL_HEADER = ["sample", "point", "tx", "ty", "tz", "mx", "my", "mz"]


def write_shape_eval_csv(path, truths: Array, predictions: Array) -> None:
    """Per-sample, per-grid-point truth and prediction coordinates."""
    if truths.shape != predictions.shape:
        raise ValueError("truth and prediction shapes differ")
    n, p = truths.shape[:2]
    sample, point = np.divmod(np.arange(n * p), p)
    table = [sample, point, truths.reshape(-1, 3), predictions.reshape(-1, 3)]
    write_table(path, SHAPE_EVAL_HEADER, np.column_stack(table))


def read_shape_eval_csv(path) -> tuple[Array, Array]:
    header, rows = read_table(path)
    if header != SHAPE_EVAL_HEADER:
        raise ValueError("not a shape evaluation file")
    data = np.array(rows)
    n = int(data[:, 0].max()) + 1
    p = int(data[:, 1].max()) + 1
    truths = data[:, 2:5].reshape(n, p, 3)
    predictions = data[:, 5:8].reshape(n, p, 3)
    return truths, predictions


# ---------------------------------------------------------------------------
# SVG plots


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def svg_path_overlay(
    path,
    series: list[tuple[str, Array]],
    title: str,
    marks: list[tuple[float, float, float]] | None = None,
) -> None:
    """Self-contained SVG drawing x-y projections of 3-d point series.

    ``marks`` are (x, y, radius) circles, e.g. an obstacle footprint.
    """
    size, margin = 640.0, 60.0
    pts = np.concatenate([np.asarray(p)[:, :2] for _, p in series], axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    if marks:
        for mx, my, mr in marks:
            lo = np.minimum(lo, [mx - mr, my - mr])
            hi = np.maximum(hi, [mx + mr, my + mr])
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    scale = (size - 2 * margin) / span
    cx = 0.5 * (lo[0] + hi[0])
    cy = 0.5 * (lo[1] + hi[1])

    def to_px(x, y):
        # y grows upward in data space, downward in screen space
        px = size / 2 + (x - cx) * scale
        py = size / 2 - (y - cy) * scale
        return f"{px:.2f},{py:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" '
        f'height="{size:g}" viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
        f'<text x="{size / 2:g}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
    ]
    for i, (label, points) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(to_px(p[0], p[1]) for p in np.asarray(points))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin:g}" y="{margin + 20 * i:g}" fill="{color}" '
            f'font-family="sans-serif" font-size="14">{label}</text>'
        )
    for mx, my, mr in marks or []:
        center = to_px(mx, my).split(",")
        parts.append(
            f'<circle cx="{center[0]}" cy="{center[1]}" r="{mr * scale:.2f}" '
            f'fill="none" stroke="#444444" stroke-dasharray="4 3"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
