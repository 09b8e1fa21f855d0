"""CSV schemas, metrics tables, and SVG emission."""

import csv
import gc
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import read_metrics_csv, read_shape_eval_csv, read_tracking_log_csv
from shapectl.control_node import TrackingLog
from shapectl.reports import (
    MetricsRow,
    MetricsTable,
    dataset_header,
    fmt,
    read_dataset_csv,
    svg_path_overlay,
    write_dataset_csv,
    write_metrics_csv,
    write_shape_eval_csv,
    write_table,
    write_tracking_log_csv,
)
from shapectl.robot import RobotConfig, sample_dataset


def test_dataset_round_trip(tmp_path):
    cfg = RobotConfig(n_segments=2)
    q, points = sample_dataset(cfg, 5, np.random.default_rng(3))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    q_back, points_back = read_dataset_csv(path, cfg)
    assert np.array_equal(q, q_back)
    assert np.array_equal(points, points_back)
    lengths = [row.split(",")[4:6] for row in path.read_text().splitlines()[1:]]
    assert lengths == [["0.10000000000000001"] * 2] * 5


def write_dataset_csv_oracle(path, q, points, config):
    """The dataset file as csv.writer writes it from one numpy scalar
    per value."""
    n = q.shape[0]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_header(config, points.shape[1] // config.n_segments))
        lengths = [fmt(v) for v in config.segment_lengths]
        for qi, pts in zip(q, points.reshape(n, -1)):
            writer.writerow([fmt(v) for v in qi] + lengths + [fmt(v) for v in pts])


def test_dataset_bytes_equal_the_csv_writer_oracle(tmp_path):
    cfg = RobotConfig(n_segments=3)
    q, points = sample_dataset(cfg, 40, np.random.default_rng(7))
    # signed zeros, extreme exponents and short decimals format too
    q[0, :3] = [-0.0, 0.5, -12.3]
    points[0, 0] = [5e-324, -1e30, 0.0]
    for dtype in (np.float64, np.float32):
        qd, pd = q.astype(dtype), points.astype(dtype)
        write_dataset_csv(tmp_path / "data.csv", qd, pd, cfg)
        write_dataset_csv_oracle(tmp_path / "oracle.csv", qd, pd, cfg)
        got = (tmp_path / "data.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()


def test_dataset_header_widths():
    cfg4 = RobotConfig(n_segments=4)
    header = dataset_header(cfg4, 10)
    assert len(header) == 8 + 4 + 3 * 40
    assert header[0] == "q0"
    assert header[7] == "q7"
    assert header[8] == "len0"
    assert header[12] == "px0"


def test_dataset_config_mismatch_rejected(tmp_path):
    cfg = RobotConfig(n_segments=2)
    q, points = sample_dataset(cfg, 3, np.random.default_rng(0))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    with pytest.raises(ValueError):
        read_dataset_csv(path, RobotConfig(n_segments=3))
    with pytest.raises(ValueError, match="segment lengths"):
        read_dataset_csv(path, RobotConfig(n_segments=2, segment_lengths=(0.1, 0.2)))
    with pytest.raises(ValueError, match="bounds"):
        read_dataset_csv(path, RobotConfig(n_segments=2, u_max=1.0))
    lines = path.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join([lines[0], lines[1].rsplit(",", 3)[0]]))
    with pytest.raises(ValueError, match="row 1 has"):
        read_dataset_csv(short, cfg)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_dataset_csv(empty, cfg)


def test_dataset_read_peaks_near_its_arrays(tmp_path):
    # each row goes from text into one float64 array and on into the
    # one table the arrays view: the read peaks at no more than 2.5x the
    # 1.5 MB of arrays it returns (1.2x measured), where a list of
    # Python floats per row peaked at 5.5x
    cfg = RobotConfig(n_segments=3)
    q, points = sample_dataset(cfg, 2000, np.random.default_rng(5))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q_back, points_back = read_dataset_csv(path, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(q_back, q) and np.array_equal(points_back, points)
    assert peak <= 2.5 * (q_back.nbytes + points_back.nbytes), peak


def test_dataset_read_is_bit_exact(tmp_path):
    # signed zeros, subnormals and extreme exponents come back bit for bit
    cfg = RobotConfig(n_segments=3)
    q, points = sample_dataset(cfg, 30, np.random.default_rng(11))
    q[0, :3] = [-0.0, 5e-324, -12.3]
    points[0, :2] = [[5e-324, -0.0, 1e30], [-1e-300, 0.0, 2.0**-1074]]
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    q_back, points_back = read_dataset_csv(path, cfg)
    assert q_back.dtype == points_back.dtype == np.float64
    assert q_back.tobytes() == q.tobytes()
    assert points_back.tobytes() == points.tobytes()


def _edit_cell(row, column, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1 :]

    return edit


# (edit of the file's lines, the whole message): each message is the one
# the reader gave when it held every row as Python floats
DATASET_ERRORS = {
    "empty": (lambda lines: [], "dataset file is empty"),
    "header_only": (lambda lines: lines[:1], "dataset has no samples"),
    "narrow_header": (
        lambda lines: [lines[0].rsplit(",", 3)[0]] + lines[1:],
        "dataset width does not fit the robot config",
    ),
    "renamed_header": (
        lambda lines: [lines[0].replace("q0", "u0")] + lines[1:],
        "dataset header does not match the robot config",
    ),
    "short_row": (
        lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
        "dataset row 2 has 65 cells, the header 66",
    ),
    "text_cell": (_edit_cell(3, 7, "abc"), "could not convert string to float: 'abc'"),
    "empty_cell": (_edit_cell(2, 7, ""), "could not convert string to float: ''"),
    "nan_cell": (_edit_cell(4, 9, "nan"), "dataset row 4 has a non-finite cell"),
    "length": (
        _edit_cell(2, 4, "0.2"),
        "dataset segment lengths [0.2, 0.1] do not match the robot config's [0.1, 0.1]",
    ),
    "action": (
        _edit_cell(1, 0, "99"),
        "dataset actions lie outside the robot config's bounds [-15, 15]",
    ),
}


@pytest.mark.parametrize("case", list(DATASET_ERRORS))
def test_dataset_error_messages(tmp_path, case):
    cfg = RobotConfig(n_segments=2)
    q, points = sample_dataset(cfg, 4, np.random.default_rng(0))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    edit, message = DATASET_ERRORS[case]
    path.write_text("\n".join(edit(path.read_text().splitlines())))
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path, cfg)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dataset_non_finite_cell_rejected(tmp_path, value):
    cfg = RobotConfig(n_segments=1)
    q, points = sample_dataset(cfg, 3, np.random.default_rng(0))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, q, points, cfg)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[-1] = value
    path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]))
    with pytest.raises(ValueError, match="^dataset row 2 has a non-finite cell$"):
        read_dataset_csv(path, cfg)


def test_history_csv(tmp_path):
    path = tmp_path / "hist.csv"
    write_table(
        path, ["iteration", "train_loss", "val_loss"], [(1, 0.5, 0.25), (2, 0.4, 0.25)]
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.25"
    assert len(lines) == 3


def _example_log(with_obstacle):
    rng = np.random.default_rng(8)
    return TrackingLog(
        times=np.linspace(0.5, 2.0, 4),
        goals=rng.standard_normal((4, 3)),
        tips=rng.standard_normal((4, 3)),
        actions=rng.standard_normal((4, 6)),
        min_obstacle_dist=rng.uniform(0.01, 0.1, 4) if with_obstacle else None,
    )


@pytest.mark.parametrize("with_obstacle", [False, True])
def test_tracking_log_round_trip(tmp_path, with_obstacle):
    log = _example_log(with_obstacle)
    path = tmp_path / "log.csv"
    write_tracking_log_csv(path, log)
    header = path.read_text().splitlines()[0].split(",")
    expect = ["t", "gx", "gy", "gz", "x", "y", "z"] + [f"q{i}" for i in range(6)]
    if with_obstacle:
        expect.append("min_obstacle_dist")
    assert header == expect
    back = read_tracking_log_csv(path)
    assert np.array_equal(back.times, log.times)
    assert np.array_equal(back.goals, log.goals)
    assert np.array_equal(back.tips, log.tips)
    assert np.array_equal(back.actions, log.actions)
    if with_obstacle:
        assert np.array_equal(back.min_obstacle_dist, log.min_obstacle_dist)
    else:
        assert back.min_obstacle_dist is None


def test_tracking_log_bad_header_rejected(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_tracking_log_csv(path)


def test_metrics_row_validation():
    with pytest.raises(ValueError):
        MetricsRow("s", "x", -0.1, 0.0, 1)
    with pytest.raises(ValueError):
        MetricsRow("s", "x", 0.1, -1.0, 1)
    with pytest.raises(ValueError):
        MetricsRow("s", "x", 0.1, 0.0, 0)


def test_metrics_csv_round_trip(tmp_path):
    table = MetricsTable(
        rows=[
            MetricsRow("circle", "x", 1.25, 0.5, 5),
            MetricsRow("circle", "y", 2.5, 0.25, 5),
            MetricsRow("payload_5g", "xyz", 3.75, 1.125, 5),
        ]
    )
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, table)
    back = read_metrics_csv(path)
    assert back.rows == table.rows
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_metrics_csv(bad)


def test_metrics_table_display_axes():
    table = MetricsTable(
        rows=[
            MetricsRow("circle", "x", 1.0, 0.1, 5),
            MetricsRow("circle", "y", 1.0, 0.1, 5),
            MetricsRow("circle", "z", 1.0, 0.1, 5),
        ]
    )
    text = table.format_table()
    assert "x̃" in text and "ỹ" in text and "z̃" in text
    assert "RMSE (mm)" in text


def _csv_writer_oracle(path, header, rows):
    """A table as the per-format writers wrote it before write_table:
    csv.writer, one fmt call per numpy scalar, counters as str(int)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else fmt(v) for v in row])


def _odd_values(a):
    # signed zeros, extreme exponents, whole numbers and short decimals
    a.flat[:5] = [-0.0, 5e-324, -1e30, 3.0, 0.1]
    return a


@pytest.mark.parametrize("table", ["history", "log", "log_obstacle", "shape_eval"])
def test_table_bytes_equal_the_csv_writer_oracle(tmp_path, table):
    path, oracle = tmp_path / "got.csv", tmp_path / "oracle.csv"
    if table == "history":
        rows = [(1, 0.5, np.nan), (2, -0.0, 1e-300), (10, 3.0, 0.1)]
        header = ["iteration", "train_loss", "val_loss"]
        write_table(path, header, rows)
        _csv_writer_oracle(oracle, header, [[str(r[0]), *r[1:]] for r in rows])
    elif table.startswith("log"):
        log = _example_log(table == "log_obstacle")
        _odd_values(log.goals)
        write_tracking_log_csv(path, log)
        columns = [log.times[:, None], log.goals, log.tips, log.actions]
        if log.min_obstacle_dist is not None:
            columns.append(log.min_obstacle_dist[:, None])
        rows = [[v for c in columns for v in c[k]] for k in range(log.n_ticks)]
        header = path.read_text().splitlines()[0].split(",")
        _csv_writer_oracle(oracle, header, rows)
    else:
        rng = np.random.default_rng(4)
        truth = _odd_values(rng.standard_normal((3, 12, 3)))
        pred = rng.standard_normal((3, 12, 3))
        write_shape_eval_csv(path, truth, pred)
        rows = [
            [str(i), str(p), *truth[i, p], *pred[i, p]]
            for i in range(3)
            for p in range(12)
        ]
        header = ["sample", "point", "tx", "ty", "tz", "mx", "my", "mz"]
        _csv_writer_oracle(oracle, header, rows)
    assert path.read_bytes() == oracle.read_bytes()


def test_shape_eval_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((3, 4, 3))
    pred = rng.standard_normal((3, 4, 3))
    path = tmp_path / "eval.csv"
    write_shape_eval_csv(path, truth, pred)
    t, p = read_shape_eval_csv(path)
    assert np.array_equal(t, truth)
    assert np.array_equal(p, pred)
    with pytest.raises(ValueError):
        write_shape_eval_csv(path, truth, pred[:2])


def test_svg_overlay_is_wellformed_xml(tmp_path):
    theta = np.linspace(0.0, 2 * np.pi, 50)
    ref = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    ach = 0.95 * ref
    path = tmp_path / "plot.svg"
    svg_path_overlay(
        path,
        [("reference", ref), ("achieved", ach)],
        "test overlay",
        marks=[(0.5, 0.5, 0.1)],
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert body.count("<polyline") == 2
    assert body.count("<circle") == 1
