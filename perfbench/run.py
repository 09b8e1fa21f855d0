#!/usr/bin/env python3
"""shapectl benchmark: three workloads run through the real CLI.

Usage::

    python3 perfbench/run.py --workload shape-fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Every CLI command runs in a fresh interpreter (``perfbench/child.py``)
with ``src`` on ``PYTHONPATH`` and one BLAS thread.  A run builds the
workload's model inputs untimed, then repeats the workload's command
sequence until ``--seconds`` have passed (at least twice, so that a
rerun can be byte-compared), then samples set-up time again with probes
that stop each command at its first work call.  Timings are means over
the run (see :func:`mean_timed`); set-up time is the median of all
set-up samples.  With ``--trace 1`` half the time goes to untraced
repetitions and half to repetitions that trace every layer
(``perfbench/tracing.py``); the per-layer numbers and the tracing
overhead come from that pair.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.  Everything else (named throughputs, output checks,
machine record, gate projection) is printed above it and written to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

import os

BLAS_THREADS = "1"
# set before numpy loads, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import configparser  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import filecmp  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("shape-fit", "policy-fit", "track-eval")
# a run must end within 180 s; children are killed past this point
TIME_LIMIT_S = 170.0
BUILD_SEED = 2025  # fixed seed of the model inputs, independent of --seed
PROBES = 5  # extra set-up samples per run

# Gate settings everywhere (3 segments, fixed-adams, 10 steps/segment,
# batch 256 / 64, horizon 10, tick = period/200); only counts shrink.
SIZES = {
    "full": {
        "hidden": "256,256",
        "shape_samples": 300,  # the smallest set whose train split fills batch 256
        "shape_iterations": 6,
        "policy_iterations": 2,
        "track_duration": 1.0,  # 2 ticks per trial, 20 trials
        "build_samples": 128,
        "build_shape_iterations": 20,
        "build_shape_batch": 64,
        "build_policy_iterations": 2,
        "build_policy_batch": 8,
    },
    "tiny": {
        "hidden": "16,16",
        "shape_samples": 40,
        "shape_iterations": 2,
        "policy_iterations": 1,
        "track_duration": 0.5,
        "build_samples": 24,
        "build_shape_iterations": 2,
        "build_shape_batch": 8,
        "build_policy_iterations": 1,
        "build_policy_batch": 4,
    },
}

# each command's named throughput; the units are Workload.work_units()
THROUGHPUT = {
    "generate": "sim_samples_per_s",
    "train-shape": "shape_train_it_per_s",
    "train-control": "policy_train_it_per_s",
    "evaluate": "track_ticks_per_s",
}

GATE_SHAPE_ITERATIONS = 10_000
GATE_SHAPE_SAMPLES = 10_000
GATE_VAL_SAMPLES = 1_000
GATE_VAL_INTERVAL = 100
GATE_SHAPE_BUDGET_S = 30 * 60
GATE_POLICY_ITERATIONS = 2_200
GATE_TRIALS = 20
GATE_TICKS = 200
GATE_POLICY_BUDGET_S = 60 * 60


class BenchmarkError(Exception):
    """The run cannot produce a result (missing sources, a hung command)."""


# ---------------------------------------------------------------------------
# configuration files and workloads


def write_ini(path: Path, size: dict, **over) -> Path:
    values = {
        "hidden": size["hidden"],
        "shape_batch": 256,
        "shape_iterations": size["shape_iterations"],
        "policy_batch": 64,
        "policy_iterations": size["policy_iterations"],
        "n_samples": size["shape_samples"],
        "duration": size["track_duration"],
    }
    values.update(over)
    path.write_text(
        "[robot]\n"
        "n_segments = 3\n\n"
        "[shape]\n"
        f"hidden = {values['hidden']}\n"
        "solver = fixed-adams\n"
        "steps_per_segment = 10\n"
        f"batch_size = {values['shape_batch']}\n"
        f"iterations = {values['shape_iterations']}\n"
        "val_interval = 100\n\n"
        "[control]\n"
        f"hidden = {values['hidden']}\n"
        "horizon = 10\n"
        f"batch_size = {values['policy_batch']}\n"
        f"iterations = {values['policy_iterations']}\n\n"
        "[run]\n"
        f"n_samples = {values['n_samples']}\n"
        "period = 100\n"
        f"duration = {values['duration']}\n",
        encoding="ascii",
    )
    return path


def track_ticks(size: dict) -> int:
    """Ticks of one evaluate: 4 trajectories x 5 trials x duration/tick."""
    tick = 100.0 / 200
    return 4 * 5 * int(round(size["track_duration"] / tick))


class Workload:
    """One workload: its untimed inputs, its commands, its output checks."""

    name = ""

    def __init__(self, size_name: str, ini: Path, seed: int):
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.common = ["--config", str(ini), "--seed", str(seed)]

    def build_inputs(self, runner: "Runner", work: Path) -> dict:
        return {}

    def work_units(self) -> dict[str, int]:
        """Units of work of each command in one repetition, in order."""
        raise NotImplementedError

    def commands(self, out: Path, inputs: dict, dataset: Path | None = None):
        """(command, CLI argv) for one repetition writing under ``out``."""
        raise NotImplementedError

    def quality(self, out: Path) -> dict:
        """Deterministic output figures of one repetition, by name."""
        raise NotImplementedError

    def check_outputs(self, out: Path, runner: "Runner", label: str) -> None:
        """Workload-specific output checks; exit codes and reruns are
        checked for every workload by the caller."""


def build_models(runner: "Runner", work: Path, size: dict, with_policy: bool) -> dict:
    """Shape model (and policy) from the code under test, fixed seeds."""
    ini = write_ini(
        work / "build.ini",
        size,
        shape_batch=size["build_shape_batch"],
        shape_iterations=size["build_shape_iterations"],
        n_samples=size["build_samples"],
        policy_batch=size["build_policy_batch"],
        policy_iterations=size["build_policy_iterations"],
    )
    common = ["--config", str(ini), "--seed", str(BUILD_SEED)]
    out = work / "inputs"
    shape_model = out / "shape" / "shape_model.json"
    steps = [
        ["generate", *common, "--out", str(out / "gen")],
        ["train-shape", *common, "--dataset", str(out / "gen" / "dataset.csv"),
         "--out", str(out / "shape")],
    ]
    if with_policy:
        steps.append(["train-control", *common, "--shape-model", str(shape_model),
                      "--scenario", "tracking", "--out", str(out / "control")])
    for argv in steps:
        if runner.command(argv, out / f"{argv[0]}.json") is None:
            raise BenchmarkError(f"building the model inputs failed, see {runner.log}")
    inputs = {"shape_model": shape_model}
    if with_policy:
        inputs["control_model"] = out / "control" / "control_model.json"
    return inputs


class ShapeFit(Workload):
    name = "shape-fit"

    def work_units(self):
        return {
            "generate": self.size["shape_samples"],
            "train-shape": self.size["shape_iterations"],
        }

    def commands(self, out, inputs, dataset=None):
        dataset = dataset or out / "generate" / "dataset.csv"
        return [
            ("generate", ["generate", *self.common, "--out", str(out / "generate")]),
            ("train-shape", ["train-shape", *self.common, "--dataset", str(dataset),
                             "--out", str(out / "train-shape")]),
        ]

    def quality(self, out):
        rows = read_csv(out / "train-shape" / "shape_history.csv")
        best = min(float(r["val_loss"]) for r in rows)
        return {"shape_val_loss_mm": (best * 1000.0, "mm")}


class PolicyFit(Workload):
    name = "policy-fit"

    def build_inputs(self, runner, work):
        return build_models(runner, work, self.size, with_policy=False)

    def work_units(self):
        return {"train-control": self.size["policy_iterations"]}

    def commands(self, out, inputs, dataset=None):
        return [
            ("train-control", ["train-control", *self.common, "--shape-model",
                               str(inputs["shape_model"]), "--scenario", "tracking",
                               "--out", str(out / "train-control")]),
        ]

    def quality(self, out):
        rows = read_csv(out / "train-control" / "control_history.csv")
        return {"policy_final_loss": (float(rows[-1]["train_loss"]), "1")}


class TrackEval(Workload):
    name = "track-eval"

    def build_inputs(self, runner, work):
        return build_models(runner, work, self.size, with_policy=True)

    def work_units(self):
        return {"evaluate": track_ticks(self.size)}

    def commands(self, out, inputs, dataset=None):
        return [
            ("evaluate", ["evaluate", *self.common, "--scenario", "tracking",
                          "--shape-model", str(inputs["shape_model"]),
                          "--control-model", str(inputs["control_model"]),
                          "--out", str(out / "evaluate")]),
        ]

    def quality(self, out):
        rows = read_csv(out / "evaluate" / "metrics.csv")
        return {"track_rmse_mm": (max(float(r["rmse_mm"]) for r in rows), "mm")}

    def check_outputs(self, out, runner, label):
        ev = out / "evaluate"
        resolved = configparser.ConfigParser()
        resolved.read(ev / "resolved_config.ini")
        u_max = float(resolved["robot"]["u_max"])
        q_min, q_max = -u_max, u_max  # RobotConfig's default action box
        ticks = track_ticks(self.size) // 20
        logs = sorted(ev.glob("track_*_trial*.csv"))
        bad = [] if len(logs) == 20 else [f"{len(logs)} tracking logs, expected 20"]
        for path in logs:
            rows = read_csv(path)
            if len(rows) != ticks:
                bad.append(f"{path.name}: {len(rows)} ticks, expected {ticks}")
            for row in rows:
                qs = [float(v) for k, v in row.items() if k.startswith("q")]
                if len(qs) != 6 or not all(q_min <= q <= q_max for q in qs):
                    bad.append(f"{path.name}: action {qs} outside [{q_min}, {q_max}]")
                    break
        runner.check(
            f"{label}: tracking logs complete, actions inside [q_min, q_max]",
            not bad,
            "; ".join(bad[:3]),
        )


WORKLOAD_CLASSES = {w.name: w for w in (ShapeFit, PolicyFit, TrackEval)}


# ---------------------------------------------------------------------------
# running commands


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHAPECTL_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def same_tree(a: Path, b: Path) -> str:
    """Empty when both directories hold byte-identical files."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return f"file sets differ: {files_a} vs {files_b}"
    if not files_a:
        return "no output files"
    for rel in files_a:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            return f"{rel} differs"
    return ""


class Runner:
    """Starts one child at a time, waits for it, and keeps the checks."""

    def __init__(self, work: Path, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.log = work / "commands.log"
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    def command(self, argv: list[str], record: Path, mode: str = "plain") -> dict | None:
        """Run ``shapectl <argv>`` in a fresh child; its timing record."""
        record.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(record), mode, "--", *argv]
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(argv) + f"  [{mode}]\n").encode())
            log.flush()
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchmarkError(f"time limit reached during: {' '.join(argv)}")
            t_exit = time.perf_counter()
        rec = json.loads(record.read_text()) if record.exists() else None
        ok = rc == 0 and rec is not None
        self.check(f"{argv[0]} [{mode}] exits 0", ok, f"exit code {rc}, see {self.log}")
        if not ok:
            return None
        rec["setup_s"] = rec["t_main0"] - t_spawn + rec["setup_fn_s"]
        rec["timed_s"] = rec["t_main1"] - rec["t_main0"] - rec["setup_fn_s"]
        rec["process_s"] = t_exit - t_spawn
        return rec


class Rep:
    """One repetition of a workload's command sequence."""

    def __init__(self, out: Path, records: list[dict]):
        self.out = out
        self.records = records

    @property
    def setup_s(self) -> float:
        return sum(r["setup_s"] for r in self.records)

    @property
    def wall_s(self) -> float:
        return sum(r["timed_s"] for r in self.records)

    @property
    def peak_rss_mb(self) -> float:
        return max(r["maxrss_kb"] for r in self.records) / 1024.0

    def record(self, command: str) -> dict:
        return next(r for r in self.records if r["command"] == command)


def run_rep(wl: Workload, runner: Runner, rep_dir: Path, inputs: dict, mode: str,
            dataset: Path | None = None) -> Rep | None:
    records = []
    out = rep_dir / "out"
    for command, argv in wl.commands(out, inputs, dataset):
        rec = runner.command(argv, rep_dir / "records" / f"{command}.json", mode)
        if rec is None:
            return None
        rec["command"] = command
        records.append(rec)
    return Rep(out, records)


def measure(wl, runner, work, inputs, mode, tag, budget_s, min_reps) -> list[Rep]:
    """Repeat the workload until the next repetition would overrun."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_rep(wl, runner, work / f"{tag}{len(reps)}", inputs, mode)
        if rep is None:
            break
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= min_reps and (now - start) + (now - t0) > budget_s:
            break
    return reps


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values) if values else None


def mean_timed(reps: list["Rep"], command: str | None = None) -> float:
    """Mean timed seconds of a repetition, or of one command in it.

    This is throughput over the whole run.  Other tenants of this 2-core
    machine slow it by 15-40% for stretches from under a second to
    minutes.  Over two rounds of five runs per workload, the run mean
    varied least between runs: its quartile spread over the median was
    6-26%, against 8-26% for the median repetition and 7-31% for the
    fastest.
    """
    if command is None:
        return statistics.fmean(r.wall_s for r in reps)
    return statistics.fmean(r.record(command)["timed_s"] for r in reps)


def spread(values) -> float | None:
    """Interquartile distance over the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least 10 samples beyond it
    (p50 when fewer than 20 samples exist)."""
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


# ---------------------------------------------------------------------------
# machine record


def openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when present."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    a = np.random.default_rng(0).standard_normal((256, 256))
    b = np.random.default_rng(1).standard_normal((256, 256))
    for _ in range(5):
        a @ b
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "matmul256_f64_gflops": 2 * 256**3 / statistics.median(times) / 1e9,
    }


# ---------------------------------------------------------------------------
# per-layer numbers and the gate projection


def layer_stats(traced: list[Rep]) -> tuple[dict, dict]:
    """Per-span statistics over every traced command, and the flat
    per-layer metrics by name."""
    spans: dict[str, dict] = {}
    counts = {"tape_nodes": [], "rollout_batch": [], "ik_jacobians": []}
    useful = total = 0
    main_wall = 0.0
    for rep in traced:
        for rec in rep.records:
            main_wall += rec["t_main1"] - rec["t_main0"]
            tr = rec["trace"]
            for name, entry in tr["spans"].items():
                agg = spans.setdefault(name, {"self_s": [], "dur_s": 0.0})
                agg["self_s"].extend(entry["self_s"])
                agg["dur_s"] += entry["dur_s"]
            for key in counts:
                counts[key].extend(tr[key])
            useful += tr["adjoint_useful"]
            total += tr["adjoint_total"]
    table = {}
    flat = {}
    share_sum = 0.0
    for name, agg in spans.items():
        selfs = sorted(agg["self_s"])
        n = len(selfs)
        share = sum(selfs) / main_wall if main_wall > 0 else 0.0
        share_sum += share
        row = {"calls": n, "share": share, "total_ms": agg["dur_s"] * 1e3}
        if n:
            pct = tail_percentile(n)
            row.update(
                self_ms_p50=nearest_rank(selfs, 50.0) * 1e3,
                self_ms_tail=nearest_rank(selfs, pct) * 1e3,
                tail_percentile=pct,
            )
        table[name] = row
        for key in ("calls", "share", "self_ms_p50", "self_ms_tail"):
            if key in row:
                flat[f"{name}.{key}"] = row[key]
    flat["trace.share_sum"] = share_sum

    def p50(values):
        return float(nearest_rank(sorted(values), 50.0)) if values else 0.0

    flat["autodiff.tape_nodes"] = p50(counts["tape_nodes"])
    flat["autodiff.tape_nodes.max"] = float(max(counts["tape_nodes"], default=0))
    flat["autodiff.backward.useful_ratio"] = useful / total if total else 0.0
    flat["control_node.ik_solve.jacobians"] = p50(counts["ik_jacobians"])
    flat["shape_node.rollout_shape.batch"] = p50(counts["rollout_batch"])
    return table, flat


def span_dur(rec: dict, name: str) -> float:
    return rec["trace"]["spans"][name]["dur_s"]


def span_calls(rec: dict, name: str) -> int:
    return len(rec["trace"]["spans"][name]["self_s"])


def gate_projection(wl: Workload, plain: list[Rep], traced: list[Rep]) -> dict:
    """This workload's part of the acceptance gate's wall time.

    End-to-end (untraced) command times are split by the traced spans'
    proportions, so the tracing overhead does not inflate the result.
    """
    size = wl.size
    command = list(wl.work_units())[-1]
    plain_s = mean_timed(plain, command)
    proj = {}
    rec = traced[0].record(command)
    scale = plain_s / rec["timed_s"]
    if wl.name == "shape-fit":
        iters = size["shape_iterations"]
        n = size["shape_samples"]
        n_val = max(1, int(round(0.1 * n)))
        val_s = span_dur(rec, "shape_node._validation_loss") * scale
        val_calls = span_calls(rec, "shape_node._validation_loss")
        t_iter = (span_dur(rec, "shape_node.train_shape_node") * scale - val_s) / iters
        t_val_sample = val_s / (val_calls * n_val)
        t_read_sample = span_dur(rec, "reports.read_dataset_csv") / n
        val_runs = 1 + GATE_SHAPE_ITERATIONS // GATE_VAL_INTERVAL
        total = (
            GATE_SHAPE_ITERATIONS * t_iter
            + (val_runs + 1) * GATE_VAL_SAMPLES * t_val_sample  # +1: final report
            + GATE_SHAPE_SAMPLES * t_read_sample
        )
        gen_s = mean_timed(plain, "generate")
        proj = {
            "shape_iteration_s": t_iter,
            "shape_validation_s_per_sample": t_val_sample,
            "shape_model_3seg_10k_it_s": total,
            "shape_model_budget_s": GATE_SHAPE_BUDGET_S,
            "shape_model_within_budget": total <= GATE_SHAPE_BUDGET_S,
            "generate_10k_samples_s": gen_s / n * GATE_SHAPE_SAMPLES,
        }
    elif wl.name == "policy-fit":
        t_iter = plain_s / size["policy_iterations"]
        proj = {
            "policy_iteration_s": t_iter,
            "policy_2200_it_s": GATE_POLICY_ITERATIONS * t_iter,
        }
    else:
        ik_s = span_dur(rec, "control_node.ik_solve") * scale
        loop_s = span_dur(rec, "control_node.closed_loop_track") * scale
        trials = span_calls(rec, "control_node.closed_loop_track")
        ik_trial = ik_s / span_calls(rec, "control_node.ik_solve")
        tick = (loop_s - ik_s) / track_ticks(size)
        other_trial = (plain_s - loop_s) / trials
        proj = {
            "ik_per_trial_s": ik_trial,
            "tick_s": tick,
            "eval_other_per_trial_s": other_trial,
            "ik_share_of_20_tick_trial": ik_trial / (ik_trial + 20 * tick),
            "ik_share_of_200_tick_trial": ik_trial / (ik_trial + 200 * tick),
            "tracking_eval_20x200_s": GATE_TRIALS
            * (ik_trial + GATE_TICKS * tick + other_trial),
        }
    return proj


def combined_policy_gate(proj: dict, wl_name: str, size: str) -> dict | None:
    """Policy training plus tracking evaluation, from this run and the
    latest traced run of the other workload, at the same size, in this
    checkout."""
    other = {"policy-fit": "track-eval", "track-eval": "policy-fit"}.get(wl_name)
    if other is None:
        return None
    found = sorted(
        (OUT / "results").glob(f"{other}-seed*-trace1.json"),
        key=lambda p: p.stat().st_mtime,
    )
    for path in reversed(found):
        record = json.loads(path.read_text())
        if record["size"] != size:
            continue
        both = {**record.get("gate_projection", {}), **proj}
        if "policy_2200_it_s" not in both or "tracking_eval_20x200_s" not in both:
            return None
        total = both["policy_2200_it_s"] + both["tracking_eval_20x200_s"]
        return {
            "policy_plus_tracking_s": total,
            "budget_s": GATE_POLICY_BUDGET_S,
            "within_budget": total <= GATE_POLICY_BUDGET_S,
            "other_part_from": path.name,
        }
    return None


# ---------------------------------------------------------------------------
# one workload


def load_declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def output_checks(wl: Workload, runner: Runner, plain: list[Rep],
                  traced: list[Rep]) -> dict:
    """Rerun, tracing and workload checks; the quality figures."""
    for k, rep in enumerate(plain[1:], start=1):
        diff = same_tree(plain[0].out, rep.out)
        runner.check(f"rerun {k} with the same seed is byte-identical", not diff, diff)
    for k, rep in enumerate(traced):
        diff = same_tree(plain[0].out, rep.out)
        runner.check(f"traced run {k} is byte-identical to the untraced run", not diff, diff)
    for k, rep in enumerate(plain + traced):
        wl.check_outputs(rep.out, runner, f"rep {k}")
    try:
        quality = wl.quality(plain[0].out)
    except (OSError, KeyError, ValueError) as exc:
        runner.check("quality figures are readable", False, repr(exc))
        return {}
    finite = all(math.isfinite(v) for v, _ in quality.values())
    runner.check("quality figures are finite", finite, str(quality))
    return quality


def trace_results(wl: Workload, plain: list[Rep], traced: list[Rep], work: Path) -> dict:
    """Per-layer statistics, tracing overhead and gate projection."""
    table, flat = layer_stats(traced)
    flat["trace_overhead.setup_s"] = median([r.setup_s for r in traced]) - median(
        [r.setup_s for r in plain]
    )
    flat["trace_overhead.wall_s"] = mean_timed(traced) - mean_timed(plain)
    flat["trace_overhead.peak_rss_mb"] = median([r.peak_rss_mb for r in traced]) - median(
        [r.peak_rss_mb for r in plain]
    )
    try:
        proj = gate_projection(wl, plain, traced)
    except ZeroDivisionError:
        # a span the projection splits by is gone from the library
        proj = {"unavailable": "a span it needs recorded no calls"}
    combined = combined_policy_gate(proj, wl.name, wl.size_name)
    if combined is not None:
        proj["combined"] = combined
    return {
        "per_layer": table,
        "per_layer_metrics": flat,
        "gate_projection": proj,
        "spans_files": [
            str(p.relative_to(ROOT)) for p in sorted(work.glob("traced*/records/*.spans.json"))
        ],
    }


def run_workload(args) -> int:
    t_begin = time.perf_counter()
    if not (ROOT / "src" / "shapectl" / "cli.py").is_file():
        raise BenchmarkError(f"no shapectl sources under {ROOT / 'src'}")
    declared = load_declared()
    size = SIZES[args.size]
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, t_begin + TIME_LIMIT_S)
    machine = machine_record()
    wl = WORKLOAD_CLASSES[args.workload](args.size, write_ini(work / "run.ini", size), args.seed)

    t0 = time.perf_counter()
    inputs = wl.build_inputs(runner, work)
    build_s = time.perf_counter() - t0

    # two untraced repetitions at least, so that a rerun can be compared;
    # in a traced run the traced repetition is that rerun
    traced_run = args.trace == 1
    budget = args.seconds / 2 if traced_run else args.seconds
    plain = measure(wl, runner, work, inputs, "plain", "rep", budget,
                    min_reps=1 if traced_run else 2)
    if not plain:
        raise BenchmarkError(f"the first repetition failed, see {runner.log}")
    traced = []
    if traced_run:
        traced = measure(wl, runner, work, inputs, "trace", "traced", budget, min_reps=1)
    dataset = plain[0].out / "generate" / "dataset.csv"
    probes = [run_rep(wl, runner, work / f"probe{k}", inputs, "probe", dataset)
              for k in range(PROBES)]
    quality = output_checks(wl, runner, plain, traced)
    attempted = len(runner.checks)
    failed = sum(not c["ok"] for c in runner.checks)

    setups = [r.setup_s for r in plain] + [p.setup_s for p in probes if p is not None]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "wall_s": (mean_timed(plain), "s"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in plain]), "MB"),
    }
    for command, units in wl.work_units().items():
        end_to_end[THROUGHPUT[command]] = (units / mean_timed(plain, command), "1/s")
    end_to_end.update(quality)
    end_to_end["failed_ratio"] = (failed / attempted, "ratio")
    result = {
        "workload": wl.name,
        "why": declared["why"][wl.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine,
        "inputs_build_s": build_s,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setup_samples": len(setups),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "spread_over_repetitions": {
            "setup_s": spread(setups),
            "wall_s": spread([r.wall_s for r in plain]),
        },
        "repetition_wall_s": [r.wall_s for r in plain],
        "setup_samples_s": setups,
        "checks": runner.checks,
        "attempted": attempted,
        "failed": failed,
    }
    if traced_run:
        result.update(trace_results(wl, plain, traced, work))
        values, kind = result["per_layer_metrics"], "per_layer"
    else:
        values, kind = {k: v for k, (v, _) in end_to_end.items()}, "end_to_end"
    missing = [name for name in declared[kind] if name not in values]
    if missing:
        raise BenchmarkError(f"declared metrics not measured: {missing}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print_report(result, record_path)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared[kind].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(result: dict, record_path: Path) -> None:
    m = result["machine"]
    print(
        f"shapectl benchmark: {result['workload']}, seed {result['seed']},"
        f" {result['seconds']} s, trace {result['trace']}, size {result['size']}"
    )
    print(
        f"machine: Python {m['python']}, numpy {m['numpy']}, {m['blas']},"
        f" BLAS threads {m['blas_threads_reported']} (env {m['blas_threads_env']}),"
        f" nproc {m['nproc']}, {m['cpu_model']},"
        f" matmul 256^3 f64 {m['matmul256_f64_gflops']:.1f} GFLOPS"
    )
    print(
        f"inputs built in {result['inputs_build_s']:.2f} s;"
        f" {result['repetitions']} repetitions, {result['setup_samples']} set-up samples"
    )
    print("end-to-end (set-up: median of samples; timings: mean over the run):")
    for name, entry in result["end_to_end"].items():
        print(f"  {name:24s} {entry['value']:14.6g} {entry['unit']}")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"  FAILED check: {c['check']}: {c['detail']}")
    print(f"checks: {result['attempted'] - result['failed']}/{result['attempted']} passed")
    if "per_layer" in result:
        print("per-layer (traced run; self time, share of the cli.main wall):")
        print(f"  {'span':34s} {'calls':>7s} {'self p50 ms':>12s} {'tail ms':>10s} {'share':>7s}")
        for name, row in result["per_layer"].items():
            if row["calls"]:
                print(
                    f"  {name:34s} {row['calls']:7d} {row['self_ms_p50']:12.4f}"
                    f" {row['self_ms_tail']:10.4f}"
                    f"@p{row['tail_percentile']:g} {row['share']:7.4f}"
                )
        flat = result["per_layer_metrics"]
        for name in sorted(flat):
            if not name.endswith((".calls", ".share", ".self_ms_p50", ".self_ms_tail")):
                print(f"  {name:34s} {flat[name]:.6g}")
        print("gate projection (not gated):")
        for name, value in result["gate_projection"].items():
            print(f"  {name}: {value}")
    print(f"record: {record_path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    summary = {}
    ok = True
    attempted = failed = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            summary[name] = {"exit_code": proc.returncode}
            continue
        last = json.loads(lines[-1])
        ok = ok and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        summary[name] = last["metrics"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny: small networks and counts, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
