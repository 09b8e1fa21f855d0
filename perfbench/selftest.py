#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Usage::

    python3 perfbench/selftest.py

It checks ``BENCHMARK.json`` against its format rules (keys, counts,
name and unit syntax, bounds). It then runs every workload
through ``run.py --size tiny``, untraced and traced. For each run it
asserts that:

- the last line holds exactly the declared metrics, with their units;
- the record carries every named per-workload figure with a valid name
  and unit, plus the machine record;
- the output checks ran and passed.

Finally, ``run.py`` must fail cleanly in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on the first failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 3

# figures every record must carry, by workload, beyond the declared ones
NAMED = {
    "shape-fit": ["sim_samples_per_s", "shape_train_it_per_s", "shape_val_loss_mm"],
    "policy-fit": ["policy_train_it_per_s", "policy_final_loss"],
    "track-eval": ["track_ticks_per_s", "track_rmse_mm"],
}
# substrings of check names each run must have performed; a traced run's
# rerun is its traced repetition
CHECKS = {
    "shape-fit": ["exits 0"],
    "policy-fit": ["exits 0"],
    "track-eval": ["exits 0", "actions inside [q_min, q_max]"],
}
RERUN = {
    0: "rerun 1 with the same seed is byte-identical",
    1: "traced run 0 is byte-identical to the untraced run",
}
MACHINE = (
    "python",
    "numpy",
    "blas",
    "blas_threads_env",
    "nproc",
    "cpu_model",
    "matmul256_f64_gflops",
)


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def check_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    expect(path.stat().st_size <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    spec = json.loads(path.read_text(encoding="utf-8"))
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys: {sorted(spec)}",
    )
    expect(1 <= len(spec["paths"]) <= 16, "paths count")
    for p in spec["paths"]:
        expect(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) is not None, f"path {p!r}")
        expect(not p.startswith("/") and ".." not in p.split("/"), f"path {p!r}")
        expect((ROOT / p).is_dir(), f"path {p!r} is not a directory")
    cmd = spec["command"]
    expect(1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd), "command")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    expect(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    expect(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"keys of {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}: {m['unit']!r}")
        expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
        names.append(m["name"])
    for name in names:
        expect(NAME.match(name) is not None, f"name {name!r}")
    expect(len(names) == len(set(names)), "names are not unique")
    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
    expect(setup is not None and setup["unit"] == "s" and setup["better"] == "lower",
           "setup_s missing or malformed")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must have the largest bound")
    return spec


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    label = f"{workload} trace {trace}"
    proc = run_bench(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        ROOT,
    )
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    expect(last["correct"] is True and last["failed"] == 0, f"{label}: checks failed")
    expect(isinstance(last["attempted"], int) and last["attempted"] >= 1,
           f"{label}: attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    expect(set(last["metrics"]) == {m["name"] for m in declared},
           f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = last["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        value = got["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: value of {m['name']}: {value!r}")

    record = json.loads(
        (OUT / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    for name in NAMED[workload] + ["setup_s", "wall_s", "peak_rss_mb", "failed_ratio"]:
        entry = record["end_to_end"].get(name)
        expect(entry is not None, f"{label}: {name} missing from the record")
        expect(NAME.match(name) is not None and UNIT.match(entry["unit"]) is not None,
               f"{label}: name or unit of {name}")
        expect(math.isfinite(entry["value"]), f"{label}: {name} is not finite")
    expect(record["end_to_end"]["failed_ratio"]["value"] == 0, f"{label}: failed_ratio")
    for key in MACHINE:
        expect(key in record["machine"], f"{label}: machine record lacks {key}")
    names = [c["check"] for c in record["checks"]]
    wanted = CHECKS[workload] + [RERUN[trace]]
    for want in wanted:
        expect(any(want in n for n in names), f"{label}: no check like {want!r}")
    if trace:
        expect(abs(record["per_layer_metrics"]["trace.share_sum"] - 1.0) < 0.01,
               f"{label}: shares do not account for the cli.main wall")
        expect(record["gate_projection"], f"{label}: no gate projection")
    print(f"ok  {label}: {len(last['metrics'])} metrics, {last['attempted']} checks")


def check_bare_directory() -> None:
    """Without the program's sources the run fails without a result."""
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "shape-fit", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without the program's sources")
    expect(not any(line.startswith("{") for line in proc.stdout.splitlines()),
           "run.py printed a result without the program's sources")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = check_spec()
    print("ok  BENCHMARK.json")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
