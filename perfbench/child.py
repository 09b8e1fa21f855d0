"""Run one shapectl CLI command in this fresh process and record its timing.

Usage::

    python3 perfbench/child.py RECORD MODE -- CLI-ARGS...

``MODE`` is ``plain`` (time set-up only, the end-to-end measurement),
``probe`` (stop at the command's first work call, to sample set-up
again) or ``trace`` (spans around every layer).  ``shapectl`` must be on
``PYTHONPATH``.  The record, a JSON object, is written to ``RECORD``;
the exit code is the CLI's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import shapectl.cli as cli  # noqa: E402  (imports every shapectl module)
import tracing  # noqa: E402


def main() -> int:
    record_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "probe", "trace") or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = None
    setup_timer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_timer = tracing.SetupTimer()
        setup_timer.install()
        if mode == "probe":
            tracing.Stopper(argv[0]).install()
    stopped = False
    t_main0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except tracing.SetupDone:
        rc, stopped = 0, True
    t_main1 = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "stopped_after_setup": stopped,
        "t_start": T_START,
        "t_main0": t_main0,
        "t_main1": t_main1,
        "maxrss_kb": usage.ru_maxrss,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
    }
    if tracer is not None:
        summary = tracer.summary()
        record["setup_fn_s"] = sum(
            summary["spans"][name]["dur_s"] for name in tracing.SETUP_SPANS
        )
        record["trace"] = summary
        spans_path = Path(record_path).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.raw_spans()), encoding="utf-8")
    else:
        record["setup_fn_s"] = setup_timer.seconds
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
