"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` of work have been
measured and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of repetitions with spans around every layer entry point and
prints the per-layer metrics; it replays the same repetitions untraced
in a child process to measure the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are the
human-readable report.  The exit code is 1 when an output check failed
and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: End-to-end metric units (``--trace 0``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reps", type=int, default=None,
        help="run exactly this many repetitions, untimed set-up (internal)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and construct the workload, then exit (internal)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        workload = cls(args.seed, SCRATCH / f"setup-{args.workload}")
        # perf_counter is CLOCK_MONOTONIC on Linux, so the parent can
        # subtract its own reading taken just before the spawn.
        print(f"perfbench-ready {time.perf_counter()!r}", flush=True)
        workload.finish()
        return 0
    if args.trace:
        return traced_run(cls, args)

    setup_samples = [] if args.reps is not None else measure_setup(args)
    workload = cls(args.seed, SCRATCH / f"run-{args.workload}-{args.seed}")
    if not setup_samples:
        setup_samples = [time.perf_counter() - STARTED]
    reps = 0
    rss_mb = None
    started = time.perf_counter()
    while (
        reps < args.reps if args.reps is not None
        else reps < cls.min_reps or time.perf_counter() - started < args.seconds
    ):
        workload.rep(reps, None)
        reps += 1
        if reps == cls.min_reps:
            # Process-wide plan caches grow with every repetition, and
            # how many repetitions fit depends on the host's speed: the
            # peak after a fixed amount of work is what compares.
            rss_mb = workloads.peak_rss_mb()
    if rss_mb is None:
        rss_mb = workloads.peak_rss_mb()
    report = workload.finish()

    metrics = dict(report.metrics)
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    print_detail(args, reps, report, [
        ("setup_s", metrics["setup_s"][0], "s", f"host, median of {len(setup_samples)}"),
        ("peak_rss_mb", rss_mb, "MB", f"after {cls.min_reps} repetition(s)"),
    ])
    print(f"perfbench-work {json.dumps({'reps': reps, 'work_s': report.work_s})}")
    missing = set(END_TO_END_UNITS) - set(metrics)
    if missing:
        report.mismatches.append(f"no samples for {', '.join(sorted(missing))}")
    return emit(report, {
        name: metrics.get(name, (0.0, unit)) for name, unit in END_TO_END_UNITS.items()
    })


def measure_setup(args) -> list:
    """Set-up of ``SETUP_SAMPLES`` fresh processes that import the program
    and construct the workload: from just before each process is spawned
    to the point where its first timed operation would begin."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.run(
            command, check=True, timeout=120, capture_output=True, text=True
        )
        ready = float(child.stdout.split("perfbench-ready ", 1)[1].split()[0])
        samples.append(ready - started)
    return samples


def traced_run(cls, args) -> int:
    from perfbench import layers
    from perfbench.tracer import Tracer

    workload = cls(args.seed, SCRATCH / f"trace-{args.workload}-{args.seed}")
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        for index in range(cls.trace_reps):
            workload.rep(index, tracer)
    finally:
        tracer.restore()
    report = workload.finish()
    tracer.dump(SCRATCH / f"spans-{args.workload}-seed{args.seed}.json")

    # The same repetitions, untraced, in a fresh process of their own.
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0", "--reps", str(cls.trace_reps)],
        check=False, timeout=170, capture_output=True, text=True,
    )
    untraced_s = 0.0
    for line in child.stdout.splitlines():
        if line.startswith("perfbench-work "):
            untraced_s = json.loads(line.split(" ", 1)[1])["work_s"]
    if child.returncode != 0 or not untraced_s:
        report.mismatches.append(f"untraced replay failed (exit {child.returncode})")

    values = layers.layer_metrics(tracer, cls.trace_reps, report.work_s, untraced_s)
    wall_ms = values["trace.wall_ms"]
    share = values["trace.unattributed_ms"] / wall_ms if wall_ms else 0.0
    detail = [
        ("absent spans", len(tracer.absent), "count", ", ".join(tracer.absent)),
        ("unattributed share", share, "ratio", "of the traced wall"),
    ]
    print_detail(args, cls.trace_reps, report, detail)
    for name, unit in layers.PER_LAYER_UNITS.items():
        print(f"  {name:34s} {values[name]:14.4f} {unit}")
    return emit(report, {name: (values[name], unit)
                         for name, unit in layers.PER_LAYER_UNITS.items()})


def print_detail(args, reps, report, extra) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={reps} work={report.work_s:.3f}s")
    for name, value, unit, note in list(report.detail) + list(extra):
        print(f"  {name:34s} {value:14.4f} {unit:6s} {note}")
    for mismatch in report.mismatches:
        print(f"  CHECK FAILED: {mismatch}")


def emit(report, metrics) -> int:
    correct = not report.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
