#!/usr/bin/env python3
"""Benchmark of gatecalc: four closed-loop workloads, end to end and per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload swap-synth --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all     # each workload in a fresh process

One caller sends one item at a time and waits for it (a closed loop), in a
single process whose numpy thread pools are capped at the number of usable
cores.  gatecalc is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics: set-up time as the median of
several fresh processes that import gatecalc and build the workload's
inputs, then full passes over the items.  The number of passes is
``--seconds`` divided by the workload's nominal pass time (at least one),
so it does not depend on how fast a pass runs and is the same on every
commit measured with the same ``--seconds``.  Latency percentiles are
nearest-rank over every item of every pass; for the search workloads an
item is one whole search.  Peak RSS is read at the end of the first
pass, as a caller running one job per process would see it.  All times,
per-layer ones too, are host-normalized (see REF_KERNEL_S below); the raw
wall-clock times are in the info line.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``tracing.LAYER_METRICS``, including the tracing
overhead.  Every item's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and any failed item makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("swap-synth", "ring-project", "search-mitm", "search-wide")
# fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = {"full": 11, "smoke": 1}
# Times are host-normalized.  On a shared host the CPU runs up to 1.5x slower
# at some moments than at others, changing from one tenth of a second to the
# next and from minute to minute, and that slows all code alike.  So a fixed
# pure-Python kernel that shares nothing with gatecalc is timed between items,
# and each measured duration is divided by the kernel's mean time around it
# over REF_KERNEL_S: times read as seconds on a host where the kernel takes
# REF_KERNEL_S.  Raw wall-clock figures are printed in the info line.
REF_KERNEL_S = 0.00045
CAL_GAP_S = 0.01  # item time between calibrations, and per extra kernel run
CAL_SETUP_SAMPLES = 200
CAL_MAX_SAMPLES = 1000
# seconds of one full pass on a 2-core x86-64 VM (Python 3.11, numpy 2.4)
NOMINAL_PASS_S = {"swap-synth": 15.0, "ring-project": 11.0, "search-mitm": 9.0, "search-wide": 4.0}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=seed, default=20240801)
    p.add_argument("--seconds", type=seconds, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def git_rev() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def time_setup(args) -> float:
    """Seconds from starting a fresh process until its workload is ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _reference_kernel():
    total = 0
    for i in range(8000):
        total += i * i % 7
    return total


def slowdown(samples: int) -> float:
    """Mean time of the reference kernel over ``samples`` runs, over REF_KERNEL_S."""
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        _reference_kernel()
    return (clock() - start) / samples / REF_KERNEL_S


def calibration_samples(gap: float) -> int:
    return max(1, min(CAL_MAX_SAMPLES, round(gap / CAL_GAP_S)))


def time_setups(args, count: int) -> list[tuple[float, float]]:
    """(raw, normalized) seconds of ``count`` fresh-process set-ups."""
    out = []
    before = slowdown(CAL_SETUP_SAMPLES)
    for _ in range(count):
        raw = time_setup(args)
        after = slowdown(CAL_SETUP_SAMPLES)
        out.append((raw, raw / ((before + after) / 2)))
        before = after
    return out


class Pass:
    """One full pass over a workload's items, calibrated between items.

    ``latencies`` are raw seconds per item, ``normalized`` the same divided
    by the host slowdown measured just before and just after the item's
    stretch of items.  ``wall`` is the normalized time to the full answer.
    """

    def __init__(self, workload, tracer=None):
        run_item = workload.run_item
        if tracer is not None:
            run_item = tracer.wrap("item", run_item)
        self.latencies = []
        self.normalized = []
        self.slowdowns = []
        self.failed = 0
        self.errors = []
        clock = time.perf_counter
        pending = []
        before = slowdown(CAL_MAX_SAMPLES)
        since = clock()
        for item in workload.items:
            t = clock()
            try:
                ok = run_item(item)
            except Exception as exc:  # a raising item is a failed item
                ok = False
                self.errors.append(f"{type(exc).__name__}: {exc}")
            pending.append(clock() - t)
            self.failed += not ok
            gap = clock() - since
            if gap >= CAL_GAP_S or len(pending) + len(self.latencies) == len(workload.items):
                after = slowdown(calibration_samples(gap))
                factor = (before + after) / 2
                self.slowdowns.append(factor)
                self.latencies += pending
                self.normalized += [x / factor for x in pending]
                pending = []
                before = after
                since = clock()
        self.raw_wall = sum(self.latencies)
        self.wall = sum(self.normalized)


def measure(workload, args, size):
    """End-to-end metrics from untraced passes."""
    setups = time_setups(args, SETUP_SAMPLES[size])
    count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    passes = [Pass(workload)]
    # a one-shot caller's peak; later passes start from a heap the first has grown
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes += [Pass(workload) for _ in range(count - 1)]
    latencies = sorted(t for p in passes for t in p.normalized)
    metrics = {
        "setup_s": statistics.median(n for _, n in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "items_per_s": statistics.median(workload.work / p.wall for p in passes),
        "item_p50_ms": percentile(latencies, 50) * 1e3,
        "item_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_samples": len(setups),
        "passes": len(passes),
        "raw_setup_s": [round(r, 4) for r, _ in setups],
        "raw_pass_walls_s": [round(p.raw_wall, 4) for p in passes],
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "host_slowdown": statistics.mean(f for p in passes for f in p.slowdowns),
        "latency_samples": len(latencies),
        "samples_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
    }
    return passes, metrics, END_TO_END, samples


def trace(workload):
    """Per-layer metrics from a traced pass, and its overhead over an untraced one."""
    import tracing

    plain = Pass(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(workload, tracer)
    finally:
        tracer.uninstall()
    # span times are normalized like the end-to-end ones, by the traced pass's slowdown
    factor = statistics.mean(traced.slowdowns)
    metrics = {
        name: value / factor if tracing.LAYER_METRICS[name] == "s"
        else value * factor if tracing.LAYER_METRICS[name].endswith("/s")
        else value
        for name, value in tracer.layer_metrics().items()
    }
    metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
    samples = {"passes": 2, "spans": tracer.span_count}
    return [plain, traced], metrics, tracing.LAYER_METRICS, samples


def run_one(args) -> int:
    size = "smoke" if args.smoke else "full"
    nproc = usable_cores()
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import gatecalc

    if not Path(gatecalc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gatecalc was imported from {gatecalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, size)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        passes, metrics, units, samples = trace(workload)
    else:
        passes, metrics, units, samples = measure(workload, args, size)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "threads_cap": {var: os.environ[var] for var in THREAD_VARS},
        "inputs": workload.info,
        "items_per_pass": len(workload.items),
        "work_per_pass": workload.work,
        "work_unit": workload.unit,
        **samples,
        "failed_frac": failed / attempted,
        "errors": sorted(set(e for p in passes for e in p.errors))[:5],
    }
    for name, unit in units.items():
        print(f"{args.workload:<13} {name:<32} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:<13} {'failed_frac':<32} {failed / attempted:>16.6g} ratio")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, since peak RSS is process-wide."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gatecalc" / "__init__.py").is_file():
        print(f"error: no gatecalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
