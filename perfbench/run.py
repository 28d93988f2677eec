#!/usr/bin/env python3
"""lasekit benchmark: one workload per run.

    python3 perfbench/run.py --workload settle_oracle --seed 20250810 --seconds 15 --trace 0

Run from the repository root; lasekit is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics, with ``--trace 1``
it records spans around the calls into lasekit and reports the per-layer
metrics.  Detail lines and the environment go to standard output first;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A traced run writes its spans to
``perfbench/out/trace-<workload>.jsonl.gz``, replacing the last one.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("settle_oracle", "trajectory", "closed_form", "cli_cold")
SETUP_RUNS = 3
# Machine-speed calibration.  On a shared host the CPU speed can drift by
# 15-20 % over tens of seconds, more than any bound the benchmark could
# keep.  A fixed pure-Python loop, timed between operations all through
# the run, measures that speed.  Each operation's time is scaled by
# REF_NOMINAL_MS / (the loop's median over the timings within
# REF_WINDOW_S of it), i.e. given at the speed where the loop takes
# REF_NOMINAL_MS.  The raw times are printed as detail lines.
REF_ITERATIONS = 25_000
REF_NOMINAL_MS = 2.0
REF_EVERY_S = 0.1
REF_BURST = 5
REF_WINDOW_S = 2.0
DEFAULT_SEED = 20250810  # the criterion-01 seed; two-level draws use seed + 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all four in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import lasekit, build the inputs and exit (timed by the parent)")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import lasekit and build
    this workload's inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def reference_ms() -> float:
    """Milliseconds of one pass of the calibration loop."""
    start = time.perf_counter()
    x = s = 1.0
    for _ in range(REF_ITERATIONS):
        x = x * 0.999 + 0.001
        s += x * x
    return (time.perf_counter() - start) * 1e3


def measure(wl, tracer, seconds: float):
    """Whole rounds of the workload's operations until the next round
    would end past ``seconds``; at least one round.  Returns the per-op
    timings, start times and sub-timings of every round, the first round's
    outputs, the failure flags of every round, the (time, ms) of the
    calibration-loop passes taken between operations, and a message for
    every operation that raised."""
    ops = wl.ops()
    try:  # warm-up, untimed: lazy imports and first-call costs
        ops[0][1]()
    except Exception:  # the measured rounds record it
        pass
    failed_fn = getattr(wl, "failed", None)
    times = [[] for _ in ops]
    stamps = [[] for _ in ops]
    parts = [[] for _ in ops]
    failed = [[] for _ in ops]
    first = []
    refs = []
    raised = []
    last_ref = -math.inf
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, (_, fn) in enumerate(ops):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs += [(time.perf_counter(), reference_ms()) for _ in range(REF_BURST)]
                last_ref = time.perf_counter()
            tracer.begin_op()
            t0 = time.perf_counter()
            try:
                outcome = fn()
            except Exception as e:  # an operation that raises is an error, not the run's end
                outcome = e
                raised.append(f"op {i} ({ops[i][0]}) raised {e!r}")
            times[i].append(time.perf_counter() - t0)
            stamps[i].append(t0)
            parts[i].append(getattr(outcome, "parts", {}))
            failed[i].append(bool(failed_fn and not isinstance(outcome, Exception)
                                  and failed_fn(i, outcome)))
            if len(first) < len(ops):
                first.append(outcome)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    refs += [(time.perf_counter(), reference_ms()) for _ in range(REF_BURST)]
    return ops, times, stamps, parts, failed, first, refs, raised


def calibrated(times, stamps, refs) -> list[list[float]]:
    """Each time in ms at the nominal speed, scaled by the calibration
    loop's median over the passes within REF_WINDOW_S of the operation."""
    at = [t for t, _ in refs]
    out = []
    for ts, ss in zip(times, stamps):
        row = []
        for dt, t0 in zip(ts, ss):
            lo = bisect.bisect_left(at, t0 - REF_WINDOW_S)
            hi = bisect.bisect_right(at, t0 + dt + REF_WINDOW_S)
            local = statistics.median(ms for _, ms in refs[lo:hi])
            row.append(dt * 1e3 * REF_NOMINAL_MS / local)
        out.append(row)
    return out


def tail(values: list[float]):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least ten samples beyond it; None under forty samples."""
    n = len(values)
    if n < 40:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    k = math.ceil(n * q / 100.0)
    return q, ordered[k - 1], n - k


def detail_lines(name: str, ops, times, parts, ok) -> list[tuple[str, float, str]]:
    """The workload's own end-to-end figures, named as in the README."""
    kinds = [k for k, _ in ops]
    okt = [t for ts, oks in zip(times, ok) for t, good in zip(ts, oks) if good]
    lines = []
    if name == "settle_oracle":
        lines.append(("settle_ms_p50", statistics.median(okt) * 1e3, "ms"))
        tl = tail(okt)
        if tl:
            lines.append((f"settle_ms_tail (p{tl[0]}, {tl[2]} of {len(okt)} draws beyond)",
                          tl[1] * 1e3, "ms"))
        lines.append(("settles_per_s", len(okt) / sum(okt), "1/s"))
    elif name == "trajectory":
        lines.append(("trajectory_ms_p50", statistics.median(okt) * 1e3, "ms"))
        lines.append(("trajectories_per_s", len(okt) / sum(okt), "1/s"))
    elif name == "closed_form":
        cfg = [p for k, ps in zip(kinds, parts) if k == "config" for p in ps if p]
        lines.append(("region_ms_p50", statistics.median(p["region_s"] for p in cfg) * 1e3, "ms"))
        from workloads import SWEEP_POINTS
        lines.append(("sweep_points_per_s",
                      SWEEP_POINTS * len(cfg) / sum(p["sweep_s"] for p in cfg), "1/s"))
        fig = [ts for k, ts in zip(kinds, times) if k == "figure"]
        if fig:
            lines.append(("figure_s", statistics.median(map(sum, zip(*fig))), "s"))
    else:
        for kind, ts, oks in zip(kinds, times, ok):
            good = [t for t, g in zip(ts, oks) if g]
            if good:
                lines.append((f"cli_{kind}_s", statistics.median(good), "s"))
    return lines


def run(args) -> int:
    if args.setup_only:
        from spans import NullTracer
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, NullTracer())
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    print("# env " + json.dumps(environment()), flush=True)

    from spans import NullTracer, Tracer
    import layers
    import workloads

    tracer = Tracer() if args.trace else NullTracer()
    f_evals: list[int] = []
    with layers.counting_maximize(f_evals) if args.trace else contextlib.nullcontext():
        wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
        ops, times, stamps, parts, failed, first, refs, raised = measure(wl, tracer, args.seconds)
        errors = raised + [f"op {i} ({ops[i][0]}): {e}" for i, out in enumerate(first)
                           if not isinstance(out, Exception) for e in wl.check(i, out)]
        counts: dict = {}
        if args.trace:
            if args.workload == "settle_oracle":
                counts = wl.layer_counts([ts[0] for ts in times])
            probe_counts, probe_errors = layers.probe(args.seed, tracer)
            counts = counts or probe_counts
            errors += probe_errors

    ok = [[not f for f in fs] for fs in failed]
    attempted = sum(len(ts) for ts in times)
    n_failed = sum(sum(fs) for fs in failed)
    okt = [t for ts, oks in zip(calibrated(times, stamps, refs), ok) for t, good in zip(ts, oks) if good]
    op_ms_geomean = math.exp(statistics.fmean(map(math.log, okt)))
    ref_ms = statistics.median(ms for _, ms in refs)

    print(f"# workload {args.workload}: seed {args.seed}, {len(ops)} operations per round, "
          f"{attempted // len(ops)} rounds, {attempted} attempted, {n_failed} failed")
    print(f"# calibration loop: median {ref_ms:.4g} ms over {len(refs)} passes "
          f"(nominal {REF_NOMINAL_MS} ms); raw times follow")
    for label, value, unit in detail_lines(args.workload, ops, times, parts, ok):
        print(f"# {label} = {value:.6g} {unit}")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        os.makedirs(workloads.OUT, exist_ok=True)
        path = os.path.join(workloads.OUT, f"trace-{args.workload}.jsonl.gz")
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        metrics = layers.per_layer(tracer, layers.import_times(), counts, f_evals, op_ms_geomean)
    else:
        rss = getattr(wl, "peak_rss_mb", None) or \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "op_ms_geomean": {"value": op_ms_geomean, "unit": "ms"},
        }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, one child process at a time; the last line
    sums the counts and keys each metric by workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lasekit", "__init__.py")):
        print(f"error: no lasekit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    # One CPU for the run and its children: the CPUs of a shared host can
    # differ in speed by 20 %, and a calibration loop timed on one says
    # nothing about work done on another.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(HERE, "out", str(os.getpid()))
    try:
        return run(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
