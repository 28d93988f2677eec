"""Per-layer metrics of the traced run.

A metric comes from the spans of the workload's own operations where the
workload calls that function.  Where it does not, a probe fills in: a
short seeded pass of the other workloads' operations at small size, of
``cli.main`` in-process on the README configuration, of ``parse_config``
and ``reduce_three``, and of ``python -X importtime``.  Probes run only in
the traced run and only for spans the workload left empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import lasekit
import lasekit.cli as cli
import lasekit.steady as steady_mod

import recipes as R
import workloads as W

IMPORT_RUNS = 3
MAIN_RUNS = 3
MICRO_CALLS = 200

# name -> unit; the order is the order of the output
UNITS = {
    "import.lasekit_s": "s",
    "import.scipy_optimize_s": "s",
    "import.numpy_s": "s",
    "params.reduce_three_us": "us",
    "steady.n_two_level_us": "us",
    "steady.n_scheme_a_us": "us",
    "steady.n_scheme_b_us": "us",
    "steady.window_us": "us",
    "steady.optimum_ms": "ms",
    "numerics.sweep_us_per_point": "us",
    "numerics.maximize_f_evals": "count",
    "dynamics.settle_ms": "ms",
    "dynamics.accepted_steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.tail_step_share": "%",
    "dynamics.integrate_ms": "ms",
    "dynamics.recorded_rows": "count",
    "cli.parse_config_us": "us",
    "cli.emit_sweep_csv_us_per_row": "us",
    "cli.emit_timeseries_csv_us_per_row": "us",
    "cli.main_steady_ms": "ms",
    "cli.main_region_ms": "ms",
    "cli.main_sweep_ms": "ms",
    "cli.main_dynamics_ms": "ms",
    "cli.main_figure_ms": "ms",
    "trace.op_ms_geomean": "ms",
}


@contextlib.contextmanager
def counting_maximize(evals: list[int]):
    """Wrap the callable ``lasekit.steady`` passes to ``maximize`` so each
    optimum appends its exact number of function evaluations."""
    original = getattr(steady_mod, "maximize", None)
    if original is None:
        yield
        return

    def counted(f, lo, hi, *args, **kwargs):
        n = 0

        def g(x):
            nonlocal n
            n += 1
            return f(x)

        try:
            return original(g, lo, hi, *args, **kwargs)
        finally:
            evals.append(n)

    steady_mod.maximize = counted
    try:
        yield
    finally:
        steady_mod.maximize = original


def import_times() -> dict[str, float]:
    """Median cumulative import seconds of lasekit, scipy.optimize and
    numpy over fresh ``python -X importtime -c 'import lasekit'`` runs; 0
    for a module that ``import lasekit`` does not load."""
    runs: dict[str, list[float]] = {"lasekit": [], "scipy.optimize": [], "numpy": []}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lasekit"],
            capture_output=True, text=True, cwd=W.ROOT, env=W.child_env(), check=True,
        )
        seen: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(2) in runs and m.group(2) not in seen:
                seen[m.group(2)] = int(m.group(1)) * 1e-6
        for name in runs:
            runs[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in runs.items()}


def run_ops(workload, tracer) -> tuple[list[float], list[str]]:
    """One traced round of ``workload``; (op seconds, check errors)."""
    seconds, errors = [], []
    for index, (kind, fn) in enumerate(workload.ops()):
        tracer.begin_op()
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception as e:  # reported as a check error, like the measured operations
            errors.append(f"probe {workload.name} op {index} ({kind}) raised {e!r}")
            outcome = None
        seconds.append(time.perf_counter() - t0)
        if outcome is not None:
            errors += workload.check(index, outcome)
    return seconds, errors


def probe(seed: int, tracer) -> tuple[dict, list[str]]:
    """Fill in the layers the workload's own spans left empty; returns the
    settle step counts (when the settle probe ran) and check errors."""
    counts: dict = {}
    errors: list[str] = []
    if not tracer.durations("dynamics.settle"):
        wl = W.SettleOracle(seed, tracer, n_three=6, n_two=2)
        seconds, errs = run_ops(wl, tracer)
        errors += errs
        counts = wl.layer_counts(seconds, stride=1)
    if not tracer.durations("dynamics.integrate"):
        errors += run_ops(W.Trajectory(seed, tracer, models=("three-b",)), tracer)[1]
    if not tracer.durations("numerics.sweep"):
        errors += run_ops(W.ClosedForm(seed, tracer, per_model=1, figures=()), tracer)[1]

    workdir = W.workdir()
    config = os.path.join(workdir, "readme.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(W.README_CONFIG, fh)
    mains = {
        "steady": ["steady", "--config", config, "--pump", "2", "--format", "json"],
        "region": ["region", "--config", config, "--format", "json"],
        "sweep": ["sweep", "--config", config, "--pump-min", "0.01", "--pump-max", "120",
                  "--points", str(W.SWEEP_POINTS), "--scale", "log"],
        "dynamics": ["dynamics", "--config", config],
        "figure": ["figure", "fig4b", "--out", workdir],
    }
    for name, argv in mains.items():
        if tracer.durations(f"cli.main_{name}"):
            continue
        for _ in range(MAIN_RUNS):
            tracer.begin_op()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tracer.call(f"cli.main_{name}", cli.main, argv)
            if rc != 0:
                errors.append(f"cli.main {name} exited {rc}")

    rng = np.random.default_rng(seed)
    doc = json.loads(json.dumps(W.README_CONFIG))
    for _ in range(MICRO_CALLS):
        doc["params"]["gamma_02"] = float(R.log_uniform(rng, 1e-1, 1e2))
        tracer.begin_op()
        tracer.call("cli.parse_config", cli.parse_config, doc)
    for _ in range(MICRO_CALLS):
        g, kappa, g21, g02, g10, gph = (float(v) for v in R.log_uniform(rng, 1e-2, 1e2, 6))
        p = lasekit.PhysicalThreeLevel(
            n_atoms=float(R.log_uniform(rng, 1.0, 1e4)), coupling_g=g, cavity_kappa=kappa,
            gamma_21=g21, gamma_02=g02, gamma_10=g10, gamma_ph=gph, scheme=lasekit.PumpScheme.B,
        )
        tracer.begin_op()
        tracer.call("params.reduce_three", lasekit.reduce_three, p)
    return counts, errors


def per_layer(tracer, imports: dict, counts: dict, f_evals: list[int], op_ms_geomean: float) -> dict:
    """Every per-layer metric, from the spans and the counts."""

    def per_call(name: str, scale: float) -> float:
        spans = tracer.durations(name)
        return statistics.median(d / n for d, n in spans) * scale if spans else 0.0

    def per_item(name: str, scale: float) -> float:
        spans = tracer.durations(name)
        items = sum(n for _, n in spans)
        return sum(d for d, _ in spans) / items * scale if items else 0.0

    rows = [n for _, n in tracer.durations("cli.emit_timeseries_csv")]
    steps = counts.get("steps", 0)
    values = {
        "import.lasekit_s": imports["lasekit"],
        "import.scipy_optimize_s": imports["scipy.optimize"],
        "import.numpy_s": imports["numpy"],
        "params.reduce_three_us": per_call("params.reduce_three", 1e6),
        "steady.n_two_level_us": per_call("steady.n_two_level", 1e6),
        "steady.n_scheme_a_us": per_call("steady.n_scheme_a", 1e6),
        "steady.n_scheme_b_us": per_call("steady.n_scheme_b", 1e6),
        "steady.window_us": per_call("steady.window", 1e6),
        "steady.optimum_ms": per_call("steady.optimum", 1e3),
        "numerics.sweep_us_per_point": per_item("numerics.sweep", 1e6),
        "numerics.maximize_f_evals": statistics.mean(f_evals) if f_evals else 0.0,
        "dynamics.settle_ms": per_call("dynamics.settle", 1e3),
        "dynamics.accepted_steps": steps / counts["draws"] if steps else 0.0,
        "dynamics.us_per_step": counts["seconds"] / steps * 1e6 if steps else 0.0,
        "dynamics.tail_step_share": 100.0 * counts["tail"] / steps if steps else 0.0,
        "dynamics.integrate_ms": per_call("dynamics.integrate", 1e3),
        "dynamics.recorded_rows": statistics.mean(rows) if rows else 0.0,
        "cli.parse_config_us": per_call("cli.parse_config", 1e6),
        "cli.emit_sweep_csv_us_per_row": per_item("cli.emit_sweep_csv", 1e6),
        "cli.emit_timeseries_csv_us_per_row": per_item("cli.emit_timeseries_csv", 1e6),
        "trace.op_ms_geomean": op_ms_geomean,
    }
    for name in ("steady", "region", "sweep", "dynamics", "figure"):
        values[f"cli.main_{name}_ms"] = per_call(f"cli.main_{name}", 1e3)
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
