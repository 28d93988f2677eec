#!/usr/bin/env python3
"""Tests of the benchmark's output checks, run apart from the timed runs.

    python3 perfbench/selftest.py

Each check must pass the program's real output and reject a deliberately
wrong one: a photon number off by 1e-4, a window edge or optimum moved, an
altered CSV row, a pulsing run reported as settled.  Exits 1 when any
check misbehaves: accepts a wrong output or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import lasekit  # noqa: E402
from lasekit import cli  # noqa: E402

import checks as C  # noqa: E402
import recipes as R  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, errors: list[str], wrong: bool) -> None:
    if bool(errors) != wrong:
        FAILURES.append(f"{name}: {'accepted a wrong' if wrong else 'rejected a right'} output {errors}")
    print(f"{'ok  ' if bool(errors) == wrong else 'FAIL'} {name}")


def sweep_text(model: str, prm: dict) -> str:
    d = {"two-level": lasekit.DimensionlessTwoLevel, "three-a": lasekit.DimensionlessSchemeA,
         "three-b": lasekit.DimensionlessSchemeB}[model](**prm)
    fn = {"two-level": lasekit.n_two_level, "three-a": lasekit.n_scheme_a,
          "three-b": lasekit.n_scheme_b}[model]
    series = lasekit.sweep(lambda p: fn(d, p), W._sweep_range(model, prm), 50, "log", metadata=prm)
    buf = io.StringIO()
    cli.emit_sweep_csv(series, buf)
    return buf.getvalue()


def off_by(text: str, rel: float) -> str:
    """The sweep CSV with the largest photon number scaled by (1 + rel)."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    top = max(rows, key=lambda i: float(lines[i].split(",")[1]))
    pump, n, regime = lines[top].split(",")
    lines[top] = f"{pump},{float(n) * (1.0 + rel)!r},{regime}"
    return "\n".join(lines) + "\n"


def altered_row(text: str, column: int) -> str:
    """The time-series CSV with one cell of its middle data row scaled by
    (1 + 1e-12)."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    row = rows[len(rows) // 2]
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-12))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    rng = W.np.random.default_rng(1)
    for model in ("two-level", "three-a", "three-b"):
        prm = W._random_config(rng, model)
        text = sweep_text(model, prm)
        expect(f"{model} sweep", C.check_sweep_text(model, prm, text, 50, model), False)
        expect(f"{model} sweep, photon number off by 1e-4",
               C.check_sweep_text(model, prm, off_by(text, 1e-4), 50, model), True)

    for model, window_fn, optimum_fn, threshold_fn in (
        ("two-level", lasekit.window_two, lasekit.optimum_two, lasekit.threshold_two),
        ("three-b", lasekit.window_scheme_b, lasekit.optimum_scheme_b, lasekit.threshold_scheme_b),
    ):
        prm = W._random_config(rng, model)
        d = (lasekit.DimensionlessTwoLevel if model == "two-level" else lasekit.DimensionlessSchemeB)(**prm)
        win = window_fn(d).exact
        thr, opt = threshold_fn(d), optimum_fn(d).pump_exact
        expect(f"{model} region", C.check_region(model, prm, thr, (win.lower, win.upper), opt), False)
        expect(f"{model} region, upper edge moved by 1 %",
               C.check_region(model, prm, thr, (win.lower, 1.01 * win.upper), opt), True)
        expect(f"{model} region, threshold moved by 1 %",
               C.check_region(model, prm, 1.01 * thr, (win.lower, win.upper), opt), True)
        expect(f"{model} region, optimum moved by 1e-5",
               C.check_region(model, prm, thr, (win.lower, win.upper), opt * (1.0 + 1e-5)), True)
        expect(f"{model} region, window missing",
               C.check_region(model, prm, thr, None, opt), True)

    p = R.draw_three_level(W.np.random.default_rng(2))
    res = lasekit.settle(p, initial=R.nudged_fixed_state(p))
    expect("settle", C.check_settle(p, res), False)
    expect("settle, photon number off by 1e-4",
           C.check_settle(p, dataclasses.replace(res, photon_number=res.photon_number * (1 + 1e-4))), True)
    expect("settle, not converged", C.check_settle(p, dataclasses.replace(res, converged=False)), True)

    traj = W.Trajectory(3, NullTracer(), models=("three-b",))
    seen = set()
    for index, (kind, fn) in enumerate(traj.ops()):
        outcome = fn()
        series, text = outcome.value
        _, p, cfg = traj.runs[index]
        errors = traj.check(index, outcome)
        if kind in seen:
            if errors:
                expect(f"{kind} trajectory {index}", errors, False)
            continue
        seen.add(kind)
        expect(f"{kind} trajectory", errors, False)
        if kind == "pulsing":
            expect("pulsing run reported as settled",
                   C.check_trajectory(kind, p, dataclasses.replace(series, steady=True), cfg.t_max), True)
        if kind == "lasing":
            expect("lasing run that did not settle",
                   C.check_trajectory(kind, p, dataclasses.replace(series, steady=False), cfg.t_max), True)
            for column, what in ((-1, "photon number"), (1, "state")):
                expect(f"time-series CSV with an altered {what}",
                       C.check_roundtrip(series, altered_row(text, column)), True)

    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    for failure in FAILURES:
        print(failure, file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
