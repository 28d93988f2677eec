"""The four workloads.

Each builds its inputs from the seed in ``__init__`` (the set-up), lists
one round of operations in ``ops`` and checks an operation's output with
``check``.  An operation is a (kind, callable) pair; the callable returns
an ``Outcome`` whose value ``check`` reads.  Calls into lasekit go through the
tracer under the name "<module>.<function>".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from functools import partial

import numpy as np

import lasekit
import lasekit.cli as cli
from lasekit import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
)

import checks as C
import recipes as R

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def workdir() -> str:
    """This process's scratch directory; the run removes it when it ends."""
    path = os.path.join(OUT, str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path

# the configuration of the README's CLI section
README_PARAMS = {"n_atoms": 100.0, "coupling_g": 1.0, "cavity_kappa": 1.0,
                 "gamma_21": 1.0, "gamma_02": 2.0, "gamma_10": 0.1, "gamma_ph": 0.0}
README_CONFIG = {"model": "three-b", "parameterization": "physical",
                 "params": README_PARAMS, "integrator": {"t_max": 200.0}}
SWEEP_POINTS = 400
FIGURES = ("fig2", "fig4a", "fig4b")
FIGURE_POINTS = 400


def readme_rates(**changes) -> PhysicalThreeLevel:
    return PhysicalThreeLevel(**{**README_PARAMS, **changes}, scheme=PumpScheme.B)


class Outcome:
    """Output of one operation, with the sub-timings the detail lines use."""

    def __init__(self, value, **parts):
        self.value = value
        self.parts = parts


# --------------------------------------------------------------------------
# settle_oracle
# --------------------------------------------------------------------------

class SettleOracle:
    """Stable lasing draws settled from their nudged closed-form fixed point.

    The draws are the criterion-01 (scheme B) and criterion-02 (two-level)
    recipes.  A pool is drawn from the seed; draws with a fast slowest mode
    are left out (``recipes.SLOW_MODE_FREQUENCY_CAP``), and a systematic
    sample is taken over the stiffness of the rest, top included (see
    ``recipes.stratified``).
    """

    name = "settle_oracle"
    config = IntegratorConfig()

    def __init__(self, seed: int, tracer, n_three: int = 400, n_two: int = 40, pool: int = 5):
        rng3 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed + 1)
        three = [R.draw_three_level(rng3) for _ in range(pool * n_three)]
        two = [R.draw_two_level(rng2) for _ in range(pool * n_two)]
        three, two = ([p for p in draws if R.slow_mode_frequency(p) <= R.SLOW_MODE_FREQUENCY_CAP]
                      for draws in (three, two))
        self.draws = R.stratified(three, R.stiffness, n_three) + R.stratified(
            two, R.stiffness, n_two
        )
        self.starts = [R.nudged_fixed_state(p) for p in self.draws]
        self.tracer = tracer
        self._settle = tracer.wrap("dynamics.settle", lasekit.settle)

    def ops(self):
        return [("settle", partial(self._op, p, s)) for p, s in zip(self.draws, self.starts)]

    def _op(self, p, start):
        return Outcome(self._settle(p, initial=start, config=self.config))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        p = self.draws[index]
        errors = C.check_settle(p, outcome.value)
        model, prm, pump = R.dimensionless_of(p)
        if isinstance(p, PhysicalThreeLevel):
            closed = lasekit.n_three_physical(p).photon_number
            errors += C.rel_error(lasekit.algebraic_oracle_three(p), closed, C.IDENTITY_REL,
                                  "algebraic oracle vs n_three_physical")
        else:
            d, _ = lasekit.reduce_two(p)
            closed = lasekit.n_two_level(d, pump).photon_number
        expected, scale = R.photon_number(model, prm, pump)
        errors += C.identity_error(closed, expected, scale, "closed form")
        return errors

    def layer_counts(self, op_seconds: list[float], stride: int = 4) -> dict:
        """Accepted steps, seconds per step and the share of steps taken
        after the scaled derivative norm first drops below 1e-6*(|y| + 1),
        on every ``stride``-th draw.  ``integrate(stop_at_steady=True)``
        from the same start takes the steps ``settle`` takes and records
        them."""
        steps = tail = 0
        seconds = 0.0
        for i in range(0, len(self.draws), stride):
            p = self.draws[i]
            series = self.tracer.call(
                "dynamics.integrate_steps", lasekit.integrate, p, initial=self.starts[i],
                config=self.config, stop_at_steady=True,
            )
            n = len(series.times) - 1
            steps += n
            seconds += op_seconds[i]
            tail += n - _first_slow_index(p, series)
        return {"steps": steps, "draws": len(range(0, len(self.draws), stride)),
                "seconds": seconds, "tail": tail}


def _first_slow_index(p, series) -> int:
    """Index of the first recorded state whose derivative norm is below
    1e-6*(|y| + 1); the last index when none is."""
    three = isinstance(p, PhysicalThreeLevel)
    for i, row in enumerate(series.states):
        if three:
            f = lasekit.derivs_three(lasekit.BlochState3(*row), p)
        else:
            f = lasekit.derivs_two(lasekit.BlochState2(*row), p)
        if math.sqrt(float(f @ f)) < 1e-6 * (math.sqrt(float(row @ row)) + 1.0):
            return i
    return len(series.states) - 1


# --------------------------------------------------------------------------
# trajectory
# --------------------------------------------------------------------------

class Trajectory:
    """``lasekit dynamics`` in-process: pump scans per model from the
    seed-field initial state, stop at steady, each written as CSV; plus
    one Hopf-unstable scheme-B run to an explicit t_max."""

    name = "trajectory"
    hopf_t_max = 200.0

    def __init__(self, seed: int, tracer, models=("two-level", "three-a", "three-b")):
        rng = np.random.default_rng(seed)
        self.runs = []  # (kind, params, config)
        default = IntegratorConfig()
        for model in models:
            for kind, p in _pump_scan(rng, model):
                self.runs.append((kind, p, default))
        self.runs.append(("pulsing", readme_rates(gamma_02=0.5), IntegratorConfig(t_max=self.hopf_t_max)))
        self.tracer = tracer
        self._integrate = tracer.wrap("dynamics.integrate", lasekit.integrate)

    def ops(self):
        return [(kind, partial(self._op, p, cfg)) for kind, p, cfg in self.runs]

    def _op(self, p, config):
        start = lasekit.initial_state(p, seed_field=1e-3)
        series = self._integrate(p, initial=start, config=config, stop_at_steady=True)
        buf = io.StringIO()
        self.tracer.call("cli.emit_timeseries_csv", cli.emit_timeseries_csv, series, buf,
                         metadata={"seed_field": 1e-3}, _n=len(series.times))
        return Outcome((series, buf.getvalue()))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        kind, p, cfg = self.runs[index]
        series, text = outcome.value
        return C.check_trajectory(kind, p, series, cfg.t_max) + C.check_roundtrip(series, text)


def _jitter(rng) -> float:
    return float(10.0 ** rng.uniform(-0.02, 0.02))


# log positions of the lasing pumps between threshold and upper edge; the
# lower part of the scheme-B window is Hopf-unstable at README-like rates
_LASING_POSITIONS = (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85)


def _pump_scan(rng, model: str) -> list[tuple[str, object]]:
    """README-like rates jittered by up to 5 %, and relative pumps: two
    below threshold, nine through the window and two beyond the upper
    edge where there is one.  A lasing pump whose fixed point fails the
    stability filter moves up the window until it passes."""
    n_at, g, kappa = 100.0 * _jitter(rng), _jitter(rng), _jitter(rng)
    if model == "two-level":
        gamma = _jitter(rng)
        s = kappa * gamma / (2.0 * n_at * g * g)
        lo, hi = R.quadratic_window(*R.coeffs_two(s, 0.0))

        def make(pump):
            return PhysicalTwoLevel(n_atoms=n_at, coupling_g=g, cavity_kappa=kappa,
                                    gamma_decay=gamma, pump_Gamma=pump * gamma, gamma_ph=0.0)
    else:
        scheme = PumpScheme.A if model == "three-a" else PumpScheme.B
        ref = (2.0 if model == "three-a" else 1.0) * _jitter(rng)
        g10 = 0.1 * _jitter(rng)
        s, eps = kappa * ref / (2.0 * n_at * g * g), g10 / ref
        if model == "three-a":
            lo = eps * s * (1.0 + eps) / (1.0 - eps - s * (1.0 + eps) ** 2)
            hi = math.inf
        else:
            lo, hi = R.quadratic_window(*R.coeffs_b(s, eps, 0.0))

        def make(pump):
            rates = {"gamma_21": pump * ref, "gamma_02": ref} if model == "three-a" \
                else {"gamma_21": ref, "gamma_02": pump * ref}
            return PhysicalThreeLevel(n_atoms=n_at, coupling_g=g, cavity_kappa=kappa,
                                      gamma_10=g10, gamma_ph=0.0, scheme=scheme, **rates)

    runs = [("dark", make(lo * rng.uniform(0.3, 0.4))), ("dark", make(lo * rng.uniform(0.6, 0.7)))]
    top = hi if math.isfinite(hi) else 1e4 * lo
    for position in _LASING_POSITIONS:
        position += rng.uniform(-0.01, 0.01)
        while not R.stable_fixed_point(p := make(lo * (top / lo) ** position)):
            position += 0.02
            if position > 0.97:
                raise RuntimeError(f"no stable lasing pump in the {model} window")
        runs.append(("lasing", p))
    if math.isfinite(hi):
        runs += [("dark", make(hi * rng.uniform(1.3, 1.4))), ("dark", make(hi * rng.uniform(1.7, 1.8)))]
    return runs


# --------------------------------------------------------------------------
# closed_form
# --------------------------------------------------------------------------

_DIMENSIONLESS = {"two-level": DimensionlessTwoLevel, "three-a": DimensionlessSchemeA,
                  "three-b": DimensionlessSchemeB}
_EVALUATE = {"two-level": ("steady.n_two_level", lasekit.n_two_level),
             "three-a": ("steady.n_scheme_a", lasekit.n_scheme_a),
             "three-b": ("steady.n_scheme_b", lasekit.n_scheme_b)}


class ClosedForm:
    """Region reports and log pump sweeps (as CSV) of seeded dimensionless
    configurations, and the three figure presets through ``cli.main``."""

    name = "closed_form"

    def __init__(self, seed: int, tracer, per_model: int = 8, figures=FIGURES):
        rng = np.random.default_rng(seed)
        self.configs = [(m, _random_config(rng, m)) for _ in range(per_model) for m in _DIMENSIONLESS]
        self.ranges = [_sweep_range(m, prm) for m, prm in self.configs]
        self.figures = figures
        self.figdir = workdir()
        self.tracer = tracer

    def ops(self):
        ops = [("config", partial(self._config_op, i)) for i in range(len(self.configs))]
        return ops + [("figure", partial(self._figure_op, f)) for f in self.figures]

    def _config_op(self, index: int):
        model, prm = self.configs[index]
        tr = self.tracer
        d = _DIMENSIONLESS[model](**prm)
        t0 = time.perf_counter()
        if model == "two-level":
            region = (tr.call("steady.threshold", lasekit.threshold_two, d),
                      tr.call("steady.window", lasekit.window_two, d).exact,
                      tr.call("steady.optimum", lasekit.optimum_two, d))
        elif model == "three-b":
            region = (tr.call("steady.threshold", lasekit.threshold_scheme_b, d),
                      tr.call("steady.window", lasekit.window_scheme_b, d).exact,
                      tr.call("steady.optimum", lasekit.optimum_scheme_b, d))
        else:
            region = (tr.call("steady.threshold", lasekit.threshold_scheme_a, d),
                      tr.call("steady.saturation_limit", lasekit.saturation_limit_scheme_a, d),
                      None)
        t1 = time.perf_counter()
        name, fn = _EVALUATE[model]
        evaluate = tr.wrap(name, partial(fn, d))
        meta = {"model": model, **prm}
        series = tr.call("numerics.sweep", lasekit.sweep, evaluate, self.ranges[index],
                         SWEEP_POINTS, "log", metadata=meta, _n=SWEEP_POINTS)
        buf = io.StringIO()
        tr.call("cli.emit_sweep_csv", cli.emit_sweep_csv, series, buf, _n=SWEEP_POINTS)
        t2 = time.perf_counter()
        return Outcome((region, buf.getvalue()), region_s=t1 - t0, sweep_s=t2 - t1)

    def _figure_op(self, preset: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.tracer.call("cli.main_figure", cli.main, ["figure", preset, "--out", self.figdir])
        return Outcome((rc, out.getvalue().split()))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        if index >= len(self.configs):
            return self._check_figure(outcome)
        model, prm = self.configs[index]
        (threshold, window, optimum), text = outcome.value
        if model == "three-a":
            window = optimum = None
        else:
            window = None if window is None else (window.lower, window.upper)
            optimum = None if optimum is None else optimum.pump_exact
        errors = C.check_region(model, prm, threshold, window, optimum)
        return errors + C.check_sweep_text(model, prm, text, SWEEP_POINTS, f"{model} sweep")

    def _check_figure(self, outcome: Outcome) -> list[str]:
        rc, paths = outcome.value
        if rc != 0 or len(paths) != 3:
            return [f"figure exited {rc} with {paths!r}"]
        errors = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            meta, _, _ = C.parse_sweep_text(text)
            model, prm = C.sweep_params(meta)
            errors += C.check_sweep_text(model, prm, text, FIGURE_POINTS, os.path.basename(path))
        return errors


def _random_config(rng, model: str) -> dict:
    """Seeded dimensionless parameters with a lasing threshold (and, for
    the quadratic models, a finite window)."""
    while True:
        scale = float(10.0 ** rng.uniform(2.0, 6.0))
        if model == "two-level":
            s = float(10.0 ** rng.uniform(-7.0, -2.0))
            prm = {"photon_scale": scale, "saturation": s,
                   "dephasing": float(rng.uniform(0.0, 0.1) / s)}
            if R.quadratic_window(*R.coeffs(model, prm)) is not None:
                return prm
            continue
        s = float(10.0 ** rng.uniform(-3.0, -1.0))
        eps = float(10.0 ** rng.uniform(-3.0, -0.5))
        prm = {"photon_scale": scale, "saturation": s, "decay_ratio": eps,
               "dephasing": float(rng.uniform(0.0, 1.0))}
        if model == "three-a":
            if _threshold_a(prm) is not None:
                return prm
        elif R.quadratic_window(*R.coeffs(model, prm)) is not None:
            return prm


def _threshold_a(prm: dict) -> float | None:
    s, eps, delta = prm["saturation"], prm["decay_ratio"], prm["dephasing"]
    denom = 1.0 - eps - s * (1.0 + eps + delta) * (1.0 + eps)
    thr = eps * s * (1.0 + eps + delta) / denom if denom > 0.0 else math.inf
    return thr if thr < 10.0 else None


def _sweep_range(model: str, prm: dict) -> tuple[float, float]:
    """[max(1e-2, threshold/2), 1.2 * upper edge], or to 1e2 without one."""
    if model == "three-a":
        return max(1e-2, 0.5 * _threshold_a(prm)), 1e2
    lo, hi = R.quadratic_window(*R.coeffs(model, prm))
    return max(1e-2, 0.5 * lo), 1.2 * hi


# --------------------------------------------------------------------------
# cli_cold
# --------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("LASEKIT_PRECISION", None)
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one child to its end; (exit code, stdout, stderr, peak RSS in
    MB).  The child is reaped with wait4 for its own rusage."""
    errpath = os.path.join(workdir(), "child-stderr.txt")
    with open(errpath, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return proc.returncode, out.decode("utf-8", "replace"), stderr, usage.ru_maxrss / 1024.0


class CliCold:
    """Each CLI command from a fresh interpreter on the README
    configuration, one child at a time, plus ``dynamics --format json``."""

    name = "cli_cold"

    def __init__(self, seed: int, tracer):
        rng = np.random.default_rng(seed)
        self.dir = workdir()
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(README_CONFIG, fh)
        self.steady_pump = float(10.0 ** rng.uniform(0.0, 1.5))
        self.dynamics_pump = float(rng.uniform(1.5, 3.0))
        self.figure = FIGURES[int(rng.integers(len(FIGURES)))]
        lasekit_cmd = [sys.executable, "-m", "lasekit"]
        cfg = ["--config", self.config]
        self.commands = [
            ("steady", lasekit_cmd + ["steady"] + cfg + ["--pump", repr(self.steady_pump), "--format", "json"]),
            ("region", lasekit_cmd + ["region"] + cfg + ["--format", "json"]),
            ("sweep", lasekit_cmd + ["sweep"] + cfg + ["--pump-min", "0.01", "--pump-max", "120",
                                                       "--points", str(SWEEP_POINTS), "--scale", "log"]),
            ("dynamics", lasekit_cmd + ["dynamics"] + cfg + ["--pump", repr(self.dynamics_pump)]),
            ("figure", lasekit_cmd + ["figure", self.figure, "--out", self.dir]),
            ("dynamics_json", lasekit_cmd + ["dynamics"] + cfg + ["--pump", repr(self.dynamics_pump),
                                                                  "--format", "json"]),
        ]
        self.tracer = tracer
        self.peak_rss_mb = 0.0

    def ops(self):
        return [(kind, partial(self._op, kind, argv)) for kind, argv in self.commands]

    def _op(self, kind: str, argv: list[str]):
        rc, out, err, rss = self.tracer.call(f"process.cli_{kind}", run_child, argv)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return Outcome((rc, out, err))

    def failed(self, index: int, outcome: Outcome) -> bool:
        """``dynamics --format json`` fails while its stdout is no JSON document."""
        if self.commands[index][0] != "dynamics_json":
            return False
        try:
            return not isinstance(json.loads(outcome.value[1]), dict)
        except json.JSONDecodeError:
            return True

    def check(self, index: int, outcome: Outcome) -> list[str]:
        kind = self.commands[index][0]
        rc, out, err = outcome.value
        if rc != 0:
            return [f"lasekit {kind} exited {rc}: {err.strip()[-300:]}"]
        model, prm, readme_pump = R.dimensionless_of(readme_rates())
        if kind == "steady":
            doc = json.loads(out)
            expected, scale = R.photon_number(model, prm, self.steady_pump)
            return C.identity_error(doc["photon_number"], expected, scale, "cli steady photon number")
        if kind == "region":
            doc = json.loads(out)
            win = doc["window"]
            window = None if win is None else (win["lower"], win["upper"])
            opt = doc["optimum"]
            return C.check_region(model, prm, doc["threshold"], window,
                                  None if opt is None else opt["pump_exact"])
        if kind == "sweep":
            return C.check_sweep_text(model, prm, out, SWEEP_POINTS, "cli sweep")
        if kind == "figure":
            errors = []
            for i in range(1, 4):
                with open(os.path.join(self.dir, f"{self.figure}_curve{i}.csv"), encoding="utf-8") as fh:
                    text = fh.read()
                meta, _, _ = C.parse_sweep_text(text)
                errors += C.check_sweep_text(*C.sweep_params(meta), text, FIGURE_POINTS,
                                             f"cli figure curve {i}")
            return errors
        if kind == "dynamics_json" and not self.failed(index, outcome):
            return []  # a JSON document: its layout is not fixed yet
        series, _ = cli.parse_timeseries_csv(io.StringIO(out))
        return C.check_trajectory("lasing", readme_rates(gamma_02=self.dynamics_pump), series)


WORKLOADS = {w.name: w for w in (SettleOracle, Trajectory, ClosedForm, CliCold)}
