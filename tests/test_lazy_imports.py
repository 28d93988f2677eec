"""The package exports load on first access, the closed-form commands run
without numpy, ``lasekit.dynamics`` or ``lasekit.numerics``, and the
``dynamics``, ``sweep`` and ``figure`` commands and the algebraic oracle
without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lasekit
import lasekit.dynamics
import lasekit.numerics
import lasekit.params
import lasekit.steady
from lasekit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "lasekit.dynamics", "lasekit.numerics")

# Every name the package exported when its __init__ imported each module
# eagerly, under the module that defines it.
HOME = {
    lasekit.params: (
        "BlochState2", "BlochState3", "DimensionlessSchemeA", "DimensionlessSchemeB",
        "DimensionlessTwoLevel", "IntegratorConfig", "PhysicalThreeLevel",
        "PhysicalTwoLevel", "PumpScheme", "Regime", "SteadyResult",
        "equilibrium_populations_three", "equilibrium_populations_two",
        "expand_scheme_a", "expand_scheme_b", "expand_two",
        "gamma_parallel_and_inversion", "gamma_perp_three", "gamma_perp_two",
        "reduce_three", "reduce_two",
    ),
    lasekit.steady: (
        "ExtremumReport", "LasingWindow", "WindowReport", "depletion_ratio_window",
        "n_min_atoms", "n_scheme_a", "n_scheme_b", "n_three_physical", "n_two_level",
        "optimum_scheme_b", "optimum_two", "raw_bracket_scheme_a",
        "raw_bracket_scheme_b", "raw_bracket_two", "saturation_limit_scheme_a",
        "threshold_scheme_a", "threshold_scheme_b", "threshold_two",
        "window_scheme_b", "window_two",
    ),
    lasekit.numerics: (
        "SweepSeries", "algebraic_oracle_three", "algebraic_oracle_two",
        "pump_grid", "sweep",
    ),
    lasekit.dynamics: (
        "SettleResult", "StiffnessError", "TimeSeries", "default_t_max",
        "derivs_three", "derivs_two", "fixed_point_state", "initial_state",
        "integrate", "jacobian_three", "jacobian_two", "settle",
    ),
}
NAMES = sorted(name for names in HOME.values() for name in names)

CFG = {
    "model": "three-b",
    "parameterization": "physical",
    "params": {
        "n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
        "gamma_21": 1, "gamma_02": 2, "gamma_10": 0.1, "gamma_ph": 0,
    },
}


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports lasekit from ``src``;
    at exit it writes the HEAVY modules it loaded as the last stderr line."""
    probe = (
        "import atexit, sys\n"
        f"atexit.register(lambda: sys.stderr.write('\\nloaded=' + ','.join("
        f"m for m in {HEAVY!r} if m in sys.modules) + '\\n'))\n"
        + code
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env)


def _loaded(proc: subprocess.CompletedProcess) -> list[str]:
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded="), proc.stderr
    return [m for m in last[len("loaded="):].split(",") if m]


def test_bare_import_loads_no_numpy():
    proc = _child("import lasekit\nassert lasekit.__version__\n")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == []


@pytest.mark.parametrize("command", ["steady", "region"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_form_commands_load_no_numpy(tmp_path, command, fmt):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG), encoding="utf-8")
    proc = _child("import runpy\nrunpy.run_module('lasekit', run_name='__main__')\n",
                  command, "--config", str(path), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{" if fmt == "json" else "model: three-b")
    assert _loaded(proc) == []


def test_dynamics_command_loads_its_modules(tmp_path):
    # the probe itself can see the modules a command imports on demand;
    # dynamics writes from the recorded step buffer, so no numpy
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG), encoding="utf-8")
    for fmt in ("csv", "json"):
        proc = _child("import runpy\nrunpy.run_module('lasekit', run_name='__main__')\n",
                      "dynamics", "--config", str(path), "--t-max", "0.1", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("{" if fmt == "json" else "# model=three-b")
        assert set(_loaded(proc)) == {"lasekit.dynamics"}, fmt


@pytest.mark.parametrize("argv", [
    ["sweep", "--pump-min", "0.01", "--pump-max", "120", "--points", "50", "--scale", "log"],
    ["sweep", "--pump-min", "0.01", "--pump-max", "120", "--points", "50", "--format", "json"],
    ["figure", "fig4b"],
], ids=["sweep-csv", "sweep-json", "figure"])
def test_sweep_and_figure_load_no_numpy(tmp_path, argv):
    # the pump grid and the rows are Python floats, written as they are
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG), encoding="utf-8")
    if argv[0] == "figure":
        argv = argv + ["--out", str(tmp_path)]
    else:
        argv = argv + ["--config", str(path)]
    proc = _child("import runpy\nrunpy.run_module('lasekit', run_name='__main__')\n", *argv)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "figure":
        assert proc.stdout.splitlines() == [str(tmp_path / f"fig4b_curve{i}.csv") for i in (1, 2, 3)]
    else:
        assert proc.stdout.startswith("{" if "json" in argv else "# model=three-b")
    assert _loaded(proc) == ["lasekit.numerics"]


def test_algebraic_oracle_loads_no_numpy():
    # the 2x2 population balance is solved by Cramer's rule on floats
    code = (
        "import lasekit\n"
        "p = lasekit.PhysicalThreeLevel(n_atoms=100, coupling_g=1, cavity_kappa=1,"
        " gamma_21=1, gamma_02=2, gamma_10=0.1, gamma_ph=0, scheme=lasekit.PumpScheme.B)\n"
        "assert lasekit.algebraic_oracle_three(p) > 0.0\n"
    )
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == ["lasekit.numerics"]


def test_stepper_runs_without_numpy(tmp_path):
    # the DOP853 module is compiled on the first run, never by an import;
    # neither a converging settle, its Newton polish included, nor the
    # dynamics command, which records with the same stepper, loads numpy
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG), encoding="utf-8")
    code = (
        "import lasekit, lasekit.cli\n"
        "assert 'lasekit._dop853' not in sys.modules\n"
        "assert lasekit.settle(lasekit.PhysicalTwoLevel(n_atoms=1e3, coupling_g=1,"
        " cavity_kappa=1, gamma_decay=1, pump_Gamma=4, gamma_ph=0)).converged\n"
        "assert 'lasekit._dop853' in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
        "assert lasekit.cli.main(['dynamics', '--config', sys.argv[1],"
        " '--t-max', '0.1']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = _child(code, str(path))
    assert proc.returncode == 0, proc.stderr


def test_every_export_is_its_home_object():
    wrong = [name for module, names in HOME.items() for name in names
             if getattr(lasekit, name) is not getattr(module, name)]
    assert wrong == []
    assert sorted(lasekit.__all__) == NAMES
    assert set(NAMES) <= set(dir(lasekit))


def test_integrator_config_lives_in_params():
    assert lasekit.IntegratorConfig is lasekit.dynamics.IntegratorConfig
    assert lasekit.IntegratorConfig.__module__ == "lasekit.params"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from lasekit import *", namespace)
    assert set(NAMES) <= namespace.keys()
    assert all(namespace[name] is getattr(lasekit, name) for name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lasekit.no_such_name
    assert not hasattr(lasekit, "maximize")


def test_stiffness_error_from_recorded_run_exits_4(tmp_path, capsys, monkeypatch):
    def stiff(*args, **kwargs):
        raise lasekit.StiffnessError(1.0, [0.5, 0.25, 0.0, 1e-3])

    # the recorded run that the dynamics command takes its rows from
    monkeypatch.setattr(lasekit.dynamics, "_recorded", stiff)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG), encoding="utf-8")
    assert main(["dynamics", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step size underflow at t = 1.0 ")
