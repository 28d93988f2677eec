"""The package exports load on first access, the closed-form commands run
without numpy, ``lasekit.dynamics`` or ``lasekit.numerics``, and the
``dynamics``, ``sweep`` and ``figure`` commands and the algebraic oracle
without numpy.  numpy is an optional extra, imported through one gate."""

import ast
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


@pytest.mark.parametrize("code, modules", [
    ("import lasekit", []),
    ("import lasekit; lasekit.n_two_level", ["params", "steady"]),
    ("import lasekit; lasekit.IntegratorConfig", ["params"]),
    ("import lasekit.cli", ["cli", "params", "steady"]),
    ("import lasekit; lasekit.sweep", ["numerics", "params", "steady"]),
    ("import lasekit; lasekit.settle", ["dynamics", "numerics", "params", "steady"]),
    ("import lasekit; dir(lasekit)", ["dynamics", "numerics", "params", "steady"]),
], ids=["bare", "closed-form", "params-first", "cli", "sweep", "settle", "dir"])
def test_first_access_loads_modules_up_to_the_home(code, modules):
    # a name is searched for in params, steady, numerics, dynamics order;
    # nothing past its home is imported, and numpy never is
    probe = (code + "\nimport sys\nprint(','.join(sorted("
             "m for m in sys.modules if m == 'numpy' or m.startswith('lasekit.'))))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ",".join(f"lasekit.{m}" for m in modules)


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


# A child that sees no numpy, as if it were not installed: the finder first
# on sys.meta_path refuses it.
WITHOUT_NUMPY = """\
class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == 'numpy' or name.startswith('numpy.'):
            raise ModuleNotFoundError(f'No module named {name!r}', name=name)
sys.meta_path.insert(0, _NoNumpy())
assert 'numpy' not in sys.modules

import contextlib, io, lasekit
from lasekit.cli import main
cfg, stiff, out = sys.argv[1:]
for argv in (['steady'], ['region'],
             ['sweep', '--pump-min', '0.01', '--pump-max', '120', '--points', '50'],
             ['dynamics', '--t-max', '0.1'],
             ['dynamics', '--t-max', '0.1', '--format', 'json']):
    with contextlib.redirect_stdout(io.StringIO()) as fh:
        assert main([argv[0], '--config', cfg, *argv[1:]]) == 0, argv
    assert fh.getvalue(), argv
with contextlib.redirect_stdout(io.StringIO()):
    assert main(['figure', 'fig4b', '--out', out]) == 0
with contextlib.redirect_stderr(io.StringIO()) as fh:
    assert main(['dynamics', '--config', stiff]) == 4
assert fh.getvalue() == (
    'error: step size underflow at t = 0.0 (state (0.8695652173913042, '
    '0.08695652173913043, 0.0, 0.001)); relax tolerances or reduce the rate '
    'disparity\\n'), fh.getvalue()

two = lasekit.PhysicalTwoLevel(n_atoms=1e3, coupling_g=1, cavity_kappa=1,
                               gamma_decay=1, pump_Gamma=4, gamma_ph=0)
three = lasekit.PhysicalThreeLevel(n_atoms=100, coupling_g=1, cavity_kappa=1, gamma_21=1,
                                   gamma_02=2, gamma_10=0.1, gamma_ph=0,
                                   scheme=lasekit.PumpScheme.B)
a = lasekit.DimensionlessSchemeA(photon_scale=1e6, saturation=0.2, decay_ratio=0.01,
                                 dephasing=0)
assert lasekit.n_scheme_a(a, 2.0).photon_number > 0
assert lasekit.n_scheme_b(lasekit.reduce_three(three)[0], 2.0).photon_number > 0
n = lasekit.n_two_level(*lasekit.reduce_two(two)).photon_number
assert abs(lasekit.settle(two).photon_number - n) <= 1e-9 * n
assert abs(lasekit.algebraic_oracle_two(two) - n) <= 1e-9 * n
n = lasekit.n_three_physical(three).photon_number
assert abs(lasekit.settle(three).photon_number - n) <= 1e-9 * n
assert abs(lasekit.algebraic_oracle_three(three) - n) <= 1e-9 * n

try:
    lasekit.integrate(three)
except ImportError as e:
    assert 'integrate' in str(e) and 'lasekit[arrays]' in str(e), e
else:
    raise AssertionError('integrate ran without numpy')
assert 'numpy' not in sys.modules
"""


def test_product_paths_run_without_numpy_installed(tmp_path):
    # every command, exit 4 included, the closed forms, settle and both
    # oracles run; only the array API asks for the extra
    cfg, stiff = tmp_path / "cfg.json", tmp_path / "stiff.json"
    cfg.write_text(json.dumps(CFG), encoding="utf-8")
    stiff.write_text(json.dumps({**CFG, "integrator": {
        "rel_tol": 1e-300, "abs_tol": 1e-300, "t_max": 10}}), encoding="utf-8")
    proc = _child(WITHOUT_NUMPY, str(cfg), str(stiff), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert _loaded(proc) == ["lasekit.dynamics", "lasekit.numerics"]


def _numpy_imports(node: ast.AST, allowed: bool = False):
    """Line numbers of the numpy imports under ``node`` outside a function
    named ``_numpy`` and outside ``if TYPE_CHECKING:`` blocks."""
    if isinstance(node, ast.FunctionDef) and node.name == "_numpy":
        allowed = True
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        allowed = True
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = []
    if not allowed and any(n == "numpy" or n.startswith("numpy.") for n in names):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _numpy_imports(child, allowed)


def test_numpy_is_imported_only_through_its_gate():
    stray, gates = {}, []
    for path in sorted((SRC / "lasekit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = list(_numpy_imports(tree))
        if lines:
            stray[path.name] = lines
        gates += [path.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_numpy"]
    assert stray == {}
    assert gates == ["params.py"]


def test_no_builtin_sum_in_the_package():
    # sum() of floats is compensated from Python 3.12 on, so a population
    # summed with it prints other last digits there than on 3.10 and 3.11
    calls = {}
    for path in sorted((SRC / "lasekit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "sum"]
        if lines:
            calls[path.name] = lines
    assert calls == {}


def test_gate_names_the_call_and_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # ``import numpy`` now raises
    with pytest.raises(ImportError, match=r"^pump_grid needs numpy: "
                       r"pip install 'lasekit\[arrays\]'$"):
        lasekit.pump_grid(1.0, 2.0, 3)


def test_numpy_is_an_optional_extra():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    for extra in ("arrays", "test"):
        requirements = project["optional-dependencies"][extra]
        assert any(r.startswith("numpy") for r in requirements), extra
