import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import no_constant
from lasekit.cli import (
    ConfigError,
    emit_sweep_csv,
    emit_timeseries_csv,
    main,
    parse_config,
    parse_sweep_csv,
    parse_timeseries_csv,
)
from lasekit.params import (
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    gamma_perp_two,
)
from lasekit.steady import n_three_physical

CFG_3B_PHYS = {
    "model": "three-b",
    "parameterization": "physical",
    "params": {
        "n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
        "gamma_21": 1, "gamma_02": 2, "gamma_10": 0.1, "gamma_ph": 0,
    },
}
CFG_2L_DIMLESS = {
    "model": "two-level",
    "parameterization": "dimensionless",
    "params": {"photon_scale": 1e3, "saturation": 1e-6, "dephasing": 1e5},
}
CFG_2L_PHYS = {
    "model": "two-level",
    "parameterization": "physical",
    "params": {"n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
               "gamma_decay": 1, "pump_Gamma": 3},
}
CFG_3A_PHYS = {
    "model": "three-a",
    "parameterization": "physical",
    "params": {
        "n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
        "gamma_21": 1, "gamma_02": 2, "gamma_10": 0.1, "gamma_ph": 0,
    },
}


def write_cfg(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="model"):
        parse_config({"model": "four-level", "parameterization": "physical", "params": {}})
    with pytest.raises(ConfigError, match="params.gamma_decay"):
        parse_config({
            "model": "two-level", "parameterization": "physical",
            "params": {"n_atoms": 4, "coupling_g": 1, "cavity_kappa": 1},
        })
    with pytest.raises(ConfigError, match="params.bogus"):
        parse_config({
            "model": "two-level", "parameterization": "dimensionless",
            "params": {"photon_scale": 1, "saturation": 0.1, "bogus": 3},
        })
    with pytest.raises(ConfigError, match="integrator.foo"):
        parse_config({**CFG_2L_DIMLESS, "integrator": {"foo": 1}})
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config({
            "model": "two-level", "parameterization": "dimensionless",
            "params": {"photon_scale": "big", "saturation": 0.1},
        })


def test_steady_bad_config_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {"model": "two-level"})
    assert main(["steady", "--config", path, "--pump", "1"]) == 2
    assert "error:" in capsys.readouterr().err


CFG_2L_PHYS_NO_PUMP = {**CFG_2L_PHYS, "params": {
    k: v for k, v in CFG_2L_PHYS["params"].items() if k != "pump_Gamma"}}


@pytest.mark.parametrize("text, argv, env, message", [
    (None, ["steady", "--pump", "1"], None,
     "cannot read config {path!r}: [Errno 2] No such file or directory: {path!r}"),
    ("not json", ["steady", "--pump", "1"], None,
     "config {path!r} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", ["steady", "--pump", "1"], None, "config must be a JSON object"),
    (json.dumps({**CFG_3B_PHYS, "bogus": 1}), ["steady", "--pump", "1"], None,
     "bogus: unknown top-level key"),
    (json.dumps({**CFG_3B_PHYS, "params": [1]}), ["steady", "--pump", "1"], None,
     "params: must be an object"),
    # every fault of the section: missing keys first, then its keys in document order
    (json.dumps({**CFG_3B_PHYS, "params": {"n_atoms": 100, "scheme": "B", "coupling_g": "1",
                                           "cavity_kappa": 1, "gamma_21": 1, "gamma_02": 2}}),
     ["steady", "--pump", "1"], None,
     "params.gamma_10: missing required key; params.scheme: unknown key for physical three-b; "
     "params.coupling_g: must be a number, got '1'"),
    (json.dumps({**CFG_3B_PHYS, "integrator": [1]}), ["steady", "--pump", "1"], None,
     "integrator: must be an object"),
    (json.dumps({**CFG_3B_PHYS, "integrator": {"rel_tol": -1}}), ["steady", "--pump", "1"],
     None, "integrator: rel_tol must be > 0, got -1.0"),
    # JSON reads 1e400 as inf
    (json.dumps(CFG_3B_PHYS)[:-1] + ', "integrator": {"t_max": 1e400}}',
     ["steady", "--pump", "1"], None, "integrator: t_max must be finite and > 0, got inf"),
    (json.dumps({**CFG_2L_PHYS, "initial": {"rho22": 0.1}}), ["dynamics", "--t-max", "1"],
     None, "initial.rho22: not a two-level state component"),
    (json.dumps({**CFG_2L_PHYS, "initial": {"rho11": 2}}), ["dynamics", "--t-max", "1"],
     None, "initial: rho11 must lie in [0, 1], got 2.0"),
    (json.dumps(CFG_2L_PHYS_NO_PUMP), ["dynamics", "--t-max", "1"], None,
     "params.pump_Gamma: required (or pass --pump) for this command"),
    (json.dumps(CFG_3B_PHYS), ["steady", "--pump", "1"], "x",
     "LASEKIT_PRECISION: invalid literal for int() with base 10: 'x'"),
], ids=["unreadable", "not-json", "not-object", "top-level-key", "params-not-object",
        "params-faults", "integrator-not-object", "rel-tol", "t-max-overflow", "foreign-initial",
        "initial-out-of-range", "pump-required", "precision"])
def test_config_intake_errors_exit_2(tmp_path, capsys, monkeypatch, text, argv, env, message):
    path = str(tmp_path / "cfg.json")
    if text is not None:
        Path(path).write_text(text, encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("LASEKIT_PRECISION", env)
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=path) + "\n"


def test_steady_three_b_physical(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["steady", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["photon_number"] == pytest.approx(23.448125, rel=1e-12)
    assert doc["regime"] == "lasing"
    assert doc["pump"] == 2.0
    assert doc["gamma_perp"] == 1.05
    assert doc["gamma_parallel"] == pytest.approx(1.15, rel=1e-12)
    assert doc["equilibrium_inversion"] == pytest.approx(1.9 / 2.3, rel=1e-12)
    assert doc["populations"]["rho22"] == pytest.approx(0.49475, rel=1e-12)


@pytest.mark.parametrize("model, reduced, populations", [
    ("three-a", {"photon_scale": 100, "saturation": 0.01}, [0.0, 0.0, 1.0]),
    ("three-b", {"photon_scale": 50, "saturation": 0.005}, [1.0, 0.0, 0.0]),
], ids=["three-a", "three-b"])
def test_steady_degenerate_flow_populations(tmp_path, capsys, model, reduced, populations):
    # gamma_10 = 0 and no pump leave no unique no-field equilibrium; both
    # routes report the state reached from the ground state, never NaN
    physical = {**CFG_3A_PHYS, "model": model,
                "params": {**CFG_3A_PHYS["params"], "gamma_10": 0}}
    dimensionless = {"model": model, "parameterization": "dimensionless",
                     "params": {**reduced, "decay_ratio": 0, "dephasing": 0}}
    for cfg in (physical, dimensionless):
        path = write_cfg(tmp_path, cfg)
        assert main(["steady", "--config", path, "--pump", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["populations"].values()) == populations, cfg
        assert doc["photon_number"] == 0.0
        assert doc["regime"] == "below_threshold"


@pytest.mark.parametrize("model, populations", [
    ("three-a", [0.0, 0.0, 1.0]),
    ("three-b", [1.0, 0.0, 0.0]),
], ids=["three-a", "three-b"])
def test_dynamics_degenerate_flow_starts_where_steady_ends(tmp_path, capsys, model,
                                                          populations):
    # the default start of a degenerate flow is the state steady reports
    cfg = {**CFG_3A_PHYS, "model": model,
           "params": {**CFG_3A_PHYS["params"], "gamma_10": 0}}
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path, "--pump", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["populations"].values()) == populations
    assert main(["dynamics", "--config", path, "--pump", "0", "--t-max", "1"]) == 0
    series, _ = parse_timeseries_csv(io.StringIO(capsys.readouterr().out))
    rho11, rho22 = series.states[0][:2]
    assert [1.0 - rho11 - rho22, rho11, rho22] == populations
    assert series.times[-1] == 1.0


def test_steady_two_level_dimensionless(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["steady", "--config", path, "--pump", "449999", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["photon_number"] == pytest.approx(2.02498e8, rel=1e-12)

    assert main(["steady", "--config", path, "--pump", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["photon_number"] == 0.0
    assert doc["regime"] == "below_threshold"


def test_steady_requires_pump_when_not_configured(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["steady", "--config", path]) == 2
    assert "--pump" in capsys.readouterr().err


def test_steady_two_level_physical_pump_resolution(tmp_path, capsys):
    cfg = {
        "model": "two-level",
        "parameterization": "physical",
        "params": {"n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
                   "gamma_decay": 1, "pump_Gamma": 2.0},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pump"] == 2.0
    assert doc["gamma_perp"] == 1.5  # physical units: (Gamma + gamma)/2

    assert main(["steady", "--config", path, "--pump", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pump"] == 3.0
    assert doc["gamma_perp"] == 2.0


@pytest.mark.parametrize("cfg, key, library, pump", [
    ({**CFG_3B_PHYS, "params": {**CFG_3B_PHYS["params"], "gamma_21": 0.2955407065214988,
                                "gamma_02": 0.09923735884090083,
                                "gamma_10": 0.007279987462406157}},
     "photon_number",
     lambda r: n_three_physical(PhysicalThreeLevel(**r, scheme=PumpScheme.B)).photon_number,
     ("gamma_02", "gamma_21")),
    ({**CFG_2L_PHYS, "params": {"n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
                                "pump_Gamma": 2.6356951935267032,
                                "gamma_decay": 2.5691318711953723,
                                "gamma_ph": 0.12241598898450845}},
     "gamma_perp", lambda r: gamma_perp_two(PhysicalTwoLevel(**r)),
     ("pump_Gamma", "gamma_decay")),
], ids=["three-b", "two-level"])
def test_steady_without_pump_evaluates_the_configured_rates(tmp_path, capsys, cfg, key,
                                                            library, pump):
    # the configured pump rate over its reference, times the reference,
    # is not the configured rate (gamma_02 would come back as ...082): the
    # report is the library's on the configured record, at the ratio
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rates = cfg["params"]
    assert doc[key] == library(rates)
    assert doc["pump"] == rates[pump[0]] / rates[pump[1]]


def test_steady_zero_reference_rate_needs_explicit_pump(tmp_path, capsys):
    cfg = {
        "model": "two-level",
        "parameterization": "physical",
        "params": {"n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
                   "gamma_decay": 0, "pump_Gamma": 2},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path]) == 2
    assert "error: --pump: required" in capsys.readouterr().err
    assert main(["steady", "--config", path, "--pump", "2"]) == 2
    assert "error: params: gamma_decay must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, reference", [
    ({**CFG_3A_PHYS, "params": {**CFG_3A_PHYS["params"], "gamma_02": 0, "gamma_21": 3}},
     "params.gamma_02=0.0"),
    ({**CFG_3B_PHYS, "params": {**CFG_3B_PHYS["params"], "gamma_21": 0}}, "params.gamma_21=0.0"),
], ids=["three-a", "three-b"])
@pytest.mark.parametrize("argv", [["dynamics", "--pump", "5"], ["steady", "--pump", "5"],
                                  ["steady"]], ids=["dynamics-pump", "steady-pump", "steady"])
def test_zero_reference_rate_fixes_no_relative_pump(tmp_path, capsys, cfg, reference, argv):
    # --pump times a zero reference rate would integrate a zero pump rate
    # under a # pump=5.0 line, and the configured rates give no ratio
    path = write_cfg(tmp_path, {**cfg, "integrator": {"t_max": 5.0}})
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --pump: ") and captured.err.count("\n") == 1
    assert f"the reference rate {reference} must be > 0" in captured.err
    # without --pump the run needs no relative pump
    assert main(["dynamics", "--config", path]) == 0


@pytest.mark.parametrize("cfg, message", [
    ({**CFG_2L_PHYS, "params": {**CFG_2L_PHYS["params"],
                                "gamma_decay": 1e-10, "pump_Gamma": 1e300}},
     "pump_Gamma=1e+300 over gamma_decay=1e-10"),
    ({**CFG_3B_PHYS, "params": {**CFG_3B_PHYS["params"],
                                "gamma_21": 1e-10, "gamma_02": 1e300}},
     "gamma_02=1e+300 over gamma_21=1e-10"),
], ids=["two-level", "three-b"])
def test_steady_overflowing_configured_pump_names_both_rates(tmp_path, capsys, cfg, message):
    # the configured rates fix no finite relative pump: the error names
    # them, not a pump=inf the config never gave
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: params: {message} overflows the relative pump; "
                            "pass --pump\n")
    assert main(["steady", "--config", path, "--pump", "2"]) == 0


@pytest.mark.parametrize("argv", [
    ["steady", "--pump", "1e300"],
    ["dynamics", "--pump", "1e300", "--t-max", "1"],
], ids=["steady", "dynamics"])
def test_overflowing_pump_argument_names_the_reference_rate(tmp_path, capsys, argv):
    # --pump times gamma_21 overflows gamma_02: not "gamma_02 must be
    # finite, got inf" about a rate the config gave as 2
    cfg = {**CFG_3B_PHYS, "params": {**CFG_3B_PHYS["params"], "gamma_21": 1e10}}
    path = write_cfg(tmp_path, cfg)
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --pump 1e+300 times params.gamma_21=10000000000.0 "
                            "overflows gamma_02\n")



@pytest.mark.parametrize("cfg", [
    {"model": "two-level", "parameterization": "physical",
     "params": {"n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
                "gamma_decay": 1, "pump_Gamma": -1}},
    {**CFG_3A_PHYS, "params": {**CFG_3A_PHYS["params"], "gamma_21": -1}},
], ids=["two-level", "three-a"])
@pytest.mark.parametrize("argv", [
    ["region"],
    ["sweep", "--pump-min", "0.1", "--pump-max", "5", "--points", "3"],
    ["steady", "--pump", "3.5"],
    ["dynamics", "--pump", "2", "--t-max", "1"],
], ids=["region", "sweep", "steady", "dynamics"])
def test_negative_configured_pump_rate_rejected(tmp_path, capsys, cfg, argv):
    # --pump overrides the configured rate, but a bad one is still an error
    path = write_cfg(tmp_path, cfg)
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: params: " in captured.err
    assert "must be >= 0, got -1.0" in captured.err


@pytest.mark.parametrize("pump", ["-1", "nan", "inf"])
@pytest.mark.parametrize("cfg, command", [
    (CFG_3B_PHYS, "steady"),
    (CFG_2L_DIMLESS, "steady"),
    (CFG_3B_PHYS, "dynamics"),
], ids=["steady-physical", "steady-dimensionless", "dynamics-physical"])
def test_pump_argument_checked_alike(tmp_path, capsys, cfg, command, pump):
    # one check for every command that takes --pump, before any rate is built
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, f"--pump={pump}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --pump: must be finite and >= 0, got {float(pump)}\n"


@pytest.mark.parametrize("cfg", [CFG_2L_PHYS, CFG_3A_PHYS, CFG_3B_PHYS],
                         ids=["two-level", "three-a", "three-b"])
@pytest.mark.parametrize("g", [1e-300, 1e300])
@pytest.mark.parametrize("argv", [
    ["steady"],
    ["steady", "--pump", "3"],
    ["region"],
    ["sweep", "--pump-min", "0.1", "--pump-max", "5", "--points", "3"],
], ids=["steady", "steady-pump", "region", "sweep"])
def test_coupling_with_unrepresentable_square_exits_2(tmp_path, capsys, cfg, g, argv):
    # g**2 underflows to 0 or overflows: a config error, not a traceback
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], "coupling_g": g}})
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: params: coupling_g**2 must be finite and > 0")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cfg", [CFG_2L_PHYS, CFG_3A_PHYS, CFG_3B_PHYS],
                         ids=["two-level", "three-a", "three-b"])
@pytest.mark.parametrize("argv", [
    ["steady", "--pump", "3"],
    ["region"],
    ["sweep", "--pump-min", "0.1", "--pump-max", "5", "--points", "3"],
], ids=["steady-pump", "region", "sweep"])
def test_tiny_coupling_names_coupling_g(tmp_path, capsys, cfg, argv):
    # g**2 = 1e-320 is a positive float, but the reduced saturation
    # overflows: the error names the config value, not the derived one
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], "coupling_g": 1e-160}})
    code = main([argv[0], "--config", path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: params: coupling_g=1e-160 ")
    assert "saturation" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("cfg", [CFG_3A_PHYS, CFG_3B_PHYS], ids=["three-a", "three-b"])
def test_tiny_coupling_steady_fails_as_region_does(tmp_path, capsys, cfg):
    # the physical three-level route of steady classifies through the
    # same reduction as region, so both reject the coupling alike
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], "coupling_g": 1e-160}})
    assert main(["region", "--config", path]) == 2
    region = capsys.readouterr()
    assert main(["steady", "--config", path, "--pump", "3"]) == 2
    assert capsys.readouterr() == region


@pytest.mark.parametrize("cfg", [CFG_2L_PHYS, CFG_3A_PHYS, CFG_3B_PHYS],
                         ids=["two-level", "three-a", "three-b"])
def test_tiny_coupling_dynamics_runs(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], "coupling_g": 1e-160}})
    assert main(["dynamics", "--config", path, "--t-max", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, fmt", [
    ("steady", "csv"), ("region", "csv"), ("sweep", "text"), ("dynamics", "text"),
])
def test_unsupported_format_rejected(tmp_path, capsys, command, fmt):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, "--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_region_two_level(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["region", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == pytest.approx(1.22223, abs=5e-6)
    assert doc["window"]["upper"] == pytest.approx(9e5, rel=0.01)
    assert doc["window_asymptotic"]["upper"] == 899997.0
    assert doc["optimum"]["pump_estimate"] == 449999.0
    assert doc["optimum"]["pump_exact"] == pytest.approx(449999.0, rel=1e-6)


def test_region_infinite_window_edge_text(tmp_path, capsys):
    # no saturation: the two-level window never closes
    cfg = {"model": "two-level", "parameterization": "dimensionless",
           "params": {"photon_scale": 1000, "saturation": 0}}
    path = write_cfg(tmp_path, cfg)
    windows = ("window", "window_asymptotic", "pump_restriction")
    assert main(["region", "--config", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    for key in windows:
        assert doc[key]["upper"] == "inf"
    assert out.count('"upper": "inf"') == 3
    assert main(["region", "--config", path]) == 0
    text = capsys.readouterr().out
    for key in windows:
        assert f"{key}:\n  lower: 1.0\n  upper: inf\n" in text


def test_region_overflowing_bracket_reports_no_threshold(tmp_path, capsys):
    # the bracket coefficients overflow to -inf: no threshold, not nan
    cfg = {"model": "two-level", "parameterization": "dimensionless",
           "params": {"photon_scale": 1, "saturation": 1e300, "dephasing": 1e10}}
    path = write_cfg(tmp_path, cfg)
    assert main(["region", "--config", path]) == 0
    assert "threshold: None\nlasing_possible: false\n" in capsys.readouterr().out


def test_region_scheme_b_reports_both_extrema(tmp_path, capsys):
    cfg = {
        "model": "three-b",
        "parameterization": "dimensionless",
        "params": {"photon_scale": 1e5, "saturation": 0.01, "decay_ratio": 0,
                   "dephasing": 0.1},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["region", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"]["lower"] == 0.0
    assert doc["window"]["upper"] == pytest.approx(99.9, rel=1e-12)
    assert doc["optimum"]["pump_estimate"] == pytest.approx(49.95, rel=1e-12)
    assert doc["optimum"]["pump_exact"] == pytest.approx(
        -2.0 + math.sqrt(203.8), rel=1e-6
    )
    assert doc["optimum"]["discrepancy"] > 3.0


def test_region_scheme_a_physical(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3A_PHYS)
    assert main(["region", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] is not None
    assert doc["n_min_atoms"] == pytest.approx(
        (1.0 * 2.0 / 2.0) * 1.05 * 1.05 / 0.95, rel=1e-12
    )
    assert doc["depletion_ratio_window"]["lower"] > 1.0
    assert doc["saturation_limit"] > 0.0


def test_region_no_lasing_is_structured_success(tmp_path, capsys):
    cfg = {
        "model": "three-a",
        "parameterization": "dimensionless",
        "params": {"photon_scale": 10, "saturation": 0.1, "decay_ratio": 1.5},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["region", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lasing_possible"] is False
    assert doc["threshold"] is None


def test_sweep_csv_roundtrip_and_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--config", path, "--pump-min", "0.5", "--pump-max", "1e6",
            "--points", "100", "--scale", "log"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    with open(out1, encoding="utf-8") as fh:
        series = parse_sweep_csv(fh)
    assert len(series.pump_values) == 100
    assert series.metadata["model"] == "two-level"
    assert series.metadata["points"] == 100

    # parse -> emit reproduces the file byte for byte
    buf = io.StringIO()
    emit_sweep_csv(series, buf)
    assert buf.getvalue() == out1.read_text(encoding="utf-8")


def test_sweep_count_two_endpoints(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["sweep", "--config", path, "--pump-min", "1", "--pump-max", "10",
                 "--points", "2"]) == 0
    series = parse_sweep_csv(io.StringIO(capsys.readouterr().out))
    assert list(series.pump_values) == [1.0, 10.0]


def test_scheme_a_sweep_lases_where_one_plus_twice_the_pump_overflows(tmp_path, capsys):
    path = write_cfg(tmp_path, {"model": "three-a", "parameterization": "dimensionless",
                                "params": {"photon_scale": 1e3, "saturation": 1e-3,
                                           "decay_ratio": 0.01}})
    assert main(["sweep", "--config", path, "--pump-min", "1", "--pump-max", "1.7e308",
                 "--points", "3", "--scale", "log"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1.7e+308,494.48995,lasing"


def exact_flow(scheme: str, pump: float, eps: float) -> tuple[Fraction, Fraction]:
    """gamma_par and the inversion of the reference-unit rates, in Fraction."""
    p, e = Fraction(pump), Fraction(eps)
    g21, g02 = (p, Fraction(1)) if scheme == "three-a" else (Fraction(1), p)
    cross = g21 * g02 + g02 * e + g21 * e
    return 2 * cross / (g02 + 2 * g21), g21 * (g02 - e) / cross


@pytest.mark.parametrize("pump", [1e308, 1.7e308])
@pytest.mark.parametrize("model", ["three-a", "three-b"])
def test_dimensionless_steady_reports_the_flow_where_the_rate_sums_overflow(
        tmp_path, capsys, model, pump):
    # the rates in units of the reference rate overflow their sums, the
    # report divides them through by the pump instead of blaming rates
    # the config never gave
    path = write_cfg(tmp_path, {"model": model, "parameterization": "dimensionless",
                                "params": {"photon_scale": 1e3, "saturation": 1e-3,
                                           "decay_ratio": 0.01}})
    assert main(["steady", "--config", path, "--pump", repr(pump), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key, exact in zip(("gamma_parallel", "equilibrium_inversion"),
                          exact_flow(model, pump, 0.01)):
        assert abs(Fraction(doc[key]) - exact) <= 2 * 2.0**-53 * exact, key


@pytest.mark.parametrize("model, pump, eps, reference", [
    ("three-a", 0.0, 1e308, "gamma_02"),
    ("three-b", 0.0, 1e308, "gamma_21"),
    ("three-b", 1.2, 8e307, "gamma_21"),
])
def test_dimensionless_steady_names_the_inputs_of_an_overflowing_flow(
        tmp_path, capsys, model, pump, eps, reference):
    path = write_cfg(tmp_path, {"model": model, "parameterization": "dimensionless",
                                "params": {"photon_scale": 1e3, "saturation": 1e-3,
                                           "decay_ratio": eps}})
    assert main(["steady", "--config", path, "--pump", repr(pump)]) == 2
    assert capsys.readouterr().err == (
        f"error: --pump {pump!r} with params.decay_ratio={eps!r} overflows gamma_parallel "
        f"in units of {reference}\n")


def test_series_json_writes_non_finite_values_as_strings(tmp_path, capsys):
    # photon_scale 1.7e308 overflows every lasing photon number
    path = write_cfg(tmp_path, {**CFG_2L_DIMLESS, "params": {
        "photon_scale": 1.7e308, "saturation": 1e-6, "dephasing": 1e5}})
    assert main(["sweep", "--config", path, "--pump-min", "100", "--pump-max", "1000",
                 "--points", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert doc["photon_number"] == ["inf", "inf"]
    assert doc["metadata"]["photon_scale"] == 1.7e308
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["dynamics", "--config", path, "--t-max", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert doc["n"][-1] == doc["settle"]["photon_number"]


SWEEP_HEAD = "# model=two-level\npump,photon_number,regime\n"


def test_parse_sweep_csv_rejects_wrong_header():
    with pytest.raises(ValueError, match="unexpected sweep CSV header: 'pump,n,regime'"):
        parse_sweep_csv(io.StringIO("# model=two-level\npump,n,regime\n1.0,2.0,lasing\n"))


@pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,lasing,3.0"], ids=["2-cells", "4-cells"])
def test_parse_sweep_csv_rejects_wrong_cell_count(row):
    # the row is line 4: a good row and a comment line precede it
    cells = row.count(",") + 1
    with pytest.raises(ValueError) as err:
        parse_sweep_csv(io.StringIO(SWEEP_HEAD + "0.5,0.0,below_threshold\n" + row + "\n"))
    assert str(err.value) == (f"line 4: {cells} cells where the header "
                              f"'pump,photon_number,regime' has 3")


def test_parse_sweep_csv_rejects_unknown_regime():
    with pytest.raises(ValueError, match="pulsing"):
        parse_sweep_csv(io.StringIO(SWEEP_HEAD + "1.0,2.0,pulsing\n"))


def test_parse_sweep_csv_skips_blank_lines():
    text = "\n# model=two-level\n\n# points=2\npump,photon_number,regime\n\n" \
           "1.0,0.0,below_threshold\n\n2.5,3.0,lasing\n\n"
    series = parse_sweep_csv(io.StringIO(text))
    assert series.metadata == {"model": "two-level", "points": 2}
    assert list(series.pump_values) == [1.0, 2.5]
    assert list(series.photon_numbers) == [0.0, 3.0]
    assert series.regimes == (Regime.BELOW_THRESHOLD, Regime.LASING)


def test_parse_timeseries_csv_needs_header():
    with pytest.raises(ValueError, match="no header line found"):
        parse_timeseries_csv(io.StringIO("# model=three-b\n\n# settle: converged=true\n"))


@pytest.mark.parametrize("header", ["time,rho11,x,n", "t,rho11,x,photons"])
def test_parse_timeseries_csv_rejects_wrong_header(header):
    with pytest.raises(ValueError, match=f"unexpected time-series header: '{header}'"):
        parse_timeseries_csv(io.StringIO(f"# model=two-level\n{header}\n0.0,0.5,0.1,0.01\n"))


def test_sweep_json_format(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["sweep", "--config", path, "--pump-min", "0.1", "--pump-max", "10",
                 "--points", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["pump"]) == 5
    assert doc["metadata"]["model"] == "three-b"


def test_sweep_invalid_range_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["sweep", "--config", path, "--pump-min", "10", "--pump-max", "1"]) == 2
    assert main(["sweep", "--config", path, "--pump-min", "0", "--pump-max", "1",
                 "--scale", "log"]) == 2
    assert main(["sweep", "--config", path, "--pump-max", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bounds, message", [
    (["--pump-min", "10", "--pump-max", "1"], "need lo < hi, got [10.0, 1.0]"),
    (["--pump-min", "1", "--pump-max", "10", "--points", "1"], "need count >= 2, got 1"),
    (["--pump-min", "0", "--pump-max", "1", "--scale", "log"], "log scale requires lo > 0"),
    (["--pump-min", "1", "--pump-max", "1.0000000000000002"],
     "pump values must be strictly increasing"),
    (["--pump-min", "0.01", "--pump-max", "inf"], "need finite lo and hi, got [0.01, inf]"),
    (["--pump-min", "0.01", "--pump-max", "inf", "--scale", "log"],
     "need finite lo and hi, got [0.01, inf]"),
    (["--pump-min=-inf", "--pump-max", "1"], "need finite lo and hi, got [-inf, 1.0]"),
    (["--pump-min=-1e308", "--pump-max", "1e308"],
     "pump grid step overflows on [-1e+308, 1e+308]"),
], ids=["reversed", "one-point", "log-zero", "not-increasing", "inf", "log-inf", "minus-inf",
        "overflow"])
def test_sweep_grid_errors_exit_2(tmp_path, capsys, bounds, message):
    # every bad grid is a config error: no rows, no numpy warning, exit 2
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["sweep", "--config", path, "--points", "5", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sweep_unwritable_path_exits_3(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    out = tmp_path / "missing-dir" / "x.csv"
    assert main(["sweep", "--config", path, "--pump-min", "1", "--pump-max", "10",
                 "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err


def test_dynamics_reaches_fixed_point(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["dynamics", "--config", path]) == 0
    out = capsys.readouterr().out
    series, meta = parse_timeseries_csv(io.StringIO(out))
    assert series.steady
    assert series.state_labels == ("rho11", "rho22", "y", "x")
    assert series.photon_numbers[-1] == pytest.approx(23.448125, rel=1e-5)
    assert meta["model"] == "three-b"
    assert "# settle: converged=true" in out


@pytest.mark.parametrize("cfg", [CFG_2L_PHYS, CFG_3B_PHYS], ids=["two-level", "three-b"])
def test_dynamics_does_not_call_numpy_linalg(tmp_path, capsys, monkeypatch, cfg):
    # the stability test on the steady exit is Routh-Hurwitz in plain floats
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigvals", "eig", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    path = write_cfg(tmp_path, cfg)
    assert main(["dynamics", "--config", path]) == 0
    assert "# settle: converged=true" in capsys.readouterr().out


def test_dynamics_below_threshold(tmp_path, capsys):
    cfg = {
        "model": "two-level",
        "parameterization": "physical",
        "params": {"n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
                   "gamma_decay": 1, "gamma_ph": 0},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["dynamics", "--config", path, "--pump", "0.5"]) == 0
    series, _ = parse_timeseries_csv(io.StringIO(capsys.readouterr().out))
    assert series.photon_numbers[-1] < 1e-8


def test_dynamics_leaves_unstable_empty_cavity(tmp_path, capsys):
    # a seed field of 1e-12 meets the cutoff at t = 0 on the empty cavity,
    # which is unstable above threshold: the footer must not call that
    # state converged, and the run grows onto the lasing branch
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["dynamics", "--config", path, "--seed-field", "1e-12"]) == 0
    out = capsys.readouterr().out
    assert "# settle: converged=true t=0.0 " not in out
    series, _ = parse_timeseries_csv(io.StringIO(out))
    assert series.steady
    assert series.times[-1] > 0.0
    assert series.photon_numbers[-1] == pytest.approx(23.448125, rel=1e-5)


def test_dynamics_requires_physical_parameterization(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    assert main(["dynamics", "--config", path, "--pump", "10"]) == 2
    assert "physical" in capsys.readouterr().err


def test_dynamics_nonconvergence_reported_exit_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, {**CFG_3B_PHYS, "integrator": {"t_max": 0.5}})
    assert main(["dynamics", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "# settle: converged=false" in out


def test_dynamics_stiffness_failure_exits_4(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        {**CFG_3B_PHYS, "integrator": {"rel_tol": 1e-300, "abs_tol": 1e-300,
                                       "t_max": 10.0}},
    )
    assert main(["dynamics", "--config", path]) == 4
    # the whole line, with the state as a tuple of floats in full precision
    assert capsys.readouterr().err == (
        "error: step size underflow at t = 0.0 (state (0.8695652173913042, "
        "0.08695652173913043, 0.0, 0.001)); relax tolerances or reduce "
        "the rate disparity\n"
    )


def test_dynamics_runaway_on_loose_tolerances_exits_2(tmp_path, capsys):
    # the state runs off to ~1e85 before the step underflows: a
    # configuration error that names the tolerances, not a stiffness failure
    path = write_cfg(tmp_path, {**CFG_3B_PHYS, "integrator": {"rel_tol": 1e300}})
    assert main(["dynamics", "--config", path]) == 2
    assert "tighten rel_tol/abs_tol" in capsys.readouterr().err


def test_dynamics_leaving_state_space_exits_2(tmp_path, capsys):
    # the run crosses rho11 + rho22 = 1 before t = 3: no rows, the error
    # settle raises on the same rates
    path = write_cfg(tmp_path, {**CFG_3B_PHYS, "integrator": {"rel_tol": 0.3, "abs_tol": 0.3}})
    assert main(["dynamics", "--config", path, "--t-max", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the run ended outside the physical state space")
    assert "tighten rel_tol/abs_tol" in captured.err


@pytest.mark.parametrize("model, params, argv", [
    ("two-level", {"photon_scale": 1.18e-38, "saturation": 0.0, "dephasing": 1e308},
     ["steady", "--pump", "1e308"]),
    ("three-a", {"photon_scale": 1.18e-38, "saturation": 0.0, "decay_ratio": 8.1e299},
     ["sweep", "--pump-min", "1e159", "--pump-max", "1e160", "--points", "3"]),
    ("three-b", {"photon_scale": 1.18e-38, "saturation": 0.0, "decay_ratio": 8.1e299},
     ["sweep", "--pump-min", "1e159", "--pump-max", "1e160", "--points", "3"]),
], ids=["two-level-steady", "three-a-sweep", "three-b-sweep"])
def test_nan_bracket_exits_2(tmp_path, capsys, model, params, argv):
    # 0 * inf in the bracket: a config error naming the pump and the
    # record, not a report of a nan bracket or a below-threshold sweep
    path = write_cfg(tmp_path, {"model": model, "parameterization": "dimensionless",
                                "params": params})
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the bracket is NaN at pump=1e+")
    assert "saturation=0.0" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("cfg, rate", [(CFG_3A_PHYS, "gamma_02"), (CFG_3B_PHYS, "gamma_21")],
                         ids=["three-a", "three-b"])
def test_steady_overflowing_rate_products_exit_2(tmp_path, capsys, cfg, rate):
    # gamma_21*gamma_02 overflows at pump 2: a config error naming the
    # rates, not a report of nan populations and an inf gamma_parallel
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], rate: 1e300}})
    assert main(["steady", "--config", path, "--pump", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: params: gamma_21=")
    assert f"{rate}=1e+300" in captured.err and "overflows" in captured.err


@pytest.mark.parametrize("cfg, rate", [(CFG_3A_PHYS, "gamma_02"), (CFG_3B_PHYS, "gamma_21")],
                         ids=["three-a", "three-b"])
def test_dynamics_overflowing_rate_products_exit_2(tmp_path, capsys, cfg, rate):
    # the start's no-field equilibrium would divide inf by inf: the error
    # names the rates, as steady's does, not a non-finite state
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], rate: 1e300}})
    assert main(["dynamics", "--config", path, "--pump", "2", "--t-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{rate}=1e+300" in captured.err and "overflows the rate sums" in captured.err


@pytest.mark.parametrize("cfg, rate", [(CFG_3A_PHYS, "gamma_02"), (CFG_3B_PHYS, "gamma_21")],
                         ids=["three-a", "three-b"])
def test_steady_and_dynamics_report_overflowing_rates_alike(tmp_path, capsys, cfg, rate):
    # one config fault, one message: both commands call it a params error
    path = write_cfg(tmp_path, {**cfg, "params": {**cfg["params"], rate: 1e300}})
    assert main(["steady", "--config", path, "--pump", "2"]) == 2
    steady = capsys.readouterr()
    assert main(["dynamics", "--config", path, "--pump", "2", "--t-max", "1"]) == 2
    dynamics = capsys.readouterr()
    assert steady.out == dynamics.out == ""
    assert dynamics.err == steady.err
    assert dynamics.err.startswith("error: params: gamma_21=")


@pytest.mark.parametrize("cfg", [CFG_3B_PHYS, CFG_2L_PHYS], ids=["three-b", "two-level"])
@pytest.mark.parametrize("seed", ["nan", "inf", "-inf"])
def test_dynamics_non_finite_seed_field_keeps_its_message(tmp_path, capsys, cfg, seed):
    path = write_cfg(tmp_path, cfg)
    assert main(["dynamics", "--config", path, f"--seed-field={seed}", "--t-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state components must be finite\n"


@pytest.mark.parametrize("param, value", [("n_atoms", 1e300), ("cavity_kappa", 1e-300)])
def test_region_infinite_peak_reports_no_relative_error(tmp_path, capsys, param, value):
    # the peak photon number overflows to inf: no relative error, not nan
    path = write_cfg(tmp_path, {**CFG_2L_PHYS, "params": {**CFG_2L_PHYS["params"], param: value}})
    assert main(["region", "--config", path, "--format", "json"]) == 0
    optimum = json.loads(capsys.readouterr().out)["optimum"]
    assert optimum["photon_at_exact"] == "inf"
    assert optimum["photon_max_rel_err"] is None


def test_dynamics_initial_override_and_seed(tmp_path, capsys):
    doc = {**CFG_3B_PHYS, "initial": {"rho11": 0.2, "rho22": 0.3}}
    path = write_cfg(tmp_path, doc)
    assert main(["dynamics", "--config", path, "--t-max", "1.0",
                 "--seed-field", "0.01"]) == 0
    series, meta = parse_timeseries_csv(io.StringIO(capsys.readouterr().out))
    assert series.states[0, 0] == 0.2
    assert series.states[0, 1] == 0.3
    assert series.states[0, 3] == 0.01
    assert meta["seed_field"] == 0.01


def test_dynamics_negative_seed_field_in_exponent_notation(tmp_path, capsys):
    # the form the help and the README give; "--seed-field -1e-3" stops
    # in argparse, which takes "-1e-3" for an option
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["dynamics", "--config", path, "--t-max", "1", "--seed-field=-1e-3"]) == 0
    series, meta = parse_timeseries_csv(io.StringIO(capsys.readouterr().out))
    assert series.states[0, 3] == -0.001
    assert meta["seed_field"] == -0.001


def test_dynamics_json_matches_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    argv = ["dynamics", "--config", path, "--pump", "2.5", "--t-max", "2"]
    assert main(argv) == 0
    series, meta = parse_timeseries_csv(io.StringIO(capsys.readouterr().out))
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["metadata", "t", "rho11", "rho22", "y", "x", "n", "settle"]
    assert doc["metadata"] == meta
    assert doc["t"] == series.times.tolist()
    for i, label in enumerate(series.state_labels):
        assert doc[label] == series.states[:, i].tolist()
    assert doc["n"] == [x * x for x in doc["x"]]
    assert doc["settle"] == {
        "converged": series.steady,
        "t": series.times[-1],
        "photon_number": doc["n"][-1],
        "derivative_norm": series.derivative_norm,
    }


def test_timeseries_roundtrip(tmp_path, capsys):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    assert main(["dynamics", "--config", path, "--t-max", "5"]) == 0
    text = capsys.readouterr().out
    series, meta = parse_timeseries_csv(io.StringIO(text))
    buf = io.StringIO()
    emit_timeseries_csv(series, buf, metadata=meta)
    assert buf.getvalue() == text


def test_figure_presets_write_curves(tmp_path):
    out = tmp_path / "figs"
    assert main(["figure", "fig4b", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["fig4b_curve1.csv", "fig4b_curve2.csv", "fig4b_curve3.csv"]
    with open(out / "fig4b_curve3.csv", encoding="utf-8") as fh:
        series = parse_sweep_csv(fh)
    assert series.metadata["preset"] == "fig4b"
    assert series.metadata["saturation"] == 0.01
    assert len(series.pump_values) == 400


def test_precision_env_override(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, CFG_2L_DIMLESS)
    monkeypatch.setenv("LASEKIT_PRECISION", "6")
    assert main(["sweep", "--config", path, "--pump-min", "1", "--pump-max", "10",
                 "--points", "3"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("pump"):
            continue
        cell = line.split(",")[1]
        assert len(cell.split(".")[-1].rstrip("0")) <= 7


def test_module_entry_point(tmp_path):
    path = write_cfg(tmp_path, CFG_3B_PHYS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-m", "lasekit", "steady", "--config", path,
         "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["photon_number"] == pytest.approx(23.448125)


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
