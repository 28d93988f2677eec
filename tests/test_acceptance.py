"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Randomized draws use fixed seeds; draws feeding the time-domain oracle are
filtered to linearly stable fixed points (strongly pumped bad-cavity sets
make the lasing fixed point Hopf-unstable, where no trajectory can settle
onto the closed-form branch).
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import (
    assert_identity,
    perturbed_fixed_state,
    random_lasing_three_level,
    random_lasing_two_level,
    random_three_level,
)
from lasekit import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    IntegratorConfig,
    PhysicalThreeLevel,
    PumpScheme,
    algebraic_oracle_three,
    gamma_parallel_and_inversion,
    gamma_perp_three,
    n_min_atoms,
    n_three_physical,
    n_two_level,
    optimum_scheme_b,
    optimum_two,
    raw_bracket_scheme_a,
    raw_bracket_scheme_b,
    raw_bracket_two,
    reduce_three,
    reduce_two,
    settle,
    threshold_scheme_a,
    window_scheme_b,
    window_two,
)
from lasekit.cli import main, parse_sweep_csv

GOLDEN_DIR = Path(__file__).parent / "goldens"
ODE_CFG = IntegratorConfig()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_oracle_triangle_three_level():
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    worst_alg = 0.0
    worst_ode = 0.0
    for _ in range(200):
        p = random_lasing_three_level(rng)
        analytic = n_three_physical(p).photon_number
        algebraic = algebraic_oracle_three(p)
        worst_alg = max(worst_alg, abs(analytic - algebraic) / analytic)
        res = settle(p, initial=perturbed_fixed_state(p), config=ODE_CFG)
        assert res.converged
        worst_ode = max(worst_ode, abs(analytic - res.photon_number) / analytic)
    elapsed = time.perf_counter() - start
    ok = worst_alg < 1e-12 and worst_ode < 1e-5 and elapsed < 60.0
    _report(
        1, "oracle triangle (three-level)", ok,
        f"(analytic-vs-algebraic rel {worst_alg:.2e}, analytic-vs-ODE rel "
        f"{worst_ode:.2e}, {elapsed:.1f} s for 200 draws)",
    )


def test_criterion_02_two_level_ode_oracle():
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(100):
        p, pump = random_lasing_two_level(rng)
        d, _ = reduce_two(p)
        analytic = n_two_level(d, pump).photon_number
        res = settle(p, initial=perturbed_fixed_state(p), config=ODE_CFG)
        assert res.converged
        worst = max(worst, abs(analytic - res.photon_number) / analytic)
    worst_below = 0.0
    n_below = 0
    while n_below < 20:
        p, pump = random_lasing_two_level(rng, require_stable=False)
        d, _ = reduce_two(p)
        thr = window_two(d).exact.lower
        frac = rng.uniform(0.3, 0.9)
        p_low = type(p)(
            n_atoms=p.n_atoms, coupling_g=p.coupling_g, cavity_kappa=p.cavity_kappa,
            gamma_decay=p.gamma_decay, pump_Gamma=frac * thr * p.gamma_decay,
            gamma_ph=p.gamma_ph,
        )
        res = settle(p_low, config=ODE_CFG)
        worst_below = max(worst_below, res.photon_number)
        n_below += 1
    ok = worst < 1e-5 and worst_below < 1e-8
    _report(
        2, "two-level ODE oracle", ok,
        f"(in-window rel {worst:.2e} over 100 draws, below-threshold max "
        f"photon {worst_below:.2e} over 20 draws)",
    )


def test_criterion_03_reparameterization_identity():
    rng = np.random.default_rng(20250812)
    worst = 0.0
    for _ in range(500):
        p = random_three_level(rng, scheme=PumpScheme.B)
        direct = n_three_physical(p).raw_bracket
        denom = p.gamma_02 + 2.0 * p.gamma_21
        gain = (p.n_atoms / (2.0 * p.cavity_kappa)) * p.gamma_21 * abs(
            p.gamma_02 - p.gamma_10
        ) / denom
        loss = abs(direct - gain)
        scale = gain + loss
        db, pump_b = reduce_three(p)
        da, pump_a = reduce_three(
            PhysicalThreeLevel(
                n_atoms=p.n_atoms, coupling_g=p.coupling_g,
                cavity_kappa=p.cavity_kappa, gamma_21=p.gamma_21,
                gamma_02=p.gamma_02, gamma_10=p.gamma_10, gamma_ph=p.gamma_ph,
                scheme=PumpScheme.A,
            )
        )
        via_a = da.photon_scale * raw_bracket_scheme_a(da, pump_a)
        via_b = db.photon_scale * raw_bracket_scheme_b(db, pump_b)
        assert_identity(via_a, direct, scale)
        assert_identity(via_b, direct, scale)
        ref = max(abs(direct), abs(via_a), abs(via_b), 1e-2 * scale)
        worst = max(worst, abs(via_a - direct) / ref, abs(via_b - direct) / ref)

    fixed = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0, gamma_21=1.0,
        gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0, scheme=PumpScheme.B,
    )
    direct = n_three_physical(fixed).raw_bracket
    db, pump_b = reduce_three(fixed)
    da, pump_a = reduce_three(
        PhysicalThreeLevel(
            n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0, gamma_21=1.0,
            gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0, scheme=PumpScheme.A,
        )
    )
    routes = (
        direct,
        da.photon_scale * raw_bracket_scheme_a(da, pump_a),
        db.photon_scale * raw_bracket_scheme_b(db, pump_b),
    )
    fixed_ok = all(abs(r - 23.448125) <= 1e-12 * 23.448125 for r in routes)
    ok = fixed_ok and worst < 1e-12
    _report(
        3, "re-parameterization identity", ok,
        f"(500 draws, worst rel {worst:.2e}; fixed example "
        f"{routes[0]!r} by all three routes)",
    )


def test_criterion_04_decomposition_identity():
    rng = np.random.default_rng(20250813)
    worst = 0.0
    for _ in range(500):
        p = random_three_level(rng)
        gpar, inv = gamma_parallel_and_inversion(p)
        gperp = gamma_perp_three(p)
        term_gain = p.n_atoms * gpar * inv / (4.0 * p.cavity_kappa)
        term_loss = gperp * gpar / (4.0 * p.coupling_g**2)
        composed = term_gain - term_loss
        direct = n_three_physical(p).raw_bracket
        scale = abs(term_gain) + abs(term_loss)
        assert_identity(composed, direct, scale)
        ref = max(abs(composed), abs(direct), 1e-2 * scale)
        worst = max(worst, abs(composed - direct) / ref)
    _report(
        4, "longitudinal-rate decomposition identity", worst < 1e-12,
        f"(500 draws, worst rel {worst:.2e})",
    )


def test_criterion_05_two_level_extremum_and_peak():
    d = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=0.0)
    rep = optimum_two(d)
    vertex_rel = abs(rep.pump_estimate - rep.pump_exact) / rep.pump_exact
    peak_rel = rep.photon_max_rel_err
    ok = vertex_rel < 1e-6 and peak_rel < 0.01
    _report(
        5, "two-level extremum and peak value", ok,
        f"(estimate vs closed-form vertex rel {vertex_rel:.2e}, peak vs "
        f"photon_scale/(4s) rel {peak_rel:.2e})",
    )


def test_criterion_06_window_endpoints():
    worst_b = 0.0
    for s, delta in ((0.01, 0.1), (0.1, 0.1), (0.02, 0.3)):
        d = DimensionlessSchemeB(
            photon_scale=1e5, saturation=s, decay_ratio=0.0, dephasing=delta
        )
        upper = window_scheme_b(d).exact.upper
        target = 1.0 / s - delta
        worst_b = max(worst_b, abs(upper - target) / target)

    d2 = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=1e5)
    upper2 = window_two(d2).exact.upper
    rel2 = abs(upper2 - 899997.0) / 899997.0
    ok = worst_b < 1e-12 and rel2 < 1e-4
    _report(
        6, "window endpoints", ok,
        f"(zero-leak upper edge rel {worst_b:.2e}; dephased two-level "
        f"upper vs coarse form rel {rel2:.2e})",
    )


def test_criterion_07_simplified_optimum_discrepancy():
    d = DimensionlessSchemeB(
        photon_scale=1e5, saturation=0.01, decay_ratio=0.0, dephasing=0.1
    )
    rep = optimum_scheme_b(d)
    exact_ref = -2.0 + math.sqrt(203.8)
    rel = abs(rep.pump_exact - exact_ref) / exact_ref
    ok = (
        rel < 1e-6
        and abs(rep.pump_estimate - 49.95) < 1e-12 * 49.95
        and rep.discrepancy > 3.0
    )
    _report(
        7, "simplified-vs-exact optimum discrepancy", ok,
        f"(exact {rep.pump_exact:.6f} vs -2+sqrt(203.8) rel {rel:.2e}; "
        f"simplified {rep.pump_estimate}; discrepancy {rep.discrepancy:.3f}x)",
    )


def test_criterion_08_minimum_atom_number():
    base = dict(coupling_g=1.0, cavity_kappa=1.0, gamma_21=1.0, gamma_02=2.0,
                gamma_10=0.02, gamma_ph=0.0, scheme=PumpScheme.A)
    nmin = n_min_atoms(PhysicalThreeLevel(n_atoms=2.0, **base))

    above = PhysicalThreeLevel(n_atoms=nmin * (1.0 + 1e-9), **base)
    d_above, _ = reduce_three(above)
    thr = threshold_scheme_a(d_above)
    lasing_exists = thr is not None and raw_bracket_scheme_a(d_above, 2.0 * thr) > 0.0

    below = PhysicalThreeLevel(n_atoms=nmin * (1.0 - 1e-6), **base)
    d_below, _ = reduce_three(below)
    pumps = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 1000)))
    max_raw = max(raw_bracket_scheme_a(d_below, float(p)) for p in pumps)
    ok = lasing_exists and max_raw <= 0.0
    _report(
        8, "minimum atom number", ok,
        f"(N_min {nmin:.9f}; lasing pump exists just above; max raw bracket "
        f"just below = {max_raw:.2e})",
    )


def _golden_regression(tmp_path) -> tuple[bool, str]:
    outdir = tmp_path / "figs"
    for preset in ("fig2", "fig4a", "fig4b"):
        rc = main(["figure", preset, "--out", str(outdir)])
        if rc != 0:
            return False, f"figure {preset} exited {rc}"
    mismatches = []
    for golden in sorted(GOLDEN_DIR.glob("*.csv")):
        fresh = outdir / golden.name
        if fresh.read_bytes() != golden.read_bytes():
            mismatches.append(golden.name)
    return not mismatches, f"byte mismatches: {mismatches}" if mismatches else ""


def _positive_segment(series):
    mask = series.photon_numbers > 0.0
    idx = np.flatnonzero(mask)
    return mask, idx


def test_criterion_09_figure_regression(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    ok_bytes, detail = _golden_regression(tmp_path)
    capsys.readouterr()  # swallow the emitted file paths

    shape_msgs = []
    for path in sorted(GOLDEN_DIR.glob("fig2_curve*.csv")):
        with open(path, encoding="utf-8") as fh:
            series = parse_sweep_csv(fh)
        mask, idx = _positive_segment(series)
        transitions = int(np.sum(np.abs(np.diff(mask.astype(int)))))
        if transitions != 2:
            shape_msgs.append(f"{path.name}: {transitions} sign changes")
        pumps = series.pump_values[idx]
        vals = series.photon_numbers[idx]
        slopes = np.diff(vals) / np.diff(pumps)
        if not np.all(np.diff(slopes) <= 1e-9 * np.max(np.abs(slopes))):
            shape_msgs.append(f"{path.name}: not concave")

    for path in sorted(GOLDEN_DIR.glob("fig4a_curve*.csv")):
        with open(path, encoding="utf-8") as fh:
            series = parse_sweep_csv(fh)
        m = series.metadata
        d = DimensionlessSchemeA(
            photon_scale=m["photon_scale"], saturation=m["saturation"],
            decay_ratio=m["decay_ratio"], dephasing=m["dephasing"],
        )
        from lasekit import saturation_limit_scheme_a

        limit = saturation_limit_scheme_a(d)
        if not np.all(np.diff(series.photon_numbers) >= -1e-9 * limit):
            shape_msgs.append(f"{path.name}: not nondecreasing")
        if not np.all(series.photon_numbers <= limit * (1.0 + 1e-12)):
            shape_msgs.append(f"{path.name}: exceeds saturation limit")

    for path in sorted(GOLDEN_DIR.glob("fig4b_curve*.csv")):
        with open(path, encoding="utf-8") as fh:
            series = parse_sweep_csv(fh)
        m = series.metadata
        d = DimensionlessSchemeB(
            photon_scale=m["photon_scale"], saturation=m["saturation"],
            decay_ratio=m["decay_ratio"], dephasing=m["dephasing"],
        )
        win = window_scheme_b(d).exact
        mask, idx = _positive_segment(series)
        if len(idx) < 10:
            shape_msgs.append(f"{path.name}: no rise")
            continue
        peak = int(np.argmax(series.photon_numbers))
        if not (idx[0] < peak < idx[-1]):
            shape_msgs.append(f"{path.name}: peak not interior")
        if not series.photon_numbers[-1] == 0.0:
            shape_msgs.append(f"{path.name}: does not return to zero")
        last_pos = series.pump_values[idx[-1]]
        first_zero_after = series.pump_values[idx[-1] + 1]
        if not (last_pos <= win.upper <= first_zero_after):
            shape_msgs.append(f"{path.name}: zero crossing off window edge")

    ok = ok_bytes and not shape_msgs
    _report(
        9, "figure regression", ok,
        detail or (f"shape: {shape_msgs}" if shape_msgs else
                   "(9 curves byte-identical, shapes verified)"),
    )


def test_criterion_10_region_edges_bracket_sign_changes(tmp_path, capsys):
    configs = {
        "two-level": {
            "model": "two-level", "parameterization": "dimensionless",
            "params": {"photon_scale": 1e3, "saturation": 1e-6, "dephasing": 1e5},
        },
        "three-a": {
            "model": "three-a", "parameterization": "dimensionless",
            "params": {"photon_scale": 1e6, "saturation": 0.2, "decay_ratio": 0.01,
                       "dephasing": 0.0},
        },
        "three-b": {
            "model": "three-b", "parameterization": "dimensionless",
            "params": {"photon_scale": 1e5, "saturation": 0.01, "decay_ratio": 0.1,
                       "dephasing": 0.1},
        },
    }
    raws = {
        "two-level": lambda prm, p: raw_bracket_two(
            DimensionlessTwoLevel(prm["photon_scale"], prm["saturation"],
                                  prm["dephasing"]), p),
        "three-a": lambda prm, p: raw_bracket_scheme_a(
            DimensionlessSchemeA(prm["photon_scale"], prm["saturation"],
                                 prm["decay_ratio"], prm["dephasing"]), p),
        "three-b": lambda prm, p: raw_bracket_scheme_b(
            DimensionlessSchemeB(prm["photon_scale"], prm["saturation"],
                                 prm["decay_ratio"], prm["dephasing"]), p),
    }

    checked = 0
    failures = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["region", "--config", str(path), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        if rc != 0:
            failures.append(f"{name}: exit {rc}")
            continue
        edges = []
        if doc.get("threshold") is not None:
            edges.append(doc["threshold"])
        win = doc.get("window")
        if win:
            edges.extend([win["lower"], win["upper"]])
        for edge in sorted(set(edges)):
            h = 1e-6 * max(1.0, abs(edge))
            prod = raws[name](cfg["params"], edge - h) * raws[name](cfg["params"], edge + h)
            checked += 1
            if not prod < 0.0:
                failures.append(f"{name}: edge {edge} does not bracket a sign change")
    ok = not failures and checked >= 5
    _report(
        10, "region edges bracket sign changes", ok,
        f"({checked} edges checked)" if ok else f"{failures}",
    )
