import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import assert_identity, log_uniform, random_three_level
from lasekit import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    PhysicalThreeLevel,
    PumpScheme,
    Regime,
    LasingWindow,
    depletion_ratio_window,
    expand_scheme_b,
    gamma_perp_three,
    n_min_atoms,
    n_scheme_a,
    n_scheme_b,
    n_three_physical,
    n_two_level,
    optimum_scheme_b,
    optimum_two,
    raw_bracket_scheme_a,
    raw_bracket_scheme_b,
    raw_bracket_two,
    reduce_three,
    saturation_limit_scheme_a,
    threshold_scheme_a,
    threshold_scheme_b,
    threshold_two,
    window_scheme_b,
    window_two,
)
from lasekit.cli import _FIGURE_PRESETS, main
from lasekit.steady import _coeffs_scheme_b, _quadratic_roots

FIG2 = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=1e5)
FIG4A = DimensionlessSchemeA(photon_scale=1e6, saturation=0.2, decay_ratio=0.01, dephasing=0.0)
FIG4B = DimensionlessSchemeB(photon_scale=1e5, saturation=0.01, decay_ratio=0.0, dephasing=0.1)

EXAMPLE_3L = dict(
    n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
    gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
)


# --------------------------------------------------------------------------
# two-level closed forms
# --------------------------------------------------------------------------

def test_n_two_level_lossless_limit():
    d = DimensionlessTwoLevel(photon_scale=1e3, saturation=0.0, dephasing=123.0)
    assert n_two_level(d, 2.0).photon_number == 1000.0


def test_n_two_level_at_optimum_pump():
    # direct evaluation at the vertex; the same number must fall out of
    # the stable quadratic machinery used everywhere else
    res = n_two_level(FIG2, 449999.0)
    assert res.photon_number == pytest.approx(2.02498e8, rel=1e-12)
    assert res.regime is Regime.LASING


def test_n_two_level_below_threshold():
    res = n_two_level(FIG2, 1.0)
    assert res.photon_number == 0.0
    assert res.raw_bracket == pytest.approx(-2.0 * (2.0 + 1e5) * 1e-6, rel=1e-12)
    assert res.regime is Regime.BELOW_THRESHOLD


def test_threshold_two_matches_bracketing_root_finder():
    thr = threshold_two(FIG2)
    oracle = brentq(lambda p: raw_bracket_two(FIG2, p), 1.0, 10.0, xtol=1e-9)
    assert thr == pytest.approx(oracle, rel=1e-9)
    assert thr == pytest.approx(1.22223, abs=5e-6)


def test_threshold_two_lossless_limit_is_unity():
    assert threshold_two(DimensionlessTwoLevel(1e3, 0.0, 0.0)) == 1.0


def test_threshold_two_no_real_roots_means_no_lasing():
    # saturation far above the cooperativity bound: discriminant < 0
    assert threshold_two(DimensionlessTwoLevel(1e3, 2.0, 0.0)) is None


def test_window_two_upper_edge_vs_asymptote():
    w = window_two(FIG2)
    assert w.exact is not None and w.exact.exact
    assert w.asymptotic.upper == pytest.approx(899997.0, rel=1e-12)
    assert w.exact.upper == pytest.approx(899997.0, rel=1e-4)
    assert w.upper_rel_err < 1e-4
    # the weaker coherence-decay restriction strictly contains the window
    assert w.necessary.lower <= w.exact.lower
    assert w.necessary.upper >= w.exact.upper


def test_window_two_marginal_gain_is_degenerate():
    # saturation 1/8 with no dephasing makes the discriminant exactly
    # zero: the bracket touches zero at P = 3 and is negative elsewhere,
    # so no open lasing window exists even though the coarse form
    # claims (1, 5)
    d = DimensionlessTwoLevel(photon_scale=1.0, saturation=0.125, dephasing=0.0)
    w = window_two(d)
    assert w.exact is None
    assert w.asymptotic.upper == pytest.approx(5.0, rel=1e-12)
    assert raw_bracket_two(d, 3.0) == pytest.approx(0.0, abs=1e-15)
    for pump in np.linspace(0.0, 10.0, 101):
        assert raw_bracket_two(d, float(pump)) <= 1e-15


def test_window_two_moderate_gain():
    # barely below the marginal saturation: the coarse upper edge is off
    # by a large factor, which is the point of reporting both
    d = DimensionlessTwoLevel(photon_scale=1.0, saturation=0.12, dephasing=0.0)
    w = window_two(d)
    assert w.exact is not None
    assert raw_bracket_two(d, w.exact.lower) == pytest.approx(0.0, abs=1e-12)
    assert raw_bracket_two(d, w.exact.upper) == pytest.approx(0.0, abs=1e-12)
    assert w.asymptotic.upper == pytest.approx(1.0 / 0.12 - 3.0, rel=1e-12)
    assert w.upper_rel_err > 0.1


def test_window_two_no_window():
    w = window_two(DimensionlessTwoLevel(1e3, 2.0, 0.0))
    assert w.exact is None


def test_window_two_dephasing_dominated_has_no_physical_window():
    # real roots exist but both sit at negative pump: gain never wins on
    # pump >= 0, so this is a no-lasing point, not a window
    d = DimensionlessTwoLevel(photon_scale=1e3, saturation=0.1, dephasing=100.0)
    assert window_two(d).exact is None
    assert threshold_two(d) is None
    for pump in np.geomspace(1e-3, 1e3, 50):
        res = n_two_level(d, float(pump))
        assert res.photon_number == 0.0
        assert res.regime is Regime.BELOW_THRESHOLD


def test_window_sign_structure():
    w = window_two(FIG2).exact
    mid = math.sqrt(w.lower * w.upper)
    assert raw_bracket_two(FIG2, mid) > 0.0
    assert raw_bracket_two(FIG2, 1.01 * w.upper) < 0.0
    assert raw_bracket_two(FIG2, 0.99 * w.lower) < 0.0


def test_optimum_two_golden_section_agrees_with_vertex():
    rep = optimum_two(FIG2)
    assert rep.pump_estimate == 449999.0
    assert rep.pump_exact == pytest.approx(449999.0, rel=1e-6)
    assert rep.discrepancy < 1e-6
    assert rep.photon_at_exact == pytest.approx(2.02498e8, rel=1e-9)


def test_optimum_two_peak_estimate_small_saturation():
    d = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=0.0)
    rep = optimum_two(d)
    # photon_scale/(4s) is exact up to O(s) corrections here
    assert rep.photon_max_rel_err < 1e-4
    assert rep.photon_max_estimate == pytest.approx(1e3 / 4e-6, rel=1e-12)


def test_optimum_two_moderate_saturation_vertex_property():
    # at the degenerate saturation 1/8 the vertex sits at P = 3 with
    # exactly zero photons; optimum_two declines (no window), but the
    # vertex optimality is still a property of the bracket itself
    d_marginal = DimensionlessTwoLevel(photon_scale=1.0, saturation=0.125, dephasing=0.0)
    assert optimum_two(d_marginal) is None
    assert 0.5 / 0.125 - 1.0 == 3.0
    for pump in np.linspace(2.0, 4.0, 41):
        assert raw_bracket_two(d_marginal, float(pump)) <= raw_bracket_two(d_marginal, 3.0)

    d = DimensionlessTwoLevel(photon_scale=1.0, saturation=0.12, dephasing=0.0)
    rep = optimum_two(d)
    assert rep.pump_estimate == pytest.approx(0.5 / 0.12 - 1.0, rel=1e-12)
    n_at = n_two_level(d, rep.pump_exact).photon_number
    for pump in np.linspace(rep.pump_exact - 1.0, rep.pump_exact + 1.0, 41):
        assert n_two_level(d, float(pump)).photon_number <= n_at + 1e-12


def test_two_level_parabola_monotonicity():
    w = window_two(FIG2).exact
    rep = optimum_two(FIG2)
    up = np.geomspace(w.lower * 1.001, rep.pump_exact, 200)
    vals_up = [n_two_level(FIG2, float(p)).photon_number for p in up]
    assert all(b >= a - 1e-9 for a, b in zip(vals_up, vals_up[1:]))
    down = np.linspace(rep.pump_exact, w.upper * 0.999, 200)
    vals_down = [n_two_level(FIG2, float(p)).photon_number for p in down]
    assert all(b <= a + 1e-9 for a, b in zip(vals_down, vals_down[1:]))


# --------------------------------------------------------------------------
# three-level closed forms
# --------------------------------------------------------------------------

def test_n_three_physical_fixed_example():
    res = n_three_physical(PhysicalThreeLevel(**EXAMPLE_3L, scheme=PumpScheme.B))
    assert res.photon_number == pytest.approx(23.448125, rel=1e-12)
    assert res.regime is Regime.LASING
    assert sum(res.populations) == pytest.approx(1.0, abs=1e-12)
    # inversion pinned at kappa*gamma_perp/(N g^2) on the lasing branch
    rho00, rho11, _ = res.populations
    assert rho11 - rho00 == pytest.approx(1.05 / 100.0, rel=1e-12)


def test_n_three_physical_no_inversion_clamps_to_zero():
    p = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=2.0, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    res = n_three_physical(p)
    assert res.photon_number == 0.0
    assert res.raw_bracket < 0.0


def test_n_three_physical_no_pump():
    p = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=0.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
        scheme=PumpScheme.A,
    )
    res = n_three_physical(p)
    assert res.photon_number == 0.0


@pytest.mark.parametrize("scheme, ref, populations, raw", [
    (PumpScheme.A, "gamma_02", (1.0, 0.0, 0.0), -2.50125),
    (PumpScheme.B, "gamma_21", (0.0, 0.0, 1.0), -0.052500000000000005),
], ids=["scheme-A", "scheme-B"])
@pytest.mark.parametrize("g", [1.0, 1e-160], ids=["g=1", "g=1e-160"])
def test_n_three_physical_zero_reference_rate(scheme, ref, populations, raw, g):
    # no reduction exists, so the sign of the photon number classifies,
    # also where a reduced saturation would overflow
    p = PhysicalThreeLevel(**{**EXAMPLE_3L, ref: 0.0, "coupling_g": g}, scheme=scheme)
    res = n_three_physical(p)
    assert res.photon_number == 0.0
    assert res.regime is Regime.BELOW_THRESHOLD
    assert res.populations == populations
    assert res.raw_bracket == (raw if g == 1.0 else -math.inf)


@pytest.mark.parametrize("scheme, rates", [
    (PumpScheme.A, dict(coupling_g=1e-160, gamma_21=1.0, gamma_02=0.0, gamma_10=0.0,
                        gamma_ph=0.5)),
    (PumpScheme.B, dict(coupling_g=2.2e-16, gamma_21=0.0, gamma_02=1.0, gamma_10=0.0,
                        gamma_ph=1e308)),
], ids=["scheme-A", "scheme-B"])
def test_n_three_physical_no_pumping_loop_with_infinite_coupling(scheme, rates):
    # the coupling factor gamma_perp/(2*g**2) is inf and the rate-product
    # sum 0: no closed loop carries no loss, where inf*0 would make it nan
    p = PhysicalThreeLevel(**{**EXAMPLE_3L, **rates}, scheme=scheme)
    assert gamma_perp_three(p) / (2.0 * p.coupling_g**2) == math.inf
    res = n_three_physical(p)
    assert res.raw_bracket == 0.0
    assert res.photon_number == 0.0
    assert res.regime is Regime.BELOW_THRESHOLD


@pytest.mark.parametrize("scheme, rates, populations", [
    (PumpScheme.A, dict(gamma_21=0.0, gamma_02=2.0), (0.0, 0.0, 1.0)),
    (PumpScheme.B, dict(gamma_21=1.0, gamma_02=0.0), (1.0, 0.0, 0.0)),
    (PumpScheme.A, dict(gamma_21=1.0, gamma_02=0.0), (1.0, 0.0, 0.0)),
], ids=["scheme-A-no-pump", "scheme-B-no-pump", "scheme-A-no-depletion"])
def test_n_three_physical_degenerate_flow_reached_from_ground_state(scheme, rates, populations):
    # no unique no-field equilibrium: report the state the flow reaches
    # from the ground state, as the dimensionless routes do
    p = PhysicalThreeLevel(**{**EXAMPLE_3L, **rates, "gamma_10": 0.0}, scheme=scheme)
    res = n_three_physical(p)
    assert res.populations == populations
    assert res.photon_number == 0.0
    if getattr(p, {PumpScheme.A: "gamma_02", PumpScheme.B: "gamma_21"}[scheme]) > 0.0:
        d, pump = reduce_three(p)
        evaluate = n_scheme_a if scheme is PumpScheme.A else n_scheme_b
        assert evaluate(d, pump).populations == populations


@pytest.mark.parametrize("scheme", [PumpScheme.A, PumpScheme.B])
def test_n_three_physical_tiny_coupling_raises_as_reduction_does(scheme):
    p = PhysicalThreeLevel(**{**EXAMPLE_3L, "coupling_g": 1e-160}, scheme=scheme)
    with pytest.raises(ValueError) as reduced:
        reduce_three(p)
    with pytest.raises(ValueError) as physical:
        n_three_physical(p)
    assert str(physical.value) == str(reduced.value)
    assert str(physical.value).startswith("coupling_g=1e-160 ")


def test_scheme_a_fig4a_point():
    assert n_scheme_a(FIG4A, 1.0).photon_number == pytest.approx(
        1e6 * (0.99 - 0.2 * 1.01 * 1.02) / 3.0, rel=1e-12
    )


def test_scheme_a_lossless_limit():
    d = DimensionlessSchemeA(photon_scale=500.0, saturation=0.0, decay_ratio=0.0)
    for pump in (0.1, 1.0, 10.0):
        assert n_scheme_a(d, pump).photon_number == pytest.approx(
            500.0 * pump / (1.0 + 2.0 * pump), rel=1e-12
        )


def test_scheme_a_strong_pump_saturates_to_limit():
    limit = saturation_limit_scheme_a(FIG4A)
    assert limit == pytest.approx(3.9299e5, rel=1e-12)
    assert n_scheme_a(FIG4A, 1e8).photon_number == pytest.approx(limit, rel=1e-7)


def test_scheme_a_monotone_and_bounded():
    thr = threshold_scheme_a(FIG4A)
    limit = saturation_limit_scheme_a(FIG4A)
    pumps = np.geomspace(thr, 1e4, 300)
    vals = [n_scheme_a(FIG4A, float(p)).photon_number for p in pumps]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert all(v <= limit * (1.0 + 1e-12) for v in vals)


def test_threshold_scheme_a_zero_leak():
    d = DimensionlessSchemeA(photon_scale=1.0, saturation=0.1, decay_ratio=0.0)
    assert threshold_scheme_a(d) == 0.0


def test_threshold_scheme_a_against_root_finder():
    thr = threshold_scheme_a(FIG4A)
    oracle = brentq(lambda p: raw_bracket_scheme_a(FIG4A, p), 1e-6, 1.0, xtol=1e-10)
    assert thr == pytest.approx(oracle, rel=1e-8)
    # direct evaluation of the closed form
    assert thr == pytest.approx(0.01 * 0.2 * 1.01 / (0.99 - 0.2 * 1.01 * 1.01), rel=1e-12)


def test_threshold_scheme_a_no_lasing_cases():
    assert threshold_scheme_a(
        DimensionlessSchemeA(photon_scale=1.0, saturation=0.1, decay_ratio=1.0)
    ) is None
    # saturation above the necessary bound
    assert threshold_scheme_a(
        DimensionlessSchemeA(photon_scale=1.0, saturation=0.99, decay_ratio=0.01)
    ) is None


def expected_threshold_scheme_a(s, eps, delta):
    """The scheme-A threshold eps*s*(1+eps+delta) / [1-eps-s*(1+eps+delta)*(1+eps)],
    None without initial inversion or past the saturation bound."""
    if eps >= 1.0:
        return None
    denom = 1.0 - eps - s * (1.0 + eps + delta) * (1.0 + eps)
    if denom <= 0.0:
        return None
    return eps * s * (1.0 + eps + delta) / denom


def test_threshold_and_saturation_limit_scheme_a_formulas():
    rng = np.random.default_rng(20251018)
    draws = [(s, eps, delta) for s in (0.0, 0.1, 0.4) for eps in (0.0, 1.0, 2.0)
             for delta in (0.0, 0.3)]
    draws += [(1e308, 0.5, 1e10), (1e300, 1e5, 0.0)]  # the bracket terms overflow
    draws += zip(log_uniform(rng, 1e-8, 10.0, 2000), rng.uniform(0.0, 1.5, 2000),
                 log_uniform(rng, 1e-6, 1e3, 2000))
    for s, eps, delta in draws:
        d = DimensionlessSchemeA(photon_scale=37.0, saturation=float(s),
                                 decay_ratio=float(eps), dephasing=float(delta))
        assert threshold_scheme_a(d) == expected_threshold_scheme_a(s, eps, delta), d
        limit = 37.0 * ((1.0 - eps) - s * (1.0 + eps + delta) * (1.0 + eps)) / 2.0
        assert saturation_limit_scheme_a(d) == limit, d


def test_quadratic_roots_degenerate_branches():
    # a = b = 0: scheme A with eps = 1 and s = 0 has no root at all
    d = DimensionlessSchemeA(photon_scale=1.0, saturation=0.0, decay_ratio=1.0)
    assert _quadratic_roots(0.0, 0.0, -0.0) is None
    assert threshold_scheme_a(d) is None
    # a double root at 0: scheme B with eps = 0 and s*dephasing = 1
    d = DimensionlessSchemeB(photon_scale=1.0, saturation=0.5, decay_ratio=0.0, dephasing=2.0)
    assert _quadratic_roots(*_coeffs_scheme_b(d)) == (0.0, 0.0)
    assert threshold_scheme_b(d) is None
    assert window_scheme_b(d).exact is None


def test_overflowing_bracket_coefficients_give_no_threshold():
    # b = c = -inf makes the discriminant inf - inf = nan; with a < 0 the
    # roots could only be negative, so there is no threshold and no window
    two = DimensionlessTwoLevel(photon_scale=1.0, saturation=1e300, dephasing=1e10)
    b = DimensionlessSchemeB(photon_scale=1.0, saturation=1e300, decay_ratio=1e5,
                             dephasing=1e10)
    coeffs = _coeffs_scheme_b(b)
    assert coeffs[0] < 0.0 and coeffs[1:] == (-math.inf, -math.inf)
    assert _quadratic_roots(*coeffs) is None
    assert threshold_two(two) is None
    assert threshold_scheme_b(b) is None
    assert window_two(two).exact is None
    assert window_scheme_b(b).exact is None


@pytest.mark.parametrize("evaluate, d, pump", [
    # s * delta overflows and pump 0 multiplies it: inf * 0, as s > 0
    (n_scheme_a, DimensionlessSchemeA(photon_scale=1.18e-38, saturation=1e300,
                                      decay_ratio=0.0, dephasing=1e300), 0.0),
    (n_scheme_b, DimensionlessSchemeB(photon_scale=1.18e-38, saturation=1e300,
                                      decay_ratio=0.0, dephasing=1e300), 0.0),
    # eps * pump overflows and s = 0 multiplies it: 0 * inf in the numerator
    (n_two_level, DimensionlessTwoLevel(photon_scale=1.18e-38, saturation=0.0,
                                        dephasing=1e308), 1e308),
], ids=["scheme-a", "scheme-b", "two-level"])
def test_nan_bracket_raises_naming_pump_and_record(evaluate, d, pump):
    raw = {n_scheme_a: raw_bracket_scheme_a, n_scheme_b: raw_bracket_scheme_b,
           n_two_level: raw_bracket_two}[evaluate](d, pump)
    assert math.isnan(raw)
    with pytest.raises(ValueError) as exc:
        evaluate(d, pump)
    message = str(exc.value)
    assert f"pump={pump!r}" in message
    for name, value in vars(d).items():
        assert f"{name}={value!r}" in message


def test_n_min_atoms_examples():
    p = PhysicalThreeLevel(
        n_atoms=1.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.0, gamma_ph=0.0,
        scheme=PumpScheme.A,
    )
    assert n_min_atoms(p) == 1.0
    p2 = PhysicalThreeLevel(
        n_atoms=1.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.02, gamma_ph=0.0,
        scheme=PumpScheme.A,
    )
    assert n_min_atoms(p2) == pytest.approx(1.01 * 1.01 / 0.99, rel=1e-12)
    p3 = PhysicalThreeLevel(
        n_atoms=1.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=2.0, gamma_ph=0.0,
        scheme=PumpScheme.A,
    )
    assert n_min_atoms(p3) is None


def test_n_min_atoms_diverges_as_leak_approaches_unity():
    def nmin(g10):
        return n_min_atoms(PhysicalThreeLevel(
            n_atoms=1.0, coupling_g=1.0, cavity_kappa=1.0,
            gamma_21=1.0, gamma_02=2.0, gamma_10=g10, gamma_ph=0.0,
            scheme=PumpScheme.A,
        ))
    assert nmin(2.0 * (1.0 - 1e-6)) > 1e5 * nmin(0.02)


def test_depletion_ratio_window_controls_scheme_a_lasing():
    p = PhysicalThreeLevel(
        n_atoms=50.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.5, gamma_ph=0.2,
        scheme=PumpScheme.A,
    )
    win = depletion_ratio_window(p).exact
    assert win is not None

    def lasing_possible(ratio: float) -> bool:
        q = PhysicalThreeLevel(
            n_atoms=p.n_atoms, coupling_g=p.coupling_g, cavity_kappa=p.cavity_kappa,
            gamma_21=p.gamma_21, gamma_02=ratio * p.gamma_10, gamma_10=p.gamma_10,
            gamma_ph=p.gamma_ph, scheme=PumpScheme.A,
        )
        d, _ = reduce_three(q)
        return threshold_scheme_a(d) is not None

    assert lasing_possible(math.sqrt(win.lower * win.upper))
    assert not lasing_possible(win.upper * 1.05)
    assert not lasing_possible(win.lower * 0.95)


def test_scheme_b_equals_physical_route():
    res = n_scheme_b(
        DimensionlessSchemeB(photon_scale=50.0, saturation=0.005, decay_ratio=0.1),
        2.0,
    )
    assert res.photon_number == pytest.approx(23.448125, rel=1e-12)


def test_scheme_b_zero_at_upper_window_edge():
    res = n_scheme_b(FIG4B, 99.9)
    assert res.photon_number == 0.0
    assert abs(res.raw_bracket) < 1e-12


def test_scheme_b_no_pump():
    d = DimensionlessSchemeB(photon_scale=10.0, saturation=0.01, decay_ratio=0.3)
    res = n_scheme_b(d, 0.0)
    assert res.photon_number == 0.0
    assert res.regime is Regime.BELOW_THRESHOLD


def test_window_scheme_b_factorized_zero_leak():
    w = window_scheme_b(FIG4B)
    assert w.exact.lower == 0.0
    assert w.exact.upper == pytest.approx(1.0 / 0.01 - 0.1, rel=1e-12)
    w2 = window_scheme_b(
        DimensionlessSchemeB(photon_scale=1e5, saturation=0.1, decay_ratio=0.0, dephasing=0.1)
    )
    assert w2.exact.upper == pytest.approx(9.9, rel=1e-12)


def test_window_scheme_b_no_window():
    d = DimensionlessSchemeB(photon_scale=1.0, saturation=20.0, decay_ratio=0.5, dephasing=0.0)
    assert window_scheme_b(d).exact is None
    assert threshold_scheme_b(d) is None


def test_window_scheme_b_sign_structure_with_leak():
    d = DimensionlessSchemeB(photon_scale=10.0, saturation=0.02, decay_ratio=0.2, dephasing=0.5)
    w = window_scheme_b(d).exact
    assert w is not None and w.lower > 0.0
    mid = math.sqrt(w.lower * w.upper)
    assert raw_bracket_scheme_b(d, mid) > 0.0
    assert raw_bracket_scheme_b(d, w.upper * 1.01) < 0.0
    assert raw_bracket_scheme_b(d, w.lower * 0.99) < 0.0


def test_optimum_scheme_b_exact_vs_simplified():
    rep = optimum_scheme_b(FIG4B)
    assert rep.pump_estimate == pytest.approx(49.95, rel=1e-12)
    assert rep.pump_exact == pytest.approx(-2.0 + math.sqrt(203.8), rel=1e-6)
    assert rep.discrepancy > 3.0
    # maximizer optimality against a dense window scan
    w = window_scheme_b(FIG4B).exact
    pumps = np.linspace(w.lower + 1e-9, w.upper, 1000)
    best = max(n_scheme_b(FIG4B, float(p)).photon_number for p in pumps)
    assert rep.photon_at_exact >= best - 1e-9


def test_optimum_scheme_b_small_saturation_scaling():
    # the true maximizer scales like sqrt(2/s), not like the 1/(2s) estimate
    d = DimensionlessSchemeB(photon_scale=1.0, saturation=1e-4, decay_ratio=0.0)
    rep = optimum_scheme_b(d)
    assert rep.pump_exact == pytest.approx(-2.0 + math.sqrt(4.0 + 2e4), rel=1e-6)
    n_est = n_scheme_b(d, rep.pump_estimate).photon_number
    assert rep.photon_at_exact >= n_est


def test_optimum_scheme_b_requires_window():
    d = DimensionlessSchemeB(photon_scale=1.0, saturation=20.0, decay_ratio=0.5)
    assert optimum_scheme_b(d) is None


def test_optimum_scheme_b_closed_form():
    rep = optimum_scheme_b(FIG4B)
    assert rep.pump_exact == pytest.approx(-2.0 + math.sqrt(203.8), rel=1e-14)
    assert rep.photon_at_exact == FIG4B.photon_scale * raw_bracket_scheme_b(FIG4B, rep.pump_exact)


def test_optimum_two_vertex_is_exact():
    rep = optimum_two(FIG2)
    assert rep.discrepancy == 0.0
    assert rep.pump_exact == rep.pump_estimate == 449999.0


def test_closed_form_optima_on_random_draws():
    # wherever a finite window exists, the closed-form optimum lies
    # strictly inside it and no nearby pump gives a larger bracket
    rng = np.random.default_rng(47)

    def zero_or(lo: float, hi: float) -> float:
        return 0.0 if rng.random() < 0.1 else float(log_uniform(rng, lo, hi))

    checked = {"two-level": 0, "scheme B": 0}
    for _ in range(20000):
        s = float(log_uniform(rng, 1e-8, 1.0))
        eps, delta = zero_or(1e-4, 10.0), zero_or(1e-3, 1e2)
        for name, d, window, optimum, bracket in (
            ("two-level", DimensionlessTwoLevel(1.0, s, delta),
             window_two, optimum_two, raw_bracket_two),
            ("scheme B", DimensionlessSchemeB(1.0, s, eps, delta),
             window_scheme_b, optimum_scheme_b, raw_bracket_scheme_b),
        ):
            w = window(d).exact
            rep = optimum(d)
            if w is None or not math.isfinite(w.upper):
                assert rep is None
                continue
            checked[name] += 1
            pump = rep.pump_exact
            assert w.lower < pump < w.upper, (name, d, w, pump)
            peak = bracket(d, pump)
            assert rep.photon_at_exact == peak
            for near in (pump * (1.0 - 1e-6), pump * (1.0 + 1e-6)):
                assert bracket(d, near) <= peak, (name, d, pump, near)
    assert min(checked.values()) > 10000, checked


# --------------------------------------------------------------------------
# cross-parameterization identities and sign-change consistency
# --------------------------------------------------------------------------

def test_reparameterization_identity_fixed_example():
    p_b = PhysicalThreeLevel(**EXAMPLE_3L, scheme=PumpScheme.B)
    p_a = PhysicalThreeLevel(**EXAMPLE_3L, scheme=PumpScheme.A)
    direct = n_three_physical(p_b).raw_bracket
    db, pump_b = reduce_three(p_b)
    da, pump_a = reduce_three(p_a)
    via_b = db.photon_scale * raw_bracket_scheme_b(db, pump_b)
    via_a = da.photon_scale * raw_bracket_scheme_a(da, pump_a)
    assert direct == pytest.approx(23.448125, rel=1e-12)
    assert via_b == pytest.approx(direct, rel=1e-12)
    assert via_a == pytest.approx(direct, rel=1e-12)


def test_reparameterization_identity_randomized():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = random_three_level(rng, scheme=PumpScheme.B)
        direct = n_three_physical(p).raw_bracket
        denom = p.gamma_02 + 2.0 * p.gamma_21
        gain = (p.n_atoms / (2 * p.cavity_kappa)) * p.gamma_21 * abs(
            p.gamma_02 - p.gamma_10
        ) / denom
        loss = abs(direct - gain)
        db, pump_b = reduce_three(p)
        p_a = PhysicalThreeLevel(
            n_atoms=p.n_atoms, coupling_g=p.coupling_g, cavity_kappa=p.cavity_kappa,
            gamma_21=p.gamma_21, gamma_02=p.gamma_02, gamma_10=p.gamma_10,
            gamma_ph=p.gamma_ph, scheme=PumpScheme.A,
        )
        da, pump_a = reduce_three(p_a)
        assert_identity(db.photon_scale * raw_bracket_scheme_b(db, pump_b), direct, gain + loss)
        assert_identity(da.photon_scale * raw_bracket_scheme_a(da, pump_a), direct, gain + loss)


def test_window_sign_structure_randomized():
    # inside any reported window the raw bracket is strictly positive,
    # strictly negative outside (sampled) -- both models
    rng = np.random.default_rng(47)
    found_two = found_b = 0
    while found_two < 30 or found_b < 30:
        if found_two < 30:
            d = DimensionlessTwoLevel(
                photon_scale=float(10 ** rng.uniform(0, 4)),
                saturation=float(10 ** rng.uniform(-7, 0)),
                dephasing=float(10 ** rng.uniform(-3, 3)) if rng.random() < 0.7 else 0.0,
            )
            w = window_two(d).exact
            if w is not None and math.isfinite(w.upper):
                found_two += 1
                for u in rng.uniform(0.0, 1.0, 5):
                    inside = w.lower + (w.upper - w.lower) * (0.01 + 0.98 * float(u))
                    assert raw_bracket_two(d, inside) > 0.0
                assert raw_bracket_two(d, w.upper * 1.01 + 1.0) < 0.0
                assert raw_bracket_two(d, max(0.0, w.lower * 0.99 - 1e-9)) < 0.0
        if found_b < 30:
            db = DimensionlessSchemeB(
                photon_scale=float(10 ** rng.uniform(0, 4)),
                saturation=float(10 ** rng.uniform(-5, 0)),
                decay_ratio=float(10 ** rng.uniform(-4, 0.5)),
                dephasing=float(10 ** rng.uniform(-3, 2)) if rng.random() < 0.7 else 0.0,
            )
            wb = window_scheme_b(db).exact
            if wb is not None and math.isfinite(wb.upper) and wb.lower > 0.0:
                found_b += 1
                for u in rng.uniform(0.0, 1.0, 5):
                    inside = wb.lower + (wb.upper - wb.lower) * (0.01 + 0.98 * float(u))
                    assert raw_bracket_scheme_b(db, inside) > 0.0
                assert raw_bracket_scheme_b(db, wb.upper * 1.01 + 1.0) < 0.0
                assert raw_bracket_scheme_b(db, wb.lower * 0.99) < 0.0


def test_threshold_sign_changes():
    cases = [
        (lambda p: raw_bracket_two(FIG2, p), threshold_two(FIG2)),
        (lambda p: raw_bracket_two(FIG2, p), window_two(FIG2).exact.upper),
        (lambda p: raw_bracket_scheme_a(FIG4A, p), threshold_scheme_a(FIG4A)),
        (
            lambda p: raw_bracket_scheme_b(FIG4B, p),
            window_scheme_b(FIG4B).exact.upper,
        ),
    ]
    for raw, edge in cases:
        h = 1e-6 * max(1.0, abs(edge))
        assert raw(edge - h) * raw(edge + h) < 0.0


# the bracket numerator's derivative N'(P) and the denominator D(P) of each
# model, n = photon_scale * N(P)/D(P), differentiated by hand
ONSET = {
    "fig2": (DimensionlessTwoLevel, n_two_level, threshold_two,
             lambda d, p: 1.0 - d.saturation * (2.0 * p + 2.0 + d.dephasing),
             lambda d, p: 1.0),
    "fig4a": (DimensionlessSchemeA, n_scheme_a, threshold_scheme_a,
              lambda d, p: (1.0 - d.decay_ratio) - d.saturation
              * (1.0 + d.decay_ratio + d.dephasing) * (1.0 + d.decay_ratio),
              lambda d, p: 1.0 + 2.0 * p),
    "fig4b": (DimensionlessSchemeB, n_scheme_b, threshold_scheme_b,
              lambda d, p: 1.0 - d.saturation * ((p + d.decay_ratio + p * d.decay_ratio)
                                                 + (p + d.decay_ratio + d.dephasing)
                                                 * (1.0 + d.decay_ratio)),
              lambda d, p: p + 2.0),
}


@pytest.mark.parametrize("preset", list(ONSET))
def test_photon_number_is_linear_in_the_pump_just_above_threshold(preset):
    # n(P_th + dP) = photon_scale * N'(P_th)/D(P_th) * dP + O(dP**2), since
    # N(P_th) = 0; dP = P_th*h, or h where the threshold is 0 (scheme B
    # without a leak, scheme A without saturation).  The second-order
    # terms of these records are at most 2h relative.
    cls, evaluate, threshold, slope, denominator = ONSET[preset]
    h = 1e-6
    spec = _FIGURE_PRESETS[preset]
    for saturation in spec["saturations"]:
        d = cls(**spec["params"], saturation=saturation)
        p_th = threshold(d)
        step = h * (p_th or 1.0)
        n1 = evaluate(d, p_th + step).photon_number
        n2 = evaluate(d, p_th + 2.0 * step).photon_number
        expected = d.photon_scale * slope(d, p_th) / denominator(d, p_th)
        assert expected > 0.0
        assert n1 / step == pytest.approx(expected, rel=4.0 * h), d
        assert n2 / n1 == pytest.approx(2.0, rel=4.0 * h), d


def test_steady_result_contract():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = random_three_level(rng, lo=1e-2, hi=1e2)
        res = n_three_physical(p)
        assert res.photon_number == max(0.0, res.raw_bracket)
        assert (res.regime is Regime.LASING) == (res.raw_bracket > 0.0)
        if not any(math.isnan(v) for v in res.populations):
            assert sum(res.populations) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= -1e-12 for v in res.populations)


@pytest.mark.parametrize("evaluate, d, pump", [
    # eps + pump + pump*eps overflows: inf/inf would give a nan population
    (n_scheme_b, DimensionlessSchemeB(photon_scale=1, saturation=0.9, decay_ratio=1e160), 1e160),
    # the weight sum overflows while each weight is finite: all populations 0
    (n_scheme_b, DimensionlessSchemeB(photon_scale=1, saturation=0.9, decay_ratio=1.7e308), 1),
    (n_scheme_a, DimensionlessSchemeA(photon_scale=1, saturation=0.9, decay_ratio=1e160), 1e160),
], ids=["scheme-b-nan", "scheme-b-zero", "scheme-a-nan"])
def test_overflowing_no_field_weights_raise_naming_pump_and_record(evaluate, d, pump):
    raw = {n_scheme_a: raw_bracket_scheme_a, n_scheme_b: raw_bracket_scheme_b}[evaluate](d, pump)
    assert raw <= 0.0  # off the lasing branch, with a bracket that is not nan
    with pytest.raises(ValueError, match="no-field weights overflow") as exc:
        evaluate(d, pump)
    assert f"pump={pump!r} for {d!r}" in str(exc.value)


def test_routes_give_the_same_no_field_populations_on_every_python():
    # the builtin sum is compensated from Python 3.12 on, where it printed
    # rho00 0.9727443159359463 for this point; plain addition gives ...465
    d = DimensionlessSchemeB(photon_scale=1000, saturation=0.9,
                             decay_ratio=0.47867316457526454)
    pump = 0.009070375658164338
    reduced = n_scheme_b(d, pump)
    physical = n_three_physical(expand_scheme_b(d, pump))
    assert reduced.regime is physical.regime is Regime.BELOW_THRESHOLD
    assert reduced.populations == physical.populations
    assert reduced.populations[0].hex() == (0.9727443159359465).hex()


def test_lossless_scheme_a_limit_is_finite_where_its_terms_overflow():
    # 1 + eps + delta overflows, and s = 0 times it was nan
    d = DimensionlessSchemeA(photon_scale=0.5, saturation=0.0, decay_ratio=1e308,
                             dephasing=1e308)
    assert saturation_limit_scheme_a(d) == 0.5 * (1.0 - 1e308) / 2.0
    assert threshold_scheme_a(d) is None


def test_lossless_scheme_b_coefficients_are_finite_where_their_terms_overflow():
    d = DimensionlessSchemeB(photon_scale=1.0, saturation=0.0, decay_ratio=1e160,
                             dephasing=1e160)
    assert _coeffs_scheme_b(d) == (-0.0, 1.0, -1e160)
    assert threshold_scheme_b(d) == 1e160
    assert window_scheme_b(d).exact == LasingWindow(1e160, math.inf, exact=True)


def test_n_min_atoms_raises_on_an_underflowing_prefactor_against_an_infinite_ratio():
    # kappa*gamma_02/(2*g**2) underflows to 0 and gamma_ph/gamma_02 overflows
    p = PhysicalThreeLevel(2, 1e-8, 5e-324, 1, 0.5, 0, 1.7e308, PumpScheme.A)
    with pytest.raises(ValueError, match="N_min is 0 \\* inf") as exc:
        n_min_atoms(p)
    assert repr(p) in str(exc.value)


def test_n_min_atoms_is_not_zero_where_only_twice_g_squared_overflows():
    # 2*g**2 = 2e308 overflows, so kappa*gamma_02/(2*g**2) reads 0, but
    # (kappa/g)/g is 5.6e-97 and N_min is 6.74e182
    rates = (7.677760046003408e+161, 1e+154, 5.596085835872074e+211, 1.1360959880878106e+251,
             1.7546273553649598e+61, 1.282798234714692e-81, 2.408892649911643e+279)
    p = PhysicalThreeLevel(*rates, PumpScheme.A)
    _, g, kappa, _, g02, g10, gph = map(Fraction, rates)
    exact = kappa * (g02 + g10 + gph) / (2 * g * g) * (g02 + g10) / (g02 - g10)
    assert abs(Fraction(n_min_atoms(p)) - exact) <= Fraction(1, 10**12) * exact


def test_n_min_atoms_is_finite_where_only_the_dephasing_ratio_overflows():
    # gamma_ph/gamma_02 overflows, but N_min = kappa*(gamma_02 + gamma_10
    # + gamma_ph)/(2*g**2) * (1 + eps)/(1 - eps) is about 8.5e7
    p = PhysicalThreeLevel(1, 1, 1e-300, 1, 1e-10, 0, 1.7e308, PumpScheme.A)
    kappa, g, g02, g10, gph = map(Fraction, (1e-300, 1, 1e-10, 0, 1.7e308))
    exact = kappa * (g02 + g10 + gph) / (2 * g * g) * (g02 + g10) / (g02 - g10)
    assert abs(Fraction(n_min_atoms(p)) - exact) <= Fraction(1, 10**12) * exact


@pytest.mark.parametrize("d, optimum", [
    # pump*eps overflows in the scheme-B bracket at pump_exact = 1.0e155
    (DimensionlessSchemeB(photon_scale=1.5959435601950936e+221, saturation=1e-310,
                          decay_ratio=5.3415689167391646e+153,
                          dephasing=7.249715693536991e-95), optimum_scheme_b),
    # pump + 1 + dephasing overflows in the two-level bracket
    (DimensionlessTwoLevel(photon_scale=1e-300, saturation=4.436559802296104e-309,
                           dephasing=1.7e308), optimum_two),
], ids=["scheme-B", "two-level"])
def test_peak_is_positive_where_the_bracket_terms_overflow(d, optimum):
    opt = optimum(d)
    win = (window_two if optimum is optimum_two else window_scheme_b)(d).exact
    assert win.lower < opt.pump_exact < win.upper
    s, pump = Fraction(d.saturation), Fraction(opt.pump_exact)
    if optimum is optimum_two:
        raw = (pump - 1) - s * (pump + 1) * (pump + 1 + Fraction(d.dephasing))
    else:
        eps = Fraction(d.decay_ratio)
        raw = ((pump - eps) - s * (pump + eps + Fraction(d.dephasing))
               * (pump + eps + pump * eps)) / (pump + 2)
    exact = Fraction(d.photon_scale) * raw
    assert exact > 0
    assert abs(Fraction(opt.photon_at_exact) - exact) <= Fraction(1, 10**12) * exact

@pytest.mark.parametrize("p", [
    # the loss rounds to 0 against an infinite coupling factor: the bracket
    # reads lasing and the pinned inversion kappa*gamma_perp/(N*g**2) is inf
    PhysicalThreeLevel(1e8, 1e-160, 1, 5e-324, 1e-8, 0, 2, PumpScheme.A),
    # kappa*gamma_perp and N*g**2 both overflow: the pinned inversion is nan
    PhysicalThreeLevel(1.7e308, 5.689041330458559e+55, 1.731937616202559e+284, 0.5,
                       2.162705216615388e-58, 5e-324, 1.5772137075926396e+29, PumpScheme.A),
], ids=["inf", "nan"])
def test_non_finite_pinned_inversion_names_coupling_g(p):
    with pytest.raises(ValueError, match="pinned inversion") as exc:
        n_three_physical(p)
    assert f"coupling_g={p.coupling_g!r}" in str(exc.value)


def test_optimum_scheme_b_is_finite_where_its_stationary_point_term_overflows():
    # x = -(2b - c)/a overflows; P* = sqrt(x) there, inside the window
    d = DimensionlessSchemeB(photon_scale=1.7e308, saturation=1.473264e-318,
                             decay_ratio=1.7041384994819939e+145)
    win = window_scheme_b(d).exact
    opt = optimum_scheme_b(d)
    a, b, c = _coeffs_scheme_b(d)
    assert opt.pump_exact == pytest.approx(math.sqrt((2.0 * b - c) * 1e-10 / -a) * 1e5)
    assert win.lower < opt.pump_exact < win.upper
    assert 0.0 < opt.photon_at_exact < math.inf


@pytest.mark.parametrize("d", [
    DimensionlessSchemeA(photon_scale=1e3, saturation=1e-3, decay_ratio=0.01),
    FIG4A,
    DimensionlessSchemeA(photon_scale=1.0, saturation=0.05, decay_ratio=0.3, dephasing=2.0),
    DimensionlessSchemeA(photon_scale=1.0, saturation=0.0, decay_ratio=0.5),
    # the loss term alone is far past the gain: no lasing, however hard the pump
    DimensionlessSchemeA(photon_scale=1.27494745791485e-123, saturation=1.738559042472392e+23,
                         decay_ratio=5.170304674396111e-199, dephasing=2.763536985458695e+68),
], ids=["lasing", "fig4a", "dephasing", "lossless", "dark"])
@pytest.mark.parametrize("pump", [9e307, 1e308, 1.7e308, 1.7976931348623157e308])
def test_scheme_a_bracket_is_exact_where_one_plus_twice_the_pump_overflows(d, pump):
    assert 1.0 + 2.0 * pump == math.inf
    s, eps, delta, p = map(Fraction, (d.saturation, d.decay_ratio, d.dephasing, pump))
    exact = (p * (1 - eps) - s * (1 + eps + delta) * (p * (1 + eps) + eps)) / (1 + 2 * p)
    raw = raw_bracket_scheme_a(d, pump)
    assert abs(Fraction(raw) - exact) <= Fraction(1, 2**51) * abs(exact)
    res = n_scheme_a(d, pump)
    assert res.raw_bracket == raw
    if exact <= 0:
        assert res.photon_number == 0.0 and res.regime is Regime.BELOW_THRESHOLD
        return
    assert res.regime is Regime.LASING
    assert res.photon_number == d.photon_scale * raw
    rho00 = p * (1 - s * (1 + eps + delta)) / (1 + 2 * p)
    assert abs(Fraction(res.populations[0]) - rho00) <= Fraction(1, 2**50) * rho00


@pytest.mark.parametrize("pump", [8e307, 1e308, 1.7e308, 1.7976931348623157e308])
def test_dark_scheme_b_record_is_below_threshold_at_the_largest_pumps(tmp_path, capsys, pump):
    # the dark record of the scheme-A case above, as scheme B: its bracket
    # numerator goes to -inf, not to inf - inf, so the point is classified
    # and the steady command exits 0
    fields = {"photon_scale": 1.27494745791485e-123, "saturation": 1.738559042472392e+23,
              "decay_ratio": 5.170304674396111e-199, "dephasing": 2.763536985458695e+68}
    res = n_scheme_b(DimensionlessSchemeB(**fields), pump)
    assert res.regime is Regime.BELOW_THRESHOLD and res.photon_number == 0.0
    assert res.raw_bracket == -math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "three-b", "parameterization": "dimensionless",
                                "params": fields}), encoding="utf-8")
    assert main(["steady", "--config", str(path), "--pump", repr(pump), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["regime"], report["raw_bracket"]) == ("below_threshold", "-inf")


def test_saturation_zero_brackets_leave_out_the_saturation_term():
    # at s = 0 a factor of the saturation term overflows here and the term
    # was 0 * inf: the brackets are (P - eps)/(P + 2) and P*(1 - eps)/(1 + 2P);
    # with delta = 1e308 the pinned d = s * (P + eps + delta) is 0 * inf too
    b = DimensionlessSchemeB(photon_scale=1, saturation=0, decay_ratio=2)
    wide = DimensionlessSchemeB(photon_scale=1, saturation=0, decay_ratio=2, dephasing=1e308)
    for d, pump in [(b, 1e307), (b, 1e308), (b, 1.7976931348623157e308), (wide, 1e308)]:
        res = n_scheme_b(d, pump)
        assert raw_bracket_scheme_b(d, pump) == res.raw_bracket == res.photon_number == 1.0
        assert res.regime is Regime.LASING and all(map(math.isfinite, res.populations))
    a = DimensionlessSchemeA(photon_scale=1, saturation=0, decay_ratio=3)
    huge = DimensionlessSchemeA(photon_scale=1, saturation=0, decay_ratio=1e308, dephasing=1e308)
    for d, pump, raw in [(a, 5e307, -1.0), (a, 8e307, -1.0), (huge, 1e308, -5e307)]:
        assert raw_bracket_scheme_a(d, pump) == raw  # 1 + 2P overflows at 1e308
        # the point is classified; its no-field populations overflow, as at 1e308
        with pytest.raises(ValueError, match="the no-field weights overflow"):
            n_scheme_a(d, pump)


@pytest.mark.parametrize("pump", [math.inf, math.nan])
def test_scheme_a_bracket_still_raises_at_a_non_finite_pump(pump):
    with pytest.raises(ValueError, match="the bracket is NaN"):
        n_scheme_a(FIG4A, pump)
