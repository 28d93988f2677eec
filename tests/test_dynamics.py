
import dataclasses
import re
import warnings

import numpy as np
import pytest

from conftest import (
    log_uniform,
    perturbed_fixed_state,
    random_lasing_three_level,
    random_lasing_two_level,
    random_three_level,
)
import lasekit.dynamics as dynamics
from lasekit import (
    BlochState2,
    BlochState3,
    DimensionlessTwoLevel,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    StiffnessError,
    default_t_max,
    derivs_three,
    derivs_two,
    expand_two,
    fixed_point_state,
    initial_state,
    integrate,
    jacobian_three,
    jacobian_two,
    n_three_physical,
    n_two_level,
    reduce_two,
    settle,
    threshold_two,
)

EXAMPLE_3L = PhysicalThreeLevel(
    n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
    gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
    scheme=PumpScheme.B,
)
FIG2 = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=1e5)
# two-level Lorenz-Haken draw on the bad-cavity side (sigma = 10, b = 2,
# r = 21): its fixed point n = 40 is linearly stable (Re lambda = -0.026
# +- 15.7i, -25.9), but a pulsing attractor coexists with it
LORENZ_HAKEN = PhysicalTwoLevel(n_atoms=1680.0, coupling_g=1.0, cavity_kappa=20.0,
                                gamma_decay=1.0, pump_Gamma=3.0, gamma_ph=0.0)


def rates_scale(p) -> float:
    if isinstance(p, PhysicalTwoLevel):
        return max(p.cavity_kappa, p.gamma_decay, p.pump_Gamma, p.gamma_ph,
                   p.n_atoms * p.coupling_g)
    return max(p.cavity_kappa, p.gamma_21, p.gamma_02, p.gamma_10, p.gamma_ph,
               p.n_atoms * p.coupling_g)


def test_derivs_two_equilibrium_is_fixed_point():
    p = PhysicalTwoLevel(n_atoms=10.0, coupling_g=1.0, cavity_kappa=1.0,
                         gamma_decay=1.0, pump_Gamma=3.0)
    state = BlochState2(rho11=3.0 / 4.0, y=0.0, x=0.0)
    assert np.all(derivs_two(state, p) == 0.0)


def test_derivs_two_pure_decay():
    p = PhysicalTwoLevel(n_atoms=10.0, coupling_g=1.0, cavity_kappa=1.0,
                         gamma_decay=2.0, pump_Gamma=0.0)
    d = derivs_two(BlochState2(rho11=1.0, y=0.0, x=0.0), p)
    assert d[0] == -2.0
    assert d[1] == 0.0 and d[2] == 0.0


def test_derivs_two_vanish_at_analytic_lasing_fixed_point():
    p = expand_two(FIG2, 10.0)
    state = fixed_point_state(p)
    norm = float(np.linalg.norm(derivs_two(state, p)))
    scale = rates_scale(p) * (1.0 + abs(state.x))
    assert norm < 1e-10 * scale


def test_derivs_three_vanish_at_analytic_lasing_fixed_point():
    state = fixed_point_state(EXAMPLE_3L)
    assert state.photon_number == pytest.approx(23.448125, rel=1e-12)
    norm = float(np.linalg.norm(derivs_three(state, EXAMPLE_3L)))
    scale = rates_scale(EXAMPLE_3L) * (1.0 + abs(state.x))
    assert norm < 1e-9 * scale


def test_derivs_three_no_field_equilibrium():
    state = initial_state(EXAMPLE_3L, seed_field=0.0)
    d = derivs_three(state, EXAMPLE_3L)
    assert np.linalg.norm(d) < 1e-14


def test_derivs_three_pump_off_drains_reservoir():
    p = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=0.0, gamma_10=0.1, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    d = derivs_three(BlochState3(rho11=0.0, rho22=0.5, y=0.0, x=0.0), p)
    assert d[1] == -0.5  # rho22 decays, nothing replaces it


def test_implied_photon_rate_matches_quadrature_form():
    # d(x^2)/dt must equal -2*kappa*n + 2*N*g*x*y identically
    rng = np.random.default_rng(41)
    for _ in range(100):
        p = PhysicalTwoLevel(
            n_atoms=float(10 ** rng.uniform(0, 4)),
            coupling_g=float(10 ** rng.uniform(-1, 1)),
            cavity_kappa=float(10 ** rng.uniform(-2, 2)),
            gamma_decay=float(10 ** rng.uniform(-2, 2)),
            pump_Gamma=float(10 ** rng.uniform(-2, 2)),
            gamma_ph=float(10 ** rng.uniform(-2, 2)),
        )
        s = BlochState2(
            rho11=float(rng.uniform(0, 1)),
            y=float(rng.normal(0, 1)),
            x=float(rng.normal(0, 3)),
        )
        dx = derivs_two(s, p)[2]
        lhs = 2.0 * s.x * dx
        rhs = -2.0 * p.cavity_kappa * s.x**2 + 2.0 * p.n_atoms * p.coupling_g * s.x * s.y
        scale = 2.0 * p.cavity_kappa * s.x**2 + 2.0 * p.n_atoms * p.coupling_g * abs(s.x * s.y)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, scale)

        p3 = PhysicalThreeLevel(
            n_atoms=p.n_atoms, coupling_g=p.coupling_g, cavity_kappa=p.cavity_kappa,
            gamma_21=p.gamma_decay, gamma_02=p.pump_Gamma, gamma_10=0.05,
            gamma_ph=p.gamma_ph, scheme=PumpScheme.B,
        )
        s3 = BlochState3(rho11=0.3, rho22=0.2, y=s.y, x=s.x)
        dx3 = derivs_three(s3, p3)[3]
        lhs = 2.0 * s3.x * dx3
        rhs = -2.0 * p3.cavity_kappa * s3.x**2 + 2.0 * p3.n_atoms * p3.coupling_g * s3.x * s3.y
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, scale)


def _central_difference(derivs, state, p, h=1e-2):
    v = np.array(dataclasses.astuple(state))
    cols = []
    for j in range(len(v)):
        step = h * (1.0 + abs(v[j]))
        up, down = v.copy(), v.copy()
        up[j] += step
        down[j] -= step
        cols.append(
            (derivs(type(state)(*up), p) - derivs(type(state)(*down), p)) / (2.0 * step)
        )
    return np.column_stack(cols)


def test_jacobians_match_central_differences():
    # the right-hand sides are at most bilinear, so a central difference
    # is exact up to rounding at any step
    rng = np.random.default_rng(47)
    for _ in range(50):
        p = PhysicalTwoLevel(
            n_atoms=float(10 ** rng.uniform(0, 4)),
            coupling_g=float(10 ** rng.uniform(-1, 1)),
            cavity_kappa=float(10 ** rng.uniform(-2, 2)),
            gamma_decay=float(10 ** rng.uniform(-2, 2)),
            pump_Gamma=float(10 ** rng.uniform(-2, 2)),
            gamma_ph=float(10 ** rng.uniform(-2, 2)),
        )
        s = BlochState2(rho11=float(rng.uniform(0.1, 0.9)),
                        y=float(rng.normal(0, 1)), x=float(rng.normal(0, 3)))
        jac = jacobian_two(s, p)
        assert jac.shape == (3, 3)
        fd = _central_difference(derivs_two, s, p)
        assert np.allclose(jac, fd, rtol=1e-9, atol=1e-9 * np.abs(jac).max())

        p3 = PhysicalThreeLevel(
            n_atoms=p.n_atoms, coupling_g=p.coupling_g, cavity_kappa=p.cavity_kappa,
            gamma_21=p.gamma_decay, gamma_02=p.pump_Gamma,
            gamma_10=float(10 ** rng.uniform(-2, 2)), gamma_ph=p.gamma_ph,
            scheme=PumpScheme.B,
        )
        r11, r22 = rng.uniform(0.1, 0.45, 2)
        s3 = BlochState3(rho11=float(r11), rho22=float(r22), y=s.y, x=s.x)
        jac = jacobian_three(s3, p3)
        assert jac.shape == (4, 4)
        fd = _central_difference(derivs_three, s3, p3)
        assert np.allclose(jac, fd, rtol=1e-9, atol=1e-9 * np.abs(jac).max())


def test_rhs_matches_the_module_equations_bit_for_bit():
    # the folded constants of _rhs_of must give exactly the equations of
    # the module docstring, evaluated as written there
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_at, g, kappa, g21, g02, g10, gperp, gamma, pump = log_uniform(rng, 1e-3, 1e3, 9)
        par2 = tuple(float(v) for v in (n_at, g, kappa, gamma, pump, gperp, 0.0))
        par3 = tuple(float(v) for v in (n_at, g, kappa, g21, g02, g10, gperp))
        rhs2 = dynamics._rhs_of(2, par2)
        rhs3 = dynamics._rhs_of(3, par3)
        n_at, g, kappa, gamma, pump, gperp, _ = par2
        _, _, _, g21, g02, g10, _ = par3
        for rho11, rho22, y, x in rng.uniform(-2.0, 2.0, (100, 4)).tolist():
            assert rhs2(rho11, y, x, 0.0) == (
                -gamma*rho11 + pump*(1 - rho11) - 2*g*x*y,
                -gperp*y + g*x*(2*rho11 - 1),
                -kappa*x + n_at*g*y,
                0.0,
            )
            rho00 = 1 - rho11 - rho22
            assert rhs3(rho11, rho22, y, x) == (
                g21*rho22 - g10*rho11 - 2*g*x*y,
                g02*rho00 - g21*rho22,
                -gperp*y + g*x*(rho11 - rho00),
                -kappa*x + n_at*g*y,
            )


def test_initial_state_uses_equilibrium_and_seed():
    s = initial_state(EXAMPLE_3L, seed_field=1e-3)
    assert s.x == 1e-3
    assert s.y == 0.0
    assert s.rho11 == pytest.approx(2.0 / 2.3, rel=1e-14)


def test_default_t_max_slowest_rate():
    assert default_t_max(EXAMPLE_3L) == pytest.approx(1e3 / 0.1)
    p = PhysicalTwoLevel(n_atoms=10.0, coupling_g=1.0, cavity_kappa=2.0,
                         gamma_decay=4.0, pump_Gamma=0.0, gamma_ph=0.0)
    assert default_t_max(p) == pytest.approx(1e3 / 2.0)


def test_integrate_below_threshold_decays_to_zero():
    thr = threshold_two(FIG2)
    p = expand_two(FIG2, 0.5 * thr)
    series = integrate(p, config=IntegratorConfig(t_max=100.0), stop_at_steady=True)
    assert series.photon_numbers[-1] < 1e-8
    # the field decays monotonically in this strongly overdamped regime
    assert np.all(np.diff(series.photon_numbers) <= 1e-18)


def test_integrate_population_bounds_and_trace():
    series = integrate(EXAMPLE_3L, config=IntegratorConfig(t_max=60.0))
    rho11 = series.states[:, 0]
    rho22 = series.states[:, 1]
    rho00 = 1.0 - rho11 - rho22
    for arr in (rho11, rho22, rho00):
        assert arr.min() >= -1e-8
        assert arr.max() <= 1.0 + 1e-8
    assert np.all(np.diff(series.times) > 0.0)
    assert np.allclose(series.photon_numbers, series.states[:, 3] ** 2)


def test_integrate_reaches_lasing_branch():
    series = integrate(EXAMPLE_3L, stop_at_steady=True)
    assert series.steady
    assert series.photon_numbers[-1] == pytest.approx(23.448125, rel=1e-6)


def test_settle_three_level_example():
    res = settle(EXAMPLE_3L)
    assert res.converged
    assert res.photon_number == pytest.approx(23.448125, rel=1e-6)
    assert sum(res.populations) == pytest.approx(1.0, abs=1e-9)


def test_settle_two_level_stiff_example():
    # strongly dephased regime: coherence decay 5e4 times faster than the
    # population rates; the explicit pair must still land on the closed form
    p = expand_two(FIG2, 10.0)
    res = settle(p)
    assert res.converged
    assert res.photon_number == pytest.approx(
        n_two_level(FIG2, 10.0).photon_number, rel=1e-6
    )


def test_settle_below_threshold_is_empty_cavity():
    thr = threshold_two(FIG2)
    res = settle(expand_two(FIG2, 0.5 * thr))
    assert res.converged
    assert res.photon_number < 1e-12


def test_settle_just_below_threshold_with_long_horizon():
    d = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-3, dephasing=0.0)
    thr = threshold_two(d)
    p = expand_two(d, thr * (1.0 - 1e-3))
    res = settle(p, config=IntegratorConfig(t_max=1e5))
    assert res.converged
    assert res.photon_number < 1e-8


def test_settle_random_draws_agree_with_closed_forms():
    # trajectories start a little off the predicted fixed point: a wrong
    # closed form would see the flow walk away to the true attractor
    rng = np.random.default_rng(43)
    cfg = IntegratorConfig()
    for _ in range(15):
        p = random_lasing_three_level(rng)
        res = settle(p, initial=perturbed_fixed_state(p), config=cfg)
        assert res.converged
        assert res.photon_number == pytest.approx(
            n_three_physical(p).photon_number, rel=1e-5
        )
    for _ in range(15):
        p, pump = random_lasing_two_level(rng)
        d, _ = reduce_two(p)
        res = settle(p, initial=perturbed_fixed_state(p), config=cfg)
        assert res.converged
        assert res.photon_number == pytest.approx(
            n_two_level(d, pump).photon_number, rel=1e-5
        )


def test_settle_polish_finishes_before_plain_stepper():
    # Newton on the Jacobian ends the settle well before the stepper alone
    # creeps down to the cutoff, on the same fixed point
    res = settle(EXAMPLE_3L)
    series = integrate(EXAMPLE_3L, stop_at_steady=True)
    assert res.converged and series.steady
    assert res.time < series.times[-1]
    assert res.photon_number == pytest.approx(series.photon_numbers[-1], rel=1e-6)


def test_settle_counts_its_work():
    res = settle(EXAMPLE_3L)
    assert res.converged
    assert res.steps > 0
    assert res.polish_attempts >= 1


def test_settle_from_stable_fixed_point_takes_no_steps():
    # the closed-form point meets the cutoff at t = 0 and is stable
    res = settle(EXAMPLE_3L, initial=fixed_point_state(EXAMPLE_3L))
    assert res.converged
    assert res.time == 0.0
    assert (res.steps, res.rejected_steps, res.polish_attempts) == (0, 0, 0)


def test_settle_weakly_damped_fast_mode_converges():
    # slowest mode -0.733 +- 621i: the stepper's noise floor keeps ||f||
    # near 1e-4, far above the cutoff, until t_max; the polish ends it
    p = PhysicalThreeLevel(
        n_atoms=8800.18, coupling_g=8.9665, cavity_kappa=40.519,
        gamma_21=27.498, gamma_02=39.364, gamma_10=1.5616, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    res = settle(p, initial=perturbed_fixed_state(p))
    assert res.converged
    assert res.photon_number == pytest.approx(
        n_three_physical(p).photon_number, rel=1e-9
    )


def test_settle_does_not_converge_on_hopf_unstable_fixed_point():
    # the fixed point meets the cutoff at t = 0, but it is unstable: the
    # run must leave it and report no convergence at t_max
    p = dataclasses.replace(EXAMPLE_3L, gamma_02=0.5)
    start = fixed_point_state(p)
    assert np.linalg.eigvals(jacobian_three(start, p)).real.max() > 0.1
    res = settle(p, initial=start, config=IntegratorConfig(t_max=200.0))
    assert not res.converged
    assert res.time == pytest.approx(200.0)


def test_settle_leaves_unstable_empty_cavity():
    # a seed field of 1e-12 meets the cutoff at the empty cavity, which is
    # unstable above threshold; the run must grow onto the lasing branch
    start = initial_state(EXAMPLE_3L, seed_field=1e-12)
    assert np.linalg.eigvals(jacobian_three(start, EXAMPLE_3L)).real.max() > 0.0
    res = settle(EXAMPLE_3L, initial=start)
    assert res.converged
    assert res.time > 0.0
    assert res.photon_number == pytest.approx(23.448125, rel=1e-6)


def test_integrate_stop_at_steady_leaves_unstable_empty_cavity():
    # the empty cavity meets the cutoff at t = 0 but is unstable above
    # threshold; integrate must not stop there either
    start = initial_state(EXAMPLE_3L, seed_field=1e-12)
    series = integrate(EXAMPLE_3L, initial=start, stop_at_steady=True)
    assert series.steady
    assert series.times[-1] > 0.0
    assert series.photon_numbers[-1] == pytest.approx(23.448125, rel=1e-6)


def test_settle_bad_cavity_coexisting_attractor():
    # a seed field grows onto the pulsing attractor, which an early Newton
    # exit must not mistake for the stable fixed point; a start next to
    # the fixed point settles onto it
    res = settle(LORENZ_HAKEN, initial=initial_state(LORENZ_HAKEN),
                 config=IntegratorConfig(t_max=200.0))
    assert not res.converged
    res = settle(LORENZ_HAKEN, initial=perturbed_fixed_state(LORENZ_HAKEN))
    assert res.converged
    assert res.photon_number == pytest.approx(40.0, rel=1e-9)


def test_settle_without_population_flow_runs():
    # gamma_21 = gamma_02 = 0 leaves gamma_par undefined; the good-cavity
    # test must treat that as no schedule rather than raise
    p = dataclasses.replace(EXAMPLE_3L, gamma_21=0.0, gamma_02=0.0)
    start = BlochState3(rho11=0.2, rho22=0.3, y=0.0, x=1e-3)
    res = settle(p, initial=start, config=IntegratorConfig(t_max=10.0))
    assert res.time == pytest.approx(10.0)
    assert res.state.rho22 == 0.3


def _record_polish(monkeypatch):
    """Wrap the Newton polish where the settle stepper looks it up, on the
    dynamics module; returns the list of states it is tried at."""
    calls = []
    polish = dynamics._polish

    def recorder(model, par, n, u, steady_tol):
        calls.append(u)
        return polish(model, par, n, u, steady_tol)

    monkeypatch.setattr(dynamics, "_polish", recorder)
    return calls


def test_polish_schedule_starts_on_first_step_on_good_cavity(monkeypatch):
    calls = _record_polish(monkeypatch)
    # a horizon the first step reaches: the polish is tried once, at the
    # state of that accepted step, not at the start
    first = settle(EXAMPLE_3L, config=IntegratorConfig(t_max=0.01))
    assert (first.steps, first.polish_attempts) == (1, 1)
    assert calls == [dynamics._state_tuple(3, first.state)]
    calls.clear()
    res = settle(EXAMPLE_3L)
    assert res.converged
    assert res.polish_attempts == len(calls)
    # 24.80 with the polish near the cutoff alone
    assert res.time < 0.75 * 24.80


def test_polish_schedule_off_on_bad_cavity(monkeypatch):
    # only the once-per-approach attempt near the cutoff runs there
    calls = _record_polish(monkeypatch)
    runs = [
        settle(LORENZ_HAKEN, initial=initial_state(LORENZ_HAKEN),
               config=IntegratorConfig(t_max=200.0)),
        settle(LORENZ_HAKEN, initial=perturbed_fixed_state(LORENZ_HAKEN)),
    ]
    assert calls
    assert sum(r.polish_attempts for r in runs) == len(calls)
    steady_tol = IntegratorConfig().steady_tol
    for u in calls:
        f = derivs_two(BlochState2(*u[:3]), LORENZ_HAKEN)
        assert np.linalg.norm(f) < 1e4 * steady_tol * (np.linalg.norm(u) + 1.0)


def test_settle_converges_on_flow_cutoff_when_polish_fails(monkeypatch):
    # with every Newton attempt failing, settle must still end on the
    # derivative cutoff, which the tightened tolerances let the flow reach
    monkeypatch.setattr(dynamics, "_polish", lambda *args: None)
    p = PhysicalThreeLevel(
        n_atoms=7.1334269465301094, coupling_g=3.2273591340993657,
        cavity_kappa=3.741172319353873, gamma_21=10.866634813917733,
        gamma_02=21.53623725103358, gamma_10=1.0337193074442967, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    res = settle(p, initial=initial_state(p), config=IntegratorConfig(t_max=100.0))
    assert res.converged
    assert res.time < 100.0
    assert res.polish_attempts > 0
    assert res.photon_number == pytest.approx(n_three_physical(p).photon_number, rel=1e-6)


def test_settle_reports_nonconvergence_on_short_horizon():
    res = settle(EXAMPLE_3L, config=IntegratorConfig(t_max=0.5))
    assert not res.converged
    assert res.time == pytest.approx(0.5)


def test_unreachable_tolerances_raise_stiffness_error():
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300, t_max=10.0)
    # the scaled-error sums overflow here; that must surface as inf inside
    # the loop, not as an OverflowError or a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as err:
            integrate(EXAMPLE_3L, config=cfg)
    assert err.value.state is not None



@pytest.mark.parametrize(
    "tolerances", [{"rel_tol": 1e300}, {"abs_tol": 1e300}, {"rel_tol": 0.5}]
)
def test_runaway_before_underflow_names_the_tolerances(tolerances):
    # tolerances this loose let the state run off to ~1e100 before the
    # step underflows; the advice must be to tighten, not to relax
    with pytest.raises(ValueError, match=r"at t = .*tighten rel_tol/abs_tol"):
        settle(EXAMPLE_3L, config=IntegratorConfig(**tolerances))


def _error_time(err) -> float:
    """The time named by a "tighten rel_tol/abs_tol" error."""
    return float(re.search(r"at t = (\S+) \(", str(err.value)).group(1))


@pytest.mark.parametrize(
    "tolerances",
    [{"abs_tol": 2.0}, {"abs_tol": 5.0}, {"rel_tol": 0.9}],
)
def test_settle_outside_state_space_names_the_tolerances(tolerances):
    # tolerances this loose carry the run to negative populations or
    # rho11 + rho22 > 1; that must surface as one clear error, not a
    # state-validation failure, and without integrating on to t_max = 1e4
    with pytest.raises(ValueError, match=r"at t = .*tighten rel_tol/abs_tol") as err:
        settle(EXAMPLE_3L, config=IntegratorConfig(**tolerances))
    assert _error_time(err) < 10.0


# abs_tol -> whether the run stays inside the state space until it converges
LOOSE_ABS_TOL = {0.3: True, 0.5: False, 0.9: False}


@pytest.mark.parametrize("abs_tol", sorted(LOOSE_ABS_TOL))
def test_settle_loose_abs_tol_stays_physical(abs_tol):
    # settle hands back no state outside the state space: either the run
    # stays inside and converges on the fixed point, or the first accepted
    # state seen outside ends it with the error naming the tolerances,
    # long before t_max
    cfg = IntegratorConfig(abs_tol=abs_tol)
    if LOOSE_ABS_TOL[abs_tol]:
        res = settle(EXAMPLE_3L, config=cfg)
        assert res.converged
        assert res.photon_number == pytest.approx(23.448125, rel=1e-6)
    else:
        with pytest.raises(ValueError, match=r"at t = .*tighten rel_tol/abs_tol") as err:
            settle(EXAMPLE_3L, config=cfg)
        assert _error_time(err) < 0.01 * default_t_max(EXAMPLE_3L)


def test_settle_loose_rel_tol_converges():
    # rel_tol 0.3 keeps this run inside the state space up to convergence
    res = settle(EXAMPLE_3L, config=IntegratorConfig(rel_tol=0.3))
    assert res.converged
    assert res.photon_number == pytest.approx(23.448125, rel=1e-6)


def test_overflowing_initial_step_scale_falls_back():
    # a zero component (the coherence y) against abs_tol 1e-300 overflows
    # the initial-step derivative scale; the first-step guess must fall
    # back to a small positive step instead of dividing by zero; the run
    # converges at t = 12.95
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-300, t_max=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = settle(EXAMPLE_3L, config=cfg)
    assert res.converged
    assert res.photon_number == pytest.approx(23.448125, rel=1e-6)


def test_subnormal_abs_tol_settles_two_level():
    # the tightened abs_tol underflows to zero here; the error scale of an
    # identically zero component must stay positive all the same
    p = expand_two(FIG2, 10.0)
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = settle(p, config=cfg)
    assert res.converged
    assert res.photon_number == pytest.approx(
        n_two_level(FIG2, 10.0).photon_number, rel=1e-6
    )


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(steady_tol=0.0)


def test_integrate_honors_max_step():
    series = integrate(
        EXAMPLE_3L, config=IntegratorConfig(t_max=5.0, max_step=0.01)
    )
    assert np.max(np.diff(series.times)) <= 0.01 + 1e-12


def test_state_model_mismatch_rejected():
    with pytest.raises(TypeError):
        integrate(EXAMPLE_3L, initial=BlochState2(rho11=0.5, y=0.0, x=1e-3))


TWO_LEVEL = expand_two(FIG2, 2.0)


@pytest.mark.parametrize("fn, state, p", [
    (derivs_two, initial_state(TWO_LEVEL), EXAMPLE_3L),
    (jacobian_two, initial_state(TWO_LEVEL), EXAMPLE_3L),
    (derivs_two, initial_state(EXAMPLE_3L), TWO_LEVEL),
    (jacobian_two, initial_state(EXAMPLE_3L), TWO_LEVEL),
    (derivs_two, initial_state(EXAMPLE_3L), EXAMPLE_3L),
    (jacobian_two, initial_state(EXAMPLE_3L), EXAMPLE_3L),
    (derivs_three, initial_state(EXAMPLE_3L), TWO_LEVEL),
    (jacobian_three, initial_state(EXAMPLE_3L), TWO_LEVEL),
    (derivs_three, initial_state(TWO_LEVEL), EXAMPLE_3L),
    (jacobian_three, initial_state(TWO_LEVEL), EXAMPLE_3L),
    (derivs_three, initial_state(TWO_LEVEL), TWO_LEVEL),
    (jacobian_three, initial_state(TWO_LEVEL), TWO_LEVEL),
], ids=lambda v: getattr(v, "__name__", type(v).__name__))
def test_wrong_model_derivs_and_jacobian_raise(fn, state, p):
    # each function evaluates the model its name promises and no other
    with pytest.raises(TypeError):
        fn(state, p)


@pytest.mark.parametrize("p, regime", [
    (expand_two(FIG2, 0.5), Regime.BELOW_THRESHOLD),
    (expand_two(FIG2, 1e7), Regime.ABOVE_UPPER_BOUND),
    (dataclasses.replace(EXAMPLE_3L, gamma_02=0.05), Regime.BELOW_THRESHOLD),
    (dataclasses.replace(EXAMPLE_3L, gamma_02=1e3), Regime.ABOVE_UPPER_BOUND),
], ids=["two-below", "two-above", "three-below", "three-above"])
def test_dark_fixed_point_is_unseeded_initial_state(p, regime):
    if isinstance(p, PhysicalTwoLevel):
        assert n_two_level(*reduce_two(p)).regime is regime
    else:
        assert n_three_physical(p).regime is regime
    assert fixed_point_state(p) == initial_state(p, seed_field=0.0)


def test_integrator_agrees_with_scipy_reference():
    # same embedded pair, independent implementation: tight-tolerance
    # trajectories must land on the same state
    from scipy.integrate import solve_ivp

    p = EXAMPLE_3L
    init = initial_state(p)
    y0 = np.array([init.rho11, init.rho22, init.y, init.x])

    def rhs(_t, v):
        state = BlochState3(rho11=v[0], rho22=v[1], y=v[2], x=v[3])
        return derivs_three(state, p)

    t_end = 30.0
    ref = solve_ivp(rhs, (0.0, t_end), y0, method="RK45",
                    rtol=1e-11, atol=1e-13)
    assert ref.success
    mine = integrate(
        p, config=IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_max=t_end)
    )
    assert mine.times[-1] == pytest.approx(t_end)
    assert np.allclose(mine.states[-1], ref.y[:, -1], rtol=1e-7, atol=1e-10)


def test_integrator_convergence_order():
    # force fixed steps via max_step with error control disabled by huge
    # tolerances; the error against a tight reference must fall like h^5,
    # the propagating order of the pair.  The steps must lie in the
    # asymptotic range: the Jacobian's spectral radius along this
    # trajectory reaches ~18, so h = 0.05 (h*rho ~ 0.9) is still
    # pre-asymptotic.  The reference's own error (~8e-12, rtol 1e-12 vs
    # 1e-13) stays far below the smallest error here (~5e-9).
    ref = integrate(
        EXAMPLE_3L, config=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_max=2.0)
    ).states[-1]

    errs = []
    for h in (0.02, 0.01, 0.005):
        series = integrate(
            EXAMPLE_3L,
            config=IntegratorConfig(rel_tol=1.0, abs_tol=1.0, t_max=2.0, max_step=h),
        )
        # the premise: a uniform grid.  Every accepted step but the last,
        # which the horizon clips, equals h; a rejected step would have
        # been retried shorter than h, so none occurred.
        steps = np.diff(series.times)
        assert np.allclose(steps[:-1], h, rtol=1e-12, atol=0.0), h
        assert 0.0 < steps[-1] <= h * (1.0 + 1e-12), (h, steps[-1])
        assert series.times[-1] == pytest.approx(2.0, rel=1e-14)
        errs.append(float(np.linalg.norm(series.states[-1] - ref)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 4.3 < order1 < 5.7, (errs, order1)
    assert 4.3 < order2 < 5.7, (errs, order2)



def _random_rates(rng, kind: int):
    """Unconstrained two-level (kind 0), scheme-A (1) or scheme-B (2) rates."""
    if kind == 0:
        kappa, gamma, pump = log_uniform(rng, 1e-2, 1e2, 3)
        return PhysicalTwoLevel(
            n_atoms=float(log_uniform(rng, 1.0, 1e4)),
            coupling_g=float(log_uniform(rng, 1e-1, 1e1)),
            cavity_kappa=float(kappa), gamma_decay=float(gamma), pump_Gamma=float(pump),
            gamma_ph=float(log_uniform(rng, 1e-2, 1e2)) if rng.random() < 0.5 else 0.0,
        )
    scheme = PumpScheme.A if kind == 1 else PumpScheme.B
    return random_three_level(rng, scheme, lo=1e-2, hi=1e2)


def test_routh_hurwitz_matches_eigenvalues():
    # the fixed point of each draw and the same state with every live
    # component scaled by up to +-30 %
    rng = np.random.default_rng(8)
    verdicts = []
    for i in range(2100):
        p = _random_rates(rng, i % 3)
        model, par = dynamics._pack(p)
        n = 3 if model == 2 else 4
        s = dynamics._state_tuple(model, fixed_point_state(p))
        scale = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)
        nudged = tuple(float(a * b) for a, b in zip(s[:n], scale)) + s[n:]
        for u in (s, nudged):
            eigs = np.linalg.eigvals(np.array(dynamics._jacobian(model, par, *u)))
            expected = bool(eigs.real.max() < 0.0)
            assert dynamics._hurwitz(model, par, *u) is expected, (p, u, eigs)
            verdicts.append(expected)
    assert len(verdicts) >= 4000
    # both verdicts are exercised
    assert 0.02 < verdicts.count(False) / len(verdicts) < 0.5


def test_routh_hurwitz_rejects_hopf_unstable_scheme_b():
    # README scheme-B rates at gamma_02 = 0.5: Re lambda = +0.139
    p = dataclasses.replace(EXAMPLE_3L, gamma_02=0.5)
    s = fixed_point_state(p)
    assert n_three_physical(p).photon_number > 0.0
    assert np.linalg.eigvals(jacobian_three(s, p)).real.max() > 0.1
    model, par = dynamics._pack(p)
    assert not dynamics._hurwitz(model, par, *dynamics._state_tuple(model, s))
    assert dynamics._hurwitz(*dynamics._pack(EXAMPLE_3L),
                             *dynamics._state_tuple(3, fixed_point_state(EXAMPLE_3L)))


@pytest.mark.parametrize("p", [EXAMPLE_3L, expand_two(FIG2, 2.0)], ids=["three-level", "two-level"])
def test_integrate_arrays_are_contiguous_float64(p):
    series = integrate(p, config=IntegratorConfig(t_max=5.0))
    m = len(series.times)
    width = 4 if isinstance(p, PhysicalThreeLevel) else 3
    assert m > 10
    assert series.times.shape == (m,)
    assert series.states.shape == (m, width)
    assert series.photon_numbers.shape == (m,)
    for a in (series.times, series.states, series.photon_numbers):
        assert a.dtype == np.float64
        assert a.flags.c_contiguous
        assert a.flags.owndata
    assert series.times[0] == 0.0
    assert tuple(series.states[0]) == dynamics._state_tuple(dynamics._pack(p)[0], initial_state(p))[:width]
    np.testing.assert_array_equal(series.photon_numbers, series.states[:, -1] ** 2)
