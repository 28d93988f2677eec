
import dataclasses
import json
import math
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
    gamma_parallel_and_inversion,
    gamma_perp_three,
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


def _full_mantissa(rng, size):
    """Doubles of either sign between 2**-8 and 2 with all 52 fraction bits
    drawn.  ``rng.uniform(-2, 2)`` gives multiples of 2**-51, for which
    1 - rho11 never rounds."""
    mantissa = 1.0 + rng.integers(0, 2**52, size) / 2**52
    return np.ldexp(mantissa * rng.choice((-1.0, 1.0), size), rng.integers(-8, 1, size))


def test_rhs_matches_the_module_equations_bit_for_bit():
    # the folded constants of _rhs_of must give exactly the one set of
    # equations of the module docstring, evaluated as written there, for
    # the rates of either atom: the three-level one has Gamma = 0, the
    # two-level one rho22 = 0 and (gamma_21, gamma_02, gamma_10) either
    # (0, 0, gamma), level 2 closed off, or (gamma, 0, gamma) as _pack
    # gives them; both two-level packings give the same derivative, down
    # to the sign of a zero
    assert dynamics._pack(LORENZ_HAKEN)[1][3:6] == (1.0, 0.0, 1.0)
    rng = np.random.default_rng(7)
    rounded = 0
    for _ in range(30):
        n_at, g, kappa, g21, g02, g10, gperp, pump = log_uniform(rng, 1e-3, 1e3, 8).tolist()
        closed = (n_at, g, kappa, 0.0, 0.0, g10, gperp, pump)
        packed = (n_at, g, kappa, g10, 0.0, g10, gperp, pump)
        rhs_closed = dynamics._rhs_of(closed)
        for par, two_level in (((n_at, g, kappa, g21, g02, g10, gperp, 0.0), False),
                               (closed, True), (packed, True)):
            rhs = dynamics._rhs_of(par)
            n_at, g, kappa, g21, g02, g10, gperp, pump = par
            for rho11, rho22, y, x in _full_mantissa(rng, (100, 4)).tolist():
                rho22 = 0.0 if two_level else rho22
                rho00 = 1 - rho11 - rho22
                assert rhs(rho11, rho22, y, x) == (
                    pump*rho00 + g21*rho22 - g10*rho11 - 2*g*x*y,
                    g02*rho00 - g21*rho22,
                    -gperp*y + g*x*(rho11 - rho00),
                    -kappa*x + n_at*g*y,
                )
                if two_level:
                    assert [v.hex() for v in rhs(rho11, rho22, y, x)] == [
                        v.hex() for v in rhs_closed(rho11, rho22, y, x)]
                rounded += 2*rho11 - 1 != rho11 - rho00
    # the draws see the last bit by which the two-level inversion
    # rho11 - (1 - rho11) can differ from 2*rho11 - 1
    assert rounded > 0


@pytest.mark.parametrize("p", [EXAMPLE_3L, LORENZ_HAKEN], ids=["three-level", "two-level"])
def test_written_out_stages_match_rhs_of(p):
    # a run with a cutoff of 0 ends on an accepted step, and its ||f|| is
    # that of the FSAL stage the stepper writes out: it must be the norm
    # of the closure's derivative at the end state, bit for bit
    series = integrate(p, config=IntegratorConfig(t_max=3.0))
    cls, par = dynamics._pack(p)
    end = dynamics._state_tuple(cls, cls(*series.states[-1].tolist()))
    assert series.derivative_norm == dynamics._norm(*dynamics._rhs_of(par)(*end))
    assert series.derivative_norm > 1e-3


@pytest.mark.parametrize("draw", [random_lasing_three_level,
                                  lambda rng: random_lasing_two_level(rng)[0]],
                         ids=["three-level", "two-level"])
def test_mirrored_seed_gives_the_mirrored_run(draw):
    # the equations are odd in (x, y): from the seed field -1e-3 settle and
    # a recorded run take the steps of +1e-3, with x and y negated, bit for
    # bit but for the start's y = 0.0, which negates to -0.0
    rng = np.random.default_rng(3)
    for p in [draw(rng) for _ in range(15)]:
        config = IntegratorConfig(t_max=min(default_t_max(p), 200.0))
        (plus, series), (minus, mirror) = [
            (settle(p, initial_state(p, seed), config),
             integrate(p, initial_state(p, seed), config, stop_at_steady=True))
            for seed in (1e-3, -1e-3)]
        assert dataclasses.replace(plus, state=dataclasses.replace(
            plus.state, y=-plus.state.y, x=-plus.state.x)) == minus, p
        flip = np.array([-1.0 if label in ("x", "y") else 1.0 for label in series.state_labels])
        assert np.array_equal(series.times, mirror.times), p
        assert np.array_equal(series.states[:1] * flip, mirror.states[:1]), p
        assert (series.states[1:] * flip).tobytes() == mirror.states[1:].tobytes(), p
        assert (series.steady, series.derivative_norm) == (mirror.steady, mirror.derivative_norm)


def _accepts(cls, *components):
    try:
        cls(*components)
    except ValueError:
        return False
    return True


def _state_space_edges():
    """Four-float states (rho11, rho22, y, x) on and just past each edge
    of the physical state space, and with a NaN or an inf in each slot."""
    slack = dynamics._POP_SLACK
    below = math.nextafter(-slack, -math.inf)
    top = 1.0 + slack
    above = math.nextafter(top, math.inf)
    for slot in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            u = [0.3, 0.2, -0.1, 2.0]
            u[slot] = bad
            yield tuple(u)
    for pop in (-slack, below):
        yield pop, 0.2, -0.1, 2.0
        yield 0.3, pop, -0.1, 2.0
    # rho11 + rho22 at 1 + slack and one float above; top - 0.5 is exact,
    # so each sum is exactly its target
    for total in (top, above):
        yield total - 0.5, 0.5, -0.1, 2.0
        yield total, 0.0, -0.1, 2.0
        yield 0.0, total, -0.1, 2.0


def test_float_state_check_matches_the_state_classes():
    verdicts = []
    for u in _state_space_edges():
        verdicts.append(dynamics._physical(*u))
        assert verdicts[-1] is _accepts(BlochState3, *u), u
        if u[1] == 0.0:
            assert verdicts[-1] is _accepts(BlochState2, u[0], u[2], u[3]), u
    assert True in verdicts and False in verdicts
    # the two-level rho11 at both ends of its range, and past them, with
    # a NaN or an inf in y or x
    slack = dynamics._POP_SLACK
    for rho11 in (-slack, math.nextafter(-slack, -math.inf), 1.0 + slack,
                  math.nextafter(1.0 + slack, math.inf), 0.0, 1.0):
        for y, x in ((-0.1, 2.0), (math.nan, 2.0), (-0.1, math.inf), (-math.inf, 2.0)):
            assert dynamics._physical(rho11, 0.0, y, x) is _accepts(BlochState2, rho11, y, x)


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


def test_settle_agrees_with_closed_forms_to_rounding():
    # the Newton polish takes one more step after its first iterate that
    # meets the cutoff, so the ODE leg of the oracle agrees with the closed
    # forms to rounding, not to the cutoff times the conditioning (2.5e-9
    # and 2.2e-9 here without that step)
    rng3 = np.random.default_rng(20250810)
    rng2 = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(40):
        p = random_lasing_three_level(rng3)
        res = settle(p, initial=perturbed_fixed_state(p))
        exact = n_three_physical(p).photon_number
        worst = max(worst, abs(res.photon_number - exact) / exact)
    for _ in range(20):
        p, pump = random_lasing_two_level(rng2)
        d, _ = reduce_two(p)
        res = settle(p, initial=perturbed_fixed_state(p))
        exact = n_two_level(d, pump).photon_number
        worst = max(worst, abs(res.photon_number - exact) / exact)
    assert worst < 1e-12


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


# weakly damped slowest modes, where the stepper's noise floor keeps ||f||
# far above the cutoff and the polish ends the run
WEAKLY_DAMPED = [
    # -0.733 +- 621i: ||f|| stays near 1e-4 until t_max
    PhysicalThreeLevel(
        n_atoms=8800.18, coupling_g=8.9665, cavity_kappa=40.519,
        gamma_21=27.498, gamma_02=39.364, gamma_10=1.5616, gamma_ph=0.0,
        scheme=PumpScheme.B,
    ),
    # two bad-cavity draws (kappa >= gamma_perp + gamma_par), -7.0e-4 +-
    # 16.6i and -2.9e-4 +- 3.74i: with the polish tried only near the
    # cutoff they ran to t = 4510 and 18542 without converging
    PhysicalTwoLevel(
        n_atoms=50.987526039056014, coupling_g=3.251312922802012,
        cavity_kappa=5.864582818388378, gamma_decay=0.2217144409576987,
        pump_Gamma=3.0025764341154626, gamma_ph=0.0,
    ),
    PhysicalThreeLevel(
        n_atoms=235.78148035112497, coupling_g=1.0216801115319736,
        cavity_kappa=12.183120572566027, gamma_21=1.3207922625309985,
        gamma_02=0.6194212483595422, gamma_10=0.053932671569718496,
        gamma_ph=3.1393374534116885, scheme=PumpScheme.B,
    ),
]


@pytest.mark.parametrize("p", WEAKLY_DAMPED,
                         ids=["fast-mode", "bad-cavity-two-level", "bad-cavity-scheme-b"])
def test_settle_weakly_damped_fast_mode_converges(p):
    res = settle(p, initial=perturbed_fixed_state(p))
    assert res.converged
    assert res.photon_number == pytest.approx(
        fixed_point_state(p).photon_number, rel=1e-9
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


# two settle_oracle draws of seed 20250810 (indices 360 and 384): scheme B
# on the good-cavity side with a linearly stable fixed point (Re lambda =
# -0.095 and -0.037 on modes oscillating at 37.9 and 27.1), yet a seed
# field grows onto a pulsing attractor beside it
GOOD_CAVITY_PULSING = [
    PhysicalThreeLevel(
        n_atoms=98.5708468767142, coupling_g=8.667560876200062,
        cavity_kappa=0.5878740680917577, gamma_21=0.5558782293033676,
        gamma_02=0.40434965248230886, gamma_10=0.2491738381909437, gamma_ph=0.0,
        scheme=PumpScheme.B,
    ),
    PhysicalThreeLevel(
        n_atoms=19.197660781546166, coupling_g=9.755169319157217,
        cavity_kappa=0.4054516918930695, gamma_21=0.1410396528795,
        gamma_02=0.4420128148229109, gamma_10=0.0248824703262688, gamma_ph=0.0,
        scheme=PumpScheme.B,
    ),
]


@pytest.mark.parametrize("p", GOOD_CAVITY_PULSING)
def test_settle_good_cavity_coexisting_attractor(p):
    # the good-cavity side does not rule out a pulsing attractor
    gpar, _ = gamma_parallel_and_inversion(p)
    assert p.cavity_kappa < gamma_perp_three(p) + gpar
    fixed = fixed_point_state(p)
    assert dynamics._hurwitz(dynamics._pack(p)[1], *dynamics._state_tuple(BlochState3, fixed))
    cfg = IntegratorConfig(t_max=50.0)
    res = settle(p, initial=initial_state(p), config=cfg)
    assert not res.converged and res.polish_attempts > 0
    # the orbit keeps its full swing to the end: no decaying transient
    series = integrate(p, initial=initial_state(p), config=cfg)
    late = series.photon_numbers[series.times >= 40.0]
    assert late.min() < 1e-2 * fixed.photon_number
    assert late.max() > 2.0 * fixed.photon_number
    res = settle(p, initial=perturbed_fixed_state(p), config=cfg)
    assert res.converged
    assert res.photon_number == pytest.approx(fixed.photon_number, rel=1e-12)


def test_acceptance_ball_alone_guards_bad_cavity():
    # the scheduled Newton attempts along the pulsing orbit all fail: the
    # ball, not the cavity, keeps settle from reporting the fixed point it
    # passes by
    res = settle(LORENZ_HAKEN, initial=initial_state(LORENZ_HAKEN),
                 config=IntegratorConfig(t_max=200.0))
    assert not res.converged
    assert res.polish_attempts > 10


def test_settle_without_population_flow_runs():
    # gamma_21 = gamma_02 = 0 freezes rho22 and makes the Jacobian
    # singular: the scheduled Newton attempts must fail rather than raise
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

    def recorder(par, rhs, u, f, steady_tol):
        calls.append(u)
        return polish(par, rhs, u, f, steady_tol)

    monkeypatch.setattr(dynamics, "_polish", recorder)
    return calls


@pytest.mark.parametrize("p", [EXAMPLE_3L, LORENZ_HAKEN], ids=["good-cavity", "bad-cavity"])
def test_polish_schedule_starts_on_first_step(monkeypatch, p):
    calls = _record_polish(monkeypatch)
    # a horizon the first step reaches: the polish is tried once, at the
    # state of that accepted step, not at the start, whatever the cavity
    first = settle(p, config=IntegratorConfig(t_max=0.01))
    assert (first.steps, first.polish_attempts) == (1, 1)
    assert calls == [dynamics._state_tuple(type(first.state), first.state)]


def test_polish_schedule_shortens_settle(monkeypatch):
    calls = _record_polish(monkeypatch)
    res = settle(EXAMPLE_3L)
    assert res.converged
    assert res.polish_attempts == len(calls)
    # 24.80 with the polish near the cutoff alone
    assert res.time < 0.75 * 24.80


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


def _aiming_at(monkeypatch, aim):
    """Make each Newton polish that misses hand the stepper ``aim(u)`` as
    the root to aim at, in the place of its own; None turns aiming off.
    Where the polish lands it is left as it is."""
    polish = dynamics._polish

    def aimed(par, rhs, u, f, steady_tol):
        found = polish(par, rhs, u, f, steady_tol)
        if found is not None and found[0] is not None:
            return found
        target = aim(u)
        return None if target is None else (None, target)

    monkeypatch.setattr(dynamics, "_polish", aimed)


def test_aimed_polish_never_costs_steps(monkeypatch):
    # 28 criterion-01 and 16 criterion-02 draws from their nudged fixed
    # points: aiming adds attempts to the schedule, so a run lands no later
    # than the schedule alone, on the same root to rounding
    rng3 = np.random.default_rng(34)
    rng2 = np.random.default_rng(35)
    draws = [random_lasing_three_level(rng3) for _ in range(28)]
    draws += [random_lasing_two_level(rng2)[0] for _ in range(16)]
    aimed = [settle(p, initial=perturbed_fixed_state(p)) for p in draws]
    _aiming_at(monkeypatch, lambda u: None)
    fewer = 0
    for p, res in zip(draws, aimed):
        ref = settle(p, initial=perturbed_fixed_state(p))
        assert res.converged == ref.converged, p
        assert res.steps <= ref.steps, p
        assert res.photon_number == pytest.approx(ref.photon_number, rel=1e-12, abs=0.0)
        fewer += res.steps < ref.steps
    assert fewer > len(draws) // 2


@pytest.mark.parametrize("p, t_max", [(GOOD_CAVITY_PULSING[0], 50.0), (LORENZ_HAKEN, 200.0)],
                         ids=["good-cavity", "bad-cavity"])
def test_aim_at_fixed_point_beside_pulsing_orbit(monkeypatch, p, t_max):
    # a seed field grows onto the pulsing orbit: settle does not converge,
    # and aiming every miss at the stable fixed point the orbit pulses
    # around changes nothing, since the orbit never enters the polish's
    # ball about that point (it passes 22 and 6.8 radii away)
    cfg = IntegratorConfig(t_max=t_max)
    res = settle(p, initial=initial_state(p), config=cfg)
    assert not res.converged
    fixed = dynamics._state_tuple(type(res.state), fixed_point_state(p))
    runs = []
    for aim in (lambda u: fixed, lambda u: None):
        with monkeypatch.context() as m:
            _aiming_at(m, aim)
            runs.append(settle(p, initial=initial_state(p), config=cfg))
    aimed, unaimed = runs
    assert not aimed.converged and not unaimed.converged
    assert aimed.time == unaimed.time == pytest.approx(t_max)
    assert (aimed.steps, aimed.polish_attempts) == (unaimed.steps, unaimed.polish_attempts)


def _numpy_newton_step(par, v, f):
    """The Newton step of ``dynamics._newton_step`` by LAPACK, over the
    full 4x4 Jacobian for either atom."""
    try:
        step = np.linalg.solve(np.array(dynamics._jacobian(par, *v)), np.array(f))
    except np.linalg.LinAlgError:
        return None
    return tuple(step.tolist())


def test_settle_work_matches_numpy_newton_step(monkeypatch):
    # criterion-01 and criterion-02 draws: the float solve takes the same
    # Newton iterates as LAPACK up to rounding, so each settle takes the
    # same steps and polish attempts and lands on the same root
    rng3 = np.random.default_rng(20250810)
    rng2 = np.random.default_rng(20250811)
    draws = [random_lasing_three_level(rng3) for _ in range(12)]
    draws += [random_lasing_two_level(rng2)[0] for _ in range(8)]
    runs = [settle(p, initial=perturbed_fixed_state(p)) for p in draws]
    monkeypatch.setattr(dynamics, "_newton_step", _numpy_newton_step)
    for p, res in zip(draws, runs):
        ref = settle(p, initial=perturbed_fixed_state(p))
        assert res.converged and ref.converged
        assert (res.steps, res.rejected_steps, res.polish_attempts) == (
            ref.steps, ref.rejected_steps, ref.polish_attempts), p
        assert res.photon_number == pytest.approx(ref.photon_number, rel=1e-12, abs=0.0)
    assert sum(res.polish_attempts for res in runs) > len(runs)


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
    # a run that does not stop at steady ends only at t_max; a JSON config
    # reads 1e400 as inf
    for t_max in (math.inf, json.loads("1e400")):
        with pytest.raises(ValueError, match=r"^t_max must be finite and > 0, got inf$"):
            IntegratorConfig(t_max=t_max)
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
    # tolerances; the error against a tight reference must fall like h^8,
    # the propagating order of the DOP853 pair.  The steps must lie in the
    # asymptotic range: the Jacobian's spectral radius along this
    # trajectory reaches ~18, so h = 0.04 keeps h*rho below 0.75.  The
    # reference's own error (~6e-15, rtol 1e-15 vs 1e-14) stays far below
    # the smallest error here (~4e-13).
    ref = integrate(
        EXAMPLE_3L, config=IntegratorConfig(rel_tol=1e-15, abs_tol=1e-17, t_max=2.0)
    ).states[-1]

    errs = []
    for h in (0.04, 0.02, 0.01):
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
    assert 7.3 < order1 < 8.7, (errs, order1)
    assert 7.3 < order2 < 8.7, (errs, order2)



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


def _fixed_and_nudged_states(rng, count: int):
    """(p, state class, par, fixed point, nudged state) of ``count``
    draws: the nudged state scales every live component of the fixed
    point by up to +-30 %; the two-level rho22 slot stays 0."""
    for i in range(count):
        p = _random_rates(rng, i % 3)
        cls, par = dynamics._pack(p)
        s = dynamics._state_tuple(cls, fixed_point_state(p))
        scale = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, len(dataclasses.fields(cls)))
        if cls is BlochState2:
            scale = np.insert(scale, 1, 1.0)
        nudged = tuple(float(a * b) for a, b in zip(s, scale))
        yield p, cls, par, s, nudged


def test_routh_hurwitz_matches_eigenvalues():
    rng = np.random.default_rng(8)
    verdicts = []
    live = [0, 2, 3]  # rho11, y, x
    two_level = 0
    for p, cls, par, s, nudged in _fixed_and_nudged_states(rng, 2100):
        for u in (s, nudged):
            jac = np.array(dynamics._jacobian(par, *u))
            eigs = np.linalg.eigvals(jac)
            expected = bool(eigs.real.max() < 0.0)
            assert dynamics._hurwitz(par, *u) is expected, (p, u, eigs)
            verdicts.append(expected)
            if cls is BlochState2:
                # the empty level adds -gamma to the spectrum of the live
                # block, which is jacobian_two wherever the state is one
                block = jac[np.ix_(live, live)]
                if _accepts(BlochState2, *(u[k] for k in live)):
                    state = BlochState2(*(u[k] for k in live))
                    assert np.array_equal(jacobian_two(state, p), block)
                eigs3 = np.linalg.eigvals(block)
                for lam in [*eigs3, -p.gamma_decay]:
                    k = int(np.argmin(np.abs(eigs - lam)))
                    assert abs(eigs[k] - lam) <= 1e-9 * np.abs(jac).max(), (p, u, eigs, lam)
                    eigs = np.delete(eigs, k)
                assert dynamics._hurwitz(par, *u) is bool(eigs3.real.max() < 0.0)
                two_level += 1
    assert len(verdicts) >= 4000
    assert two_level >= 1000
    # both verdicts are exercised
    assert 0.02 < verdicts.count(False) / len(verdicts) < 0.5


def test_routh_hurwitz_rejects_hopf_unstable_scheme_b():
    # README scheme-B rates at gamma_02 = 0.5: Re lambda = +0.139
    p = dataclasses.replace(EXAMPLE_3L, gamma_02=0.5)
    s = fixed_point_state(p)
    assert n_three_physical(p).photon_number > 0.0
    assert np.linalg.eigvals(jacobian_three(s, p)).real.max() > 0.1
    cls, par = dynamics._pack(p)
    assert not dynamics._hurwitz(par, *dynamics._state_tuple(cls, s))
    assert dynamics._hurwitz(dynamics._pack(EXAMPLE_3L)[1],
                             *dynamics._state_tuple(cls, fixed_point_state(EXAMPLE_3L)))


def test_newton_step_matches_numpy_solve():
    # nudged states, where the right-hand side is far from zero
    rng = np.random.default_rng(15)
    for p, cls, par, _, u in _fixed_and_nudged_states(rng, 900):
        f = dynamics._rhs_of(par)(*u)
        step = dynamics._newton_step(par, u, f)
        ref = _numpy_newton_step(par, u, f)
        if cls is BlochState2:
            # the float solve keeps the empty level empty; LAPACK's 4x4
            # solve leaves rounding there, within the bound below
            assert step[1] == 0.0
        err = np.linalg.norm(np.subtract(step, ref)) / np.linalg.norm(ref)
        assert err < 1e-12, (p, u, step, ref)


@pytest.mark.parametrize("p, u", [
    # gamma_21 = gamma_02 = 0: the rho22 row of J is zero
    (dataclasses.replace(EXAMPLE_3L, gamma_21=0.0, gamma_02=0.0), (0.2, 0.3, 0.01, 0.1)),
    # gamma_perp*kappa = N*g**2*(2*rho11 - 1) with no field: the 2x2 core
    # left by the x row is exactly singular
    (PhysicalTwoLevel(n_atoms=2.0, coupling_g=1.0, cavity_kappa=1.0, gamma_decay=1.0,
                      pump_Gamma=1.0, gamma_ph=0.0), (0.75, 0.0, 0.0, 0.0)),
], ids=["no-population-flow", "singular-core"])
def test_newton_step_singular_jacobian_gives_none(p, u):
    _, par = dynamics._pack(p)
    f = dynamics._rhs_of(par)(*u)
    assert dynamics._newton_step(par, u, f) is None
    assert _numpy_newton_step(par, u, f) is None


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
    assert tuple(series.states[0]) == dataclasses.astuple(initial_state(p))
    np.testing.assert_array_equal(series.photon_numbers, series.states[:, -1] ** 2)
