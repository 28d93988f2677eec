"""Shared helpers: randomized rate draws and the dynamical-stability
filter (on the library's Jacobians) used by the integrator-oracle tests.

Strongly pumped bad-cavity parameter sets can make the lasing fixed point
Hopf-unstable (sustained pulsations); the closed forms still describe that
unstable branch, but no trajectory settles onto it, so draws feeding the
time-domain oracle are filtered to linearly stable fixed points.
"""

from __future__ import annotations

import numpy as np

from lasekit import (
    BlochState2,
    BlochState3,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    equilibrium_populations_three,
    equilibrium_populations_two,
    fixed_point_state,
    gamma_parallel_and_inversion,
    gamma_perp_three,
    gamma_perp_two,
    jacobian_three,
    jacobian_two,
    n_three_physical,
    n_two_level,
    reduce_two,
    window_two,
)


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=size)


def no_constant(name: str):
    """A ``json.loads`` parse_constant that fails on Infinity, -Infinity
    and NaN, which RFC 8259 JSON lacks."""
    raise AssertionError(f"JSON holds the non-standard constant {name}")


def assert_identity(a: float, b: float, scale: float, tol: float = 1e-12) -> None:
    """|a - b| within tol relative; falls back to the natural term scale
    when the compared value itself is cancellation-dominated (the identity
    still holds, but no finite-precision evaluation can beat eps*scale)."""
    assert abs(a - b) <= tol * max(abs(a), abs(b), 1e-2 * scale), (a, b, scale)


def min_positive_rate(p) -> float:
    if isinstance(p, PhysicalTwoLevel):
        rates = (p.cavity_kappa, p.gamma_decay, p.pump_Gamma, p.gamma_ph)
    else:
        rates = (p.cavity_kappa, p.gamma_21, p.gamma_02, p.gamma_10, p.gamma_ph)
    return min(r for r in rates if r > 0.0)


def stable_fixed_point(p) -> bool:
    """True when the lasing fixed point is locally attracting with enough
    margin that a nearby start settles onto it at reasonable cost.

    Three conditions: good-cavity side of the pulsation instability
    (kappa < gamma_perp + gamma_par; beyond it the fixed point can lose
    much of its basin to a coexisting pulsing attractor even while
    linearly stable), linear stability with margin relative to the
    slowest rate (settles well inside the default horizon), and margin
    relative to the spectral radius (bounds the stiffness-limited step
    count)."""
    if isinstance(p, PhysicalTwoLevel):
        gperp = gamma_perp_two(p)
        gpar = p.gamma_decay + p.pump_Gamma
    else:
        gperp = gamma_perp_three(p)
        gpar, _ = gamma_parallel_and_inversion(p)
    if p.cavity_kappa >= gperp + gpar:
        return False
    s = fixed_point_state(p)
    jac = jacobian_two(s, p) if isinstance(p, PhysicalTwoLevel) else jacobian_three(s, p)
    eigs = np.linalg.eigvals(jac)
    slowest = float(eigs.real.max())
    radius = float(np.abs(eigs).max())
    return slowest < -0.05 * min_positive_rate(p) and slowest < -2e-4 * radius


def perturbed_fixed_state(p, rel: float = 5e-3):
    """The analytic fixed point nudged off by ``rel`` in every coordinate.

    Starting the integrator here keeps the oracle meaningful (a wrong
    closed form would see the flow carry the state away to the true
    attractor) while avoiding the basin question entirely: strongly
    pumped draws can own a coexisting pulsing attractor that captures
    trajectories grown from a bare seed field even when the fixed point
    itself is stable.
    """
    s = fixed_point_state(p)
    if isinstance(s, BlochState3):
        eq = equilibrium_populations_three(p)
        return BlochState3(
            rho11=(1.0 - rel) * s.rho11 + rel * eq[1],
            rho22=(1.0 - rel) * s.rho22 + rel * eq[2],
            y=s.y,
            x=(1.0 + rel) * s.x,
        )
    eq = equilibrium_populations_two(p)
    return BlochState2(
        rho11=(1.0 - rel) * s.rho11 + rel * eq[1],
        y=s.y,
        x=(1.0 + rel) * s.x,
    )


def random_three_level(
    rng: np.random.Generator,
    scheme: PumpScheme = PumpScheme.B,
    lo: float = 1e-3,
    hi: float = 1e3,
) -> PhysicalThreeLevel:
    """Unconstrained random rate set (all decay rates strictly positive)."""
    kappa, g21, g02, g10 = log_uniform(rng, lo, hi, 4)
    gph = float(log_uniform(rng, lo, hi)) if rng.random() < 0.5 else 0.0
    return PhysicalThreeLevel(
        n_atoms=float(log_uniform(rng, 1.0, 1e4)),
        coupling_g=float(log_uniform(rng, 1e-1, 1e1)),
        cavity_kappa=float(kappa),
        gamma_21=float(g21),
        gamma_02=float(g02),
        gamma_10=float(g10),
        gamma_ph=gph,
        scheme=scheme,
    )


def random_lasing_three_level(
    rng: np.random.Generator,
    scheme: PumpScheme = PumpScheme.B,
    require_stable: bool = True,
    min_photons: float = 1.0,
) -> PhysicalThreeLevel:
    """Rejection-sample a lasing-regime rate set (rates in [1e-2, 1e2])."""
    while True:
        p = random_three_level(rng, scheme, lo=1e-2, hi=1e2)
        if n_three_physical(p).photon_number < min_photons:
            continue
        if require_stable and not stable_fixed_point(p):
            continue
        return p


def random_lasing_two_level(
    rng: np.random.Generator,
    require_stable: bool = True,
    min_photons: float = 1.0,
) -> tuple[PhysicalTwoLevel, float]:
    """Rejection-sample a two-level rate set with the pump inside the
    exact lasing window; returns (params, relative pump)."""
    while True:
        kappa, gamma = log_uniform(rng, 1e-2, 1e2, 2)
        gph = float(log_uniform(rng, 1e-2, 1e2)) if rng.random() < 0.5 else 0.0
        base = PhysicalTwoLevel(
            n_atoms=float(log_uniform(rng, 1.0, 1e4)),
            coupling_g=float(log_uniform(rng, 1e-1, 1e1)),
            cavity_kappa=float(kappa),
            gamma_decay=float(gamma),
            pump_Gamma=0.0,
            gamma_ph=gph,
        )
        d, _ = reduce_two(base)
        win = window_two(d).exact
        if win is None:
            continue
        u = rng.uniform(0.05, 0.95)
        pump = win.lower * (win.upper / win.lower) ** u
        p = PhysicalTwoLevel(
            n_atoms=base.n_atoms,
            coupling_g=base.coupling_g,
            cavity_kappa=base.cavity_kappa,
            gamma_decay=base.gamma_decay,
            pump_Gamma=pump * base.gamma_decay,
            gamma_ph=base.gamma_ph,
        )
        if n_two_level(d, pump).photon_number < min_photons:
            continue
        if require_stable and not stable_fixed_point(p):
            continue
        return p, pump
