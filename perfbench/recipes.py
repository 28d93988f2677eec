"""Seeded inputs and the independent reference formulas the checks use.

The criterion-01/02 draw recipes, their fixed-point Jacobians and the
stability filter are copied here on purpose: a change to the test helpers
must not silently change the benchmark's inputs.  Nothing in this module
calls into lasekit except to build the parameter records and the
closed-form fixed point the draws start from.
"""

from __future__ import annotations

import math

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
)

NUDGE = 5e-3  # relative offset of a settle start from the closed-form fixed point


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size=size)


# --------------------------------------------------------------------------
# closed forms written out independently of lasekit.steady
# --------------------------------------------------------------------------

def coeffs_two(s: float, delta: float) -> tuple[float, float, float]:
    """(P - 1) - s(P + 1)(P + 1 + delta) = a P^2 + b P + c."""
    return -s, 1.0 - s * (2.0 + delta), -1.0 - s * (1.0 + delta)


def coeffs_b(s: float, eps: float, delta: float) -> tuple[float, float, float]:
    """Numerator (P - eps) - s(P + eps + delta)(P(1 + eps) + eps) = a P^2 + b P + c."""
    a = -s * (1.0 + eps)
    b = 1.0 - s * (eps + (eps + delta) * (1.0 + eps))
    c = -eps - s * eps * (eps + delta)
    return a, b, c


def coeffs(model: str, prm: dict) -> tuple[float, float, float]:
    """Quadratic coefficients of the two-level bracket or the scheme-B
    numerator."""
    delta = prm.get("dephasing", 0.0)
    if model == "two-level":
        return coeffs_two(prm["saturation"], delta)
    return coeffs_b(prm["saturation"], prm["decay_ratio"], delta)


def bracket(model: str, prm: dict, pump: float) -> tuple[float, float]:
    """(bracket value, natural term scale) at ``pump`` for a dimensionless
    parameter dict; the scale is the sum of the magnitudes of the gain and
    loss terms, the fallback of the criterion-03 comparison."""
    s, delta = prm["saturation"], prm.get("dephasing", 0.0)
    if model == "two-level":
        a, b, c = coeffs_two(s, delta)
        value = (a * pump + b) * pump + c
        return value, abs(pump - 1.0) + s * (pump + 1.0) * (pump + 1.0 + delta)
    eps = prm["decay_ratio"]
    if model == "three-a":
        gain = pump * (1.0 - eps)
        loss = s * (1.0 + eps + delta) * (pump * (1.0 + eps) + eps)
        den = 1.0 + 2.0 * pump
        return (gain - loss) / den, (abs(gain) + abs(loss)) / den
    a, b, c = coeffs_b(s, eps, delta)
    den = pump + 2.0
    gain = pump - eps
    loss = s * (pump + eps + delta) * (pump * (1.0 + eps) + eps)
    return ((a * pump + b) * pump + c) / den, (abs(gain) + abs(loss)) / den


def photon_number(model: str, prm: dict, pump: float) -> tuple[float, float]:
    """(photon_scale * max(0, bracket), photon_scale * term scale)."""
    value, scale = bracket(model, prm, pump)
    return prm["photon_scale"] * max(0.0, value), prm["photon_scale"] * scale


def stationary_pump(model: str, prm: dict) -> float:
    """Pump maximizing the bracket: the two-level vertex 1/(2s) - 1 - delta/2,
    or the scheme-B point -2 + sqrt(4 - (2b - c)/a) where the derivative of
    (a P^2 + b P + c)/(P + 2) vanishes."""
    s, delta = prm["saturation"], prm.get("dephasing", 0.0)
    if model == "two-level":
        return 0.5 / s - 1.0 - 0.5 * delta
    a, b, c = coeffs_b(s, prm["decay_ratio"], delta)
    return -2.0 + math.sqrt(4.0 - (2.0 * b - c) / a)


def dimensionless_of(p) -> tuple[str, dict, float]:
    """Reduction of a physical rate set, written out: (model, params, pump)."""
    if isinstance(p, PhysicalTwoLevel):
        g = p.gamma_decay
        prm = {
            "photon_scale": p.n_atoms * g / (4.0 * p.cavity_kappa),
            "saturation": p.cavity_kappa * g / (2.0 * p.n_atoms * p.coupling_g ** 2),
            "dephasing": p.gamma_ph / g,
        }
        return "two-level", prm, p.pump_Gamma / g
    ref = p.gamma_02 if p.scheme is PumpScheme.A else p.gamma_21
    prm = {
        "photon_scale": p.n_atoms * ref / (2.0 * p.cavity_kappa),
        "saturation": p.cavity_kappa * ref / (2.0 * p.n_atoms * p.coupling_g ** 2),
        "decay_ratio": p.gamma_10 / ref,
        "dephasing": p.gamma_ph / ref,
    }
    if p.scheme is PumpScheme.A:
        return "three-a", prm, p.gamma_21 / ref
    return "three-b", prm, p.gamma_02 / ref


def photon_number_physical(p) -> float:
    model, prm, pump = dimensionless_of(p)
    return photon_number(model, prm, pump)[0]


# --------------------------------------------------------------------------
# Jacobians and the stability filter (copied from the criterion recipes)
# --------------------------------------------------------------------------

def gamma_perp(p) -> float:
    if isinstance(p, PhysicalTwoLevel):
        return 0.5 * (p.pump_Gamma + p.gamma_decay + p.gamma_ph)
    return 0.5 * (p.gamma_10 + p.gamma_02 + p.gamma_ph)


def jacobian(p, v) -> np.ndarray:
    """d(rhs)/d(state) of the reduced equations of motion at state v."""
    g, kappa, n_at = p.coupling_g, p.cavity_kappa, p.n_atoms
    gperp = gamma_perp(p)
    if isinstance(p, PhysicalTwoLevel):
        rho11, y, x = v
        return np.array(
            [
                [-p.gamma_decay - p.pump_Gamma, -2.0 * g * x, -2.0 * g * y],
                [2.0 * g * x, -gperp, g * (2.0 * rho11 - 1.0)],
                [0.0, n_at * g, -kappa],
            ]
        )
    rho11, rho22, y, x = v
    return np.array(
        [
            [-p.gamma_10, p.gamma_21, -2.0 * g * x, -2.0 * g * y],
            [-p.gamma_02, -p.gamma_02 - p.gamma_21, 0.0, 0.0],
            [2.0 * g * x, g * x, -gperp, g * (2.0 * rho11 + rho22 - 1.0)],
            [0.0, 0.0, n_at * g, -kappa],
        ]
    )


def state_vector(state) -> np.ndarray:
    if isinstance(state, BlochState3):
        return np.array([state.rho11, state.rho22, state.y, state.x])
    return np.array([state.rho11, state.y, state.x])


def fixed_point_eigenvalues(p) -> np.ndarray:
    return np.linalg.eigvals(jacobian(p, state_vector(fixed_point_state(p))))


def min_positive_rate(p) -> float:
    if isinstance(p, PhysicalTwoLevel):
        rates = (p.cavity_kappa, p.gamma_decay, p.pump_Gamma, p.gamma_ph)
    else:
        rates = (p.cavity_kappa, p.gamma_21, p.gamma_02, p.gamma_10, p.gamma_ph)
    return min(r for r in rates if r > 0.0)


def stable_fixed_point(p) -> bool:
    """Good-cavity side of the pulsation instability, and linear stability
    with margin against the slowest rate and the spectral radius."""
    if isinstance(p, PhysicalTwoLevel):
        gpar = p.gamma_decay + p.pump_Gamma
    else:
        g21, g02, g10 = p.gamma_21, p.gamma_02, p.gamma_10
        gpar = 2.0 * (g21 * g02 + g02 * g10 + g21 * g10) / (g02 + 2.0 * g21)
    if p.cavity_kappa >= gamma_perp(p) + gpar:
        return False
    eigs = fixed_point_eigenvalues(p)
    slowest = float(eigs.real.max())
    radius = float(np.abs(eigs).max())
    return slowest < -0.05 * min_positive_rate(p) and slowest < -2e-4 * radius


def stiffness(p) -> float:
    """|lambda|max over the geometric mean of the two slowest decay rates
    |Re lambda| of the Jacobian at the fixed point: the stiffness ratio,
    with the second-slowest mode counted, since a nudge excites both."""
    eigs = fixed_point_eigenvalues(p)
    slow = np.sort(np.abs(eigs.real))
    return float(np.abs(eigs).max() / math.sqrt(slow[0] * slow[1]))


# Draws whose slowest Jacobian mode oscillates faster than this are left
# out of the settle workload: with such a mode, ``settle`` at the default
# tolerances can hold its derivative norm far above the steady cutoff
# until t_max runs out (a FOUND line in CHANGES.md).  About 0.35 % of
# criterion-01 draws, and 1.5 % of their integrator steps, lie above it.
SLOW_MODE_FREQUENCY_CAP = 400.0


def slow_mode_frequency(p) -> float:
    """|Im lambda| of the Jacobian mode with the smallest decay rate."""
    eigs = fixed_point_eigenvalues(p)
    return float(abs(eigs[np.argmin(np.abs(eigs.real))].imag))


def nudged_fixed_state(p, rel: float = NUDGE):
    """The closed-form fixed point nudged by ``rel`` toward the no-field
    equilibrium populations, with the field raised by ``rel``."""
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
        rho11=(1.0 - rel) * s.rho11 + rel * eq[1], y=s.y, x=(1.0 + rel) * s.x
    )


# --------------------------------------------------------------------------
# the criterion-01/02 draw recipes
# --------------------------------------------------------------------------

def draw_three_level(rng: np.random.Generator) -> PhysicalThreeLevel:
    """Criterion-01 recipe: scheme-B rates log-uniform in [1e-2, 1e2],
    at least one photon, stable fixed point."""
    while True:
        kappa, g21, g02, g10 = log_uniform(rng, 1e-2, 1e2, 4)
        gph = float(log_uniform(rng, 1e-2, 1e2)) if rng.random() < 0.5 else 0.0
        p = PhysicalThreeLevel(
            n_atoms=float(log_uniform(rng, 1.0, 1e4)),
            coupling_g=float(log_uniform(rng, 1e-1, 1e1)),
            cavity_kappa=float(kappa),
            gamma_21=float(g21),
            gamma_02=float(g02),
            gamma_10=float(g10),
            gamma_ph=gph,
            scheme=PumpScheme.B,
        )
        if photon_number_physical(p) < 1.0:
            continue
        if not stable_fixed_point(p):
            continue
        return p


def draw_two_level(rng: np.random.Generator) -> PhysicalTwoLevel:
    """Criterion-02 recipe: rates log-uniform in [1e-2, 1e2], pump
    log-placed inside the exact window, at least one photon, stable."""
    while True:
        kappa, gamma = log_uniform(rng, 1e-2, 1e2, 2)
        gph = float(log_uniform(rng, 1e-2, 1e2)) if rng.random() < 0.5 else 0.0
        n_atoms = float(log_uniform(rng, 1.0, 1e4))
        g = float(log_uniform(rng, 1e-1, 1e1))
        s = kappa * gamma / (2.0 * n_atoms * g ** 2)
        win = quadratic_window(*coeffs_two(s, gph / gamma))
        if win is None:
            continue
        u = rng.uniform(0.05, 0.95)
        pump = win[0] * (win[1] / win[0]) ** u
        p = PhysicalTwoLevel(
            n_atoms=n_atoms, coupling_g=g, cavity_kappa=float(kappa),
            gamma_decay=float(gamma), pump_Gamma=pump * float(gamma), gamma_ph=gph,
        )
        if photon_number_physical(p) < 1.0:
            continue
        if not stable_fixed_point(p):
            continue
        return p


def quadratic_window(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Positive interval where a P^2 + b P + c > 0 (a < 0), or None."""
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    lo, hi = sorted((q / a, c / q))
    if hi <= 0.0:
        return None
    return lo, hi


def stratified(pool: list, key, count: int) -> list:
    """``count`` members of ``pool`` at evenly spaced ranks of ``key``.

    A systematic sample over the whole range of the key, its top included,
    so every run sees the same share of each part of the distribution; a
    plain random subset lets the few stiffest draws, which cost thousands
    of times the median, come and go between seeds.
    """
    ranked = sorted(pool, key=key)
    return [ranked[int((i + 0.5) * len(ranked) / count)] for i in range(count)]
