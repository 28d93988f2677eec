"""Time-domain integration of the Maxwell-Bloch systems.

The equations are integrated in phase-reduced real coordinates: the global
field phase is fixed so the field quadrature x is real and the lasing
coherence purely imaginary (rho10 = i*y).  The photon number is n = x**2,
and the implied dn/dt = -2*kappa*n + 2*N*g*x*y reproduces the
photon-number equation term by term, so fixed points of the reduced system
are exactly the steady states of the full one.

Two-level state  [rho11, y, x]:
    d rho11 = -gamma*rho11 + Gamma*(1 - rho11) - 2*g*x*y
    d y     = -gamma_perp*y + g*x*(2*rho11 - 1)
    d x     = -kappa*x + N*g*y

Three-level state [rho11, rho22, y, x] (rho00 = 1 - rho11 - rho22):
    d rho11 = gamma_21*rho22 - gamma_10*rho11 - 2*g*x*y
    d rho22 = gamma_02*rho00 - gamma_21*rho22
    d y     = -gamma_perp*y + g*x*(rho11 - rho00)
    d x     = -kappa*x + N*g*y

Two explicit adaptive Runge-Kutta pairs with first-same-as-last reuse
integrate the system; the derivative of every accepted state comes for
free, which is what the scaled derivative-norm steady-state detector runs
on.  :func:`integrate` and the ``lasekit dynamics`` command record with
the Dormand-Prince 5(4) pair of :func:`_dp45_loop`.  :func:`settle`
records nothing and runs the Dormand-Prince 8(5,3) pair (DOP853) of
``lasekit._dop853``, which it alone imports: near a lasing fixed point
the weakly damped relaxation oscillation sets the step, and the 8th-order
pair covers it in fewer right-hand side evaluations.  Both loops run on
scalar float locals with their stages unrolled over the components and
the right-hand side bound once per run, which keeps plain Python free of
per-element numpy indexing.
A recorded run appends the time and state of each accepted step, packed
as doubles, to one flat ``bytearray``; :func:`integrate` builds its
arrays from that buffer once, at the end.
The ``lasekit dynamics`` command reads the same buffer through
memoryviews and writes it without loading numpy, which this module
imports only where it builds an array: in :func:`integrate`,
:class:`TimeSeries`, the Newton polish of :func:`settle`, the one helper
behind the public ``derivs_*`` and ``jacobian_*`` and the state of a
:class:`StiffnessError`.

:func:`settle` does not creep all the way down to the cutoff.  Newton's
method on the analytic Jacobian finishes the solve: once the flow has
brought the derivative norm within 1e4 of the cutoff, and on the
good-cavity side (kappa < gamma_perp + gamma_par) also after accepted
steps 1, 2, 3, 4, 6, 8, 11, ... (a schedule growing by about 1.25).  The
root is taken only when it meets the cutoff, lies within
1e-3*(||y|| + 1) of the trajectory state, is a physical state and is
linearly stable (every eigenvalue of the Jacobian has a negative real
part, decided by the Routh-Hurwitz conditions on its characteristic
polynomial).  Beyond the good-cavity side a stable fixed point can share
phase space with a pulsing attractor, and those early attempts stay off.
:func:`integrate` tries no Newton polish.  Every steady exit of
either function, the one at t = 0 included, passes the same stability
test, so neither reports an unstable fixed point as settled.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .params import (
    BlochState2,
    BlochState3,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    equilibrium_populations_three,
    equilibrium_populations_two,
    gamma_parallel_and_inversion,
    gamma_perp_three,
    gamma_perp_two,
    reduce_two,
)
from .steady import n_three_physical, n_two_level

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegratorConfig",
    "TimeSeries",
    "SettleResult",
    "StiffnessError",
    "derivs_two",
    "derivs_three",
    "jacobian_two",
    "jacobian_three",
    "initial_state",
    "fixed_point_state",
    "default_t_max",
    "integrate",
    "settle",
]

# loop exit codes
_STEADY = 0
_TMAX = 1
_UNDERFLOW = 2


@dataclass(frozen=True)
class TimeSeries:
    """Accepted-step samples of one trajectory.

    ``states`` rows match ``times``; columns follow ``state_labels``.
    ``steady`` records whether the run ended on the fixed-point criterion
    at a linearly stable fixed point (as opposed to exhausting t_max), and
    ``derivative_norm`` is ||f|| at the final state.
    """

    times: np.ndarray
    states: np.ndarray
    photon_numbers: np.ndarray
    state_labels: tuple[str, ...]
    steady: bool
    derivative_norm: float

    def __post_init__(self) -> None:
        import numpy as np

        if len(self.times) != len(self.states) or len(self.times) != len(
            self.photon_numbers
        ):
            raise ValueError("times, states and photon_numbers must match")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class SettleResult:
    """Outcome of integrating toward a fixed point.

    ``converged`` is True when the derivative norm met the cutoff *and* the
    Jacobian there is Hurwitz, i.e. the fixed point is linearly stable.  It
    is False when t_max ran out first, which is also how a run near an
    unstable fixed point ends; the final state is reported either way.

    The counters say what the run cost: ``steps`` accepted and
    ``rejected_steps`` rejected steps of the stepper, and
    ``polish_attempts`` tries of the Newton polish, the successful last
    one included.  ``rhs_evaluations`` counts the stepper's right-hand side
    evaluations, 2 + 12*(steps + rejected_steps), and leaves out those of
    the Newton polish.  A run that starts at a stable fixed point takes 0
    steps and 1 evaluation.
    """

    photon_number: float
    state: BlochState2 | BlochState3
    time: float
    derivative_norm: float
    converged: bool
    steps: int = 0
    rejected_steps: int = 0
    polish_attempts: int = 0
    rhs_evaluations: int = 0

    @property
    def populations(self) -> tuple[float, ...]:
        s = self.state
        if isinstance(s, BlochState3):
            return (s.rho00, s.rho11, s.rho22)
        return (s.rho00, s.rho11)


class StiffnessError(RuntimeError):
    """The adaptive step size underflowed; the problem is too stiff for an
    explicit method at the requested tolerances."""

    def __init__(self, t: float, state: np.ndarray):
        self.t = t
        self.state = state
        super().__init__(
            f"step size underflow at t = {t!r} (state {state!r}); "
            "relax tolerances or reduce the rate disparity"
        )


# largest magnitude whose square is finite; beyond it ``q ** 2`` on a
# Python float raises OverflowError instead of giving inf
_SQ_MAX = math.sqrt(sys.float_info.max)

# one recorded step, (t, u0, u1, u2, u3) as native doubles
_STEP = struct.Struct("5d")


def _rhs_of(model, par):
    """The right-hand side as a function of four scalar components that
    returns a 4-tuple; bound once per run.

    Three-level components are (rho11, rho22, y, x).  The two-level state
    (rho11, y, x) is carried with a fourth component pinned at zero, so
    one unrolled loop serves both models: the padding adds exact zeros to
    every sum and changes no result.

    The constant factors are folded once per run.  Python groups ``*``
    from the left and binds unary minus tighter, so ``2.0 * g * x * y``
    and ``-kappa * x`` already multiply ``2.0 * g`` and ``-kappa`` first:
    every result is bit for bit that of the equations as written in the
    module docstring.
    """
    n_at, g, kappa = par[:3]
    g2, ng, nkappa = 2.0 * g, n_at * g, -kappa
    if model == 2:
        _, _, _, gamma, pump, gperp, _ = par
        ngamma, ngperp = -gamma, -gperp

        def rhs(rho11, yq, xq, pad):
            return (
                ngamma * rho11 + pump * (1.0 - rho11) - g2 * xq * yq,
                ngperp * yq + g * xq * (2.0 * rho11 - 1.0),
                nkappa * xq + ng * yq,
                0.0,
            )

        return rhs
    _, _, _, g21, g02, g10, gperp = par
    ngperp = -gperp

    def rhs(rho11, rho22, yq, xq):
        rho00 = 1.0 - rho11 - rho22
        return (
            g21 * rho22 - g10 * rho11 - g2 * xq * yq,
            g02 * rho00 - g21 * rho22,
            ngperp * yq + g * xq * (rho11 - rho00),
            nkappa * xq + ng * yq,
        )

    return rhs


def _jacobian(model, par, s0, s1, s2, s3):
    """Jacobian of the right-hand side over the live components, as rows
    of floats: 3x3 for the two-level model, 4x4 for the three-level one."""
    if model == 2:
        n_at, g, kappa, gamma, pump, gperp, _ = par
        rho11, yq, xq = s0, s1, s2
        return (
            (-gamma - pump, -2.0 * g * xq, -2.0 * g * yq),
            (2.0 * g * xq, -gperp, g * (2.0 * rho11 - 1.0)),
            (0.0, n_at * g, -kappa),
        )
    n_at, g, kappa, g21, g02, g10, gperp = par
    rho11, rho22, yq, xq = s0, s1, s2, s3
    return (
        (-g10, g21, -2.0 * g * xq, -2.0 * g * yq),
        (-g02, -g02 - g21, 0.0, 0.0),
        (2.0 * g * xq, g * xq, -gperp, g * (2.0 * rho11 + rho22 - 1.0)),
        (0.0, 0.0, n_at * g, -kappa),
    )


def _hurwitz(model, par, s0, s1, s2, s3):
    """True when every eigenvalue of the Jacobian has a negative real part.

    The Lienard-Chipart conditions on the characteristic polynomial
    det(lambda*I - J) = lambda**n + a1*lambda**(n-1) + ... + an, whose
    coefficient ak is (-1)**k times the sum of the k x k principal minors
    of J (Gantmacher, Theory of Matrices II, ch. XV): a1, a3 > 0 and
    a1*a2 > a3 for n = 3; a1, a3, a4 > 0 and a1*a2*a3 - a3**2 - a1**2*a4
    > 0 for n = 4.  A NaN entry fails every test.
    """
    j = _jacobian(model, par, s0, s1, s2, s3)

    def m2(a, b):
        return j[a][a] * j[b][b] - j[a][b] * j[b][a]

    def m3(a, b, c):
        return (
            j[a][a] * (j[b][b] * j[c][c] - j[b][c] * j[c][b])
            - j[a][b] * (j[b][a] * j[c][c] - j[b][c] * j[c][a])
            + j[a][c] * (j[b][a] * j[c][b] - j[b][b] * j[c][a])
        )

    if model == 2:
        a1 = -(j[0][0] + j[1][1] + j[2][2])
        a2 = m2(0, 1) + m2(0, 2) + m2(1, 2)
        a3 = -m3(0, 1, 2)
        return a1 > 0.0 and a3 > 0.0 and a1 * a2 > a3
    a1 = -(j[0][0] + j[1][1] + j[2][2] + j[3][3])
    a2 = m2(0, 1) + m2(0, 2) + m2(0, 3) + m2(1, 2) + m2(1, 3) + m2(2, 3)
    a3 = -(m3(0, 1, 2) + m3(0, 1, 3) + m3(0, 2, 3) + m3(1, 2, 3))

    # det J by Laplace expansion along rows 0 and 1
    def c2(r, a, b):
        return j[r][a] * j[r + 1][b] - j[r][b] * j[r + 1][a]

    a4 = (
        c2(0, 0, 1) * c2(2, 2, 3) - c2(0, 0, 2) * c2(2, 1, 3)
        + c2(0, 0, 3) * c2(2, 1, 2) + c2(0, 1, 2) * c2(2, 0, 3)
        - c2(0, 1, 3) * c2(2, 0, 2) + c2(0, 2, 3) * c2(2, 0, 1)
    )
    return (
        a1 > 0.0 and a3 > 0.0 and a4 > 0.0
        and a1 * a2 * a3 - a3 * a3 - a1 * a1 * a4 > 0.0
    )


def _polish(model, par, n, u, steady_tol):
    """Newton's method on f(y) = 0, started at the trajectory state ``u``.

    Returns (root, ||f(root)||) with the root as a 4-tuple, or None unless
    the root meets the steady cutoff within 8 iterations, lies within
    1e-3*(||u|| + 1) of ``u``, is a physical state and is linearly stable.
    Every iterate must stay inside that ball, so an attempt from a state
    still far from a root fails after one or two iterations.
    """
    import numpy as np

    rhs = _rhs_of(model, par)
    radius = 1e-3 * (_norm(*u) + 1.0)
    v = u
    f = rhs(*v)
    for _ in range(8):
        try:
            step = np.linalg.solve(np.array(_jacobian(model, par, *v)), f[:n])
        except np.linalg.LinAlgError:
            return None
        v = tuple(float(a - b) for a, b in zip(v, step)) + v[n:]
        # the negated test also rejects a NaN iterate
        if not _norm(*(a - b for a, b in zip(v, u))) <= radius:
            return None
        f = rhs(*v)
        fnorm = _norm(*f)
        if fnorm < steady_tol * (_norm(*v) + 1.0):
            break
    else:
        return None
    try:
        _state_object(model, v)
    except ValueError:
        return None
    if not _hurwitz(model, par, *v):
        return None
    return v, fnorm


def _norm(s0, s1, s2, s3):
    return math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)


def _sq(q):
    """q ** 2, or inf where the square overflows."""
    return math.inf if abs(q) > _SQ_MAX else q ** 2


def _first_step(rhs, u, f, n, t_max, rtol, atol, max_step, order):
    """The initial step of a pair of the given ``order`` from the state
    ``u`` with ``f`` = rhs(u): the usual two-phase heuristic on scaled
    magnitudes (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4)."""
    u0, u1, u2, u3 = u
    k1_0, k1_1, k1_2, k1_3 = f
    sc0 = atol + rtol * abs(u0)
    sc1 = atol + rtol * abs(u1)
    sc2 = atol + rtol * abs(u2)
    sc3 = atol + rtol * abs(u3)
    d0 = _sq(u0 / sc0) + _sq(u1 / sc1) + _sq(u2 / sc2) + _sq(u3 / sc3)
    d1 = _sq(k1_0 / sc0) + _sq(k1_1 / sc1) + _sq(k1_2 / sc2) + _sq(k1_3 / sc3)
    d0 = math.sqrt(d0 / n)
    d1 = math.sqrt(d1 / n)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_max, max_step)
    k2_0, k2_1, k2_2, k2_3 = rhs(
        u0 + h0 * k1_0, u1 + h0 * k1_1, u2 + h0 * k1_2, u3 + h0 * k1_3
    )
    d2 = (
        _sq((k2_0 - k1_0) / sc0)
        + _sq((k2_1 - k1_1) / sc1)
        + _sq((k2_2 - k1_2) / sc2)
        + _sq((k2_3 - k1_3) / sc3)
    )
    # h0 is 0 only when d1 overflowed; the fallback below then applies
    d2 = math.sqrt(d2 / n) / h0 if h0 > 0.0 else math.inf
    dm = max(d1, d2)
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** (1.0 / order)
    h = min(100.0 * h0, h1, t_max, max_step)
    if not (h > 0.0 and math.isfinite(h)):
        # overflow-proof fallback for extreme tolerance settings
        h = min(1e-6, t_max, max_step)
    return h


def _dp45_loop(
    model,
    par,
    y0,
    n,
    t_max,
    rtol,
    atol,
    max_step,
    steady_tol,
    stop_at_steady,
):
    """Adaptive Dormand-Prince 5(4) from t = 0 to t_max, recording every
    accepted step.

    ``par`` and ``y0`` are float tuples (see :func:`_rhs_of`); ``n`` is
    the number of live components.  The stages are unrolled over scalar
    locals.

    Returns (status, t, y, f_norm, steps), with the end state ``y`` as a
    tuple of the ``n`` live components.  status: 0 = derivative norm
    reached steady_tol scale, 1 = t_max reached, 2 = step-size underflow.
    ``steps`` holds (t, u0, u1, u2, u3) of the initial state and of every
    accepted step as native doubles, flat in one ``bytearray``.

    With ``stop_at_steady`` the run ends where the derivative norm meets
    the cutoff and the Jacobian is Hurwitz, the t = 0 state included.  The
    stability test is spent once per approach and re-arms only after the
    norm rises above 1e5 times the cutoff again.
    """
    check_armed = True
    t = 0.0
    u0, u1, u2, u3 = y0
    rhs = _rhs_of(model, par)
    k1_0, k1_1, k1_2, k1_3 = rhs(u0, u1, u2, u3)
    fnorm = _norm(k1_0, k1_1, k1_2, k1_3)

    pack_step = _STEP.pack
    steps = bytearray(pack_step(t, u0, u1, u2, u3))

    if stop_at_steady and fnorm < steady_tol * (_norm(u0, u1, u2, u3) + 1.0):
        if _hurwitz(model, par, u0, u1, u2, u3):
            return _STEADY, t, (u0, u1, u2, u3)[:n], fnorm, steps
        check_armed = False

    h = _first_step(rhs, (u0, u1, u2, u3), (k1_0, k1_1, k1_2, k1_3), n, t_max,
                    rtol, atol, max_step, 5)

    # Near a fixed point the error-controlled stepper keeps injecting
    # O(atol + rtol*|y|) perturbations, which puts a noise floor under
    # ||f|| far above steady_tol*(||y|| + 1).  When the flow speed enters
    # the terminal zone the effective tolerances are tightened (never
    # loosened beyond the requested ones) so the criterion stays
    # reachable; the rounding floor caps how far tightening can go.
    tighten = 1.0
    tighten_min = min(1.0, 5e-14 / rtol)

    status = _TMAX
    while t < t_max:
        # the floor keeps the error scale of a zero component (the
        # two-level padding) positive should atol*tighten underflow
        atol_eff = max(atol * tighten, 5e-324)
        rtol_eff = rtol * tighten
        floor = 1e-14 * max(1.0, abs(t))
        remaining = t_max - t
        if remaining <= floor:
            break  # arrived within rounding of the horizon
        if h > max_step:
            h = max_step
        if h > remaining:
            h = remaining
        if h < floor:
            # the error controller, not the horizon, drove h to zero
            status = _UNDERFLOW
            break

        # Dormand-Prince stages (FSAL: k1 already holds f(t, y))
        k2_0, k2_1, k2_2, k2_3 = rhs(
            u0 + h * 0.2 * k1_0,
            u1 + h * 0.2 * k1_1,
            u2 + h * 0.2 * k1_2,
            u3 + h * 0.2 * k1_3,
        )
        k3_0, k3_1, k3_2, k3_3 = rhs(
            u0 + h * (0.075 * k1_0 + 0.225 * k2_0),
            u1 + h * (0.075 * k1_1 + 0.225 * k2_1),
            u2 + h * (0.075 * k1_2 + 0.225 * k2_2),
            u3 + h * (0.075 * k1_3 + 0.225 * k2_3),
        )
        k4_0, k4_1, k4_2, k4_3 = rhs(
            u0 + h * ((44.0 / 45.0) * k1_0 - (56.0 / 15.0) * k2_0
                      + (32.0 / 9.0) * k3_0),
            u1 + h * ((44.0 / 45.0) * k1_1 - (56.0 / 15.0) * k2_1
                      + (32.0 / 9.0) * k3_1),
            u2 + h * ((44.0 / 45.0) * k1_2 - (56.0 / 15.0) * k2_2
                      + (32.0 / 9.0) * k3_2),
            u3 + h * ((44.0 / 45.0) * k1_3 - (56.0 / 15.0) * k2_3
                      + (32.0 / 9.0) * k3_3),
        )
        k5_0, k5_1, k5_2, k5_3 = rhs(
            u0 + h * ((19372.0 / 6561.0) * k1_0 - (25360.0 / 2187.0) * k2_0
                      + (64448.0 / 6561.0) * k3_0 - (212.0 / 729.0) * k4_0),
            u1 + h * ((19372.0 / 6561.0) * k1_1 - (25360.0 / 2187.0) * k2_1
                      + (64448.0 / 6561.0) * k3_1 - (212.0 / 729.0) * k4_1),
            u2 + h * ((19372.0 / 6561.0) * k1_2 - (25360.0 / 2187.0) * k2_2
                      + (64448.0 / 6561.0) * k3_2 - (212.0 / 729.0) * k4_2),
            u3 + h * ((19372.0 / 6561.0) * k1_3 - (25360.0 / 2187.0) * k2_3
                      + (64448.0 / 6561.0) * k3_3 - (212.0 / 729.0) * k4_3),
        )
        k6_0, k6_1, k6_2, k6_3 = rhs(
            u0 + h * ((9017.0 / 3168.0) * k1_0 - (355.0 / 33.0) * k2_0
                      + (46732.0 / 5247.0) * k3_0 + (49.0 / 176.0) * k4_0
                      - (5103.0 / 18656.0) * k5_0),
            u1 + h * ((9017.0 / 3168.0) * k1_1 - (355.0 / 33.0) * k2_1
                      + (46732.0 / 5247.0) * k3_1 + (49.0 / 176.0) * k4_1
                      - (5103.0 / 18656.0) * k5_1),
            u2 + h * ((9017.0 / 3168.0) * k1_2 - (355.0 / 33.0) * k2_2
                      + (46732.0 / 5247.0) * k3_2 + (49.0 / 176.0) * k4_2
                      - (5103.0 / 18656.0) * k5_2),
            u3 + h * ((9017.0 / 3168.0) * k1_3 - (355.0 / 33.0) * k2_3
                      + (46732.0 / 5247.0) * k3_3 + (49.0 / 176.0) * k4_3
                      - (5103.0 / 18656.0) * k5_3),
        )
        v0 = u0 + h * ((35.0 / 384.0) * k1_0 + (500.0 / 1113.0) * k3_0
                       + (125.0 / 192.0) * k4_0 - (2187.0 / 6784.0) * k5_0
                       + (11.0 / 84.0) * k6_0)
        v1 = u1 + h * ((35.0 / 384.0) * k1_1 + (500.0 / 1113.0) * k3_1
                       + (125.0 / 192.0) * k4_1 - (2187.0 / 6784.0) * k5_1
                       + (11.0 / 84.0) * k6_1)
        v2 = u2 + h * ((35.0 / 384.0) * k1_2 + (500.0 / 1113.0) * k3_2
                       + (125.0 / 192.0) * k4_2 - (2187.0 / 6784.0) * k5_2
                       + (11.0 / 84.0) * k6_2)
        v3 = u3 + h * ((35.0 / 384.0) * k1_3 + (500.0 / 1113.0) * k3_3
                       + (125.0 / 192.0) * k4_3 - (2187.0 / 6784.0) * k5_3
                       + (11.0 / 84.0) * k6_3)
        k7_0, k7_1, k7_2, k7_3 = rhs(v0, v1, v2, v3)

        # embedded 4th-order error estimate
        e0 = h * ((71.0 / 57600.0) * k1_0 - (71.0 / 16695.0) * k3_0
                  + (71.0 / 1920.0) * k4_0 - (17253.0 / 339200.0) * k5_0
                  + (22.0 / 525.0) * k6_0 - (1.0 / 40.0) * k7_0)
        e1 = h * ((71.0 / 57600.0) * k1_1 - (71.0 / 16695.0) * k3_1
                  + (71.0 / 1920.0) * k4_1 - (17253.0 / 339200.0) * k5_1
                  + (22.0 / 525.0) * k6_1 - (1.0 / 40.0) * k7_1)
        e2 = h * ((71.0 / 57600.0) * k1_2 - (71.0 / 16695.0) * k3_2
                  + (71.0 / 1920.0) * k4_2 - (17253.0 / 339200.0) * k5_2
                  + (22.0 / 525.0) * k6_2 - (1.0 / 40.0) * k7_2)
        e3 = h * ((71.0 / 57600.0) * k1_3 - (71.0 / 16695.0) * k3_3
                  + (71.0 / 1920.0) * k4_3 - (17253.0 / 339200.0) * k5_3
                  + (22.0 / 525.0) * k6_3 - (1.0 / 40.0) * k7_3)
        errnorm = (
            _sq(e0 / (atol_eff + rtol_eff * max(abs(u0), abs(v0))))
            + _sq(e1 / (atol_eff + rtol_eff * max(abs(u1), abs(v1))))
            + _sq(e2 / (atol_eff + rtol_eff * max(abs(u2), abs(v2))))
            + _sq(e3 / (atol_eff + rtol_eff * max(abs(u3), abs(v3))))
        )
        errnorm = math.sqrt(errnorm / n)

        if errnorm <= 1.0:
            t += h
            u0, u1, u2, u3 = v0, v1, v2, v3
            k1_0, k1_1, k1_2, k1_3 = k7_0, k7_1, k7_2, k7_3  # FSAL
            steps += pack_step(t, u0, u1, u2, u3)
            fnorm = _norm(k1_0, k1_1, k1_2, k1_3)
            if stop_at_steady:
                target = steady_tol * (_norm(u0, u1, u2, u3) + 1.0)
                if fnorm > 1e5 * target:
                    check_armed = True
                if fnorm < target:
                    if check_armed and _hurwitz(model, par, u0, u1, u2, u3):
                        status = _STEADY
                        break
                    check_armed = False
                if fnorm < 1e4 * target and tighten > tighten_min:
                    tighten = max(0.25 * tighten, tighten_min)
                elif fnorm > 1e5 * target and tighten < 1.0:
                    tighten = min(4.0 * tighten, 1.0)
            if errnorm == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        else:
            h *= max(0.1, 0.9 * errnorm ** -0.2)

    return status, t, (u0, u1, u2, u3)[:n], fnorm, steps


def _pack(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
) -> tuple[int, tuple[float, ...]]:
    if isinstance(p, PhysicalTwoLevel):
        par = (
            p.n_atoms,
            p.coupling_g,
            p.cavity_kappa,
            p.gamma_decay,
            p.pump_Gamma,
            gamma_perp_two(p),
            0.0,
        )
        return 2, tuple(float(v) for v in par)
    if isinstance(p, PhysicalThreeLevel):
        par = (
            p.n_atoms,
            p.coupling_g,
            p.cavity_kappa,
            p.gamma_21,
            p.gamma_02,
            p.gamma_10,
            gamma_perp_three(p),
        )
        return 3, tuple(float(v) for v in par)
    raise TypeError(f"unsupported model parameters: {type(p).__name__}")


# the state class and the component labels of each model tag of _pack
_STATES = {
    2: (BlochState2, ("rho11", "y", "x")),
    3: (BlochState3, ("rho11", "rho22", "y", "x")),
}


def _state_tuple(model: int, state: BlochState2 | BlochState3) -> tuple[float, ...]:
    """State as four floats; the two-level state is zero-padded."""
    cls, labels = _STATES[model]
    if not isinstance(state, cls):
        raise TypeError(f"the {model}-level model needs a {cls.__name__} state, "
                        f"got {type(state).__name__}")
    u = tuple(float(getattr(state, k)) for k in labels)
    return u + (0.0,) * (4 - len(u))


def _state_object(model: int, y: tuple[float, ...]) -> BlochState2 | BlochState3:
    cls, labels = _STATES[model]
    return cls(*(float(v) for v in y[:len(labels)]))


def _physical_state(
    model: int, t: float, y: tuple[float, ...]
) -> BlochState2 | BlochState3:
    """The end state of a run; ValueError naming the tolerances when it is
    non-finite or outside the physical state space."""
    try:
        return _state_object(model, y)
    except ValueError as e:
        raise ValueError(
            f"the run ended outside the physical state space at t = {t!r} ({e}); "
            "tighten rel_tol/abs_tol"
        ) from None


def _evaluate(model: int, jacobian: bool, state, p) -> np.ndarray:
    """The right-hand side of ``model`` at ``state``, or with ``jacobian``
    its Jacobian, as an array over the live components; TypeError when
    ``p`` or ``state`` belongs to the other model."""
    import numpy as np

    tag, par = _pack(p)
    if tag != model:
        raise TypeError(f"{type(p).__name__} is not a {model}-level parameter set")
    u = _state_tuple(model, state)
    if jacobian:
        return np.array(_jacobian(model, par, *u))
    return np.array(_rhs_of(model, par)(*u)[:len(_STATES[model][1])])


def derivs_two(state: BlochState2, p: PhysicalTwoLevel) -> np.ndarray:
    """Time derivative (d rho11, d y, d x) of the reduced two-level system."""
    return _evaluate(2, False, state, p)


def derivs_three(state: BlochState3, p: PhysicalThreeLevel) -> np.ndarray:
    """Time derivative (d rho11, d rho22, d y, d x) of the reduced
    three-level system."""
    return _evaluate(3, False, state, p)


def jacobian_two(state: BlochState2, p: PhysicalTwoLevel) -> np.ndarray:
    """Jacobian of :func:`derivs_two` over (rho11, y, x) at ``state``."""
    return _evaluate(2, True, state, p)


def jacobian_three(state: BlochState3, p: PhysicalThreeLevel) -> np.ndarray:
    """Jacobian of :func:`derivs_three` over (rho11, rho22, y, x) at
    ``state``."""
    return _evaluate(3, True, state, p)


def initial_state(
    p: PhysicalTwoLevel | PhysicalThreeLevel, seed_field: float = 1e-3
) -> BlochState2 | BlochState3:
    """Default initial condition: no-field equilibrium populations with a
    small seed field.

    n = 0 is always a fixed point, so a seed is required for the
    trajectory to find the lasing branch; 1e-3 is small enough not to
    bias where it ends up.
    """
    if isinstance(p, PhysicalTwoLevel):
        _, rho11 = equilibrium_populations_two(p)
        return BlochState2(rho11=rho11, y=0.0, x=seed_field)
    _, rho11, rho22 = equilibrium_populations_three(p)
    return BlochState3(rho11=rho11, rho22=rho22, y=0.0, x=seed_field)


def fixed_point_state(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
) -> BlochState2 | BlochState3:
    """Closed-form steady state expanded to a full dynamical state.

    On the lasing branch the field quadrature is x = sqrt(n) with the
    coherence slaved at y = kappa*x/(N*g); below threshold (or beyond the
    upper window edge) it is the no-field equilibrium.  Substituting the
    result into the equations of motion gives derivatives at the rounding
    floor, which is how the closed forms and the integrator are tied
    together.  Note the fixed point itself may be dynamically unstable in
    strongly pumped bad-cavity regimes; existence does not imply the
    trajectory ends there.
    """
    if isinstance(p, PhysicalTwoLevel):
        res, cls = n_two_level(*reduce_two(p)), BlochState2
    else:
        res, cls = n_three_physical(p), BlochState3
    if res.photon_number > 0.0:
        x = math.sqrt(res.photon_number)
        y = p.cavity_kappa * x / (p.n_atoms * p.coupling_g)
        return cls(*res.populations[1:], y, x)
    return initial_state(p, seed_field=0.0)


def default_t_max(p: PhysicalTwoLevel | PhysicalThreeLevel) -> float:
    """1e3 times the inverse of the slowest nonzero rate of the model."""
    rates = (getattr(p, f.name) for f in fields(p)
             if f.name not in ("n_atoms", "coupling_g", "scheme"))
    return 1e3 / min(r for r in rates if r > 0.0)


def _good_cavity(p: PhysicalTwoLevel | PhysicalThreeLevel) -> bool:
    """kappa < gamma_perp + gamma_par: the good-cavity side of the
    Lorenz-Haken second threshold (Haken, Phys. Lett. A 53, 77 (1975)).
    Beyond it a stable lasing fixed point can share phase space with a
    pulsing attractor."""
    if isinstance(p, PhysicalTwoLevel):
        return p.cavity_kappa < gamma_perp_two(p) + p.gamma_decay + p.pump_Gamma
    try:
        gpar, _ = gamma_parallel_and_inversion(p)
    except ValueError:  # gamma_21 = gamma_02 = 0: no gamma_par to compare
        return False
    return p.cavity_kappa < gamma_perp_three(p) + gpar


def _loop_args(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None,
    config: IntegratorConfig,
) -> tuple:
    """The leading arguments of either stepper loop, model tag first."""
    model, par = _pack(p)
    y0 = _state_tuple(model, initial if initial is not None else initial_state(p))
    t_max = config.t_max if config.t_max is not None else default_t_max(p)
    return (
        model,
        par,
        y0,
        len(_STATES[model][1]),
        float(t_max),
        config.rel_tol,
        config.abs_tol,
        config.max_step,
        config.steady_tol,
    )


def _raise_on_underflow(model: int, status: int, t: float, y: tuple[float, ...]) -> None:
    if status == _UNDERFLOW:
        # a state that ran off to nonsense first points at loose
        # tolerances, not at stiffness
        _physical_state(model, t, y)
        import numpy as np

        raise StiffnessError(t, np.array(y))


def _recorded(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None,
    config: IntegratorConfig,
    stop_at_steady: bool,
):
    """The recorded run behind :func:`integrate` and the ``dynamics``
    command.

    Returns (labels, steady, ||f||, columns): ``columns`` holds t and then
    the state components named by ``labels``, one row per accepted step,
    each a 1-D memoryview of doubles that strides over the packed step
    buffer.  Raises as :func:`integrate` does.
    """
    args = _loop_args(p, initial, config)
    model = args[0]
    status, t, y, fnorm, steps = _dp45_loop(*args, stop_at_steady)
    _raise_on_underflow(model, status, t, y)
    labels = _STATES[model][1]
    cells = memoryview(steps).cast("d")
    width = _STEP.size // cells.itemsize  # doubles per step
    columns = [cells[k::width] for k in range(1 + len(labels))]
    return labels, status == _STEADY, fnorm, columns


def integrate(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None = None,
    config: IntegratorConfig = IntegratorConfig(),
    stop_at_steady: bool = False,
) -> TimeSeries:
    """Integrate one trajectory, sampling every accepted step.

    Runs to ``config.t_max`` (resolved per :func:`default_t_max` when
    None), or until the fixed-point criterion fires if
    ``stop_at_steady`` is set.  The criterion ends the run only where the
    Jacobian is Hurwitz: a trajectory that meets the cutoff at an
    unstable fixed point (the empty cavity above threshold, say) goes on.
    Raises :class:`StiffnessError` on step underflow, or ValueError when
    the state ran off to a non-finite or unphysical value before the step
    underflowed.
    """
    import numpy as np

    labels, steady, fnorm, columns = _recorded(p, initial, config, stop_at_steady)
    states = np.stack(columns[1:], axis=1)
    return TimeSeries(
        times=np.array(columns[0]),
        states=states,
        photon_numbers=states[:, -1] ** 2,  # x is the last component
        state_labels=labels,
        steady=steady,
        derivative_norm=fnorm,
    )


def settle(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None = None,
    config: IntegratorConfig = IntegratorConfig(),
) -> SettleResult:
    """Integrate until the scaled derivative norm marks a stable fixed point.

    The independent cross-check for every closed-form photon number: no
    steady-state algebra enters, only the equations of motion and their
    Jacobian.  The stepper is the adaptive Dormand-Prince 8(5,3) pair
    (DOP853), not the 5(4) pair of :func:`integrate`, and the result
    counts its steps and Newton attempts.  Newton's method on the analytic
    Jacobian finishes the solve.  It is tried once the flow has brought
    the derivative norm within 1e4 of the cutoff and, on the good-cavity
    side (kappa < gamma_perp + gamma_par, where no pulsing attractor is
    expected beside a stable fixed point), also after accepted steps 1, 2,
    3, 4, 6, 8, 11, ...  Its root is taken only when it meets the cutoff,
    lies within 1e-3*(||y|| + 1) of the trajectory state, is physical and
    is linearly stable, and otherwise the integration goes on.  A state
    that meets the cutoff at an unstable fixed point (a Hopf-unstable
    lasing point, or the empty cavity above threshold) does not end the
    run.  When t_max is exhausted first, the result carries
    ``converged = False`` and the last state instead of raising.  Loose
    tolerances can carry the state outside the physical state space; the
    run stops and raises ValueError as soon as an accepted state there is
    seen.  The state is checked after accepted steps 1, 2, 3, 4, 6, 8,
    11, ... on either side of the cavity condition, and at the end.
    """
    from ._dop853 import dop853_loop

    args = _loop_args(p, initial, config)
    model = args[0]
    status, t, y, fnorm, (steps, rejected, attempts, evaluations) = dop853_loop(
        *args, _good_cavity(p)
    )
    _raise_on_underflow(model, status, t, y)
    state = _physical_state(model, t, y)
    return SettleResult(
        photon_number=state.photon_number,
        state=state,
        time=float(t),
        derivative_norm=float(fnorm),
        converged=status == _STEADY,
        steps=steps,
        rejected_steps=rejected,
        polish_attempts=attempts,
        rhs_evaluations=evaluations,
    )
