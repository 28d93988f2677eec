"""Time-domain integration of the Maxwell-Bloch systems.

The equations are integrated in phase-reduced real coordinates: the global
field phase is fixed so the field quadrature x is real and the lasing
coherence purely imaginary (rho10 = i*y).  The photon number is n = x**2,
and the implied dn/dt = -2*kappa*n + 2*N*g*x*y reproduces the
photon-number equation term by term, so fixed points of the reduced system
are exactly the steady states of the full one.

Both atoms obey one set of equations in the state [rho11, rho22, y, x],
with rho00 = 1 - rho11 - rho22:
    d rho11 = Gamma*rho00 + gamma_21*rho22 - gamma_10*rho11 - 2*g*x*y
    d rho22 = gamma_02*rho00 - gamma_21*rho22
    d y     = -gamma_perp*y + g*x*(rho11 - rho00)
    d x     = -kappa*x + N*g*y

The three-level atom has Gamma = 0.  The two-level atom is the three-level
one with level 2 empty and Gamma pumping 0 -> 1 directly: its rates are
(gamma_21, gamma_02, gamma_10) = (gamma, 0, gamma), so its state is
[rho11, y, x] and its inversion rho11 - rho00 is rho11 - (1 - rho11).
Level 2 stays empty because nothing fills it: from rho22 = 0, d rho22 =
0*rho00 - gamma*0 is exactly zero.  Its decay gamma into level 1 makes
the Jacobian's rho22 row (0, -gamma, 0, 0), which adds the eigenvalue
-gamma to those over (rho11, y, x), so one 4x4 Jacobian, Newton step and
stability test serve both atoms.

One explicit adaptive Runge-Kutta pair with first-same-as-last reuse, the
Dormand-Prince 8(5,3) pair (DOP853) of ``lasekit._dop853``, integrates the
system for :func:`settle`, :func:`integrate` and the ``lasekit dynamics``
command, all through :func:`_run`, the one caller of its kernels.
``_dop853.kernel`` states the rule that ends a run: the derivative-norm
cutoff, the stability test, the Newton polish and the state check.  The
derivative of every accepted state, which the cutoff runs on, comes for
free.  The right-hand side is written once, as the table ``_RHS`` of
its terms below.  From it the closure :func:`_rhs_of` is emitted on
import, and each atom's kernel, with the tableau, on the atom's first
run: the kernel runs on scalar float locals with its stages unrolled
over the live components of the state and the right-hand side written
into each stage, which keeps plain Python free of per-element numpy
indexing and of a call per stage.  The two-level kernel does not
step the empty level 2, and the three-level one leaves out Gamma*rho00:
both terms are exact zeros, so either kernel gives bit for bit what the
four components with every term give.  A recorded run appends the
time and state of each accepted step, and of no other point (there is no
dense output), packed as doubles, to one flat ``bytearray``;
:func:`integrate` builds its arrays from that buffer once.  The ``lasekit
dynamics`` command reads the same buffer through memoryviews and writes
it without loading numpy, which this module imports only where it builds
an array: in :func:`integrate`, :class:`TimeSeries` and the one helper
behind the public ``derivs_*`` and ``jacobian_*``, through
``params._numpy``.  :func:`settle` and a :class:`StiffnessError` run
without it.

Newton's method on the analytic Jacobian finishes a run that stops at
steady.  Each Newton step is solved on floats: the rows of the Jacobian
with two structural zeros eliminate one unknown each, and Cramer's rule
solves the 2x2 system left (:func:`_newton_step`).
"""

from __future__ import annotations

import linecache
import math
import struct
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .params import (
    BlochState2,
    BlochState3,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    _POP_SLACK,
    _numpy,
    _populations_from_ground,
    _state_error,
    equilibrium_populations_two,
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

# The right-hand side of the equations above at the point p, the one place
# it is written as code: rho00 = r, then the derivative of each slot of the
# state (rho11, rho22, y, x), as its terms in the order they are summed.
# _rhs_of and each stage of the ``_dop853`` kernels are emitted from it.
# Python groups ``*`` from the left and binds unary minus tighter, so the
# folded ``g2 * x * y`` and ``nkappa * x`` (_RATES) are bit for bit the
# ``2*g*x*y`` and ``-kappa*x`` of the equations as written.
_RHS = (
    ("1.0", " - {p}0", " - {p}1"),
    ("pump * r", " + g21 * {p}1", " - g10 * {p}0", " - g2 * {p}3 * {p}2"),
    ("g02 * r", " - g21 * {p}1"),
    ("ngperp * {p}2", " + g * {p}3 * ({p}0 - r)"),
    ("nkappa * {p}3", " + ng * {p}2"),
)

# the rates of par (_pack) and the constants folded from them, the first
# lines of _rhs_of and of each kernel; {pump} is Gamma's name
_RATES = """\
    n_at, g, kappa, g21, g02, g10, gperp, {pump} = par
    g2, ng, nkappa, ngperp = 2.0 * g, n_at * g, -kappa, -gperp"""

_RHS_OF = '''\
def _rhs_of(par):
    """The right-hand side of both atoms over (rho11, rho22, y, x): _RHS."""
{rates}

    def rhs(u0, u1, u2, u3):
        r = {0}
        return {1}, {2}, {3}, {4}

    return rhs
'''


def _written(p, dropped=()):
    """The sums of :data:`_RHS` at ``p``, less the terms that contain any of ``dropped``."""
    return ["".join(t for t in terms if not any(d in t for d in dropped))
            .removeprefix(" + ").format(p=p) for terms in _RHS]


def _compiled(source, filename, namespace):
    """``namespace`` after running the emitted ``source`` in it, with the
    source in :mod:`linecache` for tracebacks and ``inspect.getsource``."""
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace


_rhs_of = _compiled(_RHS_OF.format(*_written("u"), rates=_RATES.format(pump="pump")),
                    "<lasekit.dynamics _rhs_of>", {"__name__": __name__})["_rhs_of"]

# loop exit codes
_STEADY = 0
_TMAX = 1
_UNDERFLOW = 2


@dataclass(frozen=True)
class TimeSeries:
    """Accepted-step samples of one trajectory.

    ``states`` rows match ``times``; columns follow ``state_labels``, one
    of which is ``x``.  ``steady`` records whether the run ended on the
    fixed-point criterion at a linearly stable fixed point (as opposed to
    exhausting t_max), and ``derivative_norm`` is ||f|| at the final
    state.  ``photon_numbers`` is derived, n = x**2 of each row.
    """

    times: np.ndarray
    states: np.ndarray
    state_labels: tuple[str, ...]
    steady: bool
    derivative_norm: float

    def __post_init__(self) -> None:
        np = _numpy("TimeSeries")
        rows, labels, shape = len(self.times), self.state_labels, np.shape(self.states)
        if not rows or shape != (rows, len(labels)) or "x" not in labels:
            raise ValueError(f"a time series needs >= 1 time, states of shape (times, labels) "
                             f"and an x label; got {rows} times, shape {shape}, labels {labels!r}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def photon_numbers(self) -> np.ndarray:
        """n = x * x of each row, inf where it overflows."""
        np = _numpy("TimeSeries.photon_numbers")
        x = np.asarray(self.states, dtype=float)[:, self.state_labels.index("x")]
        with np.errstate(over="ignore"):
            return x * x


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
        return (s.rho00, s.rho11, s.rho22) if isinstance(s, BlochState3) else (s.rho00, s.rho11)


class StiffnessError(RuntimeError):
    """The adaptive step size underflowed; the problem is too stiff for an
    explicit method at the requested tolerances.  ``state`` is the tuple of
    the state's components where it stopped, in its field order."""

    def __init__(self, t: float, state: tuple[float, ...]):
        self.t = t
        self.state = state
        super().__init__(
            f"step size underflow at t = {t!r} (state {state!r}); "
            "relax tolerances or reduce the rate disparity"
        )


# one recorded step, (t, u0, u1, u2, u3) as native doubles
_STEP = struct.Struct("5d")


def _jacobian(par, s0, s1, s2, s3):
    """Jacobian of the right-hand side over (rho11, rho22, y, x), as rows
    of floats.  d rho00/d rho22 = -1 puts -Gamma into the rho11 row's
    rho22 entry; the three-level atom has Gamma = 0, and the two-level
    one's rho22 row is (0, -gamma, 0, 0)."""
    n_at, g, kappa, g21, g02, g10, gperp, pump = par
    rho11, rho22, yq, xq = s0, s1, s2, s3
    return (
        (-g10 - pump, g21 - pump, -2.0 * g * xq, -2.0 * g * yq),
        (-g02, -g02 - g21, 0.0, 0.0),
        (2.0 * g * xq, g * xq, -gperp, g * (2.0 * rho11 + rho22 - 1.0)),
        (0.0, 0.0, n_at * g, -kappa),
    )


def _hurwitz(par, s0, s1, s2, s3):
    """True when every eigenvalue of the 4x4 Jacobian has a negative real
    part.

    The Lienard-Chipart conditions on the characteristic polynomial
    det(lambda*I - J) = lambda**4 + a1*lambda**3 + ... + a4, whose
    coefficient ak is (-1)**k times the sum of the k x k principal minors
    of J (Gantmacher, Theory of Matrices II, ch. XV): a1, a3, a4 > 0 and
    a1*a2*a3 - a3**2 - a1**2*a4 > 0.  For the two-level atom the extra
    eigenvalue -gamma of its empty level is negative, so the verdict is
    that over (rho11, y, x).  A NaN entry fails every test.
    """
    j = _jacobian(par, s0, s1, s2, s3)

    def m2(a, b):
        return j[a][a] * j[b][b] - j[a][b] * j[b][a]

    def m3(a, b, c):
        return (
            j[a][a] * (j[b][b] * j[c][c] - j[b][c] * j[c][b])
            - j[a][b] * (j[b][a] * j[c][c] - j[b][c] * j[c][a])
            + j[a][c] * (j[b][a] * j[c][b] - j[b][b] * j[c][a])
        )

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


def _newton_step(par, v, f):
    """The Newton step d with J(v) d = f, as a 4-tuple, or None where J is
    singular.

    The last row of J, (0, N*g, -kappa) over (y, x), gives
    d_y = (f_x + kappa*d_x)/(N*g); the rho22 row, (-gamma_02,
    -gamma_02 - gamma_21) over (rho11, rho22), gives d_rho22 and is
    singular where gamma_02 + gamma_21 = 0.  For the two-level atom that
    row is (0, -gamma) and f's rho22 slot is 0, so d_rho22 is 0.  Cramer's
    rule solves the 2x2 system in (d_rho11, d_x) that the rho11 and y rows
    leave; it is singular where its determinant is 0.  A NaN entry gives
    a NaN step.
    """
    j = _jacobian(par, *v)
    (a00, a01, a0y, a0x), (a10, a11, _, _), (ay0, ay1, ayy, ayx), (_, _, axy, axx) = j
    if a11 == 0.0:
        return None
    # d_rho22 = p1 - q1*d_rho11, folded into the rho11 and y rows
    p1, q1 = f[1] / a11, a10 / a11
    a00 -= a01 * q1
    ay0 -= ay1 * q1
    f0 = f[0] - a01 * p1
    fy = f[2] - ay1 * p1
    fx = f[3]
    # d_y = py + qy*d_x
    py, qy = fx / axy, -axx / axy
    b0x = a0x + a0y * qy
    byx = ayx + ayy * qy
    f0 -= a0y * py
    fy -= ayy * py
    det = a00 * byx - b0x * ay0
    if det == 0.0:
        return None
    d0 = (f0 * byx - b0x * fy) / det
    dx = (a00 * fy - f0 * ay0) / det
    dy = py + qy * dx
    return d0, p1 - q1 * d0, dy, dx


def _polish(par, rhs, u, f, steady_tol):
    """Newton's method on f(y) = 0, started at the trajectory state ``u``
    with ``f`` = rhs(u), the stepper's right-hand side and derivative.

    Returns (root, ||f(root)||) with the root as a 4-tuple when the root
    meets the steady cutoff within 8 iterations, lies within
    1e-3*(||u|| + 1) of ``u``, is a physical state (:func:`_physical`) and
    is linearly stable.  Every iterate must stay inside that ball, so an
    attempt from a state still far from a root fails after one or two
    iterations.  The first iterate that meets the cutoff is only as good
    as the cutoff times the Jacobian's conditioning; one more Newton step
    takes it to rounding, and is kept where it stays in the ball and does
    not raise ||f||.

    An attempt whose iterate leaves the ball returns (None, aim), with
    that iterate as the 4-tuple aim: Newton's estimate of the root it is
    heading for, which costs nothing beyond the failed attempt.  Close to
    a root its error goes as the square of the distance to the root.
    The stepper (``_dop853.kernel``) tries again once a state lies within
    the ball of it.  Any other failure returns None.
    """
    u0, u1, u2, u3 = u
    radius = 1e-3 * (_norm(u0, u1, u2, u3) + 1.0)
    v0, v1, v2, v3 = u
    for _ in range(8):
        step = _newton_step(par, (v0, v1, v2, v3), f)
        if step is None:
            return None
        d0, d1, d2, d3 = step
        v0, v1, v2, v3 = v0 - d0, v1 - d1, v2 - d2, v3 - d3
        # the negated test also rejects a NaN iterate, which is no aim
        distance = _norm(v0 - u0, v1 - u1, v2 - u2, v3 - u3)
        if not distance <= radius:
            return (None, (v0, v1, v2, v3)) if distance > radius else None
        f = rhs(v0, v1, v2, v3)
        fnorm = _norm(*f)
        if fnorm < steady_tol * (_norm(v0, v1, v2, v3) + 1.0):
            break
    else:
        return None
    step = _newton_step(par, (v0, v1, v2, v3), f)
    if step is not None:
        d0, d1, d2, d3 = step
        w0, w1, w2, w3 = v0 - d0, v1 - d1, v2 - d2, v3 - d3
        wnorm = _norm(*rhs(w0, w1, w2, w3))
        if wnorm <= fnorm and _norm(w0 - u0, w1 - u1, w2 - u2, w3 - u3) <= radius:
            v0, v1, v2, v3, fnorm = w0, w1, w2, w3, wnorm
    if not (_physical(v0, v1, v2, v3) and _hurwitz(par, v0, v1, v2, v3)):
        return None
    return (v0, v1, v2, v3), fnorm


def _physical(rho11, rho22, yq, xq):
    """True for a state inside the physical state space, on floats: the
    rule of :class:`BlochState2` and :class:`BlochState3`, whose slack is
    ``_POP_SLACK`` (see ``params._state_error``)."""
    return _state_error(rho11, rho22, yq, xq) is None


def _norm(s0, s1, s2, s3):
    return math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)


def _first_step(rhs, u, f, n, t_max, rtol, atol, max_step):
    """The initial step of the 8th-order pair from the state ``u`` with
    ``f`` = rhs(u): the usual two-phase heuristic on scaled magnitudes
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).  Each scaled
    quotient is squared by multiplication, which overflows to inf without
    raising, as in the stepper's error norm."""
    sc = [atol + rtol * abs(v) for v in u]

    def norm(v):  # the RMS of v scaled by sc
        q0, q1, q2, q3 = (a / b for a, b in zip(v, sc))
        return math.sqrt((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / n)

    d0, d1 = norm(u), norm(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_max, max_step)
    f2 = rhs(*(a + h0 * k for a, k in zip(u, f)))
    # h0 is 0 only when d1 overflowed; the fallback below then applies
    d2 = norm([b - a for a, b in zip(f, f2)]) / h0 if h0 > 0.0 else math.inf
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.125
    h = min(100.0 * h0, h1, t_max, max_step)
    if not (h > 0.0 and math.isfinite(h)):
        # overflow-proof fallback for extreme tolerance settings
        h = min(1e-6, t_max, max_step)
    return h


def _pack(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
) -> tuple[type[BlochState2] | type[BlochState3], tuple[float, ...]]:
    """The state class and the rates (N, g, kappa, gamma_21, gamma_02,
    gamma_10, gamma_perp, Gamma) of :func:`_rhs_of`, as floats.  The
    two-level atom's are (gamma, 0, gamma) for (gamma_21, gamma_02,
    gamma_10): its empty level 2 decays into level 1 (module docstring)."""
    if isinstance(p, PhysicalTwoLevel):
        par = (p.n_atoms, p.coupling_g, p.cavity_kappa, p.gamma_decay, 0.0,
               p.gamma_decay, gamma_perp_two(p), p.pump_Gamma)
        return BlochState2, tuple(float(v) for v in par)
    if isinstance(p, PhysicalThreeLevel):
        par = (p.n_atoms, p.coupling_g, p.cavity_kappa, p.gamma_21, p.gamma_02,
               p.gamma_10, gamma_perp_three(p), 0.0)
        return BlochState3, tuple(float(v) for v in par)
    raise TypeError(f"unsupported model parameters: {type(p).__name__}")


# the slot of each component in the stepper's four-float state
_SLOTS = {"rho11": 0, "rho22": 1, "y": 2, "x": 3}


def _state_tuple(cls, state: BlochState2 | BlochState3) -> tuple[float, ...]:
    """State as four floats (rho11, rho22, y, x); the two-level state has
    rho22 = 0.  TypeError unless ``state`` is a ``cls``."""
    if not isinstance(state, cls):
        raise TypeError(f"these parameters need a {cls.__name__} state, "
                        f"got {type(state).__name__}")
    return tuple(float(getattr(state, k)) for k in _SLOTS)


def _live(cls, y: tuple[float, ...]) -> list[float]:
    """The components of the four-float state ``y`` that are fields of
    the state class ``cls``, in its field order."""
    return [y[_SLOTS[f.name]] for f in fields(cls)]


def _physical_state(cls, t: float, y: tuple[float, ...]) -> BlochState2 | BlochState3:
    """The end state of a run as a ``cls``; ValueError naming the
    tolerances when it is non-finite or outside the physical state space."""
    try:
        return cls(*_live(cls, y))
    except ValueError as e:
        raise ValueError(
            f"the run ended outside the physical state space at t = {t!r} ({e}); "
            "tighten rel_tol/abs_tol"
        ) from None


def _evaluate(cls, jacobian: bool, state, p) -> np.ndarray:
    """The right-hand side at ``state``, or with ``jacobian`` its
    Jacobian, as an array over the fields of ``cls``; TypeError when ``p``
    or ``state`` belongs to the other model."""
    np = _numpy(("jacobian_" if jacobian else "derivs_")
                + ("two" if cls is BlochState2 else "three"))
    packed, par = _pack(p)
    if packed is not cls:
        raise TypeError(f"{type(p).__name__} does not evolve a {cls.__name__}")
    u = _state_tuple(cls, state)
    if jacobian:
        return np.array([_live(cls, row) for row in _live(cls, _jacobian(par, *u))])
    return np.array(_live(cls, _rhs_of(par)(*u)))


def derivs_two(state: BlochState2, p: PhysicalTwoLevel) -> np.ndarray:
    """Time derivative (d rho11, d y, d x) of the reduced two-level system."""
    return _evaluate(BlochState2, False, state, p)


def derivs_three(state: BlochState3, p: PhysicalThreeLevel) -> np.ndarray:
    """Time derivative (d rho11, d rho22, d y, d x) of the reduced
    three-level system."""
    return _evaluate(BlochState3, False, state, p)


def jacobian_two(state: BlochState2, p: PhysicalTwoLevel) -> np.ndarray:
    """Jacobian of :func:`derivs_two` over (rho11, y, x) at ``state``: the
    block of the live rows and columns of the 4x4 one."""
    return _evaluate(BlochState2, True, state, p)


def jacobian_three(state: BlochState3, p: PhysicalThreeLevel) -> np.ndarray:
    """Jacobian of :func:`derivs_three` over (rho11, rho22, y, x) at
    ``state``."""
    return _evaluate(BlochState3, True, state, p)


def initial_state(
    p: PhysicalTwoLevel | PhysicalThreeLevel, seed_field: float = 1e-3
) -> BlochState2 | BlochState3:
    """Default initial condition: no-field equilibrium populations with a
    small seed field.

    n = 0 is always a fixed point, so a seed is required for the
    trajectory to find the lasing branch; 1e-3 is small enough not to
    bias where it ends up.  A degenerate three-level flow (no unique
    no-field equilibrium) starts from the populations it reaches from the
    ground state, those :func:`n_three_physical` reports.
    """
    if isinstance(p, PhysicalTwoLevel):
        _, rho11 = equilibrium_populations_two(p)
        return BlochState2(rho11=rho11, y=0.0, x=seed_field)
    _, rho11, rho22 = _populations_from_ground(p)
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


def _run(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None,
    config: IntegratorConfig,
    stop_at_steady: bool,
    record: bool,
):
    """One run of the stepper kernel of the atom, the only call of a
    kernel; ``_dop853.kernel`` states the rule that ends it.

    A run that does not stop at steady gets a cutoff of 0; a run that
    records nothing also tries Newton's method on a schedule of accepted
    steps and where it aims.  Returns (state, t, status, ||f||, counts,
    steps): the end state as a :class:`BlochState2` or
    :class:`BlochState3`, and the rest as the kernel returns them.
    Raises ValueError naming the tolerances when the run ended outside
    the physical state space, and otherwise :class:`StiffnessError` when
    the step size underflowed.
    """
    from ._dop853 import kernel

    cls, par = _pack(p)
    y0 = _state_tuple(cls, initial if initial is not None else initial_state(p))
    t_max = config.t_max if config.t_max is not None else default_t_max(p)
    status, t, y, fnorm, counts, steps = kernel(cls)(
        par, y0, len(fields(cls)), float(t_max),
        config.rel_tol, config.abs_tol, config.max_step,
        config.steady_tol if stop_at_steady else 0.0, record,
    )
    # a state that ran off to nonsense points at loose tolerances first,
    # not at stiffness
    state = _physical_state(cls, t, y)
    if status == _UNDERFLOW:
        raise StiffnessError(t, tuple(_live(cls, y)))
    return state, t, status, fnorm, counts, steps


def _recorded(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None,
    config: IntegratorConfig,
    stop_at_steady: bool,
):
    """The recorded run behind :func:`integrate` and the ``dynamics``
    command; raises as :func:`integrate` does.

    Returns (labels, steady, ||f||, columns): ``columns`` holds t and then
    the state components named by ``labels``, one row per accepted step,
    each a 1-D memoryview of doubles that strides over the packed step
    buffer.
    """
    state, _, status, fnorm, _, steps = _run(p, initial, config, stop_at_steady, True)
    labels = tuple(f.name for f in fields(state))
    cells = memoryview(steps).cast("d")
    width = _STEP.size // cells.itemsize  # doubles per step
    columns = [cells[0::width]] + [cells[1 + _SLOTS[k]::width] for k in labels]
    return labels, status == _STEADY, fnorm, columns


def integrate(
    p: PhysicalTwoLevel | PhysicalThreeLevel,
    initial: BlochState2 | BlochState3 | None = None,
    config: IntegratorConfig = IntegratorConfig(),
    stop_at_steady: bool = False,
) -> TimeSeries:
    """Integrate one trajectory, sampling every accepted step.

    Runs to ``config.t_max`` (resolved per :func:`default_t_max` when
    None), or, if ``stop_at_steady`` is set, until the run reaches a
    stable fixed point, as :func:`settle` does but without its scheduled
    and aimed Newton attempts, trying Newton's method only once per
    approach to the cutoff (the stop rule is ``_dop853.kernel``'s).
    A Newton root that ends the run replaces the last recorded state at
    the same t.  The full decay tail is the run with ``stop_at_steady``
    off and an explicit ``t_max``, which keeps the tolerances it was
    given.  Raises ValueError naming the tolerances when the run leaves
    the physical state space (seen on a schedule of accepted steps and
    at the end), and otherwise :class:`StiffnessError` on step underflow.
    """
    np = _numpy("integrate")
    labels, steady, fnorm, columns = _recorded(p, initial, config, stop_at_steady)
    return TimeSeries(
        times=np.array(columns[0]),
        states=np.stack(columns[1:], axis=1),
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
    Jacobian.  The run is :func:`integrate`'s with nothing recorded, and
    Newton's method is also tried on a schedule of accepted steps, on
    either side of the Lorenz-Haken condition: the acceptance ball of
    :func:`_polish` keeps a pulsing orbit from ending the run at a fixed
    point it passes by.  An attempt that fails because an iterate left
    that ball leaves an aim, Newton's estimate of the root, and the
    polish is tried again on the first accepted step whose state lies
    within the ball's radius of it.  The stop rule is
    ``_dop853.kernel``'s.
    When t_max is exhausted first, as it is near an unstable fixed point,
    the result carries ``converged = False`` and the last state instead
    of raising.  Raises as :func:`integrate` does.
    """
    state, t, status, fnorm, counts, _ = _run(p, initial, config, True, False)
    steps, rejected, attempts, evaluations = counts
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
