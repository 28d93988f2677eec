"""Closed-form steady states, thresholds, lasing windows and extrema.

Each model's photon number has the form photon_scale * bracket(P) with a
bracket that is polynomial in the relative pump P:

* two-level:  (P - 1) - s*(P + 1)*(P + 1 + delta)          (quadratic)
* scheme A:   [P*(1-eps) - s*(1+eps+delta)*(P*(1+eps)+eps)] / (1+2P)
              (numerator linear in P -> saturating, no upper edge)
* scheme B:   [P - eps - s*(P+eps+delta)*(P+eps+P*eps)] / (P+2)
              (numerator quadratic in P -> finite lasing window)

The quadratic cases get both the exact roots/extrema and the coarse
closed forms that hold for small saturation, so the quality of those
approximations is always measurable instead of assumed.  The exact
quantities are closed forms too: window edges are the numerator's roots
and optimum pumps the bracket's stationary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    PhysicalThreeLevel,
    PumpScheme,
    Regime,
    SteadyResult,
    _MODEL_RATES,
    _flow_sums,
    _no_field,
    _populations_from_ground,
    _rate_overflow,
    _reduced,
    _reduced_saturation,
    gamma_perp_three,
    reduce_three,
)

__all__ = [
    "LasingWindow",
    "WindowReport",
    "ExtremumReport",
    "raw_bracket_two",
    "n_two_level",
    "threshold_two",
    "window_two",
    "optimum_two",
    "raw_bracket_scheme_a",
    "n_scheme_a",
    "threshold_scheme_a",
    "saturation_limit_scheme_a",
    "n_min_atoms",
    "depletion_ratio_window",
    "raw_bracket_scheme_b",
    "n_scheme_b",
    "threshold_scheme_b",
    "window_scheme_b",
    "optimum_scheme_b",
    "n_three_physical",
]

# bound once: each sweep point names a regime, and a class-attribute lookup
# on the enum costs more than the bracket's comparison
_LASING = Regime.LASING
_BELOW_THRESHOLD = Regime.BELOW_THRESHOLD
_ABOVE_UPPER_BOUND = Regime.ABOVE_UPPER_BOUND


@dataclass(frozen=True)
class LasingWindow:
    """Pump interval with positive steady photon number.

    ``upper`` may be ``inf`` (saturation-free limits have no upper edge).
    ``exact`` is True when the endpoints are roots of the photon-number
    bracket and False for the small-saturation closed forms.
    """

    lower: float
    upper: float
    exact: bool

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(
                f"window needs lower < upper, got [{self.lower}, {self.upper}]"
            )

    def contains(self, pump: float) -> bool:
        return self.lower < pump < self.upper


@dataclass(frozen=True)
class WindowReport:
    """Exact lasing window plus the coarse closed forms next to it.

    ``necessary`` (two-level only) is the weaker pump restriction obtained
    from requiring the coherence decay to stay below the cooperativity
    bound; it contains the true window.  ``upper_rel_err`` compares the
    asymptotic upper edge against the exact one when both are finite.
    """

    exact: LasingWindow | None
    asymptotic: LasingWindow | None
    necessary: LasingWindow | None = None
    upper_rel_err: float | None = None


@dataclass(frozen=True)
class ExtremumReport:
    """Location of the pump maximizing the photon number.

    ``pump_estimate`` is the simplified stationary-point formula,
    ``pump_exact`` the closed-form stationary point of the exact bracket,
    and ``discrepancy`` their relative gap |estimate - exact| / exact.
    For the two-level model the bracket is exactly quadratic so the two
    coincide (discrepancy 0); for scheme B the estimate drops the (P + 2)
    denominator and can be off by a large factor.  ``photon_max_estimate``
    (two-level only) is the coarse peak value photon_scale/(4*saturation).
    Where they overflow, pump_estimate, discrepancy, photon_max_estimate
    and photon_at_exact are inf.
    """

    pump_estimate: float
    pump_exact: float
    photon_at_exact: float
    discrepancy: float
    photon_max_estimate: float | None = None
    photon_max_rel_err: float | None = None


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Real roots of a*P**2 + b*P + c, sorted ascending.

    Written for the bracket convention a <= 0.  The smaller-magnitude root
    comes from c/q with q = -(b + sign(b)*sqrt(disc))/2, which avoids the
    catastrophic cancellation the textbook formula hits when |a| ~ s is
    as small as 1e-7.  Degenerate a == 0 falls back to the linear root
    with an infinite partner, or None when b == 0 or c is infinite.
    """
    if a == 0.0:
        if b == 0.0 or math.isinf(c):
            return None
        root = -c / b
        return (root, math.inf) if b > 0.0 else (-math.inf, root)
    disc = b * b - 4.0 * a * c
    # the negated test also rejects a NaN discriminant: it is inf - inf
    # where the bracket coefficients overflow, and then b = c = -inf with
    # a < 0, so the roots have a positive product and a negative sum and
    # no positive root exists
    if not disc >= 0.0:
        return None
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    if q == 0.0:
        # b == 0 and disc == 0: double root at the origin
        return (0.0, 0.0)
    r1 = q / a
    r2 = c / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _classify(raw: float, pump: float, divide: float) -> Regime:
    """Regime from the bracket sign; ``divide`` separates the two n = 0 sides.

    A non-positive divide means no physical (pump >= 0) window exists at
    all, in which case every non-lasing pump counts as below threshold.
    The lasing branch does not read ``divide``, so the per-point callers
    compute it (the bracket's vertex) only off that branch.
    """
    if raw > 0.0:
        return _LASING
    if divide > 0.0 and pump > divide:
        return _ABOVE_UPPER_BOUND
    return _BELOW_THRESHOLD


def _nan_bracket(d: object, pump: float, what: str = "the bracket is NaN") -> ValueError:
    """The error of a pump whose bracket is NaN (an inf or NaN pump, or terms
    that overflow into inf - inf or 0 * inf), or with another ``what`` whose
    no-field weights overflow.  The per-point callers raise it only off the
    lasing branch, which a NaN never takes."""
    return ValueError(f"{what} at pump={pump!r} for {d!r}")


def _threshold(coeffs: tuple[float, float, float]) -> float | None:
    """Smaller root of the quadratic bracket numerator ``coeffs``; None
    when both roots are complex or at negative pump."""
    roots = _quadratic_roots(*coeffs)
    if roots is None or roots[1] <= 0.0:
        return None
    return roots[0]


def _window(
    coeffs: tuple[float, float, float], asym_upper: float, nec_upper: float | None = None
) -> WindowReport:
    """Exact window between the roots of the bracket numerator ``coeffs``,
    next to the coarse windows (1, asym_upper) and (1, nec_upper)."""
    roots = _quadratic_roots(*coeffs)
    exact = None
    if roots is not None and roots[0] < roots[1] and roots[1] > 0.0:
        exact = LasingWindow(roots[0], roots[1], exact=True)
    asymptotic, necessary = (
        LasingWindow(1.0, u, exact=False) if u is not None and u > 1.0 else None
        for u in (asym_upper, nec_upper)
    )
    rel_err = None
    if exact and asymptotic and math.isfinite(exact.upper) and math.isfinite(asymptotic.upper):
        rel_err = abs(asymptotic.upper - exact.upper) / exact.upper
    return WindowReport(exact, asymptotic, necessary, rel_err)


# --------------------------------------------------------------------------
# two-level model
# --------------------------------------------------------------------------

def _coeffs_two(d: DimensionlessTwoLevel) -> tuple[float, float, float]:
    s, delta = d.saturation, d.dephasing
    return -s, 1.0 - s * (2.0 + delta), -(1.0 + s * (1.0 + delta))


def raw_bracket_two(d: DimensionlessTwoLevel, pump: float) -> float:
    """(P - 1) - s*(P + 1)*(P + 1 + dephasing); positive exactly when lasing.

    The second term is the coherence-decay penalty: the pump broadens the
    transition it is trying to invert, so the bracket is an inverted
    parabola in P rather than a straight line.
    """
    s, delta = d.saturation, d.dephasing
    return (pump - 1.0) - s * (pump + 1.0) * (pump + 1.0 + delta)


def _vertex_two(d: DimensionlessTwoLevel) -> float:
    """Pump at the bracket's parabola vertex; +inf in the lossless limit."""
    if d.saturation == 0.0:
        return math.inf
    return 0.5 / d.saturation - 1.0 - 0.5 * d.dephasing


def n_two_level(d: DimensionlessTwoLevel, pump: float) -> SteadyResult:
    """Steady two-level photon number at relative pump P = Gamma/gamma."""
    if pump < 0.0:
        raise ValueError(f"pump must be >= 0, got {pump!r}")
    raw = raw_bracket_two(d, pump)
    width = pump + 1.0 + d.dephasing  # 2*gamma_perp in units of gamma_decay
    gperp = 0.5 * width
    if raw > 0.0:
        rho11 = 0.5 * (1.0 + d.saturation * width)  # inversion pinned by the gain
        return SteadyResult(d.photon_scale * raw, _LASING, (1.0 - rho11, rho11), gperp, raw)
    if raw != raw:
        raise _nan_bracket(d, pump)
    rho11 = pump / (pump + 1.0)
    regime = _classify(raw, pump, _vertex_two(d))
    return SteadyResult(0.0, regime, (1.0 - rho11, rho11), gperp, raw)


def threshold_two(d: DimensionlessTwoLevel) -> float | None:
    """Smaller positive root of the two-level bracket; None when no pump
    can reach inversion.

    That happens either through a negative discriminant (saturation too
    large for the given dephasing) or when both roots sit at negative
    pump (dephasing so large the gain condition fails everywhere on
    pump >= 0; the roots always share a sign because their product is
    (1 + s*(1+delta))/s > 0).
    """
    return _threshold(_coeffs_two(d))


def window_two(d: DimensionlessTwoLevel) -> WindowReport:
    """Exact two-level lasing window plus the coarse closed forms.

    The asymptotic window is (1, 1/s - dephasing - 3), valid when the
    small-signal gain is large (s << 1); the necessary restriction
    (1, 1/s - dephasing - 1) merely keeps the coherence decay below the
    cooperativity bound and is strictly wider than the true window.
    """
    s, delta = d.saturation, d.dephasing
    edge = math.inf if s == 0.0 else 1.0 / s - delta
    return _window(_coeffs_two(d), edge - 3.0, edge - 1.0)


def optimum_two(d: DimensionlessTwoLevel) -> ExtremumReport | None:
    """Pump maximizing the two-level photon number.

    The bracket is a true parabola, so its closed-form vertex
    1/(2s) - 1 - dephasing/2 is the exact optimum and the estimate
    coincides with it.  Also reports the coarse peak value
    photon_scale/(4s), which is accurate to O(s) when the small-signal
    gain is large, and its error relative to the exact peak, None where
    that peak is not a positive finite number.  None when no window
    exists or in the lossless limit (no interior maximum).
    """
    win = window_two(d).exact
    if win is None or not math.isfinite(win.upper) or d.saturation == 0.0:
        return None
    pump = _vertex_two(d)
    raw = raw_bracket_two(d, pump)
    if not math.isfinite(raw):  # (P + 1 + dephasing) overflowed; P* > 0
        s, delta = d.saturation, d.dephasing
        raw = pump * ((1.0 - 1.0 / pump) - s * (pump + 1.0) * (1.0 + (1.0 + delta) / pump))
    n_exact = d.photon_scale * raw
    n_est = d.photon_scale / (4.0 * d.saturation)
    return ExtremumReport(
        pump_estimate=pump,
        pump_exact=pump,
        photon_at_exact=n_exact,
        discrepancy=0.0,
        photon_max_estimate=n_est,
        photon_max_rel_err=(
            abs(n_exact - n_est) / n_exact if 0.0 < n_exact < math.inf else None
        ),
    )


# --------------------------------------------------------------------------
# three-level model, scheme A (pump = gamma_21, coherence decay pump-free)
# --------------------------------------------------------------------------

def _coeffs_scheme_a(d: DimensionlessSchemeA) -> tuple[float, float, float]:
    """The bracket numerator, linear in P: a quadratic with a = 0."""
    s, eps, delta = d.saturation, d.decay_ratio, d.dephasing
    if s == 0.0:  # the lossless limit, where 0 * inf would be NaN
        return 0.0, 1.0 - eps, -eps * s
    b = 1.0 - eps - s * (1.0 + eps + delta) * (1.0 + eps)
    return 0.0, b, -eps * s * (1.0 + eps + delta)


def raw_bracket_scheme_a(d: DimensionlessSchemeA, pump: float) -> float:
    """[P*(1-eps) - s*(1+eps+delta)*(P*(1+eps)+eps)] / (1+2P)."""
    s, eps, delta = d.saturation, d.decay_ratio, d.dephasing
    if 2.0 * pump == math.inf and pump < math.inf:  # 1 + 2P overflows: divide through by P
        numer = (1.0 - eps) - s * (1.0 + eps + delta) * (1.0 + eps + eps / pump)
        return numer / (2.0 + 1.0 / pump)
    numer = pump * (1.0 - eps) - s * (1.0 + eps + delta) * (pump * (1.0 + eps) + eps)
    return numer / (1.0 + 2.0 * pump)


def n_scheme_a(d: DimensionlessSchemeA, pump: float) -> SteadyResult:
    """Steady scheme-A photon number at relative pump P = gamma_21/gamma_02.

    Monotone saturating in P: the transfer through the ground reservoir
    bottlenecks once the pump outruns the depletion of the lower lasing
    state, so there is a threshold but no upper window edge.
    """
    if pump < 0.0:
        raise ValueError(f"pump must be >= 0, got {pump!r}")
    raw = raw_bracket_scheme_a(d, pump)
    eps = d.decay_ratio
    width = 1.0 + eps + d.dephasing  # 2*gamma_perp in units of gamma_02
    gperp = 0.5 * width
    if raw > 0.0:
        d_pin = d.saturation * width
        rho00 = ((1.0 - d_pin) / (2.0 + 1.0 / pump) if 2.0 * pump == math.inf
                 else pump * (1.0 - d_pin) / (1.0 + 2.0 * pump))
        pops = (rho00, rho00 + d_pin, rho00 / pump)  # lasing requires pump > 0
        return SteadyResult(d.photon_scale * raw, _LASING, pops, gperp, raw)
    if raw != raw:
        raise _nan_bracket(d, pump)
    pops = _no_field(pump, 1.0, eps)
    if pops is None:
        raise _nan_bracket(d, pump, "the no-field weights overflow")
    return SteadyResult(0.0, _BELOW_THRESHOLD, pops, gperp, raw)


def threshold_scheme_a(d: DimensionlessSchemeA) -> float | None:
    """Scheme-A threshold pump eps*s*(1+eps+delta) / [1-eps-s*(1+eps+delta)*(1+eps)].

    Exact (the bracket numerator is linear in P).  None when lasing is
    impossible at any pump: no initial inversion (eps >= 1) or saturation
    above (1-eps)/[(1+eps+delta)*(1+eps)].
    """
    return _threshold(_coeffs_scheme_a(d))


def saturation_limit_scheme_a(d: DimensionlessSchemeA) -> float:
    """Photon number in the strong-pump limit P -> inf.

    photon_scale * [(1-eps) - s*(1+eps+delta)*(1+eps)] / 2; positive
    exactly when a threshold exists, and an upper bound for every finite
    pump (bottleneck saturation); -inf where the loss term overflows.
    """
    return d.photon_scale * _coeffs_scheme_a(d)[1] / 2.0


def n_min_atoms(p: PhysicalThreeLevel) -> float | None:
    """Minimum atom number for scheme-A lasing to be possible at any pump.

    N_min = (kappa*gamma_02 / (2*g**2)) * (1+eps+delta)*(1+eps) / (1-eps)
    with eps = gamma_10/gamma_02 and delta = gamma_ph/gamma_02; it does
    not depend on the pump rate gamma_21.  None when eps >= 1 (no atom
    number helps without initial inversion); inf where N_min itself
    overflows, or where kappa/(2*g**2) or the rate sum gamma_02 + gamma_10
    + gamma_ph alone does; 0 only where N_min underflows, not where 2*g**2
    alone overflows; ValueError naming the record where the terms are 0 * inf.
    """
    if p.gamma_02 <= 0.0:
        raise ValueError("n_min_atoms requires gamma_02 > 0")
    eps = p.gamma_10 / p.gamma_02
    delta = p.gamma_ph / p.gamma_02
    if eps >= 1.0:
        return None
    n_min = (
        (p.cavity_kappa * p.gamma_02 / (2.0 * p.coupling_g**2))
        * (1.0 + eps + delta)
        * (1.0 + eps)
        / (1.0 - eps)
    )
    if n_min == math.inf:  # delta or kappa*gamma_02 alone may overflow
        n_min = (
            (p.cavity_kappa / (2.0 * p.coupling_g**2))
            * (p.gamma_02 + p.gamma_10 + p.gamma_ph)
            * (1.0 + eps)
            / (1.0 - eps)
        )
    elif n_min == 0.0:  # 2*g**2 alone may overflow
        g = p.coupling_g
        n_min = (p.cavity_kappa / g / g / 2.0 * (p.gamma_02 + p.gamma_10 + p.gamma_ph)
                 * (1.0 + eps) / (1.0 - eps))
    if n_min != n_min:
        raise ValueError(f"N_min is 0 * inf for {p!r}: cavity_kappa*gamma_02/(2*coupling_g**2) "
                         f"underflows where 1 + gamma_10/gamma_02 + gamma_ph/gamma_02 overflows")
    return n_min


def depletion_ratio_window(p: PhysicalThreeLevel) -> WindowReport:
    """Allowed range of the depletion ratio gamma_02/gamma_10 (scheme A).

    Holding (N, g, kappa, gamma_10, gamma_ph) fixed and treating the
    depletion rate gamma_02 as the variable, the lasing condition becomes
    a quadratic inequality in r = gamma_02/gamma_10 with exactly the
    two-level bracket structure under s -> kappa*gamma_10/(2*N*g**2) and
    dephasing -> gamma_ph/gamma_10.  The coarse form of the upper edge is
    2*N*g**2/(kappa*gamma_10) - gamma_ph/gamma_10 - 3.
    """
    if p.gamma_10 <= 0.0:
        raise ValueError("depletion_ratio_window requires gamma_10 > 0")
    sigma = _reduced_saturation(p, "gamma_10")
    phi = _reduced(p, "dephasing", p.gamma_ph / p.gamma_10, "gamma_ph/gamma_10",
                   "gamma_ph", "gamma_10")
    proxy = DimensionlessTwoLevel(photon_scale=1.0, saturation=sigma, dephasing=phi)
    return window_two(proxy)


# --------------------------------------------------------------------------
# three-level model, scheme B (pump = gamma_02, coherence decay grows with it)
# --------------------------------------------------------------------------

def _coeffs_scheme_b(d: DimensionlessSchemeB) -> tuple[float, float, float]:
    s, eps, delta = d.saturation, d.decay_ratio, d.dephasing
    a = -s * (1.0 + eps)
    if s == 0.0:  # the lossless limit, where 0 * inf would be NaN
        return a, 1.0, -eps
    b = 1.0 - s * (eps + (eps + delta) * (1.0 + eps))
    c = -eps * (1.0 + s * (eps + delta))
    return a, b, c


def raw_bracket_scheme_b(d: DimensionlessSchemeB, pump: float) -> float:
    """[P - eps - s*(P+eps+delta)*(P+eps+P*eps)] / (P+2).

    The saturation term carries an extra factor of P through the
    coherence decay, so the numerator is an inverted parabola: pumping
    harder eventually broadens the transition enough to kill the gain,
    exactly as in the two-level model.
    """
    s, eps, delta = d.saturation, d.decay_ratio, d.dephasing
    numer = (pump - eps) - s * (pump + eps + delta) * (pump + eps + pump * eps)
    return numer / (pump + 2.0)


def _vertex_scheme_b(d: DimensionlessSchemeB) -> float:
    # a and b of _coeffs_scheme_b, without building c
    s, eps = d.saturation, d.decay_ratio
    a = -s * (1.0 + eps)
    if a == 0.0:
        return math.inf
    return -(1.0 - s * (eps + (eps + d.dephasing) * (1.0 + eps))) / (2.0 * a)


def n_scheme_b(d: DimensionlessSchemeB, pump: float) -> SteadyResult:
    """Steady scheme-B photon number at relative pump P = gamma_02/gamma_21."""
    if pump < 0.0:
        raise ValueError(f"pump must be >= 0, got {pump!r}")
    raw = raw_bracket_scheme_b(d, pump)
    eps = d.decay_ratio
    width = pump + eps + d.dephasing  # 2*gamma_perp in units of gamma_21
    gperp = 0.5 * width
    if raw > 0.0:
        d_pin = d.saturation * width
        rho00 = (1.0 - d_pin) / (pump + 2.0)
        pops = (rho00, rho00 + d_pin, pump * rho00)
        return SteadyResult(d.photon_scale * raw, _LASING, pops, gperp, raw)
    if raw != raw:
        raise _nan_bracket(d, pump)
    pops = _no_field(1.0, pump, eps)
    if pops is None:
        raise _nan_bracket(d, pump, "the no-field weights overflow")
    return SteadyResult(0.0, _classify(raw, pump, _vertex_scheme_b(d)), pops, gperp, raw)


def threshold_scheme_b(d: DimensionlessSchemeB) -> float | None:
    """Smaller root of the scheme-B bracket numerator; None if no
    physical window (complex roots, or both roots at negative pump)."""
    return _threshold(_coeffs_scheme_b(d))


def window_scheme_b(d: DimensionlessSchemeB) -> WindowReport:
    """Exact scheme-B lasing window and the small-(s, eps) closed form
    (1, 1/s - dephasing).  With eps = 0 the numerator factorizes as
    P * [1 - s*(P + dephasing)] and the exact upper edge coincides with
    the closed form."""
    s, delta = d.saturation, d.dephasing
    edge = math.inf if s == 0.0 else 1.0 / s - delta
    return _window(_coeffs_scheme_b(d), edge)


def optimum_scheme_b(d: DimensionlessSchemeB) -> ExtremumReport | None:
    """Pump maximizing the scheme-B photon number.

    The exact optimum is the stationary point of (a*P**2 + b*P + c)/(P + 2),
    the root P* = -2 + sqrt(4 + x) of a*P**2 + 4*a*P + (2*b - c) = 0 with
    x = -(2*b - c)/a, evaluated as x/(2 + sqrt(4 + x)) to avoid the
    cancellation at small x.  The simplified stationary point
    1/(2s) - dephasing/2 - eps ignores the (P + 2) denominator and can
    overshoot P* severely; both are reported.  None without a finite
    window.
    """
    win = window_scheme_b(d).exact
    if win is None or not math.isfinite(win.upper):
        return None
    s, eps, delta = d.saturation, d.decay_ratio, d.dephasing
    pump_est = 0.5 / s - 0.5 * delta - eps
    a, b, c = _coeffs_scheme_b(d)
    x = -(2.0 * b - c) / a
    if x < math.inf:
        pump = x / (2.0 + math.sqrt(4.0 + x))
    else:  # P* = sqrt(x) to within 2/sqrt(x), without forming x
        pump = math.sqrt(2.0 * b - c) / math.sqrt(-a)
    raw = raw_bracket_scheme_b(d, pump)
    if not math.isfinite(raw):  # pump*eps overflowed; P* > 0, so divide it out
        e = eps / pump
        raw = ((1.0 - e) - s * pump * (1.0 + e + delta / pump) * (1.0 + e + eps)) / (
            1.0 + 2.0 / pump)
    return ExtremumReport(
        pump_estimate=pump_est,
        pump_exact=pump,
        photon_at_exact=d.photon_scale * raw,
        discrepancy=abs(pump_est - pump) / pump,
    )


# --------------------------------------------------------------------------
# three-level model, physical-rate route
# --------------------------------------------------------------------------

def n_three_physical(p: PhysicalThreeLevel) -> SteadyResult:
    """Steady three-level photon number straight from the physical rates.

    n = (N/(2*kappa)) * gamma_21*(gamma_02 - gamma_10)/(gamma_02 + 2*gamma_21)
        - (gamma_perp/(2*g**2)) * (gamma_02*gamma_21 + gamma_02*gamma_10
          + gamma_21*gamma_10)/(gamma_02 + 2*gamma_21)

    valid for both pump schemes (they share the equations of motion).
    This route never builds the reduced bracket, so it can arbitrate the
    two dimensionless parameterizations; ``raw_bracket`` here is the
    unclamped photon number itself.  The regime still comes from the
    scheme's reduction, so a coupling_g whose reduced saturation is not
    finite raises ValueError as :func:`reduce_three` does; a zero
    reference rate, which has no reduction, classifies by the sign of
    the photon number alone.  A degenerate population flow (no unique
    no-field equilibrium) reports the state reached from the ground state.
    Rates whose products overflow raise ValueError naming them, as
    :func:`gamma_parallel_and_inversion` does, and so do rates whose sums
    are finite but whose gain or loss term is not (a loss made infinite by
    the coupling factor gamma_perp/(2*g**2) alone is left to the
    reduction, which names coupling_g).
    """
    denom, cross = _flow_sums(p.gamma_21, p.gamma_02, p.gamma_10)
    gperp = gamma_perp_three(p)
    gain = (p.n_atoms / (2.0 * p.cavity_kappa)) * p.gamma_21 * (
        p.gamma_02 - p.gamma_10
    ) / denom
    coupling = gperp / (2.0 * p.coupling_g**2)
    # no closed pumping loop (cross == 0) carries no loss, as in
    # _gamma_parallel_inversion_rates: 0 * coupling / denom is 0 anyway,
    # but inf * 0 is nan where the coupling factor alone overflows
    loss = coupling * cross / denom if cross else 0.0
    if not (abs(gain) < math.inf and (abs(loss) < math.inf or coupling == math.inf)):
        raise _rate_overflow(
            p.gamma_21, p.gamma_02, p.gamma_10,
            f"the gain or the loss term of the photon number at n_atoms={p.n_atoms!r}, "
            f"cavity_kappa={p.cavity_kappa!r}, coupling_g={p.coupling_g!r} "
            f"and gamma_ph={p.gamma_ph!r}",
        )
    raw = gain - loss

    # the regime comes from the scheme's reduction; a zero reference rate has none
    ref = getattr(p, _MODEL_RATES[p.scheme][3])
    regime = _LASING if raw > 0.0 else _BELOW_THRESHOLD
    if ref > 0.0:
        d, pump = reduce_three(p)
        if p.scheme is PumpScheme.B:
            regime = _classify(raw, pump, _vertex_scheme_b(d))

    if raw > 0.0:
        d_pin = p.cavity_kappa * gperp / (p.n_atoms * p.coupling_g**2)
        if not d_pin < math.inf:  # inf or nan from the coupling, not a lasing state
            raise ValueError(f"coupling_g={p.coupling_g!r} gives a pinned inversion "
                             f"cavity_kappa*gamma_perp/(n_atoms*coupling_g**2) of {d_pin!r} "
                             f"for {p!r}")
        rho00 = p.gamma_21 * (1.0 - d_pin) / denom
        rho11 = rho00 + d_pin
        pops = (rho00, rho11, 1.0 - rho00 - rho11)
    else:
        pops = _populations_from_ground(p)

    return SteadyResult(
        photon_number=max(0.0, raw),
        regime=regime,
        populations=pops,
        gamma_perp=gperp,
        raw_bracket=raw,
    )
