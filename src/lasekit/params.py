"""Parameter, state and integrator-setting types shared by every model.

Two model families are covered: a closed two-level atom with an incoherent
pump, and a closed three-level atom in which the third level either feeds
the upper lasing state (pump scheme A) or is fed from the lower one (pump
scheme B).  Both three-level schemes obey the same equations of motion; the
scheme tag only selects which rate plays the role of the pump.  One private
table states that choice for every module:

    scheme   reduced record         pump rate   reference rate
    A        DimensionlessSchemeA   gamma_21    gamma_02
    B        DimensionlessSchemeB   gamma_02    gamma_21

Rates carry one arbitrary common unit.  Only ratios of rates matter, which
is what the dimensionless reductions below exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PumpScheme",
    "Regime",
    "PhysicalTwoLevel",
    "PhysicalThreeLevel",
    "DimensionlessTwoLevel",
    "DimensionlessSchemeA",
    "DimensionlessSchemeB",
    "BlochState2",
    "BlochState3",
    "IntegratorConfig",
    "SteadyResult",
    "gamma_perp_two",
    "gamma_perp_three",
    "gamma_parallel_and_inversion",
    "reduce_two",
    "expand_two",
    "reduce_three",
    "expand_scheme_a",
    "expand_scheme_b",
    "equilibrium_populations_two",
    "equilibrium_populations_three",
]

# Slack for population bounds: adaptive integration may overshoot the
# simplex by a few ulps worth of accumulated error, never more than ~1e-8.
_POP_SLACK = 1e-6


def _state_error(rho11: float, rho22: float, y: float, x: float) -> str | None:
    """Why (rho11, rho22, y, x) is not a physical state, or None: the rule
    of :class:`BlochState2` (with rho22 = 0) and :class:`BlochState3`.
    Every component is finite, rho11 and rho22 are at least -_POP_SLACK,
    and rho11 + rho22 is at most 1 + _POP_SLACK."""
    if not (math.isfinite(rho11) and math.isfinite(rho22) and math.isfinite(y)
            and math.isfinite(x)):
        return "state components must be finite"
    if rho11 >= -_POP_SLACK and rho22 >= -_POP_SLACK and rho11 + rho22 <= 1.0 + _POP_SLACK:
        return None
    if rho22 == 0.0:
        return f"rho11 must lie in [0, 1], got {rho11!r}"
    return (f"populations must be >= 0 with rho11 + rho22 <= 1, "
            f"got rho11={rho11!r}, rho22={rho22!r}")


def _check_rate(name: str, value: float, positive: bool = False) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not positive and value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _numpy(call: str):
    """numpy, which only the array API needs; ImportError naming ``call``
    and the extra that installs it where numpy is missing."""
    try:
        import numpy
    except ImportError as e:
        raise ImportError(f"{call} needs numpy: pip install 'lasekit[arrays]'") from e
    return numpy


class _Record:
    """The one validation rule of the parameter records, field by field in
    declaration order: n_atoms >= 1; coupling_g and its square finite and
    > 0 (the reductions divide by g**2); the rates named in ``_positive``
    > 0; every other rate >= 0; ``scheme``, where present, a PumpScheme."""

    _positive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # by name, in declaration order: vars(self) would drop inline attribute storage
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "scheme":
                if not isinstance(value, PumpScheme):
                    raise ValueError(f"scheme must be a PumpScheme, got {value!r}")
                continue
            _check_rate(name, value, positive=name == "coupling_g" or name in self._positive)
            if name == "n_atoms" and value < 1.0:
                raise ValueError(f"n_atoms must be >= 1, got {value!r}")
            if name == "coupling_g" and not 0.0 < value * value < math.inf:
                raise ValueError(f"coupling_g**2 must be finite and > 0, got coupling_g={value!r}")


class PumpScheme(Enum):
    """Which rate of the three-level system acts as the external pump.

    A: the pump lifts atoms from the ground reservoir into the upper
       lasing level (pump rate = ``gamma_21``); the lower lasing state is
       drained by the fixed depletion rate ``gamma_02``.
    B: the lower lasing state is itself the ground state and the pump
       empties it into the top level (pump rate = ``gamma_02``), which
       relaxes into the upper lasing level at ``gamma_21``.
    """

    A = "A"
    B = "B"


class Regime(Enum):
    """Classification of a steady state against the lasing window."""

    BELOW_THRESHOLD = "below_threshold"
    LASING = "lasing"
    ABOVE_UPPER_BOUND = "above_upper_bound"


@dataclass(frozen=True)
class PhysicalTwoLevel(_Record):
    """Raw rate set for the closed two-level laser.

    Attributes
    ----------
    n_atoms : float
        Total number of atoms N (>= 1).  Fractional values are allowed so
        that any dimensionless parameter point has an exact realization.
    coupling_g : float
        Electric dipole coupling g (> 0).
    cavity_kappa : float
        Cavity field decay rate kappa (> 0).
    gamma_decay : float
        Spontaneous decay rate gamma of the upper lasing level (> 0).
    pump_Gamma : float
        Incoherent pump rate Gamma (>= 0).
    gamma_ph : float
        Collisional (phase destroying) dephasing rate (>= 0).
    """

    n_atoms: float
    coupling_g: float
    cavity_kappa: float
    gamma_decay: float
    pump_Gamma: float
    gamma_ph: float = 0.0

    _positive = ("cavity_kappa", "gamma_decay")


@dataclass(frozen=True)
class PhysicalThreeLevel(_Record):
    """Raw rate set for the closed three-level laser.

    The lasing transition is |1> -> |0> (coherence rho10); |2> is the third
    level.  Population flows 0 ->(gamma_02)-> 2 ->(gamma_21)-> 1
    ->(gamma_10)-> 0 regardless of the scheme; ``scheme`` only records
    which of the rates is externally driven.
    """

    n_atoms: float
    coupling_g: float
    cavity_kappa: float
    gamma_21: float
    gamma_02: float
    gamma_10: float
    gamma_ph: float
    scheme: PumpScheme

    _positive = ("cavity_kappa",)


@dataclass(frozen=True)
class DimensionlessTwoLevel(_Record):
    """Reduced two-level parameters.

    photon_scale = N*gamma/(4*kappa) sets the overall photon number,
    saturation = kappa*gamma/(2*N*g**2) is the inverse small-signal gain,
    and dephasing = gamma_ph/gamma.  The relative pump P = Gamma/gamma is
    kept separate because it is the swept variable.

    ``saturation == 0`` is accepted as the ideal lossless limit even
    though no finite atom number realizes it.
    """

    photon_scale: float
    saturation: float
    dephasing: float = 0.0

    _positive = ("photon_scale",)


@dataclass(frozen=True)
class _DimensionlessThree(_Record):
    """Fields and checks shared by the reduced three-level records; the
    reference rate depends on the scheme (see the subclasses)."""

    photon_scale: float
    saturation: float
    decay_ratio: float
    dephasing: float = 0.0

    _positive = ("photon_scale",)


class DimensionlessSchemeA(_DimensionlessThree):
    """Reduced scheme-A parameters (reference rate: the depletion rate
    gamma_02 of the lower lasing state).

    photon_scale = N*gamma_02/(2*kappa), saturation = kappa*gamma_02/(2*N*g**2),
    decay_ratio = gamma_10/gamma_02, dephasing = gamma_ph/gamma_02.
    The relative pump is P = gamma_21/gamma_02.
    """


class DimensionlessSchemeB(_DimensionlessThree):
    """Reduced scheme-B parameters (reference rate: the top-level decay
    gamma_21).

    photon_scale = N*gamma_21/(2*kappa), saturation = kappa*gamma_21/(2*N*g**2),
    decay_ratio = gamma_10/gamma_21, dephasing = gamma_ph/gamma_21.
    The relative pump is P = gamma_02/gamma_21.
    """


# each pump scheme's reduced record, pump rate and reference rate
_SCHEMES = {
    PumpScheme.A: (DimensionlessSchemeA, "gamma_21", "gamma_02"),
    PumpScheme.B: (DimensionlessSchemeB, "gamma_02", "gamma_21"),
}


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for the adaptive integrator.

    ``t_max = None`` resolves to 1e3 times the inverse of the slowest
    nonzero rate of the model, which comfortably covers the relaxation of
    every mode; ``steady_tol`` is the scaled derivative-norm cutoff
    ||f(y)|| < steady_tol*(||y|| + 1) used for fixed-point detection (a
    state-differencing criterion would need retuning across the many
    orders of magnitude the photon number spans).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    t_max: float | None = None
    steady_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "steady_tol"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValueError(f"{name} must be > 0, got {v!r}")
        if not self.max_step > 0.0:
            raise ValueError(f"max_step must be > 0, got {self.max_step!r}")
        # a run that does not stop at steady ends only at t_max
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")


@dataclass(frozen=True)
class BlochState2:
    """Phase-reduced two-level state.

    The global field phase is fixed so the field quadrature ``x`` is real
    and the coherence purely imaginary, rho10 = i*y.  The photon number is
    n = x**2 and rho00 = 1 - rho11 (closed system).
    """

    rho11: float
    y: float
    x: float

    def __post_init__(self) -> None:
        error = _state_error(self.rho11, 0.0, self.y, self.x)
        if error:
            raise ValueError(error)

    @property
    def rho00(self) -> float:
        return 1.0 - self.rho11

    @property
    def photon_number(self) -> float:
        return self.x * self.x


@dataclass(frozen=True)
class BlochState3:
    """Phase-reduced three-level state; rho00 = 1 - rho11 - rho22."""

    rho11: float
    rho22: float
    y: float
    x: float

    def __post_init__(self) -> None:
        error = _state_error(self.rho11, self.rho22, self.y, self.x)
        if error:
            raise ValueError(error)

    @property
    def rho00(self) -> float:
        return 1.0 - self.rho11 - self.rho22

    @property
    def photon_number(self) -> float:
        return self.x * self.x


@dataclass(frozen=True, init=False)
class SteadyResult:
    """Closed-form steady state of one model at one pump value.

    ``raw_bracket`` is the unclamped value of the analytic photon-number
    expression divided by its photon_scale prefactor (for the physical
    three-level route, which has no separate prefactor, it is the
    unclamped photon number itself).  Its sign changes mark the lasing
    window; ``photon_number`` clamps the negative branch to the empty
    cavity.  ``gamma_perp`` is in physical rate units when the input was
    physical, otherwise in units of the reduction's reference rate.
    ``populations`` is (rho00, rho11) or (rho00, rho11, rho22) at the
    fixed point (the no-field equilibrium when not lasing).  On overflow
    photon_number and gamma_perp are inf and raw_bracket is -inf.

    Every sweep point builds one, so ``__init__`` is written out: it
    stores the fields straight into the instance dict, where the
    generated frozen ``__init__`` calls ``object.__setattr__`` once per
    field at about twice the cost.  It takes the same parameters with the
    same annotations, and the class keeps every other dataclass
    behaviour: ``fields``, ``replace``, ``asdict``, equality, hashing,
    ``repr``, copying, pickling, weak references and the frozen
    ``__setattr__``.
    """

    photon_number: float
    regime: Regime
    populations: tuple[float, ...]
    gamma_perp: float
    raw_bracket: float

    def __init__(
        self,
        photon_number: float,
        regime: Regime,
        populations: tuple[float, ...],
        gamma_perp: float,
        raw_bracket: float,
    ):
        state = self.__dict__
        state["photon_number"] = photon_number
        state["regime"] = regime
        state["populations"] = populations
        state["gamma_perp"] = gamma_perp
        state["raw_bracket"] = raw_bracket

    # the generated __init__ is annotated "-> None" with the object None,
    # which a string annotation under postponed evaluation cannot spell
    __init__.__annotations__["return"] = None


def gamma_perp_two(p: PhysicalTwoLevel) -> float:
    """Transverse (coherence) relaxation rate (Gamma + gamma + gamma_ph)/2.

    Every process that empties either lasing level contributes, so the
    coherence decay grows with the pump itself.  This pump dependence is
    the source of the two-level intensity nonlinearity.
    """
    return 0.5 * (p.pump_Gamma + p.gamma_decay + p.gamma_ph)


def gamma_perp_three(p: PhysicalThreeLevel) -> float:
    """Transverse relaxation rate (gamma_10 + gamma_02 + gamma_ph)/2.

    Only the rates draining the two lasing levels enter; gamma_21 does
    not.  Hence scheme A (pump = gamma_21) has a pump-independent
    coherence decay while scheme B (pump = gamma_02) does not, which is
    what makes their strong-pump behavior qualitatively different.
    """
    return 0.5 * (p.gamma_10 + p.gamma_02 + p.gamma_ph)


def _rate_overflow(
    gamma_21: float, gamma_02: float, gamma_10: float,
    what: str = "the rate sums gamma_02 + 2*gamma_21 and "
                "gamma_21*gamma_02 + gamma_02*gamma_10 + gamma_21*gamma_10",
) -> ValueError:
    """The error for three-level rates whose arithmetic overflows ``what``."""
    return ValueError(
        f"gamma_21={gamma_21!r} with gamma_02={gamma_02!r} and gamma_10={gamma_10!r} "
        f"overflows {what}"
    )


def _flow_sums(gamma_21: float, gamma_02: float, gamma_10: float) -> tuple[float, float]:
    """(gamma_02 + 2*gamma_21, gamma_21*gamma_02 + gamma_02*gamma_10 +
    gamma_21*gamma_10): the denominator and the rate-product sum of the
    three-level closed forms.  ValueError when the first is not > 0, or
    when either overflows, naming the rates."""
    denom = gamma_02 + 2.0 * gamma_21
    if denom <= 0.0:
        raise ValueError("gamma_02 + 2*gamma_21 must be > 0")
    cross = gamma_21 * gamma_02 + gamma_02 * gamma_10 + gamma_21 * gamma_10
    if not (denom < math.inf and cross < math.inf):
        raise _rate_overflow(gamma_21, gamma_02, gamma_10)
    return denom, cross


def _gamma_parallel_inversion_rates(
    gamma_21: float, gamma_02: float, gamma_10: float
) -> tuple[float, float]:
    """Rate-level core of :func:`gamma_parallel_and_inversion`."""
    denom, cross = _flow_sums(gamma_21, gamma_02, gamma_10)
    gamma_par = 2.0 * cross / denom
    if gamma_par == math.inf:  # 2*cross overflowed
        raise _rate_overflow(gamma_21, gamma_02, gamma_10,
                             "gamma_par = 2*(gamma_21*gamma_02 + gamma_02*gamma_10 "
                             "+ gamma_21*gamma_10)/(gamma_02 + 2*gamma_21)")
    if cross == 0.0:
        # no closed pumping loop: the equilibrium carries no inversion
        inversion = 0.0
    else:
        inversion = gamma_21 * (gamma_02 - gamma_10) / cross
    return gamma_par, inversion


def gamma_parallel_and_inversion(p: PhysicalThreeLevel) -> tuple[float, float]:
    """Effective longitudinal relaxation rate and equilibrium inversion.

    Collapses the three-level population dynamics onto effective two-level
    parameters:

        gamma_par = 2*(g21*g02 + g02*g10 + g21*g10) / (g02 + 2*g21)
        inversion = g21*(g02 - g10) / (g21*g02 + g02*g10 + g21*g10)

    The inversion equals rho11 - rho00 of the no-field equilibrium; it is
    positive only when the lower lasing state is drained faster than the
    upper one decays (gamma_02 > gamma_10).  ValueError naming the rates
    when gamma_02 + 2*gamma_21 is 0 or the rate products, or twice their
    sum, overflow.
    """
    return _gamma_parallel_inversion_rates(p.gamma_21, p.gamma_02, p.gamma_10)


def _reduced(p, name: str, value: float, formula: str, *rates: str) -> float:
    """A reduced parameter ``name`` = ``formula`` of the fields ``rates`` of
    ``p``.  Where it is not finite (a tiny coupling_g or a rate ratio that
    overflows) the ValueError names the config values it is built from,
    not the derived parameter."""
    if not math.isfinite(value):
        first, *rest, last = (f"{rate}={getattr(p, rate)!r}" for rate in rates)
        others = ", ".join(rest) + " and " if rest else ""
        raise ValueError(f"{first} with {others}{last} gives a {name} {formula} of {value!r}")
    return value


def _reduced_saturation(p, rate: str) -> float:
    s = p.cavity_kappa * getattr(p, rate) / (2.0 * p.n_atoms * p.coupling_g**2)
    return _reduced(p, "saturation", s, f"cavity_kappa*{rate}/(2*n_atoms*coupling_g**2)",
                    "coupling_g", "cavity_kappa", rate, "n_atoms")


def reduce_two(p: PhysicalTwoLevel) -> tuple[DimensionlessTwoLevel, float]:
    """Collapse a physical two-level rate set to (reduced params, pump P).

    P = Gamma/gamma, inf where the ratio overflows.  The reduction discards
    one gauge degree of freedom; :func:`expand_two` fixes it back canonically.
    """
    g = p.gamma_decay
    s = _reduced_saturation(p, "gamma_decay")
    d = DimensionlessTwoLevel(
        photon_scale=_reduced(p, "photon_scale", p.n_atoms * g / (4.0 * p.cavity_kappa),
                              "n_atoms*gamma_decay/(4*cavity_kappa)",
                              "n_atoms", "gamma_decay", "cavity_kappa"),
        saturation=s,
        dephasing=_reduced(p, "dephasing", p.gamma_ph / g, "gamma_ph/gamma_decay",
                           "gamma_ph", "gamma_decay"),
    )
    return d, p.pump_Gamma / g


def _gauge_coupling(denominator: float, n_atoms: float, saturation: float) -> float:
    """g = sqrt(1/denominator) of a gauge expansion.  Where g**2 is not
    finite: inf for N < 1, so that the record names n_atoms, the field it
    checks first (the denominator underflows to 0 only there); otherwise a
    ValueError naming saturation, which the caller gave, where the record
    would name coupling_g, which it did not."""
    g = math.sqrt(1.0 / denominator) if denominator > 0.0 else math.inf
    if not g * g < math.inf and n_atoms >= 1.0:
        raise ValueError(
            f"saturation={saturation!r} is too small: the gauge coupling_g = "
            f"sqrt(1/{denominator!r}) overflows"
        )
    return g


def expand_two(d: DimensionlessTwoLevel, pump: float) -> PhysicalTwoLevel:
    """Canonical physical realization of a dimensionless two-level point.

    Gauge choice: cavity_kappa = 1 and gamma_decay = 1, which forces
    N = 4*photon_scale and g = sqrt(1/(2*N*saturation)).  Requires
    saturation > 0 (no finite atom number realizes the lossless limit)
    and photon_scale >= 1/4 (so that N >= 1).
    """
    if d.saturation <= 0.0:
        raise ValueError("expand_two requires saturation > 0")
    n_atoms = 4.0 * d.photon_scale
    g = _gauge_coupling(2.0 * n_atoms * d.saturation, n_atoms, d.saturation)
    return PhysicalTwoLevel(
        n_atoms=n_atoms,
        coupling_g=g,
        cavity_kappa=1.0,
        gamma_decay=1.0,
        pump_Gamma=pump,
        gamma_ph=d.dephasing,
    )


def reduce_three(
    p: PhysicalThreeLevel,
) -> tuple[DimensionlessSchemeA | DimensionlessSchemeB, float]:
    """Collapse a physical three-level rate set to (reduced params, pump P).

    The relative pump is the scheme's pump rate over its reference rate
    (the table in the module docstring), which must be nonzero; P is inf
    where the ratio overflows.
    """
    cls, pump_name, ref_name = _SCHEMES[p.scheme]
    ref = getattr(p, ref_name)
    if ref <= 0.0:
        raise ValueError(f"scheme {p.scheme.value} reduction requires {ref_name} > 0")
    s = _reduced_saturation(p, ref_name)
    d = cls(
        photon_scale=_reduced(p, "photon_scale", p.n_atoms * ref / (2.0 * p.cavity_kappa),
                              f"n_atoms*{ref_name}/(2*cavity_kappa)",
                              "n_atoms", ref_name, "cavity_kappa"),
        saturation=s,
        decay_ratio=_reduced(p, "decay_ratio", p.gamma_10 / ref, f"gamma_10/{ref_name}",
                             "gamma_10", ref_name),
        dephasing=_reduced(p, "dephasing", p.gamma_ph / ref, f"gamma_ph/{ref_name}",
                           "gamma_ph", ref_name),
    )
    return d, getattr(p, pump_name) / ref


def _expand_three(
    d: _DimensionlessThree, pump: float, scheme: PumpScheme
) -> PhysicalThreeLevel:
    if d.saturation <= 0.0:
        raise ValueError("gauge expansion requires saturation > 0")
    n_atoms = 2.0 * d.photon_scale
    g = _gauge_coupling(4.0 * d.photon_scale * d.saturation, n_atoms, d.saturation)
    _, pump_name, ref_name = _SCHEMES[scheme]
    return PhysicalThreeLevel(
        n_atoms=n_atoms,
        coupling_g=g,
        cavity_kappa=1.0,
        **{pump_name: pump, ref_name: 1.0},
        gamma_10=d.decay_ratio,
        gamma_ph=d.dephasing,
        scheme=scheme,
    )


def expand_scheme_a(d: DimensionlessSchemeA, pump: float) -> PhysicalThreeLevel:
    """Canonical realization: cavity_kappa = 1, gamma_02 = 1, N = 2*photon_scale."""
    return _expand_three(d, pump, PumpScheme.A)


def expand_scheme_b(d: DimensionlessSchemeB, pump: float) -> PhysicalThreeLevel:
    """Canonical realization: cavity_kappa = 1, gamma_21 = 1, N = 2*photon_scale."""
    return _expand_three(d, pump, PumpScheme.B)


def equilibrium_populations_two(p: PhysicalTwoLevel) -> tuple[float, float]:
    """No-field rate-equation equilibrium (rho00, rho11)."""
    rho11 = p.pump_Gamma / (p.pump_Gamma + p.gamma_decay)
    return 1.0 - rho11, rho11


def equilibrium_populations_three(
    p: PhysicalThreeLevel,
) -> tuple[float, float, float]:
    """No-field rate-equation equilibrium (rho00, rho11, rho22).

    Detailed balance of the 0 -> 2 -> 1 -> 0 loop gives populations
    proportional to (g21*g10, g02*g21, g02*g10).  Degenerate rate sets
    (two or more loop rates zero) have no unique equilibrium and are
    rejected; rates whose products overflow raise the ValueError naming
    them that :func:`gamma_parallel_and_inversion` raises.
    """
    pops = _populations_from_ground(p)
    if pops is _GROUND or pops is _RESERVOIR:
        raise ValueError(
            "population flow is degenerate (no unique no-field equilibrium)"
        )
    return pops


# the states a degenerate no-field flow reaches from the ground state
_GROUND = (1.0, 0.0, 0.0)
_RESERVOIR = (0.0, 0.0, 1.0)


def _no_field(
    gamma_21: float, gamma_02: float, gamma_10: float
) -> tuple[float, float, float] | None:
    """No-field populations (rho00, rho11, rho22) of the 0 -> 2 -> 1 -> 0 loop
    from its weights (g21*g10, g02*g21, g02*g10), added left to right: the
    builtin ``sum`` is compensated from Python 3.12 on and would print other
    digits there.  A degenerate flow (all weights zero) gives the state it
    reaches from the ground state, ``_GROUND`` itself when gamma_02 = 0 and
    else ``_RESERVOIR``; None where the weights' sum overflows."""
    z00 = gamma_21 * gamma_10
    z11 = gamma_02 * gamma_21
    z22 = gamma_02 * gamma_10
    z = z00 + z11 + z22
    if z == math.inf:  # inf/inf would give nan populations
        return None
    if z <= 0.0:
        return _GROUND if gamma_02 == 0.0 else _RESERVOIR
    return z00 / z, z11 / z, z22 / z


def _populations_from_ground(p: PhysicalThreeLevel) -> tuple[float, float, float]:
    """:func:`_no_field` of the record's rates; rates whose products overflow
    raise as :func:`equilibrium_populations_three` does."""
    pops = _no_field(p.gamma_21, p.gamma_02, p.gamma_10)
    if pops is None:
        raise _rate_overflow(p.gamma_21, p.gamma_02, p.gamma_10)
    return pops
