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


def _check_rate(name: str, value: float, positive: bool = False) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not positive and value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


class _Record:
    """The one validation rule of the parameter records, field by field in
    declaration order: n_atoms >= 1; coupling_g and its square finite and
    > 0 (the reductions divide by g**2); the rates named in ``_positive``
    > 0; every other rate >= 0; ``scheme``, where present, a PumpScheme."""

    _positive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # the fields, in declaration order
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
        if self.t_max is not None and not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max!r}")


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
        if not all(math.isfinite(v) for v in (self.rho11, self.y, self.x)):
            raise ValueError("state components must be finite")
        if not -_POP_SLACK <= self.rho11 <= 1.0 + _POP_SLACK:
            raise ValueError(f"rho11 must lie in [0, 1], got {self.rho11!r}")

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
        vals = (self.rho11, self.rho22, self.y, self.x)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("state components must be finite")
        if self.rho11 < -_POP_SLACK or self.rho22 < -_POP_SLACK:
            raise ValueError("populations must be >= 0")
        if self.rho11 + self.rho22 > 1.0 + _POP_SLACK:
            raise ValueError("rho11 + rho22 must be <= 1")

    @property
    def rho00(self) -> float:
        return 1.0 - self.rho11 - self.rho22

    @property
    def photon_number(self) -> float:
        return self.x * self.x


@dataclass(frozen=True)
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
    fixed point (the no-field equilibrium when not lasing).
    """

    photon_number: float
    regime: Regime
    populations: tuple[float, ...]
    gamma_perp: float
    raw_bracket: float


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


def _gamma_parallel_inversion_rates(
    gamma_21: float, gamma_02: float, gamma_10: float
) -> tuple[float, float]:
    """Rate-level core of :func:`gamma_parallel_and_inversion`."""
    denom = gamma_02 + 2.0 * gamma_21
    if denom <= 0.0:
        raise ValueError("gamma_02 + 2*gamma_21 must be > 0")
    cross = gamma_21 * gamma_02 + gamma_02 * gamma_10 + gamma_21 * gamma_10
    gamma_par = 2.0 * cross / denom
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
    upper one decays (gamma_02 > gamma_10).
    """
    return _gamma_parallel_inversion_rates(p.gamma_21, p.gamma_02, p.gamma_10)


def _check_saturation(s: float, p, rate: str) -> None:
    """Reject a reduced saturation that is not finite (a tiny coupling_g
    against the rates), naming the config values it is built from rather
    than the derived parameter."""
    if not math.isfinite(s):
        raise ValueError(
            f"coupling_g={p.coupling_g!r} with cavity_kappa={p.cavity_kappa!r}, "
            f"{rate}={getattr(p, rate)!r} and n_atoms={p.n_atoms!r} gives a "
            f"saturation cavity_kappa*{rate}/(2*n_atoms*coupling_g**2) of {s!r}"
        )


def reduce_two(p: PhysicalTwoLevel) -> tuple[DimensionlessTwoLevel, float]:
    """Collapse a physical two-level rate set to (reduced params, pump P).

    P = Gamma/gamma.  The reduction discards one gauge degree of freedom;
    :func:`expand_two` fixes it back canonically.
    """
    g = p.gamma_decay
    lam = p.n_atoms * g / (4.0 * p.cavity_kappa)
    s = p.cavity_kappa * g / (2.0 * p.n_atoms * p.coupling_g**2)
    _check_saturation(s, p, "gamma_decay")
    d = DimensionlessTwoLevel(
        photon_scale=lam, saturation=s, dephasing=p.gamma_ph / g
    )
    return d, p.pump_Gamma / g


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
    g = math.sqrt(1.0 / (2.0 * n_atoms * d.saturation))
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
    (the table in the module docstring), which must be nonzero.
    """
    cls, pump_name, ref_name = _SCHEMES[p.scheme]
    ref = getattr(p, ref_name)
    if ref <= 0.0:
        raise ValueError(f"scheme {p.scheme.value} reduction requires {ref_name} > 0")
    n, g, kappa = p.n_atoms, p.coupling_g, p.cavity_kappa
    s = kappa * ref / (2.0 * n * g**2)
    _check_saturation(s, p, ref_name)
    d = cls(
        photon_scale=n * ref / (2.0 * kappa),
        saturation=s,
        decay_ratio=p.gamma_10 / ref,
        dephasing=p.gamma_ph / ref,
    )
    return d, getattr(p, pump_name) / ref


def _expand_three(
    d: _DimensionlessThree, pump: float, scheme: PumpScheme
) -> PhysicalThreeLevel:
    if d.saturation <= 0.0:
        raise ValueError("gauge expansion requires saturation > 0")
    n_atoms = 2.0 * d.photon_scale
    g = math.sqrt(1.0 / (4.0 * d.photon_scale * d.saturation))
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
    rejected.
    """
    z00 = p.gamma_21 * p.gamma_10
    z11 = p.gamma_02 * p.gamma_21
    z22 = p.gamma_02 * p.gamma_10
    z = z00 + z11 + z22
    if z <= 0.0:
        raise ValueError(
            "population flow is degenerate (no unique no-field equilibrium)"
        )
    return z00 / z, z11 / z, z22 / z
