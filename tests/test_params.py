import copy
import dataclasses
import inspect
import math
import pickle
import re
import weakref

import numpy as np
import pytest

from conftest import assert_identity, log_uniform, random_three_level
import lasekit.params as params
from lasekit import (
    BlochState2,
    BlochState3,
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    SteadyResult,
    equilibrium_populations_three,
    expand_scheme_a,
    expand_scheme_b,
    expand_two,
    gamma_parallel_and_inversion,
    gamma_perp_three,
    gamma_perp_two,
    n_three_physical,
    reduce_three,
    reduce_two,
)


def two_level(Gamma=0.0, gamma=1.0, gph=0.0, N=4.0, g=1.0, kappa=1.0):
    return PhysicalTwoLevel(
        n_atoms=N, coupling_g=g, cavity_kappa=kappa,
        gamma_decay=gamma, pump_Gamma=Gamma, gamma_ph=gph,
    )


def three_level(g21, g02, g10, gph=0.0, N=100.0, g=1.0, kappa=1.0, scheme=PumpScheme.B):
    return PhysicalThreeLevel(
        n_atoms=N, coupling_g=g, cavity_kappa=kappa,
        gamma_21=g21, gamma_02=g02, gamma_10=g10, gamma_ph=gph, scheme=scheme,
    )


def test_gamma_perp_two_direct_substitution():
    assert gamma_perp_two(two_level(Gamma=0.0, gamma=2.0)) == 1.0
    assert gamma_perp_two(two_level(Gamma=1.0, gamma=1.0)) == 1.0
    assert gamma_perp_two(two_level(Gamma=3.0, gamma=1.0, gph=2.0)) == 3.0


def test_gamma_perp_three_direct_substitution():
    assert gamma_perp_three(three_level(1.0, 2.0, 0.1)) == 1.05
    assert gamma_perp_three(three_level(1.0, 0.0, 0.0, gph=2.0)) == 1.0


def test_gamma_perp_three_independent_of_gamma_21():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g02, g10, gph = log_uniform(rng, 1e-3, 1e3, 3)
        vals = {
            gamma_perp_three(three_level(g21, float(g02), float(g10), float(gph)))
            for g21 in (0.1, 1.0, 10.0)
        }
        assert len(vals) == 1


def test_gamma_parallel_and_inversion_example():
    p = three_level(1.0, 2.0, 0.1)
    gpar, inv = gamma_parallel_and_inversion(p)
    assert gpar == pytest.approx(2.0 * 2.3 / 4.0, rel=1e-14)
    assert inv == pytest.approx(1.9 / 2.3, rel=1e-14)


def test_inversion_vanishes_without_net_pumping():
    _, inv = gamma_parallel_and_inversion(three_level(1.0, 2.0, 2.0))
    assert inv == 0.0
    _, inv = gamma_parallel_and_inversion(three_level(0.0, 2.0, 0.1))
    assert inv == 0.0


def test_gamma_parallel_rejects_zero_denominator():
    with pytest.raises(ValueError):
        gamma_parallel_and_inversion(three_level(0.0, 0.0, 0.1))


@pytest.mark.parametrize("rates", [(2e300, 1e300, 0.1), (1e300, 2e300, 0.1), (1e308, 0.0, 1.0)],
                         ids=["g21*g02", "g02*g21", "g02+2*g21"])
@pytest.mark.parametrize("fn", [gamma_parallel_and_inversion, n_three_physical])
def test_overflowing_rate_products_name_the_rates(fn, rates):
    # the products overflow to inf, and inf/inf would leak nan into
    # gamma_par, the inversion and the populations
    g21, g02, g10 = rates
    with pytest.raises(ValueError, match="overflows the rate sums") as err:
        fn(three_level(g21, g02, g10))
    assert f"gamma_21={g21!r} with gamma_02={g02!r} and gamma_10={g10!r}" in str(err.value)


def test_equilibrium_with_overflowing_rate_products_names_the_rates():
    # g02*g21 overflows, and inf/inf would leak nan into the populations;
    # the flow is not degenerate, so neither the ground state nor the
    # reservoir level stands in for the equilibrium
    for fn in (equilibrium_populations_three, params._populations_from_ground):
        with pytest.raises(ValueError, match="overflows the rate sums") as err:
            fn(three_level(2e300, 1e300, 0.1))
        assert "gamma_21=2e+300 with gamma_02=1e+300 and gamma_10=0.1" in str(err.value)


@pytest.mark.parametrize("fn, rates", [
    # N/(2*kappa)*gamma_21*(gamma_02 - gamma_10) and 2*cross overflow
    (gamma_parallel_and_inversion, (1e308 / 3, 3.0, 0.0)),
    (n_three_physical, (1e308 / 3, 3.0, 0.0)),
    # gamma_perp/(2*g**2)*cross overflows
    (n_three_physical, (1.0, 1.0, 1e300)),
], ids=["gamma_par", "gain", "loss"])
def test_finite_rate_sums_with_overflowing_terms_name_the_rates(fn, rates):
    # the rate sums are finite, but a later product is not: an error
    # naming the rates, not an inf photon number or gamma_par
    g21, g02, g10 = rates
    with pytest.raises(ValueError, match="overflows") as err:
        fn(three_level(g21, g02, g10, scheme=PumpScheme.A))
    assert f"gamma_21={g21!r} with gamma_02={g02!r} and gamma_10={g10!r}" in str(err.value)


def test_decomposition_identity_reproduces_direct_steady_state():
    # effective-two-level form N*gpar*inv/(4k) - gperp*gpar/(4g^2) must
    # equal the direct three-level formula exactly (500 random rate sets)
    rng = np.random.default_rng(11)
    for _ in range(500):
        p = random_three_level(rng)
        gpar, inv = gamma_parallel_and_inversion(p)
        gperp = gamma_perp_three(p)
        via_decomposition = (
            p.n_atoms * gpar * inv / (4.0 * p.cavity_kappa)
            - gperp * gpar / (4.0 * p.coupling_g**2)
        )
        direct = n_three_physical(p).raw_bracket
        gain = p.n_atoms * gpar * abs(inv) / (4.0 * p.cavity_kappa)
        loss = gperp * gpar / (4.0 * p.coupling_g**2)
        assert_identity(via_decomposition, direct, gain + loss)


def test_reduce_two_direct_substitution():
    d, pump = reduce_two(two_level(Gamma=2.0, gamma=1.0, N=4.0, g=1.0, kappa=1.0))
    assert (d.photon_scale, d.saturation, d.dephasing, pump) == (1.0, 0.125, 0.0, 2.0)

    d, pump = reduce_two(two_level(Gamma=2.0, gamma=2.0, N=2000.0, g=1.0, kappa=1.0))
    assert (d.photon_scale, d.saturation, d.dephasing, pump) == (1000.0, 5e-4, 0.0, 1.0)


@pytest.mark.parametrize("p, rate", [
    (two_level(Gamma=2.0, g=1e-160), "gamma_decay"),
    (three_level(1.0, 2.0, 0.1, g=1e-160, scheme=PumpScheme.A), "gamma_02"),
    (three_level(1.0, 2.0, 0.1, g=1e-160, scheme=PumpScheme.B), "gamma_21"),
    (three_level(1.0, 1e300, 0.1, kappa=1e300, scheme=PumpScheme.A), "gamma_02"),
], ids=["two-level", "scheme-a", "scheme-b", "scheme-a-huge-rates"])
def test_reduce_rejects_unrepresentable_saturation(p, rate):
    reduce = reduce_two if isinstance(p, PhysicalTwoLevel) else reduce_three
    with pytest.raises(ValueError) as err:
        reduce(p)
    msg = str(err.value)
    assert msg.startswith(f"coupling_g={p.coupling_g!r} ")
    for name in ("cavity_kappa", rate, "n_atoms"):
        assert f"{name}=" in msg
    assert "saturation" in msg



@pytest.mark.parametrize("p, message", [
    (two_level(Gamma=1.0, gamma=5e-324, gph=1e154),
     "gamma_ph=1e+154 with gamma_decay=5e-324 gives a dephasing gamma_ph/gamma_decay of inf"),
    (three_level(1.0, 1e-10, 1.7e308, scheme=PumpScheme.A),
     "gamma_10=1.7e+308 with gamma_02=1e-10 gives a decay_ratio gamma_10/gamma_02 of inf"),
    (three_level(1e10, 2.0, 0.1, N=1e300, scheme=PumpScheme.B),
     "n_atoms=1e+300 with gamma_21=10000000000.0 and cavity_kappa=1.0 gives a photon_scale "
     "n_atoms*gamma_21/(2*cavity_kappa) of inf"),
    (two_level(Gamma=1.0, gamma=1e10, N=1e300),
     "n_atoms=1e+300 with gamma_decay=10000000000.0 and cavity_kappa=1.0 gives a photon_scale "
     "n_atoms*gamma_decay/(4*cavity_kappa) of inf"),
    (three_level(1.0, 1e10, 0.1, N=1e300, scheme=PumpScheme.A),
     "n_atoms=1e+300 with gamma_02=10000000000.0 and cavity_kappa=1.0 gives a photon_scale "
     "n_atoms*gamma_02/(2*cavity_kappa) of inf"),
    (three_level(1e-10, 2.0, 1.7e308, scheme=PumpScheme.B),
     "gamma_10=1.7e+308 with gamma_21=1e-10 gives a decay_ratio gamma_10/gamma_21 of inf"),
    (three_level(1e-10, 2.0, 0.1, gph=1.7e308, scheme=PumpScheme.B),
     "gamma_ph=1.7e+308 with gamma_21=1e-10 gives a dephasing gamma_ph/gamma_21 of inf"),
], ids=["two-level-dephasing", "scheme-a-decay-ratio", "scheme-b-photon-scale",
        "two-level-photon-scale", "scheme-a-photon-scale", "scheme-b-decay-ratio",
        "scheme-b-dephasing"])
def test_reduce_names_the_rates_of_an_overflowing_ratio(p, message):
    # the error names the config values, not the derived parameter
    reduce = reduce_two if isinstance(p, PhysicalTwoLevel) else reduce_three
    with pytest.raises(ValueError) as err:
        reduce(p)
    assert str(err.value) == message

def test_reduce_expand_two_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = DimensionlessTwoLevel(
            photon_scale=float(log_uniform(rng, 0.25, 1e6)),
            saturation=float(log_uniform(rng, 1e-8, 1.0)),
            dephasing=float(log_uniform(rng, 1e-6, 1e6)),
        )
        pump = float(log_uniform(rng, 1e-3, 1e6))
        d2, pump2 = reduce_two(expand_two(d, pump))
        # the gauge is fixed, so the round trip is the identity up to the
        # sqrt rounding in the coupling
        assert d2.photon_scale == d.photon_scale
        assert d2.dephasing == d.dephasing
        assert pump2 == pump
        assert d2.saturation == pytest.approx(d.saturation, rel=1e-14)


@pytest.mark.parametrize("expand, cls", [
    (expand_two, DimensionlessTwoLevel),
    (expand_scheme_a, DimensionlessSchemeA),
    (expand_scheme_b, DimensionlessSchemeB),
], ids=["expand_two", "expand_scheme_a", "expand_scheme_b"])
def test_expand_gauge_coupling_is_the_closed_form_bit_for_bit(expand, cls):
    # one gauge rule g = sqrt(1/(2*N*s)) for every model; for a three-level
    # scheme N = 2*photon_scale, so 2*N*s is 4*photon_scale*s exactly
    rng = np.random.default_rng(33)
    for _ in range(300):
        photon_scale = float(log_uniform(rng, 0.5, 1e150))
        saturation = float(log_uniform(rng, 1e-150, 1e3))
        extra = {} if cls is DimensionlessTwoLevel else {"decay_ratio": 0.1}
        d = cls(photon_scale=photon_scale, saturation=saturation, **extra)
        if cls is DimensionlessTwoLevel:
            n_atoms = 4.0 * photon_scale
            expected = math.sqrt(1.0 / (2.0 * n_atoms * saturation))
        else:
            expected = math.sqrt(1.0 / (4.0 * photon_scale * saturation))
        assert expand(d, 1.0).coupling_g == expected, d


def test_expand_two_requires_positive_saturation():
    with pytest.raises(ValueError):
        expand_two(DimensionlessTwoLevel(1e3, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("expand, d, n_atoms", [
    (expand_two, DimensionlessTwoLevel(photon_scale=1e-300, saturation=1e-300,
                                       dephasing=0.0), 4e-300),
    (expand_scheme_a, DimensionlessSchemeA(photon_scale=1e-300, saturation=1e-300,
                                           decay_ratio=4.65e297), 2e-300),
    (expand_scheme_b, DimensionlessSchemeB(photon_scale=1e-300, saturation=1e-300,
                                           decay_ratio=4.65e297), 2e-300),
], ids=["expand_two", "expand_scheme_a", "expand_scheme_b"])
def test_expand_underflowing_gauge_names_n_atoms(expand, d, n_atoms):
    # photon_scale*saturation underflows to 0 in the coupling's gauge
    # formula: the error is the record's, for the atom number it names
    with pytest.raises(ValueError, match=re.escape(f"n_atoms must be >= 1, got {n_atoms!r}")):
        expand(d, 1.46e299)


@pytest.mark.parametrize("expand, d", [
    (expand_two, DimensionlessTwoLevel(photon_scale=1.0, saturation=5e-324)),
    (expand_scheme_a, DimensionlessSchemeA(photon_scale=1.0, saturation=5e-324,
                                           decay_ratio=0.1)),
    (expand_scheme_b, DimensionlessSchemeB(photon_scale=1.0, saturation=5e-324,
                                           decay_ratio=0.1)),
], ids=["expand_two", "expand_scheme_a", "expand_scheme_b"])
def test_expand_subnormal_saturation_names_saturation(expand, d):
    # N >= 1, but the gauge coupling sqrt(1/(c*saturation)) overflows: the
    # error names the saturation the caller gave, not coupling_g
    with pytest.raises(ValueError, match=r"^saturation=5e-324 is too small"):
        expand(d, 1.0)


def test_reduce_three_both_schemes():
    d, pump = reduce_three(three_level(1.0, 2.0, 0.1, scheme=PumpScheme.B))
    assert isinstance(d, DimensionlessSchemeB)
    assert (d.photon_scale, d.saturation, d.decay_ratio, d.dephasing) == (
        50.0, 0.005, 0.1, 0.0,
    )
    assert pump == 2.0

    d, pump = reduce_three(three_level(1.0, 2.0, 0.1, scheme=PumpScheme.A))
    assert isinstance(d, DimensionlessSchemeA)
    assert (d.photon_scale, d.saturation, d.decay_ratio, d.dephasing) == (
        100.0, 0.01, 0.05, 0.0,
    )
    assert pump == 0.5


def test_reduce_three_rejects_zero_reference_rate():
    with pytest.raises(ValueError):
        reduce_three(three_level(1.0, 0.0, 0.1, scheme=PumpScheme.A))
    with pytest.raises(ValueError):
        reduce_three(three_level(0.0, 1.0, 0.1, scheme=PumpScheme.B))


def test_reduce_expand_three_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        args = dict(
            photon_scale=float(log_uniform(rng, 0.5, 1e6)),
            saturation=float(log_uniform(rng, 1e-8, 1.0)),
            decay_ratio=float(log_uniform(rng, 1e-4, 2.0)),
            dephasing=float(log_uniform(rng, 1e-6, 1e3)),
        )
        pump = float(log_uniform(rng, 1e-3, 1e3))
        da = DimensionlessSchemeA(**args)
        da2, pump2 = reduce_three(expand_scheme_a(da, pump))
        assert (da2.photon_scale, da2.decay_ratio, da2.dephasing, pump2) == (
            da.photon_scale, da.decay_ratio, da.dephasing, pump,
        )
        assert da2.saturation == pytest.approx(da.saturation, rel=1e-14)

        db = DimensionlessSchemeB(**args)
        db2, pump2 = reduce_three(expand_scheme_b(db, pump))
        assert (db2.photon_scale, db2.decay_ratio, db2.dephasing, pump2) == (
            db.photon_scale, db.decay_ratio, db.dephasing, pump,
        )
        assert db2.saturation == pytest.approx(db.saturation, rel=1e-14)


def test_equilibrium_populations_three_detailed_balance():
    p = three_level(1.0, 2.0, 0.1)
    rho00, rho11, rho22 = equilibrium_populations_three(p)
    assert rho00 + rho11 + rho22 == pytest.approx(1.0, abs=1e-15)
    # stationarity of the no-field rate equations
    assert p.gamma_02 * rho00 == pytest.approx(p.gamma_21 * rho22, rel=1e-14)
    assert p.gamma_21 * rho22 == pytest.approx(p.gamma_10 * rho11, rel=1e-14)


def test_equilibrium_populations_three_degenerate_rejected():
    with pytest.raises(ValueError):
        equilibrium_populations_three(three_level(0.0, 2.0, 0.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        two_level(gamma=0.0)
    with pytest.raises(ValueError):
        two_level(N=0.5)
    with pytest.raises(ValueError):
        two_level(Gamma=-1.0)
    with pytest.raises(ValueError):
        two_level(g=math.inf)
    with pytest.raises(ValueError):
        DimensionlessTwoLevel(photon_scale=0.0, saturation=1e-6)
    with pytest.raises(ValueError):
        DimensionlessSchemeB(photon_scale=1.0, saturation=-1e-6, decay_ratio=0.0)
    with pytest.raises(ValueError):
        BlochState2(rho11=1.5, y=0.0, x=0.0)
    with pytest.raises(ValueError):
        BlochState3(rho11=0.7, rho22=0.7, y=0.0, x=0.0)


@pytest.mark.parametrize("g", [1e-300, 1e300])
def test_coupling_with_unrepresentable_square_rejected(g):
    # the reductions divide by g**2: 1e-300**2 underflows to 0, 1e300**2 overflows
    for make in (
        lambda: two_level(g=g),
        lambda: three_level(1.0, 2.0, 0.1, g=g),
        lambda: three_level(1.0, 2.0, 0.1, g=g, scheme=PumpScheme.A),
    ):
        with pytest.raises(ValueError, match="coupling_g"):
            make()
    # the extremes whose square is still a positive finite float are kept
    assert two_level(g=1e-160).coupling_g == 1e-160
    assert three_level(1.0, 2.0, 0.1, g=1e154).coupling_g == 1e154


@pytest.mark.parametrize("cls, components, message", [
    (BlochState2, (0.5, math.nan, 0.0), "state components must be finite"),
    (BlochState3, (0.2, 0.3, 0.0, math.inf), "state components must be finite"),
    (BlochState2, (1.5, 0.0, 0.0), "rho11 must lie in [0, 1], got 1.5"),
    (BlochState3, (-0.5, 0.0, 0.0, 0.0), "rho11 must lie in [0, 1], got -0.5"),
    (BlochState3, (0.7, 0.7, 0.0, 0.0),
     "populations must be >= 0 with rho11 + rho22 <= 1, got rho11=0.7, rho22=0.7"),
    (BlochState3, (0.2, -0.1, 0.0, 0.0),
     "populations must be >= 0 with rho11 + rho22 <= 1, got rho11=0.2, rho22=-0.1"),
])
def test_bloch_states_name_the_broken_rule(cls, components, message):
    # one rule for both classes, the one the integrator checks on floats
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*components)


def test_bloch_state_accessors():
    s2 = BlochState2(rho11=0.25, y=0.1, x=3.0)
    assert s2.rho00 == 0.75
    assert s2.photon_number == 9.0
    s3 = BlochState3(rho11=0.2, rho22=0.3, y=0.0, x=2.0)
    assert s3.rho00 == pytest.approx(0.5)
    assert s3.photon_number == 4.0


# each parameter record: valid keyword arguments, then the fields that must be > 0
RECORDS = [
    (PhysicalTwoLevel,
     dict(n_atoms=4.0, coupling_g=1.0, cavity_kappa=1.0, gamma_decay=1.0,
          pump_Gamma=2.0, gamma_ph=0.5),
     {"coupling_g", "cavity_kappa", "gamma_decay"}),
    (PhysicalThreeLevel,
     dict(n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0, gamma_21=1.0,
          gamma_02=2.0, gamma_10=0.1, gamma_ph=0.5, scheme=PumpScheme.A),
     {"coupling_g", "cavity_kappa"}),
    (DimensionlessTwoLevel,
     dict(photon_scale=1e3, saturation=1e-3, dephasing=0.5),
     {"photon_scale"}),
    (DimensionlessSchemeA,
     dict(photon_scale=1e3, saturation=1e-3, decay_ratio=0.1, dephasing=0.5),
     {"photon_scale"}),
    (DimensionlessSchemeB,
     dict(photon_scale=1e3, saturation=1e-3, decay_ratio=0.1, dephasing=0.5),
     {"photon_scale"}),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


def bad_values(name: str, positive: set[str]):
    """Each bad value of one numeric field, with the message that rejects it."""
    sign = "> 0" if name in positive else ">= 0"
    yield math.nan, f"{name} must be finite, got nan"
    yield math.inf, f"{name} must be finite, got inf"
    yield -1.0, f"{name} must be {sign}, got -1.0"
    if name in positive:
        yield 0.0, f"{name} must be > 0, got 0.0"
    if name == "n_atoms":
        yield 0.0, "n_atoms must be >= 1, got 0.0"
        yield 0.5, "n_atoms must be >= 1, got 0.5"
    if name == "coupling_g":
        yield 1e-300, "coupling_g**2 must be finite and > 0, got coupling_g=1e-300"
        yield 1e300, "coupling_g**2 must be finite and > 0, got coupling_g=1e+300"


@pytest.mark.parametrize("cls, valid, positive", RECORDS, ids=RECORD_IDS)
def test_record_rejects_each_bad_value_by_name(cls, valid, positive):
    cls(**valid)
    for name in valid:
        if name == "scheme":
            continue
        for value, message in bad_values(name, positive):
            with pytest.raises(ValueError) as e:
                cls(**{**valid, name: value})
            assert str(e.value) == message


@pytest.mark.parametrize("cls, valid, positive", RECORDS, ids=RECORD_IDS)
def test_record_reports_the_first_bad_field(cls, valid, positive):
    names = list(valid)
    bad = {"scheme": "A"}  # a string is not a PumpScheme
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            kwargs = {**valid, **{k: bad.get(k, math.nan) for k in (first, second)}}
            with pytest.raises(ValueError) as e:
                cls(**kwargs)
            assert str(e.value) == f"{first} must be finite, got nan", (first, second)


def test_three_level_scheme_must_be_a_pump_scheme():
    valid = RECORDS[1][1]
    for scheme in ("A", "B", None):
        with pytest.raises(ValueError) as e:
            PhysicalThreeLevel(**{**valid, "scheme": scheme})
        assert str(e.value) == f"scheme must be a PumpScheme, got {scheme!r}"


def test_steady_result_keeps_every_dataclass_behaviour():
    # SteadyResult writes its __init__ out; pin it against the frozen
    # dataclass that the decorator would generate for the same fields
    names = ("photon_number", "regime", "populations", "gamma_perp", "raw_bracket")
    reference = dataclasses.make_dataclass(
        "SteadyResult",
        list(zip(names, ("float", "Regime", "tuple[float, ...]", "float", "float"))),
        frozen=True,
    )
    assert inspect.signature(SteadyResult) == inspect.signature(reference)
    assert inspect.signature(SteadyResult.__init__) == inspect.signature(reference.__init__)
    assert SteadyResult.__match_args__ == reference.__match_args__ == names

    values = (2.5, Regime.LASING, (0.25, 0.75), 1.5, 0.125)
    res = SteadyResult(*values)
    assert res == SteadyResult(**dict(zip(names, values)))
    assert tuple(getattr(res, name) for name in names) == values
    assert tuple(f.name for f in dataclasses.fields(res)) == names
    assert dataclasses.asdict(res) == dict(zip(names, values))
    assert dataclasses.astuple(res) == values
    assert repr(res) == repr(reference(*values))

    changed = dataclasses.replace(res, regime=Regime.BELOW_THRESHOLD, photon_number=0.0)
    assert type(changed) is SteadyResult
    assert changed == SteadyResult(0.0, Regime.BELOW_THRESHOLD, *values[2:])
    assert changed != res and hash(changed) != hash(res)
    assert hash(res) == hash(SteadyResult(*values)) == hash(reference(*values))
    assert res != reference(*values)  # another class never compares equal

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(res, name)

    # what a slotted layout would change: weak references, copies and
    # pickles at every protocol
    assert weakref.ref(res)() is res
    for clone in (copy.copy(res), copy.deepcopy(res), *(
            pickle.loads(pickle.dumps(res, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is SteadyResult and clone == res and clone is not res
        assert vars(clone) == vars(res) and hash(clone) == hash(res)

    for args, kwargs in [(values[:4], {}), ((), dict(zip(names[1:], values[1:]))),
                         (values, {"extra": 1.0}), ((*values, 1.0), {})]:
        with pytest.raises(TypeError) as ours:
            SteadyResult(*args, **kwargs)
        with pytest.raises(TypeError) as generated:
            reference(*args, **kwargs)
        assert str(ours.value) == str(generated.value)
