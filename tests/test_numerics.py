import math
import random

import numpy as np
import pytest

from conftest import random_three_level
from lasekit import (
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    algebraic_oracle_three,
    algebraic_oracle_two,
    n_scheme_b,
    n_three_physical,
    n_two_level,
    pump_grid,
    reduce_two,
    sweep,
)

FIG2 = DimensionlessTwoLevel(photon_scale=1e3, saturation=1e-6, dephasing=1e5)
FIG4B = DimensionlessSchemeB(photon_scale=1e5, saturation=0.01, decay_ratio=0.0, dephasing=0.1)


def test_algebraic_oracle_three_fixed_example():
    p = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    assert algebraic_oracle_three(p) == pytest.approx(23.448125, rel=1e-12)


def test_algebraic_oracle_three_below_threshold_returns_zero():
    p = PhysicalThreeLevel(
        n_atoms=2.0, coupling_g=0.1, cavity_kappa=10.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    assert n_three_physical(p).photon_number == 0.0
    assert algebraic_oracle_three(p) == 0.0


def test_algebraic_oracle_three_zero_leak_limit():
    p = PhysicalThreeLevel(
        n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
        gamma_21=1.0, gamma_02=2.0, gamma_10=0.0, gamma_ph=0.0,
        scheme=PumpScheme.B,
    )
    assert algebraic_oracle_three(p) == pytest.approx(
        n_three_physical(p).photon_number, rel=1e-12
    )


def test_algebraic_oracle_matches_closed_form_randomized():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = random_three_level(rng, lo=1e-2, hi=1e2)
        res = n_three_physical(p)
        oracle = algebraic_oracle_three(p)
        if res.photon_number == 0.0:
            assert oracle == 0.0
        else:
            assert oracle == pytest.approx(res.photon_number, rel=1e-12)


def test_algebraic_oracle_two_matches_closed_form():
    rng = np.random.default_rng(37)
    for _ in range(200):
        kappa, gamma, pump = 10.0 ** rng.uniform(-2, 2, 3)
        p = PhysicalTwoLevel(
            n_atoms=float(10.0 ** rng.uniform(0.5, 4)),
            coupling_g=float(10.0 ** rng.uniform(-1, 1)),
            cavity_kappa=float(kappa),
            gamma_decay=float(gamma),
            pump_Gamma=float(pump),
            gamma_ph=float(10.0 ** rng.uniform(-2, 2)) if rng.random() < 0.5 else 0.0,
        )
        d, rel_pump = reduce_two(p)
        assert algebraic_oracle_two(p) == pytest.approx(
            n_two_level(d, rel_pump).photon_number, rel=1e-12, abs=0.0
        )


def test_pump_grid_scales_and_validation():
    lin = pump_grid(1.0, 5.0, 5, "linear")
    assert np.allclose(lin, [1, 2, 3, 4, 5])
    log = pump_grid(1.0, 100.0, 3, "log")
    assert np.allclose(log, [1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        pump_grid(5.0, 1.0, 10)
    with pytest.raises(ValueError):
        pump_grid(1.0, 5.0, 1)
    with pytest.raises(ValueError):
        pump_grid(0.0, 5.0, 10, "log")
    with pytest.raises(ValueError):
        pump_grid(1.0, 5.0, 10, "cubic")


def plain_grid(lo: float, hi: float, count: int, scale: str) -> list[float]:
    """numpy's linspace/geomspace arithmetic on libm's log10 and pow."""
    if scale == "log":
        a, b = math.log10(lo), math.log10(hi)
        step = (b - a) / (count - 1)
        return [lo] + [10.0 ** (i * step + a) for i in range(1, count - 1)] + [hi]
    step = (hi - lo) / (count - 1)
    return [lo] + [i * step + lo for i in range(1, count - 1)] + [hi]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pump_grid_is_the_plain_float_formula(seed):
    # bit for bit, so the grid cannot depend on the SIMD loops of the CPU
    rng = random.Random(seed)
    for _ in range(20):
        lo = 10.0 ** rng.uniform(-4, 2)
        hi = lo * 10.0 ** rng.uniform(0.01, 6)
        count = rng.randint(2, 600)
        for scale in ("linear", "log"):
            grid = pump_grid(lo, hi, count, scale)
            assert grid.dtype == np.float64
            assert grid.tolist() == plain_grid(lo, hi, count, scale), (lo, hi, count, scale)
        # multiply and add round the same on every CPU
        assert pump_grid(lo, hi, count).tolist() == np.linspace(lo, hi, count).tolist()


@pytest.mark.parametrize("lo, hi, scale", [
    (0.01, math.inf, "linear"),
    (0.01, math.inf, "log"),
    (-math.inf, 1.0, "linear"),
    (-1e308, 1e308, "linear"),
], ids=["inf", "log-inf", "minus-inf", "overflow"])
def test_pump_grid_rejects_edge_pumps(lo, hi, scale):
    # no NaN or inf point and no numpy warning (warnings are errors here)
    with pytest.raises(ValueError, match="need finite lo and hi|step overflows"):
        pump_grid(lo, hi, 3, scale)
    with pytest.raises(ValueError, match="need finite lo and hi|step overflows"):
        sweep(lambda p: n_two_level(FIG2, p), (lo, hi), 3, scale)


def test_sweep_two_points_are_endpoints():
    series = sweep(lambda p: n_two_level(FIG2, p), (1.0, 10.0), 2)
    assert list(series.pump_values) == [1.0, 10.0]
    assert series.photon_numbers[0] == 0.0
    assert series.regimes[0] is Regime.BELOW_THRESHOLD
    assert series.regimes[1] is Regime.LASING


def test_sweep_matches_pointwise_evaluation():
    series = sweep(lambda p: n_scheme_b(FIG4B, p), (0.01, 119.88), 50, "log",
                   metadata={"model": "three-b"})
    for pump, n in zip(series.pump_values, series.photon_numbers):
        assert n == n_scheme_b(FIG4B, float(pump)).photon_number
    assert series.metadata["model"] == "three-b"

