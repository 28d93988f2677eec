"""Pump sweeps and the linear-algebra steady-state oracle.

The oracle here solves the fixed-point equations directly (inversion
pinning + population balance) without ever evaluating the closed-form
photon-number bracket, so it can arbitrate between the analytic formulas
and the time-domain integrator.

The pump grid and the sweep rows are built on Python floats, with
numpy's own ``linspace``/``geomspace`` arithmetic but libm's ``log10``
and ``pow`` in place of numpy's SIMD loops, so a grid is the same on
every CPU.  This module loads numpy, through ``params._numpy``, only
where it returns arrays: ``pump_grid``, ``sweep`` and ``SweepSeries``.
The ``sweep`` and ``figure`` commands write the float rows, and the
oracles solve on floats; none of them loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from .params import (
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    Regime,
    SteadyResult,
    _numpy,
    gamma_perp_three,
    gamma_perp_two,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SweepSeries",
    "algebraic_oracle_two",
    "algebraic_oracle_three",
    "pump_grid",
    "sweep",
]


def algebraic_oracle_two(p: PhysicalTwoLevel) -> float:
    """Two-level steady photon number straight from the equations of motion.

    With a nonzero field the coherence and field balances pin the
    inversion at D = kappa*gamma_perp/(N*g**2), i.e. rho11 = (1 + D)/2;
    the population balance then yields the photon flux.  The negative
    branch means the pinned inversion is not sustainable and the cavity
    stays empty.
    """
    d_pin = p.cavity_kappa * gamma_perp_two(p) / (p.n_atoms * p.coupling_g**2)
    rho11 = 0.5 * (1.0 + d_pin)
    n = (p.n_atoms / (2.0 * p.cavity_kappa)) * (
        p.pump_Gamma * (1.0 - rho11) - p.gamma_decay * rho11
    )
    return max(0.0, n)


def algebraic_oracle_three(p: PhysicalThreeLevel) -> float:
    """Three-level steady photon number from the raw fixed-point equations.

    On the lasing branch the coherence and field equations pin the
    inversion at D = kappa*gamma_perp/(N*g**2); the remaining population
    balance closes as a 2x2 linear system in (rho00, rho22):

        gamma_02*rho00 - gamma_21*rho22 = 0      (middle-level balance)
        2*rho00 + rho22 = 1 - D                  (trace with rho11 = rho00 + D)

    solved by Cramer's rule on its determinant gamma_02 + 2*gamma_21, and
    the photon number follows from the upper-level rate balance.  This
    never touches the closed-form bracket, which is the point.
    """
    det = p.gamma_02 + 2.0 * p.gamma_21
    if det <= 0.0:
        raise ValueError("singular population balance: gamma_02 + 2*gamma_21 = 0")
    d_pin = p.cavity_kappa * gamma_perp_three(p) / (p.n_atoms * p.coupling_g**2)
    rho00 = p.gamma_21 * (1.0 - d_pin) / det
    rho22 = p.gamma_02 * (1.0 - d_pin) / det
    rho11 = rho00 + d_pin
    n = (p.n_atoms / (2.0 * p.cavity_kappa)) * (
        p.gamma_21 * rho22 - p.gamma_10 * rho11
    )
    return max(0.0, float(n))


@dataclass(frozen=True)
class SweepSeries:
    """Ordered (pump, photon number) samples from one model."""

    pump_values: np.ndarray
    photon_numbers: np.ndarray
    regimes: tuple[Regime, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        np = _numpy("SweepSeries")
        if len(self.pump_values) != len(self.photon_numbers) or len(
            self.pump_values
        ) != len(self.regimes):
            raise ValueError("pump, photon and regime arrays must match in length")
        if np.any(np.diff(self.pump_values) <= 0.0):
            raise ValueError("pump values must be strictly increasing")


def _pump_grid(lo: float, hi: float, count: int, scale: str) -> list[float]:
    """The pump grid as Python floats, both ends exactly ``lo`` and ``hi``.

    A linear point is ``i * step + lo``; a log point is ``10.0 ** (i * step
    + log10(lo))``.  That is numpy's ``linspace`` and ``geomspace``
    arithmetic on libm's ``log10`` and ``pow``, which numpy's SIMD loops
    do not always match in the last bit.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if count < 2:
        raise ValueError(f"need count >= 2, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"need finite lo and hi, got [{lo}, {hi}]")
    if scale == "linear":
        a, b = lo, hi
    elif scale == "log":
        if lo <= 0.0:
            raise ValueError("log scale requires lo > 0")
        a, b = math.log10(lo), math.log10(hi)
    else:
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    step = (b - a) / (count - 1)
    if not math.isfinite(step):
        raise ValueError(f"pump grid step overflows on [{lo}, {hi}]")
    inner = [i * step + a for i in range(1, count - 1)]
    if scale == "log":
        inner = [10.0 ** y for y in inner]
    grid = [lo, *inner, hi]
    # written so that a NaN point fails it too
    if not all(q > p for p, q in zip(grid, grid[1:])):
        raise ValueError("pump values must be strictly increasing")
    return grid


def _sweep_rows(
    evaluate: Callable[[float], SteadyResult],
    pump_range: tuple[float, float],
    count: int,
    scale: str,
) -> tuple[list[float], list[float], list[Regime]]:
    """The pumps, photon numbers and regimes of a sweep, as Python objects."""
    pumps = _pump_grid(pump_range[0], pump_range[1], count, scale)
    results = [evaluate(pv) for pv in pumps]
    return pumps, [r.photon_number for r in results], [r.regime for r in results]


def pump_grid(lo: float, hi: float, count: int, scale: str = "linear") -> np.ndarray:
    """Strictly increasing pump grid, linear or logarithmic.

    The same floats on every CPU: see :func:`_pump_grid`.
    """
    return _numpy("pump_grid").array(_pump_grid(lo, hi, count, scale))


def sweep(
    evaluate: Callable[[float], SteadyResult],
    pump_range: tuple[float, float],
    count: int,
    scale: str = "linear",
    metadata: Mapping[str, object] | None = None,
) -> SweepSeries:
    """Evaluate a model's analytic photon number over a pump grid.

    Points are independent, so evaluation order cannot change the result;
    they are computed in grid order.
    """
    np = _numpy("sweep")
    pumps, photons, regimes = _sweep_rows(evaluate, pump_range, count, scale)
    return SweepSeries(
        pump_values=np.array(pumps),
        photon_numbers=np.array(photons),
        regimes=tuple(regimes),
        metadata=dict(metadata or {}),
    )
