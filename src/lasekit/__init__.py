"""Steady-state and time-domain models of strongly pumped lasers.

Closed two-level and three-level atoms with incoherent pumping: exact
steady-state photon numbers, lasing thresholds and windows, optimum-pump
reports, and a Maxwell-Bloch integrator that independently verifies every
closed form.  The ``lasekit`` CLI prints steady-state and region reports
as text or JSON, and writes sweeps, dynamics runs and the bundled figure
presets as CSV or JSON.

The names below are loaded on first access (PEP 562), so ``import
lasekit`` and the closed forms of ``params`` and ``steady`` do not load
numpy, nor does any ``lasekit`` command.  The names of ``numerics`` and
``dynamics`` that return arrays load it when called, from the ``arrays``
extra: ``pip install 'lasekit[arrays]'``.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "BlochState2",
            "BlochState3",
            "DimensionlessSchemeA",
            "DimensionlessSchemeB",
            "DimensionlessTwoLevel",
            "IntegratorConfig",
            "PhysicalThreeLevel",
            "PhysicalTwoLevel",
            "PumpScheme",
            "Regime",
            "SteadyResult",
            "equilibrium_populations_three",
            "equilibrium_populations_two",
            "expand_scheme_a",
            "expand_scheme_b",
            "expand_two",
            "gamma_parallel_and_inversion",
            "gamma_perp_three",
            "gamma_perp_two",
            "reduce_three",
            "reduce_two",
        ),
        "params",
    ),
    **dict.fromkeys(
        (
            "ExtremumReport",
            "LasingWindow",
            "WindowReport",
            "depletion_ratio_window",
            "n_min_atoms",
            "n_scheme_a",
            "n_scheme_b",
            "n_three_physical",
            "n_two_level",
            "optimum_scheme_b",
            "optimum_two",
            "raw_bracket_scheme_a",
            "raw_bracket_scheme_b",
            "raw_bracket_two",
            "saturation_limit_scheme_a",
            "threshold_scheme_a",
            "threshold_scheme_b",
            "threshold_two",
            "window_scheme_b",
            "window_two",
        ),
        "steady",
    ),
    **dict.fromkeys(
        (
            "SweepSeries",
            "algebraic_oracle_three",
            "algebraic_oracle_two",
            "pump_grid",
            "sweep",
        ),
        "numerics",
    ),
    **dict.fromkeys(
        (
            "SettleResult",
            "StiffnessError",
            "TimeSeries",
            "default_t_max",
            "derivs_three",
            "derivs_two",
            "fixed_point_state",
            "initial_state",
            "integrate",
            "jacobian_three",
            "jacobian_two",
            "settle",
        ),
        "dynamics",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
