"""Edge scan of the public closed forms, reductions and expansions.

Every call either returns a result without NaN or raises a ValueError, and
it raises no warning.  A result may be infinite only where the docstrings
say so; ``ALLOWED_INF`` lists those places.  Draws cover 0, -0.0,
subnormals and magnitudes up to 1.7e308 in every field and the pump.
The same draws, written as config files, go through ``lasekit steady``
and ``lasekit region``.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasekit import (
    DimensionlessSchemeA,
    DimensionlessSchemeB,
    DimensionlessTwoLevel,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    depletion_ratio_window,
    expand_scheme_a,
    expand_scheme_b,
    expand_two,
    n_min_atoms,
    n_scheme_a,
    n_scheme_b,
    n_three_physical,
    n_two_level,
    optimum_scheme_b,
    optimum_two,
    reduce_three,
    reduce_two,
    saturation_limit_scheme_a,
    threshold_scheme_a,
    threshold_scheme_b,
    threshold_two,
    window_scheme_b,
    window_two,
)
from lasekit.cli import _MODELS, main

# (dataclass or function, field or tuple index) -> the infinities allowed there
ALLOWED_INF = {
    ("SteadyResult", "photon_number"): {math.inf},
    ("SteadyResult", "gamma_perp"): {math.inf},
    ("SteadyResult", "raw_bracket"): {-math.inf},
    ("LasingWindow", "upper"): {math.inf},
    ("ExtremumReport", "pump_estimate"): {math.inf},
    ("ExtremumReport", "photon_at_exact"): {math.inf},
    ("ExtremumReport", "discrepancy"): {math.inf},
    ("ExtremumReport", "photon_max_estimate"): {math.inf},
    ("saturation_limit_scheme_a", None): {-math.inf},
    ("n_min_atoms", None): {math.inf},
    ("reduce_two", 1): {math.inf},
    ("reduce_three", 1): {math.inf},
}

values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-160, 0.5, 1.0, 2.0]),
    st.sampled_from([1e154, 1e160, 1e300, 1.7e308]),
    st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e),
)

DIMENSIONLESS = {
    "two-level": (DimensionlessTwoLevel, 2, (n_two_level, expand_two),
                  (threshold_two, window_two, optimum_two)),
    "scheme-A": (DimensionlessSchemeA, 3, (n_scheme_a, expand_scheme_a),
                 (threshold_scheme_a, saturation_limit_scheme_a)),
    "scheme-B": (DimensionlessSchemeB, 3, (n_scheme_b, expand_scheme_b),
                 (threshold_scheme_b, window_scheme_b, optimum_scheme_b)),
}

PHYSICAL = {
    "two-level": (PhysicalTwoLevel, 5, (reduce_two,)),
    "scheme-A": (lambda *f: PhysicalThreeLevel(*f, PumpScheme.A), 6,
                 (n_three_physical, reduce_three, n_min_atoms, depletion_ratio_window)),
    "scheme-B": (lambda *f: PhysicalThreeLevel(*f, PumpScheme.B), 6,
                 (n_three_physical, reduce_three)),
}

SCAN = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def check_clean(value, owner, field=None):
    """Fail on a NaN anywhere in ``value`` or an infinity ALLOWED_INF does
    not list for its (owner, field)."""
    if isinstance(value, float):
        assert not math.isnan(value), (owner, field)
        if math.isinf(value):
            assert value in ALLOWED_INF.get((owner, field), ()), (owner, field, value)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            check_clean(getattr(value, f.name), type(value).__name__, f.name)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            check_clean(item, owner, i if field is None else field)


def scan(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except ValueError:
            return
    check_clean(result, fn.__name__)


@pytest.mark.parametrize("model", list(DIMENSIONLESS))
def test_dimensionless_calls_give_no_nan(model):
    cls, n_fields, at_pump, of_record = DIMENSIONLESS[model]

    @SCAN
    @given(st.tuples(*[values] * n_fields), values)
    def check(fields, pump):
        try:
            d = cls(*fields)
        except ValueError:
            return
        for fn in at_pump:
            scan(fn, d, pump)
        for fn in of_record:
            scan(fn, d)

    check()


@pytest.mark.parametrize("model", list(PHYSICAL))
def test_physical_calls_give_no_nan(model):
    make, n_rates, calls = PHYSICAL[model]

    @SCAN
    @given(st.floats(1.0, 1e300) | values, st.tuples(*[values] * n_rates))
    def check(n_atoms, rates):
        try:
            p = make(n_atoms, *rates)
        except ValueError:
            return
        for fn in calls:
            scan(fn, p)

    check()


@pytest.mark.parametrize("command", ["steady", "region"])
def test_cli_reports_drawn_configs_cleanly(tmp_path, command):
    # exit 0 with a report free of NaN, or exit 2 with one error line that
    # quotes no inf or nan as a value: a config of finite numbers gives
    # none, so such an error would blame a value the config never gave
    path = tmp_path / "cfg.json"

    @SCAN
    @given(st.sampled_from(sorted(_MODELS)), st.sampled_from(["physical", "dimensionless"]),
           st.lists(values, min_size=7, max_size=7), st.none() | values)
    # the configured pump rate over its reference rate overflows
    @example("two-level", "physical", [4000.0, 0.1, 1.0, 1e-10, 1e300, 0.0, 0.0], None)
    @example("three-b", "physical", [100.0, 1.0, 1.0, 1e-10, 1e300, 0.1, 0.0], None)
    def check(model, parameterization, numbers, pump):
        spec = _MODELS[model]
        cls = spec.physical if parameterization == "physical" else spec.dimensionless
        names = [f.name for f in dataclasses.fields(cls) if f.name != "scheme"]
        path.write_text(json.dumps({"model": model, "parameterization": parameterization,
                                    "params": dict(zip(names, numbers))}), encoding="utf-8")
        argv = [command, "--config", str(path)]
        if pump is not None and command == "steady":
            argv += ["--pump", repr(pump)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert out and not err
            assert not re.search(r"\bnan\b", out, re.IGNORECASE), (argv, out)
        else:
            assert code == 2 and not out, (argv, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not re.search(r"(got |=)-?(inf|nan)\b", err), (argv, err)

    check()
