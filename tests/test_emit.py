"""The CSV emitters against a per-cell reference.

Every float cell must be ``repr(float(x))``, or ``format(float(x),
".Ng")`` with ``LASEKIT_PRECISION=N``, for the series ``integrate``
returns and for hand-built series whose columns are lists or hold
integer values.  The JSON writer streams its columns and must write what
``json.dumps(doc, indent=2)`` writes for the whole document, with every
non-finite value written as the string "inf", "-inf" or "nan".  A drawn
time series survives its CSV bit for bit, and both formats write n as
x * x of the row.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from array import array
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_constant
from lasekit import (
    DimensionlessSchemeB,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    SweepSeries,
    TimeSeries,
    fixed_point_state,
    integrate,
    n_scheme_b,
    sweep,
)
from lasekit.cli import (
    _CHUNK_ROWS,
    _chunks,
    _emit_json,
    _timeseries_columns,
    emit_sweep_csv,
    emit_timeseries_csv,
    main,
    parse_timeseries_csv,
)

THREE = PhysicalThreeLevel(
    n_atoms=100.0, coupling_g=1.0, cavity_kappa=1.0,
    gamma_21=1.0, gamma_02=2.0, gamma_10=0.1, gamma_ph=0.0, scheme=PumpScheme.B,
)
TWO = PhysicalTwoLevel(n_atoms=4000.0, coupling_g=0.1, cavity_kappa=1.0,
                       gamma_decay=1.0, pump_Gamma=2.0, gamma_ph=0.25)


def reference_cell(precision: str | None):
    if precision is None:
        return lambda x: repr(float(x))
    return lambda x: format(float(x), f".{precision}g")


def reference_timeseries_rows(series: TimeSeries, cell) -> list[str]:
    return [
        ",".join([cell(t)] + [cell(v) for v in row] + [cell(n)])
        for t, row, n in zip(series.times, series.states, series.photon_numbers)
    ]


def reference_sweep_rows(series: SweepSeries, cell) -> list[str]:
    return [
        f"{cell(pump)},{cell(n)},{regime.value}"
        for pump, n, regime in zip(series.pump_values, series.photon_numbers, series.regimes)
    ]


def body(text: str) -> list[str]:
    """The data rows: no comment lines, no header."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[1:]


@pytest.fixture(params=[None, "6", "17"], ids=["shortest", "6g", "17g"])
def precision(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    else:
        monkeypatch.setenv("LASEKIT_PRECISION", request.param)
    return request.param


@pytest.mark.parametrize("p", [TWO, THREE], ids=["two-level", "three-level"])
def test_timeseries_rows_match_per_cell_reference(p, precision):
    series = integrate(p, config=IntegratorConfig(t_max=5.0), stop_at_steady=True)
    buf = io.StringIO()
    emit_timeseries_csv(series, buf, metadata={"seed_field": 1e-3})
    rows = body(buf.getvalue())
    assert len(rows) == len(series.times) > 10
    assert rows == reference_timeseries_rows(series, reference_cell(precision))


def test_timeseries_one_row(precision):
    # started at the stable fixed point, the run stops at t = 0
    series = integrate(THREE, initial=fixed_point_state(THREE), stop_at_steady=True)
    assert len(series.times) == 1 and series.steady
    buf = io.StringIO()
    emit_timeseries_csv(series, buf)
    text = buf.getvalue()
    assert body(text) == reference_timeseries_rows(series, reference_cell(precision))
    assert text.splitlines()[0] == "t,rho11,rho22,y,x,n"
    t0 = reference_cell(precision)(0.0)
    assert text.splitlines()[-1].startswith(f"# settle: converged=true t={t0} ")


def test_timeseries_hand_built_lists(precision):
    series = TimeSeries(
        times=[0, 0.5, 2],
        states=[[1, 0.0, 0.25], [0.5, -1e-300, 3], [0.125, 2.5e-7, 1e300]],
        state_labels=("rho11", "y", "x"),
        steady=False,
        derivative_norm=1.5,
    )
    buf = io.StringIO()
    emit_timeseries_csv(series, buf)
    assert body(buf.getvalue()) == reference_timeseries_rows(series, reference_cell(precision))


@pytest.mark.parametrize("pumps", [
    np.array([1, 2, 30]),
    [1, 2.5, 30],
    np.array([1e-320, 0.1, 1.0 / 3.0]),
    [7],
], ids=["int-array", "list", "float-array", "one-row"])
def test_sweep_rows_match_per_cell_reference(pumps, precision):
    m = len(pumps)
    photons = [0, 12.5, 1e7][:m] if isinstance(pumps, list) else np.linspace(0.0, 2.0, m)
    regimes = (Regime.BELOW_THRESHOLD, Regime.LASING, Regime.ABOVE_UPPER_BOUND)[:m]
    series = SweepSeries(pump_values=pumps, photon_numbers=photons, regimes=regimes,
                         metadata={"points": m, "scale": "log", "pump_min": 0.1})
    buf = io.StringIO()
    emit_sweep_csv(series, buf)
    text = buf.getvalue()
    assert body(text) == reference_sweep_rows(series, reference_cell(precision))
    assert text.count("\n") == 3 + 1 + m


SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 0.1, 1e300, 3.0]


def strict(v: float) -> float | str:
    """A float as RFC 8259 JSON can hold it: non-finite values as strings."""
    if math.isfinite(v):
        return v
    return "nan" if v != v else ("inf" if v > 0 else "-inf")


@pytest.mark.parametrize("metadata", [{}, {"model": "three-b", "n_atoms": 100.0, "steady": True}],
                         ids=["empty-metadata", "metadata"])
@pytest.mark.parametrize("rows", [1, len(SPECIAL), 2 * _CHUNK_ROWS + 3])
def test_emit_json_matches_json_dumps(metadata, rows):
    values = (SPECIAL * rows)[:rows]
    cubes = [v * v * v for v in values]
    settle = {"converged": False, "t": 2.5, "derivative_norm": 1e-12}
    buf = io.StringIO()
    _emit_json(buf, metadata, {
        "t": _chunks(np.array(values)),
        "x": _chunks(memoryview(array("d", cubes))),
        "regime": [["lasing"] * rows],
        "none": [],
    }, settle=settle)
    doc = {"metadata": metadata, "t": list(map(strict, values)), "x": list(map(strict, cubes)),
           "regime": ["lasing"] * rows, "none": [], "settle": settle}
    # compared line by line, which keeps pytest's report of a mismatch short
    expected = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert buf.getvalue().splitlines(keepends=True) == expected.splitlines(keepends=True)


# a scheme-B window with a leak: threshold 0.304, upper edge 76.1, so a
# log sweep over [0.1, 200] passes all three regimes
LONG_PARAMS = {"photon_scale": 10.0, "saturation": 0.01, "decay_ratio": 0.3}
LONG_ARGS = ["--pump-min", "0.1", "--pump-max", "200", "--points", "2500", "--scale", "log"]


def long_sweep(tmp_path, fmt: str) -> str:
    """What ``lasekit sweep`` writes for the long sweep in ``fmt``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "three-b", "parameterization": "dimensionless",
                               "params": LONG_PARAMS}), encoding="utf-8")
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--config", str(cfg), "--format", fmt, "--out", str(out),
                 *LONG_ARGS]) == 0
    return out.read_text(encoding="utf-8")


def long_reference() -> SweepSeries:
    series = sweep(partial(n_scheme_b, DimensionlessSchemeB(**LONG_PARAMS)),
                   (0.1, 200.0), 2500, "log")
    assert len(series.regimes) > 2 * _CHUNK_ROWS
    assert set(series.regimes) == set(Regime)
    return series


def test_long_sweep_csv_rows_match_per_cell_reference(tmp_path, precision):
    # the regime column, written from one list, stays aligned with the
    # float columns, written a chunk at a time, across chunk boundaries
    rows = body(long_sweep(tmp_path, "csv"))
    assert rows == reference_sweep_rows(long_reference(), reference_cell(precision))


def test_long_sweep_json_matches_json_dumps(tmp_path):
    series = long_reference()
    doc = {
        "metadata": {"model": "three-b", "parameterization": "dimensionless",
                     **dict(sorted(LONG_PARAMS.items())),
                     "pump_min": 0.1, "pump_max": 200.0, "points": 2500, "scale": "log"},
        "pump": series.pump_values.tolist(),
        "photon_number": series.photon_numbers.tolist(),
        "regime": [r.value for r in series.regimes],
    }
    expected = json.dumps(doc, indent=2) + "\n"
    text = long_sweep(tmp_path, "json")
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


# the README scheme-B rates pumped at gamma_02 = 0.5: the fixed point is
# Hopf-unstable, so the run records every accepted step up to t_max,
# more than two chunks of rows
HOPF = dataclasses.replace(THREE, gamma_02=0.5)


@cache
def hopf_series() -> TimeSeries:
    series = integrate(HOPF, config=IntegratorConfig(t_max=200.0))
    assert len(series.times) > 2 * _CHUNK_ROWS and not series.steady
    return series


def settle_line(series: TimeSeries, cell) -> str:
    return (f"# settle: converged=false t={cell(series.times[-1])} "
            f"photon_number={cell(series.photon_numbers[-1])} "
            f"derivative_norm={cell(series.derivative_norm)}")


def test_long_timeseries_csv_rows_match_per_cell_reference(precision):
    series = hopf_series()
    buf = io.StringIO()
    emit_timeseries_csv(series, buf)
    text = buf.getvalue()
    cell = reference_cell(precision)
    assert body(text) == reference_timeseries_rows(series, cell)
    assert text.splitlines()[-1] == settle_line(series, cell)


def test_long_dynamics_csv_rows_match_per_cell_reference(tmp_path, precision):
    cfg = tmp_path / "cfg.json"
    params = {k: v for k, v in dataclasses.asdict(THREE).items() if k != "scheme"}
    cfg.write_text(json.dumps({"model": "three-b", "parameterization": "physical",
                               "params": params}), encoding="utf-8")
    out = tmp_path / "run.csv"
    assert main(["dynamics", "--config", str(cfg), "--pump", "0.5", "--t-max", "200",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    series, cell = hopf_series(), reference_cell(precision)
    assert body(text) == reference_timeseries_rows(series, cell)
    assert text.splitlines()[-1] == settle_line(series, cell)


# finite doubles, with the signed zeros, subnormals and 1e300 (whose n is inf) drawn often
CELLS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def drawn_series(draw) -> TimeSeries:
    labels = draw(st.sampled_from([("rho11", "y", "x"), ("rho11", "rho22", "y", "x")]))
    times = sorted(draw(st.lists(CELLS, min_size=1, max_size=50, unique=True)))
    rows = [draw(st.lists(CELLS, min_size=len(labels), max_size=len(labels))) for _ in times]
    return TimeSeries(times=np.array(times), states=np.array(rows).reshape(len(times), -1),
                      state_labels=labels, steady=draw(st.booleans()),
                      derivative_norm=draw(st.floats(min_value=0.0, allow_nan=False)))


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def test_drawn_timeseries_round_trip_their_csv_and_write_n_as_x_squared(monkeypatch):
    monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    metadata = {"model": "three-b", "pump": 2.5}

    @settings(derandomize=True, database=None, deadline=None)
    @given(drawn_series())
    def check(series):
        buf = io.StringIO()
        emit_timeseries_csv(series, buf, metadata)
        back, meta = parse_timeseries_csv(io.StringIO(buf.getvalue()))
        assert meta == metadata
        for f in dataclasses.fields(TimeSeries):
            a, b = getattr(series, f.name), getattr(back, f.name)
            assert (bits(a) == bits(b)) if f.name in ("times", "states") else a == b, f.name
        assert bits(back.photon_numbers) == bits(series.photon_numbers)
        x = series.states[:, series.state_labels.index("x")]
        with np.errstate(over="ignore"):
            assert bits(series.photon_numbers) == bits(x ** 2)

        buf = io.StringIO()
        _emit_json(buf, metadata, *_timeseries_columns(
            series.state_labels, [series.times, *series.states.T], series.steady,
            series.derivative_norm))
        doc = json.loads(buf.getvalue(), parse_constant=no_constant)
        assert doc["n"] == [strict(v * v) for v in doc["x"]]
        # the settle object and the arrays both write an infinite n as "inf"
        assert doc["settle"]["photon_number"] == doc["n"][-1]

    check()


@pytest.mark.parametrize("text, message", [
    ("t,rho11,y,x,n\n# settle: converged=true\n", "a time series needs >= 1 time"),
    ("t,rho11,y,n\n0.0,0.5,0.1,0.0\n", "a time series needs >= 1 time"),
    ("t,rho11,y,x,n\n0.0,0.5,0.1,0.2,0.04\n1.0,0.5,0.1,0.04\n",
     "line 3: 4 cells where the header 't,rho11,y,x,n' has 5"),
], ids=["header-only", "no-x", "ragged-row"])
def test_parse_timeseries_csv_rejects_documents_without_a_series(text, message):
    with pytest.raises(ValueError) as err:
        parse_timeseries_csv(io.StringIO(text))
    assert str(err.value).startswith(message)
