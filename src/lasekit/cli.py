"""Command-line frontend.

Subcommands: ``steady`` (one steady-state evaluation), ``region``
(threshold / lasing-window / optimum report), ``sweep`` (pump sweep),
``dynamics`` (time-domain run) and ``figure`` (the bundled sweep
presets).  Model parameters come from a JSON config document:

    {
      "model": "two-level" | "three-a" | "three-b",
      "parameterization": "physical" | "dimensionless",
      "params": { ... keys per model ... },
      "integrator": { "rel_tol": ..., ... }        # optional
      "initial":    { "rho11": ..., "x": ... }     # optional, dynamics only
    }

Floats are printed in shortest round-trip form so emitted CSV is
bit-stable and parses back to identical values; LASEKIT_PRECISION
overrides the number of significant digits.  Exit codes: 0 success
(including no-lasing outcomes), 2 config error, 3 output I/O error,
4 integrator failure.

A series document (``sweep``, ``dynamics``, ``figure``) is assembled
once, as a mapping of column names to chunks of their values, and
written by ``_write_csv`` or ``_emit_json``, which take the same
arguments.  ``numerics`` and ``dynamics`` are imported by the commands
that use them, and numpy (the ``arrays`` extra) only by the emitters and
parsers of array-backed series.  Every command, exit 4 included, runs
without numpy: ``dynamics`` writes its rows straight from the packed step
buffer of the recorded run, ``sweep`` and ``figure`` from the float rows
of ``numerics``, whose pump grid is the same on every CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, TextIO

from .params import (
    BlochState3,
    DimensionlessTwoLevel,
    IntegratorConfig,
    PhysicalThreeLevel,
    PhysicalTwoLevel,
    PumpScheme,
    Regime,
    SteadyResult,
    _SCHEMES,
    _check_rate,
    _gamma_parallel_inversion_rates,
    _numpy,
    gamma_parallel_and_inversion,
    gamma_perp_two,
    reduce_three,
    reduce_two,
)
from . import steady as st

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

    from .dynamics import TimeSeries
    from .numerics import SweepSeries

__all__ = ["main", "ConfigError", "emit_sweep_csv", "parse_sweep_csv",
           "emit_timeseries_csv", "parse_timeseries_csv"]


@dataclass(frozen=True)
class _Model:
    """What the CLI needs of one model.

    The relative pump is the physical rate ``pump_rate`` over the rate
    ``reference_rate`` (a pump scheme's are in ``params._SCHEMES``).
    ``optional`` names a physical rate without a class default that a
    config may leave out: the two-level pump rate (then ``--pump`` sets
    it), the three-level dephasing rate (then 0).
    ``window`` and ``optimum`` are None where the photon number saturates
    in the pump instead of closing a window; ``scheme`` is None for the
    two-level model.
    """

    physical: type
    dimensionless: type
    pump_rate: str
    reference_rate: str
    reduce: Callable
    evaluate: Callable[..., SteadyResult]
    threshold: Callable
    window: Callable | None
    optimum: Callable | None
    optional: str
    scheme: PumpScheme | None = None

    @property
    def three_level(self) -> bool:
        return self.scheme is not None


def _three_level(scheme: PumpScheme, *closed_forms: Callable | None) -> _Model:
    return _Model(PhysicalThreeLevel, *_SCHEMES[scheme], reduce_three, *closed_forms,
                  optional="gamma_ph", scheme=scheme)


_MODELS = {
    "two-level": _Model(
        PhysicalTwoLevel, DimensionlessTwoLevel, "pump_Gamma", "gamma_decay", reduce_two,
        st.n_two_level, st.threshold_two, st.window_two, st.optimum_two, optional="pump_Gamma",
    ),
    "three-a": _three_level(PumpScheme.A, st.n_scheme_a, st.threshold_scheme_a, None, None),
    "three-b": _three_level(PumpScheme.B, st.n_scheme_b, st.threshold_scheme_b,
                            st.window_scheme_b, st.optimum_scheme_b),
}
_PARAMETERIZATIONS = ("physical", "dimensionless")


class ConfigError(Exception):
    """Invalid run configuration; message lists the offending keys."""


def _float_format() -> Callable[[float], str]:
    """Text of a float: shortest round-trip, or LASEKIT_PRECISION
    significant digits; read once per emitted document."""
    prec = os.environ.get("LASEKIT_PRECISION")
    if not prec:
        return float.__repr__
    try:
        spec = f".{int(prec)}g"
        format(0.0, spec)
    except ValueError as e:
        raise ConfigError(f"LASEKIT_PRECISION: {e}") from e
    return f"{{:{spec}}}".format


def _meta_text(v: object, fmt: Callable[[float], str]) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt(v)
    return str(v)


def _meta_parse(text: str) -> object:
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    if text in ("true", "false"):
        return text == "true"
    return text


def _jsonable(obj: object) -> object:
    """Recursively make report values JSON-clean (inf -> 'inf', etc.)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, Regime):
        return obj.value
    return obj


def _print_report(report: dict, fmt: str, fh: TextIO) -> None:
    if fmt == "json":
        json.dump(_jsonable(report), fh, indent=2)
        fh.write("\n")
        return
    float_text = _float_format()
    for key, value in report.items():
        if isinstance(value, dict):
            fh.write(f"{key}:\n")
            for k2, v2 in value.items():
                fh.write(f"  {k2}: {_meta_text(_jsonable(v2), float_text)}\n")
        else:
            fh.write(f"{key}: {_meta_text(_jsonable(value), float_text)}\n")


# --------------------------------------------------------------------------
# configuration intake
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    model: str
    parameterization: str
    params: dict[str, float]
    integrator: IntegratorConfig
    initial: dict[str, float] | None = None


def _check_number(errors: list[str], where: str, value: object) -> float | None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{where}: must be a number, got {value!r}")
        return None
    return float(value)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: {e}") from e
    return parse_config(doc)


def _number_section(doc: dict, name: str, cls: type, errors: list[str]) -> dict[str, float] | None:
    """The numbers of an optional config section whose keys are fields of ``cls``."""
    keys = [f.name for f in fields(cls)]
    raw = doc.get(name)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append(f"{name}: must be an object")
        return None
    section: dict[str, float] = {}
    for key, value in raw.items():
        if key not in keys:
            errors.append(f"{name}.{key}: unknown key")
            continue
        v = _check_number(errors, f"{name}.{key}", value)
        if v is not None:
            section[key] = v
    return section


def parse_config(doc: object) -> RunConfig:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    model = doc.get("model")
    if not isinstance(model, str) or model not in _MODELS:
        errors.append(f"model: must be one of {list(_MODELS)}, got {model!r}")
    parameterization = doc.get("parameterization")
    if parameterization not in _PARAMETERIZATIONS:
        errors.append(
            f"parameterization: must be one of {list(_PARAMETERIZATIONS)}, "
            f"got {parameterization!r}"
        )
    for key in doc:
        if key not in ("model", "parameterization", "params", "integrator", "initial"):
            errors.append(f"{key}: unknown top-level key")
    if errors:
        raise ConfigError("; ".join(errors))

    raw_params = doc.get("params")
    if not isinstance(raw_params, dict):
        raise ConfigError("params: must be an object")

    spec = _MODELS[model]
    cls = spec.physical if parameterization == "physical" else spec.dimensionless
    # every field but the pump scheme, which comes from the model table
    keys = [f for f in fields(cls) if f.name != "scheme"]
    names = [f.name for f in keys]
    required = [f.name for f in keys if f.default is MISSING and f.name != spec.optional]
    params: dict[str, float] = {}
    for key in required:
        if key not in raw_params:
            errors.append(f"params.{key}: missing required key")
            continue
        v = _check_number(errors, f"params.{key}", raw_params[key])
        if v is not None:
            params[key] = v
    for key in raw_params:
        if key in required:
            continue
        if key not in names:
            errors.append(f"params.{key}: unknown key for {parameterization} {model}")
            continue
        v = _check_number(errors, f"params.{key}", raw_params[key])
        if v is not None:
            params[key] = v
    if parameterization == "physical" and spec.pump_rate in params:
        # --pump replaces this rate and the two-level reduction ignores it,
        # so no later step would see a bad configured value
        try:
            _check_rate(spec.pump_rate, params[spec.pump_rate])
        except ValueError as e:
            errors.append(f"params: {e}")

    integ = IntegratorConfig()
    kwargs = _number_section(doc, "integrator", IntegratorConfig, errors)
    if kwargs is not None and not errors:
        try:
            integ = IntegratorConfig(**kwargs)
        except ValueError as e:
            errors.append(f"integrator: {e}")

    initial = _number_section(doc, "initial", BlochState3, errors)

    if errors:
        raise ConfigError("; ".join(errors))
    return RunConfig(model, parameterization, params, integ, initial)


# --------------------------------------------------------------------------
# model assembly
# --------------------------------------------------------------------------

def _dimensionless(cfg: RunConfig):
    """Reduced parameters for the configured model (pump kept separate)."""
    spec = _MODELS[cfg.model]
    try:
        if cfg.parameterization == "dimensionless":
            return spec.dimensionless(**cfg.params)
        # a pump rate the config may leave out does not enter the reduction
        pump = 0.0 if spec.optional == spec.pump_rate else None
        return spec.reduce(_physical(cfg, pump))[0]
    except ValueError as e:
        raise ConfigError(f"params: {e}") from e


def _physical(cfg: RunConfig, pump: float | None):
    """Physical rate set; ``pump`` (relative) overrides the configured
    pump rate when given."""
    if cfg.parameterization != "physical":
        raise ConfigError(
            "this operation needs the physical parameterization "
            "(dimensionless parameters do not fix every rate)"
        )
    spec = _MODELS[cfg.model]
    rates: dict[str, object] = dict(cfg.params)
    if pump is not None:
        ref = cfg.params[spec.reference_rate]
        rates[spec.pump_rate] = rate = pump * ref
        if rate == math.inf:
            raise ConfigError(f"--pump {pump!r} times params.{spec.reference_rate}={ref!r} "
                              f"overflows {spec.pump_rate}")
    elif spec.pump_rate not in rates:
        raise ConfigError(
            f"params.{spec.pump_rate}: required (or pass --pump) for this command"
        )
    rates.setdefault(spec.optional, 0.0)
    if spec.three_level:
        rates["scheme"] = spec.scheme
    try:
        return spec.physical(**rates)
    except ValueError as e:
        raise ConfigError(f"params: {e}") from e


def _check_pump(pump: float | None) -> float | None:
    """The ``--pump`` argument of any command, None when not given."""
    if pump is not None and not 0.0 <= pump < math.inf:
        raise ConfigError(f"--pump: must be finite and >= 0, got {pump}")
    return pump


def _resolve_pump(cfg: RunConfig, arg_pump: float | None) -> float:
    if _check_pump(arg_pump) is not None:
        return arg_pump
    # the relative pump implied by the configured rates, if any
    spec = _MODELS[cfg.model]
    p = cfg.params
    if cfg.parameterization == "physical" and spec.pump_rate in p and p[spec.reference_rate] > 0:
        pump = p[spec.pump_rate] / p[spec.reference_rate]
        if pump == math.inf:
            raise ConfigError(
                f"params: {spec.pump_rate}={p[spec.pump_rate]!r} over "
                f"{spec.reference_rate}={p[spec.reference_rate]!r} overflows the "
                "relative pump; pass --pump"
            )
        return pump
    raise ConfigError("--pump: required (the config does not fix a pump rate)")


def _evaluator(cfg: RunConfig) -> Callable[[float], SteadyResult]:
    return partial(_MODELS[cfg.model].evaluate, _dimensionless(cfg))


# --------------------------------------------------------------------------
# CSV emission / parsing
# --------------------------------------------------------------------------

_CHUNK_ROWS = 1024
_SWEEP_HEADER = ("pump", "photon_number", "regime")


def _chunks(column) -> Iterator[list]:
    """A column, a list, a numpy array or a 1-D memoryview of doubles, as
    lists of Python values, a chunk of rows at a time."""
    for i in range(0, len(column), _CHUNK_ROWS):
        chunk = column[i:i + _CHUNK_ROWS]
        yield chunk if isinstance(chunk, list) else chunk.tolist()


def _write_csv(
    fh: TextIO,
    metadata: Mapping[str, object],
    columns: Mapping[str, Iterable[list]],
    settle: Mapping[str, object] | None = None,
) -> None:
    """Write one CSV document, the format of every series lasekit emits::

        # key=value                     one line per metadata item
        name,name,...                   the header: the column names
        cell,cell,...                   one line per row
        # settle: key=value key=value   the ``settle`` footer, if any

    Each column comes as chunks of the same rows (see :func:`_chunks`), so
    a long series never exists as Python values all at once; each chunk of
    rows is written with one call.  A chunk of str (the sweep's regimes) is
    written as it is, any other as ``_float_format`` text; booleans are
    ``true``/``false``.  :func:`_emit_json` takes the same arguments, and
    :func:`_read_csv` reads the document back."""
    fmt = _float_format()
    write = fh.write
    for key, value in metadata.items():
        write(f"# {key}={_meta_text(value, fmt)}\n")
    write(",".join(columns) + "\n")
    for chunk in zip(*columns.values()):
        if chunk[0]:
            cells = [c if isinstance(c[0], str) else map(fmt, c) for c in chunk]
            write("\n".join(map(",".join, zip(*cells))) + "\n")
    if settle is not None:
        write("# settle: " + " ".join(f"{k}={_meta_text(v, fmt)}" for k, v in settle.items()) + "\n")


def _read_csv(fh: TextIO) -> tuple[dict, dict, str, Iterator[list[str]]]:
    """The metadata, footer, header line and rows (lists of cell text) of a
    :func:`_write_csv` document.  Rows are read as they are iterated, so the
    metadata and footer are complete once they are exhausted.  Blank lines
    and comment lines without ``=`` are skipped."""
    metadata: dict[str, object] = {}
    footer: dict[str, object] = {}

    def lines() -> Iterator[str]:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# settle:"):
                for item in line[len("# settle:"):].split():
                    key, _, value = item.partition("=")
                    footer[key] = _meta_parse(value)
            elif line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    metadata[key.strip()] = _meta_parse(value.strip())
            elif line:
                yield line

    body = lines()
    header = next(body, None)
    if header is None:
        raise ValueError("no header line found")
    return metadata, footer, header, (line.split(",") for line in body)


def _sweep_columns(pumps, photons, regimes: Iterable[Regime]) -> dict[str, Iterator[list]]:
    """The columns of a sweep document, named by ``_SWEEP_HEADER``; the
    pumps and photon numbers as :func:`_chunks` takes them."""
    regimes = [r._value_ for r in regimes]  # the plain attribute: .value is a property
    return dict(zip(_SWEEP_HEADER, map(_chunks, (pumps, photons, regimes))))


def emit_sweep_csv(series: SweepSeries, fh: TextIO) -> None:
    np = _numpy("emit_sweep_csv")
    _write_csv(fh, series.metadata, _sweep_columns(
        np.asarray(series.pump_values, dtype=float),
        np.asarray(series.photon_numbers, dtype=float), series.regimes))


def parse_sweep_csv(fh: TextIO) -> SweepSeries:
    from .numerics import SweepSeries

    np = _numpy("parse_sweep_csv")
    metadata, _, header, rows = _read_csv(fh)
    if header != ",".join(_SWEEP_HEADER):
        raise ValueError(f"unexpected sweep CSV header: {header!r}")
    pumps, photons, regimes = [], [], []
    for pump, n, regime in rows:  # a row of any other length raises
        pumps.append(float(pump))
        photons.append(float(n))
        regimes.append(Regime(regime))
    return SweepSeries(
        pump_values=np.array(pumps),
        photon_numbers=np.array(photons),
        regimes=tuple(regimes),
        metadata=metadata,
    )


def _timeseries_columns(
    labels: Sequence[str], columns: Sequence, steady: bool, fnorm: float, photons=None
) -> tuple[dict[str, Iterator[list]], dict[str, object]]:
    """The columns t, the state components named by ``labels`` and n of a
    time series, and its ``settle`` footer: how the run ended.  ``columns``
    holds t and the components as :func:`_chunks` takes them; n is
    ``photons``, or else x * x of the last, numpy's x ** 2 bit for bit."""
    named = dict(zip(("t", *labels), map(_chunks, columns)))
    if photons is None:
        x = columns[-1]
        named["n"], last = ([v * v for v in chunk] for chunk in _chunks(x)), x[-1] * x[-1]
    else:
        named["n"], last = _chunks(photons), photons[-1]
    return named, {"converged": steady, "t": float(columns[0][-1]),
                   "photon_number": float(last), "derivative_norm": float(fnorm)}


def emit_timeseries_csv(
    series: TimeSeries, fh: TextIO, metadata: dict[str, object] | None = None
) -> None:
    np = _numpy("emit_timeseries_csv")
    states = np.asarray(series.states, dtype=float)
    _write_csv(fh, metadata or {}, *_timeseries_columns(
        series.state_labels, [np.asarray(series.times, dtype=float), *states.T],
        series.steady, series.derivative_norm,
        np.asarray(series.photon_numbers, dtype=float)))


def parse_timeseries_csv(fh: TextIO) -> tuple[TimeSeries, dict[str, object]]:
    from .dynamics import TimeSeries

    np = _numpy("parse_timeseries_csv")
    metadata, footer, header, rows = _read_csv(fh)
    cols = header.split(",")
    if cols[0] != "t" or cols[-1] != "n":
        raise ValueError(f"unexpected time-series header: {header!r}")
    labels = tuple(cols[1:-1])
    times, state_rows = [], []
    for cells in ([float(c) for c in row] for row in rows):
        times.append(cells[0])
        state_rows.append(cells[1:-1])
    states = np.array(state_rows)
    series = TimeSeries(
        times=np.array(times),
        states=states,
        photon_numbers=states[:, labels.index("x")] ** 2,
        state_labels=labels,
        steady=bool(footer.get("converged", False)),
        derivative_norm=float(footer.get("derivative_norm", math.nan)),
    )
    return series, metadata


def _emit_json(
    fh: TextIO,
    metadata: Mapping[str, object],
    columns: Mapping[str, Iterable[list]],
    settle: Mapping[str, object] | None = None,
) -> None:
    """The JSON form of a :func:`_write_csv` document, from the same
    arguments and byte for byte as ``json.dump(doc, fh, indent=2)`` writes
    it: the ``metadata`` object, one array per column, then the ``settle``
    object, if any.  Each column is written a chunk at a time, so a long
    run never exists as Python values all at once."""
    # the items of an array one level down, as indent=2 separates them
    items = json.JSONEncoder(separators=(",\n    ", ": ")).encode

    def member(key: str, value: object) -> str:
        return json.dumps(key) + ": " + json.dumps(value, indent=2).replace("\n", "\n  ")

    write = fh.write
    write("{\n  " + member("metadata", _jsonable(dict(metadata))))
    for key, chunks in columns.items():
        write(",\n  " + json.dumps(key) + ": [")
        empty = True
        for chunk in chunks:
            if chunk:
                write(("\n    " if empty else ",\n    ") + items(chunk)[1:-1])
                empty = False
        write("]" if empty else "\n  ]")
    if settle is not None:
        write(",\n  " + member("settle", _jsonable(dict(settle))))
    write("\n}\n")


_SERIES_WRITERS = {"csv": _write_csv, "json": _emit_json}


def _write_series(args: argparse.Namespace, *document) -> None:
    """A series document (:func:`_write_csv`'s arguments) in --format to --out or stdout."""
    out = contextlib.nullcontext(sys.stdout) if args.out is None else open(
        args.out, "w", encoding="utf-8", newline="")
    with out as fh:
        _SERIES_WRITERS[args.format](fh, *document)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def _window_dict(w: st.LasingWindow | None) -> dict | None:
    return None if w is None else asdict(w)


def _extremum_dict(e: st.ExtremumReport | None) -> dict | None:
    if e is None:
        return None
    out = asdict(e)
    if e.photon_max_estimate is None:
        # the peak estimate exists for the two-level model only
        del out["photon_max_estimate"], out["photon_max_rel_err"]
    return out


def _steady_report(cfg: RunConfig, arg_pump: float | None) -> dict:
    """The ``steady`` report at ``--pump``, or else at the configured rates
    themselves, not at a rate rebuilt from their ratio, which is ``pump``."""
    spec = _MODELS[cfg.model]
    physical = cfg.parameterization == "physical"
    pump = _resolve_pump(cfg, arg_pump)
    report: dict[str, object] = {
        "model": cfg.model,
        "parameterization": cfg.parameterization,
        "pump": pump,
    }
    if physical and spec.three_level:
        p = _physical(cfg, arg_pump)
        try:
            res = st.n_three_physical(p)
        except ValueError as e:
            raise ConfigError(f"params: {e}") from e
        gpar, inv = gamma_parallel_and_inversion(p)
    else:
        d = _dimensionless(cfg)
        res = spec.evaluate(d, pump)
        if physical:
            # report the coherence decay in physical units
            res = replace(res, gamma_perp=gamma_perp_two(_physical(cfg, arg_pump)))
        elif spec.three_level:
            # rates in units of the reference rate
            gpar, inv = _gamma_parallel_inversion_rates(
                **{spec.pump_rate: pump, spec.reference_rate: 1.0}, gamma_10=d.decay_ratio
            )
    report["photon_number"] = res.photon_number
    report["regime"] = res.regime
    report["raw_bracket"] = res.raw_bracket
    report["gamma_perp"] = res.gamma_perp
    report["populations"] = dict(zip(("rho00", "rho11", "rho22"), res.populations))
    if spec.three_level:
        report["gamma_parallel"] = gpar
        report["equilibrium_inversion"] = inv
    return report


def _region_report(cfg: RunConfig) -> dict:
    spec = _MODELS[cfg.model]
    d = _dimensionless(cfg)
    thr = spec.threshold(d)
    report: dict[str, object] = {
        "model": cfg.model,
        "parameterization": cfg.parameterization,
        "threshold": thr,
    }
    if spec.window is None:
        # the photon number saturates in the pump: no upper edge, no optimum
        report["lasing_possible"] = thr is not None
        report["saturation_limit"] = st.saturation_limit_scheme_a(d)
        if cfg.parameterization == "physical":
            p = _physical(cfg, pump=None)
            report["n_min_atoms"] = st.n_min_atoms(p)
            if p.gamma_10 > 0:
                dep = st.depletion_ratio_window(p)
                report["depletion_ratio_window"] = _window_dict(dep.exact)
                report["depletion_ratio_window_asymptotic"] = _window_dict(dep.asymptotic)
        return report
    win = spec.window(d)
    report["lasing_possible"] = win.exact is not None
    report["window"] = _window_dict(win.exact)
    report["window_asymptotic"] = _window_dict(win.asymptotic)
    if not spec.three_level:
        report["pump_restriction"] = _window_dict(win.necessary)
    report["window_upper_rel_err"] = win.upper_rel_err
    report["optimum"] = _extremum_dict(spec.optimum(d))
    return report


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_steady(args: argparse.Namespace) -> int:
    _print_report(_steady_report(load_config(args.config), args.pump), args.format, sys.stdout)
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _print_report(_region_report(cfg), args.format, sys.stdout)
    return 0


def _metadata(cfg: RunConfig, **extra: object) -> dict[str, object]:
    """Metadata of an emitted document: the configuration, then ``extra``."""
    meta: dict[str, object] = {
        "model": cfg.model,
        "parameterization": cfg.parameterization,
    }
    for key in sorted(cfg.params):
        meta[key] = cfg.params[key]
    meta.update(extra)
    return meta


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .numerics import _sweep_rows

    cfg = load_config(args.config)
    if args.pump_min is None or args.pump_max is None:
        raise ConfigError("--pump-min and --pump-max are required")
    try:
        rows = _sweep_rows(_evaluator(cfg), (args.pump_min, args.pump_max), args.points,
                           args.scale)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    meta = _metadata(cfg, pump_min=args.pump_min, pump_max=args.pump_max,
                     points=args.points, scale=args.scale)
    _write_series(args, meta, _sweep_columns(*rows))
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    from .dynamics import StiffnessError, _recorded, initial_state

    cfg = load_config(args.config)
    p = _physical(cfg, _check_pump(args.pump))

    integ = cfg.integrator
    if args.t_max is not None:
        integ = replace(integ, t_max=args.t_max)

    try:
        # the start's no-field populations fail only on the rates, which
        # makes it a config error, as steady reports it; the seed field
        # is checked on its own below
        init = initial_state(p, seed_field=0.0)
    except ValueError as e:
        raise ConfigError(f"params: {e}") from e
    init = replace(init, x=args.seed_field)
    if cfg.initial:
        foreign = sorted(cfg.initial.keys() - {f.name for f in fields(init)})
        if foreign:
            raise ConfigError(f"initial.{foreign[0]}: not a two-level state component")
        try:
            init = replace(init, **cfg.initial)
        except ValueError as e:
            raise ConfigError(f"initial: {e}") from e

    try:
        labels, steady, fnorm, columns = _recorded(p, init, integ, stop_at_steady=True)
    except StiffnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4

    meta = _metadata(cfg)
    if args.pump is not None:
        meta["pump"] = args.pump
    meta["seed_field"] = args.seed_field
    _write_series(args, meta, *_timeseries_columns(labels, columns, steady, fnorm))
    return 0


_FIGURE_PRESETS: dict[str, dict] = {
    "fig2": {
        "model": "two-level",
        "params": {"photon_scale": 1e3, "dephasing": 1e5},
        "saturations": (7e-7, 1e-6, 1.33e-6),
    },
    "fig4a": {
        "model": "three-a",
        "params": {"photon_scale": 1e6, "decay_ratio": 0.01, "dephasing": 0.0},
        "saturations": (0.0, 0.2, 0.5),
    },
    "fig4b": {
        "model": "three-b",
        "params": {"photon_scale": 1e5, "decay_ratio": 0.0, "dephasing": 0.1},
        "saturations": (0.1, 0.02, 0.01),
    },
}
_FIGURE_POINTS = 400


def _figure_curves(
    preset: str,
) -> Iterator[tuple[dict[str, object], Callable[[float], SteadyResult], tuple[float, float]]]:
    """The metadata, model and pump range of each curve of a figure preset.

    Pump ranges are [max(1e-2, 0.5*threshold), 1.2*upper window edge];
    models without a finite upper edge sweep to 1e2, which covers both
    the linear rise and the saturation plateau.
    """
    spec = _FIGURE_PRESETS[preset]
    model = _MODELS[spec["model"]]
    for index, saturation in enumerate(spec["saturations"]):
        params = dict(spec["params"])
        params["saturation"] = saturation
        cfg = parse_config(
            {
                "model": spec["model"],
                "parameterization": "dimensionless",
                "params": params,
            }
        )
        d = _dimensionless(cfg)
        thr = model.threshold(d)
        win = model.window(d).exact if model.window else None
        lo = max(1e-2, 0.5 * (thr or 0.0))
        if win is not None and math.isfinite(win.upper):
            hi = 1.2 * win.upper
        else:
            hi = 1e2
        meta = _metadata(cfg, pump_min=lo, pump_max=hi, points=_FIGURE_POINTS, scale="log")
        yield {"preset": preset, "curve": index + 1, **meta}, _evaluator(cfg), (lo, hi)


def _cmd_figure(args: argparse.Namespace) -> int:
    from .numerics import _sweep_rows

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for index, (meta, evaluate, pumps) in enumerate(_figure_curves(args.preset)):
        rows = _sweep_rows(evaluate, pumps, _FIGURE_POINTS, "log")
        path = os.path.join(outdir, f"{args.preset}_curve{index + 1}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, meta, _sweep_columns(*rows))
        print(path)
    return 0


# --------------------------------------------------------------------------
# parser / entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lasekit",
        description="Steady-state and time-domain models of strongly pumped lasers.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(sp: argparse.ArgumentParser, formats: tuple[str, str]) -> None:
        sp.add_argument("--config", required=True, help="JSON model configuration")
        sp.add_argument(
            "--format",
            choices=formats,
            default=formats[0],
            help=f"output format (default: {formats[0]})",
        )

    sp = sub.add_parser("steady", help="evaluate one steady state")
    add_common(sp, ("text", "json"))
    sp.add_argument("--pump", type=float, default=None, help="relative pump rate")
    sp.set_defaults(func=_cmd_steady)

    sp = sub.add_parser("region", help="threshold, lasing window and optimum report")
    add_common(sp, ("text", "json"))
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("sweep", help="photon number vs pump sweep (CSV)")
    add_common(sp, ("csv", "json"))
    sp.add_argument("--pump-min", type=float, default=None)
    sp.add_argument("--pump-max", type=float, default=None)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--scale", choices=("linear", "log"), default="linear")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("dynamics", help="time-domain trajectory (CSV)")
    add_common(sp, ("csv", "json"))
    sp.add_argument("--pump", type=float, default=None, help="relative pump override")
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument(
        "--seed-field", type=float, default=1e-3,
        help="initial field quadrature x (default: 1e-3); write a negative "
        "value in exponent notation as --seed-field=-1e-3",
    )
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_dynamics)

    sp = sub.add_parser("figure", help="bundled sweep presets")
    sp.add_argument("preset", choices=tuple(_FIGURE_PRESETS))
    sp.add_argument("--out", default=None, help="output directory (default: .)")
    sp.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
