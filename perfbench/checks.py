"""Output checks, run outside the timed region.

Every check compares a program output with a computation made here, apart
from the program (``recipes``), or with a property the method must have.
Each returns a list of error strings; an empty list means the output
passed.  ``selftest.py`` feeds each one a deliberately wrong output.
"""

from __future__ import annotations

import io
import math

import numpy as np

import recipes as R

SETTLE_REL = 1e-5  # settle vs closed form (criterion-01/02 gate)
IDENTITY_REL = 1e-12  # two evaluations of one closed form
OPTIMUM_REL = 1e-6  # maximizer vs stationary point
DARK_PHOTONS = 1e-8  # photon number a non-lasing run must end below
POP_SLACK = 1e-6  # population slack the parameter records allow


def identity_error(a: float, b: float, scale: float, what: str) -> list[str]:
    """|a - b| within IDENTITY_REL relative, falling back to the natural
    term scale where the compared value is cancellation-dominated."""
    if abs(a - b) <= IDENTITY_REL * max(abs(a), abs(b), 1e-2 * scale):
        return []
    return [f"{what}: {a!r} vs {b!r} (term scale {scale:.3e})"]


def rel_error(value: float, reference: float, tol: float, what: str) -> list[str]:
    if abs(value - reference) <= tol * abs(reference):
        return []
    return [f"{what}: {value!r} vs {reference!r}, rel {abs(value - reference) / abs(reference):.2e} > {tol:g}"]


def check_photons(model: str, prm: dict, pumps, photons, what: str) -> list[str]:
    """Every photon number equals photon_scale * max(0, bracket(pump))."""
    errors: list[str] = []
    for pump, n in zip(pumps, photons):
        expected, scale = R.photon_number(model, prm, float(pump))
        errors += identity_error(float(n), expected, scale, f"{what} at pump {pump!r}")
        if len(errors) >= 3:
            break
    return errors


def check_region(model: str, prm: dict, threshold, window, optimum_pump) -> list[str]:
    """Threshold and window edges bracket a sign change of the bracket;
    the optimum sits on the stationary point; a window is reported exactly
    when the bracket polynomial has one."""
    errors: list[str] = []
    edges = [] if threshold is None else [threshold]
    if window is not None:
        edges += [e for e in window if math.isfinite(e)]
    for edge in edges:
        h = 1e-6 * max(1.0, abs(edge))
        lo, _ = R.bracket(model, prm, edge - h)
        hi, _ = R.bracket(model, prm, edge + h)
        if not lo * hi < 0.0:
            errors.append(f"{model} edge {edge!r} brackets no sign change ({lo!r}, {hi!r})")
    if model != "three-a":
        has_window = R.quadratic_window(*R.coeffs(model, prm)) is not None
        if has_window != (window is not None):
            errors.append(f"{model}: window reported {window!r}, polynomial says {has_window}")
    if optimum_pump is not None:
        errors += rel_error(optimum_pump, R.stationary_pump(model, prm), OPTIMUM_REL, f"{model} optimum")
    return errors


def check_settle(p, result) -> list[str]:
    """The settle converged onto the closed-form photon number."""
    if not result.converged:
        return [f"settle did not converge (t = {result.time!r})"]
    return rel_error(result.photon_number, R.photon_number_physical(p), SETTLE_REL, "settle photon number")


def check_trajectory(kind: str, p, series, t_max: float | None = None) -> list[str]:
    """``kind`` is 'lasing' (ends steady on the closed form), 'dark' (ends
    with no photons) or 'pulsing' (Hopf-unstable: runs to t_max without
    settling, populations stay physical)."""
    end = float(series.photon_numbers[-1])
    if kind == "lasing":
        if not series.steady:
            return [f"lasing run did not end steady (t = {series.times[-1]!r})"]
        return rel_error(end, R.photon_number_physical(p), SETTLE_REL, "trajectory end photon number")
    if kind == "dark":
        return [] if end < DARK_PHOTONS else [f"non-lasing run ends with {end!r} photons"]
    errors = []
    if series.steady:
        errors.append("pulsing run reported as settled")
    if series.times[-1] != t_max:
        errors.append(f"pulsing run stopped at t = {series.times[-1]!r}, not t_max = {t_max!r}")
    if not float(R.fixed_point_eigenvalues(p).real.max()) > 0.0:
        errors.append("pulsing run's fixed point has no unstable eigenvalue")
    cols = dict(zip(series.state_labels, series.states.T))
    rho11 = cols["rho11"]
    rho22 = cols.get("rho22", np.zeros_like(rho11))
    for name, pop in (("rho11", rho11), ("rho22", rho22), ("rho00", 1.0 - rho11 - rho22)):
        if pop.min() < -POP_SLACK or pop.max() > 1.0 + POP_SLACK:
            errors.append(f"pulsing run {name} leaves [0, 1]: [{pop.min()!r}, {pop.max()!r}]")
    return errors


def check_roundtrip(series, text: str) -> list[str]:
    """The emitted CSV parses back to bit-identical arrays."""
    from lasekit.cli import parse_timeseries_csv

    try:
        back, _ = parse_timeseries_csv(io.StringIO(text))
    except ValueError as e:
        return [f"time-series CSV does not parse: {e}"]
    errors = []
    for name in ("times", "states", "photon_numbers"):
        a, b = getattr(series, name), getattr(back, name)
        if a.shape != b.shape or not np.array_equal(a, b):
            errors.append(f"time-series CSV round trip changes {name}")
    if back.state_labels != series.state_labels or back.steady != series.steady:
        errors.append("time-series CSV round trip changes labels or steady flag")
    # the parser derives n from x, so read the emitted n column here
    emitted = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()
               if line and not line.startswith("#") and not line.startswith("t,")]
    if not np.array_equal(np.array(emitted), series.photon_numbers):
        errors.append("time-series CSV n column differs from the photon numbers")
    return errors


def parse_sweep_text(text: str) -> tuple[dict, list[float], list[float]]:
    """(metadata, pumps, photon numbers) of a sweep CSV, read here rather
    than with the program's own parser."""
    meta: dict = {}
    pumps: list[float] = []
    photons: list[float] = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line == "pump,photon_number,regime":
            break
        else:
            raise ValueError(f"unexpected sweep CSV line {line!r}")
    for line in lines:
        pump, n, _ = line.split(",")
        pumps.append(float(pump))
        photons.append(float(n))
    if not pumps:
        raise ValueError("sweep CSV has no rows")
    return meta, pumps, photons


def check_sweep_text(model: str, prm: dict, text: str, points: int, what: str) -> list[str]:
    try:
        _, pumps, photons = parse_sweep_text(text)
    except ValueError as e:
        return [f"{what}: {e}"]
    if len(pumps) != points:
        return [f"{what}: {len(pumps)} rows, expected {points}"]
    return check_photons(model, prm, pumps, photons, what)


def sweep_params(meta: dict) -> tuple[str, dict]:
    """Model and dimensionless parameters from a sweep CSV's metadata."""
    keys = ("photon_scale", "saturation", "decay_ratio", "dephasing")
    return meta["model"], {k: float(meta[k]) for k in keys if k in meta}
