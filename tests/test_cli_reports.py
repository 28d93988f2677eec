"""Byte-for-byte golden of the ``steady`` and ``region`` reports.

Every model in both parameterizations, in text and JSON: ``steady`` at
the configured pump (an error for dimensionless configs, which fix no
pump rate) and at ``--pump 3.5``, and ``region``.  Each case pins the
exit code, stdout and stderr.  After an intentional change, regenerate
the golden with ``PYTHONPATH=src python tests/test_cli_reports.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lasekit.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "cli_reports.json"

CONFIGS = {
    "two-level/physical": {
        "n_atoms": 4000, "coupling_g": 0.1, "cavity_kappa": 1,
        "gamma_decay": 1, "pump_Gamma": 2.0, "gamma_ph": 0.25,
    },
    "two-level/dimensionless": {
        "photon_scale": 1e3, "saturation": 1e-6, "dephasing": 1e5,
    },
    "three-a/physical": {
        "n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
        "gamma_21": 1, "gamma_02": 2, "gamma_10": 0.1, "gamma_ph": 0,
    },
    "three-a/dimensionless": {
        "photon_scale": 1e6, "saturation": 0.2, "decay_ratio": 0.01,
    },
    "three-b/physical": {
        "n_atoms": 100, "coupling_g": 1, "cavity_kappa": 1,
        "gamma_21": 1, "gamma_02": 2, "gamma_10": 0.1,
    },
    "three-b/dimensionless": {
        "photon_scale": 1e5, "saturation": 0.01, "decay_ratio": 0.0, "dephasing": 0.1,
    },
}
COMMANDS = {
    "steady": ["steady"],
    "steady-pump-3.5": ["steady", "--pump", "3.5"],
    "region": ["region"],
}
FORMATS = ("text", "json")
CASES = [f"{cfg}/{cmd}/{fmt}" for cfg in CONFIGS for cmd in COMMANDS for fmt in FORMATS]


def run_case(case: str, workdir: str) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    model, parameterization, command, fmt = case.split("/")
    path = os.path.join(workdir, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "model": model,
            "parameterization": parameterization,
            "params": CONFIGS[f"{model}/{parameterization}"],
        }, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[command] + ["--config", path, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(case, str(tmp_path)) == golden[case]


if __name__ == "__main__":
    os.environ.pop("LASEKIT_PRECISION", None)
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: run_case(case, tmp) for case in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
