"""Byte-for-byte golden of the series outputs, ``dynamics`` and ``sweep``.

``dynamics --t-max 20`` on the three physical configs of
``test_cli_reports.py``, and a 50-point log ``sweep`` on all six configs,
each in CSV and JSON.  Each case pins the exit code, stdout and stderr.
After an intentional change, regenerate every series golden, this file's
and the nine ``lasekit figure`` CSVs that criterion 09 of
``test_acceptance.py`` compares, with
``PYTHONPATH=src python tests/test_cli_series.py``.
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
from test_cli_reports import CONFIGS

GOLDEN = Path(__file__).parent / "goldens" / "cli_series.json"
FIGURES = ("fig2", "fig4a", "fig4b")

COMMANDS = {
    "dynamics": ["dynamics", "--t-max", "20"],
    "sweep": ["sweep", "--pump-min", "0.1", "--pump-max", "100",
              "--points", "50", "--scale", "log"],
}
FORMATS = ("csv", "json")
CASES = [
    f"{cfg}/{cmd}/{fmt}"
    for cfg in CONFIGS
    for cmd in COMMANDS
    for fmt in FORMATS
    if cmd == "sweep" or cfg.endswith("/physical")
]


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
def test_series_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("LASEKIT_PRECISION", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(case, str(tmp_path)) == golden[case]


if __name__ == "__main__":
    os.environ.pop("LASEKIT_PRECISION", None)
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: run_case(case, tmp) for case in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} cases to {GOLDEN}", file=sys.stderr)
    with contextlib.redirect_stdout(sys.stderr):
        for preset in FIGURES:
            assert main(["figure", preset, "--out", str(GOLDEN.parent)]) == 0
