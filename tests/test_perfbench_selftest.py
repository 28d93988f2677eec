"""The benchmark's output checks, run on the library as it is: each must
pass the real output and reject a deliberately wrong one, so a library
change that breaks a check fails here before any timed run."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_checks_behave():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks behave" in proc.stdout
