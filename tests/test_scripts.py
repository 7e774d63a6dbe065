"""Smoke test: the command-line scripts import and run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["atlas_report.py"],
    ["support_table.py"],
    ["random_stress.py", "0", "0"],  # zero rounds: imports only; one round takes ~10 s
])
def test_script_exits_zero(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
