"""Smoke tests in a fresh interpreter: the command-line scripts and the
`ttfilt` command run against the current API, and every engine module
imports on its own (an import cycle that the in-process test order hides
shows up here)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "ttfilt").glob("*.py") if p.stem != "__init__")


def _python(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ["atlas_report.py"],
    ["support_table.py"],
    ["random_stress.py", "3", "0"],  # three rounds, seed 0: under a second
])
def test_script_exits_zero(argv):
    proc = _python(str(ROOT / "scripts" / argv[0]), *argv[1:])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = _python("-c", f"import ttfilt.{module}")
    assert proc.returncode == 0, proc.stderr


def test_cli_module_verify_exits_zero():
    proc = _python("-m", "ttfilt.cli", "verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("name", ["DATM2", "KbA", "DAM2", "DTM2"])
def test_cli_closure_of_an_unknown_point_exits_one(name):
    proc = _python("-m", "ttfilt.cli", "atlas", name, "--closure", "X")
    assert proc.returncode == 1
    assert "error: unknown point: X" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_motives():
    # the benchmark tracer imports ttfilt.cli, then wraps ttfilt.motives from sys.modules
    proc = _python("-c", "import sys, ttfilt.cli; sys.exit('ttfilt.motives' not in sys.modules)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("expr,expected", [
    ("twist(fund0, 100000)", "{L, Ls}"),
    ("1(100000)", "{L, Ls, M, Ms, N, Ns}"),
    ("E(4000,0)", "{L, Ls, Ms, N, Ns}"),
])
def test_cli_support_of_a_large_twist_is_fast(expr, expected):
    # the L test normalizes the twist away, so the size of the weight costs nothing;
    # a long E(l,0) is tensored over its live degrees only (about 2 s at l = 4000)
    proc = _python("-m", "ttfilt.cli", "support", expr, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert expected in proc.stdout


@pytest.mark.parametrize("argv,expected", [
    (["decompose", "E(1000000,0)"], ["E(1000000,0)"]),
    (["decompose", "E(300,5) * E(200,-7)"], ["E(200,-2) + E(200,298)"]),
    (["hom", "E(800,0)", "E(800,0)"], ["n=0 dim=2", "n=2 dim=1"]),
    (["gr", "E(1000000,0)"], ["complex{ d0: k^2 }"]),
])
def test_cli_long_weight_span_is_fast(argv, expected):
    # filtrations are stored at their drops, so E(l, m) costs three layers for any l
    proc = _python("-m", "ttfilt.cli", *argv, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line in lines for line in expected), proc.stdout


@pytest.mark.parametrize("argv,expected", [
    (["support", "T * T * T * T * T * T * T * T"], "{Ls, Ms, Ns}"),
    (["member", "fund0 * fund0 * fund0 * fund0 * fund0 * fund0", "fund0"], "true"),
])
def test_cli_support_of_a_large_product_is_planned(argv, expected):
    # the planner intersects leaf supports; the products (65,536 and 4,096 dims) are never built
    proc = _python("-m", "ttfilt.cli", *argv, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert expected in proc.stdout


def test_cli_hom_of_units_far_apart_is_fast():
    # two modules: the closed form on their labels, one line per shift 0 .. 20000
    proc = _python("-m", "ttfilt.cli", "hom", "1", "1(20000)", timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 20001 and lines[0] == "n=0 dim=1" and lines[-1] == "n=20000 dim=1"


@pytest.mark.parametrize("argv,expected", [
    (["fund0", "E(2,1)"], ["n=3 dim=1", "n=5 dim=1"]),
    (["E(1,0) + 1(2)", "shift(fund0, 1)"], ["n=-1 dim=1"]),
])
def test_cli_hom_with_a_complex_keeps_the_hom_complex(argv, expected):
    # fund0 lies in more than one degree, so these go through hom_DE; outputs as before the closed form
    proc = _python("-m", "ttfilt.cli", "hom", *argv, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == expected
