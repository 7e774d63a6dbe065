"""Smoke tests in a fresh interpreter: the command-line scripts and the
`ttfilt` command run against the current API, and every engine module
imports on its own (an import cycle that the in-process test order hides
shows up here)."""

import os
import subprocess
import sys
import time
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
    # a label atom such as E(4000,0) takes its support from its label
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
    (["support", "E(1000000,0)"], ["{L, Ls, Ms, N, Ns}"]),
    (["classify", "dual(E(1000000,5)) * 1(-1000000) + E(3,0)"],
     ["support {L, Ls, Ms, N, Ns}", "ideal generated by: conebeta + E(0,0)"]),
    (["member", "E(1000000,0)", "E(2,0)"], ["true"]),
])
def test_cli_support_of_a_long_label_atom_is_read_off_its_label(argv, expected):
    # no rwz complex of l + 1 terms is built: the label gives the support, within 5 s
    proc = _python("-m", "ttfilt.cli", *argv, timeout=5)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == expected


@pytest.mark.parametrize("argv,expected", [
    (["support", "fundl(1000000)"], ["{}"]),
    (["support", "Lpure(1000000)"], ["{L, Ls, M, Ms, N, Ns}"]),
    (["member", "fundl(1000000)", "E(0,0)"], ["true"]),
])
def test_cli_support_of_fundl_and_Lpure_is_read_off_the_name(argv, expected):
    # fundl(l) is acyclic and Lpure(n) is invertible: no residue test runs, within 5 s
    proc = _python("-m", "ttfilt.cli", *argv, timeout=5)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == expected


def test_cli_support_of_fundl_0_still_exits_one():
    proc = _python("-m", "ttfilt.cli", "support", "fundl(0)", timeout=30)
    assert proc.returncode == 1
    assert "error: fundamental sequences need positive length" in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("argv", [
    ["support", "(" * 1000 + "0" + ")" * 1000],
    ["decompose", "dual(" * 2000 + "1" + ")" * 2000],
    ["support", " + ".join(["1"] * 3000)],
])
def test_cli_over_deep_expression_exits_one(argv):
    # the parser and the tree walks recurse once per level: past the interpreter's limit, a usage error
    proc = _python("-m", "ttfilt.cli", *argv, timeout=30)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "error: expression nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_closure_of_a_19_digit_prime_index_is_fast():
    # deterministic Miller-Rabin: trial division would take over an hour here
    start = time.perf_counter()
    proc = _python("-m", "ttfilt.cli", "atlas", "DATMZ", "--closure", "e(2305843009213693951)", timeout=30)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "{e(2305843009213693951), m(2305843009213693951)}\n"


def test_cli_closure_of_an_index_beyond_the_prime_test_exits_one():
    proc = _python("-m", "ttfilt.cli", "atlas", "DATMZ", "--closure", "e(3317044064679887385961981)")
    assert proc.returncode == 1
    assert "error: prime index 3317044064679887385961981 is too large" in proc.stderr
    assert "Traceback" not in proc.stderr
