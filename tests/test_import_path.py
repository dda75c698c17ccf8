"""opx runs on numpy alone: importing it, and every command, verify suites
that solve Gauss rules included, leaves scipy unloaded, and the import
leaves argparse unloaded: the CLI reads its flags without it.  Each list of
commands runs in one fresh interpreter, which reads ``sys.modules`` after
each command, so the check does not depend on what this test session has
imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the commands built on the recurrence coefficients alone, which solve no rule
QUADRATURE_FREE = [
    ["eval", "--derivs", "--points=-0.5", "--points=0.9"],
    ["kernel", "--points=0.25"],
    ["chain", "--l-const", "0.25"],
    ["ratio", "--shift=1", "--n-max", "50"],
    ["recover", "--kind", "christoffel"],
    ["recover", "--kind", "geronimus"],
    ["recover", "--kind", "uvarov"],
    ["recover", "--kind", "order2"],
    ["verify", "--suite", "ratios"],
    ["verify", "--suite", "chains"],
]

# every verify suite, those that solve Gauss rules included, on each built-in family
ALL_SUITES = [
    ["verify", "--suite", "all", "--family", "chebyshev1"],
    ["verify", "--suite", "all", "--family", "laguerre", "--gamma", "0.5"],
    ["verify", "--suite", "all", "--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"],
]

# prints each command's exit code and whether scipy is loaded after it; the
# first line is the import alone, with whether argparse is loaded for its
# exit code
PROBE = """
import contextlib, io, sys
import opx, opx.cli
print("import", "argparse" in sys.modules, "scipy" in sys.modules)
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = opx.cli.main(argv)
    print(" ".join(argv), code, "scipy" in sys.modules)
"""


def _probe(argvs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"ARGVS = {argvs!r}\n{PROBE}"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return [line.rsplit(" ", 2) for line in done.stdout.splitlines()]


def _assert_scipy_free(argvs):
    lines = _probe(argvs)
    assert [name for name, _, _ in lines] == ["import"] + [" ".join(a) for a in argvs]
    assert lines[0] == ["import", "False", "False"]
    # each further line is [what ran, exit code, scipy loaded]
    assert [line for line in lines[1:] if line[1:] != ["0", "False"]] == []


def test_import_and_quadrature_free_commands_do_not_load_scipy():
    _assert_scipy_free(QUADRATURE_FREE)


def test_recovery_suite_still_solves_its_rules():
    # it solves Gauss rules, and does so without scipy
    _assert_scipy_free([["verify", "--suite", "recovery"]])


def test_every_suite_on_each_family_does_not_load_scipy():
    _assert_scipy_free(ALL_SUITES)
