"""scipy is loaded only when a Gauss rule of order >= 2 is solved: importing
opx, and every command built on the recurrence coefficients alone, never
load it; nor does the import build the CLI's parser.  Each check runs in a
fresh interpreter and reads ``sys.modules``, so it does not depend on what
this test session has imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the commands that solve no rule
SCIPY_FREE = [
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

# prints each command's exit code and whether scipy is loaded after it; the
# first line is the import alone, with the number of CLI parsers built so
# far (none: the parser is built on the first parse) for its exit code
PROBE = """
import contextlib, io, sys
import opx, opx.cli
print("import", opx.cli._parser.cache_info().currsize, "scipy" in sys.modules)
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


def test_import_and_quadrature_free_commands_do_not_load_scipy():
    lines = _probe(SCIPY_FREE)
    assert [name for name, _, _ in lines] == ["import"] + [" ".join(a) for a in SCIPY_FREE]
    # each line is [what ran, exit code, scipy loaded]
    assert [line for line in lines if line[1:] != ["0", "False"]] == []


def test_recovery_suite_still_solves_its_rules():
    [_, (name, code, _)] = _probe([["verify", "--suite", "recovery"]])
    assert (name, code) == ("verify --suite recovery", "0")
