"""Byte-identity matrix: run a fixed set of opx commands and hash each report.

Runs every configuration in process against the ``src`` directory beside
this script and prints one line ``name exit sha256`` per configuration.
``runtime_ms`` is blanked, and of stderr only the ``opx:`` error lines are
hashed with the report (warnings name source paths), so two checkouts that
keep the determinism contract print identical lines.  Run it from any
directory:

    python3 tools/report_matrix.py > matrix.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opx.cli import main  # noqa: E402

FAMILIES = {
    "chebyshev1": ["--family", "chebyshev1"],
    "laguerre0": ["--family", "laguerre", "--gamma", "0"],
    "laguerre0.5": ["--family", "laguerre", "--gamma", "0.5"],
    "jacobi": ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"],
}
SUITES = ("kernels", "quasi", "recovery", "ratios", "chains")
KINDS = ("christoffel", "geronimus", "uvarov", "order2")
# the benchmark's ratio-table (family, shift) pairs
RATIOS = (
    ("chebyshev1", "1"), ("chebyshev1", "2"), ("laguerre0.5", "-1"), ("jacobi", "1"), ("jacobi", "1.5")
)
COEFFS = "n,c_n,lambda_n\n1,0.1,2.0\n2,0.2,0.5\n3,-0.1,0.3\n4,0.05,0.25\n"


def configs():
    for fam, flags in FAMILIES.items():
        for seed in ("1", "7"):
            for suite in SUITES:
                yield f"verify.{suite}.{fam}.s{seed}", ["verify", "--suite", suite, *flags, "--seed", seed]
            for kind in KINDS:
                yield f"recover.{kind}.{fam}.s{seed}", ["recover", "--kind", kind, *flags, "--seed", seed]
        points = ["--points=-0.5", "--points=0.25", "--points=0.9"]
        yield f"eval.{fam}", ["eval", *flags, "--derivs", *points]
        yield f"kernel.{fam}", ["kernel", *flags, *points]
    for fam, shift in RATIOS:
        yield f"ratio.{fam}.k{shift}", ["ratio", *FAMILIES[fam], f"--shift={shift}", "--n-max", "1000"]
    yield "chain.quarter", ["chain", "--l-const", "0.25"]
    custom = ["--family", "custom", "--coeffs", "coeffs.csv", "--support=-1,1", "--n-max", "3"]
    yield "eval.custom", ["eval", *custom, "--points=0.3"]
    for fam, flags in FAMILIES.items():
        argv = ["verify", "--suite", "ratios", *flags, "--depth", "30", "--seed", "1"]
        yield f"verify.ratios.{fam}.depth30", argv
    yield "verify.ratios.depth0", ["verify", "--suite", "ratios", "--depth=0"]
    # the benchmark's largest row tables, and every row table as CSV
    for fam, shift in RATIOS:
        yield f"ratio.{fam}.k{shift}.n4000", ["ratio", *FAMILIES[fam], f"--shift={shift}", "--n-max", "4000"]
    chain = ["chain", "--l-const", "0.25", "--n-max", "10000"]
    yield "chain.quarter.n10000", chain
    yield "chain.quarter.n10000.csv", [*chain, "--output", "csv"]
    for fam, shift in RATIOS:
        argv = ["ratio", *FAMILIES[fam], f"--shift={shift}", "--n-max", "1000", "--output", "csv"]
        yield f"ratio.{fam}.k{shift}.csv", argv
    for fam, flags in FAMILIES.items():
        points = ["--points=-0.5", "--points=0.25", "--points=0.9"]
        yield f"eval.{fam}.csv", ["eval", *flags, "--derivs", *points, "--output", "csv"]
    # recovery edge cases: shifts at a zero of P_1, a first shift inside the
    # support, a second shift at a zero, and a single degree
    edge_shifts = {
        "k0": ["--shift=0"], "k0.5,3": ["--shift=0.5", "--shift=3"], "k2,0": ["--shift=2", "--shift=0"]
    }
    for kind in KINDS:
        for label, shifts in edge_shifts.items():
            yield f"recover.{kind}.{label}", ["recover", "--kind", kind, *shifts]
        for fam, flags in FAMILIES.items():
            yield f"recover.{kind}.{fam}.n1", ["recover", "--kind", kind, *flags, "--n-max", "1"]
    argv = ["verify", "--suite", "recovery", "--mass0", "2", "--r0=-0.3"]
    yield "verify.recovery.mass0=2.r0=-0.3", argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = "".join(line for line in err.getvalue().splitlines(True) if line.startswith("opx:"))
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out.getvalue()) + errors
    return code, hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        # the custom family's file is named relative to the working
        # directory, because its path is echoed into the report
        os.chdir(tmp)
        Path("coeffs.csv").write_text(COEFFS)
        for name, argv in configs():
            code, digest = run(argv)
            print(name, code, digest, flush=True)
