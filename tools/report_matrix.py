"""Byte-identity matrix: run a fixed set of opx commands and hash each report.

Runs every configuration in process against the ``src`` directory beside
this script and prints one line ``name exit sha256`` per configuration.
``runtime_ms`` is blanked, and of stderr only the ``opx:`` error lines are
hashed with the report (warnings name source paths), so two checkouts that
keep the determinism contract print identical lines.  The first line,
``HEADER``, names the numpy version.  Run it from any directory:

    python3 tools/report_matrix.py > tests/report_matrix.txt

``tests/test_report_matrix.py`` checks the same lines in process against
that file, so a change that moves a report on purpose rewrites the file
with this command.
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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opx.cli import main  # noqa: E402

# the digests depend on numpy's floating point
HEADER = f"# numpy {np.__version__}"

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
# the Chebyshev-1 recurrence cut at 40 rows: a finite table whose Cauchy
# mass is its own 40-node Gauss sum at most
COEFFS40 = "n,c_n,lambda_n\n1,0,3.141592653589793\n2,0,0.5\n" + "".join(f"{n},0,0.25\n" for n in range(3, 41))
# lambda_3 = 0: the kernel context refuses it (exit 1) before dividing by it
COEFFS_ZERO = (
    "n,c_n,lambda_n\n1,0,3.141592653589793\n2,0,0.25\n3,0,0.0\n"
    + "".join(f"{n},0,0.25\n" for n in range(4, 16))
)
# coefficient files the CLI must reject: n = 2 listed twice, n = 3 missing
BAD_COEFFS = {
    "duplicate": COEFFS + "2,0.9,0.7\n",
    "gap": "n,c_n,lambda_n\n1,0.1,2.0\n2,0.2,0.5\n4,0.05,0.25\n",
}


def configs():
    # a usage error first: any state the parse kept would show in the
    # ordinary rows after it
    yield "verify.usage.badfamily", ["verify", "--family", "nosuch"]
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
    # draws the ratios suite rejects at its conditioning guards, which seeds
    # 1 and 7 never do: seed 2 rejects one Gauss and one Kummer draw, seed 3
    # two Gauss draws
    for fam, flags in FAMILIES.items():
        for seed in ("2", "3"):
            argv = ["verify", "--suite", "ratios", *flags, "--seed", seed]
            yield f"verify.ratios.{fam}.s{seed}", argv
    # the confluent identity's table over degrees 0..n_max, at its smallest
    # degree cap and past the suite's cap of 10
    for fam, flags in FAMILIES.items():
        for n_max in ("1", "12"):
            argv = ["verify", "--suite", "ratios", *flags, "--n-max", n_max]
            yield f"verify.ratios.{fam}.n{n_max}", argv
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
    # Geronimus shifts near the support: 0.01 and 0.1 away, and 1e-12 away,
    # where the J-fraction does not settle (exit 1)
    yield "recover.geronimus.k1.01", ["recover", "--kind", "geronimus", "--shift=1.01"]
    argv = ["recover", "--kind", "geronimus", *FAMILIES["laguerre0"], "--shift=-0.1"]
    yield "recover.geronimus.laguerre0.k-0.1", argv
    yield "recover.geronimus.k1+1e-12", ["recover", "--kind", "geronimus", "--shift=1.000000000001"]
    argv = ["verify", "--suite", "recovery", "--mass0", "2", "--r0=-0.3"]
    yield "verify.recovery.mass0=2.r0=-0.3", argv
    # jacobi at the CLI default (0, 0), and at (-0.5, -0.5), where the first
    # coefficients take their cancelled forms
    for label, params in (("0,0", ["0", "0"]), ("-0.5,-0.5", ["-0.5", "-0.5"])):
        flags = ["--family", "jacobi", f"--gamma={params[0]}", f"--delta={params[1]}"]
        points = ["--points=-0.5", "--points=0.25", "--points=0.9"]
        yield f"eval.jacobi{label}", ["eval", *flags, "--derivs", *points]
        yield f"kernel.jacobi{label}", ["kernel", *flags, *points]
        yield f"ratio.jacobi{label}.k1.5", ["ratio", *flags, "--shift=1.5", "--n-max", "1000"]
    # a coefficient file too short for --n-max 6, and the malformed ones
    for label, n_max in (("coeffs", "6"), *((label, "3") for label in BAD_COEFFS)):
        argv = ["eval", "--family", "custom", "--coeffs", f"{label}.csv", "--support=-1,1"]
        yield f"eval.custom.{'short' if label == 'coeffs' else label}", [*argv, "--n-max", n_max, "--points=0.3"]
    yield "chain.l11", ["chain", "--l", ",".join(f"{i / 20:g}" for i in range(1, 12))]
    # a Geronimus record on a finite table, whose J-fraction is cut at its last row
    yield "recover.geronimus.custom", ["recover", "--kind", "geronimus", *custom[:-2], "--n-max", "1"]
    argv = ["verify", "--suite", "recovery", "--family", "custom", "--coeffs", "coeffs40.csv", "--support=-1,1"]
    yield "verify.recovery.custom40", argv
    # the edges of the degree tables: the kernel suite's cap of 10, the quasi
    # suite's smallest and largest degrees, a recovery of degree one, and
    # kernel points inside the switch radius beside one outside it
    for fam, flags in FAMILIES.items():
        yield f"verify.kernels.{fam}.n12", ["verify", "--suite", "kernels", *flags, "--n-max", "12"]
        for n_max in ("3", "10"):
            yield f"verify.quasi.{fam}.n{n_max}", ["verify", "--suite", "quasi", *flags, "--n-max", n_max]
        yield f"verify.recovery.{fam}.n1", ["verify", "--suite", "recovery", *flags, "--n-max", "1"]
        k = -1.0 if fam.startswith("laguerre") else -2.0  # the default shift
        points = [f"--points={k - 4e-6!r}", f"--points={k + 7e-6!r}", "--points=0.25"]
        yield f"kernel.{fam}.near", ["kernel", *flags, *points]
    # the quasi suite needs --n-max 3 or more: a usage error below it; its
    # orthogonality criteria run to --n-max however large
    yield "verify.quasi.n2", ["verify", "--suite", "quasi", "--n-max", "2"]
    argv = ["verify", "--suite", "quasi", *FAMILIES["chebyshev1"], "--n-max", "48"]
    yield "verify.quasi.chebyshev1.n48", argv
    # both forms of the Geronimus Gram entries: the exact divided difference
    # near the half line's end, and the split form far from [-1, 1]
    for shift in ("-0.1", "-0.3"):
        argv = ["verify", "--suite", "recovery", *FAMILIES["laguerre0"], f"--shift={shift}"]
        yield f"verify.recovery.laguerre0.k{shift}", argv
    argv = ["verify", "--suite", "recovery", *FAMILIES["jacobi"], "--shift=-10"]
    yield "verify.recovery.jacobi.k-10", argv
    argv = ["verify", "--suite", "recovery", "--family", "jacobi", "--gamma=0", "--delta=0", "--shift=-2"]
    yield "verify.recovery.jacobi0,0.k-2", argv
    # chain inputs the CLI refuses: a minimal parameter reaching 1 (exit 1)
    # and a value that is not finite (exit 2)
    yield "chain.half.n5", ["chain", "--l-const", "0.5", "--n-max", "5"]
    yield "chain.one.n3", ["chain", "--l-const", "1", "--n-max", "3"]
    # l_n = 0 breaks down in its complement k_n = 1 - l_n, at m_1 = 1
    yield "chain.zero.n3", ["chain", "--l-const", "0", "--n-max", "3"]
    yield "chain.nan", ["chain", "--l-const", "nan", "--n-max", "3"]
    yield "chain.l.inf", ["chain", "--l", "0.2,inf,0.3"]
    # parameters the CLI refuses (exit 2): a NaN family parameter, shift or
    # point, an --n-max past the end of an --l list and a tolerance that is
    # not finite
    argv = ["verify", "--suite", "ratios", "--family", "laguerre", "--gamma", "nan"]
    yield "verify.ratios.laguerre0.gammanan", argv
    yield "verify.kernels.shiftnan", ["verify", "--suite", "kernels", "--shift=nan"]
    yield "eval.points.nan", ["eval", "--points=nan", "--n-max", "2"]
    yield "chain.l2.n5", ["chain", "--l", "0.1,0.2", "--n-max", "5"]
    yield "verify.tol.inf", ["verify", "--suite", "recovery", "--tol", "inf"]
    yield "verify.tol.nan", ["verify", "--suite", "recovery", "--tol", "nan"]
    # an empty --support= is a usage error, not an absent flag
    yield "verify.usage.emptysupport", ["verify", "--suite", "chains", "--support=", "--n-max", "4"]
    # degrees past the double range: a value no double holds is a typed
    # error (exit 1) naming its degree and point, while the kernel rows,
    # read off the ratios P_n(k)/P_{n-1}(k), stay finite where P_n(-1)^2
    # overflows (n = 95)
    laguerre0 = FAMILIES["laguerre0"]
    yield "eval.laguerre0.n200", ["eval", *laguerre0, "--n-max", "200", "--points=1"]
    for n_max in ("100", "170"):
        argv = ["kernel", *laguerre0, "--shift=-1", "--n-max", n_max, "--points=0.5"]
        yield f"kernel.laguerre0.k-1.n{n_max}", argv
    # a zero lambda_3 in a custom file, and a shift whose ratio limits leave
    # the double range: typed errors (exit 1)
    zero = ["--family", "custom", "--coeffs", "coeffs_zero.csv", "--support=-1,1", "--shift", "0.3"]
    yield "recover.christoffel.custom.lambda3zero", ["recover", "--kind", "christoffel", *zero]
    yield "ratio.custom.lambda3zero", ["ratio", *zero, "--n-max", "8"]
    yield "verify.kernels.custom.lambda3zero", ["verify", "--suite", "kernels", *zero]
    argv = ["verify", "--suite", "ratios", *FAMILIES["chebyshev1"], "--shift=1e-200"]
    yield "verify.ratios.chebyshev1.k1e-200", argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = "".join(line for line in err.getvalue().splitlines(True) if line.startswith("opx:"))
    text = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out.getvalue()) + errors
    return code, hashlib.sha256(text.encode()).hexdigest()


def write_inputs():
    """Write the coefficient files the configurations name into the working
    directory: the custom family's path is echoed into its report, so it is
    named relative to the working directory."""
    Path("coeffs.csv").write_text(COEFFS)
    Path("coeffs40.csv").write_text(COEFFS40)
    Path("coeffs_zero.csv").write_text(COEFFS_ZERO)
    for label, text in BAD_COEFFS.items():
        Path(f"{label}.csv").write_text(text)


if __name__ == "__main__":
    print(HEADER, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs()
        for name, argv in configs():
            code, digest = run(argv)
            print(name, code, digest, flush=True)
