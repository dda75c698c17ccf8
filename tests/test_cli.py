import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opx import cli


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def schema():
    text = resources.files("opx").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def test_eval_degree_zero():
    code, out, _ = run_cli(
        ["eval", "--family", "laguerre", "--gamma", "0.5", "--n-max", "0", "--points", "3.0"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == [{"n": 0, "x": 3.0, "value": 1.0}]


def test_eval_csv_output():
    code, out, _ = run_cli(
        ["eval", "--family", "chebyshev1", "--n-max", "2", "--points", "0.5", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "x", "value"]
    assert rows[3][2] == "-0.25"


def test_ratio_csv_columns():
    code, out, _ = run_cli(
        ["ratio", "--family", "chebyshev1", "--shift", "1", "--n-max", "5", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "r_up", "closed_form", "abs_diff"]
    assert len(rows) == 6
    # the closed form (1 + 2/(2n+1))/2 agrees with the computed limit to
    # rounding; abs_diff is that recorded gap, not a checked tolerance
    n, r_up, closed, diff = rows[1]
    assert float(diff) == pytest.approx(abs(float(r_up) - float(closed)), rel=1e-12)


def test_verify_exit_codes_and_schema(schema):
    code, out, _ = run_cli(
        ["verify", "--family", "chebyshev1", "--suite", "recovery", "--n-max", "6",
         "--tol", "1e-7", "--seed", "42"]
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["overall"] is True
    assert {c["name"] for c in report["cases"]} == {
        "recovery_identity_christoffel",
        "recovery_identity_geronimus",
        "recovery_identity_uvarov",
        "recovery_identity_order2",
        "geronimus_solved_mass",
        "geronimus_transform_orthogonality",
        "uvarov_transform_orthogonality",
    }


def test_verify_laguerre_recovery_passes():
    # the Geronimus orthogonality case on the half line once read 0.025
    # against tol 1e-9, from a quadrature oracle doubling past its roundoff floor
    code, out, err = run_cli(
        ["verify", "--family", "laguerre", "--gamma", "0.5", "--suite", "recovery", "--seed", "0"]
    )
    assert code == 0, err
    assert json.loads(out)["overall"] is True


@pytest.mark.parametrize("shift", ["-0.1", "-0.3"])
def test_verify_laguerre_recovery_near_the_support_passes(shift):
    # node doubling of the Geronimus oracle raised NonConvergent at both
    # shifts (exit 1), though the J-fraction record was exact there
    code, out, err = run_cli(["verify", "--suite", "recovery", "--family", "laguerre", f"--shift={shift}"])
    assert code == 0, err
    assert json.loads(out)["overall"] is True


def test_verify_failure_exit_code():
    # an absurd tolerance forces a check failure -> exit 1
    code, out, _ = run_cli(
        ["verify", "--family", "chebyshev1", "--suite", "recovery", "--n-max", "4",
         "--tol", "1e-30", "--seed", "1"]
    )
    assert code == 1
    assert json.loads(out)["overall"] is False


def test_usage_error_exit_code():
    code, _, err = run_cli(["chain", "--n-max", "5"])
    assert code == 2
    assert "chain" in err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_depth_below_one_is_a_usage_error(depth):
    code, out, err = run_cli(["verify", "--suite", "ratios", f"--depth={depth}"])
    assert code == 2
    assert out == ""
    assert f"--depth must be >= 1, got {depth}" in err


@pytest.mark.parametrize("suite", ["quasi", "all"])
@pytest.mark.parametrize("n_max", ["1", "2"])
def test_quasi_suite_below_its_least_degree_is_a_usage_error(suite, n_max):
    # its engineered family's orthogonality criteria need n_max >= 3
    code, out, err = run_cli(["verify", "--suite", suite, "--n-max", n_max])
    assert code == 2
    assert out == ""
    assert err == f"opx: the quasi suite needs --n-max >= 3, got {n_max}\n"


def test_quasi_suite_at_its_least_degree_runs():
    code, out, _ = run_cli(["verify", "--suite", "quasi", "--n-max", "3"])
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_quasi_criterion_runs_to_n_max_48():
    # the orthogonality criteria take --n-max itself, not a silent cap
    code, out, _ = run_cli(["verify", "--suite", "quasi", "--n-max", "48"])
    assert code == 0
    report = json.loads(out)
    case = next(c for c in report["cases"] if c["name"] == "qk_orthogonality_engineered")
    assert case["pass"] is True and case["max_residual"] <= 1e-14


def test_bad_choice_error_exit_code():
    code, out, err = run_cli(["verify", "--family", "nosuch"])
    assert (code, out) == (2, "")
    choices = "chebyshev1, laguerre, jacobi, custom"
    assert err == f"opx: --family: invalid choice 'nosuch' (choose from {choices})\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "--n-max", "-1"], "--n-max must be >= 0 for eval, got -1"),
        (["recover", "--n-max", "0"], "--n-max must be >= 1 for recover, got 0"),
        (["verify", "--suite", "chains", "--seed=-1"], "--seed must be >= 0, got -1"),
        (["eval", "--points", "-5e-05"], "--points: expected a value (--points=VALUE if it starts with '-')"),
        (["eval", "--fam", "laguerre"], "--fam: unknown flag for eval"),
        (["kernel", "--derivs"], "--derivs: unknown flag for kernel"),
        (["eval", "--derivs=yes"], "--derivs: takes no value, got 'yes'"),
        (["eval", "0.5"], "unexpected argument '0.5'"),
        (["eval", "--n-max", "2.5"], "--n-max: invalid int value '2.5'"),
        (["eval", "--gamma"], "--gamma: expected a value (--gamma=VALUE if it starts with '-')"),
        ([], "no command (choose from eval, kernel, recover, ratio, verify, chain)"),
        (["evaluate"], "unknown command 'evaluate' (choose from eval, kernel, recover, ratio, verify, chain)"),
    ],
)
def test_usage_errors_are_one_line(args, message):
    assert run_cli(args) == (2, "", f"opx: {message}\n")


@pytest.mark.parametrize("value, message", [("-1", "must be >= 0, got -1"), ("abc", "must be an integer, got 'abc'")])
def test_seed_from_the_environment_must_be_a_nonnegative_integer(monkeypatch, value, message):
    monkeypatch.setenv("OPX_SEED", value)
    assert run_cli(["verify", "--suite", "chains"]) == (2, "", f"opx: OPX_SEED {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], *([command, "-h"] for command in cli._COMMANDS), ["eval", "--n-max", "2", "--help"]],
)
def test_help_exits_zero(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    if len(argv) == 1:
        listed = cli._COMMANDS
    else:
        listed = {**cli._COMMON, **cli._COMMANDS[argv[0]][1]}
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == list(listed)


def test_chain_command(schema):
    code, out, _ = run_cli(["chain", "--l-const", "0.25", "--n-max", "10"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["overall"] is True
    assert report["rows"][2]["m_n"] == pytest.approx(0.375)


def test_chain_list_covers_every_value_unless_n_max_is_given():
    values = [0.05 * i for i in range(1, 12)]
    l_arg = ",".join(map(repr, values))
    code, out, _ = run_cli(["chain", "--l", l_arg])
    assert code == 0
    report = json.loads(out)
    assert [row["l_n"] for row in report["rows"]] == values
    assert report["config_echo"]["l"] == values
    assert report["config_echo"]["n_max"] == 11
    code, out, _ = run_cli(["chain", "--l", l_arg, "--n-max", "5"])
    assert code == 0
    assert [row["l_n"] for row in json.loads(out)["rows"]] == values[:5]


@pytest.mark.parametrize(
    "args",
    [
        ["--l-const", "0.5", "--n-max", "5"],
        ["--l", "0.5,0.5,0.5"],
        ["--l-const", "1", "--n-max", "3"],
        ["--l-const", "0", "--n-max", "3"],
    ],
)
def test_chain_breakdown_is_a_typed_error(args):
    # m_n = l_n / (1 - m_{n-1}) meets m_{n-1} = 1; l_n = 0 gives m_n = 0
    # throughout, and its complement k_n = 1 - l_n = 1 meets m_1 = 1
    code, out, err = run_cli(["chain", *args])
    assert code == 1
    assert out == ""
    assert err.startswith("opx: ZeroDenominator: minimal parameter recurrence hits m_")
    assert err.endswith(" in the complementary sequence k_n = 1 - l_n\n") == (args[1] == "0")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--l-const", "nan", "--n-max", "3"], "--l-const values must be finite, got nan"),
        (["--l-const", "inf", "--n-max", "3"], "--l-const values must be finite, got inf"),
        (["--l-const=-inf"], "--l-const values must be finite, got -inf"),
        (["--l", "0.5,nan"], "--l values must be finite, got nan"),
        (["--l", "0.2,inf,0.3", "--n-max", "1"], "--l values must be finite, got inf"),
        (["--l", "0.5,abc"], "--l expects numbers v1,v2,..., got '0.5,abc'"),
        # --n-max may cut the list, not extend it
        (["--l", "0.1,0.2", "--n-max", "5"], "--n-max 5 exceeds the 2 values of --l"),
    ],
)
def test_chain_values_must_be_finite_numbers(args, message):
    code, out, err = run_cli(["chain", *args])
    assert code == 2
    assert out == ""
    assert err == f"opx: {message}\n"


@pytest.mark.parametrize(
    "args, flag",
    [
        (["verify", "--suite", "ratios", "--family", "laguerre", "--gamma", "nan"], "--gamma"),
        (["eval", "--family", "jacobi", "--gamma", "0.3", "--delta", "inf"], "--delta"),
        (["verify", "--suite", "kernels", "--shift=2", "--shift=nan"], "--shift"),
        (["verify", "--suite", "recovery", "--mass0", "nan"], "--mass0"),
        (["recover", "--kind", "uvarov", "--r0=-inf"], "--r0"),
        (["verify", "--suite", "recovery", "--tol", "inf"], "--tol"),
        (["verify", "--suite", "recovery", "--tol", "nan"], "--tol"),
        (["eval", "--n-max", "2", "--points=0.5", "--points=nan"], "--points"),
        (["kernel", "--points=-inf"], "--points"),
    ],
)
def test_parameters_must_be_finite(args, flag):
    # no family, shift, mass or value is defined at a NaN or infinite
    # value, and no verdict at an infinite or NaN tolerance
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert err == f"opx: {flag} values must be finite, got {args[-1].split('=')[-1]}\n"


def test_kernel_command(schema):
    code, out, _ = run_cli(["kernel", "--family", "chebyshev1", "--shift", "2", "--n-max", "4"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["rows"][1]["lambda_star"] == pytest.approx(0.4375)


def test_kernel_rows_stay_finite_at_large_degree(schema):
    # c* and lambda* are read off the ratios P_n(k)/P_{n-1}(k): on laguerre
    # at -1 they stay finite where P_n(-1)^2 overflows (n = 95)
    code, out, _ = run_cli(["kernel", "--family", "laguerre", "--shift=-1", "--n-max", "100", "--points=0.5"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert all(row[key] is not None for row in report["rows"] for key in ("c_star", "lambda_star"))
    assert report["cases"][0]["pass"] is True


@pytest.mark.parametrize(
    "args, value, arrays",
    [
        (["eval", "--family", "laguerre", "--n-max", "200", "--points=1"], "P_171(1.0)", False),
        # two points overflow in numpy's arrays, one runs on a Python float
        (["eval", "--family", "laguerre", "--n-max", "200", "--points=0.5", "--points=1"], "P_171(0.5)", True),
        (["kernel", "--family", "laguerre", "--shift=-1", "--n-max", "170", "--points=0.5"], "Pk_170(0.5)", False),
        (["kernel", "--family", "laguerre", "--shift=-1", "--n-max", "200", "--points=0.5", "--points=1"],
         "Pk_170(0.5)", True),
    ],
)
def test_values_out_of_the_double_range_are_a_typed_error(args, value, arrays):
    # the first degree, and at it the first point, with no double to write,
    # is the only message: no overflow warning comes first (a RuntimeWarning
    # fails the test).  The array tables keep their overflow to themselves
    # even where the caller asks numpy to raise on it
    with np.errstate(over="raise", invalid="raise") if arrays else contextlib.nullcontext():
        code, out, err = run_cli(args)
    assert (code, out) == (1, "")
    assert err == f"opx: ParameterOutOfRange: {value} is out of the double range\n"


def test_a_derivative_out_of_the_double_range_is_a_typed_error():
    args = ["eval", "--family", "laguerre", "--n-max", "170", "--points=10", "--derivs"]
    assert run_cli(args[:-1])[0] == 0  # P_170(10) itself is finite
    code, out, err = run_cli(args)
    assert (code, out) == (1, "")
    assert err == "opx: ParameterOutOfRange: P'_170(10.0) is out of the double range\n"


def test_values_below_the_normal_double_range_are_a_typed_error():
    # monic P_n(0.5) = 2^(1-n) T_n(0.5) is subnormal from n = 1024 and 0
    # from n = 1076, where its value has no double left to be written as
    args = ["eval", "--family", "chebyshev1", "--n-max", "1100", "--points=0.5"]
    code, out, err = run_cli(args)
    assert (code, out) == (1, "")
    assert err == "opx: ParameterOutOfRange: P_1024(0.5) underflows: it is below the least normal double\n"
    assert run_cli(args[:4] + ["1023", args[-1]])[0] == 0
    # an exact zero is no underflow: P_1(0) = 0
    assert run_cli(["eval", "--family", "chebyshev1", "--n-max", "3", "--points=0"])[0] == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--suite", "kernels"], "the Gram entries of degree 1 are out of the double range"),
        (["verify", "--suite", "quasi"], "the squared norm of Pk_1 is out of the double range"),
        (["verify", "--suite", "ratios"], "(r_up(1), r_down(1)) at k=1e-200 is out of the double range"),
        (["kernel"], "(c*_2, lambda*_2) at k=1e-200 is out of the double range"),
    ],
    ids=["verify-kernels", "verify-quasi", "verify-ratios", "kernel"],
)
def test_a_shift_that_overflows_the_kernel_caches_is_a_typed_error(args, message):
    # P_1(k) = k - c_1 = 1e-200 passes the zero test, but rho_2 = k - lambda_2/rho_1
    # is about -5e199, so P_2(k)^2 and the kernel pairs leave the double range;
    # the typed error is the only stderr line (a RuntimeWarning fails the test)
    code, out, err = run_cli([*args, "--family", "chebyshev1", "--shift=1e-200"])
    assert (code, out) == (1, "")
    assert err == f"opx: ParameterOutOfRange: {message}\n"


def test_recover_at_a_shift_that_overflows_the_kernel_caches_warns_nothing():
    # the context at k = 1e-200 runs its ratio caches on numpy scalars, whose
    # inf and NaN come without a warning; the recovery passes there (a
    # RuntimeWarning fails the test)
    argv = ["recover", "--family", "chebyshev1", "--kind", "christoffel", "--shift=1e-200", "--shift", "3"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


def test_recover_command(schema):
    code, out, _ = run_cli(
        ["recover", "--family", "chebyshev1", "--kind", "uvarov", "--shift", "2",
         "--shift", "3", "--r0", "0.5", "--n-max", "6", "--tol", "1e-7", "--seed", "7"]
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)


def test_determinism_modulo_runtime():
    args = ["verify", "--family", "chebyshev1", "--suite", "kernels", "--n-max", "6",
            "--seed", "42"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    scrub = lambda s: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', s)
    assert scrub(out1) == scrub(out2)


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("OPX_SEED", "123")
    _, out_env, _ = run_cli(["verify", "--family", "chebyshev1", "--suite", "chains", "--n-max", "4"])
    assert json.loads(out_env)["config_echo"]["seed"] == 123
    # explicit flag wins over the environment
    _, out_flag, _ = run_cli(
        ["verify", "--family", "chebyshev1", "--suite", "chains", "--n-max", "4", "--seed", "9"]
    )
    assert json.loads(out_flag)["config_echo"]["seed"] == 9


def test_float_serialization_round_trips():
    _, out, _ = run_cli(["verify", "--family", "chebyshev1", "--suite", "chains", "--n-max", "4"])
    report = json.loads(out)
    value = next(c["max_residual"] for c in report["cases"] if c["name"] == "quarter_chain_minimal_params")
    assert value == 2.220446049250313e-16  # 17 significant digits round-trip


def test_custom_family_ingestion(tmp_path, schema):
    path = tmp_path / "coeffs.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "c_n", "lambda_n"])
        writer.writerow([1, 0.0, 3.141592653589793])
        writer.writerow([2, 0.0, 0.5])
        for n in range(3, 30):
            writer.writerow([n, 0.0, 0.25])
    code, out, _ = run_cli(
        ["verify", "--family", "custom", "--coeffs", str(path), "--support=-1,1",
         "--suite", "kernels", "--n-max", "6", "--seed", "3"]
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["overall"] is True


def test_custom_recovery_suite_on_a_40_row_file(tmp_path):
    # the Cauchy mass of a finite table sums one Gauss rule of at most its 40
    # rows; node doubling asked for 64 and exited 2.  Its 40-node sum is the
    # closed form -pi/sqrt(3) and the J-fraction mass
    path = tmp_path / "coeffs.csv"
    rows = ["n,c_n,lambda_n", f"1,0,{np.pi!r}", "2,0,0.5", *(f"{n},0,0.25" for n in range(3, 41))]
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(
        ["verify", "--family", "custom", "--coeffs", str(path), "--support=-1,1", "--suite", "recovery"]
    )
    assert code == 0, err
    cases = {case["name"]: case for case in json.loads(out)["cases"]}
    assert cases["geronimus_solved_mass"]["max_residual"] <= 1e-12


@pytest.mark.parametrize(
    "args",
    [["recover", "--kind", "christoffel"], ["ratio", "--n-max", "8"], ["verify", "--suite", "kernels"]],
    ids=["recover", "ratio", "verify-kernels"],
)
def test_a_zero_lambda_in_a_custom_file_is_a_typed_error(tmp_path, args):
    # the kernel context refuses lambda_3 = 0 before its recurrence divides
    # by it, in gauss_rule's words; the typed error is the only stderr line
    # (a RuntimeWarning fails the test)
    path = tmp_path / "coeffs.csv"
    rows = ["n,c_n,lambda_n", f"1,0,{np.pi!r}", "2,0,0.25", "3,0,0.0", *(f"{n},0,0.25" for n in range(4, 16))]
    path.write_text("\n".join(rows) + "\n")
    custom = ["--family", "custom", "--coeffs", str(path), "--support=-1,1", "--shift", "0.3"]
    assert run_cli([*args, *custom]) == (1, "", "opx: NotPositiveDefinite: lambda_3 = 0.0 <= 0\n")


def test_custom_family_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,0,1\n")
    code, _, err = run_cli(
        ["verify", "--family", "custom", "--coeffs", str(path), "--support=-1,1",
         "--suite", "chains", "--n-max", "4"]
    )
    assert code == 2
    assert "header" in err


# the Chebyshev-1 recurrence, long enough for every suite at --n-max 3
GOOD_COEFFS = "n,c_n,lambda_n\n1,0,3.141592653589793\n2,0,0.5\n" + "".join(f"{n},0,0.25\n" for n in range(3, 40))


@pytest.mark.parametrize(
    "coeffs, support",
    [
        (None, "-1,1"),
        ("n,c_n,lambda_n\n1,0.1,2.0\ntwo,0.2,0.5\n", "-1,1"),
        ("n,c_n,lambda_n\n1,0.1,2.0\n2,0.2\n", "-1,1"),
        (GOOD_COEFFS.replace("\n2,0,", "\n2,nan,"), "-1,1"),
        (GOOD_COEFFS, "-inf,0"),
        (GOOD_COEFFS, "nan,1"),
        (GOOD_COEFFS, "1,-1"),
    ],
    ids=["missing-file", "non-integer-n", "short-row", "nan-coefficient", "infinite-a", "nan-a", "reversed"],
)
@pytest.mark.parametrize("command", ["recover", "verify"])
def test_malformed_custom_input_is_a_usage_error(tmp_path, command, coeffs, support):
    path = tmp_path / "coeffs.csv"
    if coeffs is not None:
        path.write_text(coeffs)
    code, out, err = run_cli(
        [command, "--family", "custom", "--coeffs", str(path), f"--support={support}", "--n-max", "3"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("opx: ") and "Traceback" not in err


def test_all_report_commands_validate_against_schema(schema):
    for args in (
        ["eval", "--family", "chebyshev1", "--n-max", "3", "--points", "0.2"],
        ["ratio", "--family", "chebyshev1", "--shift", "1", "--n-max", "4"],
        ["ratio", "--family", "laguerre", "--gamma", "0.5", "--shift", "0", "--n-max", "4"],
        ["chain", "--l-const", "0.3", "--n-max", "6"],
        ["kernel", "--family", "jacobi", "--gamma", "0.3", "--delta", "0.7", "--shift", "2",
         "--n-max", "4"],
    ):
        code, out, _ = run_cli(args)
        assert code == 0, args
        jsonschema.validate(json.loads(out), schema)


def test_custom_file_rows_up_to_n_max_suffice(tmp_path):
    # P_0..P_n need c_1..c_n and lambda_2..lambda_n, so rows n = 1..4 serve --n-max 4
    path = tmp_path / "coeffs.csv"
    path.write_text("n,c_n,lambda_n\n1,0.1,2.0\n2,0.2,0.5\n3,-0.1,0.3\n4,0.05,0.25\n")
    base = ["eval", "--family", "custom", "--coeffs", str(path), "--support=-1,1",
            "--points=0.3", "--points=-0.7", "--output", "csv"]
    code4, out4, err4 = run_cli([*base, "--n-max", "4"])
    code3, out3, _ = run_cli([*base, "--n-max", "3"])
    assert (code4, code3) == (0, 0), err4
    rows4 = list(csv.reader(io.StringIO(out4)))
    rows3 = list(csv.reader(io.StringIO(out3)))
    # rows run point by point, degrees 0..n within each point
    assert [r for r in rows4 if r[0] != "4"] == rows3
    assert len(rows4) == len(rows3) + 2


def test_verify_laguerre_quasi_seed_138_passes():
    # b = -1.5, n = 5 at x < 0.07: the derived form's terms reach ~1e7 and
    # cancel to rounding; the residual is measured against their size
    code, out, _ = run_cli(
        ["verify", "--family", "laguerre", "--gamma", "0.5", "--suite", "quasi", "--seed", "138"]
    )
    report = json.loads(out)
    case = next(c for c in report["cases"] if c["name"] == "difference_equation_proof_form")
    assert case["pass"] is True
    assert code == 0


CUSTOM_EVAL = ["eval", "--family", "custom", "--support=-1,1", "--points=0.3", "--coeffs"]
FOUR_ROWS = "n,c_n,lambda_n\n1,0.1,2.0\n2,0.2,0.5\n3,-0.1,0.3\n4,0.05,0.25\n"


def test_too_short_coefficient_file_is_a_usage_error(tmp_path):
    # P_0..P_6 need rows n = 1..6; the last row needed is named, so a file
    # lengthened to it serves the command
    path = tmp_path / "coeffs.csv"
    path.write_text(FOUR_ROWS)
    code, out, err = run_cli([*CUSTOM_EVAL, str(path), "--n-max", "6"])
    assert (code, out, err) == (2, "", "opx: coefficient file defines n up to 4, needed 6\n")
    path.write_text(FOUR_ROWS + "5,0.0,0.25\n6,0.0,0.25\n")
    assert run_cli([*CUSTOM_EVAL, str(path), "--n-max", "6"])[0] == 0


@pytest.mark.parametrize(
    "flags",
    [["--coeffs", "FILE"], ["--coeffs", "FILE", "--support=-1,1"], ["--support=-1,1"],
     ["--family", "jacobi", "--coeffs", "FILE", "--support=-1,1"]],
    ids=["coeffs", "coeffs-support", "support", "jacobi"],
)
def test_custom_family_flags_need_family_custom(tmp_path, flags):
    # a built-in family would ignore the file; without --support the echo crashed
    path = tmp_path / "coeffs.csv"
    path.write_text(FOUR_ROWS)
    argv = ["eval", *[str(path) if f == "FILE" else f for f in flags], "--n-max", "3"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("opx: --coeffs and --support need --family custom")


@pytest.mark.parametrize(
    "family", [[], ["--family", "custom", "--coeffs", "coeffs.csv"]], ids=["chebyshev1", "custom"]
)
def test_empty_support_is_a_usage_error(family):
    # an empty --support= is given, not absent: it must not pass as no support
    code, out, err = run_cli(["verify", "--suite", "chains", *family, "--support=", "--n-max", "4"])
    assert (code, out, err) == (2, "", "opx: --support expects 'a,b', got ''\n")


@pytest.mark.parametrize(
    "coeffs, message",
    [
        (FOUR_ROWS + "2,0.9,0.7\n", "line 6: n = 2 is listed twice"),
        (FOUR_ROWS.replace("\n4,", "\n5,"), "n = 4 is missing"),
        (FOUR_ROWS.replace("\n3,", "\n7,"), "n = 3 is missing"),
        (FOUR_ROWS.replace("\n1,", "\n0,"), "n = 1 is missing"),
        ("n,c_n,lambda_n\n", "n = 1 is missing"),
    ],
    ids=["duplicate", "gap-past-n-max", "gap", "starts-at-0", "no-rows"],
)
def test_coefficient_file_lists_each_n_once(tmp_path, coeffs, message):
    path = tmp_path / "coeffs.csv"
    path.write_text(coeffs)
    code, out, err = run_cli([*CUSTOM_EVAL, str(path), "--n-max", "3"])
    assert (code, out) == (2, "")
    assert err.startswith(f"opx: {path}") and message in err


@pytest.mark.parametrize("n_max, needed", [("1", 6), ("2", 7)])
def test_geronimus_on_a_coefficient_file_needs_the_rows_christoffel_needs(tmp_path, n_max, needed):
    # a finite table's J-fraction is cut at its last row, not at a fixed depth
    path = tmp_path / "coeffs.csv"
    path.write_text(FOUR_ROWS)
    base = ["recover", "--family", "custom", "--coeffs", str(path), "--support=-1,1", "--n-max", n_max]
    message = f"opx: coefficient file defines n up to 4, needed {needed}\n"
    for kind in ("christoffel", "geronimus"):
        assert run_cli([*base, "--kind", kind]) == (2, "", message)


# ---------------------------------------------------------------------------
# one parse per call: a call leaves nothing behind for the next
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _scrub(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


def _fresh_run(argv):
    """Exit code and scrubbed report of ``argv`` in a new interpreter."""
    script = f"import sys\nfrom opx import cli\nsys.exit(cli.main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    return done.returncode, _scrub(done.stdout)


def test_repeated_options_do_not_carry_over_to_the_next_call():
    assert run_cli(["eval", "--shift=2", "--points=0.3", "--derivs"])[0] == 0
    code, out, _ = run_cli(["eval"])
    echo = json.loads(out)["config_echo"]
    assert "shifts" not in echo and "points" not in echo
    assert (code, _scrub(out)) == _fresh_run(["eval"])


def test_a_usage_error_leaves_the_next_call_intact():
    code, out, err = run_cli(["verify", "--family", "nosuch"])
    assert (code, out) == (2, "")
    assert err.startswith("opx: --family: ") and err.count("\n") == 1
    argv = ["recover", "--kind", "uvarov", "--shift=-2"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert (code, _scrub(out)) == _fresh_run(argv)


def test_append_defaults_stay_empty():
    run_cli(["eval", "--shift=2", "--shift=3", "--points=0.3"])
    run_cli(["kernel", "--points=0.3"])
    cfg = cli._parse(["eval"])
    assert (cfg.shifts, cfg.points) == ([], [])


# ---------------------------------------------------------------------------
# the one-pass parse against an argparse parser built from the same table
# ---------------------------------------------------------------------------


def _reference_parser():
    """argparse over ``cli._COMMANDS``, with no abbreviations and with a flag
    left out of the namespace when it is not given, as ``cli._read_argv``."""
    parser = argparse.ArgumentParser(prog="opx", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, own) in cli._COMMANDS.items():
        sub = commands.add_parser(command, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for name, flag in {**cli._COMMON, **own}.items():
            if flag.convert is None:
                sub.add_argument(name, dest=flag.dest, action="store_true")
                continue
            action = "append" if flag.repeat else "store"
            sub.add_argument(name, dest=flag.dest, type=flag.convert, choices=flag.choices or None, action=action)
    return parser


REFERENCE = _reference_parser()
# values by converter: negative literals, exponent forms and non-finite
# numbers among them
VALUES = {
    float: ["0.5", "-0.5", "-5", "-.5", "3", "1e-3", "-5e-05", "2E1", "nan", "-inf"],
    int: ["0", "1", "3", "12", "-1", "-7"],
    str: ["0.1,0.2", "-1,1", "0,inf", "1,0", "coeffs.csv", ""],
}
# at most one of these per argv: an unknown flag, an abbreviation, a stray
# value, a switch given a value, a bad conversion, a bad choice, a missing value
FAULTS = [
    ["--bogus"], ["--fam", "jacobi"], ["--n", "3"], ["0.5"], ["--derivs=1"],
    ["--n-max", "2.5"], ["--seed=x"], ["--family", "nosuch"], ["--output=xml"], ["--gamma"],
]


@st.composite
def argvs(draw):
    """A command and its flags, drawn from few distinct flags so that they
    repeat, in both value forms, and now and then one fault."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = {**cli._COMMON, **cli._COMMANDS[command][1]}
    # a repeatable flag, and at most two others
    names = [draw(st.sampled_from([name for name, flag in flags.items() if flag.repeat]))]
    names += draw(st.lists(st.sampled_from(list(flags)), max_size=2))
    groups = []
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=6)):
        flag = flags[name]
        if flag.convert is None:
            groups.append([name])
            continue
        value = draw(st.sampled_from(flag.choices or VALUES[flag.convert]))
        groups.append(draw(st.sampled_from([[f"{name}={value}"], [name, value]])))
    fault = draw(st.sampled_from([None, None, *FAULTS]))
    if fault is not None:
        groups.insert(draw(st.integers(0, len(groups))), fault)
    return [command, *(arg for group in groups for arg in group)]


def _reference(argv):
    """The configuration, or the usage error message, of ``cli._config`` on
    the reference namespace; None when argparse rejects ``argv``."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ns = vars(REFERENCE.parse_args(argv))
    except SystemExit:
        return None
    try:
        return cli._config(ns)
    except cli.UsageError as exc:
        return str(exc)


def _check_against_reference(argv):
    expected = _reference(argv)
    if expected is None:
        with pytest.raises(cli.UsageError):
            cli._read_argv(argv)
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("opx: ") and err.count("\n") == 1
        return
    try:
        got = cli._parse(argv)
    except cli.UsageError as exc:
        got = str(exc)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_parse_matches_an_argparse_reference(argv):
    _check_against_reference(argv)


@pytest.mark.parametrize(
    "argv",
    [
        # repeats keep their order, and the last value of any other flag wins
        ["eval", "--shift", "0.5", "--shift=3", "--points", "-5", "--points=-.5", "--points", "2"],
        ["verify", "--n-max", "3", "--suite=kernels", "--n-max=4", "--suite", "chains"],
        ["eval", "--derivs", "--derivs"],
        ["eval", "--derivs=1"],
        # a space-form value that starts with "-" is taken only as a negative literal
        ["eval", "--gamma", "-5", "--delta", "-.5", "--r0", "-0.5", "--depth", "-7"],
        ["eval", "--points", "-5e-05"],
        ["eval", "--points", "-inf"],
        ["eval", "--points=-5e-05", "--points=-inf"],
        ["eval", "--family", "custom", "--support", "-1,1"],
        ["eval", "--family", "custom", "--coeffs", "c.csv", "--support=-1,1"],
        ["eval", "--gamma", "--tol", "1"],
        ["eval", "--gamma"],
        # no abbreviations, stray values or unknown commands
        ["eval", "--fam", "laguerre"],
        ["chain", "--l-c", "0.25"],
        ["eval", "--n", "3"],
        ["eval", "3"],
        ["nosuch"],
        [],
    ],
)
def test_parse_edges_match_the_argparse_reference(argv):
    _check_against_reference(argv)


# ---------------------------------------------------------------------------
# the JSON rows against the generic renderer, and the CSV from typed
# columns against csv.writer
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, NAN, INF, -INF]),
)

# NaNs whose bits differ from float("nan")'s: a payload, and the sign bit
NAN_PAYLOAD, NAN_NEGATIVE = (
    struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in (0x7FF8000000000001, 0xFFF8000000000000)
)
RUN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.25, NAN, NAN_PAYLOAD, NAN_NEGATIVE, INF, -INF]), FLOATS
)


@st.composite
def float_runs(draw, size):
    """``size`` floats in runs of bitwise-equal neighbours, which may be
    one run: zeros of both signs, subnormals, NaNs of three bit patterns,
    infinities or any float."""
    cells = []
    while len(cells) < size:
        cells += [draw(RUN_VALUES)] * draw(st.integers(1, size - len(cells)))
    return cells


def _bits(cell):
    """A float by its bits, so that 0.0 and -0.0, or NaNs, are distinct."""
    return struct.pack("<d", cell) if isinstance(cell, float) else cell


@st.composite
def picked_cells(draw, cells, size, run):
    """``size`` cells picked from a few distinct ones drawn from ``cells``,
    in runs of ``run`` equal ones, each unlike the run before it: a long
    column, with a known number of runs, at the cost of a short one."""
    pool = draw(st.lists(cells, min_size=2, max_size=40, unique_by=_bits))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    picks = [0]
    while len(picks) * run < size:
        picks.append((picks[-1] + rnd.randrange(1, len(pool))) % len(pool))
    return [pool[i] for i in picks for _ in range(run)][:size]


@st.composite
def row_tables(draw, sizes=st.integers(0, 5)):
    """A header of distinct keys, some with %, ", \\, a comma, a newline or
    a non-ASCII letter in them, and one column per key: an int or float
    array, a float array built from runs, one value repeated, or a run of
    0.0 beside a run of -0.0, a list of None, or a list of None and floats,
    all of one length drawn from ``sizes``, zero among them.  A table
    longer than five rows picks its cells (``picked_cells``), in runs of one
    to three for the column built from runs."""
    n = draw(sizes)
    header = draw(st.lists(st.text('ab%"\\,\nλ', max_size=3), min_size=1, max_size=4, unique=True))
    cells = {
        "int": st.integers(-(2**63), 2**63 - 1).map(np.int64),
        "float": FLOATS,
        "none": st.none(),
        "mixed": st.one_of(st.none(), FLOATS),
    }
    columns = []
    for _ in header:
        kind = draw(st.sampled_from([*cells, "runs", "constant", "zeros"]))
        if kind == "runs":
            runs = float_runs(n) if n <= 5 else picked_cells(RUN_VALUES, n, draw(st.integers(1, 3)))
            columns.append(np.array(draw(runs), dtype=float))
            continue
        if kind in ("constant", "zeros"):
            # one bit pattern is a literal of the template; 0.0 and -0.0 are two
            first = draw(RUN_VALUES) if kind == "constant" else draw(st.sampled_from([0.0, -0.0]))
            split = n if kind == "constant" else draw(st.integers(1, max(n - 1, 1)))
            columns.append(np.array([first] * split + [-first] * (n - split), dtype=float)[:n])
            continue
        if n <= 5:
            column = draw(st.lists(cells[kind], min_size=n, max_size=n))
        else:
            column = [None] * n if kind == "none" else draw(picked_cells(cells[kind], n, 1))
        typed = {"int": np.int64, "float": float}.get(kind)
        columns.append(np.array(column, dtype=typed) if typed else column)
    return header, columns


def _csv_reference(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    for row in zip(*cells):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else ("" if v is None else v) for v in row])
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(row_tables())
def test_row_writers_match_their_references(table):
    header, columns = table
    rows = [dict(zip(header, row)) for row in zip(*columns)]
    assert cli._render_rows(header, columns) == cli.render_json(rows, 1)
    csv_out, _ = cli._finish(cli.RunConfig("ratio", output="csv"), [], columns, header)
    assert csv_out == _csv_reference(header, columns)


# long enough that a float column, or its run heads, reach _format_17g
LONG = st.sampled_from([cli._VECTOR_MIN - 1, cli._VECTOR_MIN, 2 * cli._VECTOR_MIN])


@settings(max_examples=20, deadline=None)
@given(row_tables(LONG))
def test_long_row_writers_match_their_references(table):
    test_row_writers_match_their_references.hypothesis.inner_test(table)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(FLOATS, st.sampled_from([1e308, -1e308])), max_size=6),
        st.integers(1, 12).flatmap(float_runs),
    ),
    st.integers(0, 2),
)
def test_float_lists_match_their_entries(values, indent):
    # a list of floats is written from one format per run, others entry by entry
    pad = "  " * indent
    expected = "[\n" + pad + "  " + f",\n{pad}  ".join(map(cli._render_scalar, values)) + "\n" + pad + "]"
    assert cli.render_json(values, indent) == (expected if values else "[]")


def test_runs_are_written_from_one_string(monkeypatch, capsys):
    # one run is one literal of the template, with no cells
    assert cli._column_cells(np.full(10_000, 0.1)) == (b"0.10000000000000001", None)
    slot, cells = cli._column_cells(np.repeat([0.1, 0.2], 5_000))
    assert slot == b"%s" and len(cells) == 10_000 and cells[0] == b"0.10000000000000001"
    assert all(cell is cells[0] for cell in cells[:5_000]) and all(cell is cells[-1] for cell in cells[5_000:])
    # the chain's l echo, and its rows' l_n and complementary_k_n
    written = []
    float_cells = cli._float_cells

    def spy(column):
        written.append(float_cells(column))
        return written[-1]

    monkeypatch.setattr(cli, "_float_cells", spy)
    assert cli.main(["chain", "--l-const", "0.25", "--n-max", "10000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config_echo"]["l"] == [0.25] * 10_000
    rows = report["rows"]
    assert len(rows) == 10_000 and {(r["l_n"], r["complementary_k_n"]) for r in rows} == {(0.25, 0.75)}
    runs = [slot for slot, cells in written if cells is None]
    assert sorted(runs) == [b"0.25", b"0.25", b"0.75"]


# ---------------------------------------------------------------------------
# the vectorised %.17g of long float columns against % itself
# ---------------------------------------------------------------------------


def _percent_17g(x):
    return ["%.17g" % v if math.isfinite(v) else "null" for v in x.tolist()]


def _hard_cases():
    """Values where a shortcut to %.17g goes wrong first: exact ties and
    their neighbours, powers of ten and one ulp either side of them (the
    fixed and exponent forms meet at 1e-5/1e-4 and 1e16/1e17; some round up
    to the next power at 17 digits), three-digit exponents, the ends of the
    vector path's range, zeros, subnormals, the largest doubles and the
    values that are not finite."""
    m = np.random.default_rng(5).integers(2**52, 2**53, 500).astype(float)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    special = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
        1.7976931348623157e308, -1.7976931348623157e308, INF, -INF, NAN, NAN_PAYLOAD, NAN_NEGATIVE,
        1e16, 1e17, np.nextafter(1e17, 0), 2.0**50 + 0.25, 1e-280, 1e290, 1.5e-100, -2.5e200,
    ]
    ends = np.array([1e-280, 1e290])
    return np.concatenate([
        m / 4, (m + m % 2) / 4 + 0.25, m / 2, m / 8,  # ties at m/4 for odd m, and at m/4 + 1/4 for even
        tens, np.nextafter(tens, 0), np.nextafter(tens, INF), -1.5 * tens,
        np.nextafter(ends, 0), np.nextafter(ends, INF), special, NEAR_TIES,
    ])


# doubles within 2^-50 of a tie at 17 digits (in units of the last digit)
# that the double-double product rounds the wrong way unless the tie margin
# sends them to %: for a = m 2^e, whose a 10^(16-X) is m N/M in lowest
# terms, the least m >= 2^52 with 2 m N mod 2M within 2^-49 M of M
NEAR_TIES = [
    2.266837413465321e-277, 4.118576227452893e-233, 2.3963051471557113e-190, 4.883552639228122e-128,
    1.8055754179005077e-86, 1.361777773360278e-32, 3.314470648054566e57, 4.0144837658702725e115,
    2.91844021008761e160, 1.3789807665919937e235, 3.951720395736578e268, 5.2114879477055357e284,
]


def test_vector_format_is_percent_on_hard_cases():
    x = _hard_cases()
    assert cli._format_17g(x) == [s.encode() for s in _percent_17g(x)]
    assert cli._format_17g(-x) == [s.encode() for s in _percent_17g(-x)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_vector_format_is_percent_on_raw_bits(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert cli._format_17g(x) == [s.encode() for s in _percent_17g(x)]
