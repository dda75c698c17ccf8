import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from opx import cli


def run_cli(args):
    import contextlib

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


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--family", "nosuch"])
    assert exc.value.code == 2


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


def test_kernel_command(schema):
    code, out, _ = run_cli(["kernel", "--family", "chebyshev1", "--shift", "2", "--n-max", "4"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["rows"][1]["lambda_star"] == pytest.approx(0.4375)


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
# one parser per process: a call leaves nothing behind for the next
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
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--family", "nosuch"])
    assert exc.value.code == 2
    argv = ["recover", "--kind", "uvarov", "--shift=-2"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert (code, _scrub(out)) == _fresh_run(argv)


def test_append_defaults_stay_empty():
    run_cli(["eval", "--shift=2", "--shift=3", "--points=0.3"])
    run_cli(["kernel", "--points=0.3"])
    [commands] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    appends = [
        action
        for sub in commands.choices.values()
        for action in sub._actions
        if isinstance(action, argparse._AppendAction)
    ]
    # --shift on each of the 6 commands, --points on eval and kernel
    assert len(appends) == 8
    assert all(action.default == [] for action in appends)
