"""Tests of the benchmark harness itself: failure accounting on known-bad
opx outputs, the tracer's counters, and the workloads' determinism.

    python3 -m pytest bench/selftest.py

The file name keeps it out of the opx test suite's default collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

opx = run.import_opx()


def cli_op(*argv: str) -> workloads.Op:
    return workloads.Op("test", tuple(argv))


def run_and_check(op: workloads.Op) -> tuple[checks.Outcome, list[str]]:
    _, outcome = run.run_op(opx, op)
    return outcome, checks.failures(op, outcome)


# -- failure accounting on known-bad inputs --------------------------------


def test_null_ratio_rows_fail_though_the_cli_passes():
    outcome, reasons = run_and_check(cli_op("ratio", "--family", "chebyshev1", "--shift", "2", "--n-max", "1000"))
    assert outcome.code == 0
    assert json.loads(outcome.text)["overall"] is True
    assert reasons == ["rows: 731 r_up values null or non-finite"]


def test_null_jacobi_rows_fail():
    op = cli_op("ratio", "--family", "jacobi", "--gamma", "0.3", "--delta", "0.7", "--shift", "1.5", "--n-max", "1000")
    _, reasons = run_and_check(op)
    assert reasons == ["rows: 633 r_up values null or non-finite"]


def test_finite_ratio_table_passes_and_matches_the_reference():
    op = cli_op("ratio", "--family", "chebyshev1", "--shift", "1", "--n-max", "1000")
    outcome, reasons = run_and_check(op)
    assert reasons == []
    assert checks.reference_mismatches(op, outcome) == []


def test_laguerre_recovery_suite_fails_on_geronimus_orthogonality():
    op = cli_op("verify", "--suite", "recovery", "--family", "laguerre", "--gamma", "0.5")
    _, reasons = run_and_check(op)
    assert reasons == ["exit 1", "case geronimus_transform_orthogonality: pass False"]


def test_typed_error_from_the_cli_is_a_failure():
    # a Geronimus shift inside the support is refused with a typed error
    outcome, reasons = run_and_check(cli_op("recover", "--kind", "geronimus", "--shift", "0.5"))
    assert outcome.code == 1
    assert outcome.error == "ShiftInsideSupport"
    assert reasons[:2] == ["error ShiftInsideSupport", "exit 1"]


def test_usage_error_is_a_failed_op_not_an_exit():
    outcome, reasons = run_and_check(cli_op("eval", "--points", "-5e-05"))
    assert outcome.code == 2
    assert reasons == ["exit 2"]


def test_typed_error_from_the_api_is_a_failure():
    op = workloads.Op("test", api="jacobi_ratio_cf", calls=((0.3, 0.7, 40, 0.2, 60),))
    outcome, reasons = run_and_check(op)
    assert outcome.error == "NonConvergent"
    assert reasons == ["error NonConvergent", "exit 1"]


KNOWN = run.load_known_failures()
LAGUERRE_RECOVERY = ("verify", "--suite", "recovery", "--family", "laguerre", "--gamma", "0.5")


def account_one(op: workloads.Op, outcome: checks.Outcome, repeat: checks.Outcome | None = None):
    """Account a two-batch run of one op; ``repeat`` is its second output."""
    workload = workloads.Workload("test", (op,), min_batches=2)
    batches = [run.Batch(1.0, [1.0], [1e-3], 0) for _ in range(2)]
    if repeat is not None and run._digest(repeat) != run._digest(outcome):
        batches[1].differing[0] = checks.failures(op, repeat) + ["report differs from an earlier repeat"]
    return run.account(workload, batches, [outcome], KNOWN)


def test_known_failures_name_workload_ops():
    names = {op.name for name in workloads.BUILDERS for op in workloads.build(name, 0).ops}
    assert set(KNOWN) <= names


def test_a_known_failure_is_counted_and_the_run_stays_correct():
    op = workloads.Op("verify.recovery.laguerre", LAGUERRE_RECOVERY)
    _, outcome = run.run_op(opx, op)
    attempted, failed, correct, notes = account_one(op, outcome)
    assert (attempted, failed, correct) == (2, 2, True)
    assert notes[0].startswith("failed (known) verify.recovery.laguerre: exit 1")


def test_the_same_failure_on_another_op_makes_the_run_incorrect():
    op = workloads.Op("verify.recovery.jacobi", LAGUERRE_RECOVERY)
    _, outcome = run.run_op(opx, op)
    attempted, failed, correct, notes = account_one(op, outcome)
    assert (failed, correct) == (2, False)
    assert notes[0].startswith("failed (new) verify.recovery.jacobi")


def test_a_new_failing_case_on_a_known_op_makes_the_run_incorrect():
    op = workloads.Op("verify.recovery.laguerre", LAGUERRE_RECOVERY)
    _, outcome = run.run_op(opx, op)
    report = json.loads(outcome.text)
    passing = next(case for case in report["cases"] if case["pass"] is True)
    passing["pass"] = False
    outcome = checks.Outcome(json.dumps(report), outcome.code)
    assert account_one(op, outcome)[2] is False


def test_null_rows_are_known_only_where_listed():
    for name, correct in (("ratio.chebyshev1.k2.n1000", True), ("ratio.chebyshev1.k1.n1000", False)):
        op = workloads.Op(name, ("ratio", "--family", "chebyshev1", "--shift", "2", "--n-max", "1000"))
        _, outcome = run.run_op(opx, op)
        assert account_one(op, outcome)[1:3] == (2, correct)


def test_a_report_that_changes_between_repeats_makes_the_run_incorrect():
    op = workloads.Op("verify.recovery.laguerre", LAGUERRE_RECOVERY)
    _, outcome = run.run_op(opx, op)
    changed = checks.Outcome(outcome.text.replace("true", "false", 1), outcome.code)
    attempted, failed, correct, notes = account_one(op, outcome, changed)
    assert (failed, correct) == (2, False)
    assert notes[-1].startswith("failed in batch 1 (new) verify.recovery.laguerre")


def _report(cases=(), rows=()):
    return {"command": "x", "config_echo": {}, "cases": list(cases), "rows": list(rows)}


@pytest.mark.parametrize(
    "report, expected",
    [
        (_report([{"name": "a", "max_residual": 0.1, "tolerance": None, "pass": None}]), []),
        (_report([{"name": "a", "max_residual": 0.1, "tolerance": 1e-9, "pass": False}]), ["case a: pass False"]),
        (_report([{"name": "a", "max_residual": None, "tolerance": 1e-9, "pass": True}]), ["case a: max_residual None"]),
        (_report([{"name": "a", "max_residual": 0.0, "tolerance": None, "pass": True}]), ["case a: tolerance None with pass True"]),
        (_report(rows=[{"n": 1, "r_up": 0.5, "closed_form": None, "abs_diff": None}]), []),
        (_report(rows=[{"n": 1, "r_up": 0.5, "closed_form": 0.5, "abs_diff": None}]), ["rows: 1 abs_diff values null or non-finite"]),
        (_report(rows=[{"n": 1, "r_up": None}, {"n": 2, "r_up": None}]), ["rows: 2 r_up values null or non-finite"]),
    ],
)
def test_report_failures(report, expected):
    assert checks.report_failures(report) == expected


def test_runtime_is_the_only_field_ignored_between_repeats():
    a = '{\n  "overall": true,\n  "runtime_ms": 5\n}\n'
    b = '{\n  "overall": true,\n  "runtime_ms": 1234\n}\n'
    assert checks.stable_text(a) == checks.stable_text(b)
    assert checks.stable_text(a) != checks.stable_text(a.replace("true", "false"))


def test_a_changed_repeat_counts_as_failed():
    ok = checks.Outcome('{"cases": [], "runtime_ms": 1}')
    assert run._digest(ok) == run._digest(checks.Outcome('{"cases": [], "runtime_ms": 9}'))
    assert run._digest(ok) != run._digest(checks.Outcome('{"cases": [1], "runtime_ms": 1}'))


# -- tracer ----------------------------------------------------------------


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _opx_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "opx" or name.startswith("opx."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_install_rebinds_every_importer_and_uninstall_restores():
    before = _opx_bindings()
    init = opx.kernels.KernelContext.__init__
    t = Tracer()
    t.install()
    try:
        for module in (opx.families, opx.kernels, opx.transforms, opx):
            assert module.eval_table.__wrapped__ is before[("opx.families", "eval_table")]
        assert opx.kernels.gauss_rule is opx.moments.gauss_rule is opx.transforms.gauss_rule
        assert opx.kernels.KernelContext.__init__ is not init
    finally:
        t.uninstall()
    assert _opx_bindings() == before
    assert opx.kernels.KernelContext.__init__ is init


def test_cold_gauss_rules_are_counted_once_per_family_and_order(tracer):
    fam = opx.chebyshev1()
    opx.moments.gauss_rule(fam, 8)
    opx.moments.gauss_rule(fam, 8)
    opx.moments.gauss_rule(opx.chebyshev1(), 8)
    assert tracer.stats["moments.gauss_rule.calls"] == 3
    assert tracer.stats["moments.gauss_rule.cold"] == 2
    assert tracer.stats["moments.gauss_rule.cold_nodes"] == 16


@pytest.mark.parametrize("start, cap, hits", [(8, 32, 1), (12, 64, 1), (8, 4096, 0)])
def test_cap_hits(tracer, start, cap, hits):
    fam = opx.chebyshev1()
    smooth = hits == 0

    def integrand(xs):
        return xs**2 if smooth else abs(xs)  # |x| converges slowly

    opx.moments.integrate_until_stable(fam, integrand, start_order=start, max_order=cap, rtol=1e-15)
    assert tracer.stats["moments.integrate_until_stable.cap_hits"] == hits


def test_self_time_excludes_children_and_recursion_is_one_span(tracer):
    ctx = opx.kernels.KernelContext(opx.chebyshev1(), 2.0, 8)
    opx.kernels.kernel_poly(ctx, 5, [0.1, 0.2, 0.3])
    opx.cli.render_json({"a": [1.0, {"b": 2}], "c": "d"})
    s = tracer.stats
    assert s["cli.render_json.calls"] == 1
    assert s["kernels.kernel_poly.points"] == 3
    assert s["kernels.KernelContext.n_total"] == 8
    for layer in LAYERS:
        parts = [v for k, v in s.items() if k.startswith(layer + ".") and k.endswith(".self_s") and k.count(".") == 2]
        assert s[layer + ".self_s"] == pytest.approx(sum(parts))
        assert all(v >= 0.0 for v in parts)


def test_errors_count_once_where_they_leave_a_layer(tracer):
    with pytest.raises(opx.NonConvergent):
        opx.ratios.jacobi_ratio_cf(0.3, 0.7, 40, 0.2, 60)  # raised in evaluate_cf
    ctx = opx.kernels.KernelContext(opx.chebyshev1(), 2.0, 4)
    with pytest.raises(ValueError):
        opx.kernels.kernel_poly(ctx, 9, 0.5)
    assert tracer.stats["ratios.errors"] == 1
    assert tracer.stats["kernels.errors"] == 1


def test_nonfinite_ratio_limits_are_counted(tracer):
    ctx = opx.kernels.KernelContext(opx.chebyshev1(), 2.0, 1002)
    for n in (10, 900):
        opx.ratios.kernel_ratio_limit(ctx, n)
    assert tracer.stats["ratios.kernel_ratio_limit.nonfinite"] == 1


# -- workloads and the harness ---------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_follow_the_seed(name):
    a, b, c = workloads.build(name, 3), workloads.build(name, 3), workloads.build(name, 4)
    assert a == b
    assert a != c
    assert len({op.name for op in a.ops}) == len(a.ops)
    beyond = len(a.ops) * (1 - a.tail_percentile / 100)  # op shares beyond the tail
    assert beyond * a.min_batches >= 10 - 1e-9
    assert beyond % 1 == pytest.approx(0.5)


def test_cf_draws_are_exact_at_depth_and_match_the_series():
    for op in workloads.build("ratio-tables", 11).ops:
        if op.api:
            _, outcome = run.run_op(opx, op)
            assert checks.failures(op, outcome) == []
            assert checks.reference_mismatches(op, outcome) == []


def test_eval_reference_matches_every_family():
    for op in workloads.build("recover-points", 5).ops:
        if op.argv[0] == "eval":
            _, outcome = run.run_op(opx, op)
            assert checks.reference_mismatches(op, outcome) == []


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ratio-tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
