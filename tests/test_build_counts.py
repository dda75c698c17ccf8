"""A recovery builds each kernel context and each transform record once, at
its largest degree, and its evaluators slice them: the number of builds per
``opx recover`` or ``opx verify --suite recovery`` run is fixed.  Likewise
the ratios and quasi suites evaluate their draws and points as arrays, so
their calls into ``opx.ratios`` and ``opx.quasi`` do not grow with the
number of draws or points, and a suite computes each Cauchy mass once.
The ratios suite's confluent identity reads one table over every degree,
with no ``confluent_cd`` call per degree.  The quadrature oracle evaluates
a sequence's table once per Gram matrix, on one Gauss rule, and the kernel,
quasi and recovery suites evaluate each family through such tables, so their
``eval_table`` calls, and the Gauss rules they solve, stay few, as do the
ratios suite's ``eval_table`` calls; a repeated op solves no rule, since
its shared family holds them.  The ratios suite's series rows are
summed in one term table per call and cut, a cut's table holding only the
rows still running, and none of them one by one."""

import contextlib
import io
import sys
from collections import Counter

import numpy as np
import pytest

import opx
from opx import cli, families, kernels, moments, quasi, ratios, suites, transforms


@pytest.fixture
def builds(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    init = kernels.KernelContext.__init__
    monkeypatch.setattr(kernels.KernelContext, "__init__", counting("KernelContext", init))
    for module, name in (
        (transforms, "geronimus_data"), (transforms, "uvarov_data"), (kernels, "kernel_family")
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "kind, expected",
    [
        # contexts at k1 and k2
        ("christoffel", {"KernelContext": 2}),
        # the context at k2; the Geronimus record at k1 has none
        ("geronimus", {"KernelContext": 1, "geronimus_data": 1}),
        # the Uvarov record's context at k1, and the context at k2
        ("uvarov", {"KernelContext": 2, "uvarov_data": 1}),
        # k1, k2, and the iterated context's shifted family at k3
        ("order2", {"KernelContext": 3, "kernel_family": 1}),
    ],
)
@pytest.mark.parametrize("n_max", ["2", "8"])
def test_recover_builds_each_context_once(builds, kind, expected, n_max):
    _run(["recover", "--kind", kind, "--n-max", n_max])
    assert dict(builds) == expected


def test_recovery_suite_builds(builds):
    # the four recover cases; the Geronimus and Uvarov orthogonality cases
    # slice the records of their recoveries
    _run(["verify", "--suite", "recovery"])
    expected = {"KernelContext": 8, "geronimus_data": 1, "uvarov_data": 1, "kernel_family": 1}
    assert dict(builds) == expected


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in (
        (ratios, "evaluate_cf"),
        (ratios, "_list_fraction"),
        (ratios, "hyp_series"),
        (ratios, "confluent_cd"),
        (quasi, "difference_equation_residual"),
    ):
        fn = getattr(module, name)

        def wrapper(*args, name=name, fn=fn, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize(
    "flags, expected",
    [
        # evaluate_cf: the terminating Gauss and Kummer batches and the
        # non-terminating Gauss batch, none of whose rows is evaluated on its
        # own (_list_fraction); hyp_series: one call per check, the
        # Gauss call summing both series forms' numerator, denominator and
        # magnitude rows of its one overdrawn block, the Kummer call its
        # three, and one call for the non-terminating pair; no confluent_cd
        # call: the confluent identity reads one table over every degree
        # (one call per degree made 9)
        ([], {"evaluate_cf": 3, "hyp_series": 3}),
        (["--seed", "2"], {"evaluate_cf": 3, "hyp_series": 3}),
        # plus one scalar fraction per prefactor degree n = 1..6, each one
        # backward pass over its numerator list, not an evaluate_cf call
        (
            ["--family", "laguerre", "--gamma", "0.5"],
            {"evaluate_cf": 3, "_list_fraction": 6, "hyp_series": 3},
        ),
        (
            ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"],
            {"evaluate_cf": 3, "_list_fraction": 6, "hyp_series": 3},
        ),
    ],
)
def test_ratios_suite_calls(calls, flags, expected):
    # a loop over the draws would make one hyp_series call per candidate
    # and one evaluate_cf call per kept draw, about 900 and 450; drawing and
    # summing only the draws still missing, round after round, made 6 or 7
    _run(["verify", "--suite", "ratios", *flags])
    assert dict(calls) == expected


def test_a_ratios_check_rarely_needs_a_second_round(monkeypatch):
    # a round draws 200 + 25 + 4 candidates for the 200 draws of a check;
    # about 0.9% of Gauss and 4.2% of Kummer candidates do not certify, so
    # over seeds 0-199 at most a few percent of checks draw again
    rounds = Counter()
    for name in ("_gauss_series", "_kummer_series"):
        series = getattr(suites, name)

        def counted(*draws, name=name, series=series):
            rounds[name] += 1
            return series(*draws)

        monkeypatch.setattr(suites, name, counted)
    # the fractions do not choose the draws: skip them
    for name in ("gauss_cf_ratio", "kummer_cf_ratio"):
        monkeypatch.setattr(ratios, name, lambda *args: args[-2])
    for seed in range(200):
        suites.gauss_cf_vs_series(np.random.default_rng(seed), 200, 60)
        suites.kummer_cf_vs_series(np.random.default_rng(seed), 200, 60)
    assert rounds["_gauss_series"] <= 204 and rounds["_kummer_series"] <= 210


@pytest.mark.parametrize(
    "flags",
    [[], ["--family", "laguerre", "--gamma", "0.5"], ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"]],
    ids=["chebyshev1", "laguerre0.5", "jacobi"],
)
def test_ratios_suite_sums_few_series_rows_one_by_one(monkeypatch, flags):
    # the 2161 series rows of the default seed: six per Gauss candidate of
    # its 229 (both forms' numerator, denominator and magnitudes), three per
    # Kummer candidate of its 229, and the 100 of the non-terminating pair.
    # Each hyp_series call builds one term table, 13 terms wide for the
    # terminating rows, whose deepest zero is term 12, and 65 for the
    # non-terminating pair, whose rows all stop at the first cut, 64 terms
    # of their 400; none is summed one by one, where a loop over the rows
    # made 2161 sums
    tables, one_by_one = _series_tables(monkeypatch, flags)
    assert tables == [(13, 1374), (13, 687), (65, 100)]
    assert not one_by_one


@pytest.mark.parametrize("seed, running", [(1, 1), (33, 2)])
def test_only_the_running_series_rows_reach_the_second_cut(monkeypatch, seed, running):
    # at these seeds one or two rows of the non-terminating pair's 100 are
    # still running at the first cut, 64 terms, and only they are summed at
    # the second, 128; a table of every row made 129 columns for all 100
    tables, one_by_one = _series_tables(monkeypatch, ["--seed", str(seed)])
    assert tables == [(13, 1374), (13, 687), (65, 100), (129, running)]
    assert not one_by_one


def _series_tables(monkeypatch, flags):
    """The (width, rows) of each term table a ratios op builds, and the
    argument tuples of its hyp_series calls summed row by row."""
    tables, one_by_one = [], []
    term_table, series_rows = ratios._term_table, ratios._series_rows

    def counting_table(tops, r, z, width):
        tables.append((width, len(z)))
        return term_table(tops, r, z, width)

    monkeypatch.setattr(ratios, "_term_table", counting_table)
    monkeypatch.setattr(ratios, "_series_rows", lambda *args: one_by_one.append(args) or series_rows(*args))
    _run(["verify", "--suite", "ratios", *flags])
    return tables, one_by_one


def test_chains_suite_calls(monkeypatch):
    # one g-table for the 20 draws and one recurrence over their 20 rows and
    # 20 complements, stacked; the quarter chain's sequence and complement
    # run on their own.  A loop made 20 g-tables and 40 recurrences more
    shapes = []
    for name in ("_gauss_g", "_minimal_params"):
        fn = getattr(ratios, name)

        def recording(*args, name=name, fn=fn, **kwargs):
            out = fn(*args, **kwargs)
            shapes.append((name, out.shape))
            return out

        monkeypatch.setattr(ratios, name, recording)
    _run(["verify", "--suite", "chains"])
    assert shapes == [
        ("_minimal_params", (101,)),
        ("_minimal_params", (101,)),
        ("_gauss_g", (20, 51)),
        ("_minimal_params", (40, 51)),
    ]


def test_quasi_suite_calls(calls):
    # one call over every (b, n, point); one per (b, n) made 20
    _run(["verify", "--suite", "quasi"])
    assert dict(calls) == {"difference_equation_residual": 1}


JACOBI_RECOVERY = ["verify", "--suite", "recovery", "--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"]


def test_jacobi_recovery_suite_computes_its_cauchy_mass_once(monkeypatch, fresh_families):
    # the solved-mass case and the Gram matrix's split-form entries share
    # one memoized L(1/(k - x)), whose closed form runs one Gauss fraction
    counts = Counter()
    fraction = moments.gauss_cf_ratio

    def counting(*args, **kwargs):
        counts["gauss_cf_ratio"] += 1
        return fraction(*args, **kwargs)

    monkeypatch.setattr(moments, "gauss_cf_ratio", counting)
    _run(JACOBI_RECOVERY)
    assert dict(counts) == {"gauss_cf_ratio": 1}
    # a second op reads the mass its shared family holds
    _run(JACOBI_RECOVERY)
    assert dict(counts) == {"gauss_cf_ratio": 1}


@pytest.mark.parametrize(
    "kind, extra",
    [
        (moments.Base(), []),
        (moments.Christoffel(2.0), []),
        # the point mass's node k is read with the rule's nodes
        (moments.Uvarov(2.0, 0.5), [2.0]),
    ],
    ids=["base", "christoffel", "uvarov"],
)
def test_gram_reads_its_table_once_per_rule(kind, extra):
    fam, n_max = opx.chebyshev1(), 5
    seen = []

    def table(xs):
        seen.append(xs.tobytes())
        return opx.eval_table(fam, n_max, xs)

    moments.orthogonality_residual(fam, kind, table, n_max)
    # one read, on the rule with n_max + 2 nodes, exact for every entry (one
    # per rule of the entries' degrees made 6 to 7)
    nodes = moments.gauss_rule(fam, n_max + 2).nodes
    assert seen == [np.append(nodes, extra).tobytes()]


def test_geronimus_gram_reads_its_table_once_per_node_set():
    n_max = 4
    for fam, k, split in (
        # every entry keeps the sum over the Geronimus measure
        (opx.laguerre(0.0), -1.0, False),
        # far from the support most entries take the split form, all on one
        # rule and its guard four nodes up (node doubling read 8, 16 and 32)
        (opx.jacobi(0.3, 0.7), -10.0, True),
    ):
        data = transforms.geronimus_data(fam, k, n_max)
        seen = []

        def table(xs):
            seen.append(xs.copy())
            return transforms.geronimus_table(data, n_max, xs)

        moments.orthogonality_residual(fam, moments.Geronimus(k, data.mass0), table, n_max)
        # the measure's nodes, those of the one rule that integrates every
        # divided difference exactly (n_max + 2 nodes) and k, then the split
        # form's rule of m nodes and its guard rule of m + 4, once each
        measure = np.append(moments.gauss_rule(fam, n_max + 2).nodes, k)
        expected = [measure]
        if split:
            m = seen[1].size
            expected += [moments.gauss_rule(fam, m).nodes, moments.gauss_rule(fam, m + 4).nodes]
        assert [xs.tobytes() for xs in seen] == [xs.tobytes() for xs in expected]


@pytest.fixture
def eighs(monkeypatch):
    solves = Counter()
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        solves["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return solves


@pytest.mark.parametrize(
    "suite, flags, expected",
    [
        # the Gram matrices at both shifts share the rule with n_max + 2 nodes
        # (9 with one rule per entry degree)
        ("kernels", [], 1),
        # both annihilation statistics share the rule with n_max + 3 nodes
        # (10 with one rule per degree and power_norms' own)
        ("quasi", [], 1),
        # the Gram matrices' rule with 6 + 2 = 8 nodes (the suite caps their
        # degree at 6), and the rule of the Geronimus entries that take the
        # split form, 20 nodes, with its guard of 24 (node doubling solved 16,
        # 32 and 64; 10 with one rule per entry degree)
        ("recovery", [], 3),
        # every Geronimus entry takes the exact form at k = -1 (7 before)
        ("recovery", ["--family", "laguerre", "--gamma", "0.5"], 1),
        ("recovery", ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"], 3),
    ],
)
@pytest.mark.parametrize("n_max", ["8", "10"])
def test_verify_ops_solve_few_gauss_rules(eighs, fresh_families, suite, flags, expected, n_max):
    # on a family built afresh, every rule the op reads is solved once
    _run(["verify", "--suite", suite, *flags, "--n-max", n_max])
    assert eighs["eigh"] == expected


def test_a_repeated_verify_op_solves_no_rule(eighs, fresh_families):
    # the second op reads the three rules the first solved on the shared family
    _run(JACOBI_RECOVERY)
    assert eighs["eigh"] == 3
    _run(JACOBI_RECOVERY)
    assert eighs["eigh"] == 3


@pytest.mark.parametrize(
    "flags", [["--family", "chebyshev1"], ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"]]
)
def test_recovery_suite_solves_no_rule_of_32_nodes(monkeypatch, flags):
    # at the default shift k = -2 the split form's Gram entries need 20
    # nodes; node doubling solved the 32- and 64-node rules
    orders = []
    solve = moments.gauss_rule

    def recording(family, m):
        orders.append(m)
        return solve(family, m)

    monkeypatch.setattr(moments, "gauss_rule", recording)
    _run(["verify", "--suite", "recovery", *flags])
    assert 0 < max(orders) < 32


@pytest.fixture
def eval_tables(monkeypatch):
    """Counts ``eval_table`` calls through every opx module that binds it."""
    counts = Counter()
    original = families.eval_table

    def counting(*args, **kwargs):
        counts["eval_table"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "opx" or name.startswith("opx.")) and getattr(module, "eval_table", None) is original:
            monkeypatch.setattr(module, "eval_table", counting)
    return counts


@pytest.mark.parametrize(
    "suite, most",
    [
        # per shift: the Gram matrix's one kernel table, and the branch,
        # recurrence and inversion checks: 14 (30 with one kernel table per
        # Christoffel rule, 222 when each Gram entry evaluated Pk_i and Pk_j
        # per degree)
        ("kernels", 30),
        # one kernel table for each annihilation statistic and the difference
        # equation's one: 3 (18 with one kernel table per rule, 282 per
        # degree, 38 with one difference-equation call per (b, n))
        ("quasi", 19),
        # the four recoveries' contexts and one table per sequence, then one
        # table per oracle node set of the Geronimus Gram matrix and one for
        # the Uvarov Gram matrix: 22 (35 with one Uvarov table per rule, 104
        # when each Q_n evaluated its own tables)
        ("recovery", 45),
        # the confluent identity's one table over degrees 0..8, the context
        # at k1 and its branch check, and the special-case context at k = 1
        # (12 with one confluent table per degree)
        ("ratios", 4),
    ],
)
def test_kernel_and_quasi_suites_evaluate_tables(eval_tables, suite, most):
    _run(["verify", "--suite", suite])
    assert 0 < eval_tables["eval_table"] <= most


@pytest.mark.parametrize(
    "kind, most",
    [
        # contexts at k1 and k2, P_1..P_8, one kernel table at each shift
        ("christoffel", 5),
        # the context at k2, P_1..P_8, the Geronimus table and one kernel table
        ("geronimus", 4),
        # the Uvarov record's context and the one at k2, P_1..P_8, the Uvarov
        # table (with its kernel table) and one kernel table at k2
        ("uvarov", 6),
        # contexts at k1 and k2, the iterated context's values at k3 and its
        # shifted context, P_1..P_8, and one kernel table at k1 and one shifted
        ("order2", 7),
    ],
)
def test_recover_evaluates_one_table_per_sequence(eval_tables, kind, most):
    # 18-26 when each Q_n evaluated its own tables
    _run(["recover", "--kind", kind, "--n-max", "8"])
    assert 0 < eval_tables["eval_table"] <= most


@pytest.mark.parametrize(
    "argv",
    [
        # two all-null columns, and an r_up column with NaN rows
        ["ratio", "--family", "chebyshev1", "--shift=2", "--n-max", "1000"],
        # the 10^4-entry l echo and four float columns of 10^4 rows
        ["chain", "--l-const", "0.25", "--n-max", "10000"],
    ],
)
def test_row_tables_render_no_cell_by_cell(monkeypatch, argv):
    # the header, the echo and the cases render their scalars one by one;
    # the rows and the float lists do not (one call per cell made 3036
    # and 10044)
    counts = Counter()
    scalar = cli._render_scalar

    def counting(obj):
        counts["_render_scalar"] += 1
        return scalar(obj)

    monkeypatch.setattr(cli, "_render_scalar", counting)
    with np.errstate(invalid="ignore"):  # the NaN limits of the ratio rows
        _run(argv)
    assert 0 < counts["_render_scalar"] <= 60
