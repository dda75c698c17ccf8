"""Evaluating on a whole point vector (or over every n) gives the same
numbers as evaluating point by point, which is what lets the CLI evaluate
each sequence and each row table in one pass.  The recoveries match
bitwise, the order-two one on the complex shifts 1j and -1j too: a number
is evaluated as a one-point array, so it never meets Python's or numpy's
scalar complex arithmetic, which round differently.  One point matches the
same point inside a vector bitwise, and the kernel contexts' ratio caches,
NaN positions included, match the numpy-scalar loop below.  The row-table renderer writes the same bytes
as the generic JSON renderer, whatever the types of its columns.  The
continued fractions and hypergeometric series take their draws as array
rows, bitwise equal to row-by-row calls, and an array call with failing rows
raises the error a loop over its rows meets first; each series row is the
float sum of its terms in term order, up to its first zero, its first cut
that the stated tail bound settles or its last term, bit for bit, errors
included, and within the stated bound of the exact sum.  The kernel table over
all degrees gives, row by row, bitwise the values of a per-degree evaluator;
the Geronimus, Uvarov and recovery tables those of the per-degree
evaluators they replaced, ``kernel_ratio_limit``
the scalar formula it ran before it became one entry of
``kernel_ratio_limits``, and the quasi suite's difference equation, one
call over every (b, n, point), the per-(b, n) loop it replaced, generator
state included; so do the ratios suite's certified draws, with one block
draw and one series call per round, its prefactor tables, and the chains
suite's one g-table and one recurrence over all its rows, against their
loops.  Those loops are kept below as the references.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import opx
from conftest import sample_points
from opx import cli, ratios, suites
from oracles import cd_kernel

N_MAX = 8
# the CLI's default shifts (k1, k2) for each family
FAMILIES = [
    ("chebyshev1", opx.chebyshev1, (-2.0, 3.0)),
    ("laguerre", lambda: opx.laguerre(0.5), (-1.0, -1.0)),
    ("jacobi", lambda: opx.jacobi(0.3, 0.7), (-2.0, 3.0)),
]


def _per_point(fn, xs):
    return np.array([fn(x) for x in xs])


@pytest.fixture(params=FAMILIES, ids=[name for name, *_ in FAMILIES])
def setup(request):
    _, make_family, shifts = request.param
    fam = make_family()
    return fam, shifts, sample_points(fam, np.random.default_rng(11), 50)


def test_eval_table_and_kernel_poly(setup):
    fam, (k1, _), xs = setup
    table = opx.eval_table(fam, N_MAX, xs)
    assert_array_equal(table, _per_point(lambda x: opx.eval_table(fam, N_MAX, [x])[:, 0], xs).T)
    ctx = opx.KernelContext(fam, k1, N_MAX + 1)
    for n in range(N_MAX + 1):
        assert_array_equal(opx.kernel_poly(ctx, n, xs), _per_point(lambda x: opx.kernel_poly(ctx, n, x), xs))


def test_cd_sum_branch_points_match_one_point_calls():
    # every point inside the switch radius, so kernel_poly runs the CD sum;
    # degrees past 8 terms, where a row sum is pairwise and a column sum is not
    k = 0.3
    ctx = opx.KernelContext(opx.chebyshev1(), k, 40)
    xs = k + np.random.default_rng(5).uniform(-1e-5, 1e-5, 50)
    for n in range(1, 40):
        assert_array_equal(opx.kernel_poly(ctx, n, xs), _per_point(lambda x: opx.kernel_poly(ctx, n, x), xs))
        assert_array_equal(cd_kernel(ctx, n, xs), _per_point(lambda x: cd_kernel(ctx, n, x), xs))


def test_real_recovery_polys(setup):
    fam, (k1, k2), xs = setup
    b = np.full(N_MAX + 1, 0.3)
    rc_c = opx.recover_christoffel(fam, k1, k2, b, N_MAX)
    rc_g = opx.recover_geronimus(fam, k1, k2, b, N_MAX)
    rc_u = opx.recover_uvarov(fam, k1, k2, 0.5, b, N_MAX)
    for rc in (rc_c, rc_g, rc_u):
        for n in range(1, N_MAX + 1):
            pts = _per_point(lambda x: opx.recovery_table(rc, n, [x])[n - 1, 0], xs)
            assert_array_equal(opx.recovery_table(rc, n, xs)[n - 1], pts)


def test_order2_recovery_poly(setup):
    fam, (k1, _), xs = setup
    rc = opx.recover_order2(fam, k1, 1j, -1j, np.full(N_MAX, 0.5), N_MAX)
    for n in range(1, N_MAX + 1):
        vec = opx.recovery_table(rc, n, xs)[n - 1]
        pts = _per_point(lambda x: opx.recovery_table(rc, n, [x])[n - 1, 0], xs)
        assert_bitwise(vec, pts)


def _scalar_derivs(fam, n, x):
    """P'_0..P'_n at one point: the differentiated recurrence in scalars."""
    values = opx.eval_table(fam, n, [x])[:, 0]
    pairs = fam.table(n)
    derivs = [0.0, 1.0]
    for m in range(1, n):
        c_next, lam_next = pairs[m]
        derivs.append(values[m] + (x - c_next) * derivs[m] - lam_next * derivs[m - 1])
    return np.array(derivs)


def test_eval_derivs(setup):
    fam, _, xs = setup
    derivs = opx.eval_derivs(fam, N_MAX, xs, opx.eval_table(fam, N_MAX, xs))
    def one_point(x):
        return opx.eval_derivs(fam, N_MAX, [x], opx.eval_table(fam, N_MAX, [x]))[:, 0]

    per_point = _per_point(one_point, xs)
    assert_array_equal(derivs, per_point.T)
    assert_array_equal(per_point, _per_point(lambda x: _scalar_derivs(fam, N_MAX, x), xs))


# the benchmark's ratio tables; chebyshev1 at 2 and jacobi at 1.5 overflow
# to NaN long before n = 1000 (ROADMAP item 2)
RATIO_CONFIGS = [
    ("chebyshev1-k1", opx.chebyshev1, 1.0, False),
    ("chebyshev1-k2", opx.chebyshev1, 2.0, True),
    ("laguerre-k-1", lambda: opx.laguerre(0.5), -1.0, False),
    ("jacobi-k1", lambda: opx.jacobi(0.3, 0.7), 1.0, False),
    ("jacobi-k1.5", lambda: opx.jacobi(0.3, 0.7), 1.5, True),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "make_family, k, has_nan", [c[1:] for c in RATIO_CONFIGS], ids=[c[0] for c in RATIO_CONFIGS]
)
def test_kernel_ratio_limits(make_family, k, has_nan):
    ctx = opx.KernelContext(make_family(), k, 1002)
    r_up, r_down = opx.kernel_ratio_limits(ctx, 1000)
    scalar = [_reference_ratio_limit(ctx, n) for n in range(1001)]
    assert all(type(v) is float for pair in scalar for v in pair)
    assert_array_equal(r_up, [u for u, _ in scalar])
    assert_array_equal(r_down, [d for _, d in scalar])
    assert np.isnan(r_up).any() == has_nan
    view = [opx.kernel_ratio_limit(ctx, n) for n in range(1001)]
    assert all(type(v) is float for pair in view for v in pair)
    assert_bitwise(view, scalar)


def _reference_ratio_limit(ctx, n):
    """The scalar ``kernel_ratio_limit`` body the one-entry view replaced:
    the limit formula at index n alone, in numpy scalars."""
    lam_n2 = ctx.family.table(n + 2)[n + 1, 1]
    rho, t = ctx.ratios[n + 1], ctx.weighted_squares[n + 1]
    r_up = (1.0 / rho) * lam_n2 * (1.0 + t / ctx.cd_partials[n])
    r_down = rho * (1.0 / lam_n2) * (1.0 - t / ctx.cd_partials[n + 1])
    if abs(np.imag(r_up)) == 0.0:
        return float(np.real(r_up)), float(np.real(r_down))
    return complex(r_up), complex(r_down)


def assert_bitwise(actual, expected):
    """Equal bit patterns: signed zeros and NaN payloads and positions too."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype
    assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _reference_caches(family, k, n_max):
    """The ratio-form caches of ``KernelContext(family, k, n_max)`` by the
    recurrence run in numpy scalars, each step stored into its array."""
    top = n_max + 2
    c, lam = family.table(top + 2).T
    dtype = complex if np.iscomplexobj(k) or np.iscomplexobj(c) else float
    rho, t, partials = (np.empty(top + 2, dtype=dtype) for _ in range(3))
    t[0] = 1.0 / lam[0]
    partials[0] = t[0]
    rho[0] = np.nan
    for j in range(1, top + 2):
        rho[j] = (k - c[j - 1]) if j == 1 else (k - c[j - 1]) - lam[j - 1] / rho[j - 1]
        t[j] = t[j - 1] * rho[j] ** 2 / lam[j]
        partials[j] = partials[j - 1] + t[j]
    return rho, t, partials


def _caches(ctx):
    return ctx.ratios, ctx.weighted_squares, ctx.cd_partials


CONTEXT_CASES = [(name, make_family, k) for name, make_family, k, _ in RATIO_CONFIGS] + [
    (f"{name}-k{k}", make_family, k)
    for name, make_family, _ in FAMILIES
    for k in (1j, -1j, 0.3 + 0.2j)
]


# inside the hull of [-1, 1] the monic P_n(k) decay and underflow to zero
# before n = 4002, but their ratios do not, so every context builds
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, k", CONTEXT_CASES, ids=[c[0] for c in CONTEXT_CASES])
def test_kernel_context_caches_match_numpy_scalars(name, make_family, k):
    fam = make_family()
    n_max = 4002
    ctx = opx.KernelContext(fam, k, n_max)
    for cache, reference in zip(_caches(ctx), _reference_caches(fam, k, n_max)):
        assert_bitwise(cache, reference)


# lambda_3 = 0 would divide by zero in t_2, so the context refuses it before
# the recurrence runs; c_1 = -1e160 overflows rho_1 ** 2: Python's square
# raises there, and the context takes numpy's inf
CUSTOM_PAIRS = {
    "lambda3-zero": [(0.0, np.pi), (0.0, 0.5), (0.0, 0.0), (0.0, 0.25)],
    "square-overflow": [(-1e160, 1.0), (0.0, 0.5), (0.0, 0.25)],
}


def _custom_table(name):
    pairs = CUSTOM_PAIRS[name]
    return opx.custom_family(pairs + pairs[-1:] * 12, (-1.0, 1.0))  # the last row repeats


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", CUSTOM_PAIRS)
def test_kernel_context_where_python_floats_raise(name):
    fam = _custom_table(name)
    if name == "lambda3-zero":
        # gauss_rule's wording, so a suite that solves a rule first says the same
        with pytest.raises(opx.NotPositiveDefinite, match=r"^lambda_3 = 0\.0 <= 0$"):
            opx.KernelContext(fam, 2.0, 8)
        return
    ctx = opx.KernelContext(fam, 2.0, 8)
    for cache, reference in zip(_caches(ctx), _reference_caches(fam, 2.0, 8)):
        assert_bitwise(cache, reference)
    assert not np.isfinite(ctx.weighted_squares).all()


@pytest.mark.parametrize("lam1, j", [(0.0, 1), (np.pi, 3)], ids=["lambda1-zero", "lambda3-zero"])
def test_kernel_context_fallback_warns_nothing(lam1, j):
    # numpy's overflow and NaN pass without a warning: the checks that read
    # the caches raise typed errors on them.  A zero lambda_j, mu0 = lambda_1
    # included, is refused before the recurrence divides by it (conftest
    # makes a RuntimeWarning fail)
    opx.KernelContext(_custom_table("square-overflow"), 2.0, 8)
    fam = opx.custom_family([(0.0, lam1)] + CUSTOM_PAIRS["lambda3-zero"][1:] * 4, (-1.0, 1.0))
    with pytest.raises(opx.NotPositiveDefinite, match=rf"^lambda_{j} = 0\.0 <= 0$"):
        opx.KernelContext(fam, 2.0, 8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, _", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_one_point_eval_table_matches_a_vector(name, make_family, _):
    fam = make_family()
    # the ratio tables' shifts and points inside the support; at n = 4003 the
    # points outside it overflow to inf and then NaN
    xs = np.array([-1.0, 0.3, 1.0, 1.5, 2.0] if name != "laguerre" else [-1.0, 0.0, 0.7, 3.0, 40.0])
    # complex points stay on arrays: Python's complex multiply rounds
    # differently from numpy's
    zs = np.array([1j, -1j, 0.3 + 0.2j, 1.5 - 0.5j, -2.0 + 1.0j])
    for points in (xs, zs):
        table = opx.eval_table(fam, 4003, points)
        assert np.isnan(table).any()
        for i, x in enumerate(points.tolist()):
            assert_bitwise(opx.eval_table(fam, 4003, [x])[:, 0], table[:, i])
            assert_bitwise(opx.eval_table(fam, 4003, x)[:, 0], table[:, i])


def test_render_json_layout():
    # the layout of json.dumps at indent 2, with lists of scalars rendered
    # in one join and nested containers recursively
    obj = {"a": [1, [2, -3], {"b": [True, None, "s"]}, [], {}], "c": {}, "d": [0.25] * 3}
    assert cli.render_json(obj) == json.dumps(obj, indent=2)
    # at indent 2 every line after the first is padded by four spaces
    assert cli.render_json([1, 2, 3], 2) == json.dumps([1, 2, 3], indent=2).replace("\n", "\n    ")


def test_row_table_renderer():
    # the key needs JSON escaping, and its % must not reach the template
    header = ["n", 'k"ey\\ %s\n', "v"]
    rows = [
        (1, 0.1, None),
        (-2, -0.0, np.float64(1.0) / 3.0),
        (3, float("nan"), True),
        (4, float("inf"), False),
        (np.int64(5), -float("inf"), np.float64("nan")),
        (6, 1e300, 5e-324),
    ]
    columns = [list(column) for column in zip(*rows)]
    generic = [dict(zip(header, row)) for row in rows]
    assert cli._render_rows(header, columns) == cli.render_json(generic, 1)
    assert cli._render_rows(header, [[], [], []]) == cli.render_json([], 1)
    cfg = cli.RunConfig(command="ratio")
    cases = [suites.case("b", 0.5, 1.0), suites.case("a", float("nan"), None)]
    report = {
        "command": "ratio",
        "config_echo": cli._config_echo(cfg),
        "cases": sorted(cases, key=lambda c: c["name"]),
        "overall": True,
        "runtime_ms": 0,
        "rows": generic,
    }
    assert cli._finish(cfg, cases, columns=columns, header=header) == (cli.render_json(report) + "\n", 0)


def test_row_table_renderer_typed_columns():
    inf, nan = float("inf"), float("nan")
    columns = {
        "finite": np.array([-0.0, 5e-324, 1e300, 1e16, -1.0 / 3.0]),  # a %.17g slot
        "nonfinite": np.array([nan, inf, -inf, 1.5, -0.0]),  # %s cells, null for nan and inf
        "int64": np.array([0, -7, 2**62, 1, 5], dtype=np.int64),  # a %d slot
        "bool": np.array([True, False, True, True, False]),
        "none": [None] * 5,  # a literal null
    }
    header = list(columns)
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns.values()]
    rendered = cli._render_rows(header, list(columns.values()))
    assert rendered == cli.render_json([dict(zip(header, row)) for row in zip(*cells)], 1)
    assert '"finite": -0,' in rendered and "4.9406564584124654e-324" in rendered
    assert '"nonfinite": null' in rendered and '"bool": false' in rendered
    # a typed column writes the same bytes as its values in a list
    for key, column in columns.items():
        values = column.tolist() if isinstance(column, np.ndarray) else column
        assert cli._render_rows([key], [column]) == cli._render_rows([key], [values])


# ---------------------------------------------------------------------------
# the ratios and quasi suites' draws and points, as arrays
# ---------------------------------------------------------------------------


def _rows(*columns):
    return list(zip(*(c.tolist() for c in columns)))


def _first_error(calls):
    """The error a loop over the calls raises: the first failing call's."""
    for call in calls:
        try:
            call()
        except opx.OpxError as exc:
            return exc
    raise AssertionError("no row fails")


def _assert_raises_like(expected, call):
    with pytest.raises(type(expected)) as info:
        call()
    assert str(info.value) == str(expected)


def _hyp_draws(rng, count):
    """Parameters p, q, r: p = -n terminates the series after n + 1 terms,
    n = 0..11, so its columns past that are zeros; the rest never ends."""
    n = rng.integers(0, 12, count)
    p = np.where(rng.random(count) < 0.7, -n, rng.uniform(0.1, 2.5, count))
    return p, rng.uniform(0.2, 4.0, count), rng.uniform(0.3, 4.0, count)


def _reference_terms(kind, params, z, terms):
    """One series' terms 0..terms by a loop on Python floats, each the term
    before it times the term ratio, and the number W of them that the series
    sums: the terms before its first zero term, or before the first cut
    W = 64, 128, ... below ``terms`` where its tail bound holds, or all
    ``terms`` of them.  A series not ended by then must have its last term
    below 1e-16 of the sum of the terms' magnitudes, which is summed as one
    contiguous numpy row."""
    *tops, r = params
    series = [1.0]
    for m in map(float, range(terms)):
        ratio = tops[0] + m
        for q in tops[1:]:
            ratio *= q + m
        ratio /= (r + m) * (m + 1.0)
        series.append(series[-1] * (ratio * z))
    length = series.index(0.0) if 0.0 in series else terms + 1
    cut = 64
    with np.errstate(all="ignore"):  # terms past the float range sum to inf or NaN
        while cut < min(length, terms):
            if abs(r) < cut:
                rho = abs(z) / ((cut - abs(r)) * (cut if len(tops) == 2 else cut + 1.0))
                for v in tops:
                    rho *= cut + abs(v)
                rho *= 1.0 + 2.0**-48
                if rho < 1.0 and abs(series[cut]) / (1.0 - rho) <= 2.0**-54 * np.abs(series[:cut]).sum():
                    return series, cut
            cut *= 2
        kept = series[: min(length, terms)]
        if length > terms and abs(kept[-1]) > 1e-16 * np.abs(kept).sum():
            raise opx.NonConvergent(f"{kind} series still running after {terms} terms")
    return series, len(kept)


def _plain_sum(terms):
    """The float sum of ``terms``, added one by one in their order."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _reference_hyp_series(kind, params, z, terms):
    """``hyp_series`` of one row: the plain sum of the first W terms."""
    series, w = _reference_terms(kind, params, z, terms)
    return _plain_sum(series[:w])


def _assert_within_the_sum_bound(value, series, w, terms):
    """``value``, the float sum of the first W = ``w`` terms, is within the
    bound ``hyp_series`` states of the exact sum of all the terms before the
    first zero or term ``terms``: (W - 1) u sum_{m<W} |t_m|, and 2^-54
    sum_{m<W} |t_m| for the terms a cut left out.  ``math.fsum`` rounds the
    exact sums, so the bound takes u |fsum| more, and its first order
    1 + 2^-40 relative more."""
    full = series.index(0.0) if 0.0 in series[:terms] else terms
    exact, mags = math.fsum(series[:full]), math.fsum(map(abs, series[:w]))
    bound = (w - 1) * 2.0**-53 * mags * (1.0 + 2.0**-40) + (mags / 2**54 if w < full else 0.0)
    assert abs(value - exact) <= bound + 2.0**-53 * abs(exact)


def test_hyp_series_rows_match_scalar_calls():
    rng = np.random.default_rng(5)
    p, q, r = _hyp_draws(rng, 300)
    z = rng.uniform(-0.6, 0.6, 300)
    for kind, params, terms in (
        ("2F1", (p, q, r), 200),
        ("2F1", (p + 1, q, r), 400),
        ("1F1", (p, r), 200),
        ("1F1", (p, r), 60),
    ):
        scalar = [opx.hyp_series(kind, row[:-1], row[-1], terms) for row in _rows(*params, z)]
        assert all(type(s) is float for s in scalar)
        assert_bitwise(opx.hyp_series(kind, params, z, terms), scalar)
        reference = [_reference_hyp_series(kind, row[:-1], row[-1], terms) for row in _rows(*params, z)]
        assert_bitwise(scalar, reference)
    # numbers broadcast against the z array
    scalar = [opx.hyp_series("1F1", (-3, 1.5), z_i) for z_i in z]
    assert_bitwise(opx.hyp_series("1F1", (-3, 1.5), z), scalar)


def _cut_draws(case, rng):
    """(kind, params, z, terms, settles) of an array call on 100 rows that
    run past the first cut of 64 terms, and whether a cut should settle any
    of them before the call sums all its terms."""
    k = 100
    if case == "near_one":  # the term ratios tend to z, up to 0.95, and term m grows as m^(p + q - r - 1) <= m
        params = rng.uniform(0.1, 1.5, k), rng.uniform(0.2, 1.5, k), rng.uniform(1.0, 4.0, k)
        return "2F1", params, rng.uniform(-0.95, 0.95, k), 1000, True
    if case == "negative":  # negative non-integer p, q, r; at r = -70.5 the cut at 64 may not bound the ratios
        p, q = rng.uniform(-6.0, 6.0, (2, k))
        r = np.where(rng.random(k) < 0.2, -70.5, rng.integers(-8, 8, k) + rng.uniform(0.05, 0.95, k))
        return "2F1", (p, q, r), rng.uniform(-0.6, 0.6, k), 400, True
    if case == "mixed":  # p = -n ends a row at term n + 1, before or past the cuts
        n = rng.integers(0, 300, k)
        p = np.where(rng.random(k) < 0.5, -n, rng.uniform(0.1, 2.5, k))
        return "2F1", (p, rng.uniform(0.2, 4.0, k), rng.uniform(0.3, 4.0, k)), rng.uniform(-0.6, 0.6, k), 400, True
    if case == "1F1":
        return "1F1", (rng.uniform(-5.0, 5.0, k), rng.uniform(0.3, 4.0, k)), rng.uniform(-30.0, 30.0, k), 200, True
    # at |z| >= 0.66 term 64, the only cut below 128 terms, is still far
    # above the rounding of the sum, so every row takes the full table
    params = rng.uniform(0.5, 1.5, k), rng.uniform(0.5, 1.5, k), rng.uniform(1.0, 2.0, k)
    return "2F1", params, rng.choice([-1.0, 1.0], k) * rng.uniform(0.66, 0.7, k), 128, False


@pytest.mark.parametrize("case", ["near_one", "negative", "mixed", "1F1", "full_width"])
def test_series_cut_short_match_the_full_table(case):
    # a row that a cut settles is the plain sum of its terms up to the cut,
    # within the stated bound of the exact sum of the full table, and the
    # rows no cut settles sum all their terms
    kind, params, z, terms, settles = _cut_draws(case, np.random.default_rng(11))
    sums, short = opx.hyp_series(kind, params, z, terms), 0
    for value, row in zip(sums.tolist(), _rows(*params, z)):
        series, w = _reference_terms(kind, row[:-1], row[-1], terms)
        assert_bitwise(value, _plain_sum(series[:w]))
        _assert_within_the_sum_bound(value, series, w, terms)
        short += w < (series.index(0.0) if 0.0 in series[:terms] else terms)
    assert short > 0 if settles else short == 0


def test_a_series_no_cut_settles_raises_as_before():
    # term ratios near 0.99 leave term 128 far too large for any cut, so the
    # row takes all 200 terms and fails the last-term test, alone or in a
    # call whose other row a cut settles
    message = (
        "2F1 series still running after 200 terms: "
        "last term 29306094.253268145 against a magnitude sum of 1737793026.4537935"
    )
    with pytest.raises(opx.NonConvergent, match=f"^{re.escape(message)}$"):
        opx.hyp_series("2F1", (3.5, 3, 1.5), 0.99)
    with pytest.raises(opx.NonConvergent, match=f"^{re.escape(message)}$"):
        opx.hyp_series("2F1", (np.array([0.5, 3.5]), 3, 1.5), np.array([0.3, 0.99]))


@pytest.mark.parametrize("terms", [1, 2, 12, 200])
def test_terminating_hyp_series_match_the_full_table(terms):
    # p = -n ends each series at term n + 1, n = 0..11, and the table ends
    # at the deepest row's zero; a row with n >= terms is still running
    # after `terms` terms, so at terms 1 and 2 the whole call raises.  The
    # rows that end are the plain sums of their terms in term order, within
    # the stated bound of the exact sums
    rng = np.random.default_rng(terms)
    n = rng.integers(0, 12, 200)
    q, r, z = rng.uniform(0.2, 4.0, 200), rng.uniform(0.3, 4.0, 200), rng.uniform(-2.0, 2.0, 200)
    for kind, params in (("2F1", (-n, q, r)), ("1F1", (-n, r))):
        rows = _rows(*params, z)
        scalar = [lambda row=row: opx.hyp_series(kind, row[:-1], row[-1], terms) for row in rows]
        if terms < 12:
            expected = _first_error(scalar)
            assert type(expected) is opx.NonConvergent
            _assert_raises_like(expected, lambda: opx.hyp_series(kind, params, z, terms))
            with pytest.raises(opx.NonConvergent):
                [_reference_hyp_series(kind, row[:-1], row[-1], terms) for row in rows]
        ends = n < terms  # the rows that end within `terms` terms
        assert ends.any()
        params = [v[ends] for v in params]
        rows = _rows(*params, z[ends])
        reference = [_reference_hyp_series(kind, row[:-1], row[-1], terms) for row in rows]
        assert_bitwise([opx.hyp_series(kind, row[:-1], row[-1], terms) for row in rows], reference)
        assert_bitwise(opx.hyp_series(kind, params, z[ends], terms), reference)
        for value, row in zip(reference, rows):
            _assert_within_the_sum_bound(value, *_reference_terms(kind, row[:-1], row[-1], terms), terms)


def test_a_row_that_overflows_before_its_zero_is_rejected():
    # 1F1(-150; 0.5; z) at |z| = 1e5 overflows long before its zero, term
    # 151, where inf * 0 gives NaN: the plain sum of its terms is NaN at
    # either sign of z, as alternating infinities add to NaN too.  The call
    # raises ParameterOutOfRange instead, beside rows that do end, and
    # those rows alone still sum as the reference does.
    rng = np.random.default_rng(9)
    n = rng.integers(0, 12, 20)
    r, z = rng.uniform(0.3, 4.0, 20), rng.uniform(-2.0, 2.0, 20)
    n[7], r[7] = 150, 0.5
    for z7 in (-1e5, 1e5):
        assert math.isnan(_reference_hyp_series("1F1", (-150, 0.5), z7, 200))
        z[7] = z7
        with pytest.raises(opx.ParameterOutOfRange, match="1F1 terms overflow the float range"):
            opx.hyp_series("1F1", (-n, r), z)
    n, r, z = np.delete(n, 7), np.delete(r, 7), np.delete(z, 7)
    expected = [_reference_hyp_series("1F1", (-n_i, r_i), z_i, 200) for n_i, r_i, z_i in _rows(n, r, z)]
    assert_bitwise(opx.hyp_series("1F1", (-n, r), z), expected)


# rows that fail, or that take an unusual path: a nonpositive-integer r, a
# NaN z, a non-terminating 2F1 at |z| > 1, terms that overflow before their
# zero, a series still running after 200 terms, a sum past the float range
# (with all its 387 terms), and terms that underflow to zero
_SPECIAL_ROWS = [
    (-3.0, 1.0, -2.0, 0.5), (-3.0, 1.0, 2.0, math.nan), (0.5, 1.0, 2.0, 1.5), (-150.0, 1.0, 0.5, 1e5),
    (3.5, 3.0, 1.5, 0.99), (-386.0, 446.0, 0.5, -0.999), (0.7, 1.1, 2.3, 1e-300),
]


@st.composite
def _series_batches(draw):
    """(kind, params, z, terms) of an array call on 1..8 rows: p = -n ends a
    row at term n + 1, n = 0..299, before, at or past the cuts, the other
    rows never end, and any row may be one of ``_SPECIAL_ROWS``."""
    kind = draw(st.sampled_from(["2F1", "1F1"]))
    terms, count = draw(st.sampled_from([1, 12, 64, 65, 200, 400])), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = np.where(rng.random(count) < 0.5, -rng.integers(0, 300, count), rng.uniform(-6.0, 6.0, count))
    q, r = rng.uniform(-6.0, 6.0, count), np.where(rng.random(count) < 0.2, -70.5, rng.uniform(0.3, 8.0, count))
    z = rng.uniform(-0.95, 0.95, count) * (1.0 if kind == "2F1" else 30.0)
    rows = np.stack([p, q, r, z], axis=1)
    for i, special in draw(st.lists(st.tuples(st.integers(0, count - 1), st.sampled_from(_SPECIAL_ROWS)), max_size=3)):
        rows[i] = special
    params = (rows[:, 0], rows[:, 1], rows[:, 2]) if kind == "2F1" else (rows[:, 0], rows[:, 2])
    return kind, params, rows[:, 3], terms


@settings(max_examples=100, deadline=None)
@given(_series_batches())
@example(("1F1", (np.array([0.5, 0.5]), np.array([1.5, 1.5])), np.array([-15.0, -25.0]), 200))
def test_hyp_series_rows_are_their_one_row_calls(batch):
    # mixed terminating and non-terminating rows, cut short or not: the
    # array call is bitwise the one-row calls, or raises the error a loop
    # over them meets first.  In the example the first row stops at the
    # cut at 64 terms, where its later terms would still move its sum, and
    # the second at 128
    kind, params, z, terms = batch
    calls = [lambda row=row: opx.hyp_series(kind, row[:-1], row[-1], terms) for row in _rows(*params, z)]
    try:
        expected = [call() for call in calls]
    except opx.OpxError as exc:
        _assert_raises_like(exc, lambda: opx.hyp_series(kind, params, z, terms))
    else:
        assert_bitwise(opx.hyp_series(kind, params, z, terms), expected)


def test_suite_series_rows_match_scalar_calls(monkeypatch):
    # every series batch the ratios suite sums at 7 seeds, 2161 rows a
    # seed, against the scalar call on each row; the rows do not depend on
    # the family
    batch = ratios.hyp_series
    calls = []

    def checked(kind, params, z, terms=200):
        sums = batch(kind, params, z, terms)
        rows = _rows(*np.broadcast_arrays(*params, z))
        assert_bitwise(sums, np.array([batch(kind, row[:-1], row[-1], terms) for row in rows]))
        calls.append(len(rows))
        return sums

    monkeypatch.setattr(ratios, "hyp_series", checked)
    for seed in range(7):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--suite", "ratios", "--seed", str(seed)]) == 0
    assert sum(calls) > 14000


def test_scalar_hyp_series_is_its_term_order_sum():
    # a single series is a Python float, the entry of its one-row array
    # call and the plain sum of its terms in term order.  1F1(-150; 0.5; 6)
    # is -19.46, but its terms, up to 3.8e23, cancel: their sum is -1.77e7,
    # within the stated bound of their exact sum, 5.5e10
    for kind, params, z in (("2F1", (-7.0, 1.1, 2.3), 0.4), ("2F1", (0.7, 1.1, 2.3), 0.3), ("1F1", (-150.0, 0.5), 6.0)):
        value = opx.hyp_series(kind, params, z)
        assert type(value) is float
        assert_bitwise(opx.hyp_series(kind, [np.array([v]) for v in params], np.array([z])), [value])
        series, w = _reference_terms(kind, params, z, 200)
        assert_bitwise(value, _plain_sum(series[:w]))
        _assert_within_the_sum_bound(value, series, w, 200)
    assert value == pytest.approx(-1.7691962994e7, rel=1e-9)


def _cf_rows(rng, count, depth):
    """Convergent partial numerators, |b_j z| <= 1/4, at z = +-2^-k; in
    every ``rescue`` row b_j z = -1 exactly at a j < depth with zeros past
    it, so the backward pass meets an exact zero denominator there, and in
    some of them b_{j-1} = 0 too, which the floor keeps from giving 0/0."""
    z = rng.choice([-1.0, 1.0], count) * 2.0 ** -rng.integers(0, 4, count)
    b = rng.uniform(-0.25, 0.25, (count, depth + 10)) / np.abs(z)[:, None]
    rescue = rng.random(count) < 0.5
    cut = rng.integers(1, depth, count)
    for i in np.flatnonzero(rescue):
        b[i, cut[i]] = -1.0 / z[i]
        b[i, cut[i] + 1 :] = 0.0
        if rng.random() < 0.3:
            b[i, cut[i] - 1] = 0.0
    return b, z, rescue, cut


def test_evaluate_cf_rows_match_scalar_calls():
    depth = 30
    b, z, rescue, cut = _cf_rows(np.random.default_rng(6), 200, depth)
    values = opx.evaluate_cf(b, z, depth)
    assert_bitwise(values, [opx.evaluate_cf(b_i, z_i, depth) for b_i, z_i in zip(b, z.tolist())])
    assert np.isfinite(values).all()
    # past the zero the floor makes the next denominator about 1e300 and the
    # one after it exactly 1: the fraction cut two levels higher
    rows = np.flatnonzero(rescue & (cut >= 2))
    rows = rows[b[rows, cut[rows] - 1] != 0.0]
    assert len(rows) > 50
    cut_b = b.copy()
    for i in rows:
        cut_b[i, cut[i] - 2 :] = 0.0
    assert_bitwise(values[rows], opx.evaluate_cf(cut_b[rows], z[rows], depth))


@pytest.mark.parametrize("depth", [1, 8, 30, 60])
def test_cf_ratio_rows_match_scalar_calls(depth):
    rng = np.random.default_rng(depth)
    n = rng.integers(1, 12, 200)
    q, r, z = rng.uniform(0.2, 4.0, 200), rng.uniform(0.3, 4.0, 200), rng.uniform(-0.6, 0.6, 200)
    p = np.where(rng.random(200) < 0.5, -n, rng.uniform(0.1, 2.5, 200))
    # at depths 1 and 8 some rows disagree with depth+10 and raise
    for fn, columns in ((opx.gauss_cf_ratio, (p, q, r, z)), (opx.kummer_cf_ratio, (-n, r, 3 * z))):
        try:
            expected = [fn(*row, depth) for row in _rows(*columns)]
        except opx.NonConvergent as exc:
            assert depth < 30
            _assert_raises_like(exc, lambda: fn(*columns, depth))
        else:
            assert_bitwise(fn(*columns, depth), expected)


@pytest.mark.parametrize("seed", range(8))
def test_failing_rows_raise_the_first_error_of_a_loop(seed):
    rng = np.random.default_rng(seed)
    depth = 20
    # evaluate_cf: a top-level zero denominator, and a fraction whose two
    # depths disagree
    b, z, _, _ = _cf_rows(rng, 40, depth)
    zero, slow = rng.choice(40, 2, replace=False)
    b[zero] = 0.0
    b[zero, 0] = -1.0 / z[zero]
    b[slow], z[slow] = -1.0, 0.9
    expected = _first_error(
        [lambda b_i=b_i, z_i=z_i: opx.evaluate_cf(b_i, z_i, depth) for b_i, z_i in zip(b, z.tolist())]
    )
    assert type(expected) is (opx.ZeroDenominator if zero < slow else opx.NonConvergent)
    _assert_raises_like(expected, lambda: opx.evaluate_cf(b, z, depth))
    # hyp_series: a series still running after 200 terms, a nonpositive
    # integer r, and a non-terminating 2F1 at |z| > 1
    p, q, r = _hyp_draws(rng, 40)
    z = rng.uniform(-0.6, 0.6, 40)
    running, bad_r, divergent = rng.choice(40, 3, replace=False)
    p[running], q[running], r[running], z[running] = 3.5, 3.0, 1.5, 0.99
    r[bad_r] = -2.0
    p[divergent], z[divergent] = 0.5, 1.5
    rows = _rows(p, q, r, z)
    expected = _first_error([lambda row=row: opx.hyp_series("2F1", row[:3], row[3]) for row in rows])
    _assert_raises_like(expected, lambda: opx.hyp_series("2F1", (p, q, r), z))
    # gauss_cf_ratio: a divergent row fails its own check, a NaN z only the
    # continued fraction's, later in the call
    p, q, r = _hyp_draws(rng, 40)
    z = rng.uniform(-0.6, 0.6, 40)
    nan_z, divergent = rng.choice(40, 2, replace=False)
    z[nan_z] = np.nan
    p[divergent], z[divergent] = 0.5, 1.5
    expected = _first_error([lambda row=row: opx.gauss_cf_ratio(*row) for row in _rows(p, q, r, z)])
    assert type(expected) is (opx.ParameterOutOfRange if nan_z < divergent else opx.Divergent)
    _assert_raises_like(expected, lambda: opx.gauss_cf_ratio(p, q, r, z))


def _zero_tail(b, z, i, c):
    """Row i of ``b`` gets b_{c+1} z = -1 exactly and zeros past it, so the
    tail that column c - 1 divides by is an exact zero."""
    b[i, c] = -1.0 / z[i]
    b[i, c + 1 :] = 0.0


def _zero_tail_cases(rng, depth):
    """(b, z, the error the array pass meets) with exact zero tails placed
    three ways in small convergent rows, |b_j z| <= 1/100, at z = +-2^-k."""

    def rows(count):
        z = rng.choice([-1.0, 1.0], count) * 2.0 ** -rng.integers(0, 4, count)
        return rng.uniform(-0.01, 0.01, (count, depth + 10)) / np.abs(z)[:, None], z

    # only in columns j >= depth, which only the depth+10 pass reads
    deep, z_deep = rows(40)
    for i in rng.choice(40, 10, replace=False):
        _zero_tail(deep, z_deep, i, int(rng.integers(depth + 1, depth + 10)))
    # directly above a row's own first zero b_f: 0/0 at column f of the
    # array pass, which the row's own pass never reaches
    above, z_above = rows(40)
    for i in rng.choice(40, 10, replace=False):
        f = int(rng.integers(0, depth + 8))
        above[i, f] = 0.0
        _zero_tail(above, z_above, i, f + 1)
    # in one row of many, within the depth
    one, z_one = rows(200)
    _zero_tail(one, z_one, int(rng.integers(200)), int(rng.integers(2, depth)))
    return [(deep, z_deep, "divide by zero"), (above, z_above, "invalid value"), (one, z_one, "divide by zero")]


def test_zero_tails_take_the_floored_row_calls():
    # the array pass has no tiny floor: a division by an exact zero tail
    # raises there and sends the call through its rows, which floor it
    depth = 12
    for b, z, error in _zero_tail_cases(np.random.default_rng(0), depth):
        with pytest.raises(FloatingPointError, match=error), np.errstate(divide="raise", invalid="raise"):
            ratios._backward_rows(b, z, depth)
        expected = [opx.evaluate_cf(b_i, z_i, depth) for b_i, z_i in zip(b, z.tolist())]
        assert np.isfinite(expected).all()
        assert_bitwise(opx.evaluate_cf(b, z, depth), expected)


def test_the_ratios_suite_fractions_take_the_array_pass(monkeypatch):
    # no draw of the three family-free checks meets an exact zero tail or a
    # failing row, so each check makes one evaluate_cf call and no row call
    calls = []
    evaluate_cf = ratios.evaluate_cf
    monkeypatch.setattr(ratios, "evaluate_cf", lambda *args: calls.append(1) or evaluate_cf(*args))
    nonterminating = suites.gauss_cf_vs_series_nonterminating
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for check, count in ((suites.gauss_cf_vs_series, 200), (suites.kummer_cf_vs_series, 200)):
            calls.clear()
            check(rng, count, 60)
            assert len(calls) == 1
        # its series, summed after the fraction, do not choose its draws
        with monkeypatch.context() as m:
            m.setattr(suites, "_stacked_series", lambda kind, stacks, terms: (1.0, 1.0))
            calls.clear()
            nonterminating(rng, 50, 60)
            assert len(calls) == 1


@pytest.mark.parametrize("name, make_family, _", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_confluent_cd_points_match_one_point_calls(name, make_family, _):
    fam = make_family()
    xs = sample_points(fam, np.random.default_rng(12), 20)
    for n in range(11):
        lhs, rhs = opx.confluent_cd(fam, n, xs)
        scalar = [opx.confluent_cd(fam, n, x) for x in xs.tolist()]
        assert all(type(v) is float for pair in scalar for v in pair)
        assert_bitwise(lhs, [v for v, _ in scalar])
        assert_bitwise(rhs, [v for _, v in scalar])


def _reference_nonterminating(rng, count, depth):
    """``suites.gauss_cf_vs_series_nonterminating`` with the draws it made
    before its block draw: four scalar draws per row."""
    rows = [
        (rng.uniform(0.1, 2.5), rng.uniform(0.2, 3.0), rng.uniform(0.3, 4.0), rng.uniform(-0.5, 0.5))
        for _ in range(count)
    ]
    p, q, r, z = map(np.array, zip(*rows))
    cf = opx.gauss_cf_ratio(p, q, r, z, depth)
    series = opx.hyp_series("2F1", (p + 1, q, r), z, 400) / opx.hyp_series("2F1", (p, q, r), z, 400)
    return np.abs(cf - series) / np.fmax(1.0, np.abs(series))


@pytest.mark.parametrize("count", [1, 25, 50])
def test_nonterminating_block_draw_matches_scalar_draws(count):
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        gaps = suites.gauss_cf_vs_series_nonterminating(rng, count, 60)
        assert_bitwise(gaps, _reference_nonterminating(ref_rng, count, 60))
        # the generator is left where the scalar draws left it
        assert rng.random() == ref_rng.random()


def _reference_form(kind, n, params, z, c):
    """One draw's series ratio t = num / den, its rounding bound as
    ``suites._ratio_bound`` states it, and den, by scalar calls; the
    magnitude sum is the denominator's series on |params| at -|z|."""
    num, den, mags = (
        opx.hyp_series(kind, (a, *ps), x)
        for a, ps, x in ((1 - n, params, z), (-n, params, z), (-n, [abs(v) for v in params], -abs(z)))
    )
    t = num / den
    return t, (c * n * mags * (1.0 + abs(t)) / abs(den) + abs(t)) * 2.0**-53, den


def _reference_series(kind, n, row):
    """The series ratio one draw of the Gauss or Kummer check certifies,
    or None: its forms' (s, bound, den), the Gauss draw's second from
    Pfaff's transformation, and of those that certify, the first of least
    bound."""
    *params, z = row
    forms = [_reference_form(kind, n, params, z, suites._FIRST_C)]
    if kind == "2F1":
        q, r = params
        t, bound, den = _reference_form(kind, n, (r - q, r), z / (z - 1.0), suites._PFAFF_C)
        s = t / (1.0 - z)
        forms.append((s, bound / abs(1.0 - z) + 2.0**-52 * abs(s), den))
    certified = [f for f in forms if not abs(f[2]) < 1e-3 and not f[1] > 1e-11 * max(1.0, abs(f[0]))]
    return min(certified, key=lambda f: f[1])[0] if certified else None


def _reference_certified(kind, rng, count, depth, least_n=1):
    """``suites.gauss_cf_vs_series`` ("2F1") or ``kummer_cf_vs_series``
    ("1F1") as a loop over the draws of each block: the same overdrawn
    block of ``rng.integers`` and per-column ``rng.uniform`` draws, then,
    one draw at a time, its series by scalar calls, kept while fewer than
    ``count`` are kept where n >= ``least_n`` and a form certifies it, and
    another block for the draws still missing; then one fraction call."""
    lo, hi = ((0.2, 0.3, -0.6), (4.0, 4.0, 0.6)) if kind == "2F1" else ((0.3, -2.0), (4.0, 2.0))
    rows, series = [], []
    while len(rows) < count:
        missing = count - len(rows)
        size = missing + missing // 8 + 4
        ns = rng.integers(1, 12, size).tolist()
        for n, row in zip(ns, rng.uniform(lo, hi, (size, len(lo))).tolist()):
            s = _reference_series(kind, n, row) if n >= least_n and len(rows) < count else None
            if s is not None:
                rows.append((n, *row))
                series.append(s)
    n, *middle, z = map(np.array, zip(*rows))
    fraction = opx.gauss_cf_ratio if kind == "2F1" else opx.kummer_cf_ratio
    cf = fraction(-n, *middle, z, depth)
    series = np.array(series)
    return np.abs(cf - series) / np.fmax(1.0, np.abs(series))


@pytest.mark.parametrize("kind, check", [("2F1", "gauss_cf_vs_series"), ("1F1", "kummer_cf_vs_series")])
def test_guarded_draws_match_the_one_at_a_time_loop(kind, check, monkeypatch):
    # one block and one series call per round against a per-draw loop over
    # the same blocks, bitwise, generator state included: rounds of 200 at
    # four seeds; then, with only the draws of n >= 10 kept, rounds of 30,
    # each followed by others for the draws still missing
    name = "_gauss_series" if kind == "2F1" else "_kummer_series"
    series, rounds = getattr(suites, name), []

    def counted(n, *rest):
        rounds.append(n.size)
        s, certified = series(n, *rest)
        return s, certified & (n >= least_n)

    monkeypatch.setattr(suites, name, counted)
    for least_n, count, seeds in ((1, 200, range(4)), (10, 30, range(4, 6))):
        for seed in seeds:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            gaps = getattr(suites, check)(rng, count, 60)
            assert_bitwise(gaps, _reference_certified(kind, ref_rng, count, 60, least_n))
            assert rng.random() == ref_rng.random()
    # one round of 229 draws at each of the first four seeds; the others
    # take several rounds
    assert rounds[:4] == [229] * 4 and len(rounds) > 8


@pytest.mark.parametrize("seed", range(6))
def test_g_chains_match_chain_params(seed):
    # the one g-table and the one stacked recurrence against 20 chain_params
    # calls on g-tables from three scalar draws each
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    mins, positive = suites.g_chains(rng, 20)
    assert mins.shape == (40, 51)
    for i in range(20):
        p = float(ref_rng.uniform(0.1, 2.0))
        q = p + float(ref_rng.uniform(0.0, 1.0))
        r = q + float(ref_rng.uniform(0.1, 1.0))
        g = opx.ratios._gauss_g(p, q, r, 50)
        seq = opx.chain_params((1.0 - g[:-1]) * g[1:])
        assert_bitwise(mins[2 * i], seq.m)
        assert_bitwise(mins[2 * i + 1], seq.complementary.m)
        assert positive[i] == seq.positive
    assert rng.random() == ref_rng.random()


def test_g_chains_breakdown_raises_the_chain_params_error(monkeypatch):
    # g = 0 gives l = 0, whose complement 1 - l = 1 meets m_1 = 1
    monkeypatch.setattr(opx.ratios, "_gauss_g", lambda p, q, r, m: np.zeros((len(p), m + 1)))
    expected = _first_error([lambda: opx.chain_params(np.zeros(50))])
    assert str(expected).endswith(" in the complementary sequence k_n = 1 - l_n")
    _assert_raises_like(expected, lambda: suites.g_chains(np.random.default_rng(0), 20))


def test_minimal_params_rows_match_one_row_calls():
    rng = np.random.default_rng(3)
    # values outside (0, 1) too, so some rows are not positive chains
    rows = rng.uniform(-0.5, 1.5, (30, 12))
    table = opx.ratios._minimal_params(rows)
    for row, expected in zip(rows, table):
        assert_bitwise(expected, opx.ratios._minimal_params(row))
    # a breakdown raises the error of the first row a loop meets, not the
    # first column's: row 1 hits m_2 = 1, row 2 hits m_1 = 1
    rows = np.array([[0.25, 0.25, 0.25], [0.5, 0.5, 0.5], [1.0, 0.5, 0.5]])
    expected = _first_error([lambda row=row: opx.ratios._minimal_params(row, " in l") for row in rows])
    assert str(expected) == "minimal parameter recurrence hits m_2 = 1 in l"
    _assert_raises_like(expected, lambda: opx.ratios._minimal_params(rows, " in l"))


PREFACTOR_CONTEXTS = [
    ("laguerre0.5", lambda: opx.laguerre(0.5), 0.0, (0.5, 3.0)),
    ("laguerre0", lambda: opx.laguerre(0.0), 0.0, (0.5, 3.0)),
    ("jacobi-upper", lambda: opx.jacobi(0.3, 0.7), 1.0, (-0.5, 0.9)),
    ("jacobi-lower", lambda: opx.jacobi(0.3, -0.3), 1.0, (-0.5, 0.9)),
]


@pytest.mark.parametrize("top", [1, 3, 6])
@pytest.mark.parametrize("name, make_family, k, bounds", PREFACTOR_CONTEXTS, ids=[c[0] for c in PREFACTOR_CONTEXTS])
def test_prefactor_tables_match_kernel_poly(name, make_family, k, bounds, top):
    # the ratios suite's prefactor checks draw x_1..x_top in one call and
    # read Pk_{n-1}(x_n) and Pk_n(x_n) off one table per context, in place
    # of a scalar draw and two kernel_poly calls per degree n
    ctx = opx.KernelContext(make_family(), k, top + 2)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        xs = rng.uniform(*bounds, top)
        table = opx.kernel_table(ctx, top, xs)
        for n in range(1, top + 1):
            x = float(ref_rng.uniform(*bounds))
            assert x == xs[n - 1]
            assert_bitwise(table[n - 1 : n + 1, n - 1], [opx.kernel_poly(ctx, j, x) for j in (n - 1, n)])
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n_max", [0, 1, 10])
@pytest.mark.parametrize("name, make_family, _", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_confluent_identity_matches_the_per_degree_calls(name, make_family, _, n_max):
    # the ratios suite's one draw of 20 points per degree and one table over
    # every degree, against a draw and a confluent_cd call per degree
    fam = make_family()
    rng, ref_rng = np.random.default_rng(n_max), np.random.default_rng(n_max)
    gaps = suites.confluent_cd_identity(fam, suites.sample_points(fam, rng, (n_max + 1, 20)))
    expected = []
    for n in range(n_max + 1):
        lhs, rhs = opx.confluent_cd(fam, n, suites.sample_points(fam, ref_rng, 20))
        expected.append(np.abs(lhs - rhs) / np.abs(lhs))
    assert_bitwise(gaps, expected)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("b", [0.3, -0.3, 1.5, -1.5])
def test_difference_equation_residual_points_match_one_point_calls(setup, b):
    fam, (k1, _), xs = setup
    ctx = opx.KernelContext(fam, k1, 11)
    for n in range(1, 8):
        stated, proof = opx.difference_equation_residual(ctx, b, n, xs)
        # the points as the numpy scalars a loop over the array gives
        scalar = [opx.difference_equation_residual(ctx, b, n, x) for x in xs]
        assert all(type(v) is float for pair in scalar for v in pair)
        assert_bitwise(stated, [v for v, _ in scalar])
        assert_bitwise(proof, [v for _, v in scalar])
    # b, n and the points broadcast: one call against a call per (b, n)
    bs, ns = [b, -2.0 * b], np.arange(1, 8)
    stated, proof = opx.difference_equation_residual(ctx, np.array(bs)[:, None, None], ns[:, None], xs)
    assert stated.shape == proof.shape == (2, 7, xs.size)
    for i, bi in enumerate(bs):
        for j, n in enumerate(ns.tolist()):
            one_s, one_p = opx.difference_equation_residual(ctx, bi, n, xs)
            assert_bitwise(stated[i, j], one_s)
            assert_bitwise(proof[i, j], one_p)
    # one point over every n
    stated, proof = opx.difference_equation_residual(ctx, b, ns, xs[0])
    scalar = [opx.difference_equation_residual(ctx, b, n, xs[0]) for n in ns.tolist()]
    assert_bitwise(stated, [v for v, _ in scalar])
    assert_bitwise(proof, [v for _, v in scalar])


def _reference_difference_equation(ctx, rng, n_max):
    """The per-(b, n) loop ``suites.difference_equation`` replaced, each call
    the residual body it ran then: its own recurrence to n + 3 and kernel
    table to n + 2 on 5 fresh points."""
    stated, proof = [], []
    for b in (0.3, -0.3, 1.5, -1.5):
        for n in range(1, n_max - 2):
            x = suites.sample_points(ctx.family, rng, 5)
            pairs = opx.kernel_recurrence(ctx, n + 3)
            cs, ls = pairs[:, 0], pairs[:, 1]
            rows = opx.kernel_table(ctx, n + 2, x)

            def D(m):
                return x - cs[m] + b

            def J(m):
                return b * D(m - 1) + ls[m - 1]

            def Q(m):
                return rows[m] + b * rows[m - 1]

            for j, out in ((0, stated), (1, proof)):
                terms = (
                    J(n + j) * Q(n + 2),
                    -(D(n + 1) * J(n + j) - b * J(n + j + 1)) * Q(n + 1),
                    ls[n] * J(n + j + 1) * Q(n),
                )
                scale = sum(abs(t) for t in terms)
                with np.errstate(divide="ignore", invalid="ignore"):
                    out.append(np.where(scale != 0, abs(sum(terms)) / scale, 0.0))
    return np.reshape(stated, (4, -1, 5)), np.reshape(proof, (4, -1, 5))


@pytest.mark.parametrize("n_max", [3, 4, 8, 13])
@pytest.mark.parametrize("name, make_family, shifts", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_difference_equation_matches_the_per_degree_loop(name, make_family, shifts, n_max):
    # the quasi suite's context at its largest degree cap
    ctx = opx.KernelContext(make_family(), shifts[0], 13)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stated, proof = suites.difference_equation(ctx, rng, n_max)
        ref_stated, ref_proof = _reference_difference_equation(ctx, ref_rng, n_max)
        assert stated.shape == (4, n_max - 3, 5)
        assert_bitwise(stated, ref_stated)
        assert_bitwise(proof, ref_proof)
        # the generator is left where the loop left it
        assert rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# degree tables: every row bitwise the per-degree evaluator it replaced
# ---------------------------------------------------------------------------

TABLE_TOP = 20  # rows past 8 terms, where a CD row sum is pairwise


def _reference_kernel_poly(ctx, n, xs):
    """A per-degree ``kernel_poly``: one ``eval_table`` per call, the divided
    difference with rho_{n+1} outside the switch radius, and inside it the
    CD recurrence Pk_j = P_j + (lambda_{j+1}/rho_j) Pk_{j-1} run up to n."""
    if n == 0:
        return np.ones_like(np.asarray(xs))
    xs = np.atleast_1d(np.asarray(xs))
    dtype = complex if (np.iscomplexobj(xs) or np.iscomplexobj(ctx.ratios)) else float
    xs = xs.astype(dtype)
    out = np.empty_like(xs)
    near = np.abs(xs - ctx.k) < opx.kernels.SWITCH_RADIUS * (1.0 + abs(ctx.k))
    if np.any(~near):
        far = xs[~near]
        table = opx.eval_table(ctx.family, n + 1, far)
        out[~near] = (table[n + 1] - ctx.ratios[n + 1] * table[n]) / (far - ctx.k)
    if np.any(near):
        table = opx.eval_table(ctx.family, n, xs[near])
        step = ctx.family.table(n + 1)[1:, 1] / ctx.ratios[1 : n + 1]
        value = table[0]
        for j in range(1, n + 1):
            value = table[j] + step[j - 1] * value
        out[near] = value
    return out


def _table_point_sets(fam, k):
    """50 points on the support, one real point, 20 points within 1e-5 of k
    (the CD branch), and a mix of both branches with an inf and a NaN point."""
    rng = np.random.default_rng(13)
    xs = sample_points(fam, rng, 50)
    near = k + rng.uniform(-1e-5, 1e-5, 20)
    return {
        "support": xs,
        "one-point": xs[:1],
        "near-k": near,
        "mixed": np.concatenate([near[:3], xs[:3], [np.inf, np.nan]]),
    }


def _assert_rows(table, reference_row, dtype):
    """Row 0 is 1; every other row is bitwise ``reference_row(n)``."""
    assert table.dtype == dtype
    assert_array_equal(table[0], 1.0)
    for n in range(1, len(table)):
        assert_bitwise(table[n], reference_row(n))


TABLE_CASES = [
    (f"{name}-k{k}", make_family, k)
    for name, make_family, shifts in FAMILIES
    for k in sorted(set(shifts)) + [1j]
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, k", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_kernel_table_rows_match_the_per_degree_evaluator(name, make_family, k):
    fam = make_family()
    ctx = opx.KernelContext(fam, k, TABLE_TOP)
    # lambda_{n+2}/rho_{n+1} at [n]
    coef = fam.table(TABLE_TOP + 2)[1:, 1] / ctx.ratios[1 : TABLE_TOP + 2]
    for label, xs in _table_point_sets(fam, k).items():
        dtype = np.result_type(xs, ctx.ratios)
        table = opx.kernel_table(ctx, TABLE_TOP + 1, xs)
        assert table.shape == (TABLE_TOP + 2, xs.size)
        _assert_rows(table, lambda n: _reference_kernel_poly(ctx, n, xs), dtype)
        for n in range(TABLE_TOP + 2):
            assert_bitwise(opx.kernel_poly(ctx, n, xs), table[n])
        # P_{n+1} rebuilt from Pk_{n+1} and Pk_n, one degree at a time
        rebuilt = opx.ops_from_kernel_table(ctx, table)
        for n in range(TABLE_TOP + 1):
            assert_bitwise(rebuilt[n], table[n + 1] - coef[n] * table[n])
        if label == "one-point":
            assert opx.kernel_poly(ctx, 5, xs[0]) == table[5, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("l", range(4))
@pytest.mark.parametrize("name, make_family, k", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_quasi_table_rows_match_per_degree_sums(name, make_family, k, l):
    # row n is c_0 Pk_n + ... + c_l Pk_{n-l} summed in that order over the
    # degrees n - i >= 0, for one row of coefficients or one per degree
    ctx = opx.KernelContext(make_family(), k, TABLE_TOP)
    rng = np.random.default_rng(l)
    for coeffs in (rng.uniform(-2.0, 2.0, l + 1), rng.uniform(-2.0, 2.0, (TABLE_TOP + 2, l + 1))):
        rows = np.broadcast_to(coeffs, (TABLE_TOP + 2, l + 1))
        for xs in _table_point_sets(ctx.family, k).values():
            table = opx.quasi_table(opx.kernel_table(ctx, TABLE_TOP + 1, xs), coeffs)
            for n, row in enumerate(rows):
                ref = row[0] * opx.kernel_poly(ctx, n, xs)
                for i in range(1, min(n, l) + 1):
                    ref = ref + row[i] * opx.kernel_poly(ctx, n - i, xs)
                assert_bitwise(table[n], ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, k", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_ops_are_quasi_type_in_their_own_kernels(name, make_family, k):
    # P_n = Pk_n - (lambda_{n+1}/rho_n) Pk_{n-1}: order one, one row per degree
    fam = make_family()
    ctx = opx.KernelContext(fam, k, TABLE_TOP)
    rows = np.zeros((TABLE_TOP + 2, 2), dtype=ctx.ratios.dtype)
    rows[:, 0] = 1.0
    rows[1:, 1] = -fam.table(TABLE_TOP + 2)[1:, 1] / ctx.ratios[1 : TABLE_TOP + 2]
    for xs in _table_point_sets(fam, k).values():
        table = opx.kernel_table(ctx, TABLE_TOP + 1, xs)
        assert_bitwise(opx.quasi_table(table, rows)[1:], opx.ops_from_kernel_table(ctx, table))


@pytest.mark.parametrize("alphas", [[0.7], [0.0, -0.25], [0.3, 0.2, -0.1]], ids=["l1", "l2", "l3"])
def test_mixing_matrix_is_the_sum_of_shifted_identities(alphas):
    # A = I + alpha_1 S + ... + alpha_l S^l, S the down shift, added in
    # that order over whole matrices
    loop = np.eye(12)
    for m, alpha in enumerate(alphas, start=1):
        loop += alpha * np.eye(12, k=-m)
    assert_bitwise(opx.quasi_table(np.eye(12), (1.0, *alphas)), loop)


GERONIMUS_CASES = [
    (f"{name}-k{k}", make_family, k) for name, make_family, shifts in FAMILIES for k in sorted(set(shifts))
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, k", GERONIMUS_CASES, ids=[c[0] for c in GERONIMUS_CASES])
def test_transformed_tables_match_the_per_degree_evaluators(name, make_family, k):
    fam = make_family()
    gdata = opx.geronimus_data(fam, k, TABLE_TOP)
    udata = opx.uvarov_data(fam, k, 0.5, TABLE_TOP)
    for xs in _table_point_sets(fam, k).values():
        dtype = np.result_type(xs, float)
        # Pt_n = P_n + A_n P_{n-1} and Ph_n = P_n - T_n Pk_{n-1}, one degree per call
        pt = opx.geronimus_table(gdata, TABLE_TOP, xs)
        _assert_rows(pt, lambda n: (lambda t: t[n] + gdata.A[n] * t[n - 1])(opx.eval_table(fam, n, xs)), dtype)
        ph = opx.uvarov_table(udata, TABLE_TOP, xs)
        ref = lambda n: opx.eval_table(fam, n, xs)[n] - udata.T[n] * _reference_kernel_poly(udata.ctx, n - 1, xs)
        _assert_rows(ph, ref, dtype)


def _reference_quasi_kernel(ctx, top, row, xs):
    """row[0] Pk_top + row[1] Pk_{top-1} + ... from one kernel table of degree top."""
    rows = opx.kernel_table(ctx, top, xs)
    out = row[0] * rows[top]
    for i, a in enumerate(row[1:], start=1):
        out = out + a * rows[top - i]
    return out


def _reference_recovery_poly(rc, n, xs):
    """The per-degree evaluators of Q_n that the recovery table replaced,
    their pole checks aside: each reads its own tables of degree n."""
    ctx1, ctx2 = rc.ctx1, rc.ctx2
    if rc.kind == "christoffel":
        gamma, eta = rc.gamma[n - 1], rc.eta[n - 1]
        t_quasi = _reference_quasi_kernel(ctx1, n, rc.quasi[n], xs)
        pk2 = opx.kernel_poly(ctx2, n - 1, xs)
        return ((xs - ctx1.k) * t_quasi + eta * (xs - ctx2.k) * pk2) / (xs - gamma)
    if rc.kind == "order2":
        alpha, beta, ictx = rc.alpha[n], rc.beta[n], rc.data
        s_quasi = _reference_quasi_kernel(ctx1, n + 1, rc.quasi[n + 1], xs)
        iter_val = opx.iterated_kernel(ictx, n, xs)
        return ((xs - ctx1.k) * s_quasi - (xs - ictx.k2) * (xs - ictx.k3) * iter_val) / (alpha * xs - beta)
    alpha, gamma, eta = rc.alpha[n], rc.gamma[n], rc.eta[n]
    t_quasi = _reference_quasi_kernel(ctx2, n, rc.quasi[n], xs)
    if rc.kind == "geronimus":
        pt = opx.geronimus_table(rc.data, n + 1, xs)[n + 1]
        return (pt + eta * (xs - ctx2.k) * t_quasi) / (alpha * xs - gamma)
    phat = opx.uvarov_table(rc.data, n, xs)[n]
    return ((xs - ctx1.k) * phat + eta * (xs - ctx2.k) * t_quasi) / (alpha * xs - gamma)


RECOVERY_CASES = [
    (f"{name}-{kind}", make_family, kind, shifts)
    for name, make_family, shifts in FAMILIES
    for kind in suites.RECOVERY_KINDS
] + [
    (f"{name}-christoffel-k1j", make_family, "christoffel", (1j, shifts[1]))
    for name, make_family, shifts in FAMILIES
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, make_family, kind, shifts", RECOVERY_CASES, ids=[c[0] for c in RECOVERY_CASES]
)
def test_recovery_table_rows_match_the_per_degree_evaluators(name, make_family, kind, shifts):
    fam = make_family()
    # the recovery as the CLI builds it, at r0 = 0.5
    settings = suites.Settings(shifts, TABLE_TOP, 1e-8, 60, None, 0.5)
    point_sets = _table_point_sets(fam, shifts[0])
    _, rc = suites.recovery_case(kind, fam, settings, point_sets["support"], TABLE_TOP)
    for label, xs in point_sets.items():
        table = opx.recovery_table(rc, TABLE_TOP, xs)
        assert table.shape == (TABLE_TOP, xs.size)
        for n in range(1, TABLE_TOP + 1):
            assert_bitwise(table[n - 1], _reference_recovery_poly(rc, n, xs))
