"""Evaluating on a whole point vector (or over every n) gives the same
numbers as evaluating point by point, which is what lets the CLI evaluate
each construction once per degree and each row table in one pass.  Real
arithmetic matches bitwise; the order-two recovery runs on the complex
shifts 1j and -1j, where numpy's array and scalar complex arithmetic round
differently, so it is held to 1e-14 relative to the size of the two terms it
combines (its value can be far smaller than they are).  One real point,
which runs on Python floats, matches the same point inside a vector bitwise,
and so do the kernel contexts' ratio caches, NaN positions included, against
the numpy-scalar loop below.  The row-table renderer writes the same bytes
as the generic JSON renderer, whatever the types of its columns.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import opx
from conftest import sample_points
from opx import cli
from opx.errors import KernelUndefined

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


def test_real_recovery_polys(setup):
    fam, (k1, k2), xs = setup
    b = np.full(N_MAX + 1, 0.3)
    rc_c = opx.recover_christoffel(fam, k1, k2, b, N_MAX)
    rc_g = opx.recover_geronimus(fam, k1, k2, b, N_MAX)
    rc_u = opx.recover_uvarov(fam, k1, k2, 0.5, b, N_MAX)
    constructions = [
        lambda n, x: opx.christoffel_recovery_poly(rc_c, n, x),
        lambda n, x: opx.geronimus_recovery_poly(rc_g, n, x),
        lambda n, x: opx.uvarov_recovery_poly(rc_u, n, x),
    ]
    for rebuilt in constructions:
        for n in range(1, N_MAX + 1):
            assert_array_equal(rebuilt(n, xs), _per_point(lambda x: rebuilt(n, x), xs))


def test_order2_recovery_poly(setup):
    fam, (k1, _), xs = setup
    rhs = opx.order2_constraint_rhs(fam, k1, 1j, -1j, N_MAX)
    mt = np.full(N_MAX, 0.5, dtype=complex)
    pk1 = opx.eval_table(fam, N_MAX, [k1])[:, 0]
    lt = rhs[1:] - mt * pk1[1:] / (opx.recurrence_coefficients(fam, N_MAX + 1)[1:, 1] * pk1[:-1])
    rc = opx.recover_order2(fam, k1, 1j, -1j, lt, mt, N_MAX)
    for n in range(1, N_MAX + 1):
        vec = opx.order2_recovery_poly(rc, n, xs)
        pts = _per_point(lambda x: opx.order2_recovery_poly(rc, n, x), xs)
        # Q_n = [(x-k1) S_{n+1} - (x-1j)(x+1j) Pkk_n] / (alpha_n x - beta_n)
        ctx1 = opx.KernelContext(fam, k1, n + 2)
        s_terms = sum(
            np.abs(coef * opx.kernel_poly(ctx1, n + 1 - i, xs))
            for i, coef in enumerate((1.0, lt[n - 1], mt[n - 1]))
        )
        ictx = opx.IteratedKernelContext(opx.KernelContext(fam, 1j, n + 2), -1j)
        pkk = opx.iterated_kernel(ictx, n, xs)
        scale = (np.abs(xs - k1) * s_terms + np.abs((xs - 1j) * (xs + 1j) * pkk)) / np.abs(
            rc.alpha[n] * xs - rc.beta[n]
        )
        assert np.max(np.abs(vec - pts) / scale) <= 1e-14


def _scalar_derivs(fam, n, x):
    """P'_0..P'_n at one point: the differentiated recurrence in scalars."""
    values = opx.eval_table(fam, n, [x])[:, 0]
    pairs = opx.recurrence_coefficients(fam, n)
    derivs = [0.0, 1.0]
    for m in range(1, n):
        c_next, lam_next = pairs[m]
        derivs.append(values[m] + (x - c_next) * derivs[m] - lam_next * derivs[m - 1])
    return np.array(derivs)


def test_eval_derivs(setup):
    fam, _, xs = setup
    derivs = opx.eval_derivs(fam, N_MAX, xs, opx.eval_table(fam, N_MAX, xs))
    per_point = _per_point(lambda x: opx.eval_sequence(fam, N_MAX, x, with_derivs=True).derivs, xs)
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
    scalar = [opx.kernel_ratio_limit(ctx, n) for n in range(1001)]
    assert all(type(v) is float for pair in scalar for v in pair)
    assert_array_equal(r_up, [u for u, _ in scalar])
    assert_array_equal(r_down, [d for _, d in scalar])
    assert np.isnan(r_up).any() == has_nan


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
# inside the hull of [-1, 1] the monic P_n(k) decay, and underflow to zero
# before n = 4002
UNDERFLOWS = {"chebyshev1-k(0.3+0.2j)", "jacobi-k(0.3+0.2j)"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, make_family, k", CONTEXT_CASES, ids=[c[0] for c in CONTEXT_CASES])
def test_kernel_context_caches_match_numpy_scalars(name, make_family, k):
    fam = make_family()
    n_max = 4002
    if name in UNDERFLOWS:
        with pytest.raises(KernelUndefined):
            opx.KernelContext(fam, k, n_max)
        n_max = 1000
    ctx = opx.KernelContext(fam, k, n_max)
    for cache, reference in zip(_caches(ctx), _reference_caches(fam, k, n_max)):
        assert_bitwise(cache, reference)


# lambda_3 = 0 divides by zero in t_2; c_1 = -1e160 overflows rho_1 ** 2:
# Python floats raise where numpy gives inf, so the context takes numpy's
CUSTOM_PAIRS = {
    "lambda3-zero": [(0.0, np.pi), (0.0, 0.5), (0.0, 0.0), (0.0, 0.25)],
    "square-overflow": [(-1e160, 1.0), (0.0, 0.5), (0.0, 0.25)],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pairs", CUSTOM_PAIRS.values(), ids=CUSTOM_PAIRS.keys())
def test_kernel_context_where_python_floats_raise(pairs):
    fam = opx.custom_family(lambda n: pairs[min(n, len(pairs)) - 1], (-1.0, 1.0))
    ctx = opx.KernelContext(fam, 2.0, 8)
    for cache, reference in zip(_caches(ctx), _reference_caches(fam, 2.0, 8)):
        assert_bitwise(cache, reference)
    assert not np.isfinite(ctx.weighted_squares).all()


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
    cases = [cli._case("b", 0.5, 1.0), cli._case("a", float("nan"), None)]
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
        "nonfinite": np.array([nan, inf, -inf, 1.5, -0.0]),  # cell by cell
        "int64": np.array([0, -7, 2**62, 1, 5], dtype=np.int64),  # a %d slot
        "bool": np.array([True, False, True, True, False]),
        "none": [None] * 5,
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
