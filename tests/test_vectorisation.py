"""Evaluating on a whole point vector gives the same numbers as evaluating
point by point, which is what lets the CLI evaluate each construction once
per degree.  Real arithmetic matches bitwise; the order-two recovery runs on
the complex shifts 1j and -1j, where numpy's array and scalar complex
arithmetic round differently, so it is held to 1e-14 relative to the size
of the two terms it combines (its value can be far smaller than they are).
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import opx
from conftest import sample_points

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
    gd = opx.geronimus_data(fam, k1, N_MAX + 1)
    rc_g = opx.recover_geronimus(fam, k1, k2, b, N_MAX)
    ud = opx.uvarov_data(fam, k1, 0.5, N_MAX)
    rc_u = opx.recover_uvarov(fam, k1, k2, 0.5, b, N_MAX)
    constructions = [
        lambda n, x: opx.christoffel_recovery_poly(fam, k1, k2, b, rc_c, n, x),
        lambda n, x: opx.geronimus_recovery_poly(fam, k1, k2, b, rc_g, n, x, gd),
        lambda n, x: opx.uvarov_recovery_poly(fam, k1, k2, 0.5, b, rc_u, n, x, ud),
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
        vec = opx.order2_recovery_poly(fam, k1, 1j, -1j, lt, mt, rc, n, xs)
        pts = _per_point(lambda x: opx.order2_recovery_poly(fam, k1, 1j, -1j, lt, mt, rc, n, x), xs)
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
