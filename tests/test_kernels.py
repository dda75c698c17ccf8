import math
import re

import numpy as np
import pytest

import opx
from opx import moments, suites
from conftest import sample_points


def test_kernel_poly_degree_zero(cheb, lag):
    for fam in (cheb, lag):
        ctx = opx.KernelContext(fam, 2.0 if fam.kind == "chebyshev1" else -1.0, 4)
        assert opx.kernel_poly(ctx, 0, 0.3) == 1.0


def test_kernel_poly_chebyshev_shift_one(cheb, rng):
    # polynomial-division oracle: (x^2 - x/2 - 1/2) / (x - 1) = x + 1/2
    ctx = opx.KernelContext(cheb, 1.0, 4)
    for x in rng.uniform(-1, 1, 20):
        assert opx.kernel_poly(ctx, 1, x) == pytest.approx(x + 0.5, rel=1e-13, abs=1e-13)


def test_kernel_poly_at_shift_matches_nearby_divided_difference(cheb):
    ctx = opx.KernelContext(cheb, 1.0, 4)
    at_k = opx.kernel_poly(ctx, 1, 1.0)  # CD-sum branch exactly at x = k
    assert at_k == pytest.approx(1.5, rel=1e-14)
    near = opx.kernel_poly(ctx, 1, 1.0 + 1e-8)  # divided-difference branch
    assert near == pytest.approx(at_k, rel=1e-7)


def test_kernel_recurrence_lambda2_value(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 4)
    pairs = opx.kernel_recurrence(ctx, 3)
    assert pairs[1, 1] == pytest.approx(0.4375, rel=1e-14)  # (1/2)(3.5)(1)/4


def test_kernel_recurrence_c1_formula(cheb, lag):
    for fam, k in ((cheb, 2.0), (lag, -1.0)):
        ctx = opx.KernelContext(fam, k, 4)
        pairs = opx.kernel_recurrence(ctx, 2)
        pk = opx.eval_table(fam, 2, [k])[:, 0]
        c2 = fam.coefficient(2)[0]
        expect = c2 - (pk[1] ** 2 - pk[0] * pk[2]) / (pk[0] * pk[1])
        assert pairs[0, 0] == pytest.approx(expect, rel=1e-14)


def test_kernel_recurrence_fit_oracle(cheb, rng):
    # independent oracle: fit the recurrence coefficients from evaluated
    # kernel polynomials by linear solve and compare
    ctx = opx.KernelContext(cheb, 2.0, 8)
    pairs = opx.kernel_recurrence(ctx, 6)
    xs = rng.uniform(-1, 1, 9)
    for n in range(1, 6):
        kp_n = opx.kernel_poly(ctx, n, xs)
        design = np.stack([kp_n, opx.kernel_poly(ctx, n - 1, xs)], axis=1)
        target = xs * kp_n - opx.kernel_poly(ctx, n + 1, xs)
        sol, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert sol[0] == pytest.approx(pairs[n, 0], rel=1e-10)
        assert sol[1] == pytest.approx(pairs[n, 1], rel=1e-10)


def test_kernel_recurrence_positive_left_of_support(cheb):
    ctx = opx.KernelContext(cheb, -2.0, 11)
    pairs = opx.kernel_recurrence(ctx, 10)
    assert np.all(pairs[1:, 1].real > 0)


def test_kernel_mass_convention(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 4)
    pairs = opx.kernel_recurrence(ctx, 1)
    shifted_mass = moments.apply_functional(cheb, moments.Christoffel(2.0), lambda xs: np.ones_like(xs), 0)
    assert pairs[0, 1] == pytest.approx(shifted_mass, rel=1e-13)


def test_cd_kernel_degree_zero(cheb, lag):
    for fam in (cheb, lag):
        ctx = opx.KernelContext(fam, 3.0, 4)
        assert opx.cd_kernel(ctx, 0, 0.2) == pytest.approx(1.0 / fam.mu0, rel=1e-14)


def test_cd_kernel_symmetry(cheb):
    ctx_a = opx.KernelContext(cheb, 2.0, 6)
    ctx_b = opx.KernelContext(cheb, 0.3, 6)
    assert opx.cd_kernel(ctx_a, 5, 0.3) == pytest.approx(opx.cd_kernel(ctx_b, 5, 2.0), rel=1e-13)


def test_cd_kernel_sum_vs_closed_form(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 5)
    n, x, k = 3, 0.3, 2.0
    sum_form = opx.cd_kernel(ctx, n, x)
    vals = opx.eval_table(cheb, n + 1, [x])[:, 0]
    pk = opx.eval_table(cheb, n + 1, [k])[:, 0]
    norms = opx.norm_products(cheb, n + 1)
    closed = (vals[n + 1] * pk[n] - pk[n + 1] * vals[n]) / ((x - k) * norms[n])
    assert sum_form == pytest.approx(closed, rel=1e-10)


def test_op_from_kernels_chebyshev_shift_one(cheb, rng):
    # at k = 1 the mixing coefficient collapses to -1/2 at every degree
    ctx = opx.KernelContext(cheb, 1.0, 8)
    pk = opx.eval_table(cheb, 7, [1.0])[:, 0]
    for n in range(0, 6):
        coef = -pk[n] / pk[n + 1] * cheb.coefficient(n + 2)[1]
        assert coef == pytest.approx(-0.5, rel=1e-13)
        for x in rng.uniform(-1, 1, 5):
            combo = opx.kernel_poly(ctx, n + 1, x) - 0.5 * opx.kernel_poly(ctx, n, x)
            direct = opx.eval_table(cheb, n + 1, [x])[n + 1, 0]
            assert combo == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_op_from_kernels_general_shift_coefficient(cheb):
    k = 2.7
    ctx = opx.KernelContext(cheb, k, 8)
    pk = opx.eval_table(cheb, 7, [k])[:, 0]
    # the coefficient the kernel layer uses, lambda_{n+2}/rho_{n+1}
    coef = -cheb.table(7)[2:7, 1] / ctx.ratios[2:7]
    for n in range(1, 6):
        expect = -0.25 * pk[n] / pk[n + 1]
        assert coef[n - 1] == pytest.approx(expect, rel=1e-14)


def test_op_from_kernels_matches_eval(cheb, lag, rng):
    for fam, k in ((cheb, 2.0), (lag, -1.0)):
        # n = 0..5 at 10 points
        gaps = suites.op_from_kernels_gap(opx.KernelContext(fam, k, 8), sample_points(fam, rng, 10), 7)
        assert gaps.shape == (6, 10) and (gaps <= 1e-10).all()


def test_op_from_kernels_laguerre_example(lag):
    ctx = opx.KernelContext(lag, -1.0, 8)
    direct = opx.eval_table(lag, 5, [2.0])[5, 0]
    assert opx.op_from_kernels(ctx, 4, 2.0) == pytest.approx(direct, rel=1e-12)


def test_branch_agreement_on_annulus(cheb, lag, jac, rng):
    for fam, k in ((cheb, 2.0), (lag, -1.0), (jac, 3.0)):
        radii = 10.0 ** rng.uniform(-4, -1, 12) * (1.0 + abs(k))
        gaps = suites.kernel_branch_agreement(opx.KernelContext(fam, k, 14), radii, 12)
        assert gaps.shape == (12, 12) and (gaps <= 1e-9).all()


def _leading_coefficient(xs, vals):
    table = np.array(vals, dtype=complex)
    for level in range(1, len(xs)):
        table = (table[1:] - table[:-1]) / (xs[level:] - xs[:-level])
    return table[0].real


def test_kernel_poly_monicity(cheb, lag):
    for fam, k, mid, width in ((cheb, 2.0, 0.0, 1.0), (lag, -1.0, 8.0, 8.0)):
        ctx = opx.KernelContext(fam, k, 10)
        for n in range(1, 9):
            xs = mid + width * np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
            vals = opx.kernel_poly(ctx, n, xs)
            assert _leading_coefficient(xs, vals) == pytest.approx(1.0, rel=1e-9)


def test_kernel_ttrr_residual(cheb, lag, rng):
    for fam, k in ((cheb, 2.0), (lag, -1.0)):
        # n = 1..7 at 20 points
        gaps = suites.kernel_ttrr(opx.KernelContext(fam, k, 10), sample_points(fam, rng, 20), 9)
        assert gaps.shape == (7, 20) and (gaps <= 1e-10).all()


def test_kernel_undefined_at_polynomial_zero(cheb):
    # P_1(0) = 0 for the symmetric family, with a zero scale |k - c_1| too
    with pytest.raises(opx.KernelUndefined, match=re.escape("P_1(0.0) = 0.0 vanishes")):
        opx.KernelContext(cheb, 0.0, 4)


@pytest.mark.parametrize("k, degree", [(math.sqrt(0.5), 2), (-math.sqrt(0.5), 2), (math.cos(math.pi / 10), 5)])
def test_kernel_undefined_where_a_zero_leaves_a_rounding_error(cheb, k, degree):
    # at the zeros of the monic T_2 and T_5 in doubles P_j(k) is a rounding
    # error, not 0: the ratio rho_j vanishes relative to its recurrence step
    with pytest.raises(opx.KernelUndefined, match=re.escape(f"P_{degree}({k!r}) = ")):
        opx.KernelContext(cheb, k, 6)


def test_context_partial_sums_increasing_for_real_shift(cheb):
    ctx = opx.KernelContext(cheb, 1.5, 12)
    assert np.all(np.diff(ctx.cd_partials.real) > 0)


def test_iterated_kernel_degree_zero(cheb):
    ctx = opx.KernelContext(cheb, 1j, 6)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    assert opx.iterated_kernel(ictx, 0, 0.4) == 1.0


def test_iterated_kernel_real_case_orthogonality(cheb, rng):
    # orthogonal under p -> L((x - k2)(x - k3) p), checked by quadrature
    k2, k3 = -2.0, -3.0
    ctx = opx.KernelContext(cheb, k2, 9)
    ictx = opx.IteratedKernelContext(ctx, k3)

    def poly(n):
        return lambda xs: np.real(opx.iterated_kernel(ictx, n, xs))

    size = 6
    gram = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            gram[i, j] = moments.apply_functional(
                cheb,
                moments.Base(),
                lambda xs, i=i, j=j: (xs - k2) * (xs - k3) * poly(i)(xs) * poly(j)(xs),
                i + j + 2,
            )
    scale = np.sqrt(np.abs(np.diag(gram)))
    normalized = gram / np.outer(scale, scale)
    off = np.max(np.abs(normalized - np.diag(np.diag(normalized))))
    assert off <= 1e-9


def test_iterated_kernel_complex_cross_sums_nonzero(cheb):
    ctx = opx.KernelContext(cheb, 1j, 12)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    # X_n = P_n(k2)/N_n Pk_n(k2; k3), with P_n(k2) and N_n of the base family
    cross = opx.eval_table(cheb, 10, [1j])[:, 0] / opx.norm_products(cheb, 10) * ictx.star_values[:11]
    assert np.all(np.abs(cross) > 0)
    # conjugate shifts make the cross sums real and positive
    assert np.all(np.abs(cross.imag) < 1e-14 * np.abs(cross))
    assert np.all(cross.real > 0)


@pytest.mark.parametrize("family, k2", [(opx.chebyshev1, 2.0), (lambda: opx.laguerre(0.5), -1.0)])
def test_iterated_context_undefined_at_a_zero_of_a_first_shift_kernel(family, k2):
    # k3 at a zero of Pk_1(k2; .) or Pk_2(k2; .) makes X_1 or X_2 vanish
    ctx = opx.KernelContext(family(), k2, 8)
    (c1, _), (c2, l2) = opx.kernel_recurrence(ctx, 2)
    zeros = [(1, c1), *((2, z) for z in np.roots([1.0, -(c1 + c2), c1 * c2 - l2]))]
    for j, k3 in zeros:
        with pytest.raises(opx.IteratedUndefined, match=f"^cross sum X_{j} vanishes"):
            opx.IteratedKernelContext(ctx, float(k3))


def test_iterated_kernel_two_routes_agree(cheb, rng):
    # composition route vs direct expansion through the base family
    ctx = opx.KernelContext(cheb, 1j, 8)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    for n in range(1, 5):
        x = float(rng.uniform(-1, 1))
        composed = opx.iterated_kernel(ictx, n, x)
        star_ratio = ictx.star_values[n + 1] / ictx.star_values[n]
        vals = opx.eval_table(cheb, n + 2, [x])[:, 0]
        pk = opx.eval_table(cheb, n + 2, [1j])[:, 0]
        direct = (
            vals[n + 2]
            - pk[n + 2] / pk[n + 1] * vals[n + 1]
            - star_ratio * (vals[n + 1] - pk[n + 1] / pk[n] * vals[n])
        ) / ((x - 1j) * (x + 1j))
        assert abs(composed - direct) <= 1e-11 * max(1.0, abs(direct))


def test_product_orthogonality_off_diagonal(cheb):
    for n, m in ((2, 0), (1, 2), (3, 1)):
        assert abs(opx.product_orthogonality_check(cheb, n, m, 40)) <= 1e-9


def test_product_orthogonality_diagonal_normalization(cheb):
    # the n = m = 0 case pins the convention: the diagonal equals twice the
    # squared orthonormal-side coefficient, i.e. 2 lambda_{n+2} monic
    base = opx.product_orthogonality_check(cheb, 0, 0, 40)
    assert base == pytest.approx(2.0 * cheb.coefficient(2)[1], rel=1e-12)
    for n in range(1, 5):
        got = opx.product_orthogonality_check(cheb, n, n, 40)
        assert got == pytest.approx(2.0 * cheb.coefficient(n + 2)[1], rel=1e-10)


def test_product_orthogonality_order_precondition(cheb):
    with pytest.raises(ValueError):
        opx.product_orthogonality_check(cheb, 3, 3, 5)


# Christoffel's theorem: at an endpoint of the support the kernel weight
# |x - k| w(x) is the family's own with the parameter at that endpoint
# raised by one, so no quadrature is needed at any degree.  Each case is
# (family, k, raised family, degree inside the support, degree at x = k).
ENDPOINTS = {
    "jacobi-k1": (lambda: opx.jacobi(0.3, 0.7), 1.0, lambda: opx.jacobi(1.3, 0.7), 1000, 700),
    "jacobi-k-1": (lambda: opx.jacobi(0.3, 0.7), -1.0, lambda: opx.jacobi(0.3, 1.7), 1000, 700),
    "chebyshev1-k1": (opx.chebyshev1, 1.0, lambda: opx.jacobi(0.5, -0.5), 1000, 700),
    "laguerre-k0": (lambda: opx.laguerre(0.5), 0.0, lambda: opx.laguerre(1.5), 150, 150),
}


@pytest.mark.parametrize("family, k, raised, n, n_at_k", ENDPOINTS.values(), ids=ENDPOINTS.keys())
def test_kernels_at_a_support_endpoint_are_the_raised_family(family, k, raised, n, n_at_k):
    # Laguerre stops at 150, where the values near 20 reach 1e266.
    fam = family()
    a, b = (0.0, 20.0) if fam.kind == "laguerre" else (-1.0, 1.0)
    xs = np.linspace(a, b, 9)[1:-1]  # inside the support, away from k
    ctx = opx.KernelContext(fam, k, n)
    got = opx.kernel_table(ctx, n, xs)
    want = opx.eval_table(raised(), n, xs)
    gap = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    # measured: at most 2.3 (n + 1) eps per row (laguerre at n = 34), and
    # 4.8e-14 by n = 1000
    bound = 8 * np.arange(1, n + 2) * np.finfo(float).eps
    assert (gap <= bound).all()
    # at x = k itself, the CD branch: the raised family's P_n(k) leaves the
    # double range past these degrees (below it on [-1, 1], above it on the
    # half line); measured at most 3.2 (n + 1) eps, 4.9e-13 at n = 700
    got = opx.kernel_table(ctx, n_at_k, [k])[:, 0]
    want = opx.eval_table(raised(), n_at_k, [k])[:, 0]
    assert (np.abs(got - want) <= bound[: n_at_k + 1] * np.abs(want)).all()


@pytest.mark.parametrize("family, k, raised", [c[:3] for c in ENDPOINTS.values()], ids=ENDPOINTS.keys())
def test_kernel_recurrence_at_a_support_endpoint_is_the_raised_familys(family, k, raised):
    # read off the ratios rho_j = P_j(k)/P_{j-1}(k), the coefficients stay
    # finite to n = 10^4, far past the degrees where P_n(k) itself leaves
    # the double range
    n = 10**4
    ctx = opx.KernelContext(family(), k, n)
    pairs = opx.kernel_recurrence(ctx, n)
    want = raised().table(n)
    eps = np.finfo(float).eps
    # c*_n = c_{n+1} - rho_n + rho_{n+1} cancels to O(1/n^2) on Jacobi, so
    # its rounding is relative to rho_n; measured at most 2.9 eps
    scale = np.maximum(np.abs(want[:, 0]), np.abs(ctx.ratios[1 : n + 1]))
    assert (np.abs(pairs[:, 0] - want[:, 0]) <= 6 * eps * scale).all()
    # measured at most 3.0 eps
    assert (np.abs(pairs[1:, 1] - want[1:, 1]) <= 6 * eps * want[1:, 1]).all()
    # lambda*_1 = L*(1) = L((x - k) 1): the raised family's mass, negative
    # at the right endpoint, where x - k <= 0
    assert pairs[0, 1] == pytest.approx(np.sign(pairs[0, 1]) * raised().mu0, rel=1e-14)
    assert np.sign(pairs[0, 1]) == (-1.0 if k == 1.0 else 1.0)


@pytest.mark.parametrize(
    "family, k",
    [(opx.chebyshev1, 2.0), (lambda: opx.laguerre(0.0), -1.0), (lambda: opx.jacobi(0.3, 0.7), 1.5),
     (lambda: opx.jacobi(0.3, 0.7), -2.0)],
    ids=["chebyshev1-k2", "laguerre0-k-1", "jacobi-k1.5", "jacobi-k-2"],
)
def test_kernel_recurrence_against_mpmath(family, k):
    # the product formulas on P_j(k) in 60 digits, from the same double
    # coefficients; P_n(-1) of laguerre(0) passes 1e154 near n = 95, where
    # the squares of the raw values overflow
    mp = pytest.importorskip("mpmath")
    n = 300
    fam = family()
    pairs = opx.kernel_recurrence(opx.KernelContext(fam, k, n), n)
    table = fam.table(n + 1)
    with mp.workdps(60):
        p = [mp.mpf(1), k - mp.mpf(table[0, 0])]
        for j in range(1, n + 1):
            p.append((k - mp.mpf(table[j, 0])) * p[j] - mp.mpf(table[j, 1]) * p[j - 1])
        c_star = [
            mp.mpf(table[m, 0]) - (p[m] ** 2 - p[m - 1] * p[m + 1]) / (p[m - 1] * p[m]) for m in range(1, n + 1)
        ]
        lam_star = [mp.mpf(table[m - 1, 1]) * p[m] * p[m - 2] / p[m - 1] ** 2 for m in range(2, n + 1)]
        rho = np.array([float(p[m] / p[m - 1]) for m in range(1, n + 1)])
        c_star, lam_star = np.array(c_star, dtype=float), np.array(lam_star, dtype=float)
    eps = np.finfo(float).eps
    # c*_n cancels where it is small next to rho_n (jacobi at 1.5), so its
    # rounding is relative to rho_n; measured at most 1.5 eps for both
    assert (np.abs(pairs[:, 0] - c_star) <= 4 * eps * np.maximum(np.abs(c_star), np.abs(rho))).all()
    assert (np.abs(pairs[1:, 1] - lam_star) <= 4 * eps * np.abs(lam_star)).all()
