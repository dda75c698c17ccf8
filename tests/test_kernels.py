import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import opx
from opx import kernels, moments, suites
from conftest import sample_points
from oracles import cd_kernel, product_orthogonality_check


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
        assert cd_kernel(ctx, 0, 0.2) == pytest.approx(1.0 / fam.mu0, rel=1e-14)


def test_cd_kernel_symmetry(cheb):
    ctx_a = opx.KernelContext(cheb, 2.0, 6)
    ctx_b = opx.KernelContext(cheb, 0.3, 6)
    assert cd_kernel(ctx_a, 5, 0.3) == pytest.approx(cd_kernel(ctx_b, 5, 2.0), rel=1e-13)


def test_cd_kernel_sum_vs_closed_form(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 5)
    n, x, k = 3, 0.3, 2.0
    sum_form = cd_kernel(ctx, n, x)
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
    rebuilt = opx.ops_from_kernel_table(ctx, opx.kernel_table(ctx, 5, [2.0]))
    assert rebuilt[4, 0] == pytest.approx(direct, rel=1e-12)


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
    # P_1(0) = 0 for the symmetric family, with a zero scale |k - c_1| too;
    # -0.0 is a shift of its own, whose P_1 is -0.0
    for k, value in ((0.0, "0.0"), (-0.0, "-0.0"), (0.0, "0.0")):
        with pytest.raises(opx.KernelUndefined, match=re.escape(f"P_1({k}) = {value} vanishes")):
            opx.KernelContext(cheb, k, 4)


@pytest.mark.parametrize("k, degree", [(math.sqrt(0.5), 2), (-math.sqrt(0.5), 2), (math.cos(math.pi / 10), 5)])
def test_kernel_undefined_where_a_zero_leaves_a_rounding_error(cheb, k, degree):
    # at the zeros of the monic T_2 and T_5 in doubles P_j(k) is a rounding
    # error, not 0: the ratio rho_j vanishes relative to its recurrence step
    with pytest.raises(opx.KernelUndefined, match=re.escape(f"P_{degree}({k!r}) = ")):
        opx.KernelContext(cheb, k, 6)


def test_context_partial_sums_increasing_for_real_shift(cheb):
    ctx = opx.KernelContext(cheb, 1.5, 12)
    assert np.all(np.diff(ctx.cd_partials.real) > 0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_a_shift_that_is_not_finite_is_refused(k):
    # before any memo lookup: no NaN key enters the family's ratio caches
    fam = opx.jacobi.__wrapped__(0.3, 0.7)
    with pytest.raises(opx.ParameterOutOfRange, match="shift must be finite"):
        opx.KernelContext(fam, k, 5)
    assert "ratios" not in fam._memo


def _caches(ctx):
    return [cache.tobytes() for cache in (ctx.ratios, ctx.weighted_squares, ctx.cd_partials)]


@pytest.mark.parametrize(
    "make, steps",
    [
        # the held caches grown from n = 1000 to 4000, and sliced back
        (opx.chebyshev1, [(2.0, 1000), (2.0, 4000), (2.0, 1000)]),
        (lambda: opx.jacobi(0.3, 0.7), [(1.5, 4000), (1.5, 1000)]),
        # order2's complex shift, and a real and a complex shift with the
        # same bits
        (opx.chebyshev1, [(1j, 60), (complex(0.0, 1.0), 8), (1.0, 8), (complex(1.0, 0.0), 8), (1j, 100)]),
        # -0.0 and 0.0 are two shifts; 2 and 2.0 read the same float
        (lambda: opx.laguerre(0.5), [(0.0, 30), (-0.0, 40), (0.0, 20), (2, 10), (2.0, 12)]),
    ],
    ids=["chebyshev1-k2", "jacobi-k1.5", "chebyshev1-k1j", "laguerre-k0"],
)
def test_a_warm_context_is_bitwise_a_cold_one(fresh_families, make, steps):
    # contexts on the shared family, whose ratio caches earlier contexts
    # filled, against contexts on a family built afresh with the same table
    shared = make()
    assert make() is shared
    for k, n_max in steps:
        warm = opx.KernelContext(shared, k, n_max)
        cold = opx.KernelContext(opx.custom_family(shared.table(n_max + 4), shared.support), k, n_max)
        assert warm.ratios.dtype == cold.ratios.dtype
        assert _caches(warm) == _caches(cold)
        assert not warm.ratios.flags.writeable


def test_a_held_exact_zero_raises_as_a_fresh_build_does():
    # at k = 0, c = (-1, -2, -2, -2, -2, -1, 0, ...) and lambda = 1 give
    # rho_1..rho_5 = 1 and an exact zero rho_6, seen from n_max = 3 on
    rows = [(-1.0, 1.0), *[(-2.0, 1.0)] * 4, (-1.0, 1.0), *[(0.0, 0.25)] * 10]
    held = opx.custom_family(rows, (-1.0, 1.0))
    for n_max in (1, 8, 2, 3, 12, 2):
        fresh = opx.custom_family(rows, (-1.0, 1.0))
        if n_max < 3:
            assert _caches(opx.KernelContext(held, 0.0, n_max)) == _caches(opx.KernelContext(fresh, 0.0, n_max))
            continue
        errors = []
        for family in (held, fresh):
            with pytest.raises(opx.KernelUndefined) as info:
                opx.KernelContext(family, 0.0, n_max)
            errors.append(str(info.value))
        assert errors == ["P_6(0.0) = 0.0 vanishes; kernel sequence undefined"] * 2
    # the caches held end at the zero: no later context rebuilt them
    assert held._memo["ratios"][("d", "0x0.0p+0", "0x0.0p+0")][0].size == 7


def test_racing_contexts_on_one_family_each_get_a_cold_contexts_caches(cheb):
    # eight threads build contexts of two lengths at more shifts than the
    # family holds, with a short switch interval: whichever held caches a
    # context reads, or a racing builder replaces, its slice is bitwise a
    # cold build's
    family = opx.custom_family(cheb.table(300), cheb.support)
    jobs = [(2.0 + (i % (kernels.RATIO_SHIFTS + 3)) / 8, 40 if i % 3 else 290) for i in range(96)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: _caches(opx.KernelContext(family, *job)), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    cold = [_caches(opx.KernelContext(opx.custom_family(cheb.table(300), cheb.support), *job)) for job in jobs]
    assert got == cold


def test_a_family_holds_the_ratio_caches_of_few_shifts(cheb):
    family = opx.custom_family(cheb.table(40), cheb.support)
    for i in range(kernels.RATIO_SHIFTS + 1):
        opx.KernelContext(family, 2.0 + i, 4)
    # the shift past the bound started the held caches over
    assert list(family._memo["ratios"]) == [("d", float(2 + kernels.RATIO_SHIFTS).hex(), "0x0.0p+0")]


def test_iterated_kernel_degree_zero(cheb):
    ctx = opx.KernelContext(cheb, 1j, 6)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    assert opx.iterated_kernel(ictx, 0, 0.4) == 1.0
    assert np.array_equal(opx.iterated_kernel(ictx, 0, [0.1, 0.4]), [1.0, 1.0])


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
    # the raw values Pk_n(k2; k3) as a reference: the shifted context's
    # ratios rho*_j = Pk_j(k2; k3) / Pk_{j-1}(k2; k3) multiply out to them
    star = opx.kernel_table(ctx, 10, [-1j])[:, 0]
    assert np.allclose(np.cumprod(ictx.shifted.ratios[1:11]), star[1:], rtol=1e-13, atol=0)
    # X_n = P_n(k2)/N_n Pk_n(k2; k3), with P_n(k2) and N_n of the base family
    cross = opx.eval_table(cheb, 10, [1j])[:, 0] / opx.norm_products(cheb, 10) * star
    assert np.all(np.abs(cross) > 0)
    # conjugate shifts make the cross sums real and positive
    assert np.all(np.abs(cross.imag) < 1e-14 * np.abs(cross))
    assert np.all(cross.real > 0)


@pytest.mark.parametrize("family, k2", [(opx.chebyshev1, 2.0), (lambda: opx.laguerre(0.5), -1.0)])
def test_iterated_context_undefined_at_a_zero_of_a_first_shift_kernel(family, k2):
    # k3 at a zero of Pk_1(k2; .) or Pk_2(k2; .) makes X_1 or X_2 vanish: the
    # k2-kernel family's own context at k3 is undefined at the same degree,
    # and so is the order-two recovery that reads its ratios
    fam = family()
    ctx = opx.KernelContext(fam, k2, 8)
    (c1, _), (c2, l2) = opx.kernel_recurrence(ctx, 2)
    zeros = [(1, c1), *((2, z) for z in np.roots([1.0, -(c1 + c2), c1 * c2 - l2]))]
    for j, k3 in zeros:
        with pytest.raises(opx.KernelUndefined, match=rf"^P_{j}\("):
            opx.KernelContext(opx.kernel_family(ctx, 9), float(k3), 5)
        with pytest.raises(opx.IteratedUndefined, match=f"^cross sum X_{j} vanishes"):
            opx.IteratedKernelContext(ctx, float(k3))
        with pytest.raises(opx.IteratedUndefined, match=f"^cross sum X_{j} vanishes"):
            opx.recover_order2(fam, -2.0, k2, float(k3), np.full(6, 0.5), 6)


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_iterated_context_needs_a_base_of_degree_three(cheb, n_max):
    with pytest.raises(ValueError, match=f"needs a base n_max >= 3, got {n_max}"):
        opx.IteratedKernelContext(opx.KernelContext(cheb, 1j, n_max), -1j)


def test_iterated_kernel_two_routes_agree(cheb, rng):
    # composition route vs direct expansion through the base family, with
    # R_n from the shifted context; the raw quotient of kernel values at k3
    # is the reference for R_n
    ctx = opx.KernelContext(cheb, 1j, 8)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    star = opx.kernel_table(ctx, 5, [-1j])[:, 0]
    for n in range(1, 5):
        x = float(rng.uniform(-1, 1))
        composed = opx.iterated_kernel(ictx, n, x)
        ratio = ictx.shifted.ratios[n + 1]
        assert abs(ratio - star[n + 1] / star[n]) <= 1e-14 * abs(ratio)
        vals = opx.eval_table(cheb, n + 2, [x])[:, 0]
        pk = opx.eval_table(cheb, n + 2, [1j])[:, 0]
        direct = (
            vals[n + 2]
            - pk[n + 2] / pk[n + 1] * vals[n + 1]
            - ratio * (vals[n + 1] - pk[n + 1] / pk[n] * vals[n])
        ) / ((x - 1j) * (x + 1j))
        assert abs(composed - direct) <= 1e-11 * max(1.0, abs(direct))


@pytest.mark.parametrize(
    "family, k1, k2, k3",
    [(opx.chebyshev1, -2.0, 1j, -1j), (lambda: opx.laguerre(0.5), -2.0, 1j, -1j),
     (lambda: opx.jacobi(0.3, 0.7), 3.0, 1j, -1j), (opx.chebyshev1, -2.0, 2.5, 3.0),
     (lambda: opx.jacobi(0.3, 0.7), 3.0, -2.0, 1.5), (lambda: opx.laguerre(0.5), -2.0, -1.0, -3.0)],
    ids=["chebyshev1-i", "laguerre0.5-i", "jacobi-i", "chebyshev1-2.5,3", "jacobi-2,1.5", "laguerre0.5-1,-3"],
)
def test_iterated_kernel_ratios_against_mpmath(family, k1, k2, k3):
    # R_n = Pk_{n+1}(k2; k3) / Pk_n(k2; k3) to n = 1000, against the divided
    # difference (P_{n+1}(k3) - P_{n+1}(k2)/P_n(k2) P_n(k3)) / (k3 - k2) in 40
    # digits from the same double coefficients; the raw values pass the
    # double range well before.  recover_order2 solves Lt_n from the same
    # R_n (with Mt_n = 0, Lt_n = rho_{n+2}(k1) - rho_{n+2}(k2) - R_n).
    mp = pytest.importorskip("mpmath")
    n = 1000
    fam = family()
    rc = opx.recover_order2(fam, k1, k2, k3, np.zeros(n), n)
    got = rc.data.shifted.ratios[2 : n + 2]
    table = fam.table(n + 2)
    with mp.workdps(40):

        def values(x):
            p = [mp.mpf(1), x - mp.mpf(table[0, 0])]
            for j in range(1, n + 2):
                p.append((x - mp.mpf(table[j, 0])) * p[j] - mp.mpf(table[j, 1]) * p[j - 1])
            return p

        a, b = mp.mpmathify(k2), mp.mpmathify(k3)
        pa, pb = values(a), values(b)
        pk = [(pb[m + 1] - pa[m + 1] / pa[m] * pb[m]) / (b - a) for m in range(1, n + 2)]
        ref = np.array([complex(pk[m + 1] / pk[m]) for m in range(n)])
    eps = np.finfo(float).eps
    # measured at most 7.9 eps (laguerre at (i, -i), where R_n grows like n)
    assert (np.abs(got - ref) <= 16 * eps * np.abs(ref)).all()
    rho1, rho2 = rc.ctx1.ratios[3 : n + 3], rc.ctx2.ratios[3 : n + 3]
    scale = np.maximum.reduce([np.abs(rho1), np.abs(rho2), np.abs(ref)])
    assert (np.abs(rc.quasi[2:, 1] - (rho1 - rho2 - ref)) <= 16 * eps * scale).all()


def test_product_orthogonality_off_diagonal(cheb):
    for n, m in ((2, 0), (1, 2), (3, 1)):
        assert abs(product_orthogonality_check(cheb, n, m, 40)) <= 1e-9


def test_product_orthogonality_diagonal_normalization(cheb):
    # the n = m = 0 case pins the convention: the diagonal equals twice the
    # squared orthonormal-side coefficient, i.e. 2 lambda_{n+2} monic
    base = product_orthogonality_check(cheb, 0, 0, 40)
    assert base == pytest.approx(2.0 * cheb.coefficient(2)[1], rel=1e-12)
    for n in range(1, 5):
        got = product_orthogonality_check(cheb, n, n, 40)
        assert got == pytest.approx(2.0 * cheb.coefficient(n + 2)[1], rel=1e-10)


def test_product_orthogonality_order_precondition(cheb):
    with pytest.raises(ValueError):
        product_orthogonality_check(cheb, 3, 3, 5)


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
