import math

import numpy as np
import pytest
from scipy import integrate

import opx
from opx import moments
from conftest import sample_points


# ---------------------------------------------------------------------------
# Geronimus transformation
# ---------------------------------------------------------------------------


def test_geronimus_a1_real_and_finite(cheb):
    data = opx.geronimus_data(cheb, 2.0, 1)
    assert np.isfinite(data.A[1])
    assert data.A[1] == pytest.approx(-(2.0 - math.sqrt(3.0)), rel=1e-12)


def test_geronimus_integral_against_scipy_weighted_quad(cheb):
    # fully independent oracle: adaptive quadrature with the algebraic
    # endpoint weight (1-x)^(-1/2) (1+x)^(-1/2)
    k = 2.0
    for n in range(0, 5):
        def integrand(x):
            return opx.eval_table(cheb, n, np.array([x]))[n, 0] / (k - x)

        ref, _ = integrate.quad(integrand, -1, 1, weight="alg", wvar=(-0.5, -0.5))
        data = opx.geronimus_data(cheb, k, n + 1)
        # reconstruct I_n from the ratios and I_0 = cauchy mass
        value = moments.cauchy_mass(cheb, k)
        for m in range(1, n + 1):
            value *= -data.A[m]
        assert value == pytest.approx(ref, rel=1e-9)


def test_geronimus_poly_degree_zero(cheb):
    assert opx.geronimus_poly(cheb, 2.0, 0, 0.4) == 1.0


@pytest.mark.parametrize(
    "make_family, k",
    [
        (opx.chebyshev1, 2.0),
        (lambda: opx.laguerre(0.5), -1.0),
        (lambda: opx.jacobi(0.3, 0.7), -2.0),
        (lambda: opx.laguerre(2.5), -3.0),
    ],
    ids=["chebyshev1-k2", "laguerre0.5-k-1", "jacobi-k-2", "laguerre2.5-k-3"],
)
def test_geronimus_orthogonality_with_solved_mass(make_family, k):
    fam = make_family()
    data = opx.geronimus_data(fam, k, 6)
    polys = [lambda xs, n=n: opx.geronimus_poly(fam, k, n, xs, data) for n in range(7)]
    gram = moments.orthogonality_residual(fam, moments.Geronimus(k, data.mass0), polys, 6)
    off = np.max(np.abs(gram - np.diag(np.diag(gram))))
    assert off <= 1e-9
    # mass0 solved from the (1,0) condition collapses to -L(1/(k-x))
    c1 = fam.coefficient(1)[0]
    assert data.mass0 == pytest.approx(-fam.mu0 / (k - c1 + data.A[1]), rel=1e-12)


def test_geronimus_mass0_solver(cheb):
    assert opx.geronimus_mass0(cheb, 2.0) == pytest.approx(
        -math.pi / math.sqrt(3.0), rel=1e-12
    )


def test_op_from_geronimus_matches_eval(cheb):
    data = opx.geronimus_data(cheb, 2.0, 4)
    got = opx.op_from_geronimus(cheb, 2.0, 3, 0.5, data)
    want = opx.eval_table(cheb, 3, [0.5])[3, 0]
    assert got == pytest.approx(want, rel=1e-9)


def test_op_from_geronimus_laguerre(lag):
    fam = opx.laguerre(0.0)
    data = opx.geronimus_data(fam, -1.0, 3)
    got = opx.op_from_geronimus(fam, -1.0, 2, 1.0, data)
    want = opx.eval_table(fam, 2, [1.0])[2, 0]
    assert got == pytest.approx(want, rel=1e-9)


def test_op_from_geronimus_removable_singularity(cheb):
    # numerator of the inversion formula vanishes at x = k; evaluate at a
    # 1e-8 offset and compare against the direct value
    k, n = 2.0, 3
    data = opx.geronimus_data(cheb, k, n + 1)
    x = k + 1e-8
    got = opx.op_from_geronimus(cheb, k, n, x, data)
    want = opx.eval_table(cheb, n, [x])[n, 0]
    assert got == pytest.approx(want, rel=1e-6)
    num_at_k = opx.geronimus_poly(cheb, k, n + 1, k, data) + (
        cheb.coefficient(n + 1)[1] / data.A[n]
    ) * opx.geronimus_poly(cheb, k, n, k, data)
    assert abs(num_at_k) < 1e-12


def test_op_from_geronimus_eval_at_shift(cheb):
    data = opx.geronimus_data(cheb, 2.0, 3)
    with pytest.raises(opx.EvalAtShift):
        opx.op_from_geronimus(cheb, 2.0, 2, 2.0, data)


def test_geronimus_shift_inside_support(cheb):
    with pytest.raises(opx.ShiftInsideSupport):
        opx.geronimus_data(cheb, 0.5, 3)


def test_geronimus_family_consistency(cheb):
    # expansion-coefficient consistency A_n lambda_n = lt_{n+1} A_{n-1}
    data = opx.geronimus_data(cheb, 2.0, 9)
    fam_t = opx.geronimus_family(cheb, 2.0, 8, data)
    for n in range(2, 7):
        lt = fam_t.coefficient(n + 1)[1]
        assert data.A[n] * cheb.coefficient(n)[1] == pytest.approx(
            lt * data.A[n - 1], rel=1e-11
        )


def test_geronimus_christoffel_duality(cheb):
    # the shifted-by-k kernel construction inverts the transformation
    tilde = opx.geronimus_family(cheb, 3.0, 15)
    ctx = opx.KernelContext(tilde, 3.0, 10)
    back = opx.kernel_recurrence(ctx, 10)
    orig = opx.recurrence_coefficients(cheb, 10)
    assert np.max(np.abs(back - orig)) <= 1e-8


# ---------------------------------------------------------------------------
# Uvarov transformation
# ---------------------------------------------------------------------------


def test_uvarov_vanishing_mass_limit(cheb):
    # T_n -> 0 linearly in r0, so the transformed sequence tends to P_n
    xs = np.linspace(-1, 1, 7)
    base = opx.eval_table(cheb, 4, xs)[4]
    gaps = {}
    for r0 in (1e-4, 1e-7):
        data = opx.uvarov_data(cheb, 2.0, r0, 4)
        vals = opx.uvarov_poly(cheb, 2.0, r0, 4, xs, data)
        gaps[r0] = float(np.max(np.abs(vals - base)))
        assert abs(data.T[4]) <= 1e4 * r0
    assert gaps[1e-7] <= 1e4 * 1e-7
    # leading order is linear in r0 (the 1 + r0 K denominator adds O(r0^2))
    assert gaps[1e-7] == pytest.approx(gaps[1e-4] * 1e-3, rel=0.1)


def test_uvarov_orthogonality(cheb):
    data = opx.uvarov_data(cheb, 2.0, 0.5, 6)
    polys = [lambda xs, n=n: opx.uvarov_poly(cheb, 2.0, 0.5, n, xs, data) for n in range(7)]
    gram = moments.orthogonality_residual(cheb, moments.Uvarov(2.0, 0.5), polys, 6)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-9


def test_uvarov_kernel_value_consistency(cheb):
    # Pk_{n-1}(k;k) computed by the CD sum equals the normalized kernel value
    k, n = 2.0, 5
    ctx = opx.KernelContext(cheb, k, n + 1)
    direct = opx.kernel_poly(ctx, n - 1, k)
    expected = ctx.norms[n - 1] / ctx.pk[n - 1] * opx.cd_kernel(ctx, n - 1, k)
    assert direct == pytest.approx(expected, rel=1e-12)


def test_uvarov_requires_nonzero_mass(cheb):
    with pytest.raises(ValueError):
        opx.uvarov_data(cheb, 2.0, 0.0, 3)


# ---------------------------------------------------------------------------
# recovery constructions
# ---------------------------------------------------------------------------


def _worst_recovery(fam, xs, n_max, builder, evaluator):
    rc = builder()
    worst = 0.0
    for n in range(1, n_max + 1):
        q = evaluator(rc, n, xs)
        p = opx.eval_table(fam, n, xs)[n]
        worst = max(worst, float(np.max(np.abs(q - p) / np.maximum(1.0, np.abs(p)))))
    return worst, rc


def test_recover_christoffel_identity(cheb, rng):
    n_max = 8
    B = np.full(n_max, 0.3)
    xs = sample_points(cheb, rng, 50)
    worst, _ = _worst_recovery(
        cheb,
        xs,
        n_max,
        lambda: opx.recover_christoffel(cheb, 2.0, 2.0, B, n_max),
        lambda rc, n, xs: opx.christoffel_recovery_poly(cheb, 2.0, 2.0, B, rc, n, xs),
    )
    assert worst <= 1e-9


def test_recover_christoffel_distinct_shifts(cheb, rng):
    n_max = 6
    B = np.full(n_max, 0.3)
    xs = sample_points(cheb, rng, 30)
    worst, _ = _worst_recovery(
        cheb,
        xs,
        n_max,
        lambda: opx.recover_christoffel(cheb, 2.0, 3.0, B, n_max),
        lambda rc, n, xs: opx.christoffel_recovery_poly(cheb, 2.0, 3.0, B, rc, n, xs),
    )
    assert worst <= 1e-9


def test_recover_christoffel_coincident_closed_form(cheb, rng):
    # with equal shifts, (x - k) (Pk_n + Bt_n Pk_{n-1}) = (x - gamma_{n-1}) P_n
    # for Bt_n = B_n + eta_{n-1}
    k, n_max = 2.0, 6
    B = np.full(n_max, 0.3)
    rc = opx.recover_christoffel(cheb, k, k, B, n_max)
    ctx = opx.KernelContext(cheb, k, n_max + 1)
    for n in range(1, n_max + 1):
        bt = B[n - 1] + rc.eta[n - 1]
        for x in rng.uniform(-1, 1, 10):
            lhs = (x - k) * (opx.kernel_poly(ctx, n, x) + bt * opx.kernel_poly(ctx, n - 1, x))
            rhs = (x - rc.gamma[n - 1]) * opx.eval_table(cheb, n, [x])[n, 0]
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_recover_christoffel_b_zero_specialization(cheb):
    n_max = 5
    rc = opx.recover_christoffel(cheb, 2.0, 3.0, np.zeros(n_max), n_max)
    pk2 = opx.eval_table(cheb, n_max + 1, [3.0])[:, 0]
    for n in range(0, n_max):
        lam = cheb.coefficient(n + 2)[1]
        assert rc.eta[n] == pytest.approx(-lam * pk2[n] / pk2[n + 1], rel=1e-13)


def test_recover_geronimus_identity(cheb, rng):
    n_max = 6
    Bt = np.full(n_max, 0.4)
    xs = sample_points(cheb, rng, 30)
    gd = opx.geronimus_data(cheb, 3.0, n_max + 1)
    worst, rc = _worst_recovery(
        cheb,
        xs,
        n_max,
        lambda: opx.recover_geronimus(cheb, 3.0, 2.0, Bt, n_max),
        lambda rc, n, xs: opx.geronimus_recovery_poly(cheb, 3.0, 2.0, Bt, rc, n, xs, gd),
    )
    assert worst <= 1e-8
    # alpha_n - 1 - eta_n = 0 identically (up to the 1.0 + eta rounding)
    assert np.nanmax(np.abs(rc.alpha - 1.0 - rc.eta)) <= 1e-15


def test_recover_geronimus_degenerate_denominator(cheb):
    # Btilde tuned so lambda_{n+1} + Bt P_n(k2)/P_{n-1}(k2) crosses zero
    n_max = 3
    pk2 = opx.eval_table(cheb, n_max, [2.0])[:, 0]
    bt = np.full(n_max, 0.4)
    n = 2
    bt[n - 1] = -cheb.coefficient(n + 1)[1] * pk2[n - 1] / pk2[n]
    with pytest.raises(opx.DegenerateDenominator):
        opx.recover_geronimus(cheb, 3.0, 2.0, bt, n_max)


def test_recover_geronimus_btilde_zero_limit(cheb):
    n_max = 4
    rc = opx.recover_geronimus(cheb, 3.0, 2.0, np.zeros(n_max), n_max)
    assert np.allclose(rc.eta[1:], -1.0)
    assert np.allclose(rc.alpha[1:], 0.0)


def test_recover_uvarov_identity(cheb, rng):
    n_max = 6
    Bt = np.full(n_max, 0.2)
    xs = sample_points(cheb, rng, 30)
    ud = opx.uvarov_data(cheb, 2.0, 0.5, n_max)
    worst, rc = _worst_recovery(
        cheb,
        xs,
        n_max,
        lambda: opx.recover_uvarov(cheb, 2.0, 3.0, 0.5, Bt, n_max),
        lambda rc, n, xs: opx.uvarov_recovery_poly(cheb, 2.0, 3.0, 0.5, Bt, rc, n, xs, ud),
    )
    assert worst <= 1e-8
    assert np.nanmax(np.abs(rc.eta - (rc.alpha - 1.0))) <= 1e-15


def test_recover_uvarov_r0_limit(cheb):
    # eta -> 0 and alpha -> 1 linearly in r0 (with an O(T_n/r0) constant)
    n_max = 4
    Bt = np.full(n_max, 0.2)
    etas = {}
    for r0 in (1e-6, 1e-9):
        rc = opx.recover_uvarov(cheb, 2.0, 3.0, r0, Bt, n_max)
        etas[r0] = float(np.nanmax(np.abs(rc.eta[1:])))
        assert np.allclose(rc.alpha[1:].real, 1.0, atol=1e4 * r0)
    assert etas[1e-9] <= 1e4 * 1e-9
    assert etas[1e-9] == pytest.approx(etas[1e-6] * 1e-3, rel=1e-2)


def _order2_inputs(fam, k1, n_max, mt_value=0.5):
    rhs = opx.order2_constraint_rhs(fam, k1, 1j, -1j, n_max)
    mt = np.full(n_max, mt_value, dtype=complex)
    pk1 = opx.eval_table(fam, n_max, [k1])[:, 0]
    lt = np.array(
        [
            rhs[n] - mt[n - 1] * pk1[n] / (fam.coefficient(n + 1)[1] * pk1[n - 1])
            for n in range(1, n_max + 1)
        ]
    )
    return lt, mt


def test_recover_order2_identity(cheb, rng):
    n_max = 5
    lt, mt = _order2_inputs(cheb, 3.0, n_max)
    rc = opx.recover_order2(cheb, 3.0, 1j, -1j, lt, mt, n_max)
    xs = rng.uniform(-1, 1, 30)
    worst = 0.0
    imag_worst = 0.0
    for n in range(1, n_max + 1):
        q = opx.order2_recovery_poly(cheb, 3.0, 1j, -1j, lt, mt, rc, n, xs)
        p = opx.eval_table(cheb, n, xs)[n]
        worst = max(worst, float(np.max(np.abs(q - p) / np.maximum(1.0, np.abs(p)))))
        imag_worst = max(imag_worst, float(np.max(np.abs(np.imag(q)) / np.maximum(1.0, np.abs(q)))))
    assert worst <= 1e-7
    assert imag_worst <= 1e-12  # conjugate shifts keep real x real


def test_recover_order2_constraint_solves(cheb):
    # choosing Mtilde freely and solving the one linear equation for Ltilde
    # always passes the precondition check
    lt, mt = _order2_inputs(cheb, 3.0, 5, mt_value=1.7)
    opx.recover_order2(cheb, 3.0, 1j, -1j, lt, mt, 5)


def test_recover_order2_constraint_violated(cheb):
    lt, mt = _order2_inputs(cheb, 3.0, 5)
    lt = lt + 1e-6
    with pytest.raises(opx.ConstraintViolated):
        opx.recover_order2(cheb, 3.0, 1j, -1j, lt, mt, 5)


def test_recover_order2_cross_ratio_two_routes(cheb):
    # the cross-sum ratio inside beta_n equals the iterated-kernel value
    # ratio computed from the kernel module independently
    n_max = 5
    ctx = opx.KernelContext(cheb, 1j, n_max + 2)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    for n in range(1, n_max):
        from_star = ictx.star_values[n + 1] / ictx.star_values[n]
        lam2 = cheb.coefficient(n + 2)[1]
        from_cross = lam2 * (ctx.pk[n] / ctx.pk[n + 1]) * (ictx.cd_cross[n + 1] / ictx.cd_cross[n])
        assert abs(from_star - from_cross) <= 1e-12 * abs(from_star)


def test_recovery_identity_on_laguerre(lag, rng):
    n_max = 6
    xs = sample_points(lag, rng, 30)
    B = np.full(n_max, 0.3)
    worst, _ = _worst_recovery(
        lag,
        xs,
        n_max,
        lambda: opx.recover_christoffel(lag, -1.0, -1.0, B, n_max),
        lambda rc, n, xs: opx.christoffel_recovery_poly(lag, -1.0, -1.0, B, rc, n, xs),
    )
    assert worst <= 1e-8
    gd = opx.geronimus_data(lag, -1.0, n_max + 1)
    worst, _ = _worst_recovery(
        lag,
        xs,
        n_max,
        lambda: opx.recover_geronimus(lag, -1.0, -2.0, B, n_max),
        lambda rc, n, xs: opx.geronimus_recovery_poly(lag, -1.0, -2.0, B, rc, n, xs, gd),
    )
    assert worst <= 1e-8


def test_uniqueness_sensitivity(cheb, rng):
    # perturbing one recovered coefficient must break the identity
    n_max = 5
    B = np.full(n_max, 0.3)
    rc = opx.recover_christoffel(cheb, 2.0, 3.0, B, n_max)
    xs = sample_points(cheb, rng, 30)
    perturbed = opx.RecoveryCoefficients(
        kind=rc.kind, gamma=rc.gamma.copy(), eta=rc.eta.copy()
    )
    perturbed.eta[3] += 1e-3
    worst = 0.0
    for x in xs:
        q = opx.christoffel_recovery_poly(cheb, 2.0, 3.0, B, perturbed, 4, x)
        p = opx.eval_table(cheb, 4, [x])[4, 0]
        worst = max(worst, abs(q - p))
    assert worst >= 1e-5
    perturbed2 = opx.RecoveryCoefficients(
        kind=rc.kind, gamma=rc.gamma.copy(), eta=rc.eta.copy()
    )
    perturbed2.gamma[3] += 1e-3
    worst = 0.0
    for x in xs:
        q = opx.christoffel_recovery_poly(cheb, 2.0, 3.0, B, perturbed2, 4, x)
        p = opx.eval_table(cheb, 4, [x])[4, 0]
        worst = max(worst, abs(q - p))
    assert worst >= 1e-5


def test_l1_bound_for_coincident_quasi_combination(cheb):
    # integral of |(x - gamma_n)/(x - k) P_{n+1}| dmu is finite and below the
    # Cauchy-Schwarz/Minkowski bound built from 1/(x-k)^2 and the norms of
    # x P_{n+1} and P_{n+1}
    k, n_max = 2.0, 6
    B = np.full(n_max + 1, 0.3)
    rc = opx.recover_christoffel(cheb, k, k, B, n_max + 1)
    rule = moments.gauss_rule(cheb, 256)
    for n in range(0, n_max):
        gamma = rc.gamma[n]
        p_next = opx.eval_table(cheb, n + 1, rule.nodes)[n + 1]
        lhs = float(np.sum(rule.weights * np.abs((rule.nodes - gamma) / (rule.nodes - k) * p_next)))
        inv_sq = float(np.sum(rule.weights / (rule.nodes - k) ** 2))
        x_norm = math.sqrt(float(np.sum(rule.weights * (rule.nodes * p_next) ** 2)))
        p_norm = math.sqrt(float(np.sum(rule.weights * p_next**2)))
        bound = math.sqrt(inv_sq) * (x_norm + abs(gamma) * p_norm)
        assert np.isfinite(lhs)
        assert lhs <= bound + 1e-12
