import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

import opx
from opx import moments, suites, transforms
from conftest import sample_points
from oracles import cd_kernel


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
    assert opx.geronimus_table(opx.geronimus_data(cheb, 2.0, 1), 0, [0.4]).tolist() == [[1.0]]


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
    # the Gram matrix runs on the oracle's mass -L(1/(k - x)), as the verify
    # suite does: entry (i, j) moves by Pt_i(k) Pt_j(k) times any gap between
    # it and the record's mass, which is held to the suite's 1e-12 instead
    fam = make_family()
    data = opx.geronimus_data(fam, k, 6)
    solved = -moments.cauchy_mass(fam, k)
    assert abs(data.mass0 - solved) <= 1e-12 * abs(solved)
    assert (suites.geronimus_orthogonality(data, solved, 6) <= 1e-9).all()
    # mass0 solved from the (1,0) condition collapses to -L(1/(k-x))
    c1 = fam.coefficient(1)[0]
    assert data.mass0 == pytest.approx(-fam.mu0 / (k - c1 + data.A[1]), rel=1e-12)


def test_geronimus_mass0_solver(cheb):
    assert opx.geronimus_data(cheb, 2.0, 1).mass0 == pytest.approx(
        -math.pi / math.sqrt(3.0), rel=1e-12
    )


def _op_from_geronimus(data, n, xs):
    """P_n(x) = [Pt_{n+1}(k;x) + (lambda_{n+1}/A_n) Pt_n(k;x)] / (x - k), from
    rows n and n+1 of one ``geronimus_table``.

    Expanding the combination over the P basis forces its mixing
    coefficient B_n to satisfy lambda_{n+1} = +B_n A_n (equivalently
    A_{n+1} = c_{n+1} - k - lambda_{n+1}/A_n, the ratio form of the integral
    recurrence), hence the plus sign; a minus-signed variant of this formula
    circulates but fails the direct evaluation.  The numerator vanishes at
    x = k, a removable singularity.
    """
    lam = data.family.coefficient(n + 1)[1]
    pt = opx.geronimus_table(data, n + 1, xs)
    return (pt[n + 1] + (lam / data.A[n]) * pt[n]) / (np.asarray(xs) - data.k)


def test_op_from_geronimus_matches_eval(cheb):
    data = opx.geronimus_data(cheb, 2.0, 9)
    xs = np.linspace(-1.0, 1.0, 7)
    direct = opx.eval_table(cheb, 8, xs)
    for n in range(1, 9):
        np.testing.assert_allclose(_op_from_geronimus(data, n, xs), direct[n], rtol=1e-9, atol=1e-12)


def test_op_from_geronimus_laguerre(lag):
    fam = opx.laguerre(0.0)
    data = opx.geronimus_data(fam, -1.0, 3)
    got = _op_from_geronimus(data, 2, [1.0])[0]
    want = opx.eval_table(fam, 2, [1.0])[2, 0]
    assert got == pytest.approx(want, rel=1e-9)


def test_op_from_geronimus_removable_singularity(cheb):
    # numerator of the inversion formula vanishes at x = k; evaluate at a
    # 1e-8 offset and compare against the direct value
    k, n = 2.0, 3
    data = opx.geronimus_data(cheb, k, n + 1)
    x = k + 1e-8
    got = _op_from_geronimus(data, n, [x])[0]
    want = opx.eval_table(cheb, n, [x])[n, 0]
    assert got == pytest.approx(want, rel=1e-6)
    pt = opx.geronimus_table(data, n + 1, [k])[:, 0]
    num_at_k = pt[n + 1] + (cheb.coefficient(n + 1)[1] / data.A[n]) * pt[n]
    assert abs(num_at_k) < 1e-12


def test_op_from_geronimus_degree_zero(cheb, lag):
    # A_0 = -I_0 (I_{-1} = 1), so the inversion formula holds from n = 0
    for fam, k in ((cheb, 2.0), (lag, -1.0)):
        data = opx.geronimus_data(fam, k, 2)
        np.testing.assert_allclose(_op_from_geronimus(data, 0, [0.5, 3.0]), 1.0, rtol=1e-13)
        assert data.A[0] == data.mass0


def test_geronimus_shift_inside_support(cheb):
    with pytest.raises(opx.ShiftInsideSupport):
        opx.geronimus_data(cheb, 0.5, 3)


def test_geronimus_family_consistency(cheb):
    # expansion-coefficient consistency A_n lambda_n = lt_{n+1} A_{n-1}
    data = opx.geronimus_data(cheb, 2.0, 9)
    fam_t = opx.geronimus_family(data, 8)
    for n in range(2, 7):
        lt = fam_t.coefficient(n + 1)[1]
        assert data.A[n] * cheb.coefficient(n)[1] == pytest.approx(
            lt * data.A[n - 1], rel=1e-11
        )


def test_geronimus_christoffel_duality(cheb):
    # the shifted-by-k kernel construction inverts the transformation
    tilde = opx.geronimus_family(opx.geronimus_data(cheb, 3.0, 16), 15)
    ctx = opx.KernelContext(tilde, 3.0, 10)
    back = opx.kernel_recurrence(ctx, 10)
    orig = cheb.table(10)
    assert np.max(np.abs(back - orig)) <= 1e-8


@pytest.mark.parametrize("k", [1.01, 1.1, 2.0, -3.0])
def test_geronimus_chebyshev1_closed_forms(cheb, k):
    # with rho = k - sign(k) sqrt(k^2 - 1), |rho| < 1: I_0 = sign(k) pi /
    # sqrt(k^2 - 1) and I_n = 2^(1-n) rho^n I_0 for n >= 1, so A_n = -rho/2
    # for n >= 2
    root = math.sqrt((abs(k) - 1.0) * (abs(k) + 1.0))
    rho = math.copysign(1.0, k) / (abs(k) + root)
    data = opx.geronimus_data(cheb, k, 12)
    np.testing.assert_allclose(data.A[2:], -rho / 2, rtol=1e-14, atol=0)
    assert data.mass0 == pytest.approx(-math.copysign(math.pi, k) / root, rel=1e-14)


def _mp_chebyshev1(mp):
    def coeffs(m):  # (c_{m+1}, lambda_{m+1}); lambda_1 is never read
        return mp.mpf(0), mp.mpf(1) / 2 if m == 1 else mp.mpf(1) / 4

    return coeffs, lambda x: 1 / mp.sqrt(1 - x * x), [-1, 0, 1]


def _mp_laguerre(mp, gamma):
    g = mp.mpf(gamma)

    def coeffs(m):  # (c_{m+1}, lambda_{m+1})
        return 2 * m + 1 + g, m * (m + g)

    return coeffs, lambda x: x**g * mp.exp(-x), [0, 1, mp.inf]


def _mp_jacobi(mp, gamma, delta):
    g, d = mp.mpf(gamma), mp.mpf(delta)
    s = g + d

    def coeffs(m):  # (c_{m+1}, lambda_{m+1}); lambda_1 is never read
        if m == 0:
            return (d - g) / (s + 2), None
        c = (d - g) * (d + g) / ((2 * m + s) * (2 * m + s + 2))
        lam = 4 * m * (m + g) * (m + d) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1) * (2 * m + s - 1))
        return c, lam

    return coeffs, lambda x: (1 - x) ** g * (1 + x) ** d, [-1, 0, 1]


@pytest.mark.parametrize(
    "make_family, mp_family, k",
    [
        (lambda: opx.laguerre(0.0), lambda mp: _mp_laguerre(mp, 0), -0.5),
        (lambda: opx.laguerre(0.5), lambda mp: _mp_laguerre(mp, 0.5), -0.1),
        (lambda: opx.laguerre(0.5), lambda mp: _mp_laguerre(mp, 0.5), -1.0),
        (lambda: opx.jacobi(0.3, 0.7), lambda mp: _mp_jacobi(mp, 0.3, 0.7), 1.5),
        (lambda: opx.jacobi(0.3, 0.7), lambda mp: _mp_jacobi(mp, 0.3, 0.7), -3.0),
    ],
    ids=["laguerre0-k-0.5", "laguerre0.5-k-0.1", "laguerre0.5-k-1", "jacobi-k1.5", "jacobi-k-3"],
)
def test_geronimus_integrals_against_mpmath(make_family, mp_family, k):
    # I_n = integral of w(x) P_n(x) / (k - x) by 40-digit tanh-sinh quadrature
    # for each n, against I_0 = -mass0 and I_n = I_{n-1} (-A_n)
    mp = pytest.importorskip("mpmath")
    n_max, values = 8, {}
    with mp.workdps(40):
        coeffs, weight, cuts = mp_family(mp)
        kk = mp.mpf(k)

        def terms(x):  # w(x) P_n(x) / (k - x), n = 0..n_max, once per node
            if x not in values:
                p_prev, p, scale = mp.mpf(0), mp.mpf(1), weight(x) / (kk - x)
                row = [scale]
                for m in range(n_max):
                    c, lam = coeffs(m)
                    p_prev, p = p, (x - c) * p - (lam * p_prev if m else 0)
                    row.append(scale * p)
                values[x] = row
            return values[x]

        want = [float(mp.quad(lambda x: terms(x)[n], cuts)) for n in range(n_max + 1)]
    data = opx.geronimus_data(make_family(), k, n_max)
    got = np.cumprod([-data.mass0, *(-data.A[1:])])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_geronimus_shift_next_to_the_support_is_nonconvergent(cheb):
    with pytest.raises(opx.NonConvergent):
        opx.geronimus_data(cheb, 1.0 + 1e-12, 4)


def test_geronimus_zero_jfraction_denominator():
    # lambda_n = 0 past the first row makes s_1 = 0, and k = c_1 then zeroes
    # the denominator of s_0
    fam = opx.custom_family(np.array([[2.0, 1.0]] + [[0.0, 0.0]] * 200), (-1.0, 1.0), 1.0)
    with pytest.raises(opx.DegenerateDenominator):
        opx.geronimus_data(fam, 2.0, 3)


def test_geronimus_records_solve_no_gauss_rule(monkeypatch):
    def no_rule(*args):
        raise AssertionError("a Gauss rule was solved")

    monkeypatch.setattr(moments, "gauss_rule", no_rule)
    fam = opx.laguerre(0.5)
    data = opx.geronimus_data(fam, -1.0, 9)
    rc = opx.recover_geronimus(fam, -1.0, -1.0, np.full(8, 0.3), 8)
    assert np.all(np.isfinite(data.A[1:]))
    np.testing.assert_array_equal(rc.data.A, data.A)



def test_geronimus_on_a_finite_table_is_one_full_depth_pass(monkeypatch):
    # the J-fraction of a finite table is exact when cut at its last row, so
    # the record is the pass over all 40 rows, bitwise, whatever n_max is
    def no_rule(*args):
        raise AssertionError("a Gauss rule was solved")

    monkeypatch.setattr(moments, "gauss_rule", no_rule)
    rows = np.column_stack([0.1 * np.cos(np.arange(40)), 0.25 + 0.5 / np.arange(1, 41)])
    fam = opx.custom_family(rows, (-1.6, 1.6))
    k = 2.0
    full = transforms._backward_ratios(k, rows[:, 0].tolist(), rows[:, 1].tolist(), 39)
    for n_max in (1, 6, 39):
        data = opx.geronimus_data(fam, k, n_max)
        np.testing.assert_array_equal(data.A[1:], -np.array(full[1 : n_max + 1]))
        assert data.mass0 == -full[0]
    # s_40 would need row 41
    with pytest.raises(opx.TableTooShort, match="needed 41"):
        opx.geronimus_data(fam, k, 40)


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
        vals = opx.uvarov_table(data, 4, xs)[4]
        gaps[r0] = float(np.max(np.abs(vals - base)))
        assert abs(data.T[4]) <= 1e4 * r0
    assert gaps[1e-7] <= 1e4 * 1e-7
    # leading order is linear in r0 (the 1 + r0 K denominator adds O(r0^2))
    assert gaps[1e-7] == pytest.approx(gaps[1e-4] * 1e-3, rel=0.1)


@pytest.mark.parametrize(
    "make_family, mp_family",
    [
        (opx.chebyshev1, _mp_chebyshev1),
        (lambda: opx.laguerre(0.5), lambda mp: _mp_laguerre(mp, 0.5)),
        (lambda: opx.jacobi(0.3, 0.7), lambda mp: _mp_jacobi(mp, 0.3, 0.7)),
    ],
    ids=["chebyshev1", "laguerre0.5", "jacobi"],
)
@pytest.mark.parametrize("k", [-2.0, -10.0, -20.0, -50.0])
def test_uvarov_table_at_its_mass_point_against_mpmath(make_family, mp_family, k):
    # Ph_n(k) = P_n(k) - T_n Pk_{n-1}(k; k), with T_n = r0 P_n(k) P_{n-1}(k) /
    # (N_{n-1} (1 + r0 K_{n-1}(k, k))) and the CD value Pk_{n-1}(k; k) =
    # N_{n-1} K_{n-1}(k, k) / P_{n-1}(k), from the exact coefficients.  The
    # difference cancels by the size of r0 K_{n-1}(k, k), up to 1e64 here,
    # so it runs at 120 digits; in double precision it cancels to noise (a
    # 2.5e-9 Gram entry at k = -20 on jacobi)
    mp = pytest.importorskip("mpmath")
    fam, r0, n_max = make_family(), 0.5, 16
    got = opx.uvarov_table(opx.uvarov_data(fam, k, r0, n_max), n_max, [k])[:, 0]
    with mp.workdps(40):
        coeffs, weight, cuts = mp_family(mp)
        mu0 = mp.quad(weight, cuts)
    with mp.workdps(120):
        x, norm = mp.mpf(k), mu0  # N_0 = mu0
        p_prev, p, kernel = mp.mpf(0), mp.mpf(1), mp.mpf(0)
        want = [mp.mpf(1)]
        for n in range(1, n_max + 1):
            kernel += p**2 / norm  # K_{n-1}(k, k)
            c, lam = coeffs(n - 1)
            p_prev, p = p, (x - c) * p - (lam * p_prev if n > 1 else 0)
            t = r0 * p * p_prev / (norm * (1 + r0 * kernel))
            want.append(p - t * norm * kernel / p_prev)
            norm *= coeffs(n)[1]  # N_n = N_{n-1} lambda_{n+1}
    gaps = [abs(g - float(w)) / abs(float(w)) for g, w in zip(got.tolist(), want)]
    assert max(gaps) <= 1e-13


def test_uvarov_orthogonality(cheb):
    assert (suites.uvarov_orthogonality(opx.uvarov_data(cheb, 2.0, 0.5, 6), 6) <= 1e-9).all()


def test_uvarov_kernel_value_consistency(cheb):
    # Pk_{n-1}(k;k) computed by the CD sum equals the normalized kernel value
    k, n = 2.0, 5
    ctx = opx.KernelContext(cheb, k, n + 1)
    direct = opx.kernel_poly(ctx, n - 1, k)
    pk = opx.eval_table(cheb, n - 1, [k])[:, 0]
    expected = opx.norm_products(cheb, n - 1)[n - 1] / pk[n - 1] * cd_kernel(ctx, n - 1, k)
    assert direct == pytest.approx(expected, rel=1e-12)


def test_uvarov_requires_nonzero_mass(cheb):
    with pytest.raises(ValueError):
        opx.uvarov_data(cheb, 2.0, 0.0, 3)


# ---------------------------------------------------------------------------
# recovery constructions
# ---------------------------------------------------------------------------


def test_recover_christoffel_identity(cheb, rng):
    n_max = 8
    B = np.full(n_max, 0.3)
    rc = opx.recover_christoffel(cheb, 2.0, 2.0, B, n_max)
    assert (suites.recovery_identity(rc, sample_points(cheb, rng, 50), n_max) <= 1e-9).all()


def test_recover_christoffel_distinct_shifts(cheb, rng):
    n_max = 6
    B = np.full(n_max, 0.3)
    rc = opx.recover_christoffel(cheb, 2.0, 3.0, B, n_max)
    assert (suites.recovery_identity(rc, sample_points(cheb, rng, 30), n_max) <= 1e-9).all()


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
    rc = opx.recover_geronimus(cheb, 3.0, 2.0, Bt, n_max)
    assert (suites.recovery_identity(rc, sample_points(cheb, rng, 30), n_max) <= 1e-8).all()
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
    rc = opx.recover_uvarov(cheb, 2.0, 3.0, 0.5, Bt, n_max)
    assert (suites.recovery_identity(rc, sample_points(cheb, rng, 30), n_max) <= 1e-8).all()
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


def test_recover_order2_identity(cheb, rng):
    n_max = 5
    rc = opx.recover_order2(cheb, 3.0, 1j, -1j, np.full(n_max, 0.5), n_max)
    xs = rng.uniform(-1, 1, 30)
    assert (suites.recovery_identity(rc, xs, n_max) <= 1e-7).all()
    q = opx.recovery_table(rc, n_max, xs)
    # conjugate shifts keep real x real
    assert (np.abs(np.imag(q)) / np.maximum(1.0, np.abs(q)) <= 1e-12).all()


def test_a_sample_on_a_pole_raises_at_its_degree(cheb):
    # a point on gamma_{n-1} of a christoffel recovery, and one on
    # alpha_n x - beta_n = 0 of an order-two one, at degree n = 3
    n_max, bad = 6, 3
    rc_c = opx.recover_christoffel(cheb, -2.0, 3.0, np.full(n_max, 0.3), n_max)
    rc_2 = opx.recover_order2(cheb, -2.0, 1j, -1j, np.full(n_max, 0.5), n_max)
    for rc, pole in ((rc_c, rc_c.gamma[bad - 1]), (rc_2, rc_2.beta[bad] / rc_2.alpha[bad])):
        xs = np.array([0.1, pole, 0.4])
        for call in (
            lambda: opx.recovery_table(rc, n_max, xs),
            lambda: opx.recovery_table(rc, bad, xs),
            lambda: opx.recovery_table(rc, n_max, pole),
        ):
            with pytest.raises(opx.PoleAtSample, match=f"the degree-{bad} combination"):
                call()
        assert np.isfinite(opx.recovery_table(rc, bad - 1, xs)).all()


def test_recovery_table_takes_the_recovered_degrees(cheb):
    n_max = 4
    rc = opx.recover_uvarov(cheb, 2.0, 3.0, 0.5, np.full(n_max, 0.2), n_max)
    assert opx.recovery_table(rc, n_max, [0.3, 0.5]).shape == (n_max, 2)
    for n in (0, n_max + 1):
        with pytest.raises(ValueError, match="outside the recovered degrees 1..4"):
            opx.recovery_table(rc, n, [0.3])


def test_recover_order2_constraint_solves(cheb):
    # whatever Mtilde is, the solved Ltilde meets the compatibility constraint
    # Lt_n + Mt_n P_n(k1) / (lambda_{n+1} P_{n-1}(k1)) =
    #     P_{n+2}(k1)/P_{n+1}(k1) - P_{n+2}(k2)/P_{n+1}(k2) - R_n,
    # written out here from the sequence and the iterated kernel values
    n_max, k1 = 5, 3.0
    rc = opx.recover_order2(cheb, k1, 1j, -1j, np.full(n_max, 1.7), n_max)
    _, lt, mt = rc.quasi[2:].T  # row n + 1 is (1, Lt_n, Mt_n)
    pk1 = opx.eval_table(cheb, n_max + 2, [k1])[:, 0]
    pk2 = opx.eval_table(cheb, n_max + 2, [1j])[:, 0]
    star = opx.IteratedKernelContext(opx.KernelContext(cheb, 1j, n_max + 2), -1j).star_values
    for n in range(1, n_max + 1):
        lhs = lt[n - 1] + mt[n - 1] * pk1[n] / (cheb.coefficient(n + 1)[1] * pk1[n - 1])
        rhs = pk1[n + 2] / pk1[n + 1] - pk2[n + 2] / pk2[n + 1] - star[n + 1] / star[n]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_recover_order2_cross_ratio_two_routes(cheb):
    # the iterated-kernel value ratio inside beta_n equals the ratio of the
    # cross sums X_n = sum_j P_j(k3) P_j(k2) / N_j, summed here explicitly
    n_max = 5
    ctx = opx.KernelContext(cheb, 1j, n_max + 2)
    ictx = opx.IteratedKernelContext(ctx, -1j)
    pk2 = opx.eval_table(cheb, n_max, [1j])[:, 0]
    pk3 = opx.eval_table(cheb, n_max, [-1j])[:, 0]
    cross = np.cumsum(pk3 * pk2 / opx.norm_products(cheb, n_max))
    for n in range(1, n_max):
        from_star = ictx.star_values[n + 1] / ictx.star_values[n]
        lam2 = cheb.coefficient(n + 2)[1]
        from_cross = lam2 * (pk2[n] / pk2[n + 1]) * (cross[n + 1] / cross[n])
        assert abs(from_star - from_cross) <= 1e-12 * abs(from_star)


def test_recovery_identity_on_laguerre(lag, rng):
    n_max = 6
    xs = sample_points(lag, rng, 30)
    B = np.full(n_max, 0.3)
    for rc in (
        opx.recover_christoffel(lag, -1.0, -1.0, B, n_max), opx.recover_geronimus(lag, -1.0, -2.0, B, n_max)
    ):
        assert (suites.recovery_identity(rc, xs, n_max) <= 1e-8).all()


def test_uniqueness_sensitivity(cheb, rng):
    # perturbing one recovered coefficient must break the identity
    n_max = 5
    B = np.full(n_max, 0.3)
    rc = opx.recover_christoffel(cheb, 2.0, 3.0, B, n_max)
    xs = sample_points(cheb, rng, 30)
    perturbed = dataclasses.replace(rc, gamma=rc.gamma.copy(), eta=rc.eta.copy())
    perturbed.eta[3] += 1e-3
    p = opx.eval_table(cheb, 4, xs)[4]
    assert np.max(np.abs(opx.recovery_table(perturbed, 4, xs)[3] - p)) >= 1e-5
    perturbed2 = dataclasses.replace(rc, gamma=rc.gamma.copy(), eta=rc.eta.copy())
    perturbed2.gamma[3] += 1e-3
    assert np.max(np.abs(opx.recovery_table(perturbed2, 4, xs)[3] - p)) >= 1e-5


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
