import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opx
from opx import moments, ratios
from conftest import sample_points


# ---------------------------------------------------------------------------
# confluent identity and ratio limits
# ---------------------------------------------------------------------------


def test_confluent_cd_degree_zero(cheb, lag):
    for fam in (cheb, lag):
        lhs, rhs = opx.confluent_cd(fam, 0, 0.7)
        assert lhs == pytest.approx(1.0 / fam.mu0, rel=1e-14)
        assert rhs == pytest.approx(1.0 / fam.mu0, rel=1e-14)


def test_confluent_cd_chebyshev(cheb):
    lhs, rhs = opx.confluent_cd(cheb, 4, 0.3)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_confluent_cd_laguerre(lag):
    fam = opx.laguerre(0.5)
    lhs, rhs = opx.confluent_cd(fam, 6, 2.0)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_confluent_cd_all_families(cheb, lag, jac, rng):
    for fam in (cheb, lag, jac):
        for n in range(0, 11):
            for x in sample_points(fam, rng, 5):
                lhs, rhs = opx.confluent_cd(fam, n, x)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_lambda_products_match_quadrature_norms(cheb, lag, jac):
    for fam in (cheb, lag, jac):
        norms = opx.norm_products(fam, 10)
        for j in range(11):
            direct = moments.apply_functional(
                fam, moments.Base(), lambda xs, j=j: opx.eval_table(fam, j, xs)[j] ** 2, 2 * j
            )
            assert abs(direct - norms[j]) <= 1e-10 * abs(norms[j])


def test_kernel_ratio_reciprocal(cheb, lag, jac):
    for fam, k in ((cheb, 3.0), (lag, -1.0), (jac, -2.0)):
        ctx = opx.KernelContext(fam, k, 22)
        for n in range(0, 21):
            r_up, r_down = opx.kernel_ratio_limit(ctx, n)
            assert abs(r_up * r_down - 1.0) <= 1e-12


def test_kernel_ratio_matches_cd_branch(cheb):
    ctx = opx.KernelContext(cheb, 1.0, 12)
    for n in range(0, 10):
        r_up, _ = opx.kernel_ratio_limit(ctx, n)
        direct = opx.kernel_poly(ctx, n + 1, 1.0) / opx.kernel_poly(ctx, n, 1.0)
        assert r_up == pytest.approx(direct, rel=1e-9)


def test_kernel_ratio_monotone_and_bounded(cheb):
    ctx = opx.KernelContext(cheb, 1.0, 42)
    values = [opx.kernel_ratio_limit(ctx, n)[0] for n in range(0, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0.5 for v in values)


def test_kernel_ratio_large_n_stability(cheb):
    ctx = opx.KernelContext(cheb, 1.0, 1001)
    r_up, r_down = opx.kernel_ratio_limit(ctx, 1000)
    assert abs(r_up * r_down - 1.0) <= 1e-12
    assert np.isfinite(r_up)


def test_kernel_ratio_limit_index_out_of_range(cheb):
    # the context caches n = 0..n_max+2; P_{-1} has no ratio
    ctx = opx.KernelContext(cheb, 1.0, 10)
    for n in (-1, -2, 13):
        with pytest.raises(ValueError):
            opx.kernel_ratio_limit(ctx, n)
    with pytest.raises(ValueError):
        opx.kernel_ratio_limits(ctx, 13)


# ---------------------------------------------------------------------------
# continued fractions vs series oracles
# ---------------------------------------------------------------------------


def test_gauss_cf_at_zero(cheb):
    assert ratios.gauss_cf_ratio(0.5, 1.5, 2.5, 0.0) == 1.0


def test_gauss_cf_p_minus_one():
    q, r, z = 1.3, 2.1, 0.4
    # F(0,q;r;z) = 1 and F(-1,q;r;z) = 1 - q z / r
    assert ratios.gauss_cf_ratio(-1.0, q, r, z, depth=1) == pytest.approx(
        1.0 / (1.0 - q * z / r), rel=1e-14
    )


def test_gauss_cf_vs_series_nonterminating():
    cf = ratios.gauss_cf_ratio(0.5, 1.5, 2.5, 0.3, depth=60)
    series = ratios.hyp_series("2F1", (1.5, 1.5, 2.5), 0.3, 200) / ratios.hyp_series(
        "2F1", (0.5, 1.5, 2.5), 0.3, 200
    )
    assert cf == pytest.approx(series, rel=1e-12)


def test_kummer_cf_at_zero():
    assert ratios.kummer_cf_ratio(0.7, 1.3, 0.0) == 1.0


def test_kummer_cf_leading_coefficients():
    # d_1 = 1/r and d_2 = -(p+1)/((r+1) r)
    from opx.ratios import _kummer_d

    p, r = 0.7, 1.9
    d = _kummer_d(p, r, 2)  # d_1, d_2
    assert d[0] == pytest.approx(1.0 / r)
    assert d[1] == pytest.approx(-(p + 1.0) / ((r + 1.0) * r))


def test_kummer_cf_terminating():
    cf = ratios.kummer_cf_ratio(-3.0, 1.5, -0.7, depth=40)
    series = ratios.hyp_series("1F1", (-2.0, 1.5), -0.7) / ratios.hyp_series(
        "1F1", (-3.0, 1.5), -0.7
    )
    assert cf == pytest.approx(series, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    q=st.floats(0.3, 3.0),
    r=st.floats(0.4, 3.5),
    z=st.floats(-0.5, 0.5),
)
def test_gauss_cf_vs_series_property(n, q, r, z):
    den = ratios.hyp_series("2F1", (-n, q, r), z)
    if abs(den) < 1e-3:  # oracle cannot certify near its own zero
        return
    cf = ratios.gauss_cf_ratio(-n, q, r, z, depth=60)
    series = ratios.hyp_series("2F1", (-n + 1, q, r), z) / den
    assert cf == pytest.approx(series, rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), r=st.floats(0.4, 3.5), z=st.floats(-1.5, 1.5))
def test_kummer_cf_vs_series_property(n, r, z):
    den = ratios.hyp_series("1F1", (-n, r), z)
    if abs(den) < 1e-3:
        return
    cf = ratios.kummer_cf_ratio(-n, r, z, depth=60)
    series = ratios.hyp_series("1F1", (-n + 1, r), z) / den
    assert cf == pytest.approx(series, rel=1e-10, abs=1e-10)


def test_cf_zero_denominator_rescue():
    # coefficients 2, 1, 0, 0, ... at z = 1: the inner step gives the exact
    # denominator 1 - 1/1 = 0, the tiny floor carries it through, and the
    # true value 1/(1 - 2/0) = 0 comes out
    b = -np.array([2.0, 1.0] + [0.0] * 20)
    assert abs(ratios.evaluate_cf(b, 1.0, 12)) < 1e-200


def test_cf_top_level_zero_denominator():
    # 1/(1 - z/1) at z = 1 vanishes at the top level with no tail to rescue
    b = -np.array([1.0] + [0.0] * 15)
    with pytest.raises(opx.ZeroDenominator):
        ratios.evaluate_cf(b, 1.0, 6)


def test_cf_nonconvergent():
    with pytest.raises(opx.NonConvergent):
        ratios.evaluate_cf(-np.ones(18), 0.9, 8)


@pytest.mark.parametrize("depth", [0, -3, -20])
def test_cf_depth_below_one_is_rejected(depth):
    with pytest.raises(opx.ParameterOutOfRange, match="depth must be >= 1"):
        ratios.evaluate_cf(np.zeros(30), 0.5, depth)
    with pytest.raises(opx.ParameterOutOfRange, match="depth must be >= 1"):
        ratios.gauss_cf_ratio(0.5, 1.5, 2.5, 0.3, depth)
    with pytest.raises(opx.ParameterOutOfRange, match="depth must be >= 1"):
        ratios.laguerre_mixed_cf(0.5, 4, 1.2, depth)


def test_cf_needs_depth_plus_ten_numerators():
    with pytest.raises(ValueError, match="need 18 partial numerators, got 17"):
        ratios.evaluate_cf(np.zeros(17), 0.5, 8)


# values recorded before the partial numerators became arrays; the array
# builders keep every formula's operation order, so they match bit for bit
@pytest.mark.parametrize(
    "name, args, expected",
    [
        ("gauss_cf_ratio", (0.5, 1.5, 2.5, 0.3), 1.2359958601461203),
        ("gauss_cf_ratio", (-4.0, 1.3, 2.1, 0.45, 30), 1.2729402894579802),
        ("kummer_cf_ratio", (-3.0, 1.5, -0.7, 40), 0.7323996971990917),
        ("kummer_cf_ratio", (0.7, 1.9, 0.8), 1.4976894095894837),
        (
            "laguerre_ratio_cf",
            (0.5, 4, 1.2),
            (0.7275665663724183, 0.016319780245846696, 0.0013227513227513227),
        ),
        ("laguerre_mixed_cf", (0.5, 4, 1.2), 0.48629666717438624),
        ("laguerre_mixed_cf", (2.0, 7, 0.6, 25), 0.7142170537656204),
        ("jacobi_ratio_cf", (0.3, 0.7, 3, 0.4), (-0.8148688046647222, 2.8332233794167205)),
    ],
)
def test_cf_entry_points_return_recorded_floats(name, args, expected):
    value = getattr(ratios, name)(*args)
    assert value == expected
    for v in value if isinstance(value, tuple) else (value,):
        assert type(v) is float


# ---------------------------------------------------------------------------
# Laguerre and Jacobi specializations
# ---------------------------------------------------------------------------


def test_laguerre_cf_at_zero():
    cf, same, mixed = ratios.laguerre_ratio_cf(0.5, 4, 0.0)
    assert cf == 1.0
    assert np.isfinite(same) and np.isfinite(mixed)


def test_laguerre_dtilde_second_coefficient():
    # dt_2 = (n-1)/((gamma+2)(gamma+3))
    from opx.ratios import _kummer_d

    gamma, n = 0.5, 4
    assert _kummer_d(-float(n), gamma + 2.0, 2)[1] == pytest.approx(
        (n - 1.0) / ((gamma + 2.0) * (gamma + 3.0))
    )


def test_laguerre_cf_vs_terminating_series():
    gamma, n, x = 0.5, 4, 1.2
    cf, _, _ = ratios.laguerre_ratio_cf(gamma, n, x, depth=60)
    series = ratios.hyp_series("1F1", (-n + 1, gamma + 2.0), -x) / ratios.hyp_series(
        "1F1", (-n, gamma + 2.0), -x
    )
    assert cf == pytest.approx(series, rel=1e-11)


def test_laguerre_prefactor_discrepancy_logged(capsys):
    # the normalization constants are compared against directly computed
    # kernel ratios and the multiplicative gap is reported, not asserted
    gamma, n, x = 0.5, 4, 1.2
    cf, same, mixed = ratios.laguerre_ratio_cf(gamma, n, x, depth=60)
    fam = opx.laguerre(gamma)
    ctx = opx.KernelContext(fam, 0.0, n + 2)
    direct = opx.kernel_poly(ctx, n - 1, x) / opx.kernel_poly(ctx, n, x)
    factor = direct / (same * cf)
    print(f"laguerre same-parameter prefactor multiplicative gap (n={n}): {factor:.6e}")
    assert np.isfinite(factor) and factor != 0.0


def test_laguerre_mixed_cf_follows_printed_signs():
    value = ratios.laguerre_mixed_cf(0.5, 4, 1.2, depth=60)
    assert np.isfinite(value)
    mixed_series = ratios.hyp_series("1F1", (-3.0, 2.5), -1.2) / ratios.hyp_series(
        "1F1", (-4.0, 1.5), -1.2
    )
    factor = mixed_series / value
    print(f"laguerre mixed CF vs mixed series ratio factor: {factor:.6e}")
    assert np.isfinite(factor)


def test_laguerre_parameter_domain():
    with pytest.raises(opx.ParameterOutOfRange):
        ratios.laguerre_ratio_cf(-1.5, 3, 1.0)
    _, _, mixed = ratios.laguerre_ratio_cf(-0.5, 3, 1.0)
    assert math.isnan(mixed)  # mixed form needs gamma > 0


@pytest.mark.parametrize("n", [0, -2])
def test_laguerre_mixed_cf_needs_n_at_least_one(n):
    # like laguerre_ratio_cf: no polynomial ratio has degree n < 1
    with pytest.raises(opx.ParameterOutOfRange, match="n must be >= 1"):
        ratios.laguerre_mixed_cf(0.5, n, 1.2)
    with pytest.raises(opx.ParameterOutOfRange, match="n must be >= 1"):
        ratios.laguerre_ratio_cf(0.5, n, 1.2)


def test_jacobi_cf_at_one():
    cf, pref = ratios.jacobi_ratio_cf(0.3, 0.7, 3, 1.0)
    assert cf == 1.0
    assert pref > 0


def test_jacobi_e1_coefficient():
    # e_1 = (n + gamma + delta + 1)/(gamma + 2) via the g table
    from opx.ratios import _gauss_g

    gamma, delta, n = 0.3, 0.7, 3
    g = _gauss_g(-float(n), n + gamma + delta + 1.0, gamma + 2.0, 1)
    assert g[0] == 0.0
    assert g[1] == pytest.approx((n + gamma + delta + 1.0) / (gamma + 2.0))


def test_jacobi_cf_vs_terminating_series():
    gamma, delta, n, x = 0.3, 0.7, 3, 0.4
    cf, _ = ratios.jacobi_ratio_cf(gamma, delta, n, x, depth=60)
    u = (1.0 - x) / 2.0
    series = ratios.hyp_series("2F1", (-n + 1, n + gamma + delta + 1.0, gamma + 2.0), u) / (
        ratios.hyp_series("2F1", (-n, n + gamma + delta + 1.0, gamma + 2.0), u)
    )
    assert cf == pytest.approx(series, rel=1e-11)


def test_jacobi_prefactor_discrepancy_logged():
    gamma, delta, n, x = 0.3, 0.7, 3, 0.4
    cf, pref = ratios.jacobi_ratio_cf(gamma, delta, n, x, depth=60)
    upper = opx.KernelContext(opx.jacobi(gamma, delta), 1.0, n + 2)
    lower = opx.KernelContext(opx.jacobi(gamma, delta - 1.0), 1.0, n + 2)
    direct = opx.kernel_poly(upper, n - 1, x) / opx.kernel_poly(lower, n, x)
    factor = direct / (pref * cf)
    print(f"jacobi prefactor multiplicative gap (n={n}): {factor:.6e}")
    assert np.isfinite(factor) and factor != 0.0


def test_jacobi_parameter_domain():
    with pytest.raises(opx.ParameterOutOfRange):
        ratios.jacobi_ratio_cf(0.3, -0.2, 3, 0.5)
    with pytest.raises(opx.ParameterOutOfRange):
        ratios.jacobi_ratio_cf(0.3, 0.7, 3, -1.5)


# ---------------------------------------------------------------------------
# hypergeometric series
# ---------------------------------------------------------------------------


def test_hyp_series_at_zero():
    assert ratios.hyp_series("2F1", (0.7, 1.1, 2.3), 0.0) == 1.0


def test_hyp_series_terminating_examples():
    q, r, z = 1.7, 2.9, 0.45
    assert ratios.hyp_series("2F1", (-1.0, q, r), z) == pytest.approx(1.0 - q * z / r, rel=1e-15)
    z = 0.8
    assert ratios.hyp_series("1F1", (-2.0, 1.0), z) == pytest.approx(
        1.0 - 2.0 * z + z**2 / 2.0, rel=1e-14
    )


def test_hyp_series_divergence():
    with pytest.raises(opx.Divergent):
        ratios.hyp_series("2F1", (0.7, 1.1, 2.3), 1.2)
    # terminating numerator parameter makes |z| >= 1 legal
    assert np.isfinite(ratios.hyp_series("2F1", (-3.0, 1.1, 2.3), 1.2))


# ---------------------------------------------------------------------------
# chain sequences
# ---------------------------------------------------------------------------


def test_chain_quarter_sequence():
    seq = opx.chain_params(lambda n: 0.25, 100)
    closed = np.array([n / (2.0 * (n + 1.0)) for n in range(101)])
    assert np.max(np.abs(seq.m - closed)) <= 1e-14
    assert seq.positive
    assert seq.m[0] == 0.0


def test_chain_complementary():
    seq = opx.chain_params([0.3] * 20)
    assert np.allclose(seq.complementary.l, 0.7)
    # complementary minimal parameters from the same recurrence
    m = [0.0]
    for n in range(1, 21):
        m.append(0.7 / (1.0 - m[-1]))
    assert np.allclose(seq.complementary.m, m)


def test_chain_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        opx.chain_params([1.0, 0.3])


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.05, 2.0),
    q_extra=st.floats(0.0, 1.0),
    r_extra=st.floats(0.05, 1.5),
)
def test_g_table_yields_positive_chain(p, q_extra, r_extra):
    # 0 < p <= q < r makes l_j = (1 - g_{j-1}) g_j a positive chain sequence
    from opx.ratios import _gauss_g

    q = p + q_extra
    r = q + r_extra
    g = _gauss_g(p, q, r, 50)
    l = (1.0 - g[:-1]) * g[1:]
    seq = opx.chain_params(l)
    assert seq.positive


def test_chain_callable_requires_n_max():
    with pytest.raises(ValueError):
        opx.chain_params(lambda n: 0.25)
