import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opx
from opx.moments import (
    Base,
    Christoffel,
    Geronimus,
    Uvarov,
    apply_functional,
    cauchy_mass,
    gauss_rule,
    integrate_until_stable,
    moment_sequence,
    orthogonality_residual,
)


def test_one_point_rule_is_mean_and_mass(cheb):
    rule = gauss_rule(cheb, 1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(math.pi, rel=1e-14)


def test_two_point_chebyshev_rule(cheb):
    rule = gauss_rule(cheb, 2)
    # eigenvalues of [[0, sqrt(1/2)], [sqrt(1/2), 0]], i.e. the Gauss nodes
    # cos(pi/4), cos(3 pi/4)
    assert_allclose(sorted(rule.nodes), [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-14)
    assert_allclose(rule.weights, [math.pi / 2, math.pi / 2], rtol=1e-13)
    assert_allclose(rule.nodes, [math.cos(3 * math.pi / 4), math.cos(math.pi / 4)], atol=1e-14)


def test_two_point_laguerre_rule():
    rule = gauss_rule(opx.laguerre(0.0), 2)
    assert_allclose(sorted(rule.nodes), [2 - math.sqrt(2.0), 2 + math.sqrt(2.0)], rtol=1e-13)
    # moment exactness through degree 3
    ref = moment_sequence(opx.laguerre(0.0), 3)
    for j in range(4):
        quad = float(np.sum(rule.weights * rule.nodes**j))
        assert quad == pytest.approx(ref[j], rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_rule_invariants(cheb, lag, jac, m):
    for fam in (cheb, lag, jac):
        rule = gauss_rule(fam, m)
        assert np.sum(rule.weights) == pytest.approx(fam.mu0, rel=1e-12)
        assert np.all(np.diff(rule.nodes) > 0)
        lo, hi = fam.support
        assert np.all(rule.nodes >= lo - 1e-12) and np.all(rule.nodes <= hi + 1e-12)


@pytest.mark.parametrize("m", [3, 6, 11])
def test_quadrature_exactness_against_moment_recurrence(cheb, lag, jac, m):
    for fam in (cheb, lag, jac):
        rule = gauss_rule(fam, m)
        ref = moment_sequence(fam, 2 * m - 1)
        for j in range(2 * m):
            quad = float(np.sum(rule.weights * rule.nodes**j))
            assert abs(quad - ref[j]) <= 1e-10 * max(1.0, abs(ref[j]))


def test_not_positive_definite():
    fam = opx.custom_family([(0.0, 1.0 if n < 3 else -0.5) for n in range(1, 9)], (-1.0, 1.0))
    with pytest.raises(opx.NotPositiveDefinite):
        gauss_rule(fam, 4)


def test_apply_base_examples(cheb, lag, jac):
    for fam in (cheb, lag, jac):
        assert apply_functional(fam, Base(), lambda xs: np.ones_like(xs), 0) == pytest.approx(
            fam.mu0, rel=1e-13
        )
    c1c2 = lambda xs: opx.eval_table(cheb, 2, xs)[1] * opx.eval_table(cheb, 2, xs)[2]
    assert abs(apply_functional(cheb, Base(), c1c2, 3)) < 1e-13
    c1sq = lambda xs: opx.eval_table(cheb, 1, xs)[1] ** 2
    assert apply_functional(cheb, Base(), c1sq, 2) == pytest.approx(math.pi / 2, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_functional_linearity(alpha, beta, seed):
    fam = opx.chebyshev1()
    rng = np.random.default_rng(seed)
    pc = rng.uniform(-1, 1, 11)
    qc = rng.uniform(-1, 1, 11)
    p = lambda xs: np.polynomial.polynomial.polyval(xs, pc)
    q = lambda xs: np.polynomial.polynomial.polyval(xs, qc)
    combo = lambda xs: alpha * p(xs) + beta * q(xs)
    for kind in (Base(), Christoffel(2.0), Uvarov(2.0, 0.3), Geronimus(2.0, 1.0)):
        lhs = apply_functional(fam, kind, combo, 10)
        rhs = alpha * apply_functional(fam, kind, p, 10) + beta * apply_functional(fam, kind, q, 10)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


def test_christoffel_consistency_bit_equal(cheb):
    # both sides routed через the same rule order share every operation
    k = 2.0
    pc = np.array([0.3, -1.2, 0.5, 0.25])
    p = lambda xs: np.polynomial.polynomial.polyval(xs, pc)
    shifted = lambda xs: (xs - k) * p(xs)
    lhs = apply_functional(cheb, Christoffel(k), p, 3)
    rhs = apply_functional(cheb, Base(), shifted, 4)
    assert lhs == rhs


def test_geronimus_functional_definition(cheb):
    # against an independent fine rule applied to the defining split
    k, mass0 = 2.0, 0.7
    pc = np.array([1.0, 2.0, -0.5, 0.125, 0.0625])
    p = lambda xs: np.polynomial.polynomial.polyval(xs, pc)
    got = apply_functional(cheb, Geronimus(k, mass0), p, 4)
    rule = gauss_rule(cheb, 64)
    pk = p(np.array([k]))[0]
    ref = float(np.sum(rule.weights * (p(rule.nodes) - pk) / (rule.nodes - k))) + pk * mass0
    assert got == pytest.approx(ref, rel=1e-12)


def test_geronimus_shift_inside_support(cheb):
    with pytest.raises(opx.ShiftInsideSupport):
        apply_functional(cheb, Geronimus(0.25, 1.0), lambda xs: xs, 1)


def test_uvarov_point_mass(cheb):
    got = apply_functional(cheb, Uvarov(2.0, 0.5), lambda xs: xs**2, 2)
    base = apply_functional(cheb, Base(), lambda xs: xs**2, 2)
    assert got == pytest.approx(base + 0.5 * 4.0, rel=1e-13)


def test_orthogonality_residual_base(cheb):
    gram = orthogonality_residual(cheb, Base(), lambda xs: opx.eval_table(cheb, 5, xs), 5)
    off = np.max(np.abs(gram - np.diag(np.diag(gram))))
    assert off <= 1e-12
    assert_allclose(np.abs(np.diag(gram)), 1.0, rtol=1e-12)


def test_orthogonality_residual_kernel_polys(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 7)
    gram = orthogonality_residual(cheb, Christoffel(2.0), lambda xs: opx.kernel_table(ctx, 5, xs), 5)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-10


def test_orthogonality_residual_uvarov_polys(lag):
    ud = opx.uvarov_data(lag, -1.0, 0.3, 5)
    gram = orthogonality_residual(lag, Uvarov(-1.0, 0.3), lambda xs: opx.uvarov_table(ud, 5, xs), 5)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-9


def test_cauchy_mass_single_signed(cheb):
    # exact value of L(1/(2 - x)) for the Chebyshev weight is pi / sqrt(3)
    assert cauchy_mass(cheb, 2.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-12)


def test_integral_cancelling_to_zero_stops_at_roundoff_floor(cheb):
    # odd integrand on a symmetric weight: the value is 0 up to roundoff, so
    # no relative test can pass and only the L1 floor stops the doubling
    orders = []

    def odd(xs):
        orders.append(xs.size)
        return xs / (4.0 - xs**2)

    value = integrate_until_stable(cheb, odd)
    assert max(orders) <= 64
    assert abs(value) <= 1e-14


@pytest.mark.parametrize(
    "make_family, jump, message",
    [(opx.chebyshev1, 0.5, "reached the cap"), (lambda: opx.jacobi(0.3, 0.7), 0.3, "diverges")],
    ids=["chebyshev1-cap", "jacobi-growth"],
)
def test_integrand_that_never_settles_raises(make_family, jump, message):
    # a jump inside the support: the error decays like 1/m on Chebyshev-1
    # until the cap, and jumps about on Jacobi as nodes cross the step
    with pytest.raises(opx.NonConvergent, match=message):
        integrate_until_stable(make_family(), lambda xs: np.sign(xs - jump), max_order=256)


def test_laguerre_geronimus_gram_entry_against_mpmath():
    # Gram entry (6, 5) of the Laguerre(0.5) Geronimus sequence at k = -1;
    # with the solved mass the functional is L(p / (x - k)), which mpmath
    # integrates at 40 digits for the same polynomials (same A_n)
    mp = pytest.importorskip("mpmath")
    gamma, k = 0.5, -1.0
    fam = opx.laguerre(gamma)
    data = opx.geronimus_data(fam, k, 6)
    kind = Geronimus(k, data.mass0)

    def oracle(i, j):
        def product(xs):
            return opx.geronimus_poly(data, i, xs) * opx.geronimus_poly(data, j, xs)

        return apply_functional(fam, kind, product, i + j)

    mp.mp.dps = 40
    g = mp.mpf(gamma)

    def monic(n, x):
        # x P_m = P_{m+1} + (2m + 1 + gamma) P_m + m (m + gamma) P_{m-1}
        p_prev, p = mp.mpf(0), mp.mpf(1)
        for m in range(n):
            p_prev, p = p, (x - (2 * m + 1 + g)) * p - m * (m + g) * p_prev
        return p

    def transformed(n, x):
        return monic(n, x) + mp.mpf(data.A[n]) * monic(n - 1, x)

    def reference(i, j):
        return mp.quad(
            lambda x: transformed(i, x) * transformed(j, x) / (x - k) * x**g * mp.exp(-x),
            [0, 1, 5, 20, 60, mp.inf],
        )

    scale = float(mp.sqrt(reference(6, 6) * reference(5, 5)))
    assert abs(oracle(6, 5) - float(reference(6, 5))) <= 1e-11 * scale
