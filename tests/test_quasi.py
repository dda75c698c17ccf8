import numpy as np
import pytest

import opx
from opx import quasi, suites


def test_quasi_kernel_degenerate_mixing(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 6)
    spec = quasi.QuasiSpec(order=1, a=1.0, b=0.0)
    for n in range(0, 5):
        assert opx.quasi_kernel(ctx, spec, n, 0.3) == pytest.approx(
            opx.kernel_poly(ctx, n + 1, 0.3), rel=1e-15
        )


def test_order1_moment_annihilation(cheb):
    # m = 0..n-1 for n = 2..8
    ctx = opx.KernelContext(cheb, 2.0, 10)
    spec = quasi.QuasiSpec(order=1, a=1.0, b=0.7)
    stats = suites.moment_annihilation(ctx, spec, range(2, 9), suites.power_norms(cheb, 2.0, 7))
    assert stats.size == 35 and (stats <= 1e-9).all()


def test_order1_moment_annihilation_random_mixing(cheb, lag, jac, rng):
    for fam in (cheb, lag, jac):
        k = 2.0 if fam.kind != "laguerre" else -1.0
        ctx = opx.KernelContext(fam, k, 11)
        a, b = rng.uniform(0.2, 2.0, 2)
        spec = quasi.QuasiSpec(order=1, a=float(a), b=float(b))
        stats = suites.moment_annihilation(ctx, spec, range(2, 10), suites.power_norms(fam, k, 8))
        assert stats.size == 44 and (stats <= 1e-9).all()


def test_order2_moment_annihilation(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)
    spec = quasi.QuasiSpec(order=2, Ltilde=0.3, Mtilde=0.9)
    # m = 0..2 at n = 5
    stats = suites.moment_annihilation(ctx, spec, [5], suites.power_norms(cheb, 2.0, 2))
    assert stats.size == 3 and (stats <= 1e-9).all()


def test_quasi_kernel_degrees(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)

    def leading(xs, vals):
        table = np.array(vals, dtype=float)
        for level in range(1, len(xs)):
            table = (table[1:] - table[:-1]) / (xs[level:] - xs[:-level])
        return table[0]

    n = 4
    spec_full = quasi.QuasiSpec(order=1, a=1.0, b=0.7)
    xs = np.linspace(-1.2, 1.2, n + 2)
    vals = [opx.quasi_kernel(ctx, spec_full, n, x) for x in xs]
    assert leading(xs, vals) == pytest.approx(1.0, rel=1e-10)  # exact degree n+1
    spec_drop = quasi.QuasiSpec(order=1, a=0.0, b=0.7)
    xs = np.linspace(-1.2, 1.2, n + 1)
    vals = [opx.quasi_kernel(ctx, spec_drop, n, x) for x in xs]
    assert leading(xs, vals) == pytest.approx(0.7, rel=1e-10)  # degree n only


def test_quasi_spec_validation():
    with pytest.raises(ValueError):
        quasi.QuasiSpec(order=1, a=0.0, b=0.0)
    with pytest.raises(ValueError):
        quasi.QuasiSpec(order=3)


def test_difference_equation_residual_b_zero(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)
    for x in (0.3, -0.6):
        _, proof = quasi.difference_equation_residual(ctx, 0.0, 3, x)
        assert proof <= 1e-12


@pytest.mark.parametrize("n", [0, -1, [3, 0]])
def test_difference_equation_residual_needs_n_at_least_one(cheb, n):
    # J_n reads lambda*_n and c*_n, which start at n = 1
    ctx = opx.KernelContext(cheb, 2.0, 8)
    with pytest.raises(ValueError, match="n >= 1"):
        quasi.difference_equation_residual(ctx, 0.3, n, 0.4)


def test_difference_equation_proof_form(cheb, rng):
    # n = 1..10 for each b, 5 points each
    ctx = opx.KernelContext(cheb, 2.0, 14)
    stated, proof = suites.difference_equation(ctx, rng, 13)
    assert proof.shape == (4, 10, 5) and (proof <= 1e-9).all()
    assert np.isfinite(stated).all()  # reported, not asserted


def test_difference_equation_stated_form_recorded(cheb):
    # the two index conventions genuinely differ away from b = 0; record the
    # gap without asserting a magnitude
    ctx = opx.KernelContext(cheb, 2.0, 8)
    stated, proof = quasi.difference_equation_residual(ctx, 0.3, 3, 0.4)
    assert np.isfinite(stated) and proof <= 1e-12


@pytest.mark.parametrize("make_family, k", [
    (opx.chebyshev1, 2.0),
    (lambda: opx.laguerre(0.5), -1.0),
    (lambda: opx.jacobi(0.3, 0.7), -2.0),
])
def test_relative_difference_equation_residual_separates_the_forms(make_family, k, rng):
    # both residuals are relative to their own terms: the derived form sits
    # at rounding on every family, the stated form stays far above 1e-9
    # n = 1..7 for each b, 5 points each
    ctx = opx.KernelContext(make_family(), k, 14)
    stated, proof = suites.difference_equation(ctx, rng, 10)
    assert proof.shape == (4, 7, 5) and (proof <= 1e-9).all()
    assert stated.max() > 1e-9


def test_qk_invalid_alphas(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)
    with pytest.raises(opx.InvalidAlphas):
        opx.qk_orthogonality_check(ctx, [0.0], 5)


def test_qk_constant_coefficients_flags_ii():
    cs = np.full(12, 0.2)
    ls = np.full(12, 0.9)
    report = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    assert not report.satisfied
    assert "(ii)" in report.violated_conditions


def test_qk_engineered_family_satisfied():
    cs, ls = suites.engineered_coefficients(12)
    report = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    assert report.satisfied
    assert report.violated_conditions == []
    assert report.recurrence_residual <= 1e-8


def test_qk_verdict_does_not_depend_on_the_mass():
    # lambda*_1 = mu0 enters no condition: scaling the functional leaves
    # the verdict and the recurrence residual as they are
    cs, ls = suites.engineered_coefficients(12)
    before = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    ls[0] = 1e8
    report = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    assert report.satisfied
    assert report.violated_conditions == []
    assert report.recurrence_residual == before.recurrence_residual


@pytest.mark.parametrize("n_max", [8, 24, 32, 48])
def test_qk_engineered_recurrence_residual_at_rounding(n_max):
    # Q is orthogonal by construction, so A J A^-1 is tridiagonal up to
    # rounding at every degree
    report = quasi.orthogonality_conditions(*suites.engineered_coefficients(n_max + 4), [0.7], n_max)
    assert report.satisfied
    assert report.recurrence_residual <= 1e-14


def test_qk_engineered_tilde_lambda_matches_fit():
    # x Q_n = Q_{n+1} + c~_n Q_n + l~_n Q_{n-1} pointwise, with Pk evaluated
    # from its own recurrence and Q_n = Pk_n + alpha1 Pk_{n-1}
    alpha1 = 0.7
    cs, ls = suites.engineered_coefficients(12, alpha1=alpha1)
    report = quasi.orthogonality_conditions(cs, ls, [alpha1], 8)
    xs = np.linspace(-1.0, 4.0, 11)
    pk = opx.eval_table(opx.custom_family(np.stack([cs, ls], axis=1), (-1.0, 1.0)), 9, xs)
    q = pk.copy()
    q[1:] += alpha1 * pk[:-1]
    for n in range(1, 8):
        terms = (xs * q[n], -q[n + 1], -report.tilde_c[n] * q[n], -report.tilde_lambda[n] * q[n - 1])
        scale = sum(abs(t) for t in terms)
        assert (abs(sum(terms)) <= 1e-12 * scale).all()
        assert report.tilde_lambda[n] == pytest.approx(
            ls[n] + alpha1 * (cs[n - 1] - cs[n]), rel=1e-13
        )
    assert np.allclose(xs * q[0], q[1] + report.tilde_c[0] * q[0], rtol=1e-12, atol=0)


def test_qk_broken_equality_fails_gram():
    cs = np.array([0.2 + 0.35 * n for n in range(12)])
    ls = np.full(12, 0.9)
    report = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    assert not report.satisfied
    assert report.recurrence_residual > 1e-3


def test_qk_on_kernel_context(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 10)
    report = opx.qk_orthogonality_check(ctx, [0.5], 6)
    assert not report.satisfied  # generic kernel coefficients violate (ii)
    assert report.violated_conditions
