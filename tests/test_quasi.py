import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opx
from opx import quasi, suites


def test_quasi_kernel_degenerate_mixing(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 6)
    for n in range(1, 6):
        assert opx.quasi_kernel(ctx, (1.0, 0.0), n, 0.3) == pytest.approx(
            opx.kernel_poly(ctx, n, 0.3), rel=1e-15
        )


def test_order1_moment_annihilation(cheb):
    # m = 0..n-2 for n = 3..9
    ctx = opx.KernelContext(cheb, 2.0, 10)
    stats = suites.moment_annihilation(ctx, (1.0, 0.7), range(3, 10))
    assert stats.size == 35 and (stats <= 1e-9).all()


def test_order1_moment_annihilation_random_mixing(cheb, lag, jac, rng):
    for fam in (cheb, lag, jac):
        k = 2.0 if fam.kind != "laguerre" else -1.0
        ctx = opx.KernelContext(fam, k, 11)
        a, b = rng.uniform(0.2, 2.0, 2)
        stats = suites.moment_annihilation(ctx, (float(a), float(b)), range(3, 11))
        assert stats.size == 44 and (stats <= 1e-9).all()


def test_order2_moment_annihilation(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)
    # m = 0..2 at n = 5
    stats = suites.moment_annihilation(ctx, (1.0, 0.3, 0.9), [5])
    assert stats.size == 3 and (stats <= 1e-9).all()


def test_per_degree_moment_annihilation(cheb, rng):
    # one coefficient row per degree: each Q_n keeps its own conditions
    ctx = opx.KernelContext(cheb, 2.0, 10)
    rows = rng.uniform(0.2, 2.0, (10, 3))
    stats = suites.moment_annihilation(ctx, rows, range(2, 10))
    assert stats.size == 28 and (stats <= 1e-9).all()


def test_moment_annihilation_fails_at_a_wrong_shift(cheb, monkeypatch):
    # kernel polynomials at k = 2.5 are not those L* at k = 2 annihilates
    ctx = opx.KernelContext(cheb, 2.0, 10)
    wrong = opx.KernelContext(cheb, 2.5, 10)
    table = opx.kernel_table
    monkeypatch.setattr(opx.kernels, "kernel_table", lambda _ctx, n, xs: table(wrong, n, xs))
    stats = suites.moment_annihilation(ctx, (1.0, 0.7), range(3, 10))
    assert stats.max() > 1e-6


def test_quasi_kernel_degrees(cheb):
    ctx = opx.KernelContext(cheb, 2.0, 8)

    def leading(xs, vals):
        table = np.array(vals, dtype=float)
        for level in range(1, len(xs)):
            table = (table[1:] - table[:-1]) / (xs[level:] - xs[:-level])
        return table[0]

    n = 5
    xs = np.linspace(-1.2, 1.2, n + 1)
    vals = [opx.quasi_kernel(ctx, (1.0, 0.7), n, x) for x in xs]
    assert leading(xs, vals) == pytest.approx(1.0, rel=1e-10)  # exact degree n
    # a zero leading coefficient drops the degree
    xs = np.linspace(-1.2, 1.2, n)
    vals = [opx.quasi_kernel(ctx, (0.0, 0.7), n, x) for x in xs]
    assert leading(xs, vals) == pytest.approx(0.7, rel=1e-10)  # degree n - 1 only


@pytest.mark.parametrize(
    "coeffs, n, match",
    [
        ((0.0, 0.0), 3, "no row all zero"),
        (np.array([[1.0, 0.5]] * 2 + [[0.0, 0.0]] * 2), 3, "no row all zero"),
        ((1.0, np.nan), 3, "must be finite"),
        ((1.0, 0.3, 0.9), 1, "order 2 need n >= 2"),
    ],
    ids=["zero", "zero-row-2", "nan", "order2-n1"],
)
def test_quasi_kernel_rejects(cheb, coeffs, n, match):
    ctx = opx.KernelContext(cheb, 2.0, 6)
    with pytest.raises(ValueError, match=match):
        opx.quasi_kernel(ctx, coeffs, n, 0.3)


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


def test_qk_constant_coefficients_are_orthogonal():
    # constant recurrences are shift-invariant: Q_n = Pk_n + 0.7 Pk_{n-1}
    # keeps lambda*, and only c~_0 = 0.2 - 0.7 moves
    cs = np.full(12, 0.2)
    ls = np.full(12, 0.9)
    report = quasi.orthogonality_conditions(cs, ls, [0.7], 8)
    assert report.satisfied
    assert report.violated_conditions == [] and report.first_violation is None
    assert report.recurrence_residual <= 1e-15
    # the certified rows 0..n_max-1 only
    assert report.tilde_c.shape == report.tilde_lambda.shape == (8,)
    assert np.allclose(report.tilde_lambda[2:], ls[2:8], rtol=1e-15, atol=0)
    assert np.allclose(report.tilde_c, [-0.5] + [0.2] * 7, rtol=1e-15, atol=0)


def test_qk_t_from_u_satisfies_the_recurrence_of_t():
    # monic T_n = U_n - U_{n-2}/4: alpha = (0, -1/4) on the monic U
    # recurrence (c* = 0, lambda* = 1/4); x T_1 = T_2 + T_0/2 needs l~_1 = 1/2
    n_max = 8
    report = quasi.orthogonality_conditions(np.zeros(12), np.full(12, 0.25), [0.0, -0.25], n_max)
    assert report.satisfied and report.recurrence_residual == 0.0
    assert report.tilde_lambda[1] == 0.5
    xs = np.linspace(-1.5, 1.5, 13)
    t = opx.eval_table(opx.chebyshev1(), n_max, xs)
    assert (xs * t[0] == t[1] + report.tilde_c[0] * t[0]).all()
    for n in range(1, n_max):
        terms = (xs * t[n], -t[n + 1], -report.tilde_c[n] * t[n], -report.tilde_lambda[n] * t[n - 1])
        assert (abs(sum(terms)) <= 1e-15 * sum(abs(v) for v in terms)).all()


@pytest.mark.parametrize(
    "cs, ls, alphas, first",
    [
        # l = 2 on a constant recurrence: l~_1 = lambda* - alpha_2 = 0
        (np.zeros(12), np.full(12, 0.5), [0.3, 0.5], (1, 0, "(i)")),
        # l = 1 with lambda*_n - c*_n = K and c*_n = n: l~_1 = K and
        # l~_n = lambda*_{n-1} for n >= 2, zero at n = 1 - K
        (np.arange(12.0), np.arange(12.0), [1.0], (1, 0, "(i)")),
        (np.arange(12.0), np.arange(12.0) - 1.0, [1.0], (2, 1, "(ii)")),
        (np.arange(12.0), np.arange(12.0) - 3.0, [1.0], (4, 3, "(ii)")),
    ],
    ids=["l2-row1", "l1-row1", "l1-row2", "l1-row4"],
)
def test_qk_vanishing_tilde_lambda_fails_in_its_row(cs, ls, alphas, first):
    # the rows are tridiagonal, so only the zero subdiagonal entry fails:
    # (i) in rows 1..l, (ii) beyond
    report = quasi.orthogonality_conditions(cs, ls, alphas, 8)
    assert report.recurrence_residual == 0.0 and report.tilde_lambda[first[0]] == 0.0
    assert not report.satisfied
    assert report.first_violation == first
    assert report.violated_conditions == [first[2]]


def _row_label(n: int, l: int) -> str:
    """The condition an entry below the subdiagonal of row n belongs to."""
    return "(iii)" if n <= l + 1 else "(ii)"


@st.composite
def mixed_sequences(draw):
    """(c*, lambda*, alphas, n_max) from pairs related by a finite mix:
    constant recurrences with l = 1 or 2, monic T from monic U, the
    engineered family with a random alpha_1, and two engineered steps at
    once, A = (I + s S)^2 on an arithmetic c* with lambda*_n = s c*_n + K,
    are orthogonal.  With l = 3 a constant recurrence is not: row 2 of
    A J A^-1 keeps -alpha_3 in column 0, and no l = 3 pair is known."""
    kind = draw(st.sampled_from(["constant", "t_from_u", "engineered", "engineered2"]))
    n_max = draw(st.integers(5, 10))
    signed = st.tuples(st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
    if kind == "t_from_u":
        return np.zeros(n_max + 1), np.full(n_max + 1, 0.25), [0.0, -0.25], n_max
    if kind == "engineered":
        alpha1 = draw(signed)
        return (*suites.engineered_coefficients(n_max + 1, alpha1), [alpha1], n_max)
    if kind == "engineered2":
        step, c0, dc = draw(signed), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 0.3))
        cs = c0 + dc * np.arange(n_max + 1)
        return cs, step * cs + 3.0, [2 * step, step * step], n_max
    c, lam = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 2.0))
    alphas = draw(st.lists(signed, min_size=1, max_size=3))
    return np.full(n_max + 1, c), np.full(n_max + 1, lam), alphas, n_max


def _scale(cs, ls) -> float:
    """The largest entry of J, at least 1 (lambda*_1 is not in J)."""
    return max(1.0, np.max(np.abs(cs)), np.max(np.abs(ls[1:])))


@settings(max_examples=100, deadline=None)
@given(mixed_sequences(), st.integers(2, 9), st.floats(0.25, 2.0))
def test_qk_verdict_is_favards(mixed, row, shift):
    cs, ls, alphas, n_max = mixed
    l, tol = len(alphas), 1e-8
    row = min(row, n_max - 1)
    perturbed = ls.copy()
    perturbed[row] += shift
    base = quasi.orthogonality_conditions(cs, ls, alphas, n_max, tol)
    report = quasi.orthogonality_conditions(cs, perturbed, alphas, n_max, tol)
    for lstar, r in ((ls, base), (perturbed, report)):
        nonzero = (abs(r.tilde_lambda[1:]) > tol * _scale(cs, lstar)).all()
        assert r.satisfied == (r.recurrence_residual <= tol and nonzero)
        assert r.satisfied == (r.first_violation is None) == (r.violated_conditions == [])
    if l == 3:
        assert "(iii)" in base.violated_conditions
        assert base.recurrence_residual == pytest.approx(abs(alphas[2]) / _scale(cs, ls), abs=1e-10)
        if row > 2:
            assert _row_label(row, l) in report.violated_conditions
        return
    # A^-1 grows like the largest root of 1 + alpha_1 z + alpha_2 z^2 to the
    # power n_max: up to 2.4^10 ulps here
    assert base.recurrence_residual <= 1e-11
    if base.satisfied and alphas[0] != 0.0:
        # lambda*_row moves entry (row, row-2) of A J A^-1 by -alpha_1 shift;
        # the rows above it stay as they were
        assert report.first_violation[::2] == (row, _row_label(row, l))


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
    assert not report.satisfied  # generic kernel coefficients
    assert report.violated_conditions == ["(ii)", "(iii)"]
    assert report.first_violation == (2, 0, "(iii)")


@pytest.mark.parametrize(
    "make_family, k, n_max",
    [(opx.chebyshev1, -2.0, 48), (lambda: opx.jacobi(0.3, 0.7), -2.0, 48), (lambda: opx.laguerre(0.5), -1.0, 10)],
    ids=["chebyshev1-n48", "jacobi-n48", "laguerre-n10"],
)
def test_qk_certifies_the_ops_as_quasi_type_in_their_own_kernels(make_family, k, n_max):
    # P_n = Pk_n + alpha_n Pk_{n-1} with alpha_n = -lambda_{n+1}/rho_n, one
    # alpha per degree: the criterion certifies P and reads off its own
    # recurrence, c~_n = c_{n+1} and l~_n = lambda_{n+1}.  Laguerre's alphas
    # grow like n, and past n = 10 the dense A J A^-1 loses the verdict
    fam = make_family()
    ctx = opx.KernelContext(fam, k, n_max)
    alphas = np.zeros((n_max + 1, 1))
    alphas[1:, 0] = -fam.table(n_max + 1)[1:, 1] / ctx.ratios[1 : n_max + 1]
    report = opx.qk_orthogonality_check(ctx, alphas, n_max)
    assert report.satisfied and report.recurrence_residual <= 1e-12
    c, lam = fam.table(n_max).T
    assert (abs(report.tilde_c - c) <= 1e-15 * np.maximum(1.0, abs(c))).all()
    assert (abs(report.tilde_lambda[1:] - lam[1:]) <= 1e-15 * lam[1:]).all()


def test_qk_reads_alpha_l_from_the_rows_that_reach_it():
    # alpha_l of row n multiplies Pk_{n-l}, so rows n < l may hold a zero
    # there; a zero in a later row is refused
    cs, ls = np.full(12, 0.2), np.full(12, 0.9)
    alphas = np.full((9, 1), 0.7)
    alphas[0] = 0.0
    assert quasi.orthogonality_conditions(cs, ls, alphas, 8).satisfied
    alphas[5] = 0.0
    with pytest.raises(opx.InvalidAlphas):
        quasi.orthogonality_conditions(cs, ls, alphas, 8)
