import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import opx
from opx import moments
from conftest import sample_points


def test_chebyshev_recurrence_values(cheb):
    pairs = opx.recurrence_coefficients(cheb, 3)
    assert_allclose(pairs[:, 0], 0.0)
    assert pairs[0, 1] == pytest.approx(math.pi, rel=1e-15)
    assert pairs[1, 1] == 0.5
    assert pairs[2, 1] == 0.25


def test_chebyshev_mass_matches_direct_integration(cheb):
    # midpoint rule on the substituted integral of (1-x^2)^(-1/2), x = cos t
    t = (np.arange(200000) + 0.5) * (math.pi / 200000)
    mass = float(np.sum(np.ones_like(t)) * (math.pi / 200000))
    assert cheb.mu0 == pytest.approx(mass, rel=1e-12)


def test_laguerre_lambda_and_c_values():
    fam = opx.laguerre(1.0)
    assert fam.coefficient(2)[1] == pytest.approx(2.0)  # 1 * (1 + gamma)
    fam0 = opx.laguerre(0.0)
    assert fam0.coefficient(1)[0] == pytest.approx(1.0)
    assert fam0.coefficient(2)[0] == pytest.approx(3.0)


@pytest.mark.parametrize("make", [
    lambda: opx.laguerre(-1.0),
    lambda: opx.laguerre(-1.5),
    lambda: opx.jacobi(-1.0, 0.5),
    lambda: opx.jacobi(0.5, -2.0),
])
def test_parameter_out_of_range(make):
    with pytest.raises(opx.ParameterOutOfRange):
        make()


@pytest.mark.parametrize("fam_name", ["lag0", "jac", "cheb"])
def test_orthogonality_gate_for_standard_coefficients(fam_name):
    # the diagonal recurrence values not fixed by closed-form sources are
    # accepted only because the quadrature oracle certifies orthogonality
    fam = {"lag0": opx.laguerre(0.0), "jac": opx.jacobi(0.25, 1.3), "cheb": opx.chebyshev1()}[fam_name]
    gram = moments.orthogonality_residual(fam, moments.Base(), lambda xs: opx.eval_table(fam, 6, xs), 6)
    off = np.max(np.abs(gram - np.diag(np.diag(gram))))
    assert off < 1e-12


def test_eval_sequence_chebyshev_values(cheb):
    seq = opx.eval_sequence(cheb, 2, 0.5)
    assert_allclose(seq.values, [1.0, 0.5, -0.25], atol=1e-15)


def test_eval_sequence_degree_zero(cheb, lag):
    for fam in (cheb, lag):
        assert opx.eval_sequence(fam, 0, 0.37).values.tolist() == [1.0]


def test_eval_sequence_derivatives(cheb):
    seq = opx.eval_sequence(cheb, 3, 1.0, with_derivs=True)
    assert seq.derivs[2] == pytest.approx(2.0, rel=1e-14)  # d/dx (x^2 - 1/2) at 1


def test_poly_sequence_invariants(cheb, lag, jac, rng):
    for fam in (cheb, lag, jac):
        for x in sample_points(fam, rng, 5):
            seq = opx.eval_sequence(fam, 6, x, with_derivs=True)
            assert seq.values[0] == 1.0
            assert seq.values[1] == pytest.approx(x - fam.coefficient(1)[0], rel=1e-15)
            # differentiated recurrence holds for the returned derivatives
            for n in range(1, 5):
                c_next, lam_next = fam.coefficient(n + 1)
                lhs = seq.derivs[n + 1]
                rhs = seq.values[n] + (x - c_next) * seq.derivs[n] - lam_next * seq.derivs[n - 1]
                assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_ttrr_residual(cheb, lag, jac, rng):
    for fam in (cheb, lag, jac):
        for x in sample_points(fam, rng, 10):
            seq = opx.eval_sequence(fam, 12, x)
            for n in range(1, 11):
                c_next, lam_next = fam.coefficient(n + 1)
                res = x * seq.values[n] - seq.values[n + 1] - c_next * seq.values[n] - lam_next * seq.values[n - 1]
                assert abs(res) <= 1e-12 * max(1.0, abs(seq.values[n + 1]))


def test_derivatives_match_finite_differences(cheb, lag, rng):
    h = 1e-6
    for fam in (cheb, lag):
        for x in sample_points(fam, rng, 5):
            seq = opx.eval_sequence(fam, 8, x, with_derivs=True)
            up = opx.eval_sequence(fam, 8, x + h).values
            dn = opx.eval_sequence(fam, 8, x - h).values
            fd = (up - dn) / (2.0 * h)
            for n in range(1, 9):
                assert seq.derivs[n] == pytest.approx(fd[n], rel=1e-6, abs=1e-9)


def test_chebyshev_trigonometric_closed_form(cheb, rng):
    # oracle independent of the recurrence: monic values are 2^(1-n) cos(n t)
    thetas = rng.uniform(0.0, math.pi, 50)
    for theta in thetas:
        seq = opx.eval_sequence(cheb, 12, math.cos(theta))
        for n in range(1, 13):
            assert seq.values[n] == pytest.approx(
                2.0 ** (1 - n) * math.cos(n * theta), abs=1e-12
            )


def _leading_coefficient(xs, vals):
    # n-th divided difference over n+1 points equals the leading coefficient
    table = np.array(vals, dtype=float)
    for level in range(1, len(xs)):
        table = (table[1:] - table[:-1]) / (xs[level:] - xs[:-level])
    return table[0]


@pytest.mark.parametrize("n", [1, 3, 7, 15])
def test_monic_leading_coefficient_by_interpolation(cheb, lag, n):
    for fam, width in ((cheb, 1.0), (lag, 10.0)):
        mid = 0.5 * sum(fam.support) if np.isfinite(fam.support[1]) else width
        xs = mid + width * np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        vals = opx.eval_table(fam, n, xs)[n]
        assert _leading_coefficient(xs, vals) == pytest.approx(1.0, rel=1e-8)


def test_monic_coefficient_table_matches_eval(cheb):
    pairs = [cheb.coefficient(n) for n in range(1, 8)]
    polys = opx.monic_coefficient_table(pairs, 6)
    xs = np.linspace(-1, 1, 9)
    table = opx.eval_table(cheb, 6, xs)
    for n, poly in enumerate(polys):
        assert_allclose(np.polynomial.polynomial.polyval(xs, poly), table[n], atol=1e-13)
        assert poly[-1] == 1.0  # monic


def test_complex_evaluation(cheb):
    seq = opx.eval_sequence(cheb, 4, 1j)
    direct = 1j * seq.values[1] - 0.5 * seq.values[0]
    assert seq.values[2] == pytest.approx(direct)


def test_custom_family_provider_roundtrip(cheb):
    fam = opx.custom_family(cheb.table(5), (-1.0, 1.0))
    assert fam.mu0 == pytest.approx(math.pi)
    xs = np.linspace(-1, 1, 5)
    assert_allclose(opx.eval_table(fam, 5, xs), opx.eval_table(cheb, 5, xs))


def test_recurrence_coefficients_validates_n_max(cheb):
    with pytest.raises(ValueError):
        opx.recurrence_coefficients(cheb, 0)


def test_coefficient_table_grows_only_to_the_index_asked_for(cheb):
    asked = []

    def provider(ms):
        asked.append(ms.tolist())
        return cheb.table(ms[-1])[ms - 1]

    fam = opx.FamilySpec("custom", provider, (-1.0, 1.0), math.pi)
    assert asked == []  # building a family fetches nothing
    opx.eval_table(fam, 4, [0.3])
    assert asked == [[1, 2, 3, 4]]  # P_0..P_4 need c_1..c_4, lambda_2..lambda_4
    opx.eval_table(fam, 2, [0.3])
    assert fam.coefficient(3) == cheb.coefficient(3)
    assert asked == [[1, 2, 3, 4]]  # memoised
    opx.norm_products(fam, 5)
    # grows to the index asked for, no further, in one call per growth
    assert asked == [[1, 2, 3, 4], [5, 6]]
    with pytest.raises(ValueError):
        fam.table(6)[0, 0] = 1.0  # slices are read-only views


def test_coefficient_table_dtype_follows_the_provider():
    # an int-valued provider or table still gives a float table
    ints = opx.FamilySpec("custom", lambda ms: np.array([(m, 2) for m in ms.tolist()]), (-1.0, 1.0), 2)
    for table in (ints.table(3), opx.custom_family([(1, 2), (2, 2), (3, 2)], (-1.0, 1.0)).table(3)):
        assert table.dtype == np.float64
        assert table.tolist() == [[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]]
    # a complex provider gives a complex table, and so does growing a real
    # table with complex rows
    def complex_c(ms):  # real rows up to n = 2, complex ones from n = 3
        return np.array([(0.5j if m > 2 else 0.0, 1.0) for m in ms.tolist()])

    cplx = opx.FamilySpec("custom", complex_c, (-1.0, 1.0), 1.0)
    assert cplx.table(2).dtype == np.float64
    assert cplx.table(4).dtype == np.complex128
    assert cplx.table(4)[:, 0].tolist() == [0.0, 0.0, 0.5j, 0.5j]


def test_finite_table_stops_at_its_last_row(cheb):
    fam = opx.custom_family(cheb.table(4), (-1.0, 1.0))
    assert fam.mu0 == math.pi and type(fam.mu0) is float  # lambda_1 by default
    assert_allclose(opx.eval_table(fam, 4, [0.3]), opx.eval_table(cheb, 4, [0.3]), rtol=0, atol=0)
    with pytest.raises(opx.TableTooShort, match="defines n up to 4, needed 5"):
        opx.eval_table(fam, 5, [0.3])
    with pytest.raises(ValueError):
        fam.table(4)[0, 0] = 1.0  # the given table is frozen
    for bad in ([], [1.0, 2.0], [(1.0, 2.0, 3.0)]):
        with pytest.raises(ValueError):
            opx.custom_family(bad, (-1.0, 1.0))


# the exact pairs (c_n, lambda_n); lambda_1 is the mass mu0, so None
def _exact_chebyshev1(n):
    return 0, {1: None, 2: Fraction(1, 2)}.get(n, Fraction(1, 4))


def _exact_laguerre(gamma):
    g = Fraction(gamma)
    return lambda n: (2 * (n - 1) + g + 1, (n - 1) * (n - 1 + g) if n > 1 else None)


def _exact_jacobi(gamma, delta):
    g, d = Fraction(gamma), Fraction(delta)
    s = g + d

    def pair(n):
        if n == 1:
            return (d - g) / (s + 2), None
        if n == 2:
            return (d - g) * (d + g) / ((s + 2) * (s + 4)), 4 * (1 + g) * (1 + d) / ((s + 2) ** 2 * (s + 3))
        m = n - 1
        c = (d - g) * (d + g) / ((2 * m + s) * (2 * m + s + 2))
        lam = 4 * m * (m + g) * (m + d) * (m + s) / ((2 * m + s) ** 2 * (2 * m + s + 1) * (2 * m + s - 1))
        return c, lam

    return pair


EXACT_TABLES = {
    "chebyshev1": (opx.chebyshev1, _exact_chebyshev1),
    **{f"laguerre{g}": (lambda g=g: opx.laguerre(g), _exact_laguerre(g)) for g in (0.0, 0.5, 2.0)},
    **{
        f"jacobi{g},{d}": (lambda g=g, d=d: opx.jacobi(g, d), _exact_jacobi(g, d))
        for g, d in ((0.0, 0.0), (-0.5, -0.5), (0.3, 0.7), (1.5, 2.2))
    },
}


@pytest.mark.parametrize("make_family, exact", EXACT_TABLES.values(), ids=EXACT_TABLES.keys())
def test_builtin_tables_match_their_closed_forms_exactly(make_family, exact):
    # the docstring closed forms in exact rational arithmetic, at the double
    # parameters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = make_family()
        table = fam.table(19999)
    assert np.isfinite(table).all()
    assert table[0, 1] == fam.mu0
    for n in [*range(1, 61), 1000, 4003, 19999]:
        for got, want in zip(table[n - 1].tolist(), exact(n)):
            if want is None:
                continue
            if want == 0:
                assert got == 0, n
            else:
                assert abs(Fraction(got) - want) <= Fraction(2e-15) * abs(want), n
