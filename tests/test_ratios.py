import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opx
from opx import moments, ratios, suites
from conftest import sample_points
from oracles import exact_series_ratio, gauss_numerators, kummer_d_list


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
        # degree n = 0..10 at its own 5 points, xs[n]
        assert (suites.confluent_cd_identity(fam, sample_points(fam, rng, (11, 5))) <= 1e-10).all()


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
    value = ratios.evaluate_cf(b, 1.0, 12)
    assert abs(value) < 1e-200
    # numpy scalars, whose division by zero would not raise, are taken as
    # Python floats
    assert ratios.evaluate_cf(list(b), np.float64(1.0), 12) == value


def test_cf_top_level_zero_denominator():
    # 1/(1 - z/1) at z = 1 vanishes at the top level with no tail to rescue
    b = -np.array([1.0] + [0.0] * 15)
    with pytest.raises(opx.ZeroDenominator):
        ratios.evaluate_cf(b, 1.0, 6)


@settings(max_examples=15, deadline=None)
@given(y=st.one_of(st.floats(-2.0, -0.5), st.floats(allow_nan=False, allow_infinity=False)))
@example(y=-1.0)
@example(y=math.nextafter(-1.0, 0.0))
@example(y=math.nextafter(-1.0, -2.0))
@example(y=-5e-324)
def test_a_tail_is_zero_or_at_least_two_to_the_minus_53(y):
    # every backward step leaves a tail 1.0 + y: exact on [-2, -1/2] by
    # Sterbenz's lemma, at least 1/2 from 0 off it, so it can fall below the
    # tiny floor only by being an exact zero, which the division reports
    tail = 1.0 + y
    assert tail == 0.0 or abs(tail) >= 2.0**-53
    if -2.0 <= y <= -0.5:
        assert Fraction(tail) == 1 + Fraction(y)


@pytest.mark.parametrize(
    "call",
    [
        lambda e: ratios.gauss_cf_ratio(e, 1.0, 2.0, e),
        lambda e: ratios.kummer_cf_ratio(e, 2.0, e),
        lambda e: ratios.evaluate_cf(np.zeros((0, 20)), e, 10),
    ],
    ids=["gauss_cf_ratio", "kummer_cf_ratio", "evaluate_cf"],
)
def test_cf_calls_on_no_rows_return_an_empty_array(call):
    # as hyp_series does
    empty = np.array([])
    for value in (call(empty), ratios.hyp_series("2F1", (empty, 1.0, 2.0), empty)):
        assert value.dtype == np.float64 and value.shape == (0,)


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
        ratios.laguerre_ratio_cf(0.5, 4, 1.2, depth)


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
        ("jacobi_ratio_cf", (0.3, 0.7, 3, 0.4), (-0.8148688046647222, 2.8332233794167205)),
    ],
)
def test_cf_entry_points_return_recorded_floats(name, args, expected):
    value = getattr(ratios, name)(*args)
    assert value == expected
    for v in value if isinstance(value, tuple) else (value,):
        assert type(v) is float


# ---------------------------------------------------------------------------
# termination at the first zero numerator, against the untruncated passes
# ---------------------------------------------------------------------------


def _untruncated_cf(b, z, depth, rtol=1e-13):
    """The fraction as both backward passes over every numerator give it,
    b_depth..b_1 and b_{depth+10}..b_1, running through any zero: what
    ``evaluate_cf`` computed before it stopped at a first zero."""

    def backward(coeffs):
        tail = 1.0
        for b_j in reversed(coeffs):
            if abs(tail) < 1e-300:
                tail = math.copysign(1e-300, tail if tail != 0.0 else 1.0)
            tail = 1.0 + b_j * z / tail
        if abs(tail) < 1e-300:
            raise opx.ZeroDenominator("continued fraction denominator vanished at the top level")
        return 1.0 / tail

    b = [float(v) for v in b[: depth + 10]]
    assert len(b) == depth + 10
    v1, v2 = backward(b[:depth]), backward(b)
    if abs(v1 - v2) > rtol * max(1.0, abs(v2)):
        raise opx.NonConvergent(f"depth {depth} and {depth + 10} disagree: {v1} vs {v2}")
    return v2


def _outcome(fn, *args):
    """A call's value as exact bits, or its error type and message."""
    try:
        value = fn(*args)
    except opx.OpxError as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in np.atleast_1d(value)]


def _fraction_cases(n, depth):
    """(call, full numerators, variable) of each scalar fraction at degree n;
    the first zero numerator sits at j = 2n (at 2n+1 for the q-terminating
    Gauss fraction)."""
    m = depth + 10
    p = -float(n)
    gamma, delta, x = 0.4, 0.9, 0.35
    u = (1.0 - x) / 2.0
    return [
        (lambda: ratios.gauss_cf_ratio(p, 1.3, 2.1, 0.45, depth), ratios._gauss_table(p, 1.3, 2.1, m), 0.45),
        (lambda: ratios.gauss_cf_ratio(0.6, p, 1.7, -0.8, depth), ratios._gauss_table(0.6, p, 1.7, m), -0.8),
        (lambda: ratios.kummer_cf_ratio(p, 1.5, -0.7, depth), -ratios._kummer_d(p, 1.5, m), -0.7),
        (
            lambda: ratios.laguerre_ratio_cf(gamma, n, 1.2, depth)[0],
            ratios._kummer_d(p, gamma + 2.0, m),
            1.2,
        ),
        (
            lambda: ratios.jacobi_ratio_cf(gamma, delta, n, x, depth)[0],
            ratios._gauss_table(p, n + gamma + delta + 1.0, gamma + 2.0, m),
            u,
        ),
    ]


# with the zero at j0 = 2n (or 2n+1): j0 < depth, j0 = depth, j0 = depth+1,
# depth+1 < j0 <= depth+10 and j0 > depth+10
@pytest.mark.parametrize(
    "n, depth", [(1, 10), (3, 10), (5, 10), (6, 10), (9, 10), (10, 10), (20, 10), (2, 1), (30, 60), (40, 60)]
)
def test_terminating_fractions_match_the_untruncated_passes(n, depth):
    for call, b, z in _fraction_cases(n, depth):
        assert _outcome(call) == _outcome(_untruncated_cf, b, z, depth)


@pytest.mark.parametrize("depth", [1, 8, 30])
def test_nonterminating_fractions_match_the_untruncated_passes(depth):
    m = depth + 10
    cases = [
        (lambda: ratios.gauss_cf_ratio(0.5, 1.5, 2.5, 0.3, depth), ratios._gauss_table(0.5, 1.5, 2.5, m), 0.3),
        (lambda: ratios.gauss_cf_ratio(0.0, 1.7, 3.0, 0.6, depth), ratios._gauss_table(0.0, 1.7, 3.0, m), 0.6),
        (lambda: ratios.kummer_cf_ratio(0.7, 1.9, 0.8, depth), -ratios._kummer_d(0.7, 1.9, m), 0.8),
    ]
    for call, b, z in cases:
        assert _outcome(call) == _outcome(_untruncated_cf, b, z, depth)


@pytest.mark.parametrize(
    "b, z, depth",
    [
        # tiny-floor rescue below the zero (test_cf_zero_denominator_rescue)
        (-np.array([2.0, 1.0] + [0.0] * 20), 1.0, 12),
        (-np.array([2.0, 1.0] + [0.0] * 20), 1.0, 2),
        (-np.array([2.0, 1.0] + [0.0] * 20), 1.0, 1),
        # a vanishing top-level denominator, with the zero inside and
        # beyond the depth
        (-np.array([1.0] + [0.0] * 15), 1.0, 6),
        (-np.array([1.0, 0.5, 0.5, 0.0] + [0.3] * 10), 1.0, 2),
        # disagreeing passes: no zero, and a zero between depth and depth+10
        (-np.ones(18), 0.9, 8),
        (np.array([-1.0] * 12 + [0.0] + [-1.0] * 5), 0.9, 8),
        # zeros at both signs, and a zero after a rescued tail
        (np.array([0.5, -0.0, 2.0] + [1.0] * 12), -0.4, 5),
        (np.array([0.3, -1.0, 1.0, 0.0, 7.0] + [-1.0] * 10), 1.0, 5),
    ],
)
def test_evaluate_cf_matches_the_untruncated_passes(b, z, depth):
    assert _outcome(ratios.evaluate_cf, b, z, depth) == _outcome(_untruncated_cf, b, z, depth)
    # the same numerators cut after their first zero give the same outcome
    stop = next((j for j, v in enumerate(b) if v == 0.0), None)
    if stop is not None:
        cut = b[: stop + 1].tolist()
        assert _outcome(ratios.evaluate_cf, cut, z, depth) == _outcome(_untruncated_cf, b, z, depth)


def _batch_outcome_expected(b, z, depth):
    expected = [_outcome(_untruncated_cf, row, z_i, depth) for row, z_i in zip(b, z.tolist())]
    assert all(isinstance(v, list) for v in expected)  # the array pass stands
    return [v for (v,) in expected]


def test_batch_rows_with_different_first_zeros_match_the_untruncated_passes(rng):
    depth = 12
    z = rng.uniform(-0.9, 0.9, 5)
    # every row ends within b_1..b_{depth+1}, so both passes agree exactly
    # and every step below the deepest zero shows in the values
    b = rng.uniform(-1.0, 1.0, (5, depth + 10))
    b[0, 3] = 0.0
    b[1, 12] = 0.0  # at depth+1: the deepest, where the loop starts
    b[2, [5, 9]] = 0.0  # two zeros, the first counts
    b[3, 0] = 0.0  # the fraction is 1
    b[4, 10] = 0.0
    assert _outcome(ratios.evaluate_cf, b, z, depth) == _batch_outcome_expected(b, z, depth)
    # a row without a zero runs every column; small numerators converge
    b = rng.uniform(-0.05, 0.05, (5, depth + 10))
    b[0, 3] = 0.0
    b[1, 17] = 0.0  # between depth and depth+10
    b[2, [5, 9]] = 0.0
    assert _outcome(ratios.evaluate_cf, b, z, depth) == _batch_outcome_expected(b, z, depth)


# ---------------------------------------------------------------------------
# scalar fractions against numerators built one index at a time
# ---------------------------------------------------------------------------


def _gauss_by_index(p, q, r, z, depth):
    """``gauss_cf_ratio`` on numerators built one index at a time and
    evaluated by ``evaluate_cf``'s list path."""
    return ratios.evaluate_cf(gauss_numerators(p, q, r, depth + 10), z, depth)


def _kummer_by_index(p, r, z, depth):
    return ratios.evaluate_cf([-d_j for d_j in kummer_d_list(p, r, depth + 10)], z, depth)


_near_integers = st.integers(-6, 0).flatmap(
    lambda n: st.sampled_from([math.nextafter(n, -7.0), math.nextafter(n, 1.0), n - 2.0**-40, n + 1e-9])
)
_cf_numbers = st.one_of(
    st.integers(-40, 0).map(float), st.floats(-6.0, 6.0), _near_integers, st.floats(0.01, 40.0)
)
_cf_variables = st.one_of(
    st.floats(-0.99, 0.99), st.floats(-60.0, 60.0), st.sampled_from([math.nan, math.inf, -math.inf, 1e200])
)
_cf_depths = st.sampled_from([1, 2, 5, 10, 20, 60])
_cf_shifts = st.one_of(st.just(0), st.integers(1, 30))


def _is_nonpositive_integer(v):
    return v <= 0.0 and v.is_integer()


@settings(max_examples=300, deadline=None)
@given(p=_cf_numbers, q=_cf_numbers, r=_cf_numbers, z=_cf_variables, depth=_cf_depths, shift=_cf_shifts)
# an accidental zero: q = r + k - 1 makes g_{2k-1} = 1, so b_{2k} = 0
@example(p=0.3, q=4.5, r=2.5, z=0.5, depth=10, shift=0)
@example(p=-20.0, q=4.5, r=2.5, z=40.0, depth=10, shift=0)
# the same at b_2, with numerators past it whose products overflow: a pass
# through the zero would carry a NaN tail into the value
@example(p=-2e29, q=3.5, r=3.5, z=7e281, depth=10, shift=0)
# ending past depth, where both passes run
@example(p=-8.0, q=1.3, r=2.1, z=0.45, depth=10, shift=0)
# p and q both nonpositive integers: the earlier zero, b_5 or b_6, wins
@example(p=-5.0, q=-2.0, r=1.7, z=3.0, depth=20, shift=0)
@example(p=-3.0, q=-4.0, r=1.7, z=3.0, depth=20, shift=0)
# r within rounding of a nonpositive integer
@example(p=-3.0, q=1.0, r=math.nextafter(-2.0, -3.0), z=0.5, depth=60, shift=0)
@example(p=0.5, q=1.0, r=math.nextafter(-2.0, 0.0), z=0.5, depth=60, shift=0)
# a variable that is not finite, and a subnormal r
@example(p=-3.0, q=1.0, r=2.0, z=math.nan, depth=60, shift=0)
@example(p=-3.0, q=1.0, r=2.0, z=-math.inf, depth=60, shift=0)
@example(p=0.5, q=1.0, r=5e-324, z=0.5, depth=60, shift=0)
def test_scalar_gauss_fractions_match_numerators_built_by_index(p, q, r, z, depth, shift):
    if shift:  # an accidental zero at b_{2 shift}
        q = r + shift - 1
    terminating = _is_nonpositive_integer(p) or _is_nonpositive_integer(q)
    if _is_nonpositive_integer(r) or not (terminating or abs(z) < 1.0):
        return  # refused before any numerator is formed
    assert _outcome(ratios.gauss_cf_ratio, p, q, r, z, depth) == _outcome(_gauss_by_index, p, q, r, z, depth)
    # the Jacobi fraction: the Gauss fraction at (-n, n + gamma + delta + 1;
    # gamma + 2) in (1 - x)/2, for x in (-1, 1]
    gamma, delta, n, x = abs(r) % 3.0, 0.7, int(abs(p)) % 40 + 1, math.tanh(z)
    if -1.0 < x:
        expected = _outcome(_gauss_by_index, -float(n), n + gamma + delta + 1.0, gamma + 2.0, (1.0 - x) / 2.0, depth)
        assert _outcome(lambda: ratios.jacobi_ratio_cf(gamma, delta, n, x, depth)[0]) == expected


@settings(max_examples=300, deadline=None)
@given(p=_cf_numbers, r=_cf_numbers, z=_cf_variables, depth=_cf_depths, shift=_cf_shifts)
# an accidental zero: p = r + k - 2 makes d_{2k-1} = 0
@example(p=1.5, r=1.5, z=0.9, depth=20, shift=0)
@example(p=2.5, r=1.5, z=-60.0, depth=10, shift=0)
# ending past depth, where both passes run
@example(p=-8.0, r=1.5, z=-0.7, depth=10, shift=0)
# r within rounding of a nonpositive integer
@example(p=-3.0, r=math.nextafter(-1.0, 0.0), z=0.5, depth=60, shift=0)
# a variable that is not finite, and a subnormal r
@example(p=-3.0, r=1.5, z=math.inf, depth=60, shift=0)
@example(p=-3.0, r=1.5, z=math.nan, depth=60, shift=0)
@example(p=0.5, r=5e-324, z=0.5, depth=60, shift=0)
def test_scalar_kummer_fractions_match_numerators_built_by_index(p, r, z, depth, shift):
    if shift:  # an accidental zero at d_{2 shift + 1}
        p = r + shift - 1
    if _is_nonpositive_integer(r):
        return  # refused before any numerator is formed
    assert _outcome(ratios.kummer_cf_ratio, p, r, z, depth) == _outcome(_kummer_by_index, p, r, z, depth)
    # the Laguerre fraction is the plus-signed d-fraction at p = -n, r = gamma + 2
    gamma, n = abs(r) % 3.0 - 0.5, int(abs(p)) % 40 + 1
    expected = _outcome(ratios.evaluate_cf, kummer_d_list(-float(n), gamma + 2.0, depth + 10), z, depth)
    assert _outcome(lambda: ratios.laguerre_ratio_cf(gamma, n, z, depth)[0]) == expected


@pytest.mark.parametrize("b", [[0.5, 0.25], [0.5, 0.0, 0.25], [0.0, 0.0]])
def test_cf_short_numerators_must_end_at_their_first_zero(b):
    with pytest.raises(ValueError, match="need 11 partial numerators"):
        ratios.evaluate_cf(b, 0.5, 1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_cf_numerators_that_are_not_finite_are_rejected(value):
    b = [0.5, 0.25, value] + [0.1] * 10
    message = rf"^partial numerator b_3 = {value} is not finite$"
    with pytest.raises(opx.ParameterOutOfRange, match=message):
        ratios.evaluate_cf(b, 0.5, 3)
    with pytest.raises(opx.ParameterOutOfRange, match=message):
        ratios.evaluate_cf(np.array([b]), np.array([0.5]), 3)
    # a numerator past the first zero is never read
    b[1] = 0.0
    assert ratios.evaluate_cf(b, 0.5, 3) == 0.8
    assert ratios.evaluate_cf(np.array([b]), np.array([0.5]), 3).tolist() == [0.8]


# r within rounding of a nonpositive integer: a denominator formed as
# (r + 2k) - c would round to zero at r = 1e-17 ((r + 2) - 2) and at
# r = nextafter(-1, 0) ((r + 4) - 3), where r + (2k - c) stays off zero
NEAR_POLES = [
    ("gauss_cf_ratio", (0.5, 1.0, 1e-17, 0.5), 60),
    ("gauss_cf_ratio", (-3.0, 1.0, 1e-17, 0.5), 20),
    ("kummer_cf_ratio", (-3.0, math.nextafter(-1.0, 0.0), 0.5), 20),
    ("gauss_cf_ratio", (0.5, 1.0, math.nextafter(-2.0, -3.0), 0.5), 60),
]


def _rows_after_a_regular_one(args):
    """The row ``args`` as the second row of an array call whose first row
    has r = 2.5."""
    rows = [np.array([v, v]) for v in args]
    rows[-2][0] = 2.5
    return rows


@pytest.mark.parametrize("name, args, depth", NEAR_POLES)
def test_r_near_a_nonpositive_integer_has_its_value(name, args, depth):
    fraction = getattr(ratios, name)
    p, *params, z = args
    if p == -3.0:  # terminating: the exact oracle
        expected = exact_series_ratio(3, params, z)
    else:
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            series = mp.hyp2f1 if name == "gauss_cf_ratio" else mp.hyp1f1
            expected = float(series(p + 1, *params, z) / series(p, *params, z))
    value = fraction(*args, depth)
    assert abs(value - expected) <= 1e-15 * abs(expected)
    assert _outcome(fraction, *(np.array([v]) for v in args), depth) == [value.hex()]
    assert _outcome(fraction, *_rows_after_a_regular_one(args), depth)[1] == value.hex()


def test_a_ratio_near_zero_is_good_to_an_absolute_bound():
    # the fractions' depth test is 1e-13 max(1, |v|), absolute below |v| = 1,
    # and so is the accuracy they state: at r = nextafter(-2, -3) the Gauss
    # ratio is 2.07e-15, and the fraction gives 2.22e-15, 7% off
    r = math.nextafter(-2.0, -3.0)
    exact = exact_series_ratio(3, (1.0, r), 0.5)
    for value in (ratios.gauss_cf_ratio(-3.0, 1.0, r, 0.5), *ratios.gauss_cf_ratio(-3.0, 1.0, r, np.array([0.5]))):
        assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize(
    "fraction, args",
    [(ratios.gauss_cf_ratio, (0.5, 1.0, r, 0.5)) for r in (0.0, -1.0, -2.0)]
    + [(ratios.kummer_cf_ratio, (-3.0, r, 0.5)) for r in (0.0, -1.0, -2.0, -3.0)],
)
def test_nonpositive_integer_r_is_rejected(fraction, args):
    message = f"r must avoid nonpositive integers, got {args[-2]}"
    assert _outcome(fraction, *args) == (opx.ParameterOutOfRange, message)
    assert _outcome(fraction, *_rows_after_a_regular_one(args)) == (opx.ParameterOutOfRange, message)


def test_subnormal_r_overflows_the_first_numerator():
    # at r = nextafter(0, 1) = 2^-1074 the ratio is finite, but g_1 = q/r and
    # d_1 = 1/r pass the double range, so neither fraction can be formed
    r = math.nextafter(0.0, 1.0)
    expected = (opx.ParameterOutOfRange, "partial numerator b_1 = -inf is not finite")
    for fraction, args in ((ratios.gauss_cf_ratio, (0.5, 1.0, r, 0.5)), (ratios.kummer_cf_ratio, (0.5, r, 0.5))):
        assert _outcome(fraction, *args) == expected
        assert _outcome(fraction, *_rows_after_a_regular_one(args)) == expected


@pytest.mark.parametrize("depth", [1, 20, 60, 200])
def test_scalar_kummer_at_noninteger_p_matches_its_array_call(depth):
    # p = r = 1.5 makes d_3 = 0, so that fraction ends early on both paths;
    # at depth 1 only the smallest z converges
    cases = [(0.7, 1.9, 0.8), (2.5, 0.6, -1.3), (-2.5, 3.2, 1.7), (1.5, 1.5, 0.9), (0.7, 1.9, 1e-15)]
    outcomes = []
    for p, r, z in cases:
        outcomes.append(_outcome(ratios.kummer_cf_ratio, p, r, z, depth))
        assert outcomes[-1] == _outcome(ratios.kummer_cf_ratio, p, r, np.array([z]), depth)
    assert any(isinstance(v, list) for v in outcomes)


# the worst Gauss draws of ``verify --suite ratios`` at seed 2075610794
# (laguerre 0.5) and 780977054 (every family) under a guard of |den| >= 1e-3
# alone: the float series ratios were 1.4e-10 and 1.3e-10 off, past the
# 1e-10 gate, where the fraction is right
ILL_CONDITIONED_DRAWS = [
    (11, 3.1601351693288637, 0.7274928017852982, 0.5119381478708435),
    (11, 3.3351364228331426, 1.187293327795539, 0.5963939053069652),
]


@pytest.mark.parametrize("n, q, r, z", ILL_CONDITIONED_DRAWS)
def test_ill_conditioned_gauss_draws_against_mpmath(n, q, r, z):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        exact = float(mp.hyp2f1(-n + 1, q, r, z) / mp.hyp2f1(-n, q, r, z))
    assert abs(ratios.gauss_cf_ratio(-float(n), q, r, z) - exact) <= 1e-13 * max(1.0, abs(exact))
    # neither series form certifies such a draw (Pfaff's bounds are 4.0e-10
    # and 1.3e-10 of max(1, |s|) here), so the suite's round skips it
    draw = [np.array([v]) for v in (n, q, r, z)]
    assert suites._gauss_series(*draw)[1].tolist() == [False]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fractions_meet_the_gate_at_unguarded_draws(seed):
    # blocks of 200 draws from the suite's ranges with no guard, the draws
    # the first series form cannot certify among them: both fractions are
    # within 1e-10 of the exact ratio, every series ratio the suite
    # certifies is within its 1e-11, and at every draw each series form is
    # within its rounding bound, at the c the suite uses
    rng = np.random.default_rng(seed)
    for kind, lo, hi in (("2F1", (0.2, 0.3, -0.6), (4.0, 4.0, 0.6)), ("1F1", (0.3, -2.0), (4.0, 2.0))):
        n = rng.integers(1, 12, 200)
        *params, z = rng.uniform(lo, hi, (200, len(lo))).T
        exact = np.array([exact_series_ratio(*row) for row in zip(n.tolist(), zip(*params), z)])
        if kind == "2F1":
            cf, (series, certified) = ratios.gauss_cf_ratio(-n, *params, z), suites._gauss_series(n, *params, z)
        else:
            cf, (series, certified) = ratios.kummer_cf_ratio(-n, *params, z), suites._kummer_series(n, *params, z)
        assert (suites.relative_gap(cf - exact, exact) <= 1e-10).all()
        assert (suites.relative_gap(series - exact, exact)[certified] <= 1e-11).all()
        num, den, mags = suites._stacked_series(kind, suites._form_stacks(n, params, z))
        s, bound = suites._ratio_bound(n, num, den, mags, suites._FIRST_C)
        assert not suites._certifies(den, s, bound).all()
        assert (np.abs(s - exact) <= bound).all()
        if kind == "2F1":
            # Pfaff's form, F(-n, q; r; z) = (1 - z)^n F(-n, r - q; r; z / (z - 1))
            q, r = params
            num, den, mags = suites._stacked_series(kind, suites._form_stacks(n, (r - q, r), z / (z - 1.0)))
            t, bound = suites._ratio_bound(n, num, den, mags, suites._PFAFF_C)
            s = t / (1.0 - z)
            assert (np.abs(s - exact) <= bound / np.abs(1.0 - z) + 2.0**-52 * np.abs(s)).all()


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


def test_laguerre_parameter_domain():
    # NaN fails the range test too, not only gamma <= -1
    for gamma in (-1.5, math.nan):
        with pytest.raises(opx.ParameterOutOfRange):
            ratios.laguerre_ratio_cf(gamma, 3, 1.0)
    _, _, mixed = ratios.laguerre_ratio_cf(-0.5, 3, 1.0)
    assert math.isnan(mixed)  # mixed form needs gamma > 0


@pytest.mark.parametrize("n", [0, -2])
def test_laguerre_ratio_cf_needs_n_at_least_one(n):
    # no polynomial ratio has degree n < 1
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
    for gamma, delta in ((0.3, -0.2), (math.nan, 0.7), (0.3, math.nan)):
        with pytest.raises(opx.ParameterOutOfRange):
            ratios.jacobi_ratio_cf(gamma, delta, 3, 0.5)
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


@pytest.mark.parametrize("z", [-1e5, 1e5])
def test_hyp_series_terms_that_overflow_are_rejected(z):
    # the terms pass the float range before the zero term at m = 151, where
    # inf * 0 gave NaN, or inf - inf in the sum
    with pytest.raises(opx.ParameterOutOfRange, match="1F1 terms overflow the float range"):
        ratios.hyp_series("1F1", (-150, 0.5), z)
    # an array call names the same row, and the other rows do not mask it
    with pytest.raises(opx.ParameterOutOfRange, match="overflow"):
        ratios.hyp_series("1F1", (np.array([-3.0, -150.0]), 0.5), np.array([1.0, z]))


def test_a_sum_past_the_float_range_is_rejected():
    # 2F1(-n, n + 60; 0.5; -0.999) has positive terms, each finite, whose
    # sum passes the float range from n = 386 on (mpmath: 2.30e308), where a
    # bare cumsum returns inf; an array call raises its first row's error
    assert ratios.hyp_series("2F1", (-385.0, 445.0, 0.5), -0.999, 500) == pytest.approx(3.9374154919726e307)
    for n in (386.0, 387.0):
        message = "^2F1 sum overflows the float range at z=-0.999$"
        with pytest.raises(opx.ParameterOutOfRange, match=message):
            ratios.hyp_series("2F1", (-n, n + 60.0, 0.5), -0.999, 500)
        with pytest.raises(opx.ParameterOutOfRange, match=message):
            ratios.hyp_series("2F1", (np.array([-1.0, -n, -n]), n + 60.0, 0.5), np.array([0.3, -0.999, -0.5]), 500)


@pytest.mark.parametrize("terms", [0, -5])
def test_hyp_series_needs_a_term(terms):
    with pytest.raises(opx.ParameterOutOfRange, match="terms must be >= 1"):
        ratios.hyp_series("2F1", (0.7, 1.1, 2.3), 0.3, terms)


@pytest.mark.parametrize(
    "kind, params, z, enough",
    [("2F1", (3.5, 3.0, 1.5), 0.99, 5000), ("1F1", (0.5, 1.5), 300.0, 1000)],
)
def test_hyp_series_does_not_truncate_silently(kind, params, z, enough):
    # 200 terms stop at 1.74e9 and 1.66e118, orders of magnitude short
    with pytest.raises(opx.NonConvergent, match=f"{kind} series still running after 200 terms"):
        ratios.hyp_series(kind, params, z)
    mp = pytest.importorskip("mpmath")
    exact = mp.hyp2f1(*params, z) if kind == "2F1" else mp.hyp1f1(*params, z)
    assert ratios.hyp_series(kind, params, z, enough) == pytest.approx(float(exact), rel=1e-13)


def test_hyp_series_one_term_is_exact_only_when_the_next_is_zero():
    assert ratios.hyp_series("2F1", (0.0, 3.0, 1.5), 0.5, terms=1) == 1.0
    with pytest.raises(opx.NonConvergent):
        ratios.hyp_series("2F1", (-2.0, 3.0, 1.5), 0.5, terms=1)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_nonfinite_z_is_rejected(z):
    b = -ratios._kummer_d(-3.0, 1.5, 20)
    calls = [
        lambda: ratios.evaluate_cf(b, z, 10),
        lambda: ratios.evaluate_cf(np.stack([b, b]), np.array([0.5, z]), 10),
        lambda: ratios.gauss_cf_ratio(-3, 1.0, 2.0, z),
        lambda: ratios.kummer_cf_ratio(-3, 1.5, z),
        lambda: ratios.hyp_series("2F1", (-3, 1.0, 2.0), z),
        lambda: ratios.hyp_series("1F1", (-3, 1.5), np.array([0.5, z])),
    ]
    for call in calls:
        with pytest.raises(opx.ParameterOutOfRange, match="z must be finite"):
            call()


def test_confluent_cd_negative_degree(cheb):
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        opx.confluent_cd(cheb, -1, 0.3)


# ---------------------------------------------------------------------------
# chain sequences
# ---------------------------------------------------------------------------


def test_chain_quarter_sequence():
    seq, gaps = suites.quarter_chain()
    assert (gaps <= 1e-14).all()
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
    with pytest.raises(opx.ZeroDenominator, match="hits m_1 = 1"):
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


def test_chain_list_shorter_than_n_max_is_an_error():
    assert opx.chain_params([0.1, 0.2, 0.3], 2).l.tolist() == [0.1, 0.2]
    with pytest.raises(ValueError, match="n_max=5 exceeds the 2 values of l"):
        opx.chain_params([0.1, 0.2], 5)


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_chain_n_max_below_one_is_an_error(n_max):
    # l[:n_max] would take a negative n_max from the end of l
    for l in ([0.1, 0.2, 0.3], lambda n: 0.25):
        with pytest.raises(ValueError, match=rf"^n_max must be >= 1, got {n_max}$"):
            opx.chain_params(l, n_max)
