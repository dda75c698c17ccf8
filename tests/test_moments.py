import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opx
from opx import moments, suites
from opx.moments import (
    Base,
    Christoffel,
    Geronimus,
    Uvarov,
    apply_functional,
    cauchy_mass,
    gauss_rule,
    integrate_until_stable,
    orthogonality_residual,
)
from oracles import moment_sequence
from test_transforms import _mp_chebyshev1, _mp_jacobi, _mp_laguerre


def test_one_point_rule_is_mean_and_mass(cheb):
    rule = gauss_rule(cheb, 1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(math.pi, rel=1e-14)
    with pytest.raises(ValueError, match="rule order must be >= 1, got 0"):
        gauss_rule(cheb, 0)


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


@pytest.mark.parametrize("m", [1, 2, 16, 64, 512])
@pytest.mark.parametrize(
    "make_family",
    [opx.chebyshev1, lambda: opx.laguerre(0.5), lambda: opx.jacobi(0.3, 0.7)],
    ids=["chebyshev1", "laguerre0.5", "jacobi0.3,0.7"],
)
def test_rule_matches_the_tridiagonal_eigensolver(make_family, m):
    # the dense solve against LAPACK's tridiagonal one, to rounding: the two
    # may come from different LAPACK builds
    linalg = pytest.importorskip("scipy.linalg")
    fam = make_family()
    pairs = fam.table(m)
    nodes, vecs = linalg.eigh_tridiagonal(pairs[:, 0], np.sqrt(pairs[1:, 1]))
    rule = gauss_rule(fam, m)
    eps = np.finfo(float).eps
    assert np.max(np.abs(rule.nodes - nodes)) <= 8 * eps * np.max(np.abs(nodes))
    assert np.max(np.abs(rule.weights - fam.mu0 * vecs[0] ** 2)) <= 1e-14 * fam.mu0


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
    # both sides run on the same 4-node rule; L*'s measure rounds w (x - k)
    # where Base rounds (x - k) p, one term differs by an ulp, and the
    # compensated sums still agree
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


def test_measure_on_chebyshev1(cheb):
    k, r0, m = 2.0, 0.3, 6
    rule = gauss_rule(cheb, m)
    nodes, weights = moments.measure(cheb, Base(), m)
    assert nodes is rule.nodes and weights is rule.weights
    # L*(1) = L(x - k) = mu0 (c_1 - k), with c_1 = 0
    nodes, weights = moments.measure(cheb, Christoffel(k), m)
    assert nodes is rule.nodes
    assert math.fsum(weights) == pytest.approx(math.pi * (0.0 - k), rel=1e-14)
    nodes, weights = moments.measure(cheb, Uvarov(k, r0), m)
    assert (nodes[-1], weights[-1]) == (k, r0)
    assert np.array_equal(nodes[:-1], rule.nodes) and np.array_equal(weights[:-1], rule.weights)
    # the Geronimus measure: w/(x - k) on the nodes, the rest of mass0 at k
    nodes, weights = moments.measure(cheb, Geronimus(k, 0.7), m)
    assert nodes[-1] == k and np.array_equal(nodes[:-1], rule.nodes)
    assert np.array_equal(weights[:-1], rule.weights / (rule.nodes - k))
    with pytest.raises(opx.ShiftInsideSupport):
        moments.measure(cheb, Geronimus(0.5, 1.0), m)


@pytest.mark.parametrize(
    "make_family, mp_family, k",
    [
        (lambda: opx.laguerre(0.5), lambda mp: _mp_laguerre(mp, 0.5), -1.0),
        (lambda: opx.jacobi(0.3, 0.7), lambda mp: _mp_jacobi(mp, 0.3, 0.7), -2.0),
    ],
    ids=["laguerre0.5-k-1", "jacobi-k-2"],
)
def test_geronimus_measure_against_mpmath(make_family, mp_family, k):
    # at the solved mass Ltilde(p) = L(p / (x - k)), which the measure on m
    # nodes gives for every degree up to 2m.  Its terms cancel from the
    # scale of p(k), so each value is held to the scale of the terms and of
    # |p(k)| sum |w/(x - k)| (it reads up to 20 eps of that scale)
    mp = pytest.importorskip("mpmath")
    fam, m = make_family(), 5
    eps = np.finfo(float).eps
    mass0 = -cauchy_mass(fam, k)
    nodes, weights = moments.measure(fam, Geronimus(k, mass0), m)
    assert abs(math.fsum(weights) - mass0) <= eps * np.sum(np.abs(weights))
    with mp.workdps(40):
        _, weight, cuts = mp_family(mp)
        cuts = [0, 1, 5, 20, 60, mp.inf] if cuts[-1] == mp.inf else cuts
        for j in range(2 * m + 2):
            want = float(mp.quad(lambda x: x**j / (x - k) * weight(x), cuts))
            terms = weights * nodes**j
            scale = np.sum(np.abs(terms)) + abs(k**j) * np.sum(np.abs(weights[:-1]))
            gap = abs(math.fsum(terms) - want)
            if j <= 2 * m:
                assert gap <= 64 * eps * scale
            else:  # past the rule's exactness
                assert gap > 1e-6 * abs(want)


@pytest.mark.parametrize("kind", ["base", "christoffel", "uvarov"])
@pytest.mark.parametrize(
    "make_family", [opx.chebyshev1, lambda: opx.jacobi(0.3, 0.7)], ids=["chebyshev1", "jacobi0.3,0.7"]
)
def test_gram_at_degree_48_reads_one_table(make_family, kind):
    fam, n, k = make_family(), 48, 2.0
    if kind == "base":
        functional, table = Base(), lambda xs: opx.eval_table(fam, n, xs)
    elif kind == "christoffel":
        ctx = opx.KernelContext(fam, k, n + 1)
        functional, table = Christoffel(k), lambda xs: opx.kernel_table(ctx, n, xs)
    else:
        data = opx.uvarov_data(fam, k, 0.3, n)
        functional, table = Uvarov(k, 0.3), lambda xs: opx.uvarov_table(data, n, xs)
    reads = []

    def counted(xs):
        reads.append(xs.size)
        return table(xs)

    gram = orthogonality_residual(fam, functional, counted, n)
    assert reads == [n + 2 + (kind == "uvarov")]
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-13


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


@pytest.mark.parametrize(
    "make_family, mp_family, k",
    [
        *((opx.chebyshev1, _mp_chebyshev1, k) for k in (2.0, -2.0, 1.01)),
        *(
            (lambda: opx.jacobi(0.3, 0.7), lambda mp: _mp_jacobi(mp, 0.3, 0.7), k)
            for k in (3.0, 1.5, -2.0, -10.0)
        ),
        (lambda: opx.jacobi(0.0, 0.0), lambda mp: _mp_jacobi(mp, 0, 0), -2.0),
        *(
            (lambda g=g: opx.laguerre(g), lambda mp, g=g: _mp_laguerre(mp, g), k)
            for g, k in ((0.0, -1.0), (0.5, -1.0), (2.5, -3.0), (0.0, -0.1))
        ),
    ],
    ids=[
        "chebyshev1-k2", "chebyshev1-k-2", "chebyshev1-k1.01",
        "jacobi-k3", "jacobi-k1.5", "jacobi-k-2", "jacobi-k-10", "jacobi0,0-k-2",
        "laguerre0-k-1", "laguerre0.5-k-1", "laguerre2.5-k-3", "laguerre0-k-0.1",
    ],
)
def test_cauchy_mass_closed_forms_against_mpmath(make_family, mp_family, k):
    # L(1/(k - x)) by 40-digit tanh-sinh quadrature of the weight
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        _, weight, cuts = mp_family(mp)
        want = float(mp.quad(lambda x: weight(x) / (mp.mpf(k) - x), cuts))
    assert cauchy_mass(make_family(), k) == pytest.approx(want, rel=4e-15, abs=0)


@pytest.mark.parametrize(
    "family, k",
    [(opx.laguerre(0.0), -1e-8), (opx.jacobi(0.3, 0.7), 1.01)],
    ids=["laguerre-k-1e-8", "jacobi-k1.01"],
)
def test_cauchy_mass_next_to_the_support_is_nonconvergent(family, k):
    # the fractions settle too slowly there: an error, not an unsettled value
    with pytest.raises(opx.NonConvergent):
        cauchy_mass(family, k)


@pytest.mark.parametrize("family, k", [(opx.laguerre(0.5), 0.0), (opx.chebyshev1(), 0.5)])
def test_cauchy_mass_inside_the_support_raises(family, k):
    with pytest.raises(opx.ShiftInsideSupport):
        cauchy_mass(family, k)


@pytest.fixture
def orders(monkeypatch):
    """The order of every Gauss rule ``opx.moments`` solves or reads from its
    cache while the test runs."""
    seen = []
    solve = moments.gauss_rule

    def recording(family, m):
        seen.append(m)
        return solve(family, m)

    monkeypatch.setattr(moments, "gauss_rule", recording)
    return seen


def test_custom_cauchy_mass_sums_one_rule_once(orders):
    # a custom family has no closed form: one Gauss sum at the chosen order
    # and its guard four nodes up (doubling ran 32, 64 and 128 nodes),
    # memoized per (family, k)
    fam = opx.custom_family(opx.chebyshev1().table(256), (-1.0, 1.0))
    for _ in range(2):
        assert cauchy_mass(fam, 2.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-12)
    assert orders == [orders[0], orders[0] + 4] and orders[0] < 32


def test_racing_callers_get_the_one_stored_memo_entry():
    # eight threads build one rule and one custom Cauchy mass at once with
    # a short switch interval: each caller gets the value stored first
    fam = opx.custom_family(opx.chebyshev1().table(64), (-1.0, 1.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rules = list(pool.map(lambda _: gauss_rule(fam, 40), range(32), timeout=60))
            masses = list(pool.map(lambda _: cauchy_mass(fam, 2.0), range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(rule is fam._memo[("rule", 40)] for rule in rules)
    assert all(mass is fam._memo[("cauchy", 2.0)] for mass in masses)


@pytest.mark.parametrize("rows", [2, 3])
def test_short_custom_table_sums_its_own_measure(rows):
    # a table of N < 4 rows: the N-node rule is the table's own measure, its
    # Cauchy mass the J-fraction cut at the last row
    fam = opx.custom_family(opx.chebyshev1().table(rows), (-1.0, 1.0))
    k = 2.0
    rule = gauss_rule(fam, rows)
    mass = cauchy_mass(fam, k)
    assert mass == pytest.approx(math.fsum(rule.weights / (k - rule.nodes)), rel=1e-14)
    assert mass == pytest.approx(-opx.geronimus_data(fam, k, rows - 1).mass0, rel=1e-14)
    # Ltilde(1) = mass0, through the split form
    assert apply_functional(fam, Geronimus(k, 0.5), np.ones_like, 0) == pytest.approx(0.5, rel=1e-14)


def test_custom_cauchy_mass_at_a_zero_of_the_recurrence_raises():
    # the declared support misses c_1 = 2, so P_1(2) = 0: the order chooser's
    # forward ratio has no value there
    fam = opx.custom_family(np.array([[2.0, 1.0], [0.0, 0.25], [0.0, 0.25]]), (-1.0, 1.0))
    with np.errstate(divide="ignore"), pytest.raises(opx.DegenerateDenominator):
        cauchy_mass(fam, 2.0)


def _geronimus_off_diagonal(fam, k, n_max=6):
    """The recovery suite's Geronimus statistic: off-diagonal Gram entries on
    the oracle's mass."""
    data = opx.geronimus_data(fam, k, n_max)
    return suites.geronimus_orthogonality(data, -cauchy_mass(fam, k), n_max)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("k", [-1.0, -0.3, -0.1])
def test_laguerre_geronimus_gram_solves_no_large_rule(orders, gamma, k):
    # node doubling solved rules up to 1024 nodes at k = -1 and raised
    # NonConvergent at -0.3 and -0.1
    off = _geronimus_off_diagonal(opx.laguerre(gamma), k)
    assert 0 < max(orders) <= 64
    assert np.max(off) <= 1e-11


@pytest.mark.parametrize(
    "family, k", [(opx.jacobi(0.3, 0.7), -10.0), (opx.jacobi(0.0, 0.0), -2.0)], ids=["jacobi-k-10", "legendre-k-2"]
)
def test_geronimus_gram_takes_the_split_form_where_the_exact_form_cancels(monkeypatch, family, k):
    # far from the support the exact form's two terms cancel from
    # |mass0 p(k)|: taken alone it reads 1.3e-2 and 3.2e-10 here
    calls = Counter()
    split_form = moments._split_form

    def counting(*args, **kwargs):
        calls["split_form"] += 1
        return split_form(*args, **kwargs)

    monkeypatch.setattr(moments, "_split_form", counting)
    mixed = _geronimus_off_diagonal(family, k)
    assert np.max(mixed) <= 1e-12
    # every split entry comes from one sum on one rule
    assert calls == {"split_form": 1}
    # some entries keep the exact form: taking every entry split changes the matrix
    monkeypatch.setattr(moments, "_EXACT_FORM_BOUND", 0.0)
    every_split = _geronimus_off_diagonal(family, k)
    assert np.max(every_split) <= 1e-12
    assert not np.array_equal(every_split, mixed)
    monkeypatch.setattr(moments, "_EXACT_FORM_BOUND", math.inf)
    assert np.max(_geronimus_off_diagonal(family, k)) > 1e-10


def _geronimus_products(fam, k, n_max=6):
    """The Geronimus functional at the solved mass, and the evaluator of the
    products Pt_i Pt_j, i, j = 0..n_max, that its Gram entries integrate."""
    data = opx.geronimus_data(fam, k, n_max)

    def products(xs):
        rows = opx.geronimus_table(data, n_max, xs)
        return rows[:, None, :] * rows[None, :, :]

    return Geronimus(k, data.mass0), products


def _split_entries(fam, kind, products, n_max=6):
    """Every Gram entry in the split form, scaled as ``orthogonality_residual``
    scales it: p(k) and the L1 scale on the measure of n_max + 2 nodes."""
    nodes, weights = moments.measure(fam, kind, n_max + 2)
    values = products(nodes)
    scale = np.sum(np.abs(weights[:-1] * values[..., :-1]), axis=-1)
    return moments._split_form(fam, kind, products, 2 * n_max, values[..., -1], scale)


@pytest.mark.parametrize(
    "fam, k",
    [(opx.chebyshev1(), -2.0), (opx.chebyshev1(), -50.0), (opx.jacobi(0.3, 0.7), -10.0)],
    ids=["chebyshev1-k-2", "chebyshev1-k-50", "jacobi-k-10"],
)
def test_split_form_matches_a_rule_of_twice_its_order(monkeypatch, fam, k):
    # the chosen order's sums agree with those on twice as many nodes within
    # the guard's bound, 1e-12 of each entry's L1 scale: 20, 10 and 13 nodes
    # against 40, 20 and 26 (on Laguerre a doubled rule is no reference: at
    # k = -1 the 264-node sums are 3e-9 of the scale off, from weight noise)
    kind, products = _geronimus_products(fam, k)
    chosen = []
    choose = moments._split_order

    def recording(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    monkeypatch.setattr(moments, "_split_order", recording)
    split = _split_entries(fam, kind, products)
    (m,) = chosen
    nodes, weights = moments.measure(fam, kind, 8)
    values = products(nodes)
    scale = np.sum(np.abs(weights[:-1] * values[..., :-1]), axis=-1)
    rule = gauss_rule(fam, 2 * m)
    terms = rule.weights * products(rule.nodes) / (k - rule.nodes)
    stieltjes = np.array([[math.fsum(entry) for entry in row] for row in terms.tolist()])
    twice = values[..., -1] * (kind.mass0 + cauchy_mass(fam, k)) - stieltjes
    assert np.all(np.abs(split - twice) <= 1e-12 * scale)


@pytest.mark.parametrize("k", [-0.3, -0.1])
def test_laguerre_split_form_near_the_support_raises_or_is_accurate(k):
    # Gram entry (6, 5) of Laguerre(0.5) needs 349 and 911 nodes here, whose
    # far weights carry noise that p(x) of degree 11 magnifies past 1e-7 of
    # the scale: the guard sum must raise rather than return such a value
    mp = pytest.importorskip("mpmath")
    gamma = 0.5
    fam = opx.laguerre(gamma)
    data = opx.geronimus_data(fam, k, 6)

    def product(xs):
        table = opx.geronimus_table(data, 6, xs)
        return table[6] * table[5]

    try:
        value = apply_functional(fam, Geronimus(k, data.mass0), product, 11)
    except opx.NonConvergent as err:
        assert "too noisy" in str(err)
        return
    reference = _laguerre_geronimus_reference(mp, data, gamma, k)
    scale = float(mp.sqrt(reference(6, 6) * reference(5, 5)))
    assert abs(value - float(reference(6, 5))) <= 1e-11 * scale


@pytest.mark.parametrize("call", ["gram", "apply_functional", "custom_cauchy_mass", "capped_custom_cauchy_mass"])
def test_too_small_an_order_raises(monkeypatch, call):
    # an order chooser that returns the least order the degree allows (6
    # nodes for the Gram, 1 for the Cauchy mass): the guard sum four nodes
    # up, or at a 3-row table's 3 rows, disagrees, the message names both
    # orders summed, and no value comes back
    monkeypatch.setattr(moments, "_split_order", lambda family, k, least, threshold: least)
    fam, k = opx.chebyshev1(), -2.0
    kind, products = _geronimus_products(fam, k)
    custom = opx.custom_family(fam.table(64), fam.support)
    short = opx.custom_family(fam.table(3), fam.support)
    run, orders = {
        "gram": (lambda: _split_entries(fam, kind, products), "6 and 10"),
        "apply_functional": (lambda: apply_functional(fam, kind, lambda xs: products(xs)[6, 6], 12), "6 and 10"),
        "custom_cauchy_mass": (lambda: cauchy_mass(custom, k), "1 and 5"),
        "capped_custom_cauchy_mass": (lambda: cauchy_mass(short, k), "1 and 3"),
    }[call]
    with pytest.raises(opx.NonConvergent, match=f"on {orders} nodes disagree .*order too small"):
        run()
    assert not any(key[0] == "cauchy" for key in (*custom._memo, *short._memo))


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


def test_laguerre_geronimus_gram_entry_against_mpmath(orders):
    # Gram entry (6, 5) of the Laguerre(0.5) Geronimus sequence at k = -1;
    # with the solved mass the functional is L(p / (x - k)), which mpmath
    # integrates at 40 digits for the same polynomials (same A_n).  Its split
    # form sums on 131 nodes and guards on 135 (doubling reached 512)
    mp = pytest.importorskip("mpmath")
    gamma, k = 0.5, -1.0
    fam = opx.laguerre(gamma)
    data = opx.geronimus_data(fam, k, 6)
    kind = Geronimus(k, data.mass0)

    def oracle(i, j):
        def product(xs):
            table = opx.geronimus_table(data, 6, xs)
            return table[i] * table[j]

        return apply_functional(fam, kind, product, i + j)

    value = oracle(6, 5)
    assert max(orders) <= 135
    reference = _laguerre_geronimus_reference(mp, data, gamma, k)
    scale = float(mp.sqrt(reference(6, 6) * reference(5, 5)))
    assert abs(value - float(reference(6, 5))) <= 1e-11 * scale


def _laguerre_geronimus_reference(mp, data, gamma, k):
    """(i, j) -> Ltilde(Pt_i Pt_j) = L(Pt_i Pt_j / (x - k)) for Laguerre(gamma)
    at the solved mass, by mpmath at 40 digits on the same A_n."""
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

    return reference


def test_laguerre_geronimus_gram_against_mpmath(monkeypatch):
    # the normalized Gram entry (6, 5) of the test above, which the Gram
    # matrix takes in the exact divided-difference form, with no split form
    mp = pytest.importorskip("mpmath")
    gamma, k = 0.5, -1.0
    fam = opx.laguerre(gamma)
    data = opx.geronimus_data(fam, k, 6)

    def no_split_form(*args, **kwargs):
        raise AssertionError("the split form ran")

    monkeypatch.setattr(moments, "_split_form", no_split_form)
    table = lambda xs: opx.geronimus_table(data, 6, xs)  # noqa: E731
    gram = orthogonality_residual(fam, Geronimus(k, data.mass0), table, 6)

    with mp.workdps(20):
        g = mp.mpf(gamma)

        def transformed(x):  # Pt_0..Pt_6 from the monic recurrence, same A_n
            p_prev, p, values = mp.mpf(0), mp.mpf(1), [mp.mpf(1)]
            for m in range(6):
                p_prev, p = p, (x - (2 * m + 1 + g)) * p - m * (m + g) * p_prev
                values.append(p + mp.mpf(data.A[m + 1]) * p_prev)
            return values

        def reference(i, j):  # Ltilde(Pt_i Pt_j) = L(Pt_i Pt_j / (x - k)) at the solved mass
            def integrand(x):
                values = transformed(x)
                return values[i] * values[j] / (x - k) * x**g * mp.exp(-x)

            return mp.quad(integrand, [0, 1, 5, 20, 60, mp.inf])

        want = float(reference(6, 5) / mp.sqrt(reference(6, 6) * reference(5, 5)))
    assert abs(gram[6, 5] - want) <= 1e-11


def test_geronimus_gram_diagonal_takes_the_split_form_where_it_cancels():
    # at the solved mass Ltilde(Pt_n^2) = L(Pt_n^2 / (x - k)) > 0, but at
    # k = -50 the exact form of the diagonal entries n >= 4 cancels to a
    # negative number; the normalized diagonal must stay +1
    fam, k = opx.chebyshev1(), -50.0
    data = opx.geronimus_data(fam, k, 6)
    table = lambda xs: opx.geronimus_table(data, 6, xs)  # noqa: E731
    gram = orthogonality_residual(fam, Geronimus(k, -cauchy_mass(fam, k)), table, 6)
    assert_allclose(np.diag(gram), 1.0, rtol=1e-14)
