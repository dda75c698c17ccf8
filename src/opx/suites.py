"""The verification statistics and the five ``opx verify`` suites.

Each statistic is one function that returns its residuals as an array, in
the order of the loop it replaces (degree, then point or draw); a suite
folds each array into one case with ``_worst``, its largest entry, so a
NaN entry fails the case as it fails the tests, which assert on every
entry.  ``opx verify`` and the tests call the same functions, so a check
is described once.

A suite is ``suite(family, rng, settings) -> list of cases``; it reads the
resolved ``Settings`` and draws from ``rng`` in a fixed order, so
``--suite all`` runs ``SUITES`` in order on one stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import errors, families, kernels, moments, quasi, ratios, transforms

__all__ = [
    "Settings",
    "SUITES",
    "QUASI_MIN_N_MAX",
    "RECOVERY_KINDS",
    "case",
    "sample_points",
    "relative_gap",
    "gram_off_diagonal",
    "kernel_orthogonality",
    "kernel_branch_agreement",
    "kernel_ttrr",
    "op_from_kernels_gap",
    "moment_annihilation",
    "difference_equation",
    "engineered_coefficients",
    "recovery_case",
    "recovery_identity",
    "geronimus_orthogonality",
    "uvarov_orthogonality",
    "confluent_cd_identity",
    "ratio_limit_vs_cd_branch",
    "chebyshev1_shift1_ratio",
    "gauss_cf_vs_series",
    "kummer_cf_vs_series",
    "gauss_cf_vs_series_nonterminating",
    "quarter_chain",
    "run_suites",
]

RECOVERY_KINDS = ("christoffel", "geronimus", "uvarov", "order2")


@dataclass(frozen=True)
class Settings:
    """What the suites read of an invocation, with its defaults resolved:
    the shifts (the first is k1, the second, if any, k2), the degree cap,
    the tolerance of the tol-gated cases, the continued-fraction depth, a
    Geronimus mass overriding the solved one, and the Uvarov mass."""

    shifts: tuple[float, ...]
    n_max: int
    tol: float
    depth: int
    mass0: float | None
    r0: float


def case(name: str, residual: float, tol: float | None) -> dict:
    """One report case; a null ``tol`` records the residual without a verdict."""
    return {
        "name": name,
        "max_residual": float(residual),
        "tolerance": tol,
        "pass": (None if tol is None else bool(residual <= tol)),
    }


def sample_points(fam: families.FamilySpec, rng: np.random.Generator, count: int | tuple) -> np.ndarray:
    """Uniform points on the support, a half line cut at 10 past its end:
    ``count`` of them, or an array of that shape, drawn in row-major order."""
    a, b = fam.support
    if np.isinf(b):
        return rng.uniform(a, a + 10.0, count)
    return rng.uniform(a, b, count)


def _worst(values: np.ndarray) -> float:
    """The largest entry, 0 for none; a NaN entry gives NaN."""
    return float(np.max(values, initial=0.0))


def relative_gap(diffs, scales) -> np.ndarray:
    """|diff| / max(1, |scale|), entry by entry."""
    return np.abs(diffs) / np.maximum(1.0, np.abs(scales))


# ---------------------------------------------------------------------------
# kernel polynomials
# ---------------------------------------------------------------------------


def gram_off_diagonal(fam, functional, table, n_max: int) -> np.ndarray:
    """|Gram entry| of the sequence ``table(xs)`` tabulates, members 0..n_max,
    under ``functional``, diagonal zeroed."""
    gram = moments.orthogonality_residual(fam, functional, table, n_max)
    return np.abs(gram - np.diag(np.diag(gram)))


def kernel_orthogonality(ctx: kernels.KernelContext, n_max: int) -> np.ndarray:
    """Off-diagonal Gram entries of Pk_0..Pk_n_max under L* = (x - k) L."""
    table = partial(kernels.kernel_table, ctx, n_max)
    return gram_off_diagonal(ctx.family, moments.Christoffel(ctx.k), table, n_max)


def kernel_branch_agreement(ctx: kernels.KernelContext, radii: np.ndarray, top: int) -> np.ndarray:
    """Gap between ``kernel_table`` and the CD sum N_n/P_n(k) sum_j P_j(x) P_j(k)/N_j
    at x = k + r: rows n = 1..top, columns the radii.

    One table of each serves every degree.  Each point's terms
    (P_j(x) P_j(k))/N_j are summed along one contiguous row, the order of a
    one-point sum.  P_j(k) and N_j come from ``eval_table`` and
    ``norm_products``, not from the context's ratio caches that
    ``kernel_table`` reads, so the check stays independent of them.
    """
    xs = ctx.k + radii
    points = np.ascontiguousarray(families.eval_table(ctx.family, top, xs).T)
    pk = families.eval_table(ctx.family, top, [ctx.k])[:, 0]
    norms = families.norm_products(ctx.family, top)
    kernel = kernels.kernel_table(ctx, top, xs)
    rows = []
    for n in range(1, top + 1):
        ksum = (points[:, : n + 1] * pk[: n + 1] / norms[: n + 1]).sum(axis=1)
        cd = norms[n] / pk[n] * ksum
        rows.append(np.abs(kernel[n] - cd) / np.maximum(1.0, np.abs(cd)))
    return np.array(rows)


def kernel_ttrr(ctx: kernels.KernelContext, xs: np.ndarray, n_max: int) -> np.ndarray:
    """Residual of x Pk_n = Pk_{n+1} + c*_{n+1} Pk_n + lambda*_{n+1} Pk_{n-1}
    relative to x Pk_n: rows n = 1..n_max-2, columns the points."""
    pairs = kernels.kernel_recurrence(ctx, n_max)
    pk = kernels.kernel_table(ctx, n_max - 1, xs)
    x_pk = xs * pk[1:-1]
    res = x_pk - pk[2:] - pairs[1:-1, :1] * pk[1:-1] - pairs[1:-1, 1:] * pk[:-2]
    return relative_gap(res, x_pk)


def op_from_kernels_gap(ctx: kernels.KernelContext, xs: np.ndarray, n_max: int) -> np.ndarray:
    """Gap between P_{n+1} rebuilt from Pk_{n+1}, Pk_n and P_{n+1} itself:
    rows n = 0..n_max-2, columns the points."""
    direct = families.eval_table(ctx.family, n_max - 1, xs)[1:]
    rebuilt = kernels.ops_from_kernel_table(ctx, kernels.kernel_table(ctx, n_max - 1, xs))
    return relative_gap(rebuilt - direct, direct)


def _kernel_suite(fam, rng, settings: Settings) -> list[dict]:
    cases = []
    n_max = min(settings.n_max, 10)
    for k in settings.shifts:
        ctx = kernels.KernelContext(fam, k, n_max + 2)
        cases.append(case(f"kernel_orthogonality_k{k:g}", _worst(kernel_orthogonality(ctx, n_max)), 1e-9))
        radii = 10.0 ** rng.uniform(-4, -1, 10) * (1.0 + abs(k))
        gaps = kernel_branch_agreement(ctx, radii, n_max)
        cases.append(case(f"kernel_branch_agreement_k{k:g}", _worst(gaps), 1e-9))
        gaps = kernel_ttrr(ctx, sample_points(fam, rng, 20), n_max)
        cases.append(case(f"kernel_ttrr_k{k:g}", _worst(gaps), 1e-10))
        gaps = op_from_kernels_gap(ctx, sample_points(fam, rng, 20), n_max)
        cases.append(case(f"op_from_kernels_k{k:g}", _worst(gaps), 1e-10))
    return cases


# ---------------------------------------------------------------------------
# quasi-type kernels
# ---------------------------------------------------------------------------


def moment_annihilation(ctx: kernels.KernelContext, coeffs, degrees) -> np.ndarray:
    """|L*(Pk_m Q_n)| / (||Pk_m|| ||Q_n||) under L* = (x - k) L for n in
    ``degrees`` and, within each n, m = 0..n - 1 - l, where Q_n is row n of
    ``quasi.quasi_table`` for the coefficient rows ``coeffs`` (c_0..c_l);
    Pk_0..Pk_m span the polynomials of degree m.  One kernel table on the
    measure of L* on the rule with max(degrees) + l + 1 nodes, shared by
    the quasi suite's two orders, serves every n and m, and gives both
    norms, so the oracle stays independent of the kernel recurrence's
    norms.  The statistic is dimensionless: Laguerre norms grow
    factorially, so raw residuals mean nothing there.  A squared norm past
    the double range raises ParameterOutOfRange naming its degree.
    """
    l = np.shape(coeffs)[-1] - 1
    n_top = max(degrees, default=0)
    nodes, weights = moments.measure(ctx.family, moments.Christoffel(ctx.k), n_top + l + 1)
    # |w Pk_m Q_n| <= max(w Pk_m^2, w Q_n^2), so finite squares bound every term
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        table = kernels.kernel_table(ctx, n_top, nodes)
        qs = quasi.quasi_table(table, coeffs)[list(degrees)]
        rows = np.concatenate([table, qs])
        squares = weights * rows * rows
    if not np.isfinite(squares).all():
        names = [f"Pk_{m}" for m in range(len(table))] + [f"Q_{n}" for n in degrees]
        name = names[np.argmax(~np.isfinite(squares).all(axis=1))]
        raise errors.ParameterOutOfRange(f"the squared norm of {name} is out of the double range")
    norms = np.sqrt(np.abs([math.fsum(row) for row in squares.tolist()]))
    # one row of terms per pair (Pk_m, Q_n), each summed by fsum: the
    # statistic cancels to the roundoff of its terms' magnitudes
    pairs = [(m, j) for j, n in enumerate(degrees) for m in range(n - l)]
    ms, js = np.array(pairs, dtype=int).reshape(-1, 2).T
    sums = [math.fsum(row) for row in (weights * table[ms] * qs[js]).tolist()]
    return np.abs(sums) / (norms[ms] * norms[len(table) + js])


def difference_equation(ctx: kernels.KernelContext, rng, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(stated, derived) relative residuals of the order-one difference
    equation for b = 0.3, -0.3, 1.5, -1.5 and n = 1..n_max-3, each at 5
    points: arrays of shape (4, n_max - 3, 5), drawn in that order in one
    call and evaluated in one residual call."""
    b = np.array([0.3, -0.3, 1.5, -1.5])[:, None, None]
    n = np.arange(1, n_max - 2)[:, None]
    xs = sample_points(ctx.family, rng, (b.size, n.size, 5))
    return quasi.difference_equation_residual(ctx, b, n, xs)


def engineered_coefficients(count: int, alpha1: float = 0.7):
    """(c*, lambda*) of ``count`` rows built so that the increment condition
    lambda*_{n+1} - lambda*_n = alpha1 (c*_{n+1} - c*_n) holds."""
    cs = np.array([0.2 + 0.35 * n for n in range(count)])
    ls = np.zeros(count)
    ls[0] = 1.0
    ls[1] = 0.9
    for n in range(2, count):
        ls[n] = ls[n - 1] + alpha1 * (cs[n] - cs[n - 1])
    return cs, ls


# the quasi suite's engineered family has one alpha, and its orthogonality
# criteria need n_max >= 1 + 2
QUASI_MIN_N_MAX = 3


def _quasi_suite(fam, rng, settings: Settings) -> list[dict]:
    n_max = min(settings.n_max, 10)
    ctx = kernels.KernelContext(fam, settings.shifts[0], n_max + 3)
    stats = moment_annihilation(ctx, (1.0, 0.7), range(3, n_max + 2))
    cases = [case("order1_moment_annihilation", _worst(stats), 1e-9)]
    stats = moment_annihilation(ctx, (1.0, 0.3, 0.9), range(3, n_max + 1))
    cases.append(case("order2_moment_annihilation", _worst(stats), 1e-9))
    stated, proof = difference_equation(ctx, rng, n_max)
    cases.append(case("difference_equation_proof_form", _worst(proof), 1e-9))
    cases.append(case("difference_equation_stated_form", _worst(stated), None))
    # the orthogonality criteria on a family engineered to meet them
    a1 = 0.7
    report = quasi.orthogonality_conditions(
        *engineered_coefficients(settings.n_max + 4, a1), [a1], settings.n_max
    )
    residual = report.recurrence_residual if report.satisfied else 1.0
    cases.append(case("qk_orthogonality_engineered", residual, settings.tol))
    return cases


# ---------------------------------------------------------------------------
# recovery constructions and transformed sequences
# ---------------------------------------------------------------------------


def recovery_identity(rc: transforms.RecoveryCoefficients, xs: np.ndarray, n_max: int) -> np.ndarray:
    """Gap between the rebuilt Q_n and P_n: rows n = 1..n_max, columns the
    points; one table of each on all points."""
    p = families.eval_table(rc.ctx2.family, n_max, xs)[1:]
    return relative_gap(transforms.recovery_table(rc, n_max, xs) - p, p)


def recovery_case(kind: str, fam, settings: Settings, xs: np.ndarray, n_max: int):
    """The ``recovery_identity_<kind>`` case over degrees 1..n_max and the
    points ``xs``, and the recovery's coefficients.  The quasi mixing
    coefficients are 0.3 (Mtilde 0.5); order two runs at k2, k3 = 1j, -1j."""
    k1 = settings.shifts[0]
    k2 = settings.shifts[1] if len(settings.shifts) > 1 else k1
    b_coeffs = np.full(n_max + 1, 0.3)
    if kind == "christoffel":
        rc = transforms.recover_christoffel(fam, k1, k2, b_coeffs, n_max)
    elif kind == "geronimus":
        rc = transforms.recover_geronimus(fam, k1, k2, b_coeffs, n_max)
    elif kind == "uvarov":
        rc = transforms.recover_uvarov(fam, k1, k2, settings.r0, b_coeffs, n_max)
    elif kind == "order2":
        rc = transforms.recover_order2(fam, k1, 1j, -1j, np.full(n_max, 0.5), n_max)
    else:
        raise ValueError(f"unknown recovery kind {kind!r}")
    return case(f"recovery_identity_{kind}", _worst(recovery_identity(rc, xs, n_max)), settings.tol), rc


def geronimus_orthogonality(data: transforms.GeronimusData, mass0: float, n_max: int) -> np.ndarray:
    """Off-diagonal Gram entries of Pt_0..Pt_n_max under the Geronimus
    functional with Ltilde(1) = ``mass0``."""
    table = partial(transforms.geronimus_table, data, n_max)
    return gram_off_diagonal(data.family, moments.Geronimus(data.k, mass0), table, n_max)


def uvarov_orthogonality(data: transforms.UvarovData, n_max: int) -> np.ndarray:
    """Off-diagonal Gram entries of Ph_0..Ph_n_max under L + r0 delta(x - k)."""
    table = partial(transforms.uvarov_table, data, n_max)
    return gram_off_diagonal(data.ctx.family, moments.Uvarov(data.ctx.k, data.r0), table, n_max)


def _recovery_suite(fam, rng, settings: Settings) -> list[dict]:
    xs = sample_points(fam, rng, 50)
    recoveries = {
        kind: recovery_case(kind, fam, settings, xs, min(settings.n_max, 8)) for kind in RECOVERY_KINDS
    }
    cases = [c for c, _ in recoveries.values()]
    # each transformed sequence is checked on its recovery's record.  The
    # Geronimus record's mass -s_0 is checked against the oracle's
    # -L(1/(k - x)) (a closed form for the built-in families; for custom
    # ones a Gauss sum at a chosen order, at most the table's N rows), and
    # the Gram matrix runs on the oracle's value:
    # entry (i, j) moves by Pt_i(k) Pt_j(k) times any gap between the two,
    # so a few ulps give 1e-9 at (5, 6) for Legendre at k = -2.  --mass0
    # overrides the solved mass, so it should fail
    n_max = min(settings.n_max, 6)
    gdata = recoveries["geronimus"][1].data
    solved = -moments.cauchy_mass(fam, gdata.k)
    cases.append(case("geronimus_solved_mass", abs(gdata.mass0 - solved) / abs(solved), 1e-12))
    mass0 = solved if settings.mass0 is None else settings.mass0
    off = _worst(geronimus_orthogonality(gdata, mass0, n_max))
    cases.append(case("geronimus_transform_orthogonality", off, 1e-9))
    off = _worst(uvarov_orthogonality(recoveries["uvarov"][1].data, n_max))
    cases.append(case("uvarov_transform_orthogonality", off, 1e-9))
    return cases


# ---------------------------------------------------------------------------
# ratios, continued fractions and chain sequences
# ---------------------------------------------------------------------------


def confluent_cd_identity(fam, xs: np.ndarray) -> np.ndarray:
    """|lhs - rhs| / |lhs| of the confluent Christoffel-Darboux identity at
    degree n on the points ``xs[n]``, n = 0..len(xs)-1; the shape of ``xs``.

    One table of P_j and P'_j to degree len(xs) at every point; each
    degree's entries equal those of ``ratios.confluent_cd`` on its points.
    """
    n_max = len(xs) - 1
    flat = xs.ravel()
    values = families.eval_table(fam, n_max + 1, flat)
    derivs = families.eval_derivs(fam, n_max + 1, flat, values)
    norms = families.norm_products(fam, n_max + 1)
    values, derivs = (t.reshape(n_max + 2, *xs.shape) for t in (values, derivs))
    gaps = np.empty(xs.shape)
    for n in range(n_max + 1):
        lhs, rhs = ratios._confluent_sides(values[:, n], derivs[:, n], norms, n)
        gaps[n] = np.abs(lhs - rhs) / np.abs(lhs)
    return gaps


def ratio_limit_vs_cd_branch(ctx: kernels.KernelContext, r_ups) -> np.ndarray:
    """Gap between r_up(n) and Pk_{n+1}(k; k) / Pk_n(k; k) from the CD-sum
    branch, n = 0..len(r_ups)-2."""
    at_k = kernels.kernel_table(ctx, len(r_ups) - 1, ctx.k)[:, 0]
    direct = at_k[1:] / at_k[:-1]
    return relative_gap(np.asarray(r_ups)[:-1] - direct, direct)


def chebyshev1_shift1_ratio(ns) -> np.ndarray:
    """The closed form r_up(n) = (1 + 2/(2n + 1))/2 of chebyshev1's kernel
    ratio at k = 1, at the degrees ``ns``."""
    return 0.5 * (1.0 + 2.0 / (2.0 * np.asarray(ns) + 1.0))


def _stacked_series(kind: str, stacks: list[tuple], terms: int = 200) -> np.ndarray:
    """``hyp_series`` over the ``stacks`` of rows, each a tuple (params...,
    z) of equal-length arrays, in one call: one row of sums per stack."""
    *params, z = (np.concatenate(column) for column in zip(*stacks))
    return ratios.hyp_series(kind, params, z, terms).reshape(len(stacks), -1)


def _form_stacks(n, params: tuple, z) -> list[tuple]:
    """The numerator, denominator and magnitude-sum rows of the series
    ratio F(-n + 1, params; z) / F(-n, params; z): the magnitudes are the
    denominator's series on |params| at -|z|, as |(a)_m| <= (|a|)_m."""
    return [(1 - n, *params, z), (-n, *params, z), (-n, *np.abs(params), -np.abs(z))]


# ``_ratio_bound``'s c for the first series form, whose terms are within
# 7 m u of their magnitudes, and for Pfaff's form, within 10 m u
_FIRST_C, _PFAFF_C = 9, 12


def _ratio_bound(n, num, den, mags, c: int) -> tuple[np.ndarray, np.ndarray]:
    """t = num / den and a bound on its rounding error, for sums of n + 1
    terms each within (c - 2) m u of term m of the magnitude sum ``mags``
    (M; u = 2^-53), added in term order.  The n additions move a sum by at
    most g sum|terms| <= g (1 + (c - 2) n u) M, g = n u / (1 - n u)
    (Higham 2002, section 4.2), so both sums are within c n u M where
    c n u <= 1; the numerator's terms are (n - m)/n of the denominator's,
    so t is within c n u M (1 + |t|) / |den| + u |t|."""
    with np.errstate(divide="ignore", invalid="ignore"):  # where |den| < 1e-3
        t = num / den
        return t, (c * n * mags * (1.0 + np.abs(t)) / np.abs(den) + np.abs(t)) * 2.0**-53


def _certifies(den, s, bound) -> np.ndarray:
    """Whether a series ratio s can certify the fractions' 1e-10 gate: its
    denominator |den| >= 1e-3 and its rounding bound at most a tenth of the
    gate, 1e-11 max(1, |s|).  A NaN certifies (abs(NaN) < 1e-3 and
    NaN > 1e-11 are false), so it reaches the gap and fails it."""
    return ~(np.abs(den) < 1e-3) & ~(bound > 1e-11 * np.maximum(1.0, np.abs(s)))


def _gauss_series(n, q, r, z) -> tuple[np.ndarray, np.ndarray]:
    """The series ratio F(-n + 1, q; r; z) / F(-n, q; r; z) of each draw,
    from the better certified of its two forms, and whether either form
    certifies it.

    Pfaff's transformation F(-n, q; r; z) = (1 - z)^n F(-n, r - q; r; w),
    w = z / (z - 1) (DLMF 15.8.1), makes the ratio (1 - z)^-1
    F(-n + 1, r - q; r; w) / F(-n, r - q; r; w), whose sums cancel where
    the first form's do not.  One ``hyp_series`` call sums both forms'
    numerators, denominators and magnitude sums M, F(-n, q; r; -|z|) and
    F(-n, |r - q|; r; -|w|).  The first form's terms are within 7 m u of
    their magnitudes.  Rounding r - q and w, within u and 2 u, moves the
    second form's term m by 3 m u more, 10 m u in all; the division by
    1 - z, itself within u, adds 2 u |s|.  Each draw takes the certified
    form with the smaller bound.
    """
    w = z / (z - 1.0)
    stacks = _form_stacks(n, (q, r), z) + _form_stacks(n, (r - q, r), w)
    num, den, mags, num2, den2, mags2 = _stacked_series("2F1", stacks)
    s, bound = _ratio_bound(n, num, den, mags, _FIRST_C)
    t, bound2 = _ratio_bound(n, num2, den2, mags2, _PFAFF_C)
    s2 = t / (1.0 - z)
    bound2 = bound2 / np.abs(1.0 - z) + 2.0**-52 * np.abs(s2)
    certified, certified2 = _certifies(den, s, bound), _certifies(den2, s2, bound2)
    pfaff = certified2 & ~(certified & (bound <= bound2))
    return np.where(pfaff, s2, s), certified | certified2


def _kummer_series(n, r, z) -> tuple[np.ndarray, np.ndarray]:
    """The series ratio 1F1(-n + 1; r; z) / 1F1(-n; r; z) of each draw, and
    whether it certifies, from one ``hyp_series`` call over the numerators,
    the denominators and the magnitude sums M = 1F1(-n; r; -|z|); the terms
    are within 7 m u of their magnitudes.  Kummer's transformation gives no
    second terminating form."""
    num, den, mags = _stacked_series("1F1", _form_stacks(n, (r,), z))
    s, bound = _ratio_bound(n, num, den, mags, _FIRST_C)
    return s, _certifies(den, s, bound)


def _certified_draws(rng, count: int, lo: tuple, hi: tuple, series) -> tuple[list[np.ndarray], np.ndarray]:
    """The first ``count`` draws (n, ...) whose series ratio ``series``
    certifies, in draw order, as columns, and those series ratios.

    A round draws one overdrawn block, ``rng.integers(1, 12, size)`` and
    then one ``rng.uniform(lo, hi, (size, len(lo)))`` filled row by row,
    size = missing + missing // 8 + 4, and makes one ``series`` call on
    it.  A round that certifies fewer than the missing draws is followed by
    another for the rest, which few ops need.  The draw ranges keep every
    row finite (n <= 11, r >= 0.3, |z| <= 2), so summing the draws not
    kept raises nothing a kept one would not.
    """
    draws, ratio, missing = [], [], count
    while missing:
        size = missing + missing // 8 + 4
        block = (rng.integers(1, 12, size), *rng.uniform(lo, hi, (size, len(lo))).T)
        s, certified = series(*block)
        kept = np.flatnonzero(certified)[:missing]
        draws.append([column[kept] for column in block])
        ratio.append(s[kept])
        missing -= kept.size
    return [np.concatenate(column) for column in zip(*draws)], np.concatenate(ratio)


def gauss_cf_vs_series(rng, count: int, depth: int) -> np.ndarray:
    """Gap between the Gauss fraction 2F1(-n+1, q; r; z)/2F1(-n, q; r; z) and
    the terminating series, over ``count`` certified draws (n, q, r, z)."""
    (n, q, r, z), series = _certified_draws(rng, count, (0.2, 0.3, -0.6), (4.0, 4.0, 0.6), _gauss_series)
    return relative_gap(ratios.gauss_cf_ratio(-n, q, r, z, depth) - series, series)


def kummer_cf_vs_series(rng, count: int, depth: int) -> np.ndarray:
    """Gap between the Kummer fraction 1F1(-n+1; r; z)/1F1(-n; r; z) and the
    terminating series, over ``count`` certified draws (n, r, z)."""
    (n, r, z), series = _certified_draws(rng, count, (0.3, -2.0), (4.0, 2.0), _kummer_series)
    return relative_gap(ratios.kummer_cf_ratio(-n, r, z, depth) - series, series)


def gauss_cf_vs_series_nonterminating(rng, count: int, depth: int) -> np.ndarray:
    """Gap between the Gauss fraction 2F1(p+1, q; r; z)/2F1(p, q; r; z) and
    the sums of the 400-term series, over ``count`` draws (p, q, r, z); the
    series stop where a tail bound puts the terms left out below 2^-54 of
    the magnitudes kept (``ratios.hyp_series``), at 64 or 128 terms at
    these draws."""

    # one (count, 4) block, filled row by row: the values and the generator
    # state of ``count`` rows of four scalar draws
    p, q, r, z = rng.uniform((0.1, 0.2, 0.3, -0.5), (2.5, 3.0, 4.0, 0.5), (count, 4)).T
    cf = ratios.gauss_cf_ratio(p, q, r, z, depth)
    num, den = _stacked_series("2F1", [(p + 1, q, r, z), (p, q, r, z)], 400)
    return relative_gap(cf - num / den, num / den)


def _ratio_suite(fam, rng, settings: Settings) -> list[dict]:
    n_max, depth = min(settings.n_max, 10), settings.depth
    gaps = confluent_cd_identity(fam, sample_points(fam, rng, (n_max + 1, 20)))
    cases = [case("confluent_cd_identity", _worst(gaps), 1e-10)]
    ctx = kernels.KernelContext(fam, settings.shifts[0], n_max + 2)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        r_ups, r_downs = ratios.kernel_ratio_limits(ctx, n_max)
    finite = np.isfinite(r_ups) & np.isfinite(r_downs)
    if not finite.all():
        n = np.argmin(finite)
        raise errors.ParameterOutOfRange(f"(r_up({n}), r_down({n})) at k={ctx.k!r} is out of the double range")
    cases.append(case("ratio_reciprocal_identity", _worst(np.abs(r_ups * r_downs - 1.0)), 1e-12))
    cases.append(case("ratio_limit_vs_cd_branch", _worst(ratio_limit_vs_cd_branch(ctx, r_ups)), 1e-9))
    cases.append(case("gauss_cf_vs_series", _worst(gauss_cf_vs_series(rng, 200, depth)), 1e-10))
    cases.append(case("kummer_cf_vs_series", _worst(kummer_cf_vs_series(rng, 200, depth)), 1e-10))
    gaps = gauss_cf_vs_series_nonterminating(rng, 50, depth)
    cases.append(case("gauss_cf_vs_series_nonterminating", _worst(gaps), 1e-10))
    # the special-case fractions' printed prefactors: gaps recorded, not
    # gated, against Pk_{n-1}(x_n)/Pk_n(x_n) at one draw x_n per degree
    # n = 1..top, all drawn in one call
    top = min(n_max, 6)
    if fam.kind == "chebyshev1":
        r_ups = ratios.kernel_ratio_limits(kernels.KernelContext(fam, 1.0, n_max + 2), n_max)[0]
        gaps = np.abs(r_ups[1:] - chebyshev1_shift1_ratio(np.arange(1, n_max + 1)))
        cases.append(case("chebyshev_tabulated_closed_form_gap", max([0.0, *gaps.tolist()]), None))
    if fam.kind == "laguerre":
        gamma = dict(fam.params)["gamma"]
        ctx0 = kernels.KernelContext(fam, 0.0, n_max + 2)
        xs = rng.uniform(0.5, 3.0, top)
        table = kernels.kernel_table(ctx0, top, xs)
        gap = 0.0
        for n, x in enumerate(xs.tolist(), start=1):
            cf, same, _ = ratios.laguerre_ratio_cf(gamma, n, x, depth)
            direct = table[n - 1, n - 1] / table[n, n - 1]
            gap = max(gap, abs(direct / (same * cf) - 1.0))
        cases.append(case("laguerre_prefactor_discrepancy", gap, None))
    if fam.kind == "jacobi":
        gamma, delta = dict(fam.params)["gamma"], dict(fam.params)["delta"]
        if delta > 0:
            upper = kernels.KernelContext(families.jacobi(gamma, delta), 1.0, n_max + 2)
            lower = kernels.KernelContext(families.jacobi(gamma, delta - 1.0), 1.0, n_max + 2)
            xs = rng.uniform(-0.5, 0.9, top)
            up, low = (kernels.kernel_table(c, top, xs) for c in (upper, lower))
            gap = 0.0
            for n, x in enumerate(xs.tolist(), start=1):
                cf, pref = ratios.jacobi_ratio_cf(gamma, delta, n, x, depth)
                direct = up[n - 1, n - 1] / low[n, n - 1]
                gap = max(gap, abs(direct / (pref * cf) - 1.0))
            cases.append(case("jacobi_prefactor_discrepancy", gap, None))
    return cases


def quarter_chain() -> tuple[ratios.ChainSequence, np.ndarray]:
    """The constant chain l_n = 1/4 to n = 100, and the gap between its
    minimal parameters and the closed form m_n = n / (2 (n + 1))."""
    seq = ratios.chain_params(lambda n: 0.25, 100)
    closed = np.array([n / (2.0 * (n + 1.0)) for n in range(101)])
    return seq, np.abs(seq.m - closed)


def g_chains(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """For ``count`` draws 0 < p <= q < r, the minimal parameters m_0..m_50
    of the chain sequence l_j = (1 - g_{j-1}) g_j, j = 1..50, of the Gauss
    g-table and of its complement 1 - l, interleaved, (2 count, 51), and
    whether each l is a positive chain sequence, (count,).

    One (count, 3) block fills row by row with the values of ``count`` rows
    of three scalar draws, and p, q = p + u, r = q + v are its running sums
    along each row.  One g-table serves every draw, and one recurrence every
    sequence and complement.  A breakdown raises the error of the first
    ``chain_params`` call in a loop over the draws.
    """
    p, q, r = np.cumsum(rng.uniform((0.1, 0.0, 0.1), (2.0, 1.0, 1.0), (count, 3)), axis=1).T[..., None]
    g = ratios._gauss_g(p, q, r, 50)
    l = (1.0 - g[:, :-1]) * g[:, 1:]
    try:
        mins = ratios._minimal_params(np.stack([l, 1.0 - l], axis=1).reshape(2 * count, 50))
    except errors.ZeroDenominator:
        for row in l:  # names the sequence that breaks down
            ratios.chain_params(row)
        raise
    return mins, ((mins[::2, 1:] > 0.0) & (mins[::2, 1:] < 1.0)).all(axis=1)


def _chain_suite(fam, rng, settings: Settings) -> list[dict]:
    seq, gaps = quarter_chain()
    cases = [
        case("quarter_chain_minimal_params", _worst(gaps), 1e-14),
        case("quarter_chain_positive", 0.0 if seq.positive else 1.0, 0.5),
    ]
    # 0 < p <= q < r makes the Gauss g-table a positive chain sequence
    positive = g_chains(rng, 20)[1]
    cases.append(case("g_sequence_chain_positive", 0.0 if positive.all() else 1.0, 0.5))
    return cases


SUITES = {
    "kernels": _kernel_suite,
    "quasi": _quasi_suite,
    "recovery": _recovery_suite,
    "ratios": _ratio_suite,
    "chains": _chain_suite,
}


def run_suites(name: str, fam, rng, settings: Settings) -> list[dict]:
    """The cases of suite ``name``, or of every suite in order for "all"."""
    names = list(SUITES) if name == "all" else [name]
    return [c for suite in names for c in SUITES[suite](fam, rng, settings)]
