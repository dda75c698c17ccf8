"""Ratio limits of kernel polynomials, continued fractions for
hypergeometric ratios, and chain-sequence utilities.

The ratio of consecutive kernel polynomials at the shift itself has the
closed form (all sums taken at k)

    lim_{x->k} Pk_{n+1}/Pk_n = (P_n/P_{n+1}) lambda_{n+2} (1 + t_{n+1}/S_n),

with t_j = P_j^2/(lambda_1...lambda_{j+1}) and S_n = t_0 + ... + t_n; the
reciprocal direction replaces (1 + t_{n+1}/S_n) by (1 - t_{n+1}/S_{n+1}),
so the product of the two directions is exactly 1.  Evaluation runs on the
ratio-form context caches and therefore stays finite out to n ~ 10^3.

Every continued fraction 1/(1 + s_1 a_1 z/(1 + s_2 a_2 z/(...))) is held as
its signed partial numerators b_j = s_j a_j, j = 1..depth+10, and evaluated
by backward recurrence at the requested depth (>= 1) and again at depth+10,
with a tiny-floor rescue for vanishing intermediate denominators.  A scalar
call of a terminating fraction builds its numerators as a list of Python
floats (the same IEEE operations in the same order as numpy's) and stops at
the first zero; an array call, or a scalar fraction with no zero numerator
(which needs all depth+10 of them), builds a table from the same
coefficient formulas.  A zero numerator ends the fraction exactly: the
backward step there leaves the tail at 1 + 0/tail = 1.0 whatever lies
beyond it, so no pass runs past the first zero, and a zero within the
requested depth makes the two passes one.

The continued fractions, the hypergeometric series and the confluent
identity also take arrays: K independent rows (or points) in one call, each
entry bitwise equal to the call on that row alone.  A row that fails sends
the call through its rows one by one, so the error raised is the one a loop
over the rows would meet first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, NonConvergent, ParameterOutOfRange, ZeroDenominator
from .families import FamilySpec, eval_derivs, eval_table, norm_products
from .kernels import KernelContext

__all__ = [
    "confluent_cd",
    "kernel_ratio_limit",
    "kernel_ratio_limits",
    "evaluate_cf",
    "gauss_cf_ratio",
    "kummer_cf_ratio",
    "laguerre_ratio_cf",
    "jacobi_ratio_cf",
    "hyp_series",
    "ChainSequence",
    "chain_params",
]

_TINY = 1e-300


def confluent_cd(family: FamilySpec, n: int, x):
    """Both sides of the confluent Christoffel-Darboux identity at x.

    lhs = sum_j P_j(x)^2 / (lambda_1...lambda_{j+1});
    rhs = (P'_{n+1} P_n - P_{n+1} P'_n) / (lambda_1...lambda_{n+1}).

    A number x gives two floats; a point vector gives two arrays, one entry
    per point, each bitwise the one-point call's.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    xs = np.atleast_1d(np.asarray(x))
    values = eval_table(family, n + 1, xs)
    derivs = eval_derivs(family, n + 1, xs, values)
    lhs, rhs = _confluent_sides(values, derivs, norm_products(family, n + 1), n)
    if np.ndim(x):
        return lhs, rhs
    return float(lhs[0]), float(rhs[0])


def _confluent_sides(values: np.ndarray, derivs: np.ndarray, norms: np.ndarray, n: int):
    """lhs and rhs of the confluent identity at degree n, one entry per
    column of the tables of P_j and P'_j (rows j = 0..n+1 at least) and
    the norm products N_j."""
    # one contiguous row per point, summed along it: the order a 1-D sum takes
    lhs = (np.ascontiguousarray(values[: n + 1].T) ** 2 / norms[: n + 1]).sum(axis=1)
    rhs = (derivs[n + 1] * values[n] - values[n + 1] * derivs[n]) / norms[n]
    return lhs, rhs


def kernel_ratio_limit(ctx: KernelContext, n: int) -> tuple[float, float]:
    """Limits (r_up, r_down) of Pk_{n+1}/Pk_n and its reciprocal as x -> k.

    Computed from the ratio-form caches, so large n is safe; the exact
    algebraic identity r_up * r_down = 1 survives in floating point to
    roughly machine precision.  Entry n of ``kernel_ratio_limits``, as
    Python floats, or complex numbers when r_up has an imaginary part.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    r_up, r_down = (r[n] for r in kernel_ratio_limits(ctx, n))
    if abs(np.imag(r_up)) == 0.0:
        return float(np.real(r_up)), float(np.real(r_down))
    return complex(r_up), complex(r_down)


def kernel_ratio_limits(ctx: KernelContext, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the limits (r_up, r_down) of Pk_{n+1}/Pk_n and its
    reciprocal as x -> k for n = 0..n_max, in the dtype of the context
    caches; non-finite entries are left in place for the caller.
    """
    if n_max + 1 >= ctx.ratios.size:
        raise ValueError(f"n={n_max} exceeds the cached ratio range {ctx.ratios.size - 2}")
    top = n_max + 2
    # at [n]: lambda_{n+2}, rho = P_{n+1}(k)/P_n(k), t = P_{n+1}^2(k)/N_{n+1}, S_n and S_{n+1}
    lam_n2 = ctx.family.table(top)[1:, 1]
    rho, t = ctx.ratios[1:top], ctx.weighted_squares[1:top]
    s_n, s_n1 = ctx.cd_partials[: top - 1], ctx.cd_partials[1:top]
    r_up = (1.0 / rho) * lam_n2 * (1.0 + t / s_n)
    r_down = rho * (1.0 / lam_n2) * (1.0 - t / s_n1)
    return r_up, r_down


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def _nonpositive_integer(v: np.ndarray) -> np.ndarray:
    """Where v is an integer <= 0: ``v <= 0 and float(v).is_integer()``
    over an array."""
    return (v <= 0.0) & np.isfinite(v) & (np.trunc(v) == v)


def _backward_pass(b: list, z: float) -> float:
    """1/(1 + b[0] z/(1 + ... b[-1] z/1)) by backward recurrence."""
    tail = 1.0
    for b_j in reversed(b):
        if abs(tail) < _TINY:
            tail = math.copysign(_TINY, tail if tail != 0.0 else 1.0)
        tail = 1.0 + b_j * z / tail
    if abs(tail) < _TINY:
        raise ZeroDenominator("continued fraction denominator vanished at the top level")
    return 1.0 / tail


def _backward_rows(b: np.ndarray, z: np.ndarray, depth: int) -> np.ndarray:
    """``_backward_pass`` over the rows of ``b`` at depth and at depth+10:
    the top-level denominators, shape (2, K), before the final division.

    The depth+10 pass takes the columns from depth on alone, then both
    passes take each column together; every step is the scalar pass's, row
    by row.  The loop starts below the deepest of the rows' first zero
    numerators (``evaluate_cf`` says why that is exact): every row's tail is
    1.0 just below its own first zero, whatever the steps above it computed.
    """
    zero = b[:, : depth + 10] == 0.0
    start = int(zero.argmax(axis=1).max()) if zero.any(axis=1).all() else depth + 10
    tails = np.ones((2, len(z)))
    for j in range(start - 1, -1, -1):
        rows = tails if j < depth else tails[1:]
        small = np.abs(rows) < _TINY
        if small.any():
            rows[...] = np.where(small, np.copysign(_TINY, np.where(rows != 0.0, rows, 1.0)), rows)
        rows[...] = 1.0 + b[:, j] * z / rows
    return tails


def evaluate_cf(b, z, depth: int, rtol: float = 1e-13):
    """Evaluate 1/(1 + b_1 z/(1 + b_2 z/...)) at depth and depth+10.

    ``b`` holds the signed partial numerators b_1..b_{depth+10} (the leading
    numerator is always 1), as an array or a list; a 1-D ``b`` may instead
    stop at its first zero, which must then be its last entry.  The two
    backward passes must agree to ``rtol`` relative; a tiny-floor rescue is
    applied to vanishing intermediate denominators and counts as agreement
    only if both passes still match.  ``z`` must be finite.

    A zero numerator b_j ends the fraction exactly.  The backward step at j
    sets the tail to 1 + (b_j z)/tail = 1 + (+-0)/tail, which is exactly 1.0
    when the tail is finite and nonzero (the floor keeps it off zero) or
    infinite, the same value the first step of a pass starts from.  So each
    pass starts just below the first zero, and when the zero lies within
    b_1..b_{depth+1} the depth and depth+10 passes are one pass, run once.
    Precondition: the tail reaching the zero is not NaN, which holds when
    every product b_j z beyond it is finite (a finite z with finite,
    moderate numerators, as opx's own fractions have); an untruncated pass
    would carry such a NaN through the zero into the value.

    A (K, depth+10) ``b`` with a (K,) ``z`` evaluates K fractions in one
    array pass and returns their values as an array; a 1-D ``b`` runs the
    backward recurrence on Python floats.
    """
    if depth < 1:
        raise ParameterOutOfRange(f"depth must be >= 1, got {depth}")
    top = depth + 10
    if isinstance(b, np.ndarray) and b.ndim == 2:
        if b.shape[1] < top:
            raise ValueError(f"need {top} partial numerators, got {b.shape[1]}")
        with np.errstate(all="ignore"):
            tails = _backward_rows(b, z, depth)
            v1, v2 = 1.0 / tails
            failed = (
                ~np.isfinite(z)
                | (np.abs(tails) < _TINY).any(axis=0)
                | (np.abs(v1 - v2) > rtol * np.maximum(1.0, np.abs(v2)))
            )
        if failed.any():
            return np.array([evaluate_cf(b_i, z_i, depth, rtol) for b_i, z_i in zip(b, z.tolist())])
        return v2
    b = b[:top].tolist() if isinstance(b, np.ndarray) else b[:top]
    stop = b.index(0.0) if 0.0 in b else len(b)  # the numerators before the first zero
    if len(b) < top and stop != len(b) - 1:
        raise ValueError(f"need {top} partial numerators, got {len(b)} not ending at the first zero")
    if not math.isfinite(z):
        raise ParameterOutOfRange(f"z must be finite, got {z}")
    v1 = _backward_pass(b[: min(depth, stop)], z)
    v2 = v1 if stop <= depth else _backward_pass(b[:stop], z)
    if abs(v1 - v2) > rtol * max(1.0, abs(v2)):
        raise NonConvergent(f"depth {depth} and {top} disagree: {v1} vs {v2}")
    return v2


# Each coefficient formula below is written once, for numbers and for arrays
# alike: a scalar call runs it on Python floats, an array call on columns.


def _g_even(p, r, k):
    """g_{2k} = (p+k)/(r+2k-1)."""
    return (p + k) / (r + 2 * k - 1)


def _g_odd(q, r, k):
    """g_{2k-1} = (q+k-1)/(r+2k-2)."""
    return (q + k - 1) / (r + 2 * k - 2)


def _g_numerator(g_prev, g):
    """The g-fraction's partial numerator b_j = -(1 - g_{j-1}) g_j."""
    return -((1.0 - g_prev) * g)


def _gauss_g(p, q, r, m: int) -> np.ndarray:
    """g_0..g_m: g_0 = 0 and the ``_g_even``/``_g_odd`` entries.

    Column vectors p, q, r of shape (K, 1) give one row per entry, (K, m+1).
    """
    j = np.arange(m + 1.0)
    k = (j + 1) // 2
    # np.where evaluates both rows at every j; a discarded value divides by
    # zero at r = 1 or 2
    with np.errstate(all="ignore"):
        g = np.where(j % 2 == 0, _g_even(p, r, k), _g_odd(q, r, k))
    g[..., :1] = 0.0
    return g


def _gauss_table(p, q, r, m: int) -> np.ndarray:
    """b_1..b_m of the g-fraction from the ``_gauss_g`` table."""
    g = _gauss_g(p, q, r, m)
    return _g_numerator(g[..., :-1], g[..., 1:])


def _gauss_numerators(p: float, q: float, r: float, m: int):
    """b_1..b_m of the g-fraction for numbers p, q, r, as Python floats up
    to the first zero.  Where a denominator rounds to zero Python raises and
    numpy divides on to inf or NaN, so that call takes numpy's row."""
    p, q, r = float(p), float(q), float(r)
    b, g_prev = [], 0.0
    try:
        for j in range(1, m + 1):
            k = float((j + 1) // 2)
            g = _g_odd(q, r, k) if j % 2 else _g_even(p, r, k)
            b.append(_g_numerator(g_prev, g))
            if b[-1] == 0.0:
                break
            g_prev = g
    except ZeroDivisionError:
        return _gauss_table(p, q, r, m)
    return b


def gauss_cf_ratio(p, q, r, z, depth: int = 60):
    """F(p+1, q; r; z) / F(p, q; r; z) as a g-fraction.

    Partial numerators -(1 - g_{j-1}) g_j z with the g table
    g_{2k} = (p+k)/(r+2k-1), g_{2k-1} = (q+k-1)/(r+2k-2).  Terminates
    exactly when p or q is a nonpositive integer; otherwise needs |z| < 1.

    A (K,) array z gives the K ratios as an array; each parameter is a
    number or a (K,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        p, q, r, z = np.broadcast_arrays(p, q, r, z)
        terminating = _nonpositive_integer(p) | _nonpositive_integer(q)
        if (_nonpositive_integer(r) | ~terminating & (np.abs(z) >= 1.0)).any():
            rows = zip(p.tolist(), q.tolist(), r.tolist(), z.tolist())
            return np.array([gauss_cf_ratio(*row, depth) for row in rows])
        return evaluate_cf(_gauss_table(p[:, None], q[:, None], r[:, None], depth + 10), z, depth)
    if r <= 0.0 and float(r).is_integer():
        raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
    p_ends = p <= 0 and float(p).is_integer()
    q_ends = q <= 0 and float(q).is_integer()
    if not (p_ends or q_ends) and abs(z) >= 1.0:
        raise Divergent(f"non-terminating ratio needs |z| < 1, got z={z}")
    # Python floats pay per numerator and numpy per table.  A numerator
    # vanishes when p is a negative integer (g_{-2p} = 0) or q a nonpositive
    # one (g_{1-2q} = 0); without such a zero the fraction takes all depth+10
    # numerators, which one table builds faster (45 against 119 us at depth
    # 200 on a 2-core x86 host)
    build = _gauss_numerators if q_ends or (p_ends and p < 0) else _gauss_table
    return evaluate_cf(build(p, q, r, depth + 10), z, depth)


def _d_even(p, r, k):
    """d_{2k} = -(p+k)/((r+2k-1)(r+2k-2))."""
    return -(p + k) / ((r + 2 * k - 1) * (r + 2 * k - 2))


def _d_odd(p, r, k):
    """d_{2k-1} = (r-p+k-2)/((r+2k-3)(r+2k-2)) for k >= 2."""
    return (r - p + k - 2) / ((r + 2 * k - 3) * (r + 2 * k - 2))


def _kummer_d(p, r, m: int) -> np.ndarray:
    """d_1..d_m, the q -> infinity limit of (1 - g_{j-1}) g_j / q.

    d_1 = 1/r, then the ``_d_even``/``_d_odd`` entries: the odd ones are
    what the series oracle confirms (an index-shifted variant also
    circulates).  Column vectors p, r of shape (K, 1) give one row per
    entry, (K, m).
    """
    j = np.arange(1.0, m + 1)
    k = (j + 1) // 2
    # np.where evaluates both rows at every j, and the odd row is replaced at
    # j = 1; a discarded value divides by zero at r = 1
    with np.errstate(all="ignore"):
        d = np.where(j % 2 == 0, _d_even(p, r, k), _d_odd(p, r, k))
    d[..., :1] = 1.0 / r
    return d


def _kummer_d_list(p: float, r: float, m: int) -> list:
    """``_kummer_d`` for numbers p, r, as Python floats up to the first
    zero (numpy's row where a denominator rounds to zero, as in
    ``_gauss_numerators``)."""
    p, r = float(p), float(r)
    try:
        d = [1.0 / r]
        for j in range(2, m + 1):
            if d[-1] == 0.0:
                break
            k = float((j + 1) // 2)
            d.append(_d_odd(p, r, k) if j % 2 else _d_even(p, r, k))
    except ZeroDivisionError:
        return _kummer_d(p, r, m).tolist()
    return d


def kummer_cf_ratio(p, r, z, depth: int = 60):
    """phi(p+1; r; z) / phi(p; r; z) as the confluent limit fraction.

    All partial numerators carry the minus sign: 1/(1 - d_1 z/(1 - d_2 z/...)).
    A (K,) array z gives the K ratios as an array; each parameter is a
    number or a (K,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        p, r, z = np.broadcast_arrays(p, r, z)
        if _nonpositive_integer(r).any():
            rows = zip(p.tolist(), r.tolist(), z.tolist())
            return np.array([kummer_cf_ratio(*row, depth) for row in rows])
        return evaluate_cf(-_kummer_d(p[:, None], r[:, None], depth + 10), z, depth)
    if r <= 0.0 and float(r).is_integer():
        raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
    # as in gauss_cf_ratio: Python floats when p is a negative integer
    # (d_{-2p} = 0), else the table
    if p < 0 and float(p).is_integer():
        d = _kummer_d_list(p, r, depth + 10)
    else:
        d = _kummer_d(p, r, depth + 10).tolist()
    return evaluate_cf([-d_j for d_j in d], z, depth)


def laguerre_ratio_cf(
    gamma: float, n: int, x: float, depth: int = 60
) -> tuple[float, float, float]:
    """Laguerre kernel-ratio pieces at shift 0 for parameter gamma.

    Returns (cf_value, same_param_prefactor, mixed_param_prefactor) where
    cf_value is the plus-signed fraction for
    phi(-n+1; gamma+2; -x) / phi(-n; gamma+2; -x) in the variable x, i.e.
    with coefficients dt_1 = 1/(gamma+2),
    dt_{2k} = (n-k)/((gamma+2k)(gamma+2k+1)) and
    dt_{2k-1} = (gamma+n+k)/((gamma+2k-1)(gamma+2k)) for k >= 2.

    The same-parameter prefactor is (1/n^2) sqrt(B(n, gamma+2)/(n B(n,
    gamma+1))) via log-Gamma; the mixed prefactor
    gamma^2 / (n^(3/2) (n+gamma)(gamma+1)(n+gamma-1)) needs gamma > 0 and is
    NaN otherwise.  Both prefactors are reporting targets: they are compared
    against directly computed kernel ratios, never hard-asserted.
    """
    if not gamma > -1.0:
        raise ParameterOutOfRange(f"gamma must exceed -1, got {gamma}")
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")

    cf_value = evaluate_cf(_kummer_d_list(-float(n), gamma + 2.0, depth + 10), x, depth)

    def log_beta(a: float, b: float) -> float:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    same = (1.0 / n**2) * math.exp(
        0.5 * (log_beta(n, gamma + 2.0) - math.log(n) - log_beta(n, gamma + 1.0))
    )
    if gamma > 0.0:
        mixed = gamma**2 / (n**1.5 * (n + gamma) * (gamma + 1.0) * (n + gamma - 1.0))
    else:
        mixed = math.nan
    return cf_value, same, mixed


def jacobi_ratio_cf(
    gamma: float, delta: float, n: int, x: float, depth: int = 60
) -> tuple[float, float]:
    """Jacobi kernel-ratio pieces at shift 1: (cf_value, prefactor).

    cf_value is the minus-signed g-fraction in the variable (1-x)/2 with
    e_{2k} = (-n+k)/(gamma+2k+1), e_{2k-1} = (n+gamma+delta+k)/(gamma+2k),
    equal to F(-n+1, n+gamma+delta+1; gamma+2; (1-x)/2) /
    F(-n, n+gamma+delta+1; gamma+2; (1-x)/2).  The prefactor is

        C = sqrt((gamma+delta+2)^2 (2n+gamma+delta+1)(2n+gamma+delta)^3
                 / (32 n^3 (n+gamma+1)(gamma+1)^2 delta^2)),

    a reporting target like the Laguerre prefactors.
    """
    if not (gamma > -1.0 and delta > 0.0):
        raise ParameterOutOfRange(
            f"need gamma > -1 and delta > 0, got ({gamma}, {delta})"
        )
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    if not (-1.0 < x <= 1.0):
        raise ParameterOutOfRange(f"x must lie in (-1, 1], got {x}")
    u = (1.0 - x) / 2.0
    cf_value = gauss_cf_ratio(-float(n), n + gamma + delta + 1.0, gamma + 2.0, u, depth)
    s = gamma + delta
    prefactor = math.sqrt(
        (s + 2.0) ** 2
        * (2 * n + s + 1.0)
        * (2 * n + s) ** 3
        / (32.0 * n**3 * (n + gamma + 1.0) * (gamma + 1.0) ** 2 * delta**2)
    )
    return cf_value, prefactor


def hyp_series(kind: str, params: tuple, z, terms: int = 200):
    """Hypergeometric sum over at most ``terms`` terms, exact when it terminates.

    kind "2F1" with params (p, q, r) or "1F1" with params (p, r).  A
    nonpositive-integer numerator parameter terminates the series exactly;
    otherwise 2F1 requires |z| < 1.  z must be finite, terms that overflow
    raise ParameterOutOfRange, and a series still running after ``terms``
    terms raises NonConvergent unless its last kept term is below 1e-16 of
    the sum of the kept terms' magnitudes.

    The terms are the running products of the term ratios, taken by one
    ``cumprod`` and summed exactly with ``math.fsum`` (alternating
    terminating sums cancel heavily).  A (K,) array z gives the K sums as
    an array; each parameter is a number or a (K,) array.
    """
    sizes = {"2F1": 3, "1F1": 2}
    if kind not in sizes:
        raise ValueError(f"kind must be '2F1' or '1F1', got {kind!r}")
    if len(params) != sizes[kind]:
        raise ValueError(f"{kind} takes {sizes[kind]} parameters, got {len(params)}")
    if terms < 1:
        raise ParameterOutOfRange(f"terms must be >= 1, got {terms}")
    batch = isinstance(z, np.ndarray) and z.ndim
    if batch:
        *params, z = np.broadcast_arrays(*params, z)
    *numerators, r = params
    if batch:
        terminating = np.logical_or.reduce([_nonpositive_integer(v) for v in numerators])
        failed = _nonpositive_integer(r) | ~np.isfinite(z)
        if kind == "2F1":
            failed |= ~terminating & (np.abs(z) >= 1.0)
        if failed.any():
            return _series_rows(kind, params, z, terms)
    else:
        if r <= 0.0 and float(r).is_integer():
            raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
        if not math.isfinite(z):
            raise ParameterOutOfRange(f"z must be finite, got {z}")
        terminating = any(v <= 0 and float(v).is_integer() for v in numerators)
        if kind == "2F1" and not terminating and abs(z) >= 1.0:
            raise Divergent(f"non-terminating 2F1 needs |z| < 1, got z={z}")
    # a terminating row's first zero is term 1 - v of its nonpositive-integer
    # numerator v, so the table ends at the deepest row's zero; term `terms`
    # is formed only to see whether the series has ended.  A row whose terms
    # overflow before its zero has NaN there (inf * 0) and no zero at all.
    *tops, r_col, z_col = (np.reshape(v, (-1, 1)) for v in (*params, z))
    first_zero = np.min([np.where(_nonpositive_integer(v), 1.0 - v, np.inf) for v in numerators], axis=0)
    width = int(min(terms, np.max(first_zero, initial=0.0))) + 1
    series = _term_table(tops, r_col, z_col, width)
    # a row ends before its first zero term; cut the columns no row reaches
    ended = series == 0.0
    lengths = np.where(ended.any(axis=1), ended.argmax(axis=1), terms + 1)
    kept = series[:, : min(lengths.max(initial=1), terms)]
    if not np.isfinite(kept).all():
        if batch:
            return _series_rows(kind, params, z, terms)
        raise ParameterOutOfRange(f"{kind} terms overflow the float range at z={z}")
    running = lengths > terms
    if running.any():
        with np.errstate(all="ignore"):
            scale = np.abs(kept).sum(axis=1)
            running &= np.abs(kept[:, -1]) > 1e-16 * scale
        if running.any():
            if batch:
                return _series_rows(kind, params, z, terms)
            raise NonConvergent(
                f"{kind} series still running after {terms} terms: last term "
                f"{kept[0, -1]} against a magnitude sum of {scale[0]}"
            )
    sums = [math.fsum(row[:n].tolist()) for row, n in zip(kept, lengths.tolist())]
    return np.array(sums) if batch else sums[0]


def _term_table(tops: list, r_col: np.ndarray, z_col: np.ndarray, width: int) -> np.ndarray:
    """Terms 0..width-1 of each row, one row per entry: term m+1 = term m *
    (p+m)(q+m)/((r+m)(m+1)) z, as the running products of the ratios."""
    m = np.arange(float(width - 1))
    series = np.empty((len(z_col), width))
    series[:, 0] = 1.0
    ratio = series[:, 1:]
    with np.errstate(all="ignore"):
        np.add(tops[0], m, out=ratio)
        for q_col in tops[1:]:
            ratio *= q_col + m
        den = r_col + m
        den *= m + 1.0
        ratio /= den
        ratio *= z_col
        np.cumprod(series, axis=1, out=series)
    return series


def _series_rows(kind: str, params: list, z: np.ndarray, terms: int) -> np.ndarray:
    """``hyp_series`` row by row: the error path of an array call."""
    rows = zip(*(v.tolist() for v in params), z.tolist())
    return np.array([hyp_series(kind, row[:-1], row[-1], terms) for row in rows])


# ---------------------------------------------------------------------------
# chain sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSequence:
    """A sequence l_n with its minimal parameters m_n (m_0 = 0).

    ``positive`` records whether every computed m_n lies in (0, 1), the
    positive chain sequence criterion.  ``complementary`` holds the same
    data for k_n = 1 - l_n (one level deep).
    """

    l: np.ndarray
    m: np.ndarray
    positive: bool
    complementary: "ChainSequence | None" = None


def _minimal_params(l: np.ndarray, sequence: str = "") -> np.ndarray:
    """m_0..m_N of l_1..l_N: m_0 = 0 and m_n = l_n / (1 - m_{n-1}).

    A 1-D ``l`` runs on Python floats.  A (K, N) ``l`` gives one row of
    m per row of l, (K, N+1), by running the recurrence column by column,
    each entry bitwise the 1-D call's.  Raises ZeroDenominator, naming
    ``sequence``, where some m_{n-1} is exactly 1; a 2-D call that meets one
    reruns its rows one by one, so it raises the error a loop over the rows
    meets first.
    """
    if l.ndim == 2:
        m = np.zeros((len(l), l.shape[1] + 1))
        with np.errstate(divide="ignore", invalid="ignore"):  # checked below
            for n, l_n in enumerate(l.T, start=1):
                m[:, n] = l_n / (1.0 - m[:, n - 1])
        # 1 - m == 0 exactly when m == 1
        if (m[:, :-1] == 1.0).any():
            return np.array([_minimal_params(row, sequence) for row in l])
        return m
    m = [0.0]
    try:
        for l_n in l.tolist():
            m.append(l_n / (1.0 - m[-1]))
    except ZeroDivisionError:  # Python's float division by 1 - m_{n-1} == 0
        raise ZeroDenominator(f"minimal parameter recurrence hits m_{len(m) - 1} = 1{sequence}") from None
    return np.array(m)


def chain_params(l, n_max: int | None = None) -> ChainSequence:
    """Minimal parameters m_n = l_n / (1 - m_{n-1}) and positivity verdict.

    ``l`` is the sequence l_1..l_N, cut to its first n_max values (a
    ValueError when it has fewer), or a callable n -> l_n used for
    n = 1..n_max.  The complementary sequence k_n = 1 - l_n is analyzed
    the same way and attached.  Raises ZeroDenominator when some m_n of
    either sequence is exactly 1, which leaves m_{n+1} undefined; the
    message names the complementary sequence when the breakdown is in it.
    """
    if callable(l):
        if n_max is None:
            raise ValueError("n_max is required when l is a callable")
        l_arr = np.array([float(l(n)) for n in range(1, n_max + 1)])
    else:
        l_arr = np.asarray(l, dtype=float)
        if n_max is not None:
            if n_max > l_arr.size:
                raise ValueError(f"n_max={n_max} exceeds the {l_arr.size} values of l")
            l_arr = l_arr[:n_max]
    if l_arr.size < 1:
        raise ValueError("need at least one chain element")
    m = _minimal_params(l_arr)
    positive = bool(np.all((m[1:] > 0.0) & (m[1:] < 1.0)))
    comp_l = 1.0 - l_arr
    comp_m = _minimal_params(comp_l, " in the complementary sequence k_n = 1 - l_n")
    comp_positive = bool(np.all((comp_m[1:] > 0.0) & (comp_m[1:] < 1.0)))
    comp = ChainSequence(l=comp_l, m=comp_m, positive=comp_positive)
    return ChainSequence(l=l_arr, m=m, positive=positive, complementary=comp)
