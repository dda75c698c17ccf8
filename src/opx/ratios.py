"""Ratio limits of kernel polynomials, continued fractions for
hypergeometric ratios, and chain-sequence utilities.

The ratio of consecutive kernel polynomials at the shift itself has the
closed form (all sums taken at k)

    lim_{x->k} Pk_{n+1}/Pk_n = (P_n/P_{n+1}) lambda_{n+2} (1 + t_{n+1}/S_n),

with t_j = P_j^2/(lambda_1...lambda_{j+1}) and S_n = t_0 + ... + t_n; the
reciprocal direction replaces (1 + t_{n+1}/S_n) by (1 - t_{n+1}/S_{n+1}),
so the product of the two directions is exactly 1.  Evaluation runs on the
ratio-form context caches, so the under- and overflow of the raw P_n(k)
does not reach it; t_j and S_j themselves still overflow once P_j(k)^2/N_j
passes the double range, which on chebyshev1 at k = 2 leaves the limits
non-finite from n = 270 on (ROADMAP item 2).

Every continued fraction 1/(1 + s_1 a_1 z/(1 + s_2 a_2 z/(...))) is held as
its signed partial numerators b_j = s_j a_j, j = 1..depth+10, and evaluated
by backward recurrence at the requested depth (>= 1) and again at depth+10
(``evaluate_cf``).  A zero numerator ends a fraction exactly, so nothing
past the first zero reaches the value.  A scalar call forms its numerators
as a list of Python floats, two per step, up to the first zero its
parameters give, or to b_{depth+10}, and runs one backward pass over it
(``_list_fraction``); an array call builds a table up to the deepest row's
first zero.  Both use the same coefficient formulas with the same IEEE
operations in the same order.

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
_RTOL = 1e-13  # the agreement of a fraction's depth and depth+10 values


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


def _zeros_past(ends: np.ndarray, top: int, table) -> np.ndarray:
    """A (K, top) numerator table: ``table(m)``, the (K, m) numerators
    b_1..b_m, up to the deepest of the rows' first zeros b_``ends`` (or all
    ``top`` of them), then zeros.  The fraction of each row ends at its own
    first zero (``evaluate_cf``), so the numerators past it do not reach the
    value, and the zeros keep every row's fraction ending where it did."""
    m = int(min(np.max(ends, initial=0.0), top))
    if m == top:
        return table(top)
    b = np.zeros((len(ends), top))
    b[:, :m] = table(m)
    return b


def _backward_pass(b: list, z: float) -> float:
    """The top-level denominator 1 + b[0] z/(1 + ... b[-1] z/1) by backward
    recurrence on Python floats, before the final division.

    The only tiny floor of the module.  A tail is 1.0 + y for a double y, so
    it is 0 or at least 2^-53 in magnitude (Sterbenz's lemma; see
    ``evaluate_cf``), and a tail below the floor is an exact +-0.  There the
    division raises ZeroDivisionError, and the step divides by +_TINY
    instead, as the floor copysign(_TINY, tail or 1.0) did for +-0.
    """
    tail = 1.0
    for b_j in reversed(b):
        try:
            tail = 1.0 + b_j * z / tail
        except ZeroDivisionError:
            tail = 1.0 + b_j * z / _TINY
    return tail


def _list_end(depth: int, *zeros: float) -> int:
    """The last numerator b_end a fraction at ``depth`` reads: the first of
    ``zeros`` (inf for none), where the fraction ends, or b_{depth+10}."""
    if depth < 1:
        raise ParameterOutOfRange(f"depth must be >= 1, got {depth}")
    return int(min((depth + 10, *zeros)))


def _list_fraction(b: list, z, depth: int, sign: float = 1.0) -> float:
    """``evaluate_cf`` of Python floats b_1..b_end, end <= depth+10: the
    evaluation of every 1-D ``b`` and every scalar fraction.  ``sign`` -1.0
    evaluates the numerators -b_j: the passes take b at -z, since
    (-b_j) z is bitwise b_j (-z), and an error names z and -b_j.

    One backward pass over all of b gives the value at end, and a second
    over b_1..b_depth runs only where the first zero is past b_{depth+1}.
    A pass runs through a zero numerator, whose step sets the tail to
    exactly 1.0 unless a NaN tail reaches it (``evaluate_cf``), and a NaN
    tail stays NaN up to the top: a pass that ends on a number is the pass
    that starts below the first zero.  One that ends on NaN, or numerators
    whose sum (the witness that all of them are finite) is not, take the
    numerators before the first zero alone, and the first of those that is
    not finite raises ParameterOutOfRange.
    """
    if not math.isfinite(z):
        raise ParameterOutOfRange(f"z must be finite, got {z}")
    z = sign * float(z)
    tail = _backward_pass(b, z)
    if tail != tail or not math.isfinite(sum(b)):
        stop = b.index(0.0) if 0.0 in b else len(b)
        j = next((j for j, b_j in enumerate(b[:stop], 1) if not math.isfinite(b_j)), 0)
        if j:
            raise ParameterOutOfRange(f"partial numerator b_{j} = {sign * b[j - 1]} is not finite")
        if stop < len(b):
            b = b[:stop]
            tail = _backward_pass(b, z)
    at_depth = tail if len(b) <= depth or 0.0 in b[: depth + 1] else _backward_pass(b[:depth], z)
    if at_depth == 0.0 or tail == 0.0:
        raise ZeroDenominator("continued fraction denominator vanished at the top level")
    v1, v2 = 1.0 / at_depth, 1.0 / tail
    if abs(v1 - v2) > _RTOL * max(1.0, abs(v2)):
        raise NonConvergent(f"depth {depth} and {depth + 10} disagree: {v1} vs {v2}")
    return v2


def _backward_rows(b: np.ndarray, z: np.ndarray, depth: int) -> np.ndarray:
    """``_backward_pass`` over the rows of ``b`` at depth and at depth+10:
    the top-level denominators, shape (2, K), before the final division.

    The depth+10 pass takes the columns from depth on alone, then both
    passes take each column together; every step is the scalar pass's, row
    by row: one division by the tails of the products b_j z, all formed at
    once, and one addition.  The loop starts below the deepest of the rows'
    first zero numerators (``evaluate_cf`` says why that is exact): every
    row's tail is 1.0 just below its own first zero, whatever the steps
    above it computed.  No step applies the tiny floor: a tail is 0 or at
    least 2^-53 in magnitude (``_backward_pass``), so the floor would act on
    an exact zero alone, and there the division raises FloatingPointError
    (divide, or invalid for 0/0) under ``evaluate_cf``'s error state.
    """
    zero = b[:, : depth + 10] == 0.0
    start = int(zero.argmax(axis=1).max(initial=0)) if zero.any(axis=1).all() else depth + 10
    bz = b[:, :start].T * z
    tails = np.ones((2, len(z)))
    for j in range(start - 1, -1, -1):
        rows = tails if j < depth else tails[1:]
        np.divide(bz[j], rows, out=rows)
        rows += 1.0
    return tails


def evaluate_cf(b, z, depth: int):
    """Evaluate 1/(1 + b_1 z/(1 + b_2 z/...)) at depth and depth+10.

    ``b`` holds the signed partial numerators b_1..b_{depth+10} (the leading
    numerator is always 1), as an array or a list; a 1-D ``b`` may instead
    stop at its first zero, which must then be its last entry.  The two
    backward passes must agree to 1e-13 max(1, |v|): relative above |v| = 1
    and absolute below it, so a value near zero may keep little relative
    accuracy (``gauss_cf_ratio`` gives an example).  ``z`` and the numerators
    before the first zero must be finite (ParameterOutOfRange otherwise);
    they are real, and a 1-D call takes them as Python floats.

    An intermediate denominator, a tail 1 + y for a double y, is either 0 or
    at least 2^-53 in magnitude: by Sterbenz's lemma the sum is exact for y
    in [-2, -1/2], and outside that range it is at least 1/2 from 0.  So the
    tiny-floor rescue (a vanishing tail replaced by 1e-300) acts only on an
    exact zero, and lives in the scalar pass alone, where the division by
    that zero raises (``_backward_pass``); a rescued value counts as
    agreement only if both passes still match.

    A zero numerator b_j ends the fraction exactly.  The backward step at j
    sets the tail to 1 + (b_j z)/tail = 1 + (+-0)/tail, which is exactly 1.0
    when the tail is finite and nonzero (the floor keeps it off zero) or
    infinite, the same value the first step of a pass starts from.  So a
    pass may start just below the first zero or run through it, and when
    the zero lies within b_1..b_{depth+1} the depth and depth+10 passes are
    one pass, run once.  A 1-D pass runs through it, and runs again on the
    numerators before it where a NaN tail reached it (``_list_fraction``).
    The array pass starts below the deepest of its rows' first zeros, and a
    step that would make a NaN tail there raises FloatingPointError
    (invalid), which sends the call through its rows.

    A (K, depth+10) ``b`` with a (K,) ``z`` evaluates K fractions in one
    array pass with no floor and returns their values as an array.  A row
    that fails or is not finite, or a division by an exact zero tail
    anywhere in the pass, sends the call through its rows one by one, which
    give the floored values bit for bit and the error a loop over the rows
    meets first.  A 1-D ``b`` runs the backward recurrence on Python floats,
    as every scalar fraction does.
    """
    top = _list_end(depth)
    if isinstance(b, np.ndarray) and b.ndim == 2:
        if b.shape[1] < top:
            raise ValueError(f"need {top} partial numerators, got {b.shape[1]}")
        try:
            with np.errstate(all="ignore", divide="raise", invalid="raise"):
                v1, v2 = 1.0 / _backward_rows(b, z, depth)
        except FloatingPointError:  # a division by an exact zero tail
            failed = True
        else:
            failed = (
                ~np.isfinite(z)
                | ~np.isfinite(b[:, :top]).all(axis=1)
                | (np.abs(v1 - v2) > _RTOL * np.maximum(1.0, np.abs(v2)))
            ).any()
        if failed:
            return np.array([evaluate_cf(b_i, z_i, depth) for b_i, z_i in zip(b, z.tolist())])
        return v2
    b = b[:top].tolist() if isinstance(b, np.ndarray) else b[:top]
    if len(b) < top and (not b or b[-1] != 0.0 or 0.0 in b[:-1]):
        raise ValueError(f"need {top} partial numerators, got {len(b)} not ending at the first zero")
    # the division of a numpy scalar by zero does not raise
    return _list_fraction(list(map(float, b)), z, depth)


# Each coefficient formula below is written once as a helper, run on columns
# by the array builders.  The scalar lists spell it inline on Python floats,
# in the helpers' operation order and with k as floats, so that each scalar
# numerator is bitwise its array entry (test_scalar_numerator_lists_match_the_helpers).
# A denominator r + (2k - c) adds an exact integer to r, so it is zero only
# at r = c - 2k exactly, a nonpositive integer that the callers reject.


def _g_even(p, r, k):
    """g_{2k} = (p+k)/(r+(2k-1))."""
    return (p + k) / (r + (2.0 * k - 1.0))


def _g_odd(q, r, k):
    """g_{2k-1} = (q+k-1)/(r+(2k-2))."""
    return (q + k - 1.0) / (r + (2.0 * k - 2.0))


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
    with np.errstate(all="ignore"):  # rows that are not finite: see evaluate_cf
        return _g_numerator(g[..., :-1], g[..., 1:])


def gauss_cf_ratio(p, q, r, z, depth: int = 60):
    """F(p+1, q; r; z) / F(p, q; r; z) as a g-fraction.

    Partial numerators -(1 - g_{j-1}) g_j z with the g table
    g_{2k} = (p+k)/(r+(2k-1)), g_{2k-1} = (q+k-1)/(r+(2k-2)).  Terminates
    exactly when p or q is a nonpositive integer; otherwise needs |z| < 1.
    A nonpositive-integer r raises ParameterOutOfRange; any other r keeps
    every denominator off zero, however close it lies to one.  The value is
    good to about 1e-13 max(1, |v|), absolute near zero (``evaluate_cf``):
    (-3, 1, nextafter(-2, -3), 0.5) gives 2.22e-15 for a ratio of 2.07e-15.

    A (K,) array z gives the K ratios as an array; each parameter is a
    number or a (K,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        p, q, r, z = np.broadcast_arrays(p, q, r, z)
        p_int, q_int = _nonpositive_integer(p), _nonpositive_integer(q)
        terminating = p_int | q_int
        # a row's first zero numerator is b_{-2p} (p < 0) or b_{1-2q}
        p_ends = np.where(p_int & (p < 0.0), -2.0 * p, np.inf)
        ends = np.minimum(p_ends, np.where(q_int, 1.0 - 2.0 * q, np.inf))
        b = _zeros_past(ends, depth + 10, lambda m: _gauss_table(p[:, None], q[:, None], r[:, None], m))
        if (_nonpositive_integer(r) | ~terminating & (np.abs(z) >= 1.0)).any():
            rows = zip(p.tolist(), q.tolist(), r.tolist(), z.tolist())
            return np.array([gauss_cf_ratio(*row, depth) for row in rows])
        return evaluate_cf(b, z, depth)
    if r <= 0.0 and float(r).is_integer():
        raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
    p_ends = p <= 0 and float(p).is_integer()
    q_ends = q <= 0 and float(q).is_integer()
    if not (p_ends or q_ends) and abs(z) >= 1.0:
        raise Divergent(f"non-terminating ratio needs |z| < 1, got z={z}")
    return _list_fraction(_gauss_list(p, q, r, depth), z, depth)


def _gauss_list(p, q, r, depth: int) -> list:
    """``_gauss_table`` for numbers p, q, r: Python floats b_1..b_end, b_end
    the first zero b_{-2p} or b_{1-2q} that p or q gives, or b_{depth+10}."""
    p, q, r = float(p), float(q), float(r)
    p_end = -2.0 * p if p < 0.0 and p.is_integer() else math.inf
    end = _list_end(depth, p_end, 1.0 - 2.0 * q if q <= 0.0 and q.is_integer() else math.inf)
    b, g_even = [], 0.0  # g_0 = 0; then b_{2k-1} and b_{2k} per step
    for k in map(float, range(1, (end + 1) // 2 + 1)):
        g_odd = (q + k - 1.0) / (r + (2.0 * k - 2.0))
        b_odd = -((1.0 - g_even) * g_odd)
        g_even = (p + k) / (r + (2.0 * k - 1.0))
        b += b_odd, -((1.0 - g_odd) * g_even)
    del b[end:]
    return b


def _d_even(p, r, k):
    """d_{2k} = -(p+k)/((r+(2k-1))(r+(2k-2)))."""
    return -(p + k) / ((r + (2.0 * k - 1.0)) * (r + (2.0 * k - 2.0)))


def _d_odd(p, r, k):
    """d_{2k-1} = (r-p+k-2)/((r+(2k-3))(r+(2k-2))) for k >= 2."""
    return (r - p + k - 2.0) / ((r + (2.0 * k - 3.0)) * (r + (2.0 * k - 2.0)))


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


def _kummer_list(p, r, depth: int) -> list:
    """``_kummer_d`` for numbers p, r: Python floats d_1..d_end, where d_end
    is the first zero d_{-2p} (p a negative integer) or d_{depth+10}."""
    p, r = float(p), float(r)
    end = _list_end(depth, -2.0 * p if p < 0.0 and p.is_integer() else math.inf)
    # then d_{2k}, d_{2k+1} per step; r + 2k is the next step's r + (2k - 2), as 2k is exact
    d, r_2k, r_p = [1.0 / r], r + 0.0, r - p
    for k in map(float, range(1, end // 2 + 1)):
        r_even, r_odd, r_2k = r_2k, r + (2.0 * k - 1.0), r + 2.0 * k
        d += -(p + k) / (r_odd * r_even), (r_p + (k + 1.0) - 2.0) / (r_odd * r_2k)
    del d[end:]
    return d


def kummer_cf_ratio(p, r, z, depth: int = 60):
    """phi(p+1; r; z) / phi(p; r; z) as the confluent limit fraction.

    All partial numerators carry the minus sign: 1/(1 - d_1 z/(1 - d_2 z/...)).
    A nonpositive-integer r raises ParameterOutOfRange; any other r keeps
    every denominator off zero.  The value is good to about 1e-13 max(1,
    |v|) (``evaluate_cf``), absolute near zero.  A (K,) array z gives the K
    ratios as an array; each parameter is a number or a (K,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        p, r, z = np.broadcast_arrays(p, r, z)
        ends = np.where(_nonpositive_integer(p) & (p < 0.0), -2.0 * p, np.inf)  # d_{-2p} = 0
        d = _zeros_past(ends, depth + 10, lambda m: _kummer_d(p[:, None], r[:, None], m))
        if _nonpositive_integer(r).any():
            rows = zip(p.tolist(), r.tolist(), z.tolist())
            return np.array([kummer_cf_ratio(*row, depth) for row in rows])
        return evaluate_cf(-d, z, depth)
    if r <= 0.0 and float(r).is_integer():
        raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
    # b_j = -d_j = -(1 - 0) d_j
    return _list_fraction(_kummer_list(p, r, depth), z, depth, sign=-1.0)


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

    cf_value = _list_fraction(_kummer_list(-float(n), gamma + 2.0, depth), x, depth)

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
    """Hypergeometric sum of at most ``terms`` terms: the float sum of the
    rounded terms t_m, added in term order.

    kind "2F1" with params (p, q, r) or "1F1" with params (p, r).  A
    nonpositive-integer numerator parameter terminates the series exactly;
    otherwise 2F1 requires |z| < 1.  z must be finite; terms or a sum past
    the float range raise ParameterOutOfRange.  One ``cumprod`` of the term
    ratios (p + m)(q + m) z/((r + m)(m + 1)) and one ``cumsum`` run down a
    term-major table, and each row reads its sum of t_0..t_{W-1}: W is its
    first zero term; or the first cut 64, 128, ... below ``terms`` where a
    bound rho < 1 on the later term ratios puts their terms, at most
    |t_W|/(1 - rho), below 2^-54 sum_{m<W} |t_m|; or else ``terms``, where
    a series still running raises NonConvergent unless t_{W-1} is below
    1e-16 of that sum.  The table of each cut, and the last, holds only the
    rows that no earlier cut stopped.

    The sum is within (W - 1) u sum_{m<W} |t_m| of the exact sum of the
    rounded terms, to first order in u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 4.2), and no closer
    where it cancels: 1F1(-150; 0.5; 6) is -19.46, and its terms sum to
    -1.77e7, within that bound, 5e10.  A (K,) array z gives the K sums as an
    array, each parameter a number or a (K,) array, and each entry bitwise
    the call on its row alone.
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
    # one row per entry, (1,) arrays for a scalar call
    *tops, r, z_row = (np.asarray(v).reshape(-1) for v in (*params, z))
    # a row's first zero is term 1 - v of its nonpositive-integer numerator v
    first_zero = np.where(_nonpositive_integer(tops[0]), 1.0 - tops[0], np.inf)
    for v in tops[1:]:
        np.minimum(first_zero, np.where(_nonpositive_integer(v), 1.0 - v, np.inf), out=first_zero)
    bad = _nonpositive_integer(r) | ~np.isfinite(z_row)
    if kind == "2F1":
        bad |= (first_zero == np.inf) & (np.abs(z_row) >= 1.0)
    if bad.any():
        if batch:
            return _series_rows(kind, params, z, terms)
        if _nonpositive_integer(r)[0]:
            raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {params[-1]}")
        if not math.isfinite(z):
            raise ParameterOutOfRange(f"z must be finite, got {z}")
        raise Divergent(f"non-terminating 2F1 needs |z| < 1, got z={z}")
    # the table ends at the deepest row's first zero; term `terms` is formed
    # only to see whether the series has ended
    width = int(min(terms, first_zero.max(initial=1.0))) + 1
    # each row's sum of its terms 0..stop-1; `rows` are those no cut has stopped
    sums, rows, stop = np.empty(len(z_row)), np.arange(len(z_row)), 64
    last = None  # the last terms of the rows still running after `terms` terms
    with np.errstate(all="ignore"):  # a row past the float range fails the test below
        while stop < width - 1:
            # rho bounds the term ratios for m >= stop > |r|: each factor (m + 1
            # -> m for 2F1) falls in m, and 1 + 2^-48 covers 16 roundings.  A
            # row that stops at a cut passes the NonConvergent test on all its
            # terms.  Rows where stop <= |r| or rho >= 1 do not stop.
            series = _term_table(tops, r, z_row, stop + 1)
            t = np.abs(series[stop])
            rho = np.abs(z_row) * np.prod([stop + np.abs(v) for v in tops], axis=0) * (1.0 + 2.0**-48)
            rho /= (stop - np.abs(r)) * (stop if len(tops) == 2 else stop + 1.0)
            # each row's magnitudes summed contiguously, as a one-row call sums them
            scale = np.ascontiguousarray(np.abs(series[:stop]).T).sum(axis=1)
            # past a row's zero the terms are +-0, so it sums the same at any cut
            done = (t == 0.0) | (np.abs(r) < stop) & (rho < 1.0) & (t / (1.0 - rho) <= 2.0**-54 * scale)
            sums[rows[done]] = np.cumsum(series[:stop, done], axis=0)[-1]
            if done.all():
                break
            # each row's terms are its own, so the next cut's table takes the others alone
            left = ~done
            rows, r, z_row, tops = rows[left], r[left], z_row[left], [v[left] for v in tops]
            stop *= 2
        else:
            # the rows left sum all the table or `terms` terms of it; one whose
            # terms overflow before its zero has NaN there (inf * 0)
            series = _term_table(tops, r, z_row, width)
            stop = min(terms, width)
            sums[rows] = np.cumsum(series[:stop], axis=0)[-1]
            if stop == terms:  # term `terms` is the table's last
                running = series[-1] != 0.0
                if running.any():
                    last = series[-2, running]
                    scale = np.ascontiguousarray(np.abs(series[:-1, running]).T).sum(axis=1)
    overflow = ~np.isfinite(sums)
    still = last is not None and (np.abs(last) > 1e-16 * scale).any()
    if still or overflow.any():
        if batch:
            return _series_rows(kind, params, z, terms)
        if overflow[0]:
            what = "terms overflow" if not np.isfinite(series[:stop]).all() else "sum overflows"
            raise ParameterOutOfRange(f"{kind} {what} the float range at z={z}")
        raise NonConvergent(
            f"{kind} series still running after {terms} terms: last term "
            f"{last[0]} against a magnitude sum of {scale[0]}"
        )
    return sums if batch else float(sums[0])


def _term_table(tops: list, r: np.ndarray, z: np.ndarray, width: int) -> np.ndarray:
    """Terms 0..width-1 of each entry of the (K,) parameter arrays, as a
    term-major (width, K) table: term m+1 = term m * (p+m)(q+m)/((r+m)(m+1))
    z, the running products of the ratios down its contiguous rows of K."""
    m = np.arange(float(width - 1))[:, None]
    series = np.empty((width, len(z)))
    series[0] = 1.0
    ratio = series[1:]
    with np.errstate(all="ignore"):
        np.add(tops[0], m, out=ratio)
        for q in tops[1:]:
            ratio *= q + m
        den = r + m
        den *= m + 1.0
        ratio /= den
        ratio *= z
        np.cumprod(series, axis=0, out=series)
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
    append, m_n = m.append, 0.0
    try:
        for l_n in l.tolist():
            m_n = l_n / (1.0 - m_n)
            append(m_n)
    except ZeroDivisionError:  # Python's float division by 1 - m_{n-1} == 0
        raise ZeroDenominator(f"minimal parameter recurrence hits m_{len(m) - 1} = 1{sequence}") from None
    return np.fromiter(m, np.float64, len(m))


def chain_params(l, n_max: int | None = None) -> ChainSequence:
    """Minimal parameters m_n = l_n / (1 - m_{n-1}) and positivity verdict.

    ``l`` is the sequence l_1..l_N, cut to its first n_max values (a
    ValueError when it has fewer), or a callable n -> l_n used for
    n = 1..n_max; an n_max below 1 is a ValueError.  The complementary
    sequence k_n = 1 - l_n is analyzed the same way and attached.  Raises ZeroDenominator when some m_n of
    either sequence is exactly 1, which leaves m_{n+1} undefined; the
    message names the complementary sequence when the breakdown is in it.
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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
