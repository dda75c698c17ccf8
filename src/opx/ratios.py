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
one float array of signed partial numerators b_j = s_j a_j, j = 1..depth+10,
built once by a vectorised formula; it is evaluated by backward recurrence
at the requested depth (>= 1) and again at depth+10, with a tiny-floor rescue
for vanishing intermediate denominators.

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
    "laguerre_mixed_cf",
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
    norms = norm_products(family, n + 1)
    # one contiguous row per point, summed along it: the order a 1-D sum takes
    lhs = (np.ascontiguousarray(values[: n + 1].T) ** 2 / norms[: n + 1]).sum(axis=1)
    rhs = (derivs[n + 1] * values[n] - values[n + 1] * derivs[n]) / norms[n]
    if np.ndim(x):
        return lhs, rhs
    return float(lhs[0]), float(rhs[0])


def _ratio_limits(lam_n2, rho, t, s_n, s_n1):
    # lam_n2 = lambda_{n+2}, rho = P_{n+1}(k)/P_n(k), t = P_{n+1}^2(k)/N_{n+1},
    # s_n, s_n1 = S_n, S_{n+1}; scalars or arrays over n alike
    r_up = (1.0 / rho) * lam_n2 * (1.0 + t / s_n)
    r_down = rho * (1.0 / lam_n2) * (1.0 - t / s_n1)
    return r_up, r_down


def kernel_ratio_limit(ctx: KernelContext, n: int) -> tuple[float, float]:
    """Limits (r_up, r_down) of Pk_{n+1}/Pk_n and its reciprocal as x -> k.

    Computed from the ratio-form caches, so large n is safe; the exact
    algebraic identity r_up * r_down = 1 survives in floating point to
    roughly machine precision.  Python floats, or complex numbers when
    r_up has an imaginary part.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n + 1 >= ctx.ratios.size:
        raise ValueError(f"n={n} exceeds the cached ratio range {ctx.ratios.size - 2}")
    r_up, r_down = _ratio_limits(
        ctx.family.table(n + 2)[n + 1, 1],
        ctx.ratios[n + 1],
        ctx.weighted_squares[n + 1],
        ctx.cd_partials[n],
        ctx.cd_partials[n + 1],
    )
    if abs(np.imag(r_up)) == 0.0:
        return float(np.real(r_up)), float(np.real(r_down))
    return complex(r_up), complex(r_down)


def kernel_ratio_limits(ctx: KernelContext, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the limits (r_up, r_down) of ``kernel_ratio_limit`` for
    n = 0..n_max, in the dtype of the context caches.

    The same formula run over n, so each entry equals the scalar form's
    bitwise; non-finite entries are left in place for the caller.
    """
    if n_max + 1 >= ctx.ratios.size:
        raise ValueError(f"n={n_max} exceeds the cached ratio range {ctx.ratios.size - 2}")
    top = n_max + 2
    return _ratio_limits(
        ctx.family.table(top)[1:, 1],
        ctx.ratios[1:top],
        ctx.weighted_squares[1:top],
        ctx.cd_partials[: top - 1],
        ctx.cd_partials[1:top],
    )


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def _nonpositive_integer(v: np.ndarray) -> np.ndarray:
    """Where v is an integer <= 0: ``v <= 0 and float(v).is_integer()``
    over an array."""
    return (v <= 0.0) & np.isfinite(v) & (np.trunc(v) == v)


def _backward_pass(b: np.ndarray, z: float, depth: int) -> float:
    tail = 1.0
    for b_j in b[:depth][::-1].tolist():
        if abs(tail) < _TINY:
            tail = math.copysign(_TINY, tail if tail != 0.0 else 1.0)
        tail = 1.0 + b_j * z / tail
    if abs(tail) < _TINY:
        raise ZeroDenominator("continued fraction denominator vanished at the top level")
    return 1.0 / tail


def _backward_rows(b: np.ndarray, z: np.ndarray, depth: int) -> np.ndarray:
    """``_backward_pass`` over the rows of ``b`` at depth and at depth+10:
    the top-level denominators, shape (2, K), before the final division.

    The depth+10 pass runs its first ten steps alone, then both passes take
    each column together; every step is the scalar pass's, row by row.
    """
    tails = np.ones((2, len(z)))
    for j in range(depth + 9, -1, -1):
        rows = tails if j < depth else tails[1:]
        small = np.abs(rows) < _TINY
        if small.any():
            rows[...] = np.where(small, np.copysign(_TINY, np.where(rows != 0.0, rows, 1.0)), rows)
        rows[...] = 1.0 + b[:, j] * z / rows
    return tails


def evaluate_cf(b: np.ndarray, z, depth: int, rtol: float = 1e-13):
    """Evaluate 1/(1 + b_1 z/(1 + b_2 z/...)) at depth and depth+10.

    ``b`` holds the signed partial numerators b_1..b_{depth+10} (the leading
    numerator is always 1).  The two backward passes must agree to ``rtol``
    relative; a tiny-floor rescue is applied to vanishing intermediate
    denominators and counts as agreement only if both passes still match.
    ``z`` must be finite.

    A (K, depth+10) ``b`` with a (K,) ``z`` evaluates K fractions in one
    array pass and returns their values as an array; a 1-D ``b`` runs the
    backward recurrence on Python floats.
    """
    if depth < 1:
        raise ParameterOutOfRange(f"depth must be >= 1, got {depth}")
    if b.shape[-1] < depth + 10:
        raise ValueError(f"need {depth + 10} partial numerators, got {b.shape[-1]}")
    if b.ndim == 1:
        if not math.isfinite(z):
            raise ParameterOutOfRange(f"z must be finite, got {z}")
        v1 = _backward_pass(b, z, depth)
        v2 = _backward_pass(b, z, depth + 10)
        if abs(v1 - v2) > rtol * max(1.0, abs(v2)):
            raise NonConvergent(f"depth {depth} and {depth + 10} disagree: {v1} vs {v2}")
        return v2
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


def _gauss_g(p, q, r, m: int) -> np.ndarray:
    """g_0..g_m: g_0 = 0, g_{2k} = (p+k)/(r+2k-1), g_{2k-1} = (q+k-1)/(r+2k-2).

    Column vectors p, q, r of shape (K, 1) give one row per entry, (K, m+1).
    """
    j = np.arange(m + 1.0)
    k = (j + 1) // 2
    # np.where evaluates both rows at every j; a discarded value divides by
    # zero at r = 1 or 2
    with np.errstate(all="ignore"):
        g = np.where(j % 2 == 0, (p + k) / (r + 2 * k - 1), (q + k - 1) / (r + 2 * k - 2))
    g[..., :1] = 0.0
    return g


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
        p, q, r = p[:, None], q[:, None], r[:, None]
    else:
        if r <= 0.0 and float(r).is_integer():
            raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
        terminating = (p <= 0 and float(p).is_integer()) or (q <= 0 and float(q).is_integer())
        if not terminating and abs(z) >= 1.0:
            raise Divergent(f"non-terminating ratio needs |z| < 1, got z={z}")
    g = _gauss_g(p, q, r, depth + 10)
    return evaluate_cf(-((1.0 - g[..., :-1]) * g[..., 1:]), z, depth)


def _kummer_d(p, r, m: int) -> np.ndarray:
    """d_1..d_m, the q -> infinity limit of (1 - g_{j-1}) g_j / q.

    d_1 = 1/r, d_{2k} = -(p+k)/((r+2k-1)(r+2k-2)), and for k >= 2
    d_{2k-1} = (r-p+k-2)/((r+2k-3)(r+2k-2)), which is what the series
    oracle confirms (an index-shifted variant also circulates).  Column
    vectors p, r of shape (K, 1) give one row per entry, (K, m).
    """
    j = np.arange(1.0, m + 1)
    k = (j + 1) // 2
    # np.where evaluates both rows at every j, and the odd row is replaced at
    # j = 1; a discarded value divides by zero at r = 1
    with np.errstate(all="ignore"):
        d = np.where(
            j % 2 == 0,
            -(p + k) / ((r + 2 * k - 1) * (r + 2 * k - 2)),
            (r - p + k - 2) / ((r + 2 * k - 3) * (r + 2 * k - 2)),
        )
    d[..., :1] = 1.0 / r
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
        p, r = p[:, None], r[:, None]
    elif r <= 0.0 and float(r).is_integer():
        raise ParameterOutOfRange(f"r must avoid nonpositive integers, got {r}")
    return evaluate_cf(-_kummer_d(p, r, depth + 10), z, depth)


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
    if gamma <= -1.0:
        raise ParameterOutOfRange(f"gamma must exceed -1, got {gamma}")
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")

    cf_value = evaluate_cf(_kummer_d(-float(n), gamma + 2.0, depth + 10), x, depth)

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


def laguerre_mixed_cf(gamma: float, n: int, x: float, depth: int = 60) -> float:
    """The alternating-sign fraction printed for the mixed-parameter ratio
    phi(-n+1; gamma+2; -x) / phi(-n; gamma+1; -x).

    Coefficients d'_{2k+1} = (n+k+gamma+1)/((gamma+2k+1)(gamma+2k+2)) and
    d'_{2k+2} = (1-n+k)/((gamma+2k+1)(gamma+2k+2)), signs +, -, +, -, ...
    Followed as printed; agreement with direct kernel ratios is reported,
    not asserted.
    """
    if gamma <= -1.0:
        raise ParameterOutOfRange(f"gamma must exceed -1, got {gamma}")
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")

    j = np.arange(1.0, depth + 11)
    k = (j - 1) // 2  # j = 2k+1 and j = 2k+2 share a denominator
    den = (gamma + 2 * k + 1.0) * (gamma + 2 * k + 2.0)
    b = np.where(j % 2 == 1, (n + k + gamma + 1.0) / den, -((1.0 - n + k) / den))
    return evaluate_cf(b, x, depth)


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
    if gamma <= -1.0 or delta <= 0.0:
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
    otherwise 2F1 requires |z| < 1.  z must be finite, and a series still
    running after ``terms`` terms raises NonConvergent unless its last kept
    term is below 1e-16 of the sum of the kept terms' magnitudes.

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
    # one row per entry: term m+1 = term m * (p+m)(q+m)/((r+m)(m+1)) z, and
    # term `terms` is formed only to see whether the series has ended
    # (filled in place: the suites' tables hold 200 rows)
    *tops, r_col, z_col = (np.reshape(v, (-1, 1)) for v in (*params, z))
    m = np.arange(float(terms))
    series = np.empty((len(z_col), terms + 1))
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
    # a row ends before its first zero term; cut the columns no row reaches
    ended = series == 0.0
    lengths = np.where(ended.any(axis=1), ended.argmax(axis=1), terms + 1)
    kept = series[:, : min(lengths.max(initial=1), terms)]
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


def _minimal_params(l: np.ndarray) -> np.ndarray:
    m = [0.0]
    for n, l_n in enumerate(l.tolist(), start=1):
        den = 1.0 - m[-1]
        if den == 0.0:
            raise ZeroDivisionError(f"minimal parameter recurrence hits m_{n-1} = 1")
        m.append(l_n / den)
    return np.array(m)


def chain_params(l, n_max: int | None = None) -> ChainSequence:
    """Minimal parameters m_n = l_n / (1 - m_{n-1}) and positivity verdict.

    ``l`` is the sequence l_1..l_N (or a callable n -> l_n used for
    n = 1..n_max).  The complementary sequence k_n = 1 - l_n is analyzed
    the same way and attached.
    """
    if callable(l):
        if n_max is None:
            raise ValueError("n_max is required when l is a callable")
        l_arr = np.array([float(l(n)) for n in range(1, n_max + 1)])
    else:
        l_arr = np.asarray(l, dtype=float)
        if n_max is not None:
            l_arr = l_arr[:n_max]
    if l_arr.size < 1:
        raise ValueError("need at least one chain element")
    m = _minimal_params(l_arr)
    positive = bool(np.all((m[1:] > 0.0) & (m[1:] < 1.0)))
    comp_l = 1.0 - l_arr
    comp_m = _minimal_params(comp_l)
    comp_positive = bool(np.all((comp_m[1:] > 0.0) & (comp_m[1:] < 1.0)))
    comp = ChainSequence(l=comp_l, m=comp_m, positive=comp_positive)
    return ChainSequence(l=l_arr, m=m, positive=positive, complementary=comp)
