"""Christoffel-transformed (kernel) polynomials.

For a shift k with P_j(k) != 0 the monic kernel polynomials are

    Pk_n(k; x) = (x - k)^(-1) [P_{n+1}(x) - (P_{n+1}(k)/P_n(k)) P_n(x)],

orthogonal with respect to L*(p) = L((x - k) p).  Near x = k the divided
difference loses ~|x - k|^(-1) digits, so evaluation switches to the
equivalent Christoffel-Darboux sum

    Pk_n(k; x) = lambda_1...lambda_{n+1} P_n(k)^(-1) K_n(x, k),
    K_n(x, y)  = sum_j P_j(x) P_j(y) / (lambda_1...lambda_{j+1}).

Contexts cache P_j(k), the norm products, and the CD partial sums; they
also carry ratio-form caches (P_j(k)/P_{j-1}(k) and normalized squares)
that stay finite where the raw values under- or overflow, which is what the
ratio-limit machinery at large n runs on.  For a real shift the ratio-form
recurrence runs on Python floats, the same IEEE steps as numpy's float64
scalars; a step where a Python float raises (division by zero, or a square
past the float range) reruns it on numpy scalars, as does every complex
shift, since Python's complex division rounds differently from numpy's.
The caches are bitwise numpy's either way.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import IteratedUndefined, KernelUndefined
from .families import FamilySpec, custom_family, eval_table, norm_products
from .moments import gauss_rule

__all__ = [
    "KernelContext",
    "IteratedKernelContext",
    "kernel_table",
    "kernel_poly",
    "kernel_recurrence",
    "kernel_family",
    "cd_kernel",
    "ops_from_kernel_table",
    "op_from_kernels",
    "iterated_kernel",
    "product_orthogonality_check",
]

# |x - k| below this multiple of (1 + |k|) switches kernel_table to the CD sum
SWITCH_RADIUS = 1e-4
# relative scale below which P_j(k) counts as a genuine zero (see __init__)
ZERO_RTOL = 1e-13


class KernelContext:
    """Caches everything the kernel formulas need for one family and shift.

    Immutable after construction; construction fails with KernelUndefined
    when some P_j(k) vanishes relative to the scale of its own recurrence
    step max(|(k - c_j) P_{j-1}(k)|, |lambda_j P_{j-2}(k)|), which catches
    genuine zeros without misfiring on geometrically decaying sequences.
    """

    def __init__(self, family: FamilySpec, k: complex, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.family = family
        self.k = k
        self.n_max = n_max
        top = n_max + 2  # P_j(k) for j = 0..n_max+2 (op_from_kernels needs n+2)
        c, lam = family.table(top + 2).T
        self.pk = pk = eval_table(family, top + 1, [k])[:, 0]
        # zero detection against the recurrence-step scale (scale-relative, so
        # geometrically decaying but nonvanishing sequences pass at any n_max)
        scale = np.abs((k - c[: top + 1]) * pk[: top + 1])
        scale[1:] = np.maximum(scale[1:], np.abs(lam[1 : top + 1] * pk[:top]))
        vanishes = (np.abs(pk[1:]) < ZERO_RTOL * scale) | (pk[1:] == 0.0)
        if vanishes.any():
            j = int(np.argmax(vanishes)) + 1
            raise KernelUndefined(f"P_{j}({k}) = {pk[j]} vanishes; kernel sequence undefined")
        self.norms = norm_products(family, top + 1)
        caches = None
        if not np.iscomplexobj(pk):
            try:
                caches = _ratio_caches(float(k), c.tolist(), lam.tolist())
            except (ZeroDivisionError, OverflowError):
                pass  # where numpy gives inf or NaN
        if caches is None:
            caches = _ratio_caches(pk.dtype.type(k), c, lam)
        self.ratios, self.weighted_squares, self.cd_partials = (
            np.array(cache, dtype=pk.dtype) for cache in caches
        )

    def __repr__(self) -> str:
        return f"KernelContext({self.family!r}, k={self.k}, n_max={self.n_max})"


def _ratio_caches(k, c, lam) -> tuple[list, list, list]:
    """The ratio-form caches rho_j = P_j(k)/P_{j-1}(k), t_j = P_j(k)^2/N_j and
    S_j = t_0 + ... + t_j for j = 0..len(c)-1, by one recurrence over the
    scalars of ``k``, ``c`` and ``lam``: Python floats or numpy scalars.

    The square stays ``r ** 2``: the C ``pow`` behind it, which numpy's
    scalar power calls too, differs from ``r * r`` in the last bit for about
    0.08% of doubles.
    """
    t = s = 1.0 / lam[0]
    rho, ts, partials = [np.nan], [t], [s]  # rho_0 is undefined
    r = None
    for c_prev, lam_prev, lam_j in zip(c, lam, lam[1:]):
        r = (k - c_prev) if r is None else (k - c_prev) - lam_prev / r
        t = t * r ** 2 / lam_j
        s = s + t
        rho.append(r)
        ts.append(t)
        partials.append(s)
    return rho, ts, partials


def cd_kernel(ctx: KernelContext, n: int, x):
    """Christoffel-Darboux kernel K_n(x, k) as the explicit sum."""
    if n > ctx.n_max + 2:
        raise ValueError(f"n={n} exceeds cached range {ctx.n_max + 2}")
    out = _cd_terms(ctx, n, np.atleast_1d(np.asarray(x))).sum(axis=1)
    return out if np.ndim(x) else out[0]


def _cd_terms(ctx: KernelContext, n: int, xs: np.ndarray) -> np.ndarray:
    """The terms P_j(x) P_j(k) / N_j, j = 0..n, of K_n(x, k): one contiguous
    row per point of ``xs``, so a point vector sums them in a single point's
    order."""
    table = eval_table(ctx.family, n, xs)
    return np.ascontiguousarray(table.T * (ctx.pk[: n + 1] / ctx.norms[: n + 1]))


def kernel_table(ctx: KernelContext, n: int, xs) -> np.ndarray:
    """Monic kernel polynomials Pk_0..Pk_n(k; x) at every point of ``xs``;
    shape (n+1, len(xs)).

    Points away from k take the divided difference of one ``eval_table``
    over all degrees at once.  Points inside the switch radius take the CD
    sum, one per degree, each point's terms summed along one contiguous row
    (a cumulative sum would round differently past 8 terms, where numpy sums
    a row pairwise); the two branches agree on the overlap.
    """
    if n > ctx.n_max + 1:
        raise ValueError(f"n={n} exceeds context n_max+1 = {ctx.n_max + 1}")
    xs = np.atleast_1d(np.asarray(xs))
    dtype = complex if (np.iscomplexobj(xs) or np.iscomplexobj(ctx.pk)) else float
    xs = xs.astype(dtype)
    out = np.empty((n + 1, xs.size), dtype=dtype)
    out[0] = 1.0
    if n == 0:
        return out
    pk = ctx.pk[: n + 2]
    near = np.abs(xs - ctx.k) < SWITCH_RADIUS * (1.0 + abs(ctx.k))
    if not near.all():
        far = xs[~near]
        table = eval_table(ctx.family, n + 1, far)
        out[1:, ~near] = (table[2:] - (pk[2:] / pk[1:-1])[:, None] * table[1:-1]) / (far - ctx.k)
    if near.any():
        terms = _cd_terms(ctx, n, xs[near])
        for j in range(1, n + 1):
            out[j, near] = ctx.norms[j] / pk[j] * terms[:, : j + 1].sum(axis=1)
    return out


def kernel_poly(ctx: KernelContext, n: int, x):
    """Monic kernel polynomial Pk_n(k; x); scalar or array x: row n of
    ``kernel_table``."""
    out = kernel_table(ctx, n, x)[n]
    return out if np.ndim(x) else out[0]


def kernel_recurrence(ctx: KernelContext, n_max: int) -> np.ndarray:
    """Recurrence pairs (c*_n, lambda*_n) of the kernel family, n = 1..n_max.

    lambda*_n = lambda_n P_n(k) P_{n-2}(k) / P_{n-1}(k)^2 for n >= 2, and
    c*_n = c_{n+1} - (P_n(k)^2 - P_{n-1}(k) P_{n+1}(k)) / (P_{n-1}(k) P_n(k)).
    The unused first entry follows the mass convention
    lambda*_1 := L*(1) = (c_1 - k) mu0.
    """
    if n_max > ctx.n_max + 1:
        raise ValueError(f"n_max={n_max} exceeds context range {ctx.n_max + 1}")
    pk = ctx.pk
    c, lam = ctx.family.table(n_max + 1).T
    pairs = np.empty((n_max, 2), dtype=np.result_type(pk, c))
    for n in range(1, n_max + 1):
        c_star = c[n] - (pk[n] ** 2 - pk[n - 1] * pk[n + 1]) / (pk[n - 1] * pk[n])
        if n == 1:
            lam_star = (c[0] - ctx.k) * ctx.family.mu0
        else:
            lam_star = lam[n - 1] * pk[n] * pk[n - 2] / pk[n - 1] ** 2
        pairs[n - 1] = (c_star, lam_star)
    return pairs


def kernel_family(ctx: KernelContext, n_max: int) -> FamilySpec:
    """The Christoffel-shifted family: a finite table of its first n_max pairs.

    Support is inherited; the mass is L*(1).  Coefficients may be complex
    for complex shifts, in which case only evaluation (not quadrature) is
    meaningful for the returned family.
    """
    pairs = kernel_recurrence(ctx, n_max)
    return custom_family(pairs, ctx.family.support, pairs[0, 1])


def ops_from_kernel_table(ctx: KernelContext, table: np.ndarray) -> np.ndarray:
    """P_1..P_m from the kernel table Pk_0..Pk_m of ``kernel_table``:
    P_{n+1}(x) = Pk_{n+1}(k;x) - (P_n(k)/P_{n+1}(k)) lambda_{n+2} Pk_n(k;x)."""
    m = len(table) - 1
    lam = ctx.family.table(m + 1)[1:, 1]  # lambda_2..lambda_{m+1}
    coef = ctx.pk[:m] / ctx.pk[1 : m + 1] * lam
    return table[1:] - coef[:, None] * table[:-1]


def op_from_kernels(ctx: KernelContext, n: int, x):
    """P_{n+1}(x) rebuilt from Pk_{n+1} and Pk_n: row n of ``ops_from_kernel_table``."""
    out = ops_from_kernel_table(ctx, kernel_table(ctx, n + 1, x))[n]
    return out if np.ndim(x) else out[0]


class IteratedKernelContext:
    """Two successive Christoffel shifts: first k2, then k3.

    Caches the cross sums X_n = sum_j P_j(k3) P_j(k2) / (lambda_1...lambda_{j+1})
    and the values Pk_j(k2; k3) of the first-shift kernels at the second
    shift.  Shifts in conjugate half planes keep every X_n away from zero.
    ``shifted``, the context ``iterated_kernel`` evaluates, is made once, on
    first use.
    """

    def __init__(self, base: KernelContext, k3: complex):
        self.base = base
        self.k3 = k3
        n_top = base.n_max + 2
        pk3 = eval_table(base.family, n_top + 1, [k3])[:, 0]
        cross = np.cumsum(pk3 * base.pk[: n_top + 2] / base.norms[: n_top + 2])
        scale = np.maximum.accumulate(np.abs(pk3 * base.pk[: n_top + 2] / base.norms[: n_top + 2]))
        bad = np.abs(cross) < 1e-13 * np.maximum(scale, 1e-300)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise IteratedUndefined(f"cross sum X_{j} vanishes at (k2={base.k}, k3={k3})")
        self.cd_cross = cross
        self.star_values = base.norms[: n_top + 2] / base.pk[: n_top + 2] * cross

    @property
    def k2(self) -> complex:
        return self.base.k

    @cached_property
    def shifted(self) -> KernelContext:
        """The k2-kernel family's context at k3, made on first use at the
        largest degree ``iterated_kernel`` takes, base.n_max - 2."""
        n_top = self.base.n_max - 2
        return KernelContext(kernel_family(self.base, n_top + 3), self.k3, n_top - 1)


def iterated_kernel(ictx: IteratedKernelContext, n: int, x):
    """Twice-shifted monic kernel polynomial of degree n.

    Built by composition: the first shift is realized through the kernel
    recurrence coefficients, and the plain kernel construction is applied
    to that family at the second shift, through the context ``ictx.shifted``.
    """
    if n == 0:
        return np.ones_like(np.asarray(x)) if np.ndim(x) else 1.0
    if n > ictx.base.n_max - 2:
        raise ValueError(f"n={n} needs a base context with n_max >= {n + 2}")
    return kernel_poly(ictx.shifted, n, x)


def product_orthogonality_check(
    family: FamilySpec, n: int, m: int, quad_order: int
) -> float:
    """Tensor-quadrature value of the product-measure double integral

        integral integral (x - u)^2 K_n(x, u) K_m(x, u) dmu(u) dmu(x).

    Vanishes for n != m; for n = m it equals twice the square of the
    orthonormal-side recurrence coefficient (2 * lambda_{n+2} in the monic
    convention), which the tests pin empirically from the n = m = 0 case.
    """
    if quad_order < n + m + 3:
        raise ValueError(f"quad_order must be >= n+m+3 = {n + m + 3}")
    rule = gauss_rule(family, quad_order)
    top = max(n, m)
    table = eval_table(family, top, rule.nodes)  # (top+1, M)
    norms = norm_products(family, top)
    kn = (table[: n + 1].T / norms[: n + 1]) @ table[: n + 1]
    km = (table[: m + 1].T / norms[: m + 1]) @ table[: m + 1]
    diff2 = (rule.nodes[:, None] - rule.nodes[None, :]) ** 2
    return float(rule.weights @ (diff2 * kn * km) @ rule.weights)
