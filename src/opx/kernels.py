"""Christoffel-transformed (kernel) polynomials.

For a shift k with P_j(k) != 0 the monic kernel polynomials are

    Pk_n(k; x) = (x - k)^(-1) [P_{n+1}(x) - rho_{n+1} P_n(x)],
    rho_j      = P_j(k) / P_{j-1}(k),

orthogonal with respect to L*(p) = L((x - k) p).  Near x = k the divided
difference loses ~|x - k|^(-1) digits, so evaluation switches to the
Christoffel-Darboux sum Pk_n(k; x) = N_n P_n(k)^(-1) K_n(x, k), with
K_n(x, y) = sum_j P_j(x) P_j(y) / N_j and N_j = lambda_1...lambda_{j+1},
run as its recurrence Pk_n(k; x) = P_n(x) + (lambda_{n+1}/rho_n) Pk_{n-1}(k; x).

A context keeps P_j(k) in ratio form only: rho_j, t_j = P_j(k)^2/N_j and
S_j = t_0 + ... + t_j, which stay finite where the raw values under- or
overflow (Gautschi, SIAM Rev. 9, 1967), so the recurrence coefficients, the
kernel tables and the ratio limits at large n all run on them.  A family
holds these caches per shift, as long as the longest context asked for so
far, and each context takes their prefix.  For a real shift the ratio-form
recurrence runs on Python floats, the same IEEE steps as numpy's float64
scalars, and takes numpy's inf where a square passes the float range; a
complex shift runs it on numpy scalars, since Python's complex division
rounds differently from numpy's.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import IteratedUndefined, KernelUndefined, NotPositiveDefinite, ParameterOutOfRange
from .families import FamilySpec, custom_family, eval_table

__all__ = [
    "KernelContext",
    "IteratedKernelContext",
    "kernel_table",
    "kernel_poly",
    "kernel_recurrence",
    "kernel_family",
    "ops_from_kernel_table",
    "iterated_kernel",
]

# |x - k| below this multiple of (1 + |k|) switches kernel_table to the CD sum
SWITCH_RADIUS = 1e-4
# relative scale below which rho_j = P_j(k)/P_{j-1}(k) counts as a genuine
# zero (see KernelContext)
ZERO_RTOL = 1e-13
# shifts whose ratio caches a family holds; a new shift past them drops all
RATIO_SHIFTS = 16


class KernelContext:
    """Caches everything the kernel formulas need for one family and shift.

    Immutable after construction; construction fails with KernelUndefined
    when some P_j(k) vanishes relative to the scale of its own recurrence
    step max(|(k - c_j) P_{j-1}(k)|, |lambda_j P_{j-2}(k)|), which catches
    genuine zeros without misfiring on geometrically decaying sequences.
    Divided by |P_{j-1}(k)| the test reads off the ratios alone:
    |rho_j| < ZERO_RTOL max(|k - c_j|, |lambda_j / rho_{j-1}|).  A zero
    lambda_j (lambda_1 = mu0 included) fails first, with NotPositiveDefinite.
    """

    def __init__(self, family: FamilySpec, k: complex, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if not cmath.isfinite(k):
            raise ParameterOutOfRange(f"the shift must be finite, got k = {k}")
        self.family = family
        self.k = k
        self.n_max = n_max
        c, lam = family.table(n_max + 4).T  # rho_j for j = 1..n_max+3
        if not lam.all():
            j = int(np.argmax(lam == 0.0))
            raise NotPositiveDefinite(f"lambda_{j + 1} = {lam[j]} <= 0")
        self.ratios, self.weighted_squares, self.cd_partials = _held_caches(family, k, c, lam)
        j = _first_zero(k, c, lam, self.ratios)
        if j:
            value = math.prod(self.ratios[1 : j + 1].tolist())  # P_j(k), for the message
            raise KernelUndefined(f"P_{j}({k}) = {value} vanishes; kernel sequence undefined")

    def __repr__(self) -> str:
        return f"KernelContext({self.family!r}, k={self.k}, n_max={self.n_max})"


def _held_caches(family: FamilySpec, k, c, lam) -> tuple:
    """The family's read-only ratio caches at ``k``, their first ``len(c)``
    entries, or fewer where an exact zero rho_j ends them.

    They are memoised per shift on the family, keyed on the bits of the
    shift as the recurrence reads it, for RATIO_SHIFTS shifts at most, and
    rebuilt to ``len(c)`` when too short.  The recurrence runs in sequence,
    so every prefix of the held caches is bitwise the caches a build to that
    length makes.
    """
    dtype = np.dtype(complex if np.iscomplexobj(k) or np.iscomplexobj(c) else float)
    k = float(k) if dtype == float else dtype.type(k)
    key = (dtype.char, k.real.hex(), k.imag.hex())
    shifts = family._memo.setdefault("ratios", {})
    held = shifts.get(key)
    if held is None or (len(held[0]) < len(c) and held[0][-1] != 0.0):
        if dtype == float:
            caches = _ratio_caches(k, c.tolist(), lam.tolist())
        else:
            # the checks that read the caches raise typed errors on inf or NaN
            with np.errstate(over="ignore", invalid="ignore"):
                caches = _ratio_caches(k, c, lam)
        held = tuple(np.array(cache, dtype=dtype) for cache in caches)
        for cache in held:
            cache.flags.writeable = False
        # a racing builder may replace longer caches with shorter ones, or
        # clear them; each caller slices only the caches it holds, so that
        # is safe
        if key not in shifts and len(shifts) >= RATIO_SHIFTS:
            shifts.clear()
        shifts[key] = held
    return tuple(cache[: len(c)] for cache in held)


def _first_zero(k, c, lam, ratios: np.ndarray) -> int:
    """The first j whose rho_j = ``ratios[j]`` at ``k`` fails the zero test
    of KernelContext, or 0."""
    rho = ratios[1:]  # ends at an exact zero, so the scale never divides by 0
    scale = np.abs(k - c[: rho.size])
    scale[1:] = np.maximum(scale[1:], np.abs(lam[1 : rho.size] / rho[:-1]))
    vanishes = (np.abs(rho) < ZERO_RTOL * scale) | (rho == 0.0)
    return int(np.argmax(vanishes)) + 1 if vanishes.any() else 0


def _ratio_caches(k, c, lam) -> tuple[list, list, list]:
    """The ratio-form caches rho_j = P_j(k)/P_{j-1}(k), t_j = P_j(k)^2/N_j and
    S_j = t_0 + ... + t_j for j = 0..len(c)-1, by one recurrence over the
    scalars of ``k``, ``c`` and ``lam``: Python floats or numpy scalars.  An
    exact zero rho_j ends the caches at j, before the division by it.

    The square stays ``r ** 2``: the C ``pow`` behind it, which numpy's
    scalar power calls too, differs from ``r * r`` in the last bit for about
    0.08% of doubles; a square past the float range is inf, as numpy's is.
    """
    t = s = 1.0 / lam[0]
    rho, ts, partials = [np.nan], [t], [s]  # rho_0 is undefined
    r = None
    for c_prev, lam_prev, lam_j in zip(c, lam, lam[1:]):
        if r == 0.0:
            break
        r = (k - c_prev) if r is None else (k - c_prev) - lam_prev / r
        try:
            square = r ** 2
        except OverflowError:
            square = math.inf
        t = t * square / lam_j
        s = s + t
        rho.append(r)
        ts.append(t)
        partials.append(s)
    return rho, ts, partials


def kernel_table(ctx: KernelContext, n: int, xs) -> np.ndarray:
    """Monic kernel polynomials Pk_0..Pk_n(k; x) at every point of ``xs``;
    shape (n+1, len(xs)).

    Points away from k take the divided difference of one ``eval_table``
    over all degrees at once.  Points inside the switch radius take the CD
    sum by its recurrence Pk_j = P_j(x) + (lambda_{j+1}/rho_j) Pk_{j-1},
    elementwise over the points; the two branches agree on the overlap.
    """
    if n > ctx.n_max + 1:
        raise ValueError(f"n={n} exceeds context n_max+1 = {ctx.n_max + 1}")
    xs = np.atleast_1d(np.asarray(xs))
    dtype = complex if (np.iscomplexobj(xs) or np.iscomplexobj(ctx.ratios)) else float
    xs = xs.astype(dtype)
    out = np.empty((n + 1, xs.size), dtype=dtype)
    out[0] = 1.0
    if n == 0:
        return out
    rho = ctx.ratios
    near = np.abs(xs - ctx.k) < SWITCH_RADIUS * (1.0 + abs(ctx.k))
    if not near.all():
        far = xs[~near]
        table = eval_table(ctx.family, n + 1, far)
        out[1:, ~near] = (table[2:] - rho[2 : n + 2, None] * table[1:-1]) / (far - ctx.k)
    if near.any():
        table = eval_table(ctx.family, n, xs[near])
        step = ctx.family.table(n + 1)[1:, 1] / rho[1 : n + 1]  # lambda_{j+1}/rho_j
        rows = table[0]
        for j in range(1, n + 1):
            rows = table[j] + step[j - 1] * rows
            out[j, near] = rows
    return out


def kernel_poly(ctx: KernelContext, n: int, x):
    """Monic kernel polynomial Pk_n(k; x); scalar or array x: row n of
    ``kernel_table``."""
    out = kernel_table(ctx, n, x)[n]
    return out if np.ndim(x) else out[0]


def kernel_recurrence(ctx: KernelContext, n_max: int) -> np.ndarray:
    """Recurrence pairs (c*_n, lambda*_n) of the kernel family, n = 1..n_max,
    from the ratios rho_j = P_j(k)/P_{j-1}(k) alone:

        c*_n = c_{n+1} - rho_n + rho_{n+1},  lambda*_n = lambda_n rho_n / rho_{n-1}  (n >= 2).

    The unused first entry follows the mass convention
    lambda*_1 := L*(1) = (c_1 - k) mu0.
    """
    if n_max > ctx.n_max + 1:
        raise ValueError(f"n_max={n_max} exceeds context range {ctx.n_max + 1}")
    rho = ctx.ratios
    c, lam = ctx.family.table(n_max + 1).T
    pairs = np.empty((n_max, 2), dtype=np.result_type(rho, c))
    pairs[:, 0] = c[1:] - rho[1 : n_max + 1] + rho[2 : n_max + 2]
    pairs[0, 1] = (c[0] - ctx.k) * ctx.family.mu0
    pairs[1:, 1] = lam[1:n_max] * rho[2 : n_max + 1] / rho[1:n_max]
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
    P_{n+1}(x) = Pk_{n+1}(k;x) - (lambda_{n+2}/rho_{n+1}) Pk_n(k;x)."""
    m = len(table) - 1
    lam = ctx.family.table(m + 1)[1:, 1]  # lambda_2..lambda_{m+1}
    coef = lam / ctx.ratios[1 : m + 1]
    return table[1:] - coef[:, None] * table[:-1]


class IteratedKernelContext:
    """Two successive Christoffel shifts: first k2, then k3.

    ``shifted`` is the k2-kernel family's context at k3, at the largest
    degree ``iterated_kernel`` takes, base.n_max - 2 (so base.n_max >= 3).
    Its ratios Pk_j(k2; k3)/Pk_{j-1}(k2; k3) are the paper's ratios of
    iterated kernel polynomials.  Pk_j(k2; k3) is N_j/P_j(k2) times the
    cross sum X_j = sum_{i<=j} P_i(k3) P_i(k2)/N_i, so the context's zero
    test finds the first vanishing X_j, raised as IteratedUndefined.
    """

    def __init__(self, base: KernelContext, k3: complex):
        if base.n_max < 3:
            raise ValueError(f"an iterated kernel context needs a base n_max >= 3, got {base.n_max}")
        self.base = base
        self.k3 = k3
        family = kernel_family(base, base.n_max + 1)
        try:
            self.shifted = KernelContext(family, k3, base.n_max - 3)
        except KernelUndefined:
            c, lam = family.table(base.n_max + 1).T
            j = _first_zero(k3, c, lam, _held_caches(family, k3, c, lam)[0])
            raise IteratedUndefined(f"cross sum X_{j} vanishes at (k2={base.k}, k3={k3})") from None

    @property
    def k2(self) -> complex:
        return self.base.k


def iterated_kernel(ictx: IteratedKernelContext, n: int, x):
    """Twice-shifted monic kernel polynomial of degree n.

    Built by composition: the first shift is realized through the kernel
    recurrence coefficients, and the plain kernel construction is applied
    to that family at the second shift, through the context ``ictx.shifted``.
    """
    if n > ictx.base.n_max - 2:
        raise ValueError(f"n={n} needs a base context with n_max >= {n + 2}")
    return kernel_poly(ictx.shifted, n, x)
