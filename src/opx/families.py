"""Moment functionals presented by recurrence coefficients, and their monic
orthogonal polynomial sequences.

A family is the pair of sequences (c_n, lambda_n), n >= 1, driving the
three-term recurrence

    x P_n(x) = P_{n+1}(x) + c_{n+1} P_n(x) + lambda_{n+1} P_{n-1}(x),

with P_{-1} = 0, P_0 = 1.  The recurrence never consumes lambda_1; by
convention lambda_1 := mu_0 = L(1), which makes L(P_n^2) equal to the
product lambda_1 ... lambda_{n+1} used throughout the kernel formulas.
Each family holds one coefficient table, filled from a closed form over an
array of 1-based indices m (mirroring the subscripts above) or given whole;
arrays of evaluated polynomials are 0-based by degree.

The built-in constructors return one shared family per parameter set (the
last SHARED_FAMILIES sets each), so the Gauss rules, Cauchy masses and
kernel ratio caches memoised on a family serve every later caller in the
process; ``custom_family`` builds a new family on every call.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange, TableTooShort

__all__ = [
    "FamilySpec",
    "chebyshev1",
    "laguerre",
    "jacobi",
    "custom_family",
    "eval_table",
    "eval_derivs",
    "norm_products",
]

# parameter sets whose family each built-in constructor keeps, least
# recently used first out
SHARED_FAMILIES = 32


def _shared(build):
    """Share ``build``'s family per parameter set: an LRU keyed on each
    parameter's type and bits, so that 0.0 and -0.0, or 1 and 1.0, which
    compare equal but may build different tables or reprs, stay distinct.
    Parameters other than ints and floats build a family afresh."""
    cached = functools.lru_cache(maxsize=SHARED_FAMILIES)(lambda key, params: build(*params))
    signature = inspect.signature(build)

    @functools.wraps(build)
    def shared(*args, **kwargs):
        params = signature.bind(*args, **kwargs).args if kwargs else args
        if not all(isinstance(p, (int, float)) for p in params):
            return build(*params)
        return cached(tuple((type(p), p.hex() if isinstance(p, float) else p) for p in params), params)

    shared.cache_clear = cached.cache_clear
    return shared


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A moment functional given by its recurrence coefficients.

    Parameters
    ----------
    kind : str
        One of ``"chebyshev1"``, ``"laguerre"``, ``"jacobi"``, ``"custom"``.
    coeffs : callable or None
        Closed form ``ms -> rows``: the (len(ms), 2) array of the pairs
        (c_m, lambda_m) at an int array of 1-based indices ``ms``, with
        ``lambda_1 = mu0``; None for a finite table (``custom_family``).
    support : tuple of float
        Closure of the support interval; ``math.inf`` marks a half line.
    mu0 : float
        Total mass L(1).  Must be nonzero (positive in the positive-definite
        case).
    params : tuple
        Classical parameters, kept for reporting, e.g. ``(("gamma", 0.5),)``.

    Every evaluator reads its coefficients from one memoised table per
    family (``table``), which grows to the largest index asked for.
    """

    kind: str
    coeffs: Callable[[np.ndarray], np.ndarray] | None
    support: tuple[float, float]
    mu0: float
    params: tuple[tuple[str, float], ...] = ()
    # rows (c_m, lambda_m), m = 1..len; grown by table(), never mutated
    _table: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), init=False)
    # the quadrature oracle's Gauss rules and Cauchy masses, keyed ("rule", m)
    # and ("cauchy", k), and under "ratios" the kernel contexts' ratio caches
    # per shift; dict.setdefault is atomic, so concurrent builders of one
    # entry all get the value stored first
    _memo: dict = field(default_factory=dict, init=False)

    def table(self, n: int) -> np.ndarray:
        """Read-only (n, 2) array of the pairs (c_m, lambda_m), m = 1..n.

        The provider is called once per growth, on the indices beyond the
        largest n asked for so far; the memoised table is complex once any
        coefficient is.  A finite table raises ``TableTooShort`` instead.
        """
        table = self._table
        if n > len(table):
            if self.coeffs is None:
                raise TableTooShort(f"defines n up to {len(table)}, needed {n}")
            # concatenating promotes int rows to float, and the table to complex
            table = np.concatenate([table, self.coeffs(np.arange(len(table) + 1, n + 1))])
            table.flags.writeable = False
            # a concurrent grower may replace a longer table with a shorter
            # one; callers only read the local it returns, so that is safe
            object.__setattr__(self, "_table", table)
        return table[:n]

    def coefficient(self, n: int) -> tuple[float, float]:
        """Return (c_n, lambda_n) for 1-based index n."""
        if n < 1:
            raise ValueError(f"coefficient index must be >= 1, got {n}")
        return tuple(self.table(n)[n - 1])

    def __repr__(self) -> str:  # keep callables out of the repr
        ps = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"FamilySpec({self.kind}{', ' + ps if ps else ''}, mu0={self.mu0})"


@_shared
def chebyshev1() -> FamilySpec:
    """Monic Chebyshev polynomials of the first kind on [-1, 1].

    c_n = 0 for all n, lambda_2 = 1/2, lambda_n = 1/4 for n >= 3, and
    lambda_1 = mu0 = pi (the mass of (1 - x^2)^(-1/2) dx).
    """

    def coeffs(ms: np.ndarray) -> np.ndarray:
        lam = np.select([ms == 1, ms == 2], [math.pi, 0.5], 0.25)
        return np.stack([np.zeros(ms.size), lam], axis=1)

    return FamilySpec("chebyshev1", coeffs, (-1.0, 1.0), math.pi)


@_shared
def laguerre(gamma: float) -> FamilySpec:
    """Monic Laguerre family for the weight x^gamma e^(-x) on [0, inf).

    lambda_{n+1} = n (n + gamma); the diagonal c_{n+1} = 2n + gamma + 1 is
    the standard monic value and is gated by the quadrature orthogonality
    oracle in the test suite.
    """
    if not gamma > -1.0:
        raise ParameterOutOfRange(f"laguerre requires gamma > -1, got {gamma}")
    mu0 = math.exp(math.lgamma(gamma + 1.0))

    def coeffs(ms: np.ndarray) -> np.ndarray:
        m = ms - 1.0  # row m + 1 holds (c_{m+1}, lambda_{m+1})
        lam = np.where(ms == 1, mu0, m * (m + gamma))
        return np.stack([2.0 * m + gamma + 1.0, lam], axis=1)

    return FamilySpec("laguerre", coeffs, (0.0, math.inf), mu0, (("gamma", gamma),))


@_shared
def jacobi(gamma: float, delta: float) -> FamilySpec:
    """Monic Jacobi family for the weight (1-x)^gamma (1+x)^delta on [-1, 1].

    c_{n+1} = (delta - gamma)(delta + gamma) / ((2n+gamma+delta)(2n+gamma+delta+2))
    and lambda_{n+1} = 4 n (n+gamma)(n+delta)(n+gamma+delta) /
    ((2n+gamma+delta)^2 (2n+gamma+delta+1)(2n+gamma+delta-1)); the first two
    rows are taken in cancelled form so gamma + delta in {0, -1} does not
    divide by zero.
    """
    if not (gamma > -1.0 and delta > -1.0):
        raise ParameterOutOfRange(
            f"jacobi requires gamma > -1 and delta > -1, got ({gamma}, {delta})"
        )
    s = gamma + delta
    mu0 = math.exp(
        (s + 1.0) * math.log(2.0)
        + math.lgamma(gamma + 1.0)
        + math.lgamma(delta + 1.0)
        - math.lgamma(s + 2.0)
    )
    c_2 = (delta - gamma) * (delta + gamma) / ((s + 2.0) * (s + 4.0))
    lam_2 = 4.0 * (1.0 + gamma) * (1.0 + delta) / ((s + 2.0) ** 2 * (s + 3.0))

    def coeffs(ms: np.ndarray) -> np.ndarray:
        m = ms - 1.0  # row m + 1 holds (c_{m+1}, lambda_{m+1})
        # the general forms may divide by zero at m = 0, 1: those rows are
        # replaced by the cancelled forms
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (delta - gamma) * (delta + gamma) / ((2.0 * m + s) * (2.0 * m + s + 2.0))
            lam = (
                4.0 * m * (m + gamma) * (m + delta) * (m + s)
                / ((2.0 * m + s) ** 2 * (2.0 * m + s + 1.0) * (2.0 * m + s - 1.0))
            )
        rows = np.stack([c, lam], axis=1)
        rows[ms == 1] = (delta - gamma) / (s + 2.0), mu0
        rows[ms == 2] = c_2, lam_2
        return rows

    return FamilySpec(
        "jacobi", coeffs, (-1.0, 1.0), mu0, (("gamma", gamma), ("delta", delta))
    )


def custom_family(rows, support: tuple[float, float], mu0: float | None = None) -> FamilySpec:
    """A family given by the finite (N, 2) table of its pairs (c_n, lambda_n),
    n = 1..N.

    Asking for an index past N raises ``TableTooShort``.  When ``mu0`` is
    omitted it is lambda_1 (the lambda_1 = mu0 convention).
    """
    table = np.array(rows, dtype=complex if np.iscomplexobj(rows) else float)
    if table.ndim != 2 or table.shape[1] != 2 or len(table) == 0:
        raise ValueError(f"expected an (N, 2) table with N >= 1, got shape {table.shape}")
    table.flags.writeable = False
    family = FamilySpec("custom", None, support, table[0, 1].item() if mu0 is None else mu0)
    object.__setattr__(family, "_table", table)
    return family


def eval_table(family: FamilySpec, n: int, xs) -> np.ndarray:
    """Evaluate P_0..P_n at every point of ``xs``; shape (n+1, len(xs)).

    Forward recurrence on c_1..c_n and lambda_2..lambda_n, one array step
    per degree for any number of points; complex points and complex
    coefficient providers are supported transparently.
    """
    xs = np.atleast_1d(np.asarray(xs))
    pairs = family.table(n)
    dtype = complex if np.iscomplexobj(xs) or np.iscomplexobj(pairs) else float
    xs = xs.astype(dtype)
    table = np.empty((n + 1, xs.size), dtype=dtype)
    table[0] = 1.0
    if n >= 1:
        (c_1, _), *steps = pairs.tolist()
        p0, p1 = table[0], xs - c_1
        rows = [p1]
        for c_next, lam_next in steps:
            p0, p1 = p1, (xs - c_next) * p1 - lam_next * p0
            rows.append(p1)
        # one store for all rows: a store per degree costs numpy's per-call
        # overhead n times
        table[1:] = rows
    return table


def eval_derivs(family: FamilySpec, n: int, xs, values: np.ndarray) -> np.ndarray:
    """Evaluate P'_0..P'_n at every point of ``xs``; shape (n+1, len(xs)).

    ``values`` is ``eval_table(family, n, xs)``.  Differentiated recurrence
    P'_{n+1} = P_n + (x - c_{n+1}) P'_n - lambda_{n+1} P'_{n-1}.
    """
    xs = np.atleast_1d(np.asarray(xs)).astype(values.dtype)
    derivs = np.zeros_like(values)
    if n >= 1:
        derivs[1] = 1.0
    for m, (c_next, lam_next) in enumerate(family.table(n)[1:n].tolist(), start=1):
        derivs[m + 1] = values[m] + (xs - c_next) * derivs[m] - lam_next * derivs[m - 1]
    return derivs


def norm_products(family: FamilySpec, n: int) -> np.ndarray:
    """Products N_j = lambda_1 ... lambda_{j+1} for j = 0..n (equal to L(P_j^2))."""
    return np.cumprod(family.table(n + 1)[:, 1])

