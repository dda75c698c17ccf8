"""Moment functionals presented by recurrence coefficients, and their monic
orthogonal polynomial sequences.

A family is the pair of sequences (c_n, lambda_n), n >= 1, driving the
three-term recurrence

    x P_n(x) = P_{n+1}(x) + c_{n+1} P_n(x) + lambda_{n+1} P_{n-1}(x),

with P_{-1} = 0, P_0 = 1.  The recurrence never consumes lambda_1; by
convention lambda_1 := mu_0 = L(1), which makes L(P_n^2) equal to the
product lambda_1 ... lambda_{n+1} used throughout the kernel formulas.
Provider indices are 1-based to mirror the subscripts above; arrays of
evaluated polynomials are 0-based by degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterOutOfRange

__all__ = [
    "FamilySpec",
    "PolySequence",
    "chebyshev1",
    "laguerre",
    "jacobi",
    "custom_family",
    "recurrence_coefficients",
    "eval_sequence",
    "eval_table",
    "eval_derivs",
    "norm_products",
    "monic_coefficient_table",
]

CoeffProvider = Callable[[int], tuple[float, float]]


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A moment functional given by its recurrence coefficient provider.

    Parameters
    ----------
    kind : str
        One of ``"chebyshev1"``, ``"laguerre"``, ``"jacobi"``, ``"custom"``.
    coeffs : callable
        Deterministic map ``n -> (c_n, lambda_n)`` for ``n >= 1``, with
        ``lambda_1 = mu0``.
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
    coeffs: CoeffProvider
    support: tuple[float, float]
    mu0: float
    params: tuple[tuple[str, float], ...] = ()
    # rows (c_m, lambda_m), m = 1..len; grown by table(), never mutated
    _table: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), init=False)

    def table(self, n: int) -> np.ndarray:
        """Read-only (n, 2) array of the pairs (c_m, lambda_m), m = 1..n.

        The provider is asked only for indices beyond the largest n asked
        for so far; the memoised table is complex once any coefficient is.
        """
        table = self._table
        if n > len(table):
            rows = np.array([self.coeffs(m) for m in range(len(table) + 1, n + 1)])
            rows = rows.astype(complex if rows.dtype.kind == "c" else float)
            table = np.concatenate([table, rows])
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


@dataclass(frozen=True)
class PolySequence:
    """Values (and optionally derivatives) of P_0..P_n at one point."""

    x: complex
    values: np.ndarray
    derivs: np.ndarray | None = None


def chebyshev1() -> FamilySpec:
    """Monic Chebyshev polynomials of the first kind on [-1, 1].

    c_n = 0 for all n, lambda_2 = 1/2, lambda_n = 1/4 for n >= 3, and
    lambda_1 = mu0 = pi (the mass of (1 - x^2)^(-1/2) dx).
    """

    def coeffs(n: int) -> tuple[float, float]:
        if n == 1:
            return 0.0, math.pi
        if n == 2:
            return 0.0, 0.5
        return 0.0, 0.25

    return FamilySpec("chebyshev1", coeffs, (-1.0, 1.0), math.pi)


def laguerre(gamma: float) -> FamilySpec:
    """Monic Laguerre family for the weight x^gamma e^(-x) on [0, inf).

    lambda_{n+1} = n (n + gamma); the diagonal c_{n+1} = 2n + gamma + 1 is
    the standard monic value and is gated by the quadrature orthogonality
    oracle in the test suite.
    """
    if gamma <= -1.0:
        raise ParameterOutOfRange(f"laguerre requires gamma > -1, got {gamma}")
    mu0 = math.exp(math.lgamma(gamma + 1.0))

    def coeffs(n: int) -> tuple[float, float]:
        if n == 1:
            return gamma + 1.0, mu0
        m = n - 1
        return 2.0 * m + gamma + 1.0, m * (m + gamma)

    return FamilySpec("laguerre", coeffs, (0.0, math.inf), mu0, (("gamma", gamma),))


def jacobi(gamma: float, delta: float) -> FamilySpec:
    """Monic Jacobi family for the weight (1-x)^gamma (1+x)^delta on [-1, 1].

    lambda_{n+1} = 4 n (n+gamma)(n+delta)(n+gamma+delta) /
    ((2n+gamma+delta)^2 (2n+gamma+delta+1)(2n+gamma+delta-1)); the first two
    coefficients are taken in cancelled form so gamma + delta in {0, -1}
    does not divide by zero.
    """
    if gamma <= -1.0 or delta <= -1.0:
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

    def coeffs(n: int) -> tuple[float, float]:
        if n == 1:
            return (delta - gamma) / (s + 2.0), mu0
        if n == 2:
            c = (delta - gamma) * (delta + gamma) / ((s + 2.0) * (s + 4.0))
            lam = 4.0 * (1.0 + gamma) * (1.0 + delta) / ((s + 2.0) ** 2 * (s + 3.0))
            return c, lam
        m = n - 1  # lambda_n = lambda_{m+1} with m = n-1
        c = (delta - gamma) * (delta + gamma) / ((2.0 * m + s) * (2.0 * m + s + 2.0))
        lam = (
            4.0 * m * (m + gamma) * (m + delta) * (m + s)
            / ((2.0 * m + s) ** 2 * (2.0 * m + s + 1.0) * (2.0 * m + s - 1.0))
        )
        return c, lam

    return FamilySpec(
        "jacobi", coeffs, (-1.0, 1.0), mu0, (("gamma", gamma), ("delta", delta))
    )


def custom_family(
    coeffs: CoeffProvider,
    support: tuple[float, float],
    mu0: float | None = None,
) -> FamilySpec:
    """Wrap a user-supplied provider n -> (c_n, lambda_n).

    The provider must be deterministic.  When ``mu0`` is omitted it is taken
    from ``coeffs(1)[1]`` (the lambda_1 = mu0 convention).
    """
    if mu0 is None:
        mu0 = coeffs(1)[1]
    return FamilySpec("custom", coeffs, support, mu0)


def recurrence_coefficients(family: FamilySpec, n_max: int) -> np.ndarray:
    """Return the pairs (c_n, lambda_n) for n = 1..n_max as an (n_max, 2) array."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return family.table(n_max)


def eval_table(family: FamilySpec, n: int, xs) -> np.ndarray:
    """Evaluate P_0..P_n at every point of ``xs``; shape (n+1, len(xs)).

    Forward recurrence on c_1..c_n and lambda_2..lambda_n; complex points
    and complex coefficient providers are supported transparently.  One
    real point runs on a Python float, whose arithmetic is the same IEEE
    sequence as the arrays'; complex points stay on arrays, because numpy's
    complex array multiply rounds differently from Python's.
    """
    xs = np.atleast_1d(np.asarray(xs))
    pairs = family.table(n)
    dtype = complex if np.iscomplexobj(xs) or np.iscomplexobj(pairs) else float
    xs = xs.astype(dtype)
    table = np.empty((n + 1, xs.size), dtype=dtype)
    table[0] = 1.0
    if n >= 1:
        x, p0 = (xs.item(), 1.0) if xs.size == 1 and dtype is float else (xs, table[0])
        (c_1, _), *steps = pairs.tolist()
        p1 = x - c_1
        table[1] = p1
        for m, (c_next, lam_next) in enumerate(steps, start=2):
            p0, p1 = p1, (x - c_next) * p1 - lam_next * p0
            table[m] = p1
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


def eval_sequence(
    family: FamilySpec, n: int, x, with_derivs: bool = False
) -> PolySequence:
    """Evaluate P_0..P_n (and optionally P'_0..P'_n) at a single point:
    the one-point case of ``eval_table`` and ``eval_derivs``."""
    values = eval_table(family, n, [x])
    derivs = eval_derivs(family, n, [x], values)[:, 0] if with_derivs else None
    return PolySequence(x=x, values=values[:, 0], derivs=derivs)


def norm_products(family: FamilySpec, n: int) -> np.ndarray:
    """Products N_j = lambda_1 ... lambda_{j+1} for j = 0..n (equal to L(P_j^2))."""
    return np.cumprod(family.table(n + 1)[:, 1])


def monic_coefficient_table(
    pairs: Sequence[tuple[float, float]], n_max: int
) -> list[np.ndarray]:
    """Monomial coefficient vectors (ascending) of P_0..P_n_max for given pairs.

    ``pairs[m]`` holds (c_{m+1}, lambda_{m+1}).  Exact at desk scale; used for
    monicity / degree checks and the moment-functional solver.
    """
    pairs = np.asarray(pairs)
    dtype = np.result_type(pairs, float)
    polys = [np.array([1.0], dtype=dtype)]
    if n_max >= 1:
        polys.append(np.array([-pairs[0][0], 1.0], dtype=dtype))
    for m in range(1, n_max):
        c_next, lam_next = pairs[m]
        nxt = np.zeros(m + 2, dtype=dtype)
        nxt[1:] += polys[m]              # x * P_m
        nxt[: m + 1] -= c_next * polys[m]
        nxt[: m] -= lam_next * polys[m - 1]
        polys.append(nxt)
    return polys
