"""Quadrature oracle for a family's moment functional and its transforms.

The Gauss rule of order m comes from the symmetrized tridiagonal (Jacobi)
matrix with diagonal c_1..c_m and off-diagonal sqrt(lambda_2..lambda_m);
weights are mu0 times the squared first eigenvector components.  On top of
the base functional L the module applies

    L*(p)     = L((x - k) p)                       (Christoffel)
    Ltilde(p) = L((p(x) - p(k)) / (x - k)) + p(k) * mass0   (Geronimus)
    Lhat(p)   = L(p) + r0 * p(k)                   (Uvarov)

all by quadrature, which keeps this module an oracle independent of every
closed-form identity it is used to certify.  A Gram matrix takes its
sequence as one table evaluator, ``xs -> (n_max + 1, len(xs))``, and reads
it once per node set for every entry.

scipy is imported on the first uncached rule of order m >= 2, for its one
call (``scipy.linalg.eigh_tridiagonal``), not when this module is imported:
``import opx``, and every command that solves no rule, never load it.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonConvergent, NotPositiveDefinite, ShiftInsideSupport
from .families import FamilySpec, recurrence_coefficients

__all__ = [
    "GaussRule",
    "Base",
    "Christoffel",
    "Geronimus",
    "Uvarov",
    "Functional",
    "gauss_rule",
    "apply_functional",
    "once_per_node_set",
    "orthogonality_residual",
    "moment_sequence",
    "cauchy_mass",
    "integrate_until_stable",
]


@dataclass(frozen=True)
class GaussRule:
    """Nodes and weights of an m-point Gauss rule (exact through degree 2m-1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@dataclass(frozen=True)
class Base:
    """The family's own moment functional L."""


@dataclass(frozen=True)
class Christoffel:
    """L*(p) = L((x - k) p)."""

    k: complex


@dataclass(frozen=True)
class Geronimus:
    """Ltilde with Ltilde((x-k) p) = L(p); the free constant Ltilde(1) = mass0."""

    k: float
    mass0: float = 1.0


@dataclass(frozen=True)
class Uvarov:
    """Lhat = L + r0 * delta(x - k) with r0 != 0."""

    k: float
    r0: float


Functional = Union[Base, Christoffel, Geronimus, Uvarov]

# weak keys: a family's cache entries live exactly as long as the family, so
# a recycled object address can never alias a stale entry
_rule_cache: "weakref.WeakKeyDictionary[FamilySpec, dict[int, GaussRule]]" = (
    weakref.WeakKeyDictionary()
)
_rule_lock = threading.Lock()


def gauss_rule(family: FamilySpec, m: int) -> GaussRule:
    """Build (and memoize) the m-point Gauss rule of ``family``.

    Raises
    ------
    NotPositiveDefinite
        If some lambda_n <= 0 for 2 <= n <= m.
    """
    if m < 1:
        raise ValueError(f"rule order must be >= 1, got {m}")
    per_family = _rule_cache.get(family)
    if per_family is not None:
        rule = per_family.get(m)
        if rule is not None:
            return rule
    pairs = recurrence_coefficients(family, m)
    if np.iscomplexobj(pairs):
        raise NotPositiveDefinite("complex recurrence coefficients have no Gauss rule")
    diag = pairs[:, 0].astype(float)
    lam = pairs[1:, 1].astype(float)
    if np.any(lam <= 0.0):
        bad = int(np.argmax(lam <= 0.0)) + 2
        raise NotPositiveDefinite(f"lambda_{bad} = {lam[bad - 2]} <= 0")
    if m == 1:
        rule = GaussRule(np.array([diag[0]]), np.array([family.mu0]), 1)
    else:
        # scipy is loaded here, on the first rule that needs an eigensolve,
        # so importing opx and every quadrature-free command stay without it
        from scipy.linalg import eigh_tridiagonal

        nodes, vecs = eigh_tridiagonal(diag, np.sqrt(lam))
        rule = GaussRule(nodes, family.mu0 * vecs[0] ** 2, m)
    with _rule_lock:
        _rule_cache.setdefault(family, {}).setdefault(m, rule)
    return rule


def _rule_order_for_degree(degree: int) -> int:
    return max(1, degree // 2 + (degree % 2) + 2)  # ceil(d/2) + 2


# roundoff floor of a quadrature sum, relative to its L1 scale sum |w_i f_i|
_ROUNDOFF_FLOOR = 1e-14
# once successive differences grow, the weights' own roundoff dominates; the
# previous order is kept only if its difference was this small against its
# L1 scale (the verify suites reach 9.4e-11 on Laguerre(0), 4.4e-11 on
# Laguerre(0.5))
_NOISE_ACCEPT = 1e-9


def integrate_until_stable(
    family: FamilySpec,
    integrand: Callable[[np.ndarray], np.ndarray],
    start_order: int = 32,
    rtol: float = 1e-11,
    max_order: int = 4096,
) -> float:
    """Integrate a smooth non-polynomial integrand by node doubling.

    Doubling stops at the first order whose value differs from the previous
    order's by at most ``rtol`` relative, or the roundoff floor
    1e-14 * sum |w_i f_i| (values that cancel to about 0 can do no better).
    Golub-Welsch weights carry only absolute accuracy, so once the
    difference between successive orders grows, more nodes only add noise:
    the previous order's value is returned if its difference was within
    1e-9 of the L1 scale.

    Raises
    ------
    NonConvergent
        If the differences grow from above that level, or ``max_order`` is
        reached without meeting a stopping test.
    """
    prev = prev_diff = prev_l1 = None
    m = start_order
    while m <= max_order:
        rule = gauss_rule(family, m)
        terms = rule.weights * integrand(rule.nodes)
        # compensated summation: the integrand terms may be orders of
        # magnitude larger than the value they cancel down to
        value = math.fsum(terms)
        l1 = float(np.sum(np.abs(terms)))
        if prev is not None:
            diff = abs(value - prev)
            if diff <= max(rtol * abs(value), _ROUNDOFF_FLOOR * l1):
                return value
            if prev_diff is not None and diff > prev_diff:
                if prev_diff <= _NOISE_ACCEPT * prev_l1:
                    return prev
                raise NonConvergent(
                    f"node doubling diverges at order {m}: successive differences "
                    f"{prev_diff:.3g} then {diff:.3g} (L1 scale {prev_l1:.3g})"
                )
            prev_diff = diff
        prev, prev_l1 = value, l1
        m *= 2
    raise NonConvergent(f"node doubling reached the cap of {max_order} nodes without settling")


def apply_functional(
    family: FamilySpec,
    kind: Functional,
    poly_values: Callable[[np.ndarray], np.ndarray],
    degree: int,
) -> float:
    """Apply the chosen functional to a polynomial given as an evaluator.

    ``degree`` must bound the polynomial degree so an exact rule can be
    chosen.  The Geronimus divided difference is the one integrand handled
    by node doubling; everything else uses a fixed exact-degree rule.
    """
    if isinstance(kind, Base):
        rule = gauss_rule(family, _rule_order_for_degree(degree))
        return math.fsum(rule.weights * poly_values(rule.nodes))
    if isinstance(kind, Christoffel):
        rule = gauss_rule(family, _rule_order_for_degree(degree + 1))
        # grouping matches the Base branch applied to (x - k) p(x), so the
        # two routes agree bitwise when they share a rule
        return math.fsum(rule.weights * ((rule.nodes - kind.k) * poly_values(rule.nodes)))
    if isinstance(kind, Uvarov):
        rule = gauss_rule(family, _rule_order_for_degree(degree))
        terms = list(rule.weights * poly_values(rule.nodes))
        terms.append(kind.r0 * float(np.real(poly_values(np.array([kind.k]))[0])))
        return math.fsum(terms)
    if isinstance(kind, Geronimus):
        a, b = family.support
        if a < kind.k < b:
            raise ShiftInsideSupport(
                f"Geronimus shift k={kind.k} lies inside the support ({a}, {b})"
            )
        pk = float(np.real(poly_values(np.array([kind.k]))[0]))
        # algebraically identical split of the divided difference,
        #   L((p(x) - p(k))/(x - k)) + p(k) mass0
        #     = L(p(x)/(x - k)) + p(k) (mass0 + L(1/(k - x))),
        # which keeps every quadrature term at the scale of p on the support
        # instead of the scale of p(k)

        def stieltjes_part(xs: np.ndarray) -> np.ndarray:
            return poly_values(xs) / (xs - kind.k)

        start = _rule_order_for_degree(max(degree - 1, 0))
        value = integrate_until_stable(family, stieltjes_part, start_order=max(start, 8))
        return math.fsum([value, pk * (kind.mass0 + cauchy_mass(family, kind.k))])
    raise TypeError(f"unknown functional kind: {kind!r}")


_cauchy_cache: "weakref.WeakKeyDictionary[FamilySpec, dict[float, float]]" = (
    weakref.WeakKeyDictionary()
)


def cauchy_mass(family: FamilySpec, k: float) -> float:
    """L(1/(k - x)), single-signed for k outside the support; memoized."""
    per_family = _cauchy_cache.setdefault(family, {})
    value = per_family.get(k)
    if value is None:
        value = integrate_until_stable(
            family, lambda xs: 1.0 / (k - xs), start_order=32, rtol=1e-13
        )
        per_family[k] = value
    return value


def once_per_node_set(table: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """``table`` memoized on its point set: each distinct ``xs`` (compared by
    value) is evaluated once, and a repeat returns the same array."""
    cache: dict[bytes, np.ndarray] = {}

    def cached(xs: np.ndarray) -> np.ndarray:
        key = xs.tobytes()
        values = cache.get(key)
        if values is None:
            values = cache[key] = table(xs)
        return values

    return cached


def orthogonality_residual(
    family: FamilySpec,
    kind: Functional,
    table: Callable[[np.ndarray], np.ndarray],
    n_max: int,
) -> np.ndarray:
    """Normalized Gram matrix of a sequence under the functional.

    ``table(xs)`` returns the members 0..n_max of the sequence at the points
    ``xs``, shape (n_max + 1, len(xs)); it is called once per distinct node
    set (each fixed rule, each node-doubling order, and the point [k]).
    Entry (n, m) is the functional applied to the product of rows n and m,
    divided by sqrt(|diag_n| * |diag_m|); the off-diagonal entries are the
    test statistic.  Degrees are assumed to equal the index (monic sequences).
    """
    values = once_per_node_set(table)
    size = n_max + 1
    gram = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1):
            def product(xs, _i=i, _j=j):
                rows = values(xs)
                return rows[_i] * rows[_j]

            gram[i, j] = gram[j, i] = apply_functional(family, kind, product, i + j)
    diag = np.sqrt(np.abs(np.diag(gram)))
    diag[diag == 0.0] = 1.0
    return gram / np.outer(diag, diag)


def moment_sequence(family: FamilySpec, j_max: int) -> np.ndarray:
    """Moments mu_0..mu_j_max from the recurrence alone (no eigensolve).

    mu_j / mu_0 equals the (0, 0) entry of the j-th power of the monic
    tridiagonal recurrence matrix, computed by repeated matrix-vector
    products; this stays relatively accurate where a monomial-basis change
    would cancel catastrophically.  Serves as the reference the Gauss rules
    are checked against.
    """
    size = j_max // 2 + 2
    pairs = recurrence_coefficients(family, size + 1)
    diag = pairs[:size, 0]
    sub = pairs[1 : size + 1, 1]
    vec = np.zeros(size, dtype=pairs.dtype)
    vec[0] = 1.0
    moments = np.empty(j_max + 1, dtype=pairs.dtype)
    moments[0] = family.mu0
    for j in range(1, j_max + 1):
        nxt = diag * vec
        nxt[:-1] += vec[1:]  # superdiagonal of ones (monic convention)
        nxt[1:] += sub[: size - 1] * vec[:-1]
        vec = nxt
        moments[j] = family.mu0 * vec[0]
    return moments if np.iscomplexobj(pairs) else moments.real
