"""Quadrature oracle for a family's moment functional and its transforms.

The Gauss rule of order m comes from the symmetrized tridiagonal (Jacobi)
matrix with diagonal c_1..c_m and off-diagonal sqrt(lambda_2..lambda_m)
(Golub & Welsch 1969).  ``numpy.linalg.eigh`` solves it as a dense
symmetric matrix: the eigenvalues are the nodes, and the weights are mu0
times the squared first eigenvector components.  On top of the base
functional L the module applies

    L*(p)     = L((x - k) p)                       (Christoffel)
    Ltilde(p) = L((p(x) - p(k)) / (x - k)) + p(k) * mass0   (Geronimus)
    Lhat(p)   = L(p) + r0 * p(k)                   (Uvarov)

all by quadrature, which keeps this module an oracle independent of every
closed-form identity it is used to certify.  On a Gauss rule each of the
four is one discrete measure (``measure``); Geronimus is the modified rule
with weights w/(x - k) on the nodes and the point weight
mass0 - sum w/(x - k) at k, exact where the rule integrates the divided
difference (Gautschi, Orthogonal Polynomials: Computation and
Approximation, 2004, sec. 2.4).  A Gram matrix takes its sequence as one
table evaluator, ``xs -> (n_max + 1, len(xs))``, reads it once on the
measure of one rule and sums each entry once.

Far from the support the Geronimus measure's terms cancel from the scale
of p(k).  Where an entry's rounding bound is too large against the
diagonal, it falls back to the split form
L(p/(x - k)) + p(k) (mass0 + L(1/(k - x))), whose first term is integrated
by node doubling.  ``cauchy_mass`` gives L(1/(k - x)) in closed form for
the built-in families and by node doubling for custom ones.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonConvergent, NotPositiveDefinite, ParameterOutOfRange, ShiftInsideSupport
from .families import FamilySpec

__all__ = [
    "GaussRule",
    "Base",
    "Christoffel",
    "Geronimus",
    "Uvarov",
    "Functional",
    "gauss_rule",
    "measure",
    "apply_functional",
    "orthogonality_residual",
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

    k: float


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

    The dense Jacobi matrix is solved by ``numpy.linalg.eigh`` for every
    order, m = 1 included (a 1x1 matrix gives node c_1 and weight mu0).

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
    pairs = family.table(m)
    if np.iscomplexobj(pairs):
        raise NotPositiveDefinite("complex recurrence coefficients have no Gauss rule")
    diag = pairs[:, 0].astype(float)
    lam = pairs[1:, 1].astype(float)
    if np.any(lam <= 0.0):
        bad = int(np.argmax(lam <= 0.0)) + 2
        raise NotPositiveDefinite(f"lambda_{bad} = {lam[bad - 2]} <= 0")
    off = np.diag(np.sqrt(lam), -1)
    nodes, vecs = np.linalg.eigh(np.diag(diag) + off + off.T)
    rule = GaussRule(nodes, family.mu0 * vecs[0] ** 2, m)
    with _rule_lock:
        _rule_cache.setdefault(family, {}).setdefault(m, rule)
    return rule


def _rule_order_for_degree(degree: int) -> int:
    return max(1, degree // 2 + (degree % 2) + 2)  # ceil(d/2) + 2


_EPS = np.finfo(float).eps
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


def _require_geronimus_shift(family: FamilySpec, k: float) -> None:
    a, b = family.support
    if a < k < b:
        raise ShiftInsideSupport(f"Geronimus shift k={k} lies inside the support ({a}, {b})")


def _split_form(
    family: FamilySpec,
    kind: Geronimus,
    poly_values: Callable[[np.ndarray], np.ndarray],
    degree: int,
    pk: float,
    cauchy: float,
) -> float:
    """Ltilde(p) in the algebraically identical split of the divided difference,

        L((p(x) - p(k))/(x - k)) + p(k) mass0
          = L(p(x)/(x - k)) + p(k) (mass0 + L(1/(k - x))),

    with ``pk`` = p(k) and ``cauchy`` = L(1/(k - x)).  It keeps every
    quadrature term at the scale of p on the support instead of the scale
    of p(k); the Stieltjes part is integrated by node doubling."""

    def stieltjes_part(xs: np.ndarray) -> np.ndarray:
        return poly_values(xs) / (xs - kind.k)

    start = _rule_order_for_degree(max(degree - 1, 0))
    value = integrate_until_stable(family, stieltjes_part, start_order=max(start, 8))
    return math.fsum([value, pk * (kind.mass0 + cauchy)])


def measure(family: FamilySpec, kind: Functional, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The polynomial functional ``kind`` as a discrete measure (nodes,
    weights) on the m-point Gauss rule (x, w).

    - Base: (x, w), exact through degree 2m - 1;
    - Christoffel: (x, w (x - k)), exact through degree 2m - 2;
    - Geronimus: (x then k, w/(x - k) then mass0 - fsum(w/(x - k))), exact
      through degree 2m, where the divided difference has degree 2m - 1;
    - Uvarov: (x then k, w then r0), exact through degree 2m - 1.

    Raises
    ------
    ShiftInsideSupport
        If a Geronimus shift lies inside the support.
    """
    rule = gauss_rule(family, m)
    if isinstance(kind, Base):
        return rule.nodes, rule.weights
    if isinstance(kind, Christoffel):
        return rule.nodes, rule.weights * (rule.nodes - kind.k)
    if isinstance(kind, Geronimus):
        _require_geronimus_shift(family, kind.k)
        weights = rule.weights / (rule.nodes - kind.k)
        return np.append(rule.nodes, kind.k), np.append(weights, kind.mass0 - math.fsum(weights))
    return np.append(rule.nodes, kind.k), np.append(rule.weights, kind.r0)


def apply_functional(
    family: FamilySpec,
    kind: Functional,
    poly_values: Callable[[np.ndarray], np.ndarray],
    degree: int,
) -> float:
    """Apply the chosen functional to a polynomial given as an evaluator.

    ``degree`` must bound the polynomial degree so an exact rule can be
    chosen.  Base, Christoffel and Uvarov sum over their ``measure`` on the
    smallest rule exact for that degree.  Geronimus takes the split form,
    whose Stieltjes part p(x)/(x - k) is integrated by node doubling: it
    holds every quadrature term at the scale of p on the support, so it
    stays accurate far from the support, where the terms of the exact
    divided-difference form cancel.  ``orthogonality_residual`` takes the
    Geronimus ``measure`` wherever its rounding bound allows.
    """
    if isinstance(kind, Geronimus):
        _require_geronimus_shift(family, kind.k)
        pk = float(np.real(poly_values(np.array([kind.k]))[0]))
        return _split_form(family, kind, poly_values, degree, pk, cauchy_mass(family, kind.k))
    shift = 1 if isinstance(kind, Christoffel) else 0
    nodes, weights = measure(family, kind, _rule_order_for_degree(degree + shift))
    return math.fsum(weights * poly_values(nodes))


_cauchy_cache: "weakref.WeakKeyDictionary[FamilySpec, dict[float, float]]" = (
    weakref.WeakKeyDictionary()
)
_cauchy_lock = threading.Lock()
# modified Lentz settles the Laguerre fraction after 92 terms at k = -1,
# 5,297 at k = -0.01 and about 34,000 at k = -0.001; the cap is the
# J-fraction record's depth cap, so shifts within about 5e-4 of the support
# raise
_LENTZ_CAP = 2**16
_LENTZ_TINY = 1e-300
# the Gauss fraction's depth: it settles from |k| = 1.02 (z = 0.99) on, and
# at |k| = 1.01 depth and depth + 10 disagree, so the call raises
_GAUSS_CF_DEPTH = 200


def _laguerre_cauchy(mu0: float, gamma: float, k: float) -> float:
    """-Gamma(gamma+1) a^gamma e^a Gamma(-gamma, a) with a = -k > 0.

    Legendre's fraction Gamma(s, a) = e^-a a^s / (a + 1 - s - 1 (1 - s) /
    (a + 3 - s - 2 (2 - s) / (...))) at s = -gamma cancels the prefactor,
    leaving -mu0 over the denominator (Cuyt et al., Handbook of Continued
    Fractions for Special Functions, 2008, ch. 12).

    Modified Lentz (Thompson & Barnett 1986) runs forward to the first term
    n that moves the value by less than eps.  Its running product gathers a
    rounding per term (2e-15 at k = -1, 2e-13 at k = -0.01 against mpmath),
    and depth n is still up to 3e-13 short, so Lentz only finds the depth:
    one backward pass at depth 2n gives the value (4e-15 down to k = -0.01).
    """
    a = -k
    b = a + 1.0 + gamma
    c, d = 1.0 / _LENTZ_TINY, 1.0 / b
    for n in range(1, _LENTZ_CAP + 1):
        a_n = -n * (n + gamma)
        b += 2.0
        d = a_n * d + b
        c = b + a_n / c
        d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
        c = c if abs(c) >= _LENTZ_TINY else _LENTZ_TINY
        if abs(c * d - 1.0) <= _EPS:
            break
    else:
        raise NonConvergent(
            f"the Laguerre Cauchy fraction at k={k} does not settle in {_LENTZ_CAP} terms"
        )
    tail = 0.0
    for m in range(2 * n, 0, -1):
        tail = -m * (m + gamma) / (a + 2.0 * m + 1.0 + gamma + tail)
    return -mu0 / (a + 1.0 + gamma + tail)


def _jacobi_cauchy(mu0: float, gamma: float, delta: float, k: float) -> float:
    """mu0/(k + 1) 2F1(1, delta+1; gamma+delta+2; 2/(k + 1)) for k > 1, and
    minus that with gamma and delta swapped at -k for k < -1."""
    # imported here: opx.ratios imports opx.kernels, which imports this module
    from .ratios import gauss_cf_ratio

    if k < 0.0:
        return -_jacobi_cauchy(mu0, delta, gamma, -k)
    z = 2.0 / (k + 1.0)
    return mu0 / (k + 1.0) * gauss_cf_ratio(0.0, delta + 1.0, gamma + delta + 2.0, z, _GAUSS_CF_DEPTH)


def cauchy_mass(family: FamilySpec, k: float) -> float:
    """L(1/(k - x)) for k outside the closed support, where it is single-signed.

    The built-in families have closed forms:

    - chebyshev1: sign(k) pi / sqrt(k^2 - 1);
    - laguerre(gamma), with a = -k: -Gamma(gamma+1) a^gamma e^a Gamma(-gamma, a),
      Gamma(-gamma, a) from Legendre's continued fraction;
    - jacobi(gamma, delta), for k > 1: mu0/(k + 1) 2F1(1, delta+1;
      gamma+delta+2; 2/(k + 1)), Euler's integral after Pfaff's
      transformation, so z lies in (0, 1); for k < -1, x -> -x.

    Neither fraction is an independent quadrature.  Legendre's fraction is
    Laguerre's J-fraction itself, and Jacobi's J-fraction is the even
    contraction of the Gauss fraction (Wall, Analytic Theory of Continued
    Fractions, 1948).  Against the Geronimus record's mass they check the
    coefficient formulas, the contraction and the depth the fraction is cut
    at.  Custom families are integrated by node doubling.  Every value is
    memoized per (family, k).

    Raises
    ------
    ShiftInsideSupport
        If k lies in the closed support.
    NonConvergent
        If a fraction does not settle (k within about 5e-4 of Laguerre's
        support, or 0.01 of Jacobi's), or node doubling fails.
    """
    lo, hi = family.support
    if lo <= k <= hi:
        raise ShiftInsideSupport(f"L(1/(k - x)) requires k outside the support [{lo}, {hi}], got {k}")
    per_family = _cauchy_cache.get(family)
    value = None if per_family is None else per_family.get(k)
    if value is None:
        value = _cauchy_value(family, k)
        with _cauchy_lock:
            _cauchy_cache.setdefault(family, {}).setdefault(k, value)
    return value


def _cauchy_value(family: FamilySpec, k: float) -> float:
    params = dict(family.params)
    if family.kind == "chebyshev1":
        return math.copysign(math.pi / math.sqrt((k - 1.0) * (k + 1.0)), k)
    if family.kind == "laguerre":
        return _laguerre_cauchy(family.mu0, params["gamma"], k)
    if family.kind == "jacobi":
        return _jacobi_cauchy(family.mu0, params["gamma"], params["delta"], k)
    return integrate_until_stable(family, lambda xs: 1.0 / (k - xs), start_order=32, rtol=1e-13)


# a Gram entry keeps the Geronimus measure's sum when its rounding bound is
# at most this fraction of the diagonal scale.  The Laguerre default shift
# passes at 1e-12 with every entry; at 1e-13 some of its entries would go
# back to node doubling, up to 512 nodes
_EXACT_FORM_BOUND = 1e-12


def _split_where_rounding_is_large(
    family: FamilySpec,
    kind: Geronimus,
    table: Callable[[np.ndarray], np.ndarray],
    gram: np.ndarray,
    bound: np.ndarray,
    pk: np.ndarray,
) -> None:
    """Retake in the split form, in place, each entry of the unnormalized
    Geronimus Gram matrix ``gram`` whose rounding bound exceeds
    ``_EXACT_FORM_BOUND`` times its diagonal scale sqrt(|G_ii G_jj|); the
    diagonal is settled first, each entry against its own size.  ``pk``
    holds p(k) of every entry."""
    values = _once_per_node_set(table)
    cauchy = None  # L(1/(k - x)), once, if any entry takes the split form

    def split(i: int, j: int) -> float:
        nonlocal cauchy
        if cauchy is None:
            cauchy = cauchy_mass(family, kind.k)

        def product(xs: np.ndarray) -> np.ndarray:
            rows = values(xs)
            return rows[i] * rows[j]

        return _split_form(family, kind, product, i + j, pk[i, j], cauchy)

    size = len(gram)
    for i in range(size):
        if bound[i, i] > _EXACT_FORM_BOUND * abs(gram[i, i]):
            gram[i, i] = split(i, i)
    scale = np.sqrt(np.abs(np.diag(gram)))
    for i in range(size):
        for j in range(i):
            if bound[i, j] > _EXACT_FORM_BOUND * scale[i] * scale[j]:
                gram[i, j] = gram[j, i] = split(i, j)


def _once_per_node_set(table: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
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


def _entry_sums(terms: np.ndarray) -> np.ndarray:
    """The matrix whose entry (i, j) is the compensated sum of ``terms[i, j]``."""
    return np.array([[math.fsum(entry) for entry in row] for row in terms.tolist()])


def orthogonality_residual(
    family: FamilySpec,
    kind: Functional,
    table: Callable[[np.ndarray], np.ndarray],
    n_max: int,
) -> np.ndarray:
    """Normalized Gram matrix of a sequence under the functional.

    ``table(xs)`` returns the members 0..n_max of the sequence at the points
    ``xs``, shape (n_max + 1, len(xs)).  Entry (n, m) is the functional
    applied to the product of rows n and m, divided by
    sqrt(|diag_n| * |diag_m|); the off-diagonal entries are the test
    statistic.  Degrees are assumed to equal the index (monic sequences).

    The table is read once, on the ``measure`` of the rule with n_max + 2
    nodes, exact for every entry, and each entry is one compensated sum.
    Far from the support the Geronimus terms cancel from the scale of p(k),
    p = row n times row m, so each Geronimus entry carries the a-priori
    rounding bound eps (sum |terms| + |p(k)| sum_l |w_l/(x_l - k)|), the
    second term the point weight's own; an entry whose bound is too large
    against the diagonal is retaken in the split form.  A term past the
    double range raises ParameterOutOfRange naming the lowest degree it
    reaches.
    """
    nodes, weights = measure(family, kind, n_max + 2)
    rows = table(nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        terms = weights * (rows[:, None, :] * rows[None, :, :])
    if not np.isfinite(terms).all():
        bad = np.tril(~np.isfinite(terms).all(axis=-1)).any(axis=1)
        raise ParameterOutOfRange(f"the Gram entries of degree {np.argmax(bad)} are out of the double range")
    gram = _entry_sums(terms)
    if isinstance(kind, Geronimus):
        pk = np.outer(rows[:, -1], rows[:, -1])
        bound = _EPS * (np.sum(np.abs(terms), axis=-1) + np.abs(pk) * np.sum(np.abs(weights[:-1])))
        _split_where_rounding_is_large(family, kind, table, gram, bound, pk)
    diag = np.sqrt(np.abs(np.diag(gram)))
    diag[diag == 0.0] = 1.0
    return gram / np.outer(diag, diag)
