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
of p(k); an entry whose rounding bound is too large against the diagonal
takes the split form p(k) (mass0 + L(1/(k - x))) - L(p/(k - x)) on one
rule, its order chosen from the rule's error on 1/(k - x) before summing and
checked by one guard sum.  ``cauchy_mass`` gives L(1/(k - x)) in closed
form, or as such a Gauss sum for custom families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonConvergent, NotPositiveDefinite, ParameterOutOfRange, ShiftInsideSupport
from .families import FamilySpec
from .ratios import gauss_cf_ratio
from .transforms import jfraction

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


def gauss_rule(family: FamilySpec, m: int) -> GaussRule:
    """Build (and memoize on the family) the m-point Gauss rule of ``family``.

    The dense Jacobi matrix is solved by ``numpy.linalg.eigh`` for every
    order, m = 1 included (a 1x1 matrix gives node c_1 and weight mu0).

    Raises
    ------
    NotPositiveDefinite
        If some lambda_n <= 0 for 2 <= n <= m.
    """
    if m < 1:
        raise ValueError(f"rule order must be >= 1, got {m}")
    rule = family._memo.get(("rule", m))
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
    return family._memo.setdefault(("rule", m), GaussRule(nodes, family.mu0 * vecs[0] ** 2, m))


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
    order's by at most ``rtol`` relative, or 1e-14 * sum |w_i f_i| (values
    that cancel to about 0 can do no better).  Once the differences grow,
    the weights' noise dominates: the previous value is returned if its
    difference was within 1e-9 of the L1 scale.

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


_SPLIT_ORDER_CAP = 1024  # the largest rule chosen on a family given by a closed form


def _split_order(family: FamilySpec, k: float, least: int, threshold: float) -> int:
    """The least Gauss rule order m >= ``least`` whose error on the Cauchy
    kernel, E_m = L(1/(k - x)) - sum w_i/(k - x_i) = s_0 prod_{j=1..m} s_j/rho_j,
    is at most ``threshold``: ``jfraction`` from start 0, to a finite table's
    N rows (its own measure: E_N = 0) or NonConvergent past 1024 nodes."""
    degenerate = f"a Cauchy-kernel recurrence denominator vanishes at k={k}"
    unsettled = f"no Gauss rule to {_SPLIT_ORDER_CAP} nodes meets the split-form bound at k={k}"
    return max(least, jfraction(family, k, 0, threshold, _SPLIT_ORDER_CAP, degenerate, unsettled)[1])


# the split form's sums on m and m + 4 nodes must agree within this fraction
# of each entry's L1 scale, the accuracy the exact form is held to
_GUARD_BOUND = 1e-12


def _cauchy_sums(family: FamilySpec, k: float, values: Callable, m: int, scale) -> np.ndarray:
    """Correctly rounded sums of p(x)/(k - x) on the m-node Gauss rule, p
    tabulated by ``values(xs)``, shape (..., len(xs)).  A guard sum on m + 4
    nodes (at most a finite table's N) must agree within ``_GUARD_BOUND``
    times the L1 ``scale``, else m is too small or its far weights, whose
    noise p(x) magnifies on a half line, too noisy: NonConvergent."""
    guard = m + 4 if family.coeffs is not None else min(m + 4, len(family._table))
    rules = gauss_rule(family, m), gauss_rule(family, guard)
    sums = [_entry_sums(rule.weights * (values(rule.nodes) / (k - rule.nodes))) for rule in rules]
    if np.any(np.abs(sums[0] - sums[1]) > _GUARD_BOUND * scale):
        raise NonConvergent(f"the Gauss sums on {m} and {guard} nodes disagree at k={k}: order too small or too noisy")
    return sums[0]


def _split_form(family: FamilySpec, kind: Geronimus, values: Callable, degree: int, pk, scale) -> np.ndarray:
    """Ltilde(p) = p(k) (mass0 + L(1/(k - x))) - L(p(x)/(k - x)), the split of
    the divided-difference form, for the polynomials p of degree at most
    ``degree`` that ``values`` tabulates, with p(k) in ``pk`` and
    sum |w_i p(x_i)/(x_i - k)| in ``scale``.  Once 2m >= degree the m-node
    error is exactly p(k) E_m: one rule serves all, the least m with every
    |p(k) E_m| <= eps scale."""
    ratio = np.divide(scale, np.abs(pk), out=np.full(np.shape(pk), np.inf), where=pk != 0)
    m = _split_order(family, kind.k, max(1, (degree + 1) // 2), _EPS * np.min(ratio))
    stieltjes = _cauchy_sums(family, kind.k, values, m, scale)
    return pk * (kind.mass0 + cauchy_mass(family, kind.k)) - stieltjes


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
        a, b = family.support
        if a < kind.k < b:
            raise ShiftInsideSupport(f"Geronimus shift k={kind.k} lies inside the support ({a}, {b})")
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
    smallest rule exact for that degree.  Geronimus takes the split form
    against the L1 scale on that rule's ``measure``: its terms keep the
    scale of p on the support, where those of the exact divided-difference
    form cancel far from it.  ``orthogonality_residual`` takes the Geronimus
    ``measure`` wherever its rounding bound allows.
    """
    shift = 1 if isinstance(kind, Christoffel) else 0
    nodes, weights = measure(family, kind, _rule_order_for_degree(degree + shift))
    values = poly_values(nodes)
    if isinstance(kind, Geronimus):
        scale = np.sum(np.abs(weights[:-1] * values[:-1]))
        return float(_split_form(family, kind, poly_values, degree, values[-1], scale))
    return math.fsum(weights * values)


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
    at.  A custom family sums 1/(k - x) on one Gauss rule, its order chosen
    like the split form's, at most the table's N rows (its own measure).
    Every value is memoized per (family, k).

    Raises
    ------
    ShiftInsideSupport
        If k lies in the closed support.
    NonConvergent
        If a fraction does not settle (k within about 5e-4 of Laguerre's
        support, or 0.01 of Jacobi's), or a custom family's guard sum
        disagrees with the chosen one.
    """
    lo, hi = family.support
    if lo <= k <= hi:
        raise ShiftInsideSupport(f"L(1/(k - x)) requires k outside the support [{lo}, {hi}], got {k}")
    value = family._memo.get(("cauchy", k))
    if value is None:
        value = family._memo.setdefault(("cauchy", k), _cauchy_value(family, k))
    return value


def _cauchy_value(family: FamilySpec, k: float) -> float:
    params = dict(family.params)
    if family.kind == "chebyshev1":
        return math.copysign(math.pi / math.sqrt((k - 1.0) * (k + 1.0)), k)
    if family.kind == "laguerre":
        return _laguerre_cauchy(family.mu0, params["gamma"], k)
    if family.kind == "jacobi":
        return _jacobi_cauchy(family.mu0, params["gamma"], params["delta"], k)
    # the one-node sum mu0/(k - c_1) is the L1 scale: the integrand is single-signed
    scale = abs(family.mu0 / (k - family.table(1)[0, 0]))
    return float(_cauchy_sums(family, k, np.ones_like, _split_order(family, k, 1, _EPS * scale), scale))


# a Gram entry keeps the Geronimus measure's sum when its rounding bound is
# at most this fraction of the diagonal scale, as every entry does at the
# Laguerre default shift
_EXACT_FORM_BOUND = 1e-12


def _entry_sums(terms: np.ndarray) -> np.ndarray:
    """The array whose entry [...] is ``math.fsum(terms[..., :])``, the
    correctly rounded sum.  It stays on fsum, where ``ratios.hyp_series``
    adds in term order: orthogonality residuals cancel to about 1e-17 of
    their terms' magnitudes, and fsum adds no error of its own to that."""
    sums = [math.fsum(entry) for entry in terms.reshape(-1, terms.shape[-1]).tolist()]
    return np.array(sums).reshape(terms.shape[:-1])


def orthogonality_residual(
    family: FamilySpec,
    kind: Functional,
    table: Callable[[np.ndarray], np.ndarray],
    n_max: int,
) -> np.ndarray:
    """Normalized Gram matrix of a sequence under the functional.

    ``table(xs)`` returns the members 0..n_max of the sequence at the points
    ``xs``, shape (n_max + 1, len(xs)).  Entry (n, m) is the functional on
    rows n times m over sqrt(|diag_n| * |diag_m|); the off-diagonal entries
    are the test statistic.  Degrees equal the index (monic sequences).

    The table is read once, on the ``measure`` of the rule with n_max + 2
    nodes, exact for every entry, and each entry is one correctly rounded sum.
    Far from the support the Geronimus terms cancel from the scale of p(k),
    p = row n times row m, so each Geronimus entry carries the a-priori
    rounding bound eps (sum |terms| + |p(k)| sum_l |w_l/(x_l - k)|), the
    second term the point weight's own.  Every entry whose bound exceeds
    ``_EXACT_FORM_BOUND`` times its diagonal scale sqrt(|G_ii G_jj|) is
    retaken in the split form, all on one rule; the diagonal is settled
    first, each entry against its own size.  A term past the double range
    raises ParameterOutOfRange naming the lowest degree it reaches.
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
        own = np.diag(bound) > _EXACT_FORM_BOUND * np.abs(np.diag(gram))

        def flagged(diag: np.ndarray) -> np.ndarray:
            root = np.sqrt(np.abs(diag))
            over = bound > _EXACT_FORM_BOUND * root[:, None] * root[None, :]
            np.fill_diagonal(over, own)
            return over

        if flagged(np.diag(gram)).any():

            def products(xs: np.ndarray) -> np.ndarray:
                rows = table(xs)
                return rows[:, None, :] * rows[None, :, :]

            scale = np.sum(np.abs(terms[..., :-1]), axis=-1)
            split = _split_form(family, kind, products, 2 * n_max, pk, scale)
            gram = np.where(flagged(np.where(own, np.diag(split), np.diag(gram))), split, gram)
    diag = np.sqrt(np.abs(np.diag(gram)))
    diag[diag == 0.0] = 1.0
    return gram / np.outer(diag, diag)
