"""Geronimus and Uvarov transformed polynomials and the four recovery
constructions that rebuild P_n from quasi-type kernel data.

Each recovery returns the explicit coefficient sequences from the matching
linear system (coefficients of P_{n+1}, P_n, P_{n-1} after expanding the
combination); ``recovery_table`` rebuilds the rational combinations Q_n of
all degrees from one table per sequence, so tests can assert Q_n == P_n
pointwise.

The Geronimus correction coefficients A_n = -I_n / I_{n-1} come from the
integrals I_n = L(P_n / (k - x)), which for k outside the support are the
minimal solution of the three-term recurrence
I_{n+1} = (k - c_{n+1}) I_n - lambda_{n+1} I_{n-1} (with I_{-1} = 1 and
lambda_1 = mu0 it holds from n = 0).  By Pincherle's theorem their ratios
are one backward continued fraction, a J-fraction whose first value is the
Stieltjes transform I_0 = L(1/(k - x)), so no quadrature enters this
module: the quadrature oracle in ``opx.moments`` only checks it.

Transform records carry what their evaluators read: ``GeronimusData`` its
family, ``UvarovData`` its kernel context at k, and ``RecoveryCoefficients``
the kernel contexts, quasi mixing coefficients and transform record that
its ``recover_*`` built.  Each record is built once, at the largest degree,
and every evaluator takes ``(data, n, x)`` and slices it.  The kernel
contexts hold P_j(k) in ratio form, rho_j = P_j(k)/P_{j-1}(k), and every
recovery coefficient reads P_j(k) through those ratios.  The ratio caches
come from one sequential recurrence, so a slice of a larger record is
bitwise the record a smaller degree would have built; the A_n of a settled
``jfraction`` pass match a pass at depth 2**16 bitwise on every shift tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    NonConvergent,
    PoleAtSample,
    ShiftInsideSupport,
)
from .families import FamilySpec, custom_family, eval_table
from .kernels import IteratedKernelContext, KernelContext, kernel_table
from .quasi import quasi_table

__all__ = [
    "GeronimusData",
    "UvarovData",
    "RecoveryCoefficients",
    "geronimus_data",
    "geronimus_table",
    "geronimus_family",
    "uvarov_data",
    "uvarov_table",
    "recover_christoffel",
    "recover_geronimus",
    "recover_uvarov",
    "recover_order2",
    "recovery_table",
]

_POLE_RTOL = 1e-11
# the deepest Geronimus J-fraction depth searched before the shift counts as too close to the support
_JFRACTION_DEPTH_CAP = 2**16


@dataclass(frozen=True)
class GeronimusData:
    """Correction coefficients A_n of the Geronimus-transformed sequence of
    ``family`` at the shift k.

    A[n] = A_n = -I_n / I_{n-1}, n = 0..n_max, with I_n = L(P_n / (k - x))
    the minimal solution of the three-term recurrence (I_{-1} = 1, so
    A_0 = -I_0), read off one backward J-fraction; mass0 is Ltilde(1), from
    ``geronimus_data`` the solved value -I_0 = -L(1/(k - x)).
    """

    family: FamilySpec
    k: float
    A: np.ndarray
    mass0: float


@dataclass(frozen=True)
class UvarovData:
    """Mixing coefficients T_n of the point-mass (Uvarov) transform at the
    shift of ``ctx``, the kernel context they are read from."""

    ctx: KernelContext
    r0: float
    T: np.ndarray


@dataclass(frozen=True)
class RecoveryCoefficients:
    """Coefficient sequences of one of the four recovery constructions, and
    what ``recovery_table`` reads to rebuild it.

    ``kind`` is one of "christoffel", "geronimus", "uvarov", "order2";
    entries are indexed so that ``gamma[n]``, ``eta[n]``, ... belong to the
    combination that rebuilds P_n (unused slots hold NaN).  ``ctx1`` and
    ``ctx2`` are the kernel contexts at k1 and k2 (a Geronimus k1 has none),
    ``quasi`` the ``quasi_table`` rows of the quasi-type combination by its
    degree m, (1, B_m), (1, Bt_m) or (1, Lt_{m-1}, Mt_{m-1}), and (1, 0, ...)
    below the degrees read, and ``data`` the transformed sequence's record:
    the GeronimusData, the UvarovData, or for order two the
    IteratedKernelContext at (k2, k3), whose ``shifted`` context gives the
    ratios R_n of ``recover_order2`` and the iterated kernels alike.
    """

    kind: str
    gamma: np.ndarray | None = None
    eta: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    ctx1: KernelContext | None = None
    ctx2: KernelContext | None = None
    quasi: np.ndarray | None = None
    data: GeronimusData | UvarovData | IteratedKernelContext | None = None


def _require_outside_support(family: FamilySpec, k: float, what: str) -> None:
    a, b = family.support
    if a <= k <= b:
        raise ShiftInsideSupport(f"{what} requires k outside the support [{a}, {b}], got {k}")


def _require_nonvanishing(den: np.ndarray, scale: np.ndarray, what: str) -> None:
    """Raise at the first n whose denominator den[n-1], named ``what``,
    vanishes against max(1, |scale[n-1]|)."""
    vanishes = np.abs(den) < 1e-13 * np.maximum(1.0, np.abs(scale))
    if vanishes.any():
        n = int(np.argmax(vanishes)) + 1
        raise DegenerateDenominator(f"{what} vanishes at n={n}")


def _leading(values, n_max: int, name: str) -> np.ndarray:
    """The first n_max of the supplied ``name``_1, ``name``_2, ..., or
    ValueError if there are fewer."""
    values = np.asarray(values)
    if values.size < n_max:
        raise ValueError(f"need {name}_1..{name}_{n_max}, got {values.size} values")
    return values[:n_max]


def _demote_if_real(test: np.ndarray, *seqs) -> tuple:
    """``test`` and ``seqs`` as real arrays when ``test`` has no imaginary
    part outside its NaN slots, else as they are."""
    if abs(test.imag[~np.isnan(test.real)]).max(initial=0.0) == 0.0:
        return test.real, *(seq.real for seq in seqs)
    return test, *seqs


def _degree_rows(*columns) -> np.ndarray:
    """``quasi_table`` rows by degree: (1, 0, ..., 0) below l = len(columns),
    then (1, columns[0][j], ..., columns[l-1][j]) at degree l + j."""
    l = len(columns)
    rows = np.zeros((len(columns[0]) + l, l + 1), dtype=np.result_type(*columns, float))
    rows[:, 0] = 1.0
    rows[l:, 1:] = np.transpose(columns)
    return rows


def _backward_ratios(k: float, c: list, lam: list, n_max: int) -> list:
    """s_0..s_n_max of one backward pass s_n = lam[n] / ((k - c[n]) - s_{n+1})
    over rows n = len(c) - 1..0, from the tail s = 0."""
    s, out = 0.0, []
    for c_n, lam_n in zip(c[:n_max:-1], lam[:n_max:-1]):
        s = lam_n / ((k - c_n) - s)
    for c_n, lam_n in zip(c[n_max::-1], lam[n_max::-1]):
        s = lam_n / ((k - c_n) - s)
        out.append(s)
    return out[::-1]


def jfraction(
    family: FamilySpec, k: float, start: int, threshold: float, cap: int, degenerate: str, unsettled: str
) -> tuple[list, int]:
    """One backward J-fraction pass s_0..s_{top-1} at depth 2 top, and the least
    m >= ``start`` with |f_start ... f_m| <= ``threshold``, where f_0 = s_0 and
    f_j = s_j/rho_j, rho_j = P_j(k)/P_{j-1}(k).  Cut at depth d, the pass is
    I_n - (I_d/P_d(k)) P_n(k) (Gautschi, SIAM Review 9, 1967), so each s_n with
    n < start is within 2 |f_start ... f_d| relative, as every |f_j| < 1; from
    start 0 the product is the m-node Gauss rule's error on the Cauchy kernel
    (Gautschi, Math. Comp. 36, 1981).  ``top`` doubles from 32 (above ``start``)
    to ``cap``, else NonConvergent(``unsettled``); a finite table takes one pass
    over its N rows, f_N = 0.  Any zero denominator, rho_j's included, raises
    DegenerateDenominator(``degenerate``)."""
    finite = family.coeffs is None
    top = len(family._table) if finite else 1 << max(5, int(start).bit_length())
    c, lam, rho, r = [], [], [1.0], np.inf  # 1.0 divides f_0 = s_0, and rho_0 = inf gives rho_1 = k - c_1
    while finite or top <= cap:
        more_c, more_lam = family.table(top if finite else 2 * top)[len(c) :].T.tolist()
        c, lam = c + more_c, lam + more_lam
        try:
            s, product = _backward_ratios(k, c, lam, top - 1), 1.0
            for c_j, lam_j in zip(c[len(rho) - 1 : top], lam[len(rho) - 1 : top]):  # to rho_top: any zero raises
                r = (k - c_j) - lam_j / r
                rho.append(r)
            for m in range(start, top):
                product *= s[m] / rho[m]
                if abs(product) <= threshold:
                    return s, m
        except ZeroDivisionError:
            raise DegenerateDenominator(degenerate) from None
        if finite:
            return s, top
        top *= 2
    raise NonConvergent(unsettled)


def geronimus_data(family: FamilySpec, k: float, n_max: int) -> GeronimusData:
    """A_1..A_n_max from one backward J-fraction, plus the verification mass.

    With I_{-1} = 1 the ratios s_n = I_n / I_{n-1} of the minimal solution
    satisfy s_n = lambda_{n+1} / ((k - c_{n+1}) - s_{n+1}), and s_0 = I_0
    (lambda_1 = mu0).  ``jfraction`` runs the pass from a zero tail past the
    depth m where f_{n_max+1} ... f_m, which bounds every s_n's truncation
    error, falls to eps; A_n = -s_n.  A finite table's J-fraction is exact
    when cut at its last row, so there one pass runs over the whole table.
    ``mass0`` is -s_0 = -L(1/(k - x)), the unique value that kills the
    degree-(1,0) Gram entry, -mu0 / (k - c_1 + A_1); ``dataclasses.replace``
    sets another.

    Raises
    ------
    NonConvergent
        If no depth up to 2**16 brings that product to eps: the shift is too
        close to the support (1e-12 from Chebyshev-1's, 1e-3 from Laguerre's).
    DegenerateDenominator
        If a denominator of the pass is exactly zero.
    TableTooShort
        If a finite table has fewer than n_max + 1 rows.
    """
    _require_outside_support(family, k, "the Geronimus transformation")
    family.table(n_max + 1)  # the rows s_0..s_n_max read, or TableTooShort
    degenerate = f"a Geronimus J-fraction denominator vanishes at k={k}"
    unsettled = f"the Geronimus J-fraction at k={k} does not settle by depth {_JFRACTION_DEPTH_CAP}"
    s, _ = jfraction(family, k, n_max + 1, np.finfo(float).eps, _JFRACTION_DEPTH_CAP, degenerate, unsettled)
    return GeronimusData(family=family, k=k, A=-np.array(s[: n_max + 1]), mass0=-s[0])


def geronimus_family(data: GeronimusData, n_max: int) -> FamilySpec:
    """The transformed sequence as a family: a finite table of n_max + 1 pairs.

    Matching coefficients in x Pt_n expanded over the P basis gives

        ct_{n+1} = c_{n+1} + A_n - A_{n+1}        (0 for A_0: P_{-1} = 0)
        lt_{n+1} = lambda_{n+1} + A_n (c_n - ct_{n+1}),

    with lt_1 = mass0 by the mass convention.  Applying the Christoffel
    construction to the result at the same k recovers the original
    coefficients (the two transformations are mutually inverse).
    """
    if data.A.size < n_max + 2:
        raise ValueError(f"need A_1..A_{n_max + 1}; supplied data stops at {data.A.size - 1}")
    a_seq = np.concatenate([[0.0], data.A[1 : n_max + 2]])
    c, lam = data.family.table(n_max + 1).T
    ct = c + a_seq[:-1] - a_seq[1:]
    lt = lam + a_seq[:-1] * (np.concatenate([[np.nan], c[:-1]]) - ct)
    lt[0] = data.mass0
    return custom_family(np.stack([ct, lt], axis=1), data.family.support, data.mass0)


def geronimus_table(data: GeronimusData, n: int, xs) -> np.ndarray:
    """Transformed polynomials Pt_m(k; x) = P_m(x) + A_m P_{m-1}(x), m = 0..n,
    at every point of ``xs``, from one ``eval_table``; shape (n+1, len(xs))."""
    table = eval_table(data.family, n, xs)
    return np.concatenate([table[:1], table[1:] + data.A[1 : n + 1, None] * table[:-1]])


def uvarov_data(family: FamilySpec, k: float, r0: float, n_max: int) -> UvarovData:
    """Mixing coefficients T_n of Lhat = L + r0 delta(x - k), n = 0..n_max.

    T_n = r0 P_n(k) P_{n-1}(k) / (N_{n-1} (1 + r0 K_{n-1}(k, k))) with
    N_j = lambda_1...lambda_{j+1} and K the CD kernel; T_0 = 0.  This is the
    classical point-mass formula, which the quadrature oracle confirms; the
    variant with both indices raised to n fails the orthogonality contract
    and is not used.  It is read off the ratio caches of the kernel context
    at k that ``uvarov_table`` evaluates Pk_{n-1}(k; x) from:
    T_n = r0 rho_n t_{n-1} / (1 + r0 S_{n-1}), with t_j = P_j(k)^2/N_j and
    S_j = K_j(k, k).
    """
    if r0 == 0.0:
        raise ValueError("r0 must be nonzero")
    ctx = KernelContext(family, k, n_max)
    kkk = ctx.cd_partials[:n_max]  # K_n(k,k) partial sums
    den = 1.0 + r0 * kkk
    _require_nonvanishing(den, r0 * kkk, "Uvarov denominator 1 + r0 K_{n-1}(k,k)")
    T = np.zeros(n_max + 1)
    T[1:] = r0 * ctx.ratios[1 : n_max + 1] * ctx.weighted_squares[:n_max] / den
    return UvarovData(ctx=ctx, r0=r0, T=T)


def uvarov_table(data: UvarovData, n: int, xs) -> np.ndarray:
    """Point-mass transformed polynomials Ph_m(x) = P_m(x) - T_m Pk_{m-1}(k; x),
    m = 0..n, at every point of ``xs``, from one ``eval_table`` and one
    ``kernel_table``; shape (n+1, len(xs)).

    At x = k the difference cancels to noise as m grows, so there the
    table takes Ph_m(k) = P_m(k) / (1 + r0 K_{m-1}(k, k)), whose sum K has
    positive terms only."""
    table = eval_table(data.ctx.family, n, xs)
    if n == 0:
        return table
    kernel = kernel_table(data.ctx, n - 1, xs)
    out = np.concatenate([table[:1], table[1:] - data.T[1 : n + 1, None] * kernel])
    at_k = np.atleast_1d(xs) == data.ctx.k
    if at_k.any():
        out[1:, at_k] = table[1:, at_k] / (1.0 + data.r0 * data.ctx.cd_partials[:n, None])
    return out


# ---------------------------------------------------------------------------
# recovery constructions
# ---------------------------------------------------------------------------


def recover_christoffel(
    family: FamilySpec, k1: complex, k2: complex, B, n_max: int
) -> RecoveryCoefficients:
    """Sequences (gamma_n, eta_n) rebuilding P_n from an order-one quasi-type
    kernel at k1 and a kernel polynomial at k2.

    ``B[j]`` supplies B_{j+1}, the quasi mixing coefficient of
    T_n = Pk_n(k1;.) + B_n Pk_{n-1}(k1;.).  Entries gamma[n] and eta[n] are
    the values entering the degree-(n+1) combination.
    """
    b_next = _leading(B, n_max, "B")  # B_{n+1} at [n]
    ctx1 = KernelContext(family, k1, n_max + 1)
    ctx2 = KernelContext(family, k2, n_max + 1)
    rho1 = ctx1.ratios[: n_max + 2]  # rho_j = P_j(k1)/P_{j-1}(k1) at [j]
    rho2 = ctx2.ratios[1 : n_max + 1]  # rho_{n+1} at k2, at [n]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+2}, lambda_{n+2} at [n]
    gamma = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[:n_max] = -(lam + b_next * rho1[1:-1]) / rho2
    gamma[:n_max] = c + rho1[2:] - b_next - eta[:n_max]
    gamma, eta = _demote_if_real(gamma, eta)
    return RecoveryCoefficients(
        kind="christoffel", gamma=gamma, eta=eta, ctx1=ctx1, ctx2=ctx2, quasi=_degree_rows(b_next)
    )


def recover_geronimus(
    family: FamilySpec, k1: float, k2: complex, Btilde, n_max: int
) -> RecoveryCoefficients:
    """Sequences (alpha_n, gamma_n, eta_n) for the Geronimus-based recovery.

    ``Btilde[j]`` supplies Bt_{j+1} for the quasi combination at k2.  The
    identities alpha_n = 1 + eta_n hold by construction.
    """
    bt = _leading(Btilde, n_max, "Btilde")
    gdata = geronimus_data(family, k1, n_max + 1)
    ctx2 = KernelContext(family, k2, n_max + 1)
    rho2 = ctx2.ratios[: n_max + 2]  # rho_j = P_j(k2)/P_{j-1}(k2) at [j]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+1}, lambda_{n+1} at [n-1]
    den = lam + bt * rho2[1:-1]
    _require_nonvanishing(den, lam, "recover_geronimus denominator")
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    gamma = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[1:] = -lam / den
    e = eta[1:]
    alpha[1:] = 1.0 + e
    gamma[1:] = c * (1.0 + e) - gdata.A[2 : n_max + 2] + e * rho2[2:] - e * bt
    gamma, alpha, eta = _demote_if_real(gamma, alpha, eta)
    return RecoveryCoefficients(
        kind="geronimus", alpha=alpha, gamma=gamma, eta=eta, ctx2=ctx2, quasi=_degree_rows(bt), data=gdata
    )


def recover_uvarov(
    family: FamilySpec, k1: float, k2: complex, r0: float, Btilde, n_max: int
) -> RecoveryCoefficients:
    """Sequences (alpha_n, beta_n, eta_n) for the point-mass recovery.

    beta_n plays the role the other constructions give to gamma_n (the
    returned ``gamma`` aliases it).  eta_n = alpha_n - 1 identically.
    """
    bt = _leading(Btilde, n_max, "Btilde")
    udata = uvarov_data(family, k1, r0, n_max)
    ctx2 = KernelContext(family, k2, n_max + 1)
    rho1 = udata.ctx.ratios[1 : n_max + 1]  # rho_n at k1, at [n-1]
    rho2 = ctx2.ratios[: n_max + 2]  # rho_j = P_j(k2)/P_{j-1}(k2) at [j]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+1}, lambda_{n+1} at [n-1]
    den = bt * rho2[1:-1] + lam
    _require_nonvanishing(den, lam, "recover_uvarov denominator")
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    beta = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[1:] = udata.T[1:] * rho1 / den
    alpha[1:] = 1.0 + eta[1:]
    beta[1:] = k1 + udata.T[1:] + (c - bt + rho2[2:]) * eta[1:]
    beta, alpha, eta = _demote_if_real(beta, alpha, eta)
    return RecoveryCoefficients(
        kind="uvarov", alpha=alpha, beta=beta, gamma=beta, eta=eta,
        ctx1=udata.ctx, ctx2=ctx2, quasi=_degree_rows(bt), data=udata,
    )


def recover_order2(
    family: FamilySpec, k1: complex, k2: complex, k3: complex, Mtilde, n_max: int
) -> RecoveryCoefficients:
    """Sequences (alpha_n, beta_n) for the order-two / iterated-kernel recovery.

    ``Mtilde[j]`` supplies Mt_n for n = j+1.  The compatibility constraint

        Lt_n + Mt_n P_n(k1) / (lambda_{n+1} P_{n-1}(k1))
            = P_{n+2}(k1)/P_{n+1}(k1) - P_{n+2}(k2)/P_{n+1}(k2) - R_n,

    with R_n = Pk_{n+1}(k2;k3) / Pk_n(k2;k3) the ratio of iterated kernel
    polynomials, ratio n+1 of ``ictx.shifted``, is linear in Lt_n with
    coefficient 1, so Lt_n is solved from it.  beta_n is taken from the
    matching linear system; the cross-sum ratio lambda_{n+2} X_{n+1} / X_n
    enters as rho_{n+1}(k2) R_n, since X_n = P_n(k2)/N_n Pk_n(k2;k3).
    """
    mt = _leading(Mtilde, n_max, "Mtilde").astype(complex)
    ictx = IteratedKernelContext(KernelContext(family, k2, n_max + 2), k3)
    ctx1 = KernelContext(family, k1, n_max + 2)
    rho1 = ctx1.ratios  # rho_j = P_j(k1)/P_{j-1}(k1) at [j]
    rho2 = ictx.base.ratios
    up = slice(2, n_max + 2)  # index n+1 at [n-1]
    down = slice(1, n_max + 1)  # index n at [n-1]
    c, lam = family.table(n_max + 1)[1:].T  # indices n+1 at [n-1]
    ratio = ictx.shifted.ratios[up]  # R_n
    rhs = rho1[3 : n_max + 3] - rho2[3 : n_max + 3] - ratio
    lt = rhs - mt * rho1[down] / lam
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    beta = np.full(n_max + 1, np.nan, dtype=complex)
    alpha[1:] = -(1.0 / lam) * mt * rho1[down]
    beta[1:] = lt * rho1[up] - mt + rho2[up] * ratio + alpha[1:] * c
    return RecoveryCoefficients(
        kind="order2", alpha=alpha, beta=beta, ctx1=ctx1, ctx2=ictx.base,
        quasi=_degree_rows(lt, mt), data=ictx,
    )


def recovery_table(rc: RecoveryCoefficients, n: int, xs) -> np.ndarray:
    """The rebuilt Q_1..Q_n of the construction ``rc`` at every point of
    ``xs``, from one table per sequence; shape (n, len(xs)).

        christoffel  Q_m = [(x-k1) T_m(k1;x) + eta_{m-1} (x-k2) Pk_{m-1}(k2;x)] / (x - gamma_{m-1})
        geronimus    Q_m = [Pt_{m+1}(k1;x) + eta_m (x-k2) T_m(k2;x)] / (alpha_m x - gamma_m)
        uvarov       Q_m = [(x-k1) Ph_m(x) + eta_m (x-k2) T_m(k2;x)] / (alpha_m x - beta_m)
        order2       Q_m = [(x-k1) S_{m+1}(k1;x) - (x-k2)(x-k3) Pkk_m(k2,k3;x)] / (alpha_m x - beta_m)

    T_m = Pk_m + B_m Pk_{m-1} and S_{m+1} = Pk_{m+1} + Lt_m Pk_m +
    Mt_m Pk_{m-1} are the quasi combinations, ``quasi_table`` rows of one
    kernel table; Pkk_m, the iterated kernel polynomial, is row m of the
    kernel table of ``ictx.shifted``.  Every operation is elementwise, so
    each row is bitwise the value a table of that degree alone gives.

    Raises
    ------
    PoleAtSample
        If a point of ``xs`` is within 1e-11 (relative) of the pole of some
        Q_m; the message names the first such degree.
    ValueError
        If n is outside the degrees 1..n_max the record was built for.
    """
    pole = rc.gamma if rc.gamma is not None else rc.beta
    if not 1 <= n < pole.size:
        raise ValueError(f"n={n} outside the recovered degrees 1..{pole.size - 1}")
    xs = np.atleast_1d(np.asarray(xs))
    # Q_m reads the coefficients at index m - 1 (christoffel) or m
    at = slice(0, n) if rc.kind == "christoffel" else slice(1, n + 1)
    pole = pole[at, None]
    den = xs - pole if rc.alpha is None else rc.alpha[at, None] * xs - pole
    hits = (np.abs(den) < _POLE_RTOL * (1.0 + np.abs(pole))).any(axis=1)
    if hits.any():
        m = int(np.argmax(hits)) + 1
        raise PoleAtSample(f"a sample point hits the pole of the degree-{m} combination")
    ctx1, ctx2 = rc.ctx1, rc.ctx2
    # a (1, len(xs)) row: numpy rounds the complex products of a (1,) array
    # and a one-degree (1, 1) table differently from those with (n, 1)
    x = xs[None, :]
    l = rc.quasi.shape[1] - 1  # T_1..T_n or S_2..S_{n+1}: degrees l..n+l-1
    ctx = ctx2 if rc.kind in ("geronimus", "uvarov") else ctx1
    quasi = quasi_table(kernel_table(ctx, n + l - 1, xs), rc.quasi[: n + l])[l:]
    if rc.kind == "order2":
        ictx = rc.data
        iterated = kernel_table(ictx.shifted, n, xs)[1:]
        return ((x - ctx1.k) * quasi - (x - ictx.k2) * (x - ictx.k3) * iterated) / den
    if rc.kind == "christoffel":
        first = (x - ctx1.k) * quasi
        second = kernel_table(ctx2, n - 1, xs)
    else:
        second = quasi
        if rc.kind == "geronimus":
            first = geronimus_table(rc.data, n + 1, xs)[2:]
        else:
            first = (x - ctx1.k) * uvarov_table(rc.data, n, xs)[1:]
    return (first + rc.eta[at, None] * (x - ctx2.k) * second) / den
