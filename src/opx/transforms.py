"""Geronimus and Uvarov transformed polynomials and the four recovery
constructions that rebuild P_n from quasi-type kernel data.

Each recovery returns the explicit coefficient sequences from the matching
linear system (coefficients of P_{n+1}, P_n, P_{n-1} after expanding the
combination); the companion ``*_recovery_poly`` evaluators rebuild the
rational combination so tests can assert Q_n == P_n pointwise.

Transform records carry what their evaluators read: ``GeronimusData`` its
family, ``UvarovData`` its kernel context at k, and ``RecoveryCoefficients``
the kernel contexts, quasi mixing coefficients and transform record that
its ``recover_*`` built.  Each record is built once, at the largest degree,
and every evaluator takes ``(data, n, x)`` and slices it.  P_j(k), the norm
products and the partial sums come from sequential recurrences, so a slice
of a larger record is bitwise the record a smaller degree would have built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    DegenerateDenominator,
    EvalAtShift,
    PoleAtSample,
    ShiftInsideSupport,
)
from .families import FamilySpec, custom_family, eval_table
from .kernels import IteratedKernelContext, KernelContext, iterated_kernel, kernel_poly
from .moments import cauchy_mass, gauss_rule, integrate_until_stable

__all__ = [
    "GeronimusData",
    "UvarovData",
    "RecoveryCoefficients",
    "geronimus_data",
    "geronimus_poly",
    "geronimus_family",
    "op_from_geronimus",
    "uvarov_data",
    "uvarov_poly",
    "recover_christoffel",
    "christoffel_recovery_poly",
    "recover_geronimus",
    "geronimus_recovery_poly",
    "recover_uvarov",
    "uvarov_recovery_poly",
    "recover_order2",
    "order2_constraint_rhs",
    "order2_recovery_poly",
]

_POLE_RTOL = 1e-11


@dataclass(frozen=True)
class GeronimusData:
    """Correction coefficients A_n of the Geronimus-transformed sequence of
    ``family`` at the shift k.

    A[n] = A_n = -I_n / I_{n-1} with I_n the principal integral of
    P_n(x)/(k - x); mass0 records the Ltilde(1) value used for verification.
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
    what its ``*_recovery_poly`` evaluator reads.

    ``kind`` is one of "christoffel", "geronimus", "uvarov", "order2";
    entries are indexed so that ``gamma[n]``, ``eta[n]``, ... belong to the
    combination that rebuilds P_n (unused slots hold NaN).  ``ctx1`` and
    ``ctx2`` are the kernel contexts at k1 and k2 (a Geronimus k1 has none),
    ``quasi`` the mixing coefficients of the quasi-type combination (B,
    Btilde, or Ltilde and Mtilde), and ``data`` the transformed sequence's
    record: the GeronimusData, the UvarovData, or for order two the
    IteratedKernelContext at (k2, k3).
    """

    kind: str
    gamma: np.ndarray | None = None
    eta: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    ctx1: KernelContext | None = None
    ctx2: KernelContext | None = None
    quasi: tuple[np.ndarray, ...] = ()
    data: GeronimusData | UvarovData | IteratedKernelContext | None = None


def _require_outside_support(family: FamilySpec, k: float, what: str) -> None:
    a, b = family.support
    if a <= k <= b:
        raise ShiftInsideSupport(f"{what} requires k outside the support [{a}, {b}], got {k}")


def _require_nonvanishing(den: np.ndarray, lam: np.ndarray, what: str) -> None:
    """Raise at the first n whose recovery denominator den[n-1] vanishes
    against its scale max(1, |lambda_{n+1}|)."""
    vanishes = np.abs(den) < 1e-13 * np.maximum(1.0, np.abs(lam))
    if vanishes.any():
        n = int(np.argmax(vanishes)) + 1
        raise DegenerateDenominator(f"{what} denominator vanishes at n={n}")


def _principal_integral(family: FamilySpec, k: float, n: int, atol: float = 0.0) -> float:
    """integral of P_n(x) / (k - x) dmu by node doubling."""

    def integrand(xs: np.ndarray) -> np.ndarray:
        return eval_table(family, n, xs)[n] / (k - xs)

    return integrate_until_stable(family, integrand, start_order=32, rtol=1e-11, atol=atol)


def _backward_integrals(family: FamilySpec, k: float, n_max: int, i0: float) -> np.ndarray:
    """I_0..I_n_max by backward (minimal-solution) recurrence scaled to I_0.

    The integrals satisfy I_{n+1} = (k - c_{n+1}) I_n - lambda_{n+1} I_{n-1}
    for n >= 1 and are the minimal solution when k sits outside the support,
    so the downward direction is stable; only I_0 needs quadrature, and its
    integrand 1/(k - x) never changes sign there.
    """
    top = n_max + 60
    c, lam = family.table(top + 1).T
    trial = np.zeros(top + 2)
    trial[top] = 1.0
    for m in range(top, 0, -1):
        trial[m - 1] = ((k - c[m]) * trial[m] - trial[m + 1]) / lam[m]
        if abs(trial[m - 1]) > 1e250:
            trial /= trial[m - 1]
    return trial[: n_max + 1] * (i0 / trial[0])


def geronimus_data(family: FamilySpec, k: float, n_max: int, mass0: float | None = None) -> GeronimusData:
    """A_1..A_n_max from the defining integrals, plus the verification mass.

    The defining node-doubling quadrature of P_n(x)/(k - x) loses digits to
    cancellation exactly when the integrals decay (oscillating numerator,
    small value); in that regime the backward-recurrence evaluation anchored
    at the quadrature I_0 is used instead, and the two routes must agree to
    1e-7 relative either way.  ``mass0`` defaults to the unique value that
    kills the degree-(1,0) Gram entry, -mu0 / (k - c_1 + A_1).
    """
    _require_outside_support(family, k, "the Geronimus transformation")
    # L1 scale of each integrand from one moderate fixed rule; it feeds the
    # absolute stopping floor (quadrature cannot resolve values below
    # roundoff times this scale) and the route-agreement gate below
    scale_rule = gauss_rule(family, max(64, n_max + 2))
    table = np.abs(eval_table(family, n_max, scale_rule.nodes)) / np.abs(k - scale_rule.nodes)
    l1 = table @ scale_rule.weights
    quad = np.array(
        [_principal_integral(family, k, n, atol=1e-13 * l1[n]) for n in range(n_max + 1)]
    )
    integrals = quad
    if n_max >= 1 and abs(quad[n_max]) < abs(quad[0]):
        # decaying integrals lose relative accuracy to cancellation; the
        # backward minimal-solution recurrence anchored at I_0 does not
        backward = _backward_integrals(family, k, n_max, quad[0])
        agree = np.abs(backward - quad) <= np.maximum(1e-7 * np.abs(quad), 1e-10 * l1)
        if np.all(agree):
            integrals = backward
    A = np.full(n_max + 1, np.nan)
    for n in range(1, n_max + 1):
        if abs(integrals[n - 1]) < 1e-280:
            raise DegenerateDenominator(f"Geronimus denominator integral I_{n-1} underflows")
        A[n] = -integrals[n] / integrals[n - 1]
    if mass0 is None:
        # the degree-1 orthogonality condition gives -mu0/(k - c_1 + A_1),
        # which collapses to -L(1/(k - x)) via I_1 = (k - c_1) I_0 - mu0;
        # the latter form shares the cached integral the functional uses
        mass0 = -cauchy_mass(family, k)
    return GeronimusData(family=family, k=k, A=A, mass0=mass0)


def geronimus_family(data: GeronimusData, n_max: int) -> FamilySpec:
    """The transformed sequence as a family of its own.

    Matching coefficients in x Pt_n expanded over the P basis gives

        ct_{n+1} = c_{n+1} + A_n - A_{n+1}        (A_0 = 0)
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

    def coeffs(m: int) -> tuple[float, float]:
        if m > n_max + 1:
            raise ValueError(f"geronimus_family cached only {n_max + 1} coefficients")
        return ct[m - 1], lt[m - 1]

    return custom_family(coeffs, data.family.support, data.mass0)


def geronimus_poly(data: GeronimusData, n: int, x):
    """Transformed polynomial Pt_n(k; x) = P_n(x) + A_n P_{n-1}(x)."""
    if n == 0:
        return np.ones_like(np.asarray(x)) if np.ndim(x) else 1.0
    xs = np.atleast_1d(np.asarray(x))
    table = eval_table(data.family, n, xs)
    out = table[n] + data.A[n] * table[n - 1]
    return out if np.ndim(x) else out[0]


def op_from_geronimus(data: GeronimusData, n: int, x):
    """Invert the transform: P_n(x) from Pt_{n+1} and Pt_n.

    P_n(x) = [Pt_{n+1}(k;x) + (lambda_{n+1}/A_n) Pt_n(k;x)] / (x - k).
    Expanding the combination over the P basis forces the mixing coefficient
    B_n to satisfy lambda_{n+1} = +B_n A_n (equivalently A_{n+1} =
    c_{n+1} - k - lambda_{n+1}/A_n, the ratio form of the integral
    recurrence), hence the plus sign; a minus-signed variant of this formula
    circulates but fails the direct-evaluation oracle.  The numerator
    vanishes at x = k, but no stable branch is implemented there, so points
    within the pole radius raise EvalAtShift.
    """
    k = data.k
    xs = np.atleast_1d(np.asarray(x))
    if np.any(np.abs(xs - k) < _POLE_RTOL * (1.0 + abs(k))):
        raise EvalAtShift(f"evaluation point coincides with the shift k={k}")
    lam = data.family.coefficient(n + 1)[1]
    if n == 0:
        num = geronimus_poly(data, 1, xs) + (lam / data.A[1]) * 1.0
    else:
        num = geronimus_poly(data, n + 1, xs) + (lam / data.A[n]) * geronimus_poly(data, n, xs)
    out = num / (xs - k)
    return out if np.ndim(x) else out[0]


def uvarov_data(family: FamilySpec, k: float, r0: float, n_max: int) -> UvarovData:
    """Mixing coefficients T_n of Lhat = L + r0 delta(x - k), n = 0..n_max.

    T_n = r0 P_n(k) P_{n-1}(k) / (N_{n-1} (1 + r0 K_{n-1}(k, k))) with
    N_j = lambda_1...lambda_{j+1} and K the CD kernel; T_0 = 0.  This is the
    classical point-mass formula, which the quadrature oracle confirms; the
    variant with both indices raised to n fails the orthogonality contract
    and is not used.  P_j(k) and N_j come from the kernel context at k that
    ``uvarov_poly`` evaluates Pk_{n-1}(k; x) from.
    """
    if r0 == 0.0:
        raise ValueError("r0 must be nonzero")
    ctx = KernelContext(family, k, n_max)
    pk, norms = ctx.pk, ctx.norms
    kkk = np.cumsum(pk**2 / norms)[:n_max]  # K_n(k,k) partial sums
    den = 1.0 + r0 * kkk
    vanishes = np.abs(den) < 1e-13 * np.maximum(1.0, abs(r0) * kkk)
    if vanishes.any():
        n = int(np.argmax(vanishes)) + 1
        raise DegenerateDenominator(f"Uvarov denominator 1 + r0 K_{n-1}(k,k) vanishes at n={n}")
    T = np.zeros(n_max + 1)
    T[1:] = r0 * pk[1 : n_max + 1] * pk[:n_max] / (norms[:n_max] * den)
    return UvarovData(ctx=ctx, r0=r0, T=T)


def uvarov_poly(data: UvarovData, n: int, x):
    """Point-mass transformed polynomial Ph_n(x) = P_n(x) - T_n Pk_{n-1}(k; x)."""
    xs = np.atleast_1d(np.asarray(x))
    table = eval_table(data.ctx.family, n, xs)
    if n == 0:
        out = table[0]
    else:
        out = table[n] - data.T[n] * kernel_poly(data.ctx, n - 1, xs)
    return out if np.ndim(x) else out[0]


# ---------------------------------------------------------------------------
# recovery constructions
# ---------------------------------------------------------------------------


def _require_off_pole(alpha, gamma, x, what: str) -> None:
    if np.any(np.abs(alpha * np.asarray(x) - gamma) < _POLE_RTOL * (1.0 + abs(gamma))):
        raise PoleAtSample(f"a sample point hits the pole {what}")


def _quasi_kernel(ctx: KernelContext, top: int, coeffs, x):
    """Pk_top + coeffs[0] Pk_{top-1} + coeffs[1] Pk_{top-2} + ... at the shift of ``ctx``."""
    out = kernel_poly(ctx, top, x)
    for i, a in enumerate(coeffs, start=1):
        out = out + a * kernel_poly(ctx, top - i, x)
    return out


def recover_christoffel(
    family: FamilySpec, k1: complex, k2: complex, B, n_max: int
) -> RecoveryCoefficients:
    """Sequences (gamma_n, eta_n) rebuilding P_n from an order-one quasi-type
    kernel at k1 and a kernel polynomial at k2.

    ``B[j]`` supplies B_{j+1}, the quasi mixing coefficient of
    T_n = Pk_n(k1;.) + B_n Pk_{n-1}(k1;.).  Entries gamma[n] and eta[n] are
    the values entering the degree-(n+1) combination.
    """
    B = np.asarray(B)
    if B.size < n_max:
        raise ValueError(f"need B_1..B_{n_max}, got {B.size} values")
    ctx1 = KernelContext(family, k1, n_max + 1)
    ctx2 = KernelContext(family, k2, n_max + 1)
    pk1 = ctx1.pk[: n_max + 2]
    pk2 = ctx2.pk[: n_max + 1]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+2}, lambda_{n+2} at [n]
    b_next = B[:n_max]  # B_{n+1} at [n]
    gamma = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[:n_max] = -(lam + b_next * pk1[1:-1] / pk1[:-2]) * pk2[:-1] / pk2[1:]
    gamma[:n_max] = c + pk1[2:] / pk1[1:-1] - b_next - eta[:n_max]
    if abs(gamma.imag[~np.isnan(gamma.real)]).max(initial=0.0) == 0.0:
        gamma, eta = gamma.real, eta.real
    return RecoveryCoefficients(
        kind="christoffel", gamma=gamma, eta=eta, ctx1=ctx1, ctx2=ctx2, quasi=(B,)
    )


def christoffel_recovery_poly(rc: RecoveryCoefficients, n: int, x):
    """Q_n(x) = [(x-k1) T_n(k1;x) + eta_{n-1} (x-k2) Pk_{n-1}(k2;x)] / (x - gamma_{n-1})."""
    gamma, eta = rc.gamma[n - 1], rc.eta[n - 1]
    _require_off_pole(1.0, gamma, x, f"gamma_{n-1} = {gamma}")
    ctx1, ctx2 = rc.ctx1, rc.ctx2
    t_quasi = _quasi_kernel(ctx1, n, [b[n - 1] for b in rc.quasi], x)
    return ((x - ctx1.k) * t_quasi + eta * (x - ctx2.k) * kernel_poly(ctx2, n - 1, x)) / (x - gamma)


def recover_geronimus(
    family: FamilySpec, k1: float, k2: complex, Btilde, n_max: int
) -> RecoveryCoefficients:
    """Sequences (alpha_n, gamma_n, eta_n) for the Geronimus-based recovery.

    ``Btilde[j]`` supplies Bt_{j+1} for the quasi combination at k2.  The
    identities alpha_n = 1 + eta_n hold by construction.
    """
    Btilde = np.asarray(Btilde)
    if Btilde.size < n_max:
        raise ValueError(f"need Btilde_1..Btilde_{n_max}, got {Btilde.size} values")
    gdata = geronimus_data(family, k1, n_max + 1)
    ctx2 = KernelContext(family, k2, n_max + 1)
    pk2 = ctx2.pk[: n_max + 2]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+1}, lambda_{n+1} at [n-1]
    bt = Btilde[:n_max]
    den = lam + bt * pk2[1:-1] / pk2[:-2]
    _require_nonvanishing(den, lam, "recover_geronimus")
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    gamma = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[1:] = -lam / den
    e = eta[1:]
    alpha[1:] = 1.0 + e
    gamma[1:] = c * (1.0 + e) - gdata.A[2 : n_max + 2] + e * pk2[2:] / pk2[1:-1] - e * bt
    if abs(np.nan_to_num(gamma.imag)).max() == 0.0:
        alpha, gamma, eta = alpha.real, gamma.real, eta.real
    return RecoveryCoefficients(
        kind="geronimus", alpha=alpha, gamma=gamma, eta=eta, ctx2=ctx2, quasi=(Btilde,), data=gdata
    )


def geronimus_recovery_poly(rc: RecoveryCoefficients, n: int, x):
    """Q_n(x) = [Pt_{n+1}(k1;x) + eta_n (x-k2) T_n(k2;x)] / (alpha_n x - gamma_n)."""
    alpha, gamma, eta = rc.alpha[n], rc.gamma[n], rc.eta[n]
    _require_off_pole(alpha, gamma, x, f"of the degree-{n} combination")
    ctx2 = rc.ctx2
    t_quasi = _quasi_kernel(ctx2, n, [b[n - 1] for b in rc.quasi], x)
    pt = geronimus_poly(rc.data, n + 1, x)
    return (pt + eta * (x - ctx2.k) * t_quasi) / (alpha * x - gamma)


def recover_uvarov(
    family: FamilySpec, k1: float, k2: complex, r0: float, Btilde, n_max: int
) -> RecoveryCoefficients:
    """Sequences (alpha_n, beta_n, eta_n) for the point-mass recovery.

    beta_n plays the role the other constructions give to gamma_n (the
    returned ``gamma`` aliases it).  eta_n = alpha_n - 1 identically.
    """
    Btilde = np.asarray(Btilde)
    if Btilde.size < n_max:
        raise ValueError(f"need Btilde_1..Btilde_{n_max}, got {Btilde.size} values")
    udata = uvarov_data(family, k1, r0, n_max)
    ctx2 = KernelContext(family, k2, n_max + 1)
    pk1 = udata.ctx.pk[: n_max + 2]
    pk2 = ctx2.pk[: n_max + 2]
    c, lam = family.table(n_max + 1)[1:].T  # c_{n+1}, lambda_{n+1} at [n-1]
    bt = Btilde[:n_max]
    den = bt * pk2[1:-1] / pk2[:-2] + lam
    _require_nonvanishing(den, lam, "recover_uvarov")
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    beta = np.full(n_max + 1, np.nan, dtype=complex)
    eta = np.full(n_max + 1, np.nan, dtype=complex)
    eta[1:] = udata.T[1:] * (pk1[1:-1] / pk1[:-2]) / den
    alpha[1:] = 1.0 + eta[1:]
    beta[1:] = k1 + udata.T[1:] + (c - bt + pk2[2:] / pk2[1:-1]) * eta[1:]
    if abs(np.nan_to_num(beta.imag)).max() == 0.0:
        alpha, beta, eta = alpha.real, beta.real, eta.real
    return RecoveryCoefficients(
        kind="uvarov", alpha=alpha, beta=beta, gamma=beta, eta=eta,
        ctx1=udata.ctx, ctx2=ctx2, quasi=(Btilde,), data=udata,
    )


def uvarov_recovery_poly(rc: RecoveryCoefficients, n: int, x):
    """Q_n(x) = [(x-k1) Ph_n(x) + eta_n (x-k2) T_n(k2;x)] / (alpha_n x - beta_n)."""
    alpha, beta, eta = rc.alpha[n], rc.beta[n], rc.eta[n]
    _require_off_pole(alpha, beta, x, f"of the degree-{n} combination")
    ctx2 = rc.ctx2
    t_quasi = _quasi_kernel(ctx2, n, [b[n - 1] for b in rc.quasi], x)
    phat = uvarov_poly(rc.data, n, x)
    return ((x - rc.ctx1.k) * phat + eta * (x - ctx2.k) * t_quasi) / (alpha * x - beta)


def order2_constraint_rhs(
    family: FamilySpec, k1: complex, k2: complex, k3: complex, n_max: int
) -> np.ndarray:
    """Right side of the order-two compatibility constraint for n = 1..n_max:

        P_{n+2}(k1)/P_{n+1}(k1) - P_{n+2}(k2)/P_{n+1}(k2) - R_n,

    where R_n is the value ratio Pk_{n+1}(k2;k3) / Pk_n(k2;k3) of the
    first-shift kernels at the second shift.  Solving the constraint for
    Ltilde_n given Mtilde_n is one linear equation per n.
    """
    pk1 = eval_table(family, n_max + 2, [k1])[:, 0]
    ctx = KernelContext(family, k2, n_max + 2)
    return _order2_rhs(pk1, ctx, IteratedKernelContext(ctx, k3), n_max)


def _order2_rhs(
    pk1: np.ndarray, ctx: KernelContext, ictx: IteratedKernelContext, n_max: int
) -> np.ndarray:
    """``order2_constraint_rhs`` from P_0..P_{n_max+2} at k1 and the contexts
    at k2 (n_max + 2) and at (k2, k3)."""
    star = ictx.star_values
    up = slice(2, n_max + 2)  # index n+1 at [n-1]
    down = slice(1, n_max + 1)  # index n at [n-1]
    out = np.empty(n_max + 1, dtype=complex)
    out[0] = np.nan
    pk2 = ctx.pk[: n_max + 3]
    out[1:] = pk1[3:] / pk1[up] - pk2[3:] / pk2[up] - star[up] / star[down]
    return out


def recover_order2(
    family: FamilySpec,
    k1: complex,
    k2: complex,
    k3: complex,
    Ltilde,
    Mtilde,
    n_max: int,
    constraint_tol: float = 1e-10,
) -> RecoveryCoefficients:
    """Sequences (alpha_n, beta_n) for the order-two / iterated-kernel recovery.

    ``Ltilde[j]`` and ``Mtilde[j]`` supply (Lt_n, Mt_n) for n = j+1; they
    must satisfy the compatibility constraint (checked against
    ``order2_constraint_rhs``, never silently repaired).  beta_n is taken
    from the matching linear system; the cross-sum ratio enters through
    lambda_{n+2} X_{n+1} / X_n with X_n the cached cross sums.
    """
    Ltilde = np.asarray(Ltilde, dtype=complex)
    Mtilde = np.asarray(Mtilde, dtype=complex)
    if Ltilde.size < n_max or Mtilde.size < n_max:
        raise ValueError(f"need Ltilde_1..Ltilde_{n_max} and Mtilde_1..Mtilde_{n_max}")
    ctx2 = KernelContext(family, k2, n_max + 2)
    ictx = IteratedKernelContext(ctx2, k3)
    ctx1 = KernelContext(family, k1, n_max + 2)
    pk1 = ctx1.pk[: n_max + 3]
    rhs = _order2_rhs(pk1, ctx2, ictx, n_max)[1:]
    pk1 = pk1[:-1]  # P_0..P_{n_max+1}
    pairs = family.table(n_max + 2)
    c, lam, lam2 = pairs[1:-1, 0], pairs[1:-1, 1], pairs[2:, 1]  # indices n+1, n+1, n+2
    lt, mt = Ltilde[:n_max], Mtilde[:n_max]
    lhs = lt + mt * pk1[1:-1] / (lam * pk1[:-2])
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    violated = np.abs(lhs - rhs) > constraint_tol * scale
    if violated.any():
        i = int(np.argmax(violated))
        raise ConstraintViolated(
            f"(Ltilde_{i + 1}, Mtilde_{i + 1}) violate the compatibility constraint: "
            f"|{lhs[i]} - {rhs[i]}| > {constraint_tol} * {scale[i]}"
        )
    alpha = np.full(n_max + 1, np.nan, dtype=complex)
    beta = np.full(n_max + 1, np.nan, dtype=complex)
    alpha[1:] = -(1.0 / lam) * mt * pk1[1:-1] / pk1[:-2]
    cross_ratio = ictx.cd_cross[2 : n_max + 2] / ictx.cd_cross[1 : n_max + 1]
    beta[1:] = lt * pk1[2:] / pk1[1:-1] - mt + lam2 * cross_ratio + alpha[1:] * c
    return RecoveryCoefficients(
        kind="order2", alpha=alpha, beta=beta, ctx1=ctx1, ctx2=ctx2, quasi=(Ltilde, Mtilde), data=ictx
    )


def order2_recovery_poly(rc: RecoveryCoefficients, n: int, x):
    """Q_n(x) = [(x-k1) S_{n+1}(k1;x) - (x-k2)(x-k3) Pkk_n(k2,k3;x)] / (alpha_n x - beta_n).

    S_{n+1} is the order-two quasi combination Pk_{n+1} + Lt_n Pk_n +
    Mt_n Pk_{n-1} at k1, and Pkk_n the iterated kernel polynomial.
    """
    alpha, beta = rc.alpha[n], rc.beta[n]
    _require_off_pole(alpha, beta, x, f"of the degree-{n} combination")
    ctx1, ictx = rc.ctx1, rc.data
    s_quasi = _quasi_kernel(ctx1, n + 1, [a[n - 1] for a in rc.quasi], x)
    iter_val = iterated_kernel(ictx, n, x)
    return ((x - ctx1.k) * s_quasi - (x - ictx.k2) * (x - ictx.k3) * iter_val) / (alpha * x - beta)
