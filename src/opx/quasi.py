"""Quasi-type kernel polynomials and their orthogonality criteria.

Order one mixes two consecutive kernel polynomials, a*Pk_{n+1} + b*Pk_n;
order two adds a third term.  The module also carries the variable-
coefficient difference equation for the monic order-one sequence and a
checker for when such a sequence is itself orthogonal: the paper's
conditions on the kernel recurrence coefficients, cross-checked by
Favard's theorem on the recurrence matrix of the mixed sequence.

The difference equation exists in two index variants: the one printed in
its source statement and the one the underlying matrix algebra actually
produces (they differ by a shift of the J subscripts and do not agree even
at b = 0).  ``difference_equation_residual`` computes both, over any
broadcast of mixing coefficients, degrees and points, and is the one place
its coefficients D_m, J_m and the sequence Q_m are defined; only the
matrix-algebra form is asserted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlphas
from .kernels import KernelContext, kernel_recurrence, kernel_table

__all__ = [
    "QuasiSpec",
    "QkOrthogonalityReport",
    "quasi_kernel",
    "quasi_from_kernel_table",
    "difference_equation_residual",
    "qk_orthogonality_check",
    "orthogonality_conditions",
    "recurrence_residual",
]


@dataclass(frozen=True)
class QuasiSpec:
    """Mixing coefficients of a quasi-type kernel polynomial.

    Order 1 uses (a, b), not both zero; the monic form has a = 1.
    Order 2 uses (Ltilde, Mtilde); exact order two needs Mtilde != 0.
    """

    order: int
    a: float = 1.0
    b: float = 0.0
    Ltilde: float = 0.0
    Mtilde: float = 0.0

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.order == 1 and self.a == 0.0 and self.b == 0.0:
            raise ValueError("order-1 spec requires (a, b) != (0, 0)")


def quasi_kernel(ctx: KernelContext, spec: QuasiSpec, n: int, x):
    """Evaluate the quasi-type kernel polynomial for the given spec.

    Order 1: a * Pk_{n+1}(k;x) + b * Pk_n(k;x), degree n+1 when a != 0.
    Order 2: Pk_n + Ltilde * Pk_{n-1} + Mtilde * Pk_{n-2}, degree n (n >= 2).
    """
    table = kernel_table(ctx, n + 2 - spec.order, x)
    return quasi_from_kernel_table(spec, n, table if np.ndim(x) else table[:, 0])


def quasi_from_kernel_table(spec: QuasiSpec, n: int, table):
    """``quasi_kernel`` of degree index n from the rows Pk_0, Pk_1, ... of a
    kernel table (``kernels.kernel_table``) that reaches Pk_{n+2-order}."""
    if spec.order == 1:
        return spec.a * table[n + 1] + spec.b * table[n]
    if n < 2:
        raise ValueError("order-2 quasi-type kernel polynomials need n >= 2")
    return table[n] + spec.Ltilde * table[n - 1] + spec.Mtilde * table[n - 2]


def difference_equation_residual(ctx: KernelContext, b, n, x) -> tuple:
    """Relative residuals (stated form, matrix-algebra form) of the difference
    equation at degree index n >= 1, mixing coefficient b and point x.  The
    three broadcast together; numbers give two floats, arrays two arrays of
    the broadcast shape.

    stated:  J_n Q_{n+2} - [D_{n+1} J_n - b J_{n+1}] Q_{n+1} + lam*_{n+1} J_{n+1} Q_n
    derived: J_{n+1} Q_{n+2} - [D_{n+1} J_{n+1} - b J_{n+2}] Q_{n+1} + lam*_{n+1} J_{n+2} Q_n

    with D_m(x) = x - c*_{m+1} + b, J_m(x) = b D_{m-1}(x) + lam*_m and
    Q_m = Pk_m + b Pk_{m-1} the monic order-one sequence.  One recurrence
    and one kernel table, both to the largest n, serve every entry.  Each
    residual is divided by the sum of the magnitudes of its three terms, so
    it measures cancellation against the size of what cancels (the terms
    grow like x^(n+2) and like the norms of the family).  The derived form
    reduces to the kernel recurrence at b = 0; the stated form does not.
    """
    shape = np.broadcast_shapes(np.shape(b), np.shape(n), np.shape(x))
    n = np.broadcast_to(n, shape)
    if np.any(n < 1):
        raise ValueError("the difference equation needs n >= 1")
    x = np.asarray(x)
    top = int(np.max(n, initial=1))
    pairs = kernel_recurrence(ctx, top + 3)
    cs = pairs[:, 0]  # cs[m] = c*_{m+1}
    ls = pairs[:, 1]  # ls[m] = lambda*_{m+1}
    table = kernel_table(ctx, top + 2, x.ravel())
    point = np.broadcast_to(np.arange(x.size).reshape(x.shape), shape)

    def D(m):
        return x - cs[m] + b

    def J(m):
        return b * D(m - 1) + ls[m - 1]

    def Q(m):
        return table[m, point] + b * table[m - 1, point]

    q_n, q_n1, q_n2 = Q(n), Q(n + 1), Q(n + 2)

    def relative(j: int):
        # the two forms differ only in the J subscripts: n, n+1 or n+1, n+2
        terms = (
            J(n + j) * q_n2,
            -(D(n + 1) * J(n + j) - b * J(n + j + 1)) * q_n1,
            ls[n] * J(n + j + 1) * q_n,
        )
        scale = sum(abs(t) for t in terms)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.where(scale != 0, abs(sum(terms)) / scale, 0.0)
        return residual if shape else float(residual)

    return relative(0), relative(1)


@dataclass
class QkOrthogonalityReport:
    """Outcome of the orthogonality criteria for a mixed kernel sequence."""

    satisfied: bool
    tilde_c: np.ndarray
    tilde_lambda: np.ndarray
    violated_conditions: list[str]
    recurrence_residual: float


def orthogonality_conditions(
    cstar: np.ndarray,
    lstar: np.ndarray,
    alphas: np.ndarray,
    n_max: int,
    tol: float = 1e-8,
) -> QkOrthogonalityReport:
    """Evaluate the orthogonality criteria on raw kernel recurrence pairs.

    ``cstar[m]`` and ``lstar[m]`` hold c*_{m+1} and lambda*_{m+1}.  The
    mixed sequence is Q_n = Pk_n + sum_m alphas[m-1] Pk_{n-m}.  Conditions:

    (i)   the first l+1 members admit a recurrence step with nonzero
          lambda-tilde (checked structurally from the explicit combination);
    (ii)  for n > l+1 the increments satisfy
          lambda*_{n+1} - lambda*_{n-l+1} = alpha_1 (c*_{n+1} - c*_n), the
          common value being nonzero, together with the telescoped relations
          for each alpha_m;
    (iii) the boundary relations at n = l+1.

    The report carries the recurrence coefficients of the mixed sequence,
    tilde_c[n] = c*_{n+1}, tilde_lambda[n] = lambda*_{n+1} +
    alpha_1 (c*_n - c*_{n+1}) for the regular range, and, independently of
    the conditions, how far Q_0..Q_n_max are from a three-term recurrence
    (see recurrence_residual).
    """
    alphas = np.asarray(alphas, dtype=float)
    l = alphas.size
    if l < 1 or alphas[-1] == 0.0:
        raise InvalidAlphas("alpha_l must exist and be nonzero")
    if n_max < l + 2:
        raise ValueError(f"n_max must be >= l+2 = {l + 2}")
    a1 = alphas[0]
    a = np.concatenate([[1.0], alphas])  # a[m] = alpha_m with alpha_0 = 1
    violated: list[str] = []
    # lambda*_1, the functional's mass, enters no condition and sets no scale
    scale = max(1.0, np.max(np.abs(lstar[1 : n_max + 1])), np.max(np.abs(cstar[: n_max + 1])))

    # (ii) for l+1 < n <= n_max, plus the common-value-nonzero reading
    for n in range(l + 2, n_max + 1):
        lhs = lstar[n] - lstar[n - l]
        rhs = a1 * (cstar[n] - cstar[n - 1])
        if abs(lhs - rhs) > tol * scale:
            violated.append("(ii)")
            break
        if abs(lhs) <= tol * scale:
            violated.append("(ii)")
            break
        ok = True
        for m in range(2, l + 1):
            t = a[m] * (cstar[n - m] - cstar[n]) + a[m - 1] * (
                lstar[n - m + 1] - lstar[n] - a1 * (cstar[n - 1] - cstar[n])
            )
            if abs(t) > tol * scale:
                ok = False
                break
        if not ok:
            violated.append("(ii)")
            break

    # (iii) boundary block at n = l+1 (the last relation is the m-free one)
    if abs(lstar[l + 1] - a1 * (cstar[l + 1] - cstar[l])) <= tol * scale:
        violated.append("(iii)")
    else:
        boundary = a[l] * lstar[l + 1] + a1 * a[l] * (cstar[l] - cstar[l + 1]) - alphas[-1] * lstar[1]
        if abs(boundary) > tol * scale:
            violated.append("(iii)")
        else:
            ok = True
            for m in range(1, l):
                t = (
                    a[m + 1] * (cstar[l - m] - cstar[l + 1])
                    + a[m] * lstar[l - m + 1]
                    - a[m] * (lstar[l + 1] - a1 * (cstar[l] - cstar[l + 1]))
                )
                if abs(t) > tol * scale:
                    ok = False
                    break
            if not ok:
                violated.append("(iii)")

    # (i): tilde coefficients of the low block; lambda-tilde must be nonzero
    tilde_c = np.array(cstar[: n_max + 1], dtype=float)
    tilde_lambda = np.array(lstar[: n_max + 1], dtype=float)
    tilde_c[0] = cstar[0] - a1
    for n in range(1, n_max + 1):
        tilde_lambda[n] = lstar[n] + a1 * (cstar[n - 1] - cstar[n])
    if np.any(np.abs(tilde_lambda[1 : l + 1]) <= tol * scale):
        violated.append("(i)")

    return QkOrthogonalityReport(
        satisfied=not violated,
        tilde_c=tilde_c,
        tilde_lambda=tilde_lambda,
        violated_conditions=sorted(set(violated)),
        recurrence_residual=recurrence_residual(cstar, lstar, alphas, n_max),
    )


def recurrence_residual(cstar, lstar, alphas, n_max: int) -> float:
    """How far Q_0..Q_n_max are from orthogonal, by Favard's theorem.

    With Q = A Pk (A unit lower triangular, A[n, n-m] = alphas[m-1]) and
    x Pk = J Pk (J the kernel recurrence matrix; ``cstar[m]``, ``lstar[m]``
    hold c*_{m+1}, lambda*_{m+1}), x Q = (A J A^-1) Q, exactly in rows
    0..n_max-1.  The sequence is orthogonal when those rows are tridiagonal;
    the residual is their largest entry below the subdiagonal over the
    largest entry of J (at least 1).  lambda*_1, the functional's mass, is
    not an entry of J and sets no scale.
    """
    size = n_max + 1
    mix = np.eye(size)
    for m, alpha in enumerate(alphas, start=1):
        mix += alpha * np.eye(size, k=-m)
    jac = np.diag(cstar[:size]) + np.eye(size, k=1) + np.diag(lstar[1:size], k=-1)
    rows = np.linalg.solve(mix.T, (mix @ jac).T).T[:n_max]
    return float(np.max(np.abs(np.tril(rows, -2)), initial=0.0)) / max(1.0, np.max(np.abs(jac)))


def qk_orthogonality_check(
    ctx: KernelContext, alphas, n_max: int, tol: float = 1e-8
) -> QkOrthogonalityReport:
    """Run the orthogonality criteria for Q_n = Pk_n + sum alphas[m-1] Pk_{n-m}."""
    pairs = kernel_recurrence(ctx, n_max + 1)
    if np.iscomplexobj(pairs):
        raise ValueError("orthogonality criteria expect a real shift")
    return orthogonality_conditions(
        pairs[:, 0].real, pairs[:, 1].real, np.asarray(alphas, dtype=float), n_max, tol
    )
