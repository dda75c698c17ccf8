"""Quasi-type kernel polynomials and their orthogonality criterion.

Order one mixes two consecutive kernel polynomials, a*Pk_{n+1} + b*Pk_n;
order two adds a third term.  The module also carries the variable-
coefficient difference equation for the monic order-one sequence and the
criterion for when a mixed sequence Q = A Pk is itself orthogonal, read
off its recurrence matrix A J A^-1 by Favard's theorem: the entries below
the subdiagonal are the paper's conditions (i)-(iii) on the kernel
recurrence coefficients, and the diagonals are Q's own coefficients.

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
    """Outcome of the orthogonality criterion for a mixed kernel sequence.

    ``tilde_c[n]`` and ``tilde_lambda[n]`` are the recurrence coefficients of
    x Q_n = Q_{n+1} + c~_n Q_n + l~_n Q_{n-1} for the certified rows
    n = 0..n_max-1, in the layout of the kernel pairs: ``tilde_lambda[0]`` is
    the shared mass lambda*_1.  ``first_violation`` is the (row, column,
    label) of the first failing entry of A J A^-1 in row-major order.
    """

    satisfied: bool
    tilde_c: np.ndarray
    tilde_lambda: np.ndarray
    violated_conditions: list[str]
    first_violation: tuple[int, int, str] | None
    recurrence_residual: float


def orthogonality_conditions(
    cstar: np.ndarray,
    lstar: np.ndarray,
    alphas: np.ndarray,
    n_max: int,
    tol: float = 1e-8,
) -> QkOrthogonalityReport:
    """Read the orthogonality criterion off the recurrence matrix of Q.

    ``cstar[m]`` and ``lstar[m]`` hold c*_{m+1} and lambda*_{m+1}; the mixed
    sequence is Q = A Pk, A unit lower triangular with A[n, n-m] =
    alphas[m-1].  As x Pk = J Pk (J the kernel recurrence matrix), x Q =
    (A J A^-1) Q exactly in rows 0..n_max-1, and by Favard's theorem
    Q_0..Q_n_max are orthogonal when those rows are tridiagonal with a
    nonzero subdiagonal.  Over the largest entry of J (at least 1; lambda*_1,
    the mass, is not in J), an entry below the subdiagonal fails above
    ``tol``, and a l~_n fails at or below it.  Labels: (i) a vanishing l~_n,
    n <= l; (iii) an entry in the boundary rows 2..l+1; (ii) either failure
    in a later row.  The largest such entry is ``recurrence_residual``.
    """
    alphas = np.asarray(alphas, dtype=float)
    l = alphas.size
    if l < 1 or alphas[-1] == 0.0:
        raise InvalidAlphas("alpha_l must exist and be nonzero")
    if n_max < l + 2:
        raise ValueError(f"n_max must be >= l+2 = {l + 2}")
    size = n_max + 1
    mix = np.eye(size)
    for m, alpha in enumerate(alphas, start=1):
        mix += alpha * np.eye(size, k=-m)
    jac = np.diag(cstar[:size]) + np.eye(size, k=1) + np.diag(lstar[1:size], k=-1)
    rows = np.linalg.solve(mix.T, (mix @ jac).T).T[:n_max]
    rel = np.abs(rows) / max(1.0, np.max(np.abs(jac)))
    below = np.tril(rel, -2)
    # failing entries: anything below the subdiagonal, a vanishing l~_n
    bad = ~(below <= tol)
    bad[np.arange(1, n_max), np.arange(n_max - 1)] = ~(np.diagonal(rel, -1) > tol)
    hits = [(int(n), int(j)) for n, j in np.argwhere(bad)]

    def label(n: int, j: int) -> str:
        if j == n - 1:
            return "(i)" if n <= l else "(ii)"
        return "(iii)" if n <= l + 1 else "(ii)"

    labels = [label(n, j) for n, j in hits]
    return QkOrthogonalityReport(
        satisfied=not labels,
        tilde_c=np.diagonal(rows).copy(),
        tilde_lambda=np.concatenate([lstar[:1], np.diagonal(rows, -1)]),
        violated_conditions=sorted(set(labels)),
        first_violation=(*hits[0], labels[0]) if hits else None,
        recurrence_residual=float(np.max(below, initial=0.0)),
    )


def qk_orthogonality_check(
    ctx: KernelContext, alphas, n_max: int, tol: float = 1e-8
) -> QkOrthogonalityReport:
    """Run the orthogonality criterion for Q_n = Pk_n + sum alphas[m-1] Pk_{n-m}."""
    pairs = kernel_recurrence(ctx, n_max + 1)
    if np.iscomplexobj(pairs):
        raise ValueError("orthogonality criteria expect a real shift")
    return orthogonality_conditions(
        pairs[:, 0].real, pairs[:, 1].real, np.asarray(alphas, dtype=float), n_max, tol
    )
