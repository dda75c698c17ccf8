"""Quasi-type kernel polynomials and their orthogonality criterion.

A quasi-type kernel polynomial of order l is Q_n = c_0 Pk_n + ... +
c_l Pk_{n-l}, with one coefficient row for all degrees or one per degree,
and ``quasi_table`` forms it.  The module also carries the variable-
coefficient difference equation for the monic order-one sequence and the
criterion for when a mixed sequence Q = A Pk is itself orthogonal, read
off A J = J~ A by Favard's theorem: J~ is Q's own recurrence matrix, and
the entries of R = AJ - J~A below the subdiagonal are the paper's
conditions (i)-(iii) on the kernel recurrence coefficients.

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
    "QkOrthogonalityReport",
    "quasi_table",
    "quasi_kernel",
    "difference_equation_residual",
    "qk_orthogonality_check",
    "orthogonality_conditions",
]


def quasi_table(table, coeffs) -> np.ndarray:
    """Row n is coeffs[n, 0] table[n] + ... + coeffs[n, l] table[n-l],
    summed in that order over the rows n - i >= 0 of ``table`` (N, points);
    ``coeffs`` is one row (c_0..c_l) for every n, or one row per n.  On a
    kernel table row n is the quasi-type Q_n, of degree n when c_0 != 0; on
    the identity it is the mixing matrix A of Q = A Pk.  Raises ValueError
    on a coefficient that is not finite or on a row that is all zero.
    """
    coeffs = np.asarray(coeffs)
    if not (np.isfinite(coeffs).all() and coeffs.any(axis=-1).all()):
        raise ValueError("quasi-type coefficients must be finite, and no row all zero")
    coeffs = np.broadcast_to(coeffs, (len(table), coeffs.shape[-1]))
    out = coeffs[:, :1] * table
    for i in range(1, coeffs.shape[1]):
        out[i:] += coeffs[i:, i, None] * table[:-i]
    return out


def quasi_kernel(ctx: KernelContext, coeffs, n: int, x):
    """Q_n = c_0 Pk_n(k;x) + c_1 Pk_{n-1}(k;x) + ... + c_l Pk_{n-l}(k;x) for
    the coefficient row (c_0..c_l), or rows, ``coeffs`` and n >= l; scalar
    or array x: row n of ``quasi_table`` over a kernel table."""
    l = np.shape(coeffs)[-1] - 1
    if n < l:
        raise ValueError(f"quasi-type kernel polynomials of order {l} need n >= {l}")
    out = quasi_table(kernel_table(ctx, n, x), coeffs)[n]
    return out if np.ndim(x) else out[0]


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
    label) of the first failing entry in row-major order: an entry of
    R = AJ - J~A below the subdiagonal, or a vanishing l~_n.
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
    """Read the orthogonality criterion off A J = J~ A.

    ``cstar[m]`` and ``lstar[m]`` hold c*_{m+1} and lambda*_{m+1}; the mixed
    sequence is Q = A Pk, A = ``quasi_table(I, (1, alphas))``, with one row
    of alphas for all degrees or one per degree.  As x Pk = J Pk (J the
    kernel recurrence matrix), x Q = A J Pk, and by Favard's theorem
    Q_0..Q_n_max are orthogonal when A J = J~ A in rows 0..n_max-1 for a
    tridiagonal J~ (ones above the diagonal) with a nonzero subdiagonal.
    Row n of that relation in column n gives c~_n = (AJ)[n,n] - A[n+1,n],
    in column n-1 l~_n = (AJ)[n,n-1] - c~_n A[n,n-1] - A[n+1,n-1], and in
    the columns below it holds R = AJ - J~A.  An entry of R fails above
    ``tol`` times (|A||J| + |J~||A|) there, the magnitude of what cancels in
    it; a l~_n fails at or below ``tol`` times the largest entry of J (at
    least 1; lambda*_1, the mass, is not in J).  Labels: (i) a vanishing
    l~_n, n <= l; (iii) an entry in the boundary rows 2..l+1; (ii) either
    failure in a later row.  The largest relative entry of R is
    ``recurrence_residual``.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    l, size = alphas.shape[-1], n_max + 1
    alphas = np.broadcast_to(alphas, (size, l))
    # alpha_l of row n multiplies Pk_{n-l}, which exists from n = l on
    if l < 1 or (alphas[l:, -1] == 0.0).any():
        raise InvalidAlphas("alpha_l must exist and be nonzero")
    if n_max < l + 2:
        raise ValueError(f"n_max must be >= l+2 = {l + 2}")
    mix = quasi_table(np.eye(size), np.hstack([np.ones((size, 1)), alphas]))
    jac = np.diag(cstar[:size]) + np.eye(size, k=1) + np.diag(lstar[1:size], k=-1)
    aj = (mix @ jac)[:n_max]
    d, s = np.arange(n_max), np.arange(1, n_max)
    # row n of A J = J~ A in column n gives c~_n, in column n - 1 l~_n
    tilde_c = aj[d, d] - mix[d + 1, d]
    tilde_l = aj[s, s - 1] - tilde_c[1:] * mix[s, s - 1] - mix[s + 1, s - 1]
    tilde_j = np.eye(n_max, size, k=1)
    tilde_j[d, d], tilde_j[s, s - 1] = tilde_c, tilde_l
    # R = A J - J~ A against the magnitude of the terms that cancel in it;
    # below the band there are none, and R and its scale are both 0
    scale = np.abs(mix[:n_max]) @ np.abs(jac) + np.abs(tilde_j) @ np.abs(mix)
    below = np.tril(np.abs(aj - tilde_j @ mix) / np.where(scale > 0.0, scale, 1.0), -2)
    # failing entries: anything below the subdiagonal, a vanishing l~_n
    bad = ~(below <= tol)
    bad[s, s - 1] = ~(np.abs(tilde_l) / max(1.0, np.max(np.abs(jac))) > tol)
    hits = [(int(n), int(j)) for n, j in np.argwhere(bad)]

    def label(n: int, j: int) -> str:
        if j == n - 1:
            return "(i)" if n <= l else "(ii)"
        return "(iii)" if n <= l + 1 else "(ii)"

    labels = [label(n, j) for n, j in hits]
    return QkOrthogonalityReport(
        satisfied=not labels,
        tilde_c=tilde_c,
        tilde_lambda=np.concatenate([lstar[:1], tilde_l]),
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
