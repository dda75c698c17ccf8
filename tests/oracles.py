"""Reference implementations the tests compare the package against.

Each is the explicit form of something ``opx`` computes another way: the
moments from powers of the recurrence matrix, the Christoffel-Darboux
kernel as its sum, the product-measure double integral on a tensor
Gauss rule, the terminating hypergeometric ratios in exact rational
arithmetic, and the scalar continued fractions' numerators built one index
at a time.  They live beside the tests so that the package does not hold
the oracles for its own identities.
"""

import math
from fractions import Fraction

import numpy as np

from opx import eval_table, gauss_rule, geronimus_data, geronimus_family, kernel_family, norm_products, ratios


def moment_sequence(family, j_max: int) -> np.ndarray:
    """Moments mu_0..mu_j_max from the recurrence alone (no eigensolve).

    mu_j / mu_0 equals the (0, 0) entry of the j-th power of the monic
    tridiagonal recurrence matrix, computed by repeated matrix-vector
    products; this stays relatively accurate where a monomial-basis change
    would cancel catastrophically.  Serves as the reference the Gauss rules
    are checked against.
    """
    size = j_max // 2 + 2
    pairs = family.table(size + 1)
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


def cd_kernel(ctx, n: int, x):
    """Christoffel-Darboux kernel K_n(x, k) of the context's family at its
    shift k, as the explicit sum, from its own P_j(k) and N_j; each point's
    terms are summed along one contiguous row, so a point vector sums them
    in a single point's order."""
    if n > ctx.n_max + 2:
        raise ValueError(f"n={n} exceeds cached range {ctx.n_max + 2}")
    pk = eval_table(ctx.family, n, [ctx.k])[:, 0]
    table = eval_table(ctx.family, n, np.atleast_1d(np.asarray(x)))
    out = np.ascontiguousarray(table.T * (pk / norm_products(ctx.family, n))).sum(axis=1)
    return out if np.ndim(x) else out[0]


def product_orthogonality_check(family, n: int, m: int, quad_order: int) -> float:
    """Tensor-quadrature value of the product-measure double integral

        integral integral (x - u)^2 K_n(x, u) K_m(x, u) dmu(u) dmu(x).

    Vanishes for n != m; for n = m it equals twice the square of the
    orthonormal-side recurrence coefficient (2 * lambda_{n+2} in the monic
    convention), which the tests pin empirically from the n = m = 0 case.
    """
    if quad_order < n + m + 3:
        raise ValueError(f"quad_order must be >= n+m+3 = {n + m + 3}")
    rule = gauss_rule(family, quad_order)
    top = max(n, m)
    table = eval_table(family, top, rule.nodes)  # (top+1, M)
    norms = norm_products(family, top)
    kn = (table[: n + 1].T / norms[: n + 1]) @ table[: n + 1]
    km = (table[: m + 1].T / norms[: m + 1]) @ table[: m + 1]
    diff2 = (rule.nodes[:, None] - rule.nodes[None, :]) ** 2
    return float(rule.weights @ (diff2 * kn * km) @ rule.weights)


def geronimus_chain(ctx, shifts, n_max: int):
    """Mixing rows and family of l = len(shifts) Geronimus steps from Pk.

    The chain starts from the kernel family of ``ctx`` on N = n_max + 2 l
    pairs (``ctx.n_max`` >= N - 1); each step at a shift s applies ``geronimus_data`` and
    ``geronimus_family`` and keeps two rows fewer.  A step Pt_n = Q_n +
    A_n Q_{n-1} convolves the rows: new[n] = old[n] + A_n shift(old[n-1]).
    Returns the alphas (n_max + 1, l) of Q_n = Pk_n + alpha_{n,1} Pk_{n-1} +
    ... + alpha_{n,l} Pk_{n-l}, one row per degree, and the family of Q,
    orthogonal by construction.
    """
    size = n_max + 2 * len(shifts)
    fam = kernel_family(ctx, size)
    rows = np.ones((n_max + 1, 1))
    for s in shifts:
        data = geronimus_data(fam, s, size - 2)
        fam = geronimus_family(data, size - 3)
        size -= 2
        old, rows = rows, np.hstack([rows, np.zeros((n_max + 1, 1))])
        rows[1:, 1:] += data.A[1 : n_max + 1, None] * old[:-1]
    return rows[:, 1:], fam


def exact_series_ratio(n: int, params, z) -> float:
    """F(-n + 1, ...; z) / F(-n, ...; z) for params (q, r) of 2F1 or (r,)
    of 1F1, exact: every double is a dyadic rational, so the terminating
    sums are taken in ``Fraction`` arithmetic and their ratio is rounded
    once, to the nearest double."""
    *tops, r = map(Fraction, params)
    z = Fraction(z)

    def total(p: int) -> Fraction:
        term = acc = Fraction(1)
        for m in range(-p):
            term *= (p + m) * math.prod(t + m for t in tops) / ((r + m) * (m + 1)) * z
            acc += term
        return acc

    return float(total(1 - n) / total(-n))


def gauss_numerators(p, q, r, m: int) -> list:
    """b_1..b_m of the g-fraction for numbers p, q, r, as Python floats up
    to the first zero: one index j per step, g_j from ``ratios._g_odd`` or
    ``ratios._g_even`` by the parity of j, then its numerator."""
    p, q, r = float(p), float(q), float(r)
    b, g_prev = [], 0.0
    for j in range(1, m + 1):
        k = float((j + 1) // 2)
        g = ratios._g_odd(q, r, k) if j % 2 else ratios._g_even(p, r, k)
        b.append(ratios._g_numerator(g_prev, g))
        if b[-1] == 0.0:
            break
        g_prev = g
    return b


def kummer_d_list(p, r, m: int) -> list:
    """d_1..d_m of the Kummer fraction for numbers p, r, as Python floats up
    to the first zero, one index per step: d_1 = 1/r, then
    ``ratios._d_odd`` or ``ratios._d_even`` by the parity of j."""
    p, r = float(p), float(r)
    d = [1.0 / r]
    for j in range(2, m + 1):
        if d[-1] == 0.0:
            break
        k = float((j + 1) // 2)
        d.append(ratios._d_odd(p, r, k) if j % 2 else ratios._d_even(p, r, k))
    return d
