"""Quasi-type kernel polynomials and their difference equation.

Mixing consecutive kernel polynomials keeps most of the moment conditions:
Q_n = c_0 Pk_n + c_1 Pk_{n-1} + ... + c_l Pk_{n-l}, one coefficient row
(c_0..c_l) per degree or one for all, annihilates every polynomial of
degree m <= n - 1 - l under the shifted functional L* = (x - k) L.  The
check runs against Pk_0..Pk_m, which span those polynomials, on L* as one
discrete measure.  The monic order-one sequence also satisfies a
three-term difference equation with variable coefficients; the module
evaluates the residual of two index variants of it and only one of them
vanishes.
"""

import math

import numpy as np

import opx
from opx import moments, quasi, suites

fam = opx.chebyshev1()
ctx = opx.KernelContext(fam, 2.0, 10)
coeffs = (1.0, 0.7)  # Q_n = Pk_n + 0.7 Pk_{n-1}

n = 6
# L* on the 8-point Gauss rule: nodes x and weights w (x - k), exact through degree 14
nodes, weights = moments.measure(fam, moments.Christoffel(2.0), n + 2)
table = opx.kernel_table(ctx, n, nodes)
q = opx.quasi_table(table, coeffs)[n]
print(f"moment conditions for the order-1 mix at n = {n}:")
for m in range(n):
    val = math.fsum(weights * table[m] * q)
    marker = "annihilated" if m <= n - 2 else "free"
    print(f"  L*(Pk_{m} Q_{n}) = {val:+.3e}   ({marker})")
stats = suites.moment_annihilation(ctx, coeffs, range(3, 10))
print(f"worst |L*(Pk_m Q_n)| / (||Pk_m|| ||Q_n||) over n = 3..9, m <= n - 2: {stats.max():.2e}")

print("\ndifference-equation residuals |LHS - RHS| / sum |terms| at x = 0.4, b = 0.3:")
for idx in range(1, 6):
    stated, derived = quasi.difference_equation_residual(ctx, 0.3, idx, 0.4)
    print(f"  n = {idx}: stated-index form {stated:.3e}   matrix-algebra form {derived:.3e}")
print("(only the matrix-algebra form is an identity; the other is recorded)")

# the orthogonality criterion for mixed sequences, read off A J = J~ A: an
# engineered coefficient stream with arithmetic c*_n and monic Chebyshev T
# built from monic U meet it, a generic kernel stream fails
a1, step = 0.7, 0.35
cs = np.array([0.2 + step * j for j in range(14)])
ls = np.zeros(14)
ls[0], ls[1] = 1.0, 0.9
for j in range(2, 14):
    ls[j] = ls[j - 1] + a1 * (cs[j] - cs[j - 1])
report = quasi.orthogonality_conditions(cs, ls, [a1], 8)
print("\nengineered family: satisfied =", report.satisfied,
      " residual of R = AJ - J~A =", f"{report.recurrence_residual:.2e}")
print("tilde lambda sequence:", np.round(report.tilde_lambda[:6], 6))

# T_n = U_n - U_{n-2}/4 (c* = 0, lambda* = 1/4); x T_1 = T_2 + T_0/2
report = quasi.orthogonality_conditions(np.zeros(10), np.full(10, 0.25), [0.0, -0.25], 8)
print("T from U: satisfied =", report.satisfied,
      " tilde lambda_1 =", report.tilde_lambda[1])

report = opx.qk_orthogonality_check(ctx, [0.5], 6)
print("generic kernel stream: satisfied =", report.satisfied,
      " violated:", report.violated_conditions,
      " first failing entry (row, column, condition):", report.first_violation)

# P itself is quasi-type of order one in its own kernels, with one alpha per
# degree: P_n = Pk_n - (lambda_{n+1}/rho_n) Pk_{n-1}, rho_n = P_n(k)/P_{n-1}(k)
lam = fam.table(9)[:, 1]
alphas = np.zeros((9, 1))
alphas[1:, 0] = -lam[1:] / ctx.ratios[1:9]
report = opx.qk_orthogonality_check(ctx, alphas, 8)
c, lam = fam.table(8).T
print("P from its kernels: satisfied =", report.satisfied,
      " (c~_n, l~_n) = (c_{n+1}, lambda_{n+1}):",
      np.allclose(report.tilde_c, c) and np.allclose(report.tilde_lambda[1:], lam[1:]))
