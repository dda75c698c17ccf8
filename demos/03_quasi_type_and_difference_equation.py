"""Quasi-type kernel polynomials and their difference equation.

Mixing consecutive kernel polynomials keeps most of the moment conditions:
the order-one combination a Pk_{n+1} + b Pk_n annihilates every polynomial
of degree m <= n - 1 under the shifted functional L* = (x - k) L, the
order-two combination those of degree m <= n - 3.  The check runs against
Pk_0..Pk_m, which span those polynomials, on L* as one discrete measure.  The monic order-one sequence also satisfies a three-term
difference equation with variable coefficients; the module evaluates the
residual of two index variants of it and only one of them vanishes.
"""

import math

import numpy as np

import opx
from opx import moments, quasi, suites

fam = opx.chebyshev1()
ctx = opx.KernelContext(fam, 2.0, 10)
spec = quasi.QuasiSpec(order=1, a=1.0, b=0.7)

n = 5
# L* on the 8-point Gauss rule: nodes x and weights w (x - k), exact through degree 14
nodes, weights = moments.measure(fam, moments.Christoffel(2.0), n + 3)
table = opx.kernel_table(ctx, n + 1, nodes)
q = quasi.quasi_from_kernel_table(spec, n, table)
print(f"moment conditions for the order-1 mix at n = {n}:")
for m in range(n + 1):
    val = math.fsum(weights * table[m] * q)
    marker = "annihilated" if m <= n - 1 else "free"
    print(f"  L*(Pk_{m} Q_{n+1}) = {val:+.3e}   ({marker})")
stats = suites.moment_annihilation(ctx, spec, range(2, 9))
print(f"worst |L*(Pk_m Q_n)| / (||Pk_m|| ||Q_n||) over n = 2..8, m <= n - 1: {stats.max():.2e}")

print("\ndifference-equation residuals |LHS - RHS| / sum |terms| at x = 0.4, b = 0.3:")
for idx in range(1, 6):
    stated, derived = quasi.difference_equation_residual(ctx, 0.3, idx, 0.4)
    print(f"  n = {idx}: stated-index form {stated:.3e}   matrix-algebra form {derived:.3e}")
print("(only the matrix-algebra form is an identity; the other is recorded)")

# the orthogonality criterion for mixed sequences, read off A J A^-1: an
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
      " recurrence-matrix residual =", f"{report.recurrence_residual:.2e}")
print("tilde lambda sequence:", np.round(report.tilde_lambda[:6], 6))

# T_n = U_n - U_{n-2}/4 (c* = 0, lambda* = 1/4); x T_1 = T_2 + T_0/2
report = quasi.orthogonality_conditions(np.zeros(10), np.full(10, 0.25), [0.0, -0.25], 8)
print("T from U: satisfied =", report.satisfied,
      " tilde lambda_1 =", report.tilde_lambda[1])

report = opx.qk_orthogonality_check(ctx, [0.5], 6)
print("generic kernel stream: satisfied =", report.satisfied,
      " violated:", report.violated_conditions,
      " first failing entry (row, column, condition):", report.first_violation)
