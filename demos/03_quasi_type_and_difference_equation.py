"""Quasi-type kernel polynomials and their difference equation.

Mixing consecutive kernel polynomials keeps most of the moment conditions:
the order-one combination a Pk_{n+1} + b Pk_n annihilates x^m under the
shifted functional for m <= n - 1, the order-two combination for
m <= n - 3.  The monic order-one sequence also satisfies a three-term
difference equation with variable coefficients; the module evaluates the
residual of two index variants of it and only one of them vanishes.
"""

import numpy as np

import opx
from opx import moments, quasi

fam = opx.chebyshev1()
ctx = opx.KernelContext(fam, 2.0, 10)
spec = quasi.QuasiSpec(order=1, a=1.0, b=0.7)

n = 5
print(f"moment conditions for the order-1 mix at n = {n}:")
for m in range(n + 1):
    val = moments.apply_functional(
        fam, moments.Christoffel(2.0),
        lambda xs: xs**m * quasi.quasi_kernel(ctx, spec, n, xs), n + 1 + m)
    marker = "annihilated" if m <= n - 1 else "free"
    print(f"  L*(x^{m} Q_{n+1}) = {val:+.3e}   ({marker})")

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
