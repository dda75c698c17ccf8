"""Families, recurrences, and the quadrature oracle.

A family is just its recurrence coefficient stream (c_n, lambda_n) with the
mass convention lambda_1 = mu_0, and everything downstream is computed from
it: evaluations by forward recurrence and Gauss rules from the tridiagonal
matrix.
"""

from math import comb, pi

import numpy as np

import opx

fam = opx.chebyshev1()
print("Chebyshev first-kind recurrence (c_n, lambda_n), n = 1..5:")
print(fam.table(5))

print("\nMonic values P_0..P_4 at x = 0.5:")
print(opx.eval_table(fam, 4, [0.5])[:, 0])

values = opx.eval_table(fam, 4, [1.0])
print("\nDerivatives at x = 1 (P_2' = 2x gives 2):")
print(opx.eval_derivs(fam, 4, [1.0], values)[:, 0])

rule = opx.gauss_rule(fam, 4)
print("\n4-point Gauss rule: nodes", rule.nodes, "weights", rule.weights)
print("weights sum to the mass:", rule.weights.sum(), "vs mu0 =", fam.mu0)

# exactness against the closed-form moments of (1 - x^2)^(-1/2):
# mu_2j = pi C(2j, j) / 4^j, and the odd moments vanish
ref = np.array([0.0 if j % 2 else pi * comb(j, j // 2) / 4 ** (j // 2) for j in range(8)])
quad = np.array([np.sum(rule.weights * rule.nodes**j) for j in range(8)])
print("\nmonomial moment error (degrees 0..7):", np.max(np.abs(quad - ref)))

lag = opx.laguerre(0.5)
print("\nLaguerre(0.5) lives on the half line:", lag.support)
# the Gram matrix reads one table of P_0..P_4 per Gauss rule
gram = opx.orthogonality_residual(lag, opx.Base(), lambda xs: opx.eval_table(lag, 4, xs), 4)
print("normalized Gram off-diagonal max:",
      np.max(np.abs(gram - np.diag(np.diag(gram)))))
