"""Kernel polynomials: divided difference, CD sum, recurrence, inversion.

The shifted functional L*(p) = L((x - k) p) has its own monic orthogonal
sequence.  Away from the shift it is a divided difference of neighbours;
at the shift only the Christoffel-Darboux sum makes sense, and the two
branches agree on the overlap.  The context keeps P_j(k) in ratio form,
rho_j = P_j(k)/P_{j-1}(k), which stays finite at any degree.
"""

import numpy as np

import opx

fam = opx.chebyshev1()
k = 2.0
ctx = opx.KernelContext(fam, k, 8)

xs = np.linspace(-1, 1, 5)
print("kernel values Pk_3(2; x):", opx.kernel_poly(ctx, 3, xs))
print("value at the shift itself (CD-sum branch):", opx.kernel_poly(ctx, 3, k))

pairs = opx.kernel_recurrence(ctx, 5)
print("\nshifted recurrence (c*_n, lambda*_n), n = 1..5:")
print(pairs)
print("lambda*_2 from the closed product formula: 0.4375")
print("ratios rho_j = P_j(2)/P_{j-1}(2), j = 1..5:", ctx.ratios[1:6])

# the kernel sequence is orthogonal under the shifted functional
gram = opx.orthogonality_residual(fam, opx.Christoffel(k), lambda t: opx.kernel_table(ctx, 5, t), 5)
print("\nshifted-functional Gram off-diagonal max:",
      np.max(np.abs(gram - np.diag(np.diag(gram)))))

# inversion: P_{n+1} is a two-term combination of kernel polynomials
x = 0.3
for n in range(4):
    rebuilt = opx.op_from_kernels(ctx, n, x)
    direct = opx.eval_sequence(fam, n + 1, x).values[n + 1]
    print(f"P_{n+1}({x}) rebuilt from kernels: {rebuilt:+.12f} direct: {direct:+.12f}")

# iterating the construction at conjugate complex shifts stays well defined
ictx = opx.IteratedKernelContext(opx.KernelContext(fam, 1j, 8), -1j)
print("\niterated kernel Pkk_3(i, -i; 0.4) =", opx.iterated_kernel(ictx, 3, 0.4))
print("first-shift kernels at the second shift Pk_n(i; -i) (all nonzero):", ictx.star_values[:5])

# the product-measure double integral vanishes off the diagonal
print("\ndouble integral (n, m) = (2, 0):", opx.product_orthogonality_check(fam, 2, 0, 40))
print("double integral (n, m) = (2, 2):", opx.product_orthogonality_check(fam, 2, 2, 40),
      " = twice lambda_4 =", 2 * fam.coefficient(4)[1])
