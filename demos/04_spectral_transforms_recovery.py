"""Geronimus and Uvarov transforms, and the four recovery constructions.

Each recovery combines a quasi-type kernel object with one transformed
sequence through rational coefficients and lands back exactly on the
original monic polynomials; the coefficient sequences come out of a
three-row matching system and are unique.
"""

import numpy as np

import opx

fam = opx.chebyshev1()
rng = np.random.default_rng(0)
xs = rng.uniform(-1, 1, 40)

# Geronimus: Pt_n = P_n + A_n P_{n-1}, orthogonal under the inverse
# transformation once the free constant Ltilde(1) is pinned
gd = opx.geronimus_data(fam, 2.0, 6)
print("A_n:", np.round(gd.A[1:], 10))
print("solved mass Ltilde(1):", gd.mass0)
polys = [lambda t, n=n: opx.geronimus_poly(gd, n, t) for n in range(7)]
gram = opx.orthogonality_residual(fam, opx.Geronimus(2.0, gd.mass0), polys, 6)
print("Geronimus Gram off-diagonal max:", np.max(np.abs(gram - np.diag(np.diag(gram)))))

# Uvarov: point mass at k
ud = opx.uvarov_data(fam, 2.0, 0.5, 6)
print("\nUvarov T_n:", np.round(ud.T[1:], 10))
polys = [lambda t, n=n: opx.uvarov_poly(ud, n, t) for n in range(7)]
gram = opx.orthogonality_residual(fam, opx.Uvarov(2.0, 0.5), polys, 6)
print("Uvarov Gram off-diagonal max:", np.max(np.abs(gram - np.diag(np.diag(gram)))))


def worst(rebuild, rc, n_max):
    out = 0.0
    for n in range(1, n_max + 1):
        q = np.real(rebuild(rc, n, xs))
        p = opx.eval_table(fam, n, xs)[n]
        out = max(out, np.max(np.abs(q - p) / np.maximum(1, np.abs(p))))
    return out


n_max = 6
B = np.full(n_max, 0.3)
rc = opx.recover_christoffel(fam, 2.0, 2.0, B, n_max)
print("\nrecovery via kernel mix         :",
      worst(opx.christoffel_recovery_poly, rc, n_max))

Bt = np.full(n_max, 0.4)
rcg = opx.recover_geronimus(fam, 3.0, 2.0, Bt, n_max)
print("recovery via Geronimus sequence :",
      worst(opx.geronimus_recovery_poly, rcg, n_max))

Bu = np.full(n_max, 0.2)
rcu = opx.recover_uvarov(fam, 2.0, 3.0, 0.5, Bu, n_max)
print("recovery via Uvarov sequence    :",
      worst(opx.uvarov_recovery_poly, rcu, n_max))

rhs = opx.order2_constraint_rhs(fam, 3.0, 1j, -1j, n_max)
mt = np.full(n_max, 0.5, dtype=complex)
pk1 = opx.eval_table(fam, n_max, [3.0])[:, 0]
lt = np.array([rhs[n] - mt[n - 1] * pk1[n] / (fam.coefficient(n + 1)[1] * pk1[n - 1])
               for n in range(1, n_max + 1)])
rco = opx.recover_order2(fam, 3.0, 1j, -1j, lt, mt, n_max)
print("recovery via iterated kernels   :",
      worst(opx.order2_recovery_poly, rco, n_max))

# the two transformations are mutually inverse on the recurrence level
tilde = opx.geronimus_family(opx.geronimus_data(fam, 3.0, 16), 15)
ctx = opx.KernelContext(tilde, 3.0, 10)
back = opx.kernel_recurrence(ctx, 10)
print("\nround-trip coefficient error:",
      np.max(np.abs(back - opx.recurrence_coefficients(fam, 10))))
