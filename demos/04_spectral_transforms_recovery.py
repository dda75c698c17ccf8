"""Geronimus and Uvarov transforms, and the four recovery constructions.

Each recovery combines a quasi-type kernel object with one transformed
sequence through rational coefficients and lands back exactly on the
original monic polynomials; the coefficient sequences come out of a
three-row matching system and are unique.
"""

import numpy as np

import opx
from opx import suites

fam = opx.chebyshev1()
rng = np.random.default_rng(0)
xs = rng.uniform(-1, 1, 40)

# Geronimus: Pt_n = P_n + A_n P_{n-1}, orthogonal under the inverse
# transformation once the free constant Ltilde(1) is pinned
gd = opx.geronimus_data(fam, 2.0, 6)
print("A_n:", np.round(gd.A[1:], 10))
print("solved mass Ltilde(1):", gd.mass0)
gram = opx.orthogonality_residual(fam, opx.Geronimus(2.0, gd.mass0), lambda t: opx.geronimus_table(gd, 6, t), 6)
print("Geronimus Gram off-diagonal max:", np.max(np.abs(gram - np.diag(np.diag(gram)))))

# Uvarov: point mass at k
ud = opx.uvarov_data(fam, 2.0, 0.5, 6)
print("\nUvarov T_n:", np.round(ud.T[1:], 10))
gram = opx.orthogonality_residual(fam, opx.Uvarov(2.0, 0.5), lambda t: opx.uvarov_table(ud, 6, t), 6)
print("Uvarov Gram off-diagonal max:", np.max(np.abs(gram - np.diag(np.diag(gram)))))


# each recovery's largest |Q_n - P_n| / max(1, |P_n|) over n = 1..6 and the points
n_max = 6
rc = opx.recover_christoffel(fam, 2.0, 2.0, np.full(n_max, 0.3), n_max)
print("\nrecovery via kernel mix         :", suites.recovery_identity(rc, xs, n_max).max())
rc = opx.recover_geronimus(fam, 3.0, 2.0, np.full(n_max, 0.4), n_max)
print("recovery via Geronimus sequence :", suites.recovery_identity(rc, xs, n_max).max())
rc = opx.recover_uvarov(fam, 2.0, 3.0, 0.5, np.full(n_max, 0.2), n_max)
print("recovery via Uvarov sequence    :", suites.recovery_identity(rc, xs, n_max).max())
# order two: Mtilde is free, and Ltilde is solved from the compatibility constraint
rc = opx.recover_order2(fam, 3.0, 1j, -1j, np.full(n_max, 0.5), n_max)
print("recovery via iterated kernels   :", suites.recovery_identity(rc, xs, n_max).max())

# the two transformations are mutually inverse on the recurrence level
tilde = opx.geronimus_family(opx.geronimus_data(fam, 3.0, 16), 15)
ctx = opx.KernelContext(tilde, 3.0, 10)
back = opx.kernel_recurrence(ctx, 10)
print("\nround-trip coefficient error:",
      np.max(np.abs(back - opx.recurrence_coefficients(fam, 10))))
