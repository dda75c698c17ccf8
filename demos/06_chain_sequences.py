"""Chain sequences: minimal parameters and complementary sequences.

A sequence l_n is a positive chain sequence when it factors as
l_n = (1 - g_{n-1}) g_n with parameters in (0, 1); the minimal parameter
sequence starts at m_0 = 0 and is computed by a one-line recurrence.
"""

import numpy as np

import opx
from opx.ratios import _gauss_g

seq = opx.chain_params(lambda n: 0.25, 12)
print("l_n = 1/4: minimal parameters m_n = n / (2 (n + 1)):")
print(np.round(seq.m, 6))
print("positive chain sequence:", seq.positive)

seq = opx.chain_params(lambda n: 0.3, 12)
print("\nl_n = 0.3 exceeds the constant-sequence threshold 1/4:")
print(np.round(seq.m, 4))
print("positive:", seq.positive)
print("complementary k_n = 0.7 parameters:", np.round(seq.complementary.m[:6], 4),
      "positive:", seq.complementary.positive)

# the recurrence-coefficient quotient lambda_{n+1} / (c_n c_{n+1}) of a
# positive-diagonal family is itself a chain sequence
lag = opx.laguerre(0.5)
pairs = lag.table(40)
quot = [pairs[n, 1] / (pairs[n - 1, 0] * pairs[n, 0]) for n in range(1, 40)]
print("\nLaguerre lambda/(c c) quotient chain:", opx.chain_params(quot).positive)

# partial numerators of the Gauss-ratio fraction form a g-sequence, hence a
# positive chain sequence for 0 < p <= q < r
p, q, r = 0.8, 1.4, 2.1
g = _gauss_g(p, q, r, 50)
l = (1 - g[:-1]) * g[1:]
print("g-fraction chain sequence positive:", opx.chain_params(l).positive)
