"""Print the seconds a fresh interpreter takes to import opx and build the
workloads' families.  Usage: python3 bench/setup_probe.py SRC_DIR
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import opx  # noqa: E402
import opx.cli  # noqa: E402  (the workloads drive the CLI)

opx.chebyshev1()
opx.laguerre(0.5)
opx.jacobi(0.3, 0.7)
print(repr(time.perf_counter() - started))
