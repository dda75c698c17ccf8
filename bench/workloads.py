"""The benchmark's workloads: fixed batches of opx operations built from a seed.

An op is either one CLI invocation (``argv`` for ``opx.cli.main``) or one
batch of calls into ``opx.ratios`` (``api`` names the function, ``calls``
holds the argument tuples).  Every input is drawn from ``random.Random(seed)``
so the same seed gives the same batch; the program only sees the generated
inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# the three built-in families at the parameters the CLI documents
FAMILIES = {
    "chebyshev1": ("--family", "chebyshev1"),
    "laguerre": ("--family", "laguerre", "--gamma", "0.5"),
    "jacobi": ("--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"),
}
# where --points are drawn; Laguerre's half line is cut at 10 like cli._sample_points
POINT_RANGE = {"chebyshev1": (-1.0, 1.0), "laguerre": (0.0, 10.0), "jacobi": (-1.0, 1.0)}

# the recovery suite runs just before the cheap chains suite, so the op that
# follows its large eigensolves is not one near op_ms.p50 (on a 2-vCPU host,
# over seeds 701-705, this took the p50 spread from 0.104 to 0.045)
SUITES = ("kernels", "quasi", "ratios", "recovery", "chains")
RECOVERY_KINDS = ("christoffel", "geronimus", "uvarov", "order2")
# (family, shift) pairs of the ratio tables; chebyshev1 at 2 and jacobi at 1.5
# are the configurations whose limits go non-finite at these sizes today
RATIO_CONFIGS = (
    ("chebyshev1", "1"),
    ("chebyshev1", "2"),
    ("laguerre", "-1"),
    ("jacobi", "1"),
    ("jacobi", "1.5"),
)
RATIO_SIZES = ("1000", "4000")
CF_DEPTH = 60
CF_CALLS = 300  # calls per continued-fraction op
# a drawn CF input is kept only if its denominator series is at least this
# share of the sum of its terms' magnitudes, so the harness's own float
# series stays an accurate reference (and the fraction is not near a pole)
CF_CONDITION = 1e-3


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a CLI argv or a batch of ``opx.ratios`` calls."""

    name: str
    argv: tuple[str, ...] = ()
    api: str = ""
    calls: tuple[tuple, ...] = ()
    # most of its time goes to large tridiagonal eigensolves (the quadrature
    # oracle), so its latency is speed-scaled by an eigensolve calibration
    eigensolve_bound: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # batches every run measures even past --seconds; it also fixes the
    # op_ms.tail percentile, so the percentile does not drift with speed
    min_batches: int

    @property
    def eigensolve_calibration(self) -> bool:
        return any(op.eigensolve_bound for op in self.ops)

    @property
    def tail_percentile(self) -> float:
        """The op_ms.tail percentile: the highest with at least ten samples
        beyond it at ``min_batches`` that falls in the middle of one op's
        share of the sorted samples.

        Each op adds one sample per batch, so a percentile on the border of
        two ops' shares would jump between them as the batch count changes.
        """
        k = math.ceil(10 / self.min_batches + 0.5)  # the k-th slowest op's share
        return 100.0 * (1.0 - (k - 0.5) / len(self.ops))


def _seed_arg(rng: random.Random) -> tuple[str, str]:
    return ("--seed", str(rng.randrange(2**31)))


def _points(rng: random.Random, family: str, count: int) -> tuple[str, ...]:
    # the "=" form, because argparse reads a value such as -5e-05 as an option
    lo, hi = POINT_RANGE[family]
    return tuple(f"--points={rng.uniform(lo, hi)!r}" for _ in range(count))


def verify_suites(rng: random.Random) -> Workload:
    ops = [
        Op(
            f"verify.{suite}.{fam}",
            ("verify", "--suite", suite, *flags, *_seed_arg(rng)),
            eigensolve_bound=suite == "recovery",
        )
        for fam, flags in FAMILIES.items()
        for suite in SUITES
    ]
    # four batches put op_ms.tail (p83.33) on the third-slowest op, a
    # recovery suite, so the tail follows the quadrature oracle
    return Workload("verify-suites", tuple(ops), min_batches=4)


def recover_points(rng: random.Random) -> Workload:
    ops = []
    for fam, flags in FAMILIES.items():
        for kind in RECOVERY_KINDS:
            ops.append(
                Op(
                    f"recover.{kind}.{fam}",
                    ("recover", "--kind", kind, *flags, "--n-max", "8", *_seed_arg(rng)),
                )
            )
        ops.append(
            Op(f"kernel.{fam}", ("kernel", *flags, "--n-max", "8", *_points(rng, fam, 50)))
        )
        ops.append(
            Op(
                f"eval.{fam}",
                ("eval", *flags, "--n-max", "8", "--derivs", *_points(rng, fam, 200)),
            )
        )
    return Workload("recover-points", tuple(ops), min_batches=5)


def _terminating_hyp(upper: tuple[float, ...], lower: tuple[float, ...], z: float) -> tuple[float, float]:
    """Sum of a terminating pFq series and the sum of its terms' magnitudes."""
    term, terms, k = 1.0, [1.0], 0
    while True:
        num = math.prod(a + k for a in upper)
        if num == 0.0:
            break
        term *= num / math.prod(b + k for b in lower) * z / (k + 1)
        terms.append(term)
        k += 1
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _cf_series(api: str, args: tuple):
    """(numerator params, denominator params, lower params, variable) of the
    hypergeometric ratio a continued-fraction call computes, per its docstring."""
    if api == "gauss_cf_ratio":
        p, q, r, z, _ = args
        return (p + 1, q), (p, q), (r,), z
    if api == "kummer_cf_ratio":
        p, r, z, _ = args
        return (p + 1,), (p,), (r,), z
    if api == "laguerre_ratio_cf":
        gamma, n, x, _ = args
        return (-n + 1,), (-n,), (gamma + 2.0,), -x
    if api == "jacobi_ratio_cf":
        gamma, delta, n, x, _ = args
        b = n + gamma + delta + 1.0
        return (-n + 1, b), (-n, b), (gamma + 2.0,), (1.0 - x) / 2.0
    raise ValueError(f"no reference for {api!r}")


def cf_reference(api: str, args: tuple) -> float:
    """The ratio a continued-fraction call computes, by the terminating series.

    Independent of ``opx.ratios``: it sums the hypergeometric polynomials
    the docstrings name, term by term.
    """
    upper_num, upper_den, lower, z = _cf_series(api, args)
    return _terminating_hyp(upper_num, lower, z)[0] / _terminating_hyp(upper_den, lower, z)[0]


def _cf_condition(api: str, args: tuple) -> float:
    _, upper_den, lower, z = _cf_series(api, args)
    den, magnitude = _terminating_hyp(upper_den, lower, z)
    return abs(den) / magnitude


def _cf_draw(api: str, rng: random.Random) -> tuple:
    # terminating fractions with depth >= 2n, so every draw is exact at depth;
    # ranges follow the documented domains (jacobi needs delta > 0 and
    # x in (-1, 1]; laguerre's mixed prefactor is finite only for gamma > 0)
    n = rng.randint(1, CF_DEPTH // 2)
    if api == "gauss_cf_ratio":
        return (-float(n), rng.uniform(0.2, 4.0), rng.uniform(0.3, 4.0), rng.uniform(-0.6, 0.6), CF_DEPTH)
    if api == "kummer_cf_ratio":
        return (-float(n), rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0), CF_DEPTH)
    if api == "laguerre_ratio_cf":
        return (rng.uniform(0.05, 3.0), n, rng.uniform(0.5, 3.0), CF_DEPTH)
    return (rng.uniform(-0.5, 3.0), rng.uniform(0.1, 3.0), n, rng.uniform(-0.99, 1.0), CF_DEPTH)


def _cf_op(api: str, rng: random.Random) -> Op:
    calls = []
    while len(calls) < CF_CALLS:
        args = _cf_draw(api, rng)
        if _cf_condition(api, args) >= CF_CONDITION:
            calls.append(args)
    return Op(f"api.{api}", api=api, calls=tuple(calls))


def ratio_tables(rng: random.Random) -> Workload:
    ops = [
        Op(
            f"ratio.{fam}.k{shift}.n{size}",
            ("ratio", *FAMILIES[fam], f"--shift={shift}", "--n-max", size, *_seed_arg(rng)),
        )
        for fam, shift in RATIO_CONFIGS
        for size in RATIO_SIZES
    ]
    ops.append(Op("chain.quarter", ("chain", "--l-const", "0.25", "--n-max", "10000", *_seed_arg(rng))))
    for api in ("gauss_cf_ratio", "kummer_cf_ratio", "laguerre_ratio_cf", "jacobi_ratio_cf"):
        ops.append(_cf_op(api, rng))
    return Workload("ratio-tables", tuple(ops), min_batches=10)


BUILDERS = {
    "verify-suites": verify_suites,
    "recover-points": recover_points,
    "ratio-tables": ratio_tables,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))
