"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Every tolerance is pinned here exactly as contracted.

Criteria 1 and 2 pin the Chebyshev-1 shift-1 ratio limits in closed form.
The monic kernel polynomials of ``opx.kernels`` are

    Pk_n(k; x) = [P_{n+1}(x) - (P_{n+1}(k)/P_n(k)) P_n(x)] / (x - k),

so at x = k = 1 (a removable singularity)

    Pk_n(1; 1) = P'_{n+1}(1) - (P_{n+1}(1)/P_n(1)) P'_n(1).

For monic Chebyshev-1, P_n = 2^{1-n} T_n (n >= 1) with T_n(1) = 1 and
T'_n(1) = n^2, hence P_{n+1}(1)/P_n(1) = 1/2 and

    Pk_n(1; 1) = 2^{-n} (n+1)^2 - (1/2) 2^{1-n} n^2 = 2^{-n} (2n + 1),

which also holds for n = 0 (Pk_0 = 1).  By hand: P_1 = x, P_2 = x^2 - 1/2,
P_3 = x^3 - 3x/4 give Pk_1 = x + 1/2 and Pk_2 = x^2 + x/2 - 1/4, so
Pk_1(1) = 3/2 and Pk_2(1) = 5/4.  Therefore

    criterion 1:  r_up(n) = Pk_{n+1}(1)/Pk_n(1) = (1 + 2/(2n+1))/2
                  (5/6 at n = 1),
    criterion 2:  P_{n+1}(1)/Pk_{n+1}(1) = 2^{-n} / (2^{-n-1} (2n+3))
                  = 2/(3+2n)  (2/3 at n = 0).

An earlier table gave (1 + 4/(2n+1))/2 and 4/(3+2n) (7/6 and 4/3 at the
smallest n); exact rational arithmetic holds for none of its entries, so
those forms are superseded.  The printed lines still show the gap to them.
"""

import time

import numpy as np

import opx
from opx import ratios, suites
from oracles import product_orthogonality_check

SEED = 20240817


def _report(num: str, name: str, measured: float, tol: float, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num} ({name}): measured={measured:.3e} tol={tol:.1e}"
    if extra:
        line += f" | {extra}"
    print(line)


def test_criterion_01_chebyshev_ratio_closed_form():
    started = time.perf_counter()
    fam = opx.chebyshev1()
    ctx = opx.KernelContext(fam, 1.0, 1001)
    worst = 0.0
    for n in range(1, 51):
        r_up, _ = opx.kernel_ratio_limit(ctx, n)
        closed = 0.5 * (1.0 + 2.0 / (2.0 * n + 1.0))
        worst = max(worst, abs(r_up - closed) / abs(closed))
    r_tail, _ = opx.kernel_ratio_limit(ctx, 1000)
    tail_gap = abs(r_tail - 0.5)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and tail_gap <= 2.1e-3 and elapsed < 1.0
    superseded = max(
        abs(opx.kernel_ratio_limit(ctx, n)[0] - 0.5 * (1.0 + 4.0 / (2.0 * n + 1.0)))
        for n in range(1, 51)
    )
    _report(
        "01",
        "chebyshev ratio closed form",
        worst,
        1e-12,
        ok,
        extra=(
            f"tail |r_up(1000)-1/2|={tail_gap:.3e} (<=2.1e-3: {tail_gap <= 2.1e-3}), "
            f"runtime={elapsed:.3f}s; gap to the superseded 1/2(1+4/(2n+1)) form = {superseded:.3e}"
        ),
    )
    assert tail_gap <= 2.1e-3
    assert elapsed < 1.0
    assert worst <= 1e-12


def test_criterion_02_quasi_type_limit():
    fam = opx.chebyshev1()
    ctx = opx.KernelContext(fam, 1.0, 22)
    pk = opx.eval_table(fam, 22, [1.0])[:, 0]
    worst = 0.0
    superseded = 0.0
    for n in range(0, 21):
        value = pk[n + 1] / opx.kernel_poly(ctx, n + 1, 1.0)  # CD-sum branch at x = k
        worst = max(worst, abs(value - 2.0 / (3.0 + 2.0 * n)))
        superseded = max(superseded, abs(value - 4.0 / (3.0 + 2.0 * n)))
    ok = worst <= 1e-10
    _report(
        "02",
        "quasi-type kernel ratio limit",
        worst,
        1e-10,
        ok,
        extra=f"gap to the superseded 4/(3+2n) form = {superseded:.3e}",
    )
    assert worst <= 1e-10


def test_criterion_03_recovery_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_max = 8
    gaps = []
    for fam, shifts in (
        (opx.chebyshev1(), {"c": (2.0, 2.0), "g": (3.0, 2.0), "u": (2.0, 3.0), "s": 3.0}),
        (opx.laguerre(0.5), {"c": (-1.0, -1.0), "g": (-1.0, -2.0), "u": (-1.0, -2.0), "s": -1.0}),
    ):
        lo, hi = fam.support
        xs = rng.uniform(lo, lo + 2.0 if np.isinf(hi) else hi, 50)
        order2 = opx.recover_order2(fam, shifts["s"], 1j, -1j, np.full(n_max, 0.5), n_max)
        for rc in (
            opx.recover_christoffel(fam, *shifts["c"], np.full(n_max, 0.3), n_max),
            opx.recover_geronimus(fam, *shifts["g"], np.full(n_max, 0.4), n_max),
            opx.recover_uvarov(fam, *shifts["u"], 0.5, np.full(n_max, 0.2), n_max),
            order2,
        ):
            gaps.append(suites.recovery_identity(rc, xs, n_max))
        q = opx.recovery_table(order2, n_max, xs)
        assert (np.abs(np.imag(q)) / np.maximum(1.0, np.abs(q)) <= 1e-12).all()
    elapsed = time.perf_counter() - started
    gaps = np.concatenate(gaps)
    worst = float(np.max(gaps))
    ok = bool((gaps <= 1e-7).all()) and elapsed < 5.0
    _report("03", "recovery identities", worst, 1e-7, ok, extra=f"runtime={elapsed:.2f}s")
    assert (gaps <= 1e-7).all()
    assert elapsed < 5.0


def test_criterion_04_kernel_orthogonality():
    offs = np.array([
        suites.kernel_orthogonality(opx.KernelContext(fam, k, 12), 10)
        for fam, ks in ((opx.chebyshev1(), (-2.0, 3.0)), (opx.laguerre(0.5), (-1.0,)))
        for k in ks
    ])
    worst = float(np.max(offs))
    ok = bool((offs <= 1e-9).all())
    _report("04", "kernel orthogonality", worst, 1e-9, ok)
    assert ok


def test_criterion_05_product_measure_double_integral():
    fam = opx.chebyshev1()
    worst_off = 0.0
    for n, m in ((2, 0), (1, 2), (3, 1)):
        worst_off = max(worst_off, abs(product_orthogonality_check(fam, n, m, 40)))
    # the n = m = 0 case pins the normalization empirically: the diagonal is
    # twice the squared orthonormal-side coefficient, 2 lambda_{n+2} monic
    base = product_orthogonality_check(fam, 0, 0, 40)
    pin_gap = abs(base - 2.0 * fam.coefficient(2)[1]) / (2.0 * fam.coefficient(2)[1])
    worst_diag = pin_gap
    for n in range(0, 5):
        expect = 2.0 * fam.coefficient(n + 2)[1]
        got = product_orthogonality_check(fam, n, n, 40)
        worst_diag = max(worst_diag, abs(got - expect) / expect)
    ok = worst_off <= 1e-9 and worst_diag <= 1e-8
    _report(
        "05",
        "product-measure double integral",
        max(worst_off, worst_diag),
        1e-8,
        ok,
        extra=f"off-diagonal={worst_off:.3e} (tol 1e-9), diagonal rel={worst_diag:.3e}",
    )
    assert worst_off <= 1e-9
    assert worst_diag <= 1e-8


def test_criterion_06_confluent_cd_identity():
    rng = np.random.default_rng(SEED)
    gaps = []
    for fam in (opx.chebyshev1(), opx.laguerre(0.5), opx.jacobi(0.3, 0.7)):
        # every degree 0..10 at the same 20 points
        xs = suites.sample_points(fam, rng, 20)
        gaps.append(suites.confluent_cd_identity(fam, np.broadcast_to(xs, (11, 20))))
    worst = float(np.max(gaps))
    ok = bool((np.array(gaps) <= 1e-10).all())
    _report("06", "confluent CD identity", worst, 1e-10, ok)
    assert ok


def test_criterion_07_cf_vs_series():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    # 100 terminating Gauss and Kummer draws whose series certify the gate
    # (no series form can near its own zero), then 25 non-terminating
    # Gauss draws
    gaps = np.concatenate([
        suites.gauss_cf_vs_series(rng, 100, 60),
        suites.kummer_cf_vs_series(rng, 100, 60),
        suites.gauss_cf_vs_series_nonterminating(rng, 25, 60),
    ])
    assert (gaps <= 1e-10).all()
    worst = float(np.max(gaps))
    for _ in range(25):
        p = float(rng.uniform(0.1, 2.5))
        r = float(rng.uniform(0.3, 4.0))
        z = float(rng.uniform(-0.5, 0.5))
        cf = ratios.kummer_cf_ratio(p, r, z, depth=60)
        series = ratios.hyp_series("1F1", (p + 1, r), z, 400) / ratios.hyp_series(
            "1F1", (p, r), z, 400
        )
        worst = max(worst, abs(cf - series) / max(1.0, abs(series)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 2.0
    _report("07", "continued fractions vs series", worst, 1e-10, ok, extra=f"runtime={elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 2.0


def test_criterion_08_difference_equation():
    # b = 0.3, -0.3, 1.5, -1.5 and n = 1..10, each at 5 points
    ctx = opx.KernelContext(opx.chebyshev1(), 2.0, 14)
    stated, proof = suites.difference_equation(ctx, np.random.default_rng(SEED), 13)
    proof_worst, stated_worst = float(np.max(proof)), float(np.max(stated))
    ok = bool((proof <= 1e-9).all())
    _report(
        "08",
        "difference equation",
        proof_worst,
        1e-9,
        ok,
        extra=f"stated-form residual recorded: {stated_worst:.3e} (no pass/fail)",
    )
    assert ok


def test_criterion_09_chain_sequence():
    seq, gaps = suites.quarter_chain()
    worst = float(np.max(gaps))
    ok = bool((gaps <= 1e-14).all()) and seq.positive
    _report("09", "chain sequence minimal parameters", worst, 1e-14, ok,
            extra=f"positive={seq.positive}")
    assert ok


def test_criterion_10_geronimus_christoffel_inverse():
    fam = opx.chebyshev1()
    tilde = opx.geronimus_family(opx.geronimus_data(fam, 3.0, 16), 15)
    ctx = opx.KernelContext(tilde, 3.0, 10)
    back = opx.kernel_recurrence(ctx, 10)
    orig = fam.table(10)
    worst = float(np.max(np.abs(back - orig)))
    ok = worst <= 1e-8
    _report("10", "Geronimus/Christoffel inverse relation", worst, 1e-8, ok)
    assert worst <= 1e-8
