"""Command-line front end: evaluations, verification suites, and tables.

Commands
--------
eval     evaluate P_0..P_n at points (CSV or JSON)
kernel   kernel recurrence coefficients and optional point values (JSON)
recover  run one recovery construction and report its identity residual
ratio    kernel-ratio limits against their closed form (CSV or JSON)
verify   named check suites with pass/fail cases (JSON)
chain    chain-sequence minimal parameters (CSV or JSON)

JSON reports share one schema (schemas/report.schema.json): top level
{command, config_echo, cases, overall, runtime_ms} plus optional rows.
Numbers are rendered with 17 significant digits, which round-trips 64-bit
floats exactly; given identical configuration (including --seed, or the
OPX_SEED environment variable when the flag is absent) the bytes are
identical apart from runtime_ms.  Exit codes: 0 all checks pass, 1 some
check failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import families, kernels, moments, quasi, ratios, transforms
from .errors import OpxError, TableTooShort

__all__ = ["main", "run", "RunConfig", "render_json"]

SUITES = ("kernels", "quasi", "recovery", "ratios", "chains", "all")


@dataclass
class RunConfig:
    """Parsed invocation, echoed verbatim into every report."""

    command: str
    family: str = "chebyshev1"
    gamma: float | None = None
    delta: float | None = None
    coeffs_file: str | None = None
    support: tuple[float, float] | None = None
    shifts: list[float] = field(default_factory=list)
    mass0: float | None = None
    r0: float | None = None
    n_max: int = 8
    tol: float = 1e-8
    depth: int = 60
    seed: int = 0
    output: str = "json"
    suite: str = "all"
    kind: str = "christoffel"
    points: list[float] = field(default_factory=list)
    derivs: bool = False
    l_values: list[float] = field(default_factory=list)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization: 17 significant digits, deterministic key order
# ---------------------------------------------------------------------------


def _fmt_number(x) -> str:
    if type(x) is not float:
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        x = float(x)
    # NaN and infinities are not representable as JSON numbers
    return format(x, ".17g") if math.isfinite(x) else "null"


def _render_scalar(obj) -> str:
    if obj is None:
        return "null"
    if type(obj) is float or isinstance(obj, (bool, int, np.integer, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


_CONTAINERS = (dict, list, tuple, np.ndarray)


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {_render_scalar(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, _CONTAINERS):
        seq = list(obj)
        if not seq:
            return "[]"
        # scalar entries are rendered in place, without a call per entry
        entries = [
            render_json(v, indent + 1) if isinstance(v, _CONTAINERS) else _render_scalar(v) for v in seq
        ]
        return "[\n" + pad + "  " + f",\n{pad}  ".join(entries) + "\n" + pad + "]"
    return _render_scalar(obj)


def _render_rows(header: list[str], columns) -> str:
    """``render_json`` at indent 1 of the dicts ``zip(header, row)`` over the
    rows of ``columns``, one array or list per key of a non-empty header.

    All rows share one ``%`` template with the keys rendered once.  An int
    array, or a float array whose values are all finite, fills a ``%d`` or
    ``%.17g`` slot directly (``"%.17g" % x == format(x, ".17g")``); any other
    column is rendered cell by cell.
    """
    if not len(columns[0]):
        return "[]"
    slots, cells = [], []
    for column in columns:
        typed = isinstance(column, np.ndarray)
        kind, values = (column.dtype.kind, column.tolist()) if typed else ("O", column)
        if kind in "iu":
            slot = "%d"
        elif kind == "f" and np.isfinite(column).all():
            slot = "%.17g"
        else:
            slot, values = "%s", [_render_scalar(v) for v in values]
        slots.append(slot)
        cells.append(values)
    keys = [_render_scalar(str(k)).replace("%", "%%") for k in header]
    template = "    {\n" + ",\n".join(f"      {k}: {slot}" for k, slot in zip(keys, slots)) + "\n    }"
    return "[\n" + ",\n".join([template % row for row in zip(*cells)]) + "\n  ]"


def _render_csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format(v, ".17g") if isinstance(v, float) else ("" if v is None else v) for v in row]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config -> family
# ---------------------------------------------------------------------------


def _load_custom_coeffs(path: str):
    try:
        with open(path, newline="") as fh:
            lines = list(_csv.reader(fh))
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    if not lines or [f.strip() for f in lines[0]] != ["n", "c_n", "lambda_n"]:
        raise UsageError(f"{path}: expected header 'n,c_n,lambda_n'")
    rows = {}
    for line_no, fields in enumerate(lines[1:], start=2):
        if not fields:
            continue  # blank line
        try:
            n, c, lam = fields
            pair = (float(c), float(lam))
            if not all(map(math.isfinite, pair)):
                raise ValueError("non-finite coefficient")
            n = int(n)
        except ValueError as exc:
            got = ",".join(fields)
            raise UsageError(
                f"{path}, line {line_no}: expected an integer n and two finite numbers, got {got!r}"
            ) from exc
        if n in rows:
            raise UsageError(f"{path}, line {line_no}: n = {n} is listed twice")
        rows[n] = pair
    missing = next(n for n in range(1, len(rows) + 2) if n not in rows)
    if not rows or missing <= len(rows):
        raise UsageError(f"{path}: must list n = 1..N, each once; n = {missing} is missing")
    return [rows[n] for n in range(1, len(rows) + 1)]


def build_family(cfg: RunConfig) -> families.FamilySpec:
    if cfg.family == "chebyshev1":
        return families.chebyshev1()
    if cfg.family == "laguerre":
        return families.laguerre(cfg.gamma if cfg.gamma is not None else 0.0)
    if cfg.family == "jacobi":
        return families.jacobi(
            cfg.gamma if cfg.gamma is not None else 0.0,
            cfg.delta if cfg.delta is not None else 0.0,
        )
    if cfg.family == "custom":
        if cfg.coeffs_file is None or cfg.support is None:
            raise UsageError("custom family needs --coeffs FILE and --support a,b")
        return families.custom_family(_load_custom_coeffs(cfg.coeffs_file), cfg.support)
    raise UsageError(f"unknown family {cfg.family!r}")


def _default_shifts(cfg: RunConfig) -> list[float]:
    if cfg.shifts:
        return cfg.shifts
    return {"chebyshev1": [-2.0, 3.0], "jacobi": [-2.0, 3.0], "laguerre": [-1.0]}.get(
        cfg.family, [-2.0]
    )


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "command": cfg.command,
        "family": cfg.family,
        "n_max": cfg.n_max,
        "tol": cfg.tol,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "output": cfg.output,
    }
    if cfg.gamma is not None:
        echo["gamma"] = cfg.gamma
    if cfg.delta is not None:
        echo["delta"] = cfg.delta
    if cfg.shifts:
        echo["shifts"] = cfg.shifts
    if cfg.mass0 is not None:
        echo["mass0"] = cfg.mass0
    if cfg.r0 is not None:
        echo["r0"] = cfg.r0
    if cfg.points:
        echo["points"] = cfg.points
    if cfg.command == "verify":
        echo["suite"] = cfg.suite
    if cfg.command == "recover":
        echo["kind"] = cfg.kind
    if cfg.command == "chain":
        echo["l"] = cfg.l_values
    if cfg.coeffs_file:
        echo["coeffs"] = cfg.coeffs_file
        echo["support"] = list(cfg.support)
    return echo


def _case(name: str, residual: float, tol: float | None) -> dict:
    return {
        "name": name,
        "max_residual": float(residual),
        "tolerance": tol,
        "pass": (None if tol is None else bool(residual <= tol)),
    }


def _finish(cfg: RunConfig, cases: list[dict], columns=None, header=None, started=None) -> tuple[str, int]:
    """The report (or CSV table) of a command; ``columns`` holds one array or
    list of row values per key of ``header``."""
    cases = sorted(cases, key=lambda c: c["name"])
    overall = all(c["pass"] for c in cases if c["pass"] is not None)
    runtime_ms = int((time.time() - started) * 1000) if started else 0
    if cfg.output == "csv":
        if header is None:
            raise UsageError(f"--output csv is not available for '{cfg.command}'")
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns or []]
        return _render_csv(header, zip(*values)), 0 if overall else 1
    report = {
        "command": cfg.command,
        "config_echo": _config_echo(cfg),
        "cases": cases,
        "overall": overall,
        "runtime_ms": runtime_ms,
    }
    text = render_json(report)
    if columns is not None and header is not None:
        # "rows" is the report's last key: reopen the closing brace for it
        text = text[:-2] + ',\n  "rows": ' + _render_rows(header, columns) + "\n}"
    return text + "\n", 0 if overall else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_eval(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    xs = np.array(cfg.points or [0.0])
    header = ["n", "x", "value"] + (["deriv"] if cfg.derivs else [])
    values = families.eval_table(fam, cfg.n_max, xs)
    # point-major: the rows of one point are n = 0..n_max
    columns = [
        np.tile(np.arange(cfg.n_max + 1), xs.size),
        np.repeat(xs, cfg.n_max + 1),
        np.real(values).T.ravel(),
    ]
    if cfg.derivs:
        derivs = families.eval_derivs(fam, cfg.n_max, xs, values)
        columns.append(np.real(derivs).T.ravel())
    return _finish(cfg, [], columns=columns, header=header, started=started)


def _cmd_kernel(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    k = _default_shifts(cfg)[0]
    ctx = kernels.KernelContext(fam, k, cfg.n_max + 1)
    pairs = kernels.kernel_recurrence(ctx, cfg.n_max)
    header = ["n", "c_star", "lambda_star"]
    columns = [np.arange(1, cfg.n_max + 1), *np.real(pairs).T]
    cases = []
    if cfg.points:
        xs = np.array(cfg.points)
        dd = np.array([kernels.kernel_poly(ctx, n, xs) for n in range(cfg.n_max + 1)])
        # recurrence evaluation from the starred coefficients
        ks = families.eval_table(kernels.kernel_family(ctx, cfg.n_max), cfg.n_max, xs)
        cases.append(_case("kernel_ttrr_consistency", _worst(dd - ks, dd), cfg.tol))
    header = None if cfg.output == "csv" else header
    return _finish(cfg, cases, columns=columns, header=header, started=started)


def _cmd_chain(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    if not cfg.l_values:
        raise UsageError("chain needs --l v1,v2,... or --l-const VALUE --n-max N")
    seq = ratios.chain_params(cfg.l_values, cfg.n_max)
    header = ["n", "l_n", "m_n", "complementary_k_n", "complementary_m_n"]
    comp = seq.complementary
    columns = [np.arange(1, seq.l.size + 1), seq.l, seq.m[1:], comp.l, comp.m[1:]]
    # positivity verdicts are data, not checks: recorded with null tolerance
    cases = [
        _case("chain_positive", 0.0 if seq.positive else 1.0, None),
        _case("complementary_positive", 0.0 if seq.complementary.positive else 1.0, None),
    ]
    return _finish(cfg, cases, columns=columns, header=header, started=started)


def _cmd_ratio(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    k = cfg.shifts[0] if cfg.shifts else 1.0
    ctx = kernels.KernelContext(fam, k, cfg.n_max + 2)
    header = ["n", "r_up", "closed_form", "abs_diff"]
    r_up, r_down = (r[1:] for r in ratios.kernel_ratio_limits(ctx, cfg.n_max))
    # fmax skips NaN rows, as a running max(worst, nan) does
    recip_worst = np.fmax.reduce(np.abs(r_up * r_down - 1.0), initial=0.0)
    cases = [_case("reciprocal_identity", recip_worst, 1e-12)]
    ns = np.arange(1, cfg.n_max + 1)
    closed = gaps = [None] * cfg.n_max
    if cfg.family == "chebyshev1" and k == 1.0:
        closed = 0.5 * (1.0 + 2.0 / (2.0 * ns + 1.0))
        gaps = np.abs(r_up - closed)
        cases.append(_case("tabulated_closed_form_gap", max(gaps.tolist()), None))
    return _finish(cfg, cases, columns=[ns, r_up, closed, gaps], header=header, started=started)


def _cmd_recover(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    xs = _sample_points(fam, rng, 50)
    return _finish(cfg, [_recovery_case(cfg.kind, fam, cfg, xs, cfg.n_max)[0]], started=started)


def _sample_points(fam: families.FamilySpec, rng: np.random.Generator, count: int) -> np.ndarray:
    a, b = fam.support
    if np.isinf(b):
        return rng.uniform(a, a + 10.0, count)
    return rng.uniform(a, b, count)


def _fold_max(worst: float, values: np.ndarray) -> float:
    """``worst = max(worst, v)`` over ``values`` in order, the fold of a loop
    over draws (Python's max keeps the running value past a NaN)."""
    return max([worst, *values.tolist()])


def _cf_gap(cf: np.ndarray, series: np.ndarray) -> float:
    """Largest |cf - series| / max(1, |series|), folded in draw order."""
    return _fold_max(0.0, np.abs(cf - series) / np.fmax(1.0, np.abs(series)))


def _guarded_draws(draw, den, count: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``count`` draws whose denominator series clears the conditioning
    guard |den| >= 1e-3, as columns, and those denominators.

    ``draw()`` makes one candidate from scalar rng calls.  Each round draws
    exactly as many candidates as are still missing and evaluates their
    denominators ``den(*columns)`` in one batch, so the candidates, and the
    rng stream, are those of a loop that draws one at a time and stops at
    the count-th kept draw.  Near a zero of the denominator the series
    cannot certify 1e-10 itself.
    """
    kept, dens = [], []
    while len(kept) < count:
        batch = [draw() for _ in range(count - len(kept))]
        d = den(*_columns(batch))
        keep = ~(np.abs(d) < 1e-3)  # a NaN passes: abs(NaN) < 1e-3 is false
        kept += [row for row, k in zip(batch, keep.tolist()) if k]
        dens.append(d[keep])
    return _columns(kept), np.concatenate(dens)


def _columns(rows: list[tuple]) -> list[np.ndarray]:
    """The columns of a list of equal-length tuples, as arrays."""
    return list(map(np.array, zip(*rows)))


def _worst(diffs, scales) -> float:
    """Largest |diff| / max(1, |scale|) over all entries (NaN propagates)."""
    return float(np.max(np.abs(diffs) / np.maximum(1.0, np.abs(scales)), initial=0.0))


def _recovery_case(kind: str, fam, cfg: RunConfig, xs: np.ndarray, n_max: int):
    """Largest gap between the rebuilt Q_n and P_n over degrees 1..n_max and
    the points ``xs``, as a case, and the recovery's coefficients; each
    construction is evaluated once per degree on the whole point vector."""
    shifts = _default_shifts(cfg)
    k1 = shifts[0]
    k2 = shifts[1] if len(shifts) > 1 else k1
    r0 = cfg.r0 if cfg.r0 is not None else 0.5
    b_coeffs = np.full(n_max + 1, 0.3)
    if kind == "christoffel":
        rc = transforms.recover_christoffel(fam, k1, k2, b_coeffs, n_max)
        rebuilt = transforms.christoffel_recovery_poly
    elif kind == "geronimus":
        rc = transforms.recover_geronimus(fam, k1, k2, b_coeffs, n_max)
        rebuilt = transforms.geronimus_recovery_poly
    elif kind == "uvarov":
        rc = transforms.recover_uvarov(fam, k1, k2, r0, b_coeffs, n_max)
        rebuilt = transforms.uvarov_recovery_poly
    elif kind == "order2":
        # the contexts recover_order2 builds, built once here to solve the
        # constraint for Ltilde and then handed to the recovery
        ictx = kernels.IteratedKernelContext(kernels.KernelContext(fam, 1j, n_max + 2), -1j)
        ctx1 = kernels.KernelContext(fam, k1, n_max + 2)
        rhs = transforms._order2_rhs(ctx1.pk, ictx, n_max)
        mt = np.full(n_max, 0.5, dtype=complex)
        pk1 = ctx1.pk[: n_max + 1]
        lam = fam.table(n_max + 1)[1:, 1]  # lambda_{n+1} at [n-1]
        lt = rhs[1:] - mt * pk1[1:] / (lam * pk1[:-1])
        rc = transforms._recover_order2(ctx1, ictx, lt, mt, n_max)
        rebuilt = transforms.order2_recovery_poly
    else:
        raise UsageError(f"unknown recovery kind {kind!r}")
    p = families.eval_table(fam, n_max, xs)[1:]
    q = np.array([rebuilt(rc, n, xs) for n in range(1, n_max + 1)])
    return _case(f"recovery_identity_{kind}", _worst(q - p, p), cfg.tol), rc


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_kernels(fam, cfg: RunConfig, rng) -> list[dict]:
    cases = []
    n_max = min(cfg.n_max, 10)
    for k in _default_shifts(cfg):
        ctx = kernels.KernelContext(fam, k, n_max + 2)
        polys = [lambda xs, n=n, c=ctx: kernels.kernel_poly(c, n, xs) for n in range(n_max + 1)]
        gram = moments.orthogonality_residual(fam, moments.Christoffel(k), polys, n_max)
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        cases.append(_case(f"kernel_orthogonality_k{k:g}", off, 1e-9))
        # branch agreement on the annulus around k
        radii = 10.0 ** rng.uniform(-4, -1, 10) * (1.0 + abs(k))
        worst = 0.0
        for n in range(1, min(n_max, 12) + 1):
            for r in radii:
                a = kernels.kernel_poly(ctx, n, k + r)
                table = families.eval_table(fam, n, [k + r])[:, 0]
                ksum = float(np.sum(table * ctx.pk[: n + 1] / ctx.norms[: n + 1]))
                b = ctx.norms[n] / ctx.pk[n] * ksum
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        cases.append(_case(f"kernel_branch_agreement_k{k:g}", worst, 1e-9))
        pairs = kernels.kernel_recurrence(ctx, n_max)
        xs = _sample_points(fam, rng, 20)
        pk = np.array([kernels.kernel_poly(ctx, n, xs) for n in range(n_max)])
        # x Pk_n = Pk_{n+1} + c*_{n+1} Pk_n + lambda*_{n+1} Pk_{n-1}, n = 1..n_max-2
        x_pk = xs * pk[1:-1]
        res = x_pk - pk[2:] - pairs[1:-1, :1] * pk[1:-1] - pairs[1:-1, 1:] * pk[:-2]
        cases.append(_case(f"kernel_ttrr_k{k:g}", _worst(res, x_pk), 1e-10))
        xs = _sample_points(fam, rng, 20)
        # P_{n+1} rebuilt from Pk_{n+1} and Pk_n, n = 0..n_max-2
        direct = families.eval_table(fam, n_max - 1, xs)[1:]
        rebuilt = np.array([kernels.op_from_kernels(ctx, n, xs) for n in range(n_max - 1)])
        rebuilt = rebuilt.reshape(direct.shape)  # (0, 20) when n_max = 1
        cases.append(_case(f"op_from_kernels_k{k:g}", _worst(rebuilt - direct, direct), 1e-10))
    return cases


def _suite_quasi(fam, cfg: RunConfig, rng) -> list[dict]:
    cases = []
    k = _default_shifts(cfg)[0]
    n_max = min(cfg.n_max, 10)
    ctx = kernels.KernelContext(fam, k, n_max + 3)
    functional = moments.Christoffel(k)

    def annihilation_worst(spec: quasi.QuasiSpec, n: int, m_top: int, degree: int) -> float:
        # dimensionless statistic |L*(x^m Q)| / (||x^m|| ||Q||): Laguerre
        # norms grow factorially, so raw residuals are meaningless there
        q_norm = np.sqrt(
            abs(
                moments.apply_functional(
                    fam,
                    functional,
                    lambda xs: quasi.quasi_kernel(ctx, spec, n, xs) ** 2,
                    2 * degree,
                )
            )
        )
        worst = 0.0
        for m in range(0, m_top + 1):
            val = moments.apply_functional(
                fam,
                functional,
                lambda xs, m=m: xs**m * quasi.quasi_kernel(ctx, spec, n, xs),
                degree + m,
            )
            m_norm = np.sqrt(
                abs(moments.apply_functional(fam, functional, lambda xs, m=m: xs ** (2 * m), 2 * m))
            )
            worst = max(worst, abs(val) / (m_norm * q_norm))
        return worst

    spec1 = quasi.QuasiSpec(order=1, a=1.0, b=0.7)
    worst = 0.0
    for n in range(2, n_max + 1):
        worst = max(worst, annihilation_worst(spec1, n, n - 1, n + 1))
    cases.append(_case("order1_moment_annihilation", worst, 1e-9))
    spec2 = quasi.QuasiSpec(order=2, Ltilde=0.3, Mtilde=0.9)
    worst = 0.0
    for n in range(3, n_max + 1):
        worst = max(worst, annihilation_worst(spec2, n, n - 3, n))
    cases.append(_case("order2_moment_annihilation", worst, 1e-9))
    stated_worst = 0.0
    proof_worst = 0.0
    for b in (0.3, -0.3, 1.5, -1.5):
        for n in range(1, n_max - 2):
            xs = _sample_points(fam, rng, 5)
            stated, proof = quasi.difference_equation_residual(ctx, b, n, xs)
            stated_worst = _fold_max(stated_worst, stated)
            proof_worst = _fold_max(proof_worst, proof)
    cases.append(_case("difference_equation_proof_form", proof_worst, 1e-9))
    cases.append(_case("difference_equation_stated_form", stated_worst, None))
    # orthogonality criteria checker on an engineered coefficient family
    # built so the increment condition holds with alpha_1 = 0.7
    a1, step = 0.7, 0.35
    cs = np.array([0.2 + step * n for n in range(cfg.n_max + 4)])
    ls = np.zeros(cfg.n_max + 4)
    ls[0] = 1.0
    ls[1] = 0.9
    for n in range(2, cfg.n_max + 4):
        ls[n] = ls[n - 1] + a1 * (cs[n] - cs[n - 1])
    report = quasi.orthogonality_conditions(cs, ls, [a1], min(cfg.n_max, 8))
    residual = report.gram_residual if report.satisfied else 1.0
    cases.append(_case("qk_orthogonality_engineered", residual, cfg.tol))
    return cases


def _suite_recovery(fam, cfg: RunConfig, rng) -> list[dict]:
    xs = _sample_points(fam, rng, 50)
    recoveries = {
        kind: _recovery_case(kind, fam, cfg, xs, min(cfg.n_max, 8))
        for kind in ("christoffel", "geronimus", "uvarov", "order2")
    }
    cases = [case for case, _ in recoveries.values()]
    # transformed-sequence orthogonality under the respective functionals,
    # each on its recovery's record.  The Geronimus record's mass -s_0 is
    # checked against the oracle's -L(1/(k - x)), and the Gram matrix runs on
    # the oracle's value: entry (i, j) moves by Pt_i(k) Pt_j(k) times any gap
    # between the two, so a few ulps give 1e-9 at (5, 6) for Legendre at
    # k = -2.  --mass0 overrides the solved mass, so it should fail
    n_max = min(cfg.n_max, 6)
    gdata = recoveries["geronimus"][1].data
    solved = -moments.cauchy_mass(fam, gdata.k)
    cases.append(_case("geronimus_solved_mass", abs(gdata.mass0 - solved) / abs(solved), 1e-12))
    mass0 = solved if cfg.mass0 is None else cfg.mass0
    gpolys = [lambda xs_, n=n: transforms.geronimus_poly(gdata, n, xs_) for n in range(n_max + 1)]
    gram = moments.orthogonality_residual(fam, moments.Geronimus(gdata.k, mass0), gpolys, n_max)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    cases.append(_case("geronimus_transform_orthogonality", off, 1e-9))
    udata = recoveries["uvarov"][1].data
    upolys = [lambda xs_, n=n: transforms.uvarov_poly(udata, n, xs_) for n in range(n_max + 1)]
    gram = moments.orthogonality_residual(fam, moments.Uvarov(udata.ctx.k, udata.r0), upolys, n_max)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    cases.append(_case("uvarov_transform_orthogonality", off, 1e-9))
    return cases


def _suite_ratios(fam, cfg: RunConfig, rng) -> list[dict]:
    cases = []
    n_max = min(cfg.n_max, 10)
    worst = 0.0
    for n in range(0, n_max + 1):
        lhs, rhs = ratios.confluent_cd(fam, n, _sample_points(fam, rng, 20))
        worst = _fold_max(worst, np.abs(lhs - rhs) / np.abs(lhs))
    cases.append(_case("confluent_cd_identity", worst, 1e-10))
    k = _default_shifts(cfg)[0]
    ctx = kernels.KernelContext(fam, k, n_max + 2)
    r_ups, r_downs = ratios.kernel_ratio_limits(ctx, n_max)
    worst = np.fmax.reduce(np.abs(r_ups * r_downs - 1.0), initial=0.0)
    cases.append(_case("ratio_reciprocal_identity", worst, 1e-12))
    worst = 0.0
    for n, r_up in enumerate(r_ups[:-1].tolist()):
        direct = kernels.kernel_poly(ctx, n + 1, ctx.k) / kernels.kernel_poly(ctx, n, ctx.k)
        worst = max(worst, abs(r_up - direct) / max(1.0, abs(direct)))
    cases.append(_case("ratio_limit_vs_cd_branch", worst, 1e-9))

    def gauss_draw():
        n, q = int(rng.integers(1, 12)), float(rng.uniform(0.2, 4.0))
        return n, q, float(rng.uniform(0.3, 4.0)), float(rng.uniform(-0.6, 0.6))

    def kummer_draw():
        n = int(rng.integers(1, 12))
        return n, float(rng.uniform(0.3, 4.0)), float(rng.uniform(-2.0, 2.0))

    def gauss_nonterminating_draw():
        p, q = float(rng.uniform(0.1, 2.5)), float(rng.uniform(0.2, 3.0))
        return p, q, float(rng.uniform(0.3, 4.0)), float(rng.uniform(-0.5, 0.5))

    (n, q, r, z), den = _guarded_draws(
        gauss_draw, lambda n, q, r, z: ratios.hyp_series("2F1", (-n, q, r), z), 200
    )
    cf = ratios.gauss_cf_ratio(-n, q, r, z, cfg.depth)
    series = ratios.hyp_series("2F1", (-n + 1, q, r), z) / den
    cases.append(_case("gauss_cf_vs_series", _cf_gap(cf, series), 1e-10))
    (n, r, z), den = _guarded_draws(
        kummer_draw, lambda n, r, z: ratios.hyp_series("1F1", (-n, r), z), 200
    )
    cf = ratios.kummer_cf_ratio(-n, r, z, cfg.depth)
    series = ratios.hyp_series("1F1", (-n + 1, r), z) / den
    cases.append(_case("kummer_cf_vs_series", _cf_gap(cf, series), 1e-10))
    p, q, r, z = _columns([gauss_nonterminating_draw() for _ in range(50)])
    cf = ratios.gauss_cf_ratio(p, q, r, z, cfg.depth)
    series = ratios.hyp_series("2F1", (p + 1, q, r), z, 400) / ratios.hyp_series(
        "2F1", (p, q, r), z, 400
    )
    cases.append(_case("gauss_cf_vs_series_nonterminating", _cf_gap(cf, series), 1e-10))
    if fam.kind == "chebyshev1":
        ctx1 = kernels.KernelContext(fam, 1.0, n_max + 2)
        r_ups = ratios.kernel_ratio_limits(ctx1, n_max)[0].tolist()
        gap = 0.0
        for n in range(1, n_max + 1):
            gap = max(gap, abs(r_ups[n] - 0.5 * (1.0 + 2.0 / (2.0 * n + 1.0))))
        cases.append(_case("chebyshev_tabulated_closed_form_gap", gap, None))
    if fam.kind == "laguerre":
        gamma = dict(fam.params)["gamma"]
        ctx0 = kernels.KernelContext(fam, 0.0, n_max + 2)
        gap = 0.0
        for n in range(1, min(n_max, 6) + 1):
            x = float(rng.uniform(0.5, 3.0))
            cf, same, _ = ratios.laguerre_ratio_cf(gamma, n, x, cfg.depth)
            direct = kernels.kernel_poly(ctx0, n - 1, x) / kernels.kernel_poly(ctx0, n, x)
            gap = max(gap, abs(direct / (same * cf) - 1.0))
        cases.append(_case("laguerre_prefactor_discrepancy", gap, None))
    if fam.kind == "jacobi":
        gamma = dict(fam.params)["gamma"]
        delta = dict(fam.params)["delta"]
        if delta > 0:
            upper = kernels.KernelContext(families.jacobi(gamma, delta), 1.0, n_max + 2)
            lower = kernels.KernelContext(families.jacobi(gamma, delta - 1.0), 1.0, n_max + 2)
            gap = 0.0
            for n in range(1, min(n_max, 6) + 1):
                x = float(rng.uniform(-0.5, 0.9))
                cf, pref = ratios.jacobi_ratio_cf(gamma, delta, n, x, cfg.depth)
                direct = kernels.kernel_poly(upper, n - 1, x) / kernels.kernel_poly(lower, n, x)
                gap = max(gap, abs(direct / (pref * cf) - 1.0))
            cases.append(_case("jacobi_prefactor_discrepancy", gap, None))
    return cases


def _suite_chains(fam, cfg: RunConfig, rng) -> list[dict]:
    cases = []
    seq = ratios.chain_params(lambda n: 0.25, 100)
    closed = np.array([n / (2.0 * (n + 1.0)) for n in range(101)])
    worst = float(np.max(np.abs(seq.m - closed)))
    cases.append(_case("quarter_chain_minimal_params", worst, 1e-14))
    cases.append(_case("quarter_chain_positive", 0.0 if seq.positive else 1.0, 0.5))
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.1, 2.0))
        q = p + float(rng.uniform(0.0, 1.0))
        r = q + float(rng.uniform(0.1, 1.0))
        g = ratios._gauss_g(p, q, r, 50)
        l = (1.0 - g[:-1]) * g[1:]
        seq = ratios.chain_params(l)
        worst = max(worst, 0.0 if seq.positive else 1.0)
    cases.append(_case("g_sequence_chain_positive", worst, 0.5))
    return cases


def _cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    suites = {
        "kernels": _suite_kernels,
        "quasi": _suite_quasi,
        "recovery": _suite_recovery,
        "ratios": _suite_ratios,
        "chains": _suite_chains,
    }
    names = list(suites) if cfg.suite == "all" else [cfg.suite]
    cases = [case for name in names for case in suites[name](fam, cfg, rng)]
    return _finish(cfg, cases, started=started)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["chebyshev1", "laguerre", "jacobi", "custom"], default="chebyshev1")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--coeffs", dest="coeffs_file", default=None, metavar="FILE")
    p.add_argument("--support", type=str, default=None, metavar="A,B")
    p.add_argument("--shift", dest="shifts", type=float, action="append", default=[])
    p.add_argument("--mass0", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--depth", type=int, default=60)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", choices=["json", "csv"], default="json")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, never at import.

    Reuse is safe: ``parse_args`` makes a fresh namespace per call, and the
    ``append`` actions copy their ``[]`` defaults before appending."""
    parser = argparse.ArgumentParser(prog="opx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the monic sequence at points")
    _add_common(p_eval)
    p_eval.add_argument("--points", type=float, action="append", default=[])
    p_eval.add_argument("--derivs", action="store_true")

    p_kernel = sub.add_parser("kernel", help="kernel recurrence coefficients")
    _add_common(p_kernel)
    p_kernel.add_argument("--points", type=float, action="append", default=[])

    p_recover = sub.add_parser("recover", help="run one recovery construction")
    _add_common(p_recover)
    p_recover.add_argument(
        "--kind", choices=["christoffel", "geronimus", "uvarov", "order2"], default="christoffel"
    )

    p_ratio = sub.add_parser("ratio", help="kernel ratio limits")
    _add_common(p_ratio)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=list(SUITES), default="all")

    p_chain = sub.add_parser("chain", help="chain sequence minimal parameters")
    _add_common(p_chain)
    p_chain.add_argument("--l", dest="l_list", type=str, default=None, metavar="V1,V2,...")
    p_chain.add_argument("--l-const", dest="l_const", type=float, default=None)
    return parser


def _parse(argv: list[str]) -> RunConfig:
    ns = _parser().parse_args(argv)
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("OPX_SEED", "0"))
    support = None
    if ns.support:
        try:
            a, b = (float(v) for v in ns.support.split(","))
        except ValueError as exc:
            raise UsageError(f"--support expects 'a,b', got {ns.support!r}") from exc
        if not (math.isfinite(a) and a < b and (math.isfinite(b) or b == math.inf)):
            raise UsageError(f"--support needs finite a < b, b finite or inf, got {ns.support!r}")
        support = (a, b)
    if ns.family != "custom" and (ns.coeffs_file is not None or support is not None):
        raise UsageError(f"--coeffs and --support need --family custom, got --family {ns.family}")
    cfg = RunConfig(
        command=ns.command,
        family=ns.family,
        gamma=ns.gamma,
        delta=ns.delta,
        coeffs_file=ns.coeffs_file,
        support=support,
        shifts=list(ns.shifts),
        mass0=ns.mass0,
        r0=ns.r0,
        n_max=8 if ns.n_max is None else ns.n_max,
        tol=ns.tol,
        depth=ns.depth,
        seed=seed,
        output=ns.output,
    )
    if ns.command == "eval":
        cfg.points = list(ns.points)
        cfg.derivs = bool(ns.derivs)
    if ns.command == "kernel":
        cfg.points = list(ns.points)
    if ns.command == "verify":
        cfg.suite = ns.suite
    if ns.command == "recover":
        cfg.kind = ns.kind
    if ns.command == "chain":
        if ns.l_list:
            cfg.l_values = [float(v) for v in ns.l_list.split(",") if v.strip()]
            if ns.n_max is None and cfg.l_values:  # every listed value, unless --n-max cuts them
                cfg.n_max = len(cfg.l_values)
        elif ns.l_const is not None:
            cfg.l_values = [ns.l_const] * cfg.n_max
    if cfg.n_max < 0 or (cfg.n_max < 1 and ns.command not in ("eval",)):
        raise UsageError(f"--n-max must be >= 1, got {cfg.n_max}")
    if cfg.tol <= 0:
        raise UsageError(f"--tol must be positive, got {cfg.tol}")
    if cfg.depth < 1:
        raise UsageError(f"--depth must be >= 1, got {cfg.depth}")
    return cfg


def run(cfg: RunConfig) -> tuple[str, int]:
    """Execute one parsed configuration; returns (report text, exit code)."""
    handlers = {
        "eval": _cmd_eval,
        "kernel": _cmd_kernel,
        "recover": _cmd_recover,
        "ratio": _cmd_ratio,
        "verify": _cmd_verify,
        "chain": _cmd_chain,
    }
    return handlers[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"opx: {exc}", file=sys.stderr)
        return 2
    try:
        text, code = run(cfg)
    except UsageError as exc:
        print(f"opx: {exc}", file=sys.stderr)
        return 2
    except TableTooShort as exc:  # a coefficient file is the CLI's one finite table
        print(f"opx: coefficient file {exc}", file=sys.stderr)
        return 2
    except OpxError as exc:
        print(f"opx: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
