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

from . import families, kernels, ratios, suites
from .errors import OpxError, TableTooShort

__all__ = ["main", "run", "RunConfig", "render_json"]


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


def _settings(cfg: RunConfig) -> suites.Settings:
    """The suites' view of an invocation, with the shifts and r0 resolved."""
    r0 = 0.5 if cfg.r0 is None else cfg.r0
    return suites.Settings(tuple(_default_shifts(cfg)), cfg.n_max, cfg.tol, cfg.depth, cfg.mass0, r0)


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
        dd = kernels.kernel_table(ctx, cfg.n_max, xs)
        # recurrence evaluation from the starred coefficients
        ks = families.eval_table(kernels.kernel_family(ctx, cfg.n_max), cfg.n_max, xs)
        worst = suites.relative_gap(dd - ks, dd).max(initial=0.0)
        cases.append(suites.case("kernel_ttrr_consistency", worst, cfg.tol))
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
        suites.case("chain_positive", 0.0 if seq.positive else 1.0, None),
        suites.case("complementary_positive", 0.0 if seq.complementary.positive else 1.0, None),
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
    cases = [suites.case("reciprocal_identity", recip_worst, 1e-12)]
    ns = np.arange(1, cfg.n_max + 1)
    closed = gaps = [None] * cfg.n_max
    if cfg.family == "chebyshev1" and k == 1.0:
        closed = 0.5 * (1.0 + 2.0 / (2.0 * ns + 1.0))
        gaps = np.abs(r_up - closed)
        cases.append(suites.case("tabulated_closed_form_gap", max(gaps.tolist()), None))
    return _finish(cfg, cases, columns=[ns, r_up, closed, gaps], header=header, started=started)


def _cmd_recover(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind not in suites.RECOVERY_KINDS:
        raise UsageError(f"unknown recovery kind {cfg.kind!r}")
    xs = suites.sample_points(fam, rng, 50)
    recovery, _ = suites.recovery_case(cfg.kind, fam, _settings(cfg), xs, cfg.n_max)
    return _finish(cfg, [recovery], started=started)


def _cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    return _finish(cfg, suites.run_suites(cfg.suite, fam, rng, _settings(cfg)), started=started)


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
        "--kind", choices=list(suites.RECOVERY_KINDS), default="christoffel"
    )

    p_ratio = sub.add_parser("ratio", help="kernel ratio limits")
    _add_common(p_ratio)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", choices=[*suites.SUITES, "all"], default="all")

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
    if ns.command == "verify" and cfg.suite in ("quasi", "all") and cfg.n_max < suites.QUASI_MIN_N_MAX:
        raise UsageError(f"the quasi suite needs --n-max >= {suites.QUASI_MIN_N_MAX}, got {cfg.n_max}")
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
