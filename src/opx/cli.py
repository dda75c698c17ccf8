"""Command-line front end: evaluations, verification suites, and tables.

Commands: eval, kernel, recover, ratio, verify and chain.  ``opx -h`` lists
them and ``opx COMMAND -h`` a command's flags, both read from ``_COMMANDS``.

JSON reports share one schema (schemas/report.schema.json): top level
{command, config_echo, cases, overall, runtime_ms} plus optional rows.
Numbers are rendered with 17 significant digits, which round-trips 64-bit
floats exactly; given identical configuration (including --seed, or the
OPX_SEED environment variable when the flag is absent) the bytes are
identical apart from runtime_ms.  Exit codes: 0 all checks pass, 1 some
check failed, 2 usage or validation error.
"""

from __future__ import annotations

import csv as _csv
import io
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import families, kernels, ratios, suites
from .errors import OpxError, ParameterOutOfRange, TableTooShort

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


def _float_cells(column: np.ndarray) -> tuple[str, list]:
    """The ``%`` slot of a non-empty 1-D float array and the values that
    fill it.

    Neighbours with the same float64 bits form a run, and only the first
    value of each run is formatted: ``%.17g`` when finite, ``null`` (JSON
    has no NaN or infinity) otherwise, repeated over its run as one ``str``
    object into a ``%s`` slot.  Bits, not ``==``, decide a run, so ``-0.0``
    beside ``0.0`` is two runs.  A finite array with more runs than half its
    length fills a ``%.17g`` slot with its values instead (``"%.17g" % x ==
    format(x, ".17g")``): the final ``%`` formats a value faster than the
    loop over the runs does, and past that share the runs save nothing.
    """
    column = np.ascontiguousarray(column, dtype=np.float64)
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * len(starts) > len(column) and np.isfinite(column).all():
        return "%.17g", column.tolist()
    texts = ["%.17g" % v if math.isfinite(v) else "null" for v in column[starts].tolist()]
    runs = np.diff(np.append(starts, len(column)))
    return "%s", np.repeat(np.array(texts, dtype=object), runs).tolist()


def render_json(obj, indent: int = 0) -> str:
    """``obj`` as JSON, nested containers indented two spaces a level.

    A list of Python floats is written from ``_float_cells``, one format
    per run of equal values; any other list entry by entry.
    """
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
        sep = ",\n" + pad + "  "
        if set(map(type, seq)) == {float}:
            slot, values = _float_cells(np.array(seq))
            body = sep.join([slot] * len(seq)) % tuple(values)
        else:
            body = sep.join(
                render_json(v, indent + 1) if isinstance(v, _CONTAINERS) else _render_scalar(v) for v in seq
            )
        return "[\n" + pad + "  " + body + "\n" + pad + "]"
    return _render_scalar(obj)


def _column_cells(column) -> tuple[str, list | None]:
    """The ``%`` slot of one row-table column and the values that fill it.

    An int array fills a ``%d`` slot, and a float array the slot of
    ``_float_cells``, one format per run of equal values.  A list of
    ``None`` only is a literal null of the template and has no cells.  Any
    other column is rendered cell by cell.
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            return "%d", column.tolist()
        if column.dtype.kind == "f":
            return _float_cells(column)
        values = column.tolist()
    else:
        values = column
        if values.count(None) == len(values):
            return "null", None
    return "%s", list(map(_render_scalar, values))


def _render_rows(header: list[str], columns) -> str:
    """``render_json`` at indent 1 of the dicts ``zip(header, row)`` over the
    rows of ``columns``, one array or list per key of a non-empty header.

    Every row shares one ``%`` template, with the keys escaped once and a
    slot or literal per column (``_column_cells``).  The cells are
    interleaved row by row into one flat list and the template, repeated
    once per row, is filled by a single ``%``, with no Python step per row.
    """
    n = len(columns[0])
    if not n:
        return "[]"
    slots, cells = zip(*map(_column_cells, columns))
    keys = [_render_scalar(str(k)).replace("%", "%%") for k in header]
    template = "    {\n" + ",\n".join(f"      {k}: {slot}" for k, slot in zip(keys, slots)) + "\n    }"
    filled = [c for c in cells if c is not None]
    flat = [None] * (n * len(filled))
    for j, column in enumerate(filled):
        flat[j :: len(filled)] = column
    return "[\n" + ",\n".join([template] * n) % tuple(flat) + "\n  ]"


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
    echo = dict(command=cfg.command, family=cfg.family, n_max=cfg.n_max, tol=cfg.tol)
    echo.update(depth=cfg.depth, seed=cfg.seed, output=cfg.output)
    # a parameter given, or a list not empty
    given = dict(gamma=cfg.gamma, delta=cfg.delta, shifts=cfg.shifts, mass0=cfg.mass0, r0=cfg.r0)
    echo.update((k, v) for k, v in {**given, "points": cfg.points}.items() if v not in (None, []))
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


def _require_in_range(name: str, table: np.ndarray, xs: np.ndarray) -> None:
    """ParameterOutOfRange naming the first degree n, and at it the first
    point x, where the (degrees, points) ``table`` of ``name`` leaves the
    double range: past it a value has no double to be written as, and below
    the least normal double it has lost precision, down to a 0 in place of
    a nonzero value."""
    with np.errstate(over="ignore"):  # the modulus of a finite complex value may overflow
        underflow = (np.abs(table) < np.finfo(float).tiny) & (table != 0)
    bad = np.argwhere(~np.isfinite(table) | underflow)
    if bad.size:
        n, i = bad[0]
        where = f"{name}_{n}({xs[i].item()!r})"
        if underflow[n, i]:
            raise ParameterOutOfRange(f"{where} underflows: it is below the least normal double")
        raise ParameterOutOfRange(f"{where} is out of the double range")


def _cmd_eval(cfg: RunConfig) -> tuple[str, int]:
    """Evaluate P_0..P_n at points (CSV or JSON)."""
    started = time.time()
    fam = build_family(cfg)
    xs = np.array(cfg.points or [0.0])
    header = ["n", "x", "value"] + (["deriv"] if cfg.derivs else [])
    with np.errstate(over="ignore", invalid="ignore"):  # _require_in_range reports it
        values = families.eval_table(fam, cfg.n_max, xs)
        derivs = families.eval_derivs(fam, cfg.n_max, xs, values) if cfg.derivs else None
    _require_in_range("P", values, xs)
    # point-major: the rows of one point are n = 0..n_max
    columns = [
        np.tile(np.arange(cfg.n_max + 1), xs.size),
        np.repeat(xs, cfg.n_max + 1),
        np.real(values).T.ravel(),
    ]
    if cfg.derivs:
        _require_in_range("P'", derivs, xs)
        columns.append(np.real(derivs).T.ravel())
    return _finish(cfg, [], columns=columns, header=header, started=started)


def _cmd_kernel(cfg: RunConfig) -> tuple[str, int]:
    """Kernel recurrence coefficients and optional point values (JSON)."""
    started = time.time()
    fam = build_family(cfg)
    k = _default_shifts(cfg)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a shift near c_1 overflows the pairs
        ctx = kernels.KernelContext(fam, k, cfg.n_max + 1)
        pairs = kernels.kernel_recurrence(ctx, cfg.n_max)
    bad = ~np.isfinite(pairs).all(axis=1)
    if bad.any():
        n = np.argmax(bad) + 1
        raise ParameterOutOfRange(f"(c*_{n}, lambda*_{n}) at k={k!r} is out of the double range")
    header = ["n", "c_star", "lambda_star"]
    columns = [np.arange(1, cfg.n_max + 1), *np.real(pairs).T]
    cases = []
    if cfg.points:
        xs = np.array(cfg.points)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _cmd_eval
            dd = kernels.kernel_table(ctx, cfg.n_max, xs)
            # recurrence evaluation from the starred coefficients
            ks = families.eval_table(kernels.kernel_family(ctx, cfg.n_max), cfg.n_max, xs)
        _require_in_range("Pk", dd, xs)
        _require_in_range("Pk", ks, xs)
        worst = suites.relative_gap(dd - ks, dd).max(initial=0.0)
        cases.append(suites.case("kernel_ttrr_consistency", worst, cfg.tol))
    header = None if cfg.output == "csv" else header
    return _finish(cfg, cases, columns=columns, header=header, started=started)


def _cmd_chain(cfg: RunConfig) -> tuple[str, int]:
    """Chain-sequence minimal parameters (CSV or JSON)."""
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
    """Kernel-ratio limits against their closed form (CSV or JSON)."""
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
        closed = suites.chebyshev1_shift1_ratio(ns)
        gaps = np.abs(r_up - closed)
        cases.append(suites.case("tabulated_closed_form_gap", max(gaps.tolist()), None))
    return _finish(cfg, cases, columns=[ns, r_up, closed, gaps], header=header, started=started)


def _cmd_recover(cfg: RunConfig) -> tuple[str, int]:
    """Run one recovery construction and report its identity residual."""
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind not in suites.RECOVERY_KINDS:
        raise UsageError(f"unknown recovery kind {cfg.kind!r}")
    xs = suites.sample_points(fam, rng, 50)
    recovery, _ = suites.recovery_case(cfg.kind, fam, _settings(cfg), xs, cfg.n_max)
    return _finish(cfg, [recovery], started=started)


def _cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    """Named check suites with pass/fail cases (JSON)."""
    started = time.time()
    fam = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    return _finish(cfg, suites.run_suites(cfg.suite, fam, rng, _settings(cfg)), started=started)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Flag(NamedTuple):
    """A flag's key, its value's converter (None: a switch, which takes no
    value), the values it allows, and whether it repeats."""

    dest: str
    convert: type | None = str
    choices: tuple = ()
    repeat: bool = False


_COMMON = {
    "--family": _Flag("family", str, ("chebyshev1", "laguerre", "jacobi", "custom")),
    **{f"--{key}": _Flag(key, float) for key in ("gamma", "delta", "mass0", "r0", "tol")},
    "--coeffs": _Flag("coeffs_file"),
    "--support": _Flag("support"),
    "--shift": _Flag("shifts", float, repeat=True),
    "--n-max": _Flag("n_max", int),
    **{f"--{key}": _Flag(key, int) for key in ("depth", "seed")},
    "--output": _Flag("output", str, ("json", "csv")),
}
_POINTS = {"--points": _Flag("points", float, repeat=True)}
# each command's handler and its flags beyond the common ones
_COMMANDS = {
    "eval": (_cmd_eval, {**_POINTS, "--derivs": _Flag("derivs", None)}),
    "kernel": (_cmd_kernel, _POINTS),
    "recover": (_cmd_recover, {"--kind": _Flag("kind", str, suites.RECOVERY_KINDS)}),
    "ratio": (_cmd_ratio, {}),
    "verify": (_cmd_verify, {"--suite": _Flag("suite", str, (*suites.SUITES, "all"))}),
    "chain": (_cmd_chain, {"--l": _Flag("l_list"), "--l-const": _Flag("l_const", float)}),
}
# argparse's test for a value that starts with "-" and is not a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Help(Exception):
    """-h or --help: print the text carried, and exit 0."""


def _help(command: str | None) -> str:
    """The command list, or one command's flags, from ``_COMMANDS``."""
    if command is None:
        rows = [f"  {name:8} {handler.__doc__ or ''}" for name, (handler, _) in _COMMANDS.items()]
        return "\n".join(["usage: opx COMMAND [FLAGS]", "", "commands:", *rows, ""])
    handler, own = _COMMANDS[command]
    rows = []
    for name, flag in {**_COMMON, **own}.items():
        kind = getattr(flag.convert, "__name__", "").upper()  # none for a switch
        value = "{%s}" % ",".join(flag.choices) if flag.choices else kind
        rows.append(f"  {name} {value}".rstrip() + " (repeatable)" * flag.repeat)
    return "\n".join([f"usage: opx {command} [FLAGS]", handler.__doc__ or "", "", "flags:", *rows, ""])


def _read_argv(argv: list[str]) -> dict:
    """The command and the flags of ``argv`` by key, in one pass: both
    ``--flag=value`` and ``--flag value``, the last value of a flag that does
    not repeat, and a fresh list, in order, of one that does."""
    if argv and argv[0] in ("-h", "--help"):
        raise _Help(_help(None))
    if not argv or argv[0] not in _COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise UsageError(f"{got} (choose from {', '.join(_COMMANDS)})")
    command, args = argv[0], iter(argv[1:])
    own, ns = _COMMANDS[command][1], {"command": command}
    for arg in args:
        if arg in ("-h", "--help"):
            raise _Help(_help(command))
        name, eq, value = arg.partition("=")
        flag = _COMMON.get(name) or own.get(name)
        if flag is None:
            unknown = f"{name}: unknown flag for {command}" if arg.startswith("-") else None
            raise UsageError(unknown or f"unexpected argument {arg!r}")
        if flag.convert is None:
            if eq:
                raise UsageError(f"{name}: takes no value, got {value!r}")
            ns[flag.dest] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or (value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
                raise UsageError(f"{name}: expected a value ({name}=VALUE if it starts with '-')")
        try:
            value = flag.convert(value)
        except ValueError:
            raise UsageError(f"{name}: invalid {flag.convert.__name__} value {value!r}") from None
        if flag.choices and value not in flag.choices:
            raise UsageError(f"{name}: invalid choice {value!r} (choose from {', '.join(flag.choices)})")
        if flag.repeat:
            ns.setdefault(flag.dest, []).append(value)
        else:
            ns[flag.dest] = value
    return ns


def _require_finite(flag: str, values: list[float]) -> None:
    """A NaN or infinite parameter, point, chain value or tolerance is a usage
    error: no family, shift, mass, value, chain or verdict is defined there."""
    for v in values:
        if not math.isfinite(v):
            raise UsageError(f"{flag} values must be finite, got {v}")


def _parse(argv: list[str]) -> RunConfig:
    return _config(_read_argv(argv))


def _config(ns: dict) -> RunConfig:
    """The configuration of the keys ``_read_argv`` read, validated; a key
    left out takes its ``RunConfig`` default."""
    seed = ns.get("seed", os.environ.get("OPX_SEED", "0"))
    try:
        seed = int(seed)
    except ValueError:
        raise UsageError(f"OPX_SEED must be an integer, got {seed!r}") from None
    if seed < 0:
        raise UsageError(f"{'--seed' if 'seed' in ns else 'OPX_SEED'} must be >= 0, got {seed}")
    support = None
    if (text := ns.get("support")) is not None:
        try:
            a, b = (float(v) for v in text.split(","))
        except ValueError as exc:
            raise UsageError(f"--support expects 'a,b', got {text!r}") from exc
        if not (math.isfinite(a) and a < b and (math.isfinite(b) or b == math.inf)):
            raise UsageError(f"--support needs finite a < b, b finite or inf, got {text!r}")
        support = (a, b)
    fields = {k: v for k, v in ns.items() if k not in ("support", "seed", "l_list", "l_const")}
    cfg = RunConfig(**fields, support=support, seed=seed)
    for flag, values in (
        ("--gamma", [cfg.gamma]), ("--delta", [cfg.delta]), ("--shift", cfg.shifts),
        ("--mass0", [cfg.mass0]), ("--r0", [cfg.r0]), ("--points", cfg.points),
    ):
        _require_finite(flag, [v for v in values if v is not None])
    if cfg.family != "custom" and (cfg.coeffs_file is not None or support is not None):
        raise UsageError(f"--coeffs and --support need --family custom, got --family {cfg.family}")
    if cfg.command == "chain":
        if l_list := ns.get("l_list"):
            try:
                cfg.l_values = [float(v) for v in l_list.split(",") if v.strip()]
            except ValueError as exc:
                raise UsageError(f"--l expects numbers v1,v2,..., got {l_list!r}") from exc
            _require_finite("--l", cfg.l_values)
            if "n_max" not in ns and cfg.l_values:  # every listed value, unless --n-max cuts them
                cfg.n_max = len(cfg.l_values)
            if cfg.l_values and cfg.n_max > len(cfg.l_values):
                raise UsageError(f"--n-max {cfg.n_max} exceeds the {len(cfg.l_values)} values of --l")
        elif "l_const" in ns:
            _require_finite("--l-const", [ns["l_const"]])
            cfg.l_values = [ns["l_const"]] * cfg.n_max
    least = 0 if cfg.command == "eval" else 1
    if cfg.n_max < least:
        raise UsageError(f"--n-max must be >= {least} for {cfg.command}, got {cfg.n_max}")
    if cfg.command == "verify" and cfg.suite in ("quasi", "all") and cfg.n_max < suites.QUASI_MIN_N_MAX:
        raise UsageError(f"the quasi suite needs --n-max >= {suites.QUASI_MIN_N_MAX}, got {cfg.n_max}")
    _require_finite("--tol", [cfg.tol])
    if cfg.tol <= 0:
        raise UsageError(f"--tol must be positive, got {cfg.tol}")
    if cfg.depth < 1:
        raise UsageError(f"--depth must be >= 1, got {cfg.depth}")
    return cfg


def run(cfg: RunConfig) -> tuple[str, int]:
    """Execute one parsed configuration; returns (report text, exit code)."""
    return _COMMANDS[cfg.command][0](cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        text, code = run(_parse(sys.argv[1:] if argv is None else argv))
    except _Help as exc:
        text, code = str(exc), 0
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
