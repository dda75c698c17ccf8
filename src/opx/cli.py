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
import functools
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

# from this length on _format_17g takes about two thirds of the time %
# takes (in process, on a 2-core Xeon); shorter arrays keep %
_VECTOR_MIN = 1000


def _float_cells(column: np.ndarray) -> tuple[str, list]:
    """The ``%`` slot of a non-empty 1-D float array and the values that
    fill it.

    Neighbours with the same float64 bits form a run, and only the first
    value of each run is formatted: ``%.17g`` when finite, ``null`` (JSON
    has no NaN or infinity) otherwise, repeated over its run as one ``str``
    object into a ``%s`` slot.  Bits, not ``==``, decide a run, so ``-0.0``
    beside ``0.0`` is two runs.  An array with more runs than half its
    length is formatted value by value instead, since past that share the
    runs save less than their loop costs: a finite one fills a ``%.17g``
    slot (``"%.17g" % x == format(x, ".17g")``), and the final ``%``
    formats it.  From ``_VECTOR_MIN`` values on, such an array, or the run
    heads of any other, is formatted by ``_format_17g`` into ``%s`` cells.
    """
    column = np.ascontiguousarray(column, dtype=np.float64)
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 2 * len(starts) > len(column):
        if len(column) >= _VECTOR_MIN:
            return "%s", _format_17g(column)
        if np.isfinite(column).all():
            return "%.17g", column.tolist()
    heads = column[starts]
    if len(heads) >= _VECTOR_MIN:
        texts = _format_17g(heads)
    else:
        texts = ["%.17g" % v if math.isfinite(v) else "null" for v in heads.tolist()]
    runs = np.diff(np.append(starts, len(column)))
    return "%s", np.repeat(np.array(texts, dtype=object), runs).tolist()


class _DigitTables(NamedTuple):
    """The tables of ``_format_17g``, built on its first call."""

    pow_hi: np.ndarray  # 10^e as pow_hi + pow_lo, e = _POW_MIN.._POW_MAX
    pow_lo: np.ndarray
    split_hi: np.ndarray  # Veltkamp's split of pow_hi
    split_lo: np.ndarray
    floor_log10: np.ndarray  # floor(log10 2^(B-1023)) by biased binary exponent B
    int_words: np.ndarray  # "%04d", then "%4d" (0 blank), as 4-byte words
    unit_words: np.ndarray  # "%03d", "%3d", each with " " or "." after it
    frac_words: np.ndarray  # "%04d", then "%04d" without its trailing zeros
    frac_length: np.ndarray  # the length of the latter
    exponents: np.ndarray  # (5, 801): the bytes of "e%+03d" for e = -400..400
    pow10: np.ndarray  # 10^0..10^18 as int64


_POW_MIN, _POW_MAX = -281, 297
_SPLIT = 134217729.0  # 2^27 + 1
# a value whose 17-digit rounding lies closer than this to a tie, in units
# of its last digit, is left to %: eight times _format_17g's error bound
_TIE_MARGIN = 2.0**-44


def _words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), np.uint32)


@functools.cache
def _digit_tables() -> _DigitTables:
    hi, lo = [], []
    for e in range(_POW_MIN, _POW_MAX + 1):
        if e >= 0:
            hi.append(float(10**e))
            lo.append(float(10**e - int(hi[-1])))
        else:
            hi.append(1 / 10**-e)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-e) / (den * 10**-e))
    pow_hi, pow_lo = np.array(hi), np.array(lo)
    scaled = _SPLIT * pow_hi
    split_hi = scaled - (scaled - pow_hi)
    # 2^k has len(str(2^k)) digits, and 2^-k lies in [10^-len(str(2^k)), 10^(1-len(...)))
    floor_log10 = np.array(
        [0] + [len(str(2**k)) - 1 if k >= 0 else -len(str(2**-k)) for k in range(-1022, 1024)] + [0]
    )
    four, three = range(10_000), range(1000)
    digits = [f"{k:04d}" for k in four]
    return _DigitTables(
        pow_hi,
        pow_lo,
        split_hi,
        pow_hi - split_hi,
        floor_log10,
        _words(digits + [f"{k:4d}" if k else "    " for k in four]),
        _words([f"{k:{w}d}{p}" for w in ("03", "3") for p in " ." for k in three]),
        _words(digits + [d.rstrip("0").ljust(4) for d in digits]),
        np.array([len(d.rstrip("0")) for d in digits]),
        np.frombuffer("".join(f"e{e:+03d}".ljust(5) for e in range(-400, 401)).encode(), np.uint8)
        .reshape(801, 5)
        .T.copy(),
        10 ** np.arange(19, dtype=np.int64),
    )


def _format_17g(x: np.ndarray) -> list[str]:
    """``["%.17g" % v if math.isfinite(v) else "null" for v in x.tolist()]``
    for a 1-D float64 array, computed by array operations.

    Exponent.  For a = |x| in [1e-280, 1e290], X = floor(log10 a) is
    exact: the binary exponent of a gives F (a table) with 10^F <= a <
    10^(F+2), and X = F + [a >= 10^(F+1)].  With 10^e held as the double h
    nearest it and the rounded rest l, a >= 10^e exactly when a > h, or a
    == h and l <= 0.

    Digits.  The 17 digits are D = round-half-even(P) for P = a 10^q in
    [10^16, 10^17), q = 16 - X.  With 10^q = h + l, p = fl(a h) >= 2^53 is
    an integer, e = a h - p is exact (Veltkamp's split and Dekker's
    product, Numer. Math. 18, 1971), and c = fl(e + fl(a l)) estimates P -
    p.  For u = 2^-53 and a h < 2^57, in units of the last digit: the rest
    of 10^q past h + l, at most u^2 h, adds at most 2^-49; fl(a l) errs by
    at most u |a l| <= 2^-49; and the sum, below 32 (|e| <= 8, |a l| <=
    16), by at most 2^-49.  So |P - p - c| <= 3 2^-49 < 2^-47, and where c
    lies farther than that from a half-integer, D = p + rint(c) is P
    correctly rounded, as the dtoa behind ``%`` rounds it (Gay, 1990).  A
    D of 10^17 is 10^16 at X + 1.  Left to ``%``: values within
    ``_TIE_MARGIN`` of a tie (exact ties such as 2^50 + 0.25 among them),
    values outside [1e-280, 1e290] (where 10^q leaves the table, or the
    split overflows) and values not finite.  A zero is "0" or "-0" here.

    Layout.  Every row is one fixed frame of 4-byte words: the sign, up to
    17 integer digits right-aligned to a point, and 20 fraction digits
    left-aligned after it, each word looked up by a 4-digit group in a
    table whose second half blanks the leading (integer) or trailing
    (fraction) zeros; the point shows when a fraction digit does.  The
    fixed form (-4 <= X < 17) writes D with 16 - X fraction digits, and
    the exponent form d.ddde+XX writes it as at X = 0, with the exponent
    (two or three digits) written after its last significant digit.  The
    frame keeps only the words some row reaches, and one decode and one
    ``split`` of its bytes give the strings.
    """
    t = _digit_tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e290)
    a[~fast] = 1.0
    floor = t.floor_log10.take(a.view(np.int64) >> 52)
    up = floor + (1 - _POW_MIN)
    h = t.pow_hi.take(up)
    X = floor + ((a > h) | ((a == h) & (t.pow_lo.take(up) <= 0.0)))
    q = (16 - _POW_MIN) - X  # the index of 10^(16-X)
    p = a * t.pow_hi.take(q)
    scaled = _SPLIT * a
    a_hi = scaled - (scaled - a)
    a_lo = a - a_hi
    h_hi, h_lo = t.split_hi.take(q), t.split_lo.take(q)
    c = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * t.pow_lo.take(q)
    r = np.rint(c)
    unsure = ~fast | (np.abs(np.abs(c - r) - 0.5) <= _TIE_MARGIN)
    D = p.astype(np.int64) + r.astype(np.int64)
    carry = D == 10**17
    D[carry] = 10**16
    X += carry
    D[unsure] = 0  # written "0", and replaced below unless x is a zero
    X[unsure] = 0
    expo = (X < -4) | (X > 16)
    X0 = np.where(expo, 0, X)
    # D has s = 16 - X0 fraction digits: integer part D // 10^s, and the
    # fraction, left-aligned in 20 digits, as A (8 digits) and B (12)
    s = 16 - X0
    cut = np.maximum(s - 8, 0)
    scale = t.pow10.take(cut)
    head = D // scale
    B = (D - head * scale) * t.pow10.take(12 - cut)
    scale = t.pow10.take(s - cut)
    integer = head // scale
    A = (head - integer * scale) * t.pow10.take(8 - s + cut)
    sign = np.signbit(x)
    digits = np.maximum(X0, 0) + 1  # integer digits; the units digit is byte 18
    first = 19 - digits - sign  # the first byte of a row
    last = 40 if expo.any() else 35 - min(X0.min(), 0)  # no byte of a row lies past it
    w0, w1 = int(first.min()) // 4, (last + 1) // 4 + 1  # the frame's words, a blank after every row
    frame = np.empty((len(x), w1 - w0), np.uint32)
    # integer words 0..3 hold digits 19..16, 15..12, 11..8 and 7..4 (blank
    # when no digit above them is significant), word 4 digits 3..1 and the point
    if w0 < 4:
        group = integer // 1000
        for w in range(3, w0 - 1, -1):
            rest = group // 10_000
            frame[:, w - w0] = t.int_words.take(group - rest * 10_000 + 10_000 * (digits <= 19 - 4 * w))
            group = rest
        integer = integer - (integer // 1000) * 1000
    point = (A != 0) | (B != 0)
    frame[:, 4 - w0] = t.unit_words.take(integer + 1000 * point + 2000 * (digits <= 3))
    f1 = A // 10_000
    f2 = A - f1 * 10_000
    f3 = B // 10**8
    low = B - f3 * 10**8
    f4 = low // 10_000
    f5 = low - f4 * 10_000
    # fraction words 5..9, their trailing zeros blank when no digit below
    # them is significant, and word 10, if kept, blank
    blank = 10_000
    tails = ((B == 0) & (f2 == 0), B == 0, low == 0, f5 == 0, True)
    for w, group, tail in zip(range(5, 10), (f1, f2, f3, f4, f5), tails):
        frame[:, w - w0] = t.frac_words.take(group + blank * tail)
    frame[:, 10 - w0 :] = 0x20202020
    width = 4 * (w1 - w0)
    flat = frame.view(np.uint8).reshape(-1)
    row = np.arange(-4 * w0, len(x) * width - 4 * w0, width)  # where byte 0 of a row would lie
    minus = np.flatnonzero(sign)
    flat[row[minus] + first[minus]] = ord("-")
    rows = np.flatnonzero(expo)
    if rows.size:
        # the exponent follows the last significant fraction digit, or the
        # units digit; the fraction is d_1..d_16, in f1..f4
        f1, f2, f3, f4 = f1[rows], f2[rows], f3[rows], f4[rows]
        length = t.frac_length
        significant = np.where(
            f4 != 0,
            12 + length.take(f4),
            np.where(f3 != 0, 8 + length.take(f3), np.where(f2 != 0, 4 + length.take(f2), length.take(f1))),
        )
        at = row[rows] + 19 + significant + (significant > 0)
        exponent = X[rows] + 400
        for k in range(5):
            flat[at + k] = t.exponents[k].take(exponent)
    texts = flat.tobytes().decode("ascii").split()
    bad = np.flatnonzero(unsure & (x != 0.0))
    for i, v in zip(bad.tolist(), x[bad].tolist()):
        texts[i] = "%.17g" % v if math.isfinite(v) else "null"
    return texts


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
    ``_float_cells``: one format per run of equal values, and from
    ``_VECTOR_MIN`` values or run heads on the strings of ``_format_17g``,
    which equal ``%``'s.  A list of ``None`` only is a literal null of the
    template and has no cells.  Any other column is rendered cell by cell.
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
