"""Output checks: which ops failed, and whether the outputs are correct.

Failure accounting (``failures``), one list of reasons per op run:

* a non-zero exit code, or a typed ``OpxError`` (the CLI prints
  ``opx: <ErrorName>: ...`` and exits 1; an API call raises it);
* a case that has a tolerance and reports ``pass: false``;
* a ``null`` or non-finite number in ``cases`` or ``rows``.  The report
  format leaves two places null on purpose, and only those are allowed: a
  recorded-only case (``tolerance`` and ``pass`` both null) and the
  ``closed_form``/``abs_diff`` columns of a ratio row with no tabulated form;
* report bytes, ignoring ``runtime_ms``, that differ from an earlier repeat
  of the same op in the run (checked by the caller with ``stable_text``).

The CLI's own ``reciprocal_identity`` case cannot see null rows (the
``max`` it takes keeps the old worst value when given NaN), which is why
the rows are inspected here.

Correctness (``reference_mismatches``) compares outputs with references the
harness computes without opx: the classical polynomials from
``scipy.special`` for ``eval``, closed forms for the quarter chain and the
Chebyshev shift-1 ratio, and terminating series for the continued
fractions.  Ops without an independent reference are judged by their own
cases only.

A failure reason that ``design.json`` does not list as known for its op
(``unexpected``) makes the run incorrect, so one op that newly fails shows
whatever the ok_share bound is.
"""

from __future__ import annotations

import fnmatch
import json
import math
import re
from dataclasses import dataclass

from workloads import Op, cf_reference

_RUNTIME = re.compile(r'"runtime_ms": -?\d+')
_TYPED_ERROR = re.compile(r"^opx: ([A-Za-z]+): ", re.MULTILINE)
# columns the report format leaves null when no closed form is tabulated
_OPTIONAL_COLUMNS = ("closed_form", "abs_diff")


@dataclass
class Outcome:
    """What one op run produced."""

    text: str  # CLI stdout, or the API results one repr per line
    code: int = 0  # CLI exit code; 1 for an API op that raised
    error: str = ""  # typed error name, or "crash:<type>" for anything else
    results: tuple = ()  # API return values


def stable_text(text: str) -> str:
    """The report with its only run-dependent field blanked."""
    return _RUNTIME.sub('"runtime_ms": 0', text)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def typed_error(stderr: str) -> str:
    match = _TYPED_ERROR.search(stderr)
    return match.group(1) if match else ""


def report_failures(report: dict) -> list[str]:
    """Failed cases and misplaced nulls in one parsed JSON report."""
    out = []
    for case in report.get("cases", []):
        name = case.get("name")
        if not _finite(case.get("max_residual")):
            out.append(f"case {name}: max_residual {case.get('max_residual')!r}")
        tol, verdict = case.get("tolerance"), case.get("pass")
        if (tol is None) != (verdict is None):
            out.append(f"case {name}: tolerance {tol!r} with pass {verdict!r}")
        elif tol is not None and verdict is not True:
            out.append(f"case {name}: pass {verdict!r}")
    bad: dict[str, int] = {}
    for row in report.get("rows", []):
        for key, value in row.items():
            if value is None and key in _OPTIONAL_COLUMNS and row.get("closed_form") is None:
                continue
            if not _finite(value):
                bad[key] = bad.get(key, 0) + 1
    out += [f"rows: {count} {key} values null or non-finite" for key, count in sorted(bad.items())]
    return out


def failures(op: Op, outcome: Outcome) -> list[str]:
    """Reasons the op run failed; empty when it did not."""
    out = []
    if outcome.error:
        out.append(f"error {outcome.error}")
    if outcome.code != 0:
        out.append(f"exit {outcome.code}")
    if op.api:
        flat = [v for r in outcome.results for v in (r if isinstance(r, tuple) else (r,))]
        nonfinite = sum(not _finite(v) for v in flat)
        if nonfinite:
            out.append(f"{nonfinite} non-finite results")
        return out
    if outcome.text:
        try:
            report = json.loads(outcome.text)
        except json.JSONDecodeError:
            out.append("report is not JSON")
        else:
            out += report_failures(report)
    return out


def unexpected(op: Op, reasons: list[str], known: dict[str, list[str]]) -> list[str]:
    """The reasons that match none of the op's known-failure patterns
    (``fnmatch`` patterns, keyed by op name)."""
    patterns = known.get(op.name, ())
    return [r for r in reasons if not any(fnmatch.fnmatchcase(r, p) for p in patterns)]


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def _classical(family: str, gamma: float, delta: float):
    """Monic P_n and P_n' of a built-in family from scipy.special."""
    from scipy import special

    if family == "chebyshev1":
        def value(n, x):
            return special.eval_chebyt(n, x) / 2.0 ** (n - 1) if n else 1.0

        def deriv(n, x):
            return n * special.eval_chebyu(n - 1, x) / 2.0 ** (n - 1) if n else 0.0

    elif family == "laguerre":
        def lead(n):
            return (-1) ** n / math.factorial(n)

        def value(n, x):
            return special.eval_genlaguerre(n, gamma, x) / lead(n)

        def deriv(n, x):
            return -special.eval_genlaguerre(n - 1, gamma + 1, x) / lead(n) if n else 0.0

    else:
        def lead(n, a, b):
            return math.exp(
                math.lgamma(2 * n + a + b + 1) - n * math.log(2.0) - math.lgamma(n + 1)
                - math.lgamma(n + a + b + 1)
            )

        def value(n, x):
            return special.eval_jacobi(n, gamma, delta, x) / lead(n, gamma, delta)

        def deriv(n, x):
            if n == 0:
                return 0.0
            d = 0.5 * (n + gamma + delta + 1) * special.eval_jacobi(n - 1, gamma + 1, delta + 1, x)
            return d / lead(n, gamma, delta)

    return value, deriv


def _close(got, want, rtol: float) -> bool:
    return _finite(got) and abs(got - want) <= rtol * max(1.0, abs(want))


def reference_mismatches(op: Op, outcome: Outcome) -> list[str]:
    """Outputs that disagree with the harness's own reference values."""
    if op.api:
        bad = 0
        for args, result in zip(op.calls, outcome.results):
            value = result[0] if isinstance(result, tuple) else result
            if not _close(value, cf_reference(op.api, args), 1e-10):
                bad += 1
        return [f"{bad} of {len(op.calls)} values off the series reference"] if bad else []
    if outcome.code != 0 or not outcome.text:
        return []
    try:
        report = json.loads(outcome.text)
    except json.JSONDecodeError:
        return []  # the caller already counts this as a failure and as incorrect
    try:
        bad = _count_off_reference(op, report)
    except (KeyError, TypeError):
        return ["report lacks the fields its reference needs"]
    return [f"{bad} values off the reference"] if bad else []


def _count_off_reference(op: Op, report: dict) -> int:
    echo = report["config_echo"]
    rows = report.get("rows", [])
    bad = 0
    if op.argv[0] == "eval":
        value, deriv = _classical(echo["family"], echo.get("gamma", 0.0), echo.get("delta", 0.0))
        for row in rows:
            n, x = row["n"], row["x"]
            bad += not _close(row["value"], value(n, x), 1e-9)
            bad += "deriv" in row and not _close(row["deriv"], deriv(n, x), 1e-9)
    elif op.argv[0] == "chain":
        bad = sum(not _close(row["m_n"], row["n"] / (2.0 * (row["n"] + 1.0)), 1e-12) for row in rows)
    elif op.argv[0] == "ratio" and echo["family"] == "chebyshev1" and echo.get("shifts") == [1.0]:
        # direct evaluation gives (1 + 2/(2n+1))/2 (see README, known red checks)
        bad = sum(
            not _close(row["r_up"], 0.5 * (1.0 + 2.0 / (2.0 * row["n"] + 1.0)), 1e-12) for row in rows
        )
    return bad
