"""The determinism contract as a gate: every report of tools/report_matrix.py
hashes to its line in tests/report_matrix.txt, and a rerun of some of them
in the same process, on the caches the first run left, hashes the same.

A change that moves a report on purpose rewrites the file with
``python3 tools/report_matrix.py > tests/report_matrix.txt`` and names the
moved lines; the diff of the file is the record.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "report_matrix.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("report_matrix", HERE.parent / "tools" / "report_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(expected: list[str], got: list[str]) -> list[str]:
    """One message per configuration whose line differs, is missing or is
    new; a reorder of the same lines names the first line out of place."""
    old = dict(line.split(" ", 1) for line in expected)
    new = dict(line.split(" ", 1) for line in got)
    moved = [f"{name}: {old[name]} -> {new[name]}" for name in old if name in new and old[name] != new[name]]
    moved += [f"{name}: missing" for name in old if name not in new]
    moved += [f"{name}: new" for name in new if name not in old]
    if not moved:
        moved = [f"{g.split()[0]}: at line {i + 2}" for i, (e, g) in enumerate(zip(expected, got)) if e != g][:1]
    return moved


# the matrix drives the ratio limits' known overflows, and hashes no warning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_report_matrix_matches_the_checked_in_lines(tmp_path, monkeypatch):
    header, *expected = EXPECTED.read_text().splitlines()
    tool = _tool()
    assert header == tool.HEADER, (
        f"tests/report_matrix.txt was written under {header[2:]}, and this is numpy {np.__version__}:"
        " rerun tools/report_matrix.py on both sides and compare"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OPX_SEED", raising=False)
    tool.write_inputs()
    got = [f"{name} {' '.join(map(str, tool.run(argv)))}" for name, argv in tool.configs()]
    moved = _moved(expected, got)
    assert not moved, "report lines moved:\n" + "\n".join(moved)
    # again, on the families, rules and ratio caches the matrix left shared
    warm = [(name, argv) for name, argv in tool.configs() if _rerun(name)]
    again = [f"{name} {' '.join(map(str, tool.run(argv)))}" for name, argv in warm]
    moved = _moved([line for line in got if _rerun(line.split()[0])], again)
    assert not moved, "report lines moved on warm caches:\n" + "\n".join(moved)


def _rerun(name: str) -> bool:
    """Every ratio table, and one verify line per family: its recovery suite,
    which reads Gauss rules, a Cauchy mass and kernel contexts."""
    return name.startswith("ratio.") or (name.startswith("verify.recovery.") and name.endswith(".s1"))


def test_moved_lines_are_named():
    expected = ["a 0 x", "b 1 y", "c 0 z"]
    assert _moved(expected, expected) == []
    assert _moved(expected, ["a 0 x", "b 1 w", "c 0 z"]) == ["b: 1 y -> 1 w"]
    assert _moved(expected, ["a 0 x", "c 0 z", "d 0 v"]) == ["b: missing", "d: new"]
    assert _moved(expected, ["b 1 y", "a 0 x", "c 0 z"]) == ["b: at line 2"]
