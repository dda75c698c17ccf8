"""A recovery builds each kernel context and each transform record once, at
its largest degree, and its evaluators slice them: the number of builds per
``opx recover`` or ``opx verify --suite recovery`` run is fixed.  Likewise
the ratios and quasi suites evaluate their draws and points as arrays, so
their calls into ``opx.ratios`` and ``opx.quasi`` do not grow with the
number of draws or points.  The CLI's parser is built once per process, not
once per call."""

import argparse
import contextlib
import io
from collections import Counter

import pytest

from opx import cli, kernels, quasi, ratios, transforms


@pytest.fixture
def builds(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    init = kernels.KernelContext.__init__
    monkeypatch.setattr(kernels.KernelContext, "__init__", counting("KernelContext", init))
    for module, name in (
        (transforms, "geronimus_data"), (transforms, "uvarov_data"), (kernels, "kernel_family")
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


@pytest.mark.parametrize(
    "kind, expected",
    [
        # contexts at k1 and k2
        ("christoffel", {"KernelContext": 2}),
        # the context at k2; the Geronimus record at k1 has none
        ("geronimus", {"KernelContext": 1, "geronimus_data": 1}),
        # the Uvarov record's context at k1, and the context at k2
        ("uvarov", {"KernelContext": 2, "uvarov_data": 1}),
        # k1, k2, and the iterated context's shifted family at k3
        ("order2", {"KernelContext": 3, "kernel_family": 1}),
    ],
)
@pytest.mark.parametrize("n_max", ["2", "8"])
def test_recover_builds_each_context_once(builds, kind, expected, n_max):
    _run(["recover", "--kind", kind, "--n-max", n_max])
    assert dict(builds) == expected


def test_recovery_suite_builds(builds):
    # the four recover cases; the Geronimus and Uvarov orthogonality cases
    # slice the records of their recoveries
    _run(["verify", "--suite", "recovery"])
    expected = {"KernelContext": 8, "geronimus_data": 1, "uvarov_data": 1, "kernel_family": 1}
    assert dict(builds) == expected


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in (
        (ratios, "evaluate_cf"),
        (ratios, "hyp_series"),
        (ratios, "confluent_cd"),
        (quasi, "difference_equation_residual"),
    ):
        fn = getattr(module, name)

        def wrapper(*args, name=name, fn=fn, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize(
    "flags, expected",
    [
        # evaluate_cf: the terminating Gauss and Kummer batches and the
        # non-terminating Gauss batch; hyp_series: two rounds of Gauss
        # denominators (two draws fail the guard) and the numerators, one
        # round of Kummer denominators and the numerators, and the
        # non-terminating pair; confluent_cd: n = 0..8
        ([], {"evaluate_cf": 3, "hyp_series": 7, "confluent_cd": 9}),
        # one Gauss and one Kummer draw fail the guard: two rounds each
        (["--seed", "2"], {"evaluate_cf": 3, "hyp_series": 8, "confluent_cd": 9}),
        # plus one fraction per prefactor degree n = 1..6
        (
            ["--family", "laguerre", "--gamma", "0.5"],
            {"evaluate_cf": 9, "hyp_series": 7, "confluent_cd": 9},
        ),
        (
            ["--family", "jacobi", "--gamma", "0.3", "--delta", "0.7"],
            {"evaluate_cf": 9, "hyp_series": 7, "confluent_cd": 9},
        ),
    ],
)
def test_ratios_suite_calls(calls, flags, expected):
    # a loop over the draws would make one hyp_series call per candidate
    # and one evaluate_cf call per kept draw, about 900 and 450
    _run(["verify", "--suite", "ratios", *flags])
    assert dict(calls) == expected


def test_quasi_suite_calls(calls):
    # one call per (b, n): four values of b, n = 1..5
    _run(["verify", "--suite", "quasi"])
    assert dict(calls) == {"difference_equation_residual": 20}


def test_parser_is_built_once_per_process(monkeypatch):
    # the top-level parser and its 6 command subparsers, whatever the number of calls
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built["ArgumentParser"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in (["eval"], ["kernel"], ["chain", "--l-const", "0.25"], ["ratio", "--n-max", "5"], ["eval"]):
        _run(argv)
    assert dict(built) == {"ArgumentParser": 7}
