"""A recovery builds each kernel context and each transform record once, at
its largest degree, and its evaluators slice them: the number of builds per
``opx recover`` or ``opx verify --suite recovery`` run is fixed."""

import contextlib
import io
from collections import Counter

import pytest

from opx import cli, kernels, transforms


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
    # the four recover cases; the Uvarov orthogonality case slices the Uvarov
    # recovery's record, while the Geronimus one builds its record at its own
    # degree (its A_n are not prefix-stable)
    _run(["verify", "--suite", "recovery"])
    expected = {"KernelContext": 8, "geronimus_data": 2, "uvarov_data": 1, "kernel_family": 1}
    assert dict(builds) == expected
