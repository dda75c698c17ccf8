"""The benchmark's per-layer metrics all have a counter to read.

``bench/run.py --trace 1`` reads each per-layer metric of BENCHMARK.json
from the tracer, which wraps opx's public functions by name: a metric whose
prefix ``<layer>.<name>`` no wrapped function, layer or derived counter
supplies stops the run.  So a function the benchmark names must not leave
the package before the benchmark stops naming it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_has_a_counter():
    tracer_module = _load_tracer()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # bench/run.py::per_layer's rule, with its derived trace.* counter
        known = tracer.keys | set(tracer_module.LAYERS) | {"transforms.recovery_poly", "trace"}
    finally:
        tracer.uninstall()
    assert [name for name in names if name.rsplit(".", 1)[0] not in known] == []
