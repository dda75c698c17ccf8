"""opx benchmark: one single-threaded closed-loop client driving opx in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an opx checkout; opx is imported from its ``src``.
The client sends the next op only after the previous one returns: CLI ops go
through ``opx.cli.main(argv)`` with stdout captured, API ops call
``opx.ratios`` directly.  A run repeats the workload's fixed batch of ops
while the next batch still fits in ``--seconds`` (at least the workload's
``min_batches``), checks every output, and prints, as its last line, one
JSON object with the metrics that BENCHMARK.json names, in its units:

* ``--trace 0``: the end-to-end metrics, untraced.  Times are scaled to a
  reference machine speed (see CAL_REF_S).  ``setup_s`` is the median over
  fresh interpreters of importing opx and building the families;
  ``peak_rss_mb`` is this process's peak resident memory.
* ``--trace 1``: the per-layer metrics.  Batches alternate untraced and
  traced (``tracer.py``); values are medians over traced batches, and
  ``trace.overhead_s`` is traced minus untraced batch time.

Earlier lines report the BLAS thread pin, the digest of the reports
(``runtime_ms`` ignored), the op_ms.tail percentile and sample count, the
unscaled batch time, and every failure, marked known or new.  A failure
that ``design.json`` does not list as known for its op makes ``correct``
false.  The exit code is 0 when the run completed, whatever its checks
found, and 2 when it could not run.  ``design.json`` records the design;
``selftest.py`` tests the harness.
"""

from __future__ import annotations

import os

# pinned before numpy loads: over 8 repeats of the verify-suites batch on a
# 2-core host, threaded BLAS gave a median of 9.79 s with an IQR of 9.38-10.88 s
# and one thread 11.19 s with 10.82-11.57 s; a steady figure matters more here
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# On a shared 2-vCPU host the speed drifts by up to a third over seconds (a
# fixed loop's time swings that much with nothing else running), which
# repetition inside one run cannot average out.  So before every op the client times a fixed
# calibration of interpreter loops and small-array numpy expressions, and
# scales the op's latency by CAL_REF_S over the median calibration time of
# the CAL_WINDOW samples around it: times are reported at the speed where
# the calibration takes CAL_REF_S.  Large eigensolves drift with memory
# traffic more than the interpreter does, so in a workload with
# eigensolve-bound ops the calibration also times one tridiagonal
# eigensolve of CAL_EIGEN_SIZE, and those ops are scaled by it against
# CAL_EIGEN_REF_S instead.
CAL_LOOPS = 20_000
CAL_ARRAY_LOOPS = 200
CAL_ARRAY = np.arange(64.0)
CAL_REF_S = 2e-3
CAL_EIGEN_SIZE = 1024
CAL_EIGEN_REF_S = 45e-3
CAL_WINDOW = 9


class CannotRun(Exception):
    pass


@dataclass
class Batch:
    seconds: float  # wall time
    op_seconds: list[float]  # wall time per op
    calibration: list[tuple[float, float]]  # calibrate() before each op
    report_bytes: int
    tracer: Tracer | None = None
    # failure reasons of the ops whose report differs from the first batch's
    differing: dict[int, list[str]] = field(default_factory=dict)
    scaled_ops: list[float] = field(default_factory=list)  # at reference speed

    @property
    def scaled(self) -> float:
        return sum(self.scaled_ops)


def import_opx():
    if not (SRC / "opx" / "__init__.py").is_file():
        raise CannotRun(f"no opx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opx
    import opx.cli

    if Path(opx.__file__).resolve().parent != (SRC / "opx").resolve():
        raise CannotRun(f"imported opx from {opx.__file__}, not from {SRC}")
    return opx


def setup_seconds() -> float:
    """Median seconds, at reference speed, to import opx and build the
    families in a fresh interpreter."""
    probe = str(HERE / "setup_probe.py")
    times, calibration = [], []
    for _ in range(SETUP_PROBES):
        calibration.append(calibrate()[0])
        done = subprocess.run(
            [sys.executable, probe, str(SRC)], capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise CannotRun(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times) * CAL_REF_S / statistics.median(calibration)


def run_op(opx, op: workloads.Op) -> tuple[float, checks.Outcome]:
    """Send one op and wait for it; returns (seconds, outcome)."""
    if op.api:
        fn = getattr(opx.ratios, op.api)  # looked up per op, so tracing sees it
        started = perf_counter()
        try:
            results = tuple(fn(*args) for args in op.calls)
        except Exception as exc:  # a failed op, recorded; the run goes on
            return perf_counter() - started, checks.Outcome("", 1, _error_name(opx, exc))
        elapsed = perf_counter() - started
        return elapsed, checks.Outcome("\n".join(map(repr, results)), results=results)
    out, err = io.StringIO(), io.StringIO()
    started = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = opx.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejected the argv: a usage error
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # main lets untyped errors escape: a crash
        return perf_counter() - started, checks.Outcome(out.getvalue(), 1, _error_name(opx, exc))
    elapsed = perf_counter() - started
    return elapsed, checks.Outcome(out.getvalue(), code, checks.typed_error(err.getvalue()))


def calibrate(eigensolve: bool = False) -> tuple[float, float]:
    """Seconds the interpreter calibration and the eigensolve (0 when not
    asked for) take now."""
    started = perf_counter()
    total = 0.0
    for i in range(CAL_LOOPS):
        total += i
    for _ in range(CAL_ARRAY_LOOPS):
        total += float(np.sum(CAL_ARRAY * 1.0001 - CAL_ARRAY))
    interpreter = perf_counter() - started
    if not eigensolve:
        return interpreter, 0.0
    started = perf_counter()
    eigh_tridiagonal(np.zeros(CAL_EIGEN_SIZE), np.full(CAL_EIGEN_SIZE - 1, 0.5))
    return interpreter, perf_counter() - started


def scale_to_reference(batches: list[Batch], ops: tuple[workloads.Op, ...]) -> None:
    """Set each op's latency at the reference speed."""
    samples = [c for b in batches for c in b.calibration]
    half = CAL_WINDOW // 2
    i = 0
    for batch in batches:
        batch.scaled_ops = []
        for op, t in zip(ops, batch.op_seconds):
            kind = 1 if op.eigensolve_bound else 0
            local = statistics.median(c[kind] for c in samples[max(0, i - half) : i + half + 1])
            batch.scaled_ops.append(t * (CAL_EIGEN_REF_S if kind else CAL_REF_S) / local)
            i += 1


def _error_name(opx, exc: Exception) -> str:
    name = type(exc).__name__
    return name if isinstance(exc, opx.OpxError) else f"crash:{name}"


def _digest(outcome: checks.Outcome) -> tuple:
    text = checks.stable_text(outcome.text).encode()
    return outcome.code, outcome.error, hashlib.sha256(text).hexdigest()


def measure(opx, workload: workloads.Workload, seconds: float, trace: bool):
    """Run batches closed-loop; returns (batches, first-batch outcomes)."""
    min_batches = 2 if trace else workload.min_batches
    first: list[checks.Outcome] = []
    first_digests: list[tuple] = []
    batches: list[Batch] = []
    started = perf_counter()
    while True:
        tracer = Tracer() if trace and len(batches) % 2 == 1 else None
        if tracer:
            tracer.install()
        try:
            op_seconds, calibration, outcomes = [], [], []
            batch_start = perf_counter()
            for op in workload.ops:
                calibration.append(calibrate(workload.eigensolve_calibration))
                elapsed, outcome = run_op(opx, op)
                op_seconds.append(elapsed)
                outcomes.append(outcome)
            batch_seconds = perf_counter() - batch_start
        finally:
            if tracer:
                tracer.uninstall()
        report_bytes = sum(len(o.text.encode()) for op, o in zip(workload.ops, outcomes) if not op.api)
        batch = Batch(batch_seconds, op_seconds, calibration, report_bytes, tracer)
        if not batches:
            first = outcomes
            first_digests = [_digest(o) for o in outcomes]
        for i, (op, outcome) in enumerate(zip(workload.ops, outcomes)):
            if batches and _digest(outcome) != first_digests[i]:
                batch.differing[i] = checks.failures(op, outcome) + ["report differs from an earlier repeat"]
        batches.append(batch)
        elapsed = perf_counter() - started
        typical = statistics.median(b.seconds for b in batches)
        if len(batches) >= min_batches and elapsed + typical > seconds:
            scale_to_reference(batches, workload.ops)
            return batches, first


def load_known_failures() -> dict[str, list[str]]:
    """design.json's known failures: op name -> fnmatch patterns of reasons."""
    design = json.loads((HERE / "design.json").read_text())
    return {entry["op"]: entry["reasons"] for entry in design["known_failures"]}


def account(workload, batches, first, known):
    """Failure accounting; returns (attempted, failed, correct, notes).

    The run is correct when no op failed for a reason off its known list."""
    first_reasons = []
    for op, outcome in zip(workload.ops, first):
        reasons = checks.failures(op, outcome)
        if not outcome.error:
            reasons += checks.reference_mismatches(op, outcome)
        first_reasons.append(reasons)
    attempted = failed = 0
    for batch in batches:
        for i in range(len(workload.ops)):
            attempted += 1
            failed += bool(batch.differing.get(i, first_reasons[i]))
    runs = [(op, "", reasons) for op, reasons in zip(workload.ops, first_reasons)]
    for n, batch in enumerate(batches):
        runs += [(workload.ops[i], f" in batch {n}", reasons) for i, reasons in batch.differing.items()]
    correct, notes = True, []
    for op, where, reasons in runs:
        if not reasons:
            continue
        new = checks.unexpected(op, reasons, known)
        correct = correct and not new
        notes.append(f"failed{where} ({'new' if new else 'known'}) {op.name}: {'; '.join(reasons)}")
    return attempted, failed, correct, notes


def end_to_end(workload, batches, attempted, failed, peak_rss_mb, setup_s):
    op_ms = [1000.0 * s for b in batches for s in b.scaled_ops]
    tail = float(np.percentile(op_ms, workload.tail_percentile))
    # each op's median over the batches, so one slow or fast sample of the
    # op in the middle does not move the p50
    per_op_ms = [statistics.median(1000.0 * b.scaled_ops[i] for b in batches) for i in range(len(workload.ops))]
    values = {
        "setup_s": setup_s,
        "batch_s": statistics.median(b.scaled for b in batches),
        "op_ms.p50": statistics.median(per_op_ms),
        "op_ms.tail": tail,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = [c for b in batches for c in b.calibration]
    calibration = f"{1000 * statistics.median(c[0] for c in samples):.4f} ms (reference {1000 * CAL_REF_S:g} ms)"
    if workload.eigensolve_calibration:
        calibration += (
            f", eigensolve {1000 * statistics.median(c[1] for c in samples):.4f} ms "
            f"(reference {1000 * CAL_EIGEN_REF_S:g} ms)"
        )
    note = (
        f"op_ms.tail is p{workload.tail_percentile:.2f} of {len(op_ms)} op samples "
        f"({sum(v > tail for v in op_ms)} beyond it); unscaled batch wall time "
        f"{statistics.median(b.seconds for b in batches):.4f} s at a calibration time of {calibration}"
    )
    return values, note


def per_layer(names, batches):
    traced = [b for b in batches if b.tracer]
    untraced = [b for b in batches if not b.tracer]

    def stat(name):
        return statistics.median(b.tracer.stats.get(name, 0.0) for b in traced)

    def ratio(num, den):
        d = stat(den)
        return stat(num) / d if d else 0.0

    derived = {
        "families.eval_table.points_per_call": lambda: ratio(
            "families.eval_table.points", "families.eval_table.calls"
        ),
        "kernels.kernel_poly.points_per_call": lambda: ratio(
            "kernels.kernel_poly.points", "kernels.kernel_poly.calls"
        ),
        "kernels.KernelContext.builds": lambda: stat("kernels.KernelContext.calls"),
        "kernels.KernelContext.mean_n": lambda: ratio(
            "kernels.KernelContext.n_total", "kernels.KernelContext.calls"
        ),
        "cli.report_bytes": lambda: statistics.median(b.report_bytes for b in traced),
        "trace.overhead_s": lambda: statistics.median(b.scaled for b in traced)
        - statistics.median(b.scaled for b in untraced),
    }
    known = traced[0].tracer.keys | set(LAYERS) | {"transforms.recovery_poly"}
    values = {}
    for name in names:
        if name in derived:
            values[name] = float(derived[name]())
        elif name.rsplit(".", 1)[0] in known:
            values[name] = float(stat(name))
        else:
            raise CannotRun(f"per-layer metric {name!r} has no counter")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        known = load_known_failures()
        opx = import_opx()
        setup_s = None if args.trace else setup_seconds()
        workload = workloads.build(args.workload, args.seed)
        batches, first = measure(opx, workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        attempted, failed, correct, notes = account(workload, batches, first, known)
        if args.trace:
            values = per_layer(list(units), batches)
        else:
            values, tail_note = end_to_end(workload, batches, attempted, failed, peak_rss_mb, setup_s)
            notes.insert(0, tail_note)
    except (CannotRun, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    for op, outcome in zip(workload.ops, first):
        digest.update(f"{op.name}\n{outcome.code}\n{checks.stable_text(outcome.text)}\n".encode())
    print(f"workload {workload.name}: {len(workload.ops)} ops per batch, {len(batches)} batches, "
          f"one closed-loop client, BLAS threads pinned to {BLAS_THREADS}")
    print(f"digest {digest.hexdigest()} (reports with runtime_ms ignored)")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
