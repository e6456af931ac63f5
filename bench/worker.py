"""One benchmark worker: a single client driving ``jspec.cli.main`` in a
closed loop, in-process.  Started by run.py, once per set-up sample.

The worker imports jspec from ``<checkout>/src``, writes the workload's
documents, runs every op class once to warm up, and notes the moment it
is ready for the first timed op.  In ``--mode run`` it then runs whole
rounds of the workload's op mix until ``--seconds`` have passed, checks
every output, probes each op that reproduces a known defect once, and
with ``--trace 1`` runs one more round under the tracer.  It prints one
JSON object on its real stdout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

import oracle
import tracer as tracing
import workloads

# A shared host's speed drifts by up to 2x within seconds, so every op is
# bracketed by calibration_s() and its wall time is also reported scaled to
# a machine on which that kernel takes CAL_REF_S (see README.md).
CAL_REF_S = 1.6e-3
_CAL_MATRIX = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5 + np.eye(6)


def calibration_s() -> float:
    """Wall time of a fixed mix of the kinds of work jspec does: small LAPACK
    calls, interpreter loops, and many small array and object allocations.
    Under host contention the first two slow down less than jspec and the
    allocations more, so the mix tracks jspec better than either alone."""
    t0 = time.perf_counter()
    for _ in range(25):
        np.linalg.eigvalsh(_CAL_MATRIX)
        np.linalg.qr(_CAL_MATRIX)
    acc = 0
    for i in range(3000):
        acc += i % 7
    keep = []
    for i in range(400):
        keep.append((np.full(16, float(i)) * 2.0, {"i": i, "s": str(i)}, [i] * 8))
    return time.perf_counter() - t0


def mix(classes):
    """One round: op classes interleaved round-robin, each `weight` times."""
    left = {c.name: c.weight for c in classes}
    out = []
    while any(left.values()):
        for c in classes:
            if left[c.name]:
                out.append(c)
                left[c.name] -= 1
    return out


def run_op(cli, op):
    """Time one ``main(argv)`` call; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue()


CHECK_ERRORS = (oracle.Mismatch, KeyError, TypeError, ValueError)


def probe(cli, op) -> dict:
    """Check a known-defect op once, untimed.  Status ``present``: it fails
    the way the defect makes it fail; ``fixed``: it passes; ``failed``: it
    fails some other way, which run.py counts as a failed op."""
    _, rc, out, err = run_op(cli, op)
    try:
        op.check(rc, out, err)
    except CHECK_ERRORS as exc:
        detail = f"{type(exc).__name__}: {exc}"
        return {"status": "present" if op.known_defect in detail else "failed", "detail": detail}
    return {"status": "fixed", "detail": "the output passes its check"}


class Loop:
    """Closed-loop runner: records each op's latency and verdict."""

    def __init__(self, cli, classes):
        self.cli = cli
        self.round = mix(classes)
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.classes: list[str] = []
        self.bytes_out: list[int] = []
        self.failures: dict[str, str] = {}
        self.failed = 0

    def step(self, op):
        before = calibration_s()
        elapsed, rc, out, err = run_op(self.cli, op)
        after = calibration_s()
        self.latencies.append(elapsed)
        self.scales.append(2.0 * CAL_REF_S / (before + after))
        self.classes.append(op.name)
        self.bytes_out.append(len(out.encode()))
        try:
            op.check(rc, out, err)
        except CHECK_ERRORS as exc:
            self.failed += 1
            self.failures.setdefault(op.name, f"{type(exc).__name__}: {exc}")

    def until(self, seconds: float):
        """Whole rounds until `seconds` have passed."""
        start = time.monotonic()
        while True:
            for op in self.round:
                self.step(op)
            if time.monotonic() - start >= seconds:
                return

    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.latencies, self.scales)]

    def summary(self) -> dict:
        n = len(self.latencies)
        return {
            "attempted": n,
            "failed": self.failed,
            "ops_per_s": (n - self.failed) / sum(self.scaled()),
            "raw_ops_per_s": (n - self.failed) / sum(self.latencies),
            "latencies_s": self.scaled(),
            "raw_latencies_s": self.latencies,
            "classes": self.classes,
            "failures": self.failures,
        }


def traced_pass(loop: Loop, ops) -> tracing.Tracer:
    """Run `ops` through `loop` under a fresh tracer, op ids 0, 1, ..."""
    tr = tracing.Tracer()
    tr.install()
    try:
        for k, op in enumerate(ops):
            tr.op_id = k
            loop.step(op)
    finally:
        tr.uninstall()
    return tr


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_jspec(src: str):
    sys.path.insert(0, src)
    import jspec.cli

    if not os.path.abspath(jspec.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"jspec was imported from {jspec.cli.__file__}, not from {src}")
    return jspec.cli


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    # calibrations between the set-up steps give the speed scale of the
    # set-up; their own time is not set-up time
    calibrations = [calibration_s()]
    cli = load_jspec(args.src)
    docs = os.path.join(args.out, f"docs-{args.workload}-{args.seed}")
    classes = workloads.build(args.workload, args.seed, docs)
    calibrations.append(calibration_s())
    for op in classes:
        run_op(cli, op)
        calibrations.append(calibration_s())
    raw_setup_s = time.monotonic() - args.spawned - sum(calibrations)
    setup_s = raw_setup_s * CAL_REF_S / statistics.median(calibrations)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    loop = Loop(cli, classes)
    loop.until(args.seconds)
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "round_ops": len(loop.round),
        "untraced": loop.summary(),
        "known_defects": {c.name: probe(cli, c) for c in classes if c.known_defect},
    }
    if args.trace:
        traced = Loop(cli, classes)
        tr = traced_pass(traced, traced.round)
        summary = tracing.summarize(tr, traced.latencies, traced.scales, traced.bytes_out)
        summary["metrics"]["trace_overhead"] = (
            traced.summary()["ops_per_s"] / result["untraced"]["ops_per_s"]
        )
        summary["absent_layers"] = tr.absent
        summary["traced"] = {
            k: v for k, v in traced.summary().items() if not k.endswith("latencies_s")
        }
        tr.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.tsv"))
        result["trace"] = summary

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
