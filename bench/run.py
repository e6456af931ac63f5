"""jspec benchmark: verified CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload paths --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and measures the jspec in its ``src/``.
It starts SETUP_SAMPLES fresh worker processes one after another; each
imports jspec, writes the workload's documents and warms up, which gives
one set-up sample.  The last one then drives ``jspec.cli.main`` in a
closed loop for ``--seconds`` (see worker.py).  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload and ends with one JSON object per workload.
Generated documents, span dumps and full results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import nearest_rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
COMMANDS = ("eig", "decompose", "member", "connect", "fan", "orbit-sample", "certify", "pointed-check")
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, mode: str, out_dir: str, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
        "--src", os.path.join(ROOT, "src"), "--out", out_dir,
    ]
    # set-up time runs from here to the worker's first timed op
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> dict:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    setups = [spawn(args, "setup", out_dir, deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, "run", out_dir, deadline)
    setups.append(res)
    un = res["untraced"]
    lat_ms = [1e3 * t for t in un["latencies_s"]]
    raw_ms = [1e3 * t for t in un["raw_latencies_s"]]
    n = len(lat_ms)
    attempted, failed = un["attempted"], un["failed"]
    failures = dict(un["failures"])
    # a known-defect probe is outside the timed mix; it counts as a failed
    # op only if it fails in a way other than the known defect
    for name, found in res["known_defects"].items():
        if found["status"] == "failed":
            attempted += 1
            failed += 1
            failures.setdefault(name, found["detail"])
    end_to_end = {
        "ops_per_s": un["ops_per_s"],
        "latency_p50_ms": nearest_rank(lat_ms, 0.5),
        "latency_p90_ms": nearest_rank(lat_ms, 0.9),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    raw_wall = {
        "ops_per_s": un["raw_ops_per_s"],
        "latency_p50_ms": nearest_rank(raw_ms, 0.5),
        "latency_p90_ms": nearest_rank(raw_ms, 0.9),
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
    }
    per_layer = None
    if args.trace:
        tr = res["trace"]
        per_layer = dict(tr["metrics"])
        for cmd in COMMANDS:
            mine = [t for t, c in zip(lat_ms, un["classes"]) if c.split(".")[0] == cmd]
            per_layer[f"cli.{cmd}.p50_ms"] = nearest_rank(mine, 0.5) if mine else 0.0
        attempted += tr["traced"]["attempted"]
        failed += tr["traced"]["failed"]
        for name, why in tr["traced"]["failures"].items():
            failures.setdefault(name, why)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": n,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "known_defects": res["known_defects"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
        "round_ops": res["round_ops"],
        "latencies_ms": lat_ms,
        "raw_latencies_ms": raw_ms,
        "classes": un["classes"],
        "class_p50_ms": {
            c: nearest_rank([t for t, k in zip(lat_ms, un["classes"]) if k == c], 0.5)
            for c in dict.fromkeys(un["classes"])
        },
        "end_to_end": end_to_end,
        "raw_wall": raw_wall,
        "per_layer": per_layer,
        "env": dict(res["env"], nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)), git_commit=git_commit(ROOT)),
    }
    if args.trace:
        record["absent_layers"] = res["trace"]["absent_layers"]
        record["trace_accounting"] = res["trace"]["accounting"]
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> dict:
    w = record["workload"]
    env = record["env"]
    print(f"# {w}: seed {record['seed']}, {record['seconds']} s, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"commit {env['git_commit']}")
    n = record["samples"]
    for name, value in record["end_to_end"].items():
        count = f"n={len(record['setup_samples_s'])} set-ups" if name == "setup_s" else f"n={n} ops"
        print(f"{w:9s} {name:16s} {value:12.4f} {END_TO_END_UNITS[name]:5s} ({count})")
    print(f"{w:9s} {'error_rate':16s} {record['failed']}/{record['attempted']} failed/attempted")
    print(f"{w:9s} unscaled wall time: " + ", ".join(
        f"{k} {v:.4f}" for k, v in record["raw_wall"].items()))
    for name, why in record["failures"].items():
        print(f"{w:9s} FAILED {name}: {why}")
    for name, found in record["known_defects"].items():
        if found["status"] == "present":
            print(f"{w:9s} KNOWN DEFECT {name}, still present (untimed probe): {found['detail']}")
        elif found["status"] == "fixed":
            print(f"{w:9s} KNOWN DEFECT {name} no longer reproduces: "
                  "give it a weight in workloads.py so that it is timed")
    if record["per_layer"] is not None:
        for name, value in record["per_layer"].items():
            print(f"{w:9s} {name:40s} {value:.6g}")
        if record["absent_layers"]:
            print(f"{w:9s} absent layers: {', '.join(record['absent_layers'])}")
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    units = UNITS_PER_LAYER if record["trace"] else END_TO_END_UNITS
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _per_layer_units() -> dict:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls_per_op": "count", f"{layer}.self_ms_per_op": "ms",
                      f"{layer}.self_share": "ratio"})
    units.update({f"cli.{c}.p50_ms": "ms" for c in COMMANDS})
    units.update({
        "spectral.eigen_map.calls_per_op": "count",
        "spectral.eigen_map.self_ms_per_op": "ms",
        "spectral.frame_builds_per_op": "count",
        "spectral.frame_build_ms_per_op": "ms",
        "algebra.jordan_product.calls_per_op": "count",
        "spectral.compose_theta.calls_per_op": "count",
        "spectral.compose_theta.self_ms_per_op": "ms",
        "orbits.haar_draws_per_op": "count",
        "rng.generators_per_op": "count",
        "rng.build_ms_per_op": "ms",
        "permsets.margin_rows_per_op": "count",
        "nnls.max_residual": "norm",
        "spectralsets.certify_accept_ratio": "ratio",
        "io.parse_ms_per_op": "ms",
        "io.render_ms_per_op": "ms",
        "io.bytes_out_per_op": "bytes",
        "trace_overhead": "ratio",
    })
    return units


UNITS_PER_LAYER = _per_layer_units()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jspec", "cli.py")):
        print(f"bench: no jspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        results[name] = report(measure(argparse.Namespace(**{**vars(args), "workload": name}), deadline))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
