"""Self-tests of the benchmark itself (not of jspec).

    python3 -m pytest -q bench/selftest.py

They check that documents are a pure function of the seed, that every
command's verifier rejects a corrupted output, that traced counts repeat
exactly, that per-layer self times add up to the op wall time, and that
the benchmark refuses to run without the jspec sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI = worker.load_jspec(os.path.join(ROOT, "src"))


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _built(tmp_path, workload, seed, tag):
    root = str(tmp_path / tag)
    classes = workloads.build(workload, seed, root)
    argvs = [[os.path.relpath(a, root) if a.startswith(root) else a for a in c.argv] for c in classes]
    return _files(root), argvs


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_documents_are_a_function_of_the_seed(tmp_path, workload):
    first = _built(tmp_path, workload, 7, "a")
    again = _built(tmp_path, workload, 7, "b")
    other = _built(tmp_path, workload, 8, "c")
    assert first == again
    assert first[0].keys() == other[0].keys()
    assert first[0] != other[0]


def _classes(tmp_path, workload):
    return {c.name: c for c in workloads.build(workload, 3, str(tmp_path / workload))}


def _output(op):
    _, rc, out, err = worker.run_op(CLI, op)
    op.check(rc, out, err)  # the uncorrupted output passes
    return rc, json.loads(out) if out.strip() else None, err


def _rejects(op, rc, payload, err):
    with pytest.raises(oracle.Mismatch):
        op.check(rc, json.dumps(payload), err)


def test_verifier_flags_a_perturbed_eigenvalue(tmp_path):
    spectra = _classes(tmp_path, "spectra")
    op = spectra["eig.herm"]
    rc, payload, err = _output(op)
    payload["lambda"][3] += 1e-6
    _rejects(op, rc, payload, err)

    op = spectra["decompose.product"]
    rc, payload, err = _output(op)
    bad = copy.deepcopy(payload)
    bad["lambda"][0] += 1e-6
    _rejects(op, rc, bad, err)
    bad = copy.deepcopy(payload)
    bad["frame"][0], bad["frame"][1] = bad["frame"][1], bad["frame"][0]
    _rejects(op, rc, bad, err)  # idempotents no longer paired with their eigenvalues


def test_verifier_flags_a_dropped_path_sample(tmp_path):
    op = _classes(tmp_path, "paths")["connect.herm4"]
    rc, payload, err = _output(op)
    for drop in (0, len(payload["samples"]) // 2, -1):
        bad = copy.deepcopy(payload)
        del bad["samples"][drop]
        _rejects(op, rc, bad, err)


def test_verifier_flags_a_path_that_leaves_the_set(tmp_path):
    op = _classes(tmp_path, "paths")["connect.sym6-distinct"]
    rc, payload, err = _output(op)
    bad = copy.deepcopy(payload)
    mid = bad["samples"][len(bad["samples"]) // 2]["data"]
    for i in range(6):
        mid[i][i] -= 10.0
    _rejects(op, rc, bad, err)


def test_verifier_flags_flipped_verdicts(tmp_path):
    paths = _classes(tmp_path, "paths")
    sampling = _classes(tmp_path, "sampling")
    for op, key in (
        (paths["member.in"], "member"),
        (paths["member.out"], "member"),
        (sampling["certify.orthant"], "accepted"),
        (sampling["certify.overlap"], "accepted"),
    ):
        rc, payload, err = _output(op)
        payload[key] = not payload[key]
        _rejects(op, rc, payload, err)

    op = sampling["pointed-check.rearr52"]
    rc, payload, err = _output(op)
    _rejects(op, rc, {"verdict": "witness", "witness": [1.0, 0, 0, 0, 0]}, err)
    op = sampling["pointed-check.halfspace5"]
    rc, payload, err = _output(op)
    _rejects(op, rc, {"verdict": "no-violation-found"}, err)
    bad = dict(payload, witness=[abs(t) + 1.0 for t in payload["witness"]])
    _rejects(op, rc, bad, err)

    op = paths["connect.finite-obstruction"]
    rc, payload, err = _output(op)
    with pytest.raises(oracle.Mismatch):
        op.check(0, "{}", "")


def test_verifier_flags_wrong_fan_and_orbit_samples(tmp_path):
    sampling = _classes(tmp_path, "sampling")
    op = sampling["fan.sym3"]
    rc, payload, err = _output(op)
    payload["Delta"] += 1e-6
    _rejects(op, rc, payload, err)

    op = sampling["orbit-sample.herm4"]
    rc, payload, err = _output(op)
    bad = copy.deepcopy(payload)
    bad["samples"][5]["data"]["re"][0][0] += 1e-6
    _rejects(op, rc, bad, err)
    bad = copy.deepcopy(payload)
    del bad["samples"][-1]
    _rejects(op, rc, bad, err)


def test_verifier_rejects_invalid_json_and_wrong_exit_code(tmp_path):
    op = _classes(tmp_path, "spectra")["eig.product"]
    with pytest.raises(oracle.Mismatch):
        op.check(0, '{"lambda": [nan]}', "")
    with pytest.raises(oracle.Mismatch):
        op.check(3, "", "jspec: numeric failure")


def _traced_pass(classes):
    """One traced op per class, after an untraced warm-up as in worker.py."""
    for op in classes:
        worker.run_op(CLI, op)
    loop = worker.Loop(CLI, classes)
    return worker.traced_pass(loop, classes), loop


def _counts(metrics):
    """The metrics that count work rather than time it."""
    return {
        k: v for k, v in metrics.items()
        if k.endswith(("_per_op", "max_residual", "accept_ratio")) and not k.endswith("_ms_per_op")
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    classes = list(_classes(tmp_path, workload).values())
    runs = []
    for _ in range(2):
        tr, loop = _traced_pass(classes)
        runs.append(_counts(tracing.summarize(tr, loop.latencies, loop.scales, loop.bytes_out)["metrics"]))
    assert runs[0] == runs[1]
    assert runs[0]["algebra.calls_per_op"] > 0


def test_self_times_and_remainder_add_up_to_the_op_wall_time(tmp_path):
    classes = list(_classes(tmp_path, "paths").values())
    tr, loop = _traced_pass(classes)
    spans = tr.spans
    selfs = tr.self_times()
    assert (selfs >= -1e-9).all()
    for row in spans:  # children lie inside their parent
        if row[3] >= 0:
            parent = spans[row[3]]
            assert parent[1] <= row[1] <= row[2] <= parent[2]
    for k, wall in enumerate(loop.latencies):
        mine = [i for i, row in enumerate(spans) if row[4] == k]
        top = sum(spans[i][2] - spans[i][1] for i in mine if spans[i][3] < 0)
        remainder = wall - top
        assert 0.0 <= remainder < 0.05 * wall
        assert sum(selfs[i] for i in mine) + remainder == pytest.approx(wall, rel=1e-9, abs=1e-12)
    acc = tracing.summarize(tr, loop.latencies, loop.scales, loop.bytes_out)["accounting"]
    total = sum(acc["self_s_by_layer"].values()) + acc["remainder_s"]
    assert total == pytest.approx(acc["wall_s"], rel=1e-9)


class _FixedCli:
    """Stands in for jspec.cli: prints one payload and exits 0."""

    def __init__(self, payload):
        self.payload = payload

    def main(self, argv):
        print(json.dumps(self.payload))
        return 0


def test_a_known_defect_is_probed_and_not_timed(tmp_path):
    classes = list(_classes(tmp_path, "sampling").values())
    op = next(c for c in classes if c.known_defect)
    assert op not in worker.mix(classes)
    rejected = {"accepted": False, "failed_clause": "nonnegative-reconstruction", "detail": "residual 1.0"}
    assert worker.probe(_FixedCli(rejected), op)["status"] == "present"
    assert worker.probe(_FixedCli({"accepted": True}), op)["status"] == "fixed"
    # a failure other than the known one is a failed op
    assert worker.probe(_FixedCli({"accepted": False, "failed_clause": "x"}), op)["status"] == "failed"
    assert worker.probe(_FixedCli({}), op)["status"] == "failed"


def test_a_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", (*tracing.LAYERS, "retired"))
    classes = list(_classes(tmp_path, "spectra").values())[:1]
    tr, loop = _traced_pass(classes)
    assert tr.absent == ["retired"]
    metrics = tracing.summarize(tr, loop.latencies, loop.scales, loop.bytes_out)["metrics"]
    assert metrics["retired.calls_per_op"] == 0


def test_uninstall_restores_the_library(tmp_path):
    import jspec.spectral
    import numpy as np

    before = (jspec.spectral.eigen_map, np.random.default_rng, jspec.spectral.JordanFrame.__init__)
    _traced_pass(list(_classes(tmp_path, "spectra").values())[:1])
    after = (jspec.spectral.eigen_map, np.random.default_rng, jspec.spectral.JordanFrame.__init__)
    assert before == after


def test_run_fails_without_the_jspec_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
