"""End-to-end CLI tests over the JSON interface and its exit-code contract."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspec import (
    ComplexHermitian,
    Element,
    RealSymmetric,
    SpinFactor,
    coordinate_algebra,
    element_from_sym,
    random_element,
)
from jspec import cli, errors, orbits, permsets, spectral
from jspec import spectralsets as ss
from jspec.algebra import distance
from jspec.io import (
    _element_texts,
    emit_algebra,
    emit_element,
    parse_algebra,
    parse_element,
    parse_permset,
    render_json,
)


def run_module(args, stdin):
    """`python -m jspec.cli` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "jspec.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """`cli.main` in this process, returning the exit code, stdout and
    stderr that `run_module` would; `stdin` is the text read for "-"."""

    def run(args, stdin=None):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        capsys.readouterr()
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# eig / decompose


def test_eig_diagonal_stdin():
    doc = {"alg": {"kind": "sym", "n": 2}, "data": [[1.0, 0.0], [0.0, 0.0]]}
    proc = run_module(["eig"], stdin=json.dumps(doc))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lambda": [1, 0]}


def test_eig_spin(run_cli):
    doc = {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1.0, "xbar": [1.0, 0.0]}}
    proc = run_cli(["eig"], stdin=json.dumps(doc))
    assert json.loads(proc.stdout) == {"lambda": [2, 0]}


def test_eig_malformed_json_exits_2(run_cli):
    proc = run_cli(["eig"], stdin='{"alg": nope}')
    assert proc.returncode == 2
    assert proc.stderr


def test_eig_asymmetric_matrix_exits_2(run_cli):
    doc = {"alg": {"kind": "sym", "n": 2}, "data": [[1.0, 0.5], [0.4, 0.0]]}
    proc = run_cli(["eig"], stdin=json.dumps(doc))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"alg": {"kind": "sym", "n": 2}, "data": [[float("nan"), 0.0], [0.0, 1.0]]},
        {"alg": {"kind": "sym", "n": 2}, "data": [[float("inf"), 0.0], [0.0, 1.0]]},
        {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1.0, "xbar": [float("nan"), 0.0]}},
        # finite as written; symmetrizing (m + m.T) / 2 overflows to inf
        {"alg": {"kind": "sym", "n": 2}, "data": [[1e308, 0.0], [0.0, 1.0]]},
    ],
    ids=["nan-sym", "inf-sym", "nan-spin-xbar", "overflow-sym"],
)
def test_eig_non_finite_element_exits_2(tmp_path, capsys, doc):
    path = write_json(tmp_path, "x.json", doc)
    assert cli.main(["eig", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_eig_sweep_cap_exits_3(tmp_path, capsys, monkeypatch):
    # LAPACK gives up after its own iteration cap and raises LinAlgError;
    # both the eigenvalue-only and the eigenvector path must map that to 3.
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", no_convergence)
    monkeypatch.setattr(spectral.np.linalg, "eigh", no_convergence)
    doc = {
        "alg": {"kind": "sym", "n": 3},
        "data": [[1.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 3.0]],
    }
    path = write_json(tmp_path, "x.json", doc)
    for cmd in ("eig", "decompose"):
        assert cli.main([cmd, path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "numeric failure" in err


def test_eig_lapack_non_finite_result_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        spectral.np.linalg, "eigvalsh", lambda m: np.array([np.nan, 1.0, 2.0])
    )
    doc = {
        "alg": {"kind": "sym", "n": 3},
        "data": [[1.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 3.0]],
    }
    assert cli.main(["eig", write_json(tmp_path, "x.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure" in err


def test_non_finite_payload_exits_3(tmp_path, capsys, monkeypatch):
    # stdout is always valid JSON: a NaN reaching the renderer is a numeric
    # failure, not a line of invalid JSON
    monkeypatch.setattr(cli, "eigen_map", lambda x: np.array([np.nan]))
    doc = {"alg": {"kind": "sym", "n": 1}, "data": [[1.0]]}
    assert cli.main(["eig", write_json(tmp_path, "x.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure" in err


@pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["algebra-n", "permset-m"])
def test_document_sizes_must_be_json_integers(tmp_path, capsys, field, value):
    # each value used to be coerced with int() into a valid size
    if field == "algebra-n":
        doc = {"alg": {"kind": "sym", "n": value}, "data": np.eye(int(value)).tolist()}
        argv = ["eig", write_json(tmp_path, "x.json", doc)]
    else:
        doc = {"set": "rearr", "n": 3, "m": value}
        argv = ["pointed-check", write_json(tmp_path, "set.json", doc), "--samples", "10"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "JSON integer" in err


def test_eig_negative_zero_prints_zero(tmp_path, capsys):
    # a stored -0.0 unpacks as +0.0, so the zero eigenvalue prints as 0
    doc = {"alg": {"kind": "sym", "n": 2}, "data": [[1.0, -0.0], [-0.0, -0.0]]}
    assert cli.main(["eig", write_json(tmp_path, "x.json", doc)]) == 0
    assert capsys.readouterr().out == '{"lambda": [1, 0]}\n'


_SYM2 = {"alg": {"kind": "sym", "n": 2}, "data": [[3.0, 0.0], [0.0, 1.0]]}
_REARR2 = {"set": "rearr", "n": 2, "m": 1}


def _spin3(x0, xbar):
    return {"alg": {"kind": "spin", "d": 3}, "data": {"x0": x0, "xbar": xbar}}


class _Text(str):
    """A document given as raw text, written to a file: json.dumps cannot
    build nesting this deep."""


class _Stdin(_Text):
    """Raw document text read from stdin, as "-"."""


_DEEP_ARRAY = "[" * 100_000
_DEEP_PRODUCT = '{"kind": "product", "factors": [' * 600 + '{"kind": "sym", "n": 1}' + "]}" * 600
_POINT1 = {"set": "finite", "points": [[1.0]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["eig", {"alg": {"kind": "sym", "n": 2}, "data": [["1.5", "0"], ["0", True]]}],
        ["eig", {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[1, 0], [0, 1]], "im": [[0, None], [None, 0]]}}],
        ["eig", _spin3("2", [1.0, 0.0])],
        ["eig", _spin3(2.0, ["1", False])],
        ["eig", _spin3([2.0], [1.0, 0.0])],
        ["components", {"set": "finite", "points": [["1", True, 0]]}, {"kind": "sym", "n": 3}],
        ["connect", _REARR2, _SYM2, _SYM2, "--qpath", {"vertices": [["3", 1], [3, 1]]}],
        ["sum-split", _SYM2, _REARR2, _REARR2, "--q1", '["1", 0.5]', "--q2", "[2, 0.5]"],
        ["eig", {"alg": {"kind": "sym", "n": 1}, "data": [[10**400]]}],
        ["eig", _Text(_DEEP_ARRAY)],
        ["eig", _Stdin(_DEEP_ARRAY)],
        ["components", _POINT1, _Text(_DEEP_PRODUCT)],
        ["components", _POINT1, _Stdin(_DEEP_PRODUCT)],
        ["sum-split", _SYM2, _REARR2, _REARR2, "--q1", _DEEP_ARRAY, "--q2", "[2, 0.5]"],
    ],
    ids=[
        "sym-data", "herm-null", "spin-x0", "spin-xbar", "spin-x0-list", "finite", "qpath", "q1",
        "huge-int", "deep-array-file", "deep-array-stdin", "deep-product-file",
        "deep-product-stdin", "deep-q1",
    ],
)
def test_non_numeric_json_exits_2(tmp_path, capsys, monkeypatch, argv):
    # JSON true, strings, null and lists are never read as numbers, an
    # integer too large for a float is an input error, not a traceback, and
    # so is nesting too deep for the JSON decoder
    def path(i, item):
        if isinstance(item, _Stdin):
            monkeypatch.setattr(sys, "stdin", io.StringIO(item))
            return "-"
        if isinstance(item, _Text):
            (tmp_path / f"doc{i}.json").write_text(item)
            return str(tmp_path / f"doc{i}.json")
        return write_json(tmp_path, f"doc{i}.json", item) if isinstance(item, dict) else item

    argv = [path(i, item) for i, item in enumerate(argv)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize(
    "handler, argv",
    [
        ("_orbit_coords", ["orbit-sample", "x.json", "--count", "1000000000000"]),
        ("pointed_sample_check", ["pointed-check", "set.json", "--samples", "1000000000000"]),
    ],
)
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, handler, argv):
    # the handler is patched to fail as numpy does, so nothing is allocated
    def unable_to_allocate(*args):
        raise MemoryError("Unable to allocate 29.1 TiB")

    monkeypatch.setattr(cli, handler, unable_to_allocate)
    write_json(tmp_path, "x.json", _SYM2)
    write_json(tmp_path, "set.json", _REARR2)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "input error" in err


_Y2 = {"alg": {"kind": "sym", "n": 2}, "data": [[2.5, 1.5], [1.5, 2.5]]}


@pytest.mark.parametrize(
    "argv, floats",
    [
        # 100 Haar draws of a 2x2 orthogonal matrix
        (["orbit-sample", "x.json", "--count", "100"], 100 * 2 * 2),
        # 100 samples of a Gaussian and a sort key in R^2
        (["pointed-check", "set.json", "--samples", "100"], 2 * 100 * 2),
        # 3 legs of 100 samples of sym(2), dim 3, plus the audit's matrices
        (["connect", "set.json", "x.json", "y.json", "--steps", "100"], 3 * 100 * 3 * 3),
        # 50 candidates per sample in R^2, plus the eigenvalue pass's matrices
        (["certify", "set.json", "cert.json", "--samples", "100"], 3 * 50 * 100 * 2),
        # the frame and compositions of 2 components of sym(2), dim 3
        (["components", "finite.json", "sym2.json"], 2 * 2 * 3),
    ],
    ids=["orbit-sample", "pointed-check", "connect", "certify", "components"],
)
def test_float_budget_bounds_stacks(tmp_path, capsys, monkeypatch, argv, floats):
    # the largest stack fits a budget of exactly its size and exits 2, with
    # nothing on stdout, one float below it
    write_json(tmp_path, "x.json", _SYM2)
    write_json(tmp_path, "y.json", _Y2)
    write_json(tmp_path, "set.json", _REARR2)
    rn2 = coordinate_algebra(2)
    rays = {"parts": [[emit_element(Element(rn2, r))] for r in np.eye(2)]}
    write_json(tmp_path, "cert.json", rays)
    write_json(tmp_path, "finite.json", {"set": "finite", "points": [[1, 0], [2, 0]]})
    write_json(tmp_path, "sym2.json", {"kind": "sym", "n": 2})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(errors, "FLOAT_BUDGET", floats)
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(errors, "FLOAT_BUDGET", floats - 1)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"over the budget of {floats - 1}" in err


def test_float_budget_is_checked_before_allocating(tmp_path, capsys, monkeypatch):
    # by arithmetic only: nothing here can reach an allocation
    with pytest.raises(ValueError, match="over the budget"):
        errors.check_float_budget(errors.FLOAT_BUDGET + 1, "one float too many")
    errors.check_float_budget(errors.FLOAT_BUDGET, "exactly the budget")
    with pytest.raises(ValueError, match="over the budget"):
        orbits._haar(3, None, 10**12, unitary=True)  # no generator to draw from

    def no_generator(seed):
        raise AssertionError("a generator was built for an oversized request")

    monkeypatch.setattr(permsets.np.random, "default_rng", no_generator)
    cone = permsets.make_rearrangement_cone(3, 1)
    with pytest.raises(ValueError, match="over the budget"):
        permsets.pointed_sample_check(cone, 10**12, 0)
    # certify draws 50 candidates per sample in one stack, so an oversized
    # --samples is refused before the draw
    rn3 = coordinate_algebra(3)
    rays = ss.DecompositionCertificate(tuple((Element(rn3, r),) for r in np.eye(3)))
    with pytest.raises(ValueError, match="over the budget"):
        ss.certificate_check(ss.SpectralSet(rn3, cone), rays, 10**12, 0)
    # connect on x == y returns its two endpoints and builds no stack
    write_json(tmp_path, "x.json", _SYM2)
    write_json(tmp_path, "set.json", _REARR2)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["connect", "set.json", "x.json", "x.json", "--steps", str(10**12)]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) == 2


def test_decompose_reports_frame(tmp_path, run_cli):
    x = random_element(RealSymmetric(3), 7)
    proc = run_cli(["decompose"], stdin=json.dumps(emit_element(x)))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["frame"]) == 3
    assert sorted(payload["lambda"], reverse=True) == payload["lambda"]


# ---------------------------------------------------------------------------
# member / connect


def test_member_psd(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = element_from_sym(RealSymmetric(3), np.diag([1.0, 2.0, 3.0]))
    proc = run_cli(["member", set_path], stdin=json.dumps(emit_element(x)))
    assert json.loads(proc.stdout) == {"member": True}
    y = element_from_sym(RealSymmetric(3), np.diag([1.0, 2.0, -3.0]))
    proc = run_cli(["member", set_path], stdin=json.dumps(emit_element(y)))
    assert json.loads(proc.stdout) == {"member": False}


def test_connect_psd_pair(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = element_from_sym(RealSymmetric(3), np.diag([2.0, 1.0, 0.5]))
    y = element_from_sym(RealSymmetric(3), np.diag([1.0, 0.7, 0.3]))
    x_path = write_json(tmp_path, "x.json", emit_element(x))
    y_path = write_json(tmp_path, "y.json", emit_element(y))
    proc = run_cli(["connect", set_path, x_path, y_path, "--steps", "6"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "max_step" in payload and payload["max_step"] >= 0.0
    samples = [parse_element(doc) for doc in payload["samples"]]
    assert len(samples) >= 6


def test_connect_equal_endpoints_two_samples(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = element_from_sym(RealSymmetric(3), np.diag([2.0, 1.0, 0.5]))
    x_path = write_json(tmp_path, "x.json", emit_element(x))
    proc = run_cli(["connect", set_path, x_path, x_path])
    payload = json.loads(proc.stdout)
    assert len(payload["samples"]) == 2
    assert payload["max_step"] == 0


@pytest.mark.parametrize("k", [530, -565])
def test_connect_endpoints_far_from_one(tmp_path, run_cli, k):
    # at 2^530 the trace-form sums of squares overflow and at 2^-565 they
    # underflow: distinct endpoints scaled by 2^530 still get a full path,
    # and the 2-sample shortcut at 2^-565 (distance <= 1e-12 * max(1, norm))
    # reports their true distance
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
    y = np.array([[1.0, 0.0, 0.3], [0.0, 0.8, 0.0], [0.3, 0.0, 1.5]])
    xs, ys = (element_from_sym(RealSymmetric(3), np.ldexp(m, k)) for m in (x, y))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(z)) for name, z in (("x", xs), ("y", ys))]
    proc = run_cli(["connect", set_path, *paths, "--steps", "6"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    if k > 0:
        assert len(payload["samples"]) == 3 * 6 - 2
        samples = [parse_element(doc) for doc in payload["samples"]]
        assert payload["max_step"] == max(distance(p, q) for p, q in zip(samples, samples[1:]))
        assert math.isfinite(payload["max_step"]) and payload["max_step"] > 2.0 ** 500
    else:
        assert len(payload["samples"]) == 2
        assert payload["max_step"] == distance(xs, ys) > 0.0


def _spin3(xbar):
    return {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 0.0, "xbar": xbar}}


def _sym_diag(values):
    return {"alg": {"kind": "sym", "n": len(values)}, "data": np.diag(values).tolist()}


@pytest.mark.parametrize(
    "command, doc, expected",
    [
        (["member", {"set": "tracenorm", "n": 3}], _sym_diag([3e160, 1e160, 1e160]), {"member": True}),
        (["member", {"set": "tracenorm", "n": 3}], _sym_diag([1e-170, -0.9e-170, 0.0]), {"member": False}),
        (["eig"], _spin3([3e-160, 4e-160]), {"lambda": [4.9999999999999999e-160, -4.9999999999999999e-160]}),
        (["decompose"], _spin3([3e-160, 4e-160]), None),
        (["eig"], _spin3([1e-200, 1e-200]), {"lambda": [1.414213562373095e-200, -1.414213562373095e-200]}),
        (["eig"], _spin3([1e200, 1e200]), {"lambda": [1.414213562373095e200, -1.414213562373095e200]}),
    ],
    ids=["tracenorm-member-1e160", "tracenorm-nonmember-1e-170", "spin-eig-5e-160",
         "spin-decompose-5e-160", "spin-eig-1e-200", "spin-eig-1e200"],
)
def test_sums_of_squares_far_from_one(tmp_path, run_cli, command, doc, expected):
    # sums of squares that overflow above ~1e154 and underflow below
    # ~1e-154 gave wrong verdicts, wrong spin eigenvalues, a refused spin
    # frame and an overflow; in process, so any numpy warning fails the test
    argv = [write_json(tmp_path, "set.json", c) if isinstance(c, dict) else c for c in command]
    proc = run_cli(argv, stdin=json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    if expected is not None:
        assert json.loads(proc.stdout) == expected


def test_spin_radius_past_the_largest_double_exits_3(run_cli):
    # |xbar| = 2.4e308 is no double: a numeric failure, in process, with
    # nothing on stdout and no numpy overflow warning on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run_cli(["eig"], stdin=json.dumps(_spin3([1.7e308, 1.7e308])))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "past the largest double" in proc.stderr
    assert [str(w.message) for w in caught] == []


def test_connect_sample_leaving_a_finite_set_exits_4(tmp_path, run_cli):
    # the segment between two points of a finite set leaves it at the
    # first sweep sample, after leg 1's 4 samples
    a = coordinate_algebra(3)
    set_path = write_json(tmp_path, "set.json", {"set": "finite", "points": [[3, 2, 1], [4, 2, 0]]})
    x_path, y_path = (write_json(tmp_path, f"{name}.json", emit_element(Element(a, np.array(v, dtype=float))))
                      for name, v in (("x", [3, 2, 1]), ("y", [4, 2, 0])))
    q_path = write_json(tmp_path, "q.json", {"vertices": [[3, 2, 1], [4, 2, 0]]})
    proc = run_cli(["connect", set_path, x_path, y_path, "--qpath", q_path, "--steps", "4"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "path-membership-audit" in proc.stderr and "path sample 4" in proc.stderr


def test_connect_coordinate_vectors_exit_4(tmp_path, run_cli):
    a = coordinate_algebra(3)
    set_path = write_json(tmp_path, "set.json", {"set": "finite", "points": [[1, 0, 0]]})
    c1 = write_json(tmp_path, "c1.json", emit_element(Element(a, np.array([1.0, 0, 0]))))
    c2 = write_json(tmp_path, "c2.json", emit_element(Element(a, np.array([0, 1.0, 0]))))
    proc = run_cli(["connect", set_path, c1, c2])
    assert proc.returncode == 4
    assert "no-path-in-finite-set" in proc.stderr


def test_connect_product_convex_set_without_qpath(tmp_path, run_cli):
    # a convex Q takes the segment between the factor blocks on a product too
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 4, "m": 1})
    x_path = write_json(tmp_path, "x.json", _sym2_spin3([[1.5, 0.5], [0.5, 1.5]], 1.5, [0.3, 0.4]))
    y_path = write_json(tmp_path, "y.json", _sym2_spin3([[1.0, 0.2], [0.2, 1.0]], 1.0, [0.0, 0.6]))
    proc = run_cli(["connect", set_path, x_path, y_path, "--steps", "5"])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["samples"]) == 3 * 5 - 2


def test_connect_distinct_orbits_of_a_finite_set_exit_4(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "finite", "points": [[1, 0, 0], [2, 0, 0]]})
    x_path = write_json(tmp_path, "x.json", _sym([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    y_path = write_json(tmp_path, "y.json", _sym([[0, 0, 0], [0, 2, 0], [0, 0, 0]]))
    proc = run_cli(["connect", set_path, x_path, y_path])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "no-path-in-finite-set" in proc.stderr


def test_connect_with_qpath_file(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    x = element_from_sym(RealSymmetric(2), np.diag([2.0, 1.0]))
    y = element_from_sym(RealSymmetric(2), np.diag([4.0, 0.5]))
    x_path = write_json(tmp_path, "x.json", emit_element(x))
    y_path = write_json(tmp_path, "y.json", emit_element(y))
    q_path = write_json(
        tmp_path, "q.json", {"vertices": [[2.0, 1.0], [3.0, 2.0], [4.0, 0.5]]}
    )
    proc = run_cli(["connect", set_path, x_path, y_path, "--qpath", q_path, "--steps", "5"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_connect_non_finite_tolerance_exits_2(tmp_path, capsys, tolerance):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    x = element_from_sym(RealSymmetric(2), np.diag([2.0, 1.0]))
    y = element_from_sym(RealSymmetric(2), np.diag([4.0, 0.5]))
    x_path = write_json(tmp_path, "x.json", emit_element(x))
    y_path = write_json(tmp_path, "y.json", emit_element(y))
    assert cli.main(["connect", set_path, x_path, y_path, "--tolerance", tolerance]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tolerance" in err


@pytest.mark.parametrize("set_doc", [_REARR2, {"set": "finite", "points": [[2, 1]]}])
def test_connect_negative_tolerance_exits_2(tmp_path, capsys, set_doc):
    # a negative audit slack used to exit 4 (qpath-endpoints) on the rearr
    # set and 2 with "q_path is required" on the finite one
    set_path = write_json(tmp_path, "set.json", set_doc)
    x_path = write_json(tmp_path, "x.json", {"alg": {"kind": "sym", "n": 2}, "data": [[2, 0], [0, 1]]})
    y_path = write_json(tmp_path, "y.json", {"alg": {"kind": "sym", "n": 2}, "data": [[1, 0], [0, 2]]})
    argv = ["connect", set_path, x_path, y_path, "--tolerance=-1e-12"]
    if set_doc["set"] == "rearr":
        argv += ["--qpath", write_json(tmp_path, "q.json", {"vertices": [[2, 1], [2, 1]]})]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tolerance must be a finite nonnegative number" in err


def test_connect_non_finite_qpath_vertex_exits_2(tmp_path, capsys):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    x = element_from_sym(RealSymmetric(2), np.diag([2.0, 1.0]))
    y = element_from_sym(RealSymmetric(2), np.diag([4.0, 0.5]))
    x_path = write_json(tmp_path, "x.json", emit_element(x))
    y_path = write_json(tmp_path, "y.json", emit_element(y))
    q_path = write_json(
        tmp_path, "q.json", {"vertices": [[2.0, 1.0], [float("nan"), 2.0], [4.0, 0.5]]}
    )
    assert cli.main(["connect", set_path, x_path, y_path, "--qpath", q_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def _sym(m):
    return {"alg": {"kind": "sym", "n": len(m)}, "data": m}


def _sym2_spin3(m, x0, xbar):
    return {
        "alg": {"kind": "product", "factors": [{"kind": "sym", "n": 2}, {"kind": "spin", "d": 3}]},
        "data": {"factors": [_sym(m), {"alg": {"kind": "spin", "d": 3}, "data": {"x0": x0, "xbar": xbar}}]},
    }


# sha256 of connect's stdout, recorded before connect was built as one
# coordinate stack (per-sample Elements, one LAPACK call per sample); the
# bytes follow numpy's bundled OpenBLAS/LAPACK on x86-64, whose kernels are
# picked per CPU, so the test also rebuilds each path one sample at a time;
# spin4 was re-recorded when a spin rotation took its sine as the length of
# v - (u.v) u instead of sqrt(1 - c^2) (6 of 40 coordinates moved, <= 1.7e-16)
_CONNECT_DIGESTS = {
    "sym3": (
        {"set": "rearr", "n": 3, "m": 1},
        _sym([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]]),
        _sym([[1.0, 0.0, 0.3], [0.0, 0.8, 0.0], [0.3, 0.0, 1.5]]),
        ["--steps", "6"],
        "b86547940a1b85826371db001ed4a5b20f507aadee83818a7f9946ea416c960d",
    ),
    "herm2": (
        {"set": "halfspace-trace", "n": 2},
        {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[1.5, 0.2], [0.2, 0.5]], "im": [[0.0, 0.3], [-0.3, 0.0]]}},
        {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[0.7, -0.1], [-0.1, 1.2]], "im": [[0.0, -0.4], [0.4, 0.0]]}},
        ["--steps", "5"],
        "7c16588acf381d256610df29d5a6f30fa08f2f95075dad3d57585c572948d9ad",
    ),
    "spin4": (
        {"set": "rearr", "n": 2, "m": 1},
        {"alg": {"kind": "spin", "d": 4}, "data": {"x0": 2.0, "xbar": [0.5, 1.0, -0.3]}},
        {"alg": {"kind": "spin", "d": 4}, "data": {"x0": 1.5, "xbar": [-0.2, 0.4, 0.9]}},
        ["--steps", "4"],
        "840502491f8915e4308aa14f6f67a0d005ca0dea665e2d282be54bd29f11f5f9",
    ),
    "product-qpath": (
        {"set": "rearr", "n": 4, "m": 1},
        _sym2_spin3([[1.5, 0.5], [0.5, 1.5]], 1.5, [0.3, 0.4]),
        _sym2_spin3([[1.0, 0.2], [0.2, 1.0]], 1.0, [0.0, 0.6]),
        ["--steps", "4", "--qpath", {"vertices": [[2.0, 1.0, 2.0, 1.0], [2.5, 1.5, 2.5, 1.5], [1.2, 0.8, 1.6, 0.4]]}],
        "30b16dd925bdd25f6a04672fe1da67f4ffbc7167a2198026e33db579a6232ed8",
    ),
}


@pytest.mark.parametrize("case", sorted(_CONNECT_DIGESTS))
def test_connect_stdout_bytes_are_pinned(tmp_path, capsys, case):
    set_doc, x_doc, y_doc, flags, digest = _CONNECT_DIGESTS[case]
    argv = ["connect"] + [write_json(tmp_path, f"{name}.json", doc) for name, doc in
                          (("set", set_doc), ("x", x_doc), ("y", y_doc))]
    argv += [write_json(tmp_path, "q.json", f) if isinstance(f, dict) else f for f in flags]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # host-independent: the same bytes from the path built sample by sample
    x, y = parse_element(x_doc), parse_element(y_doc)
    q_path = [np.array(v) for v in flags[-1]["vertices"]] if "--qpath" in flags else None
    samples = _connect_one_sample_at_a_time(x, y, q_path, int(flags[1]))
    stacked = ss.connect(ss.SpectralSet(x.algebra, parse_permset(set_doc)), x, y,
                         q_path=q_path, steps=int(flags[1]))
    assert np.array_equal(stacked.coords, [smp.coords for smp in samples])
    expected = {
        "samples": [emit_element(smp) for smp in samples],
        "max_step": max(distance(p, q) for p, q in zip(samples, samples[1:])),
        "tolerance": ss.PATH_TOL,
    }
    assert out == render_json(expected) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_COMPONENTS_DIGESTS = {
    "sym4": (
        [[3, 1, 1, -0.0], [0.1, 2.5, -1, 1e-7]],
        {"kind": "sym", "n": 4},
        "df3b80b0b1c03bc2bf0fa7a3da3fa13e4d9034d0296bcdf2f2f6d3e0be45522c",
    ),
    "herm3": (
        [[1.5, -2, 0.25], [0.30000000000000004, 0.1, 2]],
        {"kind": "herm", "n": 3},
        "fa842000246a56459efb83c5e861694c5ea40b360fbd43e86dc22d3d48af8efd",
    ),
    "sym2xspin3-repeated": (
        [[2, 2, 1, 0]],
        {"kind": "product", "factors": [{"kind": "sym", "n": 2}, {"kind": "spin", "d": 3}]},
        "4a08774faa104be8e505618dc1e6d3587f53301749d7435a7bdb30551e4032dd",
    ),
    "sym3xsym1xherm2-signed-zero": (
        [[1, -0.0, 0.5, 0.5, -1.25, 0.0]],
        {"kind": "product", "factors": [{"kind": "sym", "n": 3}, {"kind": "sym", "n": 1},
                                        {"kind": "herm", "n": 2}]},
        "0cfb8b229e1067cf2a0621d76cc8b93e74ddb448cb7e0f7195bf5e7a99b3556f",
    ),
    "r4-two-points": (
        [[1, 2, 3, 4], [0.1, 0.2, 0.2, -0.0]],
        {"kind": "product", "factors": [{"kind": "sym", "n": 1}] * 4},
        "1dc0da7666b6cfe88ced4ac062946f9497fccf7cbb6c417dcb1b00b9834a38f6",
    ),
    "spin4xherm2-two-points": (
        [[0.7, -0.0, 1e-3, 2.5], [1, 1, 1, 1]],
        {"kind": "product", "factors": [{"kind": "spin", "d": 4}, {"kind": "herm", "n": 2}]},
        "93e512f90ecb65ae6cd86244ca97789def5d67ff61381e1b907b954543d0b15c",
    ),
}


@pytest.mark.parametrize("case", sorted(_COMPONENTS_DIGESTS))
def test_components_stdout_bytes_are_pinned(tmp_path, capsys, case):
    # byte identity of `components` stdout over simple and product algebras,
    # with repeated entries, -0.0 and two points
    points, algebra_doc, digest = _COMPONENTS_DIGESTS[case]
    argv = ["components", write_json(tmp_path, "set.json", {"set": "finite", "points": points}),
            write_json(tmp_path, "alg.json", algebra_doc)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _seeded_doc(kind, n, rng):
    """An element document of a seeded Gaussian sym n, herm n or spin n,
    written from numpy, not by the emitter."""
    if kind == "spin":
        v = rng.standard_normal(n)
        return {"alg": {"kind": "spin", "d": n}, "data": {"x0": float(v[0]), "xbar": v[1:].tolist()}}
    m = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if kind == "herm" else 0)
    m = (m + m.conj().T) / 2.0
    data = m.tolist() if kind == "sym" else {"re": m.real.tolist(), "im": m.imag.tolist()}
    return {"alg": {"kind": kind, "n": n}, "data": data}


# sha256 of decompose's stdout, recorded before the emitter formatted each
# distinct number once; the frame follows numpy's bundled LAPACK on x86-64
_DECOMPOSE_DIGESTS = {
    "sym8": ([("sym", 8)], "9e0e90b5fd83958006fba9c672e81cd312d400f3952b17b1450daf1ed521f7dc"),
    "herm5": ([("herm", 5)], "954c5a3eaefd3ccbf087dbe062dac3ab0ea153bbefbfc6146ce2412f92128a69"),
    "sym3xherm2xspin4xsym1": (
        [("sym", 3), ("herm", 2), ("spin", 4), ("sym", 1)],
        "b1390167de74dd4970151e51348139b83111d6b741d72c6853d1876220d9f3ed",
    ),
}


@pytest.mark.parametrize("case", sorted(_DECOMPOSE_DIGESTS))
def test_decompose_stdout_bytes_are_pinned(tmp_path, capsys, case):
    # byte identity of the frame `decompose` prints: symmetric pairs, Hermitian
    # Im signs, the zero blocks of a product and a 1x1 factor
    factors, digest = _DECOMPOSE_DIGESTS[case]
    rng = np.random.default_rng(14)
    docs = [_seeded_doc(kind, n, rng) for kind, n in factors]
    doc = docs[0] if len(docs) == 1 else {
        "alg": {"kind": "product", "factors": [d["alg"] for d in docs]}, "data": {"factors": docs},
    }
    assert cli.main(["decompose", write_json(tmp_path, "x.json", doc)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _connect_one_sample_at_a_time(x, y, q_path, steps):
    """The samples of connect's three legs, each built on its own, as connect
    did before it was one stack: orbit legs, then one compose_theta per point
    of the coefficient sweep (endpoint membership and the audit left out)."""
    a = x.algebra
    frame = spectral.canonical_frame(a)
    if a.is_simple():
        start_q, end_q, leg = spectral.eigen_map(x), spectral.eigen_map(y), orbits.orbit_path
    else:
        start_q, end_q, leg = ss.factor_blocks(x), ss.factor_blocks(y), orbits.restricted_orbit_path
    vertices = [start_q, end_q]
    if q_path is not None:
        ranks = np.cumsum([0] + [f.rank for f in a.factors])
        vertices = [
            np.concatenate([np.sort(v[i:j])[::-1] for i, j in zip(ranks, ranks[1:])])
            for v in q_path
        ]
    sweep = []
    for u in np.linspace(0.0, float(len(vertices) - 1), steps):
        k = min(int(u), len(vertices) - 2)
        q = (1.0 - (u - k)) * vertices[k] + (u - k) * vertices[k + 1]
        sweep.append(spectral.compose_theta(q, frame))
    leg1 = leg(x, spectral.compose_theta(start_q, frame), steps).samples
    leg3 = leg(spectral.compose_theta(end_q, frame), y, steps).samples
    return list(leg1) + sweep[1:] + list(leg3[1:])


# ---------------------------------------------------------------------------
# fan / orbit-sample / components


def test_fan_s2_endpoints(tmp_path, run_cli):
    c = element_from_sym(RealSymmetric(2), np.diag([1.0, -1.0]))
    a = element_from_sym(RealSymmetric(2), np.diag([1.0, 0.0]))
    c_path = write_json(tmp_path, "c.json", emit_element(c))
    a_path = write_json(tmp_path, "a.json", emit_element(a))
    proc = run_cli(["fan", c_path, a_path, "--samples", "200", "--seed", "1"])
    payload = json.loads(proc.stdout)
    assert payload == {"delta": -1, "Delta": 1, "samples_in_interval": True}


def test_fan_large_scale_samples_in_interval(tmp_path, capsys):
    # every sample equals <c, a> up to rounding of size ~|c| |a| * eps
    c = element_from_sym(
        RealSymmetric(3), np.array([[3e4, 1e4, 0.0], [1e4, -2e4, 5e3], [0.0, 5e3, -1e4]])
    )
    a = element_from_sym(RealSymmetric(3), 1e4 * np.eye(3))
    c_path = write_json(tmp_path, "c.json", emit_element(c))
    a_path = write_json(tmp_path, "a.json", emit_element(a))
    for seed in ("0", "1", "2"):
        assert cli.main(["fan", c_path, a_path, "--samples", "200", "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["samples_in_interval"] is True


def test_fan_mismatched_algebras_exit_2(tmp_path, run_cli):
    c = element_from_sym(RealSymmetric(2), np.diag([1.0, -1.0]))
    a = element_from_sym(RealSymmetric(3), np.diag([1.0, 0.0, 0.0]))
    c_path = write_json(tmp_path, "c.json", emit_element(c))
    a_path = write_json(tmp_path, "a.json", emit_element(a))
    proc = run_cli(["fan", c_path, a_path])
    assert proc.returncode == 2


def test_orbit_sample_deterministic_bytes(tmp_path, run_cli):
    x = random_element(RealSymmetric(3), 5)
    stdin = json.dumps(emit_element(x))
    p1 = run_cli(["orbit-sample", "--count", "4", "--seed", "9"], stdin=stdin)
    p2 = run_cli(["orbit-sample", "--count", "4", "--seed", "9"], stdin=stdin)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout  # byte-identical
    payload = json.loads(p1.stdout)
    assert len(payload["samples"]) == 4


def test_components_coordinate_space(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "finite", "points": [[1, 0, 0]]})
    alg_path = write_json(
        tmp_path, "alg.json", emit_algebra(coordinate_algebra(3))
    )
    proc = run_cli(["components", set_path, alg_path])
    payload = json.loads(proc.stdout)
    assert len(payload["components"]) == 3


@pytest.mark.parametrize(
    "algebra_doc",
    [
        {"kind": "sym", "n": 4},
        {"kind": "product", "factors": [{"kind": "herm", "n": 2}, {"kind": "spin", "d": 3}]},
        {"kind": "product", "factors": [{"kind": "sym", "n": 3}, {"kind": "sym", "n": 1}]},
    ],
)
def test_components_stdout_is_emit_element_per_component(tmp_path, run_cli, algebra_doc):
    # one stacked emit renders each component as `emit_element` does alone
    set_doc = {"set": "finite", "points": [[2.0, -1.0, 0.5, 0.5], [0.0, 3.0, 1.0, -0.0]]}
    proc = run_cli(["components", write_json(tmp_path, "set.json", set_doc),
                    write_json(tmp_path, "alg.json", algebra_doc)])
    assert proc.returncode == 0
    sset = ss.SpectralSet(parse_algebra(algebra_doc), parse_permset(set_doc))
    per_component = [
        {"representative": c.representative, "description": c.description,
         "element": emit_element(c.element)}
        for c in ss.components_finite(sset)
    ]
    assert len(per_component) >= 2
    assert proc.stdout == render_json({"components": per_component}) + "\n"


def test_finite_set_non_finite_point_exits_2(tmp_path, capsys):
    alg_path = write_json(tmp_path, "alg.json", emit_algebra(RealSymmetric(3)))
    x_path = write_json(tmp_path, "x.json", emit_element(random_element(RealSymmetric(3), 0)))
    for bad in ("NaN", "Infinity", "-Infinity"):
        set_path = tmp_path / "set.json"
        set_path.write_text('{"set": "finite", "points": [[%s, 0, 0]]}' % bad)
        for argv in (["components", str(set_path), alg_path], ["member", str(set_path), x_path]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "finite" in err


# ---------------------------------------------------------------------------
# certify / sum-split / pointed-check


def test_certify_orthant(tmp_path, run_cli):
    a = coordinate_algebra(3)
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    cert = {
        "parts": [[emit_element(Element(a, np.eye(3)[i]))] for i in range(3)]
    }
    cert_path = write_json(tmp_path, "cert.json", cert)
    proc = run_cli(["certify", set_path, cert_path, "--samples", "20", "--seed", "0"])
    payload = json.loads(proc.stdout)
    assert payload["accepted"] is True


def _coord_cert(parts):
    """A certificate document over R^3 from lists of generator coordinates."""
    a = coordinate_algebra(3)
    elements = [[Element(a, np.array(g, dtype=float)) for g in part] for part in parts]
    return {"parts": [[emit_element(g) for g in part] for part in elements]}


@pytest.mark.parametrize(
    "parts",
    [
        [[[100.0, 0, 0]], [[0, 0.01, 0]], [[0, 0, 1.0]]],  # projected gradient rejected it
        [[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]]],  # more generators than span
    ],
    ids=["rescaled-rays", "one-part"],
)
def test_certify_accepts_orthant_certificates(tmp_path, run_cli, parts):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    cert_path = write_json(tmp_path, "cert.json", _coord_cert(parts))
    proc = run_cli(["certify", set_path, cert_path, "--samples", "20", "--seed", "0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["accepted"] is True


@pytest.mark.parametrize("part", [5, "element"], ids=["number", "element"])
def test_certify_refuses_a_part_that_is_not_a_list(tmp_path, capsys, monkeypatch, part):
    element = emit_element(Element(coordinate_algebra(3), np.eye(3)[0]))
    write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    write_json(tmp_path, "cert.json", {"parts": [[element], element if part == "element" else part]})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["certify", "set.json", "cert.json", "--samples", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "each part a list of element documents" in err


def _singular(gram, rhs):
    raise np.linalg.LinAlgError("Singular matrix")


def _stuck(gram, rhs):
    return np.zeros_like(rhs)  # never moves, so KKT never holds


@pytest.mark.parametrize(
    "solve, message",
    [(_singular, "passive-set solve failed"), (_stuck, "KKT")],
    ids=["linalg-error", "kkt"],
)
def test_certify_nnls_failure_exits_3(tmp_path, capsys, monkeypatch, solve, message):
    # a solver failure is a numeric failure: never a reject, never an input error
    write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    write_json(tmp_path, "cert.json", _coord_cert([[g] for g in np.eye(3)]))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np.linalg, "solve", solve)
    assert cli.main(["certify", "set.json", "cert.json", "--samples", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure" in err and message in err


def test_float_budget_bounds_the_nnls_stack(tmp_path, capsys, monkeypatch):
    # one part of 40 generators over R^3: the NNLS stack of 2 members holds
    # 2 * 40 * 40 floats, more than the 3 * 100 * 3 of the 100 candidates
    gens = np.vstack([np.eye(3), np.random.default_rng(0).uniform(0.1, 1.0, (37, 3))])
    write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    write_json(tmp_path, "cert.json", _coord_cert([gens]))
    monkeypatch.chdir(tmp_path)
    argv = ["certify", "set.json", "cert.json", "--samples", "2", "--seed", "0"]
    monkeypatch.setattr(errors, "FLOAT_BUDGET", 2 * 40 * 40)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True
    monkeypatch.setattr(errors, "FLOAT_BUDGET", 2 * 40 * 40 - 1)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "NNLS of 2 rows over 40 generators would hold 3200 floats" in err


def test_finite_orbit_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # 8! assignments of a point with distinct entries to the 8 scalar blocks
    # of R^8, 8 floats each: only `components` builds them, parsing never does
    r8 = coordinate_algebra(8)
    write_json(tmp_path, "set.json", {"set": "finite", "points": [list(range(8))]})
    write_json(tmp_path, "x.json", emit_element(Element(r8, np.arange(8.0))))
    write_json(tmp_path, "r8.json", emit_algebra(r8))
    # the same point over blocks of ranks 7 and 1 has 8 assignments, not 8!
    s7s1 = {"kind": "product", "factors": [{"kind": "sym", "n": 7}, {"kind": "sym", "n": 1}]}
    write_json(tmp_path, "s7s1.json", s7s1)
    monkeypatch.chdir(tmp_path)
    floats = 40320 * 8
    monkeypatch.setattr(errors, "FLOAT_BUDGET", floats)
    assert cli.main(["components", "set.json", "s7s1.json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["components"]) == 8
    monkeypatch.setattr(errors, "FLOAT_BUDGET", floats - 1)
    assert cli.main(["member", "set.json", "x.json"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert cli.main(["components", "set.json", "r8.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the 40320 factor-block assignments of 1 points in R^8 would hold 322560 floats" in err


def test_finite_set_over_sym9_is_served(tmp_path, capsys, monkeypatch):
    # no rank cap: a finite set over sym(9) parses, and member, connect and
    # components exit 0, over sym(9) and over the rank-9 product sym4 x sym5
    sym9 = RealSymmetric(9)
    write_json(tmp_path, "set.json", {"set": "finite", "points": [list(range(9))]})
    for name, q in (("x.json", np.arange(9.0)), ("y.json", np.arange(9.0)[::-1])):
        write_json(tmp_path, name, emit_element(element_from_sym(sym9, np.diag(q))))
    write_json(tmp_path, "sym9.json", emit_algebra(sym9))
    s4s5 = {"kind": "product", "factors": [{"kind": "sym", "n": 4}, {"kind": "sym", "n": 5}]}
    write_json(tmp_path, "s4s5.json", s4s5)
    write_json(tmp_path, "r9.json", emit_algebra(coordinate_algebra(9)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["member", "set.json", "x.json"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert cli.main(["connect", "set.json", "x.json", "y.json", "--steps", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["samples"]) >= 2
    assert cli.main(["components", "set.json", "sym9.json"]) == 0
    (comp,) = json.loads(capsys.readouterr().out)["components"]
    assert comp["representative"] == list(range(8, -1, -1))
    # C(9, 4) = 126 ways to split nine distinct entries into blocks of 4 and 5
    assert cli.main(["components", "set.json", "s4s5.json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["components"]) == 126
    # R^9 is refused by the float budget alone, at 9! assignments x 9 floats
    monkeypatch.setattr(errors, "FLOAT_BUDGET", 362880 * 9 - 1)
    assert cli.main(["components", "set.json", "r9.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the 362880 factor-block assignments of 1 points in R^9 would hold" in err


def test_components_beyond_rank_8_are_the_block_splits(tmp_path, capsys, monkeypatch):
    # sym6 x sym6 and twelve distinct entries: one component per choice of
    # the six entries of the first block, each block sorted, no two equal
    point = [3.5, -1.0, 0.0, 7.25, 2.0, 1e-3, -4.0, 11.0, 0.5, 6.0, -2.5, 9.0]
    s6s6 = {"kind": "product", "factors": [{"kind": "sym", "n": 6}] * 2}
    write_json(tmp_path, "set.json", {"set": "finite", "points": [point]})
    write_json(tmp_path, "s6s6.json", s6s6)
    write_json(tmp_path, "r12.json", emit_algebra(coordinate_algebra(12)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["components", "set.json", "s6s6.json"]) == 0
    reps = [c["representative"] for c in json.loads(capsys.readouterr().out)["components"]]
    assert len(reps) == 924
    for rep in reps:
        assert sorted(rep) == sorted(point)
        assert rep[:6] == sorted(rep[:6], reverse=True)
        assert rep[6:] == sorted(rep[6:], reverse=True)
    assert all(p < q for p, q in zip(reps, reps[1:]))  # distinct, lexicographic
    # R^12 has 12! assignments, refused before any is built
    assert cli.main(["components", "set.json", "r12.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the 479001600 factor-block assignments of 1 points in R^12 would hold" in err


def test_components_composition_is_budgeted_before_the_frame(tmp_path, capsys, monkeypatch):
    # sym(20000) and one 20,000-entry point: the frame alone would be n^2
    # floats, so the composition is refused before anything of that size
    def no_frame(a):
        raise AssertionError("a canonical frame was built for an oversized request")

    monkeypatch.setattr(ss, "canonical_frame", no_frame)
    write_json(tmp_path, "set.json", {"set": "finite", "points": [list(range(20000))]})
    write_json(tmp_path, "sym.json", {"kind": "sym", "n": 20000})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["components", "set.json", "sym.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "the composition of 1 components in dimension 200010000 would hold" in err


def test_the_library_never_imports_scipy():
    # scipy is a test-only reference solver
    code = "import sys, jspec, jspec.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_certify_rejects_psd_split(tmp_path, run_cli):
    a = RealSymmetric(2)
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    cert = {
        "parts": [
            [emit_element(element_from_sym(a, np.diag([1.0, 0.0])))],
            [
                emit_element(element_from_sym(a, np.diag([0.0, 1.0]))),
                emit_element(element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))),
            ],
        ]
    }
    cert_path = write_json(tmp_path, "cert.json", cert)
    proc = run_cli(["certify", set_path, cert_path, "--samples", "40", "--seed", "1"])
    payload = json.loads(proc.stdout)
    assert payload["accepted"] is False
    assert payload["failed_clause"] in ("span-independence", "nonnegative-reconstruction")


def test_sum_split_cli(tmp_path, run_cli):
    a = RealSymmetric(2)
    z = element_from_sym(a, np.diag([3.0, 1.0]))
    z_path = write_json(tmp_path, "z.json", emit_element(z))
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    proc = run_cli(
        ["sum-split", z_path, set_path, set_path, "--q1", "[1.5, 0.5]", "--q2", "[1.5, 0.5]"]
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    part1 = parse_element(payload["part1"])
    assert np.allclose(part1.coords, element_from_sym(a, np.diag([1.5, 0.5])).coords)


def test_sum_split_bad_split_exit_4(tmp_path, run_cli):
    a = RealSymmetric(2)
    z = element_from_sym(a, np.diag([3.0, 1.0]))
    z_path = write_json(tmp_path, "z.json", emit_element(z))
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    proc = run_cli(
        ["sum-split", z_path, set_path, set_path, "--q1", "[1.0, 0.5]", "--q2", "[1.5, 0.5]"]
    )
    assert proc.returncode == 4


def test_sum_split_non_finite_split_exits_2(tmp_path, capsys):
    a = RealSymmetric(2)
    z_path = write_json(tmp_path, "z.json", emit_element(element_from_sym(a, np.diag([3.0, 1.0]))))
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    argv = ["sum-split", z_path, set_path, set_path, "--q1", "[NaN, 0.5]", "--q2", "[1.5, 0.5]"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_pointed_check_halfspace_witness(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "halfspace-trace", "n": 2})
    proc = run_cli(["pointed-check", set_path, "--samples", "1000", "--seed", "0"])
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "witness"
    assert abs(sum(payload["witness"])) <= 1e-12


def test_pointed_check_rearrangement_clean(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 4, "m": 2})
    proc = run_cli(["pointed-check", set_path, "--samples", "2000", "--seed", "0"])
    assert json.loads(proc.stdout) == {"verdict": "no-violation-found"}


def test_bad_permset_document_exit_2(tmp_path, run_cli):
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 3})
    proc = run_cli(["pointed-check", set_path])
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# sampling commands over small documents


def run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_reused_parser_carries_no_state(tmp_path):
    # main builds its parser once per process; every call must still print
    # what a fresh process prints for the same command line
    set_path = write_json(tmp_path, "set.json", _REARR2)
    x_path = write_json(tmp_path, "x.json", {"alg": {"kind": "sym", "n": 2}, "data": [[2, 0], [0, 1]]})
    y_path = write_json(tmp_path, "y.json", {"alg": {"kind": "sym", "n": 2}, "data": [[2.5, 1.5], [1.5, 2.5]]})
    q_path = write_json(tmp_path, "q.json", {"vertices": [[2, 1], [3, 2], [4, 1]]})
    argvs = [
        ["connect", set_path, x_path, y_path, "--qpath", q_path, "--steps", "5"],
        ["connect", set_path, x_path, y_path],
        ["eig", y_path],
        ["decompose", y_path],
        ["fan", x_path, y_path, "--seed", "3"],
        ["fan", x_path, y_path],
    ]
    in_process = [run_in_process(argv) for argv in argvs]
    with pytest.raises(SystemExit) as exc:
        run_in_process(["fan", x_path, y_path, "--seed", "-1"])
    assert exc.value.code == 2
    assert cli.build_parser() is cli.build_parser()
    fresh = [
        subprocess.Popen([sys.executable, "-m", "jspec.cli", *argv], stdout=subprocess.PIPE, text=True)
        for argv in argvs
    ]
    for argv, (code, out), proc in zip(argvs, in_process, fresh):
        fresh_out, _ = proc.communicate()
        assert (code, out) == (proc.returncode, fresh_out), argv
        assert code == 0, argv
    assert run_in_process(argvs[-1]) == in_process[-1]


SAMPLING_ALGEBRAS = [
    RealSymmetric(1),
    RealSymmetric(3),
    ComplexHermitian(2),
    SpinFactor(4),
    coordinate_algebra(3),
]
SAMPLING_SETS = [
    {"set": "rearr", "n": 3, "m": 1},
    {"set": "rearr", "n": 3, "m": 3},
    {"set": "halfspace-trace", "n": 3},
    {"set": "tracenorm", "n": 3},
    {"set": "finite", "points": [[0, 0, 0]]},
    {"set": "finite", "points": [[1, 0, 0]]},
]


@settings(max_examples=25, deadline=None)
@given(
    command=st.sampled_from(["fan", "orbit-sample", "pointed-check", "certify"]),
    algebra=st.sampled_from(SAMPLING_ALGEBRAS),
    set_doc=st.sampled_from(SAMPLING_SETS),
    values=st.lists(st.floats(-10, 10), min_size=9, max_size=9),
    count=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_commands_exit_codes_and_rerun_bytes(
    command, algebra, set_doc, values, count, seed
):
    def element_doc(a, v):
        return emit_element(Element(a, np.resize(np.asarray(v), a.dim)))

    with tempfile.TemporaryDirectory() as tmp:
        def path(name, payload):
            full = os.path.join(tmp, name)
            with open(full, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            return full

        x_path = path("x.json", element_doc(algebra, values))
        set_path = path("set.json", set_doc)
        if command == "fan":
            c_path = path("c.json", element_doc(algebra, values[::-1]))
            argv = ["fan", c_path, x_path, "--samples", str(count)]
        elif command == "orbit-sample":
            argv = ["orbit-sample", x_path, "--count", str(count)]
        elif command == "pointed-check":
            argv = ["pointed-check", set_path, "--samples", str(count)]
        else:
            rn3 = coordinate_algebra(3)
            parts = [[element_doc(rn3, np.abs(values[3 * i : 3 * i + 3]))] for i in range(3)]
            cert_path = path("cert.json", {"parts": parts})
            argv = ["certify", set_path, cert_path, "--samples", str(count)]
        argv += ["--seed", str(seed)]
        code, out = run_in_process(argv)
        assert (code, out) == run_in_process(argv)
    assert code in (0, 2, 3, 4)
    if out:
        json.loads(out)
    assert bool(out) == (code == 0)


# ---------------------------------------------------------------------------
# fuzzed exit-code contract

_DROP, _RAGGED = object(), object()
_MUTATIONS = st.one_of(
    st.sampled_from([_DROP, _RAGGED]),
    st.sampled_from(["x", None, True, {}, [], 1.5, [[1.0], [1.0, 2.0]]]),  # wrong JSON types
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),  # NaN / Infinity literals
    st.integers(-2, 8),  # sizes and counts
)


def _element_doc(kind, size, values):
    k = max(size, 0)
    m = np.resize(values, (k, k))
    if kind == "sym":
        return {"alg": {"kind": "sym", "n": size}, "data": ((m + m.T) / 2).tolist()}
    if kind == "herm":
        re, im = (m + m.T) / 2, (m - m.T) / 2
        return {"alg": {"kind": "herm", "n": size}, "data": {"re": re.tolist(), "im": im.tolist()}}
    if kind == "spin":
        xbar = np.resize(values, max(size - 1, 0))
        return {"alg": {"kind": "spin", "d": size}, "data": {"x0": values[0], "xbar": xbar.tolist()}}
    parts = [_element_doc("sym", 2, values), _element_doc("spin", size, values[::-1])]
    return {
        "alg": {"kind": "product", "factors": [p["alg"] for p in parts]},
        "data": {"factors": parts},
    }


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, parents first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, mutation):
    *head, key = path
    for step in head:
        doc = doc[step]
    if mutation is _DROP:
        del doc[key]
    elif mutation is _RAGGED:  # a row one short, or a scalar next to a list
        if isinstance(doc[key], list) and doc[key]:
            doc[key].pop()
        else:
            doc[key] = [doc[key], [doc[key]]]
    else:
        doc[key] = copy.deepcopy(mutation)


@st.composite
def fuzzed_commands(draw):
    """A command line over small valid documents, with up to three of them
    mutated: a key dropped, a value of the wrong JSON type, NaN or
    Infinity, a row made ragged, or a size or count in [-2, 8]."""
    kind = draw(st.sampled_from(["sym", "herm", "spin", "product"]))
    size = draw(st.integers(-2, 8))
    values = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=4))
    rank = {"sym": size, "herm": size, "spin": 2, "product": 4}[kind]
    q = np.resize(np.abs(values), max(min(rank, 4), 0)).tolist()
    set_doc = draw(st.sampled_from([
        {"set": "rearr", "n": rank, "m": draw(st.integers(-2, 8))},
        {"set": "tracenorm", "n": rank},
        {"set": "halfspace-trace", "n": rank},
        {"set": "finite", "points": [q]},  # at most 4! orbit points
    ]))
    element = _element_doc(kind, size, values)
    other = _element_doc(kind, size, values[::-1])
    count = str(draw(st.integers(-2, 8)))
    command = draw(st.sampled_from([
        "eig", "decompose", "member", "connect", "fan", "orbit-sample",
        "components", "certify", "sum-split", "pointed-check",
    ]))
    docs, flags = {
        "eig": ({"x": element}, []),
        "decompose": ({"x": element}, []),
        "member": ({"set": set_doc, "x": element}, []),
        "connect": ({"set": set_doc, "x": element, "y": other}, ["--steps", count]),
        "fan": ({"c": other, "a": element}, ["--samples", count]),
        "orbit-sample": ({"x": element}, ["--count", count]),
        "components": ({"set": set_doc, "alg": element["alg"]}, []),
        "certify": ({"set": set_doc, "cert": {"parts": [[element], [other]]}}, ["--samples", count]),
        "sum-split": ({"z": element, "s1": set_doc, "s2": set_doc, "q1": q, "q2": q}, []),
        "pointed-check": ({"set": set_doc}, ["--samples", count]),
    }[command]
    if command == "connect" and draw(st.booleans()):
        docs["qpath"] = {"vertices": [q, q]}
    docs = copy.deepcopy(docs)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(docs)))
        paths = list(_paths(docs[name]))
        if paths:
            _mutate(docs[name], draw(st.sampled_from(paths)), draw(_MUTATIONS))
    return command, docs, flags


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=80, deadline=None)
@given(fuzzed_commands())
def test_mutated_documents_keep_the_exit_code_contract(case):
    command, docs, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for name, doc in docs.items():
            if name in ("q1", "q2"):
                argv += [f"--{name}", json.dumps(doc)]
                continue
            full = os.path.join(tmp, f"{name}.json")
            with open(full, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv += ["--qpath", full] if name == "qpath" else [full]
        try:
            code, out = run_in_process(argv + flags)
        except SystemExit as exc:  # argparse rejects the command line
            code, out = exc.code, ""
    assert code in (0, 2, 3, 4)
    assert bool(out) == (code == 0)
    if out:
        assert out.endswith("\n") and "\n" not in out[:-1]
        _strict_json(out)


# ---------------------------------------------------------------------------
# document round trips


@pytest.mark.parametrize(
    "algebra_doc",
    [
        {"kind": "sym", "n": 3},
        {"kind": "herm", "n": 2},
        {"kind": "spin", "d": 4},
        {
            "kind": "product",
            "factors": [{"kind": "sym", "n": 2}, {"kind": "spin", "d": 3}],
        },
    ],
)
def test_element_round_trip_bit_stable(algebra_doc):
    from jspec.io import parse_algebra

    a = parse_algebra(algebra_doc)
    x = random_element(a, 99)
    doc = emit_element(x)
    rendered = render_json(doc)
    back = parse_element(json.loads(rendered))
    assert np.array_equal(back.coords, x.coords)
    assert render_json(emit_element(back)) == rendered


@pytest.mark.parametrize(
    "algebra_doc",
    [
        {"kind": "sym", "n": 3},
        {"kind": "herm", "n": 2},
        {"kind": "spin", "d": 4},
        {"kind": "product", "factors": [{"kind": "herm", "n": 2}, {"kind": "spin", "d": 3}]},
    ],
)
def test_stacked_element_docs_are_emit_element_per_row(algebra_doc):
    a = parse_algebra(algebra_doc)
    xs = [random_element(a, seed) for seed in range(5)]
    texts = _element_texts(a, [x.coords for x in xs])
    assert texts == [render_json(emit_element(x)) for x in xs]
    assert render_json(texts) == render_json([emit_element(x) for x in xs])
    assert render_json(_element_texts(a, [])) == "[]"


def test_render_json_float_style():
    assert render_json({"v": 1.0}) == '{"v": 1}'
    assert render_json([0.5, -2.0]) == "[0.5, -2]"
    x = 0.1 + 0.2
    assert float(render_json(x)) == x
