"""End-to-end CLI tests over the JSON interface and its exit-code contract."""

import contextlib
import copy
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jspec import (
    ComplexHermitian,
    Element,
    ProductAlgebra,
    RealSymmetric,
    SpinFactor,
    coordinate_algebra,
    eigen_map,
    element_from_sym,
    random_element,
)
from jspec import algebra, cli, errors, orbits, permsets, spectral
from jspec import spectralsets as ss
from jspec.algebra import distance, join_product, split_product
from jspec.io import (
    _element_array,
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


def _outcome(proc):
    return proc.returncode, proc.stdout, proc.stderr


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
    ],
    ids=["nan-sym", "inf-sym", "nan-spin-xbar"],
)
def test_eig_non_finite_element_exits_2(tmp_path, capsys, doc):
    path = write_json(tmp_path, "x.json", doc)
    assert cli.main(["eig", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def _product3(sym=None, herm=None, spin=None):
    """A sym(2) x herm(2) x spin(3) element document; a given factor
    document replaces the valid one."""
    factors = [
        sym or {"alg": {"kind": "sym", "n": 2}, "data": [[2.0, 0.5], [0.5, 1.0]]},
        herm or {"alg": {"kind": "herm", "n": 2},
                 "data": {"re": [[1.0, 0.2], [0.2, 3.0]], "im": [[0.0, 0.4], [-0.4, 0.0]]}},
        spin or {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1.5, "xbar": [0.3, 0.4]}},
    ]
    algebras = [{"kind": "sym", "n": 2}, {"kind": "herm", "n": 2}, {"kind": "spin", "d": 3}]
    return {"alg": {"kind": "product", "factors": algebras}, "data": {"factors": factors}}


def _herm2(re, im):
    return {"alg": {"kind": "herm", "n": 2}, "data": {"re": re, "im": im}}


_NAN_SYM2 = {"alg": {"kind": "sym", "n": 2}, "data": [[float("nan"), 0.5], [0.5, 1.0]]}
_RAGGED_SYM2 = {"alg": {"kind": "sym", "n": 2}, "data": [[2.0, 0.5], [0.5]]}
_SHORT_SPIN3 = {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1.5, "xbar": [0.3]}}
_ASYM_HERM2 = _herm2([[1.0, 0.2], [0.25, 3.0]], [[0.0, 0.4], [-0.4, 0.0]])

# one fault per document, or two in different factors, where the first in
# document order is reported; the stderr texts are the ones recorded before
# products were read into one coordinate vector
_PARSE_FAULTS = {
    "factor-count": (
        {**_product3(), "data": {"factors": _product3()["data"]["factors"][:2]}},
        "jspec: input error: element: product data needs 3 factor documents\n",
    ),
    "factor-algebra": (
        _product3(herm={"alg": {"kind": "sym", "n": 2}, "data": [[1.0, 0.0], [0.0, 1.0]]}),
        "jspec: input error: element: factor document algebra RealSymmetric(n=2) "
        "does not match ComplexHermitian(n=2)\n",
    ),
    "nan-factor-0": (
        _product3(sym=_NAN_SYM2),
        "jspec: input error: element: coordinates must be finite numbers\n",
    ),
    "inf-factor-2": (
        _product3(spin={"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1.5, "xbar": [float("inf"), 0.4]}}),
        "jspec: input error: element: coordinates must be finite numbers\n",
    ),
    "bool-leaf": (
        _product3(sym={"alg": {"kind": "sym", "n": 2}, "data": [[True, 0.5], [0.5, 1.0]]}),
        "jspec: input error: element: expected JSON numbers, got bool\n",
    ),
    "string-leaf": (
        _product3(spin={"alg": {"kind": "spin", "d": 3}, "data": {"x0": "1.5", "xbar": [0.3, 0.4]}}),
        "jspec: input error: element x0: expected JSON numbers, got str\n",
    ),
    "ragged-rows": (
        _product3(sym=_RAGGED_SYM2),
        "jspec: input error: element: nested lists must have one shape\n",
    ),
    "asymmetric-re": (
        _product3(herm=_ASYM_HERM2),
        "jspec: input error: element: re part not symmetric (deviation 5.000e-02)\n",
    ),
    "asymmetric-im": (
        _product3(herm=_herm2([[1.0, 0.2], [0.2, 3.0]], [[0.0, 0.4], [-0.3, 0.0]])),
        "jspec: input error: element: im part not antisymmetric (deviation 1.000e-01)\n",
    ),
    "asymmetric-sym": (
        {"alg": {"kind": "sym", "n": 2}, "data": [[2.0, 0.5], [0.25, 1.0]]},
        "jspec: input error: element: matrix is not symmetric (deviation 2.500e-01)\n",
    ),
    "xbar-length": (
        _product3(spin=_SHORT_SPIN3),
        "jspec: input error: element: xbar must have length 2\n",
    ),
    "nested-product": (
        _product3(sym={"alg": {"kind": "product", "factors": [{"kind": "sym", "n": 2}]},
                       "data": {"factors": [_product3()["data"]["factors"][0]]}}),
        "jspec: input error: element: factor document algebra ProductAlgebra(factors=(RealSymmetric(n=2),)) "
        "does not match RealSymmetric(n=2)\n",
    ),
    "nested-product-inner-fault": (
        _product3(sym={"alg": {"kind": "product", "factors": [{"kind": "sym", "n": 2}]},
                       "data": {"factors": [_RAGGED_SYM2]}}),
        "jspec: input error: element: nested lists must have one shape\n",
    ),
    "ragged-0-and-xbar-2": (
        _product3(sym=_RAGGED_SYM2, spin=_SHORT_SPIN3),
        "jspec: input error: element: nested lists must have one shape\n",
    ),
    "nan-0-and-asymmetric-1": (
        _product3(sym=_NAN_SYM2, herm=_ASYM_HERM2),
        "jspec: input error: element: coordinates must be finite numbers\n",
    ),
    "asymmetric-1-and-nan-2": (
        _product3(herm=_ASYM_HERM2, spin={"alg": {"kind": "spin", "d": 3},
                                          "data": {"x0": float("nan"), "xbar": [0.3, 0.4]}}),
        "jspec: input error: element: re part not symmetric (deviation 5.000e-02)\n",
    ),
    "algebra-1-and-nan-2": (
        _product3(herm={"alg": {"kind": "sym", "n": 2}, "data": [[1.0, 0.0], [0.0, 1.0]]},
                  spin={"alg": {"kind": "spin", "d": 3}, "data": {"x0": float("nan"), "xbar": [0.3, 0.4]}}),
        "jspec: input error: element: factor document algebra RealSymmetric(n=2) "
        "does not match ComplexHermitian(n=2)\n",
    ),
    "nan-in-mismatched-factor": (
        _product3(herm=_NAN_SYM2),
        "jspec: input error: element: coordinates must be finite numbers\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_PARSE_FAULTS))
def test_element_faults_keep_their_exit_and_message(tmp_path, capsys, case):
    doc, stderr = _PARSE_FAULTS[case]
    path = write_json(tmp_path, "x.json", doc)
    for command in ("eig", "member"):
        argv = [command, path] if command == "eig" else [command, write_json(
            tmp_path, "set.json", {"set": "rearr", "n": 6, "m": 1}), path]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == stderr


# finite as written, with entries past MAX / 2, where the sum m + m.T of
# symmetrizing overflows: the coordinates each document is read into
_PAST_HALF_MAX = {
    "overflow-sym": ({"alg": {"kind": "sym", "n": 2}, "data": [[1e308, 0.0], [0.0, 1.0]]}, [1e308, 0.0, 1.0]),
    "overflow-factor-1": (
        _product3(herm=_herm2([[1.0, 1.5e308], [1.5e308, 3.0]], [[0.0, 0.0], [0.0, 0.0]])),
        [2.0, 0.5, 1.0, 1.0, 1.5e308, 0.0, 3.0, 1.5, 0.3, 0.4],
    ),
    "sym1": ({"alg": {"kind": "sym", "n": 1}, "data": [[1e308]]}, [1e308]),
    "herm1": ({"alg": {"kind": "herm", "n": 1}, "data": {"re": [[-1e308]], "im": [[0.0]]}}, [-1e308]),
    "herm2-im": (_herm2([[1.0, 0.0], [0.0, 2.0]], [[0.0, -1.2e308], [1.2e308, 0.0]]), [1.0, 0.0, 1.2e308, 2.0]),
    "spin3": ({"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1e308, "xbar": [0.0, 0.0]}}, [1e308, 0.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(_PAST_HALF_MAX))
def test_elements_past_half_max_parse_exactly(tmp_path, capsys, case):
    doc, coords = _PAST_HALF_MAX[case]
    x = parse_element(doc)
    assert x.coords.tobytes() == np.array(coords).tobytes()
    assert parse_element(emit_element(x)).coords.tobytes() == x.coords.tobytes()
    assert cli.main(["eig", write_json(tmp_path, "x.json", doc)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["lambda"] == eigen_map(x).tolist()


_NAN_IM_HERM2 = _herm2([[1.0, 0.0], [0.0, 2.0]], [[float("nan"), 0.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "command, doc, stderr",
    [
        ("eig", _NAN_IM_HERM2, "element: coordinates must be finite numbers"),
        ("decompose", _NAN_IM_HERM2, "element: coordinates must be finite numbers"),
        ("eig", _product3(herm=_NAN_IM_HERM2), "element: coordinates must be finite numbers"),
        ("decompose", _product3(herm=_NAN_IM_HERM2), "element: coordinates must be finite numbers"),
        # the first fault in document order is still the one reported
        ("eig", _product3(sym=_RAGGED_SYM2, herm=_NAN_IM_HERM2), "element: nested lists must have one shape"),
        ("eig", _product3(herm=_NAN_IM_HERM2, spin=_SHORT_SPIN3), "element: coordinates must be finite numbers"),
        ("eig", _herm2([[1.0, 0.0], [0.1, 2.0]], [[float("nan"), 0.0], [0.0, 0.0]]),
         "element: re part not symmetric (deviation 1.000e-01)"),
    ],
    ids=["eig", "decompose", "product-eig", "product-decompose", "ragged-before", "short-after", "asymmetric-re"],
)
def test_nan_on_the_diagonal_of_im_exits_2(tmp_path, capsys, command, doc, stderr):
    # a diagonal Im entry is in no coordinate, and NaN fails the
    # antisymmetry comparison, so only the reader's own check sees it
    path = write_json(tmp_path, "x.json", doc)
    assert cli.main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"jspec: input error: {stderr}\n"


def test_a_product_document_builds_one_element(monkeypatch):
    # no Element per factor: the factors are read into one coordinate
    # vector, the factor documents' own coordinates side by side
    from jspec import algebra

    factor_coords = [parse_element(f).coords for f in _product3()["data"]["factors"]]
    built, init = [], algebra.Element.__post_init__

    def count(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(algebra.Element, "__post_init__", count)
    x = parse_element(_product3())
    assert built == [x]
    assert x.coords.tobytes() == np.concatenate(factor_coords).tobytes()


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
        # a path of 3 * 100 - 2 samples of sym(2), dim 3, plus the audit's matrices
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


def test_decompose_spin_with_a_subnormal_vector_part(run_cli):
    # the axis is xbar divided by its own power of two, then by that
    # vector's length: a unit vector, not a frame refused as an input error
    xbar = np.array([-8.612e-320, -1.1213e-319])
    doc = {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 0, "xbar": xbar.tolist()}}
    proc = run_cli(["decompose"], stdin=json.dumps(doc))
    assert (proc.returncode, proc.stderr) == (0, "")
    axis = 2.0 * np.array(json.loads(proc.stdout)["frame"][0]["data"]["xbar"])
    unit = np.ldexp(xbar, 1074)  # exact: integers
    assert np.abs(axis - unit / math.hypot(*unit)).max() <= 1e-15


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
    # underflow: distinct endpoints at either scale get the full path, and
    # its max_step is their true largest step
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
    y = np.array([[1.0, 0.0, 0.3], [0.0, 0.8, 0.0], [0.3, 0.0, 1.5]])
    xs, ys = (element_from_sym(RealSymmetric(3), np.ldexp(m, k)) for m in (x, y))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(z)) for name, z in (("x", xs), ("y", ys))]
    proc = run_cli(["connect", set_path, *paths, "--steps", "6"])
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["samples"]) == 3 * 6 - 2
    samples = [parse_element(doc) for doc in payload["samples"]]
    assert payload["max_step"] == max(distance(p, q) for p, q in zip(samples, samples[1:]))
    assert 2.0 ** (k - 30) < payload["max_step"] < 2.0 ** (k + 30)


def test_connect_spin_near_the_largest_double(tmp_path, run_cli):
    # the eigenvalues of 2^1021 (x + 4e) sum past the largest double, their
    # halves do not: the sweep composes from the halves, with nothing on stderr
    a = SpinFactor(4)
    x, y = (np.ldexp(random_element(a, seed).coords + 4 * algebra.unit_element(a).coords, 1021) for seed in (1, 2))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(Element(a, z))) for name, z in (("x", x), ("y", y))]
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 2, "m": 1})
    proc = run_cli(["connect", set_path, *paths, "--steps", "5"])
    assert (proc.returncode, proc.stderr) == (0, "")
    samples = [parse_element(doc).coords for doc in json.loads(proc.stdout)["samples"]]
    assert len(samples) == 3 * 5 - 2
    assert samples[0].tolist() == x.tolist()
    assert np.allclose(samples[-1], y, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize(
    "q_set, diagonal, member",
    [
        ({"set": "tracenorm", "n": 4}, [1e308, 1e308, 1e308, 0.0], True),
        ({"set": "tracenorm", "n": 4}, [1.7e308, 1.7e308, 1.7e308, 0.0], True),
        ({"set": "halfspace-trace", "n": 5}, [1.7e308, 1.7e308, -1.7e308, -1.7e308, -1e300], False),
        ({"set": "halfspace-trace", "n": 5}, [x / 1024 for x in (1.7e308, 1.7e308, -1.7e308, -1.7e308, -1e300)], False),
        ({"set": "finite", "points": [[-1.7e308, -1.7e308]]}, [1.7e308, 1.7e308], False),
    ],
    ids=["tracenorm-1e308", "tracenorm-1.7e308", "halfspace-1.7e308", "halfspace-1.7e308/2^10", "finite-1.7e308"],
)
def test_member_near_the_largest_double(tmp_path, run_cli, q_set, diagonal, member):
    # margins that overflow: a cone's verdict is the sign of its margin at x
    # divided by its power of two, 5.5e307 and 9.4e307 for the trace norm
    # cones and -1e300 for the half-space, and a finite set's gap is +inf;
    # in process, so any numpy warning fails the test
    x = element_from_sym(RealSymmetric(len(diagonal)), np.diag(diagonal))
    proc = run_cli(["member", write_json(tmp_path, "set.json", q_set)], stdin=json.dumps(emit_element(x)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"member": member}


def test_connect_with_a_trace_past_the_largest_double(tmp_path, run_cli):
    # the halfspace-trace margins of these herm3 endpoints, about 2.7e308,
    # are past the largest double: +inf, with no numpy overflow warning
    a = ComplexHermitian(3)
    x, y = (np.ldexp(random_element(a, seed).coords + 4 * algebra.unit_element(a).coords, 1021) for seed in (1, 2))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(Element(a, z))) for name, z in (("x", x), ("y", y))]
    set_path = write_json(tmp_path, "set.json", {"set": "halfspace-trace", "n": 3})
    for argv in (["member", set_path, paths[0]], ["connect", set_path, *paths, "--steps", "4"]):
        proc = run_cli(argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_non_finite_number_after_a_stack_exits_3(tmp_path, capsys, monkeypatch):
    # the document is rendered whole before its first piece is written: a
    # NaN rendered after the pieces of the samples leaves stdout empty
    connect = cli.ss.connect

    def nan_tolerance(*args, **kw):
        path = connect(*args, **kw)
        return orbits.PathPolyline(path.algebra, path.coords, math.nan)

    monkeypatch.setattr(cli.ss, "connect", nan_tolerance)
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    x = element_from_sym(RealSymmetric(3), np.diag([2.0, 1.0, 0.5]))
    y = element_from_sym(RealSymmetric(3), np.diag([1.0, 0.7, 0.3]))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(z)) for name, z in (("x", x), ("y", y))]
    assert cli.main(["connect", set_path, *paths, "--steps", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "non-finite number nan" in err


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


@pytest.mark.parametrize("command", ["eig", "fan"])
def test_spin_eigenvalue_past_the_largest_double_exits_3(tmp_path, run_cli, command):
    # x0 and |xbar| are doubles, x0 + |xbar| = 2e308 is not: the spin
    # element is scaled before the sum, so the eigenvalue is named where it
    # arises, in process, with no numpy overflow warning on the way
    doc = {"alg": {"kind": "spin", "d": 3}, "data": {"x0": 1e308, "xbar": [1e308, 0]}}
    path = write_json(tmp_path, "x.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run_cli([command, path] + ([path] if command == "fan" else []))
    assert [str(w.message) for w in caught] == []
    assert _outcome(proc) == (3, "", "jspec: numeric failure: an eigenvalue is past the largest double\n")


def test_connect_sample_leaving_a_finite_set_exits_4(tmp_path, run_cli):
    # the segment between two points of a finite set leaves it at the
    # first sweep sample, after the orbit leg's 2 * 4 - 1 samples
    a = coordinate_algebra(3)
    set_path = write_json(tmp_path, "set.json", {"set": "finite", "points": [[3, 2, 1], [4, 2, 0]]})
    x_path, y_path = (write_json(tmp_path, f"{name}.json", emit_element(Element(a, np.array(v, dtype=float))))
                      for name, v in (("x", [3, 2, 1]), ("y", [4, 2, 0])))
    q_path = write_json(tmp_path, "q.json", {"vertices": [[3, 2, 1], [4, 2, 0]]})
    proc = run_cli(["connect", set_path, x_path, y_path, "--qpath", q_path, "--steps", "4"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "path-membership-audit" in proc.stderr and "path sample 7" in proc.stderr


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


def test_connect_qpath_vertex_outside_q_exits_4(tmp_path, run_cli):
    # the second of four vertices leaves the rearrangement cone; it is named
    set_path = write_json(tmp_path, "set.json", _REARR2)
    x_path = write_json(tmp_path, "x.json", emit_element(element_from_sym(RealSymmetric(2), np.diag([2.0, 1.0]))))
    y_path = write_json(tmp_path, "y.json", emit_element(element_from_sym(RealSymmetric(2), np.diag([4.0, 0.5]))))
    q_path = write_json(tmp_path, "q.json", {"vertices": [[2.0, 1.0], [3.0, -1.0], [3.5, -2.0], [4.0, 0.5]]})
    proc = run_cli(["connect", set_path, x_path, y_path, "--qpath", q_path])
    assert _outcome(proc) == (4, "", "jspec: infeasible [qpath-membership]: q_path vertex 1 is not in Q\n")


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


# sha256 of connect's stdout, recorded when the witness became two legs (an
# orbit leg onto y's frame, then the sweep in that frame); the bytes follow
# numpy's bundled OpenBLAS/LAPACK on x86-64, whose kernels are picked per
# CPU, so the test also rebuilds each path one sample at a time
_CONNECT_DIGESTS = {
    "sym3": (
        {"set": "rearr", "n": 3, "m": 1},
        _sym([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]]),
        _sym([[1.0, 0.0, 0.3], [0.0, 0.8, 0.0], [0.3, 0.0, 1.5]]),
        ["--steps", "6"],
        "70cecbba443ff3901240f6746b760521bafe265740a12c91d58c2e9595189bba",
    ),
    "herm2": (
        {"set": "halfspace-trace", "n": 2},
        {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[1.5, 0.2], [0.2, 0.5]], "im": [[0.0, 0.3], [-0.3, 0.0]]}},
        {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[0.7, -0.1], [-0.1, 1.2]], "im": [[0.0, -0.4], [0.4, 0.0]]}},
        ["--steps", "5"],
        "0803e273444bd3981efffe318df3cac3f60d1bb93a1bd6c91be488aea5298fe0",
    ),
    "spin4": (
        {"set": "rearr", "n": 2, "m": 1},
        {"alg": {"kind": "spin", "d": 4}, "data": {"x0": 2.0, "xbar": [0.5, 1.0, -0.3]}},
        {"alg": {"kind": "spin", "d": 4}, "data": {"x0": 1.5, "xbar": [-0.2, 0.4, 0.9]}},
        ["--steps", "4"],
        "744f6d69df26f80bef123e44dbf5b039a4deba878a222dea75809c7639bfd731",
    ),
    "product-qpath": (
        {"set": "rearr", "n": 4, "m": 1},
        _sym2_spin3([[1.5, 0.5], [0.5, 1.5]], 1.5, [0.3, 0.4]),
        _sym2_spin3([[1.0, 0.2], [0.2, 1.0]], 1.0, [0.0, 0.6]),
        ["--steps", "4", "--qpath", {"vertices": [[2.0, 1.0, 2.0, 1.0], [2.5, 1.5, 2.5, 1.5], [1.2, 0.8, 1.6, 0.4]]}],
        "068b3c7c2be6e762f5b0f421d13d369f806059c304e5304f221426fb82ee72e5",
    ),
}


# a finite Q over sym(2) whose two points differ only next to 1e12: the
# segment's midpoint diag(1e12, 0) is not in Q, so there is no path
_FAR_FINITE = (
    {"set": "finite", "points": [[1e12, 0.5], [1e12, -0.5]]},
    _sym([[1e12, 0.0], [0.0, 0.5]]),
    _sym([[1e12, 0.0], [0.0, -0.5]]),
)


def _connect_argv(tmp_path, set_doc, x_doc, y_doc, flags=()):
    argv = ["connect"] + [write_json(tmp_path, f"{name}.json", doc) for name, doc in
                          (("set", set_doc), ("x", x_doc), ("y", y_doc))]
    return argv + [write_json(tmp_path, "q.json", f) if isinstance(f, dict) else f for f in flags]


@pytest.mark.parametrize("case", sorted(_CONNECT_DIGESTS))
def test_connect_stdout_bytes_are_pinned(tmp_path, capsys, case):
    set_doc, x_doc, y_doc, flags, digest = _CONNECT_DIGESTS[case]
    assert cli.main(_connect_argv(tmp_path, set_doc, x_doc, y_doc, flags)) == 0
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


def test_connect_distinct_points_of_a_finite_set_near_1e12_exit_4(tmp_path, run_cli):
    # distinct endpoints are never joined by a 2-sample shortcut, however
    # close they are relative to their norm
    proc = run_cli(_connect_argv(tmp_path, *_FAR_FINITE))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "no-path-in-finite-set" in proc.stderr


@pytest.mark.parametrize("gap", [5e-9, 2e-8])
def test_connect_agrees_with_components_on_close_finite_points(tmp_path, run_cli, gap):
    # `components` lists the two points of Q as two components, so `connect`
    # must find no path from one to the other, even closer than PATH_TOL
    set_doc = {"set": "finite", "points": [[2.0, 1.0], [2.0 + gap, 1.0]]}
    x_doc, y_doc = _sym([[2.0, 0.0], [0.0, 1.0]]), _sym([[2.0 + gap, 0.0], [0.0, 1.0]])
    set_path, alg_path, x_path, y_path = (write_json(tmp_path, f"{name}.json", doc) for name, doc in (
        ("set", set_doc), ("alg", {"kind": "sym", "n": 2}), ("x", x_doc), ("y", y_doc)))
    comps = run_cli(["components", set_path, alg_path])
    assert comps.returncode == 0 and len(json.loads(comps.stdout)["components"]) == 2
    proc = run_cli(["connect", set_path, x_path, y_path, "--steps", "4"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "no-path-in-finite-set" in proc.stderr
    sset = ss.SpectralSet(RealSymmetric(2), parse_permset(set_doc))
    with pytest.raises(errors.InfeasiblePathError) as info:
        ss.connect(sset, parse_element(x_doc), parse_element(y_doc), steps=4)
    assert info.value.clause == "no-path-in-finite-set"


def test_connect_joins_one_orbit_of_a_finite_set(tmp_path, run_cli):
    # a same-orbit pair over a finite Q: its blocks differ by rounding only
    x = element_from_sym(RealSymmetric(2), np.diag([2.0, 1.0]))
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ np.diag([2.0, 1.0]) @ rot.T
    y = element_from_sym(RealSymmetric(2), (m + m.T) / 2.0)
    set_doc = {"set": "finite", "points": [[2.0, 1.0], [3.0, 1.0]]}
    sset = ss.SpectralSet(RealSymmetric(2), parse_permset(set_doc))
    gap = float(np.abs(spectral.eigen_map(x) - spectral.eigen_map(y)).max())
    assert 0.0 < gap <= 1e-14
    argv = ["connect"] + [write_json(tmp_path, f"{name}.json", doc) for name, doc in
                          (("set", set_doc), ("x", emit_element(x)), ("y", emit_element(y)))]
    proc = run_cli(argv + ["--steps", "4"])
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["samples"]) == 3 * 4 - 2
    assert len(ss.connect(sset, x, y, steps=4).coords) == 3 * 4 - 2


BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _bench_module(monkeypatch, name):
    """bench/<name>.py (numpy only), loaded from its file without writing
    bytecode next to it, under its own name for the test's duration, as
    `workloads` imports `oracle` by name."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _bench_oracle(monkeypatch):
    return _bench_module(monkeypatch, "oracle")


@pytest.mark.parametrize("case", [*sorted(_CONNECT_DIGESTS), "far-finite"])
def test_connect_meets_the_bench_oracle(tmp_path, capsys, monkeypatch, case):
    # the benchmark's own checks of a witness (sample count, endpoints,
    # membership, max_step) and of an infeasible connect, in process
    oracle = _bench_oracle(monkeypatch)
    if case == "far-finite":
        argv, check = _connect_argv(tmp_path, *_FAR_FINITE), oracle.check_infeasible("no-path-in-finite-set")
    else:
        set_doc, x_doc, y_doc, flags, _ = _CONNECT_DIGESTS[case]
        argv = _connect_argv(tmp_path, set_doc, x_doc, y_doc, flags)
        blocks = [oracle.blocks_from_doc(doc) for doc in (x_doc, y_doc)]
        check = oracle.check_connect(set_doc, *blocks, steps=int(flags[1]))
    rc = cli.main(argv)
    check(rc, *capsys.readouterr())


# exit code and sha256 of stdout of each benchmark op class at seed 1,
# recorded before U X became one GEMM over the stack of automorphisms; a
# change that moves a bit of any of them updates this table as a contract
# change
_BENCH_DIGESTS = {
    "paths": {
        "member.in": (0, "77d672fc7ee073399a780f5b5e93903d542442fce5ef200ac2d7fc24ff8deb45"),
        "member.out": (0, "d5d4bf75c11dab7c26708cc86f99174406acdbf903ea9b7f0431c4620d47d7e5"),
        "connect.finite-obstruction": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "connect.product-qpath": (0, "44c543f44e95f314b6ba2db00580f45a95fb17d39fef78fae5b55750b336673c"),
        "connect.herm4": (0, "c10d52d072478edcba9a46571832ada3380a326090faeb39c7c791af026864c0"),
        "connect.sym6-orbit": (0, "08e725a68f2237fdd346aae65dd7c17407df07c5418cc81d8814075491030b89"),
        "connect.sym6-distinct": (0, "6d6146942fce5801c6d5b9f44394dcc8cb91f5d63b86566fe11288f0fbdf41dd"),
    },
    "sampling": {
        "certify.overlap": (0, "99a2e7ab60c97665dd009677f1bd10d7ebb0a26648f971ee35b50a9732834036"),
        "certify.orthant": (0, "e0038e7f6289550033fc07fa7bac0014a537c176b1e45559f6ee1480899bb196"),
        "orbit-sample.herm4": (0, "e9563b9c224bdbfddca9a613ebaa14d082514fc0187630691d3563b9121cde3f"),
        "pointed-check.rearr52": (0, "7278b9a520b704347b3ebb2dacea84fec27271f73eb8a4d37f2d1591df71905c"),
        "pointed-check.halfspace5": (0, "67d3faf3d0e6e33a3828d45c025f84ce6037978378b0e2a36dbd6270c053594a"),
        "certify.rescaled": (0, "e0038e7f6289550033fc07fa7bac0014a537c176b1e45559f6ee1480899bb196"),
        "fan.sym3": (0, "98842c017d9fce4908dba9bf5619bdb67ebcb418e9c4d77bae14950c5514649b"),
    },
    "spectra": {
        "eig.sym": (0, "ea19da85fe708450c536fb7a435f6877c4f1620a29966310ed4d5ab5f1dc19b9"),
        "decompose.sym": (0, "e95653337da3be88f2b2539e899d303c01fba6d92b56889026e67b351a67abe8"),
        "eig.herm": (0, "71479db0838079f6672260838e80bd78af1801c50f005884e9e872238d2188ad"),
        "decompose.herm": (0, "273d2428988a5ef922993ef9e32b0ea05e693c2210a9e0d68b44e12008af556c"),
        "eig.product": (0, "1d76200faf19e2e2580dfb9247e24df7a4e1e6074f8e72b02e0a09076c7afb72"),
        "decompose.product": (0, "881f580ceb9b31ba91d52b7659b6b2e13fe863a36c63e6e174d8930cdd4c196a"),
    },
}


@pytest.mark.parametrize("workload", ["paths", "sampling", "spectra"])
def test_every_bench_op_meets_its_oracle(tmp_path, capsys, monkeypatch, workload):
    # each op class of the benchmark at seed 1, the weight-0 probes too,
    # run once in process, judged by the benchmark's own check and pinned
    # by its exit code and stdout digest; the documents go to tmp_path and
    # nothing is written under bench/
    before = sorted(os.listdir(BENCH_DIR))
    _bench_oracle(monkeypatch)
    workloads = _bench_module(monkeypatch, "workloads")
    digests = {}
    for op in workloads.build(workload, 1, str(tmp_path)):
        rc = cli.main(list(op.argv))
        out, err = capsys.readouterr()
        op.check(rc, out, err)
        digests[op.name] = (rc, hashlib.sha256(out.encode()).hexdigest())
    assert digests == _BENCH_DIGESTS[workload]
    assert sorted(os.listdir(BENCH_DIR)) == before


_LINALG = ("eigh", "eigvalsh", "solve", "norm", "det", "svd")


def _with_nan(out):
    """A np.linalg result with a NaN in the first entry of each array it holds."""
    if isinstance(out, tuple):
        return type(out)(*map(_with_nan, out))
    out = np.array(out)
    out.flat[0] = np.nan
    return out[()]


def _inject(monkeypatch):
    """Wrap every np.linalg function jspec calls: each call appends its name
    to the returned log, and while `fault` is [i, kind], call i raises
    LinAlgError (kind "raise") or returns its result with NaNs ("nan")."""
    log, fault = [], [None, None]

    def wrap(name, real):
        def call(*args, **kw):
            log.append(name)
            if fault[0] != len(log) - 1:
                return real(*args, **kw)
            if fault[1] == "raise":
                raise np.linalg.LinAlgError("injected")
            return _with_nan(real(*args, **kw))
        return call

    for name in _LINALG:
        monkeypatch.setattr(np.linalg, name, wrap(name, getattr(np.linalg, name)))
    return log, fault


def test_every_lapack_failure_in_a_bench_op_exits_3(tmp_path, capsys, monkeypatch):
    # each op class of the benchmark at seed 1, run again once per np.linalg
    # call it makes with that call raising and once with it returning NaNs: a
    # solver failure is exit 3 with empty stdout, never an input error (a
    # LinAlgError is a ValueError) and never a verdict; a NaN may also leave
    # the rc and stdout as they were
    _bench_oracle(monkeypatch)
    workloads = _bench_module(monkeypatch, "workloads")
    ops = [op for w in ("paths", "sampling", "spectra") for op in workloads.build(w, 1, str(tmp_path / w))]
    log, fault = _inject(monkeypatch)
    breaks, seen = [], set()
    for op in ops:
        log.clear()
        fault[:] = [None, None]
        clean = cli.main(list(op.argv)), capsys.readouterr().out
        names = list(log)
        seen.update(names)
        for i, kind in itertools.product(range(len(names)), ("raise", "nan")):
            log.clear()
            fault[:] = [i, kind]
            got = cli.main(list(op.argv)), capsys.readouterr().out
            if got != (3, "") and not (kind == "nan" and got == clean):
                breaks.append(f"{op.name}: {names[i]} call {i} ({kind}) ends in exit {got[0]}")
    assert seen == set(_LINALG)  # every function is reached, det through frame transport
    assert not breaks, "\n".join(breaks)


@pytest.mark.parametrize("kind", ["raise", "nan"])
def test_haar_determinant_failure_raises(monkeypatch, kind):
    # no bench op draws a real Haar matrix with n != 3, whose sign needs det
    log, fault = _inject(monkeypatch)
    fault[:] = [0, kind]
    with pytest.raises(errors.NumericError, match="Haar det"):
        orbits._haar(4, np.random.default_rng(0), 3, unitary=False)
    assert log == ["det"]


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


# sha256 of stdout recorded before products were read into one coordinate
# vector and endpoints decomposed as one stack: `eig` and `member` on a
# three-factor product document, `certify` on the orthant certificate
_PARSE_DIGESTS = {
    "eig": "640ccdf599a1ff7c90f7a3f194338702260bde2fff6bde1a2b47e388f5312826",
    "member": "77d672fc7ee073399a780f5b5e93903d542442fce5ef200ac2d7fc24ff8deb45",
    "certify": "e0038e7f6289550033fc07fa7bac0014a537c176b1e45559f6ee1480899bb196",
}


@pytest.mark.parametrize("command", sorted(_PARSE_DIGESTS))
def test_product_documents_keep_their_stdout_bytes(tmp_path, capsys, command):
    rng = np.random.default_rng(28)
    docs = [_seeded_doc(kind, n, rng) for kind, n in [("sym", 3), ("herm", 2), ("spin", 4)]]
    doc = {"alg": {"kind": "product", "factors": [d["alg"] for d in docs]}, "data": {"factors": docs}}
    x_path = write_json(tmp_path, "x.json", doc)
    if command == "eig":
        argv = ["eig", x_path]
    elif command == "member":
        argv = ["member", write_json(tmp_path, "set.json", {"set": "halfspace-trace", "n": 7}), x_path]
    else:
        a = coordinate_algebra(3)
        cert = {"parts": [[emit_element(Element(a, np.eye(3)[i]))] for i in range(3)]}
        argv = ["certify", write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1}),
                write_json(tmp_path, "cert.json", cert), "--samples", "20", "--seed", "0"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _PARSE_DIGESTS[command]


def _connect_one_sample_at_a_time(x, y, q_path, steps):
    """The samples of connect's two legs, each built on its own: per factor,
    the automorphism of the transport of x's frame onto y's at each of
    2 * steps - 1 parameters, applied to x's factor, then one compose_theta
    per point of the coefficient sweep in y's frame, listed block by block
    (endpoint membership and the audit left out)."""
    a = x.algebra
    f_x, f_y = spectral.spectral_decompose(x)[0], spectral.spectral_decompose(y)[0]
    if a.is_simple():
        parts, pairs = [x], [(f_x, f_y)]
    else:
        parts, pairs = split_product(x), zip(f_x.basis, f_y.basis)
    paths = [orbits.g_path(orbits.frame_transport(e, f)) for e, f in pairs]
    leg = []
    for t in np.linspace(0.0, 1.0, 2 * steps - 1):
        images = [orbits.apply_automorphism(p.sample(t), xi) for p, xi in zip(paths, parts)]
        leg.append(images[0] if a.is_simple() else join_product(a, images))
    start_q, end_q = (spectral._eigenvalue_blocks(a, z.coords) for z in (x, y))
    vertices = [start_q, end_q]
    if q_path is not None:
        # each inner vertex sorted per block; the ends are the blocks themselves
        ranks = np.cumsum([0] + [f.rank for f in a.factors])
        vertices[1:1] = [
            np.concatenate([np.sort(v[i:j])[::-1] for i, j in zip(ranks, ranks[1:])])
            for v in q_path[1:-1]
        ]
    sweep = []
    for u in np.linspace(0.0, float(len(vertices) - 1), steps):
        k = min(int(u), len(vertices) - 2)
        q = (1.0 - (u - k)) * vertices[k] + (u - k) * vertices[k + 1]
        sweep.append(spectral.compose_theta(q[f_y.order], f_y))
    return leg + sweep[1:]


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


@pytest.mark.parametrize(
    "c, a, rc, expected",
    [
        # every product of their entries overflows, but <c, phi(a)> = 0 on
        # the whole orbit of a multiple of the unit
        ([1e200, -1e200], [1e120, 1e120], 0, {"delta": 0, "Delta": 0, "samples_in_interval": True}),
        # the same elements divided by 2^664 and 2^398: both ends are summed
        # alike, so neither comes out as the rounding error of one product
        ([1.3064201766302603, -1.3064201766302603], [1.5490367659397273, 1.5490367659397273], 0,
         {"delta": 0, "Delta": 0, "samples_in_interval": True}),
        # the range [2e320, 2e320] is past the largest double
        ([1e160, 1e160], [1e160, 1e160], 3, None),
    ],
    ids=["cancelling-past-max", "cancelling-near-one", "past-max"],
)
def test_fan_range_keeps_the_exit_contract_at_any_scale(tmp_path, run_cli, c, a, rc, expected):
    # in process, so a numpy overflow warning would fail the test
    paths = [write_json(tmp_path, f"{name}.json", emit_element(element_from_sym(RealSymmetric(2), np.diag(v))))
             for name, v in (("c", c), ("a", a))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run_cli(["fan", *paths, "--samples", "200", "--seed", "3"])
    assert [str(w.message) for w in caught] == []
    assert proc.returncode == rc, proc.stderr
    if expected is None:
        assert proc.stdout == ""
        assert "past the largest double" in proc.stderr
    else:
        assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("j, m", [(0, 0), (-700, 300), (600, -1000), (500, 400), (-1000, -60)])
def test_fan_values_scale_exactly_with_the_inputs(j, m):
    # c and a are divided by exact powers of two before any product is
    # taken, so scaling them by 2^j and 2^m scales every sample by 2^(j + m)
    c = element_from_sym(RealSymmetric(3), np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 0.25], [0.5, 0.25, -1.0]]))
    a = element_from_sym(RealSymmetric(3), np.diag([1.5, -0.5, 0.75]))
    scaled = [Element(x.algebra, np.ldexp(x.coords, e)) for x, e in ((c, j), (a, m))]
    assert np.array_equal(np.ldexp(ss.fan_sample(c, a, 50, 4), j + m), ss.fan_sample(*scaled, 50, 4))
    # and so are matrices before LAPACK, so the interval ends scale too
    ends, scaled_ends = ss.fan_interval(c, a), ss.fan_interval(*scaled)
    assert np.ldexp([ends.delta, ends.Delta], j + m).tolist() == [scaled_ends.delta, scaled_ends.Delta]


def test_fan_builds_no_ends(tmp_path, run_cli, monkeypatch):
    # `fan` prints the two ends and the sample verdict; the elements that
    # attain the ends are left to `fan_interval`
    c = element_from_sym(RealSymmetric(3), np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 0.25], [0.5, 0.25, -1.0]]))
    a = element_from_sym(RealSymmetric(3), np.diag([1.5, -0.5, 0.75]))
    paths = [write_json(tmp_path, f"{name}.json", emit_element(x)) for name, x in (("c", c), ("a", a))]
    want = _outcome(run_cli(["fan", *paths, "--samples", "300", "--seed", "2"]))
    interval = ss.fan_interval(c, a)
    assert json.loads(want[1]) == {"delta": interval.delta, "Delta": interval.Delta, "samples_in_interval": True}

    def refuse(*args, **kwargs):
        raise AssertionError("an end element was built")

    monkeypatch.setattr(ss, "spectral_decompose", refuse)
    monkeypatch.setattr(ss, "_compose", refuse)
    assert _outcome(run_cli(["fan", *paths, "--samples", "300", "--seed", "2"])) == want


def test_fan_mismatched_algebras_exit_2(tmp_path, run_cli):
    c = element_from_sym(RealSymmetric(2), np.diag([1.0, -1.0]))
    a = element_from_sym(RealSymmetric(3), np.diag([1.0, 0.0, 0.0]))
    c_path = write_json(tmp_path, "c.json", emit_element(c))
    a_path = write_json(tmp_path, "a.json", emit_element(a))
    proc = run_cli(["fan", c_path, a_path])
    assert proc.returncode == 2


def _fan_paths(tmp_path, c, a, tag=""):
    return [write_json(tmp_path, f"{name}{tag}.json", emit_element(x)) for name, x in (("c", c), ("a", a))]


def test_fan_range_past_max_comes_before_the_sample_budget(tmp_path, run_cli):
    # the range [2e320, 2e320] is scaled back, and refused, before any
    # sample is drawn; the same samples on a range inside it exceed the budget
    big = element_from_sym(RealSymmetric(2), np.diag([1e160, 1e160]))
    proc = run_cli(["fan", *_fan_paths(tmp_path, big, big), "--samples", "100000000"])
    assert _outcome(proc) == (3, "", "jspec: numeric failure: an end of the fan range is past the largest double\n")
    small = element_from_sym(RealSymmetric(2), np.diag([1.0, 1.0]))
    proc = run_cli(["fan", *_fan_paths(tmp_path, small, small), "--samples", "100000000"])
    assert (proc.returncode, proc.stdout) == (2, "") and "over the budget" in proc.stderr


def test_fan_algebra_faults_come_first(tmp_path, run_cli, monkeypatch):
    # a mismatch or a product is refused before any scale, eigenvalue or sample
    product = ProductAlgebra((RealSymmetric(2), SpinFactor(3)))
    cases = [
        (random_element(RealSymmetric(2), 1), random_element(RealSymmetric(3), 2),
         "jspec: input error: both elements must share one algebra\n"),
        (random_element(product, 1), random_element(product, 2),
         "jspec: input error: the closed-form endpoints are established for simple algebras\n"),
    ]
    paths = [_fan_paths(tmp_path, c, a, k) for k, (c, a, _) in enumerate(cases)]

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the algebras were checked")

    monkeypatch.setattr(algebra, "_exponents", refuse)
    monkeypatch.setattr(spectral, "_check_finite", refuse)
    monkeypatch.setattr(orbits, "_haar", refuse)
    for (_, _, stderr), docs in zip(cases, paths):
        assert _outcome(run_cli(["fan", *docs, "--samples", "100000000"])) == (2, "", stderr)


def test_fan_subnormal_ends(tmp_path, run_cli):
    # c and a near 1e-160 give ends near 1e-320, which lose digits when
    # scaled back; the samples are compared with those rounded ends
    m = np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 0.25], [0.5, 0.25, -1.0]])
    c = element_from_sym(RealSymmetric(3), 1e-160 * m)
    a = element_from_sym(RealSymmetric(3), 1e-160 * np.diag([1.5, -0.5, 0.75]))
    interval = ss.fan_interval(c, a)
    assert 0.0 < -interval.delta < 2.2e-308 and 0.0 < interval.Delta < 2.2e-308
    proc = run_cli(["fan", *_fan_paths(tmp_path, c, a), "--samples", "300", "--seed", "2"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"delta": interval.delta, "Delta": interval.Delta, "samples_in_interval": True}


def test_fan_runs_one_eigenvalue_pass(tmp_path, run_cli, monkeypatch):
    # both spectra come from one eigvalsh on the stack [c, a], and no frame is built
    c = element_from_sym(RealSymmetric(3), np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 0.25], [0.5, 0.25, -1.0]]))
    a = element_from_sym(RealSymmetric(3), np.diag([1.5, -0.5, 0.75]))
    paths = _fan_paths(tmp_path, c, a)
    want = _outcome(run_cli(["fan", *paths, "--samples", "300", "--seed", "2"]))
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(m):
        shapes.append(m.shape)
        return eigvalsh(m)

    def refuse(*args, **kwargs):
        raise AssertionError("fan ran eigh")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert _outcome(run_cli(["fan", *paths, "--samples", "300", "--seed", "2"])) == want
    assert shapes == [(2, 3, 3)]


def test_orbit_sample_deterministic_bytes(tmp_path, run_cli):
    x = random_element(RealSymmetric(3), 5)
    stdin = json.dumps(emit_element(x))
    p1 = run_cli(["orbit-sample", "--count", "4", "--seed", "9"], stdin=stdin)
    p2 = run_cli(["orbit-sample", "--count", "4", "--seed", "9"], stdin=stdin)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout  # byte-identical
    payload = json.loads(p1.stdout)
    assert len(payload["samples"]) == 4


_M = 1.7e308


@pytest.mark.parametrize(
    "doc",
    [
        {"alg": {"kind": "sym", "n": 2}, "data": [[_M, 0.0], [0.0, -_M]]},
        {"alg": {"kind": "herm", "n": 2}, "data": {"re": [[_M, 0.0], [0.0, -_M]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
    ],
    ids=["sym2", "herm2"],
)
def test_orbit_sample_of_diag_near_the_largest_double(run_cli, doc):
    # every image of diag(M, -M) is finite, and no sum on the way overflows
    proc = run_cli(["orbit-sample", "--count", "8", "--seed", "1"], stdin=json.dumps(doc))
    assert (proc.returncode, proc.stderr) == (0, "")
    for sample in json.loads(proc.stdout)["samples"]:
        lam = spectral.eigen_map(parse_element(sample))
        assert np.abs(lam - [_M, -_M]).max() <= 1e-12 * _M


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
    algebra = parse_algebra(algebra_doc)
    comps = ss.components_finite(ss.SpectralSet(algebra, parse_permset(set_doc)))
    per_component = [
        {"representative": rep, "description": description, "element": emit_element(Element(algebra, coords))}
        for rep, description, coords in zip(comps.representatives, comps.descriptions, comps.coords)
    ]
    assert len(per_component) >= 2
    assert proc.stdout == render_json({"components": per_component}) + "\n"


def test_components_peak_near_its_output_length(tmp_path, monkeypatch):
    # the 5,040 components of R^7 go from coordinate stacks to one text per
    # component: no Element, dict or per-value render per component is held
    write_json(tmp_path, "set.json", {"set": "finite", "points": [list(range(7))]})
    write_json(tmp_path, "r7.json", emit_algebra(coordinate_algebra(7)))
    monkeypatch.chdir(tmp_path)
    argv = ["components", "set.json", "r7.json"]

    class Counter:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    with contextlib.redirect_stdout(Counter()):
        assert cli.main(argv) == 0  # the parser, frame and emitter plan, built once
    out = Counter()
    with contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert out.chars > 3_000_000
    assert peak <= 2.9 * out.chars


def _peak_over_output(argv):
    """The tracemalloc peak of a second `cli.main(argv)` run over the
    length of its stdout, and that length."""

    class Counter:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    with contextlib.redirect_stdout(Counter()):
        assert cli.main(argv) == 0  # the parser, frame and emitter plan, built once
    out = Counter()
    with contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return peak / out.chars, out.chars


def test_components_write_their_texts_as_pieces(tmp_path, monkeypatch):
    # each component's representative, description and element text go to
    # stdout as pieces of the document: no text per component and no
    # document is joined (2.69x the output when both were)
    write_json(tmp_path, "set.json", {"set": "finite", "points": [list(range(7))]})
    write_json(tmp_path, "r7.json", emit_algebra(coordinate_algebra(7)))
    monkeypatch.chdir(tmp_path)
    ratio, chars = _peak_over_output(["components", "set.json", "r7.json"])
    assert chars > 3_000_000
    assert ratio <= 2.05


def test_decompose_peaks_near_its_output_length(tmp_path):
    # the frame goes to stdout as its chunks' decoded texts: no stack text
    # and no document is joined (3.19x the output when both were)
    path = write_json(tmp_path, "x.json", emit_element(random_element(RealSymmetric(40), 3)))
    ratio, chars = _peak_over_output(["decompose", path])
    assert chars > 1_400_000
    assert ratio <= 2.5


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


def test_certify_rank_near_the_largest_double_is_the_rank_of_the_scaled_rows(tmp_path, run_cli):
    # the rank SVD reads the generator rows divided by one power of two: a
    # stacked singular value past the largest double gives the verdict of
    # the certificate divided by 2^1000
    set_path = write_json(tmp_path, "set.json", {"set": "rearr", "n": 3, "m": 1})
    outcomes = []
    for big in (1.2e308, math.ldexp(1.2e308, -1000)):
        cert_path = write_json(tmp_path, "cert.json", _coord_cert([[[big, big, 0.0]], [[big, 0.0, 0.0]]]))
        outcomes.append(_outcome(run_cli(["certify", set_path, cert_path, "--samples", "20", "--seed", "0"])))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0
    assert json.loads(outcomes[0][1])["failed_clause"] == "nonnegative-reconstruction"


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


_COMMANDS = ["eig", "decompose", "member", "connect", "fan", "orbit-sample", "components",
             "certify", "sum-split", "pointed-check"]

# command lines that end in a usage, error or help text; the files need not
# exist, since every line is refused or answered before a file is read
_PARSER_LINES = {
    **{f"{command}-help": [command, "-h"] for command in _COMMANDS},
    "eig-abbreviated-help": ["eig", "--he"],
    "member-missing-set": ["member"],
    "connect-missing-y": ["connect", "s.json", "x.json"],
    "sum-split-missing-q2": ["sum-split", "z.json", "q1.json", "q2.json", "--q1", "[1]"],
    "connect-steps-x": ["connect", "s.json", "x.json", "y.json", "--steps", "x"],
    "connect-steps-without-value": ["connect", "s.json", "x.json", "y.json", "--steps"],
    "fan-seed-negative": ["fan", "c.json", "a.json", "--seed", "-1"],
    "orbit-sample-count-negative": ["orbit-sample", "x.json", "--count", "-3"],
    "eig-trailing-argument": ["eig", "x.json", "extra"],
    "connect-unknown-option": ["connect", "s.json", "x.json", "y.json", "--bogus"],
    "option-before-command": ["--steps", "3", "connect", "s.json", "x.json", "y.json"],
    "unknown-command": ["frobnicate", "x.json"],
    "no-arguments": [],
    "top-level-help": ["--help"],
}


def _exit_and_output(capsys, call):
    capsys.readouterr()
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(_PARSER_LINES))
def test_main_parses_as_the_top_level_parser(capsys, case):
    # main parses a command line once, through its command's parser; every
    # usage, error and help text is still the top-level parser's
    argv = _PARSER_LINES[case]
    want = _exit_and_output(capsys, lambda: cli.build_parser().parse_args(argv))
    assert want[0] in (0, 2)
    assert _exit_and_output(capsys, lambda: cli.main(argv)) == want


def test_a_valid_command_line_is_parsed_once(tmp_path, run_cli, monkeypatch):
    set_path = write_json(tmp_path, "set.json", _REARR2)
    x_path = write_json(tmp_path, "x.json", {"alg": {"kind": "sym", "n": 2}, "data": [[2, 0], [0, 1]]})
    y_path = write_json(tmp_path, "y.json", {"alg": {"kind": "sym", "n": 2}, "data": [[2.5, 1.5], [1.5, 2.5]]})
    argv = ["connect", set_path, x_path, y_path, "--steps", "5"]
    want = _outcome(run_cli(argv))
    assert want[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    assert _outcome(run_cli(argv)) == want


def test_documents_are_read_as_utf8_bytes(tmp_path, run_cli):
    text = json.dumps({"alg": {"kind": "herm", "n": 2},
                       "data": {"re": [[2.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.25], [-0.25, 0.0]]}}, indent=1)
    lf, crlf, bom, bad = (tmp_path / f"{name}.json" for name in ("lf", "crlf", "bom", "bad"))
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    bad.write_bytes(text.encode().replace(b"2.0", b"2.\xff", 1))
    for command in ("eig", "decompose"):
        want = _outcome(run_cli([command, str(lf)]))
        assert want[0] == 0
        assert _outcome(run_cli([command, str(crlf)])) == want
        assert _outcome(run_cli([command, "-"], stdin=text)) == want
        for path, message in ((bom, "Unexpected UTF-8 BOM"), (bad, "can't decode byte 0xff")):
            proc = run_cli([command, str(path)])
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith("jspec: input error: ") and message in proc.stderr


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
    assert render_json(_element_array(a, [x.coords for x in xs])) == render_json([emit_element(x) for x in xs])
    assert render_json(_element_array(a, [])) == "[]"


def test_render_json_float_style():
    assert render_json({"v": 1.0}) == '{"v": 1}'
    assert render_json([0.5, -2.0]) == "[0.5, -2]"
    x = 0.1 + 0.2
    assert float(render_json(x)) == x
