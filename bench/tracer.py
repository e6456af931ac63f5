"""Span tracer that instruments jspec from outside the library.

`Tracer.install()` wraps every function named in the ``__all__`` of each
jspec module (public names for modules without one) and rebinds the
wrapper in every ``jspec.*`` namespace that holds the same function object,
so calls between modules are traced too.  It also wraps `JordanFrame`
construction, `PermSet.margin_many` and ``numpy.random.default_rng``.
`uninstall()` puts every original object back.

Each call becomes one span: name, start, end, parent span and op id, plus
one optional number noted from the call (rows passed to a margin batch,
an NNLS residual, a membership verdict).  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time its child
spans cover; a layer is the module a span belongs to.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# jspec modules that make up the layers, in call-graph order
LAYERS = ("cli", "io", "spectralsets", "orbits", "spectral", "eigen", "permsets", "nnls", "algebra")
RNG = "rng"

# number noted per call, taken from (args, result), by span name or by
# layer; an NNLS solver returns (weights, residual)
_NOTES = {
    "nnls": lambda args, result: float(result[1]),
    "permsets.PermSet.margin_many": lambda args, result: float(len(args[1])),
    "spectralsets.ss_member": lambda args, result: float(bool(result)),
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, obj in vars(module).items()
            if not n.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        ]
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not inspect.isclass(obj):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, start, end, parent index, op id, note
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        note = _NOTES.get(name, _NOTES.get(name.split(".", 1)[0]))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if note is not None:
                row[5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"jspec.{layer}")
            except ModuleNotFoundError:
                self.absent.append(layer)
        namespaces = [m for k, m in sys.modules.items() if k == "jspec" or k.startswith("jspec.")]
        for layer, module in modules.items():
            for name, fn in list(_public_functions(module)):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, key, wrapper)
        if "spectral" in modules:
            frame_cls = modules["spectral"].JordanFrame
            self._set(frame_cls, "__init__", self._wrap("spectral.JordanFrame", frame_cls.__init__))
        if "permsets" in modules:
            permset_cls = modules["permsets"].PermSet
            self._set(permset_cls, "margin_many",
                      self._wrap("permsets.PermSet.margin_many", permset_cls.margin_many))
        self._set(np.random, "default_rng", self._wrap(f"{RNG}.default_rng", np.random.default_rng))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def self_times(self, op_scales=None) -> np.ndarray:
        """Per-span self time: duration minus the durations of its children,
        each multiplied by its op's entry in `op_scales` when given."""
        spans = self.spans
        dur = np.array([row[2] - row[1] for row in spans])
        if op_scales is not None:
            dur = dur * np.asarray(op_scales)[[row[4] for row in spans]]
        parents = np.array([row[3] for row in spans], dtype=int)
        has_parent = parents >= 0
        covered = np.zeros(len(spans))
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return dur - covered

    def dump(self, path: str):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tnote\n")
            for name_id, t0, t1, parent, op, note in self.spans:
                fh.write(f"{self.names[name_id]}\t{t0!r}\t{t1!r}\t{parent}\t{op}\t{'' if note is None else repr(note)}\n")


def summarize(tracer: Tracer, op_walls: list[float], op_scales: list[float],
              bytes_out: list[int]) -> dict:
    """Per-op layer metrics of a traced phase of len(op_walls) ops; times are
    multiplied by each op's speed scale (see worker.calibration_s)."""
    ops = len(op_walls)
    wall = float(np.dot(op_walls, op_scales))
    names = tracer.names
    spans = tracer.spans
    selfs = tracer.self_times(op_scales)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    by_name_self: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for row, st in zip(spans, selfs):
        name = names[row[0]]
        by_name_calls[name] += 1
        by_name_self[name] += st
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += st
        if row[3] < 0:
            top_level += (row[2] - row[1]) * op_scales[row[4]]

    def outermost_ms(match) -> float:
        """Inclusive time of matching spans not nested in another match."""
        total = 0.0
        for row in spans:
            if not match(names[row[0]]):
                continue
            parent = row[3]
            while parent >= 0 and not match(names[spans[parent][0]]):
                parent = spans[parent][3]
            if parent < 0:
                total += (row[2] - row[1]) * op_scales[row[4]]
        return 1e3 * total

    notes = defaultdict(list)
    for row in spans:
        if row[5] is not None:
            notes[names[row[0]]].append(row[5])
    residuals = [v for name, vs in notes.items() if name.startswith("nnls.") for v in vs]
    oracle_verdicts = [
        row[5] for row in spans
        if names[row[0]] == "spectralsets.ss_member" and row[3] >= 0
        and names[spans[row[3]][0]] == "spectralsets.certificate_check"
    ]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_ms_per_op"] = 1e3 * self_s[layer] / ops
        out[f"{layer}.self_share"] = self_s[layer] / wall
    out.update({
        "spectral.eigen_map.calls_per_op": by_name_calls["spectral.eigen_map"] / ops,
        "spectral.eigen_map.self_ms_per_op": 1e3 * by_name_self["spectral.eigen_map"] / ops,
        "spectral.frame_builds_per_op": by_name_calls["spectral.JordanFrame"] / ops,
        "spectral.frame_build_ms_per_op": outermost_ms(lambda n: n == "spectral.JordanFrame") / ops,
        "algebra.jordan_product.calls_per_op": by_name_calls["algebra.jordan_product"] / ops,
        "spectral.compose_theta.calls_per_op": by_name_calls["spectral.compose_theta"] / ops,
        "spectral.compose_theta.self_ms_per_op": 1e3 * by_name_self["spectral.compose_theta"] / ops,
        "orbits.haar_draws_per_op": by_name_calls["orbits.random_g_automorphism"] / ops,
        "rng.generators_per_op": by_name_calls[f"{RNG}.default_rng"] / ops,
        "rng.build_ms_per_op": 1e3 * by_name_self[f"{RNG}.default_rng"] / ops,
        "permsets.margin_rows_per_op": sum(notes["permsets.PermSet.margin_many"]) / ops,
        "nnls.max_residual": max(residuals, default=0.0),
        "spectralsets.certify_accept_ratio": (
            sum(oracle_verdicts) / len(oracle_verdicts) if oracle_verdicts else 0.0
        ),
        "io.parse_ms_per_op": outermost_ms(lambda n: n.startswith("io.parse_")) / ops,
        "io.render_ms_per_op": outermost_ms(
            lambda n: n.startswith("io.emit_") or n == "io.render_json") / ops,
        "io.bytes_out_per_op": sum(bytes_out) / ops,
    })
    # every span's self time is counted once, so the layers (with the
    # rng layer) plus what ran outside any span add up to the op wall time
    extras = {
        "self_s_by_layer": {k: self_s[k] for k in (*LAYERS, RNG)},
        "remainder_s": wall - top_level,
        "wall_s": wall,
    }
    return {"metrics": out, "accounting": extras}
