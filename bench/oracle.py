"""Independent checks of jspec CLI outputs, by mathematical invariants.

Nothing here imports jspec: documents are read back into plain numpy
blocks and every claim of the program is re-derived with
``numpy.linalg.eigvalsh`` and direct matrix arithmetic.  No check pins
output bytes, so a change of seeded streams or of the frame listing order
does not count as a failure; a wrong number, a wrong verdict or a dropped
sample does.

An element is a tuple of blocks, one per simple factor: ``("mat", M)``
with M a real symmetric or complex Hermitian matrix, or ``("spin", v)``
with ``v = (x0, xbar)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Absolute tolerances, scaled by max(1, largest |eigenvalue|) of the input.
EIG_TOL = 1e-9
FRAME_TOL = 1e-8
ENDPOINT_TOL = 1e-9
STEP_RTOL = 1e-9
WITNESS_TOL = 1e-12


class Mismatch(Exception):
    """An output that violates an invariant of its command."""


# ---------------------------------------------------------------------------
# elements


def blocks_from_doc(doc) -> tuple:
    alg = doc["alg"]
    kind = alg["kind"]
    data = doc["data"]
    if kind == "sym":
        return (("mat", np.asarray(data, dtype=float)),)
    if kind == "herm":
        return (("mat", np.asarray(data["re"], float) + 1j * np.asarray(data["im"], float)),)
    if kind == "spin":
        return (("spin", np.concatenate(([float(data["x0"])], np.asarray(data["xbar"], float)))),)
    if kind == "product":
        return tuple(b for f in data["factors"] for b in blocks_from_doc(f))
    raise Mismatch(f"unknown algebra kind {kind!r}")


def eigvals(x) -> np.ndarray:
    """Pooled eigenvalues, sorted non-increasing."""
    parts = []
    for kind, v in x:
        if kind == "mat":
            parts.append(np.linalg.eigvalsh(v))
        else:
            r = float(np.linalg.norm(v[1:]))
            parts.append(np.array([v[0] + r, v[0] - r]))
    return np.sort(np.concatenate(parts))[::-1]


def scale_of(x) -> float:
    return max(1.0, float(np.abs(eigvals(x)).max()))


def _same_shape(x, y):
    if len(x) != len(y) or any(
        kx != ky or vx.shape != vy.shape for (kx, vx), (ky, vy) in zip(x, y)
    ):
        raise Mismatch("element has the wrong algebra")


def max_abs_diff(x, y) -> float:
    _same_shape(x, y)
    return max(float(np.abs(vx - vy).max()) for (_, vx), (_, vy) in zip(x, y))


def distance(x, y) -> float:
    """Trace-form distance: Frobenius on matrix blocks, 2|.|^2 on spin blocks."""
    _same_shape(x, y)
    total = 0.0
    for (kind, vx), (_, vy) in zip(x, y):
        d = vx - vy
        sq = float(np.vdot(d, d).real)
        total += sq if kind == "mat" else 2.0 * sq
    return math.sqrt(total)


def jordan(x, y) -> tuple:
    out = []
    for (kind, vx), (_, vy) in zip(x, y):
        if kind == "mat":
            out.append(("mat", (vx @ vy + vy @ vx) / 2.0))
        else:
            out.append(("spin", np.concatenate(([vx @ vy], vx[0] * vy[1:] + vy[0] * vx[1:]))))
    return tuple(out)


def trace(x) -> float:
    return sum(
        float(np.trace(v).real) if kind == "mat" else 2.0 * float(v[0]) for kind, v in x
    )


def unit_like(x) -> tuple:
    out = []
    for kind, v in x:
        if kind == "mat":
            out.append(("mat", np.eye(v.shape[0])))
        else:
            out.append(("spin", np.concatenate(([1.0], np.zeros(v.size - 1)))))
    return tuple(out)


def combine(coefs, elements) -> tuple:
    out = [(kind, np.zeros_like(v)) for kind, v in elements[0]]
    for c, e in zip(coefs, elements):
        _same_shape(out, e)
        out = [(kind, acc + c * v) for (kind, acc), (_, v) in zip(out, e)]
    return tuple(out)


# ---------------------------------------------------------------------------
# permutation-invariant sets


def set_margin(set_doc):
    """Vectorized margin m with membership m(q) >= 0, for the built-ins
    whose membership is a closed-form inequality."""
    tag = set_doc["set"]
    if tag == "rearr":
        m = int(set_doc["m"])
        return lambda rows: np.sort(rows, axis=-1)[..., :m].sum(axis=-1)
    if tag == "tracenorm":
        factor = math.sqrt(int(set_doc["n"]) / 2.0)
        return lambda rows: rows.sum(axis=-1) - factor * np.linalg.norm(rows, axis=-1)
    if tag == "halfspace-trace":
        return lambda rows: rows.sum(axis=-1)
    raise Mismatch(f"no closed-form margin for set {tag!r}")


# ---------------------------------------------------------------------------
# per-command checks; each takes (exit code, stdout, stderr) and raises
# Mismatch on the first violated invariant


def _payload(rc: int, out: str) -> dict:
    if rc != 0:
        raise Mismatch(f"exit code {rc}, expected 0")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise Mismatch("stdout is not a JSON object")
    return payload


def _close(got, want, tol: float, what: str):
    got = np.asarray(got, dtype=float)
    if got.shape != np.shape(want):
        raise Mismatch(f"{what}: shape {got.shape}, expected {np.shape(want)}")
    err = float(np.abs(got - want).max()) if got.size else 0.0
    if not err <= tol:
        raise Mismatch(f"{what}: off by {err:.3e} > {tol:.1e}")


def check_eig(x):
    want = eigvals(x)
    tol = EIG_TOL * scale_of(x)

    def check(rc, out, err):
        _close(_payload(rc, out)["lambda"], want, tol, "eigenvalues")

    return check


def check_decompose(x):
    want = eigvals(x)
    scale = scale_of(x)
    tol = FRAME_TOL * scale

    def check(rc, out, err):
        payload = _payload(rc, out)
        lam = np.asarray(payload["lambda"], dtype=float)
        _close(lam, want, EIG_TOL * scale, "eigenvalues")
        frame = [blocks_from_doc(d) for d in payload["frame"]]
        if len(frame) != want.size:
            raise Mismatch(f"frame has {len(frame)} idempotents, rank is {want.size}")
        if max_abs_diff(combine(lam, frame), x) > tol:
            raise Mismatch("sum of lambda_i F_i does not reconstruct x")
        for i, f in enumerate(frame):
            if max_abs_diff(jordan(f, f), f) > FRAME_TOL or abs(trace(f) - 1.0) > FRAME_TOL:
                raise Mismatch(f"frame element {i} is not a primitive idempotent")
            for j in range(i + 1, len(frame)):
                prod = jordan(f, frame[j])
                if max(float(np.abs(v).max()) for _, v in prod) > FRAME_TOL:
                    raise Mismatch(f"frame elements {i},{j} are not orthogonal")
        if max_abs_diff(combine(np.ones(len(frame)), frame), unit_like(x)) > FRAME_TOL:
            raise Mismatch("frame does not sum to the unit")

    return check


def check_member(set_doc, x):
    want = bool(set_margin(set_doc)(eigvals(x)) >= 0.0)

    def check(rc, out, err):
        if _payload(rc, out).get("member") is not want:
            raise Mismatch(f"membership verdict differs from the oracle ({want})")

    return check


def check_connect(set_doc, x, y, steps: int = 32):
    """`steps` is the CLI's samples per leg; the three legs of a witness
    between distinct endpoints share two joints."""
    margin = set_margin(set_doc)
    scale = max(scale_of(x), scale_of(y))
    count = 3 * steps - 2

    def check(rc, out, err):
        payload = _payload(rc, out)
        samples = [blocks_from_doc(d) for d in payload["samples"]]
        tolerance = float(payload["tolerance"])
        if len(samples) != count:
            raise Mismatch(f"{len(samples)} path samples, expected {count} for {steps} per leg")
        if max_abs_diff(samples[0], x) > ENDPOINT_TOL * scale:
            raise Mismatch("first sample is not x")
        if max_abs_diff(samples[-1], y) > ENDPOINT_TOL * scale:
            raise Mismatch("last sample is not y")
        lams = np.array([eigvals(s) for s in samples])
        margins = margin(lams)
        bad = np.flatnonzero(margins < -tolerance)
        if bad.size:
            raise Mismatch(f"sample {int(bad[0])} leaves the set (margin {margins[bad[0]]:.3e})")
        gap = max(distance(samples[k], samples[k + 1]) for k in range(len(samples) - 1))
        reported = float(payload["max_step"])
        if abs(gap - reported) > STEP_RTOL * max(1.0, reported):
            raise Mismatch(f"max_step {reported!r} but samples give {gap!r}")

    return check


def check_infeasible(clause: str):
    def check(rc, out, err):
        if rc != 4:
            raise Mismatch(f"exit code {rc}, expected 4")
        if out.strip():
            raise Mismatch("an infeasible command must print nothing on stdout")
        if clause not in err:
            raise Mismatch(f"stderr does not name the clause {clause!r}")

    return check


def check_fan(c, a):
    lc, la = eigvals(c), eigvals(a)
    delta, Delta = float(lc[::-1] @ la), float(lc @ la)
    tol = EIG_TOL * scale_of(c) * scale_of(a) * lc.size

    def check(rc, out, err):
        payload = _payload(rc, out)
        _close(payload["delta"], delta, tol, "delta")
        _close(payload["Delta"], Delta, tol, "Delta")
        if payload.get("samples_in_interval") is not True:
            raise Mismatch("sampled values left the exact interval")

    return check


def check_orbit_sample(x, count: int):
    want = eigvals(x)
    tol = FRAME_TOL * scale_of(x)

    def check(rc, out, err):
        samples = _payload(rc, out)["samples"]
        if len(samples) != count:
            raise Mismatch(f"{len(samples)} samples, expected {count}")
        for k, doc in enumerate(samples):
            _close(eigvals(blocks_from_doc(doc)), want, tol, f"eigenvalues of sample {k}")

    return check


def check_pointed(set_doc, n: int, pointed: bool):
    margin = set_margin(set_doc)

    def check(rc, out, err):
        payload = _payload(rc, out)
        verdict = payload.get("verdict")
        if pointed:
            if verdict != "no-violation-found":
                raise Mismatch(f"verdict {verdict!r} on a pointed cone")
            return
        if verdict != "witness":
            raise Mismatch(f"verdict {verdict!r} on a cone with a lineality space")
        q = np.asarray(payload["witness"], dtype=float)
        if q.shape != (n,) or not float(np.abs(q).max()) > WITNESS_TOL:
            raise Mismatch("witness must be a nonzero vector of length n")
        if margin(q) < -WITNESS_TOL or margin(-q) < -WITNESS_TOL:
            raise Mismatch("witness q does not have both q and -q in the set")

    return check


def check_certify(accepted: bool, clause: str | None):
    def check(rc, out, err):
        payload = _payload(rc, out)
        if payload.get("accepted") is not accepted:
            raise Mismatch(
                f"certificate verdict accepted={payload.get('accepted')!r}, "
                f"expected {accepted} ({payload.get('failed_clause')}: {payload.get('detail')})"
            )
        if not accepted and payload.get("failed_clause") != clause:
            raise Mismatch(f"failed clause {payload.get('failed_clause')!r}, expected {clause!r}")

    return check
