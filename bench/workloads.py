"""Workload generators: documents and command lines made from a seed.

Each workload writes its documents into a directory and returns its op
classes.  An op class is one command line with the check that decides
whether its output is correct, and a weight: how many times it runs in one
round of the closed loop.  The weights place the p50 and p90 latency
inside one op class each (see README.md), so a small timing change cannot
move a percentile across a class boundary.

An op class with ``known_defect`` set reproduces a known jspec defect: it
has weight 0, so it is not in the timed mix, and each run checks it once
as a probe (see worker.probe).  Its check still expects the correct output.

The documents depend only on the workload name and the seed; the command
``--seed`` values are drawn from the same generator.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

WORKLOAD_TAGS = {"paths": 1, "sampling": 2, "spectra": 3}


@dataclass(frozen=True)
class OpClass:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], None]
    weight: int
    # text that the check's failure carries while the defect stands
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# documents


def sym_doc(m: np.ndarray) -> dict:
    return {"alg": {"kind": "sym", "n": m.shape[0]}, "data": m.tolist()}


def herm_doc(m: np.ndarray) -> dict:
    return {
        "alg": {"kind": "herm", "n": m.shape[0]},
        "data": {"re": m.real.tolist(), "im": m.imag.tolist()},
    }


def spin_doc(v: np.ndarray) -> dict:
    return {"alg": {"kind": "spin", "d": v.size}, "data": {"x0": float(v[0]), "xbar": v[1:].tolist()}}


def product_doc(factors: list[dict]) -> dict:
    return {
        "alg": {"kind": "product", "factors": [f["alg"] for f in factors]},
        "data": {"factors": factors},
    }


def _haar(rng, n: int, complex_: bool = False) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitize(m: np.ndarray) -> np.ndarray:
    # (m + m^*)/2 is exactly symmetric (Hermitian) in floating point
    return (m + m.conj().T) / 2.0


def sym_with(rng, lam) -> np.ndarray:
    u = _haar(rng, len(lam))
    return _hermitize(u @ np.diag(lam) @ u.T)


def herm_with(rng, lam) -> np.ndarray:
    u = _haar(rng, len(lam), complex_=True)
    return _hermitize(u @ np.diag(lam) @ u.conj().T)


def spin_with(rng, x0: float, radius: float, d: int) -> np.ndarray:
    u = rng.standard_normal(d - 1)
    return np.concatenate(([x0], radius * u / np.linalg.norm(u)))


def coord_doc(v) -> dict:
    return product_doc([sym_doc(np.array([[float(t)]])) for t in v])


class DocDir:
    """Writes documents under one directory and hands back their paths."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, doc: dict) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _cmd_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# workloads


def paths(rng, docs: DocDir) -> list[OpClass]:
    """connect on four kinds, plus member and one finite-orbit obstruction."""
    psd6 = {"set": "rearr", "n": 6, "m": 1}
    s_psd6 = docs.put("psd6.json", psd6)
    x = sym_with(rng, rng.uniform(0.2, 2.0, 6))
    u = _haar(rng, 6)
    y = _hermitize(u @ x @ u.T)  # same orbit as x
    z = sym_with(rng, rng.uniform(0.2, 2.0, 6))
    w = sym_with(rng, np.concatenate((rng.uniform(0.2, 2.0, 5), [-rng.uniform(0.2, 1.0)])))
    bx, by, bz, bw = (oracle.blocks_from_doc(sym_doc(m)) for m in (x, y, z, w))
    p_x, p_y = docs.put("sym6_x.json", sym_doc(x)), docs.put("sym6_y.json", sym_doc(y))
    p_z, p_w = docs.put("sym6_z.json", sym_doc(z)), docs.put("sym6_w.json", sym_doc(w))

    tn4 = {"set": "tracenorm", "n": 4}
    s_tn4 = docs.put("tracenorm4.json", tn4)
    hx = herm_with(rng, 1.0 + 0.25 * rng.uniform(-1.0, 1.0, 4))
    hy = herm_with(rng, 1.0 + 0.25 * rng.uniform(-1.0, 1.0, 4))
    bhx, bhy = oracle.blocks_from_doc(herm_doc(hx)), oracle.blocks_from_doc(herm_doc(hy))
    p_hx, p_hy = docs.put("herm4_x.json", herm_doc(hx)), docs.put("herm4_y.json", herm_doc(hy))

    psd5 = {"set": "rearr", "n": 5, "m": 1}
    s_psd5 = docs.put("psd5.json", psd5)
    ends = []
    for tag in ("x", "y"):
        s3 = sym_with(rng, rng.uniform(0.2, 2.0, 3))
        x0 = float(rng.uniform(1.0, 2.0))
        sp = spin_with(rng, x0, x0 * float(rng.uniform(0.1, 0.8)), 4)
        doc = product_doc([sym_doc(s3), spin_doc(sp)])
        blocks = oracle.blocks_from_doc(doc)
        # per-factor sorted eigenvalue blocks: the q_path endpoints
        qv = np.concatenate([oracle.eigvals(blocks[:1]), oracle.eigvals(blocks[1:])])
        ends.append((docs.put(f"prod_{tag}.json", doc), blocks, qv))
    (p_px, bpx, qx), (p_py, bpy, qy) = ends
    mid = 0.5 * (qx + qy) + rng.uniform(0.1, 0.5, 5)
    p_qpath = docs.put("qpath.json", {"vertices": [qx.tolist(), mid.tolist(), qy.tolist()]})

    v = rng.permutation(np.array([3.0, 2.0, 1.0]) * rng.uniform(0.5, 1.5))
    s_fin = docs.put("finite3.json", {"set": "finite", "points": [v.tolist()]})
    p_c1 = docs.put("coord_a.json", coord_doc(v))
    p_c2 = docs.put("coord_b.json", coord_doc(v[[1, 0, 2]]))

    # latency order: member and the obstruction (~4 ms) < product (~40 ms)
    # < herm4 (~60 ms) < sym6 orbit (~110 ms) < sym6 distinct at 64 steps
    # (~200 ms); p50 lands mid herm4, p90 mid sym6 distinct
    return [
        OpClass("member.in", ("member", s_psd6, p_x), oracle.check_member(psd6, bx), 2),
        OpClass("member.out", ("member", s_psd6, p_w), oracle.check_member(psd6, bw), 2),
        OpClass("connect.finite-obstruction", ("connect", s_fin, p_c1, p_c2),
                oracle.check_infeasible("no-path-in-finite-set"), 2),
        OpClass("connect.product-qpath", ("connect", s_psd5, p_px, p_py, "--qpath", p_qpath),
                oracle.check_connect(psd5, bpx, bpy), 1),
        OpClass("connect.herm4", ("connect", s_tn4, p_hx, p_hy),
                oracle.check_connect(tn4, bhx, bhy), 6),
        OpClass("connect.sym6-orbit", ("connect", s_psd6, p_x, p_y),
                oracle.check_connect(psd6, bx, by), 3),
        OpClass("connect.sym6-distinct", ("connect", s_psd6, p_x, p_z, "--steps", "64"),
                oracle.check_connect(psd6, bx, bz, steps=64), 4),
    ]


def _orthant_cert(rays) -> dict:
    return {"parts": [[coord_doc(r)] for r in rays]}


def sampling(rng, docs: DocDir) -> list[OpClass]:
    """fan, orbit-sample, pointed-check and certify: seeded sampling loops."""
    c = sym_with(rng, rng.standard_normal(3))
    a = sym_with(rng, rng.standard_normal(3))
    p_c, p_a = docs.put("fan_c.json", sym_doc(c)), docs.put("fan_a.json", sym_doc(a))
    h = herm_with(rng, rng.standard_normal(4))
    p_h = docs.put("herm4.json", herm_doc(h))

    r52 = {"set": "rearr", "n": 5, "m": 2}
    hs5 = {"set": "halfspace-trace", "n": 5}
    s_r52, s_hs5 = docs.put("rearr52.json", r52), docs.put("halfspace5.json", hs5)

    s_orth = docs.put("orthant3.json", {"set": "rearr", "n": 3, "m": 1})
    eye = np.eye(3)
    p_valid = docs.put("cert_orthant.json", _orthant_cert(eye))
    # valid: positive rescalings of the orthant rays generate the same cone
    p_rescaled = docs.put("cert_rescaled.json", _orthant_cert(np.diag([100.0, 0.01, 1.0])))
    p_overlap = docs.put("cert_overlap.json", {"parts": [
        [coord_doc(eye[0]), coord_doc(eye[1])], [coord_doc(eye[0] + eye[1]), coord_doc(eye[2])],
    ]})

    def seeded(*argv, samples_flag="--samples", count=None):
        return (*argv, samples_flag, str(count), "--seed", _cmd_seed(rng))

    fan_samples, orbit_count, pointed_samples, cert_samples = 2000, 200, 3000, 20
    # latency order: certify overlap (~2 ms) < certify orthant (~18 ms)
    # < orbit-sample (~35 ms) < pointed-check (~65 ms) < fan (~150 ms);
    # p50 lands mid orbit-sample, p90 mid fan.  certify rescaled is valid,
    # but the projected-gradient NNLS rejects it: a probe, not timed
    return [
        OpClass("certify.overlap", seeded("certify", s_orth, p_overlap, count=cert_samples),
                oracle.check_certify(False, "span-independence"), 1),
        OpClass("certify.orthant", seeded("certify", s_orth, p_valid, count=cert_samples),
                oracle.check_certify(True, None), 3),
        OpClass("orbit-sample.herm4", seeded("orbit-sample", p_h, samples_flag="--count", count=orbit_count),
                oracle.check_orbit_sample(oracle.blocks_from_doc(herm_doc(h)), orbit_count), 10),
        OpClass("pointed-check.rearr52", seeded("pointed-check", s_r52, count=pointed_samples),
                oracle.check_pointed(r52, 5, pointed=True), 1),
        OpClass("pointed-check.halfspace5", seeded("pointed-check", s_hs5, count=pointed_samples),
                oracle.check_pointed(hs5, 5, pointed=False), 1),
        OpClass("certify.rescaled", seeded("certify", s_orth, p_rescaled, count=cert_samples),
                oracle.check_certify(True, None), 0, known_defect="nonnegative-reconstruction"),
        OpClass("fan.sym3", seeded("fan", p_c, p_a, count=fan_samples),
                oracle.check_fan(oracle.blocks_from_doc(sym_doc(c)), oracle.blocks_from_doc(sym_doc(a))), 4),
    ]


def spectra(rng, docs: DocDir) -> list[OpClass]:
    """eig and decompose on a few large elements."""
    # fixed spectra with seeded eigenvectors: the Jacobi sweep count, and so
    # the work per op, follows the eigenvalue gaps rather than the seed
    s = sym_with(rng, np.linspace(-3.0, 3.0, 40))
    h = herm_with(rng, np.linspace(-2.0, 2.0, 20))
    prod = product_doc([
        sym_doc(sym_with(rng, np.linspace(-1.5, 1.5, 16))),
        herm_doc(herm_with(rng, np.linspace(-1.0, 1.0, 8))),
        spin_doc(spin_with(rng, float(rng.standard_normal()), 1.0 + float(rng.uniform()), 6)),
    ])
    # latency order: eig product (~19 ms) < eig herm20 (~32 ms) < decompose
    # herm20 / product (~65-75 ms) < eig sym40 (~100 ms) < decompose sym40
    # (~230 ms); p50 lands mid eig herm20, p90 in decompose sym40
    weights = {"sym": (1, 4), "herm": (12, 1), "product": (6, 1)}
    out = []
    for tag, doc in (("sym", sym_doc(s)), ("herm", herm_doc(h)), ("product", prod)):
        path = docs.put(f"{tag}.json", doc)
        blocks = oracle.blocks_from_doc(doc)
        w_eig, w_dec = weights[tag]
        out.append(OpClass(f"eig.{tag}", ("eig", path), oracle.check_eig(blocks), w_eig))
        out.append(OpClass(f"decompose.{tag}", ("decompose", path),
                           oracle.check_decompose(blocks), w_dec))
    return out


WORKLOADS = {"paths": paths, "sampling": sampling, "spectra": spectra}


def build(workload: str, seed: int, root: str) -> list[OpClass]:
    """Write the workload's documents for `seed` under `root`; return its op classes."""
    rng = np.random.default_rng([WORKLOAD_TAGS[workload], seed])
    return WORKLOADS[workload](rng, DocDir(root))
