"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and are not calibration knobs.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from jspec import (
    ComplexHermitian,
    DecompositionCertificate,
    Element,
    InfeasiblePathError,
    ProductAlgebra,
    RealSymmetric,
    SpectralSet,
    SpinFactor,
    add_elements,
    apply_automorphism,
    certificate_check,
    components_finite,
    compose_theta,
    connect,
    coordinate_algebra,
    distance,
    eigen_map,
    element_from_sym,
    fan_interval,
    fan_sample,
    inner_product,
    jordan_product,
    make_finite_orbit,
    make_rearrangement_cone,
    make_trace_halfspace,
    make_trace_norm_cone,
    norm,
    orbit_path,
    orbit_sample,
    pointed_sample_check,
    random_element,
    random_g_automorphism,
    scale_element,
    sort_desc,
    spectral_decompose,
    ss_member,
    sum_split,
    trace,
    unit_element,
)
from jspec.algebra import sym_matrix
from jspec.io import emit_element

ROUND_TRIP_KINDS = (
    [RealSymmetric(n) for n in range(2, 7)]
    + [ComplexHermitian(n) for n in range(2, 5)]
    + [SpinFactor(d) for d in range(3, 9)]
    + [
        ProductAlgebra((RealSymmetric(3), SpinFactor(4))),
        ProductAlgebra((ComplexHermitian(2), RealSymmetric(1), RealSymmetric(2))),
    ]
)

SIMPLE_POOL = (
    [RealSymmetric(n) for n in range(2, 5)]
    + [ComplexHermitian(n) for n in (2, 3)]
    + [SpinFactor(d) for d in range(3, 9)]
)


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def _member_with_margin(q_set, rank, rng, margin=1e-6):
    """Rejection-sample an interior member of the set in R^rank."""
    for _ in range(10_000):
        q = rng.standard_normal(rank) + rng.uniform(0.0, 2.0)
        m = q_set.margin(q)
        if m is not None and m >= margin:
            return q
    raise RuntimeError("could not sample an interior member")


def test_criterion_01_round_trip():
    t0 = time.time()
    count = 0
    worst = 0.0
    seed = 0
    while count < 1000:
        a = ROUND_TRIP_KINDS[count % len(ROUND_TRIP_KINDS)]
        x = random_element(a, seed)
        seed += 1
        frame, values = spectral_decompose(x)
        err = distance(compose_theta(values, frame), x) / max(1e-300, norm(x))
        worst = max(worst, err)
        assert err <= 1e-8
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f} s"
    _report(1, f"1000 round trips, worst relative error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_theta_law():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(1000):
        a = ROUND_TRIP_KINDS[trial % len(ROUND_TRIP_KINDS)]
        frame, _ = spectral_decompose(random_element(a, 5_000 + trial))
        q = rng.standard_normal(a.rank)
        err = float(np.abs(eigen_map(compose_theta(q, frame)) - sort_desc(q)).max())
        worst = max(worst, err)
        assert err <= 1e-9
    _report(2, f"1000 composition-law checks, worst error {worst:.2e}")


def test_criterion_03_orbit_paths():
    worst_drift = 0.0
    worst_end = 0.0
    for run in range(200):
        a = SIMPLE_POOL[run % len(SIMPLE_POOL)]
        x = random_element(a, 10_000 + run)
        y = orbit_sample(x, 1, seed=run)[0]
        path = orbit_path(x, y, steps=200)
        lam = eigen_map(x)
        drift = max(float(np.abs(eigen_map(s) - lam).max()) for s in path.samples)
        end_err = max(distance(path.samples[0], x), distance(path.samples[-1], y))
        worst_drift = max(worst_drift, drift)
        worst_end = max(worst_end, end_err)
        assert drift <= 1e-8
        assert end_err <= 1e-10
    _report(
        3,
        f"200 orbit paths x 200 samples, worst drift {worst_drift:.2e}, "
        f"worst endpoint error {worst_end:.2e}",
    )


def test_criterion_04_connect_convex():
    rng = np.random.default_rng(4)
    audited = 0
    for q_set, label in [
        (make_rearrangement_cone(4, 1), "positive semidefinite cone of S^4"),
        (make_rearrangement_cone(4, 2), "rearrangement cone (4,2) over S^4"),
    ]:
        a = RealSymmetric(4)
        sset = SpectralSet(a, q_set)
        for run in range(100):
            qx = sort_desc(_member_with_margin(q_set, 4, rng))
            qy = sort_desc(_member_with_margin(q_set, 4, rng))
            fx, _ = spectral_decompose(random_element(a, 20_000 + run))
            fy, _ = spectral_decompose(random_element(a, 30_000 + run))
            x = compose_theta(qx, fx)
            y = compose_theta(qy, fy)
            path = connect(sset, x, y, steps=12, tolerance=1e-8)
            margins = q_set.margin_many(np.array([eigen_map(s) for s in path.samples]))
            assert float(margins.min()) >= -1e-8
            audited += len(path.samples)
    _report(4, f"200 convex connect runs, {audited} samples all inside with slack 1e-8")


def test_criterion_05_coordinate_vector_obstruction(tmp_path):
    a = coordinate_algebra(3)
    sset = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    comps = components_finite(sset)
    assert len(comps) == 3
    # CLI surface must report the infeasibility as exit code 4
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({"set": "finite", "points": [[1, 0, 0]]}))
    c1 = tmp_path / "c1.json"
    c1.write_text(json.dumps(emit_element(Element(a, np.array([1.0, 0.0, 0.0])))))
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps(emit_element(Element(a, np.array([0.0, 1.0, 0.0])))))
    proc = subprocess.run(
        [sys.executable, "-m", "jspec.cli", "connect", str(set_path), str(c1), str(c2)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    _report(5, "3 components over R^3 and connect(c1, c2) exits with code 4")


def test_criterion_06_rank_one_orbit():
    a = RealSymmetric(3)
    x = element_from_sym(a, np.diag([1.0, 0.0, 0.0]))
    samples = orbit_sample(x, 500, seed=6)
    for y in samples:
        assert distance(jordan_product(y, y), y) <= 1e-8
        assert abs(trace(y) - 1.0) <= 1e-8
    sset = SpectralSet(a, make_finite_orbit([[1.0, 0.0, 0.0]]))
    path = connect(sset, samples[17], samples[401], steps=25)
    assert distance(path.samples[-1], samples[401]) <= 1e-9
    _report(6, "500 orbit samples are unit-trace idempotents; connect succeeded")


def test_criterion_07_idempotent_circle():
    a = RealSymmetric(2)
    x = element_from_sym(a, np.diag([1.0, 0.0]))
    y = element_from_sym(a, np.array([[0.5, 0.5], [0.5, 0.5]]))
    path = orbit_path(x, y, steps=100)
    thetas = []
    worst = 0.0
    for s in path.samples:
        m = sym_matrix(s)
        theta = 0.5 * np.arctan2(2.0 * m[0, 1], m[0, 0] - m[1, 1])
        if thetas:
            theta += np.pi * round((thetas[-1] - theta) / np.pi)
        ref = np.array(
            [
                [np.cos(theta) ** 2, np.cos(theta) * np.sin(theta)],
                [np.cos(theta) * np.sin(theta), np.sin(theta) ** 2],
            ]
        )
        worst = max(worst, float(np.abs(m - ref).max()))
        assert np.abs(m - ref).max() <= 1e-8
        thetas.append(theta)
    diffs = np.diff(thetas)
    assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12), "theta sweep not monotone"
    _report(7, f"idempotent-circle path monotone in theta, worst pointwise error {worst:.2e}")


def test_criterion_08_fan_interval():
    checked = 0
    for a in (RealSymmetric(3), ComplexHermitian(3)):
        for pair in range(50):
            c = random_element(a, 40_000 + pair)
            x = random_element(a, 41_000 + pair)
            fi = fan_interval(c, x)
            values = fan_sample(c, x, 2000, seed=pair)
            assert values.min() >= fi.delta - 1e-9
            assert values.max() <= fi.Delta + 1e-9
            assert abs(inner_product(c, fi.maximizer) - fi.Delta) <= 1e-9
            assert abs(inner_product(c, fi.minimizer) - fi.delta) <= 1e-9
            checked += values.size
    a2 = RealSymmetric(2)
    fi = fan_interval(
        element_from_sym(a2, np.diag([1.0, -1.0])),
        element_from_sym(a2, np.diag([1.0, 0.0])),
    )
    assert abs(fi.delta - (-1.0)) <= 1e-12 and abs(fi.Delta - 1.0) <= 1e-12
    _report(8, f"{checked} orbit values inside their intervals; S^2 pair is exactly [-1, 1]")


def test_criterion_09_sum_split():
    rng = np.random.default_rng(9)
    r31 = make_rearrangement_cone(3, 1)
    s31 = SpectralSet(RealSymmetric(3), r31)
    h31 = SpectralSet(ComplexHermitian(3), r31)
    runs = 0
    for trial in range(100):
        # coordinate-wise split of a positive spectrum over S^3
        frame, _ = spectral_decompose(random_element(RealSymmetric(3), 50_000 + trial))
        z = compose_theta(np.sort(rng.uniform(0.1, 4.0, 3))[::-1], frame)
        lam = eigen_map(z)
        u = rng.uniform(0.0, 1.0, 3)
        p1, p2 = sum_split(z, r31, r31, u * lam, (1.0 - u) * lam)
        assert distance(add_elements(p1, p2), z) <= 1e-9 * max(1e-300, norm(z))
        assert ss_member(s31, p1, slack=1e-10) and ss_member(s31, p2, slack=1e-10)
        runs += 1
    for trial in range(100):
        # ray split of a positive spectrum over H^3
        frame, _ = spectral_decompose(random_element(ComplexHermitian(3), 60_000 + trial))
        z = compose_theta(np.sort(rng.uniform(0.1, 4.0, 3))[::-1], frame)
        lam = eigen_map(z)
        t = float(rng.uniform(0.0, 1.0))
        p1, p2 = sum_split(z, r31, r31, t * lam, (1.0 - t) * lam)
        assert distance(add_elements(p1, p2), z) <= 1e-9 * max(1e-300, norm(z))
        assert ss_member(h31, p1, slack=1e-10) and ss_member(h31, p2, slack=1e-10)
        runs += 1
    _report(9, f"{runs} sum splits reassembled within 1e-9 with both memberships")


def test_criterion_10_orbit_closedness_and_invariance():
    rng = np.random.default_rng(10)
    trials = 0
    for a in (RealSymmetric(3), ComplexHermitian(3), SpinFactor(6)):
        n = a.rank
        builders = [make_rearrangement_cone(n, 1), make_trace_halfspace(n)]
        if n >= 3:
            builders += [make_rearrangement_cone(n, n - 1), make_trace_norm_cone(n)]
        builders.append(make_finite_orbit([np.linspace(n, 1, n)]))
        for q_set in builders:
            sset = SpectralSet(a, q_set)
            if q_set.points is not None:
                q0 = q_set.points[0]
            else:
                q0 = sort_desc(_member_with_margin(q_set, n, rng))
            frame, _ = spectral_decompose(random_element(a, trials + 70_000))
            x = compose_theta(q0, frame)
            assert ss_member(sset, x)
            for y in orbit_sample(x, 500, seed=trials):
                assert ss_member(sset, y), f"{q_set.tag} over {a}: orbit sample left the set"
            for k in range(500):
                phi = random_g_automorphism(a, rng)
                assert ss_member(sset, apply_automorphism(phi, x)), (
                    f"{q_set.tag} over {a}: automorphism image left the set"
                )
            trials += 1000
    _report(10, f"{trials} orbit/automorphism trials with zero membership violations")


def test_criterion_11_certificates():
    rn3 = coordinate_algebra(3)
    orthant = SpectralSet(rn3, make_rearrangement_cone(3, 1))
    rays = [Element(rn3, np.eye(3)[i]) for i in range(3)]
    verdict = certificate_check(
        orthant,
        DecompositionCertificate(tuple((r,) for r in rays)),
        samples=50,
        seed=11,
    )
    assert verdict.accepted

    a2 = RealSymmetric(2)
    psd2 = SpectralSet(a2, make_rearrangement_cone(2, 1))
    g1 = element_from_sym(a2, np.diag([1.0, 0.0]))
    g2 = element_from_sym(a2, np.diag([0.0, 1.0]))
    g3 = element_from_sym(a2, np.array([[0.5, 0.5], [0.5, 0.5]]))
    split_verdict = certificate_check(
        psd2,
        DecompositionCertificate(((g1,), (g2, g3))),
        samples=50,
        seed=12,
    )
    assert not split_verdict.accepted
    assert split_verdict.failed_clause in ("span-independence", "nonnegative-reconstruction")
    overlap_verdict = certificate_check(
        psd2,
        DecompositionCertificate(((g1, g2), (g3, g1))),
        samples=10,
        seed=13,
    )
    assert overlap_verdict.failed_clause == "span-independence"
    _report(
        11,
        "orthant ray certificate accepted; semidefinite splits rejected "
        f"({split_verdict.failed_clause}, {overlap_verdict.failed_clause})",
    )


def test_criterion_12_trace_norm_extremeness():
    a = RealSymmetric(3)
    cone = make_trace_norm_cone(3)
    sset = SpectralSet(a, cone)
    rng = np.random.default_rng(12)
    for point in range(100):
        g = rng.standard_normal(3)
        g -= g.mean()
        if np.linalg.norm(g) < 1e-3:
            g = np.array([1.0, -0.5, -0.5])
        q = (float(np.linalg.norm(g)) / np.sqrt(3.0)) * np.ones(3) + g
        frame, _ = spectral_decompose(random_element(a, 80_000 + point))
        x = compose_theta(sort_desc(q), frame)
        lam = eigen_map(x)
        assert abs(lam.sum() - np.sqrt(1.5) * np.linalg.norm(lam)) <= 1e-10
        eps = 1e-3 * norm(x)
        x_norm_sq = inner_product(x, x)
        for k in range(100):
            d = random_element(a, int(rng.integers(1 << 30)))
            d = add_elements(d, scale_element(-inner_product(d, x) / x_norm_sq, x))
            if norm(d) == 0.0:
                continue
            both = ss_member(sset, add_elements(x, scale_element(eps, d))) and ss_member(
                sset, add_elements(x, scale_element(-eps, d))
            )
            assert not both, "two-sided perturbation stayed inside the cone"
    # contrast with the symmetric cone: e1 + e2 is a midpoint of two
    # distinct members, hence not extreme
    psd3 = SpectralSet(a, make_rearrangement_cone(3, 1))
    mid = element_from_sym(a, np.diag([1.0, 1.0, 0.0]))
    far1 = element_from_sym(a, np.diag([2.0, 0.0, 0.0]))
    far2 = element_from_sym(a, np.diag([0.0, 2.0, 0.0]))
    assert ss_member(psd3, mid) and ss_member(psd3, far1) and ss_member(psd3, far2)
    assert distance(scale_element(0.5, add_elements(far1, far2)), mid) == 0.0
    assert distance(far1, far2) > 1.0
    _report(12, "100 boundary points extreme under perturbation; e1+e2 contrast exhibited")


def test_criterion_13_pointedness():
    for n in range(2, 6):
        for m in range(1, n):
            witness = pointed_sample_check(
                make_rearrangement_cone(n, m), samples=100_000, seed=13
            )
            assert witness is None, f"({n},{m}) produced a spurious witness {witness}"
    halfspace_witness = pointed_sample_check(make_trace_halfspace(2), samples=1000, seed=13)
    assert halfspace_witness is not None
    assert abs(halfspace_witness.sum()) <= 1e-12
    _report(
        13,
        "rearrangement cones (n <= 5) clean over 1e5 samples; half-space witness "
        f"{halfspace_witness.tolist()} found within 1e3 samples",
    )
