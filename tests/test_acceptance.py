"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np

from qmet import (
    QSpace,
    correspondence_from_rough_isometry,
    demo_space,
    distance_to_embedding,
    distortion,
    embed_point,
    estimate_delta,
    extend_from_subspace,
    family_from_hull_point,
    fixed_point_gap,
    gh_exact,
    hull_as_qspace,
    is_isometric,
    largeness_constant,
    min_delta,
    net_gh_upper,
    pair_dist,
    project_to_hull,
    random_nonexpansive,
    random_qspace,
    restrict,
    rough_isometry_from_correspondence,
    sample_hull,
    verify_rough_isometry,
)
from qmet.pairs import AmplePair, project_arrays
from helpers import brute_gh, permuted_copy, perturbed_space, random_ample_pair

DEMO_NAMES = ("sierpinski", "line3", "metric2", "runit5")
POINT = QSpace([[0.0]])


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c01_embedding_isometry():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    spaces = [demo_space(n) for n in DEMO_NAMES]
    spaces += [random_qspace(5, rng) for _ in range(100)]
    worst = 0.0
    for X in spaces:
        fwd = np.maximum(X.d[:, None, :] - X.d[None, :, :], 0.0).max(axis=2)
        back = np.maximum(X.d.T[None, :, :] - X.d.T[:, None, :], 0.0).max(axis=2)
        D = np.maximum(fwd, back)
        worst = max(worst, float(np.abs(D - X.d).max()))
    elapsed = time.time() - t0
    report(
        1,
        "point embedding is isometric for the hull quasi-metric",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |D - d| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_projection_contract():
    t0 = time.time()
    worst_drop = 0.0     # how far any projected value sits above its input
    worst_idem = 0.0
    worst_expand = -np.inf
    for si, name in enumerate(DEMO_NAMES):
        X = demo_space(name)
        rng = np.random.default_rng(2000 + si)
        scale = X.diam + 0.1
        B = 1000
        base = rng.uniform(0.0, 2.0 * scale, (B, X.n))
        F2 = np.maximum((X.d[None, :, :] - base[:, None, :]).max(axis=2), 0.0)
        F1 = base + rng.uniform(0.0, 0.5 * scale, (B, X.n))
        F2 = F2 + rng.uniform(0.0, 0.5 * scale, (B, X.n))
        P1, P2, _ = project_arrays(X, F1, F2)
        worst_drop = max(
            worst_drop, float((P1 - F1).max()), float((P2 - F2).max())
        )
        Q1, Q2, _ = project_arrays(X, P1, P2)
        worst_idem = max(
            worst_idem, float(np.abs(Q1 - P1).max()), float(np.abs(Q2 - P2).max())
        )
        # consecutive samples form the comparison pairs
        dfg = np.maximum(
            np.maximum((F1[:-1] - F1[1:]).max(axis=1), 0.0),
            np.maximum((F2[1:] - F2[:-1]).max(axis=1), 0.0),
        )
        dpq = np.maximum(
            np.maximum((P1[:-1] - P1[1:]).max(axis=1), 0.0),
            np.maximum((P2[1:] - P2[:-1]).max(axis=1), 0.0),
        )
        worst_expand = max(worst_expand, float((dpq - dfg).max()))
    elapsed = time.time() - t0
    ok = (
        worst_drop <= 0.0
        and worst_idem <= 1e-7
        and worst_expand <= 1e-9
        and elapsed < 10.0
    )
    report(
        2,
        "projection is decreasing, idempotent, non-expansive",
        ok,
        f"above-input {worst_drop:.1e}, idem {worst_idem:.1e}, "
        f"expansion {worst_expand:.1e}, {elapsed:.2f}s",
    )


def test_c03_sierpinski_hull_parametrization():
    S = demo_space("sierpinski")
    H = sample_hull(S, 200, seed=42)
    F1 = np.stack([p.f1 for p in H.points])
    F2 = np.stack([p.f2 for p in H.points])
    ts = F1[:, 0]
    form_dev = max(
        float(np.abs(F1[:, 1]).max()),
        float(np.abs(F2[:, 0]).max()),
        float(np.abs(F2[:, 1] - (1.0 - ts)).max()),
        float(np.maximum(-ts, 0.0).max()),
        float(np.maximum(ts - 1.0, 0.0).max()),
    )
    D = hull_as_qspace(H).d
    expect = np.maximum(ts[:, None] - ts[None, :], 0.0)
    d_dev = float(np.abs(D - expect).max())
    report(
        3,
        "hull net of the asymmetric 2-point demo is the one-way unit interval",
        form_dev <= 1e-6 and d_dev <= 1e-6,
        f"{len(H.points)} points, form dev {form_dev:.1e}, matrix dev {d_dev:.1e}",
    )


def _small_space_pairs():
    rng = np.random.default_rng(4004)
    pairs = []
    for _ in range(20):
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        A = random_qspace(na, rng) if na > 1 else POINT
        B = random_qspace(nb, rng) if nb > 1 else POINT
        pairs.append((A, B))
    return pairs


def test_c04_gh_solver_matches_enumeration():
    t0 = time.time()
    worst = 0.0
    for A, B in _small_space_pairs():
        r = gh_exact(A, B)
        assert r.exact
        worst = max(worst, abs(r.value - brute_gh(A, B)))
    s_point = gh_exact(demo_space("sierpinski"), POINT).value
    s_metric = gh_exact(demo_space("sierpinski"), demo_space("metric2")).value
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and s_point == 0.5 and s_metric == 0.5 and elapsed < 30.0
    report(
        4,
        "solver equals complete correspondence enumeration",
        ok,
        f"max dev {worst:.1e}, demo values {s_point}/{s_metric}, {elapsed:.2f}s",
    )


def test_c05_witness_round_trips():
    S, M2 = demo_space("sierpinski"), demo_space("metric2")
    solver_rs = [
        gh_exact(A, B).correspondence
        for A, B in _small_space_pairs()[:10] + [(S, M2), (S, POINT), (M2, POINT)]
    ]
    worst_eps = -np.inf
    worst_chain = -np.inf
    witnesses = []
    for R in solver_rs:
        w = rough_isometry_from_correspondence(R)
        worst_eps = max(worst_eps, w.eps - distortion(R))
        witnesses.append(w)
    # hand-built witnesses exercise the reverse direction too
    witnesses.append(verify_rough_isometry([0, 1], S, M2))
    witnesses.append(verify_rough_isometry([0, 0, 0], demo_space("line3"), demo_space("line3")))
    for w in witnesses:
        R2 = correspondence_from_rough_isometry(w)
        worst_chain = max(worst_chain, distortion(R2) - 3.0 * w.eps)
    ok = worst_eps <= 1e-12 and worst_chain <= 1e-9
    report(
        5,
        "correspondence <-> rough isometry round trips hold their bounds",
        ok,
        f"eps excess {worst_eps:.1e}, chain excess {worst_chain:.1e}",
    )


def test_c06_subspace_extension_within_four_eps():
    t0 = time.time()
    rng = np.random.default_rng(6006)
    worst = -np.inf
    for si in range(50):
        X = random_qspace(5, rng)
        size = int(rng.integers(1, 5))
        idx = sorted(rng.choice(5, size=size, replace=False).tolist())
        eps = largeness_constant(X, idx)
        sub = restrict(X, idx)
        H = sample_hull(X, 50, seed=si)
        for f in H.points[:50]:
            f_y = project_to_hull(AmplePair(sub, f.f1[idx], f.f2[idx]))
            back = extend_from_subspace(X, idx, f_y)
            worst = max(worst, pair_dist(f, back, "Dsym") - 4.0 * eps)
    elapsed = time.time() - t0
    report(
        6,
        "restriction/extension round trip stays within 4x the covering constant",
        worst <= 1e-6 and elapsed < 60.0,
        f"worst excess {worst:.1e}, {elapsed:.1f}s",
    )


def test_c07_hull_stability_net_check():
    rng = np.random.default_rng(7007)
    results = []
    for trial in range(20):
        X = random_qspace(4, rng)
        Y = perturbed_space(X, rng, 0.08 * X.diam)
        g = gh_exact(X, Y).value
        HX = sample_hull(X, 400, seed=trial)
        HY = sample_hull(Y, 400, seed=trial + 1000)
        net = net_gh_upper(HX, HY)
        slack = 0.1 * max(X.diam, Y.diam)
        results.append((net, 8.0 * g + slack))
    n_pass = sum(1 for net, bound in results if net <= bound)
    worst = max(net - bound for net, bound in results)
    report(
        7,
        "net GH between sampled hulls within 8x base GH plus documented slack "
        "(net approximation, not proof-grade)",
        n_pass == len(results),
        f"{n_pass}/{len(results)} pairs, worst margin {worst:.3f}",
    )


def test_c08_delta_constants():
    t0 = time.time()
    s = estimate_delta(demo_space("sierpinski"), samples=200, restarts=6, seed=8)
    m = estimate_delta(demo_space("metric2"), samples=200, restarts=6, seed=8)
    p = estimate_delta(POINT, samples=5, restarts=2, seed=8)
    elapsed = time.time() - t0
    ok = (
        0.48 <= s.lower <= 0.50
        and 0.95 <= m.lower <= 1.00
        and p.lower == 0.0
        and elapsed < 30.0
    )
    report(
        8,
        "injectivity constant estimates hit the derived values",
        ok,
        f"2pt-asym {s.lower:.6f} (true 0.5), 2pt-metric {m.lower:.6f} (true 1), "
        f"point {p.lower}, {elapsed:.1f}s",
    )


def test_c09_family_delta_equals_embedding_gap():
    rng = np.random.default_rng(9009)
    worst = 0.0
    count = 0
    for si in range(10):
        X = random_qspace(4, rng)
        H = sample_hull(X, 10, seed=si)
        for f in H.points[:10]:
            F = family_from_hull_point(X, f)
            worst = max(worst, abs(min_delta(X, F) - distance_to_embedding(X, f)))
            count += 1
    report(
        9,
        "closed-form family inflation equals distance to the embedded copy",
        count >= 100 and worst <= 1e-6,
        f"{count} hull points, max dev {worst:.1e}",
    )


def test_c10_fixed_point_corollary():
    S, M2 = demo_space("sierpinski"), demo_space("metric2")
    maps_s = random_nonexpansive(S)
    ok_count = len(maps_s) == 3
    worst = -np.inf
    for X, delta in ((S, 0.5), (M2, 1.0)):
        for T in random_nonexpansive(X):
            gap, _ = fixed_point_gap(X, T)
            worst = max(worst, gap - 2.0 * delta)
    report(
        10,
        "every non-expansive self-map moves some point by at most 2 delta",
        ok_count and worst <= 1e-9,
        f"{len(maps_s)} maps on the asymmetric demo, worst excess {worst:.1e}",
    )


def test_c11_hull_diameter_bound():
    worst = -np.inf
    for name in DEMO_NAMES:
        X = demo_space(name)
        Q = hull_as_qspace(sample_hull(X, 200, seed=11))
        worst = max(worst, float(Q.d.max()) - 3.0 * X.diam)
    report(
        11,
        "hull nets stay within three demo diameters",
        worst <= 1e-6,
        f"worst excess {worst:.1e}",
    )


def test_c12_gh_zero_iff_isometric():
    rng = np.random.default_rng(1212)
    checked = 0
    ok = True
    for trial in range(50):
        n = int(rng.integers(2, 6))
        X = random_qspace(n, rng)
        if trial % 2 == 0:
            Y, _ = permuted_copy(X, rng)
        else:
            m = int(rng.integers(2, 6))
            Y = random_qspace(m, rng)
        value = gh_exact(X, Y).value
        perm = is_isometric(X, Y, tol=1e-9)
        ok = ok and ((value <= 1e-9) == (perm is not None))
        checked += 1
    report(
        12,
        "GH distance vanishes exactly on isometric pairs",
        ok and checked == 50,
        f"{checked} pairs",
    )
