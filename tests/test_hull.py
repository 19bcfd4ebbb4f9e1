import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qmet import (
    QSpace,
    demo_space,
    estimate_delta,
    gh_exact,
    glue_space,
    hull_as_qspace,
    in_hull,
    is_isometric,
    net_gh_upper,
    pair_dist,
    random_qspace,
    rough_inverse,
    rough_isometry_from_correspondence,
    sample_hull,
)
from qmet import hull, pairs
from qmet.errors import LengthMismatch, QmetError, ValidationError
from qmet.hull import HullSample, _net_matrix, _retract_rows, _snap
from qmet.io import hull_to_obj
from qmet.pairs import AmplePair, dsym, embed_point, is_ample, row_blocks
from qmet.tolerances import slack
from helpers import (
    perturbed_space,
    qspaces,
    reference_net_gh_upper,
    reference_net_matrix,
    reference_sample_hull,
    same_bits,
)

S = demo_space("sierpinski")
M2 = demo_space("metric2")


class TestSampleHull:
    def test_sierpinski_parametrization(self):
        H = sample_hull(S, 200, seed=3)
        assert len(H.points) > 20
        for p in H.points:
            t = p.f1[0]
            assert -1e-6 <= t <= 1 + 1e-6
            assert abs(p.f1[1]) <= 1e-6
            assert abs(p.f2[0]) <= 1e-6
            assert abs(p.f2[1] - (1 - t)) <= 1e-6

    def test_k_zero_keeps_embeddings_only(self):
        H = sample_hull(S, 0, seed=1)
        assert len(H.points) == 2
        assert H.points[0].f1.tolist() == [0, 0]
        assert H.points[1].f1.tolist() == [1, 0]

    def test_one_point_space(self):
        H = sample_hull(QSpace([[0.0]]), 25, seed=1)
        assert len(H.points) == 1
        assert H.points[0].f1.tolist() == [0.0]
        assert H.points[0].f2.tolist() == [0.0]

    def test_deterministic(self):
        a = sample_hull(M2, 60, seed=11)
        b = sample_hull(M2, 60, seed=11)
        assert len(a.points) == len(b.points)
        for p, q in zip(a.points, b.points):
            assert np.array_equal(p.f1, q.f1) and np.array_equal(p.f2, q.f2)
        c = sample_hull(M2, 60, seed=12)
        assert any(
            not np.array_equal(p.f1, q.f1) for p, q in zip(a.points, c.points)
        ) or len(a.points) != len(c.points)

    def test_all_points_certified(self):
        H = sample_hull(M2, 40, seed=2)
        for p in H.points:
            assert p.certified_minimal
            assert in_hull(p, 1e-7)

    def test_spread_above_dedup(self):
        H = sample_hull(S, 100, seed=4)
        assert H.spread >= 1e-9

    @given(qspaces(max_n=4), st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_one_lipschitz(self, X, seed):
        H = sample_hull(X, 12, seed=seed)
        for p in H.points:
            for x in range(X.n):
                for y in range(X.n):
                    assert p.f1[x] - p.f1[y] <= X.d[y, x] + 1e-9
                    assert p.f2[x] - p.f2[y] <= X.d[x, y] + 1e-9

    @pytest.mark.parametrize(
        "X, per_axis",
        [
            (M2, 101),
            (demo_space("line3"), 41),
            (random_qspace(3, np.random.default_rng(301)), 41),
        ],
        ids=["metric2", "line3", "random3"],
    )
    def test_nets_cover_the_hull(self, X, per_axis):
        # retract is 1-Lipschitz from the sup norm to Dsym and maps
        # [0, diam]^n onto the hull, so the images of a grid of spacing h
        # cover the hull within h / 2; each lies near every 400-candidate net
        axis = np.linspace(0.0, X.diam, per_axis)
        G = np.stack(np.meshgrid(*[axis] * X.n), axis=-1).reshape(-1, X.n)
        P1, P2 = pairs.retract_points(X.d, G)
        P1, P2 = P1[:, None, :], P2[:, None, :]
        for seed in range(4):
            F1, F2 = sample_hull(X, 400, seed).arrays
            worst = max(
                dsym(P1[lo : lo + 256], P2[lo : lo + 256], F1, F2).min(axis=1).max()
                for lo in range(0, len(G), 256)
            )
            assert worst <= 0.25 * X.diam


class TestHullAsQSpace:
    def test_sierpinski_net_is_one_way_interval(self):
        H = sample_hull(S, 120, seed=5)
        Q = hull_as_qspace(H)
        ts = np.array([p.f1[0] for p in H.points])
        expect = np.maximum(ts[:, None] - ts[None, :], 0.0)
        assert np.abs(Q.d - expect).max() <= 1e-6

    def test_embeddings_reproduce_base(self):
        # random_qspace(4, default_rng(2)) is a case where recomputing the
        # block from the embedded pairs is off by 2 ulps
        names = ("sierpinski", "line3", "metric2", "runit5")
        spaces = [(demo_space(name), 30) for name in names]
        spaces.append((random_qspace(4, np.random.default_rng(2)), 0))
        for X, k in spaces:
            Q = hull_as_qspace(sample_hull(X, k, seed=8))
            assert np.array_equal(Q.d[: X.n, : X.n], X.d)

    def test_embedding_only_net_isometric_to_base(self):
        for name in ("sierpinski", "line3", "metric2"):
            X = demo_space(name)
            Q = hull_as_qspace(sample_hull(X, 0, seed=0))
            assert is_isometric(Q, X) is not None

    def test_diameter_bound(self):
        for name in ("sierpinski", "line3", "metric2", "runit5"):
            X = demo_space(name)
            Q = hull_as_qspace(sample_hull(X, 150, seed=6))
            assert Q.d.max() <= 3 * X.diam + 1e-6

    def test_net_validates(self):
        Q = hull_as_qspace(sample_hull(demo_space("line3"), 80, seed=9))
        assert Q.classification.is_quasi_metric

    def test_pseudo_space_flows_through(self):
        Z = QSpace([[0, 0], [0, 0]])
        H = sample_hull(Z, 10, seed=0)
        assert len(H.points) == 2  # embeddings kept even when they collapse
        Q = hull_as_qspace(H)
        assert Q.classification.is_pseudo_quasi_metric
        assert not Q.classification.satisfies_M1


class TestDiagonal:
    def test_diagonal_family_is_minimal(self):
        # hand-built equal-component pairs on the two-point metric space
        from qmet.pairs import AmplePair, flat

        for t in np.linspace(0, 1, 9):
            f = AmplePair(M2, [t, 1 - t], [t, 1 - t])
            assert np.allclose(flat(M2.d, f.f2), f.f1, atol=1e-12)
            assert in_hull(f, 1e-9)

    def test_sym_distance_matches_sup_norm(self):
        from qmet.pairs import AmplePair

        f = AmplePair(M2, [0.2, 0.8], [0.2, 0.8])
        g = AmplePair(M2, [0.9, 0.1], [0.9, 0.1])
        assert pair_dist(f, g, "Dsym") == pytest.approx(0.7)


class TestNetGHUpper:
    def test_pinned_value(self):
        # pinned to the bound that snaps each net through the exact
        # two-step retract, on nets of the one-batch sampler
        rng = np.random.default_rng(4)
        X = random_qspace(5, rng)
        Y = perturbed_space(X, rng, 0.1)
        value = net_gh_upper(sample_hull(X, 40, seed=1), sample_hull(Y, 40, seed=2))
        assert value == 0.22037844551877556

    def test_spaces_on_different_index_sets_are_typed(self):
        rng = np.random.default_rng(4)
        HX, HY = sample_hull(random_qspace(4, rng), 10), sample_hull(random_qspace(5, rng), 10)
        with pytest.raises(LengthMismatch):
            net_gh_upper(HX, HY)


class TestSnap:
    """The snapping looks at the f1 gaps first and takes the pass over all
    2n coordinates only for rows whose f1-nearest point is farther in f2.
    The hand-built targets below sit on metric2 and snap its two point
    embeddings, the rows (0, 1 | 0, 1) and (1, 0 | 1, 0)."""

    HX = sample_hull(M2, 0)

    @pytest.mark.parametrize(
        "rows, f1_nearest, want",
        [
            # the f1-nearest point is not the Dsym-nearest, for both rows
            ([[(0, 1), (0.5, 1.5)], [(0.125, 1.125), (0.125, 1.125)]], [0, 0], [1, 1]),
            # row 0 ties exactly in Dsym, at 0.5, and the lower index wins
            # over the f1-nearest; row 1 ties in both gaps
            ([[(0.5, 1), (0, 1)], [(0, 1), (0.5, 1)]], [1, 0], [0, 0]),
            # each source row lands on a target point; before the first, a
            # point with the same f1 and another f2
            ([[(0, 1), (0.25, 1)], [(0, 1), (0, 1)], [(1, 0), (1, 0)]], [0, 2], [1, 2]),
        ],
    )
    def test_hand_built_targets(self, rows, f1_nearest, want):
        HY = HullSample(M2, tuple(AmplePair(M2, f1, f2) for f1, f2 in rows), 0, 0.0)
        P = _retract_rows(M2.d, self.HX.arrays[0])
        assert P.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0]]
        F1, F2 = HY.arrays
        assert np.abs(P[:, None, :2] - F1).max(axis=2).argmin(axis=1).tolist() == f1_nearest
        assert dsym(P[:, None, :2], P[:, None, 2:], F1, F2).argmin(axis=1).tolist() == want
        assert _snap(P, HY.arrays).tolist() == want
        assert net_gh_upper(self.HX, HY) == reference_net_gh_upper(self.HX, HY)

    @given(
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(0, 2 ** 31 - 1),
        st.booleans(),
        st.sampled_from([1, 200, 1 << 16]),
    )
    def test_matches_dsym_argmin(self, n, rows, m, seed, ties, elements):
        # random nets and rows, halves for ties, some rows copies of net
        # points, and row blocks of one row, of a few rows and of all rows
        rng = np.random.default_rng(seed)
        F = rng.uniform(0.0, 2.0, (2, m, n))
        P = rng.uniform(0.0, 2.0, (rows, 2 * n))
        if ties:
            F, P = np.round(2.0 * F) / 2.0, np.round(2.0 * P) / 2.0
        copies = rng.integers(0, m, rows)
        on = rng.random(rows) < 0.3
        P[on] = np.concatenate(F, axis=1)[copies[on]]
        want = dsym(P[:, None, :n], P[:, None, n:], F[0], F[1]).argmin(axis=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pairs, "BLOCK_ELEMENTS", elements)
            assert np.array_equal(_snap(P, F), want)


def test_pinned_net():
    # every net point and the spread, with the generator drawing the fresh
    # candidates, then the bases, then the bumps; reference_sample_hull agrees
    H = sample_hull(random_qspace(4, np.random.default_rng(5)), 400, seed=3)
    F = np.stack([[p.f1 for p in H.points], [p.f2 for p in H.points]])
    assert F.shape == (2, 366, 4)
    digest = hashlib.sha256(F.tobytes()).hexdigest()
    assert digest == "528b4ffd2d9453042318d2bec091d17a0e425b91309ebf312e9ea08cf6363b4e"
    assert H.spread == 2.805247637743813e-05


def assert_same_net(H, ref):
    assert len(H.points) == len(ref.points)
    for p, q in zip(H.points, ref.points):
        assert np.array_equal(p.f1, q.f1) and np.array_equal(p.f2, q.f2)
        assert p.certified_minimal and q.certified_minimal
        assert p.certified_tol == q.certified_tol
    assert H.spread == ref.spread


class TestAgainstReference:
    """The sampler and the net bound against the versions that measured
    every candidate's residual, took the spread from the full gap stack and
    the distortion over the whole correspondence."""

    @given(st.data(), st.sampled_from([0, 1, 2, 7, 40]), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_nets_and_bound_are_identical(self, data, k, seed):
        X = data.draw(qspaces(min_n=1, max_n=6) | qspaces(min_n=1, max_n=6, halves=True))
        same_n = dict(min_n=X.n, max_n=X.n)
        Y = data.draw(qspaces(**same_n) | qspaces(**same_n, halves=True))
        HX, HY = sample_hull(X, k, seed), sample_hull(Y, k, seed + 1)
        RX, RY = reference_sample_hull(X, k, seed), reference_sample_hull(Y, k, seed + 1)
        assert_same_net(HX, RX)
        assert_same_net(HY, RY)
        assert net_gh_upper(HX, HY) == reference_net_gh_upper(RX, RY)

    @given(qspaces(max_n=4, closed=False), st.sampled_from([0, 1, 2, 7, 40]), st.integers(0, 100))
    def test_unclosed_spaces_fail_alike(self, X, k, seed):
        try:
            ref = reference_sample_hull(X, k, seed)
        except QmetError as err:
            with pytest.raises(QmetError) as got:
                sample_hull(X, k, seed)
            assert type(got.value) is type(err)
        else:
            assert_same_net(sample_hull(X, k, seed), ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_c07_shaped_pairs_are_identical(self, seed):
        # n = 4 and k = 400 as in c07: a perturbation batch of 200 rows,
        # deduplicated one candidate at a time against the reference, and
        # nets of several net-kernel row blocks
        rng = np.random.default_rng(7007 + seed)
        X = random_qspace(4, rng)
        Y = perturbed_space(X, rng, 0.08 * X.diam)
        HX, HY = sample_hull(X, 400, seed), sample_hull(Y, 400, seed + 1000)
        RX, RY = reference_sample_hull(X, 400, seed), reference_sample_hull(Y, 400, seed + 1000)
        assert_same_net(HX, RX)
        assert_same_net(HY, RY)
        assert net_gh_upper(HX, HY) == reference_net_gh_upper(RX, RY)
        for H in (HX, HY):
            m = len(H.points)
            blocks = row_blocks(m, 2 * m)  # the 2-D blocks of the net matrices
            assert len(blocks) > 2 and blocks[-1].stop > m  # a short last block

    @pytest.mark.parametrize("n, k", [(40, 200), (64, 40)])
    def test_nets_of_several_row_blocks_are_identical(self, n, k):
        # the fresh retraction and the residual tail each span several row
        # blocks, and at least one of them ends in a short block
        X = random_qspace(n, np.random.default_rng(n))
        H = sample_hull(X, k, seed=n)
        assert_same_net(H, reference_sample_hull(X, k, seed=n))
        spans = [(rows, row_blocks(rows, n * n)) for rows in ((k + 1) // 2, len(H.points) - n)]
        assert all(len(blocks) > 1 for _, blocks in spans)
        assert any(blocks[-1].stop > rows for rows, blocks in spans)

    @pytest.mark.parametrize("n, k", [(16, 350), (40, 400), (64, 300)])
    def test_net_kernels_of_several_blocks_match(self, n, k):
        # nets of different sizes, so that every kernel of the bound (the pair
        # pass of both net matrices, both snappings and the distortion of the
        # relation of mx + my pairs) spans several 2-D row blocks and ends in
        # a short one
        rng = np.random.default_rng(1500 + n)
        X = random_qspace(n, rng)
        Y = perturbed_space(X, rng, 0.08 * X.diam)
        HX, HY = sample_hull(X, k, seed=n), sample_hull(Y, k - 37, seed=n + 1)
        mx, my = len(HX.points), len(HY.points)
        assert mx != my
        spans = [(mx, 3, mx), (my, 3, my), (mx, 2, my), (my, 2, mx)]
        spans += [(mx + my, 3, mx + my)]
        for rows, slabs, m in spans:
            blocks = row_blocks(rows, slabs * m)
            assert len(blocks) > 1 and blocks[-1].stop > rows
        for H in (HX, HY):
            assert same_bits(_net_matrix(H), reference_net_matrix(H))
        assert net_gh_upper(HX, HY) == reference_net_gh_upper(HX, HY)

    def test_pinned_bound_matches(self):
        rng = np.random.default_rng(4)
        X = random_qspace(5, rng)
        Y = perturbed_space(X, rng, 0.1)
        HX, HY = sample_hull(X, 400, seed=1), sample_hull(Y, 400, seed=2)
        assert net_gh_upper(HX, HY) == reference_net_gh_upper(HX, HY)


class TestCopiesAndTies:
    """Nets heavy in bitwise copies and in projection ties, and nets of
    scaled spaces, against the reference sampler."""

    @pytest.mark.parametrize("name", ["sierpinski", "line3", "metric2", "runit5"])
    def test_demos(self, name):
        X = demo_space(name)
        fresh = _retract_rows(X.d, np.random.default_rng(0).uniform(0.0, 2.0 * X.diam, (1000, X.n)))
        assert len(np.unique(fresh, axis=0)) < 850  # sierpinski: 488 of 1,000
        assert_same_net(sample_hull(X, 2000, seed=0), reference_sample_hull(X, 2000, seed=0))

    @pytest.mark.parametrize(
        "scale, k, chunk",
        [(1e-300, 400, None), (1e300, 400, None), (1e-8, 5000, None), (1e-8, 5000, 100),
         (1e-7, 2000, None), (1e-7, 2000, 100)],
    )
    def test_random_spaces_at_scale(self, monkeypatch, scale, k, chunk):
        # the dedup level is 4 eps diam, so a scaled net has as many points
        # as the unit net and must match the oracle's: at 1e-300 that level
        # is subnormal and the projection weights are scaled up by ~2^996,
        # at 1e300 the projection must not overflow (a RuntimeWarning is an
        # error here); with chunk, the retraction and the residuals run in
        # blocks of 100 rows, while _keep still sweeps each batch whole
        if chunk:
            monkeypatch.setattr(pairs, "BLOCK_ELEMENTS", 64 * chunk)
        for seed in range(3):
            X = random_qspace(4, np.random.default_rng(seed), scale=scale)
            assert_same_net(sample_hull(X, k, seed), reference_sample_hull(X, k, seed))

    @pytest.mark.parametrize("d", [[[0.0]], np.zeros((3, 3)), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]])
    def test_one_point_and_zero_distances(self, d):
        X = QSpace(d)
        for k in (0, 1, 25):
            assert_same_net(sample_hull(X, k, seed=1), reference_sample_hull(X, k, seed=1))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 400), st.integers(-600, 600))
@settings(max_examples=30)
def test_power_of_two_scaling_scales_every_output(n, seed, k, j):
    # the hull of cX is c times the hull of X, and each level qmet works at
    # scales with the space (the dedup level 4 eps diam, the projection's
    # power-of-two weights, the bracket's slack, the glued space's triangle
    # slack), so at 2^j X every output is 2^j times the one at X, bit for
    # bit; no entry below goes subnormal or overflows for |j| <= 600
    rng = np.random.default_rng(seed)
    X = random_qspace(n, rng)
    Y = perturbed_space(X, rng, 0.08 * X.diam)

    def outputs(X, Y):
        HX, HY = sample_hull(X, k, seed), sample_hull(Y, k, seed + 1)
        g, est = gh_exact(X, Y), estimate_delta(X)
        w = rough_isometry_from_correspondence(g.correspondence)
        inv = rough_inverse(w)
        values = [HX.arrays, HY.arrays, HX.spread, HY.spread, HX.points.tols, HY.points.tols]
        values += [hull_as_qspace(HX).d, hull_as_qspace(HY).d, net_gh_upper(HX, HY)]
        values += [g.value, est.lower, est.upper, glue_space(X, Y, g.correspondence, g.value).d]
        values += [w.eps_embed, w.eps_large, inv.nonexpansive_defect]
        values += [inv.target_closeness, inv.source_closeness]
        return values, (g.nodes, g.correspondence.pairs, est.boxes, w.map, inv.map)

    want, counts = outputs(X, Y)
    got, scaled_counts = outputs(QSpace(np.ldexp(X.d, j)), QSpace(np.ldexp(Y.d, j)))
    assert scaled_counts == counts
    for a, b in zip(got, want):
        assert same_bits(a, np.ldexp(b, j))


@pytest.mark.parametrize("block", [None, 64 * 100])
def test_each_batch_is_swept_once(monkeypatch, block):
    # one near-pair sweep for the fresh batch, one for the perturbation
    # batch and one for the spread, whatever the block size
    if block:
        monkeypatch.setattr(pairs, "BLOCK_ELEMENTS", block)
    limits, close_pairs = [], hull._close_pairs

    def spy(A, limit, **kw):
        limits.append(limit)
        return close_pairs(A, limit, **kw)

    monkeypatch.setattr(hull, "_close_pairs", spy)
    X = random_qspace(4, np.random.default_rng(1))
    H = sample_hull(X, 20_000)
    tol = slack(0.0, X.diam)
    assert limits == [tol, tol, np.inf] and len(H.points) > 15_000


def test_points_are_built_on_read(monkeypatch):
    # a net is arrays until a point is read: sampling, len, arrays, the net
    # bound and the hull payload build no pair beyond the n embeddings
    built = []
    post_init = AmplePair.__post_init__
    monkeypatch.setattr(AmplePair, "__post_init__", lambda f: built.append(f) or post_init(f))
    rng = np.random.default_rng(7007)
    X = random_qspace(4, rng)
    Y = perturbed_space(X, rng, 0.08 * X.diam)
    for Z in (X, Y):
        for i in range(Z.n):
            embed_point(Z, i)
    per_embeddings = len(built)
    built.clear()
    HX, HY = sample_hull(X, 400, 0), sample_hull(Y, 400, 1)
    assert len(HX.points) > 300 and HX.arrays.shape == (2, len(HX.points), 4)
    net_gh_upper(HX, HY)
    hull_to_obj(HX)
    assert len(built) == per_embeddings
    p = HX.points[200]
    assert HX.points[200] is p and HX.points[-1] is HX.points[len(HX.points) - 1]
    assert len(built) == per_embeddings + 2
    assert np.array_equal(p.f1, HX.arrays[0, 200]) and np.array_equal(p.f2, HX.arrays[1, 200])
    assert p.certified_minimal and p.certified_tol == HX.points.tols[200]


def test_sample_hull_memory_at_10_000():
    # the net stays O(k n): a k x k gap matrix alone would be 800 MB
    X = random_qspace(4, np.random.default_rng(1))
    tracemalloc.start()
    try:
        H = sample_hull(X, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(H.points) > 5000
    assert peak < 20_000_000


def test_arrays_is_a_read_only_stack():
    points = (embed_point(S, 0), AmplePair(S, [0.5, 0.0], [0.0, 0.5]), embed_point(S, 1))
    H = HullSample(S, points, 0, 0.5)
    F1, F2 = H.arrays
    assert np.array_equal(F1, [p.f1 for p in points])
    assert np.array_equal(F2, [p.f2 for p in points])
    assert H.arrays is H.arrays
    with pytest.raises(ValueError):
        F1[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        H.arrays = np.zeros((2, 3, 2))


@pytest.mark.parametrize("scale", [1e9, 1e12, 1e100])
def test_closed_spaces_sample_at_any_scale(scale):
    # ampleness compares d against the rounded sum f2(x) + f1(y), as the
    # triangle check does, so every embedding of a closed space has gap <= 0
    for seed in range(10):
        X = random_qspace(5, np.random.default_rng(seed), scale=scale)
        for i in range(X.n):
            assert is_ample(AmplePair(X, X.d[i], X.d[:, i]), tol=0.0) == (True, None)
        assert len(sample_hull(X, 40, seed).points) > X.n


def test_net_gh_upper_memory():
    # the net kernels work on 2-D row blocks and the distortion gathers no
    # m x m copy: two ~1900-point nets peaked near 170 MB with those copies
    rng = np.random.default_rng(1)
    X = random_qspace(4, rng)
    HX = sample_hull(X, 2000, seed=1)
    HY = sample_hull(perturbed_space(X, rng, 0.08 * X.diam), 2000, seed=2)
    assert min(len(HX.points), len(HY.points)) > 1000
    tracemalloc.start()
    try:
        net_gh_upper(HX, HY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80_000_000


def test_net_gh_upper_memory_at_n_64():
    # the snapping retraction runs in row blocks too: retracting all ~360
    # rows at once made (m, n, n) temporaries of about 12 MB
    rng = np.random.default_rng(1564)
    X = random_qspace(64, rng)
    Y = perturbed_space(X, rng, 0.08 * X.diam)
    HX, HY = sample_hull(X, 300, seed=64), sample_hull(Y, 263, seed=65)
    HX.arrays, HY.arrays  # built before tracing
    tracemalloc.start()
    try:
        net_gh_upper(HX, HY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


@pytest.mark.parametrize("elements", [1, 2_000, 20_000])
def test_block_size_changes_nothing(monkeypatch, elements):
    # max and subtraction are exact, so no value depends on the row blocks;
    # at 1 every batched kernel runs one row at a time, at 2,000 and 20,000
    # the net kernels take a few rows a block
    rng = np.random.default_rng(7007)
    X = random_qspace(4, rng)
    Y = perturbed_space(X, rng, 0.08 * X.diam)

    def run():
        HX, HY = sample_hull(X, 400, 0), sample_hull(Y, 400, 1000)
        return HX, HY, _net_matrix(HX), _net_matrix(HY), net_gh_upper(HX, HY)

    want = run()
    monkeypatch.setattr(pairs, "BLOCK_ELEMENTS", elements)
    got = run()
    assert_same_net(got[0], want[0])
    assert_same_net(got[1], want[1])
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
    assert got[4] == want[4]


@pytest.mark.parametrize("scale", [1e9, 1e100, 1e300])
def test_nets_validate_at_any_scale(scale):
    # the net matrix is checked with a slack of 4 eps times its largest
    # entry; at the absolute TRIANGLE_TOL its rounding failed M2 at 1e9
    for seed in range(30 if scale == 1e9 else 5):
        X = random_qspace(5, np.random.default_rng(seed), scale=scale)
        Q = hull_as_qspace(sample_hull(X, 100, seed))
        assert Q.classification.is_pseudo_quasi_metric
        assert np.array_equal(Q.d[: X.n, : X.n], X.d)


def test_certified_points_are_minimal_at_scale():
    # ampleness and minimality floor their slack at 4 eps diam; at the
    # absolute 1e-9 and 1e-7, in_hull raised NotAmple on 2 of these points
    X = random_qspace(5, np.random.default_rng(0), scale=1e9)
    H = sample_hull(X, 100, 0)
    assert all(in_hull(p) for p in H.points)


def test_net_slack_stays_absolute_at_unit_scale():
    # a space accepted at a looser tolerance carries its 1e-6 triangle
    # excess into the net's base block; at scale 1 the net is checked at
    # TRIANGLE_TOL, as a supplied matrix is, so both are rejected
    bent = QSpace([[0.0, 1.0, 2.0 + 1e-6], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], tol=1e-5)
    with pytest.raises(ValidationError):
        QSpace(bent.d)
    embeddings = tuple(AmplePair(bent, bent.d[i], bent.d[:, i]) for i in range(3))
    with pytest.raises(ValidationError):
        hull_as_qspace(HullSample(bent, embeddings, 0, 1.0))


def test_sample_hull_memory():
    # the fresh half is deduplicated in blocks and the spread is kept from
    # the dedup gaps; the (m, m, n) gap stack of all points peaked near 200 MB
    X = random_qspace(4, np.random.default_rng(1))
    tracemalloc.start()
    try:
        H = sample_hull(X, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(H.points) > 1000
    assert peak < 80_000_000
