import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from qmet import (
    QSpace,
    demo_space,
    embed_point,
    extend_from_subspace,
    in_hull,
    is_ample,
    largeness_constant,
    pair_dist,
    project_to_hull,
    restrict,
)
from qmet.errors import (
    IndexOutOfRange,
    LengthMismatch,
    NotAmple,
    NotMinimal,
    SpaceMismatch,
    SubsetMismatch,
)
from qmet.hull import HullSample, _net_matrix, sample_hull
from qmet.pairs import (
    AmplePair,
    ample_completion,
    dquasi,
    dsym,
    flat,
    project_arrays,
    residual,
    retract,
    retract_points,
    star,
)
from qmet.space import random_qspace
from helpers import (
    qspaces,
    random_ample_pair,
    reference_average_projection,
    reference_dsym,
    reference_flat,
    reference_net_matrix,
    reference_star,
    same_bits,
)

S = demo_space("sierpinski")
L3 = demo_space("line3")
M2 = demo_space("metric2")


class TestAmpleness:
    def test_half_split_is_ample(self):
        ok, worst = is_ample(AmplePair(S, [0.5, 0.0], [0.0, 0.5]))
        assert ok and worst is None

    def test_zero_pair_not_ample(self):
        ok, worst = is_ample(AmplePair(S, [0, 0], [0, 0]))
        assert not ok
        assert worst == (1, 0, 1.0)

    def test_embeddings_are_ample(self):
        for x in range(L3.n):
            assert is_ample(embed_point(L3, x))[0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            AmplePair(S, [0.0], [0.0, 0.0])


class TestDoubleConjugate:
    # the double conjugate of f is (flat(d, f2), star(d, f1))
    def test_interior_fixed_point(self):
        f = AmplePair(S, [0.3, 0.0], [0.0, 0.7])
        assert np.allclose(flat(S.d, f.f2), f.f1) and np.allclose(star(S.d, f.f1), f.f2)

    def test_embedding_fixed(self):
        for x in range(L3.n):
            q = embed_point(L3, x)
            assert np.allclose(flat(L3.d, q.f2), q.f1, atol=1e-12)
            assert np.allclose(star(L3.d, q.f1), q.f2, atol=1e-12)

    def test_constant_pair_collapses(self):
        f = AmplePair(S, [2, 2], [2, 2])
        assert flat(S.d, f.f2).tolist() == [0, 0] and star(S.d, f.f1).tolist() == [0, 0]

    @given(qspaces(), st.integers(0, 2 ** 31 - 1))
    def test_below_input_and_average_ample(self, X, seed):
        f = random_ample_pair(X, np.random.default_rng(seed))
        s1, s2 = flat(X.d, f.f2), star(X.d, f.f1)
        assert (s1 <= f.f1).all() and (s2 <= f.f2).all()
        avg = AmplePair(X, (f.f1 + s1) / 2, (f.f2 + s2) / 2)
        assert is_ample(avg)[0]


class TestProjection:
    def test_fixes_embeddings(self):
        q = embed_point(L3, 1)
        p = project_to_hull(q)
        assert np.array_equal(p.f1, q.f1) and np.array_equal(p.f2, q.f2)

    def test_constant_pair_lands_on_segment(self):
        p = project_to_hull(AmplePair(S, [2, 2], [2, 2]))
        t = p.f1[0]
        assert 0 <= t <= 1
        assert abs(p.f1[1]) < 1e-9 and abs(p.f2[0]) < 1e-9
        assert p.f2[1] == pytest.approx(1 - t, abs=1e-9)
        assert p.certified_minimal and p.certified_tol <= 1e-10

    def test_requires_ample(self):
        with pytest.raises(NotAmple):
            project_to_hull(AmplePair(S, [0, 0], [0, 0]))

    @given(qspaces(), st.integers(0, 2 ** 31 - 1))
    def test_contract(self, X, seed):
        rng = np.random.default_rng(seed)
        f = random_ample_pair(X, rng)
        g = random_ample_pair(X, rng)
        pf, pg = project_to_hull(f), project_to_hull(g)
        tol = 4 * np.finfo(float).eps * max(X.diam, 1.0)
        # never above the input
        assert (pf.f1 <= f.f1).all() and (pf.f2 <= f.f2).all()
        # idempotent
        ppf = project_to_hull(pf)
        assert pair_dist(ppf, pf, "Dsym") <= tol
        # non-expansive in both modes
        assert pair_dist(pf, pg) <= pair_dist(f, g) + tol
        assert pair_dist(pf, pg, "Dsym") <= pair_dist(f, g, "Dsym") + tol
        assert in_hull(pf, tol)

    @given(qspaces(max_n=4), st.integers(0, 2 ** 31 - 1))
    def test_one_lipschitz_on_hull(self, X, seed):
        p = project_to_hull(random_ample_pair(X, np.random.default_rng(seed)))
        tol = 4 * np.finfo(float).eps * max(X.diam, 1.0)
        for x in range(X.n):
            for y in range(X.n):
                assert p.f1[x] - p.f1[y] <= X.d[y, x] + tol
                assert p.f2[x] - p.f2[y] <= X.d[x, y] + tol


class TestInHull:
    def test_embedding(self):
        assert in_hull(embed_point(S, 0))

    def test_fat_pair(self):
        assert not in_hull(AmplePair(S, [2, 2], [2, 2]))


class TestPairDist:
    def test_embedding_isometry_on_sierpinski(self):
        q0, q1 = embed_point(S, 0), embed_point(S, 1)
        assert pair_dist(q0, q1) == 0.0
        assert pair_dist(q1, q0) == 1.0

    def test_self_distance_zero(self):
        f = AmplePair(S, [2, 2], [2, 2])
        assert pair_dist(f, f) == 0.0

    def test_diagonal_family_on_metric2(self):
        for t, s in [(0.0, 1.0), (0.25, 0.5), (0.7, 0.1)]:
            ft = AmplePair(M2, [t, 1 - t], [t, 1 - t])
            fs = AmplePair(M2, [s, 1 - s], [s, 1 - s])
            assert pair_dist(ft, fs, "Dsym") == pytest.approx(abs(t - s))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            pair_dist(embed_point(S, 0), embed_point(L3, 0))

    @given(qspaces())
    def test_embedding_is_isometric(self, X):
        for x in range(X.n):
            for y in range(X.n):
                got = pair_dist(embed_point(X, x), embed_point(X, y))
                assert got == pytest.approx(X.d[x, y], abs=1e-12)


class TestEmbedPoint:
    def test_values(self):
        q0 = embed_point(S, 0)
        assert q0.f1.tolist() == [0, 0] and q0.f2.tolist() == [0, 1]
        q1 = embed_point(S, 1)
        assert q1.f1.tolist() == [1, 0] and q1.f2.tolist() == [0, 0]

    def test_one_point_space(self):
        q = embed_point(QSpace([[0.0]]), 0)
        assert q.f1.tolist() == [0] and q.f2.tolist() == [0]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            embed_point(S, 2)


class TestExtend:
    def test_line3_inner_point(self):
        sub = restrict(L3, [0, 2])
        out = extend_from_subspace(L3, [0, 2], embed_point(sub, 0))
        q = embed_point(L3, 0)
        assert np.allclose(out.f1, q.f1, atol=1e-9)
        assert np.allclose(out.f2, q.f2, atol=1e-9)

    @pytest.mark.parametrize("idx", [[5], [-1]])
    def test_subset_index_out_of_range(self, idx):
        f = embed_point(QSpace([[0.0]]), 0)
        with pytest.raises(IndexOutOfRange):
            extend_from_subspace(S, idx, f)

    def test_identity_on_full_subset(self):
        f = project_to_hull(AmplePair(S, [2, 2], [2, 2]))
        out = extend_from_subspace(S, [0, 1], f)
        assert pair_dist(out, f, "Dsym") <= 1e-9

    def test_restriction_property(self):
        rng = np.random.default_rng(3)
        sub = restrict(L3, [0, 2])
        for _ in range(10):
            f = project_to_hull(random_ample_pair(sub, rng))
            out = extend_from_subspace(L3, [0, 2], f)
            assert abs(out.f1[0] - f.f1[0]) <= 1e-7
            assert abs(out.f1[2] - f.f1[1]) <= 1e-7
            assert abs(out.f2[0] - f.f2[0]) <= 1e-7
            assert abs(out.f2[2] - f.f2[1]) <= 1e-7
            assert out.certified_minimal

    @given(qspaces(min_n=3, max_n=5), st.data())
    def test_isometric_on_pairs(self, X, data):
        idx = sorted(
            data.draw(st.sets(st.integers(0, X.n - 1), min_size=2, max_size=X.n - 1))
        )
        seed = data.draw(st.integers(0, 2 ** 31 - 1))
        rng = np.random.default_rng(seed)
        sub = restrict(X, idx)
        f = project_to_hull(random_ample_pair(sub, rng))
        g = project_to_hull(random_ample_pair(sub, rng))
        jf = extend_from_subspace(X, idx, f)
        jg = extend_from_subspace(X, idx, g)
        assert pair_dist(jf, jg) == pytest.approx(pair_dist(f, g), abs=1e-7)
        assert pair_dist(jf, jg, "Dsym") == pytest.approx(
            pair_dist(f, g, "Dsym"), abs=1e-7
        )

    def test_requires_minimal(self):
        sub = restrict(L3, [0, 2])
        with pytest.raises(NotMinimal):
            extend_from_subspace(L3, [0, 2], AmplePair(sub, [4, 4], [4, 4]))

    def test_certified_flag_is_not_trusted(self):
        # minimality is measured on every call: the flag once skipped it,
        # and only the later drift check rejected the pair
        sub = restrict(L3, [0, 2])
        fat = AmplePair(sub, [4, 4], [4, 4], certified_minimal=True)
        with pytest.raises(NotMinimal, match="requires a minimal pair"):
            extend_from_subspace(L3, [0, 2], fat)

    def test_extension_at_scale(self):
        # the drift check floors its slack at 4 eps diam, as in_hull does;
        # at the absolute 1e-7 three of these extensions raised NotMinimal
        X = random_qspace(6, np.random.default_rng(0), scale=1e9)
        sub = [0, 2, 3, 5]
        for f in sample_hull(restrict(X, sub), 60, 0).points:
            out = extend_from_subspace(X, sub, f)
            assert in_hull(out)

    def test_subset_mismatch(self):
        sub = restrict(L3, [0, 1])
        f = project_to_hull(random_ample_pair(sub, np.random.default_rng(0)))
        with pytest.raises(SubsetMismatch):
            extend_from_subspace(L3, [0, 2], f)


class TestLargenessClaims:
    """Bounds tying a subset's covering constant to restriction/extension."""

    @given(qspaces(min_n=3, max_n=5), st.data())
    def test_restricted_projection_stays_close(self, X, data):
        idx = sorted(
            data.draw(st.sets(st.integers(0, X.n - 1), min_size=1, max_size=X.n - 1))
        )
        seed = data.draw(st.integers(0, 2 ** 31 - 1))
        eps = largeness_constant(X, idx)
        sub = restrict(X, idx)
        f = project_to_hull(random_ample_pair(X, np.random.default_rng(seed)))
        f_y = AmplePair(sub, f.f1[idx], f.f2[idx])
        # the conjugate of any ample pair below f|_Y stays within 2 eps of it
        s1, s2 = flat(sub.d, f_y.f2), star(sub.d, f_y.f1)
        assert (s1 >= f_y.f1 - 2 * eps - 1e-7).all()
        assert (s2 >= f_y.f2 - 2 * eps - 1e-7).all()
        p_y = project_to_hull(f_y)
        assert (p_y.f1 >= f_y.f1 - 2 * eps - 1e-7).all()
        assert (p_y.f2 >= f_y.f2 - 2 * eps - 1e-7).all()
        # constructive roundtrip lands within 4 eps of the original point
        back = extend_from_subspace(X, idx, p_y)
        assert pair_dist(f, back, "Dsym") <= 4 * eps + 1e-6


class TestBatchedProjection:
    def test_matches_single(self):
        rng = np.random.default_rng(9)
        fs = [random_ample_pair(L3, rng) for _ in range(8)]
        F1 = np.stack([f.f1 for f in fs])
        F2 = np.stack([f.f2 for f in fs])
        P1, P2, res = project_arrays(L3, F1, F2)
        for i, f in enumerate(fs):
            p = project_to_hull(f)
            assert np.allclose(P1[i], p.f1, atol=1e-12)
            assert np.allclose(P2[i], p.f2, atol=1e-12)
            assert res[i] <= 1e-10

    def test_completion_is_ample(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = ample_completion(L3, rng.uniform(0, 4, L3.n))
            assert is_ample(f)[0]


class TestRetraction:
    @given(qspaces(), st.data())
    def test_matches_averaging_on_completions(self, X, data):
        rows = data.draw(st.integers(1, 4))
        entry = st.floats(0.0, 3.0 * X.diam, allow_nan=False, allow_infinity=False)
        G = np.array(
            data.draw(st.lists(st.lists(entry, min_size=X.n, max_size=X.n),
                               min_size=rows, max_size=rows))
        )
        scale = max(X.diam, 1.0)
        S = star(X.d, G)
        P1, P2, res = retract(X.d, G)
        A1, A2 = reference_average_projection(X.d, G, S)
        assert np.abs(P1 - A1).max() <= 1e-11 * scale
        assert np.abs(P2 - A2).max() <= 1e-11 * scale
        # never above the completion (g, star g) it retracts
        assert (P1 <= G).all() and (P2 <= S).all()
        assert res.max() <= 4 * np.finfo(float).eps * scale

    @given(
        qspaces(min_n=1, halves=True) | qspaces(min_n=1), st.integers(1, 4), st.integers(0, 1000)
    )
    def test_residual_matches_the_inline_forms(self, X, rows, seed):
        rng = np.random.default_rng(seed)
        G = rng.uniform(0.0, 2.0 * X.diam + 0.1, (rows, X.n))
        F2 = rng.uniform(0.0, 2.0 * X.diam + 0.1, (rows, X.n))
        # sample_hull, in_hull and embed_point, on any stack of pairs
        want = dsym(G, F2, flat(X.d, F2), star(X.d, G))
        assert np.array_equal(residual(X.d, G, F2), want)
        # retract, which reused flat(P2) from the step that built P1
        P2 = star(X.d, G)
        S1 = flat(X.d, P2)
        P1 = np.minimum(S1, G)
        assert np.array_equal(retract(X.d, G)[2], dsym(P1, P2, S1, star(X.d, P1)))
        # embed_point, through the double conjugate of the embedded pair
        for x in range(X.n):
            f1, f2 = X.d[x, :], X.d[:, x]
            s1, s2 = flat(X.d, f2), star(X.d, f1)
            assert embed_point(X, x).certified_tol == float(dsym(f1, f2, s1, s2))

    @given(
        qspaces(min_n=1, halves=True) | qspaces(min_n=1),
        st.integers(1, 40),
        st.integers(0, 1000),
        st.booleans(),
    )
    def test_retract_is_retract_points_and_residual(self, X, rows, seed, ties):
        # retract computes flat(P2) once for P1 and the residual; its values
        # are those of the two separate steps, bit for bit
        rng = np.random.default_rng(seed)
        G = rng.uniform(0.0, 2.0 * X.diam + 0.1, (rows, X.n))
        if ties:
            G = np.round(2.0 * G) / 2.0
        P1, P2, res = retract(X.d, G)
        Q1, Q2 = retract_points(X.d, G)
        assert np.array_equal(P1, Q1) and np.array_equal(P2, Q2)
        assert np.array_equal(res, residual(X.d, Q1, Q2))


class TestKernelLayout:
    """The kernel reduces over a leading point axis; on every shape the
    library passes it, it must equal the trailing-axis formulas bit for bit,
    and the net matrix must match signed zeros too."""

    @given(
        st.integers(1, 12),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(0, 2 ** 31 - 1),
        st.booleans(),
        st.sampled_from([1.0, 1e-300, 1e300]),
    )
    def test_matches_trailing_axis_reference(self, n, b, t, seed, ties, scale):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            a = rng.uniform(-1.0, 3.0, shape)
            # halves give ties and signed zeros in the differences
            return scale * (np.round(2.0 * a) / 2.0 if ties else a)

        d = draw(n, n)
        for F in (draw(n), draw(b, n)):
            assert np.array_equal(star(d, F), reference_star(d, F))
            assert np.array_equal(flat(d, F), reference_flat(d, F))
        cases = [
            (draw(n), draw(n), draw(n), draw(n)),  # one pair against one
            (draw(b, n), draw(b, n), draw(b, n), draw(b, n)),  # rows against rows
            (draw(b, 1, n), draw(b, 1, n), draw(t, n), draw(t, n)),  # snapping, spread
            (draw(b, 1, n), draw(b, 1, n), d, d.T),  # gaps to the embedding
            (draw(b, n), draw(b, n), draw(n), draw(n)),  # pool against a candidate
        ]
        for F1, F2, G1, G2 in cases:
            assert np.array_equal(dsym(F1, F2, G1, G2), reference_dsym(F1, F2, G1, G2))
        f1, f2, g1, g2 = draw(n), draw(n), draw(n), draw(n)
        assert dquasi(f1, f2, g1, g2) == max(0.0, (f1 - g1).max(), (g2 - f2).max())
        X = random_qspace(n, rng)
        F1, F2 = draw(n + b, n), draw(n + b, n)
        H = HullSample(X, tuple(AmplePair(X, *f) for f in zip(F1, F2)), seed, 0.0)
        assert same_bits(_net_matrix(H), reference_net_matrix(H))
