import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qmet import (
    Correspondence,
    QSpace,
    conjugate,
    correspondence_from_rough_isometry,
    demo_space,
    distortion,
    gh_exact,
    glue_space,
    hausdorff,
    is_isometric,
    random_qspace,
    rough_inverse,
    rough_isometry_from_correspondence,
    triangle_closure,
    verify_rough_isometry,
)
from qmet import gh as qgh
from qmet import pairs as qpairs
from qmet.errors import (
    EpsTooSmall,
    IndexOutOfRange,
    NonFiniteEntry,
    NonSquareMatrix,
    NotACorrespondence,
)
from qmet.gh import DEFAULT_BUDGET, _floor
from helpers import (
    brute_gh,
    permuted_copy,
    perturbed_space,
    qspaces,
    reference_correspondence_from_rough_isometry,
    reference_distortion,
    reference_floor,
    reference_gh,
    reference_glue_matrix,
    reference_is_isometric,
    reference_rough_inverse,
    reference_rough_isometry_from_correspondence,
    rng_spaces,
    same_bits,
)

S = demo_space("sierpinski")
M2 = demo_space("metric2")
L3 = demo_space("line3")
POINT = QSpace([[0.0]])


class TestCorrespondence:
    def test_identity_distortion_zero(self):
        R = Correspondence(L3, L3, tuple((i, i) for i in range(3)))
        assert distortion(R) == 0.0

    def test_sierpinski_vs_metric_pairing(self):
        R = Correspondence(S, M2, ((0, 0), (1, 1)))
        assert distortion(R) == 1.0

    def test_full_relation_to_point(self):
        R = Correspondence(S, POINT, ((0, 0), (1, 0)))
        assert distortion(R) == 1.0

    def test_uncovered_index_rejected(self):
        with pytest.raises(NotACorrespondence) as err:
            Correspondence(S, M2, ((0, 0), (0, 1)))
        assert err.value.side == "left" and err.value.index == 1

    @pytest.mark.parametrize("pairs", [((0, 0), (1, 1), (2, 0)), ((0, 0), (1, -1))])
    def test_out_of_range_pair_is_typed(self, pairs):
        with pytest.raises(IndexOutOfRange):
            Correspondence(S, S, pairs)

    def test_network_mode_accepts_anything(self):
        wa = [[3.0, -1.0], [2.0, 0.5]]
        wb = [[0.0, 4.0], [1.0, 1.0]]
        R = Correspondence(wa, wb, ((0, 0), (1, 1)))
        assert distortion(R) == pytest.approx(5.0)


@st.composite
def relations(draw, left, right):
    """An arbitrary correspondence between two spaces or weight matrices: any
    cells of the product, repeats allowed, then a random partner for each
    point they leave uncovered."""
    nx, ny = (len(getattr(side, "d", side)) for side in (left, right))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=2 * nx * ny))
    cells += [(i, draw(st.integers(0, ny - 1))) for i in set(range(nx)) - {i for i, _ in cells}]
    cells += [(draw(st.integers(0, nx - 1)), j) for j in set(range(ny)) - {j for _, j in cells}]
    return Correspondence(left, right, tuple(cells))


@st.composite
def huge_networks(draw):
    """Signed weights, some of them near +-1e308, so differences overflow."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.floats(-2.0, 2.0), st.floats(1e307, 1.7e308), st.floats(-1.7e308, -1e307))
    return np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)


def at_block_sizes(measure):
    """``measure()`` with every row block one row, then at the default size."""
    values = []
    for elements in (1, qpairs.BLOCK_ELEMENTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qpairs, "BLOCK_ELEMENTS", elements)
            values.append(measure())
    return values


class TestDistortionKernel:
    # one row-blocked kernel measures every distortion; it must give the
    # unblocked np.ix_ oracle's float at any block size
    @given(st.data())
    def test_relations_match_the_oracle(self, data):
        spaces = qspaces(min_n=1, max_n=6)
        sides = data.draw(st.tuples(spaces, spaces) | st.tuples(huge_networks(), huge_networks()))
        R = data.draw(relations(*sides))
        assert at_block_sizes(lambda: distortion(R)) == [reference_distortion(R)] * 2

    @given(qspaces(min_n=1, max_n=6), qspaces(min_n=1, max_n=6), st.data())
    def test_embedding_constant_matches_the_oracle(self, X, Y, data):
        phi = data.draw(st.lists(st.integers(0, Y.n - 1), min_size=X.n, max_size=X.n))
        want = np.abs(X.d - Y.d[np.ix_(phi, phi)]).max()
        got = at_block_sizes(lambda: verify_rough_isometry(phi, X, Y).eps_embed)
        assert got == [want] * 2

    def test_memory(self):
        # row blocks of the relation: one np.ix_ gather of each side of this
        # 2,000-pair relation peaked at 64 MB
        rng = np.random.default_rng(0)
        wa, wb = rng.normal(size=(2, 1000, 1000))
        cells = list(enumerate(rng.permutation(1000).tolist()))
        cells += [(i, j) for j, i in enumerate(rng.integers(0, 1000, 1000).tolist())]
        R = Correspondence(wa, wb, tuple(cells))
        tracemalloc.start()
        try:
            value = distortion(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == reference_distortion(R)
        assert peak < 8_000_000


class TestGHExact:
    def test_self_distance_zero(self):
        assert gh_exact(L3, L3).value == 0.0

    def test_sierpinski_to_point(self):
        r = gh_exact(S, POINT)
        assert r.value == 0.5 and r.exact

    def test_sierpinski_to_metric(self):
        assert gh_exact(S, M2).value == 0.5

    def test_symmetry(self):
        for A, B in [(S, M2), (S, L3), (L3, M2)]:
            assert gh_exact(A, B).value == pytest.approx(
                gh_exact(B, A).value, abs=1e-12
            )

    @given(st.one_of(qspaces(max_n=5), qspaces(max_n=5, halves=True)), qspaces(max_n=5))
    @settings(max_examples=30)
    def test_order_and_conjugation_keep_the_value(self, X, Y):
        # every search minimises over the same floats |wx - wy| (fl(a - b) =
        # -fl(b - a), and conjugation transposes both sides), so GH(X, Y),
        # GH(Y, X) and GH(X*, Y*) are one float when all three are exact
        a, b, c = gh_exact(X, Y), gh_exact(Y, X), gh_exact(conjugate(X), conjugate(Y))
        assert a.exact and b.exact and c.exact
        assert a.value == b.value == c.value

    def test_matches_enumeration_oracle(self):
        spaces = rng_spaces(6, 3, seed=100) + rng_spaces(2, 2, seed=7)
        for i in range(0, len(spaces) - 1):
            r = gh_exact(spaces[i], spaces[i + 1])
            assert r.exact
            assert r.value == pytest.approx(
                brute_gh(spaces[i], spaces[i + 1]), abs=1e-12
            )

    def test_network_mode_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            wa = rng.uniform(-2, 2, (3, 3))
            wb = rng.uniform(-2, 2, (2, 2))
            r = gh_exact(wa, wb)
            assert r.value == pytest.approx(brute_gh(wa, wb), abs=1e-12)

    def test_triangle_sanity(self):
        spaces = rng_spaces(6, 4, seed=55)
        for a, b, c in zip(spaces, spaces[1:], spaces[2:]):
            ab = gh_exact(a, b).value
            bc = gh_exact(b, c).value
            ac = gh_exact(a, c).value
            assert ac <= ab + bc + 1e-9

    def test_permuted_copy_distance_zero(self):
        rng = np.random.default_rng(77)
        for X in rng_spaces(4, 5, seed=13):
            Y, _ = permuted_copy(X, rng)
            assert gh_exact(X, Y).value <= 1e-12

    def test_budget_exhaustion_flags_inexact(self):
        A, B = rng_spaces(2, 5, seed=30)
        r = gh_exact(A, B, budget=10)
        assert not r.exact
        assert r.value >= gh_exact(A, B).value - 1e-12

    def test_budget_before_any_leaf_returns_the_seed(self):
        X, Y = rng_spaces(4, 8, seed=3)[2:]
        r = gh_exact(X, Y, budget=1)
        full = Correspondence(X, Y, tuple((i, j) for i in range(8) for j in range(8)))
        assert not r.exact and r.nodes == 2
        assert r.value == distortion(r.correspondence) / 2.0
        assert r.value < distortion(full) / 2.0  # 0.3415 against 0.4527

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_weights_are_typed(self, bad, side):
        w = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [2.0, 0.0]])]
        w[side][0, 1] = bad
        with pytest.raises(NonFiniteEntry):
            gh_exact(*w)
        with pytest.raises(NonFiniteEntry):
            Correspondence(*w, ((0, 0), (1, 1)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
    def test_non_square_weights_are_typed(self, shape):
        with pytest.raises(NonSquareMatrix):
            gh_exact(np.zeros(shape), np.zeros((2, 2)))
        with pytest.raises(NonSquareMatrix):
            Correspondence(np.zeros((2, 2)), np.zeros(shape), ((0, 0), (1, 0)))

    def test_overflowed_cost_is_infinite_and_silent(self):
        # 1e308 - (-1e308) leaves the float range in the pick step and in
        # the seed; the overflowed cells are never the optimum
        wa = np.array([[0.0, 1e308], [1.0, 0.0]])
        wb = np.array([[0.0, -1e308], [2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = gh_exact(wa, wb)
            assert distortion(r.correspondence) == 1e308
        assert r.exact and r.value == 5e307 and r.nodes == 8
        assert r.correspondence.pairs == ((0, 0), (0, 1), (1, 0))

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_permuted_copy_takes_one_dive(self, n, seed):
        # the eccentricity seed finds the permutation, so the search starts
        # at an incumbent just above 0 and scores each level once
        rng = np.random.default_rng(seed)
        X = random_qspace(n, rng)
        Y, _ = permuted_copy(X, rng)
        r = gh_exact(X, Y)
        assert r.exact and r.value == 0.0 and r.nodes == 2 * n * n


def assert_no_worse(got, ref):
    """The look-ahead skips only subtrees without a leaf that beats the
    incumbent: where the reference finishes, the result is its result; under
    any budget the value is never above the reference's; never more nodes."""
    assert got.nodes <= ref.nodes
    assert got.value <= ref.value
    if ref.exact:
        assert got.exact
        assert got.value == ref.value
        assert got.correspondence.pairs == ref.correspondence.pairs


@st.composite
def networks(draw, max_n=5):
    """Raw weight matrices: asymmetric, signed, nonzero diagonal."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return np.random.default_rng(seed).normal(size=(n, n))


class TestGHAgainstReference:
    @given(qspaces(min_n=1, max_n=5), qspaces(min_n=1, max_n=5))
    def test_spaces(self, X, Y):
        assert_no_worse(gh_exact(X, Y), reference_gh(X, Y))

    @given(networks(), networks())
    def test_networks(self, wa, wb):
        assert_no_worse(gh_exact(wa, wb), reference_gh(wa, wb))

    @given(qspaces(max_n=6), qspaces(max_n=6), st.integers(1, 400))
    def test_budgets(self, X, Y, budget):
        got = gh_exact(X, Y, budget=budget)
        assert_no_worse(got, reference_gh(X, Y, budget=budget))
        assert got.exact or got.nodes == budget + 1

    @given(st.data())
    def test_floor_matches_loops(self, data):
        # one float per cell, overflow to +inf included, as the loops over
        # x, y, x' and y' give it
        spaces = qspaces(min_n=1, max_n=6).map(lambda X: X.d)
        wx, wy = data.draw(st.tuples(spaces, spaces) | st.tuples(huge_networks(), huge_networks()))
        with np.errstate(over="ignore"):
            got, _ = _floor(wx, wy)
        assert same_bits(got, reference_floor(wx, wy))

    @given(st.data())
    def test_table_rows_are_the_pick_raise(self, data):
        # row x n_Y + y of the floor's table is what a pick of (x, y) raises
        # the costs to, bit for bit, as the search computes it above the gate
        spaces = qspaces(min_n=1, max_n=6).map(lambda X: X.d)
        wx, wy = data.draw(st.tuples(spaces, spaces) | st.tuples(huge_networks(), huge_networks()))
        SX, SY = np.array((wx.T, wx)), np.array((wy.T, wy))
        with np.errstate(over="ignore"):
            _, table = _floor(wx, wy)
            for x in range(len(wx)):
                for y in range(len(wy)):
                    raised = np.abs(SX[:, x, :, None] - SY[:, y, None, :])
                    raised = np.maximum(raised[0], raised[1]).reshape(-1)
                    assert same_bits(table[x * len(wy) + y], raised)

    @pytest.mark.parametrize(
        "nx, ny, budget", [(16, 16, None), (16, 16, 2_000), (257, 1, None), (1, 257, None)]
    )
    def test_gate_boundary(self, nx, ny, budget, monkeypatch):
        # at 256 cells the picks read their rows from the floor's table, at
        # 257 they compute them; the unbudgeted 16 x 16 pair is a perturbed
        # copy, which the search solves exactly
        rng = np.random.default_rng(1610)
        X = random_qspace(nx, rng)
        if nx == ny and budget is None:
            Y = perturbed_space(X, rng, 0.08 * X.diam)
        else:
            Y = random_qspace(ny, rng)
        calls = []
        monkeypatch.setattr(qgh, "_floor", lambda *w: calls.append(w) or _floor(*w))
        got = gh_exact(X, Y, budget=budget)
        assert len(calls) == (nx * ny <= 256)
        assert_no_worse(got, reference_gh(X, Y, budget=budget or DEFAULT_BUDGET))

    def test_table_memory_at_the_gate(self):
        # the 512 KB table of 16 x 16 cells and its two build temporaries
        rng = np.random.default_rng(1610)
        X = random_qspace(16, rng)
        Y = perturbed_space(X, rng, 0.08 * X.diam)
        tracemalloc.start()
        try:
            r = gh_exact(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exact
        assert peak < 4_000_000

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_perturbed_pairs(self, n):
        # pairs shaped like acceptance c07 (8% bumps), past the sizes
        # hypothesis draws
        rng = np.random.default_rng(700 + n)
        for _ in range(3):
            X = random_qspace(n, rng)
            Y = perturbed_space(X, rng, 0.08 * X.diam)
            assert_no_worse(gh_exact(X, Y), reference_gh(X, Y))


class TestHeavyTail:
    def test_random_8_point_pairs(self):
        # without the look-ahead one of these stays inexact after 2e6 nodes
        # and another takes 1.3e6
        rng = np.random.default_rng(0)
        for _ in range(10):
            random_qspace(7, rng), random_qspace(7, rng)
        for _ in range(10):
            X, Y = random_qspace(8, rng), random_qspace(8, rng)
            r = gh_exact(X, Y, budget=2_000_000)
            assert r.exact and r.nodes <= 50_000

    def test_random_10_point_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            X, Y = random_qspace(10, rng), random_qspace(10, rng)
            assert gh_exact(X, Y, budget=DEFAULT_BUDGET).exact

    @pytest.mark.parametrize("n, s", [(9, 6), (10, 5), (12, 1)])
    def test_gh_panel_tail_pairs(self, n, s):
        # without the local-spectrum floor each stays inexact past 400,000
        # nodes; with it they take 73,908, 242,050 and 87,492
        X = random_qspace(n, np.random.default_rng(1000 * n + s))
        Y = random_qspace(n, np.random.default_rng(1000 * n + s + 500))
        r = gh_exact(X, Y, budget=DEFAULT_BUDGET)
        assert r.exact and r.nodes <= 300_000


class TestLowerBound:
    @given(
        st.one_of(
            st.tuples(qspaces(min_n=1, max_n=3), qspaces(min_n=1, max_n=4)),
            st.tuples(networks(max_n=3), networks(max_n=4)),
        ),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    @settings(max_examples=100, deadline=None)
    def test_lower_brackets_the_enumeration(self, sides, budget):
        # the root bound holds under any budget, exact or not
        r = gh_exact(*sides, budget=budget)
        assert r.lower <= brute_gh(*sides) <= r.value

    def test_lower_is_the_largest_root_minimum(self):
        # sierpinski against a point: both points' spectra {(0, 0), (0, 1)}
        # and {(0, 0), (1, 0)} lie at 1 from the point's {(0, 0)}, and the
        # seed, the full relation, has distortion 1
        r = gh_exact(S, POINT)
        assert r.lower == r.value == 0.5 and r.exact


def line(n):
    x = np.arange(n, dtype=float)
    return QSpace(np.abs(x[:, None] - x[None, :]))


def test_search_state_memory():
    # one cost matrix raised in place with an undo log; a copy of it per
    # level would peak near 54 MB here
    L = line(150)
    tracemalloc.start()
    try:
        r = gh_exact(L, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.exact and r.value == 0.0
    assert peak < 8_000_000


def test_deep_inputs_need_no_recursion():
    # a recursive search needs one frame per level: 80 for gh_exact on two
    # 40-point spaces, 100 for is_isometric on 100 points
    L40, L100 = line(40), line(100)
    Y, _ = permuted_copy(L100, np.random.default_rng(3))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        r = gh_exact(L40, L40, budget=10_000)
        found = is_isometric(L100, Y)
    finally:
        sys.setrecursionlimit(limit)
    assert r.exact and r.value == 0.0
    assert found is not None and found == reference_is_isometric(L100, Y)


class TestGlue:
    def test_degenerate_identity_glue(self):
        R = Correspondence(S, S, ((0, 0), (1, 1)))
        Z = glue_space(S, S, R, 0.0)
        assert not Z.classification.satisfies_M1  # copies collapse
        assert Z.d[0, 2] == 0.0 and Z.d[2, 0] == 0.0

    def test_sierpinski_metric_glue(self):
        R = Correspondence(S, M2, ((0, 0), (1, 1)))
        Z = glue_space(S, M2, R, 0.5)
        assert Z.classification.is_pseudo_quasi_metric
        assert hausdorff(Z, [0, 1], [2, 3], "sym") == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("j", [0, 30, 600])
    def test_eps_too_small(self, j):
        # the triangle slack grows with the largest entry, but at every
        # scale it stays far below the violation an eps under GH leaves
        A, B = QSpace(np.ldexp(S.d, j)), QSpace(np.ldexp(M2.d, j))
        R = Correspondence(A, B, ((0, 0), (1, 1)))
        with pytest.raises(EpsTooSmall) as err:
            glue_space(A, B, R, np.ldexp(0.2, j))
        assert len(err.value.triple) == 3

    @given(qspaces(max_n=3), qspaces(max_n=3))
    @settings(max_examples=10)
    def test_solver_glue_realizes_bound(self, A, B):
        r = gh_exact(A, B)
        eps = distortion(r.correspondence) / 2.0
        Z = glue_space(A, B, r.correspondence, eps)
        left = list(range(A.n))
        right = list(range(A.n, A.n + B.n))
        got = hausdorff(Z, left, right, "sym")
        assert got <= eps + 1e-9

    @given(qspaces(min_n=1, max_n=6), qspaces(min_n=1, max_n=6), st.data())
    @settings(max_examples=40)
    def test_glue_matches_loops(self, A, B, data):
        # any covering relation, at the least valid eps and above it
        def draw(values, size):
            return data.draw(st.lists(values, min_size=size, max_size=size))

        mask = np.array(draw(st.booleans(), A.n * B.n)).reshape(A.n, B.n)
        mask[np.arange(A.n), draw(st.integers(0, B.n - 1), A.n)] = True
        mask[draw(st.integers(0, A.n - 1), B.n), np.arange(B.n)] = True
        R = Correspondence(A, B, tuple(map(tuple, np.argwhere(mask))))
        for eps in (distortion(R) / 2.0, 2.0 * distortion(R)):
            assert same_bits(glue_space(A, B, R, eps).d, reference_glue_matrix(A, B, R, eps))

    def test_glue_memory_grows_with_the_spaces_not_the_relation(self):
        # the cross blocks are relaxed one related pair at a time; one
        # n_X x |R| x n_Y temporary would peak near 130 MB here
        rng = np.random.default_rng(5)
        A, B = random_qspace(200, rng), random_qspace(200, rng)
        i = np.arange(200)
        R = Correspondence(A, B, tuple(zip(np.r_[i, i].tolist(), np.r_[i, (i + 1) % 200].tolist())))
        eps = distortion(R) / 2.0
        tracemalloc.start()
        try:
            Z = glue_space(A, B, R, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Z.n == 400
        assert peak < 16_000_000


class TestWitnesses:
    def test_identity_witness(self):
        w = verify_rough_isometry(list(range(3)), L3, L3)
        assert w.eps == 0.0

    def test_sierpinski_to_metric_pairing(self):
        w = verify_rough_isometry([0, 1], S, M2)
        assert w.eps_embed == 1.0 and w.eps_large == 0.0 and w.eps == 1.0

    def test_constant_map(self):
        w = verify_rough_isometry([0, 0, 0], L3, L3)
        assert w.eps_embed == L3.diam

    def test_witness_from_solver_output(self):
        for A, B in [(S, M2), (S, POINT), (L3, M2)]:
            r = gh_exact(A, B)
            w = rough_isometry_from_correspondence(r.correspondence)
            assert w.eps <= distortion(r.correspondence) + 1e-12

    def test_full_relation_to_point_constant_map(self):
        R = Correspondence(S, POINT, ((0, 0), (1, 0)))
        w = rough_isometry_from_correspondence(R)
        assert w.map == (0, 0)
        assert w.eps == pytest.approx(distortion(R))

    def test_correspondence_from_witness(self):
        w = verify_rough_isometry([0, 1], S, M2)
        R = correspondence_from_rough_isometry(w)
        assert set(R.pairs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert distortion(R) <= 3 * w.eps + 1e-9

    def test_identity_witness_correspondence_small(self):
        w = verify_rough_isometry([0, 1, 2], L3, L3)
        R = correspondence_from_rough_isometry(w)
        assert {(i, i) for i in range(3)} <= set(R.pairs)
        assert distortion(R) <= 1e-12

    @given(qspaces(max_n=4), st.data())
    def test_witness_eps_below_distortion_for_any_correspondence(self, X, data):
        Y = data.draw(qspaces(max_n=4))
        pairs = {(i, data.draw(st.integers(0, Y.n - 1))) for i in range(X.n)}
        pairs |= {(data.draw(st.integers(0, X.n - 1)), j) for j in range(Y.n)}
        R = Correspondence(X, Y, tuple(pairs))
        w = rough_isometry_from_correspondence(R)
        assert w.eps <= distortion(R) + 1e-12

    @given(qspaces(max_n=4), st.data())
    def test_distortion_chain_bound(self, X, data):
        Y = data.draw(qspaces(max_n=4))
        phi = [data.draw(st.integers(0, Y.n - 1)) for _ in range(X.n)]
        w = verify_rough_isometry(phi, X, Y)
        R = correspondence_from_rough_isometry(w)
        assert distortion(R) <= 3 * w.eps + 1e-9
        # the GH distance is an infimum over correspondences
        assert gh_exact(X, Y).value <= distortion(R) / 2 + 1e-12

    @given(qspaces(max_n=4), st.data())
    def test_asym_defect_obstruction(self, X, data):
        Y = data.draw(qspaces(max_n=4, symmetric=True))
        phi = [data.draw(st.integers(0, Y.n - 1)) for _ in range(X.n)]
        w = verify_rough_isometry(phi, X, Y)
        # a sym-rough isometry into a metric space moves d(x,y) and d(y,x)
        # to one value, so eps is at least half the largest asymmetry
        assert w.eps >= np.abs(X.d - X.d.T).max() / 2 - 1e-9


class TestRoughInverse:
    def test_identity(self):
        w = verify_rough_isometry([0, 1, 2], L3, L3)
        inv = rough_inverse(w)
        assert inv.map == (0, 1, 2)
        assert inv.nonexpansive_defect == 0.0
        assert inv.target_closeness == 0.0
        assert inv.source_closeness == 0.0

    def test_sierpinski_to_metric(self):
        w = verify_rough_isometry([0, 1], S, M2)
        inv = rough_inverse(w)
        assert inv.map == (0, 1)
        assert inv.nonexpansive_defect <= 3 * w.eps + 1e-12
        assert inv.target_closeness <= w.eps + 1e-12
        assert inv.source_closeness <= 2 * w.eps + 1e-12

    def test_constant_map_witness(self):
        w = verify_rough_isometry([0, 0, 0], L3, L3)
        inv = rough_inverse(w)
        assert inv.source_closeness <= 2 * w.eps + 1e-12

    @given(qspaces(max_n=4), st.data())
    def test_proof_constants(self, X, data):
        Y = data.draw(qspaces(max_n=4))
        phi = [data.draw(st.integers(0, Y.n - 1)) for _ in range(X.n)]
        w = verify_rough_isometry(phi, X, Y)
        inv = rough_inverse(w)
        assert inv.nonexpansive_defect <= 3 * w.eps + 1e-9
        assert inv.target_closeness <= w.eps + 1e-9
        assert inv.source_closeness <= 2 * w.eps + 1e-9


@st.composite
def zero_distance_spaces(draw, max_n=5):
    """Closed pseudo spaces in which distinct points often sit at 0."""
    n = draw(st.integers(1, max_n))
    vals = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n * n, max_size=n * n))
    m = np.array(vals).reshape(n, n)
    np.fill_diagonal(m, 0.0)
    return QSpace(triangle_closure(m))


# random, tie-heavy, zero-distance and nonzero-diagonal spaces of 1-5 points
WITNESS_SPACES = st.one_of(
    qspaces(min_n=1),
    qspaces(min_n=1, halves=True),
    zero_distance_spaces(),
    qspaces(min_n=1, closed=False),
)


class TestWitnessesAgainstReference:
    """The index-array witness conversions against the loops they replaced,
    compared with ==: maps, pairs, both eps constants and every inverse field."""

    @settings(max_examples=200)
    @given(WITNESS_SPACES, WITNESS_SPACES, st.data())
    def test_map_chain(self, X, Y, data):
        target = st.integers(0, Y.n - 1)
        constant = target.map(lambda y: [y] * X.n)
        phi = data.draw(constant | st.lists(target, min_size=X.n, max_size=X.n))
        w = verify_rough_isometry(phi, X, Y)
        inv = rough_inverse(w)
        assert inv == reference_rough_inverse(w)  # every field
        assert all(type(v) is int for v in inv.map)  # as JSON writes them
        R = correspondence_from_rough_isometry(w)
        assert R.pairs == reference_correspondence_from_rough_isometry(w).pairs
        self.check_from_correspondence(R)

    @settings(max_examples=200)
    @given(WITNESS_SPACES, WITNESS_SPACES, st.data())
    def test_any_correspondence(self, X, Y, data):
        pairs = {(i, data.draw(st.integers(0, Y.n - 1))) for i in range(X.n)}
        pairs |= {(data.draw(st.integers(0, X.n - 1)), j) for j in range(Y.n)}
        extra = st.tuples(st.integers(0, X.n - 1), st.integers(0, Y.n - 1))
        pairs |= set(data.draw(st.lists(extra, max_size=6)))
        self.check_from_correspondence(Correspondence(X, Y, tuple(pairs)))

    @staticmethod
    def check_from_correspondence(R):
        w = rough_isometry_from_correspondence(R)
        want = reference_rough_isometry_from_correspondence(R)
        assert (w.map, w.eps_embed, w.eps_large) == (want.map, want.eps_embed, want.eps_large)
        assert all(type(v) is int for v in w.map)


class TestCompactnessFiniteScale:
    @given(qspaces(max_n=4), st.data())
    @settings(max_examples=15)
    def test_zero_iff_isometric(self, X, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
        if data.draw(st.booleans()):
            Y, _ = permuted_copy(X, rng)
        else:
            Y = data.draw(qspaces(max_n=4))
        value = gh_exact(X, Y).value
        perm = is_isometric(X, Y, tol=1e-9)
        assert (value <= 1e-9) == (perm is not None)
