import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qmet import (
    BallFamily,
    QSpace,
    demo_space,
    distance_to_embedding,
    embed_point,
    estimate_delta,
    family_from_hull_point,
    family_violation,
    find_center,
    fixed_point_gap,
    in_hull,
    min_delta,
    pair_dist,
    random_nonexpansive,
    random_qspace,
    sample_hull,
)
from qmet import coarse, pairs
from qmet.errors import IndexOutOfRange, InfeasibleFamily, NotMinimal, NotNonexpansive
from qmet.pairs import AmplePair, ample_completion
from qmet.tolerances import slack
from helpers import (
    qspaces,
    reference_evaluate_boxes,
    reference_family_violation,
    reference_find_center,
    rng_spaces,
)

# the benchmark's numpy oracles, which call nothing in qmet
_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

S = demo_space("sierpinski")
M2 = demo_space("metric2")
L3 = demo_space("line3")
POINT = QSpace([[0.0]])


class TestFindCenter:
    def test_tight_family_on_sierpinski(self):
        F = BallFamily(((0, 0.0, 0.0), (1, 1.0, 0.0)))
        assert find_center(S, F, 0.0) == 0

    def test_split_family_needs_half(self):
        F = BallFamily(((0, 0.0, 0.5), (1, 0.5, 0.0)))
        assert find_center(S, F, 0.49) is None
        assert find_center(S, F, 0.5) == 0

    def test_diameter_always_solves(self):
        rng = np.random.default_rng(1)
        for X in rng_spaces(5, 4, seed=2):
            xs = rng.integers(0, X.n, 3)
            rs = rng.uniform(0, X.diam, 3)
            # build feasible backward radii against the chosen forward ones
            ss = np.array(
                [max(X.d[xi, xj] - rs[k] for k, xi in enumerate(xs)) for xj in xs]
            ).clip(min=0)
            F = BallFamily(tuple((int(x), float(r), float(s)) for x, r, s in zip(xs, rs, ss)))
            assert family_violation(X, F) is None
            assert find_center(X, F, X.diam) is not None

    def test_infeasible_family_rejected(self):
        F = BallFamily(((1, 0.0, 0.0), (0, 0.0, 0.0)))
        with pytest.raises(InfeasibleFamily):
            find_center(S, F, 5.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            BallFamily(((0, -0.1, 0.0),))

    @pytest.mark.parametrize("r, s", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf)])
    def test_non_finite_radius_rejected(self, r, s):
        with pytest.raises(ValueError):
            BallFamily(((0, r, s),))

    @pytest.mark.parametrize("x", [2, 5, -1])
    def test_index_out_of_range(self, x):
        F = BallFamily(((0, 1.0, 1.0), (x, 0.1, 0.1)))
        for call in (family_violation, min_delta, lambda X, F: find_center(X, F, 1.0)):
            with pytest.raises(IndexOutOfRange):
                call(S, F)

    def test_empty_family_needs_nothing(self):
        F = BallFamily(())
        assert family_violation(S, F) is None
        assert find_center(S, F, 0.0) == 0
        assert min_delta(S, F) == 0.0


@st.composite
def families(draw):
    """A space and a family on it: 1/2-valued distances and tie-heavy radii
    half the time each, backward radii made feasible half the time."""
    X = draw(qspaces(min_n=1, max_n=6))
    if draw(st.booleans()):
        ones_twos = draw(st.lists(st.integers(1, 2), min_size=X.n ** 2, max_size=X.n ** 2))
        X = QSpace(np.reshape(ones_twos, (X.n, X.n)) * (1.0 - np.eye(X.n)))
    m = draw(st.integers(1, 7))
    xs = draw(st.lists(st.integers(0, X.n - 1), min_size=m, max_size=m))
    radius = st.sampled_from([0.0, 0.5, 1.0, 1.5]) if draw(st.booleans()) else st.floats(0.0, 3.0)
    rs = draw(st.lists(radius, min_size=m, max_size=m))
    ss = draw(st.lists(radius, min_size=m, max_size=m))
    if draw(st.booleans()):
        ss = [max(s, max(X.d[xi, xj] - r for xi, r in zip(xs, rs))) for s, xj in zip(ss, xs)]
    return X, BallFamily(tuple(zip(xs, rs, ss)))


@given(families(), st.sampled_from([0.0, 1e-9, 0.5]))
@settings(max_examples=200)
def test_family_violation_matches_double_loop(case, tol):
    X, F = case
    assert family_violation(X, F) == reference_family_violation(X, F)
    assert family_violation(X, F, tol) == reference_family_violation(X, F, tol)


def test_find_center_rounds_as_the_z_loop():
    # z = 1 is inside: 2 <= 1.999999999999 + 0 + 1e-12, which rounds to 2,
    # though 2 - 1.999999999999 rounds above 1e-12
    X = QSpace([[0.0, 1.0], [2.0, 0.0]])
    F = BallFamily(((0, 1.0, 1.999999999999), (1, 1e-12, 0.0)))
    assert find_center(X, F, 0.0) == reference_find_center(X, F, 0.0) == 1


@given(families(), st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 3.0))
@settings(max_examples=200)
def test_find_center_matches_z_loop(case, offset, delta):
    X, F = case
    if family_violation(X, F) is not None:
        return
    least = min_delta(X, F)
    for d in (0.0, delta, least, least + offset):
        assert find_center(X, F, d) == reference_find_center(X, F, d)
    # the loop finds a center at the least delta and none clearly below it
    assert least >= 0.0 and reference_find_center(X, F, least) is not None
    assert least == 0.0 or reference_find_center(X, F, least - 1e-9) is None


def test_min_delta_is_exact():
    # c09's identity holds to rounding, and the least delta is attained
    eps = np.finfo(float).eps
    for si, X in enumerate(rng_spaces(6, 5, seed=42)):
        H = sample_hull(X, 30, seed=si)
        for f in H.points:
            F = family_from_hull_point(X, f)
            delta = min_delta(X, F)
            assert abs(delta - distance_to_embedding(X, f)) <= 4 * eps * max(X.diam, 1.0)
            assert find_center(X, F, delta) is not None


class TestFamilyFromHullPoint:
    def test_embedding_gives_delta_zero(self):
        for x in range(L3.n):
            F = family_from_hull_point(L3, embed_point(L3, x))
            assert find_center(L3, F, 0.0) == x
            assert min_delta(L3, F) == 0.0

    def test_halfway_point_on_sierpinski(self):
        f = AmplePair(S, [0.5, 0], [0, 0.5])
        assert in_hull(f, 0.0)
        assert f.f1[0] == pytest.approx(0.5, abs=1e-9)
        F = family_from_hull_point(S, f)
        assert min_delta(S, F) == pytest.approx(0.5, abs=1e-7)
        assert distance_to_embedding(S, f) == pytest.approx(0.5, abs=1e-9)

    def test_requires_minimal(self):
        with pytest.raises(NotMinimal):
            family_from_hull_point(S, AmplePair(S, [2, 2], [2, 2]))

    def test_certified_flag_is_not_trusted(self):
        # an ample completion that is not minimal: trusting the flag gave a
        # family with min_delta 0.414 while the pair sits 0.702 from the
        # embedded space
        X = random_qspace(4, np.random.default_rng(1))
        f = ample_completion(X, np.full(4, X.diam))
        with pytest.raises(NotMinimal):
            family_from_hull_point(X, AmplePair(X, f.f1, f.f2, certified_minimal=True))

    def test_bisection_matches_embedding_gap(self):
        # two independent routes to the least delta of a hull point's family
        for si, X in enumerate(rng_spaces(5, 4, seed=40)):
            H = sample_hull(X, 12, seed=si)
            for f in H.points:
                F = family_from_hull_point(X, f)
                assert min_delta(X, F) == pytest.approx(
                    distance_to_embedding(X, f), abs=1e-6
                )

    @pytest.mark.parametrize("scale", [1e9, 1e300])
    def test_embedding_gap_at_large_scale(self, scale):
        # c09's identity on certified nets whose families exceed AMPLE_TOL
        # by rounding alone (3e-8 at 1e9): feasibility takes the ampleness
        # slack, so no family of a certified point is infeasible
        for s in range(5):
            X = random_qspace(5, np.random.default_rng(s), scale=scale)
            for f in sample_hull(X, 100, 0).points:
                F = family_from_hull_point(X, f)
                gap = abs(min_delta(X, F) - distance_to_embedding(X, f))
                assert gap <= slack(0.0, X.diam)

    def test_bisection_matches_direct_formula(self):
        # closed form: min over z of the worst inflation required by any entry
        for si, X in enumerate(rng_spaces(4, 4, seed=41)):
            H = sample_hull(X, 8, seed=si)
            for f in H.points:
                F = family_from_hull_point(X, f)
                xs = np.array([e[0] for e in F.entries])
                rs = np.array([e[1] for e in F.entries])
                ss = np.array([e[2] for e in F.entries])
                direct = min(
                    max(
                        float(np.maximum(X.d[xs, z] - rs, 0.0).max()),
                        float(np.maximum(X.d[z, xs] - ss, 0.0).max()),
                    )
                    for z in range(X.n)
                )
                assert min_delta(X, F) == pytest.approx(direct, abs=1e-6)


class TestDeltaEstimate:
    def test_one_point(self):
        est = estimate_delta(POINT, samples=5)
        assert est.lower == 0.0 and 0.0 <= est.upper <= oracles.ulp_slack(0.0)

    def test_sierpinski(self):
        est = estimate_delta(S, samples=200)
        assert 0.48 <= est.lower <= 0.5 <= est.upper

    def test_two_point_metric(self):
        est = estimate_delta(M2, samples=200)
        assert 0.95 <= est.lower <= 1.0

    def test_deterministic(self):
        a = estimate_delta(L3, samples=60)
        b = estimate_delta(L3, samples=60)
        assert a == b

    @given(qspaces(max_n=4))
    @settings(max_examples=8)
    def test_lower_bounded_by_diameter(self, X):
        est = estimate_delta(X, samples=30)
        assert est.lower <= X.diam + 1e-9

    def test_rough_isometry_quasi_invariance_at_zero_eps(self):
        # conjugation is an isometry onto the conjugate space; estimates agree
        from qmet import conjugate

        a = estimate_delta(S, samples=150)
        b = estimate_delta(conjugate(S), samples=150)
        assert abs(a.lower - b.lower) <= 5 * 0.0 / 2 + 0.05


SMALL_SPACES = st.one_of(
    qspaces(max_n=4), qspaces(max_n=4, symmetric=True), qspaces(max_n=4, halves=True)
)


class TestDeltaBracket:
    @given(st.one_of(SMALL_SPACES, qspaces(max_n=4, closed=False)))
    @settings(max_examples=20)
    def test_bracket_holds_against_the_oracles(self, X):
        est = estimate_delta(X, samples=300)
        assert est.lower <= est.upper and est.boxes <= est.samples
        assert type(est.lower) is float and type(est.upper) is float
        tol = oracles.VALUE_TOL
        assert est.lower <= oracles.delta_grid_upper(X.d, 9) + tol
        G = np.random.default_rng(X.n).uniform(0.0, X.diam, (2000, X.n))
        assert oracles.embedding_gaps(X.d, *oracles.retract(X.d, G)).max() <= est.upper + tol

    @pytest.mark.parametrize("name", ["runit5", "sierpinski"])
    def test_evaluation_in_chunks_changes_nothing(self, monkeypatch, name):
        X = demo_space(name)
        whole = estimate_delta(X, samples=300)
        monkeypatch.setattr(pairs, "BLOCK_ELEMENTS", 2 * 3 * X.n * X.n)  # two boxes
        assert estimate_delta(X, samples=300) == whole
        monkeypatch.setattr(pairs, "BLOCK_ELEMENTS", 1)  # one box
        assert estimate_delta(X, samples=300) == whole

    def test_brackets_match_the_reference_evaluation(self, monkeypatch):
        # slices in place of np.split, and retract's shared flat(P2)
        rng = np.random.default_rng(1812)
        spaces = [random_qspace(n, rng) for n in range(2, 13) for _ in range(3)]
        got = [estimate_delta(X, samples=300) for X in spaces]
        monkeypatch.setattr(coarse, "_evaluate_boxes", reference_evaluate_boxes)
        assert got == [estimate_delta(X, samples=300) for X in spaces]

    def test_unclosed_space(self):
        # accepted at tol=1 with a triangle excess of 1: retract(0) is the
        # hull point ((0, 0, 0), (3, 1, 3)), which sits 2 from every e_x,
        # though max(f1(x), f2(x)) is only 1 at x = 1
        X = QSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]], tol=1)
        f = AmplePair(X, [0, 0, 0], [3, 1, 3])
        assert distance_to_embedding(X, f) == 2.0
        assert np.maximum(f.f1, f.f2).min() == 1.0
        est = estimate_delta(X, samples=300)
        assert est.lower == 2.0 and 2.0 <= est.upper <= 2.0 + oracles.ulp_slack(X.diam)

    def test_rounding_term_follows_small_scale(self):
        X = QSpace(S.d * 1e-300)
        est = estimate_delta(X, samples=200)
        assert est.lower <= 0.5 * X.diam <= est.upper <= est.lower + 1e-12 * X.diam

    @given(SMALL_SPACES, st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_hull_distance_to_embedding_is_diagonal_max(self, X, seed):
        # on a closed space f1(y) <= f1(x) + d(x, y) and ampleness leave only
        # the y = x terms
        slack = oracles.ulp_slack(X.diam)
        for f in sample_hull(X, 20, seed).points:
            gap = np.maximum(f.f1, f.f2).min()
            assert abs(distance_to_embedding(X, f) - gap) <= slack


class TestNonexpansiveMaps:
    def test_sierpinski_has_exactly_three(self):
        maps = random_nonexpansive(S)
        assert sorted(maps) == [(0, 0), (0, 1), (1, 1)]

    def test_one_point(self):
        assert random_nonexpansive(POINT) == [(0,)]

    def test_identity_always_included(self):
        for X in rng_spaces(3, 4, seed=9):
            assert tuple(range(X.n)) in random_nonexpansive(X)

    def test_sampling_mode(self):
        X = rng_spaces(1, 5, seed=15)[0]
        maps = random_nonexpansive(X, seed=3, exhaustive_cap=10, count=8)
        assert maps[0] == (0, 1, 2, 3, 4)
        for T in maps:
            ix = np.asarray(T)
            assert (X.d[np.ix_(ix, ix)] <= X.d + 1e-9).all()
        assert maps == random_nonexpansive(X, seed=3, exhaustive_cap=10, count=8)


class TestFixedPointGap:
    def test_identity(self):
        assert fixed_point_gap(L3, [0, 1, 2]) == (0.0, 0)

    def test_constant(self):
        gap, arg = fixed_point_gap(L3, [2, 2, 2])
        assert gap == 0.0 and arg == 2

    def test_clamp_down(self):
        assert fixed_point_gap(L3, [0, 0, 1]) == (0.0, 0)

    def test_rejects_expanding_map(self):
        with pytest.raises(NotNonexpansive):
            fixed_point_gap(S, [1, 0])

    def test_two_delta_bound_on_derived_spaces(self):
        for X, delta in [(S, 0.5), (M2, 1.0), (POINT, 0.0)]:
            for T in random_nonexpansive(X):
                gap, _ = fixed_point_gap(X, T)
                assert gap <= 2 * delta + 1e-9


def test_repro6_pinned():
    # the benchmark's oracle retraction finds a hull point this far from the
    # embedded copy, so a certified upper bound may not fall below it
    X = random_qspace(6, np.random.default_rng(6))
    est = estimate_delta(X, samples=300)
    assert est.upper >= 0.46422294256715113
