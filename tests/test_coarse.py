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
    min_delta,
    pair_dist,
    project_to_hull,
    random_nonexpansive,
    random_qspace,
    sample_hull,
)
from qmet.errors import InfeasibleFamily, NotMinimal, NotNonexpansive
from qmet.pairs import AmplePair
from helpers import qspaces, rng_spaces

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


class TestFamilyFromHullPoint:
    def test_embedding_gives_delta_zero(self):
        for x in range(L3.n):
            F = family_from_hull_point(L3, embed_point(L3, x))
            assert find_center(L3, F, 0.0) == x
            assert min_delta(L3, F) == 0.0

    def test_halfway_point_on_sierpinski(self):
        f = project_to_hull(AmplePair(S, [2, 2], [2, 2]))
        assert f.f1[0] == pytest.approx(0.5, abs=1e-9)
        F = family_from_hull_point(S, f)
        assert min_delta(S, F) == pytest.approx(0.5, abs=1e-7)
        assert distance_to_embedding(S, f) == pytest.approx(0.5, abs=1e-9)

    def test_requires_minimal(self):
        with pytest.raises(NotMinimal):
            family_from_hull_point(S, AmplePair(S, [2, 2], [2, 2]))

    def test_bisection_matches_embedding_gap(self):
        # two independent routes to the least delta of a hull point's family
        for si, X in enumerate(rng_spaces(5, 4, seed=40)):
            H = sample_hull(X, 12, seed=si)
            for f in H.points:
                F = family_from_hull_point(X, f)
                assert min_delta(X, F) == pytest.approx(
                    distance_to_embedding(X, f), abs=1e-6
                )

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
        est = estimate_delta(POINT, samples=5, restarts=2, seed=0)
        assert est.lower == 0.0 and est.heuristic_upper == 0.0

    def test_sierpinski(self):
        est = estimate_delta(S, samples=200, restarts=6, seed=7)
        assert 0.48 <= est.lower <= 0.5
        assert est.heuristic_upper >= est.lower

    def test_two_point_metric(self):
        est = estimate_delta(M2, samples=200, restarts=6, seed=7)
        assert 0.95 <= est.lower <= 1.0

    def test_deterministic(self):
        a = estimate_delta(L3, samples=60, restarts=3, seed=5)
        b = estimate_delta(L3, samples=60, restarts=3, seed=5)
        assert a == b

    @given(qspaces(max_n=4), st.integers(0, 10_000))
    @settings(max_examples=8)
    def test_lower_bounded_by_diameter(self, X, seed):
        est = estimate_delta(X, samples=30, restarts=2, seed=seed)
        assert est.lower <= X.diam + 1e-9

    def test_rough_isometry_quasi_invariance_at_zero_eps(self):
        # conjugation is an isometry onto the conjugate space; estimates agree
        from qmet import conjugate

        a = estimate_delta(S, samples=150, restarts=4, seed=3)
        b = estimate_delta(conjugate(S), samples=150, restarts=4, seed=3)
        assert abs(a.lower - b.lower) <= 5 * 0.0 / 2 + 0.05


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
    # the known-fault case of ROADMAP item 3; its values must not drift
    X = random_qspace(6, np.random.default_rng(6))
    est = estimate_delta(X, samples=300, restarts=6, seed=0)
    assert est.lower == 0.44715145758969554
    assert est.heuristic_upper == 0.44715161200892234
