import warnings

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from qmet import (
    QSpace,
    SubsetRef,
    conjugate,
    demo_space,
    hausdorff,
    is_isometric,
    largeness_constant,
    restrict,
    symmetrize,
    validate,
)
from qmet.space import VIOLATION_CAP, Violation, _candidates, triangle_closure
from qmet.tolerances import TRIANGLE_TOL
from qmet.errors import (
    EmptySubset,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NotIncreasing,
    ValidationError,
)
from helpers import (
    permuted_copy,
    perturbed_space,
    qspaces,
    reference_candidates,
    reference_is_isometric,
    reference_triangle_closure,
    same_bits,
)


S = demo_space("sierpinski")
L3 = demo_space("line3")
M2 = demo_space("metric2")


def m1_loop(d, tol):
    """Reference for validate's T0 check: every pair i < j with both
    distances at most tol, in loop order."""
    m1, witnesses = True, []
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[i, j] <= tol and d[j, i] <= tol:
                m1 = False
                witnesses.append(Violation("M1", (i, j), float(max(d[i, j], d[j, i]))))
    return m1, witnesses


class TestValidate:
    def test_sierpinski_is_quasi_metric(self):
        r = validate([[0, 0], [1, 0]])
        assert r.satisfies_M1 and r.satisfies_M2 and not r.satisfies_M3
        assert not r.is_metric
        assert [v.axiom for v in r.violations] == ["M3"]

    def test_zero_matrix_is_pseudo_only(self):
        r = validate([[0, 0], [0, 0]])
        assert not r.satisfies_M1
        assert r.satisfies_M2 and r.satisfies_M3
        assert not r.is_metric
        assert any(v.axiom == "M1" for v in r.violations)

    def test_zero_matrix_at_tol_zero_is_not_t0(self):
        # a pair merges at distance <= tol, the comparison M1*, M2 and M3 use
        r = validate([[0, 0], [0, 0]], tol=0.0)
        assert not r.satisfies_M1 and not r.is_metric
        assert [v.axiom for v in r.violations] == ["M1"]

    @pytest.mark.parametrize(
        "matrix, kind",
        [([[0, 1], [1, 0]], "metric"), ([[0, 0], [1, 0]], "quasi-metric"),
         ([[0, 0], [0, 0]], "pseudo-quasi-metric"), ([[0, 1], [0, 0]], "quasi-metric")],
    )
    def test_kind_is_the_narrowest_class(self, matrix, kind):
        assert validate(matrix).kind == kind
        assert f", {kind}, " in repr(QSpace(matrix))

    def test_triangle_violation_witness(self):
        r = validate([[0, 5, 1], [1, 0, 1], [1, 1, 0]])
        assert not r.satisfies_M2
        hits = [v for v in r.violations if v.axiom == "M2"]
        assert hits[0].witness == (0, 1, 2)
        assert hits[0].magnitude == pytest.approx(3.0)
        with pytest.raises(ValidationError):
            QSpace([[0, 5, 1], [1, 0, 1], [1, 1, 0]])

    def test_witnesses_past_float_range(self):
        # a violated pair whose path through another point overflows: that
        # path is no witness, and its sum raises no overflow warning
        d = np.ones((4, 4))
        np.fill_diagonal(d, 0.0)
        d[0, 1], d[0, 3], d[3, 1] = 1e300, 1.7e308, 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = validate(d)
        hits = [v for v in r.violations if v.axiom == "M2" and v.witness[:2] == (0, 1)]
        assert hits == [Violation("M2", (0, 1, 2), 1e300)]

    def test_metric_flag(self):
        assert validate(M2.d).is_metric

    def test_closure_past_float_range(self):
        # a path sum past the float range is +inf, never the minimum, and
        # raises no overflow warning
        d = [[0.0, 1.5e308], [1.6e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(triangle_closure(d), d)

    @given(st.integers(1, 8), st.sampled_from([0, 600, -600]), st.integers(0, 2 ** 31 - 1))
    def test_closure_matches_floyd_warshall(self, n, j, seed):
        # raw draws with zero entries, so ties and zero-length paths occur,
        # at scales far from overflow and from subnormals
        rng = np.random.default_rng(seed)
        m = np.where(rng.random((n, n)) < 0.3, 0.0, rng.uniform(0.05, 1.0, (n, n)))
        m = np.ldexp(m, j)
        assert same_bits(triangle_closure(m), reference_triangle_closure(m))

    def test_bad_candidates(self):
        with pytest.raises(NonSquareMatrix):
            validate([[0, 1]])
        with pytest.raises(NonSquareMatrix):
            validate(np.zeros((0, 0)))
        with pytest.raises(NegativeEntry):
            validate([[0, -1], [1, 0]])
        with pytest.raises(NonFiniteEntry):
            validate([[0, np.inf], [1, 0]])

    @given(st.integers(2, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
    @example(30, 1.0, 0)  # no triangle violation, 435 merged pairs: M1 alone hits the cap
    def test_m1_matches_loop(self, n, p_zero, seed):
        rng = np.random.default_rng(seed)
        near_zero = rng.choice([0.0, 0.5 * TRIANGLE_TOL, TRIANGLE_TOL], (n, n))
        far = rng.uniform(0.5, 1.0, (n, n))
        d = np.where(rng.random((n, n)) < p_zero, near_zero, far)
        np.fill_diagonal(d, 0.0)
        r = validate(d)
        m1, witnesses = m1_loop(d, TRIANGLE_TOL)
        earlier = [v for v in r.violations if v.axiom in ("M1*", "M2")]
        assert r.satisfies_M1 == m1
        assert [v for v in r.violations if v.axiom == "M1"] == witnesses[
            : max(VIOLATION_CAP - len(earlier), 0)
        ]
        assert all(type(i) is int for v in r.violations for i in v.witness)

    def test_violations_capped(self):
        # cheap hub shortcuts break every triangle through point 0
        n = 25
        m = np.full((n, n), 10.0)
        m[0, :] = 0.1
        m[:, 0] = 0.1
        np.fill_diagonal(m, 0.0)
        r = validate(m)
        assert len(r.violations) == 100


class TestDualize:
    def test_conjugate_transposes(self):
        assert conjugate(S).d.tolist() == [[0, 1], [0, 0]]

    def test_symmetrize_max(self):
        assert symmetrize(S).d.tolist() == [[0, 1], [1, 0]]
        assert symmetrize(S).classification.satisfies_M3

    def test_symmetrize_fixes_metric(self):
        assert np.array_equal(symmetrize(M2).d, M2.d)

    @given(qspaces())
    def test_conjugate_involution(self, X):
        assert conjugate(conjugate(X)) == X

    @given(qspaces())
    def test_symmetrize_conjugation_invariant(self, X):
        assert symmetrize(X) == symmetrize(conjugate(X))


class TestRestrict:
    def test_line3_subset(self):
        assert restrict(L3, [0, 2]).d.tolist() == [[0, 0], [2, 0]]

    def test_full_subset_is_identity(self):
        assert restrict(L3, [0, 1, 2]) == L3

    def test_single_point(self):
        assert restrict(L3, [1]).d.tolist() == [[0.0]]

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            restrict(L3, [])
        with pytest.raises(EmptySubset):
            SubsetRef(L3, ())

    def test_subset_ref_checks(self):
        with pytest.raises(ValueError):
            SubsetRef(L3, (1, 1))
        with pytest.raises(IndexError):
            SubsetRef(L3, (0, 7))

    @pytest.mark.parametrize(
        "indices, error",
        [((0, 7), IndexOutOfRange), ((-1, 1), IndexOutOfRange),
         ((1, 0), NotIncreasing), ((2, 2), NotIncreasing)],
    )
    def test_subset_ref_errors_are_typed(self, indices, error):
        with pytest.raises(error):
            SubsetRef(L3, indices)
        if error is IndexOutOfRange:  # plain index lists take the same check
            with pytest.raises(error):
                restrict(L3, list(indices))


class TestHausdorff:
    def test_directed_values(self):
        assert hausdorff(L3, [0], [2], "q") == 2.0
        assert hausdorff(L3, [2], [0], "q") == 0.0

    def test_same_subset_zero(self):
        assert hausdorff(L3, [0, 2], [0, 2], "q") == 0.0
        assert hausdorff(L3, [0, 2], [0, 2], "sym") == 0.0

    @given(qspaces(), st.data())
    def test_sym_is_max_of_one_sided(self, X, data):
        a = data.draw(st.sets(st.integers(0, X.n - 1), min_size=1))
        b = data.draw(st.sets(st.integers(0, X.n - 1), min_size=1))
        Xs = symmetrize(X)
        one = hausdorff(Xs, sorted(a), sorted(b), "q")
        other = hausdorff(Xs, sorted(b), sorted(a), "q")
        assert hausdorff(X, sorted(a), sorted(b), "sym") == pytest.approx(
            max(one, other), abs=1e-12
        )

    @given(qspaces(), st.data())
    def test_sym_zero_means_mutual_cover(self, X, data):
        a = sorted(data.draw(st.sets(st.integers(0, X.n - 1), min_size=1)))
        b = sorted(data.draw(st.sets(st.integers(0, X.n - 1), min_size=1)))
        if hausdorff(X, a, b, "sym") == 0.0:
            for i in a:
                assert min(X.dsym[i, j] for j in b) == 0.0
            for j in b:
                assert min(X.dsym[j, i] for i in a) == 0.0


class TestLargeness:
    def test_examples(self):
        assert largeness_constant(L3, [1]) == 1.0
        assert largeness_constant(L3, [0, 1, 2]) == 0.0
        assert largeness_constant(S, [0]) == 1.0

    @given(qspaces(), st.data())
    def test_equals_one_sided_sym_hausdorff(self, X, data):
        y = sorted(data.draw(st.sets(st.integers(0, X.n - 1), min_size=1)))
        allpts = list(range(X.n))
        assert largeness_constant(X, y) == pytest.approx(
            hausdorff(symmetrize(X), allpts, y, "q"), abs=1e-12
        )


class TestIsometric:
    def test_self(self):
        assert is_isometric(L3, L3) == [0, 1, 2]

    def test_sierpinski_vs_conjugate(self):
        assert is_isometric(S, conjugate(S)) == [1, 0]

    def test_sierpinski_vs_metric(self):
        assert is_isometric(S, M2) is None

    def test_size_mismatch(self):
        assert is_isometric(S, L3) is None

    @given(qspaces(), st.randoms(use_true_random=False))
    def test_inverse_present(self, X, pyrng):
        perm = list(range(X.n))
        pyrng.shuffle(perm)
        Y = QSpace(X.d[np.ix_(perm, perm)])
        fwd = is_isometric(X, Y)
        back = is_isometric(Y, X)
        assert fwd is not None and back is not None
        for i in range(X.n):
            assert X.d[i, i] == Y.d[fwd[i], fwd[i]]

    @given(qspaces(min_n=1, max_n=6), st.integers(0, 2 ** 31 - 1), st.booleans())
    def test_matches_recursive_reference(self, X, seed, ties):
        # distances 1 and 2 always satisfy the triangle inequality, and their
        # many ties make the search backtrack, also on unrelated spaces
        rng = np.random.default_rng(seed)
        ones_twos = lambda: QSpace(rng.integers(1, 3, (X.n, X.n)) * (1.0 - np.eye(X.n)))
        if ties:
            X = ones_twos()
        Y, _ = permuted_copy(X, rng)
        for Z in (Y, ones_twos()):
            assert is_isometric(X, Z) == reference_is_isometric(X, Z)

    def test_zero_distances_need_a_bijection(self):
        # in a pseudo-quasi-metric space a used image can fit every placed
        # point, so only the used set keeps the map injective
        Z = QSpace(np.zeros((3, 3)))
        assert is_isometric(Z, Z) == reference_is_isometric(Z, Z) == [0, 1, 2]

    @given(
        qspaces(min_n=1, max_n=7),
        st.integers(0, 2 ** 31 - 1),
        st.booleans(),
        st.sampled_from([0.0, 1e-9, 0.3, 1.0, float("nan")]),
    )
    def test_candidates_match_double_loop(self, X, seed, ties, tol):
        rng = np.random.default_rng(seed)
        ones_twos = lambda: QSpace(rng.integers(1, 3, (X.n, X.n)) * (1.0 - np.eye(X.n)))
        if ties:
            X = ones_twos()
        Y, _ = permuted_copy(X, rng)
        for Z in (Y, ones_twos(), perturbed_space(X, rng, 0.3)):
            assert _candidates(X, Z, tol) == reference_candidates(X, Z, tol)
