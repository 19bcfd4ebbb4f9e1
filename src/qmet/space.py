"""Finite quasi-metric spaces.

A space is a labeled point set with an n x n non-negative distance matrix.
The matrix must satisfy zero self-distance (M1*) and the triangle inequality
(M2, within ``TRIANGLE_TOL``); T0 separation (M1) and symmetry (M3) are
optional and recorded in the axiom report, so pseudo-quasi-metric spaces
(as produced e.g. by gluing) flow through every operation unchanged.

All values are immutable after construction and every operation is a pure
function of its inputs.  ``_relax`` is qmet's one min-plus product, under
``validate``, the closure, gluing and subspace extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import (
    EmptySubset,
    IndexOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonSquareMatrix,
    NotIncreasing,
    ValidationError,
)
from .tolerances import TRIANGLE_TOL

VIOLATION_CAP = 100


@dataclass(frozen=True)
class Violation:
    """A single axiom failure: which axiom, the witness indices, and by how much."""

    axiom: str
    witness: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class AxiomReport:
    satisfies_M1: bool        # T0 separation: d(x,y)=d(y,x)=0 only for x=y
    satisfies_M1_star: bool   # zero diagonal
    satisfies_M2: bool        # triangle inequality within tolerance
    satisfies_M3: bool        # symmetry
    is_metric: bool
    violations: tuple[Violation, ...]

    @property
    def is_pseudo_quasi_metric(self) -> bool:
        return self.satisfies_M1_star and self.satisfies_M2

    @property
    def is_quasi_metric(self) -> bool:
        return self.is_pseudo_quasi_metric and self.satisfies_M1

    @property
    def kind(self) -> str:
        """The narrowest class the matrix belongs to."""
        if self.is_metric:
            return "metric"
        return "quasi-metric" if self.is_quasi_metric else "pseudo-quasi-metric"


def _relax(out: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out = min(out, A[:, k] + B[k, :]) for each k in turn, in place, and
    returns out.  Min is exact and a sum rounds alike in either operand order;
    an overflowing sum is +inf, never the minimum, and warns of nothing."""
    with np.errstate(over="ignore"):
        for k in range(A.shape[1]):
            np.minimum(out, A[:, k:k + 1] + B[k:k + 1, :], out=out)
    return out


def validate(matrix, tol: float = TRIANGLE_TOL) -> AxiomReport:
    """Classify a candidate distance matrix against the metric axioms.

    M2 is checked with slack ``tol``; every violated triple is listed, capped
    at 100 witnesses overall.  Raises NonSquareMatrix / NegativeEntry /
    NonFiniteEntry when the input is not even a candidate.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
        raise NonSquareMatrix(f"expected a non-empty square matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise NonFiniteEntry(f"entry ({i},{j}) is not finite")
    if (d < 0).any():
        i, j = np.argwhere(d < 0)[0]
        raise NegativeEntry(f"entry ({i},{j}) = {d[i, j]} is negative")
    diag = np.diagonal(d)
    # triangle: d(i,j) <= d(i,k) + d(k,j) + tol for every k
    excess = d - _relax(np.full(d.shape, np.inf), d, d)
    merged = np.argwhere(np.triu((d <= tol) & (d.T <= tol), 1))
    asym = np.abs(d - d.T)

    def witnesses():
        for i in np.flatnonzero(diag > tol):
            yield Violation("M1*", (int(i),), float(diag[i]))
        for i, j in np.argwhere(excess > tol):
            with np.errstate(over="ignore"):
                gaps = d[i, j] - (d[i, :] + d[:, j])
            for k in np.flatnonzero(gaps > tol):
                yield Violation("M2", (int(i), int(j), int(k)), float(gaps[k]))
        for i, j in merged:
            yield Violation("M1", (int(i), int(j)), float(max(d[i, j], d[j, i])))
        for i, j in np.argwhere(np.triu(asym, 1) > tol):
            yield Violation("M3", (int(i), int(j)), float(asym[i, j]))

    m1, m1_star = len(merged) == 0, bool((diag <= tol).all())
    m2, m3 = bool((excess <= tol).all()), bool((asym <= tol).all())
    return AxiomReport(
        satisfies_M1=m1,
        satisfies_M1_star=m1_star,
        satisfies_M2=m2,
        satisfies_M3=m3,
        is_metric=m1 and m1_star and m2 and m3,
        violations=tuple(islice(witnesses(), VIOLATION_CAP)),
    )


class QSpace:
    """A finite labeled point set with a (pseudo-)quasi-metric matrix."""

    def __init__(self, d, labels: Sequence[str] | None = None, *, tol: float = TRIANGLE_TOL):
        d = np.array(d, dtype=float)  # a private copy; validate checks it
        report = validate(d, tol=tol)
        if not report.is_pseudo_quasi_metric:
            raise ValidationError(report)
        d.setflags(write=False)
        self.d = d
        self.n = d.shape[0]
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        elif len(labels) != self.n:
            raise ValidationError(report, f"{len(labels)} labels for {self.n} points")
        self.labels = tuple(str(l) for l in labels)
        self.classification = report

    @cached_property
    def dsym(self) -> np.ndarray:
        """Symmetrized matrix max(d, d^T); always a (pseudo-)metric."""
        s = np.maximum(self.d, self.d.T)
        s.setflags(write=False)
        return s

    @property
    def diam(self) -> float:
        return float(self.d.max())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSpace)
            and self.labels == other.labels
            and np.array_equal(self.d, other.d)
        )

    def __hash__(self):
        return hash((self.labels, self.d.tobytes()))

    def __repr__(self):
        return f"QSpace(n={self.n}, {self.classification.kind}, diam={self.diam:.6g})"


@dataclass(frozen=True)
class SubsetRef:
    """A non-empty, strictly increasing, in-bounds selection of points."""

    parent: QSpace
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise EmptySubset("subset must contain at least one point")
        prev = -1
        for i in self.indices:
            if not 0 <= i < self.parent.n:
                raise IndexOutOfRange(f"subset index {i} out of range for n={self.parent.n}")
            if i <= prev:
                raise NotIncreasing("subset indices must be strictly increasing")
            prev = i


def subset_indices(X: QSpace, subset) -> tuple[int, ...]:
    """Normalize a SubsetRef or plain index sequence into checked indices."""
    if isinstance(subset, SubsetRef):
        if subset.parent is not X and subset.parent != X:
            raise ValueError("subset refers to a different space")
        return subset.indices
    idx = tuple(sorted(set(int(i) for i in subset)))
    return SubsetRef(X, idx).indices


def map_table(T, n: int, m: int) -> tuple[int, ...]:
    """Check a function table sending n points into m points; returns it as ints."""
    T = tuple(int(v) for v in T)
    if len(T) != n:
        raise LengthMismatch(f"map table has {len(T)} entries for {n} points")
    if any(not 0 <= v < m for v in T):
        raise IndexOutOfRange(f"map table sends a point outside the {m} target points")
    return T


def conjugate(X: QSpace) -> QSpace:
    """Reverse every arrow: d'(x,y) = d(y,x)."""
    return QSpace(X.d.T, X.labels)


def symmetrize(X: QSpace) -> QSpace:
    """Entrywise max(d, d^T); the output satisfies M3."""
    return QSpace(np.maximum(X.d, X.d.T), X.labels)


def restrict(X: QSpace, subset) -> QSpace:
    idx = subset_indices(X, subset)
    sub = X.d[np.ix_(idx, idx)]
    return QSpace(sub, [X.labels[i] for i in idx])


def hausdorff(X: QSpace, A, B, mode: str = "q") -> float:
    """One-sided or symmetrized Hausdorff value between two subsets.

    mode "q": the least r with A inside the union of forward balls of radius r
    around B, i.e. max over a in A of min over b in B of d(b, a).
    mode "sym": the two-sided Hausdorff distance of the symmetrized matrix.
    """
    ia = subset_indices(X, A)
    ib = subset_indices(X, B)
    if mode == "q":
        return float(X.d[np.ix_(ib, ia)].min(axis=0).max())
    if mode == "sym":
        ds = X.dsym
        ab = ds[np.ix_(ia, ib)].min(axis=1).max()
        ba = ds[np.ix_(ib, ia)].min(axis=1).max()
        return float(max(ab, ba))
    raise ValueError(f"unknown hausdorff mode {mode!r}")


def largeness_constant(X: QSpace, Y) -> float:
    """Least eps such that every point of X is within sym-distance eps of Y."""
    iy = subset_indices(X, Y)
    return float(X.dsym[:, iy].min(axis=1).max())


def _candidates(X: QSpace, Y: QSpace, tol: float) -> list[list[int]]:
    """For each x, the y (ascending) whose sorted out- and in-distance
    profiles both match those of x within tol in the sup norm."""
    out_x, in_x = np.sort(X.d, axis=1), np.sort(X.d.T, axis=1)
    out_y, in_y = np.sort(Y.d, axis=1), np.sort(Y.d.T, axis=1)
    # the largest profile entry is 1-Lipschitz in the sup norm, so this
    # prefilter never drops a candidate the exact check would keep
    near = (np.abs(out_x[:, -1:] - out_y[:, -1]) <= tol) & (
        np.abs(in_x[:, -1:] - in_y[:, -1]) <= tol
    )
    cand = []
    for i, row in enumerate(near):
        js = np.flatnonzero(row)
        keep = (np.abs(out_x[i] - out_y[js]).max(axis=1) <= tol) & (
            np.abs(in_x[i] - in_y[js]).max(axis=1) <= tol
        )
        cand.append(js[keep].tolist())
    return cand


def is_isometric(X: QSpace, Y: QSpace, tol: float = 1e-9) -> list[int] | None:
    """Search for a bijection pi with d_Y(pi x, pi y) = d_X(x, y) within tol.

    Backtracking over points ordered by candidate count, with one candidate
    iterator per placed point on an explicit stack; candidates are pruned
    by sorted out/in distance profiles, and each level keeps only the unused
    ones that fit every placed point.  Returns the permutation (X index ->
    Y index) or None.
    """
    if X.n != Y.n:
        return None
    n = X.n
    cand = _candidates(X, Y, tol)
    if not all(cand):
        return None
    order = sorted(range(n), key=lambda i: len(cand[i]))
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)

    def level(pos: int):
        # filtered once, when pushed: deeper levels are unwound before this
        # one is revisited, so the placed points and used set are as now
        i, placed = order[pos], order[:pos]
        js = np.array(cand[i])
        js, P = js[~used[js]], perm[placed]
        bad = (np.abs(X.d[i, placed] - Y.d[np.ix_(js, P)]) > tol).any(axis=1) | (
            np.abs(X.d[placed, i] - Y.d[np.ix_(P, js)].T) > tol
        ).any(axis=1)
        return iter(js[~bad].tolist())

    stack = [level(0)]
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if perm[i] >= 0:  # back from a dead end: free this point's last choice
            used[perm[i]] = False
            perm[i] = -1
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
            continue
        perm[i] = j
        used[j] = True
        if pos + 1 == n:
            return perm.tolist()
        stack.append(level(pos + 1))
    return None


def triangle_closure(matrix) -> np.ndarray:
    """Min-plus closure of a non-negative matrix, iterated to a float fixpoint.

    The result satisfies the triangle inequality exactly in floating point,
    which keeps downstream equality checks at 1e-12 honest.
    """
    d = np.asarray(matrix, dtype=float).copy()
    n = d.shape[0]
    np.fill_diagonal(d, 0.0)
    for _ in range(n + 1):
        before = d.copy()
        if np.array_equal(before, _relax(d, d, d)):
            break
    return d


def random_qspace(
    n: int,
    rng: np.random.Generator | int,
    scale: float = 1.0,
    symmetric: bool = False,
) -> QSpace:
    """Random n-point quasi-metric space: positive entries, min-plus closed.

    Strictly positive off-diagonal draws keep the result T0; with
    ``symmetric`` the output is a metric space.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    d = rng.uniform(0.05 * scale, scale, size=(n, n))
    if symmetric:
        d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return QSpace(triangle_closure(d))
