"""Coarse injectivity: inflated two-sided ball families and fixed points.

A family of triples (x_i, r_i, s_i) is feasible when d(x_i, x_j) <= r_i + s_j.
The injectivity constant of a space is the least uniform inflation delta such
that every feasible family admits a common point z with d(x_i, z) <= r_i +
delta and d(z, x_i) <= s_i + delta.  One family's least delta has a closed
form (``min_delta``); for the family of a hull point it is the symmetrized hull
distance to the embedded copy of the space, so the constant is how far hull
points can sit from that copy, and ``estimate_delta`` brackets it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFamily, NotMinimal, NotNonexpansive
from .pairs import AmplePair, dquasi, dsym, in_hull, retract, row_blocks
from .space import QSpace, map_table
from .tolerances import AMPLE_TOL

NONEXPANSIVE_TOL = 1e-9


@dataclass(frozen=True)
class BallFamily:
    """Entries (point index, forward radius r, backward radius s)."""

    entries: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        entries = tuple((int(x), float(r), float(s)) for x, r, s in self.entries)
        for x, r, s in entries:
            if not (0 <= r < np.inf and 0 <= s < np.inf):
                raise ValueError("radii must be finite and non-negative")
        object.__setattr__(self, "entries", entries)


def _arrays(X: QSpace, F: BallFamily):
    """The family's point indices, checked against X, and its two radius arrays."""
    xs = np.array(map_table([e[0] for e in F.entries], len(F.entries), X.n), dtype=np.intp)
    rs, ss = np.array([e[1:] for e in F.entries]).reshape(-1, 2).T
    return xs, rs, ss


def family_violation(X: QSpace, F: BallFamily, tol: float = AMPLE_TOL):
    """Worst feasibility violation (i, j, d(x_i, x_j) - r_i - s_j), or None.

    The witness is the first worst (i, j) in row-major order.  Raises
    IndexOutOfRange when an entry names no point of X.
    """
    xs, rs, ss = _arrays(X, F)
    excess = X.d[np.ix_(xs, xs)] - rs[:, None] - ss
    if not excess.max(initial=-np.inf) > tol:
        return None
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    return int(i), int(j), float(excess[i, j])


def _feasible_arrays(X: QSpace, F: BallFamily):
    """``_arrays`` of a feasible family; raises InfeasibleFamily otherwise."""
    bad = family_violation(X, F)
    if bad is not None:
        raise InfeasibleFamily((bad[0], bad[1]), bad[2])
    return _arrays(X, F)


def find_center(X: QSpace, F: BallFamily, delta: float, atol: float = 1e-12) -> int | None:
    """Lowest-index z inside every inflated two-sided ball, or None.

    z qualifies when d(x_i, z) <= r_i + delta + atol and d(z, x_i) <= s_i +
    delta + atol for every entry, each side rounded as written; an empty
    family is solved by z = 0.  Raises InfeasibleFamily when F itself is
    infeasible.
    """
    xs, rs, ss = _feasible_arrays(X, F)
    up = X.d[xs, :] <= rs[:, None] + delta + atol
    hits = np.flatnonzero((up & (X.d[:, xs].T <= ss[:, None] + delta + atol)).all(axis=0))
    return int(hits[0]) if hits.size else None


def family_from_hull_point(X: QSpace, f: AmplePair) -> BallFamily:
    """The family {(x, f2(x), f1(x))}; feasible by ampleness.

    Its least satisfiable delta equals the symmetrized hull distance from f
    to the nearest embedded point.
    """
    if not in_hull(f):
        raise NotMinimal("family extraction requires a minimal pair")
    return BallFamily(
        tuple((x, float(f.f2[x]), float(f.f1[x])) for x in range(X.n))
    )


def min_delta(X: QSpace, F: BallFamily) -> float:
    """Least delta solving a feasible family (else InfeasibleFamily), in closed
    form: min over z of max_i max(d(x_i, z) - r_i, d(z, x_i) - s_i, 0)."""
    xs, rs, ss = _feasible_arrays(X, F)
    up = X.d[xs, :] - rs[:, None]
    excess = np.maximum(up, X.d[:, xs].T - ss[:, None]).max(axis=0, initial=-np.inf)
    return max(float(excess.min()), 0.0)


def distance_to_embedding(X: QSpace, f: AmplePair) -> float:
    """Symmetrized hull distance from f to the nearest embedded point."""
    return float(dsym(f.f1, f.f2, X.d, X.d.T).min())


@dataclass(frozen=True)
class DeltaEstimate:
    """A certified bracket lower <= delta <= upper, reached after evaluating
    ``boxes`` boxes of a budget of ``samples``."""

    lower: float
    upper: float
    samples: int
    boxes: int


def _evaluate_boxes(X: QSpace, A: np.ndarray, B: np.ndarray):
    """Retract the corners and centre of each box [A, B], in row blocks of
    3 n * n floats a box (``pairs.row_blocks``).  Returns their best gap
    less its residual and, per box, the least over x of max(D(r(b), e_x),
    D(e_x, r(a))): no hull point h with r(a) <= h <= r(b) is further from e_x."""
    d = X.d
    best, bounds = 0.0, []
    for s in row_blocks(len(A), 3 * d.size):
        a, b = A[s], B[s]
        P1, P2, res = retract(d, np.concatenate([a, b, a / 2.0 + b / 2.0]))
        P1, P2 = P1[:, None, :], P2[:, None, :]
        best = max(best, float((dsym(P1, P2, d, d.T).min(axis=1) - res).max()))
        r = len(a)  # the rows of r(a), then those of r(b)
        Pa, Pb = (P1[:r], P2[:r]), (P1[r : 2 * r], P2[r : 2 * r])
        up = np.maximum(dquasi(*Pb, d, d.T), dquasi(d, d.T, *Pa))
        bounds.append(up.min(axis=1))
    return best, np.concatenate(bounds)


def estimate_delta(
    X: QSpace, samples: int = 200, restarts: int = 6, seed: int = 0
) -> DeltaEstimate:
    """Bracket the injectivity constant by refining boxes [a, b] of f1 values.

    Every hull point h is r(h1) with h1 in [0, diam]^n, r = retract.  Its f1
    part is monotone in g and its f2 part, star(g), antitone, so h from a box
    lies between r(a) and r(b) in the hull order (f1 up, f2 down), and
    ``_evaluate_boxes`` bounds its gap with neither the triangle inequality
    nor a zero diagonal: the bracket holds on every accepted space.  Boxes
    bounded by ``lower`` are dropped and the highest halved along their
    widest side, until none is left or no two more fit in the budget of
    ``samples`` evaluated boxes; ``upper`` is the largest bound left plus four
    ulps of the diameter for rounding.  The refinement is deterministic:
    ``restarts`` and ``seed`` are accepted and ignored.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    A, B = np.zeros((1, X.n)), np.full((1, X.n), X.diam)  # boxes to evaluate
    SA, SB, top = A[:0], B[:0], np.empty(0)  # standing boxes, highest bound first
    lower, boxes = 0.0, 0
    while len(A):
        best, bounds = _evaluate_boxes(X, A, B)
        lower, boxes = max(lower, best), boxes + len(A)
        top = np.concatenate([top, bounds])
        keep = np.flatnonzero(top > lower)
        keep = keep[np.argsort(-top[keep], kind="stable")]
        SA, SB, top = np.concatenate([SA, A])[keep], np.concatenate([SB, B])[keep], top[keep]
        # halve the k highest boxes along their widest side
        k = min(len(top), (samples - boxes) // 2)
        A, B = SA[:k], SB[:k]
        SA, SB, top = SA[k:], SB[k:], top[k:]
        side = (np.arange(k), np.argmax(B - A, axis=1))
        A2, B2 = A.copy(), B.copy()
        A2[side] = B2[side] = A[side] / 2.0 + B[side] / 2.0
        A, B = np.concatenate([A, A2]), np.concatenate([B2, B])
    upper = float(top.max(initial=lower) + 4.0 * np.finfo(float).eps * max(X.diam, 1.0))
    return DeltaEstimate(lower, upper, samples, boxes)


def _nonexpansive_excess(X: QSpace, T) -> tuple[tuple[int, int], float] | None:
    ix = np.asarray(T)
    excess = X.d[np.ix_(ix, ix)] - X.d
    worst = excess.max()
    if worst > NONEXPANSIVE_TOL:
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        return (int(i), int(j)), float(worst)
    return None


def random_nonexpansive(
    X: QSpace, seed: int = 0, exhaustive_cap: int = 4096, count: int = 32
) -> list[tuple[int, ...]]:
    """Non-expansive self-maps of X as function tables.

    Enumerates all n^n self-maps when that fits under ``exhaustive_cap``,
    otherwise rejection-samples ``count`` maps (identity always included).
    Deterministic given the seed.
    """
    n = X.n
    if n ** n <= exhaustive_cap:
        return [
            T
            for T in itertools.product(range(n), repeat=n)
            if _nonexpansive_excess(X, T) is None
        ]
    rng = np.random.default_rng(seed)
    found = [tuple(range(n))]
    seen = {found[0]}
    for _ in range(200 * count):
        if len(found) >= count:
            break
        T = tuple(int(v) for v in rng.integers(0, n, n))
        if T in seen:
            continue
        seen.add(T)
        if _nonexpansive_excess(X, T) is None:
            found.append(T)
    return found


def fixed_point_gap(X: QSpace, T) -> tuple[float, int]:
    """min over x of the symmetrized displacement dsym(x, T(x)), with argmin.

    T must be a total non-expansive self-map: LengthMismatch or
    IndexOutOfRange rejects a table that is not total, and NotNonexpansive
    reports the violating pair of one that expands.
    """
    T = map_table(T, X.n, X.n)
    bad = _nonexpansive_excess(X, T)
    if bad is not None:
        raise NotNonexpansive(*bad)
    vals = X.dsym[np.arange(X.n), T]
    arg = int(np.argmin(vals))
    return float(vals[arg]), arg
