"""Coarse injectivity: inflated two-sided ball families and fixed points.

A family of triples (x_i, r_i, s_i) is feasible when d(x_i, x_j) <= r_i + s_j.
The injectivity constant of a space is the least uniform inflation delta such
that every feasible family admits a common point z with d(x_i, z) <= r_i +
delta and d(z, x_i) <= s_i + delta.  One family's least delta has a closed
form (``min_delta``); for the family of a hull point it is the symmetrized hull
distance to the embedded copy of the space, so the constant is how far hull
points can sit from that copy, and it is estimated here over hull samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFamily, NotMinimal, NotNonexpansive
from .hull import sample_hull
from .pairs import AmplePair, dsym, in_hull, retract
from .space import QSpace, map_table
from .tolerances import AMPLE_TOL, CERTIFICATION_TOL

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


def _excess(X: QSpace, F: BallFamily) -> np.ndarray:
    """Per z, max_i max(d(x_i, z) - r_i, d(z, x_i) - s_i), -inf for an empty
    family; raises InfeasibleFamily when F itself is infeasible."""
    bad = family_violation(X, F)
    if bad is not None:
        raise InfeasibleFamily((bad[0], bad[1]), bad[2])
    xs, rs, ss = _arrays(X, F)
    up = X.d[xs, :] - rs[:, None]
    return np.maximum(up, X.d[:, xs].T - ss[:, None]).max(axis=0, initial=-np.inf)


def find_center(X: QSpace, F: BallFamily, delta: float, atol: float = 1e-12) -> int | None:
    """Lowest-index z inside every inflated two-sided ball, or None.

    z qualifies when d(x_i, z) - r_i <= delta + atol and d(z, x_i) - s_i <=
    delta + atol for every entry; an empty family is solved by z = 0.  Raises
    InfeasibleFamily when F itself is infeasible.
    """
    hits = np.flatnonzero(_excess(X, F) <= delta + atol)
    return int(hits[0]) if hits.size else None


def family_from_hull_point(X: QSpace, f: AmplePair) -> BallFamily:
    """The family {(x, f2(x), f1(x))}; feasible by ampleness.

    Its least satisfiable delta equals the symmetrized hull distance from f
    to the nearest embedded point.
    """
    if not (f.certified_minimal or in_hull(f, CERTIFICATION_TOL)):
        raise NotMinimal("family extraction requires a certified minimal pair")
    return BallFamily(
        tuple((x, float(f.f2[x]), float(f.f1[x])) for x in range(X.n))
    )


def min_delta(X: QSpace, F: BallFamily) -> float:
    """Least delta solving a feasible family (else InfeasibleFamily), in closed
    form: min over z of max_i max(d(x_i, z) - r_i, d(z, x_i) - s_i, 0)."""
    return max(float(_excess(X, F).min()), 0.0)


def _embedding_gaps(X: QSpace, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """Per-row min over x of max(||f1 - d(x,.)||, ||f2 - d(.,x)||)."""
    return dsym(F1[:, None, :], F2[:, None, :], X.d, X.d.T).min(axis=1)


def distance_to_embedding(X: QSpace, f: AmplePair) -> float:
    """Symmetrized hull distance from f to the nearest embedded point."""
    return float(_embedding_gaps(X, f.f1[None, :], f.f2[None, :])[0])


@dataclass(frozen=True)
class DeltaEstimate:
    """A certified lower bound plus a labeled heuristic upper value."""

    lower: float
    heuristic_upper: float
    samples: int
    restarts: int
    seed: int


def estimate_delta(
    X: QSpace, samples: int = 200, restarts: int = 6, seed: int = 0
) -> DeltaEstimate:
    """Estimate the injectivity constant by sampling plus local ascent.

    The lower bound is the best embedding gap over certified hull samples,
    refined by coordinate perturbation of f1 (sent back to the hull by the
    exact two-step retraction, accepted on improvement) from the most
    promising starts.  The upper value adds the stagnation step of the
    ascent and is reported, not proven.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    H = sample_hull(X, samples, seed)
    F1 = np.stack([p.f1 for p in H.points])
    F2 = np.stack([p.f2 for p in H.points])
    # each sample is within its certified residual of a true hull point, so
    # discounting the residual keeps the bound a genuine lower bound
    res = np.array([p.certified_tol or 0.0 for p in H.points])
    gaps = np.maximum(_embedding_gaps(X, F1, F2) - res, 0.0)
    lower = float(gaps.max())
    R = X.diam
    if R == 0.0 or restarts < 1:
        return DeltaEstimate(lower, lower, samples, restarts, seed)

    rng = np.random.default_rng(seed + 1)
    order = np.argsort(-gaps)
    margin = 0.0
    floor = 1e-7 * max(R, 1.0)
    for start in order[:restarts]:
        f1 = F1[start].copy()
        cur = float(gaps[start])
        step = 0.25 * R
        rounds = 0
        while step > floor and rounds < 200:
            rounds += 1
            C1 = np.maximum(f1[None, :] + rng.uniform(-step, step, (16, X.n)), 0.0)
            P1, P2, pres = retract(X.d, C1)
            objs = np.maximum(_embedding_gaps(X, P1, P2) - pres, 0.0)
            j = int(np.argmax(objs))
            if objs[j] > cur + 1e-12:
                cur = float(objs[j])
                f1 = P1[j].copy()
            else:
                step /= 2.0
        margin = max(margin, step * 2.0)
        lower = max(lower, cur)
    return DeltaEstimate(lower, lower + margin, samples, restarts, seed)


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
