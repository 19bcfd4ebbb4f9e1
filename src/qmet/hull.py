"""Finite nets of the hull of minimal ample pairs.

The hull of a finite space is an infinite polyhedral object; it is represented
here only by certified finite nets: the canonical point embeddings plus
retracted random candidates.  Nets are deterministic given (space, k, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotMetric, SizeOverflow
from .pairs import AmplePair, dquasi, dsym, embed_point, residual, retract_points
from .space import QSpace
from .tolerances import CERTIFICATION_TOL, DEDUP_TOL

PERTURB_RADIUS_FACTOR = 0.25
# floats per (n, m, rows) temporary of the net kernels: small enough to stay
# in a core's cache, large enough that each block is mostly arithmetic
NET_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class HullSample:
    """A certified net of hull points; the point embeddings always come first.

    ``spread`` is the minimum pairwise sym-distance among the stored points
    (inf for a single point).  ``arrays`` is the net as one read-only
    (2, m, n) stack, built on first use: ``F1, F2 = H.arrays``.
    """

    space: QSpace
    points: tuple[AmplePair, ...]
    seed: int
    spread: float

    @cached_property
    def arrays(self) -> np.ndarray:
        F = np.array([[p.f1 for p in self.points], [p.f2 for p in self.points]])
        F.setflags(write=False)
        return F


def sample_hull(X: QSpace, k: int, seed: int = 0) -> HullSample:
    """Draw k hull candidates and keep the distinct certified ones.

    Half the candidates are fresh: g uniform in [0, 2 diam]^n, sent to the
    hull by the exact two-step retraction g -> (flat(star(g)), star(g)), all
    at once in row blocks (see ``_row_blocks``).  The rest perturb the f1 of
    already accepted members by bounded bumps and retract again, one row at a
    time: star and flat fill two preallocated buffers.  The bump radius starts
    at 0.25 diam and halves whenever a perturbation collapses onto an existing
    point.  The point embeddings are always included (first).  The kept
    points form one pool, a (2n, n + k) stack with the point axis first:
    column j is (f1, f2) of point j.  One dedup rule serves every candidate,
    fresh or perturbed, in draw order: its gap is its least sym-distance to
    the pool's live columns, one subtraction, and it is kept when the gap
    exceeds DEDUP_TOL.  ``spread`` is the least gap of a kept point, or
    between embeddings.  Residuals are measured once, at the end, for the
    kept points only.  SizeOverflow when k > 0 and 2 diam overflows a float.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and not np.isfinite(2.0 * X.diam):
        raise SizeOverflow(f"cannot draw hull candidates in [0, 2 diam]: diam = {X.diam:.6g}")
    rng = np.random.default_rng(seed)
    d, n = X.d, X.n
    points = [embed_point(X, i) for i in range(n)]
    # the pool of accepted points, grown in place; columns [:m] are live
    pool = np.empty((2 * n, n + k))
    pool[:n, :n], pool[n:, :n] = d.T, d  # the embeddings x -> (d(x, .), d(., x))
    gaps = dsym(d[:, None, :], d.T[:, None, :], d, d.T)
    np.fill_diagonal(gaps, np.inf)
    spread, m = gaps.min(), n

    R = X.diam
    if k > 0 and R > 0.0:
        n_fresh = (k + 1) // 2
        C1 = rng.uniform(0.0, 2.0 * R, size=(n_fresh, n))
        fresh = np.empty((n_fresh, 2 * n))  # row i is fresh candidate i, (p1, p2)
        for s in _row_blocks(n_fresh, n, n):
            fresh[s, :n], fresh[s, n:] = retract_points(d, C1[s])

        radius = PERTURB_RADIUS_FACTOR * R
        floor = R * 2.0 ** -30
        T, q = np.empty((n, n)), np.empty(2 * n)
        p1, p2 = q[:n], q[n:]
        for i in range(k):
            if i < n_fresh:
                c = fresh[i]
            else:
                base = int(rng.integers(0, m))
                g1 = np.maximum(pool[:n, base] + rng.uniform(-radius, radius, size=n), 0.0)
                # star: p2(x) = max_y (d(x, y) - g1(y))+
                np.maximum(np.subtract(d.T, g1[:, None], out=T).max(axis=0, out=p2), 0.0, out=p2)
                # flat, clamped by g1: p1(y) = min(max_x (d(x, y) - p2(x))+, g1(y))
                np.maximum(np.subtract(d, p2[:, None], out=T).max(axis=0, out=p1), 0.0, out=p1)
                np.minimum(p1, g1, out=p1)
                c = q
            D = pool[:, :m] - c[:, None]
            gap = np.abs(D, out=D).max(axis=0).min()
            if gap > DEDUP_TOL:
                spread = min(spread, gap)
                pool[:, m] = c
                m += 1
            elif i >= n_fresh and radius > floor:
                radius /= 2.0

    F1, F2 = pool[:n, n:m].T, pool[n:, n:m].T
    for s in _row_blocks(m - n, n, n):
        points += [
            AmplePair(X, f1, f2, certified_minimal=True, certified_tol=float(r))
            for f1, f2, r in zip(F1[s], F2[s], residual(d, F1[s], F2[s]))
        ]
    return HullSample(X, tuple(points), seed, float(spread))


def _row_blocks(rows: int, n: int, m: int):
    """Slices cutting ``rows`` source rows into blocks whose (n, m, block)
    pair-stack temporary holds at most NET_BLOCK_ELEMENTS floats."""
    step = max(1, NET_BLOCK_ELEMENTS // (n * m))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _net_matrix(H: HullSample) -> np.ndarray:
    """Hull quasi-metric among the net points, base matrix in the first block;
    evaluated in row blocks (see ``_row_blocks``)."""
    F1, F2 = H.arrays
    n, m = H.space.n, len(F1)
    D = np.empty((m, m))
    for s in _row_blocks(m, n, m):
        D[s] = dquasi(F1[s, None, :], F2[s, None, :], F1, F2)
    D[:n, :n] = H.space.d
    return D


def hull_as_qspace(H: HullSample) -> QSpace:
    """The net as a finite quasi-metric space under the hull quasi-metric.

    The first rows/columns reproduce the base space exactly (the point
    embedding is isometric, and the block is written from the base matrix
    rather than recomputed with rounding); dedup keeps the matrix T0.
    """
    labels = list(H.space.labels) + [
        f"s{i}" for i in range(len(H.points) - H.space.n)
    ]
    return QSpace(_net_matrix(H), labels)


@dataclass(frozen=True)
class DiagonalReport:
    n_diagonal: int
    n_off_diagonal: int
    max_minimality_residual: float
    max_metric_discrepancy: float


def metric_diag_check(X: QSpace, H: HullSample, tol: float = CERTIFICATION_TOL) -> DiagonalReport:
    """On a metric space, audit the samples with equal components.

    Pairs with f1 = f2 (within tol) form the metric tight span sitting inside
    the hull; for those, minimality must hold and the symmetrized hull
    distance must equal the sup-norm of the function difference.
    """
    if not X.classification.satisfies_M3:
        raise NotMetric("diagonal check requires a symmetric space")
    F1, F2 = H.arrays
    diag = np.abs(F1 - F2).T.max(axis=0) <= tol
    D1, D2 = F1[diag], F2[diag]
    worst_res = worst_disc = 0.0
    if len(D1):
        worst_res = float(residual(X.d, D1, D2).max())
        # dsym of the pairs (f1, f1) and (g1, g1) is the sup norm of f1 - g1
        sup = dsym(D1[:, None, :], D1[:, None, :], D1, D1)
        sym = dsym(D1[:, None, :], D2[:, None, :], D1, D2)
        worst_disc = float(np.abs(sym - sup).max())
    return DiagonalReport(len(D1), len(F1) - len(D1), worst_res, worst_disc)


def net_gh_upper(HX: HullSample, HY: HullSample) -> float:
    """Upper bound on the GH distance between two hull nets.

    For nets over spaces on the same index set (e.g. perturbation pairs): each
    net point's f1, inflated by half the matrix perturbation, is retracted onto
    the other space's hull and snapped to the nearest net point there; the two
    snapped maps phi and psi assemble a correspondence whose half-distortion
    bounds the net GH distance from above.  A net approximation, not a
    proof-grade value.  No cover or range check is needed: phi and psi are
    total argmin index arrays into the other net, so the relation covers both
    nets by construction.  Two related pairs (i, phi i) or (psi j, j) fall in
    one of four blocks, MX against MY[phi][:, phi], MX[psi][:, psi] against
    MY, MX[:, psi] against MY[phi, :] and MX[psi, :] against MY[:, phi],
    whose largest gap is the distortion of the whole relation; the blocks
    share the row gathers MY[phi] and MX[psi].  The snapping and the net
    matrices run in row blocks of at most NET_BLOCK_ELEMENTS floats per
    (n, m, rows) temporary, so each entry is the same max of the same
    differences as in one (n, m, m) stack.
    """
    if HX.space.n != HY.space.n:
        raise ValueError("net GH bound requires spaces on the same index set")
    pad = float(np.abs(HX.space.d - HY.space.d).max()) / 2.0

    def snapped(source: HullSample, target: HullSample) -> np.ndarray:
        P1, P2 = retract_points(target.space.d, source.arrays[0] + pad)
        T1, T2 = target.arrays
        return np.concatenate([
            dsym(P1[s, None, :], P2[s, None, :], T1, T2).argmin(axis=1)
            for s in _row_blocks(len(P1), HX.space.n, len(T1))
        ])

    phi, psi = snapped(HX, HY), snapped(HY, HX)
    MX, MY = _net_matrix(HX), _net_matrix(HY)
    MYphi, MXpsi = MY.take(phi, 0), MX.take(psi, 0)  # the shared row gathers
    return float(max(
        np.abs(MX - MYphi.take(phi, 1)).max(),
        np.abs(MXpsi.take(psi, 1) - MY).max(),
        np.abs(MX.take(psi, 1) - MYphi).max(),
        np.abs(MXpsi - MY.take(phi, 1)).max(),
    )) / 2.0
