"""Finite nets of the hull of minimal ample pairs.

The hull of a finite space is an infinite polyhedral object; it is represented
here only by certified finite nets: the canonical point embeddings plus
retracted random candidates.  Nets are deterministic given (space, k, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LengthMismatch, SizeOverflow
from .gh import _distortion
from .pairs import AmplePair, dsym, embed_point, residual, retract_points, row_blocks
from .space import QSpace
from .tolerances import DEDUP_TOL, TRIANGLE_TOL, slack

PERTURB_RADIUS_FACTOR = 0.25


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

    Half the candidates are fresh: g uniform in [0, 2 diam]^n.  The rest
    perturb the f1 of bases drawn uniformly from the embeddings and the kept
    fresh points by bumps uniform in [-r, r]^n, r = 0.25 diam, clamped at 0;
    the generator draws the fresh g, then the bases, then the bumps.  Each
    half goes to the hull as one batch by the exact two-step retraction
    g -> (flat(star(g)), star(g)), in row blocks of n * n floats a row
    (``pairs.row_blocks``).  The point embeddings are always included
    (first).  The kept points form one pool, a (2n, n + k) stack with the
    point axis first: column j is (f1, f2) of point j.  One dedup rule serves
    every candidate, fresh or perturbed, in draw order: its gap is its least
    sym-distance to the pool's live columns, one subtraction, and it is kept
    when the gap exceeds DEDUP_TOL.  ``spread`` is the least gap of a kept
    point, or between embeddings.  Residuals are measured once, at the end,
    for the kept points only, in the same row blocks.  SizeOverflow when
    k > 0 and 2 diam overflows a float.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and not np.isfinite(2.0 * X.diam):
        raise SizeOverflow(f"cannot draw hull candidates in [0, 2 diam]: diam = {X.diam:.6g}")
    rng = np.random.default_rng(seed)
    d, n = X.d, X.n
    points = [embed_point(X, i) for i in range(n)]
    # the pool of accepted points, grown in place; columns [:m] are live and
    # each candidate is drawn into column m, which a kept candidate keeps
    pool = np.empty((2 * n, n + k))
    pool[:n, :n], pool[n:, :n] = d.T, d  # the embeddings x -> (d(x, .), d(., x))
    gaps = dsym(d[:, None, :], d.T[:, None, :], d, d.T)
    np.fill_diagonal(gaps, np.inf)
    spread, m = gaps.min(), n

    def keep(G):
        nonlocal spread, m
        for g in G:
            pool[:, m] = g
            D = pool[:, :m] - pool[:, m, None]
            gap = np.minimum.reduce(np.maximum.reduce(np.abs(D, out=D), axis=0))
            if gap > DEDUP_TOL:
                spread = min(spread, gap)
                m += 1

    R = X.diam
    if k > 0 and R > 0.0:
        n_fresh = (k + 1) // 2
        keep(_retract_rows(d, rng.uniform(0.0, 2.0 * R, size=(n_fresh, n))))
        bases = pool[:n, rng.integers(0, m, size=k - n_fresh)].T
        radius = PERTURB_RADIUS_FACTOR * R
        bumps = rng.uniform(-radius, radius, size=bases.shape)
        keep(_retract_rows(d, np.maximum(bases + bumps, 0.0)))

    F1, F2 = pool[:n, n:m].T, pool[n:, n:m].T
    for s in row_blocks(m - n, n * n):
        points += [
            AmplePair(X, f1, f2, certified_minimal=True, certified_tol=float(r))
            for f1, f2, r in zip(F1[s], F2[s], residual(d, F1[s], F2[s]))
        ]
    return HullSample(X, tuple(points), seed, float(spread))


def _retract_rows(d: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The rows (p1, p2) of the hull points of the rows of G, in row blocks."""
    n = len(d)
    P = np.empty((len(G), 2 * n))
    for s in row_blocks(len(G), n * n):
        P[s, :n], P[s, n:] = retract_points(d, G[s])
    return P


def _sup_blocks(P: np.ndarray, Q: np.ndarray, absolute: bool = False):
    """Yield (s, G) over the row blocks s of the (rows, m) matrix
    G[i, j] = max(0, max_k P[i, k] - Q[j, k]), or of max_k |P[i, k] - Q[j, k]|
    when ``absolute``, for P of shape (rows, K) and Q of shape (m, K).

    G and one buffer T, each (block, m), are live at once, so the blocks
    are ``pairs.row_blocks`` at 2 m floats a row.  G starts at 0 and takes
    the running maximum over k of one subtraction into T, read from
    contiguous transposed copies of P and Q.  max is exact, so every entry
    is the same float as a reduction over one (K, rows, m) stack.  The next
    block reuses G.  The net matrices and the snapping run here; the
    distortion of the nets' relation runs in ``gh._distortion``.
    """
    PT, QT = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    blocks = row_blocks(len(P), 2 * len(Q))  # the slabs G and T
    G, T = np.empty((2, min(blocks[0].stop, len(P)), len(Q)))
    for s in blocks:
        rows = len(PT[0, s])
        Gs, Ts = G[:rows], T[:rows]
        Gs.fill(0.0)
        for p, q in zip(PT, QT):
            np.subtract(p[s, None], q, out=Ts)
            if absolute:
                np.abs(Ts, out=Ts)
            np.maximum(Gs, Ts, out=Gs)
        yield s, Gs


def _net_matrix(H: HullSample) -> np.ndarray:
    """Hull quasi-metric among the net points, base matrix in the first block.

    With the coordinates P = (f1, -f2) of each point f, D(f, g) is
    max(0, max_k P[f, k] - P[g, k]): negation is exact, so -f2(k) + g2(k)
    rounds as g2(k) - f2(k) does, and each entry is the same float as
    ``dquasi`` gives.  Built in row blocks by ``_sup_blocks``.
    """
    F1, F2 = H.arrays
    P = np.concatenate([F1, -F2], axis=1)
    D = np.empty((len(P), len(P)))
    for s, G in _sup_blocks(P, P):
        D[s] = G
    n = H.space.n
    D[:n, :n] = H.space.d
    return D


def hull_as_qspace(H: HullSample) -> QSpace:
    """The net as a finite quasi-metric space under the hull quasi-metric.

    The first rows/columns reproduce the base space exactly (the point
    embedding is isometric, and the block is written from the base matrix
    rather than recomputed with rounding); dedup keeps the matrix T0.

    The matrix is validated with ``slack(TRIANGLE_TOL, M)`` =
    max(TRIANGLE_TOL, 4 eps M), M its largest entry, as its rounding error
    scales with M.  With u = eps/2, let D* be the exact hull distances of the
    stored points; they satisfy the triangle inequality.  An entry off the
    base block is a max of single rounded differences, within u D* of D*.  A
    base entry d(i, j) lies at most the space's own triangle excess below D*,
    which is at most u M for a space closed up to rounding.  ``validate``
    compares each entry with a rounded two-entry sum, and an excess needs that
    sum near M, so it is at most u M (the entry) + u M (the summands) + u M
    (the sum) + 2u M (two base summands) = 2.5 eps M; 0.89 eps M is the
    largest seen, at scales 1 to 1e300.  Below M = TRIANGLE_TOL / (4 eps),
    about 1.1e6, the slack is TRIANGLE_TOL, as for the spaces users supply.
    """
    labels = list(H.space.labels) + [
        f"s{i}" for i in range(len(H.points) - H.space.n)
    ]
    D = _net_matrix(H)
    return QSpace(D, labels, tol=slack(TRIANGLE_TOL, D.max()))


def net_gh_upper(HX: HullSample, HY: HullSample) -> float:
    """Upper bound on the GH distance between two hull nets.

    For nets over spaces on the same index set (e.g. perturbation pairs): each
    net point's f1, inflated by half the matrix perturbation, is retracted onto
    the other space's hull and snapped to the nearest net point there; the two
    snapped maps phi and psi assemble a correspondence whose half-distortion
    bounds the net GH distance from above.  A net approximation, not a
    proof-grade value.  No cover or range check is needed: phi and psi are
    total argmin index arrays into the other net, so the relation covers both
    nets by construction.  LengthMismatch when the index sets differ.

    Every kernel runs in the row blocks of ``pairs.row_blocks``.  The
    snapping retracts at n * n floats a row and takes each row's argmin in
    the 2-D blocks of ``_sup_blocks``, which also builds the net matrices.
    The distortion of the relation {(i, phi i)} + {(psi j, j)} is
    ``gh._distortion``, which makes no m x m gather.
    """
    if HX.space.n != HY.space.n:
        raise LengthMismatch("net GH bound requires spaces on the same index set")
    pad = float(np.abs(HX.space.d - HY.space.d).max()) / 2.0

    def snapped(source: HullSample, target: HullSample) -> np.ndarray:
        P = _retract_rows(target.space.d, source.arrays[0] + pad)
        nearest = np.empty(len(P), dtype=np.intp)
        for s, G in _sup_blocks(P, np.concatenate(target.arrays, axis=1), absolute=True):
            G.argmin(axis=1, out=nearest[s])
        return nearest

    phi, psi = snapped(HX, HY), snapped(HY, HX)
    a = np.concatenate((np.arange(len(phi)), psi))
    b = np.concatenate((phi, np.arange(len(psi))))
    return _distortion(_net_matrix(HX), _net_matrix(HY), a, b) / 2.0
