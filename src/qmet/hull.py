"""Finite nets of the hull of minimal ample pairs.

The hull of a finite space is an infinite polyhedral object; it is represented
here only by certified finite nets: the canonical point embeddings plus
retracted random candidates.  Nets are deterministic given (space, k, seed).

A net is kept as one array from draw to return.  Its candidates are
deduplicated a batch at a time by ``_keep``, at the space's rounding level
``slack(0.0, diam)`` = 4 eps diam, so the net of cX is c times the net of X.
One sweep a batch (``_close_pairs``) sorts the rows on one weighted
projection (``_projector``) and compares only rows whose projections are
close; the level scales with diam, so these are few and the sampler is
O(k log k).  ``HullSample.points`` builds an ``AmplePair`` only when read.

``net_gh_upper`` builds each net matrix in one pass over unordered pairs
(``_net_matrix``) and snaps by the f1 gap first (``_snap``), exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SizeOverflow
from .gh import _distortion
from .pairs import AmplePair, embed_point, residual, retract_points, row_blocks
from .space import QSpace
from .tolerances import TRIANGLE_TOL, slack

PERTURB_RADIUS_FACTOR = 0.25
_PHI = (5.0 ** 0.5 - 1.0) / 2.0  # the projection weights are 1 + (k phi mod 1)
_EPS = 2.0 ** -52


class NetPoints(Sequence):
    """The points of a net as ``AmplePair``s, each built on its first read.

    ``arrays`` is the net as one read-only (2, m, n) stack, and ``minimal``
    and ``tols`` give each point's ``certified_minimal`` and
    ``certified_tol``, so the whole net is read without building a pair.
    ``len`` is O(1) and reading the same index twice returns the same pair.
    """

    def __init__(self, space: QSpace, arrays: np.ndarray, minimal, tols, pairs=()):
        arrays.setflags(write=False)
        self.space, self.arrays = space, arrays
        self.minimal, self.tols = list(minimal), list(tols)
        self._pairs = list(pairs) + [None] * (len(self.tols) - len(pairs))

    @classmethod
    def of(cls, space: QSpace, pairs) -> NetPoints:
        """The view of given pairs, which it returns as they are."""
        pairs = tuple(pairs)
        return cls(
            space,
            np.array([[p.f1 for p in pairs], [p.f2 for p in pairs]]),
            [bool(p.certified_minimal) for p in pairs],
            [None if p.certified_tol is None else float(p.certified_tol) for p in pairs],
            pairs,
        )

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]  # IndexError and negative indices as for a tuple
        if self._pairs[i] is None:
            F1, F2 = self.arrays
            self._pairs[i] = AmplePair(self.space, F1[i], F2[i], self.minimal[i], self.tols[i])
        return self._pairs[i]


@dataclass(frozen=True)
class HullSample:
    """A certified net of hull points; the point embeddings always come first.

    ``spread`` is the minimum pairwise sym-distance among the stored points
    (inf for a single point).  ``points`` is a ``NetPoints`` view: pairs
    given here are wrapped in one, and ``sample_hull`` passes one over its
    own arrays.  ``arrays`` is the net as one read-only (2, m, n) stack:
    ``F1, F2 = H.arrays``.
    """

    space: QSpace
    points: Sequence[AmplePair]
    seed: int
    spread: float

    def __post_init__(self):
        if not isinstance(self.points, NetPoints):
            object.__setattr__(self, "points", NetPoints.of(self.space, self.points))

    @property
    def arrays(self) -> np.ndarray:
        return self.points.arrays


def sample_hull(X: QSpace, k: int, seed: int = 0) -> HullSample:
    """Draw k hull candidates and keep the distinct certified ones.

    Half the candidates are fresh: g uniform in [0, 2 diam]^n.  The rest
    perturb the f1 of bases drawn uniformly from the embeddings and the kept
    fresh points by bumps uniform in [-r, r]^n, r = 0.25 diam, clamped at 0;
    the generator draws the fresh g, then the bases, then the bumps.  Each
    half goes to the hull as one batch by the exact two-step retraction
    g -> (flat(star(g)), star(g)), in row blocks of n * n floats a row
    (``pairs.row_blocks``).  The point embeddings are always included
    (first).  The kept points form one pool of rows (f1, f2).

    One dedup rule serves every candidate, fresh or perturbed, in draw
    order: it is kept when no earlier kept point lies within tol =
    ``slack(0.0, diam)`` = 4 eps diam of it in sym-distance.  That level
    scales with the space, so scaling X by a power of two scales the net,
    spread and residuals exactly.  Each half is deduplicated as one batch
    by ``_keep``, which finds the near pairs by a sorted sweep rather than
    comparing each candidate with the pool, and then applies the rule to
    those pairs alone.
    ``spread`` is the least sym-distance between two points of the final
    net, found by the same sweep.  Residuals are measured once, at the end,
    for the kept points only, in the same row blocks.  The points are
    returned as a lazy ``NetPoints`` view over the pool; only the n
    embeddings are built as pairs, as ``embed_point`` checks that the space
    makes them ample.  SizeOverflow when k > 0 and 2 diam overflows a float.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and not np.isfinite(2.0 * X.diam):
        raise SizeOverflow(f"cannot draw hull candidates in [0, 2 diam]: diam = {X.diam:.6g}")
    rng = np.random.default_rng(seed)
    d, n = X.d, X.n
    embeddings = [embed_point(X, i) for i in range(n)]
    # row j of the pool is (f1, f2) of point j; rows [:m] are kept points
    pool = np.empty((n + k, 2 * n))
    pool[:n, :n], pool[:n, n:] = d, d.T  # the embeddings x -> (d(x, .), d(., x))
    m, R = n, X.diam
    if k > 0 and R > 0.0:
        n_fresh, tol = (k + 1) // 2, slack(0.0, R)
        m = _keep(pool, m, _retract_rows(d, rng.uniform(0.0, 2.0 * R, size=(n_fresh, n))), tol)
        bases = pool[rng.integers(0, m, size=k - n_fresh), :n]
        radius = PERTURB_RADIUS_FACTOR * R
        bumps = rng.uniform(-radius, radius, size=bases.shape)
        m = _keep(pool, m, _retract_rows(d, np.maximum(bases + bumps, 0.0)), tol)

    F = np.ascontiguousarray(pool[:m].reshape(m, 2, n).transpose(1, 0, 2))
    tols = [p.certified_tol for p in embeddings]
    for s in row_blocks(m - n, n * n):
        tols += residual(d, F[0, n:][s], F[1, n:][s]).tolist()
    _, _, gaps = _close_pairs(pool[:m], np.inf, shrink=True)
    spread = float(gaps.min()) if len(gaps) else np.inf
    return HullSample(X, NetPoints(X, F, [True] * m, tols, embeddings), seed, spread)


def _keep(pool: np.ndarray, m: int, C: np.ndarray, tol: float) -> int:
    """Append to the pool, after its m kept rows, the rows of C that the
    dedup rule keeps, in draw order; returns the new count of kept rows.

    A dropped row changes no other decision, so the rule needs only the
    pairs within tol: one ``_close_pairs`` sweep of the kept rows and C,
    unchunked, as tol scales with diam and no hull is a few tols wide.
    Pairs of two kept rows are skipped.  A copy of an earlier row (distance
    0) is dropped: its earlier twin is kept or lies within tol of an earlier
    kept row, and either way so does the copy.  So every copy is dropped
    first, in one step, and the loop visits only the other pairs: their
    later row is dropped when the earlier one is kept, and kept otherwise.
    """
    A = pool[: m + len(C)]
    A[m:] = C
    a, b, gaps = _close_pairs(A, tol)
    i, j = np.minimum(a, b), np.maximum(a, b)
    keep = np.ones(len(A), dtype=bool)
    keep[j[(gaps == 0) & (j >= m)]] = False
    rest = ((gaps != 0) & (j >= m)).nonzero()[0]
    order = rest[np.argsort(j[rest], kind="stable")]
    for ii, jj in zip(i[order].tolist(), j[order].tolist()):
        if keep[ii]:  # keep[ii] is final: (., ii) came before
            keep[jj] = False
    kept = A[m:][keep[m:]]  # a copy, so the rows can move up in place
    pool[m : m + len(kept)] = kept
    return m + len(kept)


def _projector(top: float, K: int):
    """Projection weights w for rows (f1, f2) of K entries in [0, top], and
    the window of a limit: two rows within sym-distance ``limit`` have
    computed projections ``row @ w`` within ``window(limit)`` of each other.

    The weights are +-2^-e (1 + (k phi mod 1)), phi the golden ratio, + on
    f1 and - on f2, with 2^e just above ``top``:
      - generic, because a tight matching fixes the plain sum of the
        coordinates on a whole hull cell, and plain sums would tie there;
      - of opposite signs on f1 and f2, because f2 falls where f1 rises
        along the hull, and a sum of both would cancel: the projection would
        pack many points of one cell into one window;
      - scaled by a power of two, so that no sum overflows near the float
        range and the scaling rounds nothing but subnormals.
    Why the window is safe, with W' = sum |w| and W = sum (1 + (k phi mod 1)):
    each coordinate of the pair differs by at most limit (1 + eps), so the
    exact projections differ by at most W' limit (1 + 2 K eps), which covers
    the rounding of W' too.  Each computed projection sums K products
    |w_k a_k| < 2, so it is within K eps W of the exact one, underflows
    included; the window's margin 4 K eps W covers two of them and the
    rounding of the window itself.
    """
    e = max(int(np.frexp(top)[1]), -1000)  # 2^1000 w is finite
    w = 1.0 + np.arange(K) * _PHI % 1.0
    margin = 4.0 * K * _EPS * w.sum()
    w = np.ldexp(w, -e)
    scale = w.sum() * (1.0 + 2.0 * K * _EPS)
    w[K // 2 :] *= -1.0
    return w, lambda limit: scale * limit + margin


def _close_pairs(A: np.ndarray, limit: float, shrink: bool = False):
    """The pairs of rows of A, a (rows, K) array >= 0, within sym-distance
    ``limit``: index arrays a and b and their distances.  With ``shrink`` the
    limit falls to the least distance found so far, so that the pairs found
    include a closest one; from limit = inf that finds the spread.

    The rows are sorted by the projection of ``_projector``.  A run of
    equal rows in that order enters the sweep as one row, named by its first
    drawn row, and each other row of the run pairs with that one at
    distance 0; runs of copies would otherwise share one window.  Then, for
    offsets o = 1, 2, ..., each live row p pairs with row p + o when
    s[p + o] - s[p] is within the window, and the pair's distance is
    computed with the point axis leading.  A row outside the window at
    offset o is outside it at every larger offset, so it leaves the sweep,
    which ends when no row is live.  The window is a fixed multiple of
    limit / 2^e with 2^e just above the largest entry, plus a margin fixed in
    those units, so a limit that scales with A gives the same sweep at
    every power-of-two scale: ``_keep`` sweeps at 4 eps diam.
    """
    w, window = _projector(A.max(initial=0.0), A.shape[1])
    s = A @ w
    order = np.argsort(s)
    S = A.T.take(order, axis=1)  # the sorted rows as columns: the point axis leads
    new_run = np.ones(len(A), dtype=bool)
    new_run[1:] = (S[:, 1:] != S[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_run)
    first = np.minimum.reduceat(order, starts)  # each run's first drawn row
    twin = first[np.cumsum(new_run) - 1]
    copy = order != twin
    found = [(twin[copy], order[copy], np.zeros(np.count_nonzero(copy)))]
    if shrink and copy.any():
        limit = 0.0
    s, S = s[order[starts]], S[:, starts]
    live = np.arange(len(starts))
    for o in range(1, len(starts)):
        live = live[: np.searchsorted(live, len(starts) - o)]
        live = live[s[live + o] - s[live] <= window(limit)]
        if not len(live):
            break
        D = S[:, live] - S[:, live + o]
        gap = np.abs(D, out=D).max(axis=0)
        near = gap <= limit
        found.append((first[live[near]], first[live[near] + o], gap[near]))
        if shrink:
            limit = min(limit, float(gap.min()))
    a, b, gaps = (np.concatenate(x) for x in zip(*found))
    return a, b, gaps


def _retract_rows(d: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The rows (p1, p2) of the hull points of the rows of G, in row blocks."""
    n = len(d)
    P = np.empty((len(G), 2 * n))
    for s in row_blocks(len(G), n * n):
        P[s, :n], P[s, n:] = retract_points(d, G[s])
    return P


def _sup_blocks(P: np.ndarray, Q: np.ndarray):
    """Yield (s, G) over the row blocks s of the (rows, m) matrix
    G[i, j] = max_k |P[i, k] - Q[j, k]|, for P of shape (rows, K) and Q of
    shape (m, K): the sup-norm gaps that ``_snap`` reduces.

    G and one buffer T, each (block, m), are live at once, so the blocks
    are ``pairs.row_blocks`` at 2 m floats a row.  G starts at 0 and takes
    the running maximum over k of |T|, read from contiguous transposed
    copies of P and Q.  T is filled with the column P[s, k] and the row
    Q[:, k] is subtracted in place: the same floats as one broadcast
    subtraction, which numpy runs slower.  max is exact, so every entry is
    the same float as a reduction over one (K, rows, m) stack.
    """
    PT, QT = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    blocks = row_blocks(len(P), 2 * len(Q))  # the slabs G and T
    G, T = np.empty((2, min(blocks[0].stop, len(P)), len(Q)))
    for s in blocks:
        rows = len(PT[0, s])
        Gs, Ts = G[:rows], T[:rows]
        Gs.fill(0.0)
        for p, q in zip(PT, QT):
            Ts[:] = p[s, None]
            np.subtract(Ts, q, out=Ts)
            np.maximum(Gs, np.abs(Ts, out=Ts), out=Gs)
        yield s, Gs


def _net_matrix(H: HullSample) -> np.ndarray:
    """Hull quasi-metric among the net points, base matrix in the first block.

    With the coordinates P = (f1, -f2) of each point f, D(f, g) is
    max(0, max_k P[f, k] - P[g, k]): negation is exact, so -f2(k) + g2(k)
    rounds as g2(k) - f2(k) does, and each entry is the same float as
    ``dquasi`` gives.

    One pass serves each unordered pair: the row blocks s of
    ``pairs.row_blocks`` (three slabs T, up and down of m floats a row) meet
    the columns j >= s.start, and each difference T = P[i, k] - P[j, k],
    built as in ``_sup_blocks``, feeds both directions, as fl(a - b) =
    -fl(b - a) exactly.  A running max from 0 gives D[i, j] and a running min
    from 0 gives D[j, i] = 0.0 - min(0, min_k T): a subtraction from +0.0,
    not a negation, so that no entry is -0.0.  The square where a block's
    rows meet their own columns is written from both sides, with equal floats.
    """
    F1, F2 = H.arrays
    PT = np.concatenate([F1, -F2], axis=1).T.copy()
    m = PT.shape[1]
    D = np.empty((m, m))
    blocks = row_blocks(m, 3 * m)  # the slabs T, up and down
    buf = np.empty((3, min(blocks[0].stop, m) * m))
    for s in blocks:
        rows, cols = len(PT[0, s]), m - s.start
        T, up, down = (b[: rows * cols].reshape(rows, cols) for b in buf)
        buf[1:].fill(0.0)  # up and down
        for p in PT:
            T[:] = p[s, None]
            np.subtract(T, p[s.start :], out=T)
            np.maximum(up, T, out=up)
            np.minimum(down, T, out=down)
        D[s, s.start :] = up
        D[s.start :, s] = np.subtract(0.0, down, out=down).T
    n = H.space.n
    D[:n, :n] = H.space.d
    return D


def _snap(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    """For each row (p1, p2) of P, the index of the Dsym-nearest point of the
    net F = (F1, F2), the lowest on ties: ``dsym(P1, P2, F1, F2).argmin(1)``.

    Dsym is max(f1 gap, f2 gap) over the same floats, so the f1 gap L is an
    exact lower bound.  j = L[i].argmin() is the answer whenever the f2 gap
    of j is at most L[i, j]: every point is at least as far in f1, and every
    earlier point strictly farther.  On hull points the two gaps agree in
    exact arithmetic, so only the few other rows take a second pass, over
    all 2n coordinates and in the row blocks of ``_sup_blocks`` too.
    """
    (F1, F2), (P1, P2) = F, np.hsplit(P, 2)
    nearest = np.empty(len(P), dtype=np.intp)
    for s, G in _sup_blocks(P1, F1):
        G.argmin(axis=1, out=nearest[s])
    rows = np.flatnonzero(np.abs(P2 - F2[nearest]).max(1) > np.abs(P1 - F1[nearest]).max(1))
    if len(rows):
        for s, G in _sup_blocks(P[rows], np.concatenate(F, axis=1)):
            nearest[rows[s]] = G.argmin(axis=1)
    return nearest


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
    snapping retracts at n * n floats a row and snaps f1 first (``_snap``);
    each net matrix is one pass over unordered pairs (``_net_matrix``).  The
    distortion of the relation {(i, phi i)} + {(psi j, j)} is
    ``gh._distortion``, which makes no m x m gather.
    """
    if HX.space.n != HY.space.n:
        raise LengthMismatch("net GH bound requires spaces on the same index set")
    pad = float(np.abs(HX.space.d - HY.space.d).max()) / 2.0

    phi = _snap(_retract_rows(HY.space.d, HX.arrays[0] + pad), HY.arrays)
    psi = _snap(_retract_rows(HX.space.d, HY.arrays[0] + pad), HX.arrays)
    a = np.concatenate((np.arange(len(phi)), psi))
    b = np.concatenate((phi, np.arange(len(psi))))
    return _distortion(_net_matrix(HX), _net_matrix(HY), a, b) / 2.0
