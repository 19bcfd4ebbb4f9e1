"""Correspondence distortion, exact GH distance, gluing, rough isometries.

The GH distance between two finite (quasi-)metric spaces is half the minimum
distortion over correspondences.  Any correspondence contains a
"double graph" sub-correspondence graph(phi) + graph(psi)^T with no larger
distortion, so the exact search picks one cell (x, y) of the product per
point, phi's cells first, then psi's, depth first on an explicit stack.  Its
first incumbent is the double graph that matches each point to the one with
the nearest (max out-weight, max in-weight), after Memoli's eccentricity
bounds.  It keeps every cell's cost against the cells picked so far in one
matrix, raised in place by each pick and restored from an undo log on
backtracking, and skips a level once the costs still to be paid reach the
incumbent.  On inputs of at most 256 cells ``_floor`` builds the table of
every two cells' weight mismatch (512 KB), symmetric in the two cells: its
reduction starts each cost at the cell's local-spectrum floor (after
Chowdhury-Memoli), which orders the candidates far better, and the same
layout gives each pick its row; above 256 cells each pick computes it.  The
largest row or column minimum of the starting costs is a certified lower
bound (``GHResult.lower``); the search ends at the first leaf that meets it.
Arbitrary weight matrices (asymmetric, negative, nonzero diagonal) are
accepted by ``distortion`` and ``gh_exact``: on such networks the same
value is the network distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EpsTooSmall,
    IndexOutOfRange,
    NonFiniteEntry,
    NonSquareMatrix,
    NotACorrespondence,
    ValidationError,
)
from .pairs import row_blocks
from .space import QSpace, _relax, largeness_constant, map_table
from .tolerances import TRIANGLE_TOL, slack

DEFAULT_BUDGET = 5_000_000


def _weights(obj) -> np.ndarray:
    if isinstance(obj, QSpace):
        return obj.d
    w = np.asarray(obj, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or not len(w):
        raise NonSquareMatrix(f"expected a non-empty square weight matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        i, j = np.argwhere(~np.isfinite(w))[0]
        raise NonFiniteEntry(f"weight ({i},{j}) is not finite")
    return w


@dataclass(frozen=True)
class Correspondence:
    """A relation between two point sets that covers both of them.

    ``left``/``right`` may be QSpace objects or raw weight matrices (network
    mode).
    """

    left: object
    right: object
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        wl, wr = _weights(self.left), _weights(self.right)
        pairs = tuple(sorted((int(i), int(j)) for i, j in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        seen_l = set()
        seen_r = set()
        for i, j in pairs:
            if not (0 <= i < len(wl) and 0 <= j < len(wr)):
                raise IndexOutOfRange(f"pair ({i},{j}) out of range")
            seen_l.add(i)
            seen_r.add(j)
        for i in range(len(wl)):
            if i not in seen_l:
                raise NotACorrespondence("left", i)
        for j in range(len(wr)):
            if j not in seen_r:
                raise NotACorrespondence("right", j)


def _distortion(wx: np.ndarray, wy: np.ndarray, a, b) -> float:
    """max over u, v of |wx[a_u, a_v] - wy[b_u, b_v]|, the distortion of the
    relation {(a_u, b_u)}: every distortion in qmet is measured here.  Runs
    in ``pairs.row_blocks`` of three len(a)-float slabs a row; max(T.max(),
    -T.min()) of each block's difference T is exact, so no value depends on
    the blocks.  An overflow counts as +inf, with no warning."""
    a, b = np.asarray(a), np.asarray(b)
    worst = 0.0
    with np.errstate(over="ignore"):
        for s in row_blocks(len(a), 3 * len(a)):
            T = wx.take(a[s], 0).take(a, 1)
            np.subtract(T, wy.take(b[s], 0).take(b, 1), out=T)
            worst = max(worst, T.max(), -T.min())
    return float(worst)


def distortion(R: Correspondence) -> float:
    """Worst |w_left(x,x') - w_right(y,y')| over pairs of related points;
    a difference past the float range counts as +inf."""
    return _distortion(_weights(R.left), _weights(R.right), *np.array(R.pairs).T)


@dataclass(frozen=True)
class GHResult:
    """``value`` is half the distortion of ``correspondence``, the GH
    distance when ``exact``; ``lower`` is a certified lower bound on it
    (0.0 by default, which always holds)."""

    value: float
    correspondence: Correspondence
    exact: bool
    nodes: int
    lower: float = 0.0


def _seed(SX, SY):
    """The eccentricity-matched correspondence and its distortion.

    Each x goes to the y whose (max out-weight, max in-weight) is nearest in
    the sup norm, and each y back to such an x, lowest index on ties, in
    O(n_X n_Y).  Returns the rows and the columns of its cells and its
    distortion.  ``SX`` and ``SY`` are the (w.T, w) stacks of ``gh_exact``.
    """
    wx, wy = SX[1], SY[1]
    ex, ey = np.maximum.reduce(SX, axis=1), np.maximum.reduce(SY, axis=1)
    gap = np.abs(ex[:, :, None] - ey[:, None, :])
    gap = np.maximum(gap[0], gap[1])
    a = np.concatenate((np.arange(len(wx)), gap.argmin(axis=0)))
    b = np.concatenate((gap.argmin(axis=1), np.arange(len(wy))))
    return a, b, _distortion(wx, wy, a, b)


def _floor(wx, wy) -> tuple[np.ndarray, np.ndarray]:
    """C0[x, y], the sup-norm Hausdorff distance between the local spectra
    {(wx[x, x'], wx[x', x])} and {(wy[y, y'], wy[y', y])}, and the table it
    reduces: [x', y', x, y] holds max(|wx[x, x'] - wy[y, y']|, |wx[x', x] -
    wy[y', y]|), as a square matrix of n_X n_Y rows.

    A correspondence holding (x, y) relates each x' to some y' and each y'
    to some x', so its distortion is at least C0[x, y] (Chowdhury-Memoli).
    Both reductions run over leading axes; by symmetry, row x n_Y + y is what
    a pick of (x, y) raises ``C`` to.  Call under np.errstate(over="ignore").
    """
    D = np.subtract.outer(wx, wy)  # [x, x', y, y']
    np.abs(D, out=D)
    T = np.subtract.outer(wx.T, wy.T)
    np.abs(T, out=T)
    D = np.maximum(D, T, out=D).transpose(1, 3, 0, 2).copy()
    C0 = np.maximum(
        np.maximum.reduce(np.minimum.reduce(D, axis=1)),
        np.maximum.reduce(np.minimum.reduce(D)),
    )
    return C0, D.reshape(C0.size, -1)


def gh_exact(X, Y, budget: int | None = DEFAULT_BUDGET) -> GHResult:
    """Half the minimum distortion over correspondences, by branch and bound.

    Level l < n_X picks the cell (l, phi(l)) and level n_X + j the cell
    (psi(j), j).  ``C`` holds every cell's cost, its worst weight mismatch
    against the cells already picked: a phi level reads a row of it, a psi
    level a column.  A pick raises ``C`` in place to its row of the mismatch
    table, read from ``_floor``'s (symmetric, so its rows are the picks'
    rows) or, above 256 cells, computed from ``SX`` and ``SY``, and logs the
    entries it raised; backtracking restores them, so ``C`` is never copied.
    Each level keeps its candidates, ordered by (running distortion, index),
    as an iterator on an explicit stack, so the depth n_X + n_Y costs no
    Python frames.  Every open row and column must still pick a cell and
    costs only grow, so the largest of their minima in ``C`` bounds every
    completion from below: a level where it reaches the incumbent is skipped
    unscored.  No skipped leaf would have been accepted, so the result is
    that of the search without the bound.

    ``C`` starts at max(|wx[x, x] - wy[y, y]|, C0[x, y]), C0 the local-
    spectrum floor (``_floor``): every correspondence holding (x, y) has
    distortion at least C0[x, y], so a leaf's running value is still its
    distortion and the search stays exact.  C0 and the table cost
    O((n_X n_Y)^2), so they are built only when the table fits one
    ``pairs.row_blocks`` block (n_X n_Y <= 256 cells, 512 KB); larger inputs
    start at the diagonal term alone and compute each pick's row.  The floor
    changes which of several optimal leaves comes first, not the value.
    ``root``, the largest row or column minimum of the starting ``C``,
    bounds every distortion from below (each point needs a partner), so the
    first leaf with value <= root is optimal, and being the first optimal
    leaf in depth-first order it is the one the search would keep to the
    end: the search stops there.  ``lower`` is root / 2.

    The search starts from the eccentricity-matched seed (``_seed``), a
    double graph and so itself a leaf, of distortion s.  The incumbent
    starts at nextafter(s, inf), the least float above s, so "below the
    incumbent" means "at most s" until a leaf is reached: the seed leaf is
    never pruned, and neither is the first optimal leaf in depth-first
    order, the one the floored search from +inf returns.  Only leaves worse
    than s, which that search would replace anyway, go unvisited.  So
    value, correspondence and exact flag are those of the floored search
    from +inf, in no more nodes.  Starting at s itself would prune an
    optimal seed and every leaf tied with it.  The seed is never returned
    early, even when s <= root: the search still runs to its first leaf.

    Every scored candidate is a node; once ``budget`` nodes are spent the
    incumbent comes back flagged inexact (the CLI maps that to exit code
    3, with the bracket [lower, value]), or the seed if no leaf was reached.
    A weight difference past the float range is a cost of +inf.  Two copies
    of a 510-point line take 520,200 nodes; a permuted copy of a random
    n-point space 2n^2 (one dive).  Ten random 8-point pairs took
    1,048-7,664 nodes and six random 10-point pairs 4,730-37,300.
    """
    wx, wy = _weights(X), _weights(Y)
    nx, ny = len(wx), len(wy)
    with np.errstate(over="ignore"):
        # [:, x] of these stacks is the pair (wx[:, x], wx[x, :])
        SX, SY = np.array((wx.T, wx)), np.array((wy.T, wy))
        seed_rows, seed_cols, s = _seed(SX, SY)
        C, table = np.abs(np.subtract.outer(np.diag(wx), np.diag(wy))), None
        if len(row_blocks(nx * ny, nx * ny)) == 1:
            C0, table = _floor(wx, wy)
            np.maximum(C, C0, out=C)
        root = max(np.minimum.reduce(C, axis=1).max(), np.minimum.reduce(C).max())
        flat = C.reshape(-1)
        # the cell picked at each level: phi fills cols[:nx], psi fills rows[nx:]
        rows, cols = list(range(nx)) + [0] * ny, [0] * nx + list(range(ny))
        leaf, value = set(zip(seed_rows.tolist(), seed_cols.tolist())), s
        best, nodes, aborted = float(np.nextafter(s, np.inf)), 0, False
        stack, undo, cur = [], [], 0.0
        while True:
            level = len(stack)
            if level == nx + ny:
                best, value, leaf = cur, cur, set(zip(rows, cols))
                if cur <= root:  # no distortion is below root
                    break
            else:
                if level < nx:
                    cost = C[level]
                    bound = max(
                        np.maximum.reduce(np.minimum.reduce(C[level:], axis=1)),
                        np.maximum.reduce(np.minimum.reduce(C, axis=0)),
                    )
                else:
                    cost = C[:, level - nx]
                    bound = np.maximum.reduce(
                        np.minimum.reduce(C[:, level - nx:], axis=0)
                    )
                if bound < best:  # else no completion beats the incumbent (cur < best)
                    if budget is not None and nodes + len(cost) > budget:
                        nodes, aborted = max(nodes, budget) + 1, True
                        break
                    nodes += len(cost)
                    new = np.maximum(cost, cur)
                    order = new.argsort(kind="stable")
                    stack.append(iter(zip(new[order].tolist(), order.tolist())))
            # pop the next candidate that can still beat the incumbent, undoing
            # the pick it replaces
            while stack:
                if len(undo) == len(stack):
                    idx, old = undo.pop()
                    flat[idx] = old
                cur, v = next(stack[-1], (np.inf, 0))
                if cur < best:
                    break
                stack.pop()
            else:
                break
            level = len(stack) - 1
            if level < nx:
                cols[level] = v
            else:
                rows[level] = v
            x, y = rows[level], cols[level]
            if table is not None:
                raised = table[x * ny + y]
            else:
                # max(|wx[:, x] - wy[:, y]|, |wx[x, :] - wy[y, :]|), in one buffer
                raised = SX[:, x, :, None] - SY[:, y, None, :]
                np.abs(raised, out=raised)
                raised = np.maximum(raised[0], raised[1], out=raised[0]).reshape(-1)
            idx = (raised > flat).nonzero()[0]
            undo.append((idx, flat[idx]))
            flat[idx] = raised[idx]
    return GHResult(
        value / 2.0, Correspondence(X, Y, tuple(leaf)), not aborted, nodes, float(root) / 2.0
    )


def glue_space(X: QSpace, Y: QSpace, R: Correspondence, eps: float) -> QSpace:
    """Disjoint union of X and Y with cross distances routed through R.

    d(x, y) = min over related (x', y') of d_X(x, x') + eps + d_Y(y', y), and
    symmetrically for d(y, x).  For eps >= distortion(R)/2 the result is a
    valid pseudo-quasi-metric in which the two copies sit at symmetrized
    Hausdorff distance exactly eps; below that threshold the triangle
    inequality breaks and EpsTooSmall reports a violating triple.  The check
    allows ``slack(TRIANGLE_TOL, M)`` for rounding, M the largest entry.
    The cross blocks are min-plus products through R (``space._relax``),
    so memory grows as O(n_X n_Y), not with |R|.
    """
    a, b = np.array(R.pairs).T
    xy = _relax(np.full((X.n, Y.n), np.inf), X.d[:, a], Y.d[b]) + eps
    yx = _relax(np.full((Y.n, X.n), np.inf), Y.d[:, b], X.d[a]) + eps
    Z = np.block([[X.d, xy], [yx, Y.d]])
    labels = [f"L:{l}" for l in X.labels] + [f"R:{l}" for l in Y.labels]
    try:
        return QSpace(Z, labels, tol=slack(TRIANGLE_TOL, Z.max()))
    except ValidationError as err:
        for v in err.report.violations:
            if v.axiom == "M2":
                raise EpsTooSmall(v.witness, v.magnitude) from err
        raise


@dataclass(frozen=True)
class RoughIsometryWitness:
    """A point map together with the least eps certifying it.

    ``eps_embed`` bounds |d_X - d_Y o phi| over all pairs; ``eps_large`` is
    how far the image is from covering the target in the symmetrized
    distance; eps is their max.
    """

    source: QSpace
    target: QSpace
    map: tuple[int, ...]
    eps_embed: float
    eps_large: float

    @property
    def eps(self) -> float:
        return max(self.eps_embed, self.eps_large)


def verify_rough_isometry(phi, X: QSpace, Y: QSpace) -> RoughIsometryWitness:
    """Measure a total map X -> Y as a sym-rough isometry (exact constants)."""
    phi = map_table(phi, X.n, Y.n)
    eps_embed = _distortion(X.d, Y.d, np.arange(X.n), phi)
    eps_large = largeness_constant(Y, sorted(set(phi)))
    return RoughIsometryWitness(X, Y, phi, eps_embed, eps_large)


def rough_isometry_from_correspondence(R: Correspondence) -> RoughIsometryWitness:
    """Select phi(x) = least partner of x in R; eps never exceeds dis R."""
    if not isinstance(R.left, QSpace) or not isinstance(R.right, QSpace):
        raise TypeError("witness extraction needs QSpace sides")
    x, y = np.array(R.pairs).T
    # the pairs are sorted, so x's first pair holds its least partner
    return verify_rough_isometry(y[np.unique(x, return_index=True)[1]], R.left, R.right)


def correspondence_from_rough_isometry(w: RoughIsometryWitness) -> Correspondence:
    """Relate x to every y within sym-distance eps of phi(x).

    Always a correspondence; its distortion is at most 3 eps.
    """
    pairs = np.argwhere(w.target.dsym[list(w.map)] <= w.eps)
    return Correspondence(w.source, w.target, tuple(map(tuple, pairs)))


@dataclass(frozen=True)
class RoughInverse:
    """A reverse map with its measured closeness constants.

    For a witness of constant eps: the inverse is 3 eps-roughly non-expansive,
    phi o psi is eps-sym-close to the identity and psi o phi is 2 eps-close.
    """

    map: tuple[int, ...]
    nonexpansive_defect: float
    target_closeness: float
    source_closeness: float


def rough_inverse(w: RoughIsometryWitness) -> RoughInverse:
    """psi(y) = the point whose image is sym-nearest to y (lowest index)."""
    dsY = w.target.dsym
    img = np.asarray(w.map)
    psi = dsY[img].argmin(axis=0)  # argmin keeps the first minimum
    defect = float(np.maximum(w.source.d[np.ix_(psi, psi)] - w.target.d, 0.0).max())
    target_close = float(dsY[img[psi], np.arange(w.target.n)].max())
    source_close = float(w.source.dsym[psi[img], np.arange(w.source.n)].max())
    return RoughInverse(tuple(psi.tolist()), defect, target_close, source_close)
