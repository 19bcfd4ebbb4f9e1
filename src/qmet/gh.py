"""Correspondence distortion, exact GH distance, gluing, rough isometries.

The GH distance between two finite (quasi-)metric spaces is half the minimum
distortion over correspondences.  Any correspondence contains a
"double graph" sub-correspondence graph(phi) + graph(psi)^T with no larger
distortion, so the exact search runs branch-and-bound over the two function
tables.  Arbitrary weight matrices (asymmetric, negative, nonzero diagonal)
are accepted by ``distortion`` and ``gh_exact``: on such networks the same
value is the network distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EpsTooSmall, NotACorrespondence, ValidationError
from .space import QSpace, largeness_constant, map_table

DEFAULT_BUDGET = 5_000_000


def _weights(obj) -> np.ndarray:
    if isinstance(obj, QSpace):
        return obj.d
    w = np.asarray(obj, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
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
                raise IndexError(f"pair ({i},{j}) out of range")
            seen_l.add(i)
            seen_r.add(j)
        for i in range(len(wl)):
            if i not in seen_l:
                raise NotACorrespondence("left", i)
        for j in range(len(wr)):
            if j not in seen_r:
                raise NotACorrespondence("right", j)


def distortion(R: Correspondence) -> float:
    """Worst |w_left(x,x') - w_right(y,y')| over pairs of related points."""
    wl, wr = _weights(R.left), _weights(R.right)
    px = np.array([p[0] for p in R.pairs])
    py = np.array([p[1] for p in R.pairs])
    return float(np.abs(wl[np.ix_(px, px)] - wr[np.ix_(py, py)]).max())


@dataclass(frozen=True)
class GHResult:
    value: float
    correspondence: Correspondence
    exact: bool
    nodes: int


def gh_exact(X, Y, budget: int | None = DEFAULT_BUDGET) -> GHResult:
    """Half the minimum distortion over correspondences, by branch and bound.

    Candidates at each level are ordered by incremental distortion, so a good
    leaf is found early and pruning (on >= current best) is aggressive.  With
    ``budget`` node evaluations exhausted the best bound found so far is
    returned flagged inexact (the CLI maps that to exit code 3).  Practical
    for spaces up to about 7 points.
    """
    wx, wy = _weights(X), _weights(Y)
    nx, ny = len(wx), len(wy)
    phi = [0] * nx
    psi = [0] * ny
    state = {"best": np.inf, "phi": None, "psi": None, "nodes": 0, "aborted": False}

    def inc_phi(i: int, y: int) -> float:
        m = abs(wx[i, i] - wy[y, y])
        if i:
            a = phi[:i]
            m = max(
                m,
                np.abs(wx[i, :i] - wy[y, a]).max(),
                np.abs(wx[:i, i] - wy[a, y]).max(),
            )
        return float(m)

    def inc_psi(j: int, x: int) -> float:
        m = max(
            abs(wy[j, j] - wx[x, x]),
            np.abs(wx[x, :] - wy[j, phi]).max(),
            np.abs(wx[:, x] - wy[phi, j]).max(),
        )
        if j:
            b = psi[:j]
            m = max(
                m,
                np.abs(wx[x, b] - wy[j, :j]).max(),
                np.abs(wx[b, x] - wy[:j, j]).max(),
            )
        return float(m)

    def descend(level: int, cur: float):
        if state["aborted"]:
            return
        if level == nx + ny:
            state["best"] = cur
            state["phi"] = list(phi)
            state["psi"] = list(psi)
            return
        on_phi = level < nx
        i = level if on_phi else level - nx
        width = ny if on_phi else nx
        cands = []
        for v in range(width):
            state["nodes"] += 1
            if budget is not None and state["nodes"] > budget:
                state["aborted"] = True
                return
            m = inc_phi(i, v) if on_phi else inc_psi(i, v)
            new = max(cur, m)
            if new < state["best"]:
                cands.append((new, v))
        cands.sort()
        for new, v in cands:
            if new >= state["best"]:
                break
            if on_phi:
                phi[i] = v
            else:
                psi[i] = v
            descend(level + 1, new)
            if state["aborted"]:
                return

    descend(0, 0.0)
    if state["phi"] is None:
        # budget died before any leaf: fall back to the full relation
        state["phi"] = [0] * nx
        state["psi"] = [0] * ny
        full = Correspondence(
            X, Y, tuple((i, j) for i in range(nx) for j in range(ny))
        )
        return GHResult(distortion(full) / 2.0, full, False, state["nodes"])
    pairs = {(i, state["phi"][i]) for i in range(nx)}
    pairs |= {(state["psi"][j], j) for j in range(ny)}
    R = Correspondence(X, Y, tuple(sorted(pairs)))
    return GHResult(
        float(state["best"]) / 2.0, R, not state["aborted"], state["nodes"]
    )


def glue_space(X: QSpace, Y: QSpace, R: Correspondence, eps: float) -> QSpace:
    """Disjoint union of X and Y with cross distances routed through R.

    d(x, y) = min over related (x', y') of d_X(x, x') + eps + d_Y(y', y), and
    symmetrically for d(y, x).  For eps >= distortion(R)/2 the result is a
    valid pseudo-quasi-metric in which the two copies sit at symmetrized
    Hausdorff distance exactly eps; below that threshold the triangle
    inequality breaks and EpsTooSmall reports a violating triple.
    """
    a = np.array([p[0] for p in R.pairs])
    b = np.array([p[1] for p in R.pairs])
    xy = (X.d[:, a][:, :, None] + Y.d[b, :][None, :, :]).min(axis=1) + eps
    yx = (Y.d[:, b][:, :, None] + X.d[a, :][None, :, :]).min(axis=1) + eps
    Z = np.block([[X.d, xy], [yx, Y.d]])
    labels = [f"L:{l}" for l in X.labels] + [f"R:{l}" for l in Y.labels]
    try:
        return QSpace(Z, labels)
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
    ix = np.asarray(phi)
    eps_embed = float(np.abs(X.d - Y.d[np.ix_(ix, ix)]).max())
    eps_large = largeness_constant(Y, sorted(set(phi)))
    return RoughIsometryWitness(X, Y, phi, eps_embed, eps_large)


def rough_isometry_from_correspondence(R: Correspondence) -> RoughIsometryWitness:
    """Select phi(x) = first partner of x in R; eps never exceeds dis R."""
    if not isinstance(R.left, QSpace) or not isinstance(R.right, QSpace):
        raise TypeError("witness extraction needs QSpace sides")
    first = {}
    for i, j in R.pairs:
        first.setdefault(i, j)
    phi = [first[i] for i in range(R.left.n)]
    return verify_rough_isometry(phi, R.left, R.right)


def correspondence_from_rough_isometry(w: RoughIsometryWitness) -> Correspondence:
    """Relate x to every y within sym-distance eps of phi(x).

    Always a correspondence; its distortion is at most 3 eps.
    """
    ds = w.target.dsym
    pairs = [
        (x, y)
        for x in range(w.source.n)
        for y in range(w.target.n)
        if ds[w.map[x], y] <= w.eps
    ]
    return Correspondence(w.source, w.target, tuple(pairs))


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
    dsX = w.source.dsym
    img = np.asarray(w.map)
    psi = [int(np.argmin(dsY[img, y])) for y in range(w.target.n)]
    ip = np.asarray(psi)
    defect = float(
        np.maximum(w.source.d[np.ix_(ip, ip)] - w.target.d, 0.0).max()
    )
    target_close = float(max(dsY[img[psi[y]], y] for y in range(w.target.n)))
    source_close = float(max(dsX[ip[w.map[x]], x] for x in range(w.source.n)))
    return RoughInverse(tuple(psi), defect, target_close, source_close)
