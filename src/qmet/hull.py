"""Finite nets of the hull of minimal ample pairs.

The hull of a finite space is an infinite polyhedral object; it is represented
here only by certified finite nets: the canonical point embeddings plus
retracted random candidates.  Nets are deterministic given (space, k, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotMetric
from .gh import Correspondence, distortion
from .pairs import (
    AmplePair,
    dquasi,
    dsym,
    embed_point,
    flat,
    retract,
    star,
)
from .space import QSpace
from .tolerances import CERTIFICATION_TOL, DEDUP_TOL

PERTURB_RADIUS_FACTOR = 0.25


@dataclass(frozen=True)
class HullSample:
    """A certified net of hull points; the point embeddings always come first.

    ``spread`` is the minimum pairwise sym-distance among the stored points
    (inf for a single point).
    """

    space: QSpace
    points: tuple[AmplePair, ...]
    seed: int
    spread: float


def _stack(points) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.stack([p.f1 for p in points]),
        np.stack([p.f2 for p in points]),
    )


def sample_hull(X: QSpace, k: int, seed: int = 0) -> HullSample:
    """Draw k hull candidates and keep the distinct certified ones.

    Half the candidates are fresh: g uniform in [0, 2 diam]^n, sent to the
    hull by the exact two-step retraction g -> (flat(star(g)), star(g)).  The
    rest perturb the f1 of already accepted members by bounded bumps and
    retract again; the bump radius starts at 0.25 diam and halves whenever a
    candidate collapses onto an existing point.  The point embeddings are
    always included (first).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = np.random.default_rng(seed)
    points = [embed_point(X, i) for i in range(X.n)]
    # the pool of accepted points, grown in place; rows [:len(points)] are live
    B1 = np.empty((X.n + k, X.n))
    B2 = np.empty((X.n + k, X.n))
    B1[: X.n], B2[: X.n] = _stack(points)
    R = X.diam

    def try_add(f1, f2, res) -> bool:
        m = len(points)
        if dsym(B1[:m], B2[:m], f1, f2).min() <= DEDUP_TOL:
            return False
        points.append(
            AmplePair(X, f1, f2, certified_minimal=True, certified_tol=float(res))
        )
        B1[m], B2[m] = f1, f2
        return True

    if k > 0 and R > 0.0:
        n_fresh = (k + 1) // 2
        C1 = rng.uniform(0.0, 2.0 * R, size=(n_fresh, X.n))
        P1, P2, res = retract(X.d, C1)
        for i in range(n_fresh):
            try_add(P1[i], P2[i], res[i])

        radius = PERTURB_RADIUS_FACTOR * R
        floor = R * 2.0 ** -30
        for _ in range(k - n_fresh):
            base = int(rng.integers(0, len(points)))
            g1 = np.maximum(B1[base] + rng.uniform(-radius, radius, size=X.n), 0.0)
            p1, p2, res = retract(X.d, g1)
            if not try_add(p1, p2, res) and radius > floor:
                radius /= 2.0

    F1, F2 = B1[: len(points)], B2[: len(points)]
    gaps = dsym(F1[:, None, :], F2[:, None, :], F1, F2)
    np.fill_diagonal(gaps, np.inf)
    return HullSample(X, tuple(points), seed, float(gaps.min()))


def _net_matrix(H: HullSample) -> np.ndarray:
    """Hull quasi-metric among the net points, base matrix in the first block."""
    F1, F2 = _stack(H.points)
    D = dquasi(F1[:, None, :], F2[:, None, :], F1, F2)
    n = H.space.n
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
    diag = [p for p in H.points if np.abs(p.f1 - p.f2).max() <= tol]
    n_off = len(H.points) - len(diag)
    worst_res = worst_disc = 0.0
    if diag:
        D1, D2 = _stack(diag)
        worst_res = float(dsym(D1, D2, flat(X.d, D2), star(X.d, D1)).max())
        # dsym of the pairs (f1, f1) and (g1, g1) is the sup norm of f1 - g1
        sup = dsym(D1[:, None, :], D1[:, None, :], D1, D1)
        sym = dsym(D1[:, None, :], D2[:, None, :], D1, D2)
        worst_disc = float(np.abs(sym - sup).max())
    return DiagonalReport(len(diag), n_off, worst_res, worst_disc)


def net_gh_upper(HX: HullSample, HY: HullSample) -> float:
    """Upper bound on the GH distance between two hull nets.

    For nets over spaces on the same index set (e.g. perturbation pairs): each
    net point's f1, inflated by half the matrix perturbation, is retracted onto
    the other space's hull and snapped to the nearest net point there; the two
    snapped maps assemble a correspondence whose half-distortion bounds the
    net GH distance from above.  A net approximation, not a proof-grade value.
    """
    X, Y = HX.space, HY.space
    if X.n != Y.n:
        raise ValueError("net GH bound requires spaces on the same index set")
    eta = float(np.abs(X.d - Y.d).max())

    def snapped(source: HullSample, target: HullSample, pad: float):
        F1 = np.stack([p.f1 for p in source.points])
        P1, P2, _ = retract(target.space.d, F1 + pad)
        T1, T2 = _stack(target.points)
        return dsym(P1[:, None, :], P2[:, None, :], T1, T2).argmin(axis=1).tolist()

    pairs = list(enumerate(snapped(HX, HY, eta / 2.0)))
    pairs += [(i, j) for j, i in enumerate(snapped(HY, HX, eta / 2.0))]
    # the net matrices are valid by construction: compare them as networks
    R = Correspondence(_net_matrix(HX), _net_matrix(HY), tuple(sorted(set(pairs))))
    return distortion(R) / 2.0
