"""Ample pairs of functions and their retraction onto the hull.

A pair f = (f1, f2) of non-negative functions on a space X is *ample* when
d(x, y) <= f2(x) + f1(y) for all x, y.  The minimal ample pairs form the
q-hyperconvex hull of X; they are exactly the fixed points of the double
conjugation

    f1'(x) = max_y (d(y, x) - f2(y))+      f2'(x) = max_y (d(x, y) - f1(y))+

The conjugations ``star`` (least f2 for f1) and ``flat`` (least f1 for f2)
form an antitone Galois connection, so ``retract`` sends any g >= 0 exactly
onto the hull point (flat(star(g)), star(g)).  On an ample pair f, retract(f1)
lies below f, fixes the hull and is non-expansive: it is the one projection,
which ``project_to_hull`` wraps with an ampleness check.  The hull carries
the quasi-metric

    D(f, g) = max( max_x (f1 - g1)+ , max_x (g2 - f2)+ ),

whose symmetrization is the sup-norm distance on both components.

Stacks of pairs are batch-first (leading axes are the batch, the last axis
is the point index), and the kernel reduces over the point axis moved to
the front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    NotAmple,
    NotMinimal,
    SpaceMismatch,
    SubsetMismatch,
)
from .space import QSpace, _relax, subset_indices
from .tolerances import AMPLE_TOL, CERTIFICATION_TOL, slack

# floats a row-blocked kernel keeps live at once: 512 KB stays in a core's
# cache, and each numpy call on it is still mostly arithmetic
BLOCK_ELEMENTS = 1 << 16


def row_blocks(rows: int, per_row: int) -> list[slice]:
    """Slices of ``rows`` rows at ``per_row`` floats a row, each of at most
    max(1, BLOCK_ELEMENTS // per_row) rows.  Every batched max-minus kernel
    runs in these blocks; max and subtraction are exact, so no value depends
    on their size."""
    step = max(1, BLOCK_ELEMENTS // per_row)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


@dataclass(frozen=True, eq=False)
class AmplePair:
    """A candidate or certified member of the hull of ``space``.

    ``certified_tol`` records the measured double-conjugation residual when
    the pair was certified minimal.
    """

    space: QSpace
    f1: np.ndarray
    f2: np.ndarray
    certified_minimal: bool = False
    certified_tol: float | None = None

    def __post_init__(self):
        f1 = np.asarray(self.f1, dtype=float).copy()
        f2 = np.asarray(self.f2, dtype=float).copy()
        if f1.shape != (self.space.n,) or f2.shape != (self.space.n,):
            raise LengthMismatch(
                f"component lengths {f1.shape}/{f2.shape} do not match n={self.space.n}"
            )
        f1.setflags(write=False)
        f2.setflags(write=False)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    def __repr__(self):
        tag = "minimal" if self.certified_minimal else "candidate"
        return f"AmplePair(n={self.space.n}, {tag}, f1={self.f1}, f2={self.f2})"


def is_ample(f: AmplePair, tol: float = AMPLE_TOL):
    """Check d(x,y) <= f2(x) + f1(y) within slack(tol, diam).

    Returns (flag, worst) where worst is None or the most violated
    (x, y, excess) triple.
    """
    with np.errstate(over="ignore"):  # d against the rounded sum, as in validate
        gap = f.space.d - (f.f2[:, None] + f.f1[None, :])
    worst = gap.max()
    if worst > slack(tol, f.space.diam):
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        return False, (int(i), int(j), float(worst))
    return True, None


def _require_ample(f: AmplePair, tol: float = AMPLE_TOL):
    ok, worst = is_ample(f, tol)
    if not ok:
        raise NotAmple(worst)


def _lead(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A - B of broadcast stacks, axes reversed and C-ordered: the point axis
    leads, so ``.max(axis=0)`` takes whole-slab maxima (numpy reduces a short
    trailing axis one output entry at a time); ``.T`` restores batch-first."""
    if A.ndim != B.ndim:  # pad the shorter with leading axes
        A, B = A[(None,) * (B.ndim - A.ndim)], B[(None,) * (A.ndim - B.ndim)]
    return np.subtract(A.T, B.T, order="C")


def star(d: np.ndarray, F1: np.ndarray) -> np.ndarray:
    """The least f2 making (f1, f2) ample: f2(x) = max_y (d(x,y) - f1(y))+."""
    return _lead(d, F1[..., None, :]).max(axis=0, initial=0.0).T


def flat(d: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """The least f1 making (f1, f2) ample: f1(y) = max_x (d(x,y) - f2(x))+."""
    return _lead(d.T, F2[..., None, :]).max(axis=0, initial=0.0).T


def dsym(F1: np.ndarray, F2: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Symmetrized hull distance max(||f1 - g1||, ||f2 - g2||) of broadcast stacks."""
    # one broadcast temporary at a time, made absolute in place
    up = _lead(F1, G1)
    up = np.abs(up, out=up).max(axis=0)
    down = _lead(F2, G2)
    return np.maximum(up, np.abs(down, out=down).max(axis=0)).T


def dquasi(F1: np.ndarray, F2: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Hull quasi-metric max(max (f1 - g1)+, max (g2 - f2)+) of broadcast stacks."""
    up = _lead(F1, G1).max(axis=0, initial=0.0)
    return np.maximum(up, _lead(G2, F2).max(axis=0, initial=0.0)).T


def residual(d: np.ndarray, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """Double-conjugation residual of stacked pairs: the symmetrized distance
    from f to (flat(f2), star(f1)), 0 exactly on the hull."""
    return dsym(F1, F2, flat(d, F2), star(d, F1))


def retract_points(d: np.ndarray, G: np.ndarray):
    """``retract`` without the residuals: the hull points (P1, P2) of g >= 0."""
    P2 = star(d, G)
    return np.minimum(flat(d, P2), G), P2


def retract(d: np.ndarray, G: np.ndarray):
    """Hull points (flat(star(g)), star(g)) for g >= 0; returns (P1, P2, residuals).

    The exact projection of the completion (g, star(g)).
    P1 is clamped by G, so the result sits entrywise below (g, star(g));
    ``residuals`` is each row's measured double-conjugation residual.
    """
    P2 = star(d, G)
    S1 = flat(d, P2)  # also the residual's flat(d, P2)
    P1 = np.minimum(S1, G)
    return P1, P2, dsym(P1, P2, S1, star(d, P1))


def project_arrays(space: QSpace, F1: np.ndarray, F2: np.ndarray):
    """Batched hull projection of ample pairs; returns (P1, P2, residuals).

    The projection of f is ``retract(f1)``.  On ample input star(F1) <= F2,
    so the result sits entrywise below (F1, F2); F2 is not otherwise read.
    """
    return retract(space.d, np.asarray(F1, dtype=float))


def project_to_hull(f: AmplePair) -> AmplePair:
    """Project an ample pair onto the hull: retract(f1), certified minimal.

    Of the hull points below f it has the largest f1 and the least f2 (f2 is
    below f's within the ampleness slack), and the map is non-expansive for
    the hull quasi-metric.
    """
    _require_ample(f)
    g1, g2, res = project_arrays(f.space, f.f1, f.f2)
    return AmplePair(f.space, g1, g2, certified_minimal=True, certified_tol=float(res))


def in_hull(f: AmplePair, tol: float = CERTIFICATION_TOL) -> bool:
    """True when f is minimal: its own double conjugate within slack(tol, diam)."""
    _require_ample(f)
    return bool(residual(f.space.d, f.f1, f.f2) <= slack(tol, f.space.diam))


def pair_dist(f: AmplePair, g: AmplePair, mode: str = "D") -> float:
    """Hull distance between two pairs on the same space.

    mode "D" is the asymmetric hull quasi-metric; mode "Dsym" is its
    symmetrization, the sup-norm of the component differences.
    """
    if f.space is not g.space and not np.array_equal(f.space.d, g.space.d):
        raise SpaceMismatch("pairs live on different spaces")
    if mode == "D":
        return float(dquasi(f.f1, f.f2, g.f1, g.f2))
    if mode == "Dsym":
        return float(dsym(f.f1, f.f2, g.f1, g.f2))
    raise ValueError(f"unknown pair_dist mode {mode!r}")


def embed_point(X: QSpace, x: int) -> AmplePair:
    """Canonical embedding of a point: x maps to (d(x, .), d(., x)).

    Minimal by the triangle inequality, and an isometric embedding of X into
    its hull.
    """
    if not 0 <= x < X.n:
        raise IndexOutOfRange(f"point index {x} out of range for n={X.n}")
    f1, f2 = X.d[x, :], X.d[:, x]
    f = AmplePair(X, f1, f2, True, float(residual(X.d, f1, f2)))
    _require_ample(f)
    return f


def ample_completion(X: QSpace, f1) -> AmplePair:
    """Smallest f2 making (f1, f2) ample: f2(x) = max_y (d(x,y) - f1(y))+."""
    f1 = np.maximum(np.asarray(f1, dtype=float), 0.0)
    return AmplePair(X, f1, star(X.d, f1))


def extend_from_subspace(X: QSpace, subset, f: AmplePair) -> AmplePair:
    """Extend a minimal pair on a subspace to a minimal pair on X.

    The inf-convolution s1 of f1 along the ambient distances restricts back to
    f1; the exact two-step ``retract`` sends it to the hull of X and keeps the
    subspace values (they are already mutually tight).  The assembled map is
    an isometric embedding of the subspace hull into the hull of X.
    """
    iy = np.asarray(subset_indices(X, subset))
    if not np.array_equal(X.d[np.ix_(iy, iy)], f.space.d):
        raise SubsetMismatch("pair does not live on the selected subspace")
    if not in_hull(f):
        raise NotMinimal("extension requires a minimal pair")
    s1 = _relax(np.full((1, X.n), np.inf), f.f1[None, :], X.d[iy])[0]
    P1, P2, res = retract(X.d, s1)
    drift = dsym(P1[iy], P2[iy], f.f1, f.f2)
    if not drift <= slack(CERTIFICATION_TOL, X.diam):
        raise NotMinimal(f"extension moved subspace values by {drift:.3e}")
    return AmplePair(X, P1, P2, certified_minimal=True, certified_tol=float(res))
