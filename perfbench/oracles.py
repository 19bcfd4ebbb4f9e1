"""Independent reference computations used to check qmet's answers.

Everything here is written with numpy alone and calls nothing in qmet, so a
fault in the library cannot hide behind the same fault in its checker.

Conventions follow the paper: a pair (f1, f2) on a space with matrix d is
ample when d(x, y) <= f2(x) + f1(y).  The two conjugations are

    star(f1)(x) = max_y (d(x, y) - f1(y))+      (the least f2 for f1)
    flat(f2)(y) = max_x (d(x, y) - f2(x))+      (the least f1 for f2)

and a pair is minimal (a hull point) when f1 = flat(f2) and f2 = star(f1).
The map g -> (flat(star(g)), star(g)) sends every g >= 0 onto the hull and
is 1-Lipschitz from the sup norm into the symmetrized hull distance, and every
hull point h is the image of h1, with h1 in [0, diam]^n.  That retraction
gives both a sampled lower bound and a grid-certified upper bound on the
coarse-injectivity constant delta.
"""

from __future__ import annotations

import itertools

import numpy as np

# float slack for comparisons between independently computed values
VALUE_TOL = 1e-12


def ulp_slack(scale: float) -> float:
    """Four machine epsilons of ``scale``: the rounding two float operations
    on values up to ``scale`` can leave."""
    return 4.0 * np.finfo(float).eps * max(scale, 1.0)


def star(d: np.ndarray, F1: np.ndarray) -> np.ndarray:
    """Row-wise star(f1) for a batch F1 of shape (m, n)."""
    return np.maximum((d[None, :, :] - F1[:, None, :]).max(axis=2), 0.0)


def flat(d: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """Row-wise flat(f2) for a batch F2 of shape (m, n)."""
    return np.maximum((d[None, :, :] - F2[:, :, None]).max(axis=1), 0.0)


def retract(d: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hull points (flat(star(g)), star(g)) for a batch G of shape (m, n)."""
    F2 = star(d, G)
    return flat(d, F2), F2


def ample_excess(d: np.ndarray, F1: np.ndarray, F2: np.ndarray) -> float:
    """Worst d(x, y) - f2(x) - f1(y) over a batch of pairs; <= 0 when all
    are ample."""
    return float((d[None, :, :] - F2[:, :, None] - F1[:, None, :]).max())


def conjugation_residual(d: np.ndarray, F1: np.ndarray, F2: np.ndarray) -> float:
    """Worst sup distance from a pair of the batch to its double conjugate
    (flat(f2), star(f1)); 0 exactly on the hull."""
    return float(max(np.abs(F1 - flat(d, F2)).max(), np.abs(F2 - star(d, F1)).max()))


def embedding_gaps(d: np.ndarray, F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """Per row, the symmetrized hull distance to the nearest embedded point
    x -> (d(x, .), d(., x))."""
    gaps = np.full(F1.shape[0], np.inf)
    for x in range(d.shape[0]):
        g = np.maximum(
            np.abs(F1 - d[x, :][None, :]).max(axis=1),
            np.abs(F2 - d[:, x][None, :]).max(axis=1),
        )
        np.minimum(gaps, g, out=gaps)
    return gaps


def delta_lower(d: np.ndarray, seed: int, draws: int = 2000, starts: int = 4,
                rounds: int = 60, batch: int = 32) -> float:
    """A lower bound on delta: the best embedding gap over retracted samples.

    Uniform draws of g in [0, diam]^n, then a step-halving local search from
    the best few.  Every evaluated point is a hull point, so the maximum is a
    genuine lower bound whatever the search finds.
    """
    R = float(d.max())
    n = d.shape[0]
    if R == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.0, R, (draws, n))
    vals = embedding_gaps(d, *retract(d, G))
    best = float(vals.max())
    for s in np.argsort(-vals)[:starts]:
        g, cur, step = G[s].copy(), float(vals[s]), 0.25 * R
        for _ in range(rounds):
            C = np.clip(g[None, :] + rng.uniform(-step, step, (batch, n)), 0.0, R)
            v = embedding_gaps(d, *retract(d, C))
            j = int(np.argmax(v))
            if v[j] > cur:
                g, cur = C[j], float(v[j])
            else:
                step /= 2.0
        best = max(best, cur)
    return best


def delta_grid_upper(d: np.ndarray, per_axis: int, chunk: int = 8192) -> float:
    """A certified upper bound on delta from a grid over [0, diam]^n.

    With spacing h = diam / (per_axis - 1) every g lies within h/2 of a grid
    point, and gap o retract is 1-Lipschitz, so delta <= max over the grid of
    the gap + h/2.  Costs per_axis^n retractions.
    """
    R = float(d.max())
    n = d.shape[0]
    if R == 0.0:
        return 0.0
    axis = np.linspace(0.0, R, per_axis)
    h = R / (per_axis - 1)
    total = per_axis ** n
    best = 0.0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.stack(np.unravel_index(idx, (per_axis,) * n), axis=1)
        G = axis[digits]
        best = max(best, float(embedding_gaps(d, *retract(d, G)).max()))
    return best + h / 2.0


def distortion(wx: np.ndarray, wy: np.ndarray, pairs) -> float:
    """Worst |w_X(x, x') - w_Y(y, y')| over related pairs (x, y), (x', y')."""
    ix = np.array([p[0] for p in pairs])
    iy = np.array([p[1] for p in pairs])
    return float(np.abs(wx[np.ix_(ix, ix)] - wy[np.ix_(iy, iy)]).max())


def covers(pairs, nx: int, ny: int) -> bool:
    """True when the relation touches every point on both sides."""
    return {p[0] for p in pairs} == set(range(nx)) and {p[1] for p in pairs} == set(range(ny))


def brute_gh(wx: np.ndarray, wy: np.ndarray) -> float:
    """Half the least distortion over every relation covering both sides.

    Enumerates all 2^(nx*ny) subsets of the product; only for nx*ny <= 12.
    """
    nx, ny = len(wx), len(wy)
    if nx * ny > 12:
        raise ValueError("brute force is limited to nx * ny <= 12")
    cells = list(itertools.product(range(nx), range(ny)))
    ci = np.array([c[0] for c in cells])
    cj = np.array([c[1] for c in cells])
    cost = np.abs(wx[np.ix_(ci, ci)] - wy[np.ix_(cj, cj)])
    best = np.inf
    for mask in range(1, 1 << len(cells)):
        sel = [b for b in range(len(cells)) if mask >> b & 1]
        if len({ci[b] for b in sel}) < nx or len({cj[b] for b in sel}) < ny:
            continue
        best = min(best, float(cost[np.ix_(sel, sel)].max()))
    return best / 2.0
