"""Shared strategies and independent oracles for the test suite."""

import hypothesis.strategies as st
import numpy as np

from qmet import QSpace, ample_completion, random_qspace, triangle_closure
from qmet.gh import (
    DEFAULT_BUDGET,
    Correspondence,
    GHResult,
    RoughInverse,
    verify_rough_isometry,
)
from qmet.hull import PERTURB_RADIUS_FACTOR, HullSample
from qmet.pairs import (
    AmplePair,
    dquasi,
    dsym,
    embed_point,
    flat,
    residual,
    retract,
    retract_points,
    row_blocks,
    star,
)
from qmet.tolerances import AMPLE_TOL, slack


@st.composite
def qspaces(draw, min_n=2, max_n=5, symmetric=False, halves=False, closed=True):
    """Closed random spaces; with ``halves``, tie-heavy ones whose distances
    are all multiples of 1/2.  With ``closed=False`` the drawn matrix, with a
    diagonal drawn in [0, 0.5], is kept as it is and accepted at a tol as
    large as its triangle excess and its diagonal."""
    n = draw(st.integers(min_n, max_n))
    value = (
        st.sampled_from([0.5, 1.0, 1.5, 2.0])
        if halves
        else st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
    )
    vals = draw(st.lists(value, min_size=n * (n - 1), max_size=n * (n - 1)))
    m = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] = vals[k]
                k += 1
    if symmetric:
        m = np.maximum(m, m.T)
    if not closed:
        m[np.diag_indices(n)] = draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n))
        # the form of validate's check: d(i, j) - (d(i, k) + d(k, j))
        excess = (m[:, None, :] - (m[:, :, None] + m)).max()
        return QSpace(m, tol=max(excess, m.diagonal().max()))
    return QSpace(triangle_closure(m))


def random_ample_pair(X, rng, generic=True):
    """Ample pair: envelope completion of a random f1, optionally padded."""
    scale = X.diam + 0.1
    base = rng.uniform(0.0, 2.0 * scale, X.n)
    f = ample_completion(X, base)
    if not generic:
        return f
    pad1 = rng.uniform(0.0, 0.5 * scale, X.n)
    pad2 = rng.uniform(0.0, 0.5 * scale, X.n)
    return AmplePair(X, f.f1 + pad1, f.f2 + pad2)


def perturbed_space(X, rng, eta):
    """A nearby valid space: entrywise bump, floored positive, re-closed."""
    m = X.d + rng.uniform(-eta, eta, (X.n, X.n))
    np.fill_diagonal(m, 0.0)
    return QSpace(triangle_closure(np.maximum(m, 0.01)))


def permuted_copy(X, rng):
    perm = rng.permutation(X.n)
    return QSpace(X.d[np.ix_(perm, perm)]), perm


def brute_gh(X, Y):
    """Half the minimum distortion over *all* correspondences, by complete
    enumeration of the 2^(n m) subsets of the product (filtered for
    surjectivity).  Independent oracle for the solver; only for n*m <= ~12.
    """
    wx = X.d if isinstance(X, QSpace) else np.asarray(X, dtype=float)
    wy = Y.d if isinstance(Y, QSpace) else np.asarray(Y, dtype=float)
    nx, ny = len(wx), len(wy)
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    full_x = (1 << nx) - 1
    full_y = (1 << ny) - 1
    best = np.inf
    for mask in range(1, 1 << (nx * ny)):
        cover_x = 0
        cover_y = 0
        pairs = []
        for b, (i, j) in enumerate(cells):
            if mask >> b & 1:
                pairs.append((i, j))
                cover_x |= 1 << i
                cover_y |= 1 << j
        if cover_x != full_x or cover_y != full_y:
            continue
        dis = 0.0
        for (i, j) in pairs:
            for (k, l) in pairs:
                dis = max(dis, abs(wx[i, k] - wy[j, l]))
        if dis < best:
            best = dis
    return best / 2.0


def same_bits(A, B):
    """Equal shapes and bit patterns; np.array_equal takes -0.0 for +0.0."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return A.shape == B.shape and np.array_equal(A.view(np.uint64), B.view(np.uint64))


def rng_spaces(count, n, seed, scale=1.0, symmetric=False):
    rng = np.random.default_rng(seed)
    return [random_qspace(n, rng, scale=scale, symmetric=symmetric) for _ in range(count)]


def reference_distortion(R):
    """The distortion as ``distortion`` computed it before the row-blocked
    kernel, kept as its independent oracle: one unblocked np.ix_ gather of
    each side over the whole relation."""
    wl = R.left.d if isinstance(R.left, QSpace) else np.asarray(R.left, dtype=float)
    wr = R.right.d if isinstance(R.right, QSpace) else np.asarray(R.right, dtype=float)
    px = np.array([p[0] for p in R.pairs])
    py = np.array([p[1] for p in R.pairs])
    with np.errstate(over="ignore"):
        return float(np.abs(wl[np.ix_(px, px)] - wr[np.ix_(py, py)]).max())


def reference_glue_matrix(X, Y, R, eps):
    """The glued matrix of ``glue_space`` in plain loops: d(x, y) is the least
    d_X(x, x') + d_Y(y', y) over (x', y') in R, plus eps, and d(y, x) the
    least d_Y(y, y') + d_X(x', x)."""
    dx, dy = X.d.tolist(), Y.d.tolist()
    Z = np.zeros((X.n + Y.n, X.n + Y.n))
    Z[:X.n, :X.n], Z[X.n:, X.n:] = X.d, Y.d
    for x in range(X.n):
        for y in range(Y.n):
            Z[x, X.n + y] = min(dx[x][a] + dy[b][y] for a, b in R.pairs) + eps
            Z[X.n + y, x] = min(dy[y][b] + dx[a][x] for a, b in R.pairs) + eps
    return Z


def reference_triangle_closure(matrix):
    """Floyd-Warshall in three plain loops, repeated to a float fixpoint.
    With a zero diagonal and no negative entry, row and column k do not move
    while k is the pivot, so this is the order of ``triangle_closure``."""
    d = np.asarray(matrix, dtype=float).tolist()
    n = len(d)
    for i in range(n):
        d[i][i] = 0.0
    for _ in range(n + 1):
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if d[i][k] + d[k][j] < d[i][j]:
                        d[i][j], changed = d[i][k] + d[k][j], True
        if not changed:
            break
    return np.array(d)


def reference_floor(wx, wy):
    """The local-spectrum floor of ``gh_exact`` in plain loops: for each cell
    (x, y), the sup-norm Hausdorff distance between {(wx[x, x'], wx[x', x])}
    and {(wy[y, y'], wy[y', y])}, over Python floats."""
    wx, wy = np.asarray(wx, dtype=float).tolist(), np.asarray(wy, dtype=float).tolist()
    nx, ny = len(wx), len(wy)
    floor = [[0.0] * ny for _ in range(nx)]
    for x in range(nx):
        for y in range(ny):
            gap = [
                [max(abs(wx[x][a] - wy[y][b]), abs(wx[a][x] - wy[b][y])) for b in range(ny)]
                for a in range(nx)
            ]
            floor[x][y] = max(max(map(min, gap)), max(map(min, zip(*gap))))
    return floor


def reference_gh(X, Y, budget=DEFAULT_BUDGET):
    """The recursive branch and bound that ``gh_exact`` replaced, kept as
    its reference: same levels, cost floor and candidate order, one Python
    frame per level and one numpy reduction per candidate, no look-ahead
    bound and no stop at the root bound.  The floor (``reference_floor``)
    applies under the same one-block gate as in ``gh_exact``."""
    wx = X.d if isinstance(X, QSpace) else np.asarray(X, dtype=float)
    wy = Y.d if isinstance(Y, QSpace) else np.asarray(Y, dtype=float)
    nx, ny = len(wx), len(wy)
    floor = np.zeros((nx, ny))
    if len(row_blocks(nx * ny, nx * ny)) == 1:
        floor = np.array(reference_floor(wx, wy))
    phi = [0] * nx
    psi = [0] * ny
    state = {"best": np.inf, "phi": None, "psi": None, "nodes": 0, "aborted": False}

    def inc_phi(i, y):
        m = max(abs(wx[i, i] - wy[y, y]), floor[i, y])
        if i:
            a = phi[:i]
            m = max(
                m,
                np.abs(wx[i, :i] - wy[y, a]).max(),
                np.abs(wx[:i, i] - wy[a, y]).max(),
            )
        return float(m)

    def inc_psi(j, x):
        m = max(
            abs(wy[j, j] - wx[x, x]),
            floor[x, j],
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

    def descend(level, cur):
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
        full = Correspondence(X, Y, tuple((i, j) for i in range(nx) for j in range(ny)))
        return GHResult(reference_distortion(full) / 2.0, full, False, state["nodes"])
    pairs = {(i, state["phi"][i]) for i in range(nx)}
    pairs |= {(state["psi"][j], j) for j in range(ny)}
    R = Correspondence(X, Y, tuple(sorted(pairs)))
    return GHResult(float(state["best"]) / 2.0, R, not state["aborted"], state["nodes"])


def reference_is_isometric(X, Y, tol=1e-9):
    """The recursive backtracking that ``is_isometric`` replaced, kept as its
    reference: same profile pruning, point order and candidate order."""
    if X.n != Y.n:
        return None
    n = X.n
    px = [(np.sort(X.d[i, :]), np.sort(X.d[:, i])) for i in range(n)]
    py = [(np.sort(Y.d[i, :]), np.sort(Y.d[:, i])) for i in range(n)]
    cand = []
    for i in range(n):
        row = [
            j
            for j in range(n)
            if np.abs(px[i][0] - py[j][0]).max() <= tol
            and np.abs(px[i][1] - py[j][1]).max() <= tol
        ]
        if not row:
            return None
        cand.append(row)
    order = sorted(range(n), key=lambda i: len(cand[i]))
    perm = [-1] * n
    used = [False] * n

    def extend(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in cand[i]:
            if used[j]:
                continue
            ok = True
            for q in range(pos):
                p = order[q]
                if (
                    abs(X.d[i, p] - Y.d[j, perm[p]]) > tol
                    or abs(X.d[p, i] - Y.d[perm[p], j]) > tol
                ):
                    ok = False
                    break
            if ok:
                perm[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                perm[i] = -1
                used[j] = False
        return False

    return perm if extend(0) else None


# The pair kernel as it was written before it reduced over a leading point
# axis: the same subtractions, reduced over the trailing axis.  References
# that the kernel must match bit for bit.
def reference_star(d, F1):
    return np.maximum((d - F1[..., None, :]).max(axis=-1), 0.0)


def reference_flat(d, F2):
    return np.maximum((d - F2[..., :, None]).max(axis=-2), 0.0)


def reference_dsym(F1, F2, G1, G2):
    up = F1 - G1
    up = np.abs(up, out=up).max(axis=-1)
    down = F2 - G2
    return np.maximum(up, np.abs(down, out=down).max(axis=-1))


def reference_average_projection(d, F1, F2):
    """The averaging that ``project_arrays`` ran before it became the exact
    retraction, kept as an independent oracle for ``retract``: f <- (f + f*)/2
    until the residual ||f - f*|| is at most 1e-12 (the residual halves each
    round), then clamped by the input."""
    G1, G2 = np.array(F1, dtype=float), np.array(F2, dtype=float)
    for _ in range(200):
        S1, S2 = flat(d, G2), star(d, G1)
        if dsym(G1, G2, S1, S2).max() <= 1e-12:
            break
        G1, G2 = (G1 + S1) / 2.0, (G2 + S2) / 2.0
    return np.minimum(G1, F1), np.minimum(G2, F2)


def reference_net_matrix(H):
    F1 = np.stack([p.f1 for p in H.points])
    F2 = np.stack([p.f2 for p in H.points])
    D = np.maximum(
        np.maximum((F1[:, None, :] - F1[None, :, :]).max(axis=2), 0.0),
        np.maximum((F2[None, :, :] - F2[:, None, :]).max(axis=2), 0.0),
    )
    n = H.space.n
    D[:n, :n] = H.space.d
    return D


def reference_sample_hull(X, k, seed=0):
    """The sampler that ``sample_hull`` replaced, kept as its reference: one
    candidate at a time against the whole pool, each perturbed candidate
    retracted on its own, a residual and an AmplePair per candidate, and the
    spread from the full (m, m, n) gap stack.  The generator draws as
    ``sample_hull`` does: the fresh g, then the bases, then the bumps, and a
    candidate merges at the same level, ``slack(0.0, diam)``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = np.random.default_rng(seed)
    points = [embed_point(X, i) for i in range(X.n)]
    B1 = np.empty((X.n + k, X.n))
    B2 = np.empty((X.n + k, X.n))
    B1[: X.n] = np.stack([p.f1 for p in points])
    B2[: X.n] = np.stack([p.f2 for p in points])
    R = X.diam
    tol = slack(0.0, R)

    def try_add(f1, f2, res):
        m = len(points)
        if dsym(B1[:m], B2[:m], f1, f2).min() > tol:
            points.append(
                AmplePair(X, f1, f2, certified_minimal=True, certified_tol=float(res))
            )
            B1[m], B2[m] = f1, f2

    if k > 0 and R > 0.0:
        n_fresh = (k + 1) // 2
        C1 = rng.uniform(0.0, 2.0 * R, size=(n_fresh, X.n))
        P1, P2, res = retract(X.d, C1)
        for i in range(n_fresh):
            try_add(P1[i], P2[i], res[i])

        bases = rng.integers(0, len(points), size=k - n_fresh)
        radius = PERTURB_RADIUS_FACTOR * R
        bumps = rng.uniform(-radius, radius, size=(k - n_fresh, X.n))
        for base, bump in zip(bases, bumps):
            p1, p2, res = retract(X.d, np.maximum(B1[base] + bump, 0.0))
            try_add(p1, p2, res)

    F1, F2 = B1[: len(points)], B2[: len(points)]
    gaps = dsym(F1[:, None, :], F2[:, None, :], F1, F2)
    np.fill_diagonal(gaps, np.inf)
    return HullSample(X, tuple(points), seed, float(gaps.min()))


def reference_net_gh_upper(HX, HY):
    """The net GH bound that ``net_gh_upper`` replaced, kept as its
    reference: the snapped maps assembled into one correspondence whose
    distortion is taken over the whole relation at once."""
    X, Y = HX.space, HY.space
    if X.n != Y.n:
        raise ValueError("net GH bound requires spaces on the same index set")
    eta = float(np.abs(X.d - Y.d).max())

    def snapped(source, target, pad):
        F1 = np.stack([p.f1 for p in source.points])
        P1, P2, _ = retract(target.space.d, F1 + pad)
        T1 = np.stack([p.f1 for p in target.points])
        T2 = np.stack([p.f2 for p in target.points])
        return dsym(P1[:, None, :], P2[:, None, :], T1, T2).argmin(axis=1).tolist()

    pairs = list(enumerate(snapped(HX, HY, eta / 2.0)))
    pairs += [(i, j) for j, i in enumerate(snapped(HY, HX, eta / 2.0))]
    R = Correspondence(
        reference_net_matrix(HX), reference_net_matrix(HY), tuple(sorted(set(pairs)))
    )
    return reference_distortion(R) / 2.0


def reference_evaluate_boxes(X, A, B):
    """``coarse._evaluate_boxes`` as it read when ``retract`` measured its
    residual with a second flat(P2) and the corner rows came from np.split,
    kept as its reference with every box in one block: the delta brackets
    must not move."""
    d = X.d
    P1, P2 = retract_points(d, np.concatenate([A, B, (A + B) / 2.0]))
    res = residual(d, P1, P2)
    P1, P2 = P1[:, None, :], P2[:, None, :]
    best = max(0.0, float((dsym(P1, P2, d, d.T).min(axis=1) - res).max()))
    (P1a, P1b, _), (P2a, P2b, _) = np.split(P1, 3), np.split(P2, 3)
    up = np.maximum(dquasi(P1b, P2b, d, d.T), dquasi(d, d.T, P1a, P2a))
    return best, up.min(axis=1)


def reference_candidates(X, Y, tol):
    """The double loop that built ``is_isometric``'s candidate lists: one
    comparison of sorted profiles per pair of points."""
    px = [(np.sort(X.d[i, :]), np.sort(X.d[:, i])) for i in range(X.n)]
    py = [(np.sort(Y.d[i, :]), np.sort(Y.d[:, i])) for i in range(Y.n)]
    return [
        [
            j
            for j in range(Y.n)
            if np.abs(px[i][0] - py[j][0]).max() <= tol
            and np.abs(px[i][1] - py[j][1]).max() <= tol
        ]
        for i in range(X.n)
    ]


def reference_family_violation(X, F, tol=AMPLE_TOL):
    """The double loop that ``family_violation`` replaced: the first worst
    (i, j) in loop order, of the excesses past slack(tol, diam)."""
    tol, worst = slack(tol, X.diam), None
    for i, (xi, ri, _) in enumerate(F.entries):
        for j, (xj, _, sj) in enumerate(F.entries):
            excess = X.d[xi, xj] - ri - sj
            if excess > tol and (worst is None or excess > worst[2]):
                worst = (i, j, float(excess))
    return worst


def reference_find_center(X, F, delta, atol=1e-12):
    """The z-loop that ``find_center`` replaced, for a feasible non-empty
    family: the lowest z inside every inflated two-sided ball, or None."""
    xs = np.array([e[0] for e in F.entries])
    rs = np.array([e[1] for e in F.entries])
    ss = np.array([e[2] for e in F.entries])
    for z in range(X.n):
        if (X.d[xs, z] <= rs + delta + atol).all() and (
            X.d[z, xs] <= ss + delta + atol
        ).all():
            return z
    return None


# The witness conversions as ``gh.py`` wrote them before they became index
# array expressions: a dict of first partners, a double loop and one argmin
# per target point.  The library must match them bit for bit.
def reference_rough_isometry_from_correspondence(R):
    first = {}
    for i, j in R.pairs:
        first.setdefault(i, j)
    phi = [first[i] for i in range(R.left.n)]
    return verify_rough_isometry(phi, R.left, R.right)


def reference_correspondence_from_rough_isometry(w):
    ds = w.target.dsym
    pairs = [
        (x, y)
        for x in range(w.source.n)
        for y in range(w.target.n)
        if ds[w.map[x], y] <= w.eps
    ]
    return Correspondence(w.source, w.target, tuple(pairs))


def reference_rough_inverse(w):
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
