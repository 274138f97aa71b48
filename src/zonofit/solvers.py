"""Small dense convex solvers used by the geometry and descent layers.

Four problem shapes, all solved in dense numpy at desk scale:

* LPs in one form, max c @ x over A x >= b with x free, via a two-phase
  simplex (``solve_lp``); vertex tests, the stability LP and the two
  LPs below write their rows in it,
* box-constrained least squares for point-to-zonotope projection
  (``box_least_squares``),
* min-norm point over a convex hull for point-to-polytope projection
  (``project_to_hull``),
* cone-interior and Chebyshev-center LPs built on ``solve_lp``; no
  ``src`` code calls either (the tests use the first as the LP oracle of
  the min-norm cone rule, and the benchmark tracer names both).

The tolerances are module constants shared by every solver
(``FEASIBILITY_TOL``, ``KKT_TOL``, ``ITERATION_FACTOR``); only
``solve_lp`` takes its feasibility tolerance as a keyword, and only the
locality check's stability LP sets it (``hausdorff._STABILITY_LP_TOL``,
a laxer 1e-7).

The two projections end in a row-batched face tail that returns its rows
as arrays: ``_box_rows`` takes the box loop's coefficients and
``_hull_rows`` Wolfe's corrals, or any corrals, which it solves and
marks ``ok`` where they pass Wolfe's stopping test. The Hausdorff sweeps
run every polytope row through the box loop (``_box_active_set``) as one
stack in lockstep, with stacked gradient products and one face solve per
free set. A zonotope row inside the polytope is its own projection and
reaches no solver; the sweeps solve the others first on a lent corral or
on the polytope face each projects onto, one solve per face size, and
keep the ok ones; the rest run Wolfe's loop (``_wolfe``) as one stack in
lockstep, with one stacked affine solve per corral size.
Each loop ends each row with the bits it has alone; ``box_least_squares``
and ``project_to_hull`` are the loops on one row, and the extreme-point
test runs Wolfe's on one row per point.

Everything is deterministic: the simplex pivots with Bland's rule and the
active-set loops break ties by lowest index, so identical inputs always
produce identical outputs. That property is what makes descent traces
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegion, IterationLimit, UnboundedRegion

__all__ = [
    "LPResult",
    "solve_lp",
    "BoxProjection",
    "box_least_squares",
    "HullProjection",
    "project_to_hull",
    "chebyshev_center",
    "ConeInteriorResult",
    "cone_interior_point",
]


# Accepted LP primal residual, relative to 1 + |b|_inf.
FEASIBILITY_TOL = 1e-9
# Accepted stationarity/complementarity residual of the projections.
KKT_TOL = 1e-9
# Iteration cap multiplier on (variables + constraints).
ITERATION_FACTOR = 10

# Pivot magnitude below which a tableau entry is treated as zero.
_PIVOT_TOL = 1e-10
# Reduced-cost threshold for Bland's entering rule.
_COST_TOL = 1e-11


@dataclass(frozen=True)
class LPResult:
    """Outcome of ``solve_lp``: ``status`` is "optimal", "infeasible" or
    "unbounded"; ``x`` and ``value`` are set on optimal exits only."""

    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T, basis, row, col):
    """Pivot tableau ``T`` on (row, col): scale the row to a unit pivot,
    then clear the column from every other row in one rank-1 update."""
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
    basis[row] = col


def _bland_simplex(T, basis, allowed, cap):
    """Run simplex pivots on tableau ``T`` until optimal or unbounded.

    T has shape (m+1, N+1); the last row holds reduced costs, the last
    column the rhs. ``allowed`` masks columns permitted to enter. Bland's
    rule: lowest eligible entering index; leaving row by min ratio with ties
    broken by the lowest basis index. Returns "optimal" or "unbounded".
    """
    m = T.shape[0] - 1
    for _ in range(cap):
        cost = T[-1, :-1]
        # Entering tolerance tracks the cost row's magnitude: after pivots
        # with large multipliers, sub-noise reduced costs must not enter.
        tol_c = _COST_TOL + 1e-9 * float(np.abs(cost).max(initial=0.0))
        eligible = np.flatnonzero(allowed & (cost < -tol_c))
        if eligible.size == 0:
            return "optimal"
        entering = eligible[0]
        col = T[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        _pivot(T, basis, tied[np.argmin([basis[i] for i in tied])], entering)
    raise IterationLimit("simplex iteration cap exceeded")


def solve_lp(objective, lhs, rhs, feasibility_tol: float = FEASIBILITY_TOL) -> LPResult:
    """Maximize objective @ x subject to lhs @ x >= rhs, with x free.

    Two-phase dense simplex with Bland's rule on the standard form
    x = x+ - x-, one surplus per row and one artificial per row with
    rhs > 0. A row with rhs <= 0 is negated, so it starts on its surplus;
    phase 1 drives out the artificials, which never enter. An optimal x
    meets every row within feasibility_tol * (1 + |rhs|_inf). Raises
    ValueError for inconsistent or non-finite data, and IterationLimit
    when the pivot budget runs out (numerical trouble a caller may handle
    by perturbing).
    """
    c = np.asarray(objective, dtype=float)
    A = np.atleast_2d(np.asarray(lhs, dtype=float))
    b = np.asarray(rhs, dtype=float)
    if A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
        raise ValueError("LP data must be finite")
    m, n = A.shape
    art = b > 0.0
    ns = 2 * n + m  # columns that may enter: x+, x-, surplus
    N = ns + int(art.sum())
    T = np.zeros((m + 1, N + 1))
    T[:m, :N] = np.where(art, 1.0, -1.0)[:, None] * np.hstack(
        [A, -A, -np.eye(m), np.eye(m)[:, art]])
    T[:m, -1] = np.abs(b)
    basis = np.where(art, ns + np.cumsum(art) - 1, 2 * n + np.arange(m)).tolist()
    allowed = np.arange(N) < ns
    cap = max(200, ITERATION_FACTOR * (N + m) * 4)

    if N > ns:
        # Phase 1: minimize the sum of artificials. It is bounded below by
        # zero, so an "unbounded" claim is pivot noise; the objective check
        # below decides feasibility.
        T[-1, ns:N] = 1.0
        T[-1] -= T[:m][art].sum(axis=0)
        _bland_simplex(T, basis, allowed, cap)
        scale = 1.0 + np.abs(b).max(initial=0.0)
        if -T[-1, -1] > feasibility_tol * scale:
            return LPResult(status="infeasible")
        # Drive basic artificials out where possible.
        for i in range(m):
            if basis[i] >= ns and abs(T[i, -1]) <= feasibility_tol * scale:
                nonzero = np.flatnonzero(np.abs(T[i, :ns]) > _PIVOT_TOL)
                if nonzero.size:
                    _pivot(T, basis, i, int(nonzero[0]))

    # Phase 2 minimizes -objective @ x.
    T[-1] = 0.0
    T[-1, :n], T[-1, n:2 * n] = -c, c
    for i, bcol in enumerate(basis):
        if T[-1, bcol] != 0.0:
            T[-1] -= T[-1, bcol] * T[i]
    if _bland_simplex(T, basis, allowed, cap) == "unbounded":
        return LPResult(status="unbounded")
    x_std = np.zeros(N)
    x_std[basis] = np.maximum(T[:m, -1], 0.0)
    x = x_std[:n] - x_std[n:2 * n]
    return LPResult(status="optimal", x=x, value=float(c @ x))


@dataclass(frozen=True)
class BoxProjection:
    """Result of projecting a point onto a zonotope (box-constrained LS)."""

    coefficients: np.ndarray  # x in [0,1]^n
    point: np.ndarray  # x @ generators + translation
    distance: float
    kkt_residual: float


def box_least_squares(generators: np.ndarray, translation: np.ndarray,
                      target: np.ndarray, start=None) -> BoxProjection:
    """Minimize |x @ generators + translation - target| over x in [0,1]^n.

    Active-set method (bounded-variable least squares). At the solution the
    KKT conditions hold within ``KKT_TOL`` relative to the data
    scale: the negative gradient is <= 0 at lower-bounded coordinates,
    >= 0 at upper-bounded ones and ~ 0 at free ones. Coordinates at a bound
    are returned exactly 0.0 or 1.0, which downstream face detection relies
    on.

    The loop starts at x = 0, or at the cube vertex ``start`` (0/1 bits):
    BVLS may start anywhere with every coordinate at a bound. A target
    outside a general-position zonotope has one optimal face, which the
    loop ends on with the same face solve from any start, so a start there
    changes only the number of face solves, not the result's bits (unless
    a second face passes the stopping test, as near-parallel generators
    allow).
    """
    G, mu = np.asarray(generators, dtype=float), np.asarray(translation, dtype=float)
    T = np.asarray(target, dtype=float)[None]
    starts = np.zeros((1, len(G))) if start is None else np.asarray(start)[None]
    X = _box_active_set(G, T - mu, starts)
    points, dist, kkt = _box_rows(G, mu, T, X)
    return BoxProjection(coefficients=X[0], point=points[0], distance=float(dist[0]),
                         kkt_residual=float(kkt[0]))


def _box_rows(G, mu, targets, X):
    """The face tail of ``box_least_squares`` on many rows at once: the rows
    X of the active-set loop, each solved on its free set (coefficients
    strictly inside (0, 1)) by ``_face_solve``. Returns (points, distances,
    kkt residuals) as arrays, a row per target."""
    Y = targets - mu
    P = np.einsum("rn,nd->rd", X, G)
    E = Y - P
    W = np.einsum("nd,rd->rn", G, E)  # negative gradient
    free = (X > 0.0) & (X < 1.0)
    kkt = np.where(free, np.abs(W), np.where(X == 0.0, W, -W)).max(axis=1, initial=0.0)
    return P + mu, np.sqrt(np.einsum("rd,rd->r", E, E)), kkt


def _face_solve(G, Y, X, f) -> np.ndarray:
    """Least-squares coefficients on the free set f for each row of Y, the
    others at their values in X: one lstsq, a right-hand side per row."""
    if not f.any():
        return np.zeros((len(Y), 0))
    R = Y - np.einsum("rn,nd->rd", np.where(f, 0.0, X), G)
    return np.linalg.lstsq(G[f].T, R.T, rcond=None)[0].T


def _box_active_set(G, Y, starts) -> np.ndarray:
    """The active-set loop of ``box_least_squares`` on each row of Y, from
    the cube vertex of its row of ``starts`` (0/1 bits), every row in
    lockstep; returns X, a row per row of Y. Each round the rows in pricing
    take their negative gradients from two stacked products, which give
    each row the bits of its own ``x @ G`` and ``G @ r``, and the rows in a
    face solve share one ``_face_solve`` per free set. The per-coordinate
    bookkeeping is each row's own, on Python floats, with the comparisons
    and order of operations it has alone: each row ends with the bits it
    has when run alone."""
    rows, n = len(Y), G.shape[0]
    scale = 1.0 + np.sqrt(np.einsum("rd,rd->r", Y, Y))  # the stopping test's, per row
    tol = (KKT_TOL * (1.0 + float(np.abs(G).max(initial=0.0)) * scale)).tolist()
    X = (np.asarray(starts) > 0.5).astype(float).tolist()
    status = [[1 if xi else -1 for xi in x] for x in X]  # -1 lower, 0 free, +1 upper
    cap = max(100, ITERATION_FACTOR * 6 * (n + 1))
    blocked = [-1] * rows  # variable pinned back with zero progress last cycle
    worst, prices, solves = [-1] * rows, [0] * rows, [0] * rows
    pricing, solving = list(range(rows)), []

    while pricing or solving:
        if pricing:
            R = Y[pricing] - (np.array([X[k] for k in pricing])[:, None, :] @ G)[:, 0]
            for k, w in zip(pricing, (G @ R[:, :, None])[:, :, 0].tolist()):  # -gradients
                if prices[k] == cap:
                    raise IterationLimit("box least squares did not converge")
                prices[k] += 1
                worst[k], worst_v = -1, tol[k]
                for i, (s, wi) in enumerate(zip(status[k], w)):
                    v = wi if s == -1 and wi > tol[k] else -wi if s == 1 and wi < -tol[k] else 0.0
                    if i != blocked[k] and v > worst_v + 1e-15:
                        worst[k], worst_v = i, v
                if worst[k] >= 0:  # else row k is done
                    status[k][worst[k]] = 0
                    blocked[k], solves[k] = -1, 0
                    solving.append(k)
        faces = {}
        for k in solving:
            faces.setdefault(tuple(s == 0 for s in status[k]), []).append(k)
        pricing, solving = [], []
        for f, group in faces.items():
            free = [i for i, fi in enumerate(f) if fi]
            Z = _face_solve(G, Y[group], np.array([X[k] for k in group]), np.array(f))
            for k, z in zip(group, Z.tolist()):
                x = X[k]
                solves[k] += 1
                lo_viol = [zk < -1e-12 for zk in z]
                hi_viol = [zk > 1.0 + 1e-12 for zk in z]
                if not any(lo_viol) and not any(hi_viol):
                    snap = False
                    for i, zk in zip(free, z):
                        x[i] = min(max(zk, 0.0), 1.0)
                        if x[i] <= 1e-12 or x[i] >= 1.0 - 1e-12:
                            x[i] = 0.0 if x[i] <= 1e-12 else 1.0
                            status[k][i] = -1 if x[i] == 0.0 else 1
                            snap = True
                    # A snap solves again on the smaller free set; otherwise x
                    # is the face solve on its free set, as the tail needs.
                    (solving if snap and solves[k] < cap else pricing).append(k)
                    continue
                # Step from x toward z until the first bound is hit.
                alphas = [(0.0 - x[i]) / (zk - x[i]) if lo else (1.0 - x[i]) / (zk - x[i]) if hi
                          else 1.0 for i, zk, lo, hi in zip(free, z, lo_viol, hi_viol)]
                alpha = max(min(min(alphas), 1.0), 0.0)
                kstar = alphas.index(min(alphas))  # a violating coordinate: its alpha is < 1
                for j, (i, zk) in enumerate(zip(free, z)):
                    x[i] += alpha * (zk - x[i])
                    if j == kstar or x[i] <= 1e-12 or x[i] >= 1.0 - 1e-12:
                        x[i] = 0.0 if lo_viol[j] or x[i] <= 1e-12 else 1.0
                        status[k][i] = -1 if x[i] == 0.0 else 1
                if alpha == 0.0 and free[kstar] == worst[k]:
                    blocked[k] = worst[k]  # avoid freeing the same variable right away
                (solving if solves[k] < cap else pricing).append(k)
    return np.array(X)


@dataclass(frozen=True)
class HullProjection:
    """Result of projecting a point onto the convex hull of a point set."""

    weights: np.ndarray  # convex coefficients over the input points
    point: np.ndarray
    distance: float
    kkt_residual: float
    corral: tuple  # the points of positive weight, in Wolfe's final order


def project_to_hull(points: np.ndarray, target: np.ndarray) -> HullProjection:
    """Min-norm point of conv(points) - target, via Wolfe's algorithm.

    Maintains a corral of affinely independent points; major iterations add
    the most violating point (lowest index on ties), minor iterations
    restore convex weights. Finite termination up to tolerances.
    """
    V = np.atleast_2d(np.asarray(points, dtype=float))
    T = np.asarray(target, dtype=float)[None]
    corrals, weights = _wolfe(V - T[:, None])
    W, points, dist, kkt, _ = _hull_rows(V, T, corrals, weights)
    return HullProjection(weights=W[0], point=points[0], distance=float(dist[0]),
                          kkt_residual=float(kkt[0]), corral=tuple(corrals[0]))


def _hull_rows(V, targets, corrals, weights=None):
    """The face tail of ``project_to_hull`` on many rows at once: target k
    against the points V, or against V[k] when V stacks one point set per
    row. Returns (W, points, distances, kkt residuals, ok) as arrays, a row
    per target, W over the points. Row k's weights on ``corrals[k]`` are
    ``weights[k]`` when given (Wolfe's, from the same solve); otherwise the
    affine min-norm solve on it in its order, one stacked solve per corral
    size, and the row is ok only if the corral is not empty, every weight
    is positive and Wolfe's stopping test passes, which proves it optimal."""
    S = V - targets[:, None]
    W = np.zeros(S.shape[:2])
    ok = np.full(len(W), weights is not None)
    for m in set(map(len, corrals)) - {0}:
        rows = [k for k, corral in enumerate(corrals) if len(corral) == m]
        at = (np.array(rows)[:, None], np.array([corrals[k] for k in rows]))
        if weights is None:
            lam = _affine_min_norm(S[at])
            ok[rows] = lam.min(axis=1) > 1e-12
        else:
            lam = np.array([weights[k] for k in rows])
        W[at] = lam
    X = np.einsum("rn,rnd->rd", W, S)
    dots = np.einsum("rnd,rd->rn", S, X).min(axis=1)
    xx = np.einsum("rd,rd->r", X, X)
    if weights is None:
        ok &= dots >= xx - KKT_TOL * (1.0 + np.einsum("rnd,rnd->rn", S, S).max(axis=1))
    return W, targets + X, np.sqrt(xx), np.maximum(0.0, xx - dots), ok


def _solve_stack(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of a stack, each matrix as it is solved alone:
    least squares for one that is exactly singular."""
    try:
        return np.linalg.solve(K, B)
    except np.linalg.LinAlgError:
        if len(K) == 1:
            return np.linalg.lstsq(K[0], B[0], rcond=None)[0][None]
        return np.concatenate([_solve_stack(K[k:k + 1], B[k:k + 1]) for k in range(len(K))])


def _affine_min_norm(C: np.ndarray) -> np.ndarray:
    """Weights of the min-norm point of the affine hull of the rows of each
    C[k] in a stack C of shape (r, m, d): one stacked solve of the bordered
    Gram systems, which solves each matrix exactly as it would alone."""
    r, m, _ = C.shape
    K = np.ones((r, m + 1, m + 1))
    K[:, :m, :m] = np.einsum("rid,rjd->rij", C, C)
    K[:, m, m] = 0.0
    e = np.zeros((r, m + 1, 1))  # a column per matrix: NumPy 1 reads a 1-D b as a matrix
    e[:, m] = 1.0
    alpha = _solve_stack(K, e)[:, :m, 0]
    ssum = alpha.sum(axis=1, keepdims=True)
    return alpha / np.where(np.abs(ssum) > 1e-12, ssum, 1.0)


def _wolfe(S):
    """Wolfe's loop on each S[k] of a stack S (rows, points, d), every row in
    lockstep; returns each row's final corral, in order, and the corral's
    weights (its last affine min-norm solve), as two lists. Each round every
    row in a major step takes it alone (S[k] @ x, the argmin, the stopping
    test), and the rows in a minor step share one ``_affine_min_norm`` per
    corral size, which solves each row's system exactly as it would alone:
    each row ends with the bits it has when run alone."""
    rows, m, d = S.shape
    cap = max(100, ITERATION_FACTOR * 4 * (m + d))
    norms2 = np.einsum("rij,rij->ri", S, S)
    first = norms2.argmin(axis=1).tolist()
    eps = (KKT_TOL * (1.0 + norms2.max(axis=1, initial=0.0))).tolist()
    x = list(S[np.arange(rows), first])
    corral = [[j] for j in first]
    lam = [np.array([1.0]) for _ in range(rows)]
    majors, minors = [0] * rows, [0] * rows
    major, minor = list(range(rows)), []

    while major or minor:
        for k in major:
            if majors[k] == cap:
                raise IterationLimit("min-norm point did not converge")
            majors[k] += 1
            dots = S[k] @ x[k]
            cand = int(dots.argmin())
            if dots[cand] >= x[k] @ x[k] - eps[k] or cand in corral[k]:
                continue  # row k is done
            corral[k].append(cand)
            lam[k] = np.concatenate((lam[k], (0.0,)))
            minors[k] = 0
            minor.append(k)
        major, waiting, minor = [], minor, []
        for size in {len(corral[k]) for k in waiting}:
            group = [k for k in waiting if len(corral[k]) == size]
            alphas = _affine_min_norm(S[np.array(group)[:, None], [corral[k] for k in group]])
            for k, alpha, positive in zip(group, alphas, (alphas.min(axis=1) > 1e-12).tolist()):
                minors[k] += 1
                if positive:
                    lam[k] = alpha
                else:
                    mask = alpha <= 1e-12
                    denom = lam[k][mask] - alpha[mask]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        thetas = np.where(denom > 1e-15, lam[k][mask] / denom, 0.0)
                    theta = float(np.clip(thetas.min(), 0.0, 1.0))
                    lam[k] = lam[k] + theta * (alpha - lam[k])
                    lam[k][np.asarray(mask).nonzero()[0][np.argmin(thetas)]] = 0.0
                    keep = lam[k] > 1e-14
                    corral[k] = [c for c, kf in zip(corral[k], keep) if kf]
                    lam[k] = lam[k][keep]
                    if not corral[k]:  # numerical collapse; restart from best point
                        corral[k], lam[k] = [first[k]], np.array([1.0])
                    elif minors[k] < cap:
                        minor.append(k)
                        continue
                x[k] = lam[k] @ S[k, corral[k]]
                major.append(k)
    return corral, lam


def chebyshev_center(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball in {x : normals x <= offsets}.

    Solves  max r  s.t.  <a_i, x> + r |a_i| <= b_i  (rows negated).  Raises
    UnboundedRegion when the radius grows without bound and
    InfeasibleRegion when the region is empty (optimal radius < 0).
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.asarray(offsets, dtype=float)
    d = A.shape[1]
    obj = np.zeros(d + 1)
    obj[-1] = 1.0
    res = solve_lp(obj, -np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]), -b)
    if res.status == "unbounded":
        raise UnboundedRegion("no bounded inscribed ball")
    if res.status != "optimal":
        raise InfeasibleRegion("empty halfspace region")
    radius = float(res.x[-1])
    if radius < -FEASIBILITY_TOL * (1.0 + np.abs(b).max(initial=0.0)):
        raise InfeasibleRegion("empty halfspace region")
    return res.x[:d].copy(), radius


@dataclass(frozen=True)
class ConeInteriorResult:
    """Outcome of the cone interior test  max t : A x >= t, |x|_inf <= 1."""

    interior: bool
    x: np.ndarray
    margin: float


# Margin below which the cone is declared to have empty interior.
CONE_INTERIOR_MARGIN = 1e-8


def cone_interior_point(A: np.ndarray) -> ConeInteriorResult:
    """Find a point with A x >= t * 1 on the unit box, maximizing t.

    Rows are normalized first so the reported margin is scale-free; zero
    rows stay zero and force an empty interior. Always feasible (x = 0,
    t = 0), so the result is never an error.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, d = A.shape
    norms = np.linalg.norm(A, axis=1)
    An = np.where(norms[:, None] > 0.0, A / np.where(norms[:, None] == 0.0, 1.0, norms[:, None]), 0.0)
    obj = np.zeros(d + 1)
    obj[-1] = 1.0
    box = np.eye(d, d + 1)  # |x|_inf <= 1 as 2d rows
    lhs = np.vstack([np.hstack([An, -np.ones((m, 1))]), box, -box])
    res = solve_lp(obj, lhs, np.concatenate([np.zeros(m), -np.ones(2 * d)]))
    if res.status != "optimal":
        # Cannot happen for finite data; treat defensively as no interior.
        return ConeInteriorResult(interior=False, x=np.zeros(d), margin=0.0)
    t = float(res.x[-1])
    return ConeInteriorResult(interior=t > CONE_INTERIOR_MARGIN, x=res.x[:d].copy(), margin=t)
