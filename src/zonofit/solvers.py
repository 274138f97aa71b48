"""Small dense convex solvers used by the geometry and descent layers.

Four problem shapes, all solved in dense numpy at desk scale:

* general LPs via a two-phase simplex (``solve_lp``),
* box-constrained least squares for point-to-zonotope projection
  (``box_least_squares``),
* min-norm point over a convex hull for point-to-polytope projection
  (``project_to_hull``),
* Chebyshev-center and cone-interior LPs built on ``solve_lp``.

The tolerances are module constants shared by every solver
(``FEASIBILITY_TOL``, ``KKT_TOL``, ``ITERATION_FACTOR``); only
``solve_lp`` takes its feasibility tolerance as a keyword, since the
locality check's stability LP needs a laxer one.

The two projections end in a row-batched face tail (``_box_rows``: free
set and bits; ``_hull_rows``: Wolfe's corral) that the cold loops hand
their final face to. The Hausdorff sweeps solve their rows there first,
on faces they choose, one solve per face shape, and keep those where the
solver's optimality test passes; only the rest run the cold loops.

Everything is deterministic: the simplex pivots with Bland's rule and the
active-set loops break ties by lowest index, so identical inputs always
produce identical outputs. That property is what makes descent traces
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleRegion, IterationLimit, UnboundedRegion

__all__ = [
    "LinearProgram",
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


@dataclass
class LinearProgram:
    """A dense LP: optimize objective @ x subject to lhs x {<=,=,>=} rhs.

    ``lower``/``upper`` are per-variable bounds; ``None`` (or +-inf entries)
    means unbounded. Variables are free by default.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: Sequence[str]
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    maximize: bool = True

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lhs = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.lhs.shape != (self.rhs.size, self.objective.size):
            raise ValueError("inconsistent LP dimensions")
        if len(self.senses) != self.rhs.size:
            raise ValueError("one sense per constraint required")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"unknown sense {s!r}")
        if not np.all(np.isfinite(self.lhs)) or not np.all(np.isfinite(self.rhs)):
            raise ValueError("LP data must be finite")


@dataclass(frozen=True)
class LPResult:
    """Outcome of ``solve_lp``.

    ``status`` is "optimal", "infeasible" or "unbounded". ``duals`` holds the
    marginal value of each input constraint's rhs (same order as the input
    rows) and is only set on optimal exits.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    duals: np.ndarray | None = None


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
        entering = -1
        for j in np.flatnonzero(allowed):
            if cost[j] < -tol_c:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = T[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        leave = tied[np.argmin([basis[i] for i in tied])]
        piv = T[leave, entering]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leave]
        basis[leave] = entering
    raise IterationLimit("simplex iteration cap exceeded")


def solve_lp(lp: LinearProgram, feasibility_tol: float = FEASIBILITY_TOL) -> LPResult:
    """Two-phase dense simplex with Bland's rule.

    On an optimal exit the primal residual satisfies
    |lhs x - rhs|_sense <= feasibility_tol * (1 + |rhs|_inf) and the
    reduced costs are sign-correct. Raises IterationLimit when the pivot
    budget runs out (numerical trouble a caller may handle by perturbing).
    """
    nv = lp.objective.size
    lower = np.full(nv, -np.inf) if lp.lower is None else np.asarray(lp.lower, float)
    upper = np.full(nv, np.inf) if lp.upper is None else np.asarray(lp.upper, float)

    # Variable transform x_orig = base + S @ x_std with x_std >= 0.
    cols = []  # (orig index, sign)
    base = np.zeros(nv)
    bound_rows = []  # (std col index, ub) appended as extra <= rows
    for j in range(nv):
        lo, hi = lower[j], upper[j]
        if np.isfinite(lo):
            base[j] = lo
            cols.append((j, 1.0))
            if np.isfinite(hi):
                bound_rows.append((len(cols) - 1, hi - lo))
        elif np.isfinite(hi):
            base[j] = hi
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    ns = len(cols)
    S = np.zeros((nv, ns))
    for k, (j, sgn) in enumerate(cols):
        S[j, k] = sgn

    A_rows = [lp.lhs @ S]
    b_core = lp.rhs - lp.lhs @ base
    senses = list(lp.senses)
    b_list = list(b_core)
    for k, ub in bound_rows:
        row = np.zeros(ns)
        row[k] = 1.0
        A_rows.append(row[None, :])
        b_list.append(ub)
        senses.append("<=")
    A = np.vstack(A_rows)
    b = np.array(b_list)
    m = b.size

    obj_sign = -1.0 if lp.maximize else 1.0
    c_std = obj_sign * (lp.objective @ S)

    # Normalize rhs >= 0, then add slack/surplus/artificial columns.
    flip = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] = -b[i]
            flip[i] = -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_cols, art_cols = [], []
    extra = []
    for i, s in enumerate(senses):
        col = np.zeros(m)
        if s == "<=":
            col[i] = 1.0
            extra.append(col)
            slack_cols.append(ns + len(extra) - 1)
        elif s == ">=":
            col[i] = -1.0
            extra.append(col)
            slack_cols.append(ns + len(extra) - 1)
    for i, s in enumerate(senses):
        if s in (">=", "="):
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            art_cols.append(ns + len(extra) - 1)
    full = np.hstack([A] + [np.array(extra).T]) if extra else A.copy()
    N = full.shape[1]
    art_set = set(art_cols)

    basis = []
    si = 0
    ai = 0
    for s in senses:
        if s == "<=":
            basis.append(slack_cols[si])
            si += 1
        elif s == ">=":
            si += 1
            basis.append(art_cols[ai])
            ai += 1
        else:
            basis.append(art_cols[ai])
            ai += 1

    cap = max(200, ITERATION_FACTOR * (N + m) * 4)
    T = np.zeros((m + 1, N + 1))
    T[:m, :N] = full
    T[:m, -1] = b

    if art_cols:
        # Phase 1: minimize the sum of artificials.
        phase1 = np.zeros(N + 1)
        for j in art_cols:
            phase1[j] = 1.0
        T[-1] = phase1
        for i, bcol in enumerate(basis):
            if bcol in art_set:
                T[-1] -= T[i]
        allowed = np.ones(N, dtype=bool)
        status = _bland_simplex(T, basis, allowed, cap)
        # Phase 1 is bounded below by zero, so an "unbounded" claim is
        # pivot noise; the objective check below decides feasibility.
        if status not in ("optimal", "unbounded"):
            raise IterationLimit("phase-1 simplex failed")
        scale = 1.0 + np.abs(b).max(initial=0.0)
        if -T[-1, -1] > feasibility_tol * scale:
            return LPResult(status="infeasible")
        # Drive basic artificials out where possible.
        for i in range(m):
            if basis[i] in art_set and abs(T[i, -1]) <= feasibility_tol * scale:
                for j in range(N):
                    if j not in art_set and abs(T[i, j]) > _PIVOT_TOL:
                        piv = T[i, j]
                        T[i] /= piv
                        for r in range(m + 1):
                            if r != i and T[r, j] != 0.0:
                                T[r] -= T[r, j] * T[i]
                        basis[i] = j
                        break

    # Phase 2 with the real objective; artificials may not re-enter.
    cost = np.zeros(N + 1)
    cost[:ns] = c_std
    T[-1] = cost
    for i, bcol in enumerate(basis):
        if T[-1, bcol] != 0.0:
            T[-1] -= T[-1, bcol] * T[i]
    allowed = np.ones(N, dtype=bool)
    for j in art_cols:
        allowed[j] = False
    status = _bland_simplex(T, basis, allowed, cap)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x_std = np.zeros(N)
    for i, bcol in enumerate(basis):
        x_std[bcol] = max(T[i, -1], 0.0)
    x = base + S @ x_std[:ns]
    value = float(lp.objective @ x)

    # Row prices from the basis of the standard-form system.
    B = full[:, basis]
    cB = np.zeros(m)
    for i, bcol in enumerate(basis):
        cB[i] = c_std[bcol] if bcol < ns else 0.0
    try:
        y = np.linalg.lstsq(B.T, cB, rcond=None)[0]
    except np.linalg.LinAlgError:
        y = np.zeros(m)
    duals_all = obj_sign * flip * y
    duals = duals_all[: lp.rhs.size]
    return LPResult(status="optimal", x=x, value=value, duals=duals)


@dataclass(frozen=True)
class BoxProjection:
    """Result of projecting a point onto a zonotope (box-constrained LS)."""

    coefficients: np.ndarray  # x in [0,1]^n
    point: np.ndarray  # x @ generators + translation
    distance: float
    kkt_residual: float


def box_least_squares(generators: np.ndarray, translation: np.ndarray,
                      target: np.ndarray) -> BoxProjection:
    """Minimize |x @ generators + translation - target| over x in [0,1]^n.

    Active-set method (bounded-variable least squares). At the solution the
    KKT conditions hold within ``KKT_TOL`` relative to the data
    scale: the negative gradient is <= 0 at lower-bounded coordinates,
    >= 0 at upper-bounded ones and ~ 0 at free ones. Coordinates at a bound
    are returned exactly 0.0 or 1.0, which downstream face detection relies
    on.
    """
    G, mu = np.asarray(generators, dtype=float), np.asarray(translation, dtype=float)
    T = np.asarray(target, dtype=float)[None]
    return _box_rows(G, mu, T, _box_active_set(G, T[0] - mu)[None])[0]


def _box_tol(G, Y) -> np.ndarray:
    """The stopping tolerance of ``box_least_squares`` per row of Y."""
    scale = 1.0 + np.sqrt(np.einsum("...d,...d->...", Y, Y))
    return KKT_TOL * (1.0 + float(np.abs(G).max(initial=0.0)) * scale)


def _box_rows(G, mu, targets, faces, verify=False) -> list:
    """The face tail of ``box_least_squares`` on many rows at once.
    ``faces`` are the active-set loop's rows, already solved on their free
    sets F (coefficients strictly inside (0, 1)) by ``_face_solve``, or with
    ``verify`` other rows' faces, solved here by one ``_face_solve`` per
    free set; a verified row is None unless it lies strictly inside (0, 1)
    on F and passes the loop's stopping test, which proves it optimal."""
    Y = targets - mu
    X = np.array(faces, dtype=float)
    free = (X > 0.0) & (X < 1.0)
    if verify:
        for f in {f.tobytes(): f for f in free if f.any()}.values():
            rows = (free == f).all(axis=1)
            X[np.ix_(rows, f)] = _face_solve(G, Y[rows], X[rows], f)
    P = np.einsum("rn,nd->rd", X, G)
    E = Y - P
    W = np.einsum("nd,rd->rn", G, E)  # negative gradient
    signed = np.where(X == 0.0, W, -W)
    ok = [True] * len(X)
    if verify:
        bound_ok = signed <= _box_tol(G, Y)[:, None] + 1e-15
        ok = np.where(free, (X > 1e-12) & (X < 1.0 - 1e-12), bound_ok).all(axis=1)
    kkt = np.where(free, np.abs(W), signed).max(axis=1, initial=0.0).tolist()
    points = P + mu
    dist2 = np.einsum("rd,rd->r", E, E).tolist()
    return [BoxProjection(coefficients=X[k], point=points[k], distance=math.sqrt(dist2[k]),
                          kkt_residual=kkt[k]) if ok[k] else None for k in range(len(X))]


def _face_solve(G, Y, X, f) -> np.ndarray:
    """Least-squares coefficients on the free set f for each row of Y, the
    others at their values in X: one lstsq, a right-hand side per row."""
    if not f.any():
        return np.zeros((len(Y), 0))
    R = Y - np.einsum("rn,nd->rd", np.where(f, 0.0, X), G)
    return np.linalg.lstsq(G[f].T, R.T, rcond=None)[0].T


def _box_active_set(G, y) -> np.ndarray:
    """The active-set loop of ``box_least_squares``; returns x."""
    n, tol = G.shape[0], float(_box_tol(G, y))
    x = np.zeros(n)
    status = np.full(n, -1, dtype=int)  # -1 lower, 0 free, +1 upper
    cap = max(100, ITERATION_FACTOR * 6 * (n + 1))
    blocked = -1  # variable pinned back with zero progress last cycle

    for _ in range(cap):
        w = (G @ (y - x @ G)).tolist()  # negative gradient
        worst, worst_v = -1, tol
        for i, (s, wi) in enumerate(zip(status.tolist(), w)):
            v = wi if s == -1 and wi > tol else -wi if s == 1 and wi < -tol else 0.0
            if i != blocked and v > worst_v + 1e-15:
                worst, worst_v = i, v
        if worst < 0:
            return x
        status[worst] = 0
        blocked = -1

        for _ in range(cap):
            free = np.flatnonzero(status == 0)
            z = _face_solve(G, y[None], x[None], status == 0)[0]
            lo_viol = z < -1e-12
            hi_viol = z > 1.0 + 1e-12
            if not lo_viol.any() and not hi_viol.any():
                x[free] = np.clip(z, 0.0, 1.0)
                snap = (x[free] <= 1e-12) | (x[free] >= 1.0 - 1e-12)
                for k in np.flatnonzero(snap):
                    i = free[k]
                    x[i] = round(x[i])
                    status[i] = -1 if x[i] == 0.0 else 1
                if snap.any():
                    continue  # solve again on the smaller free set
                break  # x is the face solve on its free set, as the tail needs
            # Step from x toward z until the first bound is hit.
            alphas = np.ones(free.size)
            for k in range(free.size):
                if lo_viol[k]:
                    alphas[k] = (0.0 - x[free[k]]) / (z[k] - x[free[k]])
                elif hi_viol[k]:
                    alphas[k] = (1.0 - x[free[k]]) / (z[k] - x[free[k]])
            alpha = max(min(alphas.min(), 1.0), 0.0)
            kstar = int(np.argmin(alphas))
            x[free] += alpha * (z - x[free])
            pinned_any = False
            for k in range(free.size):
                i = free[k]
                if k == kstar or x[i] <= 1e-12 or x[i] >= 1.0 - 1e-12:
                    if lo_viol[k] or x[i] <= 1e-12:
                        x[i] = 0.0
                        status[i] = -1
                    else:
                        x[i] = 1.0
                        status[i] = 1
                    pinned_any = True
            if alpha == 0.0 and pinned_any and free[kstar] == worst:
                blocked = worst  # avoid freeing the same variable right away
            if not pinned_any:
                break
    raise IterationLimit("box least squares did not converge")


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
    corral, lam = _wolfe(V - T[0])
    return _hull_rows(V, T, [corral], [lam])[0]


def _hull_rows(V, targets, corrals, weights=None) -> list:
    """The face tail of ``project_to_hull`` on many rows at once. Row k's
    weights on ``corrals[k]`` are ``weights[k]`` when given (Wolfe's, from
    the same solve); otherwise they are the affine min-norm solve on it in
    its order, one stacked solve per corral size, and the row is None
    unless the corral is not empty, every weight is positive and Wolfe's
    stopping test passes, which proves it optimal."""
    S = V - targets[:, None]
    W = np.zeros(S.shape[:2])
    ok = [True] * len(W) if weights is not None else np.zeros(len(W), dtype=bool)
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
    points = targets + X
    xx, dots = xx.tolist(), dots.tolist()
    return [HullProjection(weights=W[k], point=points[k], distance=math.sqrt(xx[k]),
                           kkt_residual=max(0.0, xx[k] - dots[k]), corral=tuple(corrals[k]))
            if ok[k] else None for k in range(len(W))]


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
    try:
        alpha = np.linalg.solve(K, e)[:, :m, 0]
    except np.linalg.LinAlgError:  # an exactly singular system: least squares
        alpha = np.array([np.linalg.lstsq(k, e[0, :, 0], rcond=None)[0][:m] for k in K])
    ssum = alpha.sum(axis=1, keepdims=True)
    return alpha / np.where(np.abs(ssum) > 1e-12, ssum, 1.0)


def _wolfe(S):
    """Wolfe's loop on the rows of S; returns its final corral, in order,
    and the corral's weights (its last affine min-norm solve)."""
    norms2 = np.einsum("ij,ij->i", S, S)
    eps = KKT_TOL * (1.0 + float(norms2.max(initial=0.0)))
    corral = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = S[corral[0]].copy()
    cap = max(100, ITERATION_FACTOR * 4 * (S.shape[0] + S.shape[1]))

    for _ in range(cap):
        dots = S @ x
        cand = int(np.argmin(dots))
        if dots[cand] >= x @ x - eps or cand in corral:
            return corral, lam
        corral.append(cand)
        lam = np.concatenate((lam, (0.0,)))
        for _ in range(cap):
            alpha = _affine_min_norm(S[None, corral])[0]
            if alpha.min() > 1e-12:
                lam = alpha
                break
            mask = alpha <= 1e-12
            denom = lam[mask] - alpha[mask]
            with np.errstate(divide="ignore", invalid="ignore"):
                thetas = np.where(denom > 1e-15, lam[mask] / denom, 0.0)
            theta = float(np.clip(thetas.min(), 0.0, 1.0))
            lam = lam + theta * (alpha - lam)
            lam[np.asarray(mask).nonzero()[0][np.argmin(thetas)]] = 0.0
            keep = lam > 1e-14
            corral = [c for c, kf in zip(corral, keep) if kf]
            lam = lam[keep]
            if not corral:  # numerical collapse; restart from best point
                corral = [int(np.argmin(norms2))]
                lam = np.array([1.0])
                break
        x = lam @ S[corral]
    raise IterationLimit("min-norm point did not converge")


def chebyshev_center(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball in {x : normals x <= offsets}.

    Solves  max r  s.t.  <a_i, x> + r |a_i| <= b_i.  Raises
    UnboundedRegion when the radius grows without bound and
    InfeasibleRegion when the region is empty (optimal radius < 0).
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.asarray(offsets, dtype=float)
    m, d = A.shape
    row_norms = np.linalg.norm(A, axis=1)
    obj = np.zeros(d + 1)
    obj[-1] = 1.0
    lhs = np.hstack([A, row_norms[:, None]])
    lp = LinearProgram(
        objective=obj,
        lhs=lhs,
        senses=["<="] * m,
        rhs=b,
        maximize=True,
    )
    res = solve_lp(lp)
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
    lhs = np.hstack([An, -np.ones((m, 1))])
    lower = np.concatenate([-np.ones(d), [-np.inf]])
    upper = np.concatenate([np.ones(d), [np.inf]])
    lp = LinearProgram(
        objective=obj,
        lhs=lhs,
        senses=[">="] * m,
        rhs=np.zeros(m),
        lower=lower,
        upper=upper,
        maximize=True,
    )
    res = solve_lp(lp)
    if res.status != "optimal":
        # Cannot happen for finite data; treat defensively as no interior.
        return ConeInteriorResult(interior=False, x=np.zeros(d), margin=0.0)
    t = float(res.x[-1])
    return ConeInteriorResult(interior=t > CONE_INTERIOR_MARGIN, x=res.x[:d].copy(), margin=t)
