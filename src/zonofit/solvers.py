"""Small dense convex solvers used by the geometry and descent layers.

Four problem shapes, all solved in dense numpy at desk scale:

* general LPs via a two-phase simplex (``solve_lp``),
* box-constrained least squares for point-to-zonotope projection
  (``box_least_squares``),
* min-norm point over a convex hull for point-to-polytope projection
  (``project_to_hull``),
* Chebyshev-center and cone-interior LPs built on ``solve_lp``.

The two projections take a ``hint``, the projection of a nearby target:
their final solve on the hint's face, kept only if their own optimality
test proves it exact, else the cold loop from scratch.

Everything is deterministic: the simplex pivots with Bland's rule and the
active-set loops break ties by lowest index, so identical inputs always
produce identical outputs. That property is what makes descent traces
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleRegion, IterationLimit, UnboundedRegion

__all__ = [
    "SolverConfig",
    "DEFAULT_CONFIG",
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


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance bundle shared by every solver.

    feasibility_tol: accepted primal residual, relative to 1 + |b|_inf.
    kkt_tol: accepted stationarity/complementarity residual.
    iteration_factor: iteration cap multiplier on (variables + constraints).
    """

    feasibility_tol: float = 1e-9
    kkt_tol: float = 1e-9
    iteration_factor: int = 10


DEFAULT_CONFIG = SolverConfig()

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


def solve_lp(lp: LinearProgram, config: SolverConfig = DEFAULT_CONFIG) -> LPResult:
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
    const = float(lp.objective @ base)

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

    cap = max(200, config.iteration_factor * (N + m) * 4)
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
        if -T[-1, -1] > config.feasibility_tol * scale:
            return LPResult(status="infeasible")
        # Drive basic artificials out where possible.
        for i in range(m):
            if basis[i] in art_set and abs(T[i, -1]) <= config.feasibility_tol * scale:
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


def box_least_squares(
    generators: np.ndarray,
    translation: np.ndarray,
    target: np.ndarray,
    config: SolverConfig = DEFAULT_CONFIG,
    hint: BoxProjection | None = None,
) -> BoxProjection:
    """Minimize |x @ generators + translation - target| over x in [0,1]^n.

    Active-set method (bounded-variable least squares). At the solution the
    KKT conditions hold within ``config.kkt_tol`` relative to the data
    scale: the negative gradient is <= 0 at lower-bounded coordinates,
    >= 0 at upper-bounded ones and ~ 0 at free ones. Coordinates at a bound
    are returned exactly 0.0 or 1.0, which downstream face detection relies
    on. ``hint``, the projection of a nearby target, is tried first
    (``_box_solve``); a hint that fails its check changes nothing.
    """
    return ((hint is not None and _box_solve(generators, translation, target, config, hint))
            or _box_solve(generators, translation, target, config))


def _box_solve(generators, translation, target, config, hint=None) -> BoxProjection | None:
    """``box_least_squares`` by the active-set loop, or else the loop's final
    solve on the face of ``hint`` (its free set F, coefficients strictly in
    (0, 1), the rest at its bits): kept if strictly inside (0, 1) and the
    loop's stopping test passes, which proves it optimal; otherwise None."""
    G = np.asarray(generators, dtype=float)
    y = np.asarray(target, dtype=float) - np.asarray(translation, dtype=float)
    tol = config.kkt_tol * (1.0 + float(np.abs(G).max(initial=0.0)) * (1.0 + np.linalg.norm(y)))
    if hint is None:
        x = _box_active_set(G, y, tol, config)
    else:
        x = np.array(hint.coefficients, dtype=float)
        if x.shape != (G.shape[0],):
            return None
        free = (x > 0.0) & (x < 1.0)
        x[free] = np.linalg.lstsq(G[free].T, y - x[~free] @ G[~free], rcond=None)[0]
        w = G @ (y - x @ G)
        if not (np.all((x[free] > 1e-12) & (x[free] < 1.0 - 1e-12))
                and np.all(np.where(x == 0.0, w, -w)[~free] <= tol + 1e-15)):
            return None
    point = x @ G + np.asarray(translation, dtype=float)
    kkt = 0.0  # free coordinates are those strictly inside (0, 1)
    for xi, wi in zip(x.tolist(), (G @ (y - x @ G)).tolist()):
        kkt = max(kkt, wi if xi == 0.0 else -wi if xi == 1.0 else abs(wi))
    return BoxProjection(coefficients=x, point=point, kkt_residual=kkt,
                         distance=float(np.linalg.norm(np.asarray(target, float) - point)))


def _box_active_set(G, y, tol, config) -> np.ndarray:
    """The active-set loop of ``box_least_squares``; returns x."""
    n = G.shape[0]
    x = np.zeros(n)
    status = np.full(n, -1, dtype=int)  # -1 lower, 0 free, +1 upper
    cap = max(100, config.iteration_factor * 6 * (n + 1))
    blocked = -1  # variable pinned back with zero progress last cycle

    for _ in range(cap):
        w = G @ (y - x @ G)  # negative gradient
        worst, worst_v = -1, tol
        for i in range(n):
            if i == blocked:
                continue
            v = 0.0
            if status[i] == -1 and w[i] > tol:
                v = w[i]
            elif status[i] == 1 and w[i] < -tol:
                v = -w[i]
            if v > worst_v + 1e-15:
                worst, worst_v = i, v
        if worst < 0:
            return x
        status[worst] = 0
        blocked = -1

        for _ in range(cap):
            free = np.flatnonzero(status == 0)
            bound = status != 0
            yy = y - x[bound] @ G[bound]
            z, *_ = np.linalg.lstsq(G[free].T, yy, rcond=None)
            lo_viol = z < -1e-12
            hi_viol = z > 1.0 + 1e-12
            if not lo_viol.any() and not hi_viol.any():
                x[free] = np.clip(z, 0.0, 1.0)
                snap = (x[free] <= 1e-12) | (x[free] >= 1.0 - 1e-12)
                for k in np.flatnonzero(snap):
                    i = free[k]
                    x[i] = round(x[i])
                    status[i] = -1 if x[i] == 0.0 else 1
                break
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


def project_to_hull(
    points: np.ndarray,
    target: np.ndarray,
    config: SolverConfig = DEFAULT_CONFIG,
    hint: HullProjection | None = None,
) -> HullProjection:
    """Min-norm point of conv(points) - target, via Wolfe's algorithm.

    Maintains a corral of affinely independent points; major iterations add
    the most violating point (lowest index on ties), minor iterations
    restore convex weights. Finite termination up to tolerances.
    ``hint``, a nearby target's projection onto the same points, is tried
    first (``_hull_solve``); a hint that fails its check changes nothing.
    """
    return ((hint is not None and _hull_solve(points, target, config, hint))
            or _hull_solve(points, target, config))


def _hull_solve(points, target, config, hint=None) -> HullProjection | None:
    """``project_to_hull`` by Wolfe's loop, or else the affine min-norm
    solve on the corral of ``hint`` in its order: kept if every weight is
    positive and Wolfe's stopping test passes, which proves it optimal;
    otherwise None."""
    t = np.asarray(target, dtype=float)
    S = np.atleast_2d(np.asarray(points, dtype=float)) - t
    norms2 = np.einsum("ij,ij->i", S, S)
    eps = config.kkt_tol * (1.0 + float(norms2.max(initial=0.0)))
    if hint is None:
        corral, lam, x = _wolfe(S, norms2, eps, config)
    else:
        corral = list(hint.corral)
        if not corral or max(corral) >= S.shape[0]:
            return None
        lam = _affine_min_norm(S[corral])
        x = lam @ S[corral]
    dots = S @ x
    if hint is not None and not (lam.min() > 1e-12 and dots.min() >= x @ x - eps):
        return None
    weights = np.zeros(S.shape[0])
    weights[corral] = lam
    return HullProjection(weights=weights, point=t + x, distance=float(np.linalg.norm(x)),
                          kkt_residual=max(0.0, float(x @ x - dots.min())), corral=tuple(corral))


def _affine_min_norm(C: np.ndarray) -> np.ndarray:
    """Weights of the min-norm point of the affine hull of C's rows."""
    mC = C.shape[0]
    K = np.zeros((mC + 1, mC + 1))
    K[:mC, :mC] = C @ C.T
    K[:mC, mC] = 1.0
    K[mC, :mC] = 1.0
    rhs = np.zeros(mC + 1)
    rhs[mC] = 1.0
    alpha = np.linalg.lstsq(K, rhs, rcond=None)[0][:mC]
    ssum = alpha.sum()
    return alpha / ssum if abs(ssum) > 1e-12 else alpha


def _wolfe(S, norms2, eps, config):
    """Wolfe's loop on the rows of S; returns the final (corral, weights, point)."""
    corral = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = S[corral[0]].copy()
    cap = max(100, config.iteration_factor * 4 * (S.shape[0] + S.shape[1]))

    for _ in range(cap):
        dots = S @ x
        cand = int(np.argmin(dots))
        if dots[cand] >= x @ x - eps or cand in corral:
            return corral, lam, x
        corral.append(cand)
        lam = np.append(lam, 0.0)
        for _ in range(cap):
            alpha = _affine_min_norm(S[corral])
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


def chebyshev_center(
    normals: np.ndarray,
    offsets: np.ndarray,
    config: SolverConfig = DEFAULT_CONFIG,
) -> tuple[np.ndarray, float]:
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
    res = solve_lp(lp, config)
    if res.status == "unbounded":
        raise UnboundedRegion("no bounded inscribed ball")
    if res.status != "optimal":
        raise InfeasibleRegion("empty halfspace region")
    radius = float(res.x[-1])
    if radius < -config.feasibility_tol * (1.0 + np.abs(b).max(initial=0.0)):
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


def cone_interior_point(
    A: np.ndarray,
    config: SolverConfig = DEFAULT_CONFIG,
) -> ConeInteriorResult:
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
    res = solve_lp(lp, config)
    if res.status != "optimal":
        # Cannot happen for finite data; treat defensively as no interior.
        return ConeInteriorResult(interior=False, x=np.zeros(d), margin=0.0)
    t = float(res.x[-1])
    return ConeInteriorResult(interior=t > CONE_INTERIOR_MARGIN, x=res.x[:d].copy(), margin=t)
