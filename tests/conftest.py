"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the production code paths they check:
convex hulls come from scipy.spatial.Qhull, LP references from
scipy.optimize.linprog, bounded least squares from scipy's BVLS, and
simplex-constrained projections from SLSQP.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog, lsq_linear, minimize
from scipy.spatial import ConvexHull

from zonofit.geom import Polytope, Zonotope, is_general_position


def random_zonotope(rng, n, d, scale=1.0, translate=True):
    """Random general-position zonotope (rejection sampled)."""
    for _ in range(100):
        G = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
        mu = rng.uniform(-0.5, 0.5, size=d) * scale if translate else np.zeros(d)
        z = Zonotope(G, mu)
        if is_general_position(z):
            return z
    raise RuntimeError("failed to sample a general-position zonotope")


def random_polytope(rng, d, npoints=None, scale=1.0):
    """Random full-dimensional polytope from points on a noisy sphere."""
    npoints = npoints or (2 * d + 4)
    for _ in range(100):
        pts = rng.normal(size=(npoints, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= scale * rng.uniform(0.6, 1.0, size=(npoints, 1))
        pts += rng.uniform(-0.2, 0.2, size=d) * scale
        try:
            poly = Polytope.from_points(pts)
        except Exception:
            continue
        if poly.vertices.shape[0] >= d + 1:
            return poly
    raise RuntimeError("failed to sample a polytope")


def hull_vertices_oracle(points):
    """Vertex set of conv(points) via Qhull (independent of the library)."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    return sorted(set(int(i) for i in hull.vertices))


def lp_oracle(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, maximize=False):
    """Reference LP optimum via scipy's HiGHS, without presolve: presolve
    can report a feasible unbounded LP as infeasible."""
    obj = -np.asarray(c, float) if maximize else np.asarray(c, float)
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds if bounds is not None else [(None, None)] * len(c),
                  method="highs", options={"presolve": False})
    return res


def box_ls_oracle(G, mu, target):
    """Reference box-constrained LS via scipy BVLS."""
    res = lsq_linear(np.asarray(G, float).T, np.asarray(target, float) - np.asarray(mu, float),
                     bounds=(0.0, 1.0), method="bvls")
    x = res.x
    q = x @ G + mu
    return x, q, float(np.linalg.norm(target - q))


def hull_projection_oracle(points, target):
    """Reference projection onto conv(points) via SLSQP on the simplex."""
    P = np.asarray(points, float)
    t = np.asarray(target, float)
    k = P.shape[0]

    def f(lam):
        diff = lam @ P - t
        return float(diff @ diff)

    def grad(lam):
        return 2.0 * P @ (lam @ P - t)

    lam0 = np.full(k, 1.0 / k)
    res = minimize(f, lam0, jac=grad, method="SLSQP",
                   bounds=[(0.0, 1.0)] * k,
                   constraints=[{"type": "eq", "fun": lambda l: l.sum() - 1.0,
                                 "jac": lambda l: np.ones(k)}],
                   options={"maxiter": 500, "ftol": 1e-14})
    lam = res.x
    q = lam @ P
    return lam, q, float(np.linalg.norm(t - q))


def hausdorff_oracle(vertices, G, mu):
    """Reference Hausdorff distance between conv(vertices) and the zonotope
    (G, mu): BVLS for each polytope vertex, and SLSQP for each vertex that
    Qhull finds among the 2^n cube corners."""
    V, G, mu = (np.asarray(a, float) for a in (vertices, G, mu))
    d_p = max(box_ls_oracle(G, mu, v)[2] for v in V)
    corners = mu + np.array(list(itertools.product((0.0, 1.0), repeat=len(G)))) @ G
    d_z = max(hull_projection_oracle(V, corners[i])[2] for i in hull_vertices_oracle(corners))
    return max(d_p, d_z)


# A generator parallel to another and far shorter than it, beside the unit
# square: the separation LPs of vertex enumeration must still find the
# square's vertices. Against the triangle (0,0), (1,0), (0,1) the distance
# is that of the square, 1/sqrt(2).
SHORT_PARALLEL_GENERATORS = [[[1e-9, 0.0], [1.0, 0.0], [0.0, 1.0]],
                             [[1e-17, 0.0], [1.0, 0.0], [0.0, 1.0]]]
UNIT_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def wolfe_reference(S):
    """Wolfe's loop on one row S (points minus target) as it ran before the
    solvers ran rows in lockstep: (corral in order, weights)."""
    from zonofit import solvers

    norms2 = np.einsum("ij,ij->i", S, S)
    eps = solvers.KKT_TOL * (1.0 + float(norms2.max(initial=0.0)))
    corral, lam = [int(np.argmin(norms2))], np.array([1.0])
    x = S[corral[0]].copy()
    cap = max(100, solvers.ITERATION_FACTOR * 4 * (S.shape[0] + S.shape[1]))
    for _ in range(cap):
        dots = S @ x
        cand = int(np.argmin(dots))
        if dots[cand] >= x @ x - eps or cand in corral:
            return corral, lam
        corral.append(cand)
        lam = np.concatenate((lam, (0.0,)))
        for _ in range(cap):
            alpha = solvers._affine_min_norm(S[None, corral])[0]
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
                corral, lam = [int(np.argmin(norms2))], np.array([1.0])
                break
        x = lam @ S[corral]
    raise RuntimeError("min-norm point did not converge")


def box_reference(G, y, start):
    """The box least-squares active-set loop on one row y (target minus
    translation) from the cube vertex ``start``, as it ran before the
    solvers ran rows in lockstep: x."""
    from zonofit import solvers

    n = G.shape[0]
    tol = solvers.KKT_TOL * (1.0 + float(np.abs(G).max(initial=0.0))
                             * (1.0 + np.sqrt(np.einsum("d,d->", y, y))))
    x = (np.asarray(start) > 0.5).astype(float).tolist()
    status = [1 if xi else -1 for xi in x]
    cap = max(100, solvers.ITERATION_FACTOR * 6 * (n + 1))
    blocked = -1
    for _ in range(cap):
        w = (G @ (y - np.array(x) @ G)).tolist()
        worst, worst_v = -1, tol
        for i, (s, wi) in enumerate(zip(status, w)):
            v = wi if s == -1 and wi > tol else -wi if s == 1 and wi < -tol else 0.0
            if i != blocked and v > worst_v + 1e-15:
                worst, worst_v = i, v
        if worst < 0:
            return np.array(x)
        status[worst] = 0
        blocked = -1
        for _ in range(cap):
            free = [i for i, s in enumerate(status) if s == 0]
            z = solvers._face_solve(G, y[None], np.array(x)[None],
                                    np.array(status) == 0)[0].tolist()
            lo_viol = [zk < -1e-12 for zk in z]
            hi_viol = [zk > 1.0 + 1e-12 for zk in z]
            if not any(lo_viol) and not any(hi_viol):
                snap = False
                for i, zk in zip(free, z):
                    x[i] = min(max(zk, 0.0), 1.0)
                    if x[i] <= 1e-12 or x[i] >= 1.0 - 1e-12:
                        x[i] = 0.0 if x[i] <= 1e-12 else 1.0
                        status[i] = -1 if x[i] == 0.0 else 1
                        snap = True
                if snap:
                    continue
                break
            alphas = [(0.0 - x[i]) / (zk - x[i]) if lo else (1.0 - x[i]) / (zk - x[i]) if hi
                      else 1.0 for i, zk, lo, hi in zip(free, z, lo_viol, hi_viol)]
            alpha = max(min(min(alphas), 1.0), 0.0)
            kstar = alphas.index(min(alphas))
            for k, (i, zk) in enumerate(zip(free, z)):
                x[i] += alpha * (zk - x[i])
                if k == kstar or x[i] <= 1e-12 or x[i] >= 1.0 - 1e-12:
                    x[i] = 0.0 if lo_viol[k] or x[i] <= 1e-12 else 1.0
                    status[i] = -1 if x[i] == 0.0 else 1
            if alpha == 0.0 and free[kstar] == worst:
                blocked = worst
    raise RuntimeError("box least squares did not converge")


def solve_lp_reference(c, A, b, feasibility_tol=None):
    """``solvers.solve_lp`` as it ran before one rank-1 update replaced its
    row-by-row elimination loops: (status, x)."""
    from zonofit import solvers

    tol = solvers.FEASIBILITY_TOL if feasibility_tol is None else feasibility_tol
    c, A, b = (np.asarray(a, dtype=float) for a in (c, np.atleast_2d(A), b))
    m, n = A.shape
    art = b > 0.0
    ns = 2 * n + m
    N = ns + int(art.sum())
    T = np.zeros((m + 1, N + 1))
    T[:m, :N] = np.where(art, 1.0, -1.0)[:, None] * np.hstack(
        [A, -A, -np.eye(m), np.eye(m)[:, art]])
    T[:m, -1] = np.abs(b)
    basis = np.where(art, ns + np.cumsum(art) - 1, 2 * n + np.arange(m)).tolist()
    cap = max(200, solvers.ITERATION_FACTOR * (N + m) * 4)

    def pivot(i, j):
        T[i] /= T[i, j]
        for r in range(m + 1):
            if r != i and T[r, j] != 0.0:
                T[r] -= T[r, j] * T[i]
        basis[i] = j

    def simplex():
        for _ in range(cap):
            cost = T[-1, :-1]
            tol_c = solvers._COST_TOL + 1e-9 * float(np.abs(cost).max(initial=0.0))
            entering = next((j for j in range(ns) if cost[j] < -tol_c), -1)
            if entering < 0:
                return "optimal"
            col = T[:m, entering]
            rows = np.flatnonzero(col > solvers._PIVOT_TOL)
            if rows.size == 0:
                return "unbounded"
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            tied = rows[ratios <= best + solvers._PIVOT_TOL * (1.0 + abs(best))]
            pivot(tied[np.argmin([basis[i] for i in tied])], entering)
        raise RuntimeError("simplex iteration cap exceeded")

    if N > ns:
        T[-1, ns:N] = 1.0
        T[-1] -= T[:m][art].sum(axis=0)
        simplex()
        scale = 1.0 + np.abs(b).max(initial=0.0)
        if -T[-1, -1] > tol * scale:
            return "infeasible", None
        for i in range(m):
            if basis[i] >= ns and abs(T[i, -1]) <= tol * scale:
                nonzero = np.flatnonzero(np.abs(T[i, :ns]) > solvers._PIVOT_TOL)
                if nonzero.size:
                    pivot(i, int(nonzero[0]))
    T[-1] = 0.0
    T[-1, :n], T[-1, n:2 * n] = -c, c
    for i, bcol in enumerate(basis):
        if T[-1, bcol] != 0.0:
            T[-1] -= T[-1, bcol] * T[i]
    if simplex() == "unbounded":
        return "unbounded", None
    x_std = np.zeros(N)
    for i, bcol in enumerate(basis):
        x_std[bcol] = max(T[i, -1], 0.0)
    return "optimal", x_std[:n] - x_std[n:2 * n]


def polygon_cycle(vertices):
    """Order 2-D points counterclockwise around their mean."""
    V = np.asarray(vertices, float)
    c = V.mean(axis=0)
    ang = np.arctan2(V[:, 1] - c[1], V[:, 0] - c[0])
    return V[np.argsort(ang)]


def boundary_samples_2d(cycle, total):
    """~``total`` points spread over a polygon boundary by arc length."""
    V = np.asarray(cycle, float)
    k = V.shape[0]
    edges = np.roll(V, -1, axis=0) - V
    lengths = np.linalg.norm(edges, axis=1)
    per = np.maximum((lengths / lengths.sum() * total).astype(int), 1)
    chunks = []
    for i in range(k):
        ts = np.linspace(0.0, 1.0, per[i], endpoint=False)
        chunks.append(V[i] + ts[:, None] * edges[i])
    return np.vstack(chunks)


def point_to_convex_polygon_distance(points, cycle):
    """Distances from many points to a filled convex polygon (vectorized)."""
    P = np.asarray(points, float)
    V = np.asarray(cycle, float)
    k = V.shape[0]
    E = np.roll(V, -1, axis=0) - V
    inward = np.stack([-E[:, 1], E[:, 0]], axis=1)
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    c = V.mean(axis=0)
    flip = np.sign(np.einsum("ij,ij->i", inward, c - V))
    inward *= flip[:, None]
    inside = np.all(
        np.einsum("pkd,kd->pk", P[:, None, :] - V[None, :, :], inward) >= 0.0, axis=1
    )
    # distance to each edge segment
    d2 = np.full(P.shape[0], np.inf)
    for i in range(k):
        a, e = V[i], E[i]
        ee = float(e @ e)
        t = np.clip((P - a) @ e / ee, 0.0, 1.0)
        proj = a + t[:, None] * e
        d2 = np.minimum(d2, np.einsum("pd,pd->p", P - proj, P - proj))
    dist = np.sqrt(d2)
    dist[inside] = 0.0
    return dist


def random_local_instance(rng, d=2, n=None, npoints=None, scale=1.0):
    """Random (polytope, zonotope) pair satisfying the locality conditions."""
    from zonofit.hausdorff import check_locality

    n = n or d + 2
    for _ in range(200):
        poly = random_polytope(rng, d, npoints, scale=scale)
        z = random_zonotope(rng, n, d, scale=scale)
        if check_locality(poly, z).ok:
            return poly, z
    raise RuntimeError("failed to sample a locality-satisfying instance")


def rotated_square_configuration(eps=0.05):
    """Unit-square zonotope vs the square rotated pi/4, scaled by 1+eps."""
    z = Zonotope(np.eye(2), np.zeros(2))
    c = np.array([0.5, 0.5])
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ang = np.pi / 4
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    verts = c + (1.0 + eps) * (corners - c) @ R.T
    return Polytope.from_vertices(verts), z


def rigid_motion(rng, d):
    """Random rotation matrix and translation vector."""
    A = rng.normal(size=(d, d))
    q, _ = np.linalg.qr(A)
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    t = rng.uniform(-1.0, 1.0, size=d)
    return q, t


# A config as manifests wrote it while the solver tolerances and the cone
# margin were still settable, at their defaults (the only values that replay).
OLD_MANIFEST_CONFIG = {
    "rank": 3, "max_steps": 7, "threshold": 1e-09, "step_rule": "conservative",
    "hybrid_switch": None, "rng_seed": 11, "perturb_scale": 1e-06, "objective": "exact",
    "max_perturb_tries": 50, "tol_active": 1e-07, "cone_margin": 1e-08,
    "solver": {"feasibility_tol": 1e-09, "kkt_tol": 1e-09, "iteration_factor": 10},
}


# Zonotopes in general position against the unit cube whose generators 0
# and 1 are nearly parallel (sine 1.1e-9 and 2.1e-9), so that a face's
# normal equations are exactly singular. Locality fails for the first pair
# (polytope vertices 1, 6 and 7) and holds for the second.
NEAR_PARALLEL_ZONOTOPES = [
    {"generators": [[0.566317170495932, -0.053968016275656616, -0.05229974288958994],
                    [0.2035693832033192, -0.019399439837278213, -0.01879975929423135],
                    [-0.5008473073262729, -0.31434213832705327, 0.6346458956749659],
                    [-0.20367836910692505, 0.5688248758157979, -0.9730213642338175],
                    [0.9986761092245646, 0.9105327862521164, 0.3570014257140315]],
     "translation": [-0.25786139470233577, -0.20535789970555784, -0.1908868517915973]},
    {"generators": [[-0.19396480763493407, -0.4599075175765177, -0.2554391786597794],
                    [-0.08860659613173263, -0.210093986873664, -0.1166891888288935],
                    [-0.785949930014664, 0.6357727864895328, 0.847719428443624],
                    [-0.7974143151163553, -0.5009610758237424, -0.6526376233801743],
                    [0.6983103298599533, 0.8205574472356758, -0.9114524914399222]],
     "translation": [-0.3287208870084435, -0.012970718518628521, 0.024034694762808506]},
]


def exhaustive_polytope_face_rows(poly, targets):
    """``hausdorff._polytope_face_rows`` as it was before it pruned its
    candidates: the affine min-norm solve of every target on every
    simplicial face, then the same pick."""
    from zonofit import solvers
    from zonofit.geom import _simplicial_faces
    from zonofit.hausdorff import _nearest_faces

    groups = [f for f in _simplicial_faces(poly)[0].values() if len(f)]
    dist = []
    for f in groups:
        S = (poly.vertices[f][:, None] - targets[:, None]).reshape(-1, *f.shape[1:], poly.dim)
        W = solvers._affine_min_norm(S)
        X = np.einsum("km,kmd->kd", W, S)
        dist.append(np.where((W > 1e-12).all(axis=1), np.sqrt(np.einsum("kd,kd->k", X, X)),
                             np.inf).reshape(len(f), -1))
    sizes = np.concatenate([np.full(len(f), f.shape[1]) for f in groups])
    rows = [tuple(row) for f in groups for row in f.tolist()]
    return [rows[k] for k in _nearest_faces(np.concatenate(dist), sizes, poly.scale())]


def simplicial_faces_reference(poly):
    """``geom._simplicial_faces`` as it was before its lexsort dedupe: the
    facet-vertex incidence from |V N^T - b|, and each face size's rows
    deduplicated and ordered by ``np.unique(axis=0)``."""
    from zonofit.geom import FACE_ACTIVE_TOL, _subsets

    nv, d = poly.vertices.shape
    incidence = ~(np.abs(poly.vertices @ poly.facet_normals.T - poly.facet_offsets)
                  > FACE_ACTIVE_TOL * poly.scale() * 10.0).T
    simplices = np.nonzero(incidence[incidence.sum(axis=1) == d])[1].reshape(-1, d)
    faces = {m: np.unique(simplices[:, _subsets(d, m)].reshape(-1, m), axis=0)
             for m in range(2, d + 1)}
    faces[1] = np.arange(nv)[:, None]
    return faces, incidence


def facets_brute_force_reference(V):
    """``geom._facets_brute_force`` as it was before its batched pass: one
    SVD and one supporting-plane check per d-subset of V, in order."""
    from zonofit.errors import DegenerateInput
    from zonofit.geom import EXTREME_TOL

    k, d = V.shape
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([float(V.max()), float(-V.min())])
    scale = 1.0 + float(np.abs(V).max())
    normals, offsets = [], []
    for rows in itertools.combinations(range(k), d):
        pts = V[list(rows)]
        _, s, vt = np.linalg.svd(pts[1:] - pts[0])
        if s.size < d - 1 or s[-1] <= 1e-10 * max(1.0, s[0]):
            continue  # affinely dependent subset
        eta = vt[-1]
        c = float(eta @ pts[0])
        margins = V @ eta - c
        hi, lo = margins.max(), margins.min()
        if hi <= EXTREME_TOL * scale:
            pass  # eta already outward
        elif lo >= -EXTREME_TOL * scale:
            eta, c = -eta, -c
        else:
            continue  # not a supporting hyperplane
        duplicate = any(
            np.linalg.norm(en - eta) < 1e-8 and abs(ec - c) < 1e-8 * scale
            for en, ec in zip(normals, offsets)
        )
        if not duplicate:
            normals.append(eta)
            offsets.append(c)
    if not normals:
        raise DegenerateInput("no facets found; input is degenerate")
    return np.array(normals), np.array(offsets)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def measured_rows(monkeypatch):
    """The tail's name for each sweep row measured while the test runs. A row
    leaves the solvers through a face tail. Every polytope row runs the box
    loop, so each ``_box_rows`` row is measured; a zonotope row inside the
    polytope is measured by nothing, any other is solved on a lent or
    selected corral or by Wolfe's loop, and only a ``_hull_rows`` row that
    the tail accepts (its ``ok``, the last array) is measured."""
    from zonofit import solvers

    rows, box, hull = [], solvers._box_rows, solvers._hull_rows

    def box_spy(*args):
        out = box(*args)
        rows.extend(["_box_rows"] * len(out[0]))
        return out

    def hull_spy(*args):
        out = hull(*args)
        rows.extend(["_hull_rows"] * int(np.count_nonzero(out[-1])))
        return out

    monkeypatch.setattr(solvers, "_box_rows", box_spy)
    monkeypatch.setattr(solvers, "_hull_rows", hull_spy)
    return rows
