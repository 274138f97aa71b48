"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the production code paths they check:
convex hulls come from scipy.spatial.Qhull, LP references from
scipy.optimize.linprog, bounded least squares from scipy's BVLS, and
simplex-constrained projections from SLSQP.
"""

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
    """Reference LP optimum via scipy's HiGHS."""
    obj = -np.asarray(c, float) if maximize else np.asarray(c, float)
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds if bounds is not None else [(None, None)] * len(c),
                  method="highs")
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def measured_rows(monkeypatch):
    """The tail's name for each sweep row measured while the test runs. A row
    leaves the solvers through a face tail whether it was solved on a
    hinted face, on a selected face or by a cold loop, and only a row that
    the tail accepts is measured."""
    from zonofit import solvers

    rows = []
    for name in ("_box_rows", "_hull_rows"):
        def spy(*args, tail=getattr(solvers, name), name=name, **kwargs):
            out = tail(*args, **kwargs)
            rows.extend(name for row in out if row is not None)
            return out
        monkeypatch.setattr(solvers, name, spy)
    return rows
