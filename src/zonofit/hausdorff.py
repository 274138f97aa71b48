"""Hausdorff distance between a polytope and a zonotope, with structure.

The distance is exact: both directed sup-distances are achieved at
vertices, so two vertex sweeps with exact projections suffice. They run
once per (polytope, zonotope) pair, cached on the zonotope by a single
attribute write (so concurrent calls stay safe), and the distance, the
locality check and the local terms all read them. A sweep solves every
row first on a face, as arrays through the solvers' face tails: the face
the row had on the hints (the zonotope a step started from), or else the
face it projects onto in the other body's face list. Only rows whose face
fails the solver's own optimality test go to the solvers' cold loops.
Each near-maximal pair is returned with the data the optimization layer
needs: its two endpoints and the cube lift of the zonotope-side point.

Also here: the coarse (vertex-set) distance, Hausdorff stability of a
point relative to a body, the locality check that gates the subgradient
calculus, and the decomposition of the distance into smooth terms that is
valid in a neighborhood of a locality-satisfying zonotope. The locality
check tests all of a sweep's rows at once, reads a polytope face
coefficient off the projection's weights, and projects nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import DimensionMismatch, LocalityViolation
from .geom import (
    FACE_ACTIVE_TOL,
    AffineHull,
    LiftPoint,
    Polytope,
    Zonotope,
    _bits,
    _face_vertices,
    _facet_directions,
    _readonly,
    _simplicial_faces,
    _zonotope_faces,
    enumerate_vertices,
    lift_values_to_lift,
    minimal_face,
    zonotope_facets,
)

__all__ = [
    "AchievingPair",
    "LocalityReport",
    "SmoothTerm",
    "hausdorff_distance",
    "coarse_hausdorff_distance",
    "is_hausdorff_stable",
    "check_locality",
    "evaluate",
    "dist_point_to_affine",
    "local_terms",
    "p_vertex_term",
]

ACTIVE_PAIR_TOL = 1e-7
STRICT_TOL = 1e-8


@dataclass(frozen=True)
class AchievingPair:
    """One (p, q) pair realizing (or nearly realizing) the distance.

    ``side`` records which sweep produced it: "p_vertex" means p is a
    vertex of the polytope and q its projection onto the zonotope,
    "z_vertex" means q is a zonotope vertex and p its projection onto the
    polytope. ``lift`` is always the cube lift of q; its free indices
    span the minimal zonotope face q lies in. The pair's cone row and its
    active-term gradient are read off p, q and the lift alone.
    """

    p: np.ndarray
    q: np.ndarray
    side: str
    vertex_index: int
    lift: LiftPoint
    distance: float

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "q", _readonly(self.q))

    @property
    def q_is_zonotope_vertex(self) -> bool:
        return len(self.lift.free_indices) == 0


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of the locality check.

    ``degenerate_subsets`` lists generator index tuples whose minors
    vanish (general-position violations); the unstable lists hold vertex
    indices failing Hausdorff stability against the other body. All empty
    iff the locality conditions hold.
    """

    general_position: bool
    degenerate_subsets: tuple
    unstable_p_vertices: tuple
    unstable_z_vertices: tuple

    @property
    def ok(self) -> bool:
        return (
            self.general_position
            and not self.unstable_p_vertices
            and not self.unstable_z_vertices
        )


def dist_point_to_affine(u, hull: AffineHull) -> float:
    """Distance from u to the affine subspace cut out by the hull's planes.

    With orthonormal normals this is |sum_k (<eta_k, u> - c_k) eta_k|,
    i.e. the norm of the offset-residual vector.
    """
    s = hull.normals @ np.asarray(u, dtype=float) - hull.offsets
    return float(np.linalg.norm(s))


def _require_same_dim(poly: Polytope, z: Zonotope):
    if poly.dim != z.dim:
        raise DimensionMismatch(f"polytope is {poly.dim}-D, zonotope is {z.dim}-D")


def _projections(poly: Polytope, z: Zonotope, hints: Zonotope | None = None):
    """The pair's two vertex sweeps, computed once and cached on ``z``.

    Returns (p_proj, z_proj): the box least-squares projection of each
    polytope vertex onto z, and the min-norm projection onto poly of each
    zonotope vertex in ``enumerate_vertices`` order. The cache keeps the
    last polytope measured; it is reused only for the same polytope object.

    Each row is first solved on a face, one pass per side through the
    solvers' face tails, and kept where the face passes the solver's own
    optimality test, which proves it the exact projection. ``hints``, a
    zonotope of the same rank whose sweep against poly is cached (the one
    a step started from), lends each row its face there: polytope rows by
    index, zonotope rows by cube-lift bits. Without usable hints each row
    of a general-position z takes the face it projects onto
    (``_zonotope_face_rows``, ``_polytope_face_rows``). The rest go to the
    solvers' cold loops, in sweep order.
    """
    cached = z._projections
    if cached is not None and cached[0] is poly:
        return cached[1], cached[2]
    V, zverts = poly.vertices, enumerate_vertices(z)
    zpts = np.array([pt for _, pt in zverts])
    p_proj, z_proj, faces = [None] * len(V), [None] * len(zverts), None
    hinted = hints._projections if hints is not None and hints.rank == z.rank else None
    if hinted is not None and hinted[0] is poly:
        corral = {bits.tobytes(): row.corral
                  for (bits, _), row in zip(enumerate_vertices(hints), hinted[2])}
        faces = ([row.coefficients for row in hinted[1]],
                 [corral.get(bits.tobytes(), ()) for bits, _ in zverts])
    elif not _facet_directions(z)[2]:  # no hints: the faces the rows project onto
        faces = _zonotope_face_rows(z, V), _polytope_face_rows(poly, zpts)
    if faces is not None:
        p_proj = solvers._box_rows(z.generators, z.translation, V, faces[0], verify=True)
        z_proj = solvers._hull_rows(V, zpts, faces[1])
    p_proj = tuple(solvers.box_least_squares(z.generators, z.translation, v)
                   if row is None else row for v, row in zip(V, p_proj))
    z_proj = tuple(solvers.project_to_hull(V, pt) if row is None else row
                   for pt, row in zip(zpts, z_proj))
    object.__setattr__(z, "_projections", (poly, p_proj, z_proj))
    return p_proj, z_proj


def _nearest_faces(dist: np.ndarray, sizes: np.ndarray, scale: float) -> np.ndarray:
    """Per column of ``dist`` (faces x rows, inf where the row's affine
    projection is not strictly inside the face), the nearest face; faces
    within 1e-12 x scale tie, and a tie goes to the larger face."""
    tied = dist <= dist.min(axis=0) + 1e-12 * scale
    largest = np.where(tied, sizes[:, None], -1).max(axis=0)
    return np.where(tied & (sizes[:, None] == largest), dist, np.inf).argmin(axis=0)


def _zonotope_face_rows(z: Zonotope, targets: np.ndarray) -> np.ndarray:
    """The face of z (``_zonotope_faces``) each target projects onto, as a
    ``solvers._box_rows`` row: anchor bits, 0.5 on the free set. One stacked
    normal-equation solve per free-set size."""
    codes = _zonotope_faces(z)
    anchors, free = _bits(codes, z.rank), _bits(codes >> z.rank, z.rank)
    G, Y = z.generators, targets - z.translation
    sizes = free.sum(axis=1)
    dist = np.empty((len(sizes), len(Y)))
    for m in np.unique(sizes):
        at = sizes == m
        D = G[np.nonzero(free[at])[1].reshape(at.sum(), m)]  # (faces, m, d)
        R = Y - (anchors[at] @ G)[:, None]
        c = D @ R.transpose(0, 2, 1)
        c = np.linalg.solve(D @ D.transpose(0, 2, 1), c) if m else c
        E = R - np.einsum("fmr,fmd->frd", c, D)
        inside = ((c > 1e-12) & (c < 1.0 - 1e-12)).all(axis=1)
        dist[at] = np.where(inside, np.sqrt(np.einsum("frd,frd->fr", E, E)), np.inf)
    pick = _nearest_faces(dist, sizes, 1.0 + float(np.abs(Y).max()))
    return anchors[pick] + 0.5 * free[pick]


def _polytope_face_rows(poly: Polytope, targets: np.ndarray) -> list:
    """The simplicial face of poly (``_simplicial_faces``) each target
    projects onto, as a ``solvers._hull_rows`` corral (vertex order). One
    stacked affine min-norm solve per face size."""
    groups = [f for f in _simplicial_faces(poly).values() if len(f)]
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


def _banded_pairs(rows, tol_active: float):
    """(value, pairs) from one row per vertex of either body.

    A row is (side, vertex_index, p, q, lift values of q, distance). A pair
    is reported when its distance is within ``tol_active * value`` of the
    maximum, in row order. Raises ValueError unless 0 <= tol_active < 1.
    """
    if not 0.0 <= tol_active < 1.0:
        raise ValueError(f"need 0 <= tol_active < 1, got {tol_active}")
    value = max(row[-1] for row in rows)
    pairs = [AchievingPair(p=p, q=q, side=side, vertex_index=index,
                           lift=lift_values_to_lift(values), distance=distance)
             for side, index, p, q, values, distance in rows
             if distance >= value * (1.0 - tol_active)]
    return value, pairs


def hausdorff_distance(poly: Polytope, z: Zonotope, tol_active: float = ACTIVE_PAIR_TOL):
    """Exact Hausdorff distance and its achieving pairs.

    Reads the pair's two vertex sweeps (``_projections``). Returns
    (value, pairs); a pair is reported when its distance is within
    ``tol_active * value`` of the maximum, deduplicated by construction
    (one candidate per vertex, lowest index first).
    """
    _require_same_dim(poly, z)
    p_proj, z_proj = _projections(poly, z)
    rows = [("p_vertex", i, v, bp.point, bp.coefficients, bp.distance)
            for i, (v, bp) in enumerate(zip(poly.vertices, p_proj))]
    rows += [("z_vertex", j, hp.point, pt, bits, hp.distance)
             for j, ((bits, pt), hp) in enumerate(zip(enumerate_vertices(z), z_proj))]
    return _banded_pairs(rows, tol_active)


def coarse_hausdorff_distance(poly: Polytope, z: Zonotope, tol_active: float = ACTIVE_PAIR_TOL):
    """Hausdorff distance between the vertex sets only.

    An upper bound for the exact distance. Every pair endpoint is a
    vertex, so every pair carries an exact 0/1 lift; nearest neighbours
    break ties by lowest index.
    """
    _require_same_dim(poly, z)
    zverts = enumerate_vertices(z)
    zpts = np.array([pt for _, pt in zverts])
    V = poly.vertices
    dmat = np.linalg.norm(V[:, None, :] - zpts[None, :, :], axis=2)
    p_near = dmat.argmin(axis=1)
    z_near = dmat.argmin(axis=0)
    rows = [("p_vertex", i, V[i], zverts[j][1], zverts[j][0], float(dmat[i, j]))
            for i, j in enumerate(p_near)]
    rows += [("z_vertex", j, V[i], pt, bits, float(dmat[i, j]))
             for j, (i, (bits, pt)) in enumerate(zip(z_near, zverts))]
    return _banded_pairs(rows, tol_active)


# Laxer feasibility for the small equality-constrained stability LP; its
# right-hand side carries projection roundoff.
_STABILITY_LP_TOL = 1e-7


def _max_min_coefficient(points: np.ndarray, target: np.ndarray) -> float | None:
    """max t s.t. points @ w = target, sum w = 1, w >= t (points as columns).

    Returns None when no exact representation exists. When the points are
    affinely independent the representation is unique and solved directly;
    otherwise the max-min LP decides.
    """
    d, m = points.shape
    A = np.vstack([points, np.ones((1, m))])
    b = np.append(target, 1.0)
    coef, _, _, singular = np.linalg.lstsq(A, b, rcond=None)
    if (singular > 1e-10).sum() == m:  # affinely independent
        if np.linalg.norm(A @ coef - b) > 1e-7 * (1.0 + np.linalg.norm(b)):
            return None
        return float(coef.min())
    # Variables (w, t): maximize t subject to A w = b and w - t >= 0.
    lp = solvers.LinearProgram(
        objective=np.eye(m + 1)[-1],
        lhs=np.block([[A, np.zeros((d + 1, 1))], [np.eye(m), -np.ones((m, 1))]]),
        senses=["="] * (d + 1) + [">="] * m,
        rhs=np.concatenate([b, np.zeros(m)]),
        maximize=True,
    )
    res = solvers.solve_lp(lp, _STABILITY_LP_TOL)
    return float(res.x[-1]) if res.status == "optimal" else None


def is_hausdorff_stable(x, poly: Polytope, tol_strict: float = STRICT_TOL) -> bool:
    """Whether projecting x onto the body is locally face-stable.

    Interior points are stable; boundary points are not. An exterior point
    is stable iff its projection q sits strictly inside its minimal face
    (all convex coefficients positive) and the offset x - q lies in the
    relative interior of that face's normal cone, i.e. every vertex off the
    face lies strictly behind q along the offset.
    """
    x = np.asarray(x, dtype=float)
    row = solvers.project_to_hull(poly.vertices, x)
    return not _hull_unstable(x[None], [row], poly, tol_strict)[0]


def _exterior(P, rows, normals, offsets, scale):
    """Least facet slack of each point P, offset U = P - Q from its projection
    Q (``rows``), |U|, Q, and the facets within the face tolerance of Q."""
    Q = np.array([row.point for row in rows])
    U = P - Q
    margin = (offsets - np.einsum("fd,rd->rf", normals, P)).min(axis=1)
    active = np.abs(np.einsum("fd,rd->rf", normals, Q) - offsets) <= FACE_ACTIVE_TOL * scale
    return margin, U, np.sqrt(np.einsum("rd,rd->r", U, U)), Q, active


def _hull_unstable(X: np.ndarray, rows, poly: Polytope, tol_strict: float) -> np.ndarray:
    """``not is_hausdorff_stable`` for each row of X, whose projections onto
    poly are ``rows``, all at once. A face's coefficient is the least weight
    when the weights' support is its vertex set; only otherwise is it solved."""
    V, scale = poly.vertices, poly.scale()
    margin, U, nu, Q, active = _exterior(X, rows, poly.facet_normals, poly.facet_offsets, scale)
    W = np.array([row.weights for row in rows])
    on_face = _face_vertices(poly, active)
    t_face = np.where(on_face, W, np.inf).min(axis=1)
    outside = (margin <= -tol_strict * scale) & (nu > tol_strict * scale) & active.any(axis=1)
    for k in np.flatnonzero(outside & (on_face != (W != 0.0)).any(axis=1)):
        t = _max_min_coefficient(V[on_face[k]].T, Q[k])
        t_face[k] = -np.inf if t is None else t
    u = U / np.where(nu > 0.0, nu, 1.0)[:, None]
    behind = np.einsum("rvd,rd->rv", V[None] - Q[:, None], u) < -tol_strict * scale
    stable = outside & (t_face > tol_strict) & (on_face | behind).all(axis=1)
    return ~np.where(margin > -tol_strict * scale, margin > tol_strict * scale, stable)


def _lift_unstable(V: np.ndarray, rows, z: Zonotope, tol_strict: float,
                   scale: float) -> np.ndarray:
    """Which polytope vertices V, whose box least-squares rows onto z are
    ``rows``, are not Hausdorff stable relative to z, all at once. Outside
    z, the projection q is in the relative interior of the face spanned by
    the free generators F (coefficients strictly inside (0, 1)) iff |F| < d
    and every facet active at q spans F; u = v - q is in the relative
    interior of that face's normal cone iff sign(2 x_i - 1) <g_i, u> > 0
    off F (strict complementarity)."""
    margin, U, nu, _, active = _exterior(V, rows, *zonotope_facets(z), scale)
    X = np.array([row.coefficients for row in rows])
    free = (X > 0.0) & (X < 1.0)
    # Facet rows come in +-pairs per spanning subset (``zonotope_facets``).
    spans = np.repeat((_facet_directions(z)[0][:, :, None] == np.arange(z.rank)).any(1), 2, 0)
    signed = (np.where(X > 0.5, 1.0, -1.0) * np.einsum("nd,rd->rn", z.generators, U)
              / np.linalg.norm(z.generators, axis=1))
    stable = ((nu > tol_strict * scale) & (free.sum(axis=1) < z.dim)
              & ~((active @ ~spans) & free).any(axis=1)  # every active facet spans F
              & (free | (signed > tol_strict * nu[:, None])).all(axis=1))
    return ~np.where(margin > -tol_strict * scale, margin > tol_strict * scale, stable)


def check_locality(poly: Polytope, z: Zonotope, tol_strict: float = STRICT_TOL) -> LocalityReport:
    """Check the two locality conditions for the pair (poly, z).

    1) the zonotope is in general position; 2) every polytope vertex is
    Hausdorff stable relative to the zonotope and vice versa. Stability is
    only evaluated when 1) holds (the zonotope's face structure is not
    trustworthy otherwise). Both sides test all rows of the pair's vertex
    sweep (``_projections``) at once, polytope faces by one facet-vertex
    incidence matrix, and solve nothing more, except where a zonotope
    vertex's weights do not span its face: an lstsq, or an LP at worst.
    """
    _require_same_dim(poly, z)
    degenerate = _facet_directions(z)[2]
    if degenerate:
        return LocalityReport(general_position=False, degenerate_subsets=degenerate,
                              unstable_p_vertices=(), unstable_z_vertices=())
    p_proj, z_proj = _projections(poly, z)
    zpts = np.array([pt for _, pt in enumerate_vertices(z)])
    scale = 1.0 + float(np.abs(zpts).max())
    bad_p = _lift_unstable(poly.vertices, p_proj, z, tol_strict, scale)
    bad_z = _hull_unstable(zpts, z_proj, poly, tol_strict)
    return LocalityReport(general_position=True, degenerate_subsets=(),
                          unstable_p_vertices=tuple(np.flatnonzero(bad_p).tolist()),
                          unstable_z_vertices=tuple(np.flatnonzero(bad_z).tolist()))


def evaluate(poly: Polytope, z: Zonotope, tol_active: float = ACTIVE_PAIR_TOL,
             tol_strict: float = STRICT_TOL):
    """(value, pairs, coarse value, ``LocalityReport``): the distance, the
    coarse distance and the locality check, read off the pair's one sweep."""
    value, pairs = hausdorff_distance(poly, z, tol_active)
    return (value, pairs, coarse_hausdorff_distance(poly, z, tol_active)[0],
            check_locality(poly, z, tol_strict))


@dataclass(frozen=True)
class SmoothTerm:
    """One smooth term of the local max-decomposition of the distance.

    A z_vertex term tracks a zonotope vertex (cube lift ``bits``) against
    the fixed affine hull of its minimal face in the polytope. A p_vertex
    term tracks a fixed polytope vertex against the moving affine hull of
    a zonotope face (anchor bits + free generator indices). Both evaluate
    at any zonotope with the same rank; generator order must be preserved.
    """

    side: str
    vertex_index: int
    bits: np.ndarray | None = None
    hull: AffineHull | None = None
    point: np.ndarray | None = None
    anchor_bits: np.ndarray | None = None
    free_indices: tuple | None = None

    def __post_init__(self):
        for name in ("bits", "point", "anchor_bits"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _readonly(v))

    @property
    def codim(self) -> int:
        if self.side == "z_vertex":
            return 0 if self.hull is None else self.hull.codim
        return self.point.size - len(self.free_indices)

    def value(self, z: Zonotope) -> float:
        if self.side == "z_vertex":
            if self.hull is None:
                return 0.0
            u = z.map_point(self.bits)
            return dist_point_to_affine(u, self.hull)
        return float(np.linalg.norm(_face_residual(self, z)[0]))


def _face_residual(term: SmoothTerm, z: Zonotope):
    """(w, y) for a p_vertex term at z: with r = p - v (v the anchor vertex)
    and D the free generators as columns, y is the least-squares fit
    D y ~ r and w = r - D y the offset of p from the face's affine hull."""
    r = term.point - z.map_point(term.anchor_bits)
    free = list(term.free_indices)
    if not free:
        return r, np.zeros(0)
    D = z.generators[free].T
    y, *_ = np.linalg.lstsq(D, r, rcond=None)
    return r - D @ y, y


def p_vertex_term(vertex_index: int, p, lift: LiftPoint) -> SmoothTerm:
    """Term tracking polytope vertex ``p`` against the zonotope face of
    ``lift``: its anchor vertex (free coordinates at 0) and its free
    generators."""
    return SmoothTerm(side="p_vertex", vertex_index=vertex_index, point=p,
                      anchor_bits=lift.anchor_bits(), free_indices=lift.free_indices)


def local_terms(poly: Polytope, z0: Zonotope, require_locality: bool = True):
    """Smooth terms whose pointwise max equals the distance near ``z0``.

    One term per polytope vertex (its distance to the affine hull of the
    tracked zonotope face) and one per zonotope vertex (the pushed-forward
    vertex's distance to the affine hull of its face in the polytope).
    Requires the locality conditions; raises LocalityViolation otherwise
    (``require_locality=False`` skips the check for diagnostics on
    degenerate configurations, where the decomposition may only hold at
    the base point itself).
    """
    if require_locality and not check_locality(poly, z0).ok:
        raise LocalityViolation("locality conditions fail at the base zonotope")

    p_proj, z_proj = _projections(poly, z0)
    terms = [p_vertex_term(i, v, lift_values_to_lift(bp.coefficients))
             for i, (v, bp) in enumerate(zip(poly.vertices, p_proj))]
    terms += [SmoothTerm(side="z_vertex", vertex_index=j, bits=bits,
                         hull=minimal_face(poly, hp.point).affine_hull)
              for j, ((bits, _), hp) in enumerate(zip(enumerate_vertices(z0), z_proj))]
    return terms
