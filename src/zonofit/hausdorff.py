"""Hausdorff distance between a polytope and a zonotope, with structure.

The distance is exact: both directed sup-distances are achieved at
vertices, so two vertex sweeps with exact projections suffice. They run
once per (polytope, zonotope) pair into one table (``SweepRows``: both
endpoints, the zonotope point's cube lift, the distance, and a zonotope
row's weights and corral), cached on the zonotope by one attribute write
(so concurrent calls stay safe); the distance, the locality check, the
local terms and the descent's step caps all read it. A sweep's polytope
rows run the solvers' box loop as one stack. A zonotope vertex inside
the polytope is its own projection and is solved by nothing; the other
zonotope rows are solved first on a corral, as arrays through the hull's
face tail: the corral a row had on the hints (the zonotope a step started
from), or without hints the polytope face it projects onto; rows whose
corral fails the solver's own optimality test run Wolfe's loop.

Also here: the coarse (vertex-set) distance, whose nearest-vertex rows
fill the same table, Hausdorff stability of a point relative to a body,
the locality check that gates the subgradient calculus, and the
decomposition of the distance into smooth terms that is valid in a
neighborhood of a locality-satisfying zonotope. The locality check tests
all of a sweep's rows at once, reads a polytope face coefficient off the
table's weights W, and projects nothing itself. Every smooth term, one per
sweep row, is one ``SmoothTerm``: a polytope flat {y : N y = c} (a vertex,
N = I, or the affine hull of a face, ``minimal_face``, with no rows for the
whole body) against the affine hull of a zonotope face, anchor bits and
free generators (a vertex, or the face of a polytope vertex's
projection). One offset w, of the face point nearest the flat with cube
lift x, gives both its value |w| and its gradient, the cone's row formula
``cone.rows(x, w/|w|)``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import cone, solvers
from .errors import DegenerateFace, DegenerateInput, DimensionMismatch, LocalityViolation
from .geom import (
    FACE_ACTIVE_TOL,
    LiftPoint,
    Polytope,
    Zonotope,
    _face_vertices,
    _facet_directions,
    _readonly,
    _simplicial_faces,
    _vertex_arrays,
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
    "local_terms",
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


def _require_same_dim(poly: Polytope, z: Zonotope):
    if poly.dim != z.dim:
        raise DimensionMismatch(f"polytope is {poly.dim}-D, zonotope is {z.dim}-D")


# A pair's sweep as one table of arrays, a row per vertex of either body,
# polytope rows first and each body's rows in vertex order: the polytope-side
# point P, the zonotope-side point Q, the cube lift X of Q and |P - Q|; for
# zonotope rows, P's weights W over poly's vertices and their corrals (Wolfe's
# points of positive weight, in his order), which the coarse table leaves None.
# A zonotope row inside poly has P = Q, a zero W row and the corral ().
SweepRows = namedtuple("SweepRows", "P Q X distance W corrals", defaults=(None, None))


def _projections(poly: Polytope, z: Zonotope, hints: Zonotope | None = None) -> SweepRows:
    """The pair's two vertex sweeps as one ``SweepRows`` table, computed
    once and cached on ``z``: the box least-squares projection of each
    polytope vertex onto z, then the min-norm projection onto poly of each
    zonotope vertex in ``enumerate_vertices`` order. The cache keeps the
    last polytope measured; it is reused only for the same polytope object.

    The polytope rows run the box loop (``_box_active_set``) as one stack
    in lockstep and one face tail, each row with the bits it has alone,
    from the bits of its nearest zonotope vertex (the first on ties), which
    saves face solves. A row outside a general-position z has one optimal
    face, whatever the start; inside z the start picks one of many exact
    lifts, a function of (poly, z) alone, so every sweep gives it one lift.

    A zonotope vertex with every facet margin of poly below
    -``FACE_ACTIVE_TOL`` x scale is its own projection, in every sweep, and
    no solver sees it. The others are solved first on a corral, in one pass
    through the hull's face tail, and kept where it passes the solver's own
    optimality test, which proves it the exact projection. ``hints``, a
    zonotope of the same rank whose sweep against poly is cached (the one a
    step started from), lends each its corral there by cube-lift bits;
    without usable hints each of a general-position z takes the polytope
    face it projects onto (``_polytope_face_rows``). The rest run Wolfe's
    loop (``_wolfe``) as one stack in lockstep.
    """
    cached = z._projections
    if cached is not None and cached[0] is poly:
        return cached[1]
    V, (bits, zpts) = poly.vertices, _vertex_arrays(z)
    G, mu, k, general = z.generators, z.translation, len(V), not _facet_directions(z)[2]
    P, Q, X = (np.empty((k + len(zpts), n)) for n in (z.dim, z.dim, z.rank))
    P[:k], P[k:], Q[k:], X[k:] = V, zpts, zpts, bits  # a zonotope row inside poly keeps P = Q
    distance, W = np.zeros(len(P)), np.zeros((len(zpts), k))
    starts = bits[np.square(V[:, None] - zpts).sum(axis=2).argmin(axis=1)]
    X[:k] = solvers._box_active_set(G, V - mu, starts)
    Q[:k], distance[:k], _ = solvers._box_rows(G, mu, V, X[:k])
    near = zpts @ poly.facet_normals.T - poly.facet_offsets > -FACE_ACTIVE_TOL * poly.scale()
    live = np.flatnonzero(near.any(axis=1))  # the other rows are inside poly
    hinted = hints._projections if hints is not None and hints.rank == z.rank else None
    if hinted is not None and hinted[0] is poly:  # the corrals of the hints' zonotope rows
        lent = dict(zip(map(np.ndarray.tobytes, hinted[1].X[k:]), hinted[1].corrals))
        picks = [lent.get(b.tobytes(), ()) for b in bits[live]]
    else:  # the faces the zonotope rows project onto, none off general position
        picks = _polytope_face_rows(poly, zpts[live], near[live]) if general else [()] * live.size
    W[live], P[k + live], distance[k + live], _, ok = solvers._hull_rows(V, zpts[live], picks)
    corrals, cold = dict(zip(live.tolist(), picks)), live[~ok]
    if cold.size:
        wolfe = solvers._wolfe(V - zpts[cold][:, None])  # corrals, weights
        W[cold], P[k + cold], distance[k + cold], _, _ = solvers._hull_rows(V, zpts[cold], *wolfe)
        corrals.update(zip(cold.tolist(), map(tuple, wolfe[0])))
    table = SweepRows(*map(_readonly, (P, Q, X, distance, W)),
                      tuple(corrals.get(j, ()) for j in range(len(zpts))))
    object.__setattr__(z, "_projections", (poly, table))
    return table


def _nearest_faces(dist: np.ndarray, sizes: np.ndarray, scale: float) -> np.ndarray:
    """Per column of ``dist`` (faces x rows, inf where the row's affine
    projection is not strictly inside the face), the nearest face; faces
    within 1e-12 x scale tie, and a tie goes to the larger face."""
    tied = dist <= dist.min(axis=0) + 1e-12 * scale
    largest = np.where(tied, sizes[:, None], -1).max(axis=0)
    return np.where(tied & (sizes[:, None] == largest), dist, np.inf).argmin(axis=0)


def _polytope_face_rows(poly: Polytope, targets: np.ndarray, near: np.ndarray) -> list:
    """The simplicial face of poly (``_simplicial_faces``) each target
    projects onto, as a ``solvers._hull_rows`` corral (vertex order), where
    ``near`` (targets x facets) marks the facets each target violates by more
    than -``FACE_ACTIVE_TOL`` x scale. One stacked affine min-norm solve per
    face size, only on the (face, target) pairs that can hold the target's
    projection q: outside poly, t - q is a non-negative combination of the
    normals of the facets active at q (KKT), and |t - q|^2 > 0, so t
    violates one of them, and that facet holds q's face."""
    faces, incidence = _simplicial_faces(poly)
    V, groups = poly.vertices, [f for f in faces.values() if len(f)]
    dist = []
    for f in groups:
        face, row = np.nonzero((near @ incidence[:, f].all(axis=2)).T)
        dist.append(np.full((len(f), len(targets)), np.inf))
        if len(face):
            S = V[f[face]] - targets[row][:, None]
            W = solvers._affine_min_norm(S)
            X = np.einsum("km,kmd->kd", W, S)
            dist[-1][face, row] = np.where((W > 1e-12).all(axis=1),
                                           np.sqrt(np.einsum("kd,kd->k", X, X)), np.inf)
    sizes = np.concatenate([np.full(len(f), f.shape[1]) for f in groups])
    rows = [tuple(row) for f in groups for row in f.tolist()]
    return [rows[k] for k in _nearest_faces(np.concatenate(dist), sizes, poly.scale())]


def _banded_pairs(rows: SweepRows, p_rows: int, tol_active: float):
    """(value, pairs) from a table of one row per vertex of either body,
    the first ``p_rows`` of them polytope rows. A pair is reported when its
    distance is within ``tol_active * value`` of the maximum, in row order.
    Raises ValueError unless 0 <= tol_active < 1.
    """
    if not 0.0 <= tol_active < 1.0:
        raise ValueError(f"need 0 <= tol_active < 1, got {tol_active}")
    value = float(rows.distance.max())
    band = np.flatnonzero(rows.distance >= value * (1.0 - tol_active)).tolist()
    pairs = [AchievingPair(p=rows.P[k], q=rows.Q[k], side="p_vertex" if k < p_rows else "z_vertex",
                           vertex_index=k if k < p_rows else k - p_rows,
                           lift=lift_values_to_lift(rows.X[k]), distance=float(rows.distance[k]))
             for k in band]
    return value, pairs


def hausdorff_distance(poly: Polytope, z: Zonotope, tol_active: float = ACTIVE_PAIR_TOL):
    """Exact Hausdorff distance and its achieving pairs.

    Reads the table of the pair's sweep rows (``_projections``). Returns
    (value, pairs); a pair is reported when its distance is within
    ``tol_active * value`` of the maximum, deduplicated by construction
    (one candidate per vertex, lowest index first).
    """
    _require_same_dim(poly, z)
    return _banded_pairs(_projections(poly, z), len(poly.vertices), tol_active)


def coarse_hausdorff_distance(poly: Polytope, z: Zonotope, tol_active: float = ACTIVE_PAIR_TOL):
    """Hausdorff distance between the vertex sets only.

    An upper bound for the exact distance. Every pair endpoint is a
    vertex, so every pair carries an exact 0/1 lift; nearest neighbours
    break ties by lowest index. The rows fill the exact distance's table,
    each row's vertex paired with its nearest vertex of the other body.
    """
    _require_same_dim(poly, z)
    V, (lifts, zpts) = poly.vertices, _vertex_arrays(z)
    dmat = np.linalg.norm(V[:, None, :] - zpts[None, :, :], axis=2)
    i = np.concatenate([np.arange(len(V)), dmat.argmin(axis=0)])
    j = np.concatenate([dmat.argmin(axis=1), np.arange(len(zpts))])
    return _banded_pairs(SweepRows(V[i], zpts[j], lifts[j], dmat[i, j]), len(V), tol_active)


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
    # Variables (w, t): maximize t subject to A w = b (as A w >= b and
    # -A w >= -b) and w - t >= 0.
    Aw = np.hstack([A, np.zeros((d + 1, 1))])
    lhs = np.vstack([Aw, -Aw, np.hstack([np.eye(m), -np.ones((m, 1))])])
    rhs = np.concatenate([b, -b, np.zeros(m)])
    res = solvers.solve_lp(np.eye(m + 1)[-1], lhs, rhs, _STABILITY_LP_TOL)
    return float(res.x[-1]) if res.status == "optimal" else None


def is_hausdorff_stable(x, poly: Polytope) -> bool:
    """Whether projecting x onto the body is locally face-stable.

    Interior points are stable; boundary points are not. An exterior point
    is stable iff its projection q sits strictly inside its minimal face
    (all convex coefficients positive) and the offset x - q lies in the
    relative interior of that face's normal cone, i.e. every vertex off the
    face lies strictly behind q along the offset (by ``STRICT_TOL``).
    """
    x = solvers._point(x, poly.dim, "polytope")
    row = solvers.project_to_hull(poly.vertices, x)
    return not _hull_unstable(x[None], row.point[None], row.weights[None], poly)[0]


def _exterior(P, Q, normals, offsets, scale):
    """Least facet slack of each point P, offset U = P - Q from its projection
    Q, |U|, and the facets within the face tolerance of Q."""
    U = P - Q
    margin = (offsets - np.einsum("fd,rd->rf", normals, P)).min(axis=1)
    active = np.abs(np.einsum("fd,rd->rf", normals, Q) - offsets) <= FACE_ACTIVE_TOL * scale
    return margin, U, np.sqrt(np.einsum("rd,rd->r", U, U)), active


def _hull_unstable(T, Q, W, poly: Polytope) -> np.ndarray:
    """``not is_hausdorff_stable`` for each row of T, projected onto poly at Q
    with weights W, all at once. A face's coefficient is the least weight
    when the weights' support is its vertex set; only otherwise is it solved."""
    V, scale = poly.vertices, poly.scale()
    margin, U, nu, active = _exterior(T, Q, poly.facet_normals, poly.facet_offsets, scale)
    on_face = _face_vertices(poly, active)
    t_face = np.where(on_face, W, np.inf).min(axis=1)
    outside = (margin <= -STRICT_TOL * scale) & (nu > STRICT_TOL * scale) & active.any(axis=1)
    for k in np.flatnonzero(outside & (on_face != (W != 0.0)).any(axis=1)):
        t = _max_min_coefficient(V[on_face[k]].T, Q[k])
        t_face[k] = -np.inf if t is None else t
    u = U / np.where(nu > 0.0, nu, 1.0)[:, None]
    behind = np.einsum("rvd,rd->rv", V[None] - Q[:, None], u) < -STRICT_TOL * scale
    stable = outside & (t_face > STRICT_TOL) & (on_face | behind).all(axis=1)
    return ~np.where(margin > -STRICT_TOL * scale, margin > STRICT_TOL * scale, stable)


def _lift_unstable(V, Q, X, z: Zonotope, scale: float) -> np.ndarray:
    """Which polytope vertices V, box least-squares projected onto z at Q
    with coefficients X, are not Hausdorff stable relative to z, all at
    once. Outside z, q is in the relative interior of the face spanned by
    the free generators F (coefficients strictly inside (0, 1)) iff |F| < d
    and every facet active at q spans F; u = v - q is in the relative
    interior of that face's normal cone iff sign(2 x_i - 1) <g_i, u> > 0
    off F (strict complementarity)."""
    margin, U, nu, active = _exterior(V, Q, *zonotope_facets(z), scale)
    free = (X > 0.0) & (X < 1.0)
    # Facet rows come in +-pairs per spanning subset (``zonotope_facets``).
    spans = np.repeat((_facet_directions(z)[0][:, :, None] == np.arange(z.rank)).any(1), 2, 0)
    signed = (np.where(X > 0.5, 1.0, -1.0) * np.einsum("nd,rd->rn", z.generators, U)
              / np.linalg.norm(z.generators, axis=1))
    stable = ((nu > STRICT_TOL * scale) & (free.sum(axis=1) < z.dim)
              & ~((active @ ~spans) & free).any(axis=1)  # every active facet spans F
              & (free | (signed > STRICT_TOL * nu[:, None])).all(axis=1))
    return ~np.where(margin > -STRICT_TOL * scale, margin > STRICT_TOL * scale, stable)


def check_locality(poly: Polytope, z: Zonotope) -> LocalityReport:
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
    rows, k = _projections(poly, z), len(poly.vertices)
    scale = 1.0 + float(np.abs(rows.Q[k:]).max())
    bad_p = _lift_unstable(poly.vertices, rows.Q[:k], rows.X[:k], z, scale)
    bad_z = _hull_unstable(rows.Q[k:], rows.P[k:], rows.W, poly)
    return LocalityReport(general_position=True, degenerate_subsets=(),
                          unstable_p_vertices=tuple(np.flatnonzero(bad_p).tolist()),
                          unstable_z_vertices=tuple(np.flatnonzero(bad_z).tolist()))


def evaluate(poly: Polytope, z: Zonotope):
    """(value, pairs, coarse value, ``LocalityReport``): the distance, the
    coarse distance and the locality check, read off the pair's one sweep."""
    value, pairs = hausdorff_distance(poly, z)
    return value, pairs, coarse_hausdorff_distance(poly, z)[0], check_locality(poly, z)


@dataclass(frozen=True)
class SmoothTerm:
    """One smooth term of the local max-decomposition of the distance: the
    distance from a polytope flat {y : N y = c} (``normals`` N, ``offsets``
    c) to the affine hull of a zonotope face, the generators at
    ``free_indices`` through the vertex of ``anchor_bits``.

    A p_vertex term tracks a polytope vertex p (N = I, c = p) against the
    face of z its projection lies in; a z_vertex term tracks a zonotope
    vertex (its bits the anchor, no free index) against the affine hull of
    its minimal face in the polytope (no rows for the whole body). ``side``
    and ``vertex_index`` name the sweep row; value and gradient do not read
    them. Both evaluate at any zonotope with the same rank and dimension;
    generator order must be preserved. Raises DimensionMismatch for fields
    of mismatched shapes or a free index outside the rank, and
    DegenerateInput for non-finite data or a repeated free index.
    """

    side: str
    vertex_index: int
    normals: np.ndarray
    offsets: np.ndarray
    anchor_bits: np.ndarray
    free_indices: tuple = ()

    def __post_init__(self):
        N, c, x = map(_readonly, (self.normals, self.offsets, self.anchor_bits))
        free = tuple(int(i) for i in self.free_indices)
        if N.ndim != 2 or c.shape != N.shape[:1] or x.ndim != 1:
            raise DimensionMismatch("need normals (m, d), offsets (m,) and 1-D anchor bits")
        if not all(0 <= i < x.size for i in free):
            raise DimensionMismatch(f"free indices {free} are not all below the rank {x.size}")
        if len(set(free)) < len(free) or not all(np.isfinite(a).all() for a in (N, c, x)):
            raise DegenerateInput("term data must be finite and its free indices distinct")
        for name, value in zip(("normals", "offsets", "anchor_bits", "free_indices"),
                               (N, c, x, free)):
            object.__setattr__(self, name, value)

    @property
    def codim(self) -> int:
        return len(self.normals) - len(self.free_indices)

    def _offset(self, z: Zonotope):
        """(x, w) at z: x the cube lift of the face point nearest the flat,
        the anchor plus its free coefficients y = lstsq(N D, c - N q) (q the
        anchor's image, D the free generators as columns), and
        w = N^T (N (q + D y) - c) that point's offset from the flat. Any
        vertex of the face may anchor it: y shifts by the anchor's free bits
        and x does not."""
        (n, d), N, free = z.generators.shape, self.normals, list(self.free_indices)
        if self.anchor_bits.size != n or N.shape[1] != d:
            raise DimensionMismatch(f"term is for rank {self.anchor_bits.size} in {N.shape[1]}-D, "
                                    f"zonotope is rank {n} in {d}-D")
        x = np.array(self.anchor_bits)
        A, b = N @ z.generators[free].T, self.offsets - N @ z.map_point(x)
        y = np.linalg.lstsq(A, b, rcond=None)[0] if free else np.zeros(0)
        x[free] += y
        return x, N.T @ (A @ y - b)

    def value(self, z: Zonotope) -> float:
        return float(np.linalg.norm(self._offset(z)[1]))

    def gradient(self, z: Zonotope) -> np.ndarray:
        """The value's gradient in the flat parameter layout, the cone's row
        formula ``cone.rows(x, w / |w|)``. Raises DegenerateFace where the term
        has none: codim < 1 (a projection inside the face) or |w| <= 1e-14
        (the face point on the flat)."""
        x, w = self._offset(z)
        delta = float(np.linalg.norm(w))
        if self.codim < 1 or delta <= 1e-14:
            raise DegenerateFace("no gradient: codim-0 face, or the face point on the flat")
        return cone.rows(x, w / delta)


def _term(poly: Polytope, side: str, vertex_index: int, p, x) -> SmoothTerm:
    """The term tracking a sweep row, polytope point p against the zonotope
    point of cube lift x: a polytope vertex (the flat N = I, c = p) against
    the face of x (the coordinates strictly inside (0, 1) free, the rest
    rounded to the anchor's bits, free ones at 0), or a zonotope vertex (the
    face of x alone) against the affine hull of p's minimal face."""
    if side == "p_vertex":
        free = (x > 0.0) & (x < 1.0)
        return SmoothTerm(side, vertex_index, np.eye(len(p)), p, np.where(free, 0.0, np.round(x)),
                          tuple(np.flatnonzero(free).tolist()))
    face = minimal_face(poly, p)
    return SmoothTerm(side, vertex_index, face.normals, face.offsets, x)


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
    _require_same_dim(poly, z0)
    if require_locality and not check_locality(poly, z0).ok:
        raise LocalityViolation("locality conditions fail at the base zonotope")

    rows, m = _projections(poly, z0), len(poly.vertices)
    return [_term(poly, "p_vertex" if k < m else "z_vertex", k if k < m else k - m,
                  rows.P[k], rows.X[k]) for k in range(len(rows.P))]
