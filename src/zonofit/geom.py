"""Polytope and zonotope representations and their face machinery.

Conventions fixed here and used everywhere else:

* A zonotope with n generators in R^d stores its generators as the n rows
  of an (n, d) matrix G; the body is the image of the unit cube under
  x -> x @ G + translation. Cubical vertices are the images of the 2^n
  cube corners.
* A polytope is a vertex list (every listed vertex extreme) plus a derived
  irredundant facet description with unit outward normals.

Zonotope facets and vertices are read off generator subsets: a
(d-1)-subset S with a unit normal eta of its span gives the facets +-eta,
and the vertices of the facet with outward normal eta are the anchor bits
``G @ eta > 0`` off S combined with every bit pattern on S. One pass over
the subsets (``_facet_directions``) yields both, each built once per
zonotope as read-only arrays cached on it. Outside general
position that correspondence fails, and vertex enumeration falls back to a
separating-hyperplane feasibility LP per bit-vector. A zonotope
face is named by a cube lift's anchor bits and free generators
(``LiftPoint``); a polytope face is one ``FaceDescriptor``: its vertex
indices and its affine hull as the flat {y : N y = c} with orthonormal rows
N, none for the whole body; a polytope's facet-vertex incidence is built
once and cached on it (``_simplicial_faces``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import solvers
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    LPNumericalFailure,
    IterationLimit,
    NonUniqueLift,
    NotOnBoundary,
    PointOutsidePolytope,
    RankCapExceeded,
)

__all__ = [
    "Zonotope",
    "Polytope",
    "LiftPoint",
    "FaceDescriptor",
    "canonicalize",
    "degenerate_subsets",
    "is_general_position",
    "is_zonotope_vertex",
    "enumerate_vertices",
    "zonotope_facets",
    "zonotope_as_polytope",
    "lift_boundary_point",
    "pushforward",
    "is_pushforward_proper",
    "minimal_face",
    "polytope_from_json",
    "polytope_to_json",
    "zonotope_from_json",
    "zonotope_to_json",
]

GENERAL_POSITION_TOL = 1e-10
BOUNDARY_TOL = 1e-7
FACE_ACTIVE_TOL = 1e-7
VERTEX_ENUM_CAP = 20
EXTREME_TOL = 1e-9
PUSHFORWARD_SAMPLES = 3


def _readonly(a, dtype=float):
    """A read-only copy of a: the caller's array stays writable, and writing
    to it changes nothing that holds the copy."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Zonotope:
    """A zonotope: row i of ``generators`` is generator g_i.

    The represented set is {x @ generators + translation : x in [0,1]^n}.
    Instances are immutable; the derived vertices, facet directions and
    facet description are built on first use and cached, and so are the
    vertex sweeps against the last polytope measured (``hausdorff._projections``).
    """

    generators: np.ndarray
    translation: np.ndarray
    _vertices: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _facets: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _directions: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _projections: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.generators, dtype=float))
        mu = np.asarray(self.translation, dtype=float).reshape(-1)
        if G.shape[1] != mu.size:
            raise DimensionMismatch("generator width must match translation length")
        if G.shape[0] < G.shape[1] or G.shape[1] < 1:
            raise DegenerateInput("need n >= d >= 1 generators")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(mu))):
            raise DegenerateInput("zonotope data must be finite")
        object.__setattr__(self, "generators", _readonly(G))
        object.__setattr__(self, "translation", _readonly(mu))

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def center(self) -> np.ndarray:
        return self.translation + 0.5 * self.generators.sum(axis=0)

    def scale(self) -> float:
        """Characteristic length: the largest generator norm."""
        return float(np.linalg.norm(self.generators, axis=1).max())

    def map_point(self, x) -> np.ndarray:
        """Image of cube point(s) x under the zonotope's affine map."""
        return np.asarray(x, dtype=float) @ self.generators + self.translation



def canonicalize(z: Zonotope) -> Zonotope:
    """Sort generator rows lexicographically ascending.

    The represented set is unchanged; this picks the canonical
    representative of the generator-permutation orbit.
    """
    G = z.generators
    order = np.lexsort(tuple(G[:, j] for j in range(G.shape[1] - 1, -1, -1)))
    return Zonotope(G[order], z.translation)


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as rows of a read-only index array, in
    lexicographic order."""
    rows = np.array(list(itertools.combinations(range(n), k)), dtype=int)
    rows.setflags(write=False)
    return rows


def degenerate_subsets(z: Zonotope) -> tuple:
    """Index tuples of the d-subsets of generators that are linearly dependent.

    Relative test: a d x d minor vanishes when its magnitude is at most
    ``GENERAL_POSITION_TOL`` times the product of its rows' norms.
    """
    G = z.generators
    n, d = G.shape
    rows = _subsets(n, d)
    bounds = GENERAL_POSITION_TOL * np.prod(np.linalg.norm(G, axis=1)[rows], axis=1)
    bad = np.abs(np.linalg.det(G[rows])) <= bounds
    return tuple(tuple(int(i) for i in r) for r in rows[bad])


def is_general_position(z: Zonotope) -> bool:
    """True iff every d of the n generators are linearly independent."""
    return not degenerate_subsets(z)


def is_zonotope_vertex(z: Zonotope, bits) -> bool:
    """Decide whether the cubical vertex at ``bits`` is a true vertex.

    It is one iff a hyperplane through the origin strictly separates the
    selected nonzero generators from the rest, by margins +-1. The system
    is homogeneous, so each row is divided by its norm: a short generator
    would otherwise need a separator past the simplex's tolerances. A zero
    generator's bit is fixed at 0.
    """
    e = np.asarray(bits, dtype=float).reshape(-1)
    G = z.generators
    n, d = G.shape
    if e.size != n:
        raise DimensionMismatch("bit-vector length must equal the rank")
    signs, moves = np.where(e > 0.5, 1.0, -1.0), G.any(axis=1)
    if (signs[~moves] > 0.0).any():
        return False
    rows = (signs[:, None] * G)[moves]
    try:
        res = solvers.solve_lp(np.zeros(d), rows / np.linalg.norm(rows, axis=1)[:, None],
                               np.ones(moves.sum()))
    except IterationLimit as exc:
        raise LPNumericalFailure(str(exc)) from exc
    return res.status == "optimal"


def _facet_directions(z: Zonotope):
    """Facet directions of ``z`` from one batched SVD over generator subsets.

    Returns (subsets, normals, degenerate): the (d-1)-subsets whose
    generators span a hyperplane, as rows of an index array; a unit normal
    eta of each span (the facets are +-eta); and ``degenerate_subsets(z)``,
    empty iff z is in general position. Cached on the instance.
    """
    if z._directions is not None:
        return z._directions
    G = z.generators
    n, d = G.shape
    subsets = _subsets(n, d - 1)
    if d == 1:
        normals = np.ones((1, 1))
    else:
        _, s, vt = np.linalg.svd(G[subsets])
        spans = s[:, -1] > 1e-12 * np.maximum(1.0, s[:, 0])
        subsets, normals = subsets[spans], vt[spans, -1]
    out = (subsets, _readonly(normals), degenerate_subsets(z))
    object.__setattr__(z, "_directions", out)
    return out


def _bits(codes: np.ndarray, n: int) -> np.ndarray:
    """The low n bits of integer codes as boolean rows, most significant first."""
    return (codes[:, None] & (1 << np.arange(n - 1, -1, -1, dtype=np.int64))) > 0


def enumerate_vertices(z: Zonotope):
    """All vertices of a zonotope with their lifts, in lexicographic bit order.

    In general position every vertex lies on a facet: its bits are the
    facet's anchor bits with some bit pattern on the facet's generator
    subset, one integer code per (facet, pattern). Outside general
    position each of the 2^n bit-vectors is tested with the separation LP
    (``is_zonotope_vertex``), up to rank ``VERTEX_ENUM_CAP``. Returns
    [(bits, point), ...], rows of the read-only arrays of ``_vertex_arrays``,
    built once and cached on the instance. Every zonotope has a vertex, so
    finding none raises ``LPNumericalFailure``.
    """
    if z._vertices is not None:
        return z._vertices[0]
    n = z.rank
    if n > VERTEX_ENUM_CAP:
        raise RankCapExceeded(f"rank {n} exceeds the enumeration cap {VERTEX_ENUM_CAP}")
    subsets, normals, degenerate = _facet_directions(z)
    if not degenerate:
        k, weights = subsets.shape[1], 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        along = normals @ z.generators.T
        along[np.arange(len(subsets))[:, None], subsets] = 0.0
        # The facets +-eta have anchor bits where +-G @ eta > 0 off the
        # subset (never 0 in general position), and every bit pattern on it.
        on_subset = weights[subsets] @ (np.arange(2 ** k) >> np.arange(k - 1, -1, -1)[:, None] & 1)
        anchors = np.concatenate([along > 0.0, along < 0.0]) @ weights
        candidates = _bits(np.unique(anchors[:, None] + np.tile(on_subset, (2, 1))), n)
    else:
        candidates = [bits for bits in itertools.product((0.0, 1.0), repeat=n)
                      if is_zonotope_vertex(z, bits)]
        if not candidates:
            raise LPNumericalFailure("the separation LPs found no zonotope vertex")
    bits = _readonly(np.array(candidates, dtype=float).reshape(-1, n))
    # A stacked product: each row gets the bits of its own row @ G (a gemm,
    # bits @ G, changes last bits).
    points = _readonly((bits[:, None, :] @ z.generators)[:, 0] + z.translation)
    object.__setattr__(z, "_vertices", (list(zip(bits, points)), bits, points))
    return z._vertices[0]


def _vertex_arrays(z: Zonotope) -> tuple:
    """(bits, points): ``enumerate_vertices(z)`` as the read-only arrays of its rows."""
    enumerate_vertices(z)
    return z._vertices[1:]


def zonotope_facets(z: Zonotope):
    """Irredundant H-description of a general-position zonotope.

    Each (d-1)-subset of generators spans a facet direction; its unit
    normal comes from the subset's nullspace and the two offsets from the
    support function. Returns (normals, offsets) with unit outward normals;
    cached on the instance.
    """
    if z._facets is not None:
        return z._facets
    E = _facet_directions(z)[1]
    # Stacked products: each direction gets the bits of its own G @ eta and
    # eta @ translation (a gemm, E @ G.T, changes last bits), and G @ -eta
    # is -(G @ eta) bit for bit.
    along = (z.generators @ E[:, :, None])[:, :, 0]
    shift = (E[:, None, :] @ z.translation)[:, 0]
    offsets = np.stack([shift + np.maximum(along, 0.0).sum(axis=1),
                        np.maximum(-along, 0.0).sum(axis=1) - shift], axis=1)
    pair = (_readonly(np.stack([E, -E], axis=1).reshape(-1, z.dim)), _readonly(offsets.ravel()))
    object.__setattr__(z, "_facets", pair)
    return pair


@dataclass(frozen=True)
class Polytope:
    """Convex polytope given by extreme vertices and derived facets.

    ``facet_normals`` rows are unit outward normals; every vertex v
    satisfies normals @ v <= offsets + tol. Construct with
    ``Polytope.from_vertices`` (validates) or ``Polytope.from_points``
    (filters non-extreme points first).
    """

    vertices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    _faces: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(np.atleast_2d(self.vertices)))
        object.__setattr__(self, "facet_normals", _readonly(np.atleast_2d(self.facet_normals)))
        object.__setattr__(self, "facet_offsets", _readonly(self.facet_offsets))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def scale(self) -> float:
        return 1.0 + float(np.abs(self.vertices).max(initial=0.0))

    def contains(self, x) -> bool:
        margins = self.facet_normals @ np.asarray(x, dtype=float) - self.facet_offsets
        return bool(margins.max(initial=-np.inf) <= BOUNDARY_TOL * self.scale())

    def interior_margin(self, x) -> float:
        """Smallest slack over facets; positive strictly inside."""
        margins = self.facet_offsets - self.facet_normals @ np.asarray(x, dtype=float)
        return float(margins.min(initial=np.inf))

    @staticmethod
    def from_vertices(vertices, facets=None) -> "Polytope":
        V = _point_rows(vertices, "polytope vertices")
        _require_full_dimensional(V)
        scale = 1.0 + float(np.abs(V).max())
        # Every listed vertex must be extreme.
        inner = np.flatnonzero(~_extreme(V, scale))
        if inner.size:
            raise DegenerateInput(f"vertex {inner[0]} is not extreme")
        return Polytope._from_extreme(V, facets)

    @staticmethod
    def _from_extreme(V: np.ndarray, facets) -> "Polytope":
        """``from_vertices`` for vertices already known to be extreme. Given
        ``facets`` must be exactly the facets of conv(V), each within
        10 x ``EXTREME_TOL`` (x scale for offsets) of a distinct one that
        ``_facets_brute_force`` finds, which stands in for it."""
        normals, offsets = _facets_brute_force(V)
        if facets is not None:
            F = np.asarray(facets, dtype=float)
            if F.ndim != 2 or F.shape[1] != V.shape[1] + 1:
                raise DegenerateInput("each facet must be a normal and an offset")
            norms = np.linalg.norm(F[:, :-1], axis=1)
            if not (np.all(np.isfinite(F[:, -1])) and np.all(np.isfinite(norms))
                    and np.all(norms > 0.0)):
                raise DegenerateInput("facet normals must be finite and nonzero")
            n, c, tol = F[:, :-1] / norms[:, None], F[:, -1] / norms, 10.0 * EXTREME_TOL
            match = ((np.abs(n[:, None] - normals).max(axis=2) <= tol)
                     & (np.abs(c[:, None] - offsets) <= tol * (1.0 + float(np.abs(V).max()))))
            if not ((match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()):
                raise DegenerateInput("facets are not exactly the facets of the vertices' hull")
            normals, offsets = normals[match.argmax(axis=1)], offsets[match.argmax(axis=1)]
        return Polytope(V, normals, offsets)

    @staticmethod
    def from_points(points) -> "Polytope":
        P = _point_rows(points, "points")
        scale = 1.0 + float(np.abs(P).max())
        # Merge near-duplicates (keeping the first) so that a repeated
        # extreme point is not hidden in the hull of its own copy.
        distinct = []
        for i in range(P.shape[0]):
            if all(np.linalg.norm(P[i] - P[j]) > EXTREME_TOL * scale for j in distinct):
                distinct.append(i)
        if len(distinct) < P.shape[1] + 1:
            raise DegenerateInput("need at least d + 1 distinct points")
        P = P[distinct]
        keep = _extreme(P, scale)
        _require_full_dimensional(P[keep])
        return Polytope._from_extreme(P[keep], None)


def _point_rows(points, name: str) -> np.ndarray:
    """points as a float array, one point a row; raises DegenerateInput
    unless it is a non-empty, finite 2-D array."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise DegenerateInput(f"{name} must be a non-empty 2-D array, one point a row")
    if not np.all(np.isfinite(P)):
        raise DegenerateInput(f"{name} must be finite")
    return P


def _extreme(P: np.ndarray, scale: float) -> np.ndarray:
    """Which points are farther than ``EXTREME_TOL`` x scale from the hull of
    the others: one stacked Wolfe loop, row k on ``delete(P, k) - P[k]``."""
    others = np.stack([np.delete(P, k, axis=0) for k in range(len(P))])
    distance = solvers._hull_rows(others, P, *solvers._wolfe(others - P[:, None]))[2]
    return distance > EXTREME_TOL * scale


def _require_full_dimensional(V: np.ndarray):
    k, d = V.shape
    scale = 1.0 + float(np.abs(V).max(initial=0.0))
    if k < d + 1 or np.linalg.matrix_rank(V - V[0], tol=1e-10 * scale) < d:
        raise DegenerateInput("polytope must be full-dimensional")


def _facets_brute_force(V: np.ndarray):
    """Facets of conv(V), full-dimensional in R^d, by brute force over
    d-subsets with supporting-plane checks: one batched SVD per block of
    subsets (a block bounds the margins array at 4096 x len(V)). The
    products are stacked matmuls, so each plane has the bits of its own
    product. In R^1 the facets are (+1, -1).
    """
    k, d = V.shape
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([float(V.max()), float(-V.min())])
    scale = 1.0 + float(np.abs(V).max())
    tol, subsets, planes = EXTREME_TOL * scale, _subsets(k, d), []
    for start in range(0, len(subsets), 4096):
        rows = subsets[start:start + 4096]
        base = V[rows[:, 0]]
        _, s, vt = np.linalg.svd(V[rows[:, 1:]] - base[:, None])
        eta = vt[:, -1]
        c = (eta[:, None, :] @ base[:, :, None])[:, 0, 0]
        margins = (V @ eta[:, :, None])[:, :, 0] - c[:, None]
        outward = margins.max(axis=1) <= tol  # else inward, if a supporting plane
        inward = ~outward & (margins.min(axis=1) >= -tol)
        flip = np.where(inward, -1.0, 1.0)
        independent = s[:, -1] > 1e-10 * np.maximum(1.0, s[:, 0])
        planes.append((flip[:, None] * eta, flip * c, independent & (outward | inward)))
    eta, c, supporting = (np.concatenate(a) for a in zip(*planes))
    keep = []  # the supporting planes, in subset order, less duplicates
    for i in np.flatnonzero(supporting):
        if not ((np.linalg.norm(eta[keep] - eta[i], axis=1) < 1e-8)
                & (np.abs(c[keep] - c[i]) < 1e-8 * scale)).any():
            keep.append(i)
    if not keep:
        raise DegenerateInput("no facets found; input is degenerate")
    return eta[keep], c[keep]


@dataclass(frozen=True)
class LiftPoint:
    """A point of the unit cube lifting a zonotope boundary point.

    ``free_indices`` are the coordinates strictly inside (0, 1); the
    minimal face of the zonotope containing the image is spanned by the
    generators at those indices.
    """

    values: np.ndarray
    free_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))


def lift_values_to_lift(values) -> LiftPoint:
    x = np.asarray(values, dtype=float)
    return LiftPoint(values=x, free_indices=tuple(np.flatnonzero((x > 0.0) & (x < 1.0)).tolist()))


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of the polytope (``minimal_face``): the flat {y : N y = c} of
    its affine hull, with orthonormal rows N (``normals``, shape (0, d) for
    the whole body) and ``offsets`` c, and the indices of its vertices.
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertex_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "normals", _readonly(self.normals))
        object.__setattr__(self, "offsets", _readonly(self.offsets))

    @property
    def codim(self) -> int:
        return len(self.normals)


def lift_boundary_point(z: Zonotope, q) -> LiftPoint:
    """Unique cube preimage of a boundary point of a stable zonotope.

    Box-constrained least squares recovers the preimage; uniqueness holds
    iff the generators free in the solution are linearly independent.
    Raises NotOnBoundary when q is off the boundary (outside or strictly
    interior) and NonUniqueLift when the stability check fails;
    DimensionMismatch unless q is a point of the zonotope's space, and
    DegenerateInput unless it is finite.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (z.dim,):
        raise DimensionMismatch(f"point has shape {q.shape}, zonotope is {z.dim}-D")
    if not np.all(np.isfinite(q)):
        raise DegenerateInput("point must be finite")
    scale = 1.0 + z.scale() + float(np.linalg.norm(z.translation))
    normals, offsets = zonotope_facets(z)
    margins = normals @ q - offsets
    if margins.max() > BOUNDARY_TOL * scale:
        raise NotOnBoundary("point is outside the zonotope")
    if margins.max() < -BOUNDARY_TOL * scale:
        raise NotOnBoundary("point is strictly interior")
    proj = solvers.box_least_squares(z.generators, z.translation, q)
    if proj.distance > BOUNDARY_TOL * scale:
        raise NotOnBoundary("no cube preimage within tolerance")
    lift = lift_values_to_lift(proj.coefficients)
    free = list(lift.free_indices)
    if free:
        sub = z.generators[free]
        if np.linalg.matrix_rank(sub, tol=1e-10 * scale) < len(free):
            raise NonUniqueLift("free generators are dependent; lift not unique")
    # Probe the preimage set along null directions of the zonotope map: a
    # feasible segment through the solution means the lift is not unique.
    x = proj.coefficients
    _, s, vt = np.linalg.svd(z.generators.T)
    null_basis = vt[int((s > 1e-10 * max(1.0, s[0] if s.size else 1.0)).sum()):]
    for nu in null_basis:
        room = 0.0
        for sign in (1.0, -1.0):
            v = sign * nu
            steps = []
            for i in range(x.size):
                if v[i] > 1e-12:
                    steps.append((1.0 - x[i]) / v[i])
                elif v[i] < -1e-12:
                    steps.append(-x[i] / v[i])
            room += min(steps) if steps else np.inf
        if room > BOUNDARY_TOL:
            raise NonUniqueLift("preimage contains a segment; lift not unique")
    return lift


def pushforward(source: Zonotope, target: Zonotope, lift) -> np.ndarray:
    """Image of a source-boundary lift under the target's affine map."""
    x = lift.values if isinstance(lift, LiftPoint) else np.asarray(lift, dtype=float)
    if target.rank != source.rank or x.size != target.rank:
        raise DimensionMismatch("source and target must share the rank")
    return target.map_point(x)


def is_pushforward_proper(source: Zonotope, target: Zonotope) -> bool:
    """True iff pushing the source boundary forward stays on the target's.

    Checks every vertex lift and ``PUSHFORWARD_SAMPLES`` interior samples
    per coordinate of every facet's cube face against the target's facets:
    proper means each image point activates some facet, violating none.
    """
    if target.rank != source.rank:
        raise DimensionMismatch("source and target must share the rank")
    normals, offsets = zonotope_facets(target)
    scale = 1.0 + target.scale() + float(np.linalg.norm(target.translation))

    def on_boundary(y):
        return abs((normals @ y - offsets).max()) <= BOUNDARY_TOL * scale

    if not all(on_boundary(target.map_point(bits)) for bits in _vertex_arrays(source)[0]):
        return False
    G = source.generators
    subsets, etas, _ = _facet_directions(source)
    ticks = np.linspace(0.0, 1.0, PUSHFORWARD_SAMPLES + 2)[1:-1]
    for rows, eta in zip(subsets, etas):
        for sign in (1.0, -1.0):
            anchor = (G @ (sign * eta) > 0.0).astype(float)
            for combo in itertools.product(ticks, repeat=rows.size):
                x = anchor.copy()
                x[rows] = combo
                if not on_boundary(target.map_point(x)):
                    return False
    return True


def minimal_face(poly: Polytope, x) -> FaceDescriptor:
    """Smallest face of the polytope whose affine hull contains ``x``.

    Determined by the set of facets active at x. With no active facet the
    whole polytope is returned (codim 0, no normals). Raises
    DimensionMismatch unless x is a point of the polytope's space, and
    DegenerateInput unless it is finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (poly.dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, polytope is {poly.dim}-D")
    if not np.all(np.isfinite(x)):
        raise DegenerateInput("point must be finite")
    scale = poly.scale()
    margins = poly.facet_normals @ x - poly.facet_offsets
    if margins.max(initial=-np.inf) > FACE_ACTIVE_TOL * scale:
        raise PointOutsidePolytope("point violates a facet inequality")
    mask = np.abs(margins) <= FACE_ACTIVE_TOL * scale
    on_face = np.flatnonzero(_face_vertices(poly, mask[None]))
    q, r = np.linalg.qr(poly.facet_normals[mask].T)
    normals = q[:, :int((np.abs(np.diag(r)) > 1e-10).sum())].T
    base = poly.vertices[on_face].mean(axis=0) if on_face.size else x
    return FaceDescriptor(normals, normals @ base, tuple(on_face.tolist()))


def _face_vertices(poly: Polytope, active) -> np.ndarray:
    """Face vertices (rows x vertices): on all active facets (``_simplicial_faces``)."""
    return ~(active @ ~_simplicial_faces(poly)[1])


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """``np.unique(a, axis=0)`` for 2-D a: one lexsort and an adjacent-row compare."""
    a = a[np.lexsort(a.T[::-1])]
    return np.concatenate([a[:1], a[1:][(a[1:] != a[:-1]).any(axis=1)]])


def _simplicial_faces(poly: Polytope) -> tuple:
    """(faces, incidence): vertex index rows of the polytope's simplicial
    faces by size, every vertex and subset of a facet with d vertices; and
    the facet-vertex incidence they were read from: within 10
    FACE_ACTIVE_TOL x scale of the facet. Cached on the polytope by one
    attribute write."""
    if poly._faces is not None:
        return poly._faces
    nv, d = poly.vertices.shape
    incidence = ~(np.abs(poly.vertices @ poly.facet_normals.T - poly.facet_offsets)
                  > FACE_ACTIVE_TOL * poly.scale() * 10.0).T
    simplices = np.nonzero(incidence[incidence.sum(axis=1) == d])[1].reshape(-1, d)
    faces = {m: _unique_rows(simplices[:, _subsets(d, m)].reshape(-1, m))
             for m in range(2, d + 1)}
    faces[1] = np.arange(nv)[:, None]
    object.__setattr__(poly, "_faces", (faces, incidence))
    return faces, incidence


def zonotope_as_polytope(z: Zonotope) -> Polytope:
    """V- and H-description of a general-position zonotope as a Polytope."""
    return Polytope(_vertex_arrays(z)[1], *zonotope_facets(z))


# --- JSON wire formats -----------------------------------------------------

def polytope_from_json(data: dict) -> Polytope:
    """Schema: {"vertices": [[...], ...], "facets": [[n..., c], ...]?}."""
    if not isinstance(data, dict):
        raise ValueError("a polytope must be a JSON object")
    verts = data["vertices"]
    facets = data.get("facets")
    return Polytope.from_vertices(verts, facets=facets)


def polytope_to_json(poly: Polytope) -> dict:
    return {
        "vertices": poly.vertices.tolist(),
        "facets": [list(n) + [float(c)] for n, c in zip(poly.facet_normals, poly.facet_offsets)],
    }


def zonotope_from_json(data: dict) -> Zonotope:
    """Schema: {"generators": [[...], ...], "translation": [...]}."""
    if not isinstance(data, dict):
        raise ValueError("a zonotope must be a JSON object")
    return Zonotope(np.asarray(data["generators"], dtype=float),
                    np.asarray(data["translation"], dtype=float))


def zonotope_to_json(z: Zonotope) -> dict:
    return {"generators": z.generators.tolist(), "translation": z.translation.tolist()}
