"""Polytope and zonotope representations and their face machinery.

Conventions fixed here and used everywhere else:

* A zonotope with n generators in R^d stores its generators as the n rows
  of an (n, d) matrix G; the body is the image of the unit cube under
  x -> x @ G + translation. Cubical vertices are the images of the 2^n
  cube corners.
* A polytope is a vertex list (every listed vertex extreme) plus a derived
  irredundant facet description with unit outward normals.

Zonotope faces are read off generator subsets: a (d-1)-subset S with a
unit normal eta of its span gives the facets +-eta, and the vertices of
the facet with outward normal eta are the anchor bits ``G @ eta > 0`` off
S combined with every bit pattern on S, and its faces those with every
pattern {0, 1, free} on S. One pass over the subsets
(``_facet_directions``) yields facets, faces and vertices together. Outside
general position that correspondence fails, and vertex enumeration falls
back to a separating-hyperplane feasibility LP per bit-vector. A zonotope
face is named by a cube lift's anchor bits and free generators
(``LiftPoint``); polytope faces are handed around as ``FaceDescriptor``
values carrying an orthonormal affine-hull description.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import solvers
from .errors import (
    CodimZeroFace,
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
    "AffineHull",
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
    "face_affine_hull",
    "polytope_from_json",
    "polytope_to_json",
    "zonotope_from_json",
    "zonotope_to_json",
]

GENERAL_POSITION_TOL = 1e-10
BOUNDARY_TOL = 1e-7
FACE_ACTIVE_TOL = 1e-7
LIFT_FREE_TOL = 1e-7
VERTEX_ENUM_CAP = 20


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Zonotope:
    """A zonotope: row i of ``generators`` is generator g_i.

    The represented set is {x @ generators + translation : x in [0,1]^n}.
    Instances are immutable; the derived vertex list, facet directions and
    facet description are cached on first use, and so are the vertex sweeps
    against the last polytope measured (see ``hausdorff._projections``).
    """

    generators: np.ndarray
    translation: np.ndarray
    _vertices: list | None = field(default=None, init=False, repr=False, compare=False)
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

    def cubical_vertex(self, bits) -> np.ndarray:
        return self.map_point(np.asarray(bits, dtype=float))


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


def degenerate_subsets(z: Zonotope, tol: float = GENERAL_POSITION_TOL) -> tuple:
    """Index tuples of the d-subsets of generators that are linearly dependent.

    Relative test: a d x d minor counts as vanishing when its magnitude is
    at most tol times the product of the participating row norms.
    """
    G = z.generators
    n, d = G.shape
    rows = _subsets(n, d)
    bounds = tol * np.prod(np.linalg.norm(G, axis=1)[rows], axis=1)
    bad = np.abs(np.linalg.det(G[rows])) <= bounds
    return tuple(tuple(int(i) for i in r) for r in rows[bad])


def is_general_position(z: Zonotope, tol: float = GENERAL_POSITION_TOL) -> bool:
    """True iff every d of the n generators are linearly independent."""
    return not degenerate_subsets(z, tol)


def is_zonotope_vertex(z: Zonotope, bits) -> bool:
    """Decide whether the cubical vertex at ``bits`` is a true vertex.

    It is one iff some hyperplane through the origin strictly separates the
    selected generators from the rest; strictness is encoded as margins
    +-1, which is scale-free because the separating system is homogeneous.
    """
    e = np.asarray(bits, dtype=float).reshape(-1)
    G = z.generators
    n, d = G.shape
    if e.size != n:
        raise DimensionMismatch("bit-vector length must equal the rank")
    signs = np.where(e > 0.5, 1.0, -1.0)
    lhs = signs[:, None] * G
    lp = solvers.LinearProgram(
        objective=np.zeros(d),
        lhs=lhs,
        senses=[">="] * n,
        rhs=np.ones(n),
        maximize=False,
    )
    try:
        res = solvers.solve_lp(lp)
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


def _zonotope_faces(z: Zonotope) -> np.ndarray:
    """Every boundary face of a general-position zonotope as an integer code
    free set << n | anchor bits (``_bits``): each facet's anchor bits off its
    subset with every pattern {0, 1, free} on it. Sorted and distinct: the
    vertices (empty free set) come first, in lexicographic bit order."""
    subsets, normals, _ = _facet_directions(z)
    n, k = z.rank, subsets.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    along = normals @ z.generators.T
    along[np.arange(subsets.shape[0])[:, None], subsets] = 0.0
    # The facets +-eta have anchor bits where +-G @ eta > 0 off the subset
    # (never 0 in general position); a pattern digit 1 on it sets a bit, 2
    # frees it (bit n + i of the code).
    patterns = np.arange(3 ** k) // 3 ** np.arange(k - 1, -1, -1)[:, None] % 3
    on_subset = weights[subsets] @ np.where(patterns == 2, 1 << n, patterns)
    codes = np.sort(np.concatenate([(along > 0.0) @ weights, (along < 0.0) @ weights])[:, None]
                    + np.concatenate([on_subset, on_subset]), axis=None)
    return codes[np.append(True, codes[1:] != codes[:-1])]


def enumerate_vertices(z: Zonotope, cap: int = VERTEX_ENUM_CAP):
    """All vertices of a zonotope with their lifts, in lexicographic bit order.

    In general position every vertex lies on a facet: the vertices are the
    faces of ``_zonotope_faces`` with an empty free set. Outside general
    position each of the 2^n bit-vectors is tested with the separation LP
    (``is_zonotope_vertex``). Returns [(bits, point), ...]; cached on the
    instance.
    """
    if z._vertices is not None:
        return z._vertices
    n = z.rank
    if n > cap:
        raise RankCapExceeded(f"rank {n} exceeds the enumeration cap {cap}")
    if not _facet_directions(z)[2]:
        codes = _zonotope_faces(z)
        candidates = _bits(codes[codes < 1 << n], n)
    else:
        candidates = [bits for bits in itertools.product((0.0, 1.0), repeat=n)
                      if is_zonotope_vertex(z, bits)]
    bits = _readonly(np.array(candidates, dtype=float).reshape(-1, n))
    out = [(row, _readonly(row @ z.generators + z.translation)) for row in bits]
    object.__setattr__(z, "_vertices", out)
    return out


def zonotope_facets(z: Zonotope):
    """Irredundant H-description of a general-position zonotope.

    Each (d-1)-subset of generators spans a facet direction; its unit
    normal comes from the subset's nullspace and the two offsets from the
    support function. Returns (normals, offsets) with unit outward normals;
    cached on the instance.
    """
    if z._facets is not None:
        return z._facets
    G = z.generators
    mu = z.translation
    normals, offsets = [], []
    for eta in _facet_directions(z)[1]:
        for sign in (1.0, -1.0):
            nrm = sign * eta
            normals.append(nrm)
            offsets.append(float(nrm @ mu + np.maximum(G @ nrm, 0.0).sum()))
    pair = (_readonly(np.array(normals)), _readonly(np.array(offsets)))
    object.__setattr__(z, "_facets", pair)
    return pair


@dataclass(frozen=True)
class Polytope:
    """Convex polytope given by extreme vertices and derived facets.

    ``facet_normals`` rows are unit outward normals; every vertex v
    satisfies normals @ v <= offsets + tol. Construct with
    ``Polytope.from_vertices`` (validates) or ``Polytope.from_points``
    (filters non-extreme points first). Faces discovered by
    ``minimal_face`` are memoized in ``face_index`` keyed by their active
    facet set (the polytope is immutable, so entries stay valid).
    """

    vertices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    face_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _faces: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(np.atleast_2d(self.vertices)))
        object.__setattr__(self, "facet_normals", _readonly(np.atleast_2d(self.facet_normals)))
        object.__setattr__(self, "facet_offsets", _readonly(self.facet_offsets))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def scale(self) -> float:
        return 1.0 + float(np.abs(self.vertices).max(initial=0.0))

    def contains(self, x, tol: float = BOUNDARY_TOL) -> bool:
        margins = self.facet_normals @ np.asarray(x, dtype=float) - self.facet_offsets
        return bool(margins.max(initial=-np.inf) <= tol * self.scale())

    def interior_margin(self, x) -> float:
        """Smallest slack over facets; positive strictly inside."""
        margins = self.facet_offsets - self.facet_normals @ np.asarray(x, dtype=float)
        return float(margins.min(initial=np.inf))

    @staticmethod
    def from_vertices(vertices, facets=None, tol: float = 1e-9) -> "Polytope":
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if not np.all(np.isfinite(V)):
            raise DegenerateInput("polytope vertices must be finite")
        _require_full_dimensional(V)
        scale = 1.0 + float(np.abs(V).max())
        # Every listed vertex must be extreme.
        for i in range(V.shape[0]):
            others = np.delete(V, i, axis=0)
            proj = solvers.project_to_hull(others, V[i])
            if proj.distance <= tol * scale:
                raise DegenerateInput(f"vertex {i} is not extreme")
        return Polytope._from_extreme(V, facets, tol)

    @staticmethod
    def _from_extreme(V: np.ndarray, facets, tol: float) -> "Polytope":
        """``from_vertices`` for vertices already known to be extreme."""
        scale = 1.0 + float(np.abs(V).max())
        if facets is not None:
            normals = np.atleast_2d(np.asarray([f[:-1] for f in facets], dtype=float))
            offsets = np.asarray([f[-1] for f in facets], dtype=float)
            norms = np.linalg.norm(normals, axis=1)
            if not (np.all(np.isfinite(offsets)) and np.all(np.isfinite(norms))
                    and np.all(norms > 0.0)):
                raise DegenerateInput("facet normals must be finite and nonzero")
            normals = normals / norms[:, None]
            offsets = offsets / norms
        else:
            normals, offsets = _facets_brute_force(V, tol)
        margins = normals @ V.T - offsets[:, None]
        if margins.max() > tol * scale * 10.0:
            raise DegenerateInput("facet description does not contain all vertices")
        return Polytope(V, normals, offsets)

    @staticmethod
    def from_points(points, tol: float = 1e-9) -> "Polytope":
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(P)):
            raise DegenerateInput("points must be finite")
        scale = 1.0 + float(np.abs(P).max())
        # Merge near-duplicates (keeping the first) so that a repeated
        # extreme point is not hidden in the hull of its own copy.
        distinct = []
        for i in range(P.shape[0]):
            if all(np.linalg.norm(P[i] - P[j]) > tol * scale for j in distinct):
                distinct.append(i)
        if len(distinct) < P.shape[1] + 1:
            raise DegenerateInput("need at least d + 1 distinct points")
        P = P[distinct]
        keep = []
        for i in range(P.shape[0]):
            others = np.delete(P, i, axis=0)
            proj = solvers.project_to_hull(others, P[i])
            if proj.distance > tol * scale:
                keep.append(i)
        _require_full_dimensional(P[keep])
        return Polytope._from_extreme(P[keep], None, tol)


def _require_full_dimensional(V: np.ndarray):
    k, d = V.shape
    scale = 1.0 + float(np.abs(V).max(initial=0.0))
    if k < d + 1 or np.linalg.matrix_rank(V - V[0], tol=1e-10 * scale) < d:
        raise DegenerateInput("polytope must be full-dimensional")


def _facets_brute_force(V: np.ndarray, tol: float):
    """Facets of conv(V), full-dimensional in R^d, by brute force over
    d-subsets with supporting-plane checks. In R^1 the facets are (+1, -1).
    """
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
        if hi <= tol * scale:
            pass  # eta already outward
        elif lo >= -tol * scale:
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

    def anchor_bits(self) -> np.ndarray:
        """Bit-vector with free coordinates dropped to 0 (a face anchor)."""
        bits = np.round(self.values).astype(float)
        bits[list(self.free_indices)] = 0.0
        return bits


def lift_values_to_lift(values, tol: float = LIFT_FREE_TOL) -> LiftPoint:
    x = np.asarray(values, dtype=float)
    free = tuple(int(i) for i in np.flatnonzero((x > tol) & (x < 1.0 - tol)))
    return LiftPoint(values=x, free_indices=free)


@dataclass(frozen=True)
class AffineHull:
    """Affine subspace as intersection of hyperplanes <eta_k, y> = c_k.

    Normals are mutually orthonormal, so the distance from u is
    |sum_k (<eta_k, u> - c_k) eta_k|. ``base`` is a point of the subspace.
    """

    base: np.ndarray
    normals: np.ndarray  # (m, d), orthonormal rows
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        object.__setattr__(self, "base", _readonly(self.base))
        object.__setattr__(self, "normals", _readonly(np.atleast_2d(self.normals)))
        object.__setattr__(self, "offsets", _readonly(np.atleast_1d(self.offsets)))

    @property
    def codim(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of the polytope (``minimal_face``): its vertex subset and
    its affine hull, which is None exactly when the face is the whole body
    (codim 0).
    """

    affine_hull: AffineHull | None
    vertex_indices: tuple | None = None

    @property
    def codim(self) -> int:
        return 0 if self.affine_hull is None else self.affine_hull.codim


def face_affine_hull(face: FaceDescriptor) -> AffineHull:
    """The stored affine hull; raises for the codim-0 face.

    By convention the distance to a codim-0 face is 0, so it has no
    hyperplane description to return.
    """
    if face.affine_hull is None:
        raise CodimZeroFace("face is the whole body")
    return face.affine_hull


def lift_boundary_point(z: Zonotope, q, tol: float = BOUNDARY_TOL) -> LiftPoint:
    """Unique cube preimage of a boundary point of a stable zonotope.

    Box-constrained least squares recovers the preimage; uniqueness holds
    iff the generators free in the solution are linearly independent.
    Raises NotOnBoundary when q is off the boundary (outside or strictly
    interior) and NonUniqueLift when the stability check fails.
    """
    q = np.asarray(q, dtype=float)
    scale = 1.0 + z.scale() + float(np.linalg.norm(z.translation))
    normals, offsets = zonotope_facets(z)
    margins = normals @ q - offsets
    if margins.max() > tol * scale:
        raise NotOnBoundary("point is outside the zonotope")
    if margins.max() < -tol * scale:
        raise NotOnBoundary("point is strictly interior")
    proj = solvers.box_least_squares(z.generators, z.translation, q)
    if proj.distance > tol * scale:
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
        if room > tol:
            raise NonUniqueLift("preimage contains a segment; lift not unique")
    return lift


def pushforward(source: Zonotope, target: Zonotope, lift) -> np.ndarray:
    """Image of a source-boundary lift under the target's affine map."""
    x = lift.values if isinstance(lift, LiftPoint) else np.asarray(lift, dtype=float)
    if target.rank != source.rank or x.size != target.rank:
        raise DimensionMismatch("source and target must share the rank")
    return target.map_point(x)


def is_pushforward_proper(source: Zonotope, target: Zonotope,
                          tol: float = BOUNDARY_TOL, samples_per_facet: int = 3) -> bool:
    """True iff pushing the source boundary forward stays on the target's.

    Checks every vertex lift plus interior samples of every facet's cube
    face against the target's H-description: proper means each image point
    activates some facet while violating none.
    """
    if target.rank != source.rank:
        raise DimensionMismatch("source and target must share the rank")
    normals, offsets = zonotope_facets(target)
    scale = 1.0 + target.scale() + float(np.linalg.norm(target.translation))

    def on_boundary(y):
        margins = normals @ y - offsets
        return margins.max() <= tol * scale and margins.max() >= -tol * scale

    for bits, _ in enumerate_vertices(source):
        if not on_boundary(target.map_point(bits)):
            return False
    G = source.generators
    subsets, etas, _ = _facet_directions(source)
    ticks = np.linspace(0.0, 1.0, samples_per_facet + 2)[1:-1]
    for rows, eta in zip(subsets, etas):
        for sign in (1.0, -1.0):
            anchor = (G @ (sign * eta) > 0.0).astype(float)
            for combo in itertools.product(ticks, repeat=rows.size):
                x = anchor.copy()
                x[rows] = combo
                if not on_boundary(target.map_point(x)):
                    return False
    return True


def minimal_face(poly: Polytope, x, tol: float = FACE_ACTIVE_TOL) -> FaceDescriptor:
    """Smallest face of the polytope whose affine hull contains ``x``.

    Determined by the set of facets active at x, which also serves as the
    face's id in the polytope's face index. With no active facet the whole
    polytope is returned (codim 0).
    """
    x = np.asarray(x, dtype=float)
    scale = poly.scale()
    margins = poly.facet_normals @ x - poly.facet_offsets
    if margins.max(initial=-np.inf) > tol * scale:
        raise PointOutsidePolytope("point violates a facet inequality")
    mask = np.abs(margins) <= tol * scale
    active = np.flatnonzero(mask)
    face_id = tuple(int(i) for i in active)
    cached = poly.face_index.get(face_id)
    if cached is not None:
        return cached
    if active.size == 0:
        face = FaceDescriptor(affine_hull=None,
                              vertex_indices=tuple(range(poly.vertices.shape[0])))
        poly.face_index[face_id] = face
        return face
    on_face = np.flatnonzero(_face_vertices(poly, mask[None], tol))
    raw = poly.facet_normals[active]
    q, r = np.linalg.qr(raw.T)
    rank = int((np.abs(np.diag(r)) > 1e-10).sum())
    normals = q[:, :rank].T
    base = poly.vertices[on_face].mean(axis=0) if on_face.size else x
    hull = AffineHull(base=base, normals=normals, offsets=normals @ base)
    face = FaceDescriptor(affine_hull=hull, vertex_indices=tuple(int(i) for i in on_face))
    if on_face.size:  # a query-point base would not be reusable
        poly.face_index[face_id] = face
    return face


def _face_vertices(poly: Polytope, active, tol: float = FACE_ACTIVE_TOL) -> np.ndarray:
    """Face vertices (rows x vertices): within 10 x tol x scale of all active facets."""
    return ~(active @ (np.abs(poly.vertices @ poly.facet_normals.T - poly.facet_offsets)
                       > tol * poly.scale() * 10.0).T)


def _simplicial_faces(poly: Polytope) -> dict:
    """Vertex index rows of the polytope's simplicial faces by size: every
    vertex and subset of a facet with d vertices (``_face_vertices``), and
    as size d + 1 the fan joining vertex 0 to each such facet off it, which
    covers the polytope when those are all its facets off vertex 0. Cached
    on the polytope by one attribute write."""
    if poly._faces is not None:
        return poly._faces
    nv, d = poly.vertices.shape
    incidence = _face_vertices(poly, np.eye(poly.facet_offsets.size, dtype=bool))
    simplices = np.nonzero(incidence[incidence.sum(axis=1) == d])[1].reshape(-1, d)
    faces = {m: np.unique(simplices[:, _subsets(d, m)].reshape(-1, m), axis=0)
             for m in range(2, d + 1)}
    fan = simplices[(simplices != 0).all(axis=1)]
    faces.update({1: np.arange(nv)[:, None], d + 1: np.insert(fan, 0, 0, axis=1)})
    object.__setattr__(poly, "_faces", faces)
    return faces


def zonotope_as_polytope(z: Zonotope) -> Polytope:
    """V- and H-description of a general-position zonotope as a Polytope."""
    verts = np.array([pt for _, pt in enumerate_vertices(z)])
    normals, offsets = zonotope_facets(z)
    return Polytope(vertices=verts, facet_normals=normals, facet_offsets=offsets)


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
