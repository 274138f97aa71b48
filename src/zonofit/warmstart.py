"""Initial zonotope construction.

In the plane: reflect the polytope's vertices through a point, take the
convex hull, and read the resulting centrally symmetric polygon off as a
zonotope (one generator per opposite-edge pair). The reflection point is
grid-searched to shrink the envelope's area. The envelope contains the
polytope, and equals it when the polytope is already centrally symmetric.

In higher dimension: a principal-axes box fit (not enclosing), padded
with short random generators up to the requested rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryTooLarge, DegenerateInput, DimensionNot2
from .geom import Polytope, Zonotope, _readonly, canonicalize, is_general_position

__all__ = [
    "SymmetricPolygon",
    "convex_hull_2d",
    "polygon_area",
    "envelope_2d",
    "choose_center_2d",
    "symmetric_polygon_to_zonotope",
    "fit_rank_2d",
    "warmstart_generic",
    "warmstart_zonotope",
]

HULL_MERGE_TOL = 1e-9
SYMMETRY_TOL = 1e-7
CENTER_GRID_DEPTH = 3


@dataclass(frozen=True)
class SymmetricPolygon:
    """Convex polygon, counterclockwise vertex cycle, point-symmetric
    about ``center``."""

    vertices: np.ndarray  # (2m, 2)
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", _readonly(np.atleast_2d(self.vertices)))
        object.__setattr__(self, "center", _readonly(self.center))


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Hull vertex cycle (ccw) by monotone chain; collinear points dropped.

    Near-duplicate inputs (e.g. a reflected vertex landing on an original
    one up to roundoff) are merged within ``HULL_MERGE_TOL`` times the data
    scale, keeping the first in lexicographic order. A turn o -> a -> b with b
    within that distance of line oa drops a, as collinear, by one rule for
    a point and its reflection.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    merge = HULL_MERGE_TOL * (1.0 + float(np.abs(pts).max(initial=0.0)))
    # Exact duplicates (distance 0) merge like near ones.
    near = np.tril(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= merge, -1)
    if near.any():
        kept = []
        for i in range(pts.shape[0]):
            if not near[i, kept].any():
                kept.append(i)
        pts = pts[kept]
    if pts.shape[0] < 3:
        return pts
    # Monotone chain on Python floats: the lower hull, then the upper hull
    # back, whose pops stop short of the lower one.
    xy = pts.tolist()
    hull = []
    for indices in (range(pts.shape[0]), range(pts.shape[0] - 2, -1, -1)):
        floor = max(2, len(hull) + 1)
        for i in indices:
            bx, by = xy[i]
            while len(hull) >= floor:
                (ox, oy), (ax, ay) = xy[hull[-2]], xy[hull[-1]]
                cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                if cross > merge * ((ax - ox) ** 2 + (ay - oy) ** 2) ** 0.5:
                    break
                hull.pop()
            hull.append(i)
    return pts[hull[:-1]]


def polygon_area(cycle: np.ndarray) -> float:
    # Shoelace about the first vertex, so a small far polygon stays accurate.
    v = np.asarray(cycle, dtype=float)
    x, y = (v - v[0]).T
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def envelope_2d(poly: Polytope, center) -> SymmetricPolygon:
    """Hull of the vertices and their reflections through ``center``.

    A centrally symmetric polygon containing the polytope.
    """
    if poly.dim != 2:
        raise DimensionNot2("envelope construction needs a planar polytope")
    O = np.asarray(center, dtype=float)
    pts = np.vstack([poly.vertices, 2.0 * O - poly.vertices])
    return SymmetricPolygon(vertices=convex_hull_2d(pts), center=O)


def _envelope_areas(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Area of conv(V u (2c - V)) for each row c of C.

    About c the points are +-(V - c): sorted by angle they form a star
    polygon, whose reflex points are dropped until none is left. Points
    within the merge tolerance of c or of the point before them go first:
    round-off decides the turn at a near-duplicate pair.
    """
    W = V[None, :, :] - C[:, None, :]
    P = np.concatenate([W, -W], axis=1)
    # Pseudo-angle: monotone in the angle and exact under scaling by 2^k.
    x, y, radius = P[..., 0], P[..., 1], np.abs(P).sum(axis=2)
    t = y / np.where(radius > 0.0, radius, 1.0)
    order = np.argsort(np.where(x >= 0.0, t, 2.0 - t), axis=1, kind="stable")
    P = np.take_along_axis(P, order[..., None], axis=1)
    merge = HULL_MERGE_TOL * np.abs(W).max(axis=(1, 2))[:, None]
    keep = np.linalg.norm(np.stack([P, P - np.roll(P, 1, axis=1)]), axis=3).min(axis=0) > merge
    idx, rows = np.arange(P.shape[1]), np.arange(P.shape[0])[:, None]
    while True:
        # Kept points first, in angle order: a row's cycle is its first count.
        P = np.take_along_axis(P, np.argsort(~keep, axis=1, kind="stable")[..., None], axis=1)
        count = keep.sum(axis=1, keepdims=True)
        keep = idx < count
        Q = P[rows, (idx + 1) % count]
        a, b = P - P[rows, (idx - 1) % count], Q - P
        reflex = keep & (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0] < 0.0)
        if not reflex.any():
            return 0.5 * (keep * (P[..., 0] * Q[..., 1] - P[..., 1] * Q[..., 0])).sum(axis=1)
        keep &= ~reflex


def choose_center_2d(poly: Polytope) -> np.ndarray:
    """Reflection point minimizing the envelope area over a refined grid.

    Starts from the vertex barycenter (always a candidate, so the result
    is never worse) and refines a 9x9 grid ``CENTER_GRID_DEPTH`` times. A level
    walks its offsets from the best so far, scoring those left in one array
    pass, and accepts an area below best (1 - 64 eps): round-off ties keep
    the earlier center, and scaling by 2^k scales the result by 2^k.
    """
    if poly.dim != 2:
        raise DimensionNot2("center search needs a planar polytope")
    V = poly.vertices
    best = V.mean(axis=0)
    best_area = _envelope_areas(V, best[None])[0]
    width = 0.5 * float(np.ptp(V, axis=0).max())
    for _ in range(CENTER_GRID_DEPTH):
        ticks = np.linspace(-width, width, 9)
        offsets = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
        while offsets.shape[0]:
            cands = best + offsets
            areas = _envelope_areas(V, cands)
            better = np.flatnonzero(areas < best_area * (1.0 - 64 * np.finfo(float).eps))
            if not better.size:
                break
            i = better[0]
            best, best_area, offsets = cands[i], areas[i], offsets[i + 1:]
        width /= 3.0
    return best


def symmetric_polygon_to_zonotope(sp: SymmetricPolygon) -> Zonotope:
    """Read a centrally symmetric 2m-gon off as a rank-m zonotope.

    Opposite edges come in +-pairs; one representative of each pair is a
    generator, and the translation places the zonotope's center on the
    polygon's. The vertex sets then agree exactly.
    """
    V = sp.vertices
    k = V.shape[0]
    if k % 2 != 0 or k < 4:
        raise AsymmetryTooLarge("vertex cycle must have even length >= 4")
    m = k // 2
    scale = 1.0 + float(np.abs(V).max())
    reflected = 2.0 * sp.center - V
    for i in range(m):
        if np.linalg.norm(reflected[i] - V[i + m]) > SYMMETRY_TOL * scale:
            raise AsymmetryTooLarge("opposite vertices are not reflections")
    edges = np.roll(V, -1, axis=0) - V
    # Symmetrize each generator against its opposite edge.
    gens = 0.5 * (edges[:m] - edges[m:])
    mu = sp.center - 0.5 * gens.sum(axis=0)
    return Zonotope(gens, mu)


def fit_rank_2d(z: Zonotope, n: int, center, rng) -> Zonotope:
    """Adapt a planar zonotope to rank n.

    Too many generators: keep the n longest and recenter. Too few: pad
    with short random generators, retrying until general position holds.
    """
    if n < 2:
        raise DegenerateInput("rank must be at least the dimension")
    m = z.rank
    if m == n:
        return z
    O = np.asarray(center, dtype=float)
    if m > n:
        order = np.argsort(-np.linalg.norm(z.generators, axis=1), kind="stable")
        G = z.generators[np.sort(order[:n])]
        return Zonotope(G, O - 0.5 * G.sum(axis=0))
    spread = max(z.scale(), 1e-12)
    for _ in range(50):
        angles = rng.uniform(0.0, np.pi, size=n - m)
        pad = 0.05 * spread * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        G = np.vstack([z.generators, pad])
        cand = Zonotope(G, O - 0.5 * G.sum(axis=0))
        if is_general_position(cand):
            return cand
    raise DegenerateInput("could not pad to a general-position zonotope")


def warmstart_generic(poly: Polytope, n: int, rng) -> Zonotope:
    """Principal-axes box fit for any dimension (not enclosing).

    Generators are the vertex-covariance eigenvectors scaled to the
    vertex spread along them, padded with short random directions up to
    rank n; the translation centers the box on the vertex barycenter.
    """
    V = poly.vertices
    d = poly.dim
    if n < d:
        raise DegenerateInput("rank must be at least the dimension")
    bary = V.mean(axis=0)
    centered = V - bary
    cov = centered.T @ centered / max(V.shape[0], 1)
    _, axes = np.linalg.eigh(cov)
    gens = []
    for k in range(d - 1, -1, -1):
        u = axes[:, k]
        proj = centered @ u
        extent = float(proj.max() - proj.min())
        if extent <= 1e-12:
            raise DegenerateInput("polytope has no spread along a principal axis")
        gens.append(u * extent)
    spread = max(np.linalg.norm(g) for g in gens)
    for _ in range(50):
        G = np.array(gens)
        if n > d:
            extra = rng.normal(size=(n - d, d))
            extra /= np.linalg.norm(extra, axis=1)[:, None]
            G = np.vstack([G, 0.05 * spread * extra])
        cand = Zonotope(G, bary - 0.5 * G.sum(axis=0))
        if is_general_position(cand):
            return cand
        # retry with fresh padding, or jitter the axes when n == d
        if n == d:
            gens = [g + rng.normal(scale=1e-9 * spread, size=d) for g in gens]
    raise DegenerateInput("could not build a general-position warmstart")


def warmstart_zonotope(poly: Polytope, n: int, rng=None) -> Zonotope:
    """Initial guess: symmetric envelope in the plane, box fit otherwise."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if poly.dim == 2:
        center = choose_center_2d(poly)
        z = symmetric_polygon_to_zonotope(envelope_2d(poly, center))
        z = fit_rank_2d(z, n, center, rng)
        return canonicalize(z)
    return canonicalize(warmstart_generic(poly, n, rng))
