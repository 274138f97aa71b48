"""Warmstart tests: symmetric envelopes, center search, box fits."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from conftest import random_polytope, random_zonotope
from zonofit import warmstart
from zonofit.errors import AsymmetryTooLarge, DegenerateInput, DimensionNot2
from zonofit.geom import (
    Polytope,
    Zonotope,
    enumerate_vertices,
    is_general_position,
    zonotope_as_polytope,
)
from zonofit.hausdorff import hausdorff_distance
from zonofit.warmstart import (
    SymmetricPolygon,
    _envelope_areas,
    choose_center_2d,
    convex_hull_2d,
    envelope_2d,
    fit_rank_2d,
    polygon_area,
    symmetric_polygon_to_zonotope,
    warmstart_generic,
    warmstart_zonotope,
)

HEX_GENERATORS = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])


def triangle():
    return Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def lattice_polygon(rng):
    """Hull of integer points: exact duplicates, collinear points and
    centers that land reflections on vertices."""
    while True:
        points = rng.integers(-6, 7, size=(int(rng.integers(4, 12)), 2)).astype(float)
        if np.linalg.matrix_rank(points - points[0]) == 2:
            return Polytope.from_points(points)


def polygon_mix(rng, count):
    """Random, centrally symmetric and lattice polygons, ``count`` of each."""
    for _ in range(count):
        yield random_polytope(rng, 2)
        yield zonotope_as_polytope(random_zonotope(rng, int(rng.integers(2, 6)), 2))
        yield lattice_polygon(rng)


def reference_center_2d(poly, grid_depth=3):
    """``choose_center_2d`` as a per-candidate loop, one envelope each."""
    V = poly.vertices
    best = V.mean(axis=0)
    best_area = polygon_area(envelope_2d(poly, best).vertices)
    width = 0.5 * float(np.ptp(V, axis=0).max())
    for _ in range(grid_depth):
        ticks = np.linspace(-width, width, 9)
        for dx in ticks:
            for dy in ticks:
                cand = best + np.array([dx, dy])
                area = polygon_area(envelope_2d(poly, cand).vertices)
                if area < best_area * (1.0 - 64 * np.finfo(float).eps):
                    best, best_area = cand, area
        width /= 3.0
    return best


class TestEnvelope2D:
    def test_symmetric_input_is_fixed_point(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        poly = zonotope_as_polytope(z)
        env = envelope_2d(poly, z.center)
        assert env.vertices.shape[0] == 6
        got = {tuple(np.round(v, 9)) for v in env.vertices}
        want = {tuple(np.round(pt, 9)) for _, pt in enumerate_vertices(z)}
        assert got == want

    def test_triangle_hexagonal_envelope(self):
        poly = triangle()
        env = envelope_2d(poly, poly.vertices.mean(axis=0))
        assert env.vertices.shape[0] == 6

    def test_containment_probes(self, rng):
        poly = random_polytope(rng, 2)
        env = envelope_2d(poly, poly.vertices.mean(axis=0))
        z = symmetric_polygon_to_zonotope(env)
        from zonofit.solvers import box_least_squares

        lam = rng.dirichlet(np.ones(poly.vertices.shape[0]), size=200)
        for x in lam @ poly.vertices:
            d = box_least_squares(z.generators, z.translation, x).distance
            assert d <= 1e-8

    def test_dimension_guard(self, rng):
        poly = random_polytope(rng, 3)
        with pytest.raises(DimensionNot2):
            envelope_2d(poly, np.zeros(3))

    @pytest.mark.parametrize("points, center", [
        # Round-off kept one point of an edge and dropped its reflection:
        # an 11-vertex cycle.
        ([[-4, -5], [4, -1], [2, 2], [1, 2], [-6, -4], [-1, 2], [1, -4], [3, 0]],
         [-0.5277777777777778, -1.527777777777778]),
        # Round-off kept a collinear middle point: two parallel generators.
        ([[2, 1], [1, -6], [-1, -2], [2, -2], [1, 0], [-2, 0], [-3, -4], [1, 6], [1, 2]],
         [-0.33333333333333337, -2.3333333333333335]),
    ])
    def test_near_collinear_turns_drop_a_point_and_its_reflection(self, points, center):
        poly = Polytope.from_points(np.array(points, dtype=float))
        env = envelope_2d(poly, center)
        m = env.vertices.shape[0] // 2
        assert env.vertices.shape[0] == 2 * m
        assert np.allclose(2.0 * env.center - env.vertices[:m], env.vertices[m:], atol=1e-12)
        z = symmetric_polygon_to_zonotope(env)
        assert z.rank == m and is_general_position(z)
        for n in (2, 4, 6):
            assert is_general_position(warmstart_zonotope(poly, n))

    def test_batched_area_is_the_hull_area(self, rng):
        # Centers at vertices and edge midpoints land reflections on
        # vertices, and put the center itself among the points.
        for poly in polygon_mix(rng, 6):
            V = poly.vertices
            C = np.vstack([V.mean(axis=0), V, 0.5 * (V + np.roll(V, -1, axis=0))])
            want = [polygon_area(envelope_2d(poly, c).vertices) for c in C]
            assert _envelope_areas(V, C) == pytest.approx(want, rel=1e-14, abs=0.0)


    def test_small_polygon_far_from_origin_area(self):
        # A 2e-3-wide hexagon centred at (2.6, 0.7), as an envelope at an
        # edge midpoint can be: its exact area is the rational shoelace.
        t = np.arange(6) * np.pi / 3
        V = np.array([2.6, 0.7]) + 1e-3 * np.column_stack([np.cos(t), np.sin(t)])
        F = [tuple(map(Fraction, v)) for v in V]
        exact = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(F, F[1:] + F[:1]))) / 2
        assert abs(Fraction(polygon_area(V)) - exact) <= Fraction(1e-15) * exact


class TestConvexHull2D:
    def test_vertex_set_matches_qhull(self, rng):
        # Integer grid points carry exact duplicates and exactly collinear
        # points; each near-duplicate sorts after its original (larger x),
        # so the original is the copy kept.
        for _ in range(20):
            base = rng.integers(0, 6, size=(15, 2)).astype(float)
            if np.linalg.matrix_rank(base - base[0]) < 2:
                continue
            near = base[rng.integers(0, 15, size=6)]
            near += np.column_stack([rng.uniform(1e-12, 1e-11, 6),
                                     rng.uniform(-1e-11, 1e-11, 6)])
            points = rng.permutation(np.vstack([base, base[:4], near]))
            got = {tuple(v) for v in convex_hull_2d(points)}
            assert got == {tuple(base[i]) for i in ConvexHull(base).vertices}

    def test_reflected_envelope_cycle_is_ccw(self, rng):
        # A triangle reflected through (1, 0.5) spans a rectangle; the edge
        # midpoints (1, 0) and (1, 1) are collinear and dropped.
        V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        hull = convex_hull_2d(np.vstack([V, 2.0 * np.array([1.0, 0.5]) - V]))
        assert hull.tolist() == [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
        for _ in range(10):
            poly = random_polytope(rng, 2)
            cycle = envelope_2d(poly, rng.normal(scale=0.1, size=2)).vertices
            # Starts at the lexicographically smallest vertex and turns
            # strictly left at every vertex.
            assert tuple(cycle[0]) == min(map(tuple, cycle))
            a, b = np.roll(cycle, -1, axis=0) - cycle, np.roll(cycle, -2, axis=0) - cycle
            assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0.0)
            assert len(cycle) == len(ConvexHull(cycle).vertices)


class TestChooseCenter2D:
    def test_same_walk_as_the_per_candidate_loop(self, rng):
        for poly in polygon_mix(rng, 5):
            assert np.array_equal(choose_center_2d(poly), reference_center_2d(poly))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-20, 20))
    def test_scaling_by_a_power_of_two_scales_the_center(self, seed, k):
        # from_vertices keeps the vertex order, which from_points may not.
        V = random_polytope(np.random.default_rng(seed), 2).vertices
        center = choose_center_2d(Polytope.from_vertices(V))
        scaled = choose_center_2d(Polytope.from_vertices(V * 2.0**k))
        assert np.array_equal(scaled, center * 2.0**k)

    def test_symmetric_polytope_recovers_center(self, rng):
        z = random_zonotope(rng, 3, 2)
        poly = zonotope_as_polytope(z)
        center = choose_center_2d(poly)
        assert np.allclose(center, z.center, atol=1e-9)
        env = envelope_2d(poly, center)
        assert polygon_area(env.vertices) == pytest.approx(
            polygon_area(convex_hull_2d(poly.vertices)), abs=1e-9
        )

    def test_beats_or_ties_barycenter(self, rng):
        for _ in range(5):
            poly = random_polytope(rng, 2)
            bary = poly.vertices.mean(axis=0)
            a_bary = polygon_area(envelope_2d(poly, bary).vertices)
            a_best = polygon_area(envelope_2d(poly, choose_center_2d(poly)).vertices)
            assert a_best <= a_bary + 1e-12

    def test_refinement_monotone(self, rng, monkeypatch):
        poly = random_polytope(rng, 2)
        areas = []
        for depth in (1, 2, 3):
            monkeypatch.setattr(warmstart, "CENTER_GRID_DEPTH", depth)
            areas.append(polygon_area(envelope_2d(poly, choose_center_2d(poly)).vertices))
        assert areas[1] <= areas[0] + 1e-12
        assert areas[2] <= areas[1] + 1e-12


class TestSymmetricPolygonToZonotope:
    def test_unit_square(self):
        sq = SymmetricPolygon(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            center=np.array([0.5, 0.5]),
        )
        z = symmetric_polygon_to_zonotope(sq)
        assert sorted(map(tuple, np.round(np.abs(z.generators), 9))) == [(0.0, 1.0), (1.0, 0.0)]
        verts = {tuple(np.round(pt, 9)) for _, pt in enumerate_vertices(z)}
        assert verts == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_regular_hexagon(self):
        ang = np.pi / 3 * np.arange(6)
        hexagon = SymmetricPolygon(
            vertices=np.stack([np.cos(ang), np.sin(ang)], axis=1),
            center=np.zeros(2),
        )
        z = symmetric_polygon_to_zonotope(hexagon)
        assert z.rank == 3
        verts = {tuple(np.round(pt, 9)) for _, pt in enumerate_vertices(z)}
        want = {tuple(np.round(v, 9)) for v in hexagon.vertices}
        assert verts == want

    def test_worked_hexagon_recovers_generators(self):
        z0 = Zonotope(HEX_GENERATORS, np.zeros(2))
        poly = zonotope_as_polytope(z0)
        env = envelope_2d(poly, z0.center)
        z = symmetric_polygon_to_zonotope(env)
        got = sorted(map(tuple, np.round(np.abs(z.generators), 9)))
        want = sorted(map(tuple, np.abs(HEX_GENERATORS)))
        assert got == want
        verts = {tuple(np.round(pt, 9)) for _, pt in enumerate_vertices(z)}
        want_v = {tuple(np.round(pt, 9)) for _, pt in enumerate_vertices(z0)}
        assert verts == want_v

    def test_asymmetric_cycle_rejected(self):
        bad = SymmetricPolygon(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 1.0], [0.0, 1.0]]),
            center=np.array([0.5, 0.5]),
        )
        with pytest.raises(AsymmetryTooLarge):
            symmetric_polygon_to_zonotope(bad)


class TestFitRank:
    def test_keep_longest(self, rng):
        z = random_zonotope(rng, 5, 2)
        out = fit_rank_2d(z, 3, z.center, rng)
        assert out.rank == 3
        kept = sorted(np.linalg.norm(out.generators, axis=1))
        best = sorted(np.linalg.norm(z.generators, axis=1))[-3:]
        assert np.allclose(kept, sorted(best))

    def test_pad_short(self, rng):
        z = random_zonotope(rng, 3, 2)
        out = fit_rank_2d(z, 5, z.center, rng)
        assert out.rank == 5
        from zonofit.geom import is_general_position

        assert is_general_position(out)


@pytest.mark.parametrize("rank", [-1, 0, 1])
def test_rank_below_the_dimension_is_degenerate_input(rng, rank):
    # A negative rank once sliced the planar envelope's generators from the
    # end and returned a body of another rank.
    pentagon = Polytope.from_vertices([[0, 0], [2, 0.2], [2.6, 1.4], [1.1, 2.3], [-0.4, 1.2]])
    for poly in (pentagon, random_polytope(rng, 3)):
        with pytest.raises(DegenerateInput):
            warmstart_zonotope(poly, rank if poly.dim == 2 else rank + 1)


class TestWarmstartGeneric:
    def test_recovers_axis_aligned_box(self, rng):
        corners = np.array(
            [[x, y, w] for x in (0, 1.0) for y in (0, 2.0) for w in (0, 3.0)]
        )
        poly = Polytope.from_vertices(corners)
        z = warmstart_generic(poly, 3, rng)
        box = Zonotope(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        d, _ = hausdorff_distance(poly, z)
        assert d <= 1e-6

    def test_extra_generators_are_short(self, rng):
        poly = random_polytope(rng, 3)
        z = warmstart_generic(poly, 5, rng)
        norms = sorted(np.linalg.norm(z.generators, axis=1))
        spread = norms[-1]
        assert all(nm <= 0.1 * spread + 1e-12 for nm in norms[:2])


class TestWarmstartZonotope:
    def test_symmetric_polygon_exact(self, rng):
        z0 = random_zonotope(rng, 4, 2)
        poly = zonotope_as_polytope(z0)
        z = warmstart_zonotope(poly, 4)
        d, _ = hausdorff_distance(poly, z)
        assert d <= 1e-9

    def test_triangle_envelope_contains(self, rng):
        poly = triangle()
        z = warmstart_zonotope(poly, 3)
        from zonofit.solvers import box_least_squares

        lam = rng.dirichlet(np.ones(3), size=500)
        for x in lam @ poly.vertices:
            assert box_least_squares(z.generators, z.translation, x).distance <= 1e-8

    def test_3d_dispatch(self, rng):
        poly = random_polytope(rng, 3)
        z = warmstart_zonotope(poly, 4, rng)
        assert z.rank == 4 and z.dim == 3

    def test_warmstart_beats_random_median_3d(self, rng):
        from zonofit.solvers import box_least_squares

        wins = 0
        trials = 6
        for t in range(trials):
            poly = random_polytope(rng, 3)
            zw = warmstart_zonotope(poly, 4, np.random.default_rng(100 + t))
            dw, _ = hausdorff_distance(poly, zw)
            randoms = []
            for s in range(20):
                zr = random_zonotope(np.random.default_rng(1000 + 20 * t + s), 4, 3)
                dr, _ = hausdorff_distance(poly, zr)
                randoms.append(dr)
            if dw <= np.median(randoms):
                wins += 1
        assert wins >= trials - 1