"""Geometry-layer tests: zonotope/polytope types, vertices, lifts, faces."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SHORT_PARALLEL_GENERATORS,
    UNIT_TRIANGLE,
    facets_brute_force_reference,
    hull_vertices_oracle,
    random_polytope,
    random_zonotope,
    simplicial_faces_reference,
)
from zonofit import geom, solvers
from zonofit.errors import (
    DegenerateInput,
    DimensionMismatch,
    LPNumericalFailure,
    NotOnBoundary,
    PointOutsidePolytope,
    RankCapExceeded,
)
from zonofit.geom import (
    Polytope,
    Zonotope,
    canonicalize,
    degenerate_subsets,
    enumerate_vertices,
    is_general_position,
    is_pushforward_proper,
    is_zonotope_vertex,
    lift_boundary_point,
    minimal_face,
    polytope_from_json,
    polytope_to_json,
    pushforward,
    zonotope_as_polytope,
    zonotope_from_json,
    zonotope_to_json,
)
from zonofit.hausdorff import (
    AchievingPair,
    check_locality,
    coarse_hausdorff_distance,
    hausdorff_distance,
)

# Worked hexagon example: generators as rows, translation 0.
HEX_GENERATORS = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
HEX_VERTICES = {(0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (4.0, 3.0), (2.0, 3.0), (1.0, 2.0)}


def unit_square_zonotope():
    return Zonotope(np.eye(2), np.zeros(2))


def unit_square_polytope():
    return Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestZonotopeType:
    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(DimensionMismatch):
            Zonotope(np.eye(2), np.zeros(3))

    def test_rejects_rank_below_dim(self):
        with pytest.raises(DegenerateInput):
            Zonotope(np.array([[1.0, 0.0]]), np.zeros(2))

    def test_arrays_are_readonly(self):
        z = unit_square_zonotope()
        with pytest.raises(ValueError):
            z.generators[0, 0] = 5.0

    def test_callers_arrays_stay_writable_and_apart(self, rng):
        # The body keeps copies: writing to the caller's arrays afterwards
        # changes neither the body nor its cached vertices and facets.
        G, mu = rng.normal(size=(4, 2)), rng.normal(size=2)
        z = Zonotope(G, mu)
        before = [a.copy() for a in (z.generators, z.translation, *geom._vertex_arrays(z),
                                     *geom.zonotope_facets(z))]
        G[0, 0], mu[0] = 5.0, 5.0
        assert G.flags.writeable and mu.flags.writeable
        after = (z.generators, z.translation, *geom._vertex_arrays(z), *geom.zonotope_facets(z))
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestCanonicalize:
    def test_already_sorted_identity(self):
        z = Zonotope([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
        assert np.array_equal(canonicalize(z).generators, z.generators)

    def test_swap(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        out = canonicalize(z)
        assert np.array_equal(out.generators, [[0.0, 1.0], [1.0, 0.0]])

    def test_random_rows_sorted_and_multiset_preserved(self, rng):
        G = rng.normal(size=(5, 3))
        z = Zonotope(G, np.zeros(3))
        out = canonicalize(z)
        rows = [tuple(r) for r in out.generators]
        assert rows == sorted(rows)
        assert sorted(map(tuple, G)) == rows

    def test_idempotent(self, rng):
        z = random_zonotope(rng, 5, 2)
        once = canonicalize(z)
        twice = canonicalize(once)
        assert np.array_equal(once.generators, twice.generators)

    def test_membership_preserved(self, rng):
        from zonofit.solvers import box_least_squares

        z = random_zonotope(rng, 4, 2)
        zc = canonicalize(z)
        for _ in range(100):
            p = rng.uniform(-2.0, 2.0, size=2)
            d1 = box_least_squares(z.generators, z.translation, p).distance
            d2 = box_least_squares(zc.generators, zc.translation, p).distance
            assert abs(d1 - d2) <= 1e-9


class TestGeneralPosition:
    def test_true_case(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.zeros(2))
        assert is_general_position(z)

    def test_parallel_pair(self):
        z = Zonotope([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], np.zeros(2))
        assert not is_general_position(z)

    def test_hexagon_generators(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        assert is_general_position(z)

    def test_degenerate_subsets_match_determinant_loop(self, rng):
        G = rng.normal(size=(6, 3))
        G[4] = 2.0 * G[1]
        z = Zonotope(G, np.zeros(3))
        norms = np.linalg.norm(G, axis=1)
        loop = tuple(rows for rows in itertools.combinations(range(6), 3)
                     if abs(np.linalg.det(G[list(rows)])) <= 1e-10 * np.prod(norms[list(rows)]))
        assert degenerate_subsets(z) == loop
        assert loop == ((0, 1, 4), (1, 2, 4), (1, 3, 4), (1, 4, 5))


class TestVertexhood:
    def test_square_corner(self):
        z = unit_square_zonotope()
        assert is_zonotope_vertex(z, [1, 1])

    def test_hexagon_interior_cubical_vertex(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        assert not is_zonotope_vertex(z, [1, 0, 1])  # g1 + g3 = (3,2), interior

    def test_hexagon_far_corner(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        assert is_zonotope_vertex(z, [1, 1, 1])  # (4,3)


class TestEnumerateVertices:
    def test_unit_square(self):
        verts = enumerate_vertices(unit_square_zonotope())
        assert len(verts) == 4

    def test_hexagon_coordinates(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        verts = enumerate_vertices(z)
        got = {tuple(np.round(pt, 9)) for _, pt in verts}
        assert got == HEX_VERTICES

    def test_count_formula_and_hull_oracle(self, rng):
        from math import comb

        for n, d in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            z = random_zonotope(rng, n, d)
            verts = enumerate_vertices(z)
            expected = 2 * sum(comb(n - 1, k) for k in range(d))
            assert len(verts) == expected
            cubical = np.array(
                [z.map_point(e) for e in itertools.product((0, 1), repeat=n)]
            )
            oracle_idx = hull_vertices_oracle(cubical)
            oracle_pts = {tuple(np.round(cubical[i], 8)) for i in oracle_idx}
            mine = {tuple(np.round(pt, 8)) for _, pt in verts}
            assert mine == oracle_pts

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]),
           extra=st.integers(0, 3))
    def test_general_position_vertex_count(self, seed, d, extra):
        n = d + extra
        z = random_zonotope(np.random.default_rng(seed), n, d)
        verts = enumerate_vertices(z)
        assert len(verts) == 2 * sum(math.comb(n - 1, i) for i in range(d))
        assert len({bits.tobytes() for bits, _ in verts}) == len(verts)

    def test_rank_cap(self, rng, monkeypatch):
        z = random_zonotope(rng, 4, 2)
        monkeypatch.setattr(geom, "VERTEX_ENUM_CAP", 3)
        with pytest.raises(RankCapExceeded):
            enumerate_vertices(z)

    def test_every_enumerated_passes_vertexhood(self, rng):
        z = random_zonotope(rng, 4, 2)
        for bits, _ in enumerate_vertices(z):
            assert is_zonotope_vertex(z, bits)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_facet_enumeration_agrees_with_lp(self, rng, d):
        # The vertices read off the facets must match the separation LP on
        # every bit pattern, in lexicographic order.
        for _ in range(6):
            n = int(rng.integers(d + 1, d + 4))
            z = random_zonotope(rng, n, d)
            got = [tuple(int(b) for b in bits) for bits, _ in enumerate_vertices(z)]
            oracle = [comb for comb in itertools.product((0, 1), repeat=n)
                      if is_zonotope_vertex(z, np.array(comb, float))]
            assert got == oracle

    def test_lp_fallback_outside_general_position(self):
        # Two parallel generators: the facet correspondence fails, and the
        # per-pattern separation LP decides every bit-vector.
        G = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        z = Zonotope(G, np.zeros(3))
        assert not is_general_position(z)
        got = [tuple(int(b) for b in bits) for bits, _ in enumerate_vertices(z)]
        oracle = [comb for comb in itertools.product((0, 1), repeat=5)
                  if is_zonotope_vertex(z, np.array(comb, float))]
        assert got == oracle
        assert all(comb[0] == comb[1] for comb in got)

    @pytest.mark.parametrize("G", SHORT_PARALLEL_GENERATORS)
    def test_short_parallel_generator_keeps_the_square_vertices(self, G):
        # The short generator moves with its long parallel partner: the
        # vertices are the unit square's, each lift with equal first two bits.
        z = Zonotope(G, np.zeros(2))
        got = [tuple(int(b) for b in bits) for bits, _ in enumerate_vertices(z)]
        assert got == [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert np.allclose([pt for _, pt in enumerate_vertices(z)],
                           [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], atol=1e-8)

    def test_no_vertex_found_is_a_numerical_failure(self, monkeypatch):
        # Every zonotope has a vertex: separation LPs that find none failed.
        monkeypatch.setattr(solvers, "solve_lp", lambda *a: solvers.LPResult(status="infeasible"))
        z = Zonotope([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], np.zeros(2))
        with pytest.raises(LPNumericalFailure):
            enumerate_vertices(z)

    def test_general_position_enumeration_solves_no_lp(self, rng, monkeypatch):
        from zonofit import solvers

        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called during enumeration")

        monkeypatch.setattr(solvers, "solve_lp", no_lp)
        for n, d in [(5, 2), (6, 3), (7, 4)]:
            assert enumerate_vertices(random_zonotope(rng, n, d))

    def test_non_vertices_strictly_inside_hull(self, rng):
        z = random_zonotope(rng, 4, 2)
        poly = zonotope_as_polytope(z)
        kept = {tuple(int(round(b)) for b in bits) for bits, _ in enumerate_vertices(z)}
        for comb in itertools.product((0, 1), repeat=4):
            if comb in kept:
                continue
            pt = z.map_point(np.array(comb, float))
            assert poly.interior_margin(pt) > 1e-9


class TestVertexCache:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), extra=st.integers(0, 3),
           degenerate=st.booleans())
    def test_cached_arrays_are_the_enumerated_rows(self, seed, d, extra, degenerate):
        # In general position and on the LP fallback (a generator parallel
        # to another, or zero in 1-D): a list of (bits, point) rows of two
        # read-only arrays, in the separation LP's lexicographic bit order,
        # each point bit-equal to its own row product bits @ G + mu.
        rng = np.random.default_rng(seed)
        n = d + extra
        G, mu = rng.uniform(-1.0, 1.0, size=(n, d)), rng.uniform(-0.5, 0.5, size=d)
        if degenerate:
            G[-1] = -0.5 * G[0] if d > 1 else 0.0
        z = Zonotope(G, mu)
        assert is_general_position(z) != degenerate
        pairs = enumerate_vertices(z)
        bits, points = geom._vertex_arrays(z)
        oracle = [comb for comb in itertools.product((0.0, 1.0), repeat=n)
                  if is_zonotope_vertex(z, comb)]
        assert isinstance(pairs, list) and len(pairs) == len(bits) == len(points) == len(oracle)
        assert [tuple(b) for b, _ in pairs] == [tuple(b) for b in bits] == oracle
        for (b, p), row, point in zip(pairs, bits, points):
            assert b.tobytes() == row.tobytes() and p.tobytes() == point.tobytes()
            assert point.tobytes() == (row @ z.generators + z.translation).tobytes()
        assert not (bits.flags.writeable or points.flags.writeable)
        assert enumerate_vertices(z) is pairs and geom._vertex_arrays(z)[1] is points

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), extra=st.integers(0, 3))
    def test_facet_offsets_are_per_direction_products(self, seed, d, extra):
        # The stacked products give each facet direction eta the bits of its
        # own G @ eta and eta @ translation (the vertex points' own row
        # products are checked above).
        rng = np.random.default_rng(seed)
        z = Zonotope(rng.uniform(-1.0, 1.0, size=(d + extra, d)), rng.uniform(-0.5, 0.5, size=d))
        E = geom._facet_directions(z)[1]
        along = np.array([z.generators @ eta for eta in E]).reshape(len(E), z.rank)
        shift = np.array([eta @ z.translation for eta in E])
        offsets = np.stack([shift + np.maximum(along, 0.0).sum(axis=1),
                            np.maximum(-along, 0.0).sum(axis=1) - shift], axis=1).ravel()
        assert geom.zonotope_facets(z)[1].tobytes() == offsets.tobytes()

    def test_vertex_codes_are_built_once(self, rng, monkeypatch):
        # Enumeration reads its vertex codes as bits once, and a later sweep
        # reads the cached vertices.
        from zonofit import hausdorff

        built, bits = [], geom._bits
        monkeypatch.setattr(geom, "_bits", lambda codes, n: built.append(n) or bits(codes, n))
        z = random_zonotope(rng, 6, 3)
        poly = random_polytope(rng, 3, scale=3.0)
        enumerate_vertices(z)
        assert built == [6]
        hausdorff._projections(poly, z)
        assert built == [6]


class TestLiftBoundaryPoint:
    def test_edge_midpoint(self):
        z = unit_square_zonotope()
        lift = lift_boundary_point(z, [0.0, 0.5])
        assert np.allclose(lift.values, [0.0, 0.5], atol=1e-9)
        assert lift.free_indices == (1,)

    def test_corner(self):
        z = unit_square_zonotope()
        lift = lift_boundary_point(z, [1.0, 1.0])
        assert np.allclose(lift.values, [1.0, 1.0], atol=1e-9)
        assert lift.free_indices == ()

    def test_hexagon_far_corner(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        lift = lift_boundary_point(z, [4.0, 3.0])
        assert np.allclose(lift.values, [1.0, 1.0, 1.0], atol=1e-9)

    def test_interior_point_rejected(self):
        z = unit_square_zonotope()
        with pytest.raises(NotOnBoundary):
            lift_boundary_point(z, [0.5, 0.5])

    def test_outside_point_rejected(self):
        z = unit_square_zonotope()
        with pytest.raises(NotOnBoundary):
            lift_boundary_point(z, [2.0, 0.5])

    @pytest.mark.parametrize("q", [[0.0, 0.5, 0.0], [0.0], [[0.0, 0.5]], 0.5])
    def test_point_of_another_shape_rejected(self, q):
        with pytest.raises(DimensionMismatch):
            lift_boundary_point(unit_square_zonotope(), q)

    @pytest.mark.parametrize("q", [[np.nan, 0.5], [0.0, np.inf], [-np.inf, np.nan]])
    def test_non_finite_point_rejected(self, q):
        # NaN margins fail every boundary test, so without the check
        # [nan, 0.5] came back as the corner lift (0, 0).
        with pytest.raises(DegenerateInput):
            lift_boundary_point(unit_square_zonotope(), q)

    def test_non_unique_lift_flags_stability_violation(self):
        from zonofit.errors import NonUniqueLift

        # Parallel generators collapse the square to a segment: interior
        # segment points have a one-parameter family of preimages.
        z = Zonotope([[1.0, 0.0], [1.0, 0.0]], np.zeros(2))
        with pytest.raises(NonUniqueLift):
            lift_boundary_point(z, [1.0, 0.0])

    def test_free_set_is_strictly_inside_the_unit_interval(self):
        # The locality check's and the solvers' rule: a coefficient of 1e-9
        # is free, so a pair whose lift has one is not at a zonotope vertex.
        lift = geom.lift_values_to_lift([1e-9, 1.0, 0.0, 1.0 - 1e-9])
        assert lift.free_indices == (0, 3)
        pair = AchievingPair(p=np.ones(2), q=np.zeros(2), side="p_vertex", vertex_index=0,
                             lift=lift, distance=float(np.sqrt(2.0)))
        assert not pair.q_is_zonotope_vertex


class TestPushforward:
    def test_identity_target(self, rng):
        z = random_zonotope(rng, 4, 2)
        for bits, pt in enumerate_vertices(z):
            lift = lift_boundary_point(z, pt)
            assert np.allclose(pushforward(z, z, lift), pt, atol=1e-9)

    def test_worked_family_corner(self):
        src = Zonotope(HEX_GENERATORS, np.zeros(2))
        eps = 0.2
        tgt = Zonotope(HEX_GENERATORS + np.array([[0.0, 0.0], [-eps, 0.0], [0.0, 0.0]]),
                       np.zeros(2))
        out = pushforward(src, tgt, lift_boundary_point(src, [4.0, 3.0]))
        assert np.allclose(out, [3.8, 3.0], atol=1e-12)

    def test_translation_only(self, rng):
        z = random_zonotope(rng, 4, 2)
        dmu = np.array([0.3, -0.2])
        tgt = Zonotope(z.generators, z.translation + dmu)
        for bits, pt in enumerate_vertices(z)[:3]:
            lift = lift_boundary_point(z, pt)
            assert np.allclose(pushforward(z, tgt, lift), pt + dmu, atol=1e-9)

    def test_rank_mismatch(self, rng):
        a = random_zonotope(rng, 4, 2)
        b = random_zonotope(rng, 5, 2)
        with pytest.raises(DimensionMismatch):
            pushforward(a, b, np.zeros(4))


class TestPushforwardProper:
    @pytest.mark.parametrize("eps,expected", [(0.2, True), (0.4, True),
                                              (0.6, False), (0.8, False), (1.0, False)])
    def test_worked_family_thresholds(self, eps, expected):
        src = Zonotope(HEX_GENERATORS, np.zeros(2))
        tgt = Zonotope(HEX_GENERATORS + np.array([[0.0, 0.0], [-eps, 0.0], [0.0, 0.0]]),
                       np.zeros(2))
        assert is_pushforward_proper(src, tgt) is expected

    def test_identity_is_proper(self, rng):
        z = random_zonotope(rng, 4, 2)
        assert is_pushforward_proper(z, z)


class TestPolytope:
    def test_square_facets(self):
        sq = unit_square_polytope()
        assert sq.facet_normals.shape == (4, 2)
        assert np.allclose(np.linalg.norm(sq.facet_normals, axis=1), 1.0)
        margins = sq.facet_normals @ sq.vertices.T - sq.facet_offsets[:, None]
        assert margins.max() <= 1e-9

    def test_callers_vertices_stay_writable_and_apart(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        poly = Polytope.from_vertices(V)
        incidence = geom._simplicial_faces(poly)[1].copy()
        V[0] = [-1.0, -1.0]
        assert V.flags.writeable
        assert poly.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert poly.contains([0.0, 0.0]) and not poly.contains([-0.5, -0.5])
        assert np.array_equal(geom._simplicial_faces(poly)[1], incidence)

    def test_rejects_non_extreme_vertex(self):
        with pytest.raises(DegenerateInput):
            Polytope.from_vertices([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])

    def test_from_points_filters(self):
        poly = Polytope.from_points([[0, 0], [1, 0], [0, 1], [0.25, 0.25]])
        assert poly.vertices.shape[0] == 3

    def test_from_points_repeated_extreme_point(self):
        poly = Polytope.from_points([[0, 0], [0, 0], [1, 0], [0, 1]])
        assert poly.vertices.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_from_points_near_duplicate_keeps_first(self):
        poly = Polytope.from_points([[0, 0], [1e-12, 0], [1, 0], [0, 1], [1, 1]])
        assert poly.vertices.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]

    def test_from_points_projects_each_point_once(self, rng, monkeypatch):
        while True:
            points = rng.normal(size=(8, 2))
            if len(hull_vertices_oracle(points)) == 5:
                break
        calls = []  # a 1 per row handed to Wolfe's loop
        wolfe = solvers._wolfe
        monkeypatch.setattr(solvers, "_wolfe", lambda S: calls.extend([1] * len(S)) or wolfe(S))
        poly = Polytope.from_points(points)
        assert len(calls) == 8
        again = Polytope.from_vertices(poly.vertices)
        for name in ("vertices", "facet_normals", "facet_offsets"):
            assert np.array_equal(getattr(poly, name), getattr(again, name))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_extreme_points_are_those_of_each_point_alone(self, seed, d):
        # One stacked Wolfe loop decides every point as its own projection
        # onto the hull of the others does; the last point is on an edge or
        # inside, so not extreme.
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(int(rng.integers(d + 2, 3 * d + 6)), d))
        P[-1] = P[:2].mean(axis=0)
        scale = 1.0 + float(np.abs(P).max())
        alone = [solvers.project_to_hull(np.delete(P, k, axis=0), P[k]).distance
                 > geom.EXTREME_TOL * scale for k in range(len(P))]
        assert geom._extreme(P, scale).tolist() == alone
        assert not alone[-1]

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateInput):
            Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0]])

    def test_3d_simplex(self):
        poly = Polytope.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert poly.facet_normals.shape[0] == 4

    def test_contains(self):
        sq = unit_square_polytope()
        assert sq.contains([0.5, 0.5])
        assert not sq.contains([1.5, 0.5])

    @pytest.mark.parametrize("x, error", [
        ([1.0, 2.0, 3.0], DimensionMismatch), ([0.5], DimensionMismatch),
        ([[0.5, 0.5]], DimensionMismatch), ([np.nan, 0.0], DegenerateInput),
        ([0.5, np.inf], DegenerateInput)])
    def test_contains_and_margin_reject_a_bad_point(self, x, error):
        # A 3-vector ended in a numpy ValueError, and [nan, 0] read as outside.
        sq = unit_square_polytope()
        for query in (sq.contains, sq.interior_margin):
            with pytest.raises(error):
                query(x)


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_FACETS = [[0.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]
CUBE_ZONOTOPE = Zonotope(np.eye(3), np.zeros(3))


@pytest.mark.parametrize("build, error", [
    (lambda: Polytope.from_vertices([[0.0, 0.0], [1.0, np.nan], [0.0, 1.0]]), DegenerateInput),
    (lambda: Polytope.from_points([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]), DegenerateInput),
    (lambda: Polytope.from_points([[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]]), DegenerateInput),
    (lambda: Polytope.from_points([[0.5, 0.5]]), DegenerateInput),
    (lambda: Polytope.from_points([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]), DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=[[np.nan, -1.0, 0.0]] + SQUARE_FACETS[1:]),
     DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=[[0.0, 0.0, 0.0]] + SQUARE_FACETS[1:]),
     DegenerateInput),
    (lambda: Polytope.from_vertices(UNIT_TRIANGLE, facets=[[0.0, -1.0, 0.0]]), DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=SQUARE_FACETS[1:]), DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=SQUARE_FACETS + [[1.0, 1.0, 5.0]]),
     DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=SQUARE_FACETS[:3] + [[1.0, 1.0, 5.0]]),
     DegenerateInput),
    (lambda: Polytope.from_vertices(SQUARE, facets=SQUARE_FACETS + SQUARE_FACETS[:1]),
     DegenerateInput),
    (lambda: Polytope.from_vertices([]), DegenerateInput),
    (lambda: Polytope.from_points([]), DegenerateInput),
    (lambda: Polytope.from_vertices([[[0.0]]]), DegenerateInput),
    (lambda: Polytope.from_points([[[0.0]]]), DegenerateInput),
    (lambda: Polytope.from_vertices(np.zeros((3, 0))), DegenerateInput),
    (lambda: hausdorff_distance(Polytope.from_vertices(SQUARE), CUBE_ZONOTOPE), DimensionMismatch),
    (lambda: coarse_hausdorff_distance(Polytope.from_vertices(SQUARE), CUBE_ZONOTOPE),
     DimensionMismatch),
    (lambda: check_locality(Polytope.from_vertices(SQUARE), CUBE_ZONOTOPE), DimensionMismatch),
], ids=["nan-vertex", "nan-point", "inf-point", "single-point", "too-few-distinct",
        "nan-facet", "zero-normal", "one-facet-triangle", "square-missing-edge",
        "supporting-row-added", "supporting-row-for-an-edge", "repeated-facet",
        "empty-vertices", "empty-points", "3d-vertices", "3d-points", "no-coordinates",
        "distance-dims", "coarse-dims", "locality-dims"])
def test_bad_input_raises_typed_error(build, error):
    with pytest.raises(error):
        build()


class TestBadInputProperties:
    """Non-finite, rank-deficient or flat input ends in a typed error,
    never in a body."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           build=st.sampled_from([Polytope.from_points, Polytope.from_vertices]),
           data=st.data())
    def test_non_finite_polytope_entry(self, seed, d, bad, build, data):
        points = np.random.default_rng(seed).normal(size=(2 * d + 4, d))
        points.flat[data.draw(st.integers(0, points.size - 1))] = bad
        with pytest.raises(DegenerateInput):
            build(points)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_non_finite_zonotope_entry(self, seed, d, bad, data):
        rng = np.random.default_rng(seed)
        entries = rng.normal(size=(d + 3) * d)  # d + 2 generators, then the translation
        entries[data.draw(st.integers(0, entries.size - 1))] = bad
        with pytest.raises(DegenerateInput):
            Zonotope(entries[:-d].reshape(d + 2, d), entries[-d:])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), data=st.data())
    def test_rank_below_dimension(self, seed, d, data):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(0, d - 1))
        with pytest.raises(DegenerateInput):
            Zonotope(rng.normal(size=(n, d)), rng.normal(size=d))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           extra=st.integers(0, 4), scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
           build=st.sampled_from([Polytope.from_points, Polytope.from_vertices]),
           data=st.data())
    def test_flat_point_set(self, seed, d, extra, scale, build, data):
        # Collinear or coplanar points, d + 1 or more of them, at any scale.
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(1, d - 1))
        span = rng.uniform(-1.0, 1.0, size=(d + 1 + extra, m)) @ rng.normal(size=(m, d))
        with pytest.raises(DegenerateInput):
            build(scale * (rng.uniform(-1.0, 1.0, size=d) + span))


class TestSimplicialFaces:
    """The lexsort dedupe of ``_simplicial_faces`` against numpy's unique
    rows (``conftest.simplicial_faces_reference``): equal faces in the same
    order, and an equal incidence."""

    @staticmethod
    def assert_matches_reference(poly):
        faces, incidence = geom._simplicial_faces(poly)
        want, want_incidence = simplicial_faces_reference(poly)
        assert np.array_equal(incidence, want_incidence)
        assert faces.keys() == want.keys()
        for m, rows in want.items():
            assert faces[m].dtype == rows.dtype and faces[m].shape == rows.shape
            assert np.array_equal(faces[m], rows)
        return faces

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]),
           extra=st.integers(0, 8))
    def test_random_polytopes(self, seed, d, extra):
        rng = np.random.default_rng(seed)
        poly = random_polytope(rng, d, npoints=d + 2 + extra)
        self.assert_matches_reference(poly)
        active = rng.random((5, len(poly.facet_offsets))) < 0.3
        far = ~simplicial_faces_reference(poly)[1]
        assert np.array_equal(geom._face_vertices(poly, active), ~(active @ far))

    def test_cube_has_no_simplicial_facet(self):
        poly = Polytope.from_vertices(list(itertools.product((0.0, 1.0), repeat=3)))
        faces = self.assert_matches_reference(poly)
        assert sorted(faces) == [1, 2, 3] and len(faces[2]) == len(faces[3]) == 0

    def test_a_few_hundred_vertices(self):
        # Qhull's triangulated hull of 300 points on the sphere.
        from scipy.spatial import ConvexHull

        pts = np.random.default_rng(7).normal(size=(300, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        eq = ConvexHull(pts).equations
        poly = Polytope(pts, eq[:, :3], -eq[:, 3])
        faces = self.assert_matches_reference(poly)
        assert len(faces[3]) == len(eq) and len(faces[2]) == 3 * len(eq) // 2

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40), m=st.integers(1, 4),
           top=st.integers(1, 6))
    def test_unique_rows_is_numpys(self, seed, rows, m, top):
        a = np.random.default_rng(seed).integers(0, top, size=(rows, m))
        got, want = geom._unique_rows(a), np.unique(a, axis=0)
        assert got.shape == want.shape and np.array_equal(got, want)


class TestFacetsBruteForce:
    """The batched facet pass against the loop it replaced
    (``conftest.facets_brute_force_reference``), bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), extra=st.integers(1, 8),
           kind=st.sampled_from(["random", "lattice", "cube"]),
           scale=st.sampled_from([1e-6, 1.0, 1e6]), shift=st.sampled_from([0.0, 3.0, -1e3]))
    def test_same_bits_as_the_loop(self, seed, d, extra, kind, scale, shift):
        rng = np.random.default_rng(seed)
        if kind == "random":
            V = rng.normal(size=(d + extra, d))
        elif kind == "lattice":  # coplanar subsets: many duplicate planes
            V = rng.integers(-2, 3, size=(d + extra, d)).astype(float)
        else:
            V = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        V = scale * (V + shift)
        try:
            want = facets_brute_force_reference(V)
        except Exception as exc:
            with pytest.raises(type(exc)):
                geom._facets_brute_force(V)
            return
        got = geom._facets_brute_force(V)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_more_than_one_block_of_subsets(self, rng):
        V = rng.normal(size=(32, 3))  # 4,960 subsets: two blocks
        V /= np.linalg.norm(V, axis=1)[:, None]
        got, want = geom._facets_brute_force(V), facets_brute_force_reference(V)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_keeps_no_vertex_subsets(self, rng, monkeypatch):
        # The cached subset index arrays are for generator subsets; a
        # polytope's C(k, d) vertex subsets were kept for the process's life.
        calls, subsets = [], geom._subsets
        monkeypatch.setattr(geom, "_subsets", lambda *a: calls.append(a) or subsets(*a))
        V = rng.normal(size=(60, 3))
        Polytope.from_points(V / np.linalg.norm(V, axis=1)[:, None])
        assert calls == []


class TestMinimalFace:
    def test_bottom_edge(self):
        sq = unit_square_polytope()
        face = minimal_face(sq, [0.5, 0.0])
        assert face.codim == 1 and face.vertex_indices == (0, 1)
        assert np.allclose(np.abs(face.normals[0]), [0.0, 1.0], atol=1e-9)
        assert np.allclose(face.normals @ [0.3, 0.0], face.offsets, atol=1e-12)

    def test_corner(self):
        sq = unit_square_polytope()
        face = minimal_face(sq, [0.0, 0.0])
        assert face.codim == 2
        assert face.normals.shape == (2, 2)
        assert np.allclose(face.normals @ face.normals.T, np.eye(2), atol=1e-9)

    def test_interior_gives_the_whole_body_without_normals(self):
        sq = unit_square_polytope()
        face = minimal_face(sq, [0.5, 0.5])
        assert face.codim == 0 and face.vertex_indices == (0, 1, 2, 3)
        assert face.normals.shape == (0, 2) and face.offsets.shape == (0,)

    def test_outside_raises(self):
        sq = unit_square_polytope()
        with pytest.raises(PointOutsidePolytope):
            minimal_face(sq, [2.0, 0.0])

    @pytest.mark.parametrize("x", [[np.nan, 0.5], [0.5, np.inf]])
    def test_non_finite_point_raises(self, x):
        with pytest.raises(DegenerateInput):
            minimal_face(unit_square_polytope(), x)

    @pytest.mark.parametrize("x", [[0.5, 0.5, 0.5], [0.5], [[0.5, 0.5]]])
    def test_point_of_another_dimension_raises(self, x):
        with pytest.raises(DimensionMismatch):
            minimal_face(unit_square_polytope(), x)


class TestZonotopeAsPolytope:
    def test_hexagon(self):
        z = Zonotope(HEX_GENERATORS, np.zeros(2))
        poly = zonotope_as_polytope(z)
        assert poly.vertices.shape[0] == 6
        assert poly.facet_normals.shape[0] == 6
        for _, pt in enumerate_vertices(z):
            assert poly.contains(pt)

    def test_membership_agrees_with_projection(self, rng):
        from zonofit.solvers import box_least_squares

        z = random_zonotope(rng, 4, 2)
        poly = zonotope_as_polytope(z)
        for _ in range(50):
            p = rng.uniform(-2.0, 2.0, size=2)
            dist = box_least_squares(z.generators, z.translation, p).distance
            assert poly.contains(p) == (dist <= 1e-7 * poly.scale())


class TestJsonRoundTrip:
    def test_zonotope(self, rng):
        z = random_zonotope(rng, 4, 2)
        data = zonotope_to_json(z)
        back = zonotope_from_json(data)
        assert np.array_equal(back.generators, z.generators)
        assert np.array_equal(back.translation, z.translation)

    def test_polytope(self):
        sq = unit_square_polytope()
        back = polytope_from_json(polytope_to_json(sq))
        assert np.allclose(back.vertices, sq.vertices)

    def test_polytope_bit_for_bit(self, rng):
        # Through JSON text and back, twice: the facets read back are those
        # written, every bit, and the one-facet triangle is refused.
        for d in (1, 2, 3):
            for _ in range(10):
                poly = random_polytope(rng, d)
                once = polytope_from_json(json.loads(json.dumps(polytope_to_json(poly))))
                twice = polytope_from_json(json.loads(json.dumps(polytope_to_json(once))))
                for back in (once, twice):
                    for name in ("vertices", "facet_normals", "facet_offsets"):
                        assert getattr(back, name).tobytes() == getattr(poly, name).tobytes()

    def test_given_facets_in_any_order_and_scale(self):
        # Facets given in another order and unnormalized describe the same
        # square; the polytope keeps their order.
        back = Polytope.from_vertices(SQUARE, facets=[[0.0, 3.0, 3.0], [-2.0, 0.0, 0.0],
                                                      [0.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
        assert back.facet_normals.tolist() == [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        assert back.facet_offsets.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert not back.contains([1.5, 0.5])
