"""Distance-layer tests: exact/coarse Hausdorff, stability, local terms."""

import dataclasses
import importlib
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_PARALLEL_ZONOTOPES,
    SHORT_PARALLEL_GENERATORS,
    UNIT_TRIANGLE,
    boundary_samples_2d,
    exhaustive_polytope_face_rows,
    hausdorff_oracle,
    point_to_convex_polygon_distance,
    polygon_cycle,
    random_local_instance,
    random_polytope,
    random_zonotope,
    rigid_motion,
    rotated_square_configuration,
)
import zonofit
from zonofit import cone, geom, hausdorff, solvers
from zonofit.errors import DegenerateInput, DimensionMismatch, LocalityViolation
from zonofit.geom import (
    FACE_ACTIVE_TOL,
    Polytope,
    Zonotope,
    _facet_directions,
    enumerate_vertices,
    minimal_face,
    zonotope_as_polytope,
    zonotope_facets,
)
from zonofit.hausdorff import (
    ACTIVE_PAIR_TOL,
    SmoothTerm,
    _max_min_coefficient,
    check_locality,
    coarse_hausdorff_distance,
    hausdorff_distance,
    is_hausdorff_stable,
    local_terms,
)


def unit_square_polytope():
    return Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def unit_square_zonotope():
    return Zonotope(np.eye(2), np.zeros(2))


class TestHausdorffDistance:
    def test_identical_bodies(self):
        value, pairs = hausdorff_distance(unit_square_polytope(), unit_square_zonotope())
        assert value <= 1e-12
        assert len(pairs) > 0

    def test_translated_square(self):
        t = 0.3
        poly = Polytope.from_vertices(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + [t, 0.0]
        )
        value, pairs = hausdorff_distance(poly, unit_square_zonotope())
        assert value == pytest.approx(t, abs=1e-9)
        p_side = {pair.vertex_index for pair in pairs if pair.side == "p_vertex"}
        # The polytope's two right-side vertices achieve the distance ...
        right = {i for i, v in enumerate(poly.vertices) if v[0] == pytest.approx(1.3)}
        assert p_side == right
        # ... as do the zonotope's two left-side vertices, symmetrically.
        z_pairs = [pair for pair in pairs if pair.side == "z_vertex"]
        assert all(pair.q[0] == pytest.approx(0.0) for pair in z_pairs)
        assert len(pairs) == 4

    def test_rotated_square_configuration(self):
        poly, z = rotated_square_configuration(eps=0.05)
        value, pairs = hausdorff_distance(poly, z)
        expected = 1.05 * np.sqrt(2.0) / 2.0 - 0.5
        assert value == pytest.approx(expected, abs=1e-9)
        assert len(pairs) == 4
        assert all(pair.side == "p_vertex" for pair in pairs)
        assert all(len(pair.lift.free_indices) == z.dim - 1 for pair in pairs)

    def test_matches_boundary_sampling_oracle(self, rng):
        for _ in range(5):
            poly = random_polytope(rng, 2)
            z = random_zonotope(rng, 4, 2)
            value, _ = hausdorff_distance(poly, z)
            p_cycle = polygon_cycle(poly.vertices)
            z_cycle = polygon_cycle([pt for _, pt in enumerate_vertices(z)])
            samples_p = boundary_samples_2d(p_cycle, 20000)
            samples_z = boundary_samples_2d(z_cycle, 20000)
            d1 = point_to_convex_polygon_distance(samples_p, z_cycle).max()
            d2 = point_to_convex_polygon_distance(samples_z, p_cycle).max()
            oracle = max(d1, d2)
            assert value == pytest.approx(oracle, abs=1e-3)

    def test_zero_iff_membership_agrees(self, rng):
        # d(P,Z) ~ 0 exactly when the two membership oracles agree.
        from zonofit.solvers import box_least_squares

        z = random_zonotope(rng, 3, 2)
        poly = zonotope_as_polytope(z)
        value, _ = hausdorff_distance(poly, z)
        assert value <= 1e-9
        probes = rng.uniform(-2.0, 2.0, size=(1000, 2))
        for p in probes[:100]:
            in_poly = poly.contains(p)
            in_z = box_least_squares(z.generators, z.translation, p).distance <= 1e-6
            assert in_poly == in_z

    @pytest.mark.parametrize("data, local", zip(NEAR_PARALLEL_ZONOTOPES, [False, True]),
                             ids=["unstable", "local"])
    def test_near_parallel_generators_match_the_cold_sweeps(self, data, local):
        # A face spanned by the two near-parallel generators has exactly
        # singular normal equations: the face search solves them by least
        # squares, and the sweeps stay exact.
        cube = Polytope.from_vertices(list(itertools.product([0.0, 1.0], repeat=3)))
        z = Zonotope(data["generators"], data["translation"])
        assert geom.is_general_position(z)
        cold = [solvers.box_least_squares(z.generators, z.translation, v).distance
                for v in cube.vertices]
        cold += [solvers.project_to_hull(cube.vertices, pt).distance
                 for _, pt in enumerate_vertices(z)]
        assert hausdorff_distance(cube, z)[0] == pytest.approx(max(cold), rel=1e-12)
        assert check_locality(cube, z).ok is local


def flipped_and_permuted(z, rng):
    """The same zonotope: generators permuted and some negated, g -> -g with
    t -> t + g."""
    flip = rng.random(z.rank) < 0.5
    G = np.where(flip[:, None], -z.generators, z.generators)
    return Zonotope(G[rng.permutation(z.rank)], z.translation + z.generators[flip].sum(axis=0))


class TestDistanceProperties:
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_invariant_under_generator_permutation_and_sign_flip(self, seed, d):
        rng = np.random.default_rng(seed)
        poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
        value, _ = hausdorff_distance(poly, z)
        again, _ = hausdorff_distance(poly, flipped_and_permuted(z, rng))
        assert again == pytest.approx(value, rel=1e-9, abs=1e-12)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           s=st.floats(0.1, 10.0))
    def test_scales_with_uniform_scaling(self, seed, d, s):
        rng = np.random.default_rng(seed)
        poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
        value, _ = hausdorff_distance(poly, z)
        scaled, _ = hausdorff_distance(Polytope.from_vertices(s * poly.vertices),
                                       Zonotope(s * z.generators, s * z.translation))
        assert scaled == pytest.approx(s * value, rel=1e-9, abs=1e-12)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           tol_active=st.sampled_from([1e-7, 1e-3, 0.1, 0.5]))
    def test_reported_pairs_lie_in_the_active_band(self, seed, d, tol_active):
        rng = np.random.default_rng(seed)
        poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
        value, pairs = hausdorff_distance(poly, z, tol_active=tol_active)
        assert pairs and max(pair.distance for pair in pairs) == value
        assert all(pair.distance >= value * (1.0 - tol_active) for pair in pairs)

    @pytest.mark.parametrize("tol_active", [-1.0, -1e-12, 1.0, np.nan])
    @pytest.mark.parametrize("distance", [hausdorff_distance, coarse_hausdorff_distance])
    def test_tol_active_outside_unit_interval_rejected(self, distance, tol_active):
        # A negative or NaN band would report no pair at all.
        with pytest.raises(ValueError):
            distance(unit_square_polytope(), unit_square_zonotope(), tol_active=tol_active)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_rigid_motion_invariance(self, seed, d):
        rng = np.random.default_rng(seed)
        poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
        value, _ = hausdorff_distance(poly, z)
        R, t = rigid_motion(rng, d)
        poly2 = Polytope.from_vertices(poly.vertices @ R.T + t)
        z2 = Zonotope(z.generators @ R.T, z.translation @ R.T + t)
        value2, _ = hausdorff_distance(poly2, z2)
        assert value2 == pytest.approx(value, abs=1e-9)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_coarse_dominates_exact(self, seed, d):
        rng = np.random.default_rng(seed)
        poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
        exact, _ = hausdorff_distance(poly, z)
        coarse, _ = coarse_hausdorff_distance(poly, z)
        assert coarse >= exact - 1e-9


class TestCoarseHausdorffDistance:
    def test_identical_bodies(self):
        value, _ = coarse_hausdorff_distance(unit_square_polytope(), unit_square_zonotope())
        assert value <= 1e-12

    def test_matches_pairwise_brute_force(self, rng):
        poly = random_polytope(rng, 2, npoints=10)
        z = random_zonotope(rng, 4, 2)
        value, _ = coarse_hausdorff_distance(poly, z)
        zpts = np.array([pt for _, pt in enumerate_vertices(z)])
        D = np.linalg.norm(poly.vertices[:, None, :] - zpts[None, :, :], axis=2)
        brute = max(D.min(axis=1).max(), D.min(axis=0).max())
        assert value == pytest.approx(brute, abs=1e-12)


    @staticmethod
    def nearest_vertex_pairs(poly, z, tol_active):
        """The coarse (value, pairs) by one nearest-vertex search per vertex of
        either body, lowest index first among ties, as (side, vertex index,
        p, q, lift, distance) rows."""
        V, zverts = poly.vertices, enumerate_vertices(z)
        rows = []
        for i, v in enumerate(V):
            dists = [float(np.linalg.norm(v - pt)) for _, pt in zverts]
            j = dists.index(min(dists))
            rows.append(("p_vertex", i, v, zverts[j][1], zverts[j][0], dists[j]))
        for j, (bits, pt) in enumerate(zverts):
            dists = [float(np.linalg.norm(v - pt)) for v in V]
            i = dists.index(min(dists))
            rows.append(("z_vertex", j, V[i], pt, bits, dists[i]))
        value = max(row[-1] for row in rows)
        return value, [row for row in rows if row[-1] >= value * (1.0 - tol_active)]

    def assert_pairs_are_nearest_vertices(self, poly, z, tol_active):
        value, pairs = coarse_hausdorff_distance(poly, z, tol_active)
        ref_value, reference = self.nearest_vertex_pairs(poly, z, tol_active)
        assert value == pytest.approx(ref_value, rel=1e-15)
        assert len(pairs) == len(reference)
        for pair, (side, index, p, q, lift, distance) in zip(pairs, reference):
            assert (pair.side, pair.vertex_index) == (side, index)
            assert np.array_equal(pair.p, p) and np.array_equal(pair.q, q)
            assert np.array_equal(pair.lift.values, lift) and pair.lift.free_indices == ()
            assert pair.distance == pytest.approx(distance, rel=1e-15)
        return pairs

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           tol_active=st.sampled_from([ACTIVE_PAIR_TOL, 0.5, 0.999]))
    def test_pairs_are_the_nearest_vertices(self, seed, d, tol_active):
        rng = np.random.default_rng(seed)
        self.assert_pairs_are_nearest_vertices(
            random_polytope(rng, d), random_zonotope(rng, d + 1 + seed % 3, d), tol_active)

    def test_a_tie_goes_to_the_lowest_index(self):
        # Zonotope vertex (0.5, 0) is 0.5 from polytope vertices (0, 0) and
        # (1, 0), and (0.5, 1) from the top two; polytope vertex (1, 0) is
        # 0.5 from zonotope vertices (0.5, 0) and (1.5, 0).
        poly = unit_square_polytope()
        z = Zonotope(np.eye(2), [0.5, 0.0])
        pairs = self.assert_pairs_are_nearest_vertices(poly, z, 0.999)
        tied = next(pair for pair in pairs
                    if pair.side == "z_vertex" and np.array_equal(pair.q, [0.5, 0.0]))
        candidates = [i for i, v in enumerate(poly.vertices)
                      if np.linalg.norm(v - [0.5, 0.0]) == 0.5]
        assert len(candidates) == 2 and np.array_equal(tied.p, poly.vertices[min(candidates)])

    def test_all_coarse_lifts_are_integral(self, rng):
        poly = random_polytope(rng, 2)
        z = random_zonotope(rng, 3, 2)
        _, pairs = coarse_hausdorff_distance(poly, z)
        for pair in pairs:
            assert pair.lift.free_indices == ()


class TestHausdorffStable:
    def test_above_edge_midpoint(self):
        sq = unit_square_polytope()
        assert is_hausdorff_stable([0.5, 2.0], sq)

    def test_on_vertex_cone_boundary_ray(self):
        # Directly above the corner (1,1): on the boundary between the top
        # edge's cone and the corner's cone.
        sq = unit_square_polytope()
        assert not is_hausdorff_stable([1.0, 2.0], sq)

    def test_strictly_inside(self):
        sq = unit_square_polytope()
        assert is_hausdorff_stable([0.5, 0.5], sq)

    def test_on_boundary_not_stable(self):
        sq = unit_square_polytope()
        assert not is_hausdorff_stable([0.5, 0.0], sq)

    def test_diagonal_from_vertex_is_stable(self):
        sq = unit_square_polytope()
        assert is_hausdorff_stable([2.0, 2.0], sq)

    def test_rejects_a_wrong_length_or_non_finite_point(self):
        sq = unit_square_polytope()
        with pytest.raises(DimensionMismatch):
            is_hausdorff_stable([0.5, 2.0, 0.0], sq)
        with pytest.raises(DegenerateInput):
            is_hausdorff_stable([np.nan, 2.0], sq)


class TestCheckLocality:
    def test_rotated_square_configuration_passes(self):
        poly, z = rotated_square_configuration(eps=0.05)
        report = check_locality(poly, z)
        assert report.ok

    def test_parallel_generators_fail(self):
        z = Zonotope([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], np.zeros(2))
        poly = unit_square_polytope()
        report = check_locality(poly, z)
        assert not report.general_position
        assert report.degenerate_subsets
        assert not report.ok

    def test_vertex_on_cone_boundary_reported(self):
        # Square polytope vertex placed straight above the zonotope corner
        # (1,1): exactly on the normal-cone boundary, hence unstable.
        z = unit_square_zonotope()
        poly = Polytope.from_vertices([[1.0, 2.0], [3.0, 2.5], [2.0, 4.0]])
        report = check_locality(poly, z)
        assert 0 in report.unstable_p_vertices

    def test_vertex_near_lower_face_reported(self):
        # Vertex 0 sits 1e-9 left of the corner (1, 1), above the square.
        # The box loop lifts it to the corner, where its offset (-1e-9, 1)
        # is on the corner's normal cone's boundary: strict complementarity
        # fails on generator 0.
        z = unit_square_zonotope()
        poly = Polytope.from_vertices([[1.0 - 1e-9, 2.0], [3.0, 2.5], [2.0, 4.0]])
        assert hausdorff._projections(poly, z).X[0].tolist() == [1.0, 1.0]
        assert 0 in check_locality(poly, z).unstable_p_vertices
        # On the edge lift, into the top edge, the right edge is within the
        # face tolerance of q and does not span its free generator 0.
        X = np.array([[1.0 - 1e-9, 1.0]])
        assert hausdorff._lift_unstable(poly.vertices[:1], z.map_point(X), X, z, 2.0)[0]


def projection_faces(poly, z):
    """The face each vertex of either body projects to on the other.

    "inside" for a vertex inside the other body; otherwise the lift's free
    set and anchor for a polytope vertex, and the vertex set of the minimal
    polytope face for a zonotope vertex (keyed by its bits).
    """
    rows, k = hausdorff._projections(poly, z), len(poly.vertices)
    normals, offsets = zonotope_facets(z)
    p_faces = []
    for v, x in zip(poly.vertices, rows.X[:k]):
        free = (x > 0.0) & (x < 1.0)
        p_faces.append("inside" if (offsets - normals @ v).min() > 0.0
                       else (tuple(np.flatnonzero(free)), tuple(np.where(free, 0.0, x))))
    z_faces = {
        tuple(bits): "inside" if poly.interior_margin(pt) > 0.0
        else minimal_face(poly, q).vertex_indices
        for (bits, pt), q in zip(enumerate_vertices(z), rows.P[k:])
    }
    return p_faces, z_faces


def perturbed(z, rng, relative):
    amp = relative * z.scale()
    return Zonotope(z.generators + rng.uniform(-amp, amp, size=z.generators.shape),
                    z.translation + rng.uniform(-amp, amp, size=z.dim))


class TestLocalityRule:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_stable_vertices_keep_their_face(self, seed, d):
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        report = check_locality(poly, z)
        p_faces, z_faces = projection_faces(poly, z)
        bits = [tuple(b) for b, _ in enumerate_vertices(z)]
        for _ in range(3):
            p_near, z_near = projection_faces(poly, perturbed(z, rng, 1e-7))
            for i, face in enumerate(p_faces):
                if i not in report.unstable_p_vertices:
                    assert p_near[i] == face
            for j, b in enumerate(bits):
                if j not in report.unstable_z_vertices:
                    assert z_near[b] == z_faces[b]

    def test_vertex_near_collinear_edge_is_stable(self, rng):
        # Polytope vertex 0 projects to 0.94 along the bottom edge (g1),
        # whose neighbour edge (g2) is 1e-6 off collinear. The neighbour's
        # far end (0, 0) is within the 10x vertex incidence of
        # ``minimal_face`` of the bottom edge, so a face test on the
        # zonotope's vertex list finds a max-min convex coefficient of
        # about 5e-10 for the projection and calls the vertex unstable.
        z = Zonotope([[1.0, 0.0], [1.0, -1e-6], [0.0, 1.0]], [0.0, 0.0])
        poly = Polytope.from_vertices([[1.94, -0.5], [1.5, 3.0], [-1.0, 2.0]])
        assert hausdorff._projections(poly, z).X[0].tolist() == pytest.approx([0.94, 1.0, 0.0])
        assert check_locality(poly, z).ok
        face = projection_faces(poly, z)[0][0]
        for _ in range(5):
            assert projection_faces(poly, perturbed(z, rng, 1e-7))[0][0] == face


# The per-row stability rules that ``check_locality`` applies to all rows
# at once, kept unchanged as its reference.
def _hull_stable(x: np.ndarray, q: np.ndarray, w: np.ndarray, poly: Polytope,
                 tol_strict: float) -> bool:
    """``is_hausdorff_stable`` for x whose projection onto poly is q, with
    convex weights w over its vertices. The face coefficient is the least
    weight when the weights' support is the face's vertex set (a simplex);
    only otherwise is it solved for."""
    scale = poly.scale()
    margin = poly.interior_margin(x)
    if margin > -tol_strict * scale:
        return margin > tol_strict * scale  # inside is stable, the boundary is not
    u = x - q
    nu = np.linalg.norm(u)
    if nu <= tol_strict * scale:
        return False
    face = minimal_face(poly, q)
    if face.codim == 0:
        return False  # projection claims interior: inconsistent, not stable
    vidx = list(face.vertex_indices)
    t_face = (float(w[vidx].min())
              if tuple(np.flatnonzero(w)) == face.vertex_indices
              else _max_min_coefficient(poly.vertices[vidx].T, q))
    if t_face is None or t_face <= tol_strict:
        return False
    behind = (np.delete(poly.vertices, vidx, axis=0) - q) @ (u / nu)
    return bool(np.all(behind < -tol_strict * scale))


def _lift_stable(v: np.ndarray, q: np.ndarray, x: np.ndarray, z: Zonotope,
                 tol_strict: float, scale: float) -> bool:
    """Stability of polytope vertex v relative to z, read off its box
    least-squares projection q and coefficients x. Outside z, the projection q is in the relative
    interior of the face spanned by the free generators F (coefficients
    strictly inside (0, 1)) iff |F| < d and every facet active at q spans F;
    u = v - q is in the relative interior of that face's normal cone iff
    sign(2 x_i - 1) <g_i, u> > 0 off F (strict complementarity)."""
    normals, offsets = zonotope_facets(z)
    margin = float((offsets - normals @ v).min())
    if margin > -tol_strict * scale:
        return margin > tol_strict * scale  # inside is stable, the boundary is not
    u = v - q
    nu = np.linalg.norm(u)
    free = (x > 0.0) & (x < 1.0)
    if nu <= tol_strict * scale or free.sum() >= z.dim:
        return False
    # Facet rows come in +-pairs per spanning subset (``zonotope_facets``).
    active = np.abs(normals @ q - offsets) <= FACE_ACTIVE_TOL * scale
    spans = _facet_directions(z)[0][np.flatnonzero(active) // 2]
    G = z.generators[~free]
    signed = np.where(x[~free] > 0.5, 1.0, -1.0) * (G @ u) / np.linalg.norm(G, axis=1)
    return bool((spans[:, :, None] == np.flatnonzero(free)).any(axis=1).all()
                and np.all(signed > tol_strict * nu))


def reference_locality(poly, z, tol_strict=hausdorff.STRICT_TOL):
    """``check_locality`` by the per-row rules above."""
    rows, k = hausdorff._projections(poly, z), len(poly.vertices)
    zverts = enumerate_vertices(z)
    scale = 1.0 + max(float(np.abs(pt).max()) for _, pt in zverts)
    bad_p = tuple(i for i, (v, q, x) in enumerate(zip(poly.vertices, rows.Q[:k], rows.X[:k]))
                  if not _lift_stable(v, q, x, z, tol_strict, scale))
    bad_z = tuple(j for j, ((_, pt), q, w) in enumerate(zip(zverts, rows.P[k:], rows.W))
                  if not _hull_stable(pt, q, w, poly, tol_strict))
    return bad_p, bad_z


def unstable_sets(report):
    return report.unstable_p_vertices, report.unstable_z_vertices


class TestArrayLocality:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           tol_strict=st.sampled_from([hausdorff.STRICT_TOL, 1e-3, 3e-2]))
    def test_same_unstable_sets_as_the_per_row_rules(self, seed, d, tol_strict):
        # Larger tolerances make more rows unstable, through most branches of
        # the rules; copies moved by 1e-7 put vertices on their faces' borders.
        # Copies shifted along a free generator put a polytope vertex's
        # projection within 1e-7 of a lower face, where only the condition
        # that every active facet spans the free set finds it unstable.
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        rows, m = hausdorff._projections(poly, z), len(poly.vertices)
        near = [shifted_to_lower_face(z, x, k, rng.uniform(1e-9, 5e-8))
                for x, dist in zip(rows.X[:m], rows.distance[:m]) if dist > 0.0
                for k in np.flatnonzero((x > 0.0) & (x < 1.0))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hausdorff, "STRICT_TOL", tol_strict)
            for zk in [z] + [perturbed(z, rng, 1e-7) for _ in range(3)] + near[:3]:
                report = check_locality(poly, zk)
                assert unstable_sets(report) == reference_locality(poly, zk, tol_strict)

    def test_non_simplex_faces_match_the_per_row_rules(self, rng, monkeypatch):
        # Zonotope vertices outside a cube project into its square facets,
        # where the projection weights need not span the face.
        cube = Polytope.from_vertices(list(itertools.product([0.0, 1.0], repeat=3)))
        solved = []
        solve = hausdorff._max_min_coefficient
        monkeypatch.setattr(hausdorff, "_max_min_coefficient",
                            lambda *a: solved.append(1) or solve(*a))
        for tol_strict in (hausdorff.STRICT_TOL, 1e-2):
            monkeypatch.setattr(hausdorff, "STRICT_TOL", tol_strict)
            for _ in range(10):
                z = random_zonotope(rng, 5, 3, scale=0.7)
                z = Zonotope(z.generators, 0.5 - 0.5 * z.generators.sum(axis=0))
                report = check_locality(cube, z)
                assert unstable_sets(report) == reference_locality(cube, z, tol_strict)
        assert solved


def vertex_face_term(u, normals, offsets):
    """A z_vertex term whose vertex (cube lift 0) maps to u, against the flat
    {y : normals y = offsets}."""
    u = np.asarray(u, dtype=float)
    return (SmoothTerm(side="z_vertex", vertex_index=0, normals=normals, offsets=offsets,
                       anchor_bits=np.zeros(u.size)),
            Zonotope(np.eye(u.size), u))


class TestVertexFaceTermValue:
    def test_x_axis(self):
        term, z = vertex_face_term([0.0, 2.0], np.array([[0.0, 1.0]]), np.array([0.0]))
        assert term.value(z) == pytest.approx(2.0)

    def test_point_in_subspace(self):
        term, z = vertex_face_term([3.0, 0.0], np.array([[0.0, 1.0]]), np.array([0.0]))
        assert term.value(z) == pytest.approx(0.0)

    def test_random_codim2_in_r4(self, rng):
        for _ in range(10):
            A = rng.normal(size=(2, 4))
            q, _ = np.linalg.qr(A.T)
            normals = q[:, :2].T
            base = rng.normal(size=4)
            u = rng.normal(size=4)
            # Least-squares oracle: project u onto {y : normals y = offsets}.
            # y = u - normals^T s  with  normals normals^T s = normals u - c.
            s = np.linalg.lstsq(normals @ normals.T, normals @ u - normals @ base,
                                rcond=None)[0]
            proj = u - normals.T @ s
            term, z = vertex_face_term(u, normals, normals @ base)
            assert term.value(z) == pytest.approx(np.linalg.norm(u - proj), abs=1e-10)


class TestLocalTerms:
    def test_rotated_square_term_count_and_actives(self):
        poly, z = rotated_square_configuration(eps=0.05)
        terms = local_terms(poly, z)
        assert len(terms) == 8  # 4 polytope vertices + 4 zonotope vertices
        value, _ = hausdorff_distance(poly, z)
        vals = [t.value(z) for t in terms]
        assert max(vals) == pytest.approx(value, abs=1e-9)
        actives = [t for t, v in zip(terms, vals) if v >= value - 1e-9]
        assert len(actives) == 4
        assert all(t.side == "p_vertex" for t in actives)

    def test_identical_bodies_all_zero(self):
        z = unit_square_zonotope()
        poly = unit_square_polytope()
        terms = local_terms(poly, z, require_locality=False)
        assert all(t.value(z) <= 1e-9 for t in terms)

    def test_locality_violation_raised(self):
        z = Zonotope([[1.0, 0.0], [2.0, 0.0]], np.zeros(2))
        poly = unit_square_polytope()
        with pytest.raises(LocalityViolation):
            local_terms(poly, z)

    def test_max_of_terms_equals_distance_random(self, rng):
        for _ in range(10):
            poly, z = random_local_instance(rng, d=2, n=4)
            value, _ = hausdorff_distance(poly, z)
            terms = local_terms(poly, z)
            assert max(t.value(z) for t in terms) == pytest.approx(value, abs=1e-9)

    def test_neighborhood_validity(self, rng):
        # The max of the frozen terms tracks the true distance for small
        # parameter perturbations.
        from zonofit.subgrad import params_to_zonotope, zonotope_to_params

        poly, z = random_local_instance(rng, d=2, n=4)
        terms = local_terms(poly, z)
        params = zonotope_to_params(z)
        for _ in range(5):
            delta = rng.uniform(-1.0, 1.0, size=params.size) * 1e-4
            z2 = params_to_zonotope(params + delta, z.rank, z.dim)
            true_value, _ = hausdorff_distance(poly, z2)
            term_value = max(t.value(z2) for t in terms)
            assert term_value == pytest.approx(true_value, abs=1e-8)


    def test_mismatched_dimension_is_typed(self):
        with pytest.raises(DimensionMismatch):
            local_terms(unit_square_polytope(), Zonotope(np.eye(3), np.zeros(3)),
                        require_locality=False)

    def test_term_at_another_rank_or_dimension_is_typed(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        for term in local_terms(poly, z):
            for other in (random_zonotope(rng, 3, 2), random_zonotope(rng, 4, 3)):
                with pytest.raises(DimensionMismatch):
                    term.value(other)
                with pytest.raises(DimensionMismatch):
                    term.gradient(other)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_every_term_gradient_is_its_sweep_rows_cone_row(self, seed, d):
        # At the base zonotope a term's face point is its sweep row's
        # zonotope point Q[k], with cube lift X[k], so its gradient is the
        # cone's row formula on that row, active or not.
        poly, z = random_local_instance(np.random.default_rng(seed), d=d)
        table, checked = hausdorff._projections(poly, z), 0
        for k, term in enumerate(local_terms(poly, z)):
            if term.codim < 1 or term.value(z) <= 1e-6:
                continue
            u = table.P[k] - table.Q[k]
            expected = -cone.rows(table.X[k], u / np.linalg.norm(u))
            assert np.linalg.norm(term.gradient(z) - expected) <= 1e-12 * np.linalg.norm(expected)
            checked += 1
        assert checked


def pair_key(pair):
    return (pair.side, pair.vertex_index, pair.p.tolist(), pair.q.tolist(),
            pair.lift.values.tolist(), pair.lift.free_indices, pair.distance)


def term_key(term):
    return (term.side, term.vertex_index, term.free_indices, term.normals.tolist(),
            term.offsets.tolist(), term.anchor_bits.tolist())


def distance_key(poly, z, **kwargs):
    value, pairs = hausdorff_distance(poly, z, **kwargs)
    return value, [pair_key(p) for p in pairs]


class TestProjectionCache:
    def test_warm_cache_matches_fresh_zonotope(self, rng):
        for _ in range(5):
            poly, z = random_local_instance(rng, d=2, n=4)
            hausdorff_distance(poly, z)  # warm the cache
            fresh = lambda: Zonotope(z.generators, z.translation)  # noqa: E731
            assert distance_key(poly, z) == distance_key(poly, fresh())
            assert check_locality(poly, z) == check_locality(poly, fresh())
            assert ([term_key(t) for t in local_terms(poly, z)]
                    == [term_key(t) for t in local_terms(poly, fresh())])

    def test_other_polytope_recomputes(self, rng, measured_rows):
        poly_a, z = random_local_instance(rng, d=2, n=4)
        z = Zonotope(z.generators, z.translation)
        poly_b = random_polytope(rng, 2)
        for poly in (poly_a, poly_b, poly_a):
            before = len(measured_rows)
            warm = distance_key(poly, z)
            # Every row of both sweeps is measured again, but for the
            # zonotope vertices inside the polytope, which are measured by
            # nothing.
            zpts = np.array([pt for _, pt in enumerate_vertices(z)])
            assert sorted(measured_rows[before:]) == (
                ["_box_rows"] * poly.vertices.shape[0]
                + ["_hull_rows"] * int(near_facets(poly, zpts).any(axis=1).sum()))
            assert warm == distance_key(poly, Zonotope(z.generators, z.translation))
        # The same polytope object reuses the sweep.
        before = len(measured_rows)
        hausdorff_distance(poly_a, z)
        assert len(measured_rows) == before

    def test_evaluate_is_the_separate_calls_on_one_sweep(self, rng, measured_rows):
        for d in (2, 3):
            poly, z = random_local_instance(rng, d=d)
            fresh = lambda: Zonotope(z.generators, z.translation)  # noqa: E731
            zk = fresh()
            before = len(measured_rows)
            value, pairs, coarse, report = zonofit.evaluate(poly, zk)
            zpts = np.array([pt for _, pt in enumerate_vertices(zk)])
            assert len(measured_rows) - before == (poly.vertices.shape[0]
                                                   + near_facets(poly, zpts).any(axis=1).sum())
            assert (value, [pair_key(p) for p in pairs]) == distance_key(poly, fresh())
            assert coarse == coarse_hausdorff_distance(poly, fresh())[0]
            assert report == check_locality(poly, fresh())

    def test_locality_and_terms_reuse_the_sweep(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver called on a measured pair")

        for d in (2, 3):
            poly, z = random_local_instance(rng, d=d)
            hausdorff_distance(poly, z)
            with monkeypatch.context() as patch:
                for name in ("solve_lp", "_box_active_set", "_wolfe"):
                    patch.setattr(solvers, name, refuse)
                assert check_locality(poly, z).ok
                local_terms(poly, z)

    def test_one_general_position_test_per_zonotope(self, rng, monkeypatch):
        poly, z = random_local_instance(rng, d=2, n=4)
        z = Zonotope(z.generators, z.translation)
        calls = []
        test = geom.degenerate_subsets
        for module in (geom, hausdorff):  # wherever a reference may be held
            monkeypatch.setattr(module, "degenerate_subsets",
                                lambda *a: calls.append(1) or test(*a), raising=False)
        hausdorff_distance(poly, z)
        check_locality(poly, z)
        assert len(calls) == 1

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    @example(seed=207, d=2)  # a polytope vertex inside z, with many exact lifts
    def test_hinted_sweep_matches_cold_sweep(self, seed, d):
        # Every polytope row runs the box loop, hints or not, so it is the
        # cold loop's row bit for bit, inside z too, where a vertex has many
        # exact lifts. A zonotope vertex inside P is its own projection on
        # every path, bit for bit. Hints lend the other zonotope rows only
        # their corrals: a row agrees with the unhinted sweep's to roundoff
        # (about 2e-15 x scale), and in its support unless an unrelated
        # zonotope lent its corral on a point of P within the face tolerance
        # of its boundary. Hints near the swept zonotope lend most zonotope
        # rows a corral that passes; some of an unrelated zonotope's fail (3
        # to 8 of 8 at d = 2), and Wolfe's loop solves those.
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        near = perturbed(z, rng, 1e-6)
        cold = cold_sweep(poly, near)
        m, zrows = len(poly.vertices), len(cold.corrals)
        for hints in (z, random_zonotope(rng, z.rank, d)):
            hausdorff._projections(poly, hints)
            with mock.patch.object(solvers, "_wolfe", wraps=solvers._wolfe) as hull_calls:
                hinted = hausdorff._projections(
                    poly, Zonotope(near.generators, near.translation), hints=hints)
            unhinted = hausdorff._projections(poly, Zonotope(near.generators, near.translation))
            solved = sum(len(c.args[0]) for c in hull_calls.call_args_list)
            assert solved <= zrows // 2 if hints is z else solved > 0
            for i in range(m):
                assert sweep_key(hinted, i) == sweep_key(cold, i)
            tol = 10.0 * 1e-15 * poly.scale()
            for j, (_, pt) in enumerate(enumerate_vertices(near)):
                if not near_facets(poly, pt[None]).any():  # inside P
                    assert hull_row_key(hinted, m, j) == hull_row_key(unhinted, m, j)
                    assert hinted.corrals[j] == unhinted.corrals[j] == ()
                if hints is z or poly.interior_margin(pt) <= 0.0:
                    assert np.array_equal(np.flatnonzero(hinted.W[j]),
                                          np.flatnonzero(unhinted.W[j]))
                assert np.abs(hinted.P[m + j] - unhinted.P[m + j]).max() <= tol
                assert abs(hinted.distance[m + j] - unhinted.distance[m + j]) <= tol

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_sweep_runs_its_polytope_rows_through_one_box_loop(self, rng, monkeypatch, d):
        # With hints from the zonotope a step starts at, with an unrelated
        # zonotope's, and without hints, a sweep hands all its polytope rows
        # to one box loop from the same starts, and its polytope rows are
        # the same bits.
        def bits(a):
            return np.asarray(a, dtype=float).tobytes()

        calls, box = [], solvers._box_active_set
        monkeypatch.setattr(solvers, "_box_active_set",
                            lambda G, Y, starts: calls.append((Y, starts)) or box(G, Y, starts))
        for _ in range(4):
            poly, start = random_local_instance(rng, d=d)
            z, m = perturbed(start, rng, 1e-3), len(poly.vertices)
            unrelated = random_zonotope(rng, start.rank, d)
            for hints in (start, unrelated):
                hausdorff._projections(poly, hints)
            tables, starts = [], []
            for hints in (start, unrelated, None):
                del calls[:]
                tables.append(hausdorff._projections(
                    poly, Zonotope(z.generators, z.translation), hints=hints))
                assert len(calls) == 1
                assert bits(calls[0][0]) == bits(poly.vertices - z.translation)
                starts.append(bits(calls[0][1]))
            assert starts[1:] == starts[:-1]
            rows = [[bits(t.Q[:m]), bits(t.X[:m]), bits(t.distance[:m])] for t in tables]
            assert rows[1:] == rows[:-1]

    def test_cold_rows_outside_start_at_their_nearest_vertex(self, rng, monkeypatch):
        # A row strictly outside z starts the box loop at the bits of its
        # nearest vertex of z; a row inside starts at 0, as does every row
        # of a degenerate z.
        calls, seen = [], set()  # (row, start) of each row handed to the box loop
        solve = solvers._box_active_set
        monkeypatch.setattr(solvers, "_box_active_set",
                            lambda G, Y, starts: calls.extend(zip(Y, starts)) or solve(G, Y, starts))
        for d in (2, 3):
            for _ in range(6):
                poly = random_polytope(rng, d)
                z = random_zonotope(rng, d + 2, d, scale=rng.choice([0.5, 1.5]))
                del calls[:]
                hausdorff._projections(poly, z)
                normals, offsets = zonotope_facets(z)
                zverts = enumerate_vertices(z)
                for y, start in calls:
                    v = poly.vertices[((poly.vertices - z.translation) == y).all(axis=1)][0]
                    if (normals @ v - offsets).max() > 0.0:
                        near = np.argmin([np.linalg.norm(pt - v) for _, pt in zverts])
                        assert np.array_equal(start, zverts[near][0])
                        seen.add("outside")
                    else:
                        assert not start.any()
                        seen.add("inside")
        assert seen == {"outside", "inside"}
        G = z.generators.copy()
        G[1] = 2.0 * G[0]
        del calls[:]
        hausdorff._projections(poly, Zonotope(G, z.translation))
        assert len(calls) == len(poly.vertices)
        assert not any(start.any() for _, start in calls)

    @pytest.mark.parametrize("d", [2, 3])
    def test_cold_zonotope_rows_are_project_to_hull(self, rng, d):
        # An unrelated zonotope lends most zonotope rows a corral that
        # fails, and a zonotope off general position has none to select, so
        # those rows run Wolfe's loop, as one stack; each ends as it does
        # alone, bit for bit. An unhinted sweep of a general-position
        # zonotope keeps the face it selected for every other zonotope row.
        def bits(a):
            return np.asarray(a, dtype=float).tobytes()

        for _ in range(4):
            poly, hints = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
            z = random_zonotope(rng, d + 2, d)
            G = z.generators.copy()
            G[1] = 2.0 * G[0]
            hausdorff._projections(poly, hints)
            m = len(poly.vertices)
            for zk, kwargs in ((z, {"hints": hints}), (Zonotope(G, z.translation), {}),
                               (Zonotope(z.generators, z.translation), {})):
                with mock.patch.object(solvers, "_wolfe", wraps=solvers._wolfe) as wolfe:
                    rows = hausdorff._projections(poly, zk, **kwargs)
                stacked = [S for call in wolfe.call_args_list for S in call.args[0]]
                zpts = np.array([pt for _, pt in enumerate_vertices(zk)])
                near = near_facets(poly, zpts)
                live = np.flatnonzero(near.any(axis=1)).tolist()
                cold = [j for j, pt in enumerate(zpts)
                        if any(np.array_equal(poly.vertices - pt, S) for S in stacked)]
                assert len(wolfe.call_args_list) <= 1 and len(cold) == len(stacked)
                assert set(cold) <= set(live)
                if zk is z:
                    assert cold
                elif _facet_directions(zk)[2]:
                    assert cold == live
                else:
                    picks = hausdorff._polytope_face_rows(poly, zpts[live], near[live])
                    for j, pick in zip(live, picks):
                        if j not in cold:
                            assert rows.corrals[j] == tuple(pick)
                for j in cold:
                    one = solvers.project_to_hull(poly.vertices, zpts[j])
                    assert rows.corrals[j] == one.corral
                    assert bits(rows.W[j]) == bits(one.weights)
                    assert bits(rows.P[m + j]) == bits(one.point)
                    assert bits(rows.distance[m + j]) == bits(one.distance)

    def test_hinted_sweep_lends_the_hints_corrals(self, rng, monkeypatch):
        # Each zonotope row whose cube lift is a row of the hints' table
        # starts on that row's corral; any other starts on none.
        lent, tail = [], solvers._hull_rows
        monkeypatch.setattr(solvers, "_hull_rows",
                            lambda V, T, corrals, *w: lent.append(list(corrals)) or tail(
                                V, T, corrals, *w))
        matched = set()
        for d in (2, 3):
            for _ in range(4):
                poly, hints = random_local_instance(rng, d=d)
                table, m = hausdorff._projections(poly, hints), len(poly.vertices)
                zk = perturbed(hints, rng, float(rng.choice([1e-6, 1e-1])))
                del lent[:]
                hausdorff._projections(poly, zk, hints=hints)
                by_bits = {b.tobytes(): c for b, c in zip(table.X[m:], table.corrals)}
                live = [b for b, pt in enumerate_vertices(zk)  # inside P no corral is solved
                        if near_facets(poly, pt[None]).any()]
                assert lent[0] == [by_bits.get(b.tobytes(), ()) for b in live]
                matched |= {b.tobytes() in by_bits for b in live}
        assert matched == {True, False}


class TestInsideRows:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_a_vertex_inside_p_is_its_own_projection_on_every_path(self, seed, d):
        # Unhinted, hinted by the zonotope a step starts from, hinted by an
        # unrelated one, and off general position: each zonotope vertex
        # with every facet margin below -FACE_ACTIVE_TOL x scale is its own
        # row, distance 0.0, no weights and no corral, and no solve sees it.
        def bits(a):
            return np.asarray(a, dtype=float).tobytes()

        rng = np.random.default_rng(seed)
        poly = random_polytope(rng, d)
        start = random_zonotope(rng, d + 2, d, scale=float(rng.uniform(0.05, 0.5)))
        start = Zonotope(start.generators, start.translation + poly.vertices.mean(axis=0)
                         - start.center)
        unrelated = random_zonotope(rng, d + 2, d)
        G = start.generators.copy()
        G[1] = 2.0 * G[0]
        m, seen = len(poly.vertices), 0
        for hints in (start, unrelated):
            hausdorff._projections(poly, hints)
        z = perturbed(start, rng, 1e-3)
        degenerate = Zonotope(G, z.translation)
        for zk, hints in ((z, None), (z, start), (z, unrelated), (degenerate, None)):
            zk = Zonotope(zk.generators, zk.translation)
            solved, tail = [], solvers._hull_rows  # Wolfe's rows end in the tail too
            with mock.patch.object(solvers, "_hull_rows", side_effect=lambda V, T, *a: (
                    solved.extend(map(bits, T)) or tail(V, T, *a))):
                rows = hausdorff._projections(poly, zk, hints=hints)
            zpts = np.array([pt for _, pt in enumerate_vertices(zk)])
            inside = ~near_facets(poly, zpts).any(axis=1)
            seen += inside.sum()
            for j in np.flatnonzero(inside):
                assert bits(rows.P[m + j]) == bits(zpts[j])
                assert bits(rows.distance[m + j]) == bits(0.0)
                assert bits(rows.W[j]) == bits(np.zeros(m)) and rows.corrals[j] == ()
                assert bits(zpts[j]) not in solved
        assert seen


def shifted_to_lower_face(z, x, i, c):
    """z translated along generator i, so that a target whose box
    least-squares coefficients onto z are x (i free) lands at coefficient c
    on the same face: c > 0 small puts it that far from the sub-face
    x_i = 0, c < 0 just outside the face."""
    return Zonotope(z.generators, z.translation + (x[i] - c) * z.generators[i])


def selection_instance(rng, d, kind):
    """(polytope, zonotope, near-tie row) for the face-selection tests. The
    near-tie row ("p", i, k) / ("z", j, k) of the "_tie" kinds projects 1e-9
    inside its face from the sub-face without its generator / vertex k; the
    "_off" kinds put the row's projection onto the face 1e-9 outside it."""
    poly, z = random_polytope(rng, d), random_zonotope(rng, d + 2, d)
    if kind == "inside":  # the zonotope well inside the polytope, or around it
        G = random_zonotope(rng, d + 2, d, scale=0.2 if rng.random() < 0.5 else 5.0).generators
        z = Zonotope(G, poly.vertices.mean(axis=0) - 0.5 * G.sum(axis=0))
    elif kind == "cube":  # square facets from d = 3 on: no selected face fits them
        poly = Polytope.from_vertices(list(itertools.product([0.0, 1.0], repeat=d)))
        z = random_zonotope(rng, d + 2, d, scale=0.5)
        z = Zonotope(z.generators, z.translation + 0.5 - z.center)
    elif kind == "degenerate":  # no face list: every row is measured cold
        G = z.generators.copy()
        G[1] = 2.0 * G[0]
        z = Zonotope(G, z.translation)
    elif kind[2:] in ("tie", "off"):  # 1e-9 inside the face, or just outside it
        side, c = "pz".index(kind[0]), 1e-9 if kind.endswith("tie") else -1e-9
        cold, m = cold_sweep(poly, z), len(poly.vertices)
        coef, first = (cold.X[:m], 0) if side == 0 else (cold.W, m)  # the side's rows
        rows = [j for j in range(len(coef)) if cold.distance[first + j] > 1e-6]
        faces = [(j, k) for j in rows for k in np.flatnonzero(
            (coef[j] > 0.0) & (coef[j] < 1.0) if side == 0 else coef[j])
            if side == 0 or np.count_nonzero(coef[j]) > 1]
        if faces:
            j, k = faces[rng.integers(len(faces))]
            if side == 0:
                z = shifted_to_lower_face(z, coef[j], k, c)
            else:  # move the projection along its face, weight c on vertex k
                w = coef[j, k]
                rest = (cold.P[m + j] - w * poly.vertices[k]) / (1.0 - w)
                z = Zonotope(z.generators, z.translation + (c - w) * (poly.vertices[k] - rest))
            return poly, z, (kind[0], j, k) if c > 0.0 else None
    return poly, z, None


def cold_sweep(poly, z):
    """Both sweeps of the pair by the solvers' cold loops, row by row, as a
    ``SweepRows`` table. A polytope vertex outside a general-position z
    starts the box loop at its nearest zonotope vertex, as in the sweep."""
    zverts = enumerate_vertices(z)
    bits, pts = geom._vertex_arrays(z)
    starts = [None] * len(poly.vertices)
    if geom.is_general_position(z):
        normals, offsets = zonotope_facets(z)
        for i, v in enumerate(poly.vertices):
            if (normals @ v - offsets).max() > 0.0:
                starts[i] = bits[np.square(v - pts).sum(axis=1).argmin()]
    p_rows = [solvers.box_least_squares(z.generators, z.translation, v, start)
              for v, start in zip(poly.vertices, starts)]
    z_rows = [solvers.project_to_hull(poly.vertices, pt) for _, pt in zverts]
    return hausdorff.SweepRows(
        P=np.vstack([poly.vertices, [r.point for r in z_rows]]),
        Q=np.vstack([[r.point for r in p_rows], [pt for _, pt in zverts]]),
        X=np.vstack([[r.coefficients for r in p_rows], [bits for bits, _ in zverts]]),
        distance=np.array([r.distance for r in p_rows + z_rows]),
        W=np.array([r.weights for r in z_rows]), corrals=tuple(r.corral for r in z_rows))


class TestFaceSelection:
    @pytest.mark.parametrize("kind", ["random", "inside", "cube", "degenerate",
                                      "p_tie", "p_off", "z_tie", "z_off"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=224)  # a zonotope vertex inside P: 0.0 in the sweep, 7.1e-17 cold
    def test_unhinted_sweep_matches_the_cold_loops(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        poly, z, tie = selection_instance(rng, d, kind)
        rows, cold, m = hausdorff._projections(poly, z), cold_sweep(poly, z), len(poly.vertices)
        tol = 1e-15 * poly.scale()
        for i in range(m):  # the box loop's rows, near-ties too
            assert sweep_key(rows, i) == sweep_key(cold, i)
        for j, (_, pt) in enumerate(enumerate_vertices(z)):
            if rows.corrals[j] == cold.corrals[j]:  # one solve, so every bit agrees
                assert hull_row_key(rows, m, j) == hull_row_key(cold, m, j)
            else:
                # Solves on two corrals, or on one in two orders, agree to
                # roundoff: up to about 2e-15 x scale.
                assert abs(rows.distance[m + j] - cold.distance[m + j]) <= 10.0 * tol
            if tie is not None and tie[:2] == ("z", j):
                assert rows.W[j, tie[2]] > 0.0
                assert set(np.flatnonzero(rows.W[j])) >= set(np.flatnonzero(cold.W[j]))
            elif poly.interior_margin(pt) <= 0.0:  # inside P the sweep's row has no weights
                assert np.array_equal(np.flatnonzero(rows.W[j]), np.flatnonzero(cold.W[j]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_general_position_sweep_runs_one_box_loop_and_no_wolfe(self, rng, monkeypatch, d):
        # The zonotope sits inside the polytope: its vertices are their own
        # projections. Every polytope row runs the box loop, all in one
        # stack.
        def refuse(*args):
            raise AssertionError("Wolfe's loop called")

        box = solvers._box_active_set
        for _ in range(5):
            poly = random_polytope(rng, d)
            G = random_zonotope(rng, d + 2, d, scale=0.1).generators
            z = Zonotope(G, poly.vertices.mean(axis=0) - 0.5 * G.sum(axis=0))
            stacks = []
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_box_active_set",
                              lambda G, Y, starts: stacks.append(len(Y)) or box(G, Y, starts))
                patch.setattr(solvers, "_wolfe", refuse)
                assert hausdorff_distance(poly, z)[0] > 0.0
            assert stacks == [len(poly.vertices)]

class TestConcurrentCalls:
    def test_threads_on_shared_objects_match_a_serial_call(self, rng):
        # Four threads start together on one polytope and one zonotope, none
        # of whose caches (vertices, facets, sweep, polytope faces) is built.
        for d in (2, 3):
            poly, z = random_local_instance(rng, d=d)

            def fresh():
                return (Polytope(poly.vertices, poly.facet_normals, poly.facet_offsets),
                        Zonotope(z.generators, z.translation))

            serial = (distance_key(*fresh()), check_locality(*fresh()))
            shared = fresh()
            start = threading.Barrier(4)

            def call(_):
                start.wait()
                return distance_key(*shared), check_locality(*shared)

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(call, range(4))) == [serial] * 4


def sweep_key(rows, i):
    """Every number of polytope row i of a sweep table, comparable with ==."""
    return rows.Q[i].tolist(), float(rows.distance[i]), rows.X[i].tolist()


def hull_row_key(rows, m, j):
    """Every number of zonotope row j of a sweep table with m polytope rows,
    its bytes, comparable with ==."""
    return rows.P[m + j].tobytes(), rows.distance[m + j].tobytes(), rows.W[j].tobytes()


def near_facets(poly, targets):
    """The facets each target violates by more than -FACE_ACTIVE_TOL x scale
    (targets x facets), as the sweep reads them; a target with none is
    inside P."""
    margin = targets @ poly.facet_normals.T - poly.facet_offsets
    return margin > -FACE_ACTIVE_TOL * poly.scale()


def candidate_targets(rng, poly):
    """Targets at the polytope's vertices; at a point of each facet, and
    1e-9 and 1e-3 inside and outside it; and 3 widths from the centroid."""
    V, scale = poly.vertices, poly.scale()
    targets = [V]
    for normal, offset in zip(poly.facet_normals, poly.facet_offsets):
        on = V[np.abs(V @ normal - offset) <= 1e-9 * scale]
        point = rng.dirichlet(np.ones(len(on))) @ on
        targets.append(point + np.array([0.0, 1e-9, -1e-9, 1e-3, -1e-3])[:, None] * normal)
    center = V.mean(axis=0)
    directions = rng.normal(size=(8, poly.dim))
    targets.append(center + 3.0 * np.ptp(V, axis=0).max()
                   * directions / np.linalg.norm(directions, axis=1)[:, None])
    return np.vstack(targets)


def hull_key(V, targets, corrals):
    """Every number of each target's ``solvers._hull_rows`` row on its corral,
    None for a row the tail does not accept."""
    W, points, distance, kkt, ok = solvers._hull_rows(V, targets, corrals)
    return [(W[k].tolist(), points[k].tolist(), distance[k], kkt[k], tuple(corrals[k]))
            if ok[k] else None for k in range(len(W))]


class TestPolytopeFaceCandidates:
    """``_polytope_face_rows`` solves only the (face, target) pairs that can
    hold the target's projection, and picks what the exhaustive rule picks."""

    @pytest.mark.parametrize("kind", ["random", "cube"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_picks_and_rows_as_every_pair(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        if kind == "cube":  # from d = 3 no facet is a simplex: vertices only
            poly = Polytope.from_vertices(list(itertools.product([0.0, 1.0], repeat=d)))
        else:
            poly = random_polytope(rng, d, npoints=int(rng.integers(d + 2, 4 * d + 4)))
        # The sweep selects faces only for targets near or outside P: a
        # target inside P is its own projection.
        targets = candidate_targets(rng, poly)
        near = near_facets(poly, targets)
        targets, near = targets[near.any(axis=1)], near[near.any(axis=1)]
        picks = hausdorff._polytope_face_rows(poly, targets, near)
        exhaustive = exhaustive_polytope_face_rows(poly, targets)
        assert picks == exhaustive
        assert hull_key(poly.vertices, targets, picks) == hull_key(
            poly.vertices, targets, exhaustive)

    def test_a_quarter_of_the_exhaustive_work(self, monkeypatch):
        # The sweep skips the vertices inside P and prunes the pairs of the
        # rest: under a quarter of the exhaustive rule's solves on all 32.
        rng = np.random.default_rng(4401)
        poly = random_polytope(rng, 3, npoints=10)
        while poly.vertices.shape[0] != 10:
            poly = random_polytope(rng, 3, npoints=10)
        z = random_zonotope(rng, 6, 3, scale=0.3)
        targets = np.array([pt for _, pt in enumerate_vertices(z)])
        assert targets.shape == (32, 3)
        near = near_facets(poly, targets)
        live = near.any(axis=1)
        count, solve = [0], solvers._affine_min_norm

        def counted(C):
            count[0] += C.shape[0]
            return solve(C)
        monkeypatch.setattr(solvers, "_affine_min_norm", counted)
        picks = hausdorff._polytope_face_rows(poly, targets[live], near[live])
        pruned, count[0] = count[0], 0
        exhaustive = exhaustive_polytope_face_rows(poly, targets)
        assert picks == [pick for pick, keep in zip(exhaustive, live) if keep]
        assert 0 < 4 * pruned <= count[0]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestShortParallelGenerator:
    """A generator parallel to another and far shorter than it puts the
    zonotope off general position, so its vertices come from the separation
    LPs. Each LP row is divided by its norm, so the short generator needs no
    separator past the simplex's tolerances, and the zonotope keeps the
    vertices of the unit square beside it."""

    @pytest.mark.parametrize("G", SHORT_PARALLEL_GENERATORS)
    def test_distance_matches_the_oracle(self, G):
        poly, z = Polytope.from_vertices(UNIT_TRIANGLE), Zonotope(G, [0.0, 0.0])
        value = hausdorff_distance(poly, z)[0]
        assert value == pytest.approx(hausdorff_oracle(UNIT_TRIANGLE, G, [0.0, 0.0]), rel=1e-6)
        assert value == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("G", SHORT_PARALLEL_GENERATORS)
    def test_hinted_sweep_matches_the_oracle(self, G):
        # The hints turn the short generator off the parallel direction: a
        # general-position zonotope of the same rank, measured first.
        poly = Polytope.from_vertices(UNIT_TRIANGLE)
        hints = Zonotope(np.array(G) + [[0.3, 0.2], [0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        assert not _facet_directions(hints)[2]
        hausdorff_distance(poly, hints)
        value = hausdorff._projections(poly, Zonotope(G, [0.0, 0.0]), hints=hints).distance.max()
        assert value == pytest.approx(hausdorff_oracle(UNIT_TRIANGLE, G, [0.0, 0.0]), rel=1e-6)


class TestZeroGenerator:
    """A zero generator moves no point: the zonotope and its distances are
    those without it."""

    def test_unit_square_with_a_zero_row(self):
        triangle = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        z = Zonotope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        assert [bits.tolist() for bits, _ in enumerate_vertices(z)] == [
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        assert not geom.is_zonotope_vertex(z, [1.0, 0.0, 0.0])
        value = hausdorff_distance(triangle, z)[0]
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(hausdorff_distance(triangle, unit_square_zonotope())[0],
                                      abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_distance_is_the_one_without_the_zero_row(self, rng, monkeypatch, d):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        reference_distance = importlib.import_module("worker").reference_distance
        for _ in range(4):
            poly, z = random_polytope(rng, d), random_zonotope(rng, d + 1, d)
            k = int(rng.integers(z.rank + 1))
            G = np.insert(z.generators, k, 0.0, axis=0)
            padded = Zonotope(G, z.translation)
            value = hausdorff_distance(poly, padded)[0]
            assert value == pytest.approx(hausdorff_distance(poly, z)[0], abs=1e-9)
            assert value == pytest.approx(
                reference_distance(poly.vertices, G, z.translation), abs=1e-6)
            report = check_locality(poly, padded)
            assert not report.ok and not report.general_position
            assert report.degenerate_subsets == tuple(
                s for s in itertools.combinations(range(z.rank + 1), d) if k in s)
