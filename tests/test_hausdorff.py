"""Distance-layer tests: exact/coarse Hausdorff, stability, local terms."""

import dataclasses
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    boundary_samples_2d,
    point_to_convex_polygon_distance,
    polygon_cycle,
    random_local_instance,
    random_polytope,
    random_zonotope,
    rigid_motion,
    rotated_square_configuration,
)
import zonofit
from zonofit import geom, hausdorff, solvers
from zonofit.errors import LocalityViolation
from zonofit.geom import (
    FACE_ACTIVE_TOL,
    AffineHull,
    Polytope,
    Zonotope,
    _facet_directions,
    enumerate_vertices,
    minimal_face,
    zonotope_as_polytope,
    zonotope_facets,
)
from zonofit.hausdorff import (
    _max_min_coefficient,
    check_locality,
    coarse_hausdorff_distance,
    dist_point_to_affine,
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
            in_poly = poly.contains(p, tol=1e-7)
            in_z = box_least_squares(z.generators, z.translation, p).distance <= 1e-6
            assert in_poly == in_z


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
        # Vertex 0 projects into the top edge of the square, 1e-9 short of
        # the corner (1, 1): within the face tolerance of the right edge,
        # so it counts as projecting to the corner, on its cone's boundary.
        z = unit_square_zonotope()
        poly = Polytope.from_vertices([[1.0 - 1e-9, 2.0], [3.0, 2.5], [2.0, 4.0]])
        row = hausdorff._projections(poly, z)[0][0]
        assert 0.0 < row.coefficients[0] < 1.0
        assert 0 in check_locality(poly, z).unstable_p_vertices


def projection_faces(poly, z):
    """The face each vertex of either body projects to on the other.

    "inside" for a vertex inside the other body; otherwise the lift's free
    set and anchor for a polytope vertex, and the vertex set of the minimal
    polytope face for a zonotope vertex (keyed by its bits).
    """
    p_proj, z_proj = hausdorff._projections(poly, z)
    normals, offsets = zonotope_facets(z)
    p_faces = []
    for v, row in zip(poly.vertices, p_proj):
        x = row.coefficients
        free = (x > 0.0) & (x < 1.0)
        p_faces.append("inside" if (offsets - normals @ v).min() > 0.0
                       else (tuple(np.flatnonzero(free)), tuple(np.where(free, 0.0, x))))
    z_faces = {
        tuple(bits): "inside" if poly.interior_margin(pt) > 0.0
        else minimal_face(poly, row.point).vertex_indices
        for (bits, pt), row in zip(enumerate_vertices(z), z_proj)
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
        row = hausdorff._projections(poly, z)[0][0]
        assert row.coefficients.tolist() == pytest.approx([0.94, 1.0, 0.0])
        assert check_locality(poly, z).ok
        face = projection_faces(poly, z)[0][0]
        for _ in range(5):
            assert projection_faces(poly, perturbed(z, rng, 1e-7))[0][0] == face


# The per-row stability rules that ``check_locality`` applies to all rows
# at once, kept unchanged as its reference.
def _hull_stable(x: np.ndarray, row: solvers.HullProjection, poly: Polytope,
                 tol_strict: float) -> bool:
    """``is_hausdorff_stable`` for x whose projection onto poly is ``row``.
    The face coefficient is the least weight when the weights' support is
    the face's vertex set (a simplex); only otherwise is it solved for."""
    q, scale = row.point, poly.scale()
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
    t_face = (float(row.weights[vidx].min())
              if tuple(np.flatnonzero(row.weights)) == face.vertex_indices
              else _max_min_coefficient(poly.vertices[vidx].T, q))
    if t_face is None or t_face <= tol_strict:
        return False
    behind = (np.delete(poly.vertices, vidx, axis=0) - q) @ (u / nu)
    return bool(np.all(behind < -tol_strict * scale))


def _lift_stable(v: np.ndarray, row: solvers.BoxProjection, z: Zonotope,
                 tol_strict: float, scale: float) -> bool:
    """Stability of polytope vertex v relative to z, read off its box
    least-squares row. Outside z, the projection q is in the relative
    interior of the face spanned by the free generators F (coefficients
    strictly inside (0, 1)) iff |F| < d and every facet active at q spans F;
    u = v - q is in the relative interior of that face's normal cone iff
    sign(2 x_i - 1) <g_i, u> > 0 off F (strict complementarity)."""
    normals, offsets = zonotope_facets(z)
    margin = float((offsets - normals @ v).min())
    if margin > -tol_strict * scale:
        return margin > tol_strict * scale  # inside is stable, the boundary is not
    x, u = row.coefficients, v - row.point
    nu = np.linalg.norm(u)
    free = (x > 0.0) & (x < 1.0)
    if nu <= tol_strict * scale or free.sum() >= z.dim:
        return False
    # Facet rows come in +-pairs per spanning subset (``zonotope_facets``).
    active = np.abs(normals @ row.point - offsets) <= FACE_ACTIVE_TOL * scale
    spans = _facet_directions(z)[0][np.flatnonzero(active) // 2]
    G = z.generators[~free]
    signed = np.where(x[~free] > 0.5, 1.0, -1.0) * (G @ u) / np.linalg.norm(G, axis=1)
    return bool((spans[:, :, None] == np.flatnonzero(free)).any(axis=1).all()
                and np.all(signed > tol_strict * nu))


def reference_locality(poly, z, tol_strict=hausdorff.STRICT_TOL):
    """``check_locality`` by the per-row rules above."""
    p_proj, z_proj = hausdorff._projections(poly, z)
    zverts = enumerate_vertices(z)
    scale = 1.0 + max(float(np.abs(pt).max()) for _, pt in zverts)
    bad_p = tuple(i for i, (v, row) in enumerate(zip(poly.vertices, p_proj))
                  if not _lift_stable(v, row, z, tol_strict, scale))
    bad_z = tuple(j for j, ((_, pt), row) in enumerate(zip(zverts, z_proj))
                  if not _hull_stable(pt, row, poly, tol_strict))
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
        p_rows = hausdorff._projections(poly, z)[0]
        near = [shifted_to_lower_face(z, row, k, rng.uniform(1e-9, 5e-8))
                for row in p_rows if row.distance > 0.0
                for k in np.flatnonzero((row.coefficients > 0.0) & (row.coefficients < 1.0))]
        for zk in [z] + [perturbed(z, rng, 1e-7) for _ in range(3)] + near[:3]:
            report = check_locality(poly, zk, tol_strict=tol_strict)
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
            for _ in range(10):
                z = random_zonotope(rng, 5, 3, scale=0.7)
                z = Zonotope(z.generators, 0.5 - 0.5 * z.generators.sum(axis=0))
                report = check_locality(cube, z, tol_strict=tol_strict)
                assert unstable_sets(report) == reference_locality(cube, z, tol_strict)
        assert solved


class TestDistPointToAffine:
    def test_x_axis(self):
        hull = AffineHull(base=np.zeros(2), normals=np.array([[0.0, 1.0]]),
                          offsets=np.array([0.0]))
        assert dist_point_to_affine([0.0, 2.0], hull) == pytest.approx(2.0)

    def test_point_in_subspace(self):
        hull = AffineHull(base=np.zeros(2), normals=np.array([[0.0, 1.0]]),
                          offsets=np.array([0.0]))
        assert dist_point_to_affine([3.0, 0.0], hull) == pytest.approx(0.0)

    def test_random_codim2_in_r4(self, rng):
        for _ in range(10):
            A = rng.normal(size=(2, 4))
            q, _ = np.linalg.qr(A.T)
            normals = q[:, :2].T
            base = rng.normal(size=4)
            hull = AffineHull(base=base, normals=normals, offsets=normals @ base)
            u = rng.normal(size=4)
            # Least-squares oracle: project u onto {y : normals y = offsets}.
            # y = u - normals^T s  with  normals normals^T s = normals u - c.
            s = np.linalg.lstsq(normals @ normals.T, normals @ u - hull.offsets,
                                rcond=None)[0]
            proj = u - normals.T @ s
            assert dist_point_to_affine(u, hull) == pytest.approx(
                np.linalg.norm(u - proj), abs=1e-10
            )


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


def pair_key(pair):
    return (pair.side, pair.vertex_index, pair.p.tolist(), pair.q.tolist(),
            pair.lift.values.tolist(), pair.lift.free_indices, pair.distance)


def term_key(term):
    hull = term.hull
    return (term.side, term.vertex_index, term.free_indices,
            *(None if a is None else a.tolist()
              for a in (term.bits, term.point, term.anchor_bits)),
            None if hull is None else (hull.normals.tolist(), hull.offsets.tolist()))


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
            # Every row of both sweeps is measured again.
            assert sorted(measured_rows[before:]) == (
                ["_box_rows"] * poly.vertices.shape[0]
                + ["_hull_rows"] * len(enumerate_vertices(z)))
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
            assert len(measured_rows) - before == (poly.vertices.shape[0]
                                                   + len(enumerate_vertices(zk)))
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
                for name in ("solve_lp", "box_least_squares", "project_to_hull"):
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
    def test_hinted_sweep_matches_cold_sweep(self, seed, d):
        # Rows solved on the faces of a measured zonotope: box rows repeat
        # the solver's final solve, hull rows may differ in corral order
        # only (inside P any simplex around the vertex will do). Hints near
        # the swept zonotope lend most rows a face that passes; an unrelated
        # zonotope's faces mostly fail, so most of its hinted sweep is cold.
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        near = perturbed(z, rng, 1e-6)
        for hints in (z, random_zonotope(rng, z.rank, d)):
            hausdorff._projections(poly, hints)
            box = mock.patch.object(solvers, "box_least_squares",
                                    wraps=solvers.box_least_squares)
            hull = mock.patch.object(solvers, "project_to_hull", wraps=solvers.project_to_hull)
            with box as box_calls, hull as hull_calls:
                hinted = hausdorff._projections(
                    poly, Zonotope(near.generators, near.translation), hints=hints)
            cold = hausdorff._projections(poly, Zonotope(near.generators, near.translation))
            solved = box_calls.call_count + hull_calls.call_count
            rows = len(cold[0]) + len(cold[1])
            assert solved <= rows // 2 if hints is z else solved > rows // 2
            assert sweep_key(hinted[:1]) == sweep_key(cold[:1])
            tol = 1e-15 * poly.scale()
            for (_, pt), h, c in zip(enumerate_vertices(near), hinted[1], cold[1]):
                if hints is z or poly.interior_margin(pt) <= 0.0:  # inside P any simplex
                    assert np.array_equal(np.flatnonzero(h.weights), np.flatnonzero(c.weights))
                assert np.abs(h.point - c.point).max() <= tol
                assert abs(h.distance - c.distance) <= tol



def shifted_to_lower_face(z, row, i, c):
    """z translated along generator i, so that a target whose box
    least-squares row onto z is ``row`` (i free) lands at coefficient c on
    the same face: c > 0 small puts it that far from the sub-face x_i = 0,
    c < 0 just outside the face."""
    return Zonotope(z.generators, z.translation + (row.coefficients[i] - c) * z.generators[i])


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
        rows = [(j, r) for j, r in enumerate(cold_sweep(poly, z)[side]) if r.distance > 1e-6]
        faces = [(j, r, k) for j, r in rows for k in np.flatnonzero(
            (r.coefficients > 0.0) & (r.coefficients < 1.0) if side == 0 else r.weights)
            if side == 0 or np.count_nonzero(r.weights) > 1]
        if faces:
            j, r, k = faces[rng.integers(len(faces))]
            if side == 0:
                z = shifted_to_lower_face(z, r, k, c)
            else:  # move the projection along its face, weight c on vertex k
                w = r.weights[k]
                rest = (r.point - w * poly.vertices[k]) / (1.0 - w)
                z = Zonotope(z.generators, z.translation + (c - w) * (poly.vertices[k] - rest))
            return poly, z, (kind[0], j, k) if c > 0.0 else None
    return poly, z, None


def cold_sweep(poly, z):
    """Both sweeps of the pair by the solvers' cold loops, row by row."""
    return ([solvers.box_least_squares(z.generators, z.translation, v) for v in poly.vertices],
            [solvers.project_to_hull(poly.vertices, pt) for _, pt in enumerate_vertices(z)])


class TestFaceSelection:
    @pytest.mark.parametrize("kind", ["random", "inside", "cube", "degenerate",
                                      "p_tie", "p_off", "z_tie", "z_off"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unhinted_sweep_matches_the_cold_loops(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        poly, z, tie = selection_instance(rng, d, kind)
        p_rows, z_rows = hausdorff._projections(poly, z)
        p_cold, z_cold = cold_sweep(poly, z)
        tol = 1e-15 * poly.scale()
        for i, (row, cold) in enumerate(zip(p_rows, p_cold)):
            if tie is not None and tie[:2] == ("p", i):
                # The cold loop may stop on the sub-face, whose stopping test
                # passes too; the selected row is on the face itself.
                assert 0.0 < row.coefficients[tie[2]] < 1.0
                assert abs(row.distance - cold.distance) <= tol
            else:
                assert sweep_key([[row]]) == sweep_key([[cold]])
        for j, ((_, pt), row, cold) in enumerate(zip(enumerate_vertices(z), z_rows, z_cold)):
            assert abs(row.distance - cold.distance) <= tol
            if tie is not None and tie[:2] == ("z", j):
                assert row.weights[tie[2]] > 0.0
                assert set(np.flatnonzero(row.weights)) >= set(np.flatnonzero(cold.weights))
            elif poly.interior_margin(pt) <= 0.0:  # inside P any simplex around pt will do
                assert np.array_equal(np.flatnonzero(row.weights), np.flatnonzero(cold.weights))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_general_position_sweep_calls_no_cold_loop(self, rng, monkeypatch, d):
        # The zonotope sits inside the polytope: its vertices project into
        # the fan, the polytope's vertices onto its boundary faces.
        def refuse(*args):
            raise AssertionError("cold loop called")

        for _ in range(5):
            poly = random_polytope(rng, d)
            G = random_zonotope(rng, d + 2, d, scale=0.1).generators
            z = Zonotope(G, poly.vertices.mean(axis=0) - 0.5 * G.sum(axis=0))
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_box_active_set", refuse)
                patch.setattr(solvers, "_wolfe", refuse)
                assert hausdorff_distance(poly, z)[0] > 0.0

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


def sweep_key(sweep):
    """Every number of a (p_proj, z_proj) sweep, comparable with ==."""
    return [[(r.point.tolist(), r.distance, r.kkt_residual,
              (r.coefficients if hasattr(r, "coefficients") else r.weights).tolist())
             for r in side] for side in sweep]
