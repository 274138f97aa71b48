"""Gradient-layer tests: analytic term gradients vs finite differences."""

import numpy as np
import pytest

from conftest import random_local_instance, random_zonotope, rotated_square_configuration
from zonofit.errors import DegenerateFace, DegenerateInput, DimensionMismatch, SingularSubmatrix
from zonofit.geom import Polytope, Zonotope
from zonofit.hausdorff import SmoothTerm, hausdorff_distance, local_terms
from zonofit.subgrad import (
    clarke_subdifferential,
    facet_normal,
    facet_normal_minor_vector,
    finite_difference_gradient,
    param_dim,
    params_to_zonotope,
    term_from_pair,
    zonotope_to_params,
)


def relerr(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def active_terms(poly, z, tol=1e-9):
    value, _ = hausdorff_distance(poly, z)
    terms = local_terms(poly, z)
    return value, [t for t in terms if t.value(z) >= value - tol]


class TestParamLayout:
    def test_round_trip(self, rng):
        z = random_zonotope(rng, 4, 3)
        v = zonotope_to_params(z)
        assert v.size == param_dim(4, 3)
        back = params_to_zonotope(v, 4, 3)
        assert np.array_equal(back.generators, z.generators)
        assert np.array_equal(back.translation, z.translation)

    def test_layout_order(self):
        z = Zonotope([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
        assert np.array_equal(zonotope_to_params(z), [1, 2, 3, 4, 5, 6])


class TestZVertexGradient:
    def test_direct_substitution(self):
        # eta = (0,1), lift e = (1,0): d/dg_12 = 1, d/dg_22 = 0, d/dmu_2 = 1.
        z = Zonotope([[1.0, 3.0], [2.0, 1.0]], [0.0, 0.0])
        term = SmoothTerm(side="z_vertex", vertex_index=0, normals=np.array([[0.0, 1.0]]),
                          offsets=np.array([0.0]), anchor_bits=np.array([1.0, 0.0]))
        g = term.gradient(z)
        # layout: (g11, g12, g21, g22, mu1, mu2)
        assert g == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])

    def test_translation_block_unit_norm(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        _, actives = active_terms(poly, z)
        for t in actives:
            if t.side != "z_vertex":
                continue
            g = t.gradient(z)
            assert np.linalg.norm(g[-2:]) == pytest.approx(1.0, abs=1e-9)

    def test_matches_finite_differences(self, rng):
        checked = 0
        for _ in range(8):
            poly, z = random_local_instance(rng, d=2, n=4)
            for t in local_terms(poly, z):
                if t.side != "z_vertex" or t.codim < 1 or t.value(z) < 1e-4:
                    continue
                g = t.gradient(z)
                fd = finite_difference_gradient(t, z, h=1e-6)
                assert relerr(g, fd) <= 1e-5
                checked += 1
        assert checked >= 10

    def test_codim0_raises(self):
        term = SmoothTerm(side="z_vertex", vertex_index=0, normals=np.zeros((0, 2)),
                          offsets=np.zeros(0), anchor_bits=np.array([0.0, 0.0]))
        with pytest.raises(DegenerateFace):
            term.gradient(Zonotope(np.eye(2), np.zeros(2)))


class TestTermFields:
    def test_free_index_outside_the_rank_is_typed(self):
        with pytest.raises(DimensionMismatch):
            SmoothTerm(side="p_vertex", vertex_index=0, normals=np.eye(2),
                       offsets=np.zeros(2), anchor_bits=np.zeros(2), free_indices=(5,))

    def test_repeated_free_index_is_typed(self):
        # (0, 0) would otherwise count twice and give codim 0.
        with pytest.raises(DegenerateInput):
            SmoothTerm(side="p_vertex", vertex_index=0, normals=np.eye(2),
                       offsets=np.zeros(2), anchor_bits=np.zeros(2), free_indices=(0, 0))

    @pytest.mark.parametrize("normals, offsets, anchor_bits", [
        (np.eye(2), np.zeros(3), np.zeros(2)),
        (np.zeros(2), np.zeros(1), np.zeros(2)),
        (np.eye(2), np.zeros(2), np.zeros((2, 2))),
    ])
    def test_mismatched_shapes_are_typed(self, normals, offsets, anchor_bits):
        with pytest.raises(DimensionMismatch):
            SmoothTerm(side="z_vertex", vertex_index=0, normals=normals, offsets=offsets,
                       anchor_bits=anchor_bits)

    def test_non_finite_data_is_typed(self):
        with pytest.raises(DegenerateInput):
            SmoothTerm(side="p_vertex", vertex_index=0, normals=np.eye(2),
                       offsets=np.array([np.nan, 0.0]), anchor_bits=np.zeros(2))


class TestFacetNormal:
    def test_single_free_generator_2d(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0]], np.zeros(2))
        eta = facet_normal(z, (0,), (np.array([0.0, 5.0]), np.array([0.0, 0.0])))
        assert eta == pytest.approx([0.0, 1.0])
        eta = facet_normal(z, (0,), (np.array([0.0, -5.0]), np.array([0.0, 0.0])))
        assert eta == pytest.approx([0.0, -1.0])

    def test_two_free_generators_3d(self):
        z = Zonotope(np.eye(3), np.zeros(3))
        eta = facet_normal(z, (0, 1), (np.array([0.0, 0.0, 2.0]), np.zeros(3)))
        assert eta == pytest.approx([0.0, 0.0, 1.0])

    def test_orthogonality_and_nullspace_oracle(self, rng):
        for _ in range(10):
            z = random_zonotope(rng, 5, 3)
            free = (1, 3)
            ref_p = rng.normal(size=3)
            eta = facet_normal(z, free, (ref_p, np.zeros(3)))
            for i in free:
                assert abs(eta @ z.generators[i]) <= 1e-10
            # SVD nullspace oracle
            _, _, vt = np.linalg.svd(z.generators[list(free)])
            kernel = vt[-1]
            cross = abs(abs(eta @ kernel) - 1.0)
            assert cross <= 1e-10
            assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-12)

    def test_dependent_rows_raise(self):
        z = Zonotope([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                     np.zeros(3))
        with pytest.raises(SingularSubmatrix):
            facet_normal(z, (0, 1), (np.ones(3), np.zeros(3)))


class TestPVertexGradient:
    def test_axis_aligned_facet_mu_block(self):
        # Polytope vertex straight above the top edge of the unit square:
        # eta = (0,1), so d/dmu = (0,-1).
        z = Zonotope(np.eye(2), np.zeros(2))
        term = SmoothTerm(side="p_vertex", vertex_index=0,
                          normals=np.eye(2), offsets=np.array([0.5, 2.0]),
                          anchor_bits=np.array([0.0, 1.0]),
                          free_indices=(0,))
        g = term.gradient(z)
        assert g[-2:] == pytest.approx([0.0, -1.0])

    def test_anchor_independence(self, rng):
        # Two distinct anchor vertices of the same facet give the same
        # gradient. p sits outside the middle of the edge along generator j,
        # on its outward normal, so its projection lies inside that edge.
        from zonofit.geom import lift_values_to_lift
        from zonofit.solvers import box_least_squares

        checked = 0
        for j in range(8):
            z = random_zonotope(rng, 4, 2)
            G = z.generators
            normal = np.array([-G[j % 4, 1], G[j % 4, 0]])
            normal /= np.linalg.norm(normal)
            bits = (G @ normal > 0).astype(float)
            bits[j % 4] = 0.5
            p = z.map_point(bits) + 10.0 * normal

            bp = box_least_squares(z.generators, z.translation, p)
            lift = lift_values_to_lift(bp.coefficients)
            if lift.free_indices != (j % 4,):
                continue
            free = lift.free_indices
            a1 = np.round(lift.values)
            a1[list(free)] = 0.0
            a2 = a1.copy()
            a2[free[0]] = 1.0  # the opposite vertex of the same edge
            t1 = SmoothTerm(side="p_vertex", vertex_index=0, normals=np.eye(2), offsets=p,
                            anchor_bits=a1, free_indices=free)
            t2 = SmoothTerm(side="p_vertex", vertex_index=0, normals=np.eye(2), offsets=p,
                            anchor_bits=a2, free_indices=free)
            assert t1.value(z) == pytest.approx(t2.value(z), abs=1e-12)
            assert relerr(t1.gradient(z), t2.gradient(z)) <= 1e-9
            checked += 1
        assert checked >= 6

    def test_matches_finite_differences_2d(self, rng):
        checked = 0
        for _ in range(8):
            poly, z = random_local_instance(rng, d=2, n=4)
            for t in local_terms(poly, z):
                if t.side != "p_vertex" or t.codim < 1 or t.value(z) < 1e-4:
                    continue
                g = t.gradient(z)
                fd = finite_difference_gradient(t, z, h=1e-6)
                assert relerr(g, fd) <= 1e-5
                checked += 1
        assert checked >= 10

    def test_matches_finite_differences_3d_all_codims(self, rng):
        seen_codims = set()
        for _ in range(12):
            poly, z = random_local_instance(rng, d=3, n=4)
            for t in local_terms(poly, z):
                if t.side != "p_vertex" or t.codim < 1 or t.value(z) < 1e-4:
                    continue
                g = t.gradient(z)
                fd = finite_difference_gradient(t, z, h=1e-6)
                assert relerr(g, fd) <= 1e-5
                seen_codims.add(t.codim)
        assert {1, 2, 3} & seen_codims  # sampled a mix of face codimensions

    def test_facet_gradient_uses_the_explicit_facet_normal(self, rng):
        # On a facet the translation block is minus the paper's signed-minor
        # unit normal, oriented from the facet toward the polytope vertex.
        checked = 0
        for d in (2, 3):
            for _ in range(8):
                poly, z = random_local_instance(rng, d=d, n=4)
                for t in local_terms(poly, z):
                    if t.side != "p_vertex" or t.codim != 1 or t.value(z) < 1e-4:
                        continue
                    eta = facet_normal(z, t.free_indices, (t.offsets, z.map_point(t.anchor_bits)))
                    assert np.abs(t.gradient(z)[-d:] + eta).max() <= 1e-12
                    checked += 1
        assert checked >= 10

    def test_interior_projection_raises(self):
        z = Zonotope(np.eye(2), np.zeros(2))
        term = SmoothTerm(side="p_vertex", vertex_index=0,
                          normals=np.eye(2), offsets=np.array([0.5, 0.5]),
                          anchor_bits=np.array([0.0, 0.0]),
                          free_indices=(0, 1))
        with pytest.raises(DegenerateFace):
            term.gradient(z)


class TestClarkeSubdifferential:
    def test_unique_active_pair_singleton(self, rng):
        for _ in range(5):
            poly, z = random_local_instance(rng, d=2, n=4)
            value, pairs = hausdorff_distance(poly, z)
            sub = clarke_subdifferential(poly, z)
            assert len(sub.gradients) == len(pairs)
            if len(pairs) == 1:
                assert len(sub.gradients) == 1

    def test_rotated_square_four_gradients(self):
        poly, z = rotated_square_configuration(eps=0.05)
        sub = clarke_subdifferential(poly, z)
        assert len(sub.gradients) == 4
        assert sub.objective == "exact"

    def test_gradients_match_fd_of_their_terms(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        sub = clarke_subdifferential(poly, z)
        for g, pair in zip(sub.gradients, sub.pairs):
            term = term_from_pair(poly, z, pair)
            fd = finite_difference_gradient(term, z, h=1e-6)
            assert relerr(np.asarray(g), fd) <= 1e-5

    @staticmethod
    def _assert_gradients_are_cone_rows(rng, objective):
        # The descent reads every active-term gradient off its cone row,
        # -(e (x) r^, r^) with r^ = (p - q) / |p - q|; the paper's term
        # formulae at the base zonotope must give the same vectors.
        for d in (2, 3):
            poly, z = random_local_instance(rng, d=d, n=d + 1)
            sub = clarke_subdifferential(poly, z, objective=objective)
            assert sub.objective == objective
            for g, pair in zip(sub.gradients, sub.pairs):
                term = term_from_pair(poly, z, pair)
                assert relerr(np.asarray(g), term.gradient(z)) <= 1e-12
                r = pair.p - pair.q
                rhat = r / np.linalg.norm(r)
                expected = np.concatenate([-np.outer(pair.lift.values, rhat).ravel(), -rhat])
                assert relerr(np.asarray(g), expected) <= 1e-12

    def test_gradient_is_negated_scaled_cone_row(self, rng):
        self._assert_gradients_are_cone_rows(rng, "exact")

    def test_coarse_gradients(self, rng):
        # A coarse pair is a term at a vertex face: same formula.
        self._assert_gradients_are_cone_rows(rng, "coarse")

    def test_coincident_pair_raises(self):
        # Identical bodies: every coarse pair has p = q, where no term has
        # a gradient; the typed error comes back, not NaN.
        square = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DegenerateFace):
            clarke_subdifferential(square, Zonotope(np.eye(2), np.zeros(2)), objective="coarse")


class TestFiniteDifferenceOracle:
    def test_linear_term_fd_nearly_exact(self):
        # Codim-1 z_vertex term with fixed hull is linear in parameters.
        z = Zonotope([[1.0, 3.0], [2.0, 1.0]], [0.5, 0.5])
        term = SmoothTerm(side="z_vertex", vertex_index=0, normals=np.array([[0.0, 1.0]]),
                          offsets=np.array([0.0]), anchor_bits=np.array([1.0, 1.0]))
        g = term.gradient(z)
        fd = finite_difference_gradient(term, z, h=1e-6)
        assert relerr(g, fd) <= 1e-8

    def test_h_sweep_second_order(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        terms = [t for t in local_terms(poly, z)
                 if t.side == "p_vertex" and t.codim == 1 and t.value(z) > 1e-3]
        if not terms:
            pytest.skip("no facet-landing term sampled")
        t = terms[0]
        g = t.gradient(z)
        errs = [relerr(g, finite_difference_gradient(t, z, h=h))
                for h in (1e-4, 1e-6)]
        assert errs[1] <= errs[0] + 1e-12  # smaller h at least as accurate
        assert errs[1] <= 1e-5


    @pytest.mark.parametrize("h", [0.0, -1e-6, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, h):
        poly, z = rotated_square_configuration(eps=0.05)
        term = local_terms(poly, z)[0]
        with pytest.raises(ValueError, match="finite step"):
            finite_difference_gradient(term, z, h=h)


class TestSliceRationality:
    def test_z_vertex_term_squared_is_quadratic_on_lines(self, rng):
        poly, z = random_local_instance(rng, d=2, n=3)
        terms = [t for t in local_terms(poly, z) if t.side == "z_vertex" and t.codim > 0]
        t0 = terms[0]
        params = zonotope_to_params(z)
        direction = rng.normal(size=params.size)
        ts = np.linspace(-1e-2, 1e-2, 21)
        vals = np.array([
            t0.value(params_to_zonotope(params + s * direction, z.rank, z.dim)) ** 2
            for s in ts
        ])
        coeffs = np.polyfit(ts, vals, 2)
        resid = vals - np.polyval(coeffs, ts)
        assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(vals).max())

    def test_p_vertex_term_squared_times_gamma_squared_is_polynomial(self, rng):
        # delta^2 * gamma^2 is a polynomial in the parameters along a line
        # (degree <= 2d for facet terms).
        poly, z = random_local_instance(rng, d=2, n=3)
        terms = [t for t in local_terms(poly, z)
                 if t.side == "p_vertex" and t.codim == 1 and t.value(z) > 1e-6]
        if not terms:
            pytest.skip("no facet-landing term sampled")
        t0 = terms[0]
        params = zonotope_to_params(z)
        direction = rng.normal(size=params.size)
        ts = np.linspace(-1e-2, 1e-2, 41)
        vals = []
        for s in ts:
            zs = params_to_zonotope(params + s * direction, z.rank, z.dim)
            m = facet_normal_minor_vector(zs.generators, t0.free_indices)
            vals.append((t0.value(zs) ** 2) * float(m @ m))
        vals = np.array(vals)
        deg = 2 * z.dim
        coeffs = np.polyfit(ts, vals, deg)
        resid = vals - np.polyval(coeffs, ts)
        assert np.abs(resid).max() <= 1e-9 * max(1.0, np.abs(vals).max())
