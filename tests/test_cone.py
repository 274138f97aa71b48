"""Cone-layer tests: cone construction, the worked 2-D example, descent
directions, certificates, and step-size limits."""

import numpy as np
import pytest

from conftest import random_local_instance, random_zonotope, rotated_square_configuration
from zonofit import solvers
from zonofit.errors import EmptyTaus, NonImprovingRow
from zonofit.cone import build_cone, certificate, descent_direction, tau_limits
from zonofit.descent import DescentConfig
from zonofit.geom import LiftPoint, Polytope, Zonotope, zonotope_as_polytope
from zonofit.hausdorff import AchievingPair, coarse_hausdorff_distance, hausdorff_distance
from zonofit.subgrad import (
    clarke_subdifferential,
    params_to_zonotope,
    zonotope_to_params,
)

# Variable-order permutation between this package's flat layout
# (g11, g12, g21, g22, mu1, mu2) and the worked example's interleaved
# layout (g11, g21, mu1, g12, g22, mu2): published column k corresponds to
# our column PUBLISHED_VAR_ORDER[k].
PUBLISHED_VAR_ORDER = [0, 2, 4, 1, 3, 5]

PUBLISHED_A = np.array([
    [0.0, -1.0, -2.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0, 0.0, -2.0],
    [2.0, 1.0, 2.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 2.0, 2.0],
])

PUBLISHED_RAYS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
    [1.0, -2.0, 0.0, 0.0, 1.0, -1.0],
])

PUBLISHED_LINEALITY = np.array([
    [0.0, -2.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -2.0, 0.0, 1.0],
])


def to_our_layout(vec):
    out = np.zeros(6)
    for k, j in enumerate(PUBLISHED_VAR_ORDER):
        out[j] = vec[k]
    return out


def worked_example_in_published_order(eps=0.05):
    """Z = Z(I, 0) and the rotated/scaled square with vertices ordered
    left, bottom, right, top (the published row order)."""
    s = (1.0 + eps) * np.sqrt(2.0) / 2.0
    verts = [[0.5 - s, 0.5], [0.5, 0.5 - s], [0.5 + s, 0.5], [0.5, 0.5 + s]]
    poly = Polytope.from_vertices(verts)
    z = Zonotope(np.eye(2), np.zeros(2))
    return poly, z


def normalize_rows(M):
    M = np.asarray(M, dtype=float)
    out = M.copy()
    for i in range(M.shape[0]):
        m = np.abs(M[i]).max()
        if m > 0:
            out[i] = M[i] / m
    return out


class TestBuildCone:
    def test_single_pair_translation_row(self):
        pair = AchievingPair(
            p=np.array([0.0, 1.0]), q=np.array([0.0, 0.0]), side="z_vertex",
            vertex_index=0, lift=LiftPoint(values=np.zeros(2), free_indices=()),
            distance=1.0,
        )
        cone = build_cone([pair])
        assert np.allclose(cone.matrix, [[0, 0, 0, 0, 0, 1]])

    def test_evaluation_identity_random(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        _, pairs = hausdorff_distance(poly, z)
        cone = build_cone(pairs)
        n, d = z.rank, z.dim
        for _ in range(20):
            x = rng.normal(size=n * d + d)
            dQ = x[: n * d].reshape(n, d)
            dmu = x[n * d:]
            for row, pair in zip(cone.matrix, pairs):
                direct = float((pair.lift.values @ dQ + dmu) @ (pair.p - pair.q))
                assert abs(float(row @ x) - direct) <= 1e-12 * max(1.0, abs(direct))


class TestWorkedExample:
    def test_cone_matrix_matches_published(self):
        poly, z = worked_example_in_published_order()
        value, pairs = hausdorff_distance(poly, z)
        assert len(pairs) == 4
        assert all(p.side == "p_vertex" for p in pairs)
        cone = build_cone(pairs)
        ours = normalize_rows(cone.matrix)
        published = normalize_rows(
            np.array([to_our_layout(row) for row in PUBLISHED_A])
        )
        assert np.abs(ours - published).max() <= 1e-6

    def test_published_rays_inside_cone(self):
        poly, z = worked_example_in_published_order()
        _, pairs = hausdorff_distance(poly, z)
        A = build_cone(pairs).matrix
        for ray in PUBLISHED_RAYS:
            assert (A @ to_our_layout(ray)).min() >= -1e-9
        for ell in PUBLISHED_LINEALITY:
            assert np.abs(A @ to_our_layout(ell)).max() <= 1e-9

    def test_interior_nonempty_not_local_min(self):
        from zonofit.solvers import cone_interior_point

        poly, z = worked_example_in_published_order()
        _, pairs = hausdorff_distance(poly, z)
        res = cone_interior_point(build_cone(pairs).matrix)
        assert res.interior
        assert res.margin > 1e-8

    def test_descent_direction_found(self):
        poly, z = worked_example_in_published_order()
        sub = clarke_subdifferential(poly, z)
        cone = build_cone(sub.pairs)
        res = descent_direction(cone)
        assert res.status == "descent"
        assert res.certificate is None
        assert (cone.matrix @ res.direction).min() > 0.0


class TestDescentDirection:
    def test_singleton_negated_gradient_inside_cone(self, rng):
        # With a unique active pair, the direction is the negated gradient.
        for _ in range(10):
            poly, z = random_local_instance(rng, d=2, n=4)
            sub = clarke_subdifferential(poly, z)
            if len(sub.gradients) != 1:
                continue
            cone = build_cone(sub.pairs)
            res = descent_direction(cone)
            assert res.status == "descent"
            assert np.allclose(res.direction, -np.asarray(sub.gradients[0]), atol=1e-12)

    def test_opposing_cone_gives_feasible_empty(self):
        # Two z_vertex pairs at the origin vertex pulling the translation
        # almost oppositely: the cone {x1 > 0, -x1 + 1e-5 x2 > 0} has
        # interior, but the negated gradients (1, 0) and ~(-1, 1e-5) span
        # a hull with |x2| <= 1e-5, which never clears both margins.
        pairs = [
            AchievingPair(
                p=np.asarray(p, float), q=np.zeros(2), side="z_vertex",
                vertex_index=j, lift=LiftPoint(values=np.zeros(2), free_indices=()),
                distance=float(np.linalg.norm(p)),
            )
            for j, p in enumerate([[1.0, 0.0], [-1.0, 1e-5]])
        ]
        cone = build_cone(pairs)
        res = descent_direction(cone)
        assert res.interior_margin > 1e-8
        assert res.status == "feasible_empty"

    def test_certified_local_min_for_identical_bodies(self):
        # P equal to Z: every pair has p = q, all rows vanish, interior is
        # empty, and every q is a vertex -> certified local minimum.
        z = Zonotope(np.eye(2), np.zeros(2))
        poly = Polytope.from_vertices([[0, 0], [1, 0], [1, 1], [0, 1]])
        value, pairs = hausdorff_distance(poly, z)
        cone = build_cone(pairs)
        res = descent_direction(cone)
        assert res.status == "cone_empty_interior"
        assert res.certificate == "certified_local_min"
        # Soundness probe: 200 random small perturbations never decrease
        # the exact distance by more than 1e-10.
        rng = np.random.default_rng(0)
        params = zonotope_to_params(z)
        for _ in range(200):
            delta = rng.uniform(-1e-4, 1e-4, size=params.size)
            z2 = params_to_zonotope(params + delta, z.rank, z.dim)
            v2, _ = hausdorff_distance(poly, z2)
            assert v2 >= value - 1e-10

    def test_coarse_certificate(self):
        z = Zonotope(np.eye(2), np.zeros(2))
        poly = Polytope.from_vertices([[0, 0], [1, 0], [1, 1], [0, 1]])
        _, pairs = coarse_hausdorff_distance(poly, z)
        cone = build_cone(pairs)
        res = descent_direction(cone, objective="coarse")
        assert res.status == "cone_empty_interior"
        assert res.certificate == "certified_local_min_coarse"

    @pytest.mark.parametrize("objective", ["bogus", "Coarse", "EXACT", ""])
    def test_unknown_objective_raises(self, objective):
        # Only "exact" and "coarse" name an objective; anything else is an
        # error, not silently the exact one.
        poly, z = rotated_square_configuration(eps=0.05)
        _, pairs = hausdorff_distance(poly, z)
        with pytest.raises(ValueError, match="unknown objective"):
            descent_direction(build_cone(pairs), objective)
        with pytest.raises(ValueError, match="unknown objective"):
            certificate(pairs, objective)
        with pytest.raises(ValueError, match="unknown objective"):
            clarke_subdifferential(poly, z, objective=objective)
        with pytest.raises(ValueError, match="unknown objective"):
            DescentConfig(rank=2, objective=objective)

    def test_descent_guarantee_with_backtracking(self, rng):
        # The half-min-tau step shrinks every *active* term, but an
        # inactive term can take over for large steps (the theoretical
        # step bound also involves a non-computable continuity margin).
        # Some halving of the step must strictly decrease the distance,
        # and in practice almost immediately.
        decreases = 0
        for _ in range(10):
            poly, z = random_local_instance(rng, d=2, n=4)
            value, _ = hausdorff_distance(poly, z)
            if value <= 1e-9:
                continue
            sub = clarke_subdifferential(poly, z)
            cone = build_cone(sub.pairs)
            res = descent_direction(cone)
            if res.status != "descent":
                continue
            h = 0.5 * min(res.taus)
            for _ in range(40):
                params = zonotope_to_params(z) + h * res.direction
                z2 = params_to_zonotope(params, z.rank, z.dim)
                value2, _ = hausdorff_distance(poly, z2)
                if value2 < value:
                    break
                h *= 0.5
            assert value2 < value
            decreases += 1
        assert decreases >= 5

    def test_each_active_term_decreases_along_direction(self, rng):
        from zonofit.subgrad import term_from_pair

        poly, z = random_local_instance(rng, d=2, n=4)
        value, _ = hausdorff_distance(poly, z)
        sub = clarke_subdifferential(poly, z)
        cone = build_cone(sub.pairs)
        res = descent_direction(cone)
        if res.status != "descent":
            pytest.skip("no descent direction on this draw")
        t = 0.9 * min(res.taus)
        params = zonotope_to_params(z) + t * res.direction
        z2 = params_to_zonotope(params, z.rank, z.dim)
        for pair in sub.pairs:
            term = term_from_pair(poly, z, pair)
            assert term.value(z2) < term.value(z) + 1e-12

    def test_direction_search_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the direction search solved an LP")

        monkeypatch.setattr(solvers, "solve_lp", no_lp)
        poly, z = worked_example_in_published_order()
        worked = build_cone(clarke_subdifferential(poly, z).pairs)
        assert descent_direction(worked).status == "descent"
        opposing = [
            AchievingPair(
                p=np.asarray(p, float), q=np.zeros(2), side="z_vertex",
                vertex_index=j, lift=LiftPoint(values=np.zeros(2), free_indices=()),
                distance=float(np.linalg.norm(p)),
            )
            for j, p in enumerate([[1.0, 0.0], [-1.0, 1e-5]])
        ]
        assert descent_direction(build_cone(opposing)).status == "feasible_empty"
        poly = Polytope.from_vertices([[0, 0], [1, 0], [1, 1], [0, 1]])
        _, pairs = hausdorff_distance(poly, Zonotope(np.eye(2), np.zeros(2)))
        assert descent_direction(build_cone(pairs)).status == "cone_empty_interior"

    def test_min_norm_rule_agrees_with_interior_lp(self):
        # Gordan: the open cone is empty iff 0 is in the negated-gradient
        # hull. Wide active bands make most cones multi-pair; exact fits
        # (P a zonotope's own polytope) give the empty side. A pair at a
        # round-off distance (|p - q| <= 1e-14) is a zero row; the LP
        # rescales it to a unit row, so it is checked apart.
        cases = []
        for seed in range(40):
            rng = np.random.default_rng(1600 + seed)
            d = 2 + seed % 2
            cases.append(random_local_instance(rng, d=d))
            if seed % 5 == 0:
                z = random_zonotope(rng, d + 1, d)
                cases.append((zonotope_as_polytope(z), z))
        empty = multi = 0
        for poly, z in cases:
            for distance, objective in ((hausdorff_distance, "exact"),
                                        (coarse_hausdorff_distance, "coarse")):
                _, pairs = distance(poly, z, tol_active=0.2)
                cone = build_cone(pairs)
                res = descent_direction(cone, objective=objective)
                if min(np.linalg.norm(pair.p - pair.q) for pair in pairs) <= 1e-14:
                    assert res.status == "cone_empty_interior"
                else:
                    interior = solvers.cone_interior_point(cone.matrix).interior
                    assert (res.status == "cone_empty_interior") == (not interior)
                empty += res.status == "cone_empty_interior"
                multi += len(pairs) > 1
                if res.status != "descent":
                    continue
                N = cone.negated_gradients()
                p = res.direction
                assert (cone.matrix @ p).min() > 0.0
                bound = p @ p - solvers.KKT_TOL * (1.0 + (N * N).sum(axis=1).max())
                assert (N @ p).min() >= bound
        assert empty >= 16 and multi >= 60

    def test_empty_cone_is_typed(self):
        # A cone of no pairs has no gradient to project: the same typed
        # error as its step limits, not an IndexError.
        with pytest.raises(EmptyTaus):
            descent_direction(build_cone([]))
        with pytest.raises(EmptyTaus):
            tau_limits(build_cone([]), np.zeros(6))


class TestTauLimits:
    def _pair(self, p, q, lift_values):
        return AchievingPair(
            p=np.asarray(p, float), q=np.asarray(q, float), side="z_vertex",
            vertex_index=0,
            lift=LiftPoint(values=np.asarray(lift_values, float), free_indices=()),
            distance=float(np.linalg.norm(np.asarray(p) - np.asarray(q))),
        )

    def test_direct_hit(self):
        # p - q = (0,1), direction moving q straight up: tau = 2, and the
        # half-tau step maps q exactly onto p.
        pair = self._pair([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        direction = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # dmu = (0,1)
        taus = tau_limits(build_cone([pair]), direction)
        assert taus[0] == pytest.approx(2.0)
        moved = pair.q + 0.5 * taus[0] * np.array([0.0, 1.0])
        assert np.allclose(moved, pair.p)

    def test_sixty_degrees(self):
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        pair = self._pair([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        direction = np.array([0.0, 0.0, 0.0, 0.0, s, c])  # unit delta at 60 deg
        taus = tau_limits(build_cone([pair]), direction)
        assert taus[0] == pytest.approx(2.0 * np.cos(np.pi / 3), abs=1e-12)

    def test_scaling_invariance_of_step(self):
        pair = self._pair([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        d1 = np.array([0.0, 0.0, 0.0, 0.0, 0.3, 0.7])
        taus1 = tau_limits(build_cone([pair]), d1)
        taus3 = tau_limits(build_cone([pair]), 3.0 * d1)
        assert taus3[0] == pytest.approx(taus1[0] / 3.0)

    def test_non_improving_raises(self):
        pair = self._pair([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        direction = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
        with pytest.raises(NonImprovingRow):
            tau_limits(build_cone([pair]), direction)
