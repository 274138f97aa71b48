"""Solver-layer tests: simplex LP, box LS, min-norm point, Chebyshev LPs."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    box_reference,
    box_ls_oracle,
    hull_projection_oracle,
    lp_oracle,
    random_zonotope,
    solve_lp_reference,
    wolfe_reference,
)
from zonofit import solvers
from zonofit.errors import DegenerateInput, DimensionMismatch, InfeasibleRegion, UnboundedRegion
from zonofit.solvers import (
    FEASIBILITY_TOL,
    box_least_squares,
    chebyshev_center,
    cone_interior_point,
    project_to_hull,
    solve_lp,
)


class TestSolveLP:
    def test_max_x_upper_bounded(self):
        res = solve_lp([1.0], [[-1.0]], [-3.0])  # x <= 3
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_max_x_lower_bound_only_is_unbounded(self):
        res = solve_lp([1.0], [[1.0]], [0.0])
        assert res.status == "unbounded"

    def test_separating_hyperplane_feasibility(self):
        # Unit-square corner e = (1,1): <g_i, eta> >= 1 for both generators.
        res = solve_lp([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert res.status == "optimal"
        eta = res.x
        assert eta[0] >= 1.0 - 1e-9 and eta[1] >= 1.0 - 1e-9

    def test_infeasible_detected(self):
        # x <= 1 and x >= 2
        assert solve_lp([1.0], [[-1.0], [1.0]], [-1.0, 2.0]).status == "infeasible"

    def test_equality_constraints(self):
        # max x + y s.t. x + y = 1 (two rows), x - y <= 0.5, x,y >= 0
        lhs = [[1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        res = solve_lp([1.0, 1.0], lhs, [1.0, -1.0, -0.5, 0.0, 0.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _boxed(A, b, upper):
        """A x <= b and 0 <= x <= upper as rows of lhs x >= rhs."""
        n = A.shape[1]
        return (np.vstack([-A, np.eye(n), -np.eye(n)]),
                np.concatenate([-b, np.zeros(n), np.full(n, -upper)]))

    def test_against_scipy_on_random_lps(self, rng):
        hits = 0
        for _ in range(40):
            m, n = rng.integers(2, 6), rng.integers(2, 5)
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            c = rng.uniform(-1.0, 1.0, size=n)
            mine = solve_lp(c, *self._boxed(A, b, 3.0))
            ref = lp_oracle(c, A_ub=A, b_ub=b, bounds=[(0.0, 3.0)] * n, maximize=True)
            assert mine.status == "optimal" and ref.status == 0
            assert mine.value == pytest.approx(-ref.fun, abs=1e-7)
            hits += 1
        assert hits == 40

    def test_primal_feasibility_residual(self, rng):
        for _ in range(20):
            m, n = 4, 3
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            c = rng.uniform(-1.0, 1.0, size=n)
            res = solve_lp(c, *self._boxed(A, b, 2.0))
            assert res.status == "optimal"
            resid = float(np.maximum(A @ res.x - b, 0.0).max())
            assert resid <= 1e-9 * (1.0 + np.abs(b).max())

    def test_duality_gap_on_random_feasible_bounded(self, rng):
        # max c x s.t. A x <= b, x free but boxed by explicit rows; its dual
        # min y b s.t. A^T y = c, y >= 0 is solved as an LP of the same form.
        for _ in range(25):
            m, n = 5, 3
            A = np.vstack([rng.uniform(-1.0, 1.0, size=(m, n)), np.eye(n), -np.eye(n)])
            b = np.concatenate([rng.uniform(0.5, 2.0, size=m), np.full(2 * n, 2.0)])
            c = rng.uniform(-1.0, 1.0, size=n)
            res = solve_lp(c, -A, -b)
            assert res.status == "optimal"
            k = A.shape[0]
            dual = solve_lp(-b, np.vstack([A.T, -A.T, np.eye(k)]),
                            np.concatenate([c, -c, np.zeros(k)]))
            assert dual.status == "optimal"
            y = dual.x
            assert np.all(y >= -1e-8)
            assert np.allclose(A.T @ y, c, atol=1e-8)
            gap = abs(-dual.value - res.value)
            assert gap <= 1e-8 * (1.0 + abs(res.value))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 4))
    def test_statuses_match_highs(self, seed, m, n):
        rng = np.random.default_rng(seed)
        A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
        mine = solve_lp(c, A, b)
        ref = lp_oracle(c, A_ub=-A, b_ub=-b, maximize=True)
        assert mine.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        if mine.status == "optimal":
            assert mine.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
            assert (b - A @ mine.x).max() <= FEASIBILITY_TOL * (1.0 + np.abs(b).max())

    def test_rejects_inconsistent_or_non_finite_data(self):
        with pytest.raises(ValueError):
            solve_lp([1.0, 0.0], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[np.nan]], [0.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [np.inf])

    def test_unbounded_where_highs_presolve_reports_infeasible(self):
        # Strictly feasible, and r = (-1, 1, -1) has A r > 0 and c r > 0.
        A = np.array([[-0.9345076354168521, 0.1913813155560599, 0.2709711787225872],
                      [-0.816942268168698, 0.9745193483597009, -1.075859643919591],
                      [1.1440680866508264, 1.8903861481266555, -0.03210909730378573],
                      [-0.07205733823724082, -0.25954910487853294, -0.2269464707860154],
                      [-0.8400326065399256, 0.11352133024220004, -0.6621350983837503]])
        b = np.array([0.00675751749765806, -0.8621702535750682, 0.1735225614668713,
                      -0.5233842555187698, -0.8412565848080432])
        c = np.array([-0.852576577037628, 0.5551005960279112, -1.375962769139522])
        r = np.array([-1.0, 1.0, -1.0])
        assert (A @ r).min() > 0.0 and c @ r > 0.0
        assert solve_lp(np.zeros(3), A, b).status == "optimal"
        assert solve_lp(c, A, b).status == "unbounded"
        assert lp_oracle(c, A_ub=-A, b_ub=-b, maximize=True).status == 3

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 5),
           kind=st.sampled_from(["normal", "integer", "sparse"]))
    def test_pivots_match_the_row_by_row_elimination(self, seed, m, n, kind):
        # One rank-1 update per pivot does the arithmetic of the old loop
        # over rows: the same status and x (up to the sign of a zero).
        # Integer data makes degenerate vertices and tied ratios common.
        rng = np.random.default_rng(seed)
        c, A, b = rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)
        if kind == "integer":
            c, A, b = np.round(2.0 * c), np.round(2.0 * A), np.round(2.0 * b)
        elif kind == "sparse":
            A *= rng.random((m, n)) < 0.4
        res = solve_lp(c, A, b)
        status, x = solve_lp_reference(c, A, b)
        assert res.status == status
        if status == "optimal":
            assert np.array_equal(res.x, x)

    def test_determinism(self, rng):
        A = rng.uniform(-1.0, 1.0, size=(4, 3))
        b = rng.uniform(0.5, 2.0, size=4)
        c = rng.uniform(-1.0, 1.0, size=3)
        lhs, rhs = self._boxed(A, b, 1.0)
        r1 = solve_lp(c, lhs, rhs)
        r2 = solve_lp(c, lhs, rhs)
        assert np.array_equal(r1.x, r2.x) and r1.value == r2.value


# Targets that are not a finite point of the plane, and the error each raises.
BAD_TARGETS = [([1.0, 2.0, 3.0], DimensionMismatch), ([[0.5, 0.5]], DimensionMismatch),
               ([np.nan, 0.0], DegenerateInput), ([0.0, -np.inf], DegenerateInput)]


class TestBoxLeastSquares:
    def test_outside_unit_square(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = box_least_squares(G, np.zeros(2), np.array([2.0, 0.5]))
        assert np.allclose(res.point, [1.0, 0.5], atol=1e-9)
        assert res.distance == pytest.approx(1.0, abs=1e-9)
        assert res.coefficients[0] == 1.0  # exactly at the bound

    @pytest.mark.parametrize("target, error", BAD_TARGETS)
    def test_bad_target_is_typed(self, target, error):
        # [nan, 0] returned a NaN distance.
        with pytest.raises(error):
            box_least_squares(np.eye(2), np.zeros(2), target)

    def test_inside_point_distance_zero(self, rng):
        z = random_zonotope(rng, 4, 2)
        x = rng.uniform(0.2, 0.8, size=4)
        p = x @ z.generators + z.translation
        res = box_least_squares(z.generators, z.translation, p)
        assert res.distance <= 1e-9

    def test_matches_scipy_bvls(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            G = rng.uniform(-1.0, 1.0, size=(n, d))
            mu = rng.uniform(-0.5, 0.5, size=d)
            p = rng.uniform(-3.0, 3.0, size=d)
            mine = box_least_squares(G, mu, p)
            _, _, dist_ref = box_ls_oracle(G, mu, p)
            assert mine.distance == pytest.approx(dist_ref, abs=1e-7)
            assert mine.kkt_residual <= 1e-8 * (1.0 + np.abs(G).max() * (1 + np.linalg.norm(p)))

    def test_idempotent_projection(self, rng):
        for _ in range(10):
            z = random_zonotope(rng, 4, 2)
            p = rng.uniform(-3.0, 3.0, size=2)
            first = box_least_squares(z.generators, z.translation, p)
            second = box_least_squares(z.generators, z.translation, first.point)
            assert second.distance <= 1e-9

    def test_lipschitz_in_target(self, rng):
        z = random_zonotope(rng, 5, 2)
        for _ in range(20):
            p = rng.uniform(-2.0, 2.0, size=2)
            q = p + rng.normal(scale=0.1, size=2)
            dp = box_least_squares(z.generators, z.translation, p).distance
            dq = box_least_squares(z.generators, z.translation, q).distance
            assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-9

    def test_matches_boundary_sampling_oracle(self, rng):
        from conftest import boundary_samples_2d, polygon_cycle
        from zonofit.geom import enumerate_vertices

        for _ in range(5):
            z = random_zonotope(rng, 4, 2)
            cycle = polygon_cycle([pt for _, pt in enumerate_vertices(z)])
            samples = boundary_samples_2d(cycle, 100_000)
            p = rng.uniform(-2.5, 2.5, size=2)
            res = box_least_squares(z.generators, z.translation, p)
            if res.distance <= 1e-9:
                continue  # interior target: sampling the boundary says nothing
            sampled = float(np.linalg.norm(samples - p, axis=1).min())
            assert res.distance == pytest.approx(sampled, abs=1e-4)

    def test_a_warm_start_changes_no_bit(self, rng):
        # Outside a general-position zonotope the optimal face is unique, so
        # the loop ends on it with the same face solve from any cube vertex.
        from zonofit.geom import enumerate_vertices, zonotope_facets

        tried = 0
        while tried < 200:
            d = int(rng.choice([2, 3]))
            z = random_zonotope(rng, int(rng.integers(d, d + 4)), d)
            p = rng.uniform(-3.0, 3.0, size=d)
            normals, offsets = zonotope_facets(z)
            if not (normals @ p - offsets).max() > 0.0:
                continue
            tried += 1
            cold = box_least_squares(z.generators, z.translation, p)
            zverts = enumerate_vertices(z)
            near = np.argmin([np.linalg.norm(pt - p) for _, pt in zverts])
            for bits in (zverts[near][0], zverts[rng.integers(len(zverts))][0]):
                warm = box_least_squares(z.generators, z.translation, p, bits)
                assert np.array_equal(warm.coefficients, cold.coefficients)
                assert np.array_equal(warm.point, cold.point)
                assert warm.kkt_residual <= 1e-8 * (1.0 + np.abs(z.generators).max()
                                                    * (1 + np.linalg.norm(p)))


class TestStackedBox:
    """The box loop runs a stack of rows in lockstep; each row must end with
    the bits it gets when run alone, which are those of the loop that ran
    one row (``box_reference``)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), rows=st.integers(1, 10),
           kind=st.sampled_from(["sweep", "parallel", "grid"]))
    def test_each_row_ends_as_it_does_alone(self, seed, d, rows, kind):
        # "sweep": rows inside z start at 0, rows outside at their nearest
        # vertex of z, as in a sweep; "parallel": the same with two
        # near-parallel generators; "grid": small integer data, whose face
        # solves land on bounds (snaps, steps of length 0), from any start.
        from zonofit.geom import Zonotope, _vertex_arrays

        rng = np.random.default_rng(seed)
        n = d + int(rng.integers(0, 4))
        G, mu = rng.uniform(-1.0, 1.0, size=(n, d)), rng.uniform(-0.5, 0.5, size=d)
        if kind == "parallel":
            G[1] = 0.5 * G[0] + 1e-7 * rng.normal(size=d)
        inside = rng.random(rows) < 0.4
        u = rng.normal(size=(rows, d))
        radius = 0.5 * np.linalg.norm(G, axis=1).sum() + rng.uniform(0.1, 2.0, size=(rows, 1))
        T = np.where(inside[:, None], rng.random((rows, n)) @ G + mu,  # beyond z's radius
                     mu + 0.5 * G.sum(axis=0) + radius * u / np.linalg.norm(u, axis=1)[:, None])
        if kind == "grid":
            G, mu = rng.integers(-2, 3, size=(n, d)).astype(float), np.zeros(d)
            T = rng.integers(-4, 5, size=(rows, d)) / 2.0
            starts = np.where(inside[:, None], 0.0, rng.integers(0, 2, size=(rows, n)))
        else:
            bits, points = _vertex_arrays(Zonotope(G, mu))
            nearest = np.square(T[:, None] - points).sum(axis=2).argmin(axis=1)
            starts = np.where(inside[:, None], 0.0, bits[nearest])
        X = solvers._box_active_set(G, T - mu, starts)
        for k in range(rows):
            one = solvers._box_active_set(G, T[k:k + 1] - mu, starts[k:k + 1])
            assert X[k].tobytes() == one[0].tobytes()
            assert X[k].tobytes() == box_reference(G, T[k] - mu, starts[k]).tobytes()


class TestProjectToHull:
    def test_triangle_corner_symmetry(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = project_to_hull(pts, np.array([1.0, 1.0]))
        assert np.allclose(res.point, [0.5, 0.5], atol=1e-9)
        assert res.distance == pytest.approx(np.sqrt(2) / 2, abs=1e-9)

    @pytest.mark.parametrize("target, error", BAD_TARGETS)
    def test_bad_target_is_typed(self, target, error):
        # [nan, 0] returned a NaN distance.
        with pytest.raises(error):
            project_to_hull(np.eye(2), target)

    def test_vertex_projects_to_itself(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(5, 3))
        res = project_to_hull(pts, pts[2])
        assert res.distance <= 1e-9

    def test_matches_slsqp_oracle(self, rng):
        for _ in range(40):
            k, d = int(rng.integers(3, 8)), int(rng.integers(2, 4))
            pts = rng.uniform(-1.0, 1.0, size=(k, d))
            t = rng.uniform(-2.0, 2.0, size=d)
            mine = project_to_hull(pts, t)
            _, _, dist_ref = hull_projection_oracle(pts, t)
            assert mine.distance == pytest.approx(dist_ref, abs=1e-4)
            assert mine.kkt_residual <= 1e-8 * (1.0 + (np.linalg.norm(pts - t, axis=1) ** 2).max())

    def test_weights_are_convex_coefficients(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(6, 2))
        t = np.array([3.0, 0.0])
        res = project_to_hull(pts, t)
        assert res.weights.min() >= -1e-12
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.weights @ pts, res.point, atol=1e-9)

    def test_matches_fine_grid_oracle(self, rng):
        # Brute-force minimization over a dense sampling of the hull
        # (boundary arc-length samples; interior points project to dist 0).
        from scipy.spatial import ConvexHull

        from conftest import boundary_samples_2d, point_to_convex_polygon_distance

        for _ in range(5):
            pts = rng.uniform(-1.0, 1.0, size=(5, 2))
            t = rng.uniform(-2.0, 2.0, size=2)
            res = project_to_hull(pts, t)
            cycle = pts[ConvexHull(pts).vertices]
            sampled = float(point_to_convex_polygon_distance(t[None, :], cycle)[0])
            if sampled == 0.0:
                assert res.distance <= 1e-9
            else:
                fine = float(np.linalg.norm(
                    boundary_samples_2d(cycle, 100_000) - t, axis=1).min())
                assert res.distance <= fine + 1e-12
                assert res.distance == pytest.approx(fine, abs=1e-4)

    def test_corral_is_the_support_of_the_weights(self, rng):
        for _ in range(40):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            res = project_to_hull(rng.uniform(-1.0, 1.0, size=(n, d)),
                                  rng.uniform(-3.0, 3.0, size=d))
            assert sorted(res.corral) == np.flatnonzero(res.weights).tolist()


def collapsing_row(d):
    """Wolfe rows S (points minus target) of two points whose first minor
    step runs: the target is nearer their hull than either point."""
    S = np.zeros((2, d))
    S[:, 0] = (1.0, -2.0) if d == 1 else (1.0, 1.0)
    if d > 1:
        S[:, 1] = (1.0, -1.0)
    return S


@contextlib.contextmanager
def collapsing(row):
    """Patch ``solvers._affine_min_norm`` to force one numerical collapse on
    the corrals drawn from ``row``: its first two-point corral reduces to
    one point, whose next solve gives a weight below the keep threshold, so
    the loop restarts that row from its best point; later solves are real.
    Yields a list that is not empty once the collapse has happened."""
    solve, marked, fired = solvers._affine_min_norm, {p.tobytes() for p in row}, []

    def patched(C):
        alpha = solve(C)
        for i, c in enumerate(C):
            if not fired and all(p.tobytes() in marked for p in c):
                if len(c) == 1:
                    fired.append(i)
                alpha[i] = [1e-15] if len(c) == 1 else [-0.5, 1.5]
        return alpha

    with mock.patch.object(solvers, "_affine_min_norm", patched):
        yield fired


class TestStackedWolfe:
    """Wolfe's loop runs a stack of rows in lockstep; each row must end with
    the corral (in order) and the weights it gets when run alone, which are
    those of the loop that ran one row (``wolfe_reference``)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), rows=st.integers(1, 10),
           kind=st.sampled_from(["outside", "inside", "repeated", "grid", "collapse"]))
    def test_each_row_ends_as_it_does_alone(self, seed, d, rows, kind):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 3 * d + 3))
        P = rng.normal(size=(rows, m, d))
        T = rng.normal(size=(rows, d)) * 2.0
        if kind == "inside":  # convex combinations of the row's points
            W = rng.dirichlet(np.ones(m), size=rows)
            T = np.einsum("rm,rmd->rd", W, P)
        elif kind == "repeated" and m > 1:
            P[:, rng.integers(m)] = P[:, rng.integers(m)]
        elif kind == "grid":  # exact ties in the argmin and the stopping test
            P, T = np.round(P), np.round(T)
        S = P - T[:, None]
        alone, reference = [], []
        if kind == "collapse":  # one more row, at k, that collapses once
            k = int(rng.integers(rows + 1))
            row = np.zeros((m + 1, d))
            row[:2] = collapsing_row(d)
            row[2:] = 5.0 + rng.random((m - 1, d))  # far from the two, never in a corral
            S = np.insert(np.pad(S, ((0, 0), (0, 1), (0, 0)), constant_values=9.0), k, row, 0)
            with collapsing(row) as fired:
                corrals, weights = solvers._wolfe(S)
            assert fired and sorted(corrals[k]) == [0, 1]  # restarted, then ended on the two
            for j in range(len(S)):
                with collapsing(row) as fired:
                    alone.append(solvers._wolfe(S[j:j + 1]))
                with collapsing(row) as fired_reference:
                    reference.append(wolfe_reference(S[j]))
                assert bool(fired) == bool(fired_reference) == (j == k)
        else:
            corrals, weights = solvers._wolfe(S)
            alone = [solvers._wolfe(S[j:j + 1]) for j in range(len(S))]
            reference = [wolfe_reference(S[j]) for j in range(len(S))]
        for corral, lam, (one_corral, one_lam), ref in zip(corrals, weights, alone, reference):
            assert corral == one_corral[0] == ref[0]
            assert lam.tobytes() == one_lam[0].tobytes() == ref[1].tobytes()

    def test_a_singular_system_leaves_the_others_alone(self, rng):
        # A repeated point makes its bordered Gram matrix exactly singular:
        # that one falls back to least squares, the others are solved as alone.
        C = rng.normal(size=(3, 3, 2))
        C[1, 2] = C[1, 0]
        stacked = solvers._affine_min_norm(C)
        for k in range(3):
            assert stacked[k].tobytes() == solvers._affine_min_norm(C[k:k + 1])[0].tobytes()


class TestChebyshevCenter:
    def test_unit_square(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.ones(4)
        center, radius = chebyshev_center(A, b)
        assert np.allclose(center, 0.0, atol=1e-9)
        assert radius == pytest.approx(1.0, abs=1e-9)

    def test_right_triangle_incenter(self):
        # x >= 0, y >= 0, x + y <= 2; incenter r = 2 area / perimeter.
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b = np.array([0.0, 0.0, 2.0])
        center, radius = chebyshev_center(A, b)
        area, perim = 2.0, 4.0 + np.sqrt(8.0)
        r_ref = 2.0 * area / perim
        assert radius == pytest.approx(r_ref, abs=1e-9)
        assert radius == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)
        assert np.allclose(center, [2.0 - np.sqrt(2.0)] * 2, atol=1e-8)

    def test_single_halfspace_unbounded(self):
        with pytest.raises(UnboundedRegion):
            chebyshev_center(np.array([[1.0, 0.0]]), np.array([1.0]))

    def test_empty_region(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        with pytest.raises(InfeasibleRegion):
            chebyshev_center(A, b)

    def test_ball_containment(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 8))
            A = rng.normal(size=(m, 2))
            b = rng.uniform(0.5, 2.0, size=m)
            try:
                center, radius = chebyshev_center(A, b)
            except (InfeasibleRegion, UnboundedRegion):
                continue
            slack = A @ center + radius * np.linalg.norm(A, axis=1) - b
            assert slack.max() <= 1e-9 * (1.0 + np.abs(b).max())


class TestConeInteriorPoint:
    def test_first_orthant(self):
        res = cone_interior_point(np.eye(2))
        assert res.interior
        assert res.margin > 0.5

    def test_opposing_rows_empty(self):
        res = cone_interior_point(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert not res.interior
        assert abs(res.margin) <= 1e-9

    def test_zero_rows_force_empty(self):
        res = cone_interior_point(np.zeros((2, 4)))
        assert not res.interior

    def test_interior_point_satisfies_rows(self, rng):
        A = rng.normal(size=(3, 5))
        res = cone_interior_point(A)
        if res.interior:
            norms = np.linalg.norm(A, axis=1)
            assert np.all(A @ res.x >= res.margin * norms - 1e-9)
