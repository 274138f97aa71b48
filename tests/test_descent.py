"""Descent-loop tests: step rules, perturbation, termination, monotonicity."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import OLD_MANIFEST_CONFIG, random_local_instance, random_polytope, random_zonotope
from zonofit import descent, solvers
from zonofit.cone import _row_caps, build_cone, descent_direction
from zonofit.errors import DimensionMismatch, EmptyTaus, PerturbationBudgetExceeded
from zonofit.descent import (
    DescentConfig,
    choose_step,
    optimize,
    perturb_until_local,
)
from zonofit.geom import Polytope, Zonotope, enumerate_vertices
from zonofit.hausdorff import (
    ACTIVE_PAIR_TOL,
    check_locality,
    coarse_hausdorff_distance,
    hausdorff_distance,
)
from zonofit.subgrad import params_to_zonotope, zonotope_to_params
from zonofit.warmstart import warmstart_zonotope


def unit_square_polytope():
    return Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestChooseStep:
    def test_single_tau_all_rules(self, rng):
        for rule in ("conservative", "random", "aggressive"):
            h, eff = choose_step(rule, [2.0], rng)
            assert h == 1.0
            assert eff == rule

    def test_min_max(self, rng):
        assert choose_step("conservative", [1.0, 3.0], rng)[0] == 0.5
        assert choose_step("aggressive", [1.0, 3.0], rng)[0] == 1.5

    def test_random_reproducible(self):
        taus = [1.0, 2.0, 4.0]
        seq1 = [choose_step("random", taus, np.random.default_rng(7))[0] for _ in range(1)]
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        seq1 = [choose_step("random", taus, rng1)[0] for _ in range(10)]
        seq2 = [choose_step("random", taus, rng2)[0] for _ in range(10)]
        assert seq1 == seq2
        assert all(h in (0.5, 1.0, 2.0) for h in seq1)

    def test_hybrid_switch(self, rng):
        h, eff = choose_step("hybrid", [1.0, 3.0], rng, iteration=0, switch_at=5)
        assert (h, eff) == (1.5, "aggressive")
        h, eff = choose_step("hybrid", [1.0, 3.0], rng, iteration=5, switch_at=5)
        assert (h, eff) == (0.5, "conservative")

    def test_empty_taus(self, rng):
        with pytest.raises(EmptyTaus):
            choose_step("conservative", [], rng)


class TestPerturbUntilLocal:
    def test_already_local_unchanged(self, rng):
        poly, z = random_local_instance(rng, d=2, n=4)
        out, tries = perturb_until_local(poly, z, 1e-6, rng)
        assert tries == 0
        assert out is z

    def test_duplicate_generator_resolved(self, rng):
        z = Zonotope([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.zeros(2))
        poly = random_polytope(rng, 2)
        out, tries = perturb_until_local(poly, z, 1e-6, rng)
        assert tries >= 1
        assert check_locality(poly, out).ok

    def test_budget_exceeded(self, rng, monkeypatch):
        z = Zonotope([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.zeros(2))
        poly = random_polytope(rng, 2)
        monkeypatch.setattr(descent, "MAX_PERTURB_TRIES", 2)
        with pytest.raises(PerturbationBudgetExceeded):
            # amplitude too small to fix a duplicated generator in 2 tries
            perturb_until_local(poly, z, 1e-18, rng)

    def test_vertex_on_cone_boundary_resolved(self, rng):
        # Polytope vertex straight above a zonotope corner: unstable, but
        # almost every perturbation fixes it.
        z = Zonotope(np.eye(2), np.zeros(2))
        poly = Polytope.from_vertices([[1.0, 2.0], [3.0, 2.5], [2.0, 4.0]])
        successes = 0
        for seed in range(20):
            out, tries = perturb_until_local(poly, z, 1e-6,
                                             np.random.default_rng(seed))
            if check_locality(poly, out).ok:
                successes += 1
        assert successes == 20

    def test_candidates_are_swept_on_the_faces_of_the_start(self, monkeypatch):
        # Polytope rows always run the box loop, all of them in one stack per
        # candidate. Zonotope rows keep the corral they had at the measured
        # start zonotope; only the borderline vertex may change its face, so
        # Wolfe's loop solves fewer than half of the rows.
        z = Zonotope(np.eye(2), np.zeros(2))
        poly = Polytope.from_vertices([[1.0, 2.0], [3.0, 2.5], [2.0, 4.0]])
        m = poly.vertices.shape[0]
        rows = m + len(enumerate_vertices(z))
        stacks, cold = [], []  # the box loop's stack sizes; a 1 per row handed to Wolfe's loop
        solve, wolfe = solvers._box_active_set, solvers._wolfe
        monkeypatch.setattr(solvers, "_box_active_set",
                            lambda G, Y, s: stacks.append(len(Y)) or solve(G, Y, s))
        monkeypatch.setattr(solvers, "_wolfe", lambda S: cold.extend([1] * len(S)) or wolfe(S))
        for seed in range(10):
            start = Zonotope(z.generators, z.translation)
            hausdorff_distance(poly, start)
            del stacks[:], cold[:]
            _, tries = perturb_until_local(poly, start, 1e-6, np.random.default_rng(seed))
            assert tries >= 1 and stacks == [m] * tries
            assert len(cold) < tries * rows / 2

    def test_no_sweep_for_a_start_or_candidate_off_general_position(self, rng, measured_rows,
                                                                     monkeypatch):
        # The start has no sweep to lend (check_locality stops at its
        # general-position test), so nothing sweeps it; candidates still
        # off general position are not swept at all.
        poly = random_polytope(rng, 2)
        measured_rows.clear()  # the polytope's extreme-point tests
        G = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        start = Zonotope(G, np.zeros(2))
        with monkeypatch.context() as mp:
            mp.setattr(descent, "MAX_PERTURB_TRIES", 2)
            with pytest.raises(PerturbationBudgetExceeded):
                perturb_until_local(poly, start, 1e-18, rng)
        assert not measured_rows and start._projections is None
        out, tries = perturb_until_local(poly, start, 1e-6, rng)
        assert start._projections is None
        assert len(measured_rows) == tries * (poly.vertices.shape[0] + len(enumerate_vertices(out)))


class TestOptimize:
    def test_identical_start_returns_immediately(self):
        poly = unit_square_polytope()
        z0 = Zonotope(np.eye(2), np.zeros(2))
        cfg = DescentConfig(rank=2, max_steps=50, threshold=1e-9)
        z, trace = optimize(poly, z0, cfg)
        assert trace.termination == "threshold"
        assert trace.records[-1].d_exact <= 1e-9
        assert len(trace.records) == 1

    def test_symmetric_hexagon_warmstart_converges_fast(self, rng):
        z_target = random_zonotope(rng, 3, 2)
        from zonofit.geom import zonotope_as_polytope

        poly = zonotope_as_polytope(z_target)
        z0 = warmstart_zonotope(poly, 3)
        cfg = DescentConfig(rank=3, max_steps=50, threshold=1e-9)
        z, trace = optimize(poly, z0, cfg)
        assert trace.termination == "threshold"
        assert trace.final_exact <= 1e-9
        assert len(trace.records) <= 3  # within a couple of iterations

    def test_conservative_trace_strictly_decreasing(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=4)
        cfg = DescentConfig(rank=4, max_steps=30, threshold=1e-12,
                            step_rule="conservative", rng_seed=3)
        z, trace = optimize(poly, z0, cfg)
        descents = [r for r in trace.records if r.cone_status == "descent"]
        for a, b in zip(trace.records, trace.records[1:]):
            if a.cone_status == "descent" and b.perturb_tries == 0:
                assert b.d_exact < a.d_exact + 1e-12

    def test_termination_reasons_exhaustive(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=3)
        cfg = DescentConfig(rank=3, max_steps=5, threshold=1e-12)
        _, trace = optimize(poly, z0, cfg)
        assert trace.termination in ("threshold", "max_steps",
                                     "certificate_or_feasible_empty", "stalled")

    def test_deterministic_traces(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=4)
        cfg = DescentConfig(rank=4, max_steps=15, threshold=1e-12,
                            step_rule="random", rng_seed=11)
        _, t1 = optimize(poly, z0, cfg)
        _, t2 = optimize(poly, z0, cfg)
        assert t1.math_columns() == t2.math_columns()

    def test_rank_mismatch_rejected(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=4)
        with pytest.raises(DimensionMismatch):
            optimize(poly, z0, DescentConfig(rank=3))

    def test_dimension_mismatch_rejected(self, rng):
        poly, _ = random_local_instance(rng, d=2, n=4)
        with pytest.raises(DimensionMismatch):
            optimize(poly, random_zonotope(rng, 4, 3), DescentConfig(rank=4))

    def test_distance_improves_from_random_start(self, rng):
        poly = random_polytope(rng, 2)
        z0 = random_zonotope(rng, 4, 2)
        d0, _ = hausdorff_distance(poly, z0)
        cfg = DescentConfig(rank=4, max_steps=60, threshold=1e-9, rng_seed=5)
        z, trace = optimize(poly, z0, cfg)
        d1, _ = hausdorff_distance(poly, z)
        assert d1 <= d0 + 1e-12

    def test_coarse_objective_runs(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=3)
        cfg = DescentConfig(rank=3, max_steps=20, threshold=1e-10,
                            objective="coarse", rng_seed=2)
        z, trace = optimize(poly, z0, cfg)
        assert trace.termination in ("threshold", "max_steps",
                                     "certificate_or_feasible_empty", "stalled")
        # coarse dominates exact on every record
        for r in trace.records:
            assert r.d_coarse >= r.d_exact - 1e-9

    def test_aggressive_step_decreases_its_pair(self, rng):
        # With the aggressive rule (h = half the largest tau), at least
        # the pair attaining that tau strictly improves.
        from zonofit.cone import build_cone, descent_direction
        from zonofit.subgrad import (
            clarke_subdifferential,
            params_to_zonotope,
            term_from_pair,
            zonotope_to_params,
        )

        checked = 0
        for _ in range(10):
            poly, z = random_local_instance(rng, d=2, n=4)
            sub = clarke_subdifferential(poly, z)
            cone = build_cone(sub.pairs)
            res = descent_direction(cone)
            if res.status != "descent":
                continue
            h = 0.5 * max(res.taus)
            k = int(np.argmax(res.taus))
            z2 = params_to_zonotope(zonotope_to_params(z) + h * res.direction,
                                    z.rank, z.dim)
            term = term_from_pair(poly, z, sub.pairs[k])
            assert term.value(z2) < term.value(z) + 1e-12
            checked += 1
        assert checked >= 5

    def test_config_json_round_trip(self):
        cfg = DescentConfig(rank=4, max_steps=77, threshold=1e-6,
                            step_rule="hybrid", rng_seed=5,
                            objective="coarse")
        back = DescentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_config_json_cone_fallback_only_off(self):
        # Manifests written before the rescue direction was removed carry
        # "cone_fallback": false; they load, and a true value cannot replay.
        old = {**DescentConfig(rank=3).to_json(), "cone_fallback": False}
        assert DescentConfig.from_json(old) == DescentConfig(rank=3)
        with pytest.raises(ValueError):
            DescentConfig.from_json({**old, "cone_fallback": True})

    def test_config_json_old_manifest_loads(self):
        new = DescentConfig(rank=3, max_steps=7, rng_seed=11)
        assert DescentConfig.from_json(OLD_MANIFEST_CONFIG) == new
        # A partial solver block leaves the rest at the old defaults.
        partial = {**OLD_MANIFEST_CONFIG, "solver": {"kkt_tol": 1e-9}}
        assert DescentConfig.from_json(partial) == new

    @pytest.mark.parametrize("field, value", [
        ("cone_margin", 1e-7), ("cone_margin", 0.0), ("cone_margin", np.nan),
        ("solver", {"feasibility_tol": 1e-7, "kkt_tol": 1e-9, "iteration_factor": 10}),
        ("solver", {"iteration_factor": 20}), ("solver", {"pivot_tol": 1e-9}), ("solver", None)])
    def test_config_json_retired_field_only_at_its_old_default(self, field, value):
        # The tolerances and the margin are constants now, so a manifest
        # with another value describes a run this code cannot replay.
        with pytest.raises(ValueError, match=field):
            DescentConfig.from_json({**OLD_MANIFEST_CONFIG, field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_steps", 0), ("threshold", -1.0), ("threshold", np.nan),
        ("perturb_scale", 0.0), ("perturb_scale", np.nan), ("perturb_scale", np.inf)])
    def test_config_rejects_bad_values(self, field, value):
        # A NaN or infinite perturb_scale would fail only at the first
        # perturbation.
        with pytest.raises(ValueError):
            DescentConfig(rank=4, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", "x"), ("rng_seed", True),
        ("max_steps", 2.5), ("max_steps", True), ("rank", 4.0)])
    def test_config_rejects_a_non_integer_count_or_a_negative_seed(self, field, value):
        # A negative seed would fail only in np.random.default_rng.
        with pytest.raises(ValueError, match=field):
            DescentConfig(**{"rank": 4, field: value})

    def test_config_takes_numpy_integers(self):
        cfg = DescentConfig(rank=np.int64(4), max_steps=np.int64(3), rng_seed=np.int64(7))
        assert (cfg.rank, cfg.max_steps, cfg.rng_seed) == (4, 3, 7)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_config_rejects_rank_below_one(self, rank):
        with pytest.raises(ValueError, match="rank"):
            DescentConfig(rank=rank)

    def test_trace_csv_columns(self, rng):
        poly, z0 = random_local_instance(rng, d=2, n=3)
        cfg = DescentConfig(rank=3, max_steps=3, threshold=1e-12)
        _, trace = optimize(poly, z0, cfg)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "iter,d_exact,d_coarse,step,rule,active_pairs,cone_status,ms"
        assert len(lines) == len(trace.records) + 1
        assert all(len(line.split(",")) == 8 for line in lines[1:])


class TestProbes:
    def test_probes_count_candidate_zonotopes(self, rng, monkeypatch):
        built = []
        build = descent.params_to_zonotope
        monkeypatch.setattr(descent, "params_to_zonotope",
                            lambda *a: built.append(1) or build(*a))
        poly, z0 = random_local_instance(rng, d=2, n=4)
        cfg = DescentConfig(rank=4, max_steps=20, threshold=1e-12, rng_seed=3)
        _, trace = optimize(poly, z0, cfg)
        assert sum(r.probes for r in trace.records) == len(built) > 0
        assert all(r.probes >= 1 for r in trace.records if r.cone_status == "descent")

    def test_coarse_probe_rejected_without_sweep(self, rng, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a rejected coarse probe ran a projection")

        cfg = DescentConfig(rank=4, objective="coarse")
        for _ in range(3):
            poly = random_polytope(rng, 2)
            z = random_zonotope(rng, 4, 2)
            d_coarse, _ = coarse_hausdorff_distance(poly, z)
            with monkeypatch.context() as m:
                m.setattr(solvers, "_box_active_set", no_sweep)
                m.setattr(solvers, "_wolfe", no_sweep)
                assert descent._reaches(poly, z, d_coarse, cfg)
                assert descent._reaches(poly, z, 0.5 * d_coarse, cfg)
            assert z._projections is None
            assert not descent._reaches(poly, z, 2.0 * d_coarse, cfg)

    def test_a_decrease_must_beat_roundoff(self, rng):
        # A probe at d (1 - 1e-16), or one ulp below d, is rejected; one at
        # d (1 - 1e-12) is accepted. Both objectives share the test.
        for objective, measure in (("exact", hausdorff_distance),
                                   ("coarse", coarse_hausdorff_distance)):
            cfg = DescentConfig(rank=4, objective=objective)
            for _ in range(3):
                poly, z = random_polytope(rng, 2), random_zonotope(rng, 4, 2)
                value, _ = measure(poly, z)
                for d in (value / (1.0 - 1e-16), np.nextafter(value, np.inf)):
                    assert descent._reaches(poly, Zonotope(z.generators, z.translation), d, cfg)
                assert not descent._reaches(poly, Zonotope(z.generators, z.translation),
                                            value / (1.0 - 1e-12), cfg)


def _rows(poly, z, direction):
    """(U, delta, d, out): z's sweep rows along ``direction`` (u and delta
    of ``descent._row_motion``), the distance, and the rows outside the
    active band, whose caps bound the step."""
    d, _ = hausdorff_distance(poly, z)
    U, delta, dist = descent._row_motion(poly, z, direction)
    return U, delta, d, dist < d * (1.0 - ACTIVE_PAIR_TOL)


class TestStepCap:
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
           t=st.floats(0.01, 0.99))
    def test_row_stays_below_its_bound_up_to_its_cap(self, seed, d, t):
        # Any direction: along it each row outside the band is at most
        # |u - h delta| away for h in (0, h_r) (a zonotope row while its
        # bits are still a vertex), and that bound reaches d at h_r.
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        direction = rng.normal(size=(z.rank + 1) * d) * z.scale()
        U, delta, value, out = _rows(poly, z, direction)
        U, delta = U[out], delta[out]
        caps = _row_caps(U, delta, value)
        finite = np.isfinite(caps)
        assert finite.any()
        at_cap = np.linalg.norm(U[finite] - caps[finite, None] * delta[finite], axis=1)
        np.testing.assert_allclose(at_cap, value, rtol=1e-12)
        scale = 1.0 + float(np.abs(poly.vertices).max())
        for r in np.flatnonzero(finite):
            h = t * caps[r]
            zh = params_to_zonotope(zonotope_to_params(z) + h * direction, z.rank, d)
            bound = float(np.linalg.norm(U[r] - h * delta[r]))
            k = np.flatnonzero(out)[r]
            if k < len(poly.vertices):
                true = solvers.box_least_squares(zh.generators, zh.translation,
                                                 poly.vertices[k]).distance
            else:
                bits = enumerate_vertices(z)[k - len(poly.vertices)][0]
                moved = {b.tobytes(): pt for b, pt in enumerate_vertices(zh)}
                if bits.tobytes() not in moved:
                    continue
                true = solvers.project_to_hull(poly.vertices, moved[bits.tobytes()]).distance
            assert true <= bound + 1e-12 * scale

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]))
    def test_active_pair_root_at_its_own_distance_is_tau(self, seed, d):
        rng = np.random.default_rng(seed)
        poly, z = random_local_instance(rng, d=d)
        _, pairs = hausdorff_distance(poly, z)
        result = descent_direction(build_cone(pairs))
        assume(result.status == "descent")
        U, delta, _, out = _rows(poly, z, result.direction)
        band = ~out
        assert band.sum() == len(pairs)
        roots = _row_caps(U[band], delta[band], np.linalg.norm(U[band], axis=1))
        np.testing.assert_allclose(roots, result.taus, rtol=1e-12)

    def test_one_probe_per_iteration(self):
        # The conservative exact step starts below every row's cap, so
        # backtracking is rare: at most 1.1 probes per descent iteration.
        rng = np.random.default_rng(1201)
        probes = iterations = 0
        for d in (2, 3):
            for k in range(6):
                poly, z0 = random_local_instance(rng, d=d, n=4)
                _, trace = optimize(poly, z0, DescentConfig(rank=4, max_steps=15, rng_seed=k))
                probes += sum(r.probes for r in trace.records)
                iterations += sum(r.cone_status == "descent" for r in trace.records)
        assert iterations > 100 and probes <= 1.1 * iterations
