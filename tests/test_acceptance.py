"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantities (run with ``pytest -v -s``).

Every tolerance here is pinned; nothing is deferred to later calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    boundary_samples_2d,
    hull_vertices_oracle,
    point_to_convex_polygon_distance,
    polygon_cycle,
    random_local_instance,
    random_polytope,
    random_zonotope,
)
from zonofit.cone import build_cone, descent_direction
from zonofit.descent import DescentConfig, optimize
from zonofit.geom import (
    Polytope,
    Zonotope,
    enumerate_vertices,
    is_pushforward_proper,
    zonotope_as_polytope,
)
from zonofit.hausdorff import coarse_hausdorff_distance, hausdorff_distance, local_terms
from zonofit.solvers import cone_interior_point
from zonofit.subgrad import (
    finite_difference_gradient,
    params_to_zonotope,
    zonotope_to_params,
)
from zonofit.warmstart import warmstart_zonotope


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def relerr(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences on >= 100
    locality-satisfying instances, d in {2,3}, n in {d+1, d+2}."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = instances = 0
    worst = 0.0
    for d in (2, 3):
        for n in (d + 1, d + 2):
            for _ in range(25):
                poly, z = random_local_instance(rng, d=d, n=n)
                instances += 1
                for term in local_terms(poly, z):
                    if term.codim < 1 or term.value(z) <= 1e-6:
                        continue
                    grad = term.gradient(z)
                    fd = finite_difference_gradient(term, z, h=1e-6)
                    err = relerr(grad, fd)
                    worst = max(worst, err)
                    checked += 1
    elapsed = time.time() - t0
    report(1, "gradient-correctness",
           instances >= 100 and checked >= 400 and worst <= 1e-5 and elapsed <= 120.0,
           f"{instances} instances, {checked} gradients, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


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


def test_criterion_2_worked_cone_example():
    """The rotated-square configuration reproduces the published cone
    matrix (up to row scaling and the layout permutation), its rays and
    lineality lie in the cone, and the interior test reports nonempty."""
    t0 = time.time()
    s = 1.05 * np.sqrt(2.0) / 2.0
    poly = Polytope.from_vertices(
        [[0.5 - s, 0.5], [0.5, 0.5 - s], [0.5 + s, 0.5], [0.5, 0.5 + s]]
    )
    z = Zonotope(np.eye(2), np.zeros(2))
    _, pairs = hausdorff_distance(poly, z)
    cone = build_cone(pairs)

    def permuted(vec):
        out = np.zeros(6)
        for k, j in enumerate(PUBLISHED_VAR_ORDER):
            out[j] = vec[k]
        return out

    def normalize_rows(M):
        return np.array([r / np.abs(r).max() for r in M])

    matrix_err = np.abs(
        normalize_rows(cone.matrix)
        - normalize_rows(np.array([permuted(r) for r in PUBLISHED_A]))
    ).max()
    ray_min = min((cone.matrix @ permuted(v)).min() for v in PUBLISHED_RAYS)
    lin_max = max(np.abs(cone.matrix @ permuted(v)).max() for v in PUBLISHED_LINEALITY)
    interior = cone_interior_point(cone.matrix)
    elapsed = time.time() - t0
    report(2, "worked-cone-example",
           len(pairs) == 4 and matrix_err <= 1e-6 and ray_min >= -1e-9
           and lin_max <= 1e-9 and interior.interior and interior.margin > 1e-8
           and elapsed <= 1.0,
           f"matrix err {matrix_err:.2e}, ray min {ray_min:.2e}, lineality "
           f"max {lin_max:.2e}, t*={interior.margin:.3f}, {elapsed:.2f}s")


def test_criterion_3_descent_guarantee():
    """Conservative rule: every iteration with a Descent direction
    strictly decreases the exact distance (slack 1e-12), over 50 seeded
    random 2-D instances; zero violations."""
    t0 = time.time()
    violations = 0
    descent_steps = 0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        n = 3 + (seed % 2)
        poly = random_polytope(rng, 2)
        z0 = random_zonotope(rng, n, 2)
        cfg = DescentConfig(rank=n, max_steps=25, threshold=1e-12,
                            step_rule="conservative", rng_seed=seed)
        _, trace = optimize(poly, z0, cfg)
        for a, b in zip(trace.records, trace.records[1:]):
            if a.cone_status == "descent" and b.perturb_tries == 0:
                descent_steps += 1
                if not (b.d_exact < a.d_exact + 1e-12):
                    violations += 1
    elapsed = time.time() - t0
    report(3, "descent-guarantee",
           violations == 0 and descent_steps >= 200 and elapsed <= 300.0,
           f"{descent_steps} descent steps, {violations} violations, {elapsed:.1f}s")


def test_criterion_4_vertex_enumeration_oracle():
    """Enumerated vertices equal the hull of all cubical vertices and the
    count formula 2 * sum_k C(n-1, k), for four (n, d) shapes x 10."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    all_ok = True
    detail = []
    for n, d in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        for _ in range(10):
            z = random_zonotope(rng, n, d)
            verts = enumerate_vertices(z)
            expected = 2 * sum(math.comb(n - 1, k) for k in range(d))
            cubical = np.array([
                z.map_point(e) for e in itertools.product((0, 1), repeat=n)
            ])
            oracle = {tuple(np.round(cubical[i], 8))
                      for i in hull_vertices_oracle(cubical)}
            mine = {tuple(np.round(pt, 8)) for _, pt in verts}
            if len(verts) != expected or mine != oracle:
                all_ok = False
        detail.append(f"({n},{d})")
    elapsed = time.time() - t0
    report(4, "vertex-enumeration-oracle",
           all_ok and elapsed <= 60.0,
           f"shapes {' '.join(detail)} x10 each, {elapsed:.1f}s")


def test_criterion_5_hausdorff_oracle():
    """Exact distance agrees with a dense boundary-sampling brute force
    (1e5 samples per body) within 1e-3 on 20 random 2-D instances."""
    t0 = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        poly = random_polytope(rng, 2)
        z = random_zonotope(rng, 4, 2)
        value, _ = hausdorff_distance(poly, z)
        p_cycle = polygon_cycle(poly.vertices)
        z_cycle = polygon_cycle([pt for _, pt in enumerate_vertices(z)])
        sp = boundary_samples_2d(p_cycle, 100_000)
        sz = boundary_samples_2d(z_cycle, 100_000)
        oracle = max(point_to_convex_polygon_distance(sp, z_cycle).max(),
                     point_to_convex_polygon_distance(sz, p_cycle).max())
        worst = max(worst, abs(value - oracle))
    elapsed = time.time() - t0
    report(5, "hausdorff-oracle",
           worst <= 1e-3 and elapsed <= 120.0,
           f"worst |exact - sampled| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_warmstart_exactness():
    """For 10 random centrally symmetric 2n-gons, warmstart + rank-n
    descent reaches 1e-9 within 2 iterations."""
    t0 = time.time()
    ok = 0
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        n = 3 + (seed % 3)
        target = random_zonotope(rng, n, 2)
        poly = zonotope_as_polytope(target)
        z0 = warmstart_zonotope(poly, n)
        cfg = DescentConfig(rank=n, max_steps=10, threshold=1e-9)
        _, trace = optimize(poly, z0, cfg)
        iterations = len(trace.records) - 1
        if trace.termination == "threshold" and trace.final_exact <= 1e-9 and iterations <= 2:
            ok += 1
    elapsed = time.time() - t0
    report(6, "warmstart-exactness",
           ok == 10 and elapsed <= 30.0,
           f"{ok}/10 exact within 2 iterations, {elapsed:.1f}s")


def test_criterion_7_recovery_experiment():
    """Recovering a random rank-n planar zonotope: the warmstarted run
    reaches 1e-3 * diam within 500 iterations in >= 80% of runs and beats
    the median of 3 random initializations in >= 80% of instances."""
    t0 = time.time()
    reached = 0
    beat_median = 0
    instances = 0
    for n in (3, 4):
        for seed in range(10):
            rng = np.random.default_rng(7000 + 10 * n + seed)
            target = random_zonotope(rng, n, 2)
            poly = zonotope_as_polytope(target)
            diam = max(
                float(np.linalg.norm(a - b))
                for a in poly.vertices for b in poly.vertices
            )
            tol = 1e-3 * diam
            instances += 1

            zw = warmstart_zonotope(poly, n, np.random.default_rng(seed))
            cfg = DescentConfig(rank=n, max_steps=500, threshold=tol, rng_seed=seed)
            _, trace_w = optimize(poly, zw, cfg)
            if trace_w.final_exact <= tol:
                reached += 1

            finals = []
            cfg_r = DescentConfig(rank=n, max_steps=120, threshold=tol, rng_seed=seed)
            for j in range(3):
                zr = random_zonotope(np.random.default_rng(9000 + 100 * n + 10 * seed + j),
                                     n, 2)
                _, trace_r = optimize(poly, zr, cfg_r)
                finals.append(trace_r.final_exact)
            if trace_w.final_exact <= np.median(finals):
                beat_median += 1
    elapsed = time.time() - t0
    report(7, "recovery-experiment",
           reached >= 0.8 * instances and beat_median >= 0.8 * instances
           and elapsed <= 600.0,
           f"reached tol {reached}/{instances}, beat median {beat_median}/{instances}, "
           f"{elapsed:.1f}s")


def test_criterion_8_certificate_soundness():
    """Constructed coarse-objective minima report an empty cone interior,
    and 200 random 1e-4 perturbations never decrease the coarse distance
    by more than 1e-10."""
    t0 = time.time()
    certified = 0
    sound = 0
    for seed in range(10):
        rng = np.random.default_rng(800 + seed)
        n = 3 + (seed % 2)
        z = random_zonotope(rng, n, 2)
        poly = zonotope_as_polytope(z)
        value, pairs = coarse_hausdorff_distance(poly, z)
        cone = build_cone(pairs)
        res = descent_direction(cone, objective="coarse")
        if res.status == "cone_empty_interior" and res.certificate == "certified_local_min_coarse":
            certified += 1
        params = zonotope_to_params(z)
        drops = 0
        for _ in range(200):
            delta = rng.uniform(-1e-4, 1e-4, size=params.size)
            z2 = params_to_zonotope(params + delta, z.rank, z.dim)
            v2, _ = coarse_hausdorff_distance(poly, z2)
            if v2 < value - 1e-10:
                drops += 1
        if drops == 0:
            sound += 1
    elapsed = time.time() - t0
    report(8, "certificate-soundness",
           certified == 10 and sound == 10 and elapsed <= 120.0,
           f"{certified}/10 certified, {sound}/10 perturbation-sound, {elapsed:.1f}s")


def test_criterion_9_pushforward_properness_threshold():
    """The worked one-parameter family flips from proper to improper
    between eps = 0.4 and eps = 0.6."""
    t0 = time.time()
    G = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    src = Zonotope(G, np.zeros(2))
    results = {}
    for eps in (0.2, 0.4, 0.6, 0.8, 1.0):
        tgt = Zonotope(G + np.array([[0.0, 0.0], [-eps, 0.0], [0.0, 0.0]]), np.zeros(2))
        results[eps] = is_pushforward_proper(src, tgt)
    elapsed = time.time() - t0
    expected = {0.2: True, 0.4: True, 0.6: False, 0.8: False, 1.0: False}
    report(9, "pushforward-properness-threshold",
           results == expected and elapsed <= 1.0,
           f"{results}, {elapsed:.2f}s")
