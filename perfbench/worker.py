"""One workload in one process: set up, time ops, check outputs, report.

Started by ``run.py`` with ``src`` on PYTHONPATH. Prints ``READY`` when set-up
is over and the first timed op is about to start, then (unless
``--setup-only``) human-readable lines and, last, one JSON line with the
measured values. Ops run one after another in this single thread, a closed
loop with one caller.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hostspeed
import stats

# Hard stop for the timed loop, so a run ends well within its time limit.
MAX_LOOP_SECONDS = 140.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" or "query"
    dim: int
    rank: int
    points: int  # points sampled per polytope
    vertices: int  # polytopes are redrawn until exactly this many points are extreme
    steps: int  # descent step budget per fit (fits only)
    ops: int  # distinct ops per run; each runs once per round
    trace_ops: int  # ops run both untraced and traced in a --trace 1 run
    check_every: int  # every k-th op is also checked against scipy


# Each workload has one (dim, rank, vertex count) class: op cost clusters by
# class, and a mix of classes put the median between clusters, where it
# jumped from run to run. Op cost also varies within a class, so a run holds
# as many distinct ops as fit in about 25 s (fits take about 0.5 s and 1 s,
# queries 50 ms); every run has at least 100 step samples, so that the p90
# has ten beyond it.
WORKLOADS = {
    w.name: w for w in (
        Workload("plane-fit", "fit", 2, 6, 8, 6, steps=20, ops=48,
                 trace_ops=24, check_every=4),
        Workload("space-fit", "fit", 3, 5, 10, 10, steps=12, ops=26,
                 trace_ops=12, check_every=4),
        Workload("query", "query", 3, 6, 10, 10, steps=0, ops=120,
                 trace_ops=240, check_every=10),
    )
}

# Seconds between two host-speed kernel timings. An op's times are scaled by
# the median of the KERNEL_WINDOW timings around it: on repeated plane fits
# that left a 25 s mean with CV 0.013 across windows, against 0.072 when one
# factor served a whole round and 0.099 unscaled.
KERNEL_EVERY_S = 0.2
KERNEL_WINDOW = 5
# Descent steps of the untimed warm-up fit.
WARMUP_STEPS = 2
# Locality perturbation amplitude for fits, relative to the largest generator
# norm. At the library default (1e-6) 3 of 545 plane fits in ten runs raised
# PerturbationBudgetExceeded: their start was not local, and 50 tries of that
# size did not make it so (plane-fit seed 15 op 8 needs 183 tries at 1e-6;
# seed 204 op 41 needs 139 at 1e-5). At 1e-4 each takes one try.
PERTURB_SCALE = 1e-4


# --- inputs ------------------------------------------------------------------
# The benchmark's own generator: zonofit sees only arrays, through
# Polytope.from_points and Zonotope. Op i of seed s draws from its own stream,
# so ops do not depend on how many ran before them.

def _stream(seed: int, purpose: int, i: int):
    return np.random.default_rng([seed, purpose, i])


def _general_position(G: np.ndarray, tol: float = 1e-6) -> bool:
    n, d = G.shape
    norms = np.linalg.norm(G, axis=1)
    return all(abs(np.linalg.det(G[list(rows)])) > tol * float(np.prod(norms[list(rows)]))
               for rows in itertools.combinations(range(n), d))


@dataclass
class Instance:
    poly: object
    diameter: float
    generators: np.ndarray | None  # query workload: the zonotope to measure
    translation: np.ndarray | None


def make_instance(zf, w: Workload, seed: int, i: int) -> Instance:
    """Polytope from points on a noisy sphere; for queries also a random
    general-position zonotope scaled like ``zonofit optimize --warmstart random``."""
    rng = _stream(seed, 1, i)
    for _ in range(1000):
        pts = rng.normal(size=(w.points, w.dim))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= rng.uniform(0.6, 1.0, size=(w.points, 1))
        try:
            poly = zf.Polytope.from_points(pts)
        except zf.errors.ZonofitError:
            continue
        if poly.vertices.shape[0] == w.vertices:
            break
    else:
        raise RuntimeError(f"op {i}: no {w.vertices}-vertex polytope in 1000 draws")
    V = poly.vertices
    diameter = float(np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2).max())
    if w.kind == "fit":
        return Instance(poly, diameter, None, None)
    scale = 0.75 * float(np.ptp(V, axis=0).max()) / w.rank
    for _ in range(100):
        G = rng.uniform(-1.0, 1.0, size=(w.rank, w.dim)) * scale
        mu = rng.uniform(-0.5, 0.5, size=w.dim) * scale
        if _general_position(G):
            return Instance(poly, diameter, G, mu)
    raise RuntimeError(f"op {i}: no general-position zonotope in 100 draws")


# --- ops ---------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    value: float  # final d_exact (fit) or the distance (query)
    step_ms: list  # per-iteration ms from the trace (fit) or [op ms] (query)
    fingerprint: str
    zonotope: object = None
    pairs: list | None = None
    trace: object = None


def run_op(zf, w: Workload, seed: int, i: int, inst: Instance, tracer=None) -> Outcome:
    """Time one op; the tracer (if any) records spans only inside the timed region."""
    if w.kind == "fit":
        cfg = zf.DescentConfig(rank=w.rank, max_steps=w.steps, threshold=1e-9,
                               step_rule="conservative", objective="exact",
                               perturb_scale=PERTURB_SCALE,
                               rng_seed=int(_stream(seed, 3, i).integers(2**31)))
        ws_rng = _stream(seed, 2, i)

        def call():
            return zf.optimize(inst.poly, zf.warmstart_zonotope(inst.poly, w.rank, ws_rng), cfg)
    else:
        z = zf.Zonotope(inst.generators, inst.translation)

        def call():
            return zf.hausdorff_distance(inst.poly, z)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
    if w.kind == "fit":
        z, trace = result
        digest = hashlib.sha256(repr(trace.math_columns()).encode()).hexdigest()
        return Outcome(t1 - t0, trace.final_exact, [r.ms for r in trace.records[:-1]],
                       digest, zonotope=z, trace=trace)
    value, pairs = result
    return Outcome(t1 - t0, value, [(t1 - t0) * 1e3], f"{value:.17g}/{len(pairs)}",
                   zonotope=z, pairs=pairs)


# --- output checks (never inside the timed region) -----------------------------

def reference_distance(V: np.ndarray, G: np.ndarray, mu: np.ndarray) -> float:
    """Hausdorff distance from scipy alone: bounded least squares over the
    cube for polytope vertices, Qhull plus NNLS for zonotope vertices."""
    from scipy.optimize import lsq_linear, nnls
    from scipy.spatial import ConvexHull

    d_p = max(
        float(np.linalg.norm(G.T @ lsq_linear(G.T, v - mu, bounds=(0.0, 1.0)).x + mu - v))
        for v in V
    )
    cube = mu + np.array(list(itertools.product((0.0, 1.0), repeat=G.shape[0]))) @ G
    weight = 1e4 * (1.0 + float(np.abs(V).max()))
    A = np.vstack([V.T, np.full(V.shape[0], weight)])
    d_z = 0.0
    for q in cube[ConvexHull(cube).vertices]:
        lam, _ = nnls(A, np.append(q, weight))
        d_z = max(d_z, float(np.linalg.norm(V.T @ lam / lam.sum() - q)))
    return max(d_p, d_z)


def pair_problems(inst: Instance, value: float, pairs) -> list:
    """The value is the largest pair distance, each pair's |p - q| is its
    stated distance, and each p lies in P (facets from Qhull)."""
    from scipy.spatial import ConvexHull

    problems = []
    scale = 1.0 + inst.diameter
    if value != max(p.distance for p in pairs):
        problems.append("value is not the largest pair distance")
    eq = ConvexHull(inst.poly.vertices).equations
    for p in pairs:
        if abs(float(np.linalg.norm(p.p - p.q)) - p.distance) > 1e-9 * scale:
            problems.append("pair |p - q| differs from its distance")
        if (eq[:, :-1] @ p.p + eq[:, -1]).max() > 1e-7 * scale:
            problems.append("pair point p lies outside the polytope")
    return problems


def check_op(zf, w: Workload, i: int, inst: Instance, out: Outcome) -> list:
    if w.kind == "fit":
        problems = []
        recs = out.trace.records
        for a, b in zip(recs, recs[1:]):
            if a.cone_status == "descent" and b.perturb_tries == 0 and not b.d_exact < a.d_exact:
                problems.append(f"iteration {b.iteration}: d_exact did not decrease")
        again, pairs = zf.hausdorff_distance(inst.poly, out.zonotope)
        if abs(again - out.value) > 1e-12 * (1.0 + inst.diameter):
            problems.append(f"final d_exact {out.value!r} != recomputed {again!r}")
        problems += pair_problems(inst, again, pairs)
    else:
        problems = pair_problems(inst, out.value, out.pairs)
    if i % w.check_every == 0:
        z = out.zonotope
        ref = reference_distance(inst.poly.vertices, z.generators, z.translation)
        if abs(ref - out.value) > 1e-6 * ref:
            problems.append(f"distance {out.value!r} != scipy reference {ref!r}")
    return problems


# --- tracing -----------------------------------------------------------------

TRACED = (
    ("geom", "enumerate_vertices"), ("geom", "is_zonotope_vertex"),
    ("solvers", "solve_lp"), ("solvers", "box_least_squares"),
    ("solvers", "project_to_hull"), ("solvers", "chebyshev_center"),
    ("solvers", "cone_interior_point"),
    ("hausdorff", "hausdorff_distance"), ("hausdorff", "coarse_hausdorff_distance"),
    ("hausdorff", "check_locality"),
    ("subgrad", "gradients_for_pairs"), ("cone", "descent_direction"),
    ("descent", "optimize"), ("warmstart", "warmstart_zonotope"),
)


def install_tracer(zf, tracer):
    """Wrap every function in TRACED; add the counters the ratios need."""
    import importlib

    def observed(key, fn):
        def enumerate_vertices(z, *args, **kwargs):
            cold = getattr(z, "_vertices", None) is None
            out = fn(z, *args, **kwargs)
            if cold and tracer.active:
                tracer.count("enum.vertices", len(out))
                if z.dim == 2:  # vectorized test of every sign pattern
                    tracer.count("enum.patterns", 2 ** z.rank)
            return out

        def is_zonotope_vertex(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                tracer.count("enum.patterns")
            return out

        def check_locality(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                tracer.count("locality.ok", out.ok)
            return out

        def descent_direction(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                tracer.count("direction.descent", out.status == "descent")
            return out

        hooks = {"enumerate_vertices": enumerate_vertices,
                 "is_zonotope_vertex": is_zonotope_vertex,
                 "check_locality": check_locality,
                 "descent_direction": descent_direction}
        return tracer.span(key, hooks.get(key.split(".")[1], fn))

    for module, name in TRACED:
        mod = importlib.import_module(f"zonofit.{module}")
        tracer.install(mod, name, lambda fn, key=f"{module}.{name}": observed(key, fn))
    # Each backtracking probe builds its candidate with params_to_zonotope.
    tracer.install(zf.descent, "params_to_zonotope",
                   lambda fn: tracer.counting("descent.probes", fn))


def layer_metrics(tracer, outcomes, ops: int, overhead: float) -> dict:
    per = tracer.self_ms()
    count = tracer.counters.get
    m = {}
    for module, name in TRACED:
        calls, ms = per.get(f"{module}.{name}", (0, 0.0))
        m[f"{module}.{name}.calls"] = metric(calls / ops, "calls/op")
        m[f"{module}.{name}.self_ms"] = metric(ms / ops, "ms/op")
    records = [r for o in outcomes if o.trace is not None for r in o.trace.records]
    iters = sum(len(o.trace.records) - 1 for o in outcomes if o.trace is not None)
    accepted = sum(r.cone_status == "descent" for r in records)
    calls = {key: per.get(key, (0, 0.0))[0] for key in (
        "hausdorff.hausdorff_distance", "hausdorff.check_locality", "cone.descent_direction")}
    m["geom.enumerate_vertices.vertex_ratio"] = metric(
        stats.ratio(count("enum.vertices", 0), count("enum.patterns", 0)), "ratio")
    m["hausdorff.check_locality.ok_ratio"] = metric(
        stats.ratio(count("locality.ok", 0), calls["hausdorff.check_locality"]), "ratio")
    m["cone.descent_direction.descent_ratio"] = metric(
        stats.ratio(count("direction.descent", 0), calls["cone.descent_direction"]), "ratio")
    m["descent.probes_per_iter"] = metric(
        stats.ratio(calls["hausdorff.hausdorff_distance"] if iters else 0, iters), "ratio")
    m["descent.accept_ratio"] = metric(
        stats.ratio(accepted, count("descent.probes", 0)), "ratio")
    m["descent.perturb_tries"] = metric(
        sum(r.perturb_tries for r in records) / ops, "count/op")
    m["descent.solver_retries"] = metric(
        sum(o.trace.solver_retries for o in outcomes if o.trace is not None) / ops, "count/op")
    m["trace.overhead"] = metric(overhead, "ratio")
    return m


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# --- main --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    import zonofit as zf
    import zonofit.errors  # noqa: F401  (zf.errors)

    # Untimed warm-up op on an instance no timed op uses; a fit stops after
    # WARMUP_STEPS, which already runs every code path of a step.
    warm = make_instance(zf, w, args.seed, 10**9)
    run_op(zf, replace(w, steps=min(w.steps, WARMUP_STEPS)), args.seed, 10**9, warm)
    hostspeed.time_kernel()
    first_inst = make_instance(zf, w, args.seed, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    print(f"versions python={sys.version.split()[0]} numpy={np.__version__} "
          f"zonofit={zf.__version__}")

    if args.trace:
        return traced_run(zf, w, args)

    # One round runs every op on freshly built objects, with the host-speed
    # kernel (hostspeed.py) timed between them; more rounds follow while they
    # end within --seconds. op_s is the median over rounds of the mean scaled
    # op time; the percentiles pool every round's scaled samples.
    rounds = 0
    first: list = [None] * w.ops  # round-1 outcome of each op
    diameters = [0.0] * w.ops
    runs = [[] for _ in range(w.ops)]  # per op and round: (seconds, step ms, kernel index)
    kernel_s: list = []  # every kernel timing, in order
    failed, bad_outputs = set(), set()
    start = last_round = time.perf_counter()
    round_s = 0.0
    while rounds == 0 or time.perf_counter() - start + round_s <= args.seconds:
        last_kernel = -KERNEL_EVERY_S
        for i in range(w.ops):
            if time.perf_counter() - start > MAX_LOOP_SECONDS:
                print(f"error: stopped after {MAX_LOOP_SECONDS:.0f} s at op {i} of round "
                      f"{rounds + 1}", file=sys.stderr)
                return 1
            if i in failed:  # ops are deterministic: it would fail again
                continue
            inst = first_inst if rounds == 0 and i == 0 else make_instance(zf, w, args.seed, i)
            if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
                kernel_s.append(hostspeed.time_kernel())
                last_kernel = time.perf_counter()
            try:
                out = run_op(zf, w, args.seed, i, inst)
            except zf.errors.ZonofitError as exc:
                failed.add(i)
                print(f"op {i} (round {rounds + 1}) raised {type(exc).__name__}: {exc}")
                continue
            if rounds == 0:
                problems = check_op(zf, w, i, inst, out)
                first[i], diameters[i] = out, inst.diameter
            elif out.fingerprint != first[i].fingerprint:
                problems = [f"result differs from round 1 in round {rounds + 1}"]
            else:
                problems = []
            runs[i].append((out.seconds, np.asarray(out.step_ms), len(kernel_s) - 1))
            if problems:
                failed.add(i)
                bad_outputs.add(i)
                print(f"op {i} failed checks: {'; '.join(problems[:3])}")
        rounds += 1
        now = time.perf_counter()
        round_s, last_round = now - last_round, now
    elapsed = time.perf_counter() - start

    ok = [i for i in range(w.ops) if i not in failed]
    if not ok:
        print("error: every op failed", file=sys.stderr)
        return 1
    half = KERNEL_WINDOW // 2
    factors = [hostspeed.speed_factor(kernel_s[max(0, k - half):k + half + 1])
               for k in range(len(kernel_s))]
    scaled = [[(t * factors[k], steps * factors[k]) for t, steps, k in runs[i]] for i in ok]
    op_s = statistics.median(np.mean([op[r][0] for op in scaled]) for r in range(rounds))
    raw_op_s = statistics.median(np.mean([runs[i][r][0] for i in ok]) for r in range(rounds))
    step_ms = np.concatenate([steps for op in scaled for _, steps in op])
    p50, p90 = stats.percentile(step_ms, 0.5), stats.percentile(step_ms, 0.9)
    d_rel = stats.geometric_mean(first[i].value / diameters[i] for i in ok)
    fingerprint = hashlib.sha256("\n".join(
        "failed" if first[i] is None else first[i].fingerprint for i in range(w.ops)
    ).encode()).hexdigest()
    step_name = "iter_ms" if w.kind == "fit" else "query_ms"
    noun = "fits" if w.kind == "fit" else "queries"
    print(f"workload {w.name}: dim={w.dim} rank={w.rank} points={w.points} vertices={w.vertices} "
          f"kind={w.kind} steps={w.steps} loop=closed clients=1")
    print(f"ops attempted={w.ops} failed={len(failed)} "
          f"output_check_failures={len(bad_outputs)} "
          f"fail_ratio={stats.ratio(len(failed), w.ops):.6g} ({len(failed)}/{w.ops}) "
          f"rounds={rounds} timed_s={elapsed:.3f}")
    print(f"host speed factor (kernel nominal / median of {KERNEL_WINDOW} near timings): "
          f"median {statistics.median(factors):.4f}, range {min(factors):.4f}-"
          f"{max(factors):.4f} ({len(kernel_s)} kernel timings)")
    print(f"{'fit_s' if w.kind == 'fit' else 'query mean'} = {op_s:.6g} s at reference speed, "
          f"{raw_op_s:.6g} s wall (median over {rounds} rounds of the mean over {len(ok)} {noun})")
    print(f"{'d_final_rel' if w.kind == 'fit' else 'd_rel'} = {d_rel:.10g} "
          f"(geometric mean over {len(ok)} {noun})")
    print(f"{step_name}_p50 = {p50:.6g} ms, {step_name}_p90 = {p90:.6g} ms at reference speed "
          f"({len(step_ms)} samples over {rounds} rounds)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb = {rss_mb:.6g} MB")
    print(f"fingerprint = {fingerprint} ({w.ops} ops)")
    result = {
        "attempted": w.ops,
        "failed": len(failed),
        "correct": not bad_outputs,
        "metrics": {
            "op_s": metric(op_s, "s"),
            "step_ms_p50": metric(p50, "ms"),
            "step_ms_p90": metric(p90, "ms"),
            "d_rel": metric(d_rel, "ratio"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }
    print(json.dumps(result))
    return 0


def traced_run(zf, w: Workload, args) -> int:
    """Run each of the first ``trace_ops`` ops twice on fresh objects, once
    with tracing off and once on, alternating which goes first so that host
    drift cancels in the overhead; per-layer values are per traced op."""
    from spans import Tracer

    tracer = Tracer()
    install_tracer(zf, tracer)

    def attempt(i, traced: bool):
        inst = make_instance(zf, w, args.seed, i)
        try:
            return inst, run_op(zf, w, args.seed, i, inst, tracer if traced else None)
        except zf.errors.ZonofitError as exc:
            print(f"op {i} ({'traced' if traced else 'untraced'}) raised "
                  f"{type(exc).__name__}: {exc}")
            return inst, None

    pairs = []
    for i in range(w.trace_ops):
        first = attempt(i, traced=i % 2 == 1)
        second = attempt(i, traced=i % 2 == 0)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
    traced = [out for _, (_, out) in pairs if out is not None]
    failed = sum(out is None for (_, a), (_, b) in pairs for out in (a, b))
    bad = 0
    for i, ((_, plain), (inst, out)) in enumerate(pairs):
        if out is not None and check_op(zf, w, i, inst, out):
            bad += 1
        if (plain and plain.fingerprint) != (out and out.fingerprint):
            print(f"op {i}: tracing changed the result")
            bad += 1
    failed += bad
    both = [(a, b) for (_, a), (_, b) in pairs if a and b]
    overhead = sum(b.seconds for _, b in both) / sum(a.seconds for a, _ in both)
    metrics = layer_metrics(tracer, traced, w.trace_ops, overhead)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{w.name}-seed{args.seed}.npz")
    print(f"traced {w.trace_ops} ops ({failed} of {2 * w.trace_ops} attempts failed): "
          f"{len(tracer.names)} spans, tracing overhead {overhead:.4f}x "
          f"(op time traced / untraced)")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"attempted": 2 * w.trace_ops, "failed": failed,
                      "correct": bad == 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
