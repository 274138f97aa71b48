"""Command-line front end.

Subcommands:

* ``distance``  - exact (or coarse) Hausdorff distance with achieving pairs
* ``optimize``  - run the descent loop, emit zonotope JSON, trace CSV,
                  manifest, and an optional 2-D SVG plot
* ``cone``      - print the feasibility-cone matrix, interior status and
                  certificate for a given pair of bodies
* ``warmstart`` - emit the initial-guess zonotope for a polytope
* ``bench``     - warmstart-vs-random experiment over a grid of dims/ranks

Exit codes: 0 success, 1 usage error, 2 input error (unreadable, malformed
or mismatched input), 3 solver failure, 4 perturbation budget exceeded,
5 locality violation (cone).
The environment variable ZONOFIT_SEED overrides any --seed argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cone import OBJECTIVES, build_cone, descent_direction
from .descent import DescentConfig, optimize
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    IterationLimit,
    LPNumericalFailure,
    PerturbationBudgetExceeded,
    RankCapExceeded,
    SolverRetryFailed,
    ZonofitError,
)
from .geom import (
    Polytope,
    Zonotope,
    is_general_position,
    polytope_from_json,
    zonotope_from_json,
    zonotope_to_json,
)
from .hausdorff import (ACTIVE_PAIR_TOL, check_locality, coarse_hausdorff_distance,
                        hausdorff_distance)
from .warmstart import warmstart_zonotope

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_PERTURB = 4
EXIT_LOCALITY = 5


class _UsageError(Exception):
    pass


def _write(path, text):
    """Write text to the file at path; failing that, a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseError(f"{path}: {exc}") from exc


class _ParseError(Exception):
    pass


def _load_polytope(path) -> Polytope:
    data = _load_json(path)
    try:
        return polytope_from_json(data)
    except (KeyError, TypeError, ValueError, DegenerateInput) as exc:
        raise _ParseError(f"{path}: {exc}") from exc


def _load_zonotope(path) -> Zonotope:
    data = _load_json(path)
    try:
        return zonotope_from_json(data)
    except (KeyError, TypeError, ValueError, ZonofitError) as exc:
        raise _ParseError(f"{path}: {exc}") from exc


def _seed_from(args) -> int:
    """ZONOFIT_SEED if set, else --seed; a usage error unless it is an integer >= 0."""
    env = os.environ.get("ZONOFIT_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError as exc:
        raise _UsageError(f"ZONOFIT_SEED is not an integer: {env!r}") from exc
    if seed < 0:
        raise _UsageError(f"{'--seed' if env is None else 'ZONOFIT_SEED'} must be >= 0, got {seed}")
    return seed


def _pair_payload(pair):
    return {
        "p": list(pair.p),
        "q": list(pair.q),
        "side": pair.side,
        "vertex_index": pair.vertex_index,
        "lift": list(pair.lift.values),
        "distance": pair.distance,
    }


def _random_zonotope(rng, n, d, scale):
    for _ in range(100):
        G = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
        mu = rng.uniform(-0.5, 0.5, size=d) * scale
        z = Zonotope(G, mu)
        if is_general_position(z):
            return z
    raise DegenerateInput("failed to sample a general-position zonotope")


def _random_polytope(rng, d, npoints=None, scale=1.0):
    npoints = npoints or (2 * d + 4)
    for _ in range(100):
        pts = rng.normal(size=(npoints, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= scale * rng.uniform(0.6, 1.0, size=(npoints, 1))
        try:
            poly = Polytope.from_points(pts)
        except ZonofitError:
            continue
        if poly.vertices.shape[0] >= d + 1:
            return poly
    raise DegenerateInput("failed to sample a polytope")


def _polygon_cycle(points):
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
    return pts[np.argsort(ang)]


def render_svg(poly: Polytope, z: Zonotope, pairs, path):
    """Plot the polytope and zonotope outlines with one marker group per
    achieving pair (2-D only)."""
    from .geom import _vertex_arrays

    zpts = _vertex_arrays(z)[1]
    every = np.vstack([poly.vertices, zpts] + [np.vstack([p.p, p.q]) for p in pairs])
    lo = every.min(axis=0)
    hi = every.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.08 * span.max()
    lo, hi = lo - pad, hi + pad
    width = 640.0
    scale = width / (hi[0] - lo[0])
    height = (hi[1] - lo[1]) * scale

    def sx(v):
        return (v[0] - lo[0]) * scale

    def sy(v):
        return height - (v[1] - lo[1]) * scale

    def poly_points(cycle):
        return " ".join(f"{sx(v):.3f},{sy(v):.3f}" for v in cycle)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<polygon class="polytope" points="{poly_points(_polygon_cycle(poly.vertices))}" '
        'fill="none" stroke="#1f4f9f" stroke-width="2"/>',
        f'<polygon class="zonotope" points="{poly_points(_polygon_cycle(zpts))}" '
        'fill="none" stroke="#b03030" stroke-width="2"/>',
    ]
    for pair in pairs:
        lines.append(
            '<g class="pair">'
            f'<line x1="{sx(pair.p):.3f}" y1="{sy(pair.p):.3f}" '
            f'x2="{sx(pair.q):.3f}" y2="{sy(pair.q):.3f}" '
            'stroke="#202020" stroke-width="1" stroke-dasharray="4 3"/>'
            f'<circle cx="{sx(pair.p):.3f}" cy="{sy(pair.p):.3f}" r="3.5" fill="#202020"/>'
            f'<circle cx="{sx(pair.q):.3f}" cy="{sy(pair.q):.3f}" r="3.5" fill="#202020"/>'
            "</g>"
        )
    lines.append("</svg>")
    _write(path, "\n".join(lines) + "\n")


def cmd_distance(args) -> int:
    poly = _load_polytope(args.polytope)
    z = _load_zonotope(args.zonotope)
    distance = coarse_hausdorff_distance if args.coarse else hausdorff_distance
    value, pairs = distance(poly, z, args.tol_active)
    print(json.dumps({
        "value": value,
        "coarse": bool(args.coarse),
        "pairs": [_pair_payload(p) for p in pairs],
    }, indent=2))
    return EXIT_OK


def _config_from_args(args, rank) -> DescentConfig:
    """The run's config, from ``--config`` or the flags; one that
    ``DescentConfig`` rejects is a usage error."""
    if args.config:
        data = _load_json(args.config)
        if isinstance(data, dict) and "config" in data and isinstance(data["config"], dict):
            data = data["config"]
    else:
        data = {"rank": rank, "max_steps": args.steps, "threshold": args.tol,
                "step_rule": args.rule, "rng_seed": _seed_from(args),
                "objective": args.objective}
    try:
        return DescentConfig.from_json(data)
    except (AttributeError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad config: {exc}") from exc


def cmd_optimize(args) -> int:
    poly = _load_polytope(args.polytope)
    cfg = _config_from_args(args, args.rank)
    rng = np.random.default_rng(cfg.rng_seed)
    spread = float(np.ptp(poly.vertices, axis=0).max())
    if args.warmstart == "auto":
        z0 = warmstart_zonotope(poly, cfg.rank, rng)
    elif args.warmstart == "random":
        z0 = _random_zonotope(rng, cfg.rank, poly.dim, 0.75 * spread / cfg.rank)
    else:
        z0 = _load_zonotope(args.warmstart)

    t0 = time.perf_counter()
    z, trace = optimize(poly, z0, cfg)
    wall = time.perf_counter() - t0

    manifest = {
        "inputs": {"polytope": args.polytope, "warmstart": args.warmstart},
        "config": cfg.to_json(),
        "seed": cfg.rng_seed,
        "versions": {
            "zonofit": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "termination": trace.termination,
        "certificate": trace.certificate,
        "final_d_exact": trace.final_exact,
        "final_d_coarse": trace.final_coarse,
        "iterations": len(trace.records) - 1,
        "stats": {"perturb_tries": sum(r.perturb_tries for r in trace.records),
                  "probes": sum(r.probes for r in trace.records),
                  "solver_retries": trace.solver_retries},
        "wall_time_s": wall,
    }
    payload = {"zonotope": zonotope_to_json(z), "manifest": manifest}
    if args.out:
        _write(args.out, json.dumps(zonotope_to_json(z), indent=2))
    if args.trace:
        _write(args.trace, trace.to_csv())
        _write(args.trace + ".manifest.json", json.dumps(manifest, indent=2))
    if args.plot:
        if poly.dim == 2:
            _, pairs = hausdorff_distance(poly, z)
            render_svg(poly, z, pairs, args.plot)
        else:
            print("plotting skipped: only 2-D runs are rendered", file=sys.stderr)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


_VERDICTS = {  # by certificate, else by direction status
    "descent": "not a local minimum",
    "certified_local_min_coarse": "local minimum of the coarse distance",
    "certified_local_min": "local minimum",
    "heuristic": "no improving perturbation at first order (heuristic)",
    "feasible_empty": "no direction strictly improves every pair (treated as a local minimum)",
}


def cmd_cone(args) -> int:
    poly = _load_polytope(args.polytope)
    z = _load_zonotope(args.zonotope)
    report = check_locality(poly, z)
    if not report.ok:
        print(json.dumps({
            "locality": False,
            "general_position": report.general_position,
            "degenerate_generator_subsets": [list(s) for s in report.degenerate_subsets],
            "unstable_polytope_vertices": list(report.unstable_p_vertices),
            "unstable_zonotope_vertices": list(report.unstable_z_vertices),
        }, indent=2))
        return EXIT_LOCALITY
    distance = coarse_hausdorff_distance if args.coarse else hausdorff_distance
    value, pairs = distance(poly, z, args.tol_active)
    cone = build_cone(pairs)
    result = descent_direction(cone, "coarse" if args.coarse else "exact")
    print(json.dumps({
        "locality": True,
        "distance": value,
        "coarse": bool(args.coarse),
        "matrix": cone.matrix.tolist(),
        "pairs": [_pair_payload(p) for p in pairs],
        "interior_nonempty": result.status == "descent",
        "interior_margin": result.interior_margin,
        "certificate": result.certificate,
        "verdict": _VERDICTS[result.certificate or result.status],
    }, indent=2))
    return EXIT_OK


def cmd_warmstart(args) -> int:
    poly = _load_polytope(args.polytope)
    rng = np.random.default_rng(_seed_from(args))
    z = warmstart_zonotope(poly, args.rank, rng)
    text = json.dumps(zonotope_to_json(z), indent=2)
    if args.out:
        _write(args.out, text + "\n")
    print(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        dims = [int(s) for s in args.dims.split(",") if s.strip()]
        ranks = [int(s) for s in args.ranks.split(",") if s.strip()]
    except ValueError as exc:
        raise _UsageError(f"--dims/--ranks need comma-separated integers: {exc}") from exc
    if not dims or not ranks or min(dims + ranks) < 1 or args.seeds < 1 or args.steps < 1:
        raise _UsageError("need nonempty --dims/--ranks, dims, ranks, --seeds and --steps >= 1")
    if max(ranks) < min(dims):
        raise _UsageError("need a rank >= a dim in --dims/--ranks")
    summary = []
    curves = {}
    for d in dims:
        for n in ranks:
            if n < d:
                continue
            for seed in range(args.seeds):
                rng = np.random.default_rng(10_000 * d + 100 * n + seed)
                poly = _random_polytope(rng, d)
                spread = float(np.ptp(poly.vertices, axis=0).max())
                inits = [("warmstart", warmstart_zonotope(poly, n, rng))]
                for j in range(3):
                    inits.append((f"random{j}", _random_zonotope(rng, n, d, 0.75 * spread / n)))
                for name, z0 in inits:
                    cfg = DescentConfig(rank=n, max_steps=args.steps,
                                        threshold=1e-9, rng_seed=seed)
                    try:
                        _, trace = optimize(poly, z0, cfg)
                        summary.append((d, n, seed, name, trace.final_exact,
                                        len(trace.records) - 1, trace.termination))
                        curve = [r.d_exact for r in trace.records]
                    except ZonofitError as exc:
                        summary.append((d, n, seed, name, float("nan"), -1,
                                        f"failed:{type(exc).__name__}"))
                        curve = []
                    curves.setdefault((d, n, "warmstart" if name == "warmstart" else "random"),
                                      []).append(curve)
    lines = ["dim,rank,seed,init,final_d_exact,iterations,termination"]
    for row in summary:
        lines.append(",".join(str(v) for v in row))
    summary_text = "\n".join(lines) + "\n"

    curve_lines = ["dim,rank,iter,median_warmstart,median_random"]
    for d in dims:
        for n in ranks:
            if n < d:
                continue
            ws = curves.get((d, n, "warmstart"), [])
            rd = curves.get((d, n, "random"), [])
            horizon = max([len(c) for c in ws + rd] or [0])
            for it in range(horizon):
                med = []
                for group in (ws, rd):
                    vals = [c[min(it, len(c) - 1)] for c in group if c]
                    med.append(float(np.median(vals)) if vals else float("nan"))
                curve_lines.append(f"{d},{n},{it},{med[0]:.17g},{med[1]:.17g}")
    curves_text = "\n".join(curve_lines) + "\n"

    if args.out:
        _write(args.out + "summary.csv", summary_text)
        _write(args.out + "curves.csv", curves_text)
    print(summary_text, end="")
    return EXIT_OK


def _tol_active(text) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"need 0 <= tol_active < 1, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="zonofit", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"zonofit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="Hausdorff distance between a polytope and a zonotope")
    p.add_argument("polytope")
    p.add_argument("zonotope")
    p.add_argument("--coarse", action="store_true", help="vertex-set distance instead")
    p.add_argument("--tol-active", type=_tol_active, default=ACTIVE_PAIR_TOL)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("optimize", help="fit a rank-n zonotope to a polytope")
    p.add_argument("polytope")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--rule", default="conservative",
                   choices=["conservative", "random", "aggressive", "hybrid"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objective", default="exact", choices=OBJECTIVES)
    p.add_argument("--warmstart", default="auto",
                   help="'auto', 'random', or a zonotope JSON path")
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.add_argument("--plot", help="write a 2-D SVG rendering here")
    p.add_argument("--out", help="write the final zonotope JSON here")
    p.add_argument("--config", help="JSON file mirroring the run config (or a manifest)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("cone", help="feasibility cone and local-minimum certificate")
    p.add_argument("polytope")
    p.add_argument("zonotope")
    p.add_argument("--coarse", action="store_true")
    p.add_argument("--tol-active", type=_tol_active, default=ACTIVE_PAIR_TOL)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("warmstart", help="emit an initial-guess zonotope")
    p.add_argument("polytope")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_warmstart)

    p = sub.add_parser("bench", help="warmstart-vs-random experiment grid")
    p.add_argument("--dims", default="2")
    p.add_argument("--ranks", default="4")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--out", help="prefix for summary.csv / curves.csv")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DimensionMismatch, DegenerateInput, RankCapExceeded) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PerturbationBudgetExceeded as exc:
        print(f"perturbation budget exceeded: {exc}", file=sys.stderr)
        return EXIT_PERTURB
    except (IterationLimit, LPNumericalFailure, SolverRetryFailed) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
