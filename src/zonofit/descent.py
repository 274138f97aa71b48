"""The subgradient descent loop with cone-guided directions.

Each iteration: restore the locality conditions by small random
perturbation if needed, evaluate the distance and its achieving pairs,
build the feasibility cone, pick the Chebyshev direction of the negated
active-gradient hull (read off the cone's rows) inside the cone, and step
by a fraction of the per-pair limits. Terminates on the distance
threshold, the iteration cap, or a certificate (empty cone interior /
empty feasible set).

Step rules: "conservative" takes half the smallest limit, which only
guarantees decrease of the active terms. The distance is a max over one
row per vertex of either body; held on its face, each row of the current
sweep is at most |u - h delta| away at step h, so for the exact objective
the step starts below every row's root of that bound at the current value.
Halving until a probe beats the current value by more than round-off stays
the guarantee (a vertex new at the probe has no row). "aggressive" takes
half the largest limit, "random" half a uniformly chosen one, and
"hybrid" switches from aggressive to conservative at a configurable
iteration.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import solvers
from .cone import DIRECTION_MARGIN, build_cone, descent_direction
from .errors import (
    EmptyTaus,
    IterationLimit,
    LPNumericalFailure,
    PerturbationBudgetExceeded,
    SolverRetryFailed,
)
from .geom import Polytope, Zonotope, _facet_directions, canonicalize, enumerate_vertices
from .hausdorff import _projections, check_locality, coarse_hausdorff_distance, hausdorff_distance
from .subgrad import params_to_zonotope, zonotope_to_params

__all__ = [
    "DescentConfig",
    "TraceRecord",
    "DescentTrace",
    "choose_step",
    "perturb_until_local",
    "optimize",
]

TRACE_CSV_COLUMNS = ("iter", "d_exact", "d_coarse", "step", "rule",
                     "active_pairs", "cone_status", "ms")

# Backtracking budget for the monotone conservative rule.
_MAX_HALVINGS = 60
# A probe decreases the distance only when it beats it by this many machine
# epsilons, relative: above the round-off moves of a re-derived trace (6e-15).
_DECREASE_EPS = 64
# Fields of older manifests that are gone, each with the one value that
# still replays the run it describes: the removed rescue-direction switch,
# the cone margin and the solver tolerances, now constants.
_RETIRED_FIELDS = {
    "cone_fallback": False,
    "cone_margin": DIRECTION_MARGIN,
    "solver": {"feasibility_tol": solvers.FEASIBILITY_TOL, "kkt_tol": solvers.KKT_TOL,
               "iteration_factor": solvers.ITERATION_FACTOR},
}


@dataclass(frozen=True)
class DescentConfig:
    """Everything a run needs besides the polytope and the start zonotope."""

    rank: int
    max_steps: int = 500
    threshold: float = 1e-9
    step_rule: str = "conservative"  # conservative | random | aggressive | hybrid
    hybrid_switch: int | None = None  # default: max_steps // 3
    rng_seed: int = 0
    perturb_scale: float = 1e-6  # relative to the largest generator norm
    objective: str = "exact"  # exact | coarse
    max_perturb_tries: int = 50
    tol_active: float = 1e-7

    def __post_init__(self):
        # Written so that NaN fails every comparison.
        if not (self.max_steps >= 1 and self.threshold >= 0.0
                and 0.0 < self.perturb_scale < np.inf and 0.0 <= self.tol_active < 1.0
                and self.max_perturb_tries >= 0):
            raise ValueError("need max_steps >= 1, threshold >= 0, finite perturb_scale > 0, "
                             "0 <= tol_active < 1, max_perturb_tries >= 0")
        if self.step_rule not in ("conservative", "random", "aggressive", "hybrid"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if self.objective not in ("exact", "coarse"):
            raise ValueError(f"unknown objective {self.objective!r}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(data: dict) -> "DescentConfig":
        for name, fixed in _RETIRED_FIELDS.items():
            value = data.get(name, fixed)
            if isinstance(fixed, dict) and isinstance(value, dict):
                value = {**fixed, **value}  # a partial block keeps the rest
            if value != fixed:
                raise ValueError(f"{name} is no longer settable; only {fixed!r} replays")
        fields = {k: v for k, v in data.items() if k in DescentConfig.__dataclass_fields__}
        return DescentConfig(**fields)


@dataclass(frozen=True)
class TraceRecord:
    """One iteration: distances at the point stepped from, the step taken,
    and the direction-search status. ``perturb_tries`` counts locality
    perturbations applied before the distances were measured, ``probes``
    the candidate zonotopes the conservative backtracking measured,
    rejected and accepted (neither is a CSV column)."""

    iteration: int
    d_exact: float
    d_coarse: float
    step_size: float
    rule: str
    active_pairs: int
    cone_status: str
    ms: float
    perturb_tries: int = 0
    probes: int = 0


@dataclass
class DescentTrace:
    records: list
    termination: str = ""  # threshold | max_steps | certificate_or_feasible_empty | stalled
    certificate: str | None = None
    solver_retries: int = 0

    def csv_header(self) -> str:
        return ",".join(TRACE_CSV_COLUMNS)

    def csv_rows(self):
        for r in self.records:
            yield ",".join([
                str(r.iteration),
                f"{r.d_exact:.17g}",
                f"{r.d_coarse:.17g}",
                f"{r.step_size:.17g}",
                r.rule,
                str(r.active_pairs),
                r.cone_status,
                f"{r.ms:.3f}",
            ])

    def to_csv(self) -> str:
        return "\n".join([self.csv_header(), *self.csv_rows()]) + "\n"

    def math_columns(self):
        """Everything except wall time, for bitwise reproducibility checks."""
        return [(r.iteration, f"{r.d_exact:.17g}", f"{r.d_coarse:.17g}",
                 f"{r.step_size:.17g}", r.rule, r.active_pairs, r.cone_status)
                for r in self.records]

    @property
    def final_exact(self) -> float:
        return self.records[-1].d_exact if self.records else float("nan")

    @property
    def final_coarse(self) -> float:
        return self.records[-1].d_coarse if self.records else float("nan")


def choose_step(rule: str, taus, rng, iteration: int = 0,
                switch_at: int | None = None) -> tuple[float, str]:
    """Step size per the named rule; returns (h, effective_rule).

    conservative: half the smallest limit (all pairs improve);
    random: half a uniformly chosen limit; aggressive: half the largest
    (at least the chosen pair improves); hybrid: aggressive before
    ``switch_at``, conservative after.
    """
    taus = list(taus)
    if not taus:
        raise EmptyTaus("no step limits to choose from")
    effective = rule
    if rule == "hybrid":
        effective = "aggressive" if (switch_at is None or iteration < switch_at) else "conservative"
    if effective == "conservative":
        return 0.5 * min(taus), effective
    if effective == "aggressive":
        return 0.5 * max(taus), effective
    if effective == "random":
        return 0.5 * float(rng.choice(taus)), effective
    raise ValueError(f"unknown step rule {rule!r}")


def perturb_until_local(poly: Polytope, z: Zonotope, sigma: float, rng, max_tries: int = 50):
    """Perturb the zonotope entrywise-uniformly until locality holds.

    Returns (zonotope, tries); unchanged input counts as zero tries. The
    amplitude is ``sigma`` times the largest generator norm per try. Each
    candidate in general position is swept with the faces of ``z`` as hints.
    """
    current = z
    for tries in range(max_tries + 1):
        if tries and not _facet_directions(current)[2]:
            _projections(poly, current, hints=z)
        if check_locality(poly, current).ok:
            return current, tries
        current = _perturbed(current, sigma, rng)
    raise PerturbationBudgetExceeded(
        f"locality not restored within {max_tries} perturbations"
    )


def _perturbed(z: Zonotope, sigma: float, rng) -> Zonotope:
    """z with each entry moved uniformly by up to sigma x its scale."""
    amp = sigma * max(z.scale(), 1e-12)
    return Zonotope(z.generators + rng.uniform(-amp, amp, size=z.generators.shape),
                    z.translation + rng.uniform(-amp, amp, size=z.dim))


def _distances(poly, z, cfg, hints=None):
    """(d_exact, d_coarse, objective, pairs) at z, stepped to from ``hints``."""
    _projections(poly, z, hints=hints)  # cached for the distance below
    d_exact, pairs_exact = hausdorff_distance(poly, z, cfg.tol_active)
    d_coarse, pairs_coarse = coarse_hausdorff_distance(poly, z, cfg.tol_active)
    if cfg.objective == "coarse":
        return d_exact, d_coarse, d_coarse, pairs_coarse
    return d_exact, d_coarse, d_exact, pairs_exact


def _reaches(poly, z, d, cfg, hints=None) -> bool:
    """Whether the objective at ``z`` reaches d (1 - _DECREASE_EPS eps).

    The exact objective is read off z's sweep, solved on the faces of
    ``hints``; the coarse objective off the vertex sets alone, without a
    sweep.
    """
    d = d * (1.0 - _DECREASE_EPS * np.finfo(float).eps)
    if cfg.objective == "coarse":
        return coarse_hausdorff_distance(poly, z, cfg.tol_active)[0] >= d
    return max(r.distance for rows in _projections(poly, z, hints) for r in rows) >= d


def _row_motion(poly, z, direction):
    """(U, delta, distances) per row of z's cached sweep, polytope rows first:
    u is the row's polytope point minus its zonotope point, delta that
    zonotope point's motion along ``direction`` on a fixed cube lift. At
    step h the row is at most |u - h delta| away."""
    p_proj, z_proj = _projections(poly, z)
    X, Q = zip(*[(r.coefficients, r.point) for r in p_proj], *enumerate_vertices(z))
    delta = np.array(X) @ direction[:-z.dim].reshape(z.rank, z.dim) + direction[-z.dim:]
    P = np.vstack([poly.vertices, [r.point for r in z_proj]])
    return P - np.array(Q), delta, np.array([r.distance for r in p_proj + z_proj])


def _row_caps(U, delta, d):
    """Per row, the positive root h of |u - h delta| = d >= |u|: inf where
    delta = 0, and the pair limit of ``cone.tau_limits`` at d = |u|."""
    a, b, c = (delta * delta).sum(1), (U * delta).sum(1), d * d - (U * U).sum(1)
    s = np.sqrt(b * b + a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b > 0.0, (b + s) / a, c / (s - b))


def optimize(poly: Polytope, z0: Zonotope, cfg: DescentConfig):
    """Run the descent loop; returns (zonotope, trace).

    Deterministic given (poly, z0, cfg): the only randomness is the seeded
    generator used for locality perturbations and the random step rule.
    Solver failures are retried once after a perturbation, then abort.
    """
    if z0.rank != cfg.rank:
        raise ValueError(f"start zonotope has rank {z0.rank}, config says {cfg.rank}")
    if z0.dim != poly.dim:
        raise ValueError("zonotope and polytope dimensions differ")

    rng = np.random.default_rng(cfg.rng_seed)
    switch_at = cfg.hybrid_switch if cfg.hybrid_switch is not None else cfg.max_steps // 3
    z = canonicalize(z0)
    trace = DescentTrace(records=[])
    iteration = 0
    retried = False
    stepped_from = None  # zonotope of the last step, for face hints
    tries = 0  # locality perturbations applied to z since its last step
    shrink = 1.0  # adaptive starting fraction for conservative backtracking

    while True:
        if not tries:
            t0 = time.perf_counter()
        try:
            # Threshold and iteration cap are judged at the current
            # zonotope; the locality perturbation only gates the
            # subgradient machinery below. A perturbed zonotope comes
            # back here to be measured.
            d_exact, d_coarse, d, pairs = _distances(poly, z, cfg, stepped_from)
            stepped_from = None
            probes = 0

            def record(step, rule, status):
                trace.records.append(TraceRecord(
                    iteration=iteration, d_exact=d_exact, d_coarse=d_coarse,
                    step_size=step, rule=rule, active_pairs=len(pairs),
                    cone_status=status,
                    ms=(time.perf_counter() - t0) * 1e3,
                    perturb_tries=tries, probes=probes,
                ))

            if d <= cfg.threshold or iteration >= cfg.max_steps:
                record(0.0, "-", "none")
                trace.termination = "threshold" if d <= cfg.threshold else "max_steps"
                return z, trace
            if not tries:
                z, tries = perturb_until_local(poly, z, cfg.perturb_scale, rng,
                                               cfg.max_perturb_tries)
                if tries:
                    continue

            result = descent_direction(build_cone(pairs), objective=cfg.objective)
            if result.status != "descent":
                record(0.0, "-", result.status)
                trace.termination = "certificate_or_feasible_empty"
                trace.certificate = result.certificate
                return z, trace

            h, effective = choose_step(cfg.step_rule, result.taus, rng,
                                       iteration, switch_at)
            params = zonotope_to_params(z)

            def step(h):
                return canonicalize(params_to_zonotope(params + h * result.direction,
                                                       z.rank, z.dim))

            if effective == "conservative":
                # For the exact objective start below the cap of every row
                # outside the active band (the pairs' limits cap the rest);
                # the accepted probe's sweep is cached for the top of the
                # loop. Halving until the distance drops is the guarantee,
                # from a fraction that adapts to the last productive step.
                h_rule = h
                h = h_rule * shrink
                if cfg.objective == "exact":
                    U, delta, dist = _row_motion(poly, z, result.direction)
                    out = dist < d * (1.0 - cfg.tol_active)
                    h = min(h, 0.99 * _row_caps(U[out], delta[out], d).min(initial=np.inf))
                for _ in range(_MAX_HALVINGS):
                    z_next = step(h)
                    probes += 1
                    if not _reaches(poly, z_next, d, cfg, z):
                        break
                    h *= 0.5
                else:
                    record(0.0, effective, "stalled")
                    trace.termination = "stalled"
                    return z, trace
                shrink = min(1.0, 2.0 * h / h_rule)
            else:
                z_next = step(h)
            record(h, effective, "descent")
            stepped_from, z = z, z_next
            iteration += 1
            retried = False
            tries = 0
        except (IterationLimit, LPNumericalFailure) as exc:
            if retried:
                raise SolverRetryFailed(
                    f"solver failed twice at iteration {iteration}: {exc}"
                ) from exc
            trace.solver_retries += 1
            retried = True
            tries = 0
            z = _perturbed(z, cfg.perturb_scale, rng)
