"""Feasibility cone of parameter perturbations and the descent direction.

Each achieving pair (p_i, q_i) with cube lift e_i contributes one linear
functional on perturbation space: moving the zonotope parameters by
(dQ, dmu) moves q_i by dQ^T e_i + dmu (``motion``, which the step limits
of the pairs and of every sweep row share), and the pair's distance shrinks
to first order iff that motion has positive inner product with p_i - q_i.
The cone of perturbations improving (weakly) every pair is polyhedral; a
point in its interior strictly decreases the distance for small steps,
and an empty interior certifies a local minimum when every q_i is a
vertex (always true for the coarse objective).

A row is (x (x) u, u) for a cube lift x and an offset u (``rows``), the
one formula of every smooth term's gradient: a term's is
``rows(x, w / |w|)`` with x the lift of its zonotope point and w that
point's offset from the term's polytope flat
(``hausdorff.SmoothTerm.gradient``). At the zonotope where pair i
achieves the distance, w = q_i - p_i, so the row over |p_i - q_i| is the
negated gradient n_i of its active term, and the gradients are read off
the cone matrix (``FeasibilityCone.negated_gradients``). Positive row scaling
leaves the open cone {x : A x > 0} unchanged, and by Gordan's
alternative it is empty iff 0 lies in conv{n_i}. Otherwise the min-norm
point u of that hull satisfies <n_i, u> >= |u|^2 > 0 for every i, so u
itself improves every pair: one min-norm solve both decides the status
and gives the direction (Kiwiel's min-norm descent element). A pair with
p_i = q_i has a zero row, which puts 0 in the hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import DegenerateFace, EmptyTaus, NonImprovingRow
from .geom import _readonly

__all__ = [
    "FeasibilityCone",
    "DirectionResult",
    "build_cone",
    "certificate",
    "descent_direction",
    "motion",
    "rows",
    "tau_limits",
]

# The objectives a fit can descend: the exact distance or the coarse
# (vertex-set) one.
OBJECTIVES = ("exact", "coarse")

# Relative margin a direction must clear on every cone row to count as
# strictly improving.
DIRECTION_MARGIN = 1e-8


@dataclass(frozen=True)
class FeasibilityCone:
    """Matrix of improvement functionals, one row per achieving pair.

    Row i applied to a flat parameter perturbation x equals
    <dQ^T e_i + dmu, p_i - q_i> for the (dQ, dmu) encoded by x.
    """

    matrix: np.ndarray
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(np.atleast_2d(self.matrix)))

    def negated_gradients(self) -> np.ndarray:
        """Row i over |p_i - q_i|: the negated gradient of pair i's active
        term. Raises EmptyTaus for a cone without pairs, and DegenerateFace
        for a pair with p = q, whose term has no gradient there."""
        if not self.pairs:
            raise EmptyTaus("no achieving pairs")
        r = np.linalg.norm(self.matrix[:, -self.pairs[0].p.size:], axis=1)
        if np.any(r <= 1e-14):
            raise DegenerateFace("achieving pair has p = q; no gradient")
        return self.matrix / r[:, None]


def rows(X, U) -> np.ndarray:
    """(x (x) u, u) per row of X and U, in the flat parameter layout: the
    functional u . (dQ^T x + dmu) on the parameters (``motion``)."""
    X, U = np.asarray(X, dtype=float), np.asarray(U, dtype=float)
    return np.concatenate([(X[..., :, None] * U[..., None, :]).reshape(*X.shape[:-1], -1), U],
                          axis=-1)


def build_cone(pairs) -> FeasibilityCone:
    """Assemble the cone matrix from achieving pairs (lift order fixed)."""
    pairs = tuple(pairs)
    return FeasibilityCone(matrix=rows([pair.lift.values for pair in pairs],
                                       [pair.p - pair.q for pair in pairs]), pairs=pairs)


def _require_objective(objective: str):
    """Raise ValueError unless ``objective`` is one of ``OBJECTIVES``."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of the direction search.

    status: "descent" (direction + per-pair step limits), "cone_empty_interior"
    (0 is in the negated-gradient hull, so no perturbation improves every
    pair at first order) or "feasible_empty" (the hull's min-norm point
    clears the interior margin but not the strictness check on every row;
    treated as a local minimum). ``certificate`` qualifies
    "cone_empty_interior": "certified_local_min" when every achieving q_i
    is a zonotope vertex, "certified_local_min_coarse" for the coarse
    objective, else "heuristic". ``interior_margin`` is the min-norm
    point's length over the longest negated gradient, 0.0 on a zero row.
    """

    status: str
    direction: np.ndarray | None = None
    taus: tuple | None = None
    certificate: str | None = None
    interior_margin: float = 0.0


def certificate(pairs, objective: str) -> str:
    """What an empty cone interior certifies for these achieving pairs.

    Every coarse pair joins two vertices, so the coarse objective is always
    certified; the exact one only when every q_i is a zonotope vertex.
    Raises ValueError for an objective not in ``OBJECTIVES``.
    """
    _require_objective(objective)
    if objective == "coarse":
        return "certified_local_min_coarse"
    if all(pair.q_is_zonotope_vertex for pair in pairs):
        return "certified_local_min"
    return "heuristic"


def motion(X: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """delta_i = dQ^T x_i + dmu per row x_i of X: the motion of the zonotope
    point with cube lift x_i as the parameters move along ``direction``."""
    d = direction.size // (X.shape[1] + 1)
    return X @ direction[:-d].reshape(X.shape[1], d) + direction[-d:]


def tau_limits(cone: FeasibilityCone, direction: np.ndarray):
    """Per-pair step-size limits along ``direction``.

    tau_i = 2 <delta_i, p_i - q_i> / |delta_i|^2 with delta_i the motion of
    q_i; the numerators are the cone rows applied to the direction. Any
    step below tau_i strictly shrinks pair i's distance, and tau_i/2 is the
    minimizer along the ray. Requires the direction to improve every pair
    (NonImprovingRow otherwise).
    """
    if not cone.pairs:
        raise EmptyTaus("no achieving pairs")
    direction = np.asarray(direction, dtype=float)
    delta = motion(np.array([pair.lift.values for pair in cone.pairs]), direction)
    num = cone.matrix @ direction
    if np.any(num <= 0.0):
        raise NonImprovingRow("direction does not improve every pair")
    return tuple((2.0 * num / (delta * delta).sum(axis=1)).tolist())


def _row_caps(U, delta, d):
    """Per row, the positive root h of |u - h delta| = d >= |u|: inf where
    delta = 0, and the pair limit of ``tau_limits`` at d = |u|."""
    a, b, c = (delta * delta).sum(1), (U * delta).sum(1), d * d - (U * U).sum(1)
    s = np.sqrt(b * b + a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b > 0.0, (b + s) / a, c / (s - b))


def descent_direction(cone: FeasibilityCone, objective: str = "exact") -> DirectionResult:
    """Search for a strictly improving perturbation direction.

    Projects 0 onto the hull of the negated active gradients (the cone's
    rows over |p_i - q_i|). A zero row, or a min-norm point no longer than
    ``solvers.CONE_INTERIOR_MARGIN`` times the longest gradient, is an
    empty cone interior and short-circuits to a certificate. Otherwise the
    min-norm point is the direction, verified to strictly improve every
    pair; a row it fails is read as a local minimum. Raises ValueError for
    an objective not in ``OBJECTIVES`` and EmptyTaus for a cone of no pairs.
    """
    _require_objective(objective)
    try:
        N = cone.negated_gradients()
    except DegenerateFace:
        return DirectionResult(status="cone_empty_interior",
                               certificate=certificate(cone.pairs, objective))
    hull = solvers.project_to_hull(N, np.zeros(N.shape[1]))
    direction = hull.point
    margin = hull.distance / float(np.linalg.norm(N, axis=1).max())
    if margin <= solvers.CONE_INTERIOR_MARGIN:
        return DirectionResult(status="cone_empty_interior",
                               certificate=certificate(cone.pairs, objective),
                               interior_margin=margin)

    values = cone.matrix @ direction
    row_norms = np.linalg.norm(cone.matrix, axis=1)
    if np.any(values <= 0.5 * DIRECTION_MARGIN * row_norms * (1.0 + np.linalg.norm(direction))):
        return DirectionResult(status="feasible_empty", interior_margin=margin)
    taus = tau_limits(cone, direction)
    return DirectionResult(status="descent", direction=direction, taus=taus,
                           certificate=None, interior_margin=margin)
