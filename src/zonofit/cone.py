"""Feasibility cone of parameter perturbations and the descent direction.

Each achieving pair (p_i, q_i) with cube lift e_i contributes one linear
functional on perturbation space: moving the zonotope parameters by
(dQ, dmu) moves q_i by dQ^T e_i + dmu, and the pair's distance shrinks to
first order iff that motion has positive inner product with p_i - q_i.
The cone of perturbations improving (weakly) every pair is polyhedral; a
point in its interior strictly decreases the distance for small steps,
and an empty interior certifies a local minimum when every q_i is a
vertex (always true for the coarse objective).

The same row divided by |p_i - q_i| is the negated gradient of pair i's
active smooth term at the zonotope, -(e_i (x) r^_i, r^_i) with
r^_i = (p_i - q_i) / |p_i - q_i|, so the gradients are read off the cone
matrix (``FeasibilityCone.negated_gradients``). The chosen descent
direction is the Chebyshev center of the hull of those rows restricted to
the cone: active-term gradients are ascent directions, so the hull is
negated before intersecting. The Chebyshev LP runs inside the hull's
affine span, where the hull is full-dimensional and the inscribed radius
is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import DegenerateFace, EmptyTaus, InfeasibleRegion, NonImprovingRow, UnboundedRegion
from .geom import _facets_brute_force, _readonly

__all__ = [
    "FeasibilityCone",
    "DirectionResult",
    "build_cone",
    "certificate",
    "descent_direction",
    "tau_limits",
]

# Relative margin used to encode the open cone interior in the H-rep of
# the feasible set, and to post-verify strictness of a direction.
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
        term. Raises DegenerateFace for a pair with p = q, whose term has
        no gradient there."""
        r = np.linalg.norm(self.matrix[:, -self.pairs[0].p.size:], axis=1)
        if np.any(r <= 1e-14):
            raise DegenerateFace("achieving pair has p = q; no gradient")
        return self.matrix / r[:, None]


def build_cone(pairs) -> FeasibilityCone:
    """Assemble the cone matrix from achieving pairs (lift order fixed)."""
    rows = []
    for pair in pairs:
        e = pair.lift.values
        r = pair.p - pair.q
        rows.append(np.concatenate([np.outer(e, r).ravel(), r]))
    return FeasibilityCone(matrix=np.array(rows), pairs=tuple(pairs))


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of the direction search.

    status: "descent" (direction + per-pair step limits), "feasible_empty"
    (no gradient-hull point improves every pair; treated as a local
    minimum), or "cone_empty_interior" (no perturbation improves every
    pair at first order). ``certificate`` qualifies the latter:
    "certified_local_min" when every achieving q_i is a zonotope vertex,
    "certified_local_min_coarse" for the coarse objective, else
    "heuristic".
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
    """
    if objective == "coarse":
        return "certified_local_min_coarse"
    if all(pair.q_is_zonotope_vertex for pair in pairs):
        return "certified_local_min"
    return "heuristic"


def tau_limits(cone: FeasibilityCone, direction: np.ndarray):
    """Per-pair step-size limits along ``direction``.

    tau_i = 2 <delta_i, p_i - q_i> / |delta_i|^2 with
    delta_i = dQ^T e_i + dmu; the numerators are the cone rows applied to
    the direction. Any step below tau_i strictly shrinks pair i's
    distance, and tau_i/2 is the minimizer along the ray. Requires the
    direction to improve every pair (NonImprovingRow otherwise).
    """
    if not cone.pairs:
        raise EmptyTaus("no achieving pairs")
    direction = np.asarray(direction, dtype=float)
    d = cone.pairs[0].p.size
    E = np.array([pair.lift.values for pair in cone.pairs])
    delta = E @ direction[:-d].reshape(E.shape[1], d) + direction[-d:]
    num = cone.matrix @ direction
    if np.any(num <= 0.0):
        raise NonImprovingRow("direction does not improve every pair")
    return tuple((2.0 * num / (delta * delta).sum(axis=1)).tolist())


def _chebyshev_direction(neg_gradients, A):
    """Chebyshev center of conv(neg_gradients) cut by {A x >= margins}.

    Works inside the hull's affine span. Returns None when the cut is
    empty.
    """
    pts = np.array(neg_gradients)
    u0 = pts[0]
    row_norms = np.linalg.norm(A, axis=1)
    req = DIRECTION_MARGIN * row_norms * (1.0 + np.linalg.norm(u0))
    M = pts - u0
    _, s, vt = np.linalg.svd(M) if pts.shape[0] > 1 else (None, np.zeros(1), None)
    rank = int((s > 1e-10 * max(1.0, s.max(initial=0.0))).sum()) if pts.shape[0] > 1 else 0
    if rank == 0:
        # Single candidate: it must sit strictly inside the cone.
        if np.all(A @ u0 >= req - 1e-15):
            return u0
        return None
    B = vt[:rank].T  # span basis, columns orthonormal
    zpts = M @ B
    hull_n, hull_c = _facets_brute_force(zpts, 1e-9)
    AB = A @ B
    c0 = A @ u0
    # Ball constraints: hull facets keep the ball in the hull; cone rows
    # (written as <=) keep it strictly feasible.
    normals = np.vstack([hull_n, -AB])
    offsets = np.concatenate([hull_c, c0 - req])
    try:
        center, radius = solvers.chebyshev_center(normals, offsets)
    except (InfeasibleRegion, UnboundedRegion):
        return None
    return u0 + B @ center


def descent_direction(cone: FeasibilityCone, objective: str = "exact") -> DirectionResult:
    """Search for a strictly improving perturbation direction.

    First tests the cone interior; an empty interior short-circuits to a
    certificate. Otherwise intersects the negated active-gradient hull
    (the cone's rows over |p_i - q_i|) with the cone and returns the
    Chebyshev center, verified to strictly improve every pair. An empty
    intersection is read as a local minimum.
    """
    interior = solvers.cone_interior_point(cone.matrix)
    if not interior.interior:
        return DirectionResult(status="cone_empty_interior",
                               certificate=certificate(cone.pairs, objective),
                               interior_margin=interior.margin)

    direction = _chebyshev_direction(cone.negated_gradients(), cone.matrix)
    if direction is None:
        return DirectionResult(status="feasible_empty",
                               interior_margin=interior.margin)

    values = cone.matrix @ direction
    row_norms = np.linalg.norm(cone.matrix, axis=1)
    if np.any(values <= 0.5 * DIRECTION_MARGIN * row_norms * (1.0 + np.linalg.norm(direction))):
        return DirectionResult(status="feasible_empty",
                               interior_margin=interior.margin)
    taus = tau_limits(cone, direction)
    return DirectionResult(status="descent", direction=direction, taus=taus,
                           certificate=None, interior_margin=interior.margin)
