"""Analytic gradients of the smooth distance terms and their assembly.

Parameters of a rank-n zonotope in R^d are flattened into a single vector
of length n*d + d: generator rows in row-major order, then the
translation. All gradients returned here use that layout.

Every smooth term is one object (``hausdorff.SmoothTerm``): a polytope
flat {y : N y = c} (a vertex, N = I, or the affine hull of its minimal
face, no rows for the whole body) against the affine hull of a zonotope
face (anchor bits and free generators). Its value and its
gradient come from one offset, w, of the face point nearest the flat, with
x that point's cube lift: the value is |w| and the gradient is the cone's
row formula ``cone.rows(x, w / |w|)``, at every zonotope near the base one
(``SmoothTerm.gradient``; ``term_from_pair`` builds a pair's term). At the
zonotope where a pair achieves the distance, w = q - p, so every active
term's gradient is -(e (x) r^, r^), with e the cube lift of q and
r^ = (p - q) / |p - q|: the pair's cone row over -|p - q|. The descent
reads the rows off the cone matrix (``FeasibilityCone.negated_gradients``),
and ``clarke_subdifferential`` negates them (``gradients_for_pairs``). The
paper's explicit facet normal from signed minors is kept as
``facet_normal``, the reference the facet gradients are tested against. A
central finite-difference oracle is provided for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import _require_objective, build_cone
from .errors import LocalityViolation, SingularSubmatrix
from .geom import Polytope, Zonotope
from .hausdorff import (
    AchievingPair,
    SmoothTerm,
    _term,
    check_locality,
    coarse_hausdorff_distance,
    hausdorff_distance,
)

__all__ = [
    "param_dim",
    "zonotope_to_params",
    "params_to_zonotope",
    "SubdifferentialSet",
    "facet_normal_minor_vector",
    "facet_normal",
    "term_from_pair",
    "clarke_subdifferential",
    "finite_difference_gradient",
]


def param_dim(n: int, d: int) -> int:
    return n * d + d


def zonotope_to_params(z: Zonotope) -> np.ndarray:
    """Flatten to (g_11..g_1d, ..., g_nd, mu_1..mu_d)."""
    return np.concatenate([z.generators.ravel(), z.translation])


def params_to_zonotope(params, n: int, d: int) -> Zonotope:
    """Inverse of ``zonotope_to_params``; generator order is preserved."""
    v = np.asarray(params, dtype=float)
    return Zonotope(v[: n * d].reshape(n, d), v[n * d :])


@dataclass(frozen=True)
class SubdifferentialSet:
    """Gradients of the active smooth terms, one per achieving pair.

    The convex hull of ``gradients`` is the generalized derivative of the
    (exact or coarse) distance at the zonotope.
    """

    gradients: tuple
    pairs: tuple
    objective: str  # "exact" | "coarse"


def facet_normal_minor_vector(generators: np.ndarray, free_indices) -> np.ndarray:
    """Unnormalized facet normal from signed maximal minors.

    For the (d-1) x d submatrix of the rows at ``free_indices``, entry j
    is (-1)^j times the determinant obtained by deleting column j. The
    result is orthogonal to every selected row; overall sign is fixed by
    the caller.
    """
    G = np.asarray(generators, dtype=float)
    sub = G[list(free_indices)]
    d = G.shape[1]
    if sub.shape[0] != d - 1:
        raise SingularSubmatrix("need exactly d-1 free generators for a facet")
    m = np.empty(d)
    for j in range(d):
        minor = np.delete(sub, j, axis=1)
        det = 1.0 if minor.size == 0 else float(np.linalg.det(minor))
        m[j] = (-1.0) ** j * det
    return m


def facet_normal(z: Zonotope, free_indices, orientation_ref) -> np.ndarray:
    """Unit normal of the zonotope facet spanned by the free generators.

    ``orientation_ref`` is a pair (p, v): the sign is chosen so that
    <eta, p - v> > 0, i.e. the normal points from the facet anchor v
    toward the reference point p.
    """
    m = facet_normal_minor_vector(z.generators, free_indices)
    gamma = float(np.linalg.norm(m))
    norms = np.linalg.norm(z.generators[list(free_indices)], axis=1)
    if gamma <= 1e-12 * max(1.0, float(np.prod(norms))):
        raise SingularSubmatrix("free generators are linearly dependent")
    p, v = orientation_ref
    sigma = 1.0 if float(m @ (np.asarray(p, float) - np.asarray(v, float))) >= 0.0 else -1.0
    return sigma * m / gamma


def term_from_pair(poly: Polytope, z: Zonotope, pair: AchievingPair) -> SmoothTerm:
    """Smooth term tracking the given achieving pair near ``z``."""
    return _term(poly, pair.side, pair.vertex_index, pair.p, pair.lift.values)


def gradients_for_pairs(pairs):
    """Per-pair gradients of the active terms (no locality re-check).

    Serves both objectives: each is its pair's cone row over -|p - q|,
    -(bits (x) r^, r^) with r^ = (p - q) / |p - q|. Raises DegenerateFace
    for a pair with p = q.
    """
    return tuple(-build_cone(pairs).negated_gradients())


def clarke_subdifferential(poly: Polytope, z: Zonotope,
                           objective: str = "exact") -> SubdifferentialSet:
    """Gradients of all active terms at ``z``; their hull is the
    generalized derivative of the chosen objective.

    The exact objective requires the locality conditions; the coarse
    objective only needs the pairs themselves. Raises ValueError for an
    objective not in ``cone.OBJECTIVES``.
    """
    _require_objective(objective)
    coarse = objective == "coarse"
    if not coarse and not check_locality(poly, z).ok:
        raise LocalityViolation("locality conditions fail; gradients undefined")
    distance = coarse_hausdorff_distance if coarse else hausdorff_distance
    _, pairs = distance(poly, z)
    return SubdifferentialSet(
        gradients=gradients_for_pairs(pairs),
        pairs=tuple(pairs),
        objective=objective,
    )


def finite_difference_gradient(term: SmoothTerm, z: Zonotope, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the term value over all parameters.
    Raises ValueError unless the step h is finite and positive."""
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"need a finite step h > 0, got {h}")
    n, d = z.generators.shape
    base = zonotope_to_params(z)
    out = np.empty(base.size)
    for i in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi[i] += h
        lo[i] -= h
        out[i] = (
            term.value(params_to_zonotope(hi, n, d))
            - term.value(params_to_zonotope(lo, n, d))
        ) / (2.0 * h)
    return out
