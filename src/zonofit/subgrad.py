"""Analytic gradients of the smooth distance terms and their assembly.

Parameters of a rank-n zonotope in R^d are flattened into a single vector
of length n*d + d: generator rows in row-major order, then the
translation. All gradients returned here use that layout.

For a zonotope-vertex term the moving point is affine in the parameters
and the gradient is immediate. For a polytope-vertex term the moving
object is the affine hull of a zonotope face: facets get the closed-form
minor/cofactor gradient, and faces of higher codimension the equivalent
chain rule through the orthogonal-projector form of the point-to-affine
distance. A central finite-difference oracle is provided for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import DegenerateFace, LocalityViolation, SingularSubmatrix
from .geom import Polytope, Zonotope
from .hausdorff import (
    AchievingPair,
    SmoothTerm,
    check_locality,
    coarse_hausdorff_distance,
    hausdorff_distance,
    p_vertex_term,
)

__all__ = [
    "param_dim",
    "zonotope_to_params",
    "params_to_zonotope",
    "SubdifferentialSet",
    "facet_normal_minor_vector",
    "facet_normal",
    "grad_delta_q",
    "grad_delta_p",
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


def _minor_vector_jacobian(sub: np.ndarray) -> np.ndarray:
    """d m_j' / d sub[r, j] for the signed minor vector of ``sub``.

    Returns an array J with J[r, j, j'] = d m_{j'} / d sub[r, j], computed
    by cofactor expansion of each deleted-column determinant.
    """
    f, d = sub.shape  # f = d - 1
    J = np.zeros((f, d, d))
    for jp in range(d):
        reduced = np.delete(sub, jp, axis=1)  # f x (d-1)
        sign_jp = (-1.0) ** jp
        for r in range(f):
            for j in range(d):
                if j == jp:
                    continue
                c = j if j < jp else j - 1
                minor2 = np.delete(np.delete(reduced, r, axis=0), c, axis=1)
                det2 = 1.0 if minor2.size == 0 else float(np.linalg.det(minor2))
                J[r, j, jp] = sign_jp * (-1.0) ** (r + c) * det2
    return J


def grad_delta_q(term: SmoothTerm, z: Zonotope) -> np.ndarray:
    """Gradient of a zonotope-vertex term in the flat parameter layout.

    The moving point is u = bits @ G + mu; the face's affine hull in the
    polytope is fixed. For a codim-1 hull the gradient entries are the
    unit normal times the lift bits (and the bare normal for the
    translation block); higher codimension goes through the chain rule on
    the explicit point-to-affine formula.
    """
    if term.side != "z_vertex":
        raise ValueError("expected a z_vertex term")
    if term.hull is None:
        raise DegenerateFace("codim-0 face: term is identically zero")
    u = z.map_point(term.bits)
    s = term.hull.normals @ u - term.hull.offsets
    delta = float(np.linalg.norm(s))
    if delta <= 1e-14:
        raise DegenerateFace("vertex lies on the face's affine hull")
    w = (term.hull.normals.T @ s) / delta  # unit vector from hull toward u
    grad_g = np.outer(term.bits, w)
    return np.concatenate([grad_g.ravel(), w])


def grad_delta_p(term: SmoothTerm, z: Zonotope) -> np.ndarray:
    """Gradient of a polytope-vertex term in the flat parameter layout.

    Facet case (codim 1): differentiate delta = <eta(Q), p> - c(Q, mu)
    where eta comes from the signed-minor formula; the normal's dependence
    on the generators enters through cofactor derivatives of the minors.
    The result does not depend on which face vertex anchors the affine
    hull. Higher codimension: chain rule through the projector onto the
    span of the free generators (the same smooth function, so the same
    gradient).
    """
    if term.side != "p_vertex":
        raise ValueError("expected a p_vertex term")
    G = z.generators
    n, d = G.shape
    free = list(term.free_indices)
    codim = d - len(free)
    if codim < 1:
        raise DegenerateFace("projection is interior; no gradient")
    anchor = term.anchor_bits
    v = z.map_point(anchor)
    p = term.point

    if codim == 1:
        sub = G[free]
        m = facet_normal_minor_vector(G, free)
        gamma = float(np.linalg.norm(m))
        norms = np.linalg.norm(sub, axis=1)
        if gamma <= 1e-12 * max(1.0, float(np.prod(norms))):
            raise SingularSubmatrix("free generators are linearly dependent")
        sigma = term.orientation
        if sigma == 0.0:
            sigma = 1.0 if float(m @ (p - v)) >= 0.0 else -1.0
        eta = sigma * m / gamma
        J = _minor_vector_jacobian(sub)  # (f, d, d)
        grad_g = np.zeros((n, d))
        r_vec = p - v
        for rpos, i in enumerate(free):
            for j in range(d):
                dm = J[rpos, j]  # d m / d g_{ij}
                dgamma = float(m @ dm) / gamma
                deta = sigma * (dm / gamma - m * dgamma / gamma**2)
                grad_g[i, j] = -eta[j] * anchor[i] + float(deta @ r_vec)
        for i in range(n):
            if i in term.free_indices:
                continue
            grad_g[i] = -eta * anchor[i]
        return np.concatenate([grad_g.ravel(), -eta])

    # Higher codimension: delta(Z) = |(I - P_span)(p - v)| with the span of
    # the free generators; differentiate through the projector.
    r_vec = p - v
    if free:
        D = G[free].T
        y, *_ = np.linalg.lstsq(D, r_vec, rcond=None)
        w = r_vec - D @ y
    else:
        y = np.zeros(0)
        w = r_vec
    delta = float(np.linalg.norm(w))
    if delta <= 1e-14:
        raise DegenerateFace("vertex lies on the face's affine hull")
    what = w / delta
    cvec = anchor.astype(float).copy()
    for pos, i in enumerate(free):
        cvec[i] += y[pos]
    grad_g = -np.outer(cvec, what)
    return np.concatenate([grad_g.ravel(), -what])


def term_from_pair(poly: Polytope, z: Zonotope, pair: AchievingPair) -> SmoothTerm:
    """Smooth term tracking the given achieving pair near ``z``."""
    if pair.side == "p_vertex":
        return p_vertex_term(z, pair.vertex_index, pair.p, pair.lift)
    return SmoothTerm(
        side="z_vertex",
        vertex_index=pair.vertex_index,
        bits=pair.lift.values,
        hull=pair.face.affine_hull,
    )


def gradients_for_pairs(poly: Polytope, z: Zonotope, pairs, objective: str = "exact"):
    """Per-pair gradients of the active terms (no locality re-check).

    Exact objective: dispatch on pair side. Coarse objective: gradient of
    the plain vertex-to-vertex distance |p_i - (e_i @ G + mu)|.
    """
    grads = []
    if objective == "coarse":
        for pair in pairs:
            r = pair.p - pair.q
            dist = float(np.linalg.norm(r))
            if dist <= 1e-14:
                raise DegenerateFace("coincident vertex pair is not differentiable")
            rhat = r / dist
            grads.append(np.concatenate([-np.outer(pair.lift.values, rhat).ravel(), -rhat]))
        return tuple(grads)
    for pair in pairs:
        term = term_from_pair(poly, z, pair)
        if pair.side == "p_vertex":
            grads.append(grad_delta_p(term, z))
        else:
            grads.append(grad_delta_q(term, z))
    return tuple(grads)


def clarke_subdifferential(
    poly: Polytope,
    z: Zonotope,
    tol_active: float = 1e-7,
    objective: str = "exact",
    config: solvers.SolverConfig = solvers.DEFAULT_CONFIG,
) -> SubdifferentialSet:
    """Gradients of all active terms at ``z``; their hull is the
    generalized derivative of the chosen objective.

    The exact objective requires the locality conditions; the coarse
    objective only needs the pairs themselves.
    """
    if objective == "coarse":
        value, pairs = coarse_hausdorff_distance(poly, z, tol_active, config)
        return SubdifferentialSet(
            gradients=gradients_for_pairs(poly, z, pairs, "coarse"),
            pairs=tuple(pairs),
            objective="coarse",
        )
    if not check_locality(poly, z, config=config).ok:
        raise LocalityViolation("locality conditions fail; gradients undefined")
    value, pairs = hausdorff_distance(poly, z, tol_active, config)
    return SubdifferentialSet(
        gradients=gradients_for_pairs(poly, z, pairs, "exact"),
        pairs=tuple(pairs),
        objective="exact",
    )


def finite_difference_gradient(term: SmoothTerm, z: Zonotope, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the term value over all parameters."""
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
