"""Exception types shared across the package."""


class ZonofitError(Exception):
    """Base class for all zonofit errors."""


class LPNumericalFailure(ZonofitError):
    """A feasibility LP did not converge, so the answer is unreliable."""


class IterationLimit(ZonofitError):
    """An iterative solver hit its iteration cap."""


class InfeasibleRegion(ZonofitError):
    """The halfspace region is empty."""


class UnboundedRegion(ZonofitError):
    """The halfspace region has no bounded inscribed ball."""


class RankCapExceeded(ZonofitError):
    """2^n cubical vertices exceed the brute-force enumeration budget."""


class NotOnBoundary(ZonofitError):
    """The point is not on the zonotope boundary (outside or interior)."""


class NonUniqueLift(ZonofitError):
    """The boundary point has more than one preimage in the unit cube."""


class DimensionMismatch(ZonofitError):
    """Operands have incompatible rank or ambient dimension."""


class PointOutsidePolytope(ZonofitError):
    """The query point violates a facet inequality beyond tolerance."""


class DegenerateFace(ZonofitError):
    """The face has the wrong codimension for this gradient formula."""


class SingularSubmatrix(ZonofitError):
    """A generator submatrix is rank-deficient (general position violated)."""


class LocalityViolation(ZonofitError):
    """The polytope/zonotope pair does not satisfy the locality conditions."""


class NonImprovingRow(ZonofitError):
    """The direction does not strictly improve every achieving pair."""


class EmptyTaus(ZonofitError):
    """No step-size limits available to choose a step from."""


class PerturbationBudgetExceeded(ZonofitError):
    """Random perturbation failed to restore locality within the budget."""


class DimensionNot2(ZonofitError):
    """Operation is only defined in the plane."""


class AsymmetryTooLarge(ZonofitError):
    """Vertex cycle is not centrally symmetric within tolerance."""


class DegenerateInput(ZonofitError):
    """Input does not span the ambient space."""


class SolverRetryFailed(ZonofitError):
    """A solver failed twice in the descent loop; run aborted."""
