"""Exception types shared across the package."""


class BallPolyError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(BallPolyError):
    """Iterative projection failed to converge.

    For ball-polyhedra this usually signals an empty (or numerically
    empty) intersection; callers may treat it as "empty for this
    tolerance".
    """


class EmptyIntersection(BallPolyError):
    """The ball-polyhedron has a certifiably empty intersection."""


class DegenerateTangency(BallPolyError):
    """Two circles are tangent within tolerance; the arc decomposition
    is ill-defined even after a perturbation retry."""


class IllConditioned(BallPolyError):
    """A least-squares system is too ill-conditioned to trust
    (bad epsilon spacing in the expansion-volume fit)."""


class RadiusTooSmall(BallPolyError):
    """Ball radius R does not exceed the maximum of the boundary
    function, so the tangent-center star body is not defined."""


class UnboundedConfiguration(BallPolyError):
    """A halfspace configuration does not bound a finite polytope."""


class RejectionStall(BallPolyError):
    """Rejection sampler acceptance rate fell below the usable floor."""


class UnsupportedTag(BallPolyError):
    """The density family does not admit the requested closed-form
    transform."""


class UnsupportedDimension(BallPolyError):
    """Operation restricted to a specific ambient dimension."""


class ZeroVector(BallPolyError):
    """A direction was requested for the zero vector."""


class NonIntegrable(BallPolyError):
    """A negative-moment estimate hit a numerically zero sample,
    signalling a geometry bug rather than a true heavy tail."""


class ParseError(BallPolyError):
    """Configuration file failed to parse; carries line/column info
    when the underlying parser provides it."""


class SchemaError(BallPolyError):
    """Configuration parsed but violates the expected schema; the
    message names the offending key."""
