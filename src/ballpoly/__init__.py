"""Ball-polyhedra, intrinsic volumes, and stochastic-dominance experiments.

Library layout:

* ``geometry``   vectors, ball-polyhedra (centre and radius arrays),
  their exact nearest-point map, support function and emptiness,
  support oracles (also Wulff boundary functions) and radial oracles
* ``exact2d``    exact circular-arc decomposition of planar disk
  intersections (area, perimeter, support)
* ``intrinsic``  intrinsic volumes: Monte-Carlo volume and
  expansion-volume fits
* ``densities``  closed-form sampling densities
* ``dominance``  survival-curve dominance experiments and moment
  comparisons for random ball-polyhedra
* ``wulff``      tangent-center star bodies, Wulff shapes and
  ball-polyhedral approximation of a ``SupportBody`` f
* ``extremal``   circumscription minima against the ball's bound,
  large-radius volume deficits, hull mean-width bridge
* ``neldermead`` the circumscription search's Nelder-Mead, in plain floats
* ``cli``        configuration-driven experiment harness
"""

__version__ = "0.1.0"

from .errors import (
    BallPolyError,
    DegenerateTangency,
    EmptyIntersection,
    IllConditioned,
    NonConvergence,
    NonIntegrable,
    ParseError,
    RadiusTooSmall,
    RejectionStall,
    SchemaError,
    UnboundedConfiguration,
    UnsupportedDimension,
    UnsupportedTag,
    ZeroVector,
)
from .geometry import (
    BallPolyhedron,
    DirectionGrid,
    StarBody,
    SupportBody,
)
from .intrinsic import (
    EpsilonGrid,
    IntrinsicVolumeVector,
    fit_intrinsic_volumes,
    mc_volume,
    omega,
)

__all__ = [name for name in dir() if not name.startswith("_")]
