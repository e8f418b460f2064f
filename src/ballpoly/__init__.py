"""Ball-polyhedra, intrinsic volumes, and stochastic-dominance experiments.

Library layout:

* ``geometry``   vectors, ball-polyhedra, their exact nearest-point
  map, support function and emptiness, support and radial oracles,
  reflections, Hausdorff distance
* ``exact2d``    exact circular-arc decomposition of planar disk
  intersections (area, perimeter, support, distance)
* ``intrinsic``  intrinsic volumes: exact 2D, Monte-Carlo volume,
  expansion-volume fits, inequality margins
* ``densities``  closed-form sampling densities and their symmetric
  decreasing rearrangement
* ``dominance``  survival-curve dominance experiments and moment
  comparisons for random ball-polyhedra
* ``wulff``      tangent-center star bodies, Wulff shapes,
  ball-polyhedral approximation
* ``extremal``   circumscription minima, enclosing-simplex bounds,
  large-radius volume deficits, hull mean-width bridge
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
from .exact2d import exact_disk_intersection_2d
from .geometry import (
    Ball,
    BallPolyhedron,
    DirectionGrid,
    StarBody,
    SupportBody,
    hausdorff_distance,
    minkowski_symmetral,
    reflect,
    support_function,
)
from .intrinsic import (
    EpsilonGrid,
    IntrinsicVolumeVector,
    epsilon_expanded_volume,
    fit_intrinsic_volumes,
    mc_volume,
    omega,
    unit_ball_intrinsic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
