"""Wulff shapes and their approximation by intersections of large balls.

A positive function f on the sphere defines the Wulff shape
W(f) = intersection of halfspaces {<x, theta> <= f(theta)}. Replacing
each halfspace by the ball of radius R tangent to it from inside,
centered at -(R - f(theta)) * theta, gives a ball-polyhedron that
converges to W(f) at rate O(1/R). The tangent centers sweep out the
star body A(f, R) with radial function rho(-theta) = R - f(theta),
whose volume radius behaves like R - mean(f) + O(1/R). This module
builds those objects and measures the convergence claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import exact2d
from .errors import RadiusTooSmall, UnsupportedDimension
from .geometry import (
    BallPolyhedron,
    DirectionGrid,
    StarBody,
    SupportBody,
)
# Unused here, but the benchmark's span tracer patches ``wulff.stream``
# by name, so the binding must exist.
from .rng import stream


class SphericalFunction:
    """Positive continuous function on the sphere, given by an exact
    oracle; ``values`` caches the oracle on the grid."""

    def __init__(self, grid: DirectionGrid,
                 oracle: Callable[[np.ndarray], np.ndarray]):
        self.grid = grid
        self.oracle = oracle
        self.values = np.asarray(oracle(grid.directions), dtype=float)
        if np.any(self.values <= 0):
            raise ValueError("spherical function must be positive")
        self.min = float(np.min(self.values))
        self.max = float(np.max(self.values))

    @classmethod
    def constant(cls, c: float, grid: DirectionGrid) -> "SphericalFunction":
        return cls(grid, oracle=lambda d: np.full(np.atleast_2d(d).shape[0], float(c)))

    @classmethod
    def from_support_body(cls, K: SupportBody) -> "SphericalFunction":
        return cls(K.grid, oracle=lambda d: K.support(d))

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.asarray(self.oracle(dirs), dtype=float)

    def sphere_mean(self) -> float:
        """Average over the sphere (the L1 norm under the uniform
        probability measure)."""
        return float(np.dot(self.grid.weights, self.values))


# ---------------------------------------------------------------------------
# Tangent-center star body and the defining identity


def build_A(f: SphericalFunction, R: float) -> StarBody:
    """Star body of tangent ball centers: rho(-theta) = R - f(theta).

    Requires R > max f so the radial function stays positive."""
    if R <= f.max:
        raise RadiusTooSmall(f"need R > max f = {f.max}, got R = {R}")

    def rho(dirs):
        return R - f(-np.atleast_2d(np.asarray(dirs, dtype=float)))

    return StarBody(f.grid.dimension, f.grid, oracle=rho)


def volume_radius(S: StarBody, grid: Optional[DirectionGrid] = None) -> float:
    """Radius of the ball with the star body's volume, by quadrature of
    the n-th radial moment."""
    g = grid if grid is not None else S.grid
    n = S.dimension
    rho = S.radial(-g.directions)
    return float(np.dot(g.weights, rho**n) ** (1.0 / n))


# ---------------------------------------------------------------------------
# Wulff shape and ball approximation


def _polar_dual_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {x : <x, n_i> <= c_i} with all c_i > 0 (origin
    interior) via the polar-dual convex hull: hull facets of the dual
    points n_i/c_i correspond to primal vertices."""
    from scipy.spatial import ConvexHull

    if np.any(offsets <= 0):
        raise ValueError("polar-dual construction needs positive offsets")
    dual = normals / offsets[:, None]
    hull = ConvexHull(dual)
    n = normals.shape[1]
    verts = []
    for simplex in hull.simplices:
        A = dual[simplex]
        try:
            v = np.linalg.solve(A, np.ones(n))
        except np.linalg.LinAlgError:
            continue
        verts.append(v)
    V = np.array(verts)
    # Deduplicate (facet triangulation repeats vertices in 3D).
    V = np.unique(np.round(V, 12), axis=0)
    return V


def wulff_shape(f: SphericalFunction, grid: Optional[DirectionGrid] = None) -> SupportBody:
    """Wulff shape of f on the grid: the halfspace intersection
    represented by its vertices (exact support oracle)."""
    g = grid if grid is not None else f.grid
    offsets = f(g.directions)
    verts = _polar_dual_vertices(g.directions, offsets)
    return SupportBody.polytope(verts, g)


def ballpoly_approx(f: SphericalFunction, R: float,
                    grid: Optional[DirectionGrid] = None) -> BallPolyhedron:
    """Tangent-ball approximation: one ball of radius R per grid
    direction, centered at -(R - f(theta)) * theta."""
    if R <= f.max:
        raise RadiusTooSmall(f"need R > max f = {f.max}, got R = {R}")
    g = grid if grid is not None else f.grid
    offsets = f(g.directions)
    centers = -(R - offsets)[:, None] * g.directions
    return BallPolyhedron.from_arrays(centers, R)


def approx_support_2d(P: BallPolyhedron, probe_dirs: np.ndarray) -> np.ndarray:
    """Exact support values of a planar ball-polyhedron from its arcs."""
    return exact2d.support_from_region(exact2d.region_of(P), probe_dirs)


@dataclass
class ConvergenceReport:
    radii: np.ndarray
    residuals: np.ndarray
    slope: float
    grid_size: int
    probe_size: int


def convergence_rate(f: SphericalFunction, R_list: Sequence[float],
                     grid: Optional[DirectionGrid] = None,
                     probe_size: int = 4096) -> ConvergenceReport:
    """Hausdorff distance between the tangent-ball approximation and
    the Wulff shape over ascending radii, with the fitted log-log slope
    (the tangent construction predicts order 1/R).

    2D only: the ball-polyhedron support function is evaluated exactly
    from the arc decomposition.
    """
    g = grid if grid is not None else f.grid
    if g.dimension != 2:
        raise UnsupportedDimension("convergence experiments are 2D only")
    R_list = np.asarray(sorted(R_list), dtype=float)
    W = wulff_shape(f, g)
    probe = DirectionGrid.uniform_2d(probe_size).directions
    h_w = W.support(probe)
    res = []
    for R in R_list:
        P = ballpoly_approx(f, R, g)
        h_a = approx_support_2d(P, probe)
        res.append(float(np.max(np.abs(h_w - h_a))))
    res = np.array(res)
    slope = float(np.polyfit(np.log(R_list), np.log(res), 1)[0])
    return ConvergenceReport(R_list, res, slope, len(g), probe_size)


@dataclass
class VrReport:
    radii: np.ndarray
    residuals: np.ndarray
    scaled: np.ndarray  # residual * R, should stay bounded
    slope: float


def vr_asymptotics(f: SphericalFunction, R_list: Sequence[float],
                   grid: Optional[DirectionGrid] = None) -> VrReport:
    """Residuals vr(A(f,R)) - (R - mean f) over ascending radii.

    The residual is nonnegative (power-mean inequality) and decays like
    1/R; ``scaled`` exposes residual * R for the boundedness check."""
    g = grid if grid is not None else f.grid
    R_list = np.asarray(sorted(R_list), dtype=float)
    l1 = f.sphere_mean()
    res = np.array([volume_radius(build_A(f, R), g) - (R - l1) for R in R_list])
    with np.errstate(divide="ignore"):
        slope = float(np.polyfit(np.log(R_list), np.log(np.maximum(res, 1e-300)), 1)[0])
    return VrReport(R_list, res, res * R_list, slope)
