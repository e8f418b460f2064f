"""Wulff shapes and their approximation by intersections of large balls.

A positive function f on the sphere defines the Wulff shape
W(f) = intersection of halfspaces {<x, theta> <= f(theta)}. Replacing
each halfspace by the ball of radius R tangent to it from inside,
centered at -(R - f(theta)) * theta, gives a ball-polyhedron that
converges to W(f) at rate O(1/R). The tangent centers sweep out the
star body A(f, R) with radial function rho(-theta) = R - f(theta),
whose volume radius behaves like R - mean(f) + O(1/R). This module
builds those objects and measures the convergence claims.

f is a ``SupportBody``: its oracle evaluates f, ``values`` holds f on
its grid, and ``mean_width() / 2`` is the sphere mean of f.
``_check_boundary`` is the one check that f is positive and below R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

# f is positive when min f > POSITIVE_RTOL * max f on its grid (here and
# for the offsets of the polar-dual hull): where f
# vanishes it reads a few ulps (a centred segment's support function
# reads 3e-17), which passes "> 0" but leaves W(f) without interior.
POSITIVE_RTOL = 1e-12


class SphericalFunction:
    """f is its SupportBody; the benchmark's moments-star set-up calls this."""

    @staticmethod
    def from_support_body(K: SupportBody) -> SupportBody:
        return K


def _check_boundary(K: SupportBody, R: float) -> None:
    """Raise ValueError unless K is positive on its grid (the origin
    interior to the body), and RadiusTooSmall unless R > max K."""
    lo, hi = float(np.min(K.values)), float(np.max(K.values))
    if not lo > POSITIVE_RTOL * hi:
        raise ValueError(f"the body must contain the origin in its interior: min h = {lo:.6g} "
                         f"is not above {POSITIVE_RTOL:g} * max h = {hi:.6g} on its grid")
    if not R > hi:
        raise RadiusTooSmall(f"need R > max h = {hi:.6g}, got R = {R}")


# ---------------------------------------------------------------------------
# Tangent-center star body and the defining identity


def build_A(K: SupportBody, R: float) -> StarBody:
    """Star body of tangent ball centers: rho(-theta) = R - h_K(theta).

    Requires K positive and R > max h_K so the radial function stays
    positive."""
    _check_boundary(K, R)

    def rho(dirs):
        return R - K.support(-np.atleast_2d(np.asarray(dirs, dtype=float)))

    return StarBody(K.dimension, K.grid, oracle=rho)


def volume_radius(S: StarBody) -> float:
    """Radius of the ball with the star body's volume, by quadrature of
    the n-th radial moment on the body's grid."""
    g = S.grid
    n = S.dimension
    rho = S.radial(-g.directions)
    return float(np.dot(g.weights, rho**n) ** (1.0 / n))


# ---------------------------------------------------------------------------
# Wulff shape and ball approximation


def _polar_dual_vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vertices of {x : <x, n_i> <= c_i} with all c_i > 0 (origin
    interior) via the polar-dual convex hull: hull facets of the dual
    points n_i/c_i correspond to primal vertices."""
    # Deferred: importing scipy.spatial more than doubles a cold start's
    # time and resident memory, and of the CLI kinds only
    # wulff-convergence builds Wulff shapes.
    from scipy.spatial import ConvexHull

    if not np.min(offsets) > POSITIVE_RTOL * np.max(offsets):
        raise ValueError("polar-dual construction needs the origin in its interior")
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


def wulff_shape(K: SupportBody) -> SupportBody:
    """Wulff shape of f = h_K on its grid: the halfspace intersection
    represented by its vertices (exact support oracle)."""
    verts = _polar_dual_vertices(K.grid.directions, K.values)
    return SupportBody.polytope(verts, K.grid)


def ballpoly_approx(K: SupportBody, R: float) -> BallPolyhedron:
    """Tangent-ball approximation: one ball of radius R per direction of
    K's grid, centered at -(R - h_K(theta)) * theta."""
    _check_boundary(K, R)
    centers = -(R - K.values)[:, None] * K.grid.directions
    return BallPolyhedron.from_arrays(centers, R)


@dataclass
class ConvergenceReport:
    radii: np.ndarray
    residuals: np.ndarray
    slope: float
    grid_size: int
    probe_size: int


def convergence_rate(K: SupportBody, R_list: Sequence[float],
                     probe_size: int = 4096) -> ConvergenceReport:
    """Hausdorff distance between the tangent-ball approximation and
    the Wulff shape over ascending radii, with the fitted log-log slope
    (the tangent construction predicts order 1/R).

    2D only: the ball-polyhedron support function is evaluated exactly
    from the arc decomposition.
    """
    if K.dimension != 2:
        raise UnsupportedDimension("convergence experiments are 2D only")
    R_list = np.asarray(sorted(R_list), dtype=float)
    W = wulff_shape(K)
    probe = DirectionGrid.uniform_2d(probe_size).directions
    h_w = W.support(probe)
    res = []
    for R in R_list:
        P = ballpoly_approx(K, R)
        h_a = exact2d.support_from_region(exact2d.disk_region(P.centers, P.radii), probe)
        res.append(float(np.max(np.abs(h_w - h_a))))
    res = np.array(res)
    slope = float(np.polyfit(np.log(R_list), np.log(res), 1)[0])
    return ConvergenceReport(R_list, res, slope, len(K.grid), probe_size)


@dataclass
class VrReport:
    radii: np.ndarray
    residuals: np.ndarray
    scaled: np.ndarray  # residual * R, should stay bounded
    slope: float


def vr_asymptotics(K: SupportBody, R_list: Sequence[float]) -> VrReport:
    """Residuals vr(A(f,R)) - (R - mean f) over ascending radii.

    The residual is nonnegative (power-mean inequality) and decays like
    1/R; ``scaled`` exposes residual * R for the boundedness check."""
    R_list = np.asarray(sorted(R_list), dtype=float)
    l1 = K.mean_width() / 2.0
    res = np.array([volume_radius(build_A(K, R)) - (R - l1) for R in R_list])
    with np.errstate(divide="ignore"):
        slope = float(np.polyfit(np.log(R_list), np.log(np.maximum(res, 1e-300)), 1)[0])
    return VrReport(R_list, res, res * R_list, slope)
