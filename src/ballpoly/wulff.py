"""Wulff shapes and their approximation by intersections of large balls.

A positive function f on the sphere defines the Wulff shape
W(f) = intersection of halfspaces {<x, theta> <= f(theta)}. Replacing
each halfspace by the ball of radius R tangent to it from inside,
centered at -(R - f(theta)) * theta, gives a ball-polyhedron that
converges to W(f) at rate O(1/R). The tangent centers sweep out the
star body A(f, R) with radial function rho(-theta) = R - f(theta),
whose volume radius behaves like R - mean(f) + O(1/R). This module
builds those objects and measures the convergence claims. W(f) is built
in the plane only, by ``polytope.clip_polygon``; A(f, R) in any
dimension.

f is a ``SupportBody``: its oracle evaluates f, ``values`` holds f on
its grid, and ``mean_width() / 2`` is the sphere mean of f.
``_check_boundary`` is the one check that f is positive and below R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact2d, polytope
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

# f is positive when min f > POSITIVE_RTOL * max f on its grid: where f
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
    interior to the body), and RadiusTooSmall unless R > max K; R = inf
    checks positivity alone."""
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


def wulff_shape(K: SupportBody) -> SupportBody:
    """Wulff shape of f = h_K on its planar grid: the halfspace
    intersection {x : <x, theta> <= f(theta)}, clipped out of the box
    [-4 max f, 4 max f]^2 and represented by its vertices (exact
    support oracle).

    W(f) lies in B(0, max f / cos(g/2)) for the largest angular gap g
    of the grid, so in B(0, 2 max f) on any uniform grid of at least
    three directions. A vertex on the box means W(f) is unbounded on
    its grid (or reaches past 4 max f, when g > 2 acos(1/4)): a
    ValueError.

    Lines through a corner within the clip's slack e can still leave a
    near-copy of it: where two lines at angle a cross, a slack of e
    across them moves their crossing by up to e / sin a along them, and
    a is at least the smallest positive gap of the grid. A vertex within
    that distance of the last vertex kept, cyclically, is dropped."""
    return SupportBody.polytope(_wulff_vertices(K), K.grid)


def _wulff_vertices(K: SupportBody) -> np.ndarray:
    """The vertices (CCW) of ``wulff_shape``: the clip, its box check,
    and the near-copies dropped."""
    if K.dimension != 2:
        raise UnsupportedDimension("Wulff shapes are built in the plane only")
    _check_boundary(K, np.inf)
    bound = 4.0 * float(np.max(K.values))
    verts = polytope.clip_polygon(K.grid.directions, K.values, bound)
    if np.max(np.abs(verts)) >= bound:
        raise ValueError(f"W(f) is unbounded on its grid of {len(K.grid)} directions: "
                         f"a vertex lies on the box [-{bound:.6g}, {bound:.6g}]^2")
    d = K.grid.directions
    angles = np.sort(np.arctan2(d[:, 1], d[:, 0]))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    # clip_vertices' slack: f is positive, so bound = 4 max f is its larger term.
    slack = polytope.CLIP_EPS * bound
    tol = slack / math.sin(float(np.min(gaps[gaps > 0.0])))
    kept = [0]
    for i in range(1, len(verts)):
        if math.dist(verts[i], verts[kept[-1]]) > tol:
            kept.append(i)
    if len(kept) > 1 and math.dist(verts[kept[0]], verts[kept[-1]]) <= tol:
        kept.pop()
    return verts[kept]


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

    2D only, as ``wulff_shape`` checks: the ball-polyhedron support
    function is evaluated exactly from the arc decomposition.
    """
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

    The residual is nonnegative (power-mean inequality), zero for a
    constant f, and decays like 1/R; ``scaled`` exposes residual * R for
    the boundedness check. A residual within 64 ulps of R is rounding
    noise and reads 0. ``slope`` is the log-log fit of the residuals,
    NaN unless all of them are positive."""
    R_list = np.asarray(sorted(R_list), dtype=float)
    l1 = K.mean_width() / 2.0
    res = np.array([volume_radius(build_A(K, R)) - (R - l1) for R in R_list])
    res[np.abs(res) <= 64.0 * np.spacing(R_list)] = 0.0
    slope = float(np.polyfit(np.log(R_list), np.log(res), 1)[0]) if np.all(res > 0) else np.nan
    return VrReport(R_list, res, res * R_list, slope)
