"""Vector geometry for ball-polyhedra and support-function bodies.

A ball-polyhedron is the intersection of finitely many closed Euclidean
balls. Everything downstream (volume estimation, dominance experiments,
halfspace approximation) builds on three primitives implemented here:

* the exact nearest-point map, support function and emptiness test,
  all from candidate points on the spheres where at most n bounding
  spheres meet,
* convex bodies represented by support oracles on a direction grid,
* star bodies represented by radial oracles.

All values are immutable after construction; every operation is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import numpy as np

from .errors import EmptyIntersection, ZeroVector

# Candidate oracle: feasibility slack and affine-dependence pivot floor,
# relative to the largest radius and the longest centre difference; a
# rho^2 at most RHO2_ULPS ulps of r_0^2 below zero is a tangency. Subsets,
# and the nearest-point map's (point, candidate) pairs, go through in
# batches of CANDIDATE_BATCH, which bounds the memory.
CANDIDATE_RTOL = 1e-10
AFFINE_RTOL = 1e-10
RHO2_ULPS = 16
CANDIDATE_BATCH = 1 << 14

# Default direction-grid resolution in 2D/3D.
DEFAULT_GRID_SIZE = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def as_unit(v: np.ndarray) -> np.ndarray:
    """Validate and return ``v`` as a unit vector (copy)."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    if abs(nv - 1.0) > 1e-9:
        v = v / nv
    return v


# ---------------------------------------------------------------------------
# Ball polyhedra


class BallPolyhedron:
    """Intersection of finitely many closed balls (possibly empty), held
    as read-only arrays ``centers`` (N, n) and ``radii`` (N,).

    Emptiness is a legal state and is decided exactly by ``is_empty``:
    the cheap pairwise certificate ``certainly_empty`` catches disjoint
    pairs, and the candidate points of ``_candidates`` decide the rest.
    The support function, the nearest-point map and the emptiness test
    all read the same spheres of ``_spheres``.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        self.centers = c = _readonly(np.array(centers, dtype=float))
        self.radii = r = _readonly(np.array(radii, dtype=float))
        if c.ndim != 2 or 0 in c.shape or r.shape != c.shape[:1]:
            raise ValueError(f"need at least one ball: centers (N, n) and radii (N,), "
                             f"got shapes {c.shape} and {r.shape}")
        if not (np.all(np.isfinite(c)) and np.all(r > 0) and np.all(np.isfinite(r))):
            raise ValueError("ball centers must be finite and radii positive and finite")
        self.dimension = c.shape[1]

    @classmethod
    def from_arrays(cls, centers: np.ndarray, radii) -> "BallPolyhedron":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        return cls(centers, np.broadcast_to(np.asarray(radii, dtype=float), centers.shape[:1]))

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def smallest(self) -> int:
        """Index of a ball of minimal radius (it contains the intersection)."""
        return int(np.argmin(self.radii))

    def certainly_empty(self) -> bool:
        """Fast certificate: some pair of balls is disjoint."""
        c, r = self.centers, self.radii
        d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
        gap = np.sqrt(d2) - (r[:, None] + r[None, :])
        return bool(np.any(gap > 0.0))

    def is_empty(self) -> bool:
        """Exact: the pairwise certificate, or no candidate in direction e_1."""
        if self.certainly_empty():
            return True
        return next(_candidates(self, np.eye(self.dimension)[0]), None) is None

    def contains(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean mask: which points lie in every ball (within slack)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for c, r in zip(self.centers, self.radii):
            d2 = np.sum((pts - c) ** 2, axis=1)
            inside &= d2 <= (r + slack) ** 2
        return inside


def _spheres(P: BallPolyhedron):
    """The spheres where the boundaries of k <= n balls meet, one tuple
    (k, q, z, rho) per batch of subsets S of k balls.

    For affinely independent centres the spheres of S meet in a sphere
    centred at z = c_0 + u, u in the span of a_j = c_j - c_0 with
    <a_j, u> = (|a_j|^2 + r_0^2 - r_j^2) / 2, of radius
    rho = sqrt(r_0^2 - |u|^2) in the complement of that span. The
    orthogonal q (subsets, n, n) spans the a_j with its first k - 1
    columns and the complement with the rest; at k = n that is one
    normal, and the sphere is the two points z +- rho * q[:, :, n - 1].
    Subsets with dependent centres or no real rho are left out.
    """
    c, r = P.centers, P.radii
    for k in range(1, min(P.dimension, len(P)) + 1):
        subsets = combinations(range(len(P)), k)
        while (idx := np.array(list(islice(subsets, CANDIDATE_BATCH)), dtype=int)).size:
            c0, r0 = c[idx[:, 0]], r[idx[:, 0]]
            a = c[idx[:, 1:]] - c0[:, None, :]  # (subsets, k-1, n); k = 1 gives u = 0
            q, R = np.linalg.qr(np.swapaxes(a, 1, 2), mode="complete")  # a^T = q R
            R = R[:, : k - 1]
            pivots = np.abs(np.diagonal(R, axis1=1, axis2=2))
            scale = np.max(np.linalg.norm(a, axis=2), axis=1, keepdims=True, initial=0.0)
            ok = np.all(pivots > AFFINE_RTOL * scale, axis=1)
            R[~ok] = np.eye(k - 1)  # dependent centres: solvable, masked out below
            beta = 0.5 * (np.sum(a * a, axis=2) + r0[:, None] ** 2 - r[idx[:, 1:]] ** 2)
            g = np.linalg.solve(np.swapaxes(R, 1, 2), beta[:, :, None])[:, :, 0]  # u = q g
            rho2 = r0**2 - np.sum(g * g, axis=1)
            ok &= rho2 >= -RHO2_ULPS * np.finfo(float).eps * r0**2
            z = c0 + np.einsum("snk,sk->sn", q[:, :, : k - 1], g)
            yield k, q[ok], z[ok], np.sqrt(np.maximum(rho2[ok], 0.0))


def _toward(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v (..., subsets, n) projected onto the complement of the span of
    q (subsets, n, k - 1) and normalized; 0 where v lies in the span
    (projection norm at most 1e-12)."""
    w = v - np.einsum("snk,...sk->...sn", q, np.einsum("snk,...sn->...sk", q, v))
    wn = np.linalg.norm(w, axis=-1, keepdims=True)
    return np.divide(w, wn, out=np.zeros_like(w), where=wn > 1e-12)


def _candidates(P: BallPolyhedron, theta: np.ndarray):
    """Feasible candidate maximizers of <y, theta> over P, one array per
    batch of ``_spheres`` that has any.

    The candidate of a sphere is z + rho * w, w the normalized
    projection of theta onto the complement (0 if theta lies in the
    span). Extreme points lie on such spheres (Caratheodory) and the
    KKT conditions put the maximizer at its sphere's candidate, so
    h_P(theta) is the best feasible one.
    """
    slack = CANDIDATE_RTOL * float(np.max(P.radii))
    for k, q, z, rho in _spheres(P):
        y = z + rho[:, None] * _toward(q[:, :, : k - 1], np.broadcast_to(theta, z.shape))
        y = y[P.contains(y, slack)]
        if y.shape[0]:
            yield y


def project_points_onto_ballpoly(P: BallPolyhedron, points: np.ndarray):
    """Nearest points of the ball intersection, exactly, in any dimension.

    Returns ``(projections (m, n), converged (m,) bool)``. A point of P
    is its own projection. For a point x outside, the KKT conditions
    give x - y = sum_{i in S} lambda_i (y - c_i) with lambda_i > 0 for
    some S of at most n balls with affinely independent centres, so the
    nearest point y lies on the sphere of S (``_spheres``) on the side
    of x: y = z + rho * w, w the normalized projection of x - z onto the
    complement of the centres' span. At |S| = n both points z +- rho * nu
    are kept, and they do not depend on x. y is the nearest candidate
    that lies in every ball within CANDIDATE_RTOL of the largest radius;
    it is the projection onto the ball farthest from x whenever that
    projection is feasible, which is checked first.
    A row is unconverged, and NaN, only when no candidate is feasible,
    which is when P is empty. Points go through in batches of at most
    CANDIDATE_BATCH (point, candidate) pairs, which bounds the memory.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[1]
    c, r = P.centers, P.radii
    proj = x.copy()
    converged = np.ones(x.shape[0], dtype=bool)
    outside = np.flatnonzero(~P.contains(x))
    slack = CANDIDATE_RTOL * float(np.max(r))
    spheres, vertices = [], [np.empty((0, n))]
    for k, q, z, rho in _spheres(P):
        if k < n:
            spheres.append((q[:, :, : k - 1], z, rho))
        else:
            nu = rho[:, None] * q[:, :, n - 1]
            vertices += [z + nu, z - nu]
    vertices = np.concatenate(vertices)
    vertices = vertices[P.contains(vertices, slack)]
    moving = sum(z.shape[0] for _, z, _ in spheres)  # candidates that depend on x
    width = moving + vertices.shape[0]
    if width == 0:  # only in one dimension, where every candidate is a vertex
        proj[outside], converged[outside] = np.nan, False
        return proj, converged
    step = max(1, CANDIDATE_BATCH // width)
    for lo in range(0, outside.size, step):
        rows = outside[lo : lo + step]
        # d(x, P) >= d(x, B_i) for every ball, so where the projection
        # onto the farthest ball is feasible, it is the nearest point.
        i = np.argmax(np.stack([np.linalg.norm(x[rows] - ci, axis=1) - ri
                                for ci, ri in zip(c, r)], axis=1), axis=1)
        d = x[rows] - c[i]
        y = c[i] + d * (r[i] / np.linalg.norm(d, axis=1))[:, None]
        face = P.contains(y, slack)
        proj[rows[face]] = y[face]
        rows = rows[~face]
        xb, at = x[rows], np.arange(rows.size)
        y = [z + rho[:, None] * _toward(q, xb[:, None, :] - z) for q, z, rho in spheres]
        y = np.concatenate(y + [np.broadcast_to(vertices, (rows.size,) + vertices.shape)], axis=1)
        feasible = np.ones((rows.size, width), dtype=bool)
        feasible[:, :moving] = P.contains(y[:, :moving].reshape(-1, n), slack).reshape(
            rows.size, moving)
        d2 = np.where(feasible, np.sum((y - xb[:, None, :]) ** 2, axis=2), np.inf)
        best = np.argmin(d2, axis=1)
        converged[rows] = feasible[at, best]
        proj[rows] = np.where(converged[rows, None], y[at, best], np.nan)
    return proj, converged


def distances_to_ballpoly(P: BallPolyhedron, points: np.ndarray):
    """Batched distances to the intersection; returns (dists, converged),
    with the contract of ``project_points_onto_ballpoly``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = P.contains(pts)
    dists = np.zeros(pts.shape[0])
    converged = np.ones(pts.shape[0], dtype=bool)
    outside = ~inside
    if np.any(outside):
        proj, ok = project_points_onto_ballpoly(P, pts[outside])
        dists[outside] = np.linalg.norm(pts[outside] - proj, axis=1)
        converged[outside] = ok
    return dists, converged


def support_function(P: BallPolyhedron, theta: np.ndarray) -> float:
    """max <y, theta> over the ball intersection, exactly, in any
    dimension: the best feasible candidate of ``_candidates``. Raises
    EmptyIntersection when no candidate is feasible."""
    theta = as_unit(theta)
    values = [float(np.max(y @ theta)) for y in _candidates(P, theta)]
    if not values:
        raise EmptyIntersection("support function of an empty intersection")
    return max(values)


# ---------------------------------------------------------------------------
# Direction grids


@dataclass(frozen=True)
class DirectionGrid:
    """Quadrature grid on the unit sphere: unit directions plus weights
    summing to one (uniform-measure quadrature).

    2D grids are uniform in angle. In higher dimension the grid is a
    fixed low discrepancy point set with equal weights.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = _readonly(np.atleast_2d(self.directions))
        w = _readonly(np.atleast_1d(self.weights))
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "weights", w)
        norms = np.linalg.norm(d, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("grid directions must be unit vectors (1e-12)")
        if np.any(w <= 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("grid weights must be positive and sum to 1 (1e-12)")

    def __len__(self) -> int:
        return self.directions.shape[0]

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def uniform_2d(cls, size: int = DEFAULT_GRID_SIZE) -> "DirectionGrid":
        """Uniformly spaced angles 2*pi*k/size; size should be a multiple
        of 4 so the axis directions are on the grid."""
        ang = 2.0 * np.pi * np.arange(size) / size
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        return cls(dirs, np.full(size, 1.0 / size))

    @classmethod
    def fibonacci_3d(cls, size: int = DEFAULT_GRID_SIZE) -> "DirectionGrid":
        """Fibonacci spiral point set on S^2, equal weights."""
        i = np.arange(size) + 0.5
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / size
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return cls(dirs, np.full(size, 1.0 / size))

    @classmethod
    def for_dimension(cls, n: int, size: int = DEFAULT_GRID_SIZE) -> "DirectionGrid":
        """Default grid: uniform angles (2D), Fibonacci (3D), or a
        symmetrized random set drawn from stream (0, n, size) for n >= 4."""
        if n == 1:
            return cls(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        if n == 2:
            return cls.uniform_2d(size)
        if n == 3:
            return cls.fibonacci_3d(size)
        from .rng import stream, uniform_on_sphere

        half = uniform_on_sphere(stream(0, n, size), n, size // 2)
        dirs = np.vstack([half, -half])
        return cls(dirs, np.full(dirs.shape[0], 1.0 / dirs.shape[0]))

# ---------------------------------------------------------------------------
# Support bodies


class SupportBody:
    """Convex body represented by an exact support-function oracle
    (balls, polytopes, segments, cubes). ``values`` caches the oracle
    on the grid. It is also the boundary function f of ``wulff``: any
    positive oracle serves as f.
    """

    def __init__(
        self,
        dimension: int,
        grid: DirectionGrid,
        oracle: Callable[[np.ndarray], np.ndarray],
    ):
        if grid.dimension != dimension:
            raise ValueError("grid dimension mismatch")
        self.dimension = dimension
        self.grid = grid
        self.oracle = oracle
        self.values = _readonly(np.asarray(oracle(grid.directions), dtype=float))

    # -- constructors ------------------------------------------------------

    @classmethod
    def ball(cls, center: np.ndarray, radius: float, grid: DirectionGrid) -> "SupportBody":
        center = np.asarray(center, dtype=float)

        def h(dirs):
            return dirs @ center + radius

        return cls(center.shape[0], grid, oracle=h)

    @classmethod
    def polytope(cls, vertices: np.ndarray, grid: DirectionGrid) -> "SupportBody":
        v = np.atleast_2d(np.asarray(vertices, dtype=float))

        def h(dirs):
            return np.max(np.atleast_2d(dirs) @ v.T, axis=1)

        return cls(v.shape[1], grid, oracle=h)

    @classmethod
    def segment(cls, a: np.ndarray, b: np.ndarray, grid: DirectionGrid) -> "SupportBody":
        return cls.polytope(np.vstack([a, b]), grid)

    @classmethod
    def cube(cls, side: float, n: int, grid: DirectionGrid) -> "SupportBody":
        half = side / 2.0

        def h(dirs):
            return half * np.sum(np.abs(np.atleast_2d(dirs)), axis=1)

        return cls(n, grid, oracle=h)

    # -- evaluation --------------------------------------------------------

    def support(self, dirs: np.ndarray) -> np.ndarray:
        """Support function on unit direction rows."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.asarray(self.oracle(dirs), dtype=float)

    def mean_width(self) -> float:
        """w = 2 * integral of h over the sphere, on the body's grid."""
        return 2.0 * float(np.dot(self.grid.weights, self.values))


# ---------------------------------------------------------------------------
# Star bodies


class StarBody:
    """Star-shaped body about the origin, represented by a positive
    radial oracle; ``values`` caches the oracle on the grid."""

    def __init__(
        self,
        dimension: int,
        grid: DirectionGrid,
        oracle: Callable[[np.ndarray], np.ndarray],
    ):
        if grid.dimension != dimension:
            raise ValueError("grid dimension mismatch")
        self.dimension = dimension
        self.grid = grid
        self.oracle = oracle
        self.values = _readonly(np.asarray(oracle(grid.directions), dtype=float))
        if np.any(self.values <= 0):
            raise ValueError("radial function must be positive on the grid")

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.asarray(self.oracle(dirs), dtype=float)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership mask: |x| <= rho(x/|x|) + 1e-12; the origin is in."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(pts, axis=1)
        inside = np.ones(pts.shape[0], dtype=bool)
        nz = norms > 0
        if np.any(nz):
            rho = self.radial(pts[nz] / norms[nz, None])
            inside[nz] = norms[nz] <= rho + 1e-12
        return inside

    @property
    def max_radius(self) -> float:
        return float(np.max(self.values))
