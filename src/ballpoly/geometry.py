"""Vector geometry for ball-polyhedra and support-function bodies.

A ball-polyhedron is the intersection of finitely many closed Euclidean
balls. Everything downstream (volume estimation, dominance experiments,
halfspace approximation) builds on four primitives implemented here:

* cyclic Dykstra projection onto the intersection (nearest-point map),
* support-function evaluation by projected ascent,
* convex bodies represented by support oracles on a direction grid,
* star bodies represented by radial oracles.

All values are immutable after construction; every operation is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EmptyIntersection, NonConvergence, ZeroVector

# Dykstra defaults: tol is the max iterate movement over one full cycle.
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000

# Default direction-grid resolution in 2D/3D.
DEFAULT_GRID_SIZE = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def as_unit(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate and return ``v`` as a unit vector (copy)."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    if abs(nv - 1.0) > tol:
        v = v / nv
    return v


def direction_of(x: np.ndarray) -> np.ndarray:
    """Unit direction of a nonzero point; raises ZeroVector at the origin."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ZeroVector("the origin has no direction")
    return x / nx


# ---------------------------------------------------------------------------
# Ball polyhedra


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _readonly(np.atleast_1d(self.center))
        object.__setattr__(self, "center", c)
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"ball radius must be positive, got {self.radius}")


class BallPolyhedron:
    """Intersection of finitely many closed balls (possibly empty).

    Emptiness is a legal state and is detected lazily: the cheap
    pairwise certificate ``certainly_empty`` catches disjoint pairs,
    and Dykstra non-convergence catches the rest.
    """

    def __init__(self, balls: Sequence[Ball]):
        if len(balls) == 0:
            raise ValueError("a ball-polyhedron needs at least one ball")
        dims = {b.center.shape[0] for b in balls}
        if len(dims) != 1:
            raise ValueError(f"ball centers disagree on dimension: {sorted(dims)}")
        self.balls = tuple(balls)
        self.dimension = dims.pop()
        self.centers = _readonly(np.stack([b.center for b in balls]))
        self.radii = _readonly(np.array([b.radius for b in balls]))

    @classmethod
    def from_arrays(cls, centers: np.ndarray, radii) -> "BallPolyhedron":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape[:1])
        return cls([Ball(c, float(r)) for c, r in zip(centers, radii)])

    def __len__(self) -> int:
        return len(self.balls)

    def __repr__(self) -> str:
        return f"BallPolyhedron(n={self.dimension}, balls={len(self.balls)})"

    @property
    def smallest(self) -> Ball:
        """Ball of minimal radius (its ball contains the intersection)."""
        return self.balls[int(np.argmin(self.radii))]

    def certainly_empty(self) -> bool:
        """Fast certificate: some pair of balls is disjoint."""
        c, r = self.centers, self.radii
        d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
        gap = np.sqrt(d2) - (r[:, None] + r[None, :])
        return bool(np.any(gap > 0.0))

    def contains(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        """Boolean mask: which points lie in every ball (within slack)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for c, r in zip(self.centers, self.radii):
            d2 = np.sum((pts - c) ** 2, axis=1)
            inside &= d2 <= (r + slack) ** 2
        return inside


def _project_onto_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d = points - center
    dist = np.linalg.norm(d, axis=1)
    out = dist > radius
    if np.any(out):
        points = points.copy()
        points[out] = center + d[out] * (radius / dist[out])[:, None]
    return points


def project_points_onto_ballpoly(
    P: BallPolyhedron,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Batched cyclic Dykstra projection onto the intersection of balls.

    Parameters
    ----------
    P : BallPolyhedron
    points : (m, n) array
    tol : convergence threshold on the iterate movement per full cycle
    max_iter : maximum number of full cycles

    Returns
    -------
    projections : (m, n) array
    converged : (m,) boolean mask

    Dykstra's corrections make the limit the true nearest point of the
    intersection, not merely a feasible point. Non-converged rows signal
    an empty or numerically empty intersection.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    m, n = x.shape
    k = len(P)
    corrections = np.zeros((k, m, n))
    active = np.ones(m, dtype=bool)
    converged = np.zeros(m, dtype=bool)
    centers, radii = P.centers, P.radii
    # Small movement alone does not certify feasibility: on an empty
    # intersection the iterates settle into a gap cycle. Convergence
    # additionally requires membership in every ball within viol_tol.
    viol_tol = 10.0 * tol * max(1.0, float(np.max(radii)))
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa = x[idx]
        start = xa.copy()
        for i in range(k):
            y = xa + corrections[i, idx]
            proj = _project_onto_ball(y, centers[i], radii[i])
            corrections[i, idx] = y - proj
            xa = proj
        x[idx] = xa
        moved = np.linalg.norm(xa - start, axis=1)
        viol = np.zeros(idx.size)
        for i in range(k):
            d = np.linalg.norm(xa - centers[i], axis=1) - radii[i]
            np.maximum(viol, d, out=viol)
        ok = (moved <= tol) & (viol <= viol_tol)
        stuck = (moved <= tol * 1e-3) & (viol > viol_tol)
        converged[idx[ok]] = True
        active[idx] = ~(ok | stuck)
    return x, converged


def project_onto_ballpoly(
    P: BallPolyhedron,
    x: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Euclidean-nearest point of the intersection, within tol.

    Raises NonConvergence when the iteration stalls (empty or
    near-empty intersection for this tolerance).
    """
    proj, ok = project_points_onto_ballpoly(P, np.asarray(x, dtype=float)[None, :], tol, max_iter)
    if not ok[0]:
        raise NonConvergence(
            f"Dykstra projection did not converge in {max_iter} cycles (tol={tol:g}); "
            "the intersection is empty or numerically empty"
        )
    return proj[0]


def distances_to_ballpoly(
    P: BallPolyhedron,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Batched distances to the intersection; returns (dists, converged)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = P.contains(pts)
    dists = np.zeros(pts.shape[0])
    converged = np.ones(pts.shape[0], dtype=bool)
    outside = ~inside
    if np.any(outside):
        proj, ok = project_points_onto_ballpoly(P, pts[outside], tol, max_iter)
        dists[outside] = np.linalg.norm(pts[outside] - proj, axis=1)
        converged[outside] = ok
    return dists, converged


def distance_to_ballpoly(
    P: BallPolyhedron,
    x: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Euclidean distance from x to the intersection; 0 iff x inside."""
    d, ok = distances_to_ballpoly(P, np.asarray(x, dtype=float)[None, :], tol, max_iter)
    if not ok[0]:
        raise NonConvergence("distance query did not converge; intersection empty?")
    return float(d[0])


def support_function(
    P: BallPolyhedron,
    theta: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 400,
) -> float:
    """max <y, theta> over the ball intersection, by projected ascent.

    Diminishing steps c/k with a Dykstra projection after each step;
    once the c/k schedule stalls (value change below tol), a
    step-halving refinement pass handles non-smooth boundary corners,
    where the diminishing schedule alone converges too slowly.

    Raises EmptyIntersection on the pairwise certificate and propagates
    NonConvergence from the projection.
    """
    theta = as_unit(theta)
    if P.certainly_empty():
        raise EmptyIntersection("support function of an empty intersection")
    inner_tol = min(tol * 1e-2, 1e-10)
    c0 = float(np.max(P.radii))

    def proj(pt):
        return project_onto_ballpoly(P, pt, tol=inner_tol)

    y = proj(np.mean(P.centers, axis=0) + c0 * theta)
    h = float(np.dot(y, theta))
    stall = 0
    k = 0
    for k in range(1, max_iter + 1):
        y_new = proj(y + (c0 / k) * theta)
        h_new = float(np.dot(y_new, theta))
        y = y_new
        stall = stall + 1 if abs(h_new - h) < tol else 0
        h = h_new
        if stall >= 3:
            break
    # Refinement: halve the step until it is negligible.
    s = c0 / max(k, 1)
    floor = max(tol * 1e-2, 1e-14) * max(c0, 1.0)
    while s > floor:
        y_try = proj(y + s * theta)
        h_try = float(np.dot(y_try, theta))
        if h_try > h + 1e-16:
            y, h = y_try, h_try
        else:
            s *= 0.5
    return h


def reflect(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reflection about the hyperplane orthogonal to the unit vector u.

    Works on a single point or row-stacked points; an involution.
    """
    u = as_unit(u)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x - 2.0 * np.dot(x, u) * u
    return x - 2.0 * np.outer(x @ u, u)


# ---------------------------------------------------------------------------
# Direction grids


@dataclass(frozen=True)
class DirectionGrid:
    """Quadrature grid on the unit sphere: unit directions plus weights
    summing to one (uniform-measure quadrature).

    2D grids are uniform in angle, which makes reflections about grid
    directions exact index permutations. In higher dimension the grid
    is a fixed low discrepancy point set with equal weights.
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

    @property
    def is_uniform_2d(self) -> bool:
        return self.dimension == 2 and len(self) % 2 == 0

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
    def for_dimension(cls, n: int, size: int = DEFAULT_GRID_SIZE, seed: int = 0) -> "DirectionGrid":
        """Default grid: uniform angles (2D), Fibonacci (3D), or a
        fixed-seed symmetrized random set (n >= 4)."""
        if n == 1:
            return cls(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        if n == 2:
            return cls.uniform_2d(size)
        if n == 3:
            return cls.fibonacci_3d(size)
        from .rng import stream, uniform_on_sphere

        half = uniform_on_sphere(stream(seed, n, size), n, size // 2)
        dirs = np.vstack([half, -half])
        return cls(dirs, np.full(dirs.shape[0], 1.0 / dirs.shape[0]))

    def reflected_indices(self, j: int) -> np.ndarray:
        """Permutation k -> index of R_u(theta_k) for u = directions[j].

        Exact for uniform 2D grids of even size: reflecting the angle
        phi about the line orthogonal to u (angle alpha) gives
        2*alpha + pi - phi, which lands back on the grid.
        """
        if not self.is_uniform_2d:
            raise ValueError("index reflection needs a uniform 2D grid of even size")
        m = len(self)
        k = np.arange(m)
        return (2 * j + m // 2 - k) % m


# ---------------------------------------------------------------------------
# Support bodies


class SupportBody:
    """Convex body represented by an exact support-function oracle
    (balls, polytopes, symmetral composites). ``values`` caches the
    oracle on the grid.
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

    def support_one(self, direction: np.ndarray) -> float:
        return float(self.support(np.asarray(direction, dtype=float)[None, :])[0])

    def mean_width(self, grid: Optional[DirectionGrid] = None) -> float:
        """w = 2 * integral of h over the sphere (probability measure)."""
        g = grid if grid is not None else self.grid
        return 2.0 * float(np.dot(g.weights, self.support(g.directions)))


def minkowski_symmetral(K: SupportBody, u: np.ndarray) -> SupportBody:
    """Minkowski symmetral (K + R_u K)/2 about the hyperplane u-perp.

    On support functions this is the exact average
    h(theta) -> (h(theta) + h(R_u theta))/2, so the result's oracle is
    symmetric under R_u by construction and mean width is preserved.
    """
    u = as_unit(u)
    base = K.oracle

    def h(dirs):
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return 0.5 * (np.asarray(base(dirs)) + np.asarray(base(reflect(u, dirs))))

    return SupportBody(K.dimension, K.grid, oracle=h)


def hausdorff_distance(A: SupportBody, B: SupportBody, grid: Optional[DirectionGrid] = None) -> float:
    """Hausdorff distance of convex bodies via the support-function
    sup-norm, evaluated on a direction grid."""
    if A.dimension != B.dimension:
        raise ValueError("dimension mismatch")
    g = grid if grid is not None else A.grid
    return float(np.max(np.abs(A.support(g.directions) - B.support(g.directions))))


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

    @classmethod
    def ball(cls, radius: float, grid: DirectionGrid) -> "StarBody":
        return cls(grid.dimension, grid, oracle=lambda d: np.full(np.atleast_2d(d).shape[0], radius))

    def radial(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        return np.asarray(self.oracle(dirs), dtype=float)

    def radial_one(self, direction: np.ndarray) -> float:
        return float(self.radial(np.asarray(direction, dtype=float)[None, :])[0])

    def contains(self, points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        """Membership mask: |x| <= rho(x/|x|); the origin is always in."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(pts, axis=1)
        inside = np.ones(pts.shape[0], dtype=bool)
        nz = norms > 0
        if np.any(nz):
            rho = self.radial(pts[nz] / norms[nz, None])
            inside[nz] = norms[nz] <= rho + slack
        return inside

    @property
    def max_radius(self) -> float:
        return float(np.max(self.values))

    @property
    def min_radius(self) -> float:
        return float(np.min(self.values))


def radial_function(S: StarBody, theta: np.ndarray) -> float:
    """Radial function of a star body at a unit direction."""
    return S.radial_one(as_unit(theta))


def star_contains(S: StarBody, x: np.ndarray) -> bool:
    """True iff x lies in the star body (origin always does)."""
    return bool(S.contains(np.asarray(x, dtype=float)[None, :])[0])
