"""Sampling densities with closed-form transforms.

Only closed-form families are supported: uniform densities on tagged
regions, radial step densities, 1D step densities and their products.
Each family knows its supremum bound, its total mass, an exact sampler,
and its symmetric decreasing rearrangement; where possible it also
integrates itself exactly over centered balls and boxes, which is what
makes peakedness comparisons testable rather than purely Monte-Carlo.

Rearrangement conventions: radial families rearrange to radial
decreasing step densities; product families rearrange coordinate-wise
(each factor becomes an even decreasing density on the line), which is
the transform the product-density dominance argument consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from . import exact2d
from .errors import RejectionStall, UnsupportedTag
from .geometry import BallPolyhedron, StarBody
from .intrinsic import omega
from .rng import stream, uniform_in_ball, uniform_on_sphere

MASS_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region [lo_i, hi_i] per coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("box needs lo < hi per coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    @classmethod
    def centered_cube(cls, side: float, n: int) -> "Box":
        h = side / 2.0
        return cls(np.full(n, -h), np.full(n, h))


@dataclass(frozen=True)
class BallRegion:
    """Euclidean ball region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def volume(self) -> float:
        return omega(self.dimension) * self.radius ** self.dimension


Region = Union[Box, BallRegion, BallPolyhedron, StarBody]


class Density:
    """Base class; concrete families implement the closed forms."""

    dimension: int

    @property
    def sup_bound(self) -> float:
        raise NotImplementedError

    def mass(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def pdf(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rearranged(self) -> "Density":
        raise NotImplementedError

    # Exact integrals over centered witnesses; None = not closed form.
    def integral_over_ball(self, r: float) -> Optional[float]:
        return None

    def integral_over_box(self, halfwidth: float) -> Optional[float]:
        return None


# ---------------------------------------------------------------------------
# Uniform densities on regions


class UniformBody(Density):
    """Uniform probability density on a tagged region.

    Region volume is closed form for boxes and balls, exact (arc
    decomposition) for planar ball-polyhedra, and spherical quadrature
    for star bodies (accuracy set by the star body's grid).
    """

    def __init__(self, region: Region):
        self.region = region
        self.dimension = region.dimension
        if isinstance(region, Box):
            self._volume = region.volume
        elif isinstance(region, BallRegion):
            self._volume = region.volume
        elif isinstance(region, BallPolyhedron):
            if region.dimension != 2:
                raise UnsupportedTag("uniform ball-polyhedron densities are 2D only")
            self._region2d = exact2d.region_of(region)
            if self._region2d.empty:
                raise ValueError("region is empty")
            self._volume = self._region2d.area
        elif isinstance(region, StarBody):
            g = region.grid
            n = region.dimension
            self._volume = omega(n) * float(np.dot(g.weights, region.radial(g.directions) ** n))
        else:
            raise UnsupportedTag(f"unsupported region type {type(region).__name__}")
        if self._volume <= 0:
            raise ValueError("region volume must be positive")

    @property
    def sup_bound(self) -> float:
        return 1.0 / self._volume

    def mass(self) -> float:
        return 1.0

    def volume(self) -> float:
        return self._volume

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        r = self.region
        if isinstance(r, Box):
            return np.all((pts >= r.lo) & (pts <= r.hi), axis=1)
        if isinstance(r, BallRegion):
            return np.sum((pts - r.center) ** 2, axis=1) <= r.radius**2
        if isinstance(r, BallPolyhedron):
            return r.contains(pts)
        return r.contains(pts)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return self._contains(pts) / self._volume

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        r = self.region
        if isinstance(r, Box):
            return rng.random((size, self.dimension)) * (r.hi - r.lo) + r.lo
        if isinstance(r, BallRegion):
            return r.center + r.radius * uniform_in_ball(rng, self.dimension, size)
        if isinstance(r, BallPolyhedron):
            ball = r.smallest
            envelope = lambda m: ball.center + ball.radius * uniform_in_ball(rng, 2, m)
        else:  # StarBody
            rad = r.max_radius
            envelope = lambda m: rad * uniform_in_ball(rng, self.dimension, m)
        out = np.empty((size, self.dimension))
        got = 0
        attempts = 0
        while got < size:
            m = max(2 * (size - got), 1024)
            cand = envelope(m)
            keep = cand[self._contains(cand)]
            attempts += m
            if attempts > 1024 and got + keep.shape[0] < 1e-6 * attempts:
                raise RejectionStall(
                    f"acceptance rate below 1e-6 after {attempts} proposals"
                )
            take = min(size - got, keep.shape[0])
            out[got:got + take] = keep[:take]
            got += take
        return out

    def rearranged(self) -> "RadialStep":
        vr = (self._volume / omega(self.dimension)) ** (1.0 / self.dimension)
        return RadialStep([vr], [1.0 / self._volume], self.dimension)

    def integral_over_ball(self, r: float) -> Optional[float]:
        reg = self.region
        if isinstance(reg, BallRegion) and np.all(reg.center == 0.0):
            # Overlap of two centered balls is the smaller one.
            rr = min(r, reg.radius)
            return omega(self.dimension) * rr**self.dimension / self._volume
        if isinstance(reg, Box) and self.dimension == 1:
            lo, hi = float(reg.lo[0]), float(reg.hi[0])
            return max(0.0, min(r, hi) - max(-r, lo)) / self._volume
        return None

    def integral_over_box(self, halfwidth: float) -> Optional[float]:
        reg = self.region
        if isinstance(reg, Box):
            inter = np.minimum(reg.hi, halfwidth) - np.maximum(reg.lo, -halfwidth)
            return float(np.prod(np.maximum(inter, 0.0))) / self._volume
        return None


# ---------------------------------------------------------------------------
# Radial step densities


class RadialStep(Density):
    """Piecewise-constant radial density: heights[k] on the shell
    radii[k-1] < |x| <= radii[k] (radii ascending, radii[-1] is the
    support radius). The workhorse for rearranged densities."""

    def __init__(self, radii: Sequence[float], heights: Sequence[float], n: int):
        self.radii = np.asarray(radii, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.dimension = int(n)
        if self.radii.ndim != 1 or self.radii.shape != self.heights.shape:
            raise ValueError("radii and heights must be 1D of equal length")
        if np.any(self.radii <= 0) or np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be positive and strictly ascending")
        if np.any(self.heights < 0):
            raise ValueError("heights must be nonnegative")
        lower = np.concatenate([[0.0], self.radii[:-1]])
        self._shell_vols = omega(n) * (self.radii**n - lower**n)
        self._shell_mass = self.heights * self._shell_vols
        total = float(np.sum(self._shell_mass))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {total} is not 1 within {MASS_TOL:g}")
        self._lower = lower

    @property
    def sup_bound(self) -> float:
        return float(np.max(self.heights))

    def mass(self) -> float:
        return float(np.sum(self._shell_mass))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        rho = np.linalg.norm(pts, axis=1)
        idx = np.searchsorted(self.radii, rho, side="left")
        out = np.zeros(pts.shape[0])
        ok = idx < self.radii.size
        out[ok] = self.heights[idx[ok]]
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = self.dimension
        shells = rng.choice(self.radii.size, size=size, p=self._shell_mass)
        u = rng.random(size)
        lo_n = self._lower[shells] ** n
        hi_n = self.radii[shells] ** n
        rho = (lo_n + u * (hi_n - lo_n)) ** (1.0 / n)
        if n == 1:
            sign = rng.choice([-1.0, 1.0], size=size)
            return (rho * sign)[:, None]
        return uniform_on_sphere(rng, n, size) * rho[:, None]

    def rearranged(self) -> "RadialStep":
        order = np.argsort(-self.heights, kind="stable")
        heights = self.heights[order]
        vols = self._shell_vols[order]
        keep = heights > 0
        heights, vols = heights[keep], vols[keep]
        cum = np.cumsum(vols)
        radii = (cum / omega(self.dimension)) ** (1.0 / self.dimension)
        # Merge equal heights (produced radii must be strictly ascending).
        merged_r, merged_h = [], []
        for r, h in zip(radii, heights):
            if merged_h and abs(h - merged_h[-1]) <= 1e-15 * max(1.0, abs(h)):
                merged_r[-1] = r
            else:
                merged_r.append(r)
                merged_h.append(h)
        return RadialStep(merged_r, merged_h, self.dimension)

    def is_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.heights) <= 1e-15))

    def integral_over_ball(self, r: float) -> float:
        lo = np.minimum(self._lower, r)
        hi = np.minimum(self.radii, r)
        n = self.dimension
        return float(np.sum(self.heights * omega(n) * (hi**n - lo**n)))

    def integral_over_box(self, halfwidth: float) -> Optional[float]:
        if self.dimension == 1:
            return self.integral_over_ball(halfwidth)
        return None

    def level_set_volume(self, s: float) -> float:
        """Volume of {f > s}; closed form for the equimeasurability check."""
        return float(np.sum(self._shell_vols[self.heights > s]))


# ---------------------------------------------------------------------------
# One-dimensional step densities and products


class Box1DStep(Density):
    """Piecewise-constant density on the line: heights[k] on
    (breaks[k], breaks[k+1]]."""

    def __init__(self, breaks: Sequence[float], heights: Sequence[float]):
        self.breaks = np.asarray(breaks, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.dimension = 1
        if self.breaks.size != self.heights.size + 1:
            raise ValueError("need len(breaks) == len(heights) + 1")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly ascending")
        if np.any(self.heights < 0):
            raise ValueError("heights must be nonnegative")
        self._lengths = np.diff(self.breaks)
        self._masses = self.heights * self._lengths
        total = float(np.sum(self._masses))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {total} is not 1 within {MASS_TOL:g}")

    @property
    def sup_bound(self) -> float:
        return float(np.max(self.heights))

    def mass(self) -> float:
        return float(np.sum(self._masses))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(points)[:, 0]
        idx = np.searchsorted(self.breaks, x, side="left") - 1
        out = np.zeros(x.shape[0])
        ok = (idx >= 0) & (idx < self.heights.size)
        out[ok] = self.heights[idx[ok]]
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        piece = rng.choice(self.heights.size, size=size, p=self._masses)
        u = rng.random(size)
        x = self.breaks[piece] + u * self._lengths[piece]
        return x[:, None]

    def rearranged(self) -> RadialStep:
        """Even decreasing rearrangement on the line, as a 1D radial step."""
        order = np.argsort(-self.heights, kind="stable")
        heights = self.heights[order]
        lengths = self._lengths[order]
        keep = heights > 0
        heights, lengths = heights[keep], lengths[keep]
        cum = np.cumsum(lengths)
        merged_r, merged_h = [], []
        for r, h in zip(cum / 2.0, heights):
            if merged_h and abs(h - merged_h[-1]) <= 1e-15 * max(1.0, abs(h)):
                merged_r[-1] = r
            else:
                merged_r.append(r)
                merged_h.append(h)
        return RadialStep(merged_r, merged_h, 1)

    def integral_over_ball(self, r: float) -> float:
        lo = np.clip(-r, self.breaks[:-1], self.breaks[1:])
        hi = np.clip(r, self.breaks[:-1], self.breaks[1:])
        return float(np.sum(self.heights * (hi - lo)))

    def integral_over_box(self, halfwidth: float) -> float:
        return self.integral_over_ball(halfwidth)


class Product1D(Density):
    """Product of independent 1D densities, one per coordinate."""

    def __init__(self, factors: List[Density]):
        for f in factors:
            if f.dimension != 1:
                raise ValueError("product factors must be one-dimensional")
        self.factors = list(factors)
        self.dimension = len(factors)

    @property
    def sup_bound(self) -> float:
        return float(np.prod([f.sup_bound for f in self.factors]))

    def mass(self) -> float:
        return float(np.prod([f.mass() for f in self.factors]))

    def pdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        out = np.ones(pts.shape[0])
        for k, f in enumerate(self.factors):
            out *= f.pdf(pts[:, k][:, None])
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cols = [f.sample(rng, size)[:, 0] for f in self.factors]
        return np.column_stack(cols)

    def rearranged(self) -> "Product1D":
        """Coordinate-wise rearrangement (each factor becomes even
        decreasing); the result is a product again, not radial."""
        return Product1D([f.rearranged() for f in self.factors])

    def integral_over_box(self, halfwidth: float) -> Optional[float]:
        total = 1.0
        for f in self.factors:
            v = f.integral_over_box(halfwidth)
            if v is None:
                return None
            total *= v
        return total


def ball_extremizer(n: int, sup_bound: float = 1.0) -> UniformBody:
    """Uniform density a*1_{bB} with sup a and total mass one.

    For sup_bound one this is the uniform density on the centered ball
    of unit volume (radius omega_n^{-1/n})."""
    b = (sup_bound * omega(n)) ** (-1.0 / n)
    return UniformBody(BallRegion(np.zeros(n), b))


def cube_extremizer(factor_sups: Sequence[float]) -> Product1D:
    """Product of uniform densities on [-1/(2a_i), 1/(2a_i)] matching
    per-coordinate sup bounds a_i; all ones gives the unit cube."""
    factors = []
    for a in factor_sups:
        h = 0.5 / a
        factors.append(Box1DStep([-h, h], [a]))
    return Product1D(factors)


# ---------------------------------------------------------------------------
# Peakedness comparison


@dataclass
class PeakednessReport:
    """Outcome of testing 'f less peaked than g' on symmetric convex
    witnesses: integral of f minus integral of g must never exceed the
    Monte-Carlo margin."""

    verdict: str  # 'HOLDS' | 'VIOLATED' | 'INCONCLUSIVE'
    max_excess: float
    max_excess_sigma: float
    witness: Optional[dict] = None
    n_witnesses: int = 0


def _witness_excess(f: Density, g: Density, kind: str, param, trials: int,
                    rng_f, rng_g):
    """(excess, stderr, exact) for one symmetric convex witness."""
    if kind == "ball":
        inf, ing = f.integral_over_ball(param), g.integral_over_ball(param)
        if inf is not None and ing is not None:
            return inf - ing, 0.0, True
        member = lambda x: np.linalg.norm(x, axis=1) <= param
    elif kind == "box":
        inf, ing = f.integral_over_box(param), g.integral_over_box(param)
        if inf is not None and ing is not None:
            return inf - ing, 0.0, True
        member = lambda x: np.all(np.abs(x) <= param, axis=1)
    else:  # slab intersection: param = (U rows, widths)
        U, widths = param
        member = lambda x: np.all(np.abs(x @ U.T) <= widths, axis=1)
    xf = f.sample(rng_f, trials)
    xg = g.sample(rng_g, trials)
    pf = float(np.mean(member(xf)))
    pg = float(np.mean(member(xg)))
    se = math.sqrt((pf * (1 - pf) + pg * (1 - pg)) / trials + 1e-300)
    return pf - pg, se, False


def _cover_radius(f: Density) -> float:
    if isinstance(f, RadialStep):
        return float(f.radii[-1])
    if isinstance(f, Box1DStep):
        return float(np.max(np.abs(f.breaks)))
    if isinstance(f, Product1D):
        return float(np.sqrt(sum(_cover_radius(x) ** 2 for x in f.factors)))
    if isinstance(f, UniformBody):
        r = f.region
        if isinstance(r, Box):
            return float(np.linalg.norm(np.maximum(np.abs(r.lo), np.abs(r.hi))))
        if isinstance(r, BallRegion):
            return float(np.linalg.norm(r.center) + r.radius)
        if isinstance(r, BallPolyhedron):
            b = r.smallest
            return float(np.linalg.norm(b.center) + b.radius)
        return r.max_radius
    return 1.0


def is_less_peaked(f: Density, g: Density, trials: int = 20_000, seed: int = 0,
                   scales: int = 20, random_witnesses: int = 40) -> PeakednessReport:
    """Test whether f is less peaked than g: integral of f over every
    centered symmetric convex set is at most that of g.

    Witnesses are centered balls and boxes at ``scales`` sizes plus
    random symmetric slab intersections. Exact integrals are used where
    the families provide them; otherwise the excess is estimated by
    sampling and a violation requires a margin above 4 standard errors.
    """
    if f.dimension != g.dimension:
        raise ValueError("densities must share the dimension")
    n = f.dimension
    cover = 1.05 * max(_cover_radius(f), _cover_radius(g))
    witnesses = []
    for i, t in enumerate(np.geomspace(0.05 * cover, cover, scales)):
        witnesses.append(("ball", float(t)))
        witnesses.append(("box", float(t)))
    rng_w = stream(seed, 0)
    for _ in range(random_witnesses):
        k = int(rng_w.integers(1, n + 2))
        U = uniform_on_sphere(rng_w, n, k)
        widths = rng_w.uniform(0.1, 1.0, size=k) * cover
        witnesses.append(("slab", (U, widths)))

    worst = (-np.inf, 0.0, None)  # (excess, sigma-units, witness)
    inconclusive = False
    violated = None
    for idx, (kind, param) in enumerate(witnesses):
        excess, se, exact = _witness_excess(
            f, g, kind, param, trials, stream(seed, 1, idx), stream(seed, 2, idx)
        )
        z = excess / se if se > 0 else (np.inf if excess > 1e-9 else 0.0)
        if excess > worst[0]:
            worst = (excess, z, {"kind": kind, "param": param, "stderr": se, "exact": exact})
        if (exact and excess > 1e-9) or (not exact and z > 4.0):
            violated = {"kind": kind, "param": param, "excess": excess, "stderr": se}
            break
        if not exact and z > 2.0:
            inconclusive = True

    if violated is not None:
        return PeakednessReport("VIOLATED", worst[0], worst[1], violated, len(witnesses))
    if inconclusive:
        return PeakednessReport("INCONCLUSIVE", worst[0], worst[1], worst[2], len(witnesses))
    return PeakednessReport("HOLDS", worst[0], worst[1], worst[2], len(witnesses))


# ---------------------------------------------------------------------------
# Planar grid densities and the directional symmetrization step


@dataclass
class GridDensity2D:
    """Piecewise-constant density on a uniform planar grid.

    ``values[iy, ix]`` is the density on the cell with lower corner
    ``origin + (ix*dx, iy*dy)``. ``frame`` rotates grid coordinates into
    world coordinates (world = R(frame) @ grid)."""

    values: np.ndarray
    origin: np.ndarray
    dx: float
    dy: float
    frame: float = 0.0

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dy)

    def cell_centers(self):
        ny, nx = self.values.shape
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.dx
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.dy
        return xs, ys

    def pdf_world(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        c, s = math.cos(self.frame), math.sin(self.frame)
        rot = np.array([[c, s], [-s, c]])  # world -> grid
        q = pts @ rot.T
        ix = np.floor((q[:, 0] - self.origin[0]) / self.dx).astype(int)
        iy = np.floor((q[:, 1] - self.origin[1]) / self.dy).astype(int)
        ny, nx = self.values.shape
        ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        out = np.zeros(pts.shape[0])
        out[ok] = self.values[iy[ok], ix[ok]]
        return out

    @classmethod
    def rasterize(cls, f: Density, extent: float, cells: int, frame: float = 0.0,
                  subsamples: int = 4) -> "GridDensity2D":
        """Rasterize a planar density on [-extent, extent]^2 in the
        given frame by cell supersampling."""
        if f.dimension != 2:
            raise UnsupportedTag("grid densities are 2D only")
        d = 2.0 * extent / cells
        origin = np.array([-extent, -extent])
        sub = (np.arange(subsamples) + 0.5) / subsamples * d
        xs = origin[0] + np.arange(cells)[:, None] * d + sub[None, :]
        ys = origin[1] + np.arange(cells)[:, None] * d + sub[None, :]
        X = xs.reshape(-1)
        Y = ys.reshape(-1)
        gx, gy = np.meshgrid(X, Y)
        pts_grid = np.column_stack([gx.ravel(), gy.ravel()])
        c, s = math.cos(frame), math.sin(frame)
        rot = np.array([[c, -s], [s, c]])  # grid -> world
        vals = f.pdf(pts_grid @ rot.T)
        vals = vals.reshape(cells, subsamples, cells, subsamples).mean(axis=(1, 3))
        return cls(vals, origin, d, d, frame)


def _rearrange_column(col: np.ndarray) -> np.ndarray:
    """Discrete even decreasing rearrangement of one cell column:
    largest values in the middle, alternating outward."""
    ny = col.size
    order = np.argsort(-col, kind="stable")
    out = np.empty_like(col)
    mid_hi = ny // 2
    mid_lo = mid_hi - 1
    for rank, idx in enumerate(order):
        if rank % 2 == 0:
            pos = mid_hi + rank // 2
        else:
            pos = mid_lo - rank // 2
        out[pos] = col[idx]
    return out


def steiner_symmetral_density(f, theta: np.ndarray, cells: int = 128,
                              extent: Optional[float] = None) -> GridDensity2D:
    """Rearrange a planar density along every line parallel to theta.

    The density is rasterized on a grid whose column axis is theta
    (general directions rotate the frame), and each column is replaced
    by its even decreasing rearrangement. Per-line mass is preserved
    exactly (the step is a permutation of cells) and the result is
    symmetric about the line through the origin orthogonal to theta.
    """
    theta = np.asarray(theta, dtype=float)
    ang = math.atan2(theta[1], theta[0]) - math.pi / 2.0
    if isinstance(f, GridDensity2D):
        if extent is None:
            ny, nx = f.values.shape
            extent = max(nx * f.dx, ny * f.dy) / 2.0 * math.sqrt(2.0)
        base = GridDensity2D.rasterize(_GridAsDensity(f), extent, cells, frame=ang)
    else:
        if f.dimension != 2:
            raise UnsupportedTag("directional symmetrization is 2D only")
        if extent is None:
            extent = 1.05 * _cover_radius(f)
        base = GridDensity2D.rasterize(f, extent, cells, frame=ang)
    out = np.empty_like(base.values)
    for ix in range(base.values.shape[1]):
        out[:, ix] = _rearrange_column(base.values[:, ix])
    return GridDensity2D(out, base.origin, base.dx, base.dy, base.frame)


class _GridAsDensity(Density):
    """Adapter so a grid density can be re-rasterized in a new frame."""

    def __init__(self, g: GridDensity2D):
        self.grid = g
        self.dimension = 2

    def pdf(self, points: np.ndarray) -> np.ndarray:
        return self.grid.pdf_world(points)


def l1_distance_to_density(g: GridDensity2D, f: Density, extent: float,
                           cells: int = 256) -> float:
    """L1 distance between a grid density and a closed-form density,
    by midpoint quadrature in the world frame."""
    d = 2.0 * extent / cells
    xs = -extent + (np.arange(cells) + 0.5) * d
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return float(np.sum(np.abs(g.pdf_world(pts) - f.pdf(pts))) * d * d)
