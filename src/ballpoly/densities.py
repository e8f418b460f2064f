"""Sampling densities with closed-form transforms.

Only closed-form families are supported: uniform densities on tagged
regions, radial step densities, 1D step densities and their products.
Each family knows its supremum bound, its total mass, an exact sampler,
and its symmetric decreasing rearrangement.

Rearrangement conventions: radial families rearrange to radial
decreasing step densities; product families rearrange coordinate-wise
(each factor becomes an even decreasing density on the line), which is
the transform the product-density dominance argument consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from . import exact2d
from .errors import RejectionStall, UnsupportedTag
from .geometry import BallPolyhedron, StarBody
from .intrinsic import omega
from .rng import uniform_in_ball, uniform_on_sphere
# Unused here, but the benchmark's span tracer patches
# ``densities.stream`` by name, so the binding must exist.
from .rng import stream  # noqa: F401

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

    def _contains(self, pts: np.ndarray) -> np.ndarray:
        r = self.region
        if isinstance(r, Box):
            return np.all((pts >= r.lo) & (pts <= r.hi), axis=1)
        if isinstance(r, BallRegion):
            return np.sum((pts - r.center) ** 2, axis=1) <= r.radius**2
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


# ---------------------------------------------------------------------------
# Radial step densities


def _decreasing_steps(heights, measures, radius_of, n: int) -> "RadialStep":
    """Radial step density of the symmetric decreasing rearrangement of
    pieces with the given heights and measures (volumes or lengths):
    pieces sorted by decreasing height, zero heights dropped, and
    ``radius_of`` mapping the cumulative measure to the shell's outer
    radius. Equal heights merge, so the radii ascend strictly."""
    order = np.argsort(-heights, kind="stable")
    heights, measures = heights[order], measures[order]
    keep = heights > 0
    radii = radius_of(np.cumsum(measures[keep]))
    merged_r, merged_h = [], []
    for r, h in zip(radii, heights[keep]):
        if merged_h and abs(h - merged_h[-1]) <= 1e-15 * max(1.0, abs(h)):
            merged_r[-1] = r
        else:
            merged_r.append(r)
            merged_h.append(h)
    return RadialStep(merged_r, merged_h, n)


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
        n = self.dimension
        return _decreasing_steps(self.heights, self._shell_vols,
                                 lambda cum: (cum / omega(n)) ** (1.0 / n), n)

    def is_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.heights) <= 1e-15))

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
        return _decreasing_steps(self.heights, self._lengths, lambda cum: cum / 2.0, 1)


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
