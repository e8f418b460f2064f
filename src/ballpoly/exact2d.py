"""Exact geometry of planar disk intersections.

The intersection of finitely many closed disks is a convex region
bounded by circular arcs. ``disk_region`` finds those arcs one circle
at a time, in plain floats: the part of circle i inside disk j is a
single arc, all of the circle or none of it, and the part of circle i
on the boundary is what every other disk leaves of it. Area and
perimeter follow from Green's theorem on the arcs. The module also
gives the region's support function and point-to-region distance. It
is the independent oracle against which the Monte-Carlo estimators are
checked, and the fast path for planar experiments.

Two circles that do not cross are the same disk (centres and radii
agree within ``TANGENCY_RTOL`` of the largest radius), disjoint or
touching disks (an empty region: touching disks meet in one point), or
one disk nested in the other. Tangency needs no special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import acos, atan2, cos, hypot, pi, sin

import numpy as np

from .errors import EmptyIntersection

TWO_PI = 2.0 * pi

# Window relative to the largest radius: disks whose centres and radii
# agree within it are one disk, and circles whose centre distance
# exceeds the radius difference by no more than it are nested.
TANGENCY_RTOL = 1e-12


@dataclass
class DiskRegion:
    """Arc decomposition of an intersection of closed disks.

    ``arcs`` has one row per boundary arc: (cx, cy, r, a0, da) with the
    arc running counterclockwise from angle a0 over da > 0. An empty
    region has no arcs and zero area/perimeter; a region bounded by one
    whole circle is a single arc with da = 2*pi.
    """

    centers: np.ndarray
    radii: np.ndarray
    empty: bool
    area: float
    perimeter: float
    arcs: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.empty:
            return np.zeros(pts.shape[0], dtype=bool)
        inside = np.ones(pts.shape[0], dtype=bool)
        for c, r in zip(self.centers, self.radii):
            inside &= np.sum((pts - c) ** 2, axis=1) <= r ** 2
        return inside


def _whole_disk_region(centers, radii, i) -> DiskRegion:
    (cx, cy), r = centers[i], radii[i]
    return DiskRegion(
        centers, radii, False, float(np.pi * r * r), float(TWO_PI * r),
        arcs=np.array([[cx, cy, r, 0.0, TWO_PI]]),
    )


# What a disk leaves of a circle that it does not cut into an arc.
_WHOLE = None  # the circle lies inside the disk
_NOTHING = ()  # the circle lies outside the disk, or repeats an earlier one


def _clip(pieces, a, b):
    """Intersect the disjoint angle intervals (start, end) of one circle,
    or the whole circle when ``pieces`` is None, with the arc from angle
    a to angle b, a < b < a + 2*pi."""
    if pieces is None:
        return [(a, b)]
    out = []
    for s, e in pieces:
        shift = TWO_PI * ((s - a) // TWO_PI)  # the arc's turn starting at or before s
        lo, hi = a + shift, b + shift
        if s < hi:
            out.append((s, e if e < hi else hi))
        lo += TWO_PI  # and the next turn, which may overlap the end of (s, e)
        if lo < e:
            hi += TWO_PI
            out.append((lo if lo > s else s, e if e < hi else hi))
    return out


def _uncut(d, ri, rj, tang, first):
    """What disks i and j at distance d leave of each other's circles
    when the circles do not cross, as (for circle i, for circle j); None
    when the disks are disjoint or touch. ``first``: circle i is visited
    before circle j, so it keeps a disk given twice."""
    if d <= tang and abs(ri - rj) <= tang:
        return (_WHOLE, _NOTHING) if first else (_NOTHING, _WHOLE)
    if d >= ri + rj:
        return None
    # One disk lies inside the other.
    return (_WHOLE, _NOTHING) if ri < rj else (_NOTHING, _WHOLE)


def disk_region(centers: np.ndarray, radii: np.ndarray) -> DiskRegion:
    """Arc decomposition of the intersection of closed disks.

    For each circle i the other disks are compared in turn: disk j at
    distance d keeps the arc of circle i centred on the direction of
    c_j - c_i with half-width acos((d^2 + r_i^2 - r_j^2) / (2 d r_i)),
    or all of the circle (disk i inside disk j), or none of it (disk j
    inside disk i). What remains of circle i is the intersection of
    those arcs, and circle i stops being compared once nothing
    remains. Two disjoint or touching disks (d >= r_i + r_j) make the
    region empty at once, and a circle nothing cuts is the region's
    whole boundary. Within the TANGENCY_RTOL window a repeated disk
    contributes once and a pair with d near |r_i - r_j| is nested. Area
    and perimeter follow from Green's theorem on the counterclockwise arcs.

    Circles are visited tight-first, by r_i - |c_i - centroid|, so the
    circles that bound the region are found early and cut the others
    away after few comparisons. Each pair is compared once: the result
    for the circle visited later is kept for its turn.

    Raises ValueError when the centres are not planar.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if centers.shape[1] != 2:
        raise ValueError(f"exact arc decomposition is 2D only, got centres {centers.shape}")
    xs, ys, rs = centers[:, 0].tolist(), centers[:, 1].tolist(), radii.tolist()
    n = len(rs)
    tang = TANGENCY_RTOL * max(rs)
    mx, my = sum(xs) / n, sum(ys) / n
    order = sorted(range(n), key=lambda i: rs[i] - hypot(xs[i] - mx, ys[i] - my))
    rank = [0] * n
    for k, i in enumerate(order):
        rank[i] = k
    # cuts[j][i]: what disk i leaves of circle j, found on circle i's turn.
    cuts = [{} for _ in range(n)]
    gone = [False] * n
    boundary = []

    for i in order:
        if gone[i]:
            continue
        xi, yi, ri = xs[i], ys[i], rs[i]
        known = cuts[i]
        pieces = None
        for cut in known.values():
            if cut is not _WHOLE:
                pieces = _clip(pieces, *cut)
                if not pieces:
                    break
        if pieces == []:
            continue
        for j in order:
            if j == i or j in known:
                continue
            rj = rs[j]
            dx, dy = xs[j] - xi, ys[j] - yi
            d = hypot(dx, dy)
            later = rank[j] > rank[i]
            if (ri - rj if ri > rj else rj - ri) + tang < d < ri + rj:
                # The circles cross: each keeps one arc of the other.
                # r_i^2 - r_j^2 is formed first, as a product: adding d^2
                # to r_i^2 first would round d^2 away when d << r, as for
                # neighbouring tangent balls.
                phi = atan2(dy, dx)
                d2, q = d * d, (ri - rj) * (ri + rj)
                c = (d2 + q) / (2.0 * d * ri)
                w = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
                if later and not gone[j]:
                    c = (d2 - q) / (2.0 * d * rj)
                    wj = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
                    back = atan2(-dy, -dx)
                    cuts[j][i] = (back - wj, back + wj)
                pieces = _clip(pieces, phi - w, phi + w)
                if not pieces:
                    break
                continue
            pair = _uncut(d, ri, rj, tang, later)
            if pair is None:
                return DiskRegion(centers, radii, True, 0.0, 0.0)
            cut_i, cut_j = pair
            if later and cut_j is _NOTHING:
                gone[j] = True
            elif later:
                cuts[j][i] = _WHOLE
            if cut_i is _NOTHING:
                pieces = []
                break
        if pieces is None:
            return _whole_disk_region(centers, radii, i)
        if pieces:
            boundary.append((i, pieces))

    if not boundary:
        return DiskRegion(centers, radii, True, 0.0, 0.0)
    arcs = []
    area = 0.0
    perimeter = 0.0
    for i, pieces in boundary:
        cx, cy, r = xs[i], ys[i], rs[i]
        for a0, a1 in pieces:
            da = a1 - a0
            area += 0.5 * (
                r * r * da
                + r * cx * (sin(a1) - sin(a0))
                - r * cy * (cos(a1) - cos(a0))
            )
            perimeter += r * da
            arcs.append((cx, cy, r, a0 % TWO_PI, da))
    return DiskRegion(centers, radii, False, max(area, 0.0), perimeter, arcs=np.array(arcs))


def support_from_region(region: DiskRegion, dirs: np.ndarray) -> np.ndarray:
    """Support function of the region on unit direction rows.

    The maximizer of <y, u> over the region sits on the boundary: on an
    arc where the outward normal equals u, or at an arc endpoint.
    """
    if region.empty:
        raise EmptyIntersection("support function of an empty region")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0]) % TWO_PI
    A = region.arcs
    cx, cy, r, a0, da = A[:, 0], A[:, 1], A[:, 2], A[:, 3], A[:, 4]
    proj_c = dirs[:, 0][:, None] * cx[None, :] + dirs[:, 1][:, None] * cy[None, :]
    on_arc = ((phi[:, None] - a0[None, :]) % TWO_PI) <= da[None, :]
    a1 = a0 + da
    end0 = (dirs[:, 0][:, None] * np.cos(a0)[None, :]
            + dirs[:, 1][:, None] * np.sin(a0)[None, :]) * r[None, :]
    end1 = (dirs[:, 0][:, None] * np.cos(a1)[None, :]
            + dirs[:, 1][:, None] * np.sin(a1)[None, :]) * r[None, :]
    best = np.where(on_arc, r[None, :], np.maximum(end0, end1))
    return np.max(proj_c + best, axis=1)


def distance_from_region(region: DiskRegion, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from points to the region (0 inside)."""
    if region.empty:
        raise EmptyIntersection("distance to an empty region")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist = np.zeros(pts.shape[0])
    outside = ~region.contains(pts)
    if not np.any(outside):
        return dist
    Q = pts[outside]
    best = np.full(Q.shape[0], np.inf)
    for cx, cy, r, a0, da in region.arcs:
        rel = Q - np.array([cx, cy])
        rho = np.linalg.norm(rel, axis=1)
        ang = np.arctan2(rel[:, 1], rel[:, 0]) % TWO_PI
        on_arc = ((ang - a0) % TWO_PI) <= da
        d_arc = np.abs(rho - r)
        p0 = np.array([cx + r * np.cos(a0), cy + r * np.sin(a0)])
        p1 = np.array([cx + r * np.cos(a0 + da), cy + r * np.sin(a0 + da)])
        d_end = np.minimum(
            np.linalg.norm(Q - p0, axis=1), np.linalg.norm(Q - p1, axis=1)
        )
        best = np.minimum(best, np.where(on_arc, d_arc, d_end))
    dist[outside] = best
    return dist
