"""Exact geometry of planar disk intersections.

The intersection of finitely many closed disks is a convex region
bounded by circular arcs. ``disk_region`` finds those arcs one circle
at a time, in plain floats: the part of circle i inside disk j is a
single arc, all of the circle or none of it, and the part of circle i
on the boundary is what every other disk leaves of it. Area and
perimeter follow from Green's theorem on the arcs. The module also
gives the region's support function. It is the independent oracle
against which the Monte-Carlo estimators are checked, and the fast
path for planar experiments. Distances to the region come from the
nearest-point map of ``geometry``, which is exact in every dimension.

``disk_region`` takes the centres as an (N, 2) array or as a list of N
(x, y) pairs, the form in which a planar trial passes its row of
floats, and the radii as an array or a list; both forms give the same
bits. A trial does no numpy work: the ``DiskRegion`` it returns builds
its ``arcs`` array only when it is read.

Two circles that do not cross are the same disk (centres and radii
agree within ``TANGENCY_RTOL`` of the largest radius), disjoint or
touching disks (an empty region: touching disks meet in one point), or
one disk nested in the other. Tangency needs no special case.
"""

from __future__ import annotations

from functools import cached_property
from math import acos, atan2, cos, hypot, isfinite, pi, sin

import numpy as np

from .errors import EmptyIntersection

TWO_PI = 2.0 * pi

# Window relative to the largest radius: disks whose centres and radii
# agree within it are one disk, and circles whose centre distance
# exceeds the radius difference by no more than it are nested.
TANGENCY_RTOL = 1e-12


class DiskRegion:
    """Arc decomposition of an intersection of closed disks.

    ``arcs`` has one row per boundary arc: (cx, cy, r, a0, da) with the
    arc running counterclockwise from angle a0 over da > 0. An empty
    region has no arcs and zero area/perimeter; a region bounded by one
    whole circle is a single arc with da = 2*pi.

    ``empty``, ``area`` and ``perimeter`` are plain floats. ``arcs`` is
    built from ``boundary``, the boundary circles as (cx, cy, r, pieces)
    with each piece an angle interval (a0, a1), a0 < a1, the first time
    it is read, so a caller that needs only the area or the perimeter
    builds no array.
    """

    def __init__(self, empty: bool, area: float, perimeter: float, boundary=()):
        self._boundary = boundary
        self.empty = empty
        self.area = area
        self.perimeter = perimeter

    @cached_property
    def arcs(self) -> np.ndarray:
        return np.array([(cx, cy, r, a0 % TWO_PI, a1 - a0)
                         for cx, cy, r, pieces in self._boundary
                         for a0, a1 in pieces], dtype=float).reshape(-1, 5)


def _clip(pieces, a, b):
    """Intersect the disjoint angle intervals (start, end) of one circle
    with the arc from angle a to angle b, a < b < a + 2*pi."""
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


def disk_region(centers, radii) -> DiskRegion:
    """Arc decomposition of the intersection of closed disks.

    ``centers`` is an (N, 2) array or a list of N (x, y) pairs of
    floats, as ``dominance`` passes one trial's row; ``radii`` is an
    (N,) array or a list. Both forms give the same bits, and the
    region builds its arc array only when it is read.

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
    away after few comparisons. Each pair is compared once: the circle
    visited first clips what the other disk leaves of itself and what
    its own disk leaves of the later circle, which starts its turn from
    there, and a circle that an earlier one has left nothing skips its
    turn. The later circles that a circle did not reach, because it
    stopped or skipped its turn, compare themselves with it on theirs.

    Raises ValueError when the centres are not planar or not finite,
    when there is no disk or the radii do not match the centres, and
    when a radius is not positive and finite.
    """
    rows = centers if type(centers) is list else np.asarray(centers, dtype=float).tolist()
    rs = radii if type(radii) is list else np.asarray(radii, dtype=float).tolist()
    n = len(rs)
    if not n or n != len(rows):
        raise ValueError(f"need one radius per centre and at least one disk, "
                         f"got {len(rows)} centres and {n} radii")
    try:
        xs = [x for x, _ in rows]
        ys = [y for _, y in rows]
    except (TypeError, ValueError):
        raise ValueError("exact arc decomposition is 2D only: "
                         "every centre must be an (x, y) pair") from None
    mx, my = sum(xs) / n, sum(ys) / n
    if not (isfinite(mx) and isfinite(my)):
        raise ValueError("disk centres must be finite")
    if not (0.0 < min(rs) and isfinite(sum(rs))):
        raise ValueError("disk radii must be positive and finite")
    tang = TANGENCY_RTOL * max(rs)
    # disks[k]: circle k of the visiting order, as (x, y, r).
    disks = sorted(zip(xs, ys, rs), key=lambda c: c[2] - hypot(c[0] - mx, c[1] - my))
    # left[k]: what the circles visited before circle k have left of it:
    # None (all of it), its disjoint arcs, or [] (nothing, so circle k
    # skips its turn).
    left = [None] * n
    # (stop, x, y, r) of each circle that stopped short: it compared
    # itself with the later circles below position stop, and clipped what
    # it leaves of them, but not with the others.
    short = []
    boundary = []
    area = perimeter = 0.0

    for k in range(n):
        pieces = left[k]
        xi, yi, ri = disks[k]
        if pieces is not None and not pieces:  # an earlier circle left circle k nothing
            short.append((k + 1, xi, yi, ri))
            continue
        # The earlier circles that stopped before reaching circle k.
        for stop, xj, yj, rj in short:
            if k < stop:
                continue
            dx, dy = xj - xi, yj - yi
            d = hypot(dx, dy)
            if (ri - rj if ri > rj else rj - ri) + tang < d < ri + rj:
                # The circles cross: disk j leaves one arc of circle k.
                # r_k^2 - r_j^2 is formed first, as a product: adding d^2
                # to r_k^2 first would round d^2 away when d << r, as for
                # neighbouring tangent balls.
                phi = atan2(dy, dx)
                c = (d * d + (ri - rj) * (ri + rj)) / (2.0 * d * ri)
                w = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
                lo, hi = phi - w, phi + w
                pieces = [(lo, hi)] if pieces is None else _clip(pieces, lo, hi)
                if not pieces:
                    break
                continue
            # The circles do not cross. Disk j, visited first, keeps a
            # disk given twice.
            if d <= tang and abs(ri - rj) <= tang:
                pieces = []
                break
            if d >= ri + rj:
                return DiskRegion(True, 0.0, 0.0)
            if ri < rj:  # disk k lies inside disk j
                continue
            pieces = []
            break
        if pieces is not None and not pieces:  # circle k has nothing left and stops
            short.append((k + 1, xi, yi, ri))
            continue
        # The later circles: each pair is compared once, and the later
        # circle keeps what disk k leaves of it for its own turn.
        for j in range(k + 1, n):
            xj, yj, rj = disks[j]
            dx, dy = xj - xi, yj - yi
            d = hypot(dx, dy)
            if (ri - rj if ri > rj else rj - ri) + tang < d < ri + rj:
                phi = atan2(dy, dx)
                d2, q = d * d, (ri - rj) * (ri + rj)
                c = (d2 + q) / (2.0 * d * ri)
                w = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
                theirs = left[j]
                if theirs is None or theirs:
                    c = (d2 - q) / (2.0 * d * rj)
                    wj = acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)
                    back = atan2(-dy, -dx)
                    lo, hi = back - wj, back + wj
                    left[j] = [(lo, hi)] if theirs is None else _clip(theirs, lo, hi)
                lo, hi = phi - w, phi + w
                pieces = [(lo, hi)] if pieces is None else _clip(pieces, lo, hi)
                if not pieces:
                    break
                continue
            # Disk k, visited first, keeps a disk given twice.
            if d <= tang and abs(ri - rj) <= tang:
                left[j] = []
                continue
            if d >= ri + rj:
                return DiskRegion(True, 0.0, 0.0)
            if ri < rj:  # disk k lies inside disk j and leaves circle j nothing
                left[j] = []
                continue
            pieces = []
            break
        if pieces is None:  # no other disk cuts circle k
            return DiskRegion(False, pi * ri * ri, TWO_PI * ri,
                              [(xi, yi, ri, [(0.0, TWO_PI)])])
        if not pieces:  # circle k stopped at circle j
            short.append((j + 1, xi, yi, ri))
            continue
        boundary.append((xi, yi, ri, pieces))
        for a0, a1 in pieces:
            da = a1 - a0
            area += 0.5 * (
                ri * ri * da
                + ri * xi * (sin(a1) - sin(a0))
                - ri * yi * (cos(a1) - cos(a0))
            )
            perimeter += ri * da

    if not boundary:
        return DiskRegion(True, 0.0, 0.0)
    return DiskRegion(False, max(area, 0.0), perimeter, boundary)


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
