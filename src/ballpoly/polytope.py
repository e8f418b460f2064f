"""Halfspace-intersection polytopes in the plane and in 3D.

Candidate configurations in the circumscription search and Wulff shapes
are intersections of halfspaces {<x, n_i> <= c_i}. In 2D they are
clipped out of a large box by Sutherland-Hodgman, which keeps unbounded
configurations finite (the box acts as the continuous penalty); in 3D
the vertex enumeration is delegated to Qhull, and the intrinsic volumes
of the resulting polytope come from its convex hull.
"""

from __future__ import annotations

import numpy as np

from .errors import UnboundedConfiguration

# Numerical slack for the clipping predicate, relative to the offset scale.
CLIP_EPS = 1e-12


def clip_polygon(normals: np.ndarray, offsets: np.ndarray, bound: float) -> np.ndarray:
    """Vertices (CCW) of {x : <x,n_i> <= c_i} intersected with the box
    [-bound, bound]^2; empty array when infeasible."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float)
    poly = [
        np.array([-bound, -bound]),
        np.array([bound, -bound]),
        np.array([bound, bound]),
        np.array([-bound, bound]),
    ]
    eps = CLIP_EPS * max(1.0, float(np.max(np.abs(offsets))), bound)
    for nrm, c in zip(normals, offsets):
        if not poly:
            break
        out = []
        k = len(poly)
        for i in range(k):
            a, b = poly[i], poly[(i + 1) % k]
            da = float(nrm @ a) - c
            db = float(nrm @ b) - c
            a_in, b_in = da <= eps, db <= eps
            if a_in:
                out.append(a)
            if a_in != b_in:
                t = da / (da - db)
                out.append(a + t * (b - a))
        poly = out
    return np.array(poly) if poly else np.empty((0, 2))


def polygon_area_perimeter(vertices: np.ndarray):
    """(area, perimeter) of a CCW simple polygon (shoelace)."""
    v = np.atleast_2d(vertices)
    if v.shape[0] < 3:
        return 0.0, 0.0
    x, y = v[:, 0], v[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    area = 0.5 * float(np.sum(x * yr - xr * y))
    perim = float(np.sum(np.hypot(xr - x, yr - y)))
    return abs(area), perim


def halfspace_vertices_3d(normals: np.ndarray, offsets: np.ndarray,
                          bound: float, interior: np.ndarray) -> np.ndarray:
    """Vertices of a 3D halfspace intersection, clipped to the box
    [-bound, bound]^3 so the result is always bounded.

    ``interior`` must be strictly feasible: any interior point of a body
    serves for a configuration of halfspaces touching it.
    """
    from scipy.spatial import HalfspaceIntersection

    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float)
    box_n = np.vstack([np.eye(3), -np.eye(3)])
    box_c = np.full(6, bound)
    A = np.vstack([normals, box_n])
    c = np.concatenate([offsets, box_c])
    halfspaces = np.column_stack([A, -c])  # qhull form: A x + b <= 0
    margin = float(np.min(c - A @ np.asarray(interior, dtype=float)))
    if margin <= 0:
        raise UnboundedConfiguration("interior point is not strictly feasible")
    hs = HalfspaceIntersection(halfspaces, np.asarray(interior, dtype=float))
    return hs.intersections


def hull_intrinsic_volumes(vertices: np.ndarray):
    """(V_0, V_1, V_2, V_3) of the convex hull of 3D points.

    V_3 is the volume and V_2 half the surface area. V_1 sums, over the
    edges of the triangulated boundary, the edge length times the
    exterior dihedral angle, divided by 2*pi (Schneider, Convex Bodies,
    2nd ed., section 4.2); an edge between coplanar triangles has angle
    zero and adds nothing.
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.asarray(vertices, dtype=float))
    tri = hull.simplices
    # Neighbour k of a triangle lies across the edge opposite its vertex k.
    s = np.repeat(np.arange(tri.shape[0]), 3)
    t = hull.neighbors.ravel()
    a = tri[:, [1, 2, 0]].ravel()
    b = tri[:, [2, 0, 1]].ravel()
    once = s < t
    s, t, a, b = s[once], t[once], a[once], b[once]
    ns, nt = hull.equations[s, :3], hull.equations[t, :3]
    angle = np.arctan2(np.linalg.norm(np.cross(ns, nt), axis=1), np.sum(ns * nt, axis=1))
    length = np.linalg.norm(hull.points[a] - hull.points[b], axis=1)
    v1 = float(np.dot(length, angle)) / (2.0 * np.pi)
    return 1.0, v1, float(hull.area) / 2.0, float(hull.volume)
