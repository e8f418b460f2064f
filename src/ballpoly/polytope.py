"""Halfspace-intersection polytopes in the plane and in 3D.

Candidate configurations in the circumscription search and Wulff shapes
are intersections of halfspaces {<x, n_i> <= c_i}. In 2D they are
clipped out of a large box by Sutherland-Hodgman, which keeps unbounded
configurations finite (the box acts as the continuous penalty); in 3D
the vertex enumeration is delegated to Qhull.
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


def polygon_vj(normals: np.ndarray, offsets: np.ndarray, bound: float):
    """(V_1, V_2) of the clipped 2D halfspace intersection:
    half the perimeter and the area."""
    verts = clip_polygon(normals, offsets, bound)
    area, perim = polygon_area_perimeter(verts)
    return perim / 2.0, area


def halfspace_vertices_3d(normals: np.ndarray, offsets: np.ndarray,
                          bound: float, interior: np.ndarray) -> np.ndarray:
    """Vertices of a 3D halfspace intersection, clipped to the box
    [-bound, bound]^3 so the result is always bounded.

    ``interior`` must be strictly feasible (the origin, for touching
    halfspaces of a body with positive support function).
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


def hull_volume(vertices: np.ndarray) -> float:
    """Euclidean volume of the convex hull of the vertices."""
    from scipy.spatial import ConvexHull

    v = np.atleast_2d(vertices)
    if v.shape[0] <= v.shape[1]:
        return 0.0
    return float(ConvexHull(v).volume)

