"""Halfspace-intersection polytopes in the plane and in 3D.

Candidate configurations in the circumscription search are
intersections of touching halfspaces {<x, n_i> <= c_i}. In 2D they are
clipped out of a large box by Sutherland-Hodgman, which keeps unbounded
configurations finite (the box acts as the continuous penalty); in 3D
the vertex enumeration is delegated to Qhull, and the intrinsic volumes
of the resulting polytope come from its convex hull. The planar Wulff
shape (``wulff.wulff_shape``) is the same clip, of the halfspaces of f
on its grid.

Importing this module does not import scipy: the two Qhull calls import
``scipy.spatial`` when they run, and the circumscription search
(``extremal.minimize_mjN``) is plain Python. So of the CLI kinds only
3-D ``minimize`` and ``schneider`` (Qhull) load scipy; planar
circumscription, ``dominance-ball``, ``dominance-cube``, ``moments``,
``wulff-convergence``, ``gorbovickis``, ``hull-bridge`` and
``vr-asymptotics`` run without it.
"""

from __future__ import annotations

import numpy as np

from .errors import UnboundedConfiguration
from .geometry import _sq_dist

# Numerical slack for the clipping predicate, relative to the larger of
# the offsets and the box, so a polygon clips the same at every scale.
CLIP_EPS = 1e-12

# Normals of the six faces of the 3D box [-bound, bound]^3.
BOX_NORMALS_3D = np.vstack([np.eye(3), -np.eye(3)])


def clip_vertices(normals, offsets, bound: float) -> list:
    """Vertices (CCW, as float pairs) of {x : <x,n_i> <= c_i} intersected
    with the box [-bound, bound]^2; an empty list when infeasible.

    ``normals`` is an (N, 2) array or a list of N (x, y) pairs of
    floats, ``offsets`` an (N,) array or a list of floats; lists are
    used as given (the circumscription search passes them so), and both
    forms give the same bits.

    A vertex within the slack ``eps`` of a line counts as inside it and
    is kept. An edge adds its intersection with the line only when one
    endpoint lies more than ``eps`` inside and the other more than
    ``eps`` outside, so a line through a vertex adds no near-copy of it
    and a polygonal f's Wulff shape keeps its corners only."""
    # Plain floats: a polygon has a handful of vertices, so per-vertex
    # numpy arithmetic would cost more than the clipping itself.
    if type(normals) is not list:
        normals = np.atleast_2d(np.asarray(normals, dtype=float)).tolist()
    if type(offsets) is not list:
        offsets = np.asarray(offsets, dtype=float).tolist()
    b = float(bound)
    poly = [(-b, -b), (b, -b), (b, b), (-b, b)]
    eps = CLIP_EPS * max(max(map(abs, offsets), default=0.0), b)
    for (nx, ny), c in zip(normals, offsets):
        if not poly:
            break
        out = []
        ax, ay = poly[0]
        da = nx * ax + ny * ay - c
        for bx, by in poly[1:] + poly[:1]:
            db = nx * bx + ny * by - c
            a_in = da <= eps
            if a_in:
                out.append((ax, ay))
            if a_in != (db <= eps) and abs(da) > eps and abs(db) > eps:
                t = da / (da - db)
                out.append((ax + t * (bx - ax), ay + t * (by - ay)))
            ax, ay, da = bx, by, db
        poly = out
    return poly


def clip_polygon(normals: np.ndarray, offsets: np.ndarray, bound: float) -> np.ndarray:
    """``clip_vertices`` as an (m, 2) array; shape (0, 2) when infeasible."""
    poly = clip_vertices(normals, offsets, bound)
    return np.array(poly) if poly else np.empty((0, 2))


def polygon_area(vertices) -> float:
    """Area of a simple polygon given as (x, y) pairs, an array or the
    list ``clip_vertices`` returns (shoelace); unsigned, so either
    orientation serves, and 0.0 for fewer than three vertices.

    Plain floats, the cross products summed in vertex order by an
    explicit loop (``sum`` compensates its rounding from Python 3.12 on,
    so its bits would depend on the interpreter). The planar V_2
    objective reads this alone; ``polygon_area_perimeter`` takes its
    area from here."""
    if isinstance(vertices, np.ndarray):
        vertices = vertices.tolist()
    if len(vertices) < 3:
        return 0.0
    cross = 0.0
    x, y = vertices[0]
    for xr, yr in vertices[1:] + vertices[:1]:
        cross += x * yr - xr * y
        x, y = xr, yr
    return abs(0.5 * cross)


def polygon_perimeter(vertices) -> float:
    """Perimeter of a simple polygon, in the forms ``polygon_area``
    takes; 0.0 for fewer than three vertices.

    The edges are summed in vertex order as the area's cross products
    are. ``abs(complex(dx, dy))`` is the C library's ``hypot``, as
    ``np.hypot`` is (``math.hypot`` is CPython's own and differs by an
    ulp on some edges). The planar V_1 objective reads this alone."""
    if isinstance(vertices, np.ndarray):
        vertices = vertices.tolist()
    if len(vertices) < 3:
        return 0.0
    perimeter = 0.0
    x, y = vertices[0]
    for xr, yr in vertices[1:] + vertices[:1]:
        perimeter += abs(complex(xr - x, yr - y))
        x, y = xr, yr
    return perimeter


def polygon_area_perimeter(vertices):
    """(``polygon_area``, ``polygon_perimeter``) of a simple polygon;
    (0.0, 0.0) for fewer than three vertices."""
    if isinstance(vertices, np.ndarray):
        vertices = vertices.tolist()
    return polygon_area(vertices), polygon_perimeter(vertices)


def halfspace_vertices_3d(normals: np.ndarray, offsets: np.ndarray,
                          bound: float, interior: np.ndarray) -> np.ndarray:
    """Vertices of a 3D halfspace intersection, clipped to the box
    [-bound, bound]^3 so the result is always bounded.

    ``interior`` must be strictly feasible: any interior point of a body
    serves for a configuration of halfspaces touching it. A
    configuration Qhull cannot intersect raises UnboundedConfiguration.
    """
    # Deferred: importing scipy.spatial more than doubles a cold start's
    # time and resident memory, and only 3D circumscription reaches
    # this function.
    from scipy.spatial import HalfspaceIntersection, QhullError

    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float)
    A = np.vstack([normals, BOX_NORMALS_3D])
    c = np.concatenate([offsets, np.full(6, bound)])
    halfspaces = np.column_stack([A, -c])  # qhull form: A x + b <= 0
    margin = float(np.min(c - A @ np.asarray(interior, dtype=float)))
    if margin <= 0:
        raise UnboundedConfiguration("interior point is not strictly feasible")
    try:
        hs = HalfspaceIntersection(halfspaces, np.asarray(interior, dtype=float))
    except QhullError as exc:
        raise UnboundedConfiguration("Qhull cannot intersect the halfspaces") from exc
    return hs.intersections


def hull_intrinsic_volumes(vertices: np.ndarray):
    """(V_0, V_1, V_2, V_3) of the convex hull of 3D points.

    V_3 is the volume and V_2 half the surface area. V_1 sums, over the
    edges of the triangulated boundary, the edge length times the
    exterior dihedral angle, divided by 2*pi (Schneider, Convex Bodies,
    2nd ed., section 4.2); an edge between coplanar triangles has angle
    zero and adds nothing. Points whose hull Qhull cannot build (fewer
    than four, or flat) raise UnboundedConfiguration.
    """
    # Deferred, as in halfspace_vertices_3d: only 3D circumscription
    # reaches this function.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.asarray(vertices, dtype=float))
    except QhullError as exc:
        raise UnboundedConfiguration("Qhull cannot build the hull") from exc
    tri = hull.simplices
    # Neighbour k of a triangle lies across the edge opposite its vertex k.
    s = np.repeat(np.arange(tri.shape[0]), 3)
    t = hull.neighbors.ravel()
    a = tri[:, [1, 2, 0]].ravel()
    b = tri[:, [2, 0, 1]].ravel()
    once = s < t
    s, t, a, b = s[once], t[once], a[once], b[once]
    ns, nt = hull.equations[s, :3], hull.equations[t, :3]
    angle = np.arctan2(np.sqrt(_sq_dist(np.cross(ns, nt), 0.0)), np.sum(ns * nt, axis=1))
    length = np.sqrt(_sq_dist(hull.points[a], hull.points[b]))
    v1 = float(np.dot(length, angle)) / (2.0 * np.pi)
    return 1.0, v1, float(hull.area) / 2.0, float(hull.volume)
