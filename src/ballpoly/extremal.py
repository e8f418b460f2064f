"""Circumscription minima and large-radius volume deficits.

The circumscription problem: among N halfspaces containing a convex
body K, minimize V_j of their intersection. Offsets are pinned at the
support values h_K(theta_i) (touching halfspaces: shrinking any
containing configuration onto K never increases V_j), so the search
runs over direction tuples on a product of spheres with a multi-start
Nelder-Mead in tangent charts. The simplex steps are plain floats
(``neldermead``, which replays scipy's Nelder-Mead bit for bit), so a
search imports no scipy; only the 3-D objective's Qhull does. The
restarts run in lockstep rounds, so the numpy steps of a point (the
chart and the support values) run once per round for all restarts
rather than once per evaluation; the objective itself is called
once per point.

The deficit side: for fixed points, the volume of the intersection of
balls B(x_i, R) behaves for large R like
omega_n R^n - c(points) R^{n-1} + o(R^{n-1}); the coefficient c equals
n*omega_n times the sphere-average of the hull's support function,
which the planar closed-form oracle pins down (that is half of
n*omega_n*w under the mean-width convention w = 2*integral of h; a
``gorbovickis`` summary carries ``NORMALIZATION_NOTE`` rather than
silently picking a side).

The hull bridge estimates the expected mean width of random planar
hulls twice per trial: exactly, as the hull's perimeter over pi
(Cauchy's formula), and from the deficit at one R, which sits O(1/R)
below it, since in the plane
vol = pi R^2 - R per(conv) + V_2(conv) + O(1/R).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exact2d, polytope
from .errors import UnboundedConfiguration, UnsupportedDimension
from .geometry import BallPolyhedron, SupportBody, _sq_dist
from .intrinsic import mc_volume, omega
from .neldermead import _nelder_mead
from .rng import stream, uniform_on_sphere

# Unused here, but the benchmark's span tracer patches both names in
# this module (perfbench/spans.py:_targets), so the bindings must exist.
from .intrinsic import steiner_fit_from_distances  # noqa: F401
from .rng import uniform_in_ball  # noqa: F401

NORMALIZATION_NOTE = (
    "deficit coefficient pinned to n*omega_n*mean(h) by the planar closed form; "
    "this is half of n*omega_n*w under the convention w = 2*mean(h)"
)

# The exact circumscription objective of each supported dimension.
CIRCUMSCRIPTION_ESTIMATORS = {2: "exact-2d", 3: "exact-hull-3d"}


def simplex_circumscription_minimum(n: int) -> float:
    """Minimal volume of a simplex containing the unit ball:
    n^{n/2} (n+1)^{(n+1)/2} / n! (the regular circumscribed simplex)."""
    return n ** (n / 2.0) * (n + 1) ** ((n + 1) / 2.0) / math.factorial(n)


@dataclass
class CircumscriptionProblem:
    """Minimize V_j of N touching halfspaces around the body K."""

    K: SupportBody
    j: int
    N: int
    estimator: str = ""  # '' picks from n: 'exact-2d' (n = 2) or 'exact-hull-3d' (n = 3)
    penalty_bound: float = field(init=False)  # box half-side; stored, read per objective call

    def __post_init__(self):
        n = self.K.dimension
        expected = CIRCUMSCRIPTION_ESTIMATORS.get(n)
        if expected is None:
            raise UnsupportedDimension(
                f"circumscription needs a body of dimension 2 or 3, got n={n}")
        if not 1 <= self.j <= n:
            raise ValueError(f"j must satisfy 1 <= j <= n (j={self.j}, n={n})")
        if self.N <= n:
            raise ValueError(f"N must exceed n (N={self.N}, n={n})")
        if self.estimator not in ("", expected):
            removed = " (steiner-fit was removed: the objective is exact)"
            raise UnsupportedDimension(
                f"key 'estimator' must be '{expected}' for a body of dimension {n}, or omitted, "
                f"got {self.estimator!r}{removed if self.estimator == 'steiner-fit' else ''}")
        self.penalty_bound = 40.0 * max(1.0, float(np.max(self.K.values)))


@dataclass
class OptimizationResult:
    value: float
    best_restart: int
    trace: np.ndarray  # best value per restart
    feasibility_margin: float
    evaluations: int  # objective calls over all restarts (Nelder-Mead nfev)


def _tangent_basis(theta: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space at a unit vector."""
    n = theta.shape[0]
    basis = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        v = e - np.dot(e, theta) * theta
        for b in basis:
            v -= np.dot(v, b) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == n - 1:
            break
    return np.array(basis)


def _chart(base: np.ndarray, bases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Map tangent offsets to the sphere around base directions by
    normalizing base + offset (a retraction chart), one row per ball:
    ``base`` (M, n) unit rows, ``bases`` (M, n-1, n) their
    ``_tangent_basis`` and ``v`` (M, n-1) the offsets. The rows may be
    the balls of any number of restarts; each is mapped alone."""
    # Batched matmul runs the same BLAS products per ball as a loop of
    # ``bases[i].T @ v_i`` and ``p @ p`` would, so a direction has the
    # same bits whatever rows share the call; einsum would sum differently.
    p = base + np.matmul(v.reshape(len(v), 1, -1), bases)[:, 0, :]
    return p / np.sqrt(np.matmul(p[:, None, :], p[:, :, None])[:, :, 0])


class _Objective:
    """Exact V_j of the touching-halfspace intersection for a direction
    tuple: area or half-perimeter of the clipped polygon in the plane,
    the hull's intrinsic volumes in 3D. A 3D configuration whose
    vertices or hull Qhull cannot produce scores the box penalty
    (2*bound)^3."""

    def __init__(self, prob: CircumscriptionProblem):
        self.prob = prob
        self.n = prob.K.dimension
        # The Steiner point lies inside K, hence strictly inside every
        # configuration of halfspaces touching K: Qhull's interior point.
        g = prob.K.grid
        self.interior = self.n * (g.weights * prob.K.values) @ g.directions

    def vertices(self, thetas: np.ndarray) -> np.ndarray:
        offs = self.prob.K.support(thetas)
        bound = self.prob.penalty_bound
        if self.n == 2:
            return polytope.clip_polygon(thetas, offs, bound)
        return polytope.halfspace_vertices_3d(thetas, offs, bound, self.interior)

    def __call__(self, thetas, offsets) -> float:
        """V_j for directions ``thetas`` with offsets ``offsets`` (their
        support values): in the plane lists of float pairs and floats,
        as ``minimize_mjN`` passes them, or arrays; arrays in 3D."""
        p = self.prob
        if self.n == 2:
            # The clipper's float pairs go straight to the shoelace: an
            # array of a handful of vertices costs more than their sums.
            poly = polytope.clip_vertices(thetas, offsets, p.penalty_bound)
            if p.j == 2:
                return polytope.polygon_area(poly)
            return polytope.polygon_perimeter(poly) / 2.0
        try:
            verts = polytope.halfspace_vertices_3d(thetas, offsets, p.penalty_bound, self.interior)
            return polytope.hull_intrinsic_volumes(verts)[p.j]
        except UnboundedConfiguration:
            return (2.0 * p.penalty_bound) ** 3


def minimize_mjN(prob: CircumscriptionProblem, restarts: int = 32,
                 seed: int = 0, max_fev: int = 400) -> OptimizationResult:
    """Multi-start simplex-reflection minimum of V_j over touching
    halfspace configurations.

    Each restart r draws random directions from ``stream(seed, r)`` and
    optimizes in a tangent chart around them with Nelder-Mead (the
    adaptive coefficients for n = 3), at most ``max_fev`` evaluations.
    The restarts run in lockstep rounds: each round takes the pending
    point of every unfinished search, maps all of them to the sphere in
    one ``_chart`` call and takes their offsets from one support call,
    then evaluates the objective point by point and sends each value
    back. A search's steps and values do not depend on the others, so
    the result is that of running the restarts one after another. The
    best restart (value, then index) wins. The reported configuration
    always contains K by construction (offsets are the support values);
    the feasibility margin is re-checked on the body's grid.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_fev < 1:
        raise ValueError(f"max_fev must be >= 1, got {max_fev}")
    obj = _Objective(prob)
    n, N = prob.K.dimension, prob.N
    dim = N * (n - 1)
    step = 0.45
    init = [[0.0] * dim] + [[step if i == k else 0.0 for i in range(dim)] for k in range(dim)]
    base = np.concatenate([uniform_on_sphere(stream(seed, r), n, N) for r in range(restarts)])
    bases = np.stack([_tangent_basis(theta) for theta in base])
    searches = [_nelder_mead(init, max_fev, xatol=1e-7, fatol=1e-7, adaptive=n > 2)
                for _ in range(restarts)]
    # A budget of at least one evaluation makes every search yield.
    pending = {r: next(search) for r, search in enumerate(searches)}
    results = [None] * restarts
    rows = base, bases
    while pending:
        if len(rows[0]) > N * len(pending):  # drop the balls of finished searches
            keep = (N * np.array(list(pending))[:, None] + np.arange(N)).ravel()
            rows = base[keep], bases[keep]
        v = np.array(list(pending.values())).reshape(-1, n - 1)
        thetas = _chart(*rows, v)
        offsets = prob.K.support(thetas)
        if n == 2:
            thetas, offsets = thetas.tolist(), offsets.tolist()
        for lo, r in zip(range(0, len(v), N), list(pending)):
            try:
                pending[r] = searches[r].send(obj(thetas[lo:lo + N], offsets[lo:lo + N]))
            except StopIteration as stop:
                results[r] = stop.value
                del pending[r]
    trace = np.array([fun for _, fun, _ in results])
    evaluations = sum(nfev for _, _, nfev in results)
    value, best_r = np.inf, -1
    for r, fun in enumerate(trace.tolist()):
        if fun < value:
            value, best_r = fun, r
    span = slice(best_r * N, (best_r + 1) * N)
    thetas = _chart(base[span], bases[span], np.array(results[best_r][0]).reshape(N, n - 1))
    # Feasibility: the configuration's support dominates the body's.
    verts = obj.vertices(thetas)
    gdirs = prob.K.grid.directions
    margin = float(np.min(np.max(gdirs @ verts.T, axis=1) - prob.K.support(gdirs)))
    return OptimizationResult(
        value=float(value), best_restart=best_r, trace=trace, feasibility_margin=margin,
        evaluations=evaluations,
    )


@dataclass
class SchneiderReport:
    lhs: float
    rhs: float
    margin: float
    rhs_source: str


def schneider_check(prob: CircumscriptionProblem, restarts: int = 32,
                    seed: int = 0) -> SchneiderReport:
    """Compare the circumscription minimum of prob's body against that
    of the ball with the same mean width w (the ball should dominate).
    At j = n, N = n + 1 the ball's minimum is the closed form
    m(B) * (w/2)^n of the regular simplex: the circumscribed-simplex
    bound."""
    n = prob.K.dimension
    lhs_res = minimize_mjN(prob, restarts, seed)
    w = prob.K.mean_width()
    if prob.j == n and prob.N == n + 1:
        rhs = simplex_circumscription_minimum(n) * (w / 2.0) ** n
        source = "closed-form regular simplex, scaled by homogeneity"
    else:
        ball = SupportBody.ball(np.zeros(n), w / 2.0, prob.K.grid)
        rhs = minimize_mjN(CircumscriptionProblem(ball, prob.j, prob.N), restarts, seed + 1).value
        source = "optimized ball instance"
    return SchneiderReport(lhs_res.value, float(rhs), float(rhs - lhs_res.value), source)


# ---------------------------------------------------------------------------
# Large-radius deficits and the hull bridge


@dataclass
class DeficitReport:
    volume: float
    volume_stderr: float
    deficit_coefficient: float  # deficit / R^{n-1}
    width_functional: float     # deficit / (n omega_n R^{n-1}) -> mean(h_hull)
    warning: Optional[str]


def _deficit_terms(vol: float, R: float, n: int):
    """The deficit coefficient (omega_n R^n - vol) / R^{n-1} of a ball
    intersection of volume ``vol``, and the support-mean functional
    coefficient / (n omega_n) it implies: the one formula behind both
    ``gorbovickis_deficit`` and the bridge's deficit side."""
    coeff = (omega(n) * R**n - vol) / R ** (n - 1)
    return coeff, coeff / (n * omega(n))


def gorbovickis_deficit(points: np.ndarray, R: float, samples: int = 0,
                        seed: int = 0) -> DeficitReport:
    """Volume deficit of the intersection of congruent balls around
    fixed points: omega_n R^n - vol, with the extracted R^{n-1}
    coefficient and the implied support-mean functional.

    In the plane the volume is exact (arc decomposition) and
    ``samples`` must be 0; in higher dimension it is a hit-or-miss
    estimate from ``samples`` >= 1 points. When no sample misses the
    intersection the deficit would read 0.0 +- 0.0, so that raises
    ValueError."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n == 2 and samples != 0:
        raise ValueError(f"planar volumes are exact: samples must be 0, got {samples}")
    if n != 2 and samples <= 0:
        raise ValueError("n >= 3 needs a Monte-Carlo sample budget")
    diam = float(np.sqrt(np.max(_sq_dist(pts[:, None, :], pts[None, :, :]))))
    warning = None
    if R < 5.0 * diam and diam > 0:
        warning = f"R = {R} below 5*diam = {5 * diam}; asymptotics unreliable"
        warnings.warn(warning)
    P = BallPolyhedron.from_arrays(pts, R)
    if n == 2:
        vol, se = exact2d.disk_region(P.centers, P.radii).area, 0.0
    else:
        vol, se = mc_volume(P, samples, seed)
        if se == 0.0 and vol > 0.0:
            raise ValueError(f"none of the {samples} hit-or-miss samples missed the "
                             f"intersection at R = {R}; raise samples or lower R")
    coeff, width = _deficit_terms(vol, R, n)
    return DeficitReport(
        volume=vol, volume_stderr=se, deficit_coefficient=float(coeff),
        width_functional=float(width), warning=warning,
    )


@dataclass
class HullBridgeReport:
    direct_mean: dict
    deficit_mean: dict
    direct_stderr: dict
    dominance_margin: float
    dominance_sigma: float
    agreement: dict


def _hull_mean_width(pts: np.ndarray) -> float:
    """Exact mean width of the convex hull of planar points: its
    perimeter over pi (Cauchy's formula). The hull is the monotone
    chain of the points in plain floats, its edges summed in order; a
    segment's hull counts its length twice, coincident points give 0."""
    ps = sorted(set(map(tuple, pts.tolist())))
    hull = []
    for chain in (ps, ps[::-1]):  # the lower chain, then the upper
        start = len(hull)
        for x, y in chain:
            while len(hull) >= start + 2:
                (x0, y0), (x1, y1) = hull[-2:]
                if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                    break
                hull.pop()
            hull.append((x, y))
        hull.pop()  # the chain's last point starts the next one
    perimeter = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        perimeter += math.hypot(x1 - x0, y1 - y0)
    return perimeter / math.pi


def hull_dominance_bridge(density_a, density_b, N: int, trials: int, R: float,
                          seed: int = 0) -> HullBridgeReport:
    """Expected hull mean width under two planar sampling densities,
    estimated two ways per trial: exactly, as the hull's perimeter over
    pi, and from the ball-volume deficit at radius R (exact arc
    decomposition), which is biased by O(1/R). Trial t of density i
    draws its N points from ``stream(seed, t, i)``. The report's dicts
    are keyed "a" and "b".

    The dominance margin is E_a[w] - E_b[w] (direct estimates) with its
    combined standard error; ``agreement`` reports the relative gap
    between the two estimators under each density."""
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    for name, dens in (("density_a", density_a), ("density_b", density_b)):
        if dens.dimension != 2:
            raise ValueError(f"{name} has dimension {dens.dimension}; the hull bridge is planar")
    out_direct = {"a": np.empty(trials), "b": np.empty(trials)}
    out_deficit = {"a": np.empty(trials), "b": np.empty(trials)}
    radii = np.full(N, R)
    for i, (label, dens) in enumerate((("a", density_a), ("b", density_b))):
        for t in range(trials):
            pts = dens.sample(stream(seed, t, i), N)
            out_direct[label][t] = _hull_mean_width(pts)
            # The mean width is twice the support mean.
            vol = exact2d.disk_region(pts, radii).area
            out_deficit[label][t] = 2.0 * _deficit_terms(vol, R, 2)[1]
    dm = {k: float(np.mean(v)) for k, v in out_direct.items()}
    fm = {k: float(np.mean(v)) for k, v in out_deficit.items()}
    dse = {k: float(np.std(v, ddof=1) / math.sqrt(trials)) for k, v in out_direct.items()}
    margin = dm["a"] - dm["b"]
    sigma = math.hypot(dse["a"], dse["b"])
    agreement = {
        k: abs(fm[k] - dm[k]) / dm[k] if dm[k] != 0 else 0.0 for k in dm
    }
    return HullBridgeReport(dm, fm, dse, float(margin),
                            float(margin / sigma) if sigma > 0 else np.inf, agreement)
