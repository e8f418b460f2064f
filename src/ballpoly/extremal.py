"""Circumscription minima and large-radius volume deficits.

The circumscription problem: among N halfspaces containing a convex
body K, minimize V_j of their intersection. Offsets are pinned at the
support values h_K(theta_i) (touching halfspaces: shrinking any
containing configuration onto K never increases V_j), so the search
runs over direction tuples on a product of spheres with a multi-start
simplex-reflection method in tangent charts.

The deficit side: for fixed points, the volume of the intersection of
balls B(x_i, R) behaves for large R like
omega_n R^n - c(points) R^{n-1} + o(R^{n-1}); the coefficient c equals
n*omega_n times the sphere-average of the hull's support function,
which the planar closed-form oracle pins down (that is half of
n*omega_n*w under the mean-width convention w = 2*integral of h; the
reports carry the note rather than silently picking a side).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import exact2d, polytope
from .errors import UnboundedConfiguration, UnsupportedDimension
from .geometry import BallPolyhedron, DirectionGrid, SupportBody
from .intrinsic import mc_volume, omega
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
        if not 1 <= self.j <= n:
            raise ValueError(f"need 1 <= j <= n, got j={self.j}")
        if self.N <= n:
            raise ValueError(f"need N > n, got N={self.N}, n={n}")
        expected = CIRCUMSCRIPTION_ESTIMATORS.get(n)
        if expected is None:
            raise UnsupportedDimension(f"circumscription needs n = 2 or 3, got n={n}")
        if self.estimator not in ("", expected):
            raise UnsupportedDimension(
                f"estimator {self.estimator!r} does not fit n={n}; use {expected!r}")
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


def _chart(base: np.ndarray):
    """Map R^{N(n-1)} -> (S^{n-1})^N around base directions by
    normalized tangent offsets (a retraction chart)."""
    N, n = base.shape
    bases = np.stack([_tangent_basis(base[i]) for i in range(N)])  # (N, n-1, n)

    def to_sphere(v: np.ndarray) -> np.ndarray:
        # Batched matmul runs the same BLAS products per ball as a loop
        # of ``bases[i].T @ v_i`` and ``p @ p`` would, so the chart
        # stays bit for bit what it was; einsum would sum differently.
        p = base + np.matmul(v.reshape(N, 1, n - 1), bases)[:, 0, :]
        return p / np.sqrt(np.matmul(p[:, None, :], p[:, :, None])[:, :, 0])

    return to_sphere


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

    def offsets(self, thetas: np.ndarray) -> np.ndarray:
        return self.prob.K.support(thetas)

    def vertices(self, thetas: np.ndarray) -> np.ndarray:
        offs = self.offsets(thetas)
        bound = self.prob.penalty_bound
        if self.n == 2:
            return polytope.clip_polygon(thetas, offs, bound)
        return polytope.halfspace_vertices_3d(thetas, offs, bound, self.interior)

    def __call__(self, thetas: np.ndarray) -> float:
        p = self.prob
        if self.n == 2:
            # The clipper's float pairs go straight to the shoelace: an
            # array of a handful of vertices costs more than their sums.
            poly = polytope.clip_vertices(thetas, self.offsets(thetas), p.penalty_bound)
            area, perim = polytope.polygon_area_perimeter(poly)
            return area if p.j == 2 else perim / 2.0
        try:
            return polytope.hull_intrinsic_volumes(self.vertices(thetas))[p.j]
        except UnboundedConfiguration:
            return (2.0 * p.penalty_bound) ** 3


def minimize_mjN(prob: CircumscriptionProblem, restarts: int = 32,
                 seed: int = 0, max_fev: int = 400) -> OptimizationResult:
    """Multi-start simplex-reflection minimum of V_j over touching
    halfspace configurations.

    Each restart draws random directions and optimizes in a tangent
    chart with Nelder-Mead; the best restart (value, then index) wins.
    The reported configuration always contains K by construction
    (offsets are the support values); the feasibility margin is
    re-checked on the body's grid.
    """
    # Deferred: importing scipy.optimize more than doubles a cold
    # start's time and resident memory, and only the circumscription
    # kinds search.
    from scipy.optimize import minimize

    obj = _Objective(prob)
    n, N = prob.K.dimension, prob.N
    dim = N * (n - 1)
    best = (np.inf, None, -1)
    trace = np.full(restarts, np.inf)
    evaluations = 0
    step = 0.45
    x0 = np.zeros(dim)
    init = np.vstack([x0] + [x0 + step * np.eye(dim)[k] for k in range(dim)])
    for r in range(restarts):
        chart = _chart(uniform_on_sphere(stream(seed, r), n, N))
        res = minimize(
            lambda v: obj(chart(v)), x0, method="Nelder-Mead",
            options={
                "maxfev": max_fev, "xatol": 1e-7, "fatol": 1e-7,
                "initial_simplex": init, "adaptive": n > 2,
            },
        )
        trace[r] = res.fun
        evaluations += res.nfev
        if res.fun < best[0]:
            best = (res.fun, chart(res.x), r)
    value, thetas, best_r = best
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


def schneider_check(K: SupportBody, j: int, N: int, restarts: int = 32,
                    seed: int = 0) -> SchneiderReport:
    """Compare the circumscription minimum of K against that of the
    ball with the same mean width (the ball should dominate)."""
    n = K.dimension
    lhs_res = minimize_mjN(CircumscriptionProblem(K, j, N), restarts, seed)
    w = K.mean_width()
    if j == n and N == n + 1:
        rhs = simplex_circumscription_minimum(n) * (w / 2.0) ** n
        source = "closed-form regular simplex, scaled by homogeneity"
    else:
        ball = SupportBody.ball(np.zeros(n), w / 2.0, K.grid)
        rhs = minimize_mjN(CircumscriptionProblem(ball, j, N), restarts, seed + 1).value
        source = "optimized ball instance"
    return SchneiderReport(lhs_res.value, float(rhs), float(rhs - lhs_res.value), source)


@dataclass
class SimplexBoundReport:
    simplex_value: float
    bound: float
    mean_width: float
    margin: float
    note: str


def simplex_bound_check(K: SupportBody, restarts: int = 32,
                        seed: int = 0) -> SimplexBoundReport:
    """Minimal circumscribed-simplex volume against the mean-width
    bound m(B) * (w(K)/2)^n; the absolute-constant refinement via the
    reverse mean-width inequality is reported as not checkable."""
    n = K.dimension
    res = minimize_mjN(CircumscriptionProblem(K, n, n + 1), restarts, seed)
    w = K.mean_width()
    bound = simplex_circumscription_minimum(n) * (w / 2.0) ** n
    return SimplexBoundReport(
        res.value, float(bound), float(w), float(bound - res.value),
        note="log-factor refinement needs a non-constructive absolute constant; not checked",
    )


# ---------------------------------------------------------------------------
# Large-radius deficits and the hull bridge


@dataclass
class DeficitReport:
    volume: float
    volume_stderr: float
    deficit_coefficient: float  # deficit / R^{n-1}
    width_functional: float     # deficit / (n omega_n R^{n-1}) -> mean(h_hull)
    warning: Optional[str]
    note: str = NORMALIZATION_NOTE


def gorbovickis_deficit(points: np.ndarray, R: float, samples: int = 0,
                        seed: int = 0) -> DeficitReport:
    """Volume deficit of the intersection of congruent balls around
    fixed points: omega_n R^n - vol, with the extracted R^{n-1}
    coefficient and the implied support-mean functional.

    In the plane the volume is exact (arc decomposition) and
    ``samples`` must be 0; in higher dimension it is a hit-or-miss
    estimate from ``samples`` >= 1 points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n == 2 and samples != 0:
        raise ValueError(f"planar volumes are exact: samples must be 0, got {samples}")
    if n != 2 and samples <= 0:
        raise ValueError("n >= 3 needs a Monte-Carlo sample budget")
    diam = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)))
    warning = None
    if R < 5.0 * diam and diam > 0:
        warning = f"R = {R} below 5*diam = {5 * diam}; asymptotics unreliable"
        warnings.warn(warning)
    P = BallPolyhedron.from_arrays(pts, R)
    if n == 2:
        vol, se = exact2d.exact_disk_intersection_2d(P)[0], 0.0
    else:
        vol, se = mc_volume(P, samples, seed)
    deficit = omega(n) * R**n - vol
    coeff = deficit / R ** (n - 1)
    return DeficitReport(
        volume=vol, volume_stderr=se, deficit_coefficient=float(coeff),
        width_functional=float(coeff / (n * omega(n))), warning=warning,
    )


@dataclass
class HullBridgeReport:
    direct_mean: dict
    deficit_mean: dict
    direct_stderr: dict
    dominance_margin: float
    dominance_sigma: float
    agreement: dict
    radius: float


def hull_dominance_bridge(density_a, density_b, N: int, trials: int, R: float,
                          seed: int = 0, *, grid: DirectionGrid) -> HullBridgeReport:
    """Expected hull mean width under two sampling densities, estimated
    two ways per trial: directly from the hull support function on
    ``grid``, and from the ball-volume deficit at radius R (planar,
    exact oracle). The report's dicts are keyed "a" and "b".

    The dominance margin is E_a[w] - E_b[w] (direct estimates) with its
    combined standard error; ``agreement`` reports the relative gap
    between the two estimators under each density."""
    out_direct = {"a": np.empty(trials), "b": np.empty(trials)}
    out_deficit = {"a": np.empty(trials), "b": np.empty(trials)}
    n = 2
    for i, (label, dens) in enumerate((("a", density_a), ("b", density_b))):
        for t in range(trials):
            pts = dens.sample(stream(seed, t, i), N)
            out_direct[label][t] = SupportBody.polytope(pts, grid).mean_width()
            vol, _ = exact2d.exact_disk_intersection_2d(BallPolyhedron.from_arrays(pts, R))
            coeff = (omega(n) * R**n - vol) / R ** (n - 1)
            out_deficit[label][t] = 2.0 * coeff / (n * omega(n))
    dm = {k: float(np.mean(v)) for k, v in out_direct.items()}
    fm = {k: float(np.mean(v)) for k, v in out_deficit.items()}
    dse = {k: float(np.std(v, ddof=1) / math.sqrt(trials)) for k, v in out_direct.items()}
    margin = dm["a"] - dm["b"]
    sigma = math.hypot(dse["a"], dse["b"])
    agreement = {
        k: abs(fm[k] - dm[k]) / dm[k] if dm[k] != 0 else 0.0 for k in dm
    }
    return HullBridgeReport(dm, fm, dse, float(margin),
                            float(margin / sigma) if sigma > 0 else np.inf,
                            agreement, R)
