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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize as scipy_minimize
from scipy.spatial import QhullError

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
    penalty_bound: float = 0.0  # 0 -> auto from the body scale

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
        if self.penalty_bound <= 0:
            h_max = float(np.max(self.K.values))
            self.penalty_bound = 40.0 * max(1.0, h_max)


@dataclass
class OptimizationResult:
    value: float
    thetas: np.ndarray
    restarts_used: int
    best_restart: int
    trace: np.ndarray  # best value per restart
    feasibility_margin: float


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
    bases = [_tangent_basis(base[i]) for i in range(N)]

    def to_sphere(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(base)
        vv = v.reshape(N, n - 1)
        for i in range(N):
            p = base[i] + bases[i].T @ vv[i]
            out[i] = p / np.linalg.norm(p)
        return out

    return to_sphere


class _Objective:
    """Exact V_j of the touching-halfspace intersection for a direction
    tuple: area or half-perimeter of the clipped polygon in the plane,
    the hull's intrinsic volumes in 3D. A 3D configuration whose
    vertices Qhull cannot produce scores the box penalty (2*bound)^3."""

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
            area, perim = polytope.polygon_area_perimeter(self.vertices(thetas))
            return area if p.j == 2 else perim / 2.0
        try:
            return polytope.hull_intrinsic_volumes(self.vertices(thetas))[p.j]
        except (UnboundedConfiguration, QhullError):
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
    obj = _Objective(prob)
    n, N = prob.K.dimension, prob.N
    dim = N * (n - 1)
    best = (np.inf, None, -1)
    trace = np.full(restarts, np.inf)
    step = 0.45
    x0 = np.zeros(dim)
    init = np.vstack([x0] + [x0 + step * np.eye(dim)[k] for k in range(dim)])
    for r in range(restarts):
        chart = _chart(uniform_on_sphere(stream(seed, r), n, N))
        res = scipy_minimize(
            lambda v: obj(chart(v)), x0, method="Nelder-Mead",
            options={
                "maxfev": max_fev, "xatol": 1e-7, "fatol": 1e-7,
                "initial_simplex": init, "adaptive": n > 2,
            },
        )
        trace[r] = res.fun
        if res.fun < best[0]:
            best = (res.fun, chart(res.x), r)
    value, thetas, best_r = best
    # Feasibility: the configuration's support dominates the body's.
    verts = obj.vertices(thetas)
    gdirs = prob.K.grid.directions
    margin = float(np.min(np.max(gdirs @ verts.T, axis=1) - prob.K.support(gdirs)))
    return OptimizationResult(
        value=float(value), thetas=thetas, restarts_used=restarts,
        best_restart=best_r, trace=trace, feasibility_margin=margin,
    )


@dataclass
class SchneiderReport:
    lhs: float
    rhs: float
    margin: float
    lhs_result: OptimizationResult
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
    return SchneiderReport(lhs_res.value, float(rhs), float(rhs - lhs_res.value),
                           lhs_res, source)


@dataclass
class SimplexBoundReport:
    simplex_value: float
    bound: float
    mean_width: float
    margin: float
    note: str
    result: OptimizationResult


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
        result=res,
    )


# ---------------------------------------------------------------------------
# Large-radius deficits and the hull bridge


@dataclass
class DeficitReport:
    volume: float
    volume_stderr: float
    deficit: float
    deficit_coefficient: float  # deficit / R^{n-1}
    width_functional: float     # deficit / (n omega_n R^{n-1}) -> mean(h_hull)
    radius: float
    warning: Optional[str]
    note: str = NORMALIZATION_NOTE


def gorbovickis_deficit(points: np.ndarray, R: float, samples: int = 0,
                        seed: int = 0) -> DeficitReport:
    """Volume deficit of the intersection of congruent balls around
    fixed points: omega_n R^n - vol, with the extracted R^{n-1}
    coefficient and the implied support-mean functional.

    Planar configurations use the exact oracle; set ``samples`` for the
    Monte-Carlo route in higher dimension."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    diam = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)))
    warning = None
    if R < 5.0 * diam and diam > 0:
        warning = f"R = {R} below 5*diam = {5 * diam}; asymptotics unreliable"
        warnings.warn(warning)
    P = BallPolyhedron.from_arrays(pts, R)
    if n == 2 and samples == 0:
        vol, se = exact2d.exact_disk_intersection_2d(P)[0], 0.0
    else:
        if samples <= 0:
            raise ValueError("n >= 3 needs a Monte-Carlo sample budget")
        vol, se = mc_volume(P, samples, seed)
    deficit = omega(n) * R**n - vol
    coeff = deficit / R ** (n - 1)
    return DeficitReport(
        volume=vol, volume_stderr=se, deficit=float(deficit),
        deficit_coefficient=float(coeff),
        width_functional=float(coeff / (n * omega(n))),
        radius=R, warning=warning,
    )


def hull_support_mean(points: np.ndarray, grid: DirectionGrid) -> float:
    """Sphere average of the support function of conv(points)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = np.max(grid.directions @ pts.T, axis=1)
    return float(np.dot(grid.weights, h))


@dataclass
class HullBridgeReport:
    direct_mean: dict
    deficit_mean: dict
    direct_stderr: dict
    deficit_stderr: dict
    dominance_margin: float
    dominance_sigma: float
    agreement: dict
    trials: int
    radius: float


def hull_dominance_bridge(density_a, density_b, N: int, trials: int, R: float,
                          seed: int = 0, grid: Optional[DirectionGrid] = None,
                          labels=("a", "b")) -> HullBridgeReport:
    """Expected hull mean width under two sampling densities, estimated
    two ways per trial: directly from the hull support function, and
    from the ball-volume deficit at radius R (planar, exact oracle).

    The dominance margin is E_a[w] - E_b[w] (direct estimates) with its
    combined standard error; ``agreement`` reports the relative gap
    between the two estimators under each density."""
    g = grid if grid is not None else DirectionGrid.uniform_2d(512)
    la, lb = labels
    out_direct = {la: np.empty(trials), lb: np.empty(trials)}
    out_deficit = {la: np.empty(trials), lb: np.empty(trials)}
    n = 2
    for label, dens in ((la, density_a), (lb, density_b)):
        for t in range(trials):
            pts = dens.sample(stream(seed, t, 0 if label == la else 1), N)
            out_direct[label][t] = 2.0 * hull_support_mean(pts, g)
            vol, _ = exact2d.exact_disk_intersection_2d(BallPolyhedron.from_arrays(pts, R))
            coeff = (omega(n) * R**n - vol) / R ** (n - 1)
            out_deficit[label][t] = 2.0 * coeff / (n * omega(n))
    dm = {k: float(np.mean(v)) for k, v in out_direct.items()}
    fm = {k: float(np.mean(v)) for k, v in out_deficit.items()}
    dse = {k: float(np.std(v, ddof=1) / math.sqrt(trials)) for k, v in out_direct.items()}
    fse = {k: float(np.std(v, ddof=1) / math.sqrt(trials)) for k, v in out_deficit.items()}
    margin = dm[la] - dm[lb]
    sigma = math.hypot(dse[la], dse[lb])
    agreement = {
        k: abs(fm[k] - dm[k]) / dm[k] if dm[k] != 0 else 0.0 for k in dm
    }
    return HullBridgeReport(dm, fm, dse, fse, float(margin),
                            float(margin / sigma) if sigma > 0 else np.inf,
                            agreement, trials, R)
