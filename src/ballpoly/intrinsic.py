"""Intrinsic volumes of ball-polyhedra and reference bodies.

The intrinsic volumes V_0..V_n of a convex body K are the coefficients
of the expansion-volume polynomial

    vol(K + eps*B) = sum_j omega_{n-j} * V_j(K) * eps^{n-j},

with omega_k the volume of the unit k-ball and V_0 = 1 for nonempty K.
In the plane V_1 is half the perimeter and V_2 the area, both available
exactly from the arc decomposition; in general dimension V_j is
recovered by a generalized-least-squares fit of Monte-Carlo
expansion-volume estimates on an epsilon grid. One point cloud is
reused across all epsilon values, so the estimates are nested and their
full covariance is known in closed form, which is what makes the fit
stable. The distances of the cloud to the body come from the one exact
nearest-point map, ``geometry.distances_to_ballpoly``, in every
dimension, the plane included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IllConditioned
from .geometry import CANDIDATE_RTOL, BallPolyhedron, distances_to_ballpoly
from .rng import stream, uniform_in_ball

# Batch size for Monte-Carlo splitting; totals are sums over batches
# keyed by (seed, batch), so results do not depend on scheduling.
MC_BATCH = 1 << 19

# Condition-number ceiling for the expansion-volume design matrix.
COND_LIMIT = 1e8


def omega(n: int) -> float:
    """Volume of the unit ball in R^n (omega_0 = 1)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class IntrinsicVolumeVector:
    """V_0..V_n with per-entry standard errors."""

    values: np.ndarray
    stderr: np.ndarray
    vn_crosscheck: Optional[tuple] = None  # (mc estimate, mc stderr)

    @property
    def dimension(self) -> int:
        return len(self.values) - 1


@dataclass
class EpsilonGrid:
    """Expansion radii, sample budget and bounding ball for the fit."""

    eps: np.ndarray
    samples: int
    bounding_center: np.ndarray
    bounding_radius: float

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.bounding_center = np.asarray(self.bounding_center, dtype=float)
        if np.any(np.diff(self.eps) <= 0) or np.any(self.eps <= 0):
            raise ValueError("epsilon values must be positive, distinct, ascending")

    @classmethod
    def default_for(cls, P: BallPolyhedron, samples: int = 200_000) -> "EpsilonGrid":
        """n + 3 log-spaced epsilons in [0.05, 0.5] * r_min with a
        bounding ball centered at the smallest ball's center."""
        r_min = float(np.min(P.radii))
        eps = np.geomspace(0.05 * r_min, 0.5 * r_min, P.dimension + 3)
        return cls(eps, samples, P.centers[P.smallest], r_min + eps[-1])

    def validate_covers(self, P: BallPolyhedron) -> None:
        c, r = P.centers[P.smallest], float(np.min(P.radii))
        need = float(np.linalg.norm(self.bounding_center - c)) + r + float(self.eps[-1])
        if self.bounding_radius < need * (1.0 - 1e-12):
            raise ValueError(
                f"bounding ball radius {self.bounding_radius} cannot cover the "
                f"expanded body (needs >= {need})"
            )


# ---------------------------------------------------------------------------
# Monte-Carlo estimators


def mc_volume(P: BallPolyhedron, samples: int, seed: int):
    """Hit-or-miss volume estimate inside the smallest ball of P.

    Returns (estimate, stderr) with the binomial standard error; an
    empty intersection simply scores zero hits.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if P.certainly_empty():
        return 0.0, 0.0
    c, r = P.centers[P.smallest], float(P.radii[P.smallest])
    n = P.dimension
    v_ref = omega(n) * r**n
    hits = 0
    done = 0
    batch_idx = 0
    while done < samples:
        m = min(MC_BATCH, samples - done)
        pts = uniform_in_ball(stream(seed, batch_idx), n, m)
        pts *= r  # in place, the bits of c + r * pts
        pts += c
        hits += int(np.count_nonzero(P.contains(pts)))
        done += m
        batch_idx += 1
    p = hits / samples
    return v_ref * p, v_ref * math.sqrt(p * (1.0 - p) / samples)


# ---------------------------------------------------------------------------
# Expansion-polynomial fit


def steiner_fit_from_distances(dists: np.ndarray, v_bb: float, eps: np.ndarray, n: int):
    """GLS fit of the expansion polynomial from one nested point cloud.

    ``dists`` are distances of v_bb-uniform samples to the body, so
    p_k = P(dist <= eps_k) are nested tail probabilities with
    closed-form covariance Cov(p_k, p_l) = (p_min - p_k p_l)/m. Only
    ``dists <= eps_k`` and the sample count are read, so a distance
    beyond the largest epsilon may be given as inf. V_0 is
    pinned at its known value 1 and the remaining coefficients
    omega_{n-j} V_j, j = 1..n, are solved by generalized least squares.

    Returns (values, stderr) for V_0..V_n.
    """
    eps = np.asarray(eps, dtype=float)
    k = eps.size
    if k < n + 1:
        raise ValueError(f"need at least n+1 = {n + 1} epsilon values, got {k}")
    m = dists.size
    p = np.array([np.count_nonzero(dists <= e) / m for e in eps])
    y = v_bb * p

    # Design: z = y - omega_n eps^n has model sum_{j>=1} omega_{n-j} V_j eps^{n-j}.
    design = np.column_stack([omega(n - j) * eps ** (n - j) for j in range(1, n + 1)])
    cond = np.linalg.cond(design)
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"expansion design condition number {cond:.3e} exceeds {COND_LIMIT:g}; "
            "choose better-spaced epsilon values"
        )
    z = y - omega(n) * eps**n

    pc = np.clip(p, 0.25 / m, 1.0 - 0.25 / m)
    cov_y = (np.minimum.outer(pc, pc) - np.outer(pc, pc)) * (v_bb**2 / m)
    # Tiny ridge keeps the Cholesky factor well-defined when epsilons
    # nearly coincide in probability.
    cov_y[np.diag_indices(k)] += (v_bb**2 / m) * 1e-12
    L = np.linalg.cholesky(cov_y)
    a = np.linalg.solve(L, design)
    b = np.linalg.solve(L, z)
    beta, *_ = np.linalg.lstsq(a, b, rcond=None)
    cov_beta = np.linalg.inv(a.T @ a)

    # The design columns already carry omega_{n-j}, so beta_j = V_j.
    values = np.empty(n + 1)
    stderr = np.empty(n + 1)
    values[0], stderr[0] = 1.0, 0.0
    values[1:] = beta
    stderr[1:] = np.sqrt(np.maximum(np.diag(cov_beta), 0.0))
    np.clip(values, 0.0, None, out=values)
    return values, stderr


def fit_intrinsic_volumes(
    P: BallPolyhedron,
    grid: Optional[EpsilonGrid] = None,
    seed: int = 0,
) -> IntrinsicVolumeVector:
    """Estimate V_0..V_n of a ball-polyhedron by the expansion fit.

    Uses one uniform cloud in the grid's bounding ball, distances to
    the body, and the nested-probability GLS of
    ``steiner_fit_from_distances``. Only the points that can count are
    mapped: the map's nearest points lie within s = CANDIDATE_RTOL *
    max r of every ball, so x is at least |x - c_i| - r_i - s from its
    nearest point for every i, and a point outside some ball grown by
    the largest epsilon plus 2s counts in no p_k, rounding included; it
    gets distance inf. The cloud is scaled into the bounding ball in
    place, and it is cut to its near rows before the distance step, so
    the full cloud is not live while the map runs; ``dists`` keeps the
    full length, since p_k divides by the sample count. V_n is
    cross-checked against an independent hit-or-miss volume estimate
    (stored on the result). An empty intersection returns the all-zero
    vector by convention.
    """
    n = P.dimension
    if grid is None:
        grid = EpsilonGrid.default_for(P)
    grid.validate_covers(P)
    if P.is_empty():
        return IntrinsicVolumeVector(np.zeros(n + 1), np.zeros(n + 1))

    v_bb = omega(n) * grid.bounding_radius**n
    rng = stream(seed, 0)
    pts = uniform_in_ball(rng, n, grid.samples)
    pts *= grid.bounding_radius  # in place, the bits of c + r * pts
    pts += grid.bounding_center
    s = CANDIDATE_RTOL * float(np.max(P.radii))
    near = P.contains(pts, float(grid.eps[-1]) + 2.0 * s)
    pts = pts[near]
    dists = np.full(near.size, np.inf)
    dists[near] = distances_to_ballpoly(P, pts)[0]
    values, stderr = steiner_fit_from_distances(dists, v_bb, grid.eps, n)
    crosscheck = mc_volume(P, grid.samples, seed + 1)
    return IntrinsicVolumeVector(values, stderr, vn_crosscheck=crosscheck)
