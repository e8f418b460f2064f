"""Monte-Carlo dominance experiments for random ball-polyhedra.

Centers X_1..X_N are drawn from a density, balls of radius R are
intersected, and the intrinsic volume V_j of the intersection is a
random variable whose survival curve s -> P(V_j > s) is compared
against the curve of an extremizing density (uniform on a volume-one
ball for sup-bounded densities, uniform on the unit cube for product
densities). Dominance is tested pointwise on an s-grid with
simultaneous distribution-free confidence bands, which makes the
comparison conservative: a VIOLATION requires the empirical gap to
exceed both bands.

Determinism (RNG contract version 2, see ``rng``): trials run in
blocks of ``TRIAL_BLOCK``; center i of every trial in block b comes
from one draw of ``TRIAL_BLOCK`` points on the substream keyed
(seed, b, i), and trial t takes row t % TRIAL_BLOCK of block
t // TRIAL_BLOCK. Full blocks are always drawn, so trial t's value is
bit-identical for any trial count, worker count or chunking, and
``_trial_value`` replays it alone. Worker chunks start on block bounds
so that no block is drawn twice.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from . import exact2d
from .densities import (
    BallRegion, Density, Product1D, UniformBody, ball_extremizer, cube_extremizer,
)
from .errors import BallPolyError, NonIntegrable, UnsupportedDimension
from .geometry import BallPolyhedron
from .intrinsic import EpsilonGrid, fit_intrinsic_volumes
from .rng import TRIAL_BLOCK, stream
from .wulff import build_A, volume_radius
# Unused here, but the benchmark's span tracer patches
# ``dominance.uniform_on_sphere`` by name, so the binding must exist.
from .rng import uniform_on_sphere  # noqa: F401

# Experiments abort when more than this fraction of trials fail
# (silently dropping more would bias the tails).
MAX_FAILED_FRACTION = 1e-3


def dkw_band(m: int, alpha: float) -> float:
    """Half-width of the simultaneous empirical-CDF band:
    sqrt(log(2/alpha) / (2m))."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


@dataclass
class ExperimentConfig:
    """Parameters of a random ball-polyhedron dominance run."""

    n: int
    N: int
    R: Union[float, Sequence[float]]
    j: int
    density: Union[Density, List[Density]]
    trials: int
    seed: int
    s_grid: Optional[np.ndarray] = None
    s_points: int = 20
    alpha: float = 0.05
    estimator: str = "exact-2d"  # 'exact-2d' | 'steiner-fit'
    fit_samples: int = 20_000
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.j <= self.n:
            raise ValueError(f"need 1 <= j <= n, got j={self.j}, n={self.n}")
        if self.trials < 100:
            raise ValueError("need at least 100 trials")
        if self.estimator == "exact-2d" and self.n != 2:
            raise UnsupportedDimension("exact-2d estimation needs n = 2")
        if self.s_grid is not None:
            self.s_grid = np.asarray(self.s_grid, dtype=float)
            if self.s_grid.size == 0 or np.any(np.diff(self.s_grid) <= 0):
                raise ValueError("s_grid must be nonempty ascending")

    @property
    def radii(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.R, dtype=float), (self.N,)).copy()

    def densities(self) -> List[Density]:
        ds = self.density if isinstance(self.density, list) else [self.density] * self.N
        if len(ds) != self.N:
            raise ValueError("need one density per ball")
        for d in ds:
            if d.dimension != self.n:
                raise ValueError("density dimension mismatch")
        return ds


@dataclass
class TrialBatch:
    """V_j samples of one run; failed trials are dropped and counted."""

    values: np.ndarray
    failed: int
    j: int


def _block_centers(cfg: ExperimentConfig, densities, b: int) -> np.ndarray:
    """Centers of every trial in block b, shape (TRIAL_BLOCK, N, n)."""
    return np.stack([d.sample(stream(cfg.seed, b, i), TRIAL_BLOCK)
                     for i, d in enumerate(densities)], axis=1)


def _trial_value(cfg: ExperimentConfig, densities, radii, t: int,
                 centers: Optional[np.ndarray] = None) -> float:
    """V_j of trial t, whose (N, n) ``centers`` are row t % TRIAL_BLOCK
    of its block; without them the block is drawn, which replays trial
    t alone."""
    if centers is None:
        centers = _block_centers(cfg, densities, t // TRIAL_BLOCK)[t % TRIAL_BLOCK]
    if cfg.estimator == "exact-2d":
        region = exact2d.disk_region(centers, radii)
        if region.empty:
            return 0.0
        return region.area if cfg.j == 2 else region.perimeter / 2.0
    P = BallPolyhedron.from_arrays(centers, radii)
    grid = EpsilonGrid.default_for(P, samples=cfg.fit_samples)
    fit_seed = int(np.random.SeedSequence((cfg.seed, t, 10_000)).generate_state(1)[0])
    V = fit_intrinsic_volumes(P, grid, seed=fit_seed)
    return float(V.values[cfg.j])


_FORK_STATE: dict = {}


def _chunk_worker(bounds) -> tuple:
    lo, hi = bounds
    cfg = _FORK_STATE["cfg"]
    densities = _FORK_STATE["densities"]
    radii = cfg.radii
    vals = np.empty(hi - lo)
    failed = []
    for b in range(lo // TRIAL_BLOCK, -(-hi // TRIAL_BLOCK)):
        block = _block_centers(cfg, densities, b)
        for t in range(max(lo, b * TRIAL_BLOCK), min(hi, (b + 1) * TRIAL_BLOCK)):
            try:
                vals[t - lo] = _trial_value(cfg, densities, radii, t,
                                            block[t % TRIAL_BLOCK])
            except BallPolyError:
                vals[t - lo] = np.nan
                failed.append(t)
    return vals, failed


def run_trials(cfg: ExperimentConfig, density=None) -> TrialBatch:
    """Evaluate V_j over cfg.trials independent ball-polyhedra.

    ``density`` overrides cfg.density (used to run the extremizer with
    the same trial seeds). Empty intersections score 0; estimator
    failures (``BallPolyError``) mark the trial FAILED, and the run
    aborts if failures exceed 0.1% of the trials. Any other exception,
    and any sampler error while drawing a block, propagates.
    """
    local = ExperimentConfig(**{**cfg.__dict__, "density": density}) if density is not None else cfg
    densities = local.densities()
    m = local.trials
    workers = max(1, int(local.workers))
    # Forked workers inherit the state without pickling density oracles.
    _FORK_STATE.update(cfg=local, densities=densities)
    if workers == 1:
        vals, failed = _chunk_worker((0, m))
    else:
        chunk = TRIAL_BLOCK * max(1, m // (workers * 8 * TRIAL_BLOCK))
        bounds = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_chunk_worker, bounds)
        vals = np.concatenate([p[0] for p in parts])
        failed = [t for p in parts for t in p[1]]
    n_failed = len(failed)
    if n_failed > MAX_FAILED_FRACTION * m:
        raise RuntimeError(
            f"{n_failed} of {m} trials failed (> {MAX_FAILED_FRACTION:.1%}); aborting"
        )
    return TrialBatch(vals[~np.isnan(vals)], n_failed, local.j)


# ---------------------------------------------------------------------------
# Survival curves and verdicts


@dataclass
class SurvivalCurve:
    """Empirical tail probabilities with a simultaneous band."""

    s: np.ndarray
    p: np.ndarray
    alpha: float
    band: float

    @classmethod
    def from_samples(cls, samples: np.ndarray, s_grid: np.ndarray,
                     alpha: float = 0.05) -> "SurvivalCurve":
        v = np.sort(np.asarray(samples, dtype=float))
        m = v.size
        p = 1.0 - np.searchsorted(v, s_grid, side="right") / m
        return cls(np.asarray(s_grid, dtype=float), p, alpha, dkw_band(m, alpha))


@dataclass
class DominanceVerdict:
    consistent: bool
    violation_s: Optional[float]
    gap: float              # worst (test - extremal) gap over the grid
    tolerance: float        # sum of the two bands
    alpha: float

    @property
    def label(self) -> str:
        return "CONSISTENT" if self.consistent else "VIOLATION"


def compare_curves(test: SurvivalCurve, extremal: SurvivalCurve) -> DominanceVerdict:
    """Pointwise comparison: dominance predicts test <= extremal, so a
    violation needs test - extremal to exceed both bands somewhere."""
    if test.s.shape != extremal.s.shape or np.any(test.s != extremal.s):
        raise ValueError("curves must share the s-grid")
    gaps = test.p - extremal.p
    tol = test.band + extremal.band
    worst = int(np.argmax(gaps))
    if gaps[worst] > tol:
        return DominanceVerdict(False, float(test.s[worst]), float(gaps[worst]),
                                float(tol), test.alpha)
    return DominanceVerdict(True, None, float(gaps[worst]), float(tol), test.alpha)


@dataclass
class DominanceReport:
    verdict: DominanceVerdict
    test_curve: SurvivalCurve
    extremal_curve: SurvivalCurve
    failed_trials: int
    extremizer: str


def _auto_grid(extremal_values: np.ndarray, count: int) -> np.ndarray:
    lo = np.quantile(extremal_values, 0.01)
    hi = np.quantile(extremal_values, 0.99)
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 1e-6
    return np.linspace(lo, hi, count)


def _check_extremizer(cfg: ExperimentConfig, extremizers: List[Density],
                      label: str) -> DominanceReport:
    """Run cfg's trials under its own densities and under the
    extremizers (same trial seeds), and compare the survival curves."""
    test = run_trials(cfg)
    extremal = run_trials(cfg, density=extremizers)
    s = cfg.s_grid if cfg.s_grid is not None else _auto_grid(extremal.values, cfg.s_points)
    tc = SurvivalCurve.from_samples(test.values, s, cfg.alpha)
    ec = SurvivalCurve.from_samples(extremal.values, s, cfg.alpha)
    return DominanceReport(compare_curves(tc, ec), tc, ec,
                           test.failed + extremal.failed, label)


def check_ball_extremizer(cfg: ExperimentConfig) -> DominanceReport:
    """Survival-curve comparison against the ball extremizer.

    Densities with sup at most one are compared against the uniform
    density on the volume-one centered ball; larger sup bounds use the
    general normalization a*1_{bB} with a the density's sup."""
    extremizers = []
    for d in cfg.densities():
        sup = d.sup_bound
        extremizers.append(ball_extremizer(cfg.n, sup if sup > 1.0 else 1.0))
    return _check_extremizer(cfg, extremizers, "uniform-ball")


def check_cube_extremizer(cfg: ExperimentConfig) -> DominanceReport:
    """Survival-curve comparison against the cube extremizer for
    product densities: the unit cube when every factor's sup is at most
    one, otherwise uniform factors matching the factors' sups."""
    extremizers = []
    for d in cfg.densities():
        if not isinstance(d, Product1D):
            raise ValueError("cube extremizer requires product densities")
        sups = [f.sup_bound for f in d.factors]
        if max(sups) > 1.0 + 1e-12:
            extremizers.append(cube_extremizer(sups))
        else:
            extremizers.append(cube_extremizer([1.0] * cfg.n))
    return _check_extremizer(cfg, extremizers, "uniform-cube")


# ---------------------------------------------------------------------------
# Moment comparison


@dataclass
class MomentReport:
    p: float
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.lhs_stderr, self.rhs_stderr)


def _p_mean(values: np.ndarray, p: float):
    """(mean of v^p)^(1/p) with a jackknife standard error."""
    m = values.size
    vp = values**p
    s = float(np.sum(vp))
    mean = s / m
    est = mean ** (1.0 / p)
    loo = (s - vp) / (m - 1)
    g = loo ** (1.0 / p)
    se = math.sqrt((m - 1) / m * float(np.sum((g - np.mean(g)) ** 2)))
    return est, se


def moment_samples(K, R: float, N: int, j: int, trials: int, seed: int = 0,
                   estimator: str = "exact-2d", fit_samples: int = 20_000,
                   workers: int = 1):
    """Trials of both sides of the moment comparison: centers uniform on
    the tangent-center star body of K (lhs) versus uniform on its
    volume-matched ball (rhs), each side run by ``run_trials`` on
    ``workers`` processes. Returns the two TrialBatches, from which
    ``moment_report`` scores any number of p."""
    A = build_A(K, R)
    r = volume_radius(A)
    dens_a = UniformBody(A)
    dens_b = UniformBody(BallRegion(np.zeros(K.dimension), r))
    cfg = ExperimentConfig(
        n=K.dimension, N=N, R=R, j=j, density=dens_a, trials=trials,
        seed=seed, estimator=estimator, fit_samples=fit_samples, workers=workers,
    )
    return run_trials(cfg), run_trials(cfg, density=[dens_b] * N)


def moment_report(lhs_vals: np.ndarray, rhs_vals: np.ndarray, p: float) -> MomentReport:
    """p-th moments of the two sides' V_j samples.

    ``p = -inf`` (any non-finite p) reports the sample minima. Every
    ball in these configurations contains a fixed neighborhood of the
    origin, so negative moments are finite; a sample below 1e-12 with
    p < 0 raises NonIntegrable since it signals a geometry bug.
    """
    if not math.isfinite(p):
        return MomentReport(p, float(np.min(lhs_vals)), float(np.min(rhs_vals)), 0.0, 0.0)
    if p < 0 and (np.any(lhs_vals < 1e-12) or np.any(rhs_vals < 1e-12)):
        raise NonIntegrable(
            "a trial produced V_j below 1e-12 with p < 0; the tangent-center "
            "construction guarantees a ball around the origin, so this is a bug"
        )
    lhs, se_l = _p_mean(lhs_vals, p)
    rhs, se_r = _p_mean(rhs_vals, p)
    return MomentReport(p, lhs, rhs, se_l, se_r)


def moment_compare(K, R: float, N: int, j: int, p: float, trials: int,
                   seed: int = 0) -> MomentReport:
    """p-th moment comparison for one p with the planar exact
    estimator: ``moment_samples`` scored by ``moment_report``."""
    lhs, rhs = moment_samples(K, R, N, j, trials, seed)
    return moment_report(lhs.values, rhs.values, p)
