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

A chunk passes each trial its row of the block as plain floats, a list
of N centres that are each a list of n floats, and the radii as a
list; the planar decomposition reads these without numpy. The
conversion is exact, so the values, RNG contract 2 and
``RNG_CONTRACT`` are unchanged.

Only a run with workers > 1 imports ``multiprocessing``, in
``run_trials``'s pool branch: a single-process run never forks, and
the import costs a cold start about 0.6 MB and 5 ms. No run imports
``numpy.ma`` either: the survival grid reads its quantiles from one
sort of the extremizer's sample (``_auto_grid``) rather than from
``np.quantile``, whose ``np.unique`` step loads the masked-array package,
about 1.2 MB of a cold start (numpy 2.4).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from . import exact2d
from .densities import Density, Product1D, UniformBody, ball_extremizer, cube_extremizer
from .errors import BallPolyError, NonIntegrable, UnsupportedDimension
from .geometry import BallPolyhedron
from .intrinsic import EpsilonGrid, fit_intrinsic_volumes
from .rng import TRIAL_BLOCK, stream
from .wulff import build_A
# Unused here, but the benchmark's span tracer patches
# ``dominance.uniform_on_sphere`` by name, so the binding must exist.
from .rng import uniform_on_sphere  # noqa: F401

# Experiments abort when more than this fraction of trials fail
# (silently dropping more would bias the tails).
MAX_FAILED_FRACTION = 1e-3

# Points of the survival grid, from the extremizer's 1% to its 99% point.
S_POINTS = 20


def dkw_band(m: int, alpha: float) -> float:
    """Half-width of the simultaneous empirical-CDF band:
    sqrt(log(2/alpha) / (2m))."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


@dataclass
class ExperimentConfig:
    """Parameters of a random ball-polyhedron dominance run: the one
    place that checks them and fills in their defaults. The reports a
    run returns do not repeat them. The survival grid is not a setting:
    it is always the automatic grid of ``S_POINTS`` = 20 points
    (``_auto_grid``)."""

    n: int
    N: int
    R: float
    j: int
    density: Density
    trials: int
    seed: int
    alpha: float = 0.05
    estimator: str = "exact-2d"  # 'exact-2d' | 'steiner-fit'
    fit_samples: int = 20_000
    workers: int = 1

    def __post_init__(self):
        if self.density.dimension != self.n:
            raise ValueError(f"the density has dimension {self.density.dimension}, "
                             f"the run needs n={self.n}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must satisfy 0 < alpha < 1 (alpha={self.alpha!r})")
        if not 1 <= self.j <= self.n:
            raise ValueError(f"j must satisfy 1 <= j <= n (j={self.j}, n={self.n})")
        if self.trials < 100:
            raise ValueError(f"trials must be at least 100 (trials={self.trials})")
        if self.estimator not in ("exact-2d", "steiner-fit"):
            raise ValueError(f"key 'estimator' must be 'exact-2d' or 'steiner-fit', "
                             f"got {self.estimator!r}")
        if self.estimator == "exact-2d" and self.n != 2:
            raise UnsupportedDimension(f"key 'estimator' 'exact-2d' (the default) needs n = 2, "
                                       f"got n={self.n}; use 'steiner-fit'")

    @property
    def radii(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.R, dtype=float), (self.N,)).copy()

    def densities(self) -> List[Density]:
        """The density of each of the N i.i.d. centres."""
        return [self.density] * self.N


@dataclass
class TrialBatch:
    """V_j samples of one run; failed trials are dropped and counted."""

    values: np.ndarray
    failed: int


def _block_centers(cfg: ExperimentConfig, densities, b: int) -> np.ndarray:
    """Centers of every trial in block b, shape (TRIAL_BLOCK, N, n)."""
    return np.stack([d.sample(stream(cfg.seed, b, i), TRIAL_BLOCK)
                     for i, d in enumerate(densities)], axis=1)


def _trial_value(cfg: ExperimentConfig, densities, radii, t: int,
                 centers: Optional[Union[np.ndarray, list]] = None) -> float:
    """V_j of trial t, whose (N, n) ``centers`` are row t % TRIAL_BLOCK
    of its block, as an array or as a list of N lists of n floats;
    without them the block is drawn, which replays trial t alone."""
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
    """V_j of trials lo..hi-1 and the trials that failed. Each block is
    drawn once, and each trial gets its row as lists of floats. Rows are
    converted one at a time: converting the whole block at once is no
    faster, and its lists would keep a second copy of the block alive."""
    lo, hi = bounds
    cfg = _FORK_STATE["cfg"]
    densities = _FORK_STATE["densities"]
    radii = cfg.radii.tolist()
    vals = np.empty(hi - lo)
    failed = []
    for b in range(lo // TRIAL_BLOCK, -(-hi // TRIAL_BLOCK)):
        block = _block_centers(cfg, densities, b)
        for t in range(max(lo, b * TRIAL_BLOCK), min(hi, (b + 1) * TRIAL_BLOCK)):
            try:
                vals[t - lo] = _trial_value(cfg, densities, radii, t,
                                            block[t % TRIAL_BLOCK].tolist())
            except BallPolyError:
                vals[t - lo] = np.nan
                failed.append(t)
    return vals, failed


def run_trials(cfg: ExperimentConfig, density: Optional[Density] = None) -> TrialBatch:
    """Evaluate V_j over cfg.trials independent ball-polyhedra.

    ``density`` overrides cfg.density for every centre (used to run the
    extremizer with the same trial seeds). The pool is no larger than
    the chunks or this process's CPUs, and the chunks are sized for no
    more workers than CPUs. Empty intersections score 0; estimator
    failures (``BallPolyError``) mark the trial FAILED, and the run
    aborts if failures exceed 0.1% of the trials. Any other
    exception, and any sampler error while drawing a block, propagates.
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
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(workers, cpus or 1)
        chunk = TRIAL_BLOCK * max(1, m // (workers * 8 * TRIAL_BLOCK))
        bounds = [(lo, min(lo + chunk, m)) for lo in range(0, m, chunk)]
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(bounds))) as pool:
            parts = pool.map(_chunk_worker, bounds)
        vals = np.concatenate([p[0] for p in parts])
        failed = [t for p in parts for t in p[1]]
    n_failed = len(failed)
    if n_failed > MAX_FAILED_FRACTION * m:
        raise RuntimeError(
            f"{n_failed} of {m} trials failed (> {MAX_FAILED_FRACTION:.1%}); aborting"
        )
    return TrialBatch(vals[~np.isnan(vals)], n_failed)


# ---------------------------------------------------------------------------
# Survival curves and verdicts


@dataclass
class SurvivalCurve:
    """Empirical tail probabilities with a simultaneous band."""

    s: np.ndarray
    p: np.ndarray
    band: float

    @classmethod
    def from_samples(cls, samples: np.ndarray, s_grid: np.ndarray,
                     alpha: float = 0.05) -> "SurvivalCurve":
        v = np.sort(np.asarray(samples, dtype=float))
        m = v.size
        p = 1.0 - np.searchsorted(v, s_grid, side="right") / m
        return cls(np.asarray(s_grid, dtype=float), p, dkw_band(m, alpha))


@dataclass
class DominanceVerdict:
    consistent: bool
    violation_s: Optional[float]
    gap: float              # worst (test - extremal) gap over the grid
    tolerance: float        # sum of the two bands

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
        return DominanceVerdict(False, float(test.s[worst]), float(gaps[worst]), float(tol))
    return DominanceVerdict(True, None, float(gaps[worst]), float(tol))


@dataclass
class DominanceReport:
    verdict: DominanceVerdict
    test_curve: SurvivalCurve
    extremal_curve: SurvivalCurve
    failed_trials: int


def _auto_grid(extremal_values: np.ndarray, count: int) -> np.ndarray:
    """``count`` evenly spaced points from the 1% to the 99% point of
    the extremizer's sample, widened when the two coincide.

    The points are ``np.quantile``'s default 'linear' rule, written out
    on one sort of the sample: with m values v sorted, h = (m - 1) q,
    i = floor(h), g = h - i, a = v[i] and b = v[min(i + 1, m - 1)], the
    point is a + (b - a) g when g < 0.5 and b - (b - a)(1 - g) otherwise
    (numpy's two-sided ``_lerp``), so the grid has the same bits.
    ``np.quantile`` itself would pass through ``np.unique``, whose
    ``np.ma.is_masked`` check imports the whole ``numpy.ma`` package
    (about 1.2 MB of a cold start) that no dominance run uses."""
    v = np.sort(extremal_values)
    last = v.size - 1
    points = []
    for q in (0.01, 0.99):
        h = last * q
        i = math.floor(h)
        g = h - i
        a, b = v[i], v[min(i + 1, last)]
        points.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g))
    lo, hi = points
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 1e-6
    return np.linspace(lo, hi, count)


def _check_extremizer(cfg: ExperimentConfig, extremizer: Density) -> DominanceReport:
    """Run cfg's trials under its own density and under the extremizer
    (same trial seeds), and compare the survival curves."""
    test = run_trials(cfg)
    extremal = run_trials(cfg, density=extremizer)
    s = _auto_grid(extremal.values, S_POINTS)
    tc = SurvivalCurve.from_samples(test.values, s, cfg.alpha)
    ec = SurvivalCurve.from_samples(extremal.values, s, cfg.alpha)
    return DominanceReport(compare_curves(tc, ec), tc, ec, test.failed + extremal.failed)


def check_ball_extremizer(cfg: ExperimentConfig) -> DominanceReport:
    """Survival-curve comparison against the ball extremizer.

    Densities with sup at most one are compared against the uniform
    density on the volume-one centered ball; larger sup bounds use the
    general normalization a*1_{bB} with a the density's sup."""
    sup = cfg.density.sup_bound
    return _check_extremizer(cfg, ball_extremizer(cfg.n, sup if sup > 1.0 else 1.0))


def check_cube_extremizer(cfg: ExperimentConfig) -> DominanceReport:
    """Survival-curve comparison against the cube extremizer for
    product densities: the unit cube when every factor's sup is at most
    one, otherwise uniform factors matching the factors' sups."""
    d = cfg.density
    if not isinstance(d, Product1D):
        raise ValueError("cube extremizer requires product densities")
    sups = [f.sup_bound for f in d.factors]
    if max(sups) <= 1.0 + 1e-12:
        sups = [1.0] * cfg.n
    return _check_extremizer(cfg, cube_extremizer(sups))


# ---------------------------------------------------------------------------
# Moment comparison


@dataclass
class MomentReport:
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


def moment_experiment(K, R: float, N: int, j: int, trials: int, seed: int,
                      **options) -> ExperimentConfig:
    """The lhs of the moment comparison: centres uniform on the tangent-centre
    star body A(K, R). ``options`` (estimator, fit_samples, workers)
    override the ExperimentConfig defaults."""
    return ExperimentConfig(n=K.dimension, N=N, R=R, j=j, density=UniformBody(build_A(K, R)),
                            trials=trials, seed=seed, **options)


def moment_samples(cfg: ExperimentConfig):
    """Trials of both sides of the moment comparison: a
    ``moment_experiment`` (lhs) against the ball extremizer at the
    density's sup (rhs), the uniform ball of the star body's volume.
    Returns the two TrialBatches, from which ``moment_report`` scores
    any number of p."""
    ball = ball_extremizer(cfg.n, cfg.density.sup_bound)
    return run_trials(cfg), run_trials(cfg, density=ball)


def moment_report(lhs_vals: np.ndarray, rhs_vals: np.ndarray, p: float) -> MomentReport:
    """p-th moments of the two sides' V_j samples, for a finite, nonzero p
    (any other p raises ValueError).

    Every ball in these configurations contains a fixed neighborhood of
    the origin, so negative moments are finite; with p < 0 a sample at
    most 1e-12 times the largest sample of either side raises
    NonIntegrable since it signals a geometry bug. The floor is relative
    because V_j scales as s^j with the body, and a zero sample always
    raises.
    """
    if not (math.isfinite(p) and p != 0):
        raise ValueError(f"moment order p must be finite and nonzero, got {p}")
    if p < 0:
        floor = 1e-12 * max(np.max(lhs_vals, initial=0.0), np.max(rhs_vals, initial=0.0))
        if np.any(lhs_vals <= floor) or np.any(rhs_vals <= floor):
            raise NonIntegrable(
                "a trial produced V_j at most 1e-12 of the largest sample with p < 0; the "
                "tangent-center construction guarantees a ball around the origin, so this "
                "is a bug"
            )
    lhs, se_l = _p_mean(lhs_vals, p)
    rhs, se_r = _p_mean(rhs_vals, p)
    return MomentReport(lhs, rhs, se_l, se_r)


def moment_compare(K, R: float, N: int, j: int, p: float, trials: int,
                   seed: int = 0) -> MomentReport:
    """p-th moment comparison for one p with the planar exact
    estimator: ``moment_samples`` scored by ``moment_report``."""
    lhs, rhs = moment_samples(moment_experiment(K, R, N, j, trials, seed))
    return moment_report(lhs.values, rhs.values, p)
