"""Dominance experiments: survival curves, extremizer checks, moments."""

import math
import multiprocessing
import os

import numpy as np
import pytest

from ballpoly import densities as dn
from ballpoly import dominance as dm
from ballpoly.errors import DegenerateTangency, NonIntegrable
from ballpoly.geometry import BallPolyhedron, DirectionGrid, SupportBody
from ballpoly.intrinsic import EpsilonGrid, fit_intrinsic_volumes
from ballpoly.rng import TRIAL_BLOCK, stream


def unit_area_square():
    return dn.UniformBody(dn.Box.centered_cube(1.0, 2))


def half_product(n=2):
    return dn.Product1D([dn.Box1DStep([-1.0, 1.0], [0.5]) for _ in range(n)])


class TestRunTrials:
    def test_single_ball_constant(self):
        cfg = dm.ExperimentConfig(n=2, N=1, R=2.0, j=2, density=unit_area_square(),
                                  trials=200, seed=1)
        batch = dm.run_trials(cfg)
        assert np.allclose(batch.values, math.pi * 4.0, atol=1e-12)
        assert batch.failed == 0

    def test_two_ball_trials_match_lens_closed_form(self):
        disk = dn.UniformBody(dn.BallRegion(np.zeros(2), math.pi**-0.5))
        R = 3.0
        cfg = dm.ExperimentConfig(n=2, N=2, R=R, j=2, density=disk, trials=300, seed=2)
        batch = dm.run_trials(cfg)
        assert np.all(batch.values > 0.0)
        assert np.all(batch.values <= 9 * math.pi + 1e-12)
        # Re-derive each trial's centers from the same substreams and
        # compare against the two-disk closed form.
        for t in range(0, 300, 7):
            c = np.vstack([disk.sample(stream(2, t // dm.TRIAL_BLOCK, i), dm.TRIAL_BLOCK)
                           [t % dm.TRIAL_BLOCK] for i in range(2)])
            d = float(np.linalg.norm(c[0] - c[1]))
            expected = 2 * R * R * math.acos(d / (2 * R)) - (d / 2) * math.sqrt(4 * R * R - d * d)
            assert batch.values[t] == pytest.approx(expected, rel=1e-12)

    def test_small_radius_gives_zeros(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=0.2, j=2, density=unit_area_square(),
                                  trials=500, seed=3)
        batch = dm.run_trials(cfg)
        assert np.any(batch.values == 0.0)

    def test_determinism_and_worker_invariance(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=400, seed=4)
        a = dm.run_trials(cfg).values
        b = dm.run_trials(cfg).values
        assert np.array_equal(a, b)
        cfg2 = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                   trials=400, seed=4, workers=2)
        c = dm.run_trials(cfg2).values
        assert np.array_equal(a, c)

    def test_replay_matches_run_in_two_blocks(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=300, seed=24)
        batch = dm.run_trials(cfg)
        assert batch.failed == 0
        for t in (5, dm.TRIAL_BLOCK + 30):
            assert dm._trial_value(cfg, cfg.densities(), cfg.radii, t) == batch.values[t]

    def test_partial_block_independent_of_workers_and_count(self):
        # 700 trials: two full blocks and a partial one, split over two
        # workers; trial t must not depend on the trial count either.
        kw = dict(n=2, N=3, R=3.0, j=2, density=unit_area_square(), seed=25)
        one = dm.run_trials(dm.ExperimentConfig(trials=700, **kw)).values
        two = dm.run_trials(dm.ExperimentConfig(trials=700, workers=2, **kw)).values
        assert np.array_equal(one, two)
        short = dm.run_trials(dm.ExperimentConfig(trials=300, **kw)).values
        assert np.array_equal(one[:300], short)

    def test_pool_no_larger_than_its_chunks(self, monkeypatch):
        # 300 trials make two chunks, so 64 workers need a pool of two
        # (one per CPU if there are fewer). 5000 workers make one chunk
        # per block, one chunk more than there are CPUs here, and get one
        # process per CPU. The fake context maps serially and starts no
        # process; with ``run`` off it returns zero parts without running
        # a trial.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        sizes, chunks = [], []
        run = True

        class SerialPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                chunks.append(len(items))
                if run:
                    return list(map(fn, items))
                return [(np.zeros(hi - lo), []) for lo, hi in items]

        class SerialContext:
            Pool = SerialPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SerialContext)
        kw = dict(n=2, N=3, R=3.0, j=2, density=unit_area_square(), seed=29)
        for workers, trials, size in ((64, 300, min(2, cpus)),
                                      (5000, cpus * TRIAL_BLOCK + 1, cpus)):
            sizes.clear()
            pooled = dm.run_trials(dm.ExperimentConfig(workers=workers, trials=trials, **kw))
            assert sizes == [size]
            assert np.array_equal(pooled.values,
                                  dm.run_trials(dm.ExperimentConfig(trials=trials, **kw)).values)
        # The chunks are sized for the pool, not for the workers asked
        # for, which would make 5000 workers submit 3907 chunks of 10^6
        # trials.
        run = False
        chunks.clear()
        for workers in (max(2, cpus), 5000):
            dm.run_trials(dm.ExperimentConfig(workers=workers, trials=10**6, **kw))
        assert chunks[0] == chunks[1]

    def test_unknown_estimator_is_rejected(self):
        # Anything but 'exact-2d' used to run the trials through the fit.
        with pytest.raises(ValueError, match="key 'estimator'.*'exact2d'"):
            dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                trials=100, seed=1, estimator="exact2d")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0, -0.5, math.nan])
    def test_alpha_outside_the_unit_interval_is_rejected(self, alpha):
        # alpha = 2.0 used to run with a band of 0.0 and alpha = 3.0 to
        # die mid-run in the band's logarithm.
        with pytest.raises(ValueError, match="alpha must satisfy 0 < alpha < 1"):
            dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                trials=100, seed=1, alpha=alpha)

    def test_density_of_another_dimension_is_rejected(self):
        # Used to pass construction and fail only when the trials ran.
        ball = dn.UniformBody(dn.BallRegion(np.zeros(3), 0.5))
        with pytest.raises(ValueError, match="density has dimension 3, the run needs n=2"):
            dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=ball, trials=100, seed=1)

    def test_estimator_bug_propagates(self, monkeypatch):
        def broken(centers, radii):
            raise ValueError("a bug, not a failed trial")

        monkeypatch.setattr(dm.exact2d, "disk_region", broken)
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=100, seed=26)
        with pytest.raises(ValueError, match="a bug"):
            dm.run_trials(cfg)

    def test_estimator_failure_counts_one_trial(self, monkeypatch):
        real = dm.exact2d.disk_region
        calls = []

        def flaky(centers, radii):
            calls.append(1)
            if len(calls) == 7:
                raise DegenerateTangency("tangent within tolerance")
            return real(centers, radii)

        monkeypatch.setattr(dm.exact2d, "disk_region", flaky)
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=1000, seed=27)
        batch = dm.run_trials(cfg)
        assert batch.failed == 1
        assert batch.values.size == 999

    def test_steiner_fit_trials_in_3d(self):
        # Volume-one ball: every center lies within 0.62 of the origin,
        # so the three unit balls share the origin and V_3 > 0.
        ball = dn.ball_extremizer(3)
        cfg = dm.ExperimentConfig(n=3, N=3, R=1.0, j=3, density=ball, trials=100,
                                  seed=28, estimator="steiner-fit", fit_samples=2000)
        block = [ball.sample(stream(28, 0, i), dm.TRIAL_BLOCK) for i in range(3)]
        for t in range(5):
            v = dm._trial_value(cfg, cfg.densities(), cfg.radii, t)
            assert math.isfinite(v) and v > 0.0
            P = BallPolyhedron.from_arrays(np.vstack([c[t] for c in block]), 1.0)
            grid = EpsilonGrid.default_for(P, samples=2000)
            seed = int(np.random.SeedSequence((28, t, 10_000)).generate_state(1)[0])
            assert v == fit_intrinsic_volumes(P, grid, seed=seed).values[3]


class TestSurvival:
    def test_constant_samples_step(self):
        s = np.array([0.5, 0.9, 1.0, 1.1])
        curve = dm.SurvivalCurve.from_samples(np.full(200, 1.0), s)
        assert np.allclose(curve.p, [1.0, 1.0, 0.0, 0.0])

    def test_dkw_value(self):
        # sqrt(log(40) / (2 * 1e5))
        assert dm.dkw_band(100_000, 0.05) == pytest.approx(0.00429469, abs=1e-7)
        assert dm.dkw_band(100_000, 0.05) == pytest.approx(0.00430, abs=1e-5)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        curve = dm.SurvivalCurve.from_samples(rng.exponential(1.0, 5000),
                                              np.linspace(0, 5, 40))
        assert np.all(np.diff(curve.p) <= 0)

    def test_single_ball_step_at_area(self):
        cfg = dm.ExperimentConfig(n=2, N=1, R=2.0, j=2, density=unit_area_square(),
                                  trials=200, seed=6)
        v = dm.run_trials(cfg).values
        s = np.array([12.0, math.pi * 4 - 1e-9, math.pi * 4 + 1e-9])
        curve = dm.SurvivalCurve.from_samples(v, s)
        assert np.allclose(curve.p, [1.0, 1.0, 0.0])


class TestAutoGrid:
    @staticmethod
    def quantile_grid(v, count):
        """The grid as np.quantile gives it, widened as _auto_grid widens."""
        lo, hi = np.quantile(v, 0.01), np.quantile(v, 0.99)
        if hi <= lo:
            hi = lo + max(abs(lo), 1.0) * 1e-6
        return np.linspace(lo, hi, count)

    @pytest.mark.parametrize("size", [1, 2, 3, 99, 100, 101, 4000])
    @pytest.mark.parametrize("kind", ["continuous", "ties", "constant"])
    def test_grid_is_np_quantiles_bit_for_bit(self, size, kind):
        # The sort-once quantiles replay np.quantile's 'linear' rule; ties
        # put equal values on both sides of an interpolation, and a
        # constant sample takes the hi <= lo widening.
        rng = np.random.default_rng(size)
        for _ in range(20):
            if kind == "continuous":
                v = rng.exponential(rng.uniform(0.1, 10.0), size)
            elif kind == "ties":
                v = rng.integers(0, 4, size) * rng.uniform(0.1, 10.0)
            else:
                v = np.full(size, rng.normal())
            got = dm._auto_grid(v, 20)
            assert got.tobytes() == self.quantile_grid(v, 20).tobytes()
            assert kind != "constant" or got[-1] > got[0]


class TestVerdicts:
    def test_grid_refinement_cannot_flip_consistent(self):
        rng = np.random.default_rng(7)
        ext = rng.uniform(1, 3, 3000)
        test = ext - 0.2  # stochastically smaller
        for pts in (5, 20, 80):
            s = np.linspace(0.5, 3.5, pts)
            v = dm.compare_curves(dm.SurvivalCurve.from_samples(test, s),
                                  dm.SurvivalCurve.from_samples(ext, s))
            assert v.consistent

    def test_violation_reports_location_and_gap(self):
        rng = np.random.default_rng(8)
        ext = rng.uniform(0, 1, 4000)
        test = ext + 0.3
        s = np.linspace(0.1, 1.2, 20)
        v = dm.compare_curves(dm.SurvivalCurve.from_samples(test, s),
                              dm.SurvivalCurve.from_samples(ext, s))
        assert not v.consistent
        assert v.violation_s is not None and v.gap > v.tolerance


class TestBallExtremizer:
    def test_self_comparison_consistent(self):
        ball = dn.ball_extremizer(2)
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=1, density=ball,
                                  trials=1500, seed=9)
        rep = dm.check_ball_extremizer(cfg)
        assert rep.verdict.consistent
        assert abs(rep.verdict.gap) < rep.verdict.tolerance

    def test_square_consistent(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=4000, seed=10)
        rep = dm.check_ball_extremizer(cfg)
        assert rep.verdict.consistent

    def test_swapped_direction_violates(self):
        # The extremizer's curve strictly dominates somewhere, so
        # feeding it as the test density must flag a violation.
        ball = dn.ball_extremizer(2)
        sq = unit_area_square()
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=ball,
                                  trials=30_000, seed=11)
        test = dm.run_trials(cfg)
        ext = dm.run_trials(cfg, density=sq)
        s = dm._auto_grid(ext.values, 20)
        v = dm.compare_curves(dm.SurvivalCurve.from_samples(test.values, s),
                              dm.SurvivalCurve.from_samples(ext.values, s))
        assert not v.consistent

    def test_unbounded_density_uses_general_normalization(self):
        # sup = 4 > 1: extremizer must be the mass-one ball with
        # density 4, i.e. radius (4*pi)^{-1/2} in the plane.
        small = dn.UniformBody(dn.Box.centered_cube(0.5, 2))
        assert small.sup_bound == pytest.approx(4.0)
        cfg = dm.ExperimentConfig(n=2, N=2, R=3.0, j=2, density=small,
                                  trials=1500, seed=12)
        rep = dm.check_ball_extremizer(cfg)
        assert rep.verdict.consistent


class TestCubeExtremizer:
    def test_self_comparison(self):
        q = dn.Product1D([dn.Box1DStep([-0.5, 0.5], [1.0])] * 2)
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=q, trials=1500, seed=13)
        rep = dm.check_cube_extremizer(cfg)
        assert rep.verdict.consistent
        assert abs(rep.verdict.gap) < rep.verdict.tolerance

    def test_half_product_consistent(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=half_product(),
                                  trials=4000, seed=14)
        rep = dm.check_cube_extremizer(cfg)
        assert rep.verdict.consistent

    def test_mixed_step_densities_consistent(self):
        # Mass 1: 0.5/1.1 on length 2.2, in three pieces of equal height.
        f1 = dn.Box1DStep([-1.0, -0.2, 0.6, 1.2], [0.5 / 1.1] * 3)
        f2 = dn.Box1DStep([-2.0, 0.0, 0.5], [0.3, 0.8])
        cfg = dm.ExperimentConfig(
            n=2, N=3, R=3.0, j=2, density=dn.Product1D([f1, f2]),
            trials=4000, seed=15,
        )
        rep = dm.check_cube_extremizer(cfg)
        assert rep.verdict.consistent
        assert rep.failed_trials == 0

    def test_factor_sup_above_one_uses_matching_cube(self):
        # A factor with sup 2 makes the extremizer the product of
        # uniform factors with the density's own sups, not the unit cube.
        q = dn.Product1D([dn.Box1DStep([-0.25, 0.25], [2.0]),
                          dn.Box1DStep([-0.5, 0.5], [1.0])])
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=q, trials=200, seed=17)
        rep = dm.check_cube_extremizer(cfg)
        ext = dm.run_trials(cfg, density=dn.cube_extremizer([2.0, 1.0]))
        expected = dm.SurvivalCurve.from_samples(ext.values, rep.extremal_curve.s)
        assert np.array_equal(rep.extremal_curve.p, expected.p)
        assert np.array_equal(rep.extremal_curve.s, dm._auto_grid(ext.values, 20))

    def test_requires_product_density(self):
        cfg = dm.ExperimentConfig(n=2, N=3, R=3.0, j=2, density=unit_area_square(),
                                  trials=200, seed=16)
        with pytest.raises(ValueError):
            dm.check_cube_extremizer(cfg)


class TestMoments:
    def grid(self):
        return DirectionGrid.uniform_2d(2048)

    def test_ball_body_is_equality_case(self):
        K = SupportBody.ball(np.zeros(2), 0.5, self.grid())
        rep = dm.moment_compare(K, R=6.0, N=3, j=2, p=1.0, trials=2000, seed=17)
        assert abs(rep.margin) <= 4 * rep.combined_stderr + 1e-9

    def test_square_body_positive_and_negative_p(self):
        side = math.pi / 4  # mean width one
        K = SupportBody.cube(side, 2, self.grid())
        for p in (-4.0, -1.0, 1.0, 2.0):
            rep = dm.moment_compare(K, R=6.0, N=4, j=2, p=p, trials=3000, seed=18)
            assert rep.lhs <= rep.rhs + 3 * rep.combined_stderr

    def test_negative_p_scales_with_the_body(self):
        # V_2 scales as s^2, so a scaled-down square must give the same
        # p-means over s^2, not an integrability error.
        def compare(s):
            K = SupportBody.cube(s * math.pi / 4, 2, self.grid())
            return dm.moment_compare(K, R=6.0 * s, N=9, j=2, p=-1.0, trials=100, seed=1)

        base, s = compare(1.0), 1e-7
        small = compare(s)
        for got, want in [(small.lhs, base.lhs), (small.rhs, base.rhs),
                          (small.lhs_stderr, base.lhs_stderr), (small.rhs_stderr, base.rhs_stderr)]:
            assert got / s**2 == pytest.approx(want, rel=1e-9)

    def test_zero_sample_with_negative_p_raises(self):
        values = np.array([1e-20, 2e-20, 3e-20])
        with pytest.raises(NonIntegrable):
            dm.moment_report(np.array([1e-20, 0.0, 3e-20]), values, -1.0)
        with pytest.raises(NonIntegrable):
            dm.moment_report(values, np.zeros(3), -2.0)
        assert dm.moment_report(values, values, -1.0).margin == 0.0

    @pytest.mark.parametrize("p", [-math.inf, math.inf, math.nan, 0.0])
    def test_order_must_be_finite_and_nonzero(self, p):
        values = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite and nonzero"):
            dm.moment_report(values, values, p)
