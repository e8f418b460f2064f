"""Intrinsic-volume estimators against closed forms and the 2D oracle."""

import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ballpoly.errors import IllConditioned
from ballpoly.exact2d import disk_region
from ballpoly.geometry import BallPolyhedron, DirectionGrid, SupportBody, distances_to_ballpoly
from ballpoly.intrinsic import (
    EpsilonGrid,
    fit_intrinsic_volumes,
    mc_volume,
    omega,
    steiner_fit_from_distances,
)
from ballpoly.rng import stream, uniform_in_ball

LENS = BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)
LENS_AREA = 2 * math.pi / 3 - math.sqrt(3) / 2
LENS_PERIM = 4 * math.pi / 3


class TestClosedForms:
    def test_omega(self):
        assert omega(0) == 1.0
        assert omega(1) == pytest.approx(2.0)
        assert omega(2) == pytest.approx(math.pi)
        assert omega(3) == pytest.approx(4 * math.pi / 3)



class TestMonteCarloVolume:
    def test_single_ball(self):
        P = BallPolyhedron.from_arrays([[0.0, 0.0]], 1.0)
        est, se = mc_volume(P, 200_000, seed=1)
        assert se == 0.0  # every sample hits
        assert est == pytest.approx(math.pi)

    def test_lens(self):
        est, se = mc_volume(LENS, 200_000, seed=2)
        assert abs(est - LENS_AREA) <= 3 * se

    def test_disjoint_zero(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0], [-2.0, 0.0]], 1.0)
        assert mc_volume(P, 1000, seed=3) == (0.0, 0.0)

    def test_batch_split_invariance(self):
        # Totals are sums over (seed, batch) streams: forcing smaller
        # batches must not change the estimate.
        import ballpoly.intrinsic as intr

        est1, _ = mc_volume(LENS, 30_000, seed=4)
        old = intr.MC_BATCH
        try:
            intr.MC_BATCH = 7_000
            est2, _ = mc_volume(LENS, 30_000, seed=4)
        finally:
            intr.MC_BATCH = old
        assert est1 != est2  # different stream layout is fine...
        assert abs(est1 - est2) < 0.05  # ...but statistically consistent


class TestSteinerFit:
    def test_unit_disk(self):
        P = BallPolyhedron.from_arrays([[0.0, 0.0]], 1.0)
        V = fit_intrinsic_volumes(P, seed=10)
        assert V.values[0] == 1.0
        assert V.values[1] == pytest.approx(math.pi, rel=0.02)
        assert V.values[2] == pytest.approx(math.pi, rel=0.02)

    def test_lens_consistency(self):
        V = fit_intrinsic_volumes(LENS, seed=11)
        assert V.values[2] == pytest.approx(LENS_AREA, rel=0.02)
        assert V.values[1] == pytest.approx(LENS_PERIM / 2, rel=0.03)
        mc_est, mc_se = V.vn_crosscheck
        assert abs(V.values[2] - mc_est) <= 4 * math.hypot(V.stderr[2], mc_se)

    def test_empty_returns_zeros(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0], [-2.0, 0.0]], 1.0)
        V = fit_intrinsic_volumes(P, seed=12)
        assert np.all(V.values == 0.0)

    def test_3d_ball(self):
        P = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0]], 1.0)
        V = fit_intrinsic_volumes(P, EpsilonGrid.default_for(P, samples=300_000), seed=13)
        # V_j of the unit ball in R^3: C(3, j) omega_3 / omega_{3-j}.
        for j, exact in zip(range(1, 4), (4.0, 2 * math.pi, 4 * math.pi / 3)):
            assert V.values[j] == pytest.approx(exact, rel=0.05)

    def test_ill_conditioned_grid(self):
        dists = np.linspace(0, 1, 1000)
        eps = np.array([0.5, 0.5 + 1e-9, 0.5 + 2e-9, 0.5 + 3e-9])
        with pytest.raises(IllConditioned):
            steiner_fit_from_distances(dists, 1.0, eps, 2)

    def test_needs_enough_epsilons(self):
        with pytest.raises(ValueError):
            steiner_fit_from_distances(np.ones(10), 1.0, np.array([0.1, 0.2]), 2)

    def test_bounding_ball_must_cover_a_tiny_body(self):
        # The covering test is relative: a ball of radius 1e-13 needs a
        # bounding radius of 1.5e-13 with the default epsilons.
        P = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0]], 1e-13)
        grid = EpsilonGrid.default_for(P, samples=100)
        grid.validate_covers(P)
        with pytest.raises(ValueError, match="cannot cover"):
            EpsilonGrid(grid.eps, 100, grid.bounding_center, 1e-14).validate_covers(P)

    def test_random_ballpolys_match_exact(self):
        rng = np.random.default_rng(14)
        ok = 0
        for i in range(4):
            k = int(rng.integers(3, 7))
            C = rng.normal(0, 0.3, (k, 2))
            R = rng.uniform(0.9, 1.4, k)
            P = BallPolyhedron.from_arrays(C, R)
            reg = disk_region(C, R)
            area, perim = reg.area, reg.perimeter
            if area <= 0:
                continue
            V = fit_intrinsic_volumes(P, EpsilonGrid.default_for(P, samples=400_000), seed=20 + i)
            assert abs(V.values[2] - area) <= 3 * max(V.stderr[2], 1e-4) + 0.002
            assert abs(V.values[1] - perim / 2) <= 3 * max(V.stderr[1], 1e-4) + 0.004
            ok += 1
        assert ok >= 2


    def test_steiner_3d_body_rep_seed_3904087448_trial_2(self):
        # The body of the 3-D dominance-ball config with estimator
        # steiner-fit (N = 3, R = 1, centres uniform on the volume-one
        # ball), drawn as its trial 2 draws them at seed 3904087448,
        # with the fit seed that trial derives.
        from ballpoly import config, rng

        seed, t = 3904087448, 2
        density = config.build_density(
            {"type": "uniform-ball", "n": 3, "radius": (3 / (4 * math.pi)) ** (1 / 3)}, 3)
        C = np.vstack([density.sample(rng.stream(seed, t, i), 1)[0] for i in range(3)])
        P = BallPolyhedron.from_arrays(C, 1.0)
        fit_seed = int(np.random.SeedSequence((seed, t, 10_000)).generate_state(1)[0])
        V = fit_intrinsic_volumes(P, EpsilonGrid.default_for(P, samples=20_000), seed=fit_seed)
        est, se = V.vn_crosscheck
        assert abs(V.values[3] - est) <= 4 * math.hypot(V.stderr[3], se)

    def test_unmapped_points_keep_the_bits(self):
        # The fit maps only the points within the largest epsilon plus
        # twice the map's slack of every ball; the rest count in no p_k.
        # So it must equal, bit for bit, the fit of the whole cloud's
        # distances. One body has r_max / r_min = 7.5: the slack scales
        # with the largest radius, epsilon with the smallest.
        rng = np.random.default_rng(30)
        bodies = [BallPolyhedron.from_arrays([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]], [6.0, 0.8])]
        while len(bodies) < 20:
            n, k = 2 + len(bodies) % 2, 1 + len(bodies) % 6
            radii = 1.0 if len(bodies) % 3 else rng.uniform(0.7, 1.5, k)
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.5, (k, n)), radii)
            if not P.is_empty():
                bodies.append(P)
        beyond = 0
        for seed, P in enumerate(bodies):
            n, grid = P.dimension, EpsilonGrid.default_for(P, samples=5000)
            pts = grid.bounding_center + grid.bounding_radius * uniform_in_ball(
                stream(seed, 0), n, grid.samples)
            d = distances_to_ballpoly(P, pts)[0]
            beyond += np.count_nonzero(d > grid.eps[-1])
            values, stderr = steiner_fit_from_distances(
                d, omega(n) * grid.bounding_radius**n, grid.eps, n)
            V = fit_intrinsic_volumes(P, grid, seed=seed)
            assert np.array_equal(V.values, values) and np.array_equal(V.stderr, stderr)
        assert beyond > 10_000

    def test_traced_fit_reads_the_result(self, monkeypatch):
        # The benchmark's fit observer reads a real result's dimension,
        # values, stderr and cross-check after every traced fit.
        from ballpoly import intrinsic

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        importlib.import_module("workloads")
        spans = importlib.import_module("spans")
        P = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0]], 1.0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            V = intrinsic.fit_intrinsic_volumes(
                P, EpsilonGrid.default_for(P, samples=20_000), seed=15)
        finally:
            tracer.uninstall()
        assert V.dimension == 3
        m = spans.layer_metrics(tracer)
        assert m["intrinsic.fit.calls"] == 1
        assert m["intrinsic.crosscheck.outliers"] == 0


class TestWorkingSet:
    def test_fit_holds_few_clouds_at_once(self):
        # The traced peak of one 20k-sample fit over 12 bodies (N = 3,
        # R = 1, centres uniform in the volume-one ball), in units of the
        # cloud's bytes. Scaling the cloud in place, cutting it to its
        # near rows before the distance step and the map's in-place
        # farthest-ball select keep the median about 3.5; a full-size
        # temporary more puts it near 4.9.
        radius = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        samples, n = 20_000, 3
        cloud = samples * n * np.dtype(float).itemsize
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        peaks = []
        try:
            for k in range(12):
                P = BallPolyhedron.from_arrays(radius * uniform_in_ball(stream(36, k), n, 3), 1.0)
                grid = EpsilonGrid.default_for(P, samples=samples)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fit_intrinsic_volumes(P, grid, seed=k)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / cloud)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert np.median(peaks) < 4.25, peaks


class TestMeanWidth:
    def grid(self):
        return DirectionGrid.uniform_2d(4096)

    def test_ball(self):
        K = SupportBody.ball(np.zeros(2), 1.5, self.grid())
        assert K.mean_width() == pytest.approx(3.0, abs=1e-12)

    def test_segment(self):
        # Average of |cos| over the circle is 2/pi.
        d = 1.7
        K = SupportBody.polytope(np.array([[-d / 2, 0.0], [d / 2, 0.0]]), self.grid())
        assert K.mean_width() == pytest.approx(2 * d / math.pi, rel=1e-6)

    def test_unit_square(self):
        K = SupportBody.cube(1.0, 2, self.grid())
        assert K.mean_width() == pytest.approx(4 / math.pi, rel=1e-6)
