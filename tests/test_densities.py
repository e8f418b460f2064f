"""Density families: mass, samplers, rearrangement, peakedness."""

import math

import numpy as np
import pytest
from scipy import stats

from ballpoly import densities as dn
from ballpoly.errors import UnsupportedTag
from ballpoly.geometry import BallPolyhedron
from ballpoly.intrinsic import omega
from ballpoly.rng import stream


class TestConstruction:
    def test_masses_are_one(self):
        specs = [
            dn.UniformBody(dn.Box.centered_cube(1.0, 2)),
            dn.UniformBody(dn.BallRegion(np.zeros(2), 0.7)),
            dn.RadialStep([1.0], [1.0 / math.pi], 2),
            dn.Box1DStep([-1.0, 1.0], [0.5]),
            dn.Product1D([dn.Box1DStep([-1, 1], [0.5]), dn.Box1DStep([-0.5, 0.5], [1.0])]),
        ]
        for f in specs:
            assert f.mass() == pytest.approx(1.0, abs=1e-9)

    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError):
            dn.RadialStep([1.0], [1.0], 2)  # mass pi, not 1
        with pytest.raises(ValueError):
            dn.Box1DStep([0.0, 1.0], [0.7])
        with pytest.raises(ValueError):
            dn.Box1DStep([-1.0, -0.2, 0.6, 1.2], [0.5, 0.5, 0.5])  # mass 1.1

    def test_ball_extremizer_radius(self):
        # Unit-volume centered ball: r_n = omega_n^{-1/n}.
        for n in (1, 2, 3):
            f = dn.ball_extremizer(n)
            assert f.region.radius == pytest.approx(omega(n) ** (-1.0 / n))
        assert dn.ball_extremizer(2).region.radius == pytest.approx(math.pi ** -0.5)

    def test_cube_extremizer_is_unit_cube(self):
        q = dn.cube_extremizer([1.0, 1.0])
        x = q.sample(stream(0), 2000)
        assert np.all(np.abs(x) <= 0.5 + 1e-12)
        assert q.sup_bound == pytest.approx(1.0)

    def test_uniform_ballpoly_region(self):
        P = BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)
        f = dn.UniformBody(P)
        area = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert f.sup_bound == pytest.approx(1 / area)
        x = f.sample(stream(1), 3000)
        assert np.all(P.contains(x, slack=1e-9))


class TestSamplers:
    def test_uniform_box_chi_square(self):
        f = dn.UniformBody(dn.Box.centered_cube(1.0, 2))
        x = f.sample(stream(2), 100_000)
        for k in range(2):
            hist, _ = np.histogram(x[:, k], bins=20, range=(-0.5, 0.5))
            p = stats.chisquare(hist).pvalue
            assert p > 0.001

    def test_uniform_disk_radial_law(self):
        # |X|^2 is uniform on [0, r^2] under the area measure.
        f = dn.UniformBody(dn.BallRegion(np.zeros(2), 1.0))
        x = f.sample(stream(3), 100_000)
        r2 = np.sum(x * x, axis=1)
        assert stats.kstest(r2, "uniform").pvalue > 0.001
        assert np.linalg.norm(x.mean(axis=0)) < 0.01

    def test_radial_step_disk(self):
        f = dn.RadialStep([1.0], [1.0 / math.pi], 2)
        x = f.sample(stream(4), 100_000)
        r2 = np.sum(x * x, axis=1)
        assert stats.kstest(r2, "uniform").pvalue > 0.001

    def test_box1d_step_histogram(self):
        f = dn.Box1DStep([-1.0, 0.0, 2.0], [0.8, 0.1])
        x = f.sample(stream(5), 200_000)[:, 0]
        left = np.mean(x <= 0.0)
        assert left == pytest.approx(0.8, abs=0.005)
        hist, _ = np.histogram(x[x > 0], bins=10, range=(0.0, 2.0))
        assert stats.chisquare(hist).pvalue > 0.001

    def test_product_coordinates_independent(self):
        f = dn.Product1D([dn.Box1DStep([-1, 1], [0.5]), dn.Box1DStep([-2, 2], [0.25])])
        x = f.sample(stream(6), 100_000)
        corr = np.corrcoef(x.T)[0, 1]
        assert abs(corr) < 0.01
        assert np.max(np.abs(x[:, 0])) <= 1.0 and np.max(np.abs(x[:, 1])) <= 2.0

    def test_star_body_rejection(self):
        from ballpoly.geometry import DirectionGrid, StarBody

        g = DirectionGrid.uniform_2d(512)
        S = StarBody(2, g, oracle=lambda d: 1.0 + 0.3 * d[:, 0])
        f = dn.UniformBody(S)
        x = f.sample(stream(7), 20_000)
        assert np.all(S.contains(x))
        # Center of mass shifts toward the bulge.
        assert x[:, 0].mean() > 0.05


class TestRearrangement:
    def test_interval_translation(self):
        f = dn.Box1DStep([0.0, 1.0], [1.0])
        g = f.rearranged()
        assert g.radii == pytest.approx([0.5])
        assert g.heights == pytest.approx([1.0])

    def test_set_to_ball(self):
        f = dn.UniformBody(dn.Box.centered_cube(2.0, 2))  # volume 4
        g = f.rearranged()
        assert g.radii[-1] == pytest.approx(math.sqrt(4 / math.pi))
        assert g.heights[0] == pytest.approx(0.25)

    def test_fixed_point(self):
        f = dn.Box1DStep([-1.0, 1.0], [0.5])
        g = f.rearranged()
        assert g.radii == pytest.approx([1.0])
        assert g.heights == pytest.approx([0.5])

    def test_radial_step_sorting(self):
        f = dn.RadialStep([0.5, 1.0], [0.1, (1 - 0.1 * math.pi * 0.25) / (math.pi * 0.75)], 2)
        g = f.rearranged()
        assert g.is_decreasing()
        assert g.mass() == pytest.approx(1.0, abs=1e-12)

    def test_equimeasurability(self):
        # Level-set volumes agree on a 50-point threshold grid.
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            radii = np.sort(rng.uniform(0.2, 2.0, k))
            radii += np.arange(k) * 1e-3
            heights = rng.uniform(0.1, 1.0, k)
            lower = np.concatenate([[0.0], radii[:-1]])
            mass = float(np.sum(heights * math.pi * (radii**2 - lower**2)))
            f = dn.RadialStep(radii, heights / mass, 2)
            g = f.rearranged()
            for s in np.linspace(0.0, f.sup_bound * 1.05, 50):
                assert f.level_set_volume(s) == pytest.approx(g.level_set_volume(s), abs=1e-6)

    def test_product_rearranged_factors_decreasing(self):
        f = dn.Product1D([dn.Box1DStep([0.0, 1.0], [1.0]), dn.Box1DStep([-2.0, 2.0], [0.25])])
        g = f.rearranged()
        for factor in g.factors:
            assert factor.is_decreasing()
        assert g.mass() == pytest.approx(1.0, abs=1e-12)


class TestPeakedness:
    def test_flat_vs_narrow_holds(self):
        f = dn.Box1DStep([-1.0, 1.0], [0.5])
        g = dn.Box1DStep([-0.5, 0.5], [1.0]).rearranged()
        rep = dn.is_less_peaked(f, g, trials=4000, seed=1)
        assert rep.verdict == "HOLDS"

    def test_reverse_violated_with_witness(self):
        f = dn.Box1DStep([-0.5, 0.5], [1.0])
        g = dn.Box1DStep([-1.0, 1.0], [0.5])
        rep = dn.is_less_peaked(f, g, trials=4000, seed=2)
        assert rep.verdict == "VIOLATED"
        assert rep.witness is not None

    def test_bounded_radial_vs_ball_extremizer(self):
        # Radial densities bounded by one are less peaked than the
        # uniform density on the volume-one ball.
        ext = dn.ball_extremizer(2)
        h2 = (1 - math.pi * 0.16) / (math.pi * (0.64 - 0.16))
        f = dn.RadialStep([0.4, 0.8], [1.0, h2], 2)
        assert f.sup_bound <= 1.0 + 1e-12
        rep = dn.is_less_peaked(f, ext, trials=30_000, seed=3)
        assert rep.verdict in ("HOLDS", "INCONCLUSIVE")
        # Ball witnesses have exact integrals: no genuine excess.
        balls = [t for t in np.geomspace(0.03, 1.0, 30)]
        for r in balls:
            assert f.integral_over_ball(r) <= ext.integral_over_ball(r) + 1e-12

    def test_kanter_product_closure(self):
        # Coordinatewise less-peaked pairs stay ordered after taking
        # products, tested on random symmetric witnesses in R^4.
        f1 = dn.Box1DStep([-1.0, 1.0], [0.5]).rearranged()
        g1 = dn.Box1DStep([-0.5, 0.5], [1.0]).rearranged()
        f2 = dn.Box1DStep([-2.0, 2.0], [0.25]).rearranged()
        g2 = dn.Box1DStep([-1.0, 1.0], [0.5]).rearranged()
        for fi, gi in ((f1, g1), (f2, g2)):
            assert dn.is_less_peaked(fi, gi, trials=4000, seed=4).verdict == "HOLDS"
        F = dn.Product1D([f1, f2, f1, f2])
        G = dn.Product1D([g1, g2, g1, g2])
        rep = dn.is_less_peaked(F, G, trials=60_000, seed=5)
        assert rep.verdict in ("HOLDS", "INCONCLUSIVE")
        assert rep.max_excess_sigma < 4.0


class TestGridSymmetrization:
    def test_square_invariant_up_to_centering(self):
        f = dn.UniformBody(dn.Box(np.array([-0.5, 0.3]), np.array([0.5, 1.3])))
        g = dn.steiner_symmetral_density(f, np.array([0.0, 1.0]), cells=96)
        assert g.mass() == pytest.approx(1.0, abs=0.02)
        centered = dn.UniformBody(dn.Box.centered_cube(1.0, 2))
        d = dn.l1_distance_to_density(g, centered, extent=1.6, cells=192)
        assert d < 0.15  # raster edges only

    def test_two_strips_merge(self):
        # Two horizontal strips rearrange to one centered strip per column.
        strips = _TwoStrips()
        g = dn.steiner_symmetral_density(strips, np.array([0.0, 1.0]), cells=128, extent=1.5)
        target = dn.UniformBody(dn.Box(np.array([-0.5, -0.3]), np.array([0.5, 0.3])))
        d = dn.l1_distance_to_density(g, target, extent=1.5, cells=256)
        assert d < 0.15

    def test_mass_preserved_per_column(self):
        f = dn.UniformBody(dn.BallRegion(np.zeros(2), 0.8))
        base = dn.GridDensity2D.rasterize(f, extent=1.0, cells=64)
        g = dn.steiner_symmetral_density(base, np.array([0.0, 1.0]), cells=64, extent=1.0)
        # Rearrangement permutes cells within each column.
        assert np.allclose(np.sort(g.values, axis=0), np.sort(base.values, axis=0), atol=1e-12)

    def test_iteration_approaches_rearrangement(self):
        f = dn.UniformBody(dn.Box(np.array([0.0, -0.25]), np.array([1.0, 0.25])))
        target = f.rearranged()
        extent = 1.4
        current = dn.GridDensity2D.rasterize(f, extent, 128)
        dists = [dn.l1_distance_to_density(current, target, extent, 192)]
        for k, ang in enumerate([np.pi / 2, 0.0, np.pi / 4, 3 * np.pi / 4, np.pi / 2, 0.0]):
            theta = np.array([math.cos(ang), math.sin(ang)])
            current = dn.steiner_symmetral_density(current, theta, cells=128, extent=extent)
            dists.append(dn.l1_distance_to_density(current, target, extent, 192))
        assert dists[-1] < dists[0] * 0.6
        # Allow small resampling wiggle, but the trend must be downward.
        assert all(dists[k + 1] <= dists[k] + 0.05 for k in range(len(dists) - 1))


    def test_product_pdf_is_product_of_factors(self):
        # Closed form: 1/4 on (-1, 0] and 3/4 on (0, 1], times 1/2 on (0, 2].
        f = dn.Product1D([dn.Box1DStep([-1.0, 0.0, 1.0], [0.25, 0.75]),
                          dn.Box1DStep([0.0, 2.0], [0.5])])
        pts = np.array([[-0.5, 1.0], [0.5, 1.9], [0.5, 2.5], [-1.5, 1.0], [1.0, 0.0]])
        assert f.pdf(pts).tolist() == [0.125, 0.375, 0.0, 0.0, 0.0]
        g = dn.GridDensity2D.rasterize(f, extent=2.0, cells=64)
        assert g.mass() == pytest.approx(1.0, abs=1e-12)


class _TwoStrips(dn.Density):
    """Uniform on two disjoint horizontal strips (test fixture)."""

    def __init__(self):
        self.dimension = 2

    def pdf(self, points):
        pts = np.atleast_2d(points)
        x, y = pts[:, 0], pts[:, 1]
        in_x = np.abs(x) <= 0.5
        band1 = (y >= 0.2) & (y <= 0.5)
        band2 = (y >= -0.8) & (y <= -0.5)
        return np.where(in_x & (band1 | band2), 1.0 / 0.6, 0.0)
