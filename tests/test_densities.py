"""Density families: mass checks, extremizers and samplers."""

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

    def test_radial_step_sup_bound(self):
        # The ball extremizer of a radial step takes its height from the
        # highest step, wherever that step lies.
        assert dn.RadialStep([0.5, 1.0], [0.6, 0.4], 1).sup_bound == 0.6
        assert dn.RadialStep([0.5, 1.0], [0.4, 0.6], 1).sup_bound == 0.6

    def test_ballpoly_region_unsupported(self):
        # Uniform densities live on boxes, balls and star bodies only.
        P = BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)
        with pytest.raises(UnsupportedTag):
            dn.UniformBody(P)


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

    def test_radial_step_line(self):
        # On the line a radial step is even, and |X| follows the shells'
        # masses: 0.6 on [0, 0.5], 0.4 on (0.5, 1].
        f = dn.RadialStep([0.5, 1.0], [0.6, 0.4], 1)
        x = f.sample(stream(8), 200_000)[:, 0]
        assert np.mean(x > 0.0) == pytest.approx(0.5, abs=0.005)
        assert np.mean(np.abs(x) <= 0.5) == pytest.approx(0.6, abs=0.005)
        assert np.max(np.abs(x)) <= 1.0

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
