"""Wulff constructions of a boundary function given as a SupportBody:
the volume-radius asymptotics, the convergence rate of the tangent-ball
approximation, and the checks on f and R."""

import numpy as np
import pytest

from ballpoly import polytope, wulff
from ballpoly.errors import RadiusTooSmall, UnsupportedDimension
from ballpoly.geometry import DirectionGrid, SupportBody


def square(size):
    return SupportBody.cube(1.0, 2, DirectionGrid.uniform_2d(size))


class TestVrAsymptotics:
    def test_scaled_residual_tends_to_half_the_variance(self):
        # vr(A(f, R)) = R - mean f + (n - 1) Var f / (2R) + O(R^-2), so
        # R * residual tends to Var f / 2 in the plane.
        K = square(4096)
        rep = wulff.vr_asymptotics(K, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        assert np.all(rep.residuals > 0)  # power-mean inequality
        w, h = K.grid.weights, K.values
        half_var = float(w @ (h - w @ h) ** 2) / 2.0
        assert half_var == pytest.approx(0.0019351, rel=1e-4)
        assert rep.scaled[-1] == pytest.approx(half_var, rel=0.02)
        assert np.all(np.diff(rep.scaled) < 0)
        assert -1.2 <= rep.slope <= -0.9

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_f_has_zero_residuals_and_no_slope(self, n):
        # vr(A(f, R)) = R - f exactly for a constant f; the rounding
        # noise left over (about 1e-15, of either sign) reads 0, and
        # no slope is fitted through it.
        K = SupportBody.ball(np.zeros(n), 1.0, DirectionGrid.for_dimension(n, 1000))
        rep = wulff.vr_asymptotics(K, [5.0, 10.0, 20.0])
        assert np.all(rep.residuals == 0.0) and np.all(rep.scaled == 0.0)
        assert np.isnan(rep.slope)

    def test_scaled_residual_tends_to_the_variance_in_3d(self):
        # In R^3 the limit of R * residual is (n - 1) Var f / 2 = Var f.
        K = SupportBody.cube(1.0, 3, DirectionGrid.for_dimension(3, 4096))
        rep = wulff.vr_asymptotics(K, [4.0, 8.0, 16.0, 32.0, 64.0])
        assert np.all(rep.residuals > 0)
        w, h = K.grid.weights, K.values
        limit = (3 - 1) * float(w @ (h - w @ h) ** 2) / 2.0
        assert np.all(np.diff(rep.scaled) < 0)
        assert rep.scaled[-1] == pytest.approx(limit, rel=0.02)


class TestWulffShape:
    def test_cube_is_the_wulff_shape_of_its_support_function(self):
        K = square(2048)
        probe = DirectionGrid.uniform_2d(256).directions
        W = wulff.wulff_shape(K)
        assert np.max(np.abs(W.support(probe) - K.support(probe))) < 1e-9

    @pytest.mark.parametrize("r", [1.0, 1e-6, 1e-9])
    @pytest.mark.parametrize("m", [180, 720])
    def test_disk_gives_the_circumscribed_regular_polygon(self, m, r):
        # The shape is exact at every scale: no absolute rounding or
        # slack removes vertices of a small disk's polygon.
        disk = SupportBody.ball(np.zeros(2), r, DirectionGrid.uniform_2d(m))
        angles = 2.0 * np.pi * np.arange(m) / m + np.pi / m
        polygon = SupportBody.polytope(
            (r / np.cos(np.pi / m)) * np.column_stack([np.cos(angles), np.sin(angles)]),
            disk.grid)
        probe = DirectionGrid.uniform_2d(1024).directions
        W = wulff.wulff_shape(disk)
        assert np.max(np.abs(W.support(probe) - polygon.support(probe))) <= 1e-15 * r

    @pytest.mark.parametrize("m", [720, 2048])
    def test_square_has_four_distinct_vertices(self, m):
        # Lines through a corner within the clip's slack add no copy of
        # it: a square f has its four corners (one may come twice, an
        # ulp-level near-copy), not hundreds of zero-length edges.
        K = square(m)
        verts = polytope.clip_polygon(K.grid.directions, K.values, 4.0 * float(np.max(K.values)))
        assert len(verts) <= 5
        corner = np.sign(verts) / 2
        assert np.max(np.abs(verts - corner)) < 1e-9
        assert len(np.unique(corner, axis=0)) == 4

    @pytest.mark.parametrize("m", [720, 2048])
    def test_wulff_square_drops_the_near_copy_corner(self, m):
        # The clip leaves two copies of a corner 1e-10 apart; W(f) keeps
        # one, and its support moves by less than their distance.
        K = square(m)
        verts = wulff._wulff_vertices(K)
        assert len(verts) == 4
        assert len(np.unique(np.sign(verts), axis=0)) == 4
        clipped = SupportBody.polytope(
            polytope.clip_polygon(K.grid.directions, K.values, 4.0 * float(np.max(K.values))),
            K.grid)
        probe = DirectionGrid.uniform_2d(1024).directions
        assert np.max(np.abs(wulff.wulff_shape(K).support(probe) - clipped.support(probe))) < 1e-9

    def test_unbounded_on_its_grid_raises(self):
        # Three directions spanning 1 rad bound W(f) on one side only.
        angles = np.array([0.0, 0.5, 1.0])
        grid = DirectionGrid(np.column_stack([np.cos(angles), np.sin(angles)]), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="unbounded on its grid"):
            wulff.wulff_shape(SupportBody.ball(np.zeros(2), 1.0, grid))

    def test_planar_only(self):
        K = SupportBody.cube(1.0, 3, DirectionGrid.for_dimension(3, 256))
        with pytest.raises(UnsupportedDimension):
            wulff.wulff_shape(K)


class TestConvergenceRate:
    def test_square_converges_at_order_one_over_R(self):
        rep = wulff.convergence_rate(square(720), [2.0, 4.0, 8.0, 16.0, 32.0], probe_size=1024)
        assert rep.grid_size == 720 and rep.probe_size == 1024
        assert np.all(np.diff(rep.residuals) < 0)
        assert rep.slope == pytest.approx(-0.934, abs=0.01)

    def test_disk_converges_at_exactly_one_over_R(self):
        disk = SupportBody.ball(np.zeros(2), 0.5, DirectionGrid.uniform_2d(180))
        rep = wulff.convergence_rate(disk, [2.0, 4.0, 8.0, 16.0, 32.0], probe_size=1024)
        assert rep.slope == pytest.approx(-1.0, abs=1e-3)


class TestBoundaryChecks:
    @pytest.mark.parametrize("build", [wulff.build_A, wulff.ballpoly_approx])
    def test_R_must_exceed_max_f(self, build):
        K = square(64)
        h_max = float(np.max(K.values))
        with pytest.raises(RadiusTooSmall):
            build(K, h_max)
        with pytest.raises(RadiusTooSmall):
            build(K, 0.5 * h_max)
        build(K, 2.0 * h_max)

    @pytest.mark.parametrize("build", [
        wulff.build_A, wulff.ballpoly_approx, lambda K, R: wulff.wulff_shape(K),
        lambda K, R: wulff.convergence_rate(K, [R, 2 * R], probe_size=64),
    ], ids=["build_A", "ballpoly_approx", "wulff_shape", "convergence_rate"])
    @pytest.mark.parametrize("K", [
        SupportBody.ball(np.zeros(2), -1.0, DirectionGrid.uniform_2d(64)),
        SupportBody.ball(np.array([2.0, 0.0]), 1.0, DirectionGrid.uniform_2d(64)),
        # A centred segment's support function vanishes at the normals,
        # where cos(pi/2) leaves about 3e-17 on the grid.
        SupportBody.polytope(np.array([[-0.5, 0.0], [0.5, 0.0]]), DirectionGrid.uniform_2d(64)),
    ], ids=["negative", "origin-outside", "segment"])
    def test_f_must_be_positive(self, build, K):
        with pytest.raises(ValueError, match="origin in its interior"):
            build(K, 10.0)

    def test_from_support_body_is_the_body(self):
        K = square(64)
        assert wulff.SphericalFunction.from_support_body(K) is K
