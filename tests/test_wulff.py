"""Wulff constructions of a boundary function given as a SupportBody:
the volume-radius asymptotics, the convergence rate of the tangent-ball
approximation, and the checks on f and R."""

import numpy as np
import pytest

from ballpoly import wulff
from ballpoly.errors import RadiusTooSmall
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
        SupportBody.segment(np.array([-0.5, 0.0]), np.array([0.5, 0.0]),
                            DirectionGrid.uniform_2d(64)),
    ], ids=["negative", "origin-outside", "segment"])
    def test_f_must_be_positive(self, build, K):
        with pytest.raises(ValueError, match="origin in its interior"):
            build(K, 10.0)

    def test_from_support_body_is_the_body(self):
        K = square(64)
        assert wulff.SphericalFunction.from_support_body(K) is K
