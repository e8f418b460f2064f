"""Exact circumscription objective: hull intrinsic volumes and the
touching-halfspace V_j against closed forms."""

import itertools
import math

import numpy as np
import pytest

from ballpoly import extremal as ex
from ballpoly.errors import UnsupportedDimension
from ballpoly.geometry import DirectionGrid, SupportBody
from ballpoly.polytope import hull_intrinsic_volumes

UNIT_CUBE = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
REGULAR_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
AXES_3D = np.vstack([np.eye(3), -np.eye(3)])
CORNER_TETRAHEDRON = np.vstack([-np.eye(3), np.ones(3) / math.sqrt(3.0)])


def objective(K, thetas, j):
    prob = ex.CircumscriptionProblem(K, j=j, N=len(thetas))
    return ex._Objective(prob)(np.asarray(thetas, dtype=float))


class TestHullIntrinsicVolumes:
    def test_unit_cube(self):
        assert hull_intrinsic_volumes(UNIT_CUBE) == pytest.approx((1, 3, 3, 1), abs=1e-12)

    def test_box(self):
        V = hull_intrinsic_volumes(UNIT_CUBE * [2.0, 3.0, 5.0])
        assert V == pytest.approx((1, 10, 31, 30), abs=1e-12)

    def test_regular_tetrahedron(self):
        # Six edges of length 2*sqrt(2), exterior dihedral angle pi - arccos(1/3).
        V = hull_intrinsic_volumes(REGULAR_TETRAHEDRON)
        v1 = 6 * 2 * math.sqrt(2) * (math.pi - math.acos(1 / 3)) / (2 * math.pi)
        assert V[1] == pytest.approx(v1, rel=1e-14)
        assert V[2] == pytest.approx(4 * math.sqrt(3), rel=1e-14)
        assert V[3] == pytest.approx(8 / 3, rel=1e-14)


class TestObjective:
    def test_square(self):
        K = SupportBody.cube(1.0, 2, DirectionGrid.uniform_2d(256))
        normals = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        assert objective(K, normals, 1) == pytest.approx(2.0, abs=1e-12)
        assert objective(K, normals, 2) == pytest.approx(1.0, abs=1e-12)

    def test_cube(self):
        K = SupportBody.cube(1.0, 3, DirectionGrid.fibonacci_3d(512))
        for j, v in ((1, 3.0), (2, 3.0), (3, 1.0)):
            assert objective(K, AXES_3D, j) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 2.5])
    def test_corner_tetrahedron_around_cube(self, offset):
        # {x >= -1/2, sum x <= 3/2} around the cube centred at `offset`:
        # a corner simplex of leg 3. At offset 2.5 the origin is outside K.
        grid = DirectionGrid.fibonacci_3d(512)
        K = SupportBody.polytope(UNIT_CUBE - 0.5 + offset, grid)
        assert objective(K, CORNER_TETRAHEDRON, 3) == pytest.approx(4.5, rel=1e-12)

    @pytest.mark.parametrize("n, estimator", [(2, "exact-hull-3d"), (3, "exact-2d")])
    def test_estimator_must_match_dimension(self, n, estimator):
        K = SupportBody.cube(1.0, n, DirectionGrid.for_dimension(n, 256))
        with pytest.raises(UnsupportedDimension):
            ex.CircumscriptionProblem(K, j=n, N=n + 1, estimator=estimator)

    def test_four_dimensions_unsupported(self):
        K = SupportBody.cube(1.0, 4, DirectionGrid.for_dimension(4, 256))
        with pytest.raises(UnsupportedDimension):
            ex.CircumscriptionProblem(K, j=4, N=5)


class TestMinimize:
    def test_triangle_around_disk(self):
        K = SupportBody.ball(np.zeros(2), 1.0, DirectionGrid.uniform_2d(512))
        res = ex.minimize_mjN(ex.CircumscriptionProblem(K, j=2, N=3), restarts=4, seed=0)
        assert res.value == pytest.approx(ex.simplex_circumscription_minimum(2), rel=1e-9)
        assert ex.simplex_circumscription_minimum(2) == pytest.approx(3 * math.sqrt(3))
