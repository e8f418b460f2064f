"""Projection, support, and body-representation tests."""

import numpy as np
import pytest

from ballpoly import exact2d, geometry
from ballpoly.errors import EmptyIntersection, ZeroVector
from ballpoly.geometry import (
    BallPolyhedron,
    DirectionGrid,
    StarBody,
    SupportBody,
    distances_to_ballpoly,
    project_points_onto_ballpoly,
    support_function,
)

SQRT3 = np.sqrt(3.0)


def lens():
    return BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)


def touching_pair():
    # Intersection is exactly the single point (0, 0), where the two
    # boundary circles are tangent.
    return BallPolyhedron.from_arrays([[1.0, 0.0], [-1.0, 0.0]], 1.0)


class TestProjection:
    def test_single_ball_outside(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0]], 1.0)
        proj, _ = project_points_onto_ballpoly(P, np.array([[0.0, 0.0]]))
        assert np.allclose(proj[0], [1.0, 0.0], atol=1e-9)

    def test_interior_point_fixed(self):
        P = BallPolyhedron.from_arrays([[0.0, 0.0]], 2.0)
        x = np.array([1.0, 0.0])
        proj, _ = project_points_onto_ballpoly(P, x[None, :])
        assert np.allclose(proj[0], x)

    def test_touching_pair_limit(self):
        # Single-point intersection: the point is the pair's vertex.
        proj, ok = project_points_onto_ballpoly(touching_pair(), np.array([[0.0, 5.0]]))
        assert ok[0]
        assert np.linalg.norm(proj[0]) < 1e-12

    def test_nonconvergence_on_empty(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0], [-2.0, 0.0]], 1.0)
        assert P.certainly_empty()
        _, ok = project_points_onto_ballpoly(P, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 5.0]]))
        assert not np.any(ok)

    def test_nonconvergence_on_empty_without_certificate(self):
        # Pairwise overlapping but commonly empty.
        c = 1.1
        P = BallPolyhedron.from_arrays(
            [[c, 0.0], [-c / 2, c * np.sqrt(3) / 2], [-c / 2, -c * np.sqrt(3) / 2]], 1.0
        )
        assert not P.certainly_empty()
        _, ok = project_points_onto_ballpoly(P, np.array([[0.0, 0.0], [c, 0.0], [0.0, 5.0]]))
        assert not np.any(ok)

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.4, (k, 2)), rng.uniform(1.0, 2.0, k))
            x = rng.normal(0, 2, 2)
            p1, ok = project_points_onto_ballpoly(P, x[None, :])
            if not ok[0]:
                continue
            p2, _ = project_points_onto_ballpoly(P, p1)
            assert np.linalg.norm(p2[0] - p1[0]) <= 2e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.4, (k, 2)), rng.uniform(1.0, 2.0, k))
            x, y = rng.normal(0, 2, 2), rng.normal(0, 2, 2)
            (px, py), ok = project_points_onto_ballpoly(P, np.vstack([x, y]))
            if not np.all(ok):
                continue
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 2e-10


class TestDistance:
    def test_single_ball(self):
        P = BallPolyhedron.from_arrays([[0.0, 0.0]], 1.0)
        d, _ = distances_to_ballpoly(P, np.array([[3.0, 0.0]]))
        assert d[0] == pytest.approx(2.0, abs=1e-9)

    def test_touching_pair(self):
        d, ok = distances_to_ballpoly(touching_pair(), np.array([[0.0, 1.0]]))
        assert ok[0]
        assert d[0] == pytest.approx(1.0, abs=1e-12)

    def test_inside_zero(self):
        P = lens()
        d, _ = distances_to_ballpoly(P, np.array([[0.0, 0.0]]))
        assert d[0] == 0.0


class TestSupportFunction:
    def test_single_ball_formula(self):
        P = BallPolyhedron.from_arrays([[1.0, 0.0]], 2.0)
        h = support_function(P, np.array([0.0, 1.0]))
        assert h == pytest.approx(2.0, abs=1e-7)

    def test_lens_vertical_brute_force_oracle(self):
        # Independent oracle: maximize <y, e2> over a fine polar raster
        # of the lens interior.
        t = np.linspace(0, 2 * np.pi, 2001)
        r = np.linspace(0, 1, 801)
        tt, rr = np.meshgrid(t, r)
        x, y = rr * np.cos(tt), rr * np.sin(tt)
        inside = ((x - 0.5) ** 2 + y**2 <= 1.0) & ((x + 0.5) ** 2 + y**2 <= 1.0)
        brute = np.max(y[inside])
        assert brute == pytest.approx(SQRT3 / 2, abs=2e-3)
        h = support_function(lens(), np.array([0.0, 1.0]))
        assert h == pytest.approx(SQRT3 / 2, abs=1e-7)

    def test_lens_horizontal(self):
        h = support_function(lens(), np.array([1.0, 0.0]))
        assert h == pytest.approx(0.5, abs=1e-7)

    def test_zero_direction_raises(self):
        with pytest.raises(ZeroVector):
            support_function(lens(), np.zeros(2))

    def test_empty_raises(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0], [-2.0, 0.0]], 1.0)
        with pytest.raises(EmptyIntersection):
            support_function(P, np.array([1.0, 0.0]))

    def test_subadditivity(self):
        rng = np.random.default_rng(5)
        P = BallPolyhedron.from_arrays(rng.normal(0, 0.3, (3, 2)), 1.5)
        for _ in range(10):
            t1 = rng.normal(size=2)
            t2 = rng.normal(size=2)
            t1 /= np.linalg.norm(t1)
            t2 /= np.linalg.norm(t2)
            s = t1 + t2
            ns = np.linalg.norm(s)
            if ns < 1e-6:
                continue
            h_sum = support_function(P, s / ns) * ns
            h1 = support_function(P, t1)
            h2 = support_function(P, t2)
            assert h_sum <= h1 + h2 + 4e-6

    def test_reflection_symmetry(self):
        # Symmetric centers force h(theta) = h(R_u theta).
        P = lens()
        u = np.array([1.0, 0.0])
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = rng.normal(size=2)
            t /= np.linalg.norm(t)
            h1 = support_function(P, t)
            h2 = support_function(P, t - 2.0 * np.dot(t, u) * u)
            assert h1 == pytest.approx(h2, abs=1e-6)


def rotation_2d(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def lens_support(theta, R, d):
    """Closed-form support of the equal-radii lens B(-d/2 e1, R) & B(d/2 e1, R)
    in any dimension: a ball's own support point while it lies on that
    ball's cap, else the rim of radius sqrt(R^2 - d^2/4) in x1 = 0."""
    t1 = abs(theta[0])
    if R * t1 >= d / 2:
        return R - d / 2 * t1
    return np.sqrt(R**2 - d**2 / 4) * np.linalg.norm(theta[1:])


class TestCandidateOracle:
    """The exact support function and emptiness test from candidate
    points on the intersections of at most n bounding spheres."""

    def test_planar_matches_arcs(self):
        rng = np.random.default_rng(2024)
        empty = 0
        for _ in range(1200):
            k = int(rng.integers(1, 9))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.6, (k, 2)), rng.uniform(0.8, 1.5, k))
            region = exact2d.region_of(P)
            assert P.is_empty() == region.empty
            if region.empty:
                empty += 1
                with pytest.raises(EmptyIntersection):
                    support_function(P, np.array([1.0, 0.0]))
                continue
            dirs = rng.normal(size=(3, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            got = [support_function(P, t) for t in dirs]
            assert np.allclose(got, exact2d.support_from_region(region, dirs), rtol=0, atol=1e-12)
        assert empty >= 100

    def test_triangle_without_pairwise_certificate_is_empty(self):
        from ballpoly.intrinsic import fit_intrinsic_volumes

        c = 1.1
        P = BallPolyhedron.from_arrays(
            [[c, 0.0], [-c / 2, c * np.sqrt(3) / 2], [-c / 2, -c * np.sqrt(3) / 2]], 1.0
        )
        assert not P.certainly_empty()
        assert P.is_empty()
        with pytest.raises(EmptyIntersection):
            support_function(P, np.array([0.0, 1.0]))
        V = fit_intrinsic_volumes(P, seed=1)
        assert np.all(V.values == 0.0)

    @pytest.mark.parametrize("angle", [0.3, 0.7, np.pi / 4])
    def test_touching_pair_keeps_its_point(self, angle):
        # Rotated centres round off, so the rim radius^2 of the pair can
        # come out a few ulps below zero: it must clamp to the point, not
        # vanish. A tangency is sqrt-sensitive to the data's rounding,
        # which bounds the agreement at about sqrt(ulp).
        Q = rotation_2d(angle)
        P = BallPolyhedron.from_arrays(touching_pair().centers @ Q.T, 1.0)
        assert not P.is_empty()
        for u in (Q[:, 0], Q[:, 1], -Q[:, 1], (Q[:, 0] + Q[:, 1]) / np.sqrt(2.0)):
            assert support_function(P, u) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("R, d", [(1.0, 1.0), (1.3, 0.4)])
    def test_3d_lens_equal_radii(self, R, d):
        P = BallPolyhedron.from_arrays([[-d / 2, 0.0, 0.0], [d / 2, 0.0, 0.0]], R)
        rim = np.sqrt(R**2 - d**2 / 4)
        assert support_function(P, np.array([0.0, 0.0, 1.0])) == pytest.approx(rim, abs=1e-12)
        assert support_function(P, np.array([1.0, 0.0, 0.0])) == pytest.approx(R - d / 2, abs=1e-12)
        rng = np.random.default_rng(31)
        for t in rng.normal(size=(20, 3)):
            t /= np.linalg.norm(t)
            assert support_function(P, t) == pytest.approx(lens_support(t, R, d), abs=1e-12)

    def test_3d_lens_unequal_radii(self):
        r1, r2, d = 1.0, 1.5, 1.2
        P = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0], [d, 0.0, 0.0]], [r1, r2])
        plane = (d**2 + r1**2 - r2**2) / (2 * d)  # the rim's x1
        rim = np.sqrt(r1**2 - plane**2)
        for t in ([0.0, 0.0, 1.0], [0.0, -0.6, 0.8]):
            assert support_function(P, np.array(t)) == pytest.approx(rim, abs=1e-12)
        assert support_function(P, np.array([1.0, 0.0, 0.0])) == pytest.approx(r1, abs=1e-12)
        assert support_function(P, np.array([-1.0, 0.0, 0.0])) == pytest.approx(r2 - d, abs=1e-12)

    def test_3d_matches_constrained_optimizer(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(12):
            k = int(rng.integers(3, 7))
            C, R = rng.normal(0, 0.4, (k, 3)), rng.uniform(0.9, 1.3, k)
            P = BallPolyhedron.from_arrays(C, R)
            if P.is_empty():
                continue
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            res = minimize(lambda y: -y @ t, C.mean(axis=0), jac=lambda y: -t, method="SLSQP",
                           constraints={"type": "ineq", "jac": lambda y: -2 * (y - C),
                                        "fun": lambda y: R**2 - np.sum((y - C) ** 2, axis=1)},
                           options={"ftol": 1e-12, "maxiter": 500})
            # SLSQP may stop on a line-search flag near the optimum, so
            # its point is checked for feasibility instead of its flag.
            assert np.max(np.linalg.norm(res.x - C, axis=1) - R) < 1e-8
            assert support_function(P, t) == pytest.approx(-res.fun, abs=1e-7)
            checked += 1
        assert checked >= 8

    def test_4d_ball_and_lens(self):
        rng = np.random.default_rng(33)
        c = np.array([0.3, -1.0, 0.5, 2.0])
        ball = BallPolyhedron.from_arrays([c], 0.7)
        R, d = 1.2, 0.9
        lens4 = BallPolyhedron.from_arrays([[-d / 2, 0, 0, 0], [d / 2, 0, 0, 0]], R)
        for t in rng.normal(size=(20, 4)):
            t /= np.linalg.norm(t)
            assert support_function(ball, t) == pytest.approx(c @ t + 0.7, abs=1e-12)
            assert support_function(lens4, t) == pytest.approx(lens_support(t, R, d), abs=1e-12)
        assert not lens4.is_empty()
        assert BallPolyhedron.from_arrays([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]], 0.9).is_empty()


def lens_distance(x, R, d):
    """Closed-form distance from x to the equal-radii lens
    B(-d/2 e1, R) & B(d/2 e1, R) in any dimension, in the half-plane of
    (x1, |x_rest|): the rim point's distance inside its normal cone,
    else the distance to the ball whose cap faces x (0 inside it)."""
    p = np.array([x[0], np.linalg.norm(x[1:])])
    rim = np.array([0.0, np.sqrt(R**2 - d**2 / 4)])
    cone = np.column_stack([rim + [d / 2, 0.0], rim - [d / 2, 0.0]])  # v - c for both balls
    if np.all(np.linalg.solve(cone, p - rim) >= 0):
        return np.linalg.norm(p - rim)
    c = np.array([-d / 2 if p[0] >= 0 else d / 2, 0.0])
    return max(np.linalg.norm(p - c) - R, 0.0)


class TestNearestPointMap:
    """The exact nearest-point map from candidate points on the same
    spheres as the support function."""

    def test_planar_matches_arcs(self):
        rng = np.random.default_rng(2025)
        empty = 0
        for _ in range(1300):
            k = int(rng.integers(1, 9))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.6, (k, 2)), rng.uniform(0.8, 1.5, k))
            pts = rng.normal(0, 1.5, (20, 2))
            d, ok = distances_to_ballpoly(P, pts)
            region = exact2d.region_of(P)
            if region.empty:
                empty += 1
                assert not np.any(ok)
                continue
            assert np.all(ok)
            assert np.allclose(d, exact2d.distance_from_region(region, pts), rtol=0, atol=1e-12)
        assert 1300 - empty >= 1000

    def test_3d_matches_constrained_optimizer(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(34)
        checked = 0
        for N in range(3, 10):
            for _ in range(3):
                C, R = rng.normal(0, 0.4, (N, 3)), rng.uniform(0.9, 1.3, N)
                P = BallPolyhedron.from_arrays(C, R)
                if P.is_empty():
                    continue
                xs = rng.normal(0, 1.5, (4, 3))
                d, ok = distances_to_ballpoly(P, xs)
                assert np.all(ok)
                start = next(geometry._candidates(P, np.eye(3)[0]))[0]  # a point of P
                for x, dx in zip(xs, d):
                    res = minimize(lambda y: np.sum((y - x) ** 2), start, jac=lambda y: 2 * (y - x),
                                   method="SLSQP",
                                   constraints={"type": "ineq", "jac": lambda y: -2 * (y - C),
                                                "fun": lambda y: R**2 - np.sum((y - C) ** 2, axis=1)},
                                   options={"ftol": 1e-14, "maxiter": 500})
                    assert np.max(np.linalg.norm(res.x - C, axis=1) - R) < 1e-8
                    assert dx == pytest.approx(np.linalg.norm(res.x - x), abs=1e-7)
                checked += 1
        assert checked >= 12

    def test_4d_lens(self):
        rng = np.random.default_rng(35)
        R, d = 1.2, 0.9
        P = BallPolyhedron.from_arrays([[-d / 2, 0, 0, 0], [d / 2, 0, 0, 0]], R)
        pts = rng.normal(0, 1.5, (200, 4))
        got, ok = distances_to_ballpoly(P, pts)
        assert np.all(ok)
        want = [lens_distance(x, R, d) for x in pts]
        assert np.count_nonzero(got > 0) >= 100
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_point_batch_size_does_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(36)
        P = BallPolyhedron.from_arrays(rng.normal(0, 0.4, (9, 3)), 1.5)
        pts = rng.normal(0, 1.5, (150, 3))
        want = project_points_onto_ballpoly(P, pts)
        for batch in (1, 300, 5000):
            monkeypatch.setattr(geometry, "CANDIDATE_BATCH", batch)
            got = project_points_onto_ballpoly(P, pts)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_vertices_of_three_balls(self):
        # Centres on a circle of radius a in x3 = 0: the balls meet in
        # the vertices (0, 0, +-h), the nearest points to points far
        # above or below them near the axis. No single ball's
        # projection of those points is feasible.
        a, R = 0.8, 1.0
        ang = 2 * np.pi * np.arange(3) / 3
        P = BallPolyhedron.from_arrays(np.column_stack([a * np.cos(ang), a * np.sin(ang),
                                                        np.zeros(3)]), R)
        h = np.sqrt(R**2 - a**2)
        proj, ok = project_points_onto_ballpoly(P, np.array([[0.0, 0.0, 5.0], [0.1, 0.0, -3.0]]))
        assert np.all(ok)
        assert np.allclose(proj, [[0.0, 0.0, h], [0.0, 0.0, -h]], rtol=0, atol=1e-12)


class TestDirectionGrid:
    def test_weights_and_norms(self):
        g = DirectionGrid.uniform_2d(64)
        assert len(g) == 64
        assert np.allclose(np.linalg.norm(g.directions, axis=1), 1.0, atol=1e-12)
        assert np.sum(g.weights) == pytest.approx(1.0, abs=1e-12)

    def test_fibonacci_3d(self):
        g = DirectionGrid.fibonacci_3d(500)
        assert np.allclose(np.linalg.norm(g.directions, axis=1), 1.0, atol=1e-12)
        # Quadrature sanity: mean of z^2 over the sphere is 1/3.
        assert np.dot(g.weights, g.directions[:, 2] ** 2) == pytest.approx(1 / 3, abs=1e-3)


class TestSupportBody:
    def grid(self):
        return DirectionGrid.uniform_2d(1024)

    def test_ball_support(self):
        g = self.grid()
        K = SupportBody.ball(np.array([1.0, 0.0]), 2.0, g)
        h = K.support(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert h == pytest.approx([2.0, 3.0])


def round_star(radius, grid):
    return StarBody(2, grid, oracle=lambda d: np.full(np.atleast_2d(d).shape[0], radius))


class TestStarBody:
    def test_contains_origin(self):
        g = DirectionGrid.uniform_2d(256)
        S = round_star(0.1, g)
        assert S.contains(np.zeros(2))[0]

    def test_contains_boundary(self):
        g = DirectionGrid.uniform_2d(256)
        S = round_star(1.0, g)
        assert S.contains(np.array([0.999, 0.0]))[0]
        assert not S.contains(np.array([1.01, 0.0]))[0]


class TestBallPolyhedron:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BallPolyhedron.from_arrays([[0.0, 0.0], [0.0, 0.0, 0.0]], 1.0)

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            BallPolyhedron.from_arrays(np.zeros((1, 2)), -1.0)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            BallPolyhedron.from_arrays([], 1.0)
