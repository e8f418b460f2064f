"""Projection, support, and body-representation tests."""

import ast
import textwrap
from pathlib import Path

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
    _sq_dist,
    _support_function,
)
from ballpoly.rng import stream, uniform_in_ball, uniform_on_sphere

SQRT3 = np.sqrt(3.0)


def lens():
    return BallPolyhedron.from_arrays([[0.5, 0.0], [-0.5, 0.0]], 1.0)


def touching_pair():
    # Intersection is exactly the single point (0, 0), where the two
    # boundary circles are tangent.
    return BallPolyhedron.from_arrays([[1.0, 0.0], [-1.0, 0.0]], 1.0)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSqDist:
    """The column-wise kernel against numpy's row sum, which adds fewer
    than 8 terms in order: the same bits for n <= 7."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bits_match_the_row_sum(self, n):
        rng = np.random.default_rng(60 + n)
        for scale in (1e-150, 1e-50, 1e-5, 1.0, 1e5, 1e50, 1e150):
            # Coordinates of mixed magnitudes, so that the order of the
            # additions shows in the last bits.
            x = scale * rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-2, 2, (400, n))
            c = scale * rng.standard_normal(n)
            y = scale * rng.standard_normal((40, 9, n))
            xb = x[:40, None, :]
            for got, want in [
                (_sq_dist(x, c), np.sum((x - c) ** 2, axis=-1)),
                (_sq_dist(x, 0.0), np.sum(x**2, axis=-1)),
                (_sq_dist(y, c), np.sum((y - c) ** 2, axis=-1)),
                (_sq_dist(y, xb), np.sum((y - xb) ** 2, axis=-1)),
                (_sq_dist(x[:, None, :], x[None, :30, :]),
                 np.sum((x[:, None, :] - x[None, :30, :]) ** 2, axis=-1)),
            ]:
                assert same_bits(got, want)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_samplers_match_the_norm_formulas(self, n):
        rng = stream(61, n)
        g = rng.standard_normal((500, n))
        radii = rng.random(500) ** (1.0 / n)
        want = g / np.linalg.norm(g, axis=1, keepdims=True) * radii[:, None]
        assert same_bits(uniform_in_ball(stream(61, n), n, 500), want)
        g = stream(62, n).standard_normal((500, n))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert same_bits(uniform_on_sphere(stream(62, n), n, 500), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inputs_are_never_written(self, n):
        # The kernel squares and adds in place, into arrays of its own:
        # writable inputs keep their bits, and read-only broadcast views
        # (which raise on any write) work.
        rng = np.random.default_rng(70 + n)
        x, c = rng.standard_normal((300, n)), rng.standard_normal(n)
        x0, c0 = x.copy(), c.copy()
        xs = np.broadcast_to(x, (4, 300, n))
        cs = np.broadcast_to(c, (300, n))
        for got, want in [
            (_sq_dist(x, c), np.sum((x0 - c0) ** 2, axis=-1)),
            (_sq_dist(x, 0.0), np.sum(x0**2, axis=-1)),
            (_sq_dist(x[:, None, :], x[None, :20, :]),
             np.sum((x0[:, None, :] - x0[None, :20, :]) ** 2, axis=-1)),
            (_sq_dist(xs, c), np.sum((xs - c0) ** 2, axis=-1)),
            (_sq_dist(xs, 0.0), np.sum(xs**2, axis=-1)),
            (_sq_dist(x, cs), np.sum((x0 - cs) ** 2, axis=-1)),
            (_sq_dist(cs, 0.0), np.sum(cs**2, axis=-1)),
        ]:
            assert same_bits(got, want)
            assert same_bits(x, x0) and same_bits(c, c0)
        P = BallPolyhedron.from_arrays(0.3 * rng.standard_normal((4, n)), 1.0)
        want = P.contains(x0)
        assert np.array_equal(P.contains(x), want) and same_bits(x, x0)
        assert np.array_equal(P.contains(cs), np.repeat(P.contains(c0), 300))
        assert np.array_equal(P.contains(x, 0.1), P.contains(x0, 0.1)) and same_bits(x, x0)


def _is_square(node):
    if isinstance(node, ast.Call):
        return ast.unparse(node.func).endswith("square")
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return False


def row_reductions(source):
    """Lines that let numpy reduce a coordinate axis of squares: a norm
    or a sum of squares with an axis, as ``np.linalg.norm(x, axis=1)``,
    ``np.sum(d ** 2, 1)`` or ``(d * d).sum(axis=-1)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = ast.unparse(node.func), node.args
        norm = name.endswith("linalg.norm")
        if not norm and name not in ("np.sum", "numpy.sum"):
            if not (isinstance(node.func, ast.Attribute) and node.func.attr == "sum"):
                continue
            args = [node.func.value] + args  # x.sum(axis): the array comes first
        axis = any(k.arg == "axis" for k in node.keywords) or len(args) > (2 if norm else 1)
        if axis and (norm or _is_square(args[0])):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoRowReductions:
    """Squared distances and row norms over a coordinate axis go through
    ``_sq_dist``; numpy reduces a short last axis one row at a time."""

    def test_the_guard_flags_row_reductions_only(self):
        slow = textwrap.dedent("""\
            a = np.linalg.norm(x, axis=1)
            b = np.sum((x - c) ** 2, axis=1)
            c = np.sum(g * g, axis=-1)
            d = (x ** 2).sum(axis=1)
            e = np.sum(np.square(x), 1)
            f = np.linalg.norm(x, None, 1)
        """)
        fast = textwrap.dedent("""\
            a = np.linalg.norm(v)
            b = np.sum(ns * nt, axis=1)
            c = np.sum(np.abs(x), axis=1)
            d = np.sum((g - m) ** 2)
            e = x.sum(axis=1)
        """)
        assert row_reductions(slow) == [1, 2, 3, 4, 5, 6]
        assert row_reductions(fast) == []

    def test_the_library_has_none(self):
        package = Path(geometry.__file__).resolve().parent
        found = {p.name: row_reductions(p.read_text()) for p in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines} == {}


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
        h = _support_function(P, np.array([0.0, 1.0]))
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
        h = _support_function(lens(), np.array([0.0, 1.0]))
        assert h == pytest.approx(SQRT3 / 2, abs=1e-7)

    def test_lens_horizontal(self):
        h = _support_function(lens(), np.array([1.0, 0.0]))
        assert h == pytest.approx(0.5, abs=1e-7)

    def test_zero_direction_raises(self):
        with pytest.raises(ZeroVector):
            _support_function(lens(), np.zeros(2))

    def test_empty_raises(self):
        P = BallPolyhedron.from_arrays([[2.0, 0.0], [-2.0, 0.0]], 1.0)
        with pytest.raises(EmptyIntersection):
            _support_function(P, np.array([1.0, 0.0]))

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
            h_sum = _support_function(P, s / ns) * ns
            h1 = _support_function(P, t1)
            h2 = _support_function(P, t2)
            assert h_sum <= h1 + h2 + 4e-6

    def test_reflection_symmetry(self):
        # Symmetric centers force h(theta) = h(R_u theta).
        P = lens()
        u = np.array([1.0, 0.0])
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = rng.normal(size=2)
            t /= np.linalg.norm(t)
            h1 = _support_function(P, t)
            h2 = _support_function(P, t - 2.0 * np.dot(t, u) * u)
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
            region = exact2d.disk_region(P.centers, P.radii)
            assert P.is_empty() == region.empty
            if region.empty:
                empty += 1
                with pytest.raises(EmptyIntersection):
                    _support_function(P, np.array([1.0, 0.0]))
                continue
            dirs = rng.normal(size=(3, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            got = [_support_function(P, t) for t in dirs]
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
            _support_function(P, np.array([0.0, 1.0]))
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
            assert _support_function(P, u) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("R, d", [(1.0, 1.0), (1.3, 0.4)])
    def test_3d_lens_equal_radii(self, R, d):
        P = BallPolyhedron.from_arrays([[-d / 2, 0.0, 0.0], [d / 2, 0.0, 0.0]], R)
        rim = np.sqrt(R**2 - d**2 / 4)
        assert _support_function(P, np.array([0.0, 0.0, 1.0])) == pytest.approx(rim, abs=1e-12)
        assert _support_function(P, np.array([1.0, 0.0, 0.0])) == pytest.approx(R - d / 2, abs=1e-12)
        rng = np.random.default_rng(31)
        for t in rng.normal(size=(20, 3)):
            t /= np.linalg.norm(t)
            assert _support_function(P, t) == pytest.approx(lens_support(t, R, d), abs=1e-12)

    def test_3d_lens_unequal_radii(self):
        r1, r2, d = 1.0, 1.5, 1.2
        P = BallPolyhedron.from_arrays([[0.0, 0.0, 0.0], [d, 0.0, 0.0]], [r1, r2])
        plane = (d**2 + r1**2 - r2**2) / (2 * d)  # the rim's x1
        rim = np.sqrt(r1**2 - plane**2)
        for t in ([0.0, 0.0, 1.0], [0.0, -0.6, 0.8]):
            assert _support_function(P, np.array(t)) == pytest.approx(rim, abs=1e-12)
        assert _support_function(P, np.array([1.0, 0.0, 0.0])) == pytest.approx(r1, abs=1e-12)
        assert _support_function(P, np.array([-1.0, 0.0, 0.0])) == pytest.approx(r2 - d, abs=1e-12)

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
            assert _support_function(P, t) == pytest.approx(-res.fun, abs=1e-7)
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
            assert _support_function(ball, t) == pytest.approx(c @ t + 0.7, abs=1e-12)
            assert _support_function(lens4, t) == pytest.approx(lens_support(t, R, d), abs=1e-12)
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
        # y is the metric projection of x exactly when y lies in P and
        # the line through y normal to u = (x - y)/|x - y| supports P,
        # so each projection is checked against the arcs' support
        # function, with no second distance implementation.
        rng = np.random.default_rng(2025)
        empty = 0
        for _ in range(1300):
            k = int(rng.integers(1, 9))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.6, (k, 2)), rng.uniform(0.8, 1.5, k))
            pts = rng.normal(0, 1.5, (20, 2))
            d, ok = distances_to_ballpoly(P, pts)
            y, converged = project_points_onto_ballpoly(P, pts)
            region = exact2d.disk_region(P.centers, P.radii)
            if region.empty:
                empty += 1
                assert not np.any(ok) and not np.any(converged)
                continue
            assert np.all(ok) and np.all(converged)
            gap = np.linalg.norm(y[:, None, :] - P.centers[None, :, :], axis=2) - P.radii
            assert np.max(gap) <= 1e-12
            assert np.array_equal(d, np.linalg.norm(pts - y, axis=1))
            out = d > 0
            assert np.array_equal(y[~out], pts[~out])
            u = (pts[out] - y[out]) / d[out, None]
            h = exact2d.support_from_region(region, u)
            assert np.allclose(np.sum(y[out] * u, axis=1), h, rtol=0, atol=1e-12)
        assert 1300 - empty >= 1000

    def test_distance_zero_inside_positive_outside(self):
        d, ok = distances_to_ballpoly(lens(), np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
        assert np.all(ok)
        assert d[0] == 0.0
        # Highest lens point is (0, sqrt(3)/2).
        assert d[1] == pytest.approx(2.0 - np.sqrt(3) / 2, abs=1e-12)

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_do_not_depend_on_the_others(self, n):
        # A point's projection is the same bits whichever points share
        # its call: the Steiner fit maps only part of its cloud.
        rng = np.random.default_rng(38 + n)
        for k in range(1, 7):
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.4, (k, n)), rng.uniform(0.8, 1.5, k))
            if P.is_empty():
                continue
            pts = rng.normal(0, 1.0, (3000, n))
            out = ~P.contains(pts)
            assert 0 < np.count_nonzero(out) < pts.shape[0]
            mixed, ok = project_points_onto_ballpoly(P, pts)
            alone, ok_alone = project_points_onto_ballpoly(P, pts[out])
            assert np.array_equal(mixed[out], alone) and np.array_equal(ok[out], ok_alone)
            assert np.array_equal(mixed[~out], pts[~out]) and np.all(ok)

    @pytest.mark.parametrize("s", [1e-13, 1e-30, 1e8])
    def test_scaled_body_scales_the_distances(self, s):
        # A projection counts as zero relative to |v|: an absolute floor
        # sent every candidate of a tiny body to its sphere's centre.
        rng = np.random.default_rng(45)
        c, x = rng.normal(0, 0.4, (3, 3)), rng.normal(0, 1.5, (2000, 3))
        want = distances_to_ballpoly(BallPolyhedron.from_arrays(c, 1.0), x)[0]
        got = distances_to_ballpoly(BallPolyhedron.from_arrays(s * c, s), s * x)[0]
        assert np.count_nonzero(want) > 1000
        assert np.allclose(got / s, want, rtol=1e-12, atol=1e-12)

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

    def test_3d_matches_candidate_support(self):
        # The 3-D twin of test_planar_matches_arcs: y is the metric
        # projection of x exactly when y lies in P and the plane through y
        # normal to u = (x - y)/|x - y| supports P, checked against
        # _support_function, which builds its candidates apart from the map.
        rng = np.random.default_rng(2026)
        outside = 0
        for _ in range(150):
            k = int(rng.integers(1, 7))
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.5, (k, 3)), rng.uniform(0.8, 1.5, k))
            pts = rng.normal(0, 1.5, (10, 3))
            d, ok = distances_to_ballpoly(P, pts)
            y, converged = project_points_onto_ballpoly(P, pts)
            if P.is_empty():
                assert not np.any(ok) and not np.any(converged)
                continue
            assert np.all(ok) and np.all(converged)
            gap = np.linalg.norm(y[:, None, :] - P.centers[None, :, :], axis=2) - P.radii
            assert np.max(gap) <= 1e-12
            assert np.array_equal(d, np.linalg.norm(pts - y, axis=1))
            for x, yx, dx in zip(pts[d > 0], y[d > 0], d[d > 0]):
                u = (x - yx) / dx
                assert yx @ u == pytest.approx(_support_function(P, u), rel=0, abs=1e-12)
                outside += 1
        assert outside >= 700

    @pytest.mark.parametrize("n", [2, 3])
    def test_tied_farthest_balls(self, n):
        # Ball 0 given twice more, exactly and moved by 1e-15, ties the
        # farthest-ball check and adds a near-degenerate common sphere;
        # neither may move a projection.
        rng = np.random.default_rng(37 + n)
        C, R = rng.normal(0, 0.4, (3, n)), rng.uniform(0.9, 1.3, 3)
        shift = rng.normal(size=n)
        moved = C[0] + 1e-15 * shift / np.linalg.norm(shift)
        P = BallPolyhedron.from_arrays(C, R)
        Q = BallPolyhedron.from_arrays(np.vstack([C, C[0], moved]), np.concatenate([R, R[:1], R[:1]]))
        pts = rng.normal(0, 1.5, (400, n))
        want, ok = project_points_onto_ballpoly(P, pts)
        got, ok_q = project_points_onto_ballpoly(Q, pts)
        assert np.all(ok) and np.all(ok_q)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_gap_ties_take_the_first_ball(self, n):
        # The unit ball inside the ball of radius 3 about -2 e, tangent
        # at e: points x = t e, t > 1, are at the same distance from
        # both, and both single-ball projections are e up to rounding.
        # Where the gaps tie exactly and the two formulas' bits differ,
        # the projection is the first ball's, in either order.
        e = np.eye(n)[n - 1]
        c, r = np.array([0.0 * e, -2.0 * e]), np.array([1.0, 3.0])
        x = np.random.default_rng(80 + n).uniform(1.0, 4.0, 4000)[:, None] * e
        norm = np.linalg.norm(x[None, :, :] - c[:, None, :], axis=2)
        y = c[:, None, :] + (x - c[:, None, :]) * (r[:, None] / norm)[:, :, None]
        tied = (norm[0] - r[0] == norm[1] - r[1]) & np.any(y[0] != y[1], axis=1)
        assert np.count_nonzero(tied) > 200
        for first, second in ((0, 1), (1, 0)):
            P = BallPolyhedron(c[[first, second]], r[[first, second]])
            proj, ok = project_points_onto_ballpoly(P, x[tied])
            assert np.all(ok) and same_bits(proj, y[first][tied])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_face_projections_are_the_row_formula(self, n):
        # Where the projection onto the farthest ball (first of the
        # largest gap) is feasible it is the map's answer, bit for bit
        # that of c_i + (x - c_i) * (r_i / |x - c_i|) on whole rows.
        rng = np.random.default_rng(90 + n)
        faces = 0
        for k in range(1, 6):
            P = BallPolyhedron.from_arrays(rng.normal(0, 0.4, (k, n)), rng.uniform(0.8, 1.5, k))
            x = rng.normal(0, 1.5, (2000, n))
            norm = np.linalg.norm(x[:, None, :] - P.centers[None, :, :], axis=2)
            out = ~P.contains(x)
            i = np.argmax(norm - P.radii, axis=1)
            y = P.centers[i] + (x - P.centers[i]) * (P.radii[i] / norm[np.arange(2000), i])[:, None]
            face = out & P.contains(y, geometry.CANDIDATE_RTOL * float(np.max(P.radii)))
            proj, _ = project_points_onto_ballpoly(P, x)
            assert same_bits(proj[face], y[face])
            faces += np.count_nonzero(face)
        assert faces > 1000


# Property checks of the exact oracles need no reference value: with
# c'' = lam c + (1 - lam) c', P(c'') contains lam P(c) + (1 - lam) P(c'),
# and every comparison holds within PROPERTY_RTOL of max(1, |value|).
PROPERTY_RTOL = 1e-12


def centre_pairs(rng, n, count):
    """(c, c', radii, lam) with both bodies nonempty; about 30% of the
    pairs are translations up to noise of 1e-3 on the centres."""
    while count:
        k = int(rng.integers(1, 7))
        c, radii = rng.normal(0, 0.5, (k, n)), rng.uniform(0.8, 1.5, k)
        if rng.random() < 0.3:
            c2 = c + rng.normal(0, 0.3, n) + rng.normal(0, 1e-3, (k, n))
        else:
            c2 = rng.normal(0, 0.5, (k, n))
        if BallPolyhedron(c, radii).is_empty() or BallPolyhedron(c2, radii).is_empty():
            continue
        count -= 1
        yield c, c2, radii, rng.uniform(0.05, 0.95)


def at_most(lhs, rhs):
    """lhs <= rhs within PROPERTY_RTOL of max(1, |rhs|)."""
    return np.all(lhs <= rhs + PROPERTY_RTOL * np.maximum(1.0, np.abs(rhs)))


class TestConvexityInCentres:
    """The exact oracles against the inclusion above: (a) the support
    function is concave in the centres, (b) sqrt(area) and the perimeter
    are, (c) the distance from a fixed point is convex, (d) a mix of
    nonempty configurations is nonempty, (e) translating every centre
    translates the body."""

    def test_planar(self):
        rng = np.random.default_rng(120)
        for c, c2, radii, lam in centre_pairs(rng, 2, 60):
            mix = lam * c + (1 - lam) * c2
            regions = [exact2d.disk_region(z, radii) for z in (c, c2, mix)]
            assert not regions[2].empty and not BallPolyhedron(mix, radii).is_empty()  # (d)
            u = rng.normal(size=(8, 2))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            h, h2, hm = (exact2d.support_from_region(r, u) for r in regions)
            assert at_most(lam * h + (1 - lam) * h2, hm)  # (a)
            for value in (lambda r: np.sqrt(r.area), lambda r: r.perimeter):  # (b)
                v, v2, vm = map(value, regions)
                assert at_most(lam * v + (1 - lam) * v2, vm)
            x = rng.normal(0, 1.5, (8, 2))
            d, d2, dm = (distances_to_ballpoly(BallPolyhedron(z, radii), x)[0]
                         for z in (c, c2, mix))
            assert at_most(dm, lam * d + (1 - lam) * d2)  # (c)
            t = rng.normal(0, 0.5, 2)  # (e)
            moved = exact2d.disk_region(c + t, radii)
            assert np.allclose(exact2d.support_from_region(moved, u), h + u @ t,
                               rtol=PROPERTY_RTOL, atol=PROPERTY_RTOL)
            assert moved.area == pytest.approx(regions[0].area, rel=PROPERTY_RTOL,
                                               abs=PROPERTY_RTOL)
            assert np.allclose(distances_to_ballpoly(BallPolyhedron(c + t, radii), x + t)[0], d,
                               rtol=PROPERTY_RTOL, atol=PROPERTY_RTOL)

    def test_3d(self):
        rng = np.random.default_rng(130)
        for c, c2, radii, lam in centre_pairs(rng, 3, 40):
            bodies = [BallPolyhedron(z, radii) for z in (c, c2, lam * c + (1 - lam) * c2)]
            assert not bodies[2].is_empty()  # (d)
            u = rng.normal(size=(3, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            h, h2, hm = (np.array([_support_function(P, t) for t in u]) for P in bodies)
            assert at_most(lam * h + (1 - lam) * h2, hm)  # (a)
            x = rng.normal(0, 1.5, (8, 3))
            d, d2, dm = (distances_to_ballpoly(P, x)[0] for P in bodies)
            assert at_most(dm, lam * d + (1 - lam) * d2)  # (c)
            t = rng.normal(0, 0.5, 3)  # (e)
            moved = BallPolyhedron(c + t, radii)
            assert np.allclose([_support_function(moved, v) for v in u], h + u @ t,
                               rtol=PROPERTY_RTOL, atol=PROPERTY_RTOL)
            assert np.allclose(distances_to_ballpoly(moved, x + t)[0], d,
                               rtol=PROPERTY_RTOL, atol=PROPERTY_RTOL)


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

    def test_slack_scales_with_the_body(self):
        S = round_star(1e-13, DirectionGrid.uniform_2d(256))
        assert S.contains(np.array([[0.999e-13, 0.0], [0.0, -1e-13]])).all()
        assert not S.contains(np.array([5e-13, 0.0]))[0]


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
