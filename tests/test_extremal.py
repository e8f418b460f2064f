"""Exact circumscription objective: hull intrinsic volumes, the planar
clipper against Qhull, and the touching-halfspace V_j against closed
forms; the plain-float Nelder-Mead against scipy's."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, HalfspaceIntersection

from ballpoly import exact2d
from ballpoly import extremal as ex
from ballpoly.config import build_body, build_density
from ballpoly.errors import UnboundedConfiguration, UnsupportedDimension
from ballpoly.geometry import DirectionGrid, SupportBody
from ballpoly.neldermead import _nelder_mead
from ballpoly.polytope import (CLIP_EPS, clip_polygon, clip_vertices, halfspace_vertices_3d,
                               hull_intrinsic_volumes, polygon_area, polygon_area_perimeter)
from ballpoly.rng import stream, uniform_on_sphere

UNIT_CUBE = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
REGULAR_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
AXES_3D = np.vstack([np.eye(3), -np.eye(3)])
CORNER_TETRAHEDRON = np.vstack([-np.eye(3), np.ones(3) / math.sqrt(3.0)])


def objective(K, thetas, j):
    thetas = np.asarray(thetas, dtype=float)
    prob = ex.CircumscriptionProblem(K, j=j, N=len(thetas))
    return ex._Objective(prob)(thetas, K.support(thetas))


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

    @pytest.mark.parametrize("points", [np.eye(3), UNIT_CUBE[:4]],
                             ids=["three-points", "four-coplanar"])
    def test_too_few_or_flat_points_raise(self, points):
        with pytest.raises(UnboundedConfiguration, match="cannot build the hull"):
            hull_intrinsic_volumes(points)


def touching_config(seed):
    """N touching halfspaces around a random convex polygon away from the
    origin; every fourth configuration has its normals in an arc shorter
    than pi, so it is unbounded and only the clipping box closes it."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (6, 2)) + rng.uniform(-3.0, 3.0, 2)
    N = int(rng.integers(3, 9))
    width = 0.8 * math.pi if seed % 4 == 0 else 2.0 * math.pi
    angles = rng.uniform(0.0, width, N) + rng.uniform(0.0, 2.0 * math.pi)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    offsets = np.max(normals @ points.T, axis=1)
    return normals, offsets, points.mean(axis=0)


def qhull_area_perimeter(normals, offsets, bound, interior):
    """Independent oracle: Qhull's halfspace intersection with the box,
    then the convex hull's area (``volume`` in 2D) and perimeter."""
    A = np.vstack([normals, np.eye(2), -np.eye(2)])
    c = np.concatenate([offsets, np.full(4, bound)])
    hull = ConvexHull(HalfspaceIntersection(np.column_stack([A, -c]), interior).intersections)
    return hull.volume, hull.area


class TestClipPolygon:
    BOUND = 10.0

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_qhull(self, seed):
        normals, offsets, interior = touching_config(seed)
        verts = clip_polygon(normals, offsets, self.BOUND)
        area, perim = polygon_area_perimeter(verts)
        want_area, want_perim = qhull_area_perimeter(normals, offsets, self.BOUND, interior)
        assert area == pytest.approx(want_area, rel=1e-10)
        assert perim == pytest.approx(want_perim, rel=1e-10)
        assert np.all(verts @ normals.T <= offsets + 1e-9)
        if seed % 4 == 0:
            assert np.max(np.abs(verts)) == pytest.approx(self.BOUND)

    @pytest.mark.parametrize("shift", [-0.5, 0.0, 0.5])
    def test_vertex_on_line_within_eps(self, shift):
        # x + y <= 2 + shift*CLIP_EPS passes through the square's corner
        # (1, 1) up to the slack: the corner counts as inside, and no
        # sliver vertices appear beside it.
        normals = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], float)
        offsets = np.array([1.0, 1.0, 1.0, 1.0, 2.0 + shift * CLIP_EPS])
        verts = clip_polygon(normals, offsets, 1.0)
        assert len(verts) == 4
        want = qhull_area_perimeter(normals, offsets, 1.0, np.zeros(2))
        assert polygon_area_perimeter(verts) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-9, 2.0**-30])
    def test_slack_is_relative(self, scale):
        # The square with its corner (1, 1) cut 1e-4 deep: the cut is far
        # above the slack at any scale, so the clipped polygon scales
        # with its inputs (bit for bit at a power of two).
        normals = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], float)
        offsets = np.array([1.0, 1.0, 1.0, 1.0, 2.0 - 1e-4])
        verts = clip_polygon(normals, offsets, self.BOUND)
        small = clip_polygon(normals, scale * offsets, scale * self.BOUND)
        assert len(verts) == 5 and small.shape == verts.shape
        assert np.max(np.abs(small - scale * verts)) <= 8 * np.spacing(scale * np.max(np.abs(verts)))

    def test_infeasible_is_empty(self):
        verts = clip_polygon([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0], 5.0)
        assert verts.shape == (0, 2)
        assert polygon_area_perimeter(verts) == (0.0, 0.0)


class TestAreaPerimeter:
    @pytest.mark.parametrize("verts", [np.empty((0, 2)), [[1.0, 2.0]], [[0.0, 0.0], [3.0, 4.0]]])
    def test_fewer_than_three_vertices(self, verts):
        assert polygon_area_perimeter(np.asarray(verts)) == (0.0, 0.0)
        assert polygon_area(verts) == polygon_area(np.asarray(verts)) == 0.0

    def test_clockwise(self):
        ccw = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        assert polygon_area_perimeter(ccw) == (2.0, 6.0)
        assert polygon_area_perimeter(ccw[::-1]) == (2.0, 6.0)

    def test_area_alone_is_the_pairs_area(self):
        # The clipper's outputs of 200 touching configurations, in the
        # list form the objective passes and as arrays: the planar V_2
        # objective reads polygon_area, with the bits of the pair's area.
        for seed in range(200):
            normals, offsets, _ = touching_config(seed)
            poly = clip_vertices(normals.tolist(), offsets.tolist(), 10.0)
            assert len(poly) >= 3
            for verts in (poly, np.array(poly)):
                assert polygon_area(verts).hex() == polygon_area_perimeter(verts)[0].hex()


class TestChart:
    @staticmethod
    def check_per_ball(n, N, restarts):
        """One ``_chart`` call on the balls of ``restarts`` restarts maps
        every ball as the per-ball loop does, whatever shares the call,
        and as a call on its own restart's balls alone does."""
        rng = np.random.default_rng(N)
        base = np.concatenate([uniform_on_sphere(stream(n, N, r), n, N) for r in range(restarts)])
        bases = np.stack([ex._tangent_basis(theta) for theta in base])
        for scale in (1e-6, 0.5, 3.0):
            v = rng.normal(scale=scale, size=(restarts * N, n - 1))
            want = []
            for i in range(restarts * N):
                p = base[i] + bases[i].T @ v[i]
                want.append(p / np.linalg.norm(p))
            assert np.array_equal(ex._chart(base, bases, v), np.array(want))
            for r in range(restarts):
                rows = slice(r * N, (r + 1) * N)
                assert np.array_equal(ex._chart(base[rows], bases[rows], v[rows]),
                                      np.array(want[rows]))

    @pytest.mark.parametrize("n, N", [(2, 4), (3, 4), (3, 7)])
    def test_matches_per_ball_loop(self, n, N):
        self.check_per_ball(n, N, 1)

    @pytest.mark.parametrize("n, N, restarts", [(2, 4, 5), (2, 6, 32), (3, 4, 3), (3, 7, 8)])
    def test_restarts_in_one_call(self, n, N, restarts):
        self.check_per_ball(n, N, restarts)


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

    def test_interior_point_on_a_face_raises(self):
        with pytest.raises(UnboundedConfiguration, match="not strictly feasible"):
            halfspace_vertices_3d(AXES_3D, np.full(6, 0.5), 40.0, np.array([0.5, 0.0, 0.0]))

    def test_3d_infeasible_configuration_scores_the_box_penalty(self):
        # x <= -1 and -x <= -1 leave no point: the score is (2 * bound)^3
        # with bound = 40 for the unit cube.
        K = SupportBody.cube(1.0, 3, DirectionGrid.fibonacci_3d(512))
        prob = ex.CircumscriptionProblem(K, j=3, N=6)
        assert ex._Objective(prob)(AXES_3D, np.full(6, -1.0)) == 512000.0

    @pytest.mark.parametrize("n, estimator", [(2, "exact-hull-3d"), (3, "exact-2d")])
    def test_estimator_must_match_dimension(self, n, estimator):
        K = SupportBody.cube(1.0, n, DirectionGrid.for_dimension(n, 256))
        with pytest.raises(UnsupportedDimension):
            ex.CircumscriptionProblem(K, j=n, N=n + 1, estimator=estimator)

    def test_four_dimensions_unsupported(self):
        K = SupportBody.cube(1.0, 4, DirectionGrid.for_dimension(4, 256))
        with pytest.raises(UnsupportedDimension):
            ex.CircumscriptionProblem(K, j=4, N=5)


def wavy(x):
    """Smooth, with a distinct value at every point the searches visit."""
    x = [float(c) for c in x]
    return sum(c * c for c in x) + 0.3 * sum(math.sin(3.0 * c + k) for k, c in enumerate(x))


def plateau(x):
    """wavy rounded to 0.1: flat steps, so many simplex values tie."""
    return round(wavy(x), 1)


def terraced(x):
    """wavy at a higher frequency, so that the searches shrink while
    their values are distinct, and rounded to 0.1 above 0.5, so that
    they also meet ties."""
    x = [float(c) for c in x]
    v = sum(c * c for c in x) + 0.3 * sum(math.sin(20.0 * c + k) for k, c in enumerate(x))
    return round(v, 1) if v > 0.5 else v


def rosenbrock(x):
    x = [float(c) for c in x]
    return sum(100.0 * (b - a * a) * (b - a * a) + (1.0 - a) * (1.0 - a) for a, b in zip(x, x[1:]))


def drive(f, search):
    """Run a ``_nelder_mead`` generator to its end, evaluating f at each
    point it yields; returns the search's (x, f(x), evaluations)."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def start_simplex(dim):
    rng = np.random.default_rng(dim)
    return rng.normal(size=dim) + 0.5 * np.vstack([np.zeros(dim), np.eye(dim)])


class TestNelderMead:
    # Each search runs to convergence with maxfev 2000. The wavy searches
    # end in shrinks: evaluations 284-287 (4 variables, fixed
    # coefficients) and 709-714 and 724-729 (6 variables, adaptive), so
    # the budgets 285, 286, 711 and 726 run out mid-shrink, where the
    # moved vertex keeps its old value. Budgets 0 and 3 run out before
    # the simplex is evaluated, leaving tied infinite values to sort.
    # The plateau searches tie on most steps, so they take the full
    # re-sort and np.argsort's order of ties; they shrink at evaluations
    # 42-45 (4 variables, fixed) and 97-102 (6, adaptive), cut by the
    # budgets 43 and 99. The terraced search in 4 variables shrinks at
    # 20-23 from a strictly ordered simplex, cut by the budget 21, so
    # only a full re-sort after the shrink finds its new best vertex.
    @pytest.mark.parametrize("f, dim, adaptive, maxfev", [
        *[(wavy, 4, False, m) for m in (0, 3, 100, 280, 284, 285, 286, 287, 2000)],
        *[(wavy, 6, True, m) for m in (5, 708, 711, 723, 726, 2000)],
        (wavy, 6, False, 2000),
        (rosenbrock, 4, False, 2000),
        (rosenbrock, 4, True, 2000),
        (rosenbrock, 6, True, 2000),
        *[(plateau, 4, False, m) for m in (43, 2000)],
        *[(plateau, 6, True, m) for m in (99, 2000)],
        *[(terraced, 4, False, m) for m in (21, 2000)],
        (terraced, 6, True, 2000),
    ])
    def test_replays_scipy(self, f, dim, adaptive, maxfev):
        simplex = start_simplex(dim)
        want = minimize(f, simplex[0], method="Nelder-Mead", options={
            "initial_simplex": simplex, "maxfev": maxfev, "xatol": 1e-8, "fatol": 1e-8,
            "adaptive": adaptive})
        x, fun, nfev = drive(f, _nelder_mead(simplex.tolist(), maxfev, 1e-8, 1e-8, adaptive))
        assert x == want.x.tolist()
        assert fun == want.fun
        assert nfev == want.nfev


class TestMinimize:
    def test_triangle_around_disk(self):
        K = SupportBody.ball(np.zeros(2), 1.0, DirectionGrid.uniform_2d(512))
        res = ex.minimize_mjN(ex.CircumscriptionProblem(K, j=2, N=3), restarts=4, seed=0)
        assert res.value == pytest.approx(ex.simplex_circumscription_minimum(2), rel=1e-9)
        assert ex.simplex_circumscription_minimum(2) == pytest.approx(3 * math.sqrt(3))

    # value, best restart and per-restart trace of minimize_mjN around the
    # unit square (default grid), N = 4, 4 restarts, seed 3, recorded
    # from the numpy clipper and per-ball chart the float path replaced.
    PINNED = {
        1: (2.0000002379920776, 1,
            [2.0830235705684412, 2.0000002379920776, 2.005611230997973, 2.000031275181078]),
        2: (1.0000000232665256, 3,
            [1.0771451263258052, 1.00000284570261, 1.0000000241253573, 1.0000000232665256]),
    }

    @pytest.mark.parametrize("j", [1, 2])
    def test_search_pinned(self, j, monkeypatch):
        calls = []
        objective_call = ex._Objective.__call__
        monkeypatch.setattr(ex._Objective, "__call__",
                            lambda obj, thetas, offsets:
                            calls.append(1) or objective_call(obj, thetas, offsets))
        K = build_body({"type": "cube", "side": 1.0, "n": 2})
        res = ex.minimize_mjN(ex.CircumscriptionProblem(K, j=j, N=4), restarts=4, seed=3)
        value, best_restart, trace = self.PINNED[j]
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.best_restart == best_restart
        np.testing.assert_allclose(res.trace, trace, rtol=1e-12, atol=0.0)
        assert res.evaluations == len(calls)

    @staticmethod
    def one_restart_at_a_time(prob, restarts, seed, max_fev):
        """minimize_mjN's searches run one after another, each point
        charted, given its support values and scored alone, as arrays:
        (trace, best restart, per-restart evaluations)."""
        obj = ex._Objective(prob)
        n, N = prob.K.dimension, prob.N
        dim = N * (n - 1)
        init = [[0.0] * dim] + [[0.45 if i == k else 0.0 for i in range(dim)] for k in range(dim)]
        trace, nfevs = [], []
        for r in range(restarts):
            base = uniform_on_sphere(stream(seed, r), n, N)
            bases = np.stack([ex._tangent_basis(theta) for theta in base])

            def f(x):
                thetas = ex._chart(base, bases, np.array(x).reshape(N, n - 1))
                return obj(thetas, prob.K.support(thetas))

            _, fun, nfev = drive(f, _nelder_mead(init, max_fev, 1e-7, 1e-7, n > 2))
            trace.append(fun)
            nfevs.append(nfev)
        return trace, min(range(restarts), key=lambda r: (trace[r], r)), nfevs

    # In the plane the budget of 400 lets some searches converge first,
    # so they end in different rounds; in 3D every search spends its 40.
    @pytest.mark.parametrize("body, j, N, max_fev", [
        pytest.param({"type": "cube", "side": 1.0, "n": 2}, 1, 4, 400, id="square-j1"),
        pytest.param({"type": "cube", "side": 1.0, "n": 2}, 2, 4, 400, id="square-j2"),
        pytest.param({"type": "polytope", "grid_size": 256,
                      "vertices": [[0, 0], [2, 0.3], [1.5, 1.7], [0.2, 1.1], [-0.4, 0.5]]},
                     2, 4, 400, id="pentagon-j2"),
        pytest.param({"type": "cube", "side": 1.0, "n": 3, "grid_size": 512}, 2, 4, 40,
                     id="cube-j2"),
    ])
    def test_lockstep_is_one_restart_at_a_time(self, body, j, N, max_fev):
        prob = ex.CircumscriptionProblem(build_body(body), j=j, N=N)
        res = ex.minimize_mjN(prob, restarts=8, seed=5, max_fev=max_fev)
        trace, best_restart, nfevs = self.one_restart_at_a_time(prob, 8, 5, max_fev)
        assert res.trace.tolist() == trace
        assert res.value == trace[best_restart]
        assert res.best_restart == best_restart
        assert res.evaluations == sum(nfevs)
        assert (len(set(nfevs)) > 1) == (prob.K.dimension == 2)

    @pytest.mark.parametrize("restarts, max_fev, name", [
        (0, 400, "restarts"), (-1, 400, "restarts"), (4, 0, "max_fev"), (4, -3, "max_fev")])
    def test_budgets_below_one_are_rejected(self, restarts, max_fev, name):
        K = build_body({"type": "cube", "side": 1.0, "n": 2})
        prob = ex.CircumscriptionProblem(K, j=2, N=4)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            ex.minimize_mjN(prob, restarts=restarts, max_fev=max_fev)
        if name == "restarts":
            with pytest.raises(ValueError, match="^restarts must be >= 1"):
                ex.schneider_check(prob, restarts=restarts)


class TestGorbovickis:
    @pytest.mark.parametrize("points, samples", [
        ([[0.0, 0.0], [1.0, 0.0]], 100),  # planar volumes are exact
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 0),  # n >= 3 needs a sample budget
    ])
    def test_sample_budget_follows_dimension(self, points, samples):
        with pytest.raises(ValueError, match="samples|sample budget"):
            ex.gorbovickis_deficit(np.array(points), 10.0, samples=samples)

    def test_touching_disks_have_zero_volume(self):
        # Points 2R apart: the two disks meet in one point.
        with pytest.warns(UserWarning, match="asymptotics unreliable"):
            rep = ex.gorbovickis_deficit([[0.0, 0.0], [20.0, 0.0]], 10.0)
        assert rep.volume == 0.0


UNIT_SQUARE = build_density({"type": "uniform-box", "side": 1.0})
AREA_ONE_DISK = build_density({"type": "uniform-ball", "radius": 1.0 / math.sqrt(math.pi)})


class TestHullMeanWidth:
    def test_square_with_interior_points(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.2, 0.7], [1.0, 1.0], [0.0, 1.0]])
        assert ex._hull_mean_width(pts) == 4.0 / math.pi

    def test_collinear_triple_counts_the_segment_twice(self):
        pts = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 6.0]])
        assert ex._hull_mean_width(pts) == 2.0 * math.hypot(3.0, 6.0) / math.pi

    def test_repeated_point_has_width_zero(self):
        assert ex._hull_mean_width(np.array([[0.3, 0.4]] * 3)) == 0.0

    def test_point_order_does_not_matter(self):
        rng = stream(37, 0)
        pts = rng.random((9, 2))
        want = ex._hull_mean_width(pts)
        assert all(ex._hull_mean_width(rng.permutation(pts)) == want for _ in range(20))

    @pytest.mark.parametrize("N", [2, 3, 9])
    def test_matches_a_fine_direction_grid(self, N):
        grid = DirectionGrid.uniform_2d(4096)
        for k in range(20):
            pts = stream(38, N, k).random((N, 2))
            want = SupportBody.polytope(pts, grid).mean_width()
            assert ex._hull_mean_width(pts) == pytest.approx(want, rel=1e-6)


class TestHullBridge:
    @pytest.mark.parametrize("R", [0.0, -1.0, math.inf])
    def test_radius_must_be_positive_and_finite(self, R):
        with pytest.raises(ValueError, match="R must be positive"):
            ex.hull_dominance_bridge(None, None, 3, 100, R)

    def test_each_trial_is_the_hull_width_and_the_gorbovickis_deficit(self):
        # Trial t of density i draws from stream(seed, t, i); the deficit
        # side is gorbovickis_deficit's width functional, doubled.
        N, trials, R, seed = 3, 100, 10.0, 4
        densities = {"a": UNIT_SQUARE, "b": build_density({"type": "uniform-ball", "radius": 0.5})}
        rep = ex.hull_dominance_bridge(densities["a"], densities["b"], N, trials, R, seed)
        for i, (label, dens) in enumerate(densities.items()):
            samples = [dens.sample(stream(seed, t, i), N) for t in range(trials)]
            direct = np.mean([ex._hull_mean_width(pts) for pts in samples])
            deficit = np.mean([2 * ex.gorbovickis_deficit(pts, R).width_functional
                               for pts in samples])
            assert float(direct).hex() == rep.direct_mean[label].hex()
            assert float(deficit).hex() == rep.deficit_mean[label].hex()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_direct_means_match_the_exact_mean_widths(self, seed):
        # Exact E w of the hull of three uniform points (a Gauss-Legendre
        # quadrature of E max_i <X_i, theta> over the directions).
        rep = ex.hull_dominance_bridge(UNIT_SQUARE, AREA_ONE_DISK, 3, 4000, 10.0, seed)
        for label, exact in (("a", 0.49790551), ("b", 0.48780251)):
            z = (rep.direct_mean[label] - exact) / rep.direct_stderr[label]
            assert abs(z) < 4.0, (label, z)

    @pytest.mark.parametrize("k", range(4))
    def test_planar_second_term_falls_as_one_over_R(self, k):
        # V_2(intersection of B(X_i, R)) = pi R^2 - R per(conv) + V_2(conv)
        # + O(1/R): the remainder shrinks by about 4 from R to 4R.
        pts = stream(39, k).random((9, 2))
        perimeter, area = math.pi * ex._hull_mean_width(pts), ConvexHull(pts).volume

        def remainder(R):
            vol = exact2d.disk_region(pts, np.full(len(pts), R)).area
            return vol - math.pi * R**2 + R * perimeter - area

        assert 0.2 < remainder(40.0) / remainder(10.0) < 0.3
