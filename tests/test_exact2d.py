"""Exact circular-arc oracle: closed forms, MC cross-checks, edge cases."""

import math

import numpy as np
import pytest

import ballpoly.exact2d as e2
from ballpoly.config import build_body
from ballpoly.errors import DegenerateTangency, EmptyIntersection
from ballpoly.geometry import BallPolyhedron, _support_function
from ballpoly.intrinsic import mc_volume
from ballpoly.rng import stream
from ballpoly.wulff import ballpoly_approx

LENS_AREA = 2 * math.pi / 3 - math.sqrt(3) / 2  # two unit disks, centers 1 apart
LENS_PERIM = 4 * math.pi / 3


def lens_area_closed_form(d, R):
    return 2 * R * R * math.acos(d / (2 * R)) - (d / 2) * math.sqrt(4 * R * R - d * d)


class TestClosedForms:
    def test_single_disk(self):
        reg = e2.disk_region(np.array([[0.0, 0.0]]), np.array([1.0]))
        area, perim = reg.area, reg.perimeter
        assert area == pytest.approx(math.pi, abs=1e-14)
        assert perim == pytest.approx(2 * math.pi, abs=1e-14)

    def test_lens(self):
        reg = e2.disk_region(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.ones(2))
        area, perim = reg.area, reg.perimeter
        assert area == pytest.approx(LENS_AREA, abs=1e-12)
        assert perim == pytest.approx(LENS_PERIM, abs=1e-12)

    def test_lens_general_parameters(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            R = rng.uniform(0.5, 3.0)
            d = rng.uniform(0.05, 1.9) * R
            area = e2.disk_region(np.array([[d / 2, 0.0], [-d / 2, 0.0]]), np.full(2, R)).area
            assert area == pytest.approx(lens_area_closed_form(d, R), rel=1e-12)

    def test_lens_profile_monotone_in_separation(self):
        # Along the line of centers the two-disk area decreases with
        # separation, hence is quasi-concave there.
        seps = np.linspace(0.0, 1.9, 25)
        areas = []
        for d in seps:
            reg = e2.disk_region(np.array([[d / 2, 0.0], [-d / 2, 0.0]]),
                                 np.array([1.0, 1.0]))
            areas.append(reg.area)
        assert all(areas[i + 1] <= areas[i] + 1e-12 for i in range(len(areas) - 1))

    def test_monotonicity_under_subset(self):
        # Dropping balls enlarges the body, so V_1 = perimeter / 2 and
        # V_2 = area grow.
        rng = np.random.default_rng(16)
        for _ in range(25):
            C = rng.normal(0, 0.3, (4, 2))
            R = rng.uniform(0.9, 1.4, 4)
            p, q = e2.disk_region(C, R), e2.disk_region(C[:2], R[:2])
            area_p, perim_p = p.area, p.perimeter
            area_q, perim_q = q.area, q.perimeter
            assert perim_p / 2.0 <= perim_q / 2.0 + 1e-12
            assert area_p <= area_q + 1e-12

    def test_disjoint(self):
        reg = e2.disk_region(np.array([[1.5, 0.0], [-1.5, 0.0]]), np.ones(2))
        assert (reg.area, reg.perimeter) == (0.0, 0.0)

    def test_nested_disks(self):
        reg = e2.disk_region(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([0.5, 5.0]))
        area, perim = reg.area, reg.perimeter
        assert area == pytest.approx(math.pi * 0.25, abs=1e-14)
        assert perim == pytest.approx(math.pi, abs=1e-14)

    def test_empty_three_disks_pairwise_meeting(self):
        # Pairwise intersecting but commonly empty.
        c = 1.1
        P = BallPolyhedron.from_arrays(
            [[c, 0.0], [-c / 2, c * math.sqrt(3) / 2], [-c / 2, -c * math.sqrt(3) / 2]], 1.0
        )
        assert not P.certainly_empty()
        reg = e2.disk_region(P.centers, P.radii)
        assert (reg.area, reg.perimeter) == (0.0, 0.0)

    @pytest.mark.parametrize("centers, radii, match", [
        (np.zeros((2, 3)), np.ones(2), "2D only"),
        ([[0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0], "2D only"),
        ([[0.0, 0.0], [math.nan, 0.0]], [1.0, 1.0], "centres must be finite"),
        ([[0.0, math.inf], [0.0, 0.0]], [1.0, 1.0], "centres must be finite"),
        (np.zeros((0, 2)), np.zeros(0), "at least one disk"),
        (np.zeros((2, 2)), np.ones(3), "one radius per centre"),
        ([[0.0, 0.0], [0.5, 0.0]], [1.0, 0.0], "radii must be positive"),
        ([[0.0, 0.0], [0.5, 0.0]], [1.0, -1.0], "radii must be positive"),
        ([[0.0, 0.0], [0.5, 0.0]], [1.0, math.nan], "radii must be positive"),
        ([[0.0, 0.0], [0.5, 0.0]], [math.inf, 1.0], "radii must be positive"),
    ], ids=["3d-centres", "ragged-centres", "nan-centre", "infinite-centre", "no-disks",
            "radii-count", "zero-radius", "negative-radius", "nan-radius", "infinite-radius"])
    def test_non_planar_centres_are_rejected(self, centers, radii, match):
        with pytest.raises(ValueError, match=match):
            e2.disk_region(centers, radii)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        C = rng.normal(0, 0.4, (4, 2))
        R = rng.uniform(0.8, 1.5, 4)
        reg = e2.disk_region(C, R)
        a0, p0 = reg.area, reg.perimeter
        t = 0.83
        Q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        reg = e2.disk_region(C @ Q.T, R)
        a1, p1 = reg.area, reg.perimeter
        assert a1 == pytest.approx(a0, rel=1e-12)
        assert p1 == pytest.approx(p0, rel=1e-12)


class TestTangency:
    """Touching circles need no special case: touching disks meet in one
    point, an empty region, and a disk touching another from inside is
    nested in it."""

    def test_touching_disks_are_empty(self):
        for R in (1.0, 0.3, 7.0):
            reg = e2.disk_region(np.array([[0.0, 0.0], [2.0 * R, 0.0]]), np.full(2, R))
            assert reg.empty
            assert (reg.area, reg.perimeter) == (0.0, 0.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-13, 1e-15, 1e-16])
    def test_lens_near_tangency(self, eps):
        # R is a power of two, so x = d / 2R and 1 - x are exact. The
        # closed form is written in x: 4R^2 - d^2 would cancel.
        for R in (1.0, 4.0):
            d = 2.0 * R * (1.0 - eps)
            x = d / (2 * R)
            area = 2 * R * R * (math.acos(x) - x * math.sqrt((1 - x) * (1 + x)))
            reg = e2.disk_region(np.array([[d / 2, 0.0], [-d / 2, 0.0]]), np.full(2, R))
            assert reg.area == pytest.approx(area, abs=1e-15)
            assert reg.perimeter == pytest.approx(4 * R * math.acos(x), abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-13, 1e-15, 0.0])
    def test_disk_touching_from_inside(self, eps):
        for t in (0.0, 1.1, 4.0):
            u = np.array([math.cos(t), math.sin(t)])
            reg = e2.disk_region(np.array([[0.0, 0.0], (0.5 - eps) * u]), np.array([1.0, 0.5]))
            assert reg.area == pytest.approx(math.pi / 4, abs=1e-14)
            assert reg.perimeter == pytest.approx(math.pi, abs=1e-14)


def near_tangent_bodies(count, seed):
    """(internal, gap, centers, radii, angle) for ``count`` random bodies
    at gaps 0, 1e-15 and 1e-13. Circle 1 touches circle 0 at p, in
    direction t from c_0, from inside (internal, every other body) or
    from outside, and then the two overlap by the gap. The other disks
    contain p."""
    rng = np.random.default_rng(seed)
    for b in range(count):
        internal = b % 2 == 0
        k = int(rng.integers(2, 6))
        t = rng.uniform(0.0, 2 * math.pi)
        u = np.array([math.cos(t), math.sin(t)])
        p = rng.normal(0.0, 1.0, 2)
        r = rng.uniform(0.6, 1.5, k)
        if internal:
            r[1] = rng.uniform(0.2, 0.9) * r[0]
        c = np.empty((k, 2))
        c[0] = p - r[0] * u
        for i in range(2, k):
            a = rng.uniform(0.0, 2 * math.pi)
            c[i] = p + rng.uniform(0.0, 1.0) * r[i] * np.array([math.cos(a), math.sin(a)])
        for gap in (0.0, 1e-15, 1e-13):
            c[1] = c[0] + (r[0] - r[1] + gap if internal else r[0] + r[1] - gap) * u
            yield internal, gap, c.copy(), r, t


class TestNearTangentCorpus:
    def test_support_matches_candidate_oracle(self):
        # The candidate support function decides feasibility with its own
        # slack, so it needs no tangency case either. A pair touching from
        # outside at gap 0 is a point, which either oracle may call empty.
        compared = {True: 0, False: 0}
        for internal, gap, C, R, t in near_tangent_bodies(150, 11):
            reg = e2.disk_region(C, R)
            P = BallPolyhedron.from_arrays(C, R)
            dirs = np.array([[math.cos(t + m * math.pi / 3), math.sin(t + m * math.pi / 3)]
                             for m in range(6)])
            try:
                want = [_support_function(P, v) for v in dirs]
            except EmptyIntersection:
                want = None
            if reg.empty or want is None:
                assert reg.empty == (want is None) or gap == 0.0 and not internal
                continue
            tol = 1e-13 if internal else 1e-7
            assert np.max(np.abs(e2.support_from_region(reg, dirs) - want)) <= tol
            compared[internal] += 1
        assert min(compared.values()) >= 100, compared


def vertex_enumeration(centers, radii):
    """(empty, area, perimeter) of an intersection of disks by vertex
    enumeration, an algorithm independent of ``disk_region``: the
    pairwise circle intersections that lie in every disk split their
    circles into arcs, and an arc is kept when its midpoint lies in
    every other disk. It counts a repeated disk twice. Near tangency its
    fixed slacks (1e-9 in feasibility, 1e-12 in angle) decide which
    vertices count, so it raises there, and the near-tangent tests check
    ``disk_region`` against the candidate support function instead."""
    n = len(radii)
    cx, cy, rr = centers[:, 0].tolist(), centers[:, 1].tolist(), radii.tolist()
    tang, feas = 1e-12 * max(rr), 1e-9 * max(rr)
    two_pi = 2.0 * math.pi

    def feasible(qx, qy, skip=None):
        for k in range(n):
            dx, dy, rk = qx - cx[k], qy - cy[k], rr[k] + feas
            if dx * dx + dy * dy > rk * rk and k != skip:
                return False
        return True

    px, py, owners = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = cx[j] - cx[i], cy[j] - cy[i]
            d = math.hypot(dx, dy)
            if d <= tang:
                continue
            sep, nest = d - (rr[i] + rr[j]), abs(rr[i] - rr[j]) - d
            if abs(sep) <= tang or abs(nest) <= tang:
                raise DegenerateTangency(f"circles {i} and {j}")
            if sep > 0 or nest > 0:
                continue
            a = (d * d + rr[i] ** 2 - rr[j] ** 2) / (2.0 * d)
            h = math.sqrt(max(rr[i] ** 2 - a * a, 0.0))
            ux, uy = dx / d, dy / d
            mx, my = cx[i] + a * ux, cy[i] + a * uy
            for sgn in (1.0, -1.0):
                qx, qy = mx - sgn * h * uy, my + sgn * h * ux
                if feasible(qx, qy):
                    px.append(qx)
                    py.append(qy)
                    owners.append((i, j))

    if not px:
        for i in range(n):
            if all(math.hypot(cx[i] - cx[k], cy[i] - cy[k]) + rr[i] <= rr[k] + feas
                   for k in range(n)):
                return False, math.pi * rr[i] ** 2, two_pi * rr[i]
        return True, 0.0, 0.0

    area = perimeter = 0.0
    kept = False
    for i in {k for pair in owners for k in pair}:
        ang = sorted(math.atan2(py[t] - cy[i], px[t] - cx[i]) % two_pi
                     for t in range(len(px)) if i in owners[t])
        merged = [ang[0]]
        for a in ang[1:]:
            if a - merged[-1] > 1e-12:
                merged.append(a)
        if len(merged) > 1 and two_pi - (merged[-1] - merged[0]) <= 1e-12:
            merged.pop()
        m, r = len(merged), rr[i]
        for t in range(m):
            a0 = merged[t]
            da = two_pi if m == 1 else (merged[(t + 1) % m] - a0) % two_pi
            mid = a0 + da / 2.0
            if da > 1e-12 and feasible(cx[i] + r * math.cos(mid), cy[i] + r * math.sin(mid), i):
                a1 = a0 + da
                area += 0.5 * (r * r * da + r * cx[i] * (math.sin(a1) - math.sin(a0))
                               - r * cy[i] * (math.cos(a1) - math.cos(a0)))
                perimeter += r * da
                kept = True
    if not kept:
        return True, 0.0, 0.0
    return False, max(area, 0.0), perimeter


def assert_matches_reference(C, R):
    reg = e2.disk_region(C, R)
    empty, area, perim = vertex_enumeration(C, R)
    assert reg.empty == empty
    assert reg.area == pytest.approx(area, abs=1e-12)
    assert reg.perimeter == pytest.approx(perim, abs=1e-12)
    return reg


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


class TestReference:
    def test_random_configurations(self):
        rng = np.random.default_rng(7)
        counts = {"empty": 0, "whole": 0, "arcs": 0}
        for t in range(2000):
            k = int(rng.integers(2, 41))
            C = rng.normal(0.0, rng.choice([0.2, 0.5, 1.0]), (k, 2)) + rng.normal(0.0, 3.0, 2)
            R = np.full(k, rng.uniform(0.5, 2.0)) if t % 2 else rng.uniform(0.3, 2.0, k)
            reg = assert_matches_reference(C, R)
            # The same disks as lists of floats, as a planar trial passes
            # them, give the same bits.
            listed = e2.disk_region(C.tolist(), R.tolist())
            assert (listed.empty, listed.area, listed.perimeter) == (
                reg.empty, reg.area, reg.perimeter)
            assert listed.arcs.tolist() == reg.arcs.tolist()
            whole = not reg.empty and reg.arcs[0, 4] == e2.TWO_PI
            counts["empty" if reg.empty else "whole" if whole else "arcs"] += 1
        # Every branch of the decomposition is exercised.
        assert min(counts.values()) >= 20, counts

    def test_three_circles_through_one_point(self):
        # The middle circle passes through the lens vertex at the origin
        # and touches the region only there.
        for t in (0.0, 0.4, 2.9):
            C = np.array([[math.cos(a), math.sin(a)] for a in (0.0, math.pi / 6, math.pi / 3)])
            C = C @ rotation(t).T + np.array([0.3, -1.7])
            reg = assert_matches_reference(C, np.ones(3))
            assert reg.area == pytest.approx(LENS_AREA, abs=1e-12)
            assert reg.perimeter == pytest.approx(LENS_PERIM, abs=1e-12)

    def test_nested_pair_with_small_gap(self):
        # The small disk lies inside the large one with a relative gap of
        # 1e-10, outside the tangency window.
        C = np.array([[0.0, 0.0], [0.5 - 1e-10, 0.0]])
        reg = assert_matches_reference(C, np.array([0.5, 1.0]))
        assert reg.area == pytest.approx(math.pi / 4, abs=1e-14)
        assert reg.perimeter == pytest.approx(math.pi, abs=1e-14)
        # A third disk cutting both circles near the gap.
        assert_matches_reference(np.vstack([C, [[1.2, 0.1]]]), np.array([0.5, 1.0, 0.9]))

    def test_coincident_disks_count_once(self):
        lens = np.array([[0.0, 0.0], [1.0, 0.0]])
        for C in ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                  [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [1.0, 0.0], [1e-13, 0.0], [1.0, 1e-13]],
                  [[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3):
            reg = e2.disk_region(np.array(C), np.ones(len(C)))
            assert reg.area == pytest.approx(LENS_AREA, abs=1e-12)
            assert reg.perimeter == pytest.approx(LENS_PERIM, abs=1e-12)
            assert len(reg.arcs) == 2
        assert e2.disk_region(lens, np.ones(2)).area == pytest.approx(LENS_AREA, abs=1e-12)
        whole = e2.disk_region(np.zeros((3, 2)), np.full(3, 2.0))
        assert whole.area == pytest.approx(4 * math.pi, abs=1e-14)
        assert whole.perimeter == pytest.approx(4 * math.pi, abs=1e-14)

    @staticmethod
    def assert_support_matches_candidates(C, R):
        reg = e2.disk_region(np.array(C), np.array(R))
        P = BallPolyhedron.from_arrays(C, R)
        a = 2.0 * np.pi * np.arange(64) / 64
        dirs = np.column_stack([np.cos(a), np.sin(a)])
        got = e2.support_from_region(reg, dirs)
        assert np.allclose(got, [_support_function(P, t) for t in dirs], rtol=0, atol=1e-12)
        return reg

    def test_later_disk_lies_inside_a_stopped_circle(self):
        # A circle that stopped short is compared again on a later
        # circle's turn, whose disk lies inside the stopped one's and so
        # keeps all of its circle.
        self.assert_support_matches_candidates(
            [[-0.7, 1.2], [0.2, 0.3], [-0.8, 0.7], [0.7, 0.6], [-0.15, 0.7]],
            [0.4, 2.4, 1.3, 1.6, 0.65])

    def test_visiting_circle_encloses_a_later_disk(self):
        # Disk (0.5, 0) of radius 0.2 touches the first circle visited
        # from inside, at (0.7, 0), so that circle stops with nothing
        # left: the region is the small disk.
        reg = self.assert_support_matches_candidates(
            [[0.3, 0.0], [0.5, 0.0], [0.7, 0.0]], [0.4, 0.2, 2.9])
        assert reg.area == pytest.approx(0.04 * math.pi, abs=1e-15)
        assert reg.perimeter == pytest.approx(0.4 * math.pi, abs=1e-15)

    @pytest.mark.parametrize("spec, area, perimeter", [
        ({"type": "cube", "side": 1.0}, 0.9800757888763321, 3.884533346151736),
        ({"type": "ball", "radius": 1.0}, 3.1416100987165456, 6.283218016771787),
    ])
    def test_tangent_ball_grid_pinned(self, spec, area, perimeter):
        # 720 tangent balls of radius 8 around a square and around a
        # disk, where every circle is on the boundary; the values were
        # computed by the earlier vertex-enumeration implementation.
        P = ballpoly_approx(build_body({**spec, "grid_size": 720}), 8.0)
        reg = e2.disk_region(P.centers, P.radii)
        assert reg.area == pytest.approx(area, rel=1e-12)
        assert reg.perimeter == pytest.approx(perimeter, rel=1e-12)


class TestMonteCarloCrossCheck:
    def test_random_configurations(self):
        rng = np.random.default_rng(4)
        for i in range(15):
            k = int(rng.integers(2, 7))
            C = rng.normal(0, 0.4, (k, 2))
            R = rng.uniform(0.7, 1.6, k)
            P = BallPolyhedron.from_arrays(C, R)
            area = e2.disk_region(C, R).area
            est, se = mc_volume(P, 100_000, seed=100 + i)
            assert abs(est - area) <= 4 * se + 1e-12


class TestSupportAndDistance:
    def test_support_matches_ball(self):
        reg = e2.disk_region(np.array([[1.0, 0.0]]), np.array([2.0]))
        dirs = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(e2.support_from_region(reg, dirs), [2.0, 3.0, 1.0])

    def test_support_lens_vertical(self):
        reg = e2.disk_region(np.array([[0.5, 0.0], [-0.5, 0.0]]), np.array([1.0, 1.0]))
        h = e2.support_from_region(reg, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert h[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert h[1] == pytest.approx(0.5, abs=1e-12)

    def test_support_dominates_samples(self):
        rng = np.random.default_rng(9)
        C = rng.normal(0, 0.4, (4, 2))
        R = rng.uniform(0.8, 1.5, 4)
        reg = e2.disk_region(C, R)
        if reg.empty:
            pytest.skip("empty draw")
        P = BallPolyhedron.from_arrays(C, R)
        i = P.smallest
        pts = P.centers[i] + P.radii[i] * stream(1).uniform(-1, 1, (4000, 2))
        pts = pts[P.contains(pts)]
        dirs = stream(2).normal(size=(40, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        h = e2.support_from_region(reg, dirs)
        inner = pts @ dirs.T
        assert np.all(inner.max(axis=0) <= h + 1e-9)

    def test_eccentric_small_disk_support(self):
        # Region equals the small off-center disk; support must follow it.
        reg = e2.disk_region(np.array([[3.0, 0.0], [3.1, 0.0]]), np.array([0.4, 4.0]))
        assert reg.area == pytest.approx(math.pi * 0.16, abs=1e-12)
        h = e2.support_from_region(reg, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert h[0] == pytest.approx(3.4)
        assert h[1] == pytest.approx(-2.6)
