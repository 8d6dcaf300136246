import math

import pytest
from hypothesis import given, settings, strategies as st

from curvequant import closed_form as cf
from curvequant.geometry import (
    Arc,
    Point2,
    Segment,
    UniformCurveMeasure,
    curve_eval,
    distortion,
    project_to_curve,
    voronoi_cell_stats,
)

M01 = UniformCurveMeasure((Segment(Point2(0, 0), Point2(1, 0)),))
SEMI = UniformCurveMeasure((
    Segment(Point2(-1, 0), Point2(1, 0)),
    Arc(Point2(0, 0), 1.0, 0.0, math.pi),
))
SQ3 = math.sqrt(3.0)
TRI = UniformCurveMeasure((
    Segment(Point2(0, 0), Point2(1, 0)),
    Segment(Point2(1, 0), Point2(0.5, SQ3 / 2)),
    Segment(Point2(0.5, SQ3 / 2), Point2(0, 0)),
))


def xs(result):
    return [p.x for p in result.points]


class TestIntervalInterior:
    def test_two_points(self):
        r = cf.interval_interior(2, cf.IntervalScenario(0, 1, 0, 1))
        assert xs(r) == [0.0, 1.0]
        assert r.error == pytest.approx(1 / 12, abs=1e-15)

    def test_three_points(self):
        r = cf.interval_interior(3, cf.IntervalScenario(0, 1, 0, 1))
        assert xs(r) == pytest.approx([0.0, 0.5, 1.0], abs=0)
        assert r.error == pytest.approx(1 / 48, abs=1e-15)

    def test_vanishing_subinterval(self):
        errs = [cf.interval_interior(2, cf.IntervalScenario(0, 1, 0, eps)).error
                for eps in (1e-2, 1e-4, 1e-6)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-17

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            cf.interval_interior(1, cf.IntervalScenario(0, 1, 0, 1))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            cf.IntervalScenario(1, 0, 0, 1)
        with pytest.raises(ValueError):
            cf.IntervalScenario(0, 1, 0.8, 0.2)


class TestIntervalEndpoint:
    def test_left_n1(self):
        r = cf.interval_left_endpoint(1, 0, 1)
        assert xs(r) == [0.0]
        assert r.error == pytest.approx(1 / 3, abs=1e-15)

    def test_left_n2(self):
        r = cf.interval_left_endpoint(2, 0, 1)
        assert xs(r) == pytest.approx([0.0, 2 / 3], abs=0)
        assert r.error == pytest.approx(1 / 27, abs=1e-15)

    def test_left_n3(self):
        r = cf.interval_left_endpoint(3, 0, 1)
        assert xs(r) == pytest.approx([0.0, 2 / 5, 4 / 5], abs=1e-15)
        assert r.error == pytest.approx(1 / 75, abs=1e-15)

    def test_right_n1(self):
        r = cf.interval_right_endpoint(1, 0, 1)
        assert xs(r) == pytest.approx([1.0], abs=0)
        assert r.error == pytest.approx(1 / 3, abs=1e-15)

    def test_right_n2(self):
        r = cf.interval_right_endpoint(2, 0, 1)
        assert xs(r) == pytest.approx([1 / 3, 1.0], abs=1e-15)
        assert r.error == pytest.approx(1 / 27, abs=1e-15)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            cf.interval_left_endpoint(2, 1, 1)
        with pytest.raises(ValueError):
            cf.interval_right_endpoint(2, 2, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40),
           st.floats(-5, 5),
           st.floats(0.01, 10))
    def test_translation_identity(self, n, a, width):
        b = a + width
        left = cf.interval_left_endpoint(n, a, b)
        right = cf.interval_right_endpoint(n, a, b)
        shift = (b - a) / (2 * n - 1)
        assert right.error == left.error
        for p, q in zip(left.points, right.points):
            assert q.x == pytest.approx(p.x + shift, rel=1e-12, abs=1e-12)


class TestLineConstraint:
    def test_steep_line_three_points(self):
        scen = cf.LineConstraintScenario(0, 1, 1, 4)
        r = cf.line_constraint_optimal(3, scen)
        assert xs(r) == pytest.approx([(2 * i - 1) / 12 - 2 for i in (1, 2, 3)], rel=1e-15)
        for p in r.points:
            assert p.y == pytest.approx(p.x + 4, abs=1e-12)
        want = (192 * 27 + 252 * 9 - 271 * 3 - 48) / (24 * 27)
        assert r.error == pytest.approx(want, rel=1e-14)

    def test_shallow_line_three_points(self):
        scen = cf.LineConstraintScenario(0, 1, 0.25, 0.25)
        r = cf.line_constraint_optimal(3, scen)
        assert xs(r) == pytest.approx([-(-16 * i + 3 + 8) / (17 * 3) for i in (1, 2, 3)], rel=1e-14)
        want = (3 * 27 + 18 * 9 - 10 * 3 - 12) / (51 * 27)
        assert r.error == pytest.approx(want, rel=1e-14)

    def test_degenerate_line_is_plain_two_means(self):
        r = cf.line_constraint_optimal(2, cf.LineConstraintScenario(0, 1, 0, 0))
        assert [(p.x, p.y) for p in r.points] == [(0.25, 0.0), (0.75, 0.0)]
        assert r.error == pytest.approx(1 / 48, abs=1e-15)

    def test_published_error_exact_for_small_n(self):
        # the printed two- and three-point expressions equal the true
        # distortion; so does the general polynomial whenever m = 0
        scen = cf.LineConstraintScenario(0, 1, 1, 4)
        for n in (1, 2, 3):
            r = cf.line_constraint_optimal(n, scen)
            assert r.error == pytest.approx(cf.line_constraint_exact_error(n, scen), rel=1e-13)
        flat = cf.LineConstraintScenario(-1, 2, 0, 0.5)
        for n in range(1, 12):
            r = cf.line_constraint_optimal(n, flat)
            assert r.error == pytest.approx(cf.line_constraint_exact_error(n, flat), rel=1e-13)

    def test_published_polynomial_detaches_for_larger_n(self):
        # the published general-n value sinks below the distance-to-line
        # floor once n >= 4 on a sloped line; the exact form does not
        scen = cf.LineConstraintScenario(0, 1, 1, 4)
        floor = cf._line_floor(scen)
        assert cf.line_constraint_optimal(5, scen).error < floor
        assert cf.line_constraint_exact_error(5, scen) > floor

    def test_exact_error_matches_quadrature(self):
        scen = cf.LineConstraintScenario(0, 1, 1, 4)
        for n in range(1, 11):
            r = cf.line_constraint_optimal(n, scen)
            q = distortion(M01, r.points)
            assert cf.line_constraint_exact_error(n, scen) == pytest.approx(q, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="need a < b"):
            cf.LineConstraintScenario(1, 0, 1, 0)
        with pytest.raises(ValueError, match="need n >= 1"):
            cf.line_constraint_exact_error(0, cf.LineConstraintScenario(0, 1, 1, 4))


class TestSemicircle:
    def test_printed_error_table(self):
        assert cf.semicircle_error(3, 2) == pytest.approx(0.476477, abs=1e-5)
        assert cf.semicircle_error(2, 3) == pytest.approx(0.251478, abs=1e-5)
        assert cf.semicircle_error(3, 3) == pytest.approx(0.154232, abs=1e-5)
        assert cf.semicircle_error(4, 2) == pytest.approx(0.458469, abs=1e-5)
        assert cf.semicircle_error(2, 4) == pytest.approx(0.184739, abs=1e-5)

    def test_exact_three_and_four_point_values(self):
        v3 = 2 / (2 + math.pi) * (-2 * math.sqrt(2) + 1 / 3 + math.pi)
        v4 = (-24 * math.sqrt(2) + 12 * math.pi + 1) / (12 + 6 * math.pi)
        assert cf.semicircle_error(2, 3) == pytest.approx(v3, abs=1e-12)
        assert cf.semicircle_error(3, 3) == pytest.approx(v4, abs=1e-12)

    def test_small_count_ordering(self):
        assert cf.semicircle_error(2, 3) < cf.semicircle_error(3, 2)
        assert cf.semicircle_error(3, 3) < min(cf.semicircle_error(4, 2),
                                               cf.semicircle_error(2, 4))

    def test_counts_below_two_rejected(self):
        with pytest.raises(ValueError):
            cf.semicircle_error(1, 3)
        with pytest.raises(ValueError):
            cf.semicircle_error(3, 1)

    @pytest.mark.parametrize("n1, n2, want", [
        # 40-digit mpmath values of the published expression
        # (2 / (3 (2 + pi))) (1/(n1-1)^2 + 3 pi - 6k sin(pi/(2k))), k = n2 - 1,
        # at the splits semicircle_allocate picks for n = 162, 653, 3271
        (64, 100, 8.3942281441205731689e-5),
        (255, 400, 5.1663939503691739535e-6),
        (1273, 2000, 2.0589844171986395025e-7),
    ])
    def test_error_keeps_full_precision_for_long_arcs(self, n1, n2, want):
        assert cf.semicircle_error(n1, n2) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_conditional_three_points(self):
        r = cf.semicircle_conditional(3, 2)
        assert set((round(p.x, 12), round(p.y, 12)) for p in r.points) == {
            (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
        v3 = 2 / (2 + math.pi) * (-2 * math.sqrt(2) + 1 / 3 + math.pi)
        assert r.error == pytest.approx(v3, abs=1e-12)

    def test_conditional_four_points(self):
        r = cf.semicircle_conditional(4, 3)
        assert set((round(p.x, 12), round(p.y, 12)) for p in r.points) == {
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
        v4 = (-24 * math.sqrt(2) + 12 * math.pi + 1) / (12 + 6 * math.pi)
        assert r.error == pytest.approx(v4, abs=1e-12)

    def test_conditional_arc_pattern(self):
        # five points with three on the diameter: two interior arc points
        # at the 60/120 degree marks
        r = cf.semicircle_conditional(5, 3)
        arc_pts = [c for p in r.points if p.y > 0 for c in (p.x, p.y)]
        assert sorted(arc_pts) == pytest.approx(sorted([-0.5, SQ3 / 2, 0.5, SQ3 / 2]), abs=1e-12)
        # with six points the interior arc points sit at 45/90/135 degrees
        r = cf.semicircle_conditional(6, 3)
        arc_pts = [c for p in r.points if p.y > 0 for c in (p.x, p.y)]
        inv = 1 / math.sqrt(2)
        assert sorted(arc_pts) == pytest.approx(sorted([-inv, inv, 0.0, 1.0, inv, inv]), abs=1e-12)

    def test_conditional_cardinality_and_symmetry(self):
        for n in range(3, 13):
            for n1 in range(2, n + 1):
                r = cf.semicircle_conditional(n, n1)
                pts = {(round(p.x, 9), round(p.y, 9)) for p in r.points}
                assert len(r.points) == n
                assert len(pts) == n
                mirrored = {(round(-x, 9) + 0.0, y) for x, y in pts}
                assert mirrored == pts

    def test_conditional_bad_split(self):
        with pytest.raises(ValueError):
            cf.semicircle_conditional(5, 1)
        with pytest.raises(ValueError):
            cf.semicircle_conditional(5, 6)
        with pytest.raises(ValueError, match="need n >= 3"):
            cf.semicircle_conditional(2, 2)


class TestTriangle:
    def test_error_values(self):
        assert cf.triangle_error(2, 2, 2) == pytest.approx(1 / 12, abs=1e-15)
        assert cf.triangle_error(3, 2, 2) == pytest.approx(1 / 16, abs=1e-15)
        assert cf.triangle_error(3, 3, 2) == pytest.approx(1 / 24, abs=1e-15)
        with pytest.raises(ValueError):
            cf.triangle_error(1, 2, 2)

    def test_four_points(self):
        r = cf.triangle_conditional(4)
        assert r.allocation == (3, 2, 2)
        assert {(round(p.x, 12), round(p.y, 12)) for p in r.points} == {
            (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, round(SQ3 / 2, 12))}
        assert r.error == pytest.approx(1 / 16, abs=1e-15)

    def test_five_points(self):
        r = cf.triangle_conditional(5)
        assert r.allocation == (3, 3, 2)
        assert r.error == pytest.approx(1 / 24, abs=1e-15)
        # the extra point is the midpoint of the second side
        assert any((p.x, p.y) == pytest.approx((0.75, SQ3 / 4), rel=1e-12) for p in r.points)

    def test_six_points(self):
        r = cf.triangle_conditional(6)
        assert r.allocation == (3, 3, 3)
        assert r.error == pytest.approx(1 / 48, abs=1e-15)

    def test_balanced_splits(self):
        # n = 3k, k points per side: the error 1 / (12 k^2)
        for k in range(2, 30):
            assert cf.triangle_conditional(3 * k).error == pytest.approx(
                1.0 / (12.0 * k ** 2), rel=1e-14)

    def test_cardinality(self):
        for n in range(3, 40):
            r = cf.triangle_conditional(n)
            assert len(r.points) == n
            assert len({(round(p.x, 9), round(p.y, 9)) for p in r.points}) == n

    def test_points_on_boundary(self):
        r = cf.triangle_conditional(17)
        assert distortion(TRI, r.points) == pytest.approx(r.error, rel=1e-10)



class TestTriangleSliver:
    V4 = (101 - 17 * math.sqrt(34)) / 30

    @staticmethod
    def with_extra(h):
        return [Point2(0, 0), Point2(1 - h, 0), Point2(1, 0), Point2(0.5, SQ3 / 2)]

    def test_error_matches_quadrature(self):
        for n in (4, 5):
            r = cf.triangle_sliver(n)
            assert len(r.points) == n
            assert distortion(TRI, r.points) == pytest.approx(r.error, rel=1e-12)

    def test_exact_values(self):
        assert cf.triangle_sliver(4).error == pytest.approx(self.V4, rel=1e-15)
        assert cf.triangle_sliver(5).error == pytest.approx(self.V4 - 1 / 48, rel=1e-15)
        assert cf.triangle_sliver(5).error == pytest.approx(
            (803 - 136 * math.sqrt(34)) / 240, rel=1e-12)

    def test_offset_is_root_of_first_order_quadratic(self):
        h = cf.TRIANGLE_SLIVER_H
        assert 0 < h < 0.5
        assert 5 * h * h - 16 * h + 6 == pytest.approx(0, abs=1e-14)
        assert cf.triangle_sliver(4).points[1] == Point2(1 - h, 0)

    def test_side_points_are_projected_cell_centroids(self):
        def projected_centroid(points, i, side):
            masses, moments = voronoi_cell_stats(TRI, points)
            cell_len = masses[i] * TRI.total_length
            centroid = Point2(moments[i, 0] / cell_len, moments[i, 1] / cell_len)
            return curve_eval(side, project_to_curve(side, centroid))

        oa, _, bo = TRI.curves
        for n in (4, 5):
            points = cf.triangle_sliver(n).points
            extras = [(1, oa)] + ([(4, bo)] if n == 5 else [])
            for i, side in extras:
                got = projected_centroid(points, i, side)
                assert (got.x, got.y) == pytest.approx((points[i].x, points[i].y), abs=1e-9)
        # away from h* the condition fails, so the check above has teeth
        off = projected_centroid(self.with_extra(0.4), 1, oa)
        assert abs(off.x - 0.6) > 1e-4

    def test_scan_of_the_side_has_its_minimum_at_offset(self):
        hs = [k / 50 for k in range(1, 50)]
        values = [distortion(TRI, self.with_extra(h)) for h in hs]
        assert min(values) >= self.V4
        best = hs[values.index(min(values))]
        assert min(abs(best - cf.TRIANGLE_SLIVER_H),
                   abs(best - (1 - cf.TRIANGLE_SLIVER_H))) < 1 / 50

    def test_beats_published_equal_spacing(self):
        for n in (4, 5):
            published = cf.triangle_error(*cf.triangle_split(n))
            assert published - cf.triangle_sliver(n).error > 3.94e-5

    def test_other_n_rejected(self):
        for n in (-1, 0, 3, 6, 12):
            with pytest.raises(ValueError):
                cf.triangle_sliver(n)

class TestExam1:
    def test_point_count_and_support_line(self):
        for n in (3, 7, 10):
            r = cf.exam1_conditional(n)
            assert len(r.points) == n + 1
            assert r.points[0] == Point2(0.0, 0.0)
            for p in r.points[1:]:
                assert p.y == pytest.approx(p.x / 4 + 0.25, abs=1e-14)

    def test_limit_value(self):
        # the error field of exam1_conditional(n) is exam1_published_error(n)
        want = (29 * math.sqrt(17) + 229) / 3072
        assert cf.exam1_published_error(10**6) == pytest.approx(want, abs=1e-5)

    def test_exact_error_matches_quadrature(self):
        for n in range(3, 11):
            r = cf.exam1_conditional(n)
            q = distortion(M01, r.points)
            assert cf.exam1_exact_error(n) == pytest.approx(q, rel=1e-10)

    def test_breakpoint_decreasing_positive(self):
        ds = [cf.exam1_breakpoint(n) for n in range(3, 60)]
        assert all(d > 0 for d in ds)
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            cf.exam1_conditional(2)
        with pytest.raises(ValueError, match="need n >= 1"):
            cf.exam1_exact_error(0)


def test_oracle_equivalence_where_published_forms_are_exact():
    # closed-form error field vs independent quadrature of the same points
    for n in range(1, 31):
        r = cf.interval_left_endpoint(n, 0, 1)
        assert distortion(M01, r.points) == pytest.approx(r.error, rel=1e-8)
        r = cf.interval_right_endpoint(n, 0, 1)
        assert distortion(M01, r.points) == pytest.approx(r.error, rel=1e-8)
    for m in range(2, 31):
        r = cf.interval_interior(m, cf.IntervalScenario(0, 1, 0, 1))
        assert distortion(M01, r.points) == pytest.approx(r.error, rel=1e-8)
    flat = cf.LineConstraintScenario(0, 1, 0, 0.3)
    for n in range(1, 31):
        r = cf.line_constraint_optimal(n, flat)
        assert distortion(M01, r.points) == pytest.approx(r.error, rel=1e-8)
    for n in range(3, 31):
        r = cf.triangle_conditional(n)
        assert distortion(TRI, r.points) == pytest.approx(r.error, rel=1e-8)
    for n in range(3, 31):
        # the error formula assumes each component is served by its own
        # points, which holds at the optimal split (not at lopsided ones)
        n1 = min(range(2, n + 1), key=lambda k: cf.semicircle_error(k, n - k + 2))
        r = cf.semicircle_conditional(n, n1)
        assert distortion(SEMI, r.points) == pytest.approx(r.error, rel=1e-8)


@pytest.mark.parametrize("error_only, configuration, bad", [
    (lambda n: cf.interval_interior_error(n, cf.IntervalScenario(0, 1, 0, 1)),
     lambda n: cf.interval_interior(n, cf.IntervalScenario(0, 1, 0, 1)), (-1, 0, 1)),
    (lambda n: cf.interval_endpoint_error(n, 0.0, 1.0),
     lambda n: cf.interval_left_endpoint(n, 0.0, 1.0), (-1, 0)),
    (lambda n: cf.interval_endpoint_error(n, 0.0, 1.0),
     lambda n: cf.interval_right_endpoint(n, 0.0, 1.0), (-1, 0)),
    (lambda b: cf.interval_endpoint_error(3, 1.0, b),
     lambda b: cf.interval_left_endpoint(3, 1.0, b), (0.0, 1.0)),
    (lambda b: cf.interval_endpoint_error(3, 1.0, b),
     lambda b: cf.interval_right_endpoint(3, 1.0, b), (0.0, 1.0)),
    (lambda n: cf.line_constraint_published_error(n, cf.LineConstraintScenario(0, 1, 1, 4)),
     lambda n: cf.line_constraint_optimal(n, cf.LineConstraintScenario(0, 1, 1, 4)),
     (-1, 0)),
    (cf.exam1_published_error, cf.exam1_conditional, (-1, 0, 1, 2)),
], ids=["interval-interior", "interval-left", "interval-right", "interval-left-b",
        "interval-right-b", "line-constraint", "exam1"])
def test_error_only_functions_reject_what_configurations_reject(error_only, configuration,
                                                                bad):
    for arg in bad:
        with pytest.raises(ValueError) as want:
            configuration(arg)
        with pytest.raises(ValueError) as got:
            error_only(arg)
        assert str(got.value) == str(want.value)


def test_error_monotone_in_n():
    def best_semicircle(n):
        return min(cf.semicircle_error(n1, n - n1 + 2) for n1 in range(2, n + 1))

    for n in range(3, 100):
        assert best_semicircle(n + 1) < best_semicircle(n)
        assert cf.triangle_conditional(n + 1).error < cf.triangle_conditional(n).error
        assert cf.exam1_conditional(n + 1).error < cf.exam1_conditional(n).error
        assert cf.interval_left_endpoint(n + 1, 0, 1).error < cf.interval_left_endpoint(n, 0, 1).error
