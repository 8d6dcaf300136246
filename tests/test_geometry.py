import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvequant.geometry import (
    Arc,
    DegenerateCellError,
    Point2,
    Segment,
    UniformCurveMeasure,
    _eval_array,
    _pieces,
    _project_array,
    conditional_mean,
    curve_eval,
    curve_length,
    distortion,
    project_to_curve,
    sq_dist,
    voronoi_breakpoints,
    voronoi_masses,
)

SEG01 = Segment(Point2(0, 0), Point2(1, 0))
SEG11 = Segment(Point2(-1, 0), Point2(1, 0))
HALF_ARC = Arc(Point2(0, 0), 1.0, 0.0, math.pi)
M01 = UniformCurveMeasure((SEG01,))
M11 = UniformCurveMeasure((SEG11,))
SEMI = UniformCurveMeasure((SEG11, HALF_ARC))


def test_curve_length():
    assert curve_length(SEG01) == 1.0
    assert curve_length(HALF_ARC) == pytest.approx(math.pi, abs=0)
    assert curve_length(SEG11) == 2.0


def test_curve_eval():
    p = curve_eval(HALF_ARC, math.pi / 2)
    assert (p.x, p.y) == pytest.approx((0.0, 1.0), abs=1e-15)
    assert curve_eval(SEG01, 0.25) == Point2(0.25, 0.0)
    p = curve_eval(HALF_ARC, math.pi)
    assert (p.x, p.y) == pytest.approx((-1.0, 0.0), abs=1e-15)


def test_curve_eval_out_of_range():
    with pytest.raises(ValueError):
        curve_eval(SEG01, 1.5)
    with pytest.raises(ValueError):
        curve_eval(SEG01, -0.1)


def test_curve_validation():
    with pytest.raises(ValueError):
        Segment(Point2(1, 2), Point2(1, 2))
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), 1.0, 0.0, 7.0)
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def test_sq_dist():
    assert sq_dist(Point2(0, 0), Point2(1, 0)) == 1.0
    assert sq_dist(Point2(1, 0), Point2(0, 1)) == 2.0
    assert sq_dist(Point2(0, 0), Point2(0, 1 / 100)) == pytest.approx(1e-4, abs=0)


def test_breakpoints_midpoint():
    bks = voronoi_breakpoints(SEG01, [Point2(0, 0), Point2(1, 0)])
    assert bks == pytest.approx([0.5], abs=1e-9)


def test_breakpoints_three_sites():
    bks = voronoi_breakpoints(SEG11, [Point2(-1, 0), Point2(0, 0), Point2(1, 0)])
    assert bks == pytest.approx([0.5, 1.5], abs=1e-9)


def test_breakpoints_dominated_site_has_none():
    # offset conditional point dominated everywhere: its cell degenerates to
    # the endpoint itself, so no interior breakpoint is reported
    bks = voronoi_breakpoints(SEG01, [Point2(0, 0), Point2(0, 1 / 100)])
    assert bks == []


def test_distortion_single_site():
    assert distortion(M11, [Point2(0, 0)]) == pytest.approx(1 / 3, rel=1e-12)


def test_distortion_two_point_endpoint_set():
    sites = [Point2(0, 0), Point2(2 / 3, 0)]
    assert distortion(M01, sites) == pytest.approx(1 / 27, rel=1e-12)


def test_distortion_semicircle_three_points():
    sites = [Point2(1, 0), Point2(0, 1), Point2(-1, 0)]
    want = 2 / (2 + math.pi) * (-2 * math.sqrt(2) + 1 / 3 + math.pi)
    assert distortion(SEMI, sites) == pytest.approx(want, rel=1e-10)
    assert distortion(SEMI, sites) == pytest.approx(0.251478, abs=1e-5)


def test_distortion_empty_sites():
    with pytest.raises(ValueError):
        distortion(M01, [])


def test_masses_basic():
    assert voronoi_masses(M01, [Point2(0.5, 0)]) == pytest.approx([1.0], abs=0)
    ms = voronoi_masses(M01, [Point2(0, 0), Point2(1, 0)])
    assert ms == pytest.approx([0.5, 0.5], abs=1e-11)


def test_masses_narrow_cell():
    # site 0 owns [0.50040, 0.50059], narrower than 1/1024 of the support
    xs = [0.5005, 0.5 + 0.3 / 1024, 0.5 + 0.7 / 1024]
    left, right = 0.5 * (xs[1] + xs[0]), 0.5 * (xs[0] + xs[2])
    want = [right - left, left, 1.0 - right]
    assert voronoi_masses(M01, [Point2(x, 0) for x in xs]) == pytest.approx(want, abs=1e-12)


def test_masses_dominated_line():
    # support [0,1] with one site at the origin and the rest far away on
    # y = x + 4: all mass lands on the origin
    far = [Point2(t, t + 4) for t in (-2.0, -1.5, -1.0)]
    ms = voronoi_masses(M01, [Point2(0, 0)] + far)
    assert ms[0] == pytest.approx(1.0, abs=1e-12)
    assert ms[1:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_conditional_mean_single_cell():
    assert conditional_mean(M01, [Point2(0.5, 0)], 0) == Point2(0.5, 0.0)


def test_conditional_mean_half_cell():
    p = conditional_mean(M01, [Point2(0, 0), Point2(1, 0)], 0)
    assert (p.x, p.y) == pytest.approx((0.25, 0.0), abs=1e-11)


def test_conditional_mean_arc_vs_riemann():
    arc_m = UniformCurveMeasure((HALF_ARC,))
    sites = [Point2(1, 0), Point2(-1, 0)]
    got = conditional_mean(arc_m, sites, 0)
    # brute-force Riemann mean over the right half-arc
    s = (np.arange(10**6) + 0.5) * (math.pi / 10**6)
    pts = np.stack([np.cos(s), np.sin(s)], axis=1)
    own = (pts[:, 0] < 0).astype(int)
    sel = pts[own == 0]
    assert got.x == pytest.approx(sel[:, 0].mean(), abs=1e-6)
    assert got.y == pytest.approx(sel[:, 1].mean(), abs=1e-6)
    # and the analytic value for a quarter arc
    assert (got.x, got.y) == pytest.approx((2 / math.pi, 2 / math.pi), abs=1e-9)


def test_conditional_mean_degenerate_cell():
    with pytest.raises(DegenerateCellError):
        conditional_mean(M01, [Point2(0.5, 0), Point2(0.5, 9)], 1)


def test_project_to_curve():
    assert project_to_curve(SEG01, Point2(0.3, 5.0)) == pytest.approx(0.3, abs=1e-15)
    assert project_to_curve(SEG01, Point2(-2.0, 1.0)) == 0.0
    assert project_to_curve(HALF_ARC, Point2(0.5, 0.5)) == pytest.approx(math.pi / 4, rel=1e-12)
    # below the diameter: angular window misses, nearest endpoint wins
    assert project_to_curve(HALF_ARC, Point2(0.2, -1.0)) == 0.0


def test_project_array_matches_scalar():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-2.0, 2.0, (400, 2))
    xy[:2] = [(0.0, 0.0), (0.3, -0.2)]  # the two arc centers
    for c in (SEG01, Segment(Point2(-1, 2), Point2(3, -1)), HALF_ARC,
              Arc(Point2(0.3, -0.2), 1.5, -2.0, 1.0), Arc(Point2(0, 0), 1.0, 0.0, 2 * math.pi)):
        want = [project_to_curve(c, Point2(x, y)) for x, y in xy]
        assert _project_array(c, xy) == pytest.approx(want, abs=1e-12)


def test_measure_needs_positive_finite_length():
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 5e-324, 0.0, 5e-324),))
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 1e308, 0.0, 6.0),))


def _random_measure(rng):
    curves = []
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5:
            p0 = Point2(*rng.uniform(-2, 2, 2))
            p1 = Point2(*rng.uniform(-2, 2, 2))
            if (p0.x, p0.y) == (p1.x, p1.y):
                p1 = Point2(p0.x + 1.0, p0.y)
            curves.append(Segment(p0, p1))
        else:
            t0 = rng.uniform(-math.pi, math.pi)
            curves.append(Arc(Point2(*rng.uniform(-2, 2, 2)),
                              float(rng.uniform(0.2, 2.0)),
                              t0, t0 + float(rng.uniform(0.5, 2 * math.pi))))
    return UniformCurveMeasure(tuple(curves))


def _riemann_distortion(measure, sites, samples=10**6):
    sites_xy = np.array([(p.x, p.y) for p in sites])
    total = 0.0
    for c in measure.curves:
        length = curve_length(c)
        k = max(int(samples * length / measure.total_length), 1000)
        s = (np.arange(k) + 0.5) * (length / k)
        if isinstance(c, Segment):
            t = s / length
            pts = np.stack([c.p0.x + t * (c.p1.x - c.p0.x),
                            c.p0.y + t * (c.p1.y - c.p0.y)], axis=1)
        else:
            ang = c.theta0 + s / c.radius
            pts = np.stack([c.center.x + c.radius * np.cos(ang),
                            c.center.y + c.radius * np.sin(ang)], axis=1)
        d2 = ((pts[:, None, :] - sites_xy[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        total += d2.mean() * length
    return total * measure.density


def test_distortion_vs_riemann_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        measure = _random_measure(rng)
        sites = [Point2(*rng.uniform(-2.5, 2.5, 2)) for _ in range(rng.integers(1, 7))]
        got = distortion(measure, sites)
        want = _riemann_distortion(measure, sites)
        assert got == pytest.approx(want, rel=1e-5)


def _partition_cases():
    """(curves, sites): random supports, then arcs whose angular window starts
    below 0, crosses 2*pi, or is a full turn."""
    rng = np.random.default_rng(11)
    wrapped = (Arc(Point2(0.3, -0.2), 1.3, -2.5, 0.5),
               Arc(Point2(-0.4, 0.1), 0.8, 5.0, 8.5),
               Arc(Point2(0.0, 0.0), 1.0, -1.0, -1.0 + 2 * math.pi))
    for k in range(30):
        curves = _random_measure(rng).curves if k < 20 else wrapped
        count = rng.integers(2, 7) if k < 20 else rng.integers(6, 13)
        yield curves, [Point2(*rng.uniform(-2.5, 2.5, 2)) for _ in range(count)]


def test_breakpoints_partition_constant_owner():
    for curves, sites in _partition_cases():
        sites_xy = np.array([(p.x, p.y) for p in sites])
        for c in curves:
            cuts = [0.0] + voronoi_breakpoints(c, sites) + [curve_length(c)]
            owners = []
            for s0, s1 in zip(cuts[:-1], cuts[1:]):
                if s1 - s0 < 1e-9:
                    owners.append(None)
                    continue
                s = np.linspace(s0 + 1e-9, s1 - 1e-9, 1000)
                seen = set()
                for si in s:
                    p = curve_eval(c, float(si))
                    d2 = ((sites_xy - (p.x, p.y)) ** 2).sum(axis=1)
                    seen.add(int(np.argmin(d2)))
                assert len(seen) == 1
                owners.append(seen.pop())
            # every breakpoint is a change of owner, none spurious
            for a, b in zip(owners, owners[1:]):
                assert a is None or b is None or a != b


def _midpoint_owners(c, s, sites_xy):
    """Nearest site at each parameter from the curve points themselves;
    ties to the lower index."""
    pts = _eval_array(c, s)
    d2 = ((pts[:, None, :] - sites_xy[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def test_piece_owners_match_midpoint_oracle():
    for curves, sites in _partition_cases():
        sites_xy = np.array([(p.x, p.y) for p in sites])
        for c in curves:
            s0, s1, owner = _pieces(c, sites_xy)
            assert s0[0] == 0.0 and s1[-1] == curve_length(c)
            np.testing.assert_array_equal(owner, _midpoint_owners(c, 0.5 * (s0 + s1), sites_xy))


def test_distortion_monotone_under_insertion():
    rng = np.random.default_rng(13)
    for _ in range(20):
        measure = _random_measure(rng)
        sites = [Point2(*rng.uniform(-2, 2, 2)) for _ in range(rng.integers(1, 5))]
        extra = Point2(*rng.uniform(-2, 2, 2))
        assert distortion(measure, sites + [extra]) <= distortion(measure, sites) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6))
def test_masses_sum_to_one(raw_sites):
    sites = [Point2(x, y) for x, y in raw_sites]
    assert sum(voronoi_masses(SEMI, sites)) == pytest.approx(1.0, abs=1e-12)
