import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvequant import closed_form, scenarios
from curvequant.allocation import semicircle_allocate
from curvequant.geometry import (
    PARAM_TOL,
    TWO_PI,
    Arc,
    DegenerateCellError,
    Point2,
    Segment,
    UniformCurveMeasure,
    _envelope,
    _frame_array,
    _pieces,
    _project_array,
    conditional_mean,
    curve_eval,
    curve_length,
    distortion,
    project_to_curve,
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


def test_frame_tangents_are_unit_derivatives():
    s_segment = np.linspace(0.0, curve_length(SEG11), 7)
    s_arc = np.linspace(0.0, curve_length(HALF_ARC), 7)
    for c, s in ((SEG11, s_segment), (Segment(Point2(0.3, -40), Point2(1.7, 40.2)), s_segment),
                 (HALF_ARC, s_arc), (Arc(Point2(0.1, 0.2), 1.3, -0.5, 2.0), s_arc)):
        _, tangents = _frame_array(c, s)
        assert (tangents * tangents).sum(axis=1) == pytest.approx(1.0, abs=1e-15)
        ahead = _frame_array(c, s + 1e-7)[0] - _frame_array(c, s - 1e-7)[0]
        assert tangents == pytest.approx(ahead / 2e-7, abs=1e-6)


def test_project_to_curve():
    assert project_to_curve(SEG01, Point2(0.3, 5.0)) == pytest.approx(0.3, abs=1e-15)
    assert project_to_curve(SEG01, Point2(-2.0, 1.0)) == 0.0
    assert project_to_curve(HALF_ARC, Point2(0.5, 0.5)) == pytest.approx(math.pi / 4, rel=1e-12)
    # below the diameter: angular window misses, nearest endpoint wins
    assert project_to_curve(HALF_ARC, Point2(0.2, -1.0)) == 0.0


def _project_scalar(c, p: Point2) -> float:
    """The scalar projection that the array one replaced, kept as the test
    oracle: the foot of the perpendicular on a segment, clamped to its
    ends; on an arc the angle about the center inside the window, else the
    nearer end, and half the length at the center."""
    length = curve_length(c)
    if isinstance(c, Segment):
        vx, vy = c.p1.x - c.p0.x, c.p1.y - c.p0.y
        t = ((p.x - c.p0.x) * vx + (p.y - c.p0.y) * vy) / (vx * vx + vy * vy)
        return min(max(t, 0.0), 1.0) * length
    dx, dy = p.x - c.center.x, p.y - c.center.y
    if dx == 0.0 and dy == 0.0:
        return 0.5 * length
    rel = (math.atan2(dy, dx) - c.theta0) % TWO_PI
    if rel <= c.theta1 - c.theta0:
        return rel * c.radius
    e0, e1 = curve_eval(c, 0.0), curve_eval(c, length)
    return 0.0 if ((p.x - e0.x) ** 2 + (p.y - e0.y) ** 2
                   <= (p.x - e1.x) ** 2 + (p.y - e1.y) ** 2) else length


def test_project_array_matches_scalar():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-2.0, 2.0, (400, 2))
    xy[:2] = [(0.0, 0.0), (0.3, -0.2)]  # the two arc centers
    for c in (SEG01, Segment(Point2(-1, 2), Point2(3, -1)), HALF_ARC,
              Arc(Point2(0.3, -0.2), 1.5, -2.0, 1.0), Arc(Point2(0, 0), 1.0, 0.0, 2 * math.pi)):
        want = [_project_scalar(c, Point2(x, y)) for x, y in xy]
        assert _project_array(c, xy) == pytest.approx(want, abs=1e-12)


def test_measure_needs_positive_finite_length():
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 5e-324, 0.0, 5e-324),))
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 1e308, 0.0, 6.0),))
    # positive, but 1 / length, the density, overflows
    with pytest.raises(ValueError, match="finite density"):
        UniformCurveMeasure((Segment(Point2(0, 0), Point2(5e-309, 0)),))


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
        # running minimum over the sites: no (k, m, 2) temporary
        d2 = np.full(k, np.inf)
        for sx, sy in sites_xy:
            d2 = np.minimum(d2, (pts[:, 0] - sx) ** 2 + (pts[:, 1] - sy) ** 2)
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


# arcs whose angular window starts below 0, crosses 2*pi, or is a full turn
WRAPPED_ARCS = (Arc(Point2(0.3, -0.2), 1.3, -2.5, 0.5),
                Arc(Point2(-0.4, 0.1), 0.8, 5.0, 8.5),
                Arc(Point2(0.0, 0.0), 1.0, -1.0, -1.0 + 2 * math.pi))


def _partition_cases():
    """(curves, sites): random supports, then the WRAPPED_ARCS."""
    rng = np.random.default_rng(11)
    for k in range(30):
        curves = _random_measure(rng).curves if k < 20 else WRAPPED_ARCS
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
    pts = _frame_array(c, s)[0]
    d2 = ((pts[:, None, :] - sites_xy[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _closed_form_sets(n):
    """(measure, sites) of the closed-form semicircle and triangle sets."""
    n1 = semicircle_allocate(n).parts[0]
    yield scenarios.semicircle_measure(), closed_form.semicircle_conditional(n, n1).points
    yield scenarios.triangle_measure(), closed_form.triangle_conditional(n).points


def _owner_cases():
    """(curves, sites): the partition cases, arcs with 100 to 300 random
    sites, and the closed-form semicircle and triangle sets at n = 400."""
    yield from _partition_cases()
    rng = np.random.default_rng(19)
    for _ in range(6):
        t0 = rng.uniform(-4.0, 4.0)
        arc = Arc(Point2(*rng.uniform(-1, 1, 2)), float(rng.uniform(0.5, 2.0)),
                  t0, t0 + float(rng.uniform(1.0, 2 * math.pi)))
        yield (arc,), [Point2(*rng.uniform(-2.5, 2.5, 2)) for _ in range(rng.integers(100, 301))]
    for measure, sites in _closed_form_sets(400):
        yield measure.curves, sites


def test_piece_owners_match_midpoint_oracle():
    for curves, sites in _owner_cases():
        sites_xy = np.array([(p.x, p.y) for p in sites])
        for c in curves:
            s0, s1, owner = _pieces(c, sites_xy)
            assert s0[0] == 0.0 and s1[-1] == curve_length(c)
            assert np.all(s0 < s1)
            np.testing.assert_array_equal(owner, _midpoint_owners(c, 0.5 * (s0 + s1), sites_xy))


def test_breakpoints_owners_keyword():
    for curves, sites in _partition_cases():
        for c in curves:
            cuts, owners = voronoi_breakpoints(c, sites, owners=True)
            assert cuts == voronoi_breakpoints(c, sites)
            assert len(owners) == len(cuts) + 1
            assert all(a != b for a, b in zip(owners, owners[1:]))


def _segment_march(c, sites_xy):
    """The segment march that the slope-sorted envelope replaced, kept as
    the test oracle. It marches the lower envelope of the lines K_i + P_i t
    from owner to owner with one O(m) vector step per piece: the next cut
    is the earliest crossing below the owner, and of the lines crossing
    within 1e-12 of it the steepest takes over, ties to the lower index.
    """
    length = curve_length(c)
    _, _, K, P, _ = _envelope(c, sites_xy)
    owner = int(np.argmin(K))
    t = 0.0
    out = []
    while True:
        dK, dP = K - K[owner], P - P[owner]
        root = np.full(len(K), np.inf)
        down = dP < 0.0
        root[down] = np.maximum(-dK[down] / dP[down], t)
        t = float(root.min())
        if t >= length - PARAM_TOL:
            return out
        owner = int(np.argmin(np.where(root <= t + PARAM_TOL, dP, np.inf)))
        if t > PARAM_TOL and not (out and t - out[-1] <= PARAM_TOL):
            out.append(t)


def _random_segment_cases():
    """(segment, sites) with m = 1..40 sites: in a third of the inputs all
    sites lie on one line, in a fifth some sites repeat."""
    rng = np.random.default_rng(17)
    for k in range(600):
        p0, p1 = rng.uniform(-2, 2, (2, 2))
        seg = SEG01 if k % 4 == 0 else Segment(Point2(*p0), Point2(*p1))
        m = k % 40 + 1
        if k % 3 == 0:
            xy = rng.uniform(-2, 2, 2) + np.outer(rng.uniform(-2, 2, m), rng.uniform(-1, 1, 2))
        else:
            xy = rng.uniform(-2.5, 2.5, (m, 2))
        if k % 5 == 0:
            xy = xy[rng.integers(0, m, m)]
        yield seg, xy


def _on_line(seg, feet, offsets=None):
    """Sites at arc lengths feet along seg's line, offset along its normal."""
    length = curve_length(seg)
    u = np.array([seg.p1.x - seg.p0.x, seg.p1.y - seg.p0.y]) / length
    offsets = np.zeros(len(feet)) if offsets is None else np.asarray(offsets)
    return ((seg.p0.x, seg.p0.y) + np.outer(feet, u)
            + np.outer(offsets, (-u[1], u[0])))


OBLIQUE = Segment(Point2(-1.5, 0.25), Point2(1.0, 2.0))
SEG02 = Segment(Point2(0, 0), Point2(2, 0))
_EXPLICIT_SEGMENT_CASES = {
    "duplicate sites": [
        (SEG01, [(0.3, 0.1), (0.3, 0.1), (0.7, -0.2), (0.7, -0.2), (0.3, 0.1)]),
        (OBLIQUE, [(0.0, 1.0)] * 4 + [(-1.0, 0.5), (0.0, 1.0), (-1.0, 0.5)]),
    ],
    "sites on the segment": [
        (SEG01, [(x, 0.0) for x in (0.0, 0.2, 0.45, 1.0, 1.3, -0.1)]),
        (OBLIQUE, _on_line(OBLIQUE, [0.0, 0.4, 1.7, 2.2, curve_length(OBLIQUE), 3.5])),
    ],
    "equal feet, different offsets": [
        (SEG01, [(0.25, 0.1), (0.25, -0.1), (0.25, 0.3), (0.6, 0.05), (0.6, -0.4), (0.6, 0.05)]),
        (OBLIQUE, _on_line(OBLIQUE, [0.5, 0.5, 0.5, 2.0, 2.0], [0.1, -0.1, 0.7, 0.3, -0.2])),
    ],
    # every site at distance 1 or 5 from (1, 0): exact crossings at t = 1
    "three lines through one crossing": [
        (SEG02, [(0, 0), (1, 1), (2, 0)]),
        (SEG02, [(2, 0), (1, -1), (0, 0), (1, 1)]),
        (SEG02, [(4, 4), (-2, 4), (1, 5), (6, 0), (-3, -3), (5, -3)]),
    ],
    # cuts 1e-13 after the start and 4e-13 before the end; site 2 is 1e-13
    # nearer to (1, 0) than sites 1 and 3, so its cell there is 2e-13 wide
    "cuts within 1e-12 of each other and of both endpoints": [
        (SEG02, [(-0.5 + 2e-13, 0.0), (0.5, 0.0), (1.0, 0.5 - 1e-13), (1.5, 0.0),
                 (2.5 - 8e-13, 0.0)]),
        (SEG02, [(1.0, 0.5 - 1e-13), (-0.5 + 2e-13, 0.0), (1.5, 0.0), (0.5, 0.0),
                 (2.5 - 8e-13, 0.0)]),
        (OBLIQUE, _on_line(OBLIQUE, [-0.5 + 2e-13, 0.5, 1.0, 1.5,
                                     2.0 * curve_length(OBLIQUE) - 1.5 - 8e-13],
                           [0.0, 0.0, 0.5 - 1e-13, 0.0, 0.0])),
    ],
    "narrow cells": [
        (SEG01, [(0.5005, 0.0), (0.5 + 0.3 / 1024, 0.0), (0.5 + 0.7 / 1024, 0.0)]),
        (SEG01, [(0.5 + w, 0.0) for w in (0.0, 3e-9, 7e-9, 2.5e-11, 0.25)]),
    ],
}


def test_segment_breakpoints_equal_march_oracle():
    for seg, xy in _random_segment_cases():
        assert voronoi_breakpoints(seg, xy) == _segment_march(seg, xy)


@pytest.mark.parametrize("kind", list(_EXPLICIT_SEGMENT_CASES))
def test_segment_breakpoints_equal_march_oracle_on(kind):
    for seg, sites in _EXPLICIT_SEGMENT_CASES[kind]:
        xy = np.array(sites, dtype=float)
        assert voronoi_breakpoints(seg, xy) == _segment_march(seg, xy)


def _arc_march(c, sites_xy):
    """The arc march that the divide-and-conquer envelope replaced, kept as
    the test oracle: (cuts, owners). It marches the lower envelope of the
    terms K_i + P_i cos t + Q_i sin t from owner to owner with one O(m)
    vector step per piece: the next cut is the earliest angle where another
    site's term crosses below the owner's, and of the sites crossing there
    the steepest takes over, ties to the lower index. The owners are the
    nearest sites at the piece midpoints, from the same terms.
    """
    length = curve_length(c)
    t0, scale, K, P, Q = _envelope(c, sites_xy)

    def nearest(t):
        return np.argmin(K + np.cos(t)[:, None] * P + np.sin(t)[:, None] * Q, axis=1)

    owner = int(nearest(np.array([t0]))[0])
    t = t0
    out = []
    while True:
        dK, dP, dQ = K - K[owner], P - P[owner], Q - Q[owner]
        # dK + r cos(t - phi) is negative on (phi + alpha, phi + 2 pi - alpha)
        r = np.hypot(dP, dQ)
        h2 = (r - dK) * (r + dK)
        sin_part = np.sqrt(np.maximum(h2, 0.0))
        alpha = np.arctan2(sin_part, -dK)
        down = (h2 > 0.0) & (alpha < math.pi - PARAM_TOL)
        ahead = np.mod(np.arctan2(dQ, dP) + alpha - t + PARAM_TOL, TWO_PI) - PARAM_TOL
        root = np.full(len(K), np.inf)
        root[down] = t + np.maximum(ahead[down], 0.0)
        t = float(root.min())
        s = (t - t0) * scale
        if s >= length - PARAM_TOL:
            break
        owner = int(np.argmin(np.where(root == t, -sin_part, np.inf)))
        if s > PARAM_TOL and not (out and s - out[-1] <= PARAM_TOL):
            out.append(s)
    bounds = np.array([0.0, *out, length])
    return out, nearest(t0 + 0.5 * (bounds[:-1] + bounds[1:]) / scale)


def _on_circle(center, radius, angles):
    return np.array([(center.x + radius * math.cos(a), center.y + radius * math.sin(a))
                     for a in angles])


def _random_arc_cases():
    """(arc, sites) with m = 1..60 random sites on random arcs, a seventh of
    them full turns, and on the wrapped windows of _partition_cases."""
    rng = np.random.default_rng(23)
    for k in range(240):
        t0 = rng.uniform(-7.0, 7.0)
        span = 2 * math.pi if k % 7 == 0 else float(rng.uniform(0.1, 2 * math.pi))
        arc = Arc(Point2(*rng.uniform(-2, 2, 2)), float(rng.uniform(0.2, 2.0)), t0, t0 + span)
        yield arc, rng.uniform(-2.5, 2.5, (k % 60 + 1, 2))
    for arc in WRAPPED_ARCS:
        for m in (1, 2, 5, 13, 40):
            yield arc, rng.uniform(-2.5, 2.5, (m, 2))


_EXPLICIT_ARC_CASES = {
    "duplicate sites": [
        (WRAPPED_ARCS[0], [(0.3, 0.1), (0.3, 0.1), (-1.0, 0.5), (1.0, -1.0), (-1.0, 0.5), (0.3, 0.1)]),
        (HALF_ARC, [(0.0, 2.0)] * 3 + [(0.5, 0.5), (0.0, 2.0), (0.5, 0.5)]),
    ],
    "sites on the arc": [
        (HALF_ARC, _on_circle(Point2(0, 0), 1.0, (0.0, 0.3, 1.0, 2.0, math.pi, 3.5, -0.4))),
        (WRAPPED_ARCS[1], _on_circle(Point2(-0.4, 0.1), 0.8, np.linspace(5.0, 8.5, 11))),
    ],
    # equal amplitudes: every pair of terms differs by a pure sinusoid
    "sites on one concentric circle": [
        (WRAPPED_ARCS[2], _on_circle(Point2(0, 0), 0.5, np.linspace(0, 2 * math.pi, 9)[:-1])),
        (HALF_ARC, _on_circle(Point2(0, 0), 1.7, (0.2, 0.9, 1.4, 2.8, 4.0))),
        (Arc(Point2(0, 0), 1.0, 0.0, 2 * math.pi),
         _on_circle(Point2(0, 0), 1.0, np.linspace(0, 2 * math.pi, 13)[:-1])),
    ],
    "near-twin sites": [
        (HALF_ARC, _on_circle(Point2(0, 0), 1.0, (0.5, 1.2, 1.2 + 1.5e-12))),
    ],
}


def _assert_equals_arc_march(arc, sites_xy):
    cuts, owners = voronoi_breakpoints(arc, sites_xy, owners=True)
    want_cuts, want_owners = _arc_march(arc, sites_xy)
    np.testing.assert_array_equal(owners, want_owners)
    # both take each cut angle from the same expression in the two sites'
    # coefficient differences, placed from different start angles, so they
    # differ by a few rounding steps of the angle
    ulp = np.spacing(max(abs(arc.theta0), abs(arc.theta1))) * arc.radius
    assert len(cuts) == len(want_cuts)
    assert np.all(np.abs(np.subtract(cuts, want_cuts)) <= 4 * ulp)


def test_arc_breakpoints_equal_march_oracle():
    for arc, xy in _random_arc_cases():
        _assert_equals_arc_march(arc, xy)


@pytest.mark.parametrize("kind", list(_EXPLICIT_ARC_CASES))
def test_arc_breakpoints_equal_march_oracle_on(kind):
    for arc, sites in _EXPLICIT_ARC_CASES[kind]:
        _assert_equals_arc_march(arc, np.array(sites, dtype=float))


def test_masses_near_twin_sites():
    # sites 1 and 2 are 1.5e-12 apart, so their lines cross site 0's within
    # 1e-12 of each other at 0.4, yet site 1 owns [0.4, 0.6 + 7.5e-13]. The
    # march oracle takes the steeper line at 0.4 and so drops that cell. The
    # cut between the twins comes from K_2 - K_1 over a slope gap of 3e-12,
    # so rounding moves it by up to about 1e-5.
    xs = [0.2, 0.6, 0.6 + 1.5e-12]
    left, right = 0.5 * (xs[0] + xs[1]), 0.5 * (xs[1] + xs[2])
    cuts = voronoi_breakpoints(SEG01, [Point2(x, 0) for x in xs])
    assert cuts == pytest.approx([left, right], abs=1e-4)
    want = [left, right - left, 1.0 - right]
    assert voronoi_masses(M01, [Point2(x, 0) for x in xs]) == pytest.approx(want, abs=1e-4)


def test_arc_masses_near_twin_sites():
    # on the upper half-circle, sites 1 and 2 are 1.5e-12 rad apart, so both
    # terms cross site 0's within 1e-12 of each other at angle 0.85, yet
    # site 1 owns [0.85, 1.2 + 7.5e-13]. Taking the steeper of the two there
    # dropped that cell. The cut between the twins comes from a difference
    # of nearly equal terms, so rounding moves it by up to about 1e-4.
    sites = [Point2(math.cos(a), math.sin(a)) for a in (0.5, 1.2, 1.2 + 1.5e-12)]
    assert voronoi_breakpoints(HALF_ARC, sites) == pytest.approx([0.85, 1.2], abs=1e-4)
    want = [0.85 / math.pi, 0.35 / math.pi, (math.pi - 1.2) / math.pi]
    masses = voronoi_masses(UniformCurveMeasure((HALF_ARC,)), sites)
    assert masses == pytest.approx(want, abs=1e-4)


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


@pytest.mark.parametrize("n", [1000, 2000])
def test_closed_form_sets_at_large_n(n):
    # the state pass at ROADMAP item 3's sizes: the exact split reproduces
    # the closed-form errors, and every cell keeps its mass
    n1 = semicircle_allocate(n).parts[0]
    errors = (closed_form.semicircle_error(n1, n - n1 + 2),
              closed_form.triangle_error(*closed_form.triangle_split(n)))
    for (measure, sites), want in zip(_closed_form_sets(n), errors):
        assert distortion(measure, sites) == pytest.approx(want, rel=1e-9)
        masses = voronoi_masses(measure, sites)
        assert len(masses) == n and min(masses) > 0.0
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)


def test_stacked_breakpoints_equal_one_set_at_a_time():
    # R site sets in one call: the lines are sorted by set before slope and
    # the sinusoid groups of every set merge together, without changing a bit
    rng = np.random.default_rng(29)
    curves = [c for curves, _ in _partition_cases() for c in curves]
    for k, c in enumerate(curves):
        m = k % 13 + 1  # powers of two and the sizes between
        stack = rng.uniform(-2.5, 2.5, (k % 5 + 1, m, 2))
        stack[0, m // 2:] = stack[0, :m - m // 2]  # duplicate sites
        together = voronoi_breakpoints(c, stack, owners=True)
        assert voronoi_breakpoints(c, stack) == [cuts for cuts, _ in together]
        assert together == [voronoi_breakpoints(c, xy, owners=True) for xy in stack]
        s0, s1, owner = _pieces(c, stack)
        for r, xy in enumerate(stack):
            mine = owner // m == r
            one = _pieces(c, xy)
            np.testing.assert_array_equal(s0[mine], one[0])
            np.testing.assert_array_equal(s1[mine], one[1])
            np.testing.assert_array_equal(owner[mine] - r * m, one[2])
