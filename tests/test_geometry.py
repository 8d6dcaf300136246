import bisect
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvequant import closed_form, geometry, scenarios
from curvequant.allocation import semicircle_allocate
from curvequant.geometry import (
    CULL_ABOVE,
    PARAM_TOL,
    TWO_PI,
    Arc,
    DegenerateCellError,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state,
    _envelope,
    _envelopes,
    _frame_array,
    _reach,
    conditional_mean,
    curve_eval,
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
    assert SEG01.length == 1.0
    assert HALF_ARC.length == pytest.approx(math.pi, abs=0)
    assert SEG11.length == 2.0


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


def test_curve_eval_accepts_the_tolerance_at_both_ends():
    # PARAM_TOL of the length past either end is on the curve, the next
    # float beyond it is not
    for c in (SEG01, HALF_ARC, Segment(Point2(-1, 2), Point2(3, -1.3)),
              Arc(Point2(0.3, -0.2), 1.5, -2.0, 1.0)):
        length = c.length
        for s, outward in ((length + PARAM_TOL * length, math.inf),
                           (-PARAM_TOL * length, -math.inf)):
            curve_eval(c, s)
            with pytest.raises(ValueError, match="outside"):
                curve_eval(c, math.nextafter(s, outward))


def test_curve_validation():
    with pytest.raises(ValueError):
        Segment(Point2(1, 2), Point2(1, 2))
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Arc(Point2(0, 0), 1.0, 0.0, 7.0)
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


def _cuts(c, sites):
    """The breakpoints of one site set along c, a list: the ends of its
    pieces but the last."""
    return voronoi_breakpoints(c, geometry._sites_array(sites)[None])[1][:-1].tolist()


def test_breakpoints_midpoint():
    bks = _cuts(SEG01, [Point2(0, 0), Point2(1, 0)])
    assert bks == pytest.approx([0.5], abs=1e-9)


def test_breakpoints_three_sites():
    bks = _cuts(SEG11, [Point2(-1, 0), Point2(0, 0), Point2(1, 0)])
    assert bks == pytest.approx([0.5, 1.5], abs=1e-9)


def test_breakpoints_dominated_site_has_none():
    # offset conditional point dominated everywhere: its cell degenerates to
    # the endpoint itself, so no interior breakpoint is reported
    bks = _cuts(SEG01, [Point2(0, 0), Point2(0, 1 / 100)])
    assert bks == []


def test_breakpoints_take_only_a_nonempty_stack():
    # one calling form: a single set is a stack of one
    xy = np.array([(0.0, 0.0), (1.0, 0.0)])
    for sites in ([Point2(0, 0), Point2(1, 0)], xy, xy.tolist(), xy[None, None],
                  xy[:, :1][None], xy[:0][None], xy[None][:0]):
        with pytest.raises(ValueError):
            voronoi_breakpoints(SEG01, sites)


def test_distortion_single_site():
    assert distortion(M11, [Point2(0, 0)]) == pytest.approx(1 / 3, rel=1e-12)


def test_distortion_two_point_endpoint_set():
    sites = [Point2(0, 0), Point2(2 / 3, 0)]
    assert distortion(M01, sites) == pytest.approx(1 / 27, rel=1e-12)


@pytest.mark.parametrize("x", [1e8, 1e100])
def test_distortion_of_a_far_site(x):
    # the integral of (s - x)^2 over [0, 1] is x^2 - x + 1/3; as a
    # difference of the cubes (1 - x)^3 and -x^3 it is off by 1.5e-9
    # relative at 1e8 and cancels to 0 at 1e100
    want = x * x - x + 1 / 3
    assert distortion(M01, [Point2(x, 0)]) == want
    assert _cell_state(M01, np.array([[[x, 0.0]]]))[0].tolist() == [want]


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
    s_segment = np.linspace(0.0, SEG11.length, 7)
    s_arc = np.linspace(0.0, HALF_ARC.length, 7)
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
    # equidistant from both ends, in floats too (the end at pi lies 1.2e-16
    # above the diameter, below half a unit of y = -2): the start on ties
    assert project_to_curve(HALF_ARC, Point2(0.0, -2.0)) == 0.0


def _project_scalar(c, p: Point2) -> float:
    """The scalar projection that the array one replaced, kept as the test
    oracle: the foot of the perpendicular on a segment, clamped to its
    ends; on an arc the angle about the center inside the window, else the
    nearer end, and half the length at the center."""
    length = c.length
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


def _reach_xy(c, xy):
    """_reach of the rows of the (k, 2) array xy, as its callers by
    coordinates take it: (d2, f)."""
    return _reach(c, *_envelope(c, xy)[2:])


def _squared_distances(c, xy, f):
    """|p - curve_eval(c, s)|^2 for each row p of xy and arc length s of f."""
    near = np.array([(q.x, q.y) for q in (curve_eval(c, s) for s in f.tolist())])
    return ((xy - near) ** 2).sum(axis=1)


def test_reach_matches_scalar():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-2.0, 2.0, (400, 2))
    # the two arc centers; then below the half arc's diameter, the first
    # nearer its start, the others equidistant from both ends in floats
    xy[:5] = [(0.0, 0.0), (0.3, -0.2), (0.2, -1.0), (0.0, -1.0), (0.0, -2.0)]
    full = Arc(Point2(0, 0), 1.0, 0.0, 2 * math.pi)
    for c in (SEG01, Segment(Point2(-1, 2), Point2(3, -1)), HALF_ARC,
              Arc(Point2(0.3, -0.2), 1.5, -2.0, 1.0), full):
        d2, f = _reach_xy(c, xy)
        want = [_project_scalar(c, Point2(x, y)) for x, y in xy]
        assert f == pytest.approx(want, abs=1e-12)
        assert d2 == pytest.approx(_squared_distances(c, xy, f), rel=1e-12)
    assert _reach_xy(HALF_ARC, xy[:5])[1].tolist() == [0.5 * math.pi, 0.0, 0.0, 0.0, 0.0]
    assert _reach_xy(full, xy[:1])[1].tolist() == [math.pi]


def test_reach_is_exact_far_from_the_origin():
    # dyadic coordinates, so the curves and points translated by 1e8 are
    # the same geometry exactly; there a nearest point found by coordinates
    # rounds by 1.5e-8, which moves these squared distances by up to 3e-6
    rng = np.random.default_rng(8)
    xy = np.round(rng.uniform(-2.0, 2.0, (300, 2)) * 2.0 ** 20) / 2.0 ** 20
    shift = 1e8
    for make in (lambda o: Segment(Point2(o - 1, o + 2), Point2(o + 3, o - 1)),
                 lambda o: Arc(Point2(o + 0.25, o - 0.125), 1.5, -2.0, 1.0),
                 lambda o: Arc(Point2(o, o), 1.0, 0.0, 2 * math.pi)):
        c, far = make(0.0), make(shift)
        d2, f = _reach_xy(far, xy + shift)
        assert f == pytest.approx([_project_scalar(c, Point2(x, y)) for x, y in xy], abs=1e-12)
        assert d2 == pytest.approx(_squared_distances(c, xy, f), rel=1e-9)


def test_measure_needs_positive_finite_length():
    with pytest.raises(ValueError, match="at least one curve"):
        UniformCurveMeasure(())
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 5e-324, 0.0, 5e-324),))
    with pytest.raises(ValueError):
        UniformCurveMeasure((Arc(Point2(0, 0), 1e308, 0.0, 6.0),))
    # positive, but every squared distance along it underflows, and so does
    # its density's inverse
    for tiny in (5e-309, 1e-200):
        with pytest.raises(ValueError, match="too small: its square underflows"):
            UniformCurveMeasure((Segment(Point2(0, 0), Point2(tiny, 0)), SEG01))
    UniformCurveMeasure((Segment(Point2(0, 0), Point2(1.5e-154, 0)),))


def test_measure_accepts_the_shortest_curve_whose_square_is_normal():
    # sqrt(float_info.min) = 2^-511 squares to the smallest normal float
    shortest = math.sqrt(sys.float_info.min)
    assert shortest * shortest == sys.float_info.min
    UniformCurveMeasure((Segment(Point2(0, 0), Point2(shortest, 0)),))
    with pytest.raises(ValueError, match="too small: its square underflows"):
        UniformCurveMeasure((Segment(Point2(0, 0), Point2(math.nextafter(shortest, 0.0), 0)),))


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


def _curve_points(c, s):
    """Points of c at the arc lengths s, a (k, 2) array, written here apart
    from the package's own evaluation."""
    if isinstance(c, Segment):
        t = s / c.length
        return np.stack([c.p0.x + t * (c.p1.x - c.p0.x),
                         c.p0.y + t * (c.p1.y - c.p0.y)], axis=1)
    ang = c.theta0 + s / c.radius
    return np.stack([c.center.x + c.radius * np.cos(ang),
                     c.center.y + c.radius * np.sin(ang)], axis=1)


def _riemann_distortion(measure, sites, samples=10**6):
    sites_xy = np.array([(p.x, p.y) for p in sites])
    total = 0.0
    for c in measure.curves:
        length = c.length
        k = max(int(samples * length / measure.total_length), 1000)
        s = (np.arange(k) + 0.5) * (length / k)
        pts = _curve_points(c, s)
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
            cuts = [0.0] + _cuts(c, sites) + [c.length]
            owners = []
            for s0, s1 in zip(cuts[:-1], cuts[1:]):
                if s1 - s0 < 1e-9:
                    owners.append(None)
                    continue
                pts = _curve_points(c, np.linspace(s0 + 1e-9, s1 - 1e-9, 1000))
                d2 = ((pts[:, None, :] - sites_xy[None, :, :]) ** 2).sum(axis=2)
                seen = set(np.argmin(d2, axis=1).tolist())
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
            s0, s1, owner = voronoi_breakpoints(c, sites_xy[None])
            assert s0[0] == 0.0 and s1[-1] == c.length
            assert np.all(s0 < s1)
            np.testing.assert_array_equal(owner, _midpoint_owners(c, 0.5 * (s0 + s1), sites_xy))


def test_piece_owners_change_at_every_cut():
    for curves, sites in _partition_cases():
        sites_xy = np.array([(p.x, p.y) for p in sites])
        for c in curves:
            s0, s1, owner = voronoi_breakpoints(c, sites_xy[None])
            assert s1[:-1].tolist() == s0[1:].tolist()
            assert np.all(owner[1:] != owner[:-1])


def _kept_cut_pieces(c, stack):
    """The pieces as a per-set loop made them before they came from arrays,
    kept as the test oracle: of each set's envelope starts strictly inside
    (tol, length - tol), tol = PARAM_TOL * length, each is a cut when it
    lies more than tol past the cut kept before it, and each piece's owner
    is the envelope's at its midpoint, found by bisection."""
    length, m = c.length, stack.shape[1]
    tol = PARAM_TOL * length
    start, who = _envelopes(c, stack)
    s0, s1, owner = [], [], []
    for r in range(len(stack)):
        starts, owners = start[who // m == r].tolist(), who[who // m == r].tolist()
        cuts = []
        for s in starts:
            if tol < s < length - tol and (not cuts or s - cuts[-1] > tol):
                cuts.append(s)
        bounds = [0.0, *cuts, length]
        s0 += bounds[:-1]
        s1 += bounds[1:]
        owner += [owners[bisect.bisect_right(starts, 0.5 * (a + b)) - 1]
                  for a, b in zip(bounds, bounds[1:])]
    return np.array(s0), np.array(s1), np.array(owner)


def _crowded_stacks(c, rng):
    """(R, m, 2) stacks of sites crowded within 2e-12 of one another along
    c or near its ends: near twins, clusters and sites at the curve ends,
    on the curve and off it."""
    length = c.length
    for k in range(60):
        sets, m = k % 4 + 1, k % 9 + 2
        if k % 3 == 0:  # near twins: pairs 1e-12 to 2e-12 apart
            half = rng.uniform(-2.0, 2.0, (sets, (m + 1) // 2, 2))
            twins = half + rng.choice([-1, 1], half.shape) * rng.uniform(1e-12, 2e-12, half.shape)
            yield np.concatenate([half, twins], axis=1)[:, :m]
        elif k % 3 == 1:  # one cluster within 2e-12, on the curve or off it
            s = rng.uniform(0.0, length)
            center = _frame_array(c, np.array([s]))[0][0] if k % 2 else rng.uniform(-2, 2, 2)
            yield center + rng.uniform(-1e-12, 1e-12, (sets, m, 2))
        else:  # at the curve ends, on the curve, within 1e-12 of them
            s = rng.choice([0.0, length], sets * m) + rng.uniform(-1e-12, 1e-12, sets * m)
            yield _frame_array(c, np.clip(s, 0.0, length))[0].reshape(sets, m, 2)


@pytest.mark.parametrize("c", [SEG01, HALF_ARC, Arc(Point2(0.3, -0.2), 0.8, -1.0, -1.0 + TWO_PI)],
                         ids=["segment", "arc", "full circle"])
def test_stacked_pieces_equal_kept_cut_oracle(c):
    for stack in _crowded_stacks(c, np.random.default_rng(31)):
        for got, want in zip(voronoi_breakpoints(c, stack), _kept_cut_pieces(c, stack)):
            np.testing.assert_array_equal(got, want)


def test_starts_close_to_the_start_before_are_no_cuts():
    # four sites 6e-13 apart near the start of a segment, where their lines
    # meet without cancellation: the envelope starts are 6e-13 apart, each
    # within PARAM_TOL of the start before it, so only the first is a cut
    # and the site at the midpoint of the rest owns them. Comparing with the
    # cut kept before instead (the oracle) keeps the third start too.
    xy = np.array([(1e-6 + 6e-13 * k, 0.0) for k in range(4)])
    s0, s1, owner = voronoi_breakpoints(SEG01, xy[None])
    assert s1[0] == pytest.approx(1e-6 + 3e-13, abs=1e-15)
    assert owner.tolist() == [0, 3]
    assert _kept_cut_pieces(SEG01, xy[None])[2].tolist() == [0, 1, 3]


def _segment_march(c, sites_xy):
    """The segment march that the slope-sorted envelope replaced, kept as
    the test oracle. It marches the lower envelope of the lines K_i + P_i t
    from owner to owner with one O(m) vector step per piece: the next cut
    is the earliest crossing below the owner, and of the lines crossing
    within 1e-12 of it the steepest takes over, ties to the lower index.
    """
    length = c.length
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


def _reach_bound(c, xy):
    """B = max over the curve of min_i (d_i + |t - f_i|), with d_i and f_i
    the distance of site i from c and the arc length of its nearest point,
    from the points of c itself: the maximum of that piecewise linear
    function lies at an end of c or where two of its terms meet."""
    f = np.array([_project_scalar(c, Point2(x, y)) for x, y in xy])
    d = np.hypot(*(_frame_array(c, f)[0] - xy).T)
    t = np.concatenate([[0.0, c.length], f,
                        (0.5 * (f[:, None] + f[None, :] + d[None, :] - d[:, None])).ravel()])
    t = np.clip(t, 0.0, c.length)
    return np.min(d[None, :] + np.abs(t[:, None] - f[None, :]), axis=1).max()


def _beyond_bound_set(c, rng):
    """CULL_ABOVE + 1 to CULL_ABOVE + 88 sites along c: a third on the
    curve, a third in a cluster 2 to 5 away, and the rest just beyond the
    bound _reach_bound of the others, 1 rounding unit to 1e-6 farther from
    c than it, some of them just inside it."""
    length = c.length
    m = int(rng.integers(CULL_ABOVE + 1, CULL_ABOVE + 89))
    on = _frame_array(c, rng.uniform(0.0, length, m // 3))[0]
    middle = _frame_array(c, np.array([0.5 * length]))[0][0]
    cluster = middle + rng.uniform(2.0, 5.0) * _on_circle(Point2(0, 0), 1.0, rng.uniform(0, 7, 1))
    cluster = cluster + rng.uniform(-0.3, 0.3, (m // 3, 2))
    bound = _reach_bound(c, np.concatenate([on, cluster]))
    rest = m - 2 * (m // 3)
    gap = bound * rng.choice([1.0 + 2.2e-16, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 - 1e-9], rest)
    foot, tangent = _frame_array(c, rng.uniform(0.0, length, rest))
    side = rng.choice([-1.0, 1.0], rest)[:, None]
    beyond = foot + side * gap[:, None] * np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    return np.concatenate([on, cluster, beyond])[rng.permutation(m)]


def _random_segment_cases():
    """(segment, sites) with m = 1..40 sites: in a third of the inputs all
    sites lie on one line, in a fifth some sites repeat; then sets of more
    than CULL_ABOVE sites from _beyond_bound_set."""
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
    # sets above CULL_ABOVE whose envelope is built of the sites near the
    # segment only: on it, far away and just beyond the bound
    for k in range(24):
        seg = SEG01 if k % 4 == 0 else Segment(*(Point2(*p) for p in rng.uniform(-2, 2, (2, 2))))
        yield seg, _beyond_bound_set(seg, rng)


def _on_line(seg, feet, offsets=None):
    """Sites at arc lengths feet along seg's line, offset along its normal."""
    length = seg.length
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
        (OBLIQUE, _on_line(OBLIQUE, [0.0, 0.4, 1.7, 2.2, OBLIQUE.length, 3.5])),
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
                                     2.0 * OBLIQUE.length - 1.5 - 8e-13],
                           [0.0, 0.0, 0.5 - 1e-13, 0.0, 0.0])),
    ],
    "narrow cells": [
        (SEG01, [(0.5005, 0.0), (0.5 + 0.3 / 1024, 0.0), (0.5 + 0.7 / 1024, 0.0)]),
        (SEG01, [(0.5 + w, 0.0) for w in (0.0, 3e-9, 7e-9, 2.5e-11, 0.25)]),
    ],
}


def test_segment_breakpoints_equal_march_oracle():
    for seg, xy in _random_segment_cases():
        assert _cuts(seg, xy) == _segment_march(seg, xy)


@pytest.mark.parametrize("kind", list(_EXPLICIT_SEGMENT_CASES))
def test_segment_breakpoints_equal_march_oracle_on(kind):
    for seg, sites in _EXPLICIT_SEGMENT_CASES[kind]:
        xy = np.array(sites, dtype=float)
        assert _cuts(seg, xy) == _segment_march(seg, xy)


def _line_stack_oracle(K, P, m):
    """The segment envelope as one sort by set and slope and then a Python
    stack per set, every set through the stack, kept as the test oracle:
    arrays (starts, owners). Its Python floats never warn."""
    order = np.lexsort((K, -P, np.arange(len(m)).repeat(m)))
    ks, ps, sites = K[order].tolist(), P[order].tolist(), order.tolist()
    starts, owners = [], []
    lo = 0
    for hi in m.cumsum().tolist():
        hull = []
        top_k = top_p = top_start = None
        for k, p, i in zip(ks[lo:hi], ps[lo:hi], sites[lo:hi]):
            if p == top_p:
                continue
            while hull:
                start = (k - top_k) / (top_p - p)
                if start > top_start:
                    break
                hull.pop()
                if hull:
                    top_k, top_p, top_start, _ = hull[-1]
            else:
                start = -math.inf
            hull.append((k, p, start, i))
            top_k, top_p, top_start = k, p, start
        _, _, set_starts, set_owners = zip(*hull)
        starts += set_starts
        owners += set_owners
        lo = hi
    return np.array(starts), np.array(owners)


def _line_sets(rng):
    """(K, P, m) of seeded stacks of line sets, the sets of a stack of
    varied sizes and kinds: _envelope terms on OBLIQUE of distinct sites on
    its line (every line on the envelope), of such sites with duplicates,
    of random sites off the line, of near twins, of one site, and of sets
    with sites at 1e200, whose terms are inf and whose crossings NaN; and
    terms drawn directly, of a few slopes only or of slopes one rounding
    unit apart."""
    for _ in range(300):
        xy, K, P, m = [], [], [], []
        for _ in range(rng.integers(1, 7)):
            kind, size = rng.integers(8), int(rng.integers(1, 13))
            if kind == 0:
                sites = _frame_array(OBLIQUE, np.sort(rng.uniform(-1.0, 4.0, size)))[0]
            elif kind == 1:
                sites = _frame_array(OBLIQUE, rng.uniform(-1.0, 4.0, size))[0]
                sites = sites[rng.integers(0, size, size)]
            elif kind == 2:
                sites = rng.uniform(-2.0, 2.0, (size, 2))
            elif kind == 3:
                half = rng.uniform(-2.0, 2.0, ((size + 1) // 2, 2))
                twins = half + rng.uniform(-2e-12, 2e-12, half.shape)
                sites = np.concatenate([half, twins])[:size]
            elif kind == 4:
                sites = rng.uniform(-2.0, 2.0, (1, 2))
            elif kind == 5:
                sites = rng.uniform(-2.0, 2.0, (size, 2))
                sites[rng.integers(0, size, 1 + size // 3)] = rng.choice([-1e200, 1e200], 2)
            else:
                k_terms = rng.uniform(-1.0, 1.0, size)
                if kind == 6:
                    p_terms = rng.choice([-1.0, 0.0, -0.0, 0.5, 1.0], size)
                else:
                    p_terms = np.nextafter(0.25, 1.0 - 2.0 * rng.integers(0, 2, size))
                    p_terms[rng.integers(0, size)] = 0.25
                K.append(k_terms)
                P.append(p_terms)
                m.append(size)
                continue
            with np.errstate(all="ignore"):
                _, _, k_terms, p_terms, _ = _envelope(OBLIQUE, sites)
            K.append(k_terms)
            P.append(p_terms)
            m.append(len(sites))
        yield np.concatenate(K), np.concatenate(P), np.array(m)


def test_line_envelope_equals_stack_oracle(monkeypatch):
    # a call goes through the stack, every set of it, only when a line
    # drops in some set; starts and owners stay the stack's, bit for bit,
    # and no term warns
    stacked = []
    line_stack = geometry._line_stack
    monkeypatch.setattr(geometry, "_line_stack",
                        lambda *args: stacked.append(args[-1]) or line_stack(*args))
    mixed = 0
    for K, P, m in _line_sets(np.random.default_rng(43)):
        want = _line_stack_oracle(K, P, m)
        stacked.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometry._line_envelope(K, P, m)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # a set drops a line when it has fewer pieces than slope runs
        set_of = np.arange(len(m)).repeat(m)
        sorted_p = P[np.lexsort((K, -P, set_of))]
        runs = np.ones(len(P), dtype=bool)
        runs[1:] = (sorted_p[1:] != sorted_p[:-1]) | (set_of[1:] != set_of[:-1])
        drops = np.bincount(set_of, runs) > np.bincount(set_of[want[1]], minlength=len(m))
        assert [s.tolist() for s in stacked] == ([m.tolist()] if drops.any() else [])
        mixed += bool(drops.any() and not drops.all())
    assert mixed >= 50


def _arc_march(c, sites_xy):
    """The arc march that the divide-and-conquer envelope replaced, kept as
    the test oracle: (cuts, owners). It marches the lower envelope of the
    terms K_i + P_i cos t + Q_i sin t from owner to owner with one O(m)
    vector step per piece: the next cut is the earliest angle where another
    site's term crosses below the owner's, and of the sites crossing there
    the steepest takes over, ties to the lower index. The owners are the
    nearest sites at the piece midpoints, from the same terms.
    """
    length = c.length
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
    them full turns, and on the wrapped windows of _partition_cases; then
    sets of more than CULL_ABOVE sites from _beyond_bound_set."""
    rng = np.random.default_rng(23)
    for k in range(240):
        t0 = rng.uniform(-7.0, 7.0)
        span = 2 * math.pi if k % 7 == 0 else float(rng.uniform(0.1, 2 * math.pi))
        arc = Arc(Point2(*rng.uniform(-2, 2, 2)), float(rng.uniform(0.2, 2.0)), t0, t0 + span)
        yield arc, rng.uniform(-2.5, 2.5, (k % 60 + 1, 2))
    for arc in WRAPPED_ARCS:
        for m in (1, 2, 5, 13, 40):
            yield arc, rng.uniform(-2.5, 2.5, (m, 2))
    # sets above CULL_ABOVE whose envelope is built of the sites near the
    # arc only: on it, far away and just beyond the bound
    for k in range(24):
        t0 = rng.uniform(-7.0, 7.0)
        span = 2 * math.pi if k % 7 == 0 else float(rng.uniform(0.1, 2 * math.pi))
        arc = Arc(Point2(*rng.uniform(-2, 2, 2)), float(rng.uniform(0.2, 2.0)), t0, t0 + span)
        yield arc, _beyond_bound_set(arc, rng)


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
    _, s1, owners = voronoi_breakpoints(arc, sites_xy[None])
    cuts = s1[:-1]
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
    cuts = _cuts(SEG01, [Point2(x, 0) for x in xs])
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
    assert _cuts(HALF_ARC, sites) == pytest.approx([0.85, 1.2], abs=1e-4)
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


# (arc, two sites) that a set keeps of CULL_ABOVE + 1 on its own: in a
# stack with a row that keeps 20, its single group has no partner from the
# second merge level on, and splitting its pieces again against its first
# piece's owner, as if that were a partner, moved its cut by one rounding unit
_LONE_GROUP_CASES = [
    (Arc(Point2(0.04630824257916499, -0.5099193665473707), 1.352232621017048,
         -5.319911979845817, -1.6984347830638868),
     [[-0.8878862514579522, 1.2099148448284582], [1.9298829189236795, -1.9064627549394164]]),
    (Arc(Point2(-0.8889440361974117, 0.08196877767827893), 1.9529491797544145,
         2.1893403591184857, 8.156804999388491),
     [[1.9225304270018757, 2.129101955524461], [-1.717439197647828, 0.5122448776953541]]),
    (Arc(Point2(-1.0230029320390623, -0.8760169798435644), 0.8865730526713409,
         -6.305618124491026, -1.11104170640259),
     [[-0.7392036598527336, -2.3940349993810752], [-2.3676558902907447, 1.9611752516723202]]),
]


def test_stacked_breakpoints_equal_one_set_at_a_time():
    # R site sets in one call: the lines are sorted by set before slope and
    # the sinusoid groups of every set merge together, without changing a bit
    rng = np.random.default_rng(29)
    curves = [c for curves, _ in _partition_cases() for c in curves]
    cases = []
    for k, c in enumerate(curves):
        # powers of two and the sizes between; every fourth curve also one
        # size above CULL_ABOVE, where each set keeps its own sites
        for m in [k % 13 + 1] + [CULL_ABOVE + 1 + k % 40] * (k % 4 == 0):
            stack = rng.uniform(-2.5, 2.5, (k % 5 + 1, m, 2))
            stack[0, m // 2:] = stack[0, :m - m // 2]  # duplicate sites
            cases.append((c, stack))
    # row 0 keeps 2 sites and row 1 20 on the arc, the rest lying far off,
    # so the sinusoid envelope of row 0 has fewer levels than that of row 1
    for arc, xy in _LONE_GROUP_CASES:
        stack = np.full((2, CULL_ABOVE + 1, 2), 60.0)
        stack[0, :2] = xy
        stack[1, :20] = _on_circle(arc.center, arc.radius, np.linspace(arc.theta0, arc.theta1, 20))
        cases.append((arc, stack))
    for c, stack in cases:
        m = stack.shape[1]
        s0, s1, owner = voronoi_breakpoints(c, stack)
        for r, xy in enumerate(stack):
            mine = owner // m == r
            one = voronoi_breakpoints(c, xy[None])
            np.testing.assert_array_equal(s0[mine], one[0])
            np.testing.assert_array_equal(s1[mine], one[1])
            np.testing.assert_array_equal(owner[mine] - r * m, one[2])


@pytest.mark.parametrize("measure", [M01, SEMI], ids=["segment", "semicircle"])
def test_overflowing_site_set_above_the_constant_drops_no_site(measure, monkeypatch):
    # sites at 1e200, whose squared distances to every curve overflow: above
    # CULL_ABOVE the pass keeps every site of the set, so it gives what the
    # pass of the whole set gives, bit for bit, NaN and inf included
    rng = np.random.default_rng(37)
    for far in ([[1e200, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]):
        xy = np.concatenate([far, rng.uniform(-1.0, 1.0, (CULL_ABOVE + 8 - len(far), 2))])
        with np.errstate(all="ignore"):  # as the command line runs it
            got = _cell_state(measure, xy[None])
            monkeypatch.setattr(geometry, "CULL_ABOVE", 10 ** 9)
            want = _cell_state(measure, xy[None])
            monkeypatch.undo()
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("c", [SEG01, HALF_ARC], ids=["segment", "arc"])
def test_culling_starts_above_the_constant(c, monkeypatch):
    # a set of exactly CULL_ABOVE sites builds its envelope of all of them;
    # one more site and the envelope is built of the sites _owning_sites keeps
    calls, owning = [], geometry._owning_sites

    def spy(c, K, P, Q):
        calls.append(K.shape[1])
        return owning(c, K, P, Q)

    monkeypatch.setattr(geometry, "_owning_sites", spy)
    rng = np.random.default_rng(41)
    for m in (CULL_ABOVE, CULL_ABOVE + 1):
        voronoi_breakpoints(c, rng.uniform(-1.0, 1.0, (2, m, 2)))
    assert calls == [CULL_ABOVE + 1]


def _evaluator_cases():
    """(measure, (m, 2) sites, site indices for conditional_mean): every
    gallery config over its n_range, the closed-form semicircle and
    triangle sets at 200 and 400 sites, near twins, and sets with sites at
    1e200, whose terms overflow."""
    for entry in scenarios.GALLERY.values():
        lo, hi = entry.n_range
        for n in range(lo, hi + 1):
            xy = geometry._sites_array(list(entry.config(n)))
            yield entry.build(n).measure, xy, range(len(xy))
    for n in (200, 400):
        for measure, sites in _closed_form_sets(n):
            yield measure, geometry._sites_array(list(sites)), (0, n // 2, n - 1)
    twins = [[0.2, 0.0], [0.6, 0.0], [0.6 + 1.5e-12, 0.0]]
    yield M01, np.array(twins), range(3)
    arc = [[math.cos(a), math.sin(a)] for a in (0.5, 1.2, 1.2 + 1.5e-12)]
    yield UniformCurveMeasure((HALF_ARC,)), np.array(arc), range(3)
    rng = np.random.default_rng(41)
    for measure in (M01, SEMI, scenarios.triangle_measure()):
        half = rng.uniform(-1.5, 1.5, (4, 2))
        twins = half + rng.uniform(-2e-12, 2e-12, half.shape)
        yield measure, np.concatenate([half, twins]), range(8)
        for far in ([[1e200, 0.0]], [[1e200, 0.0], [0.0, -1e200]]):
            xy = np.concatenate([far, rng.uniform(-1.0, 1.0, (5, 2))])
            yield measure, xy, range(len(xy))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    """The bits of fn's Point2, or the type of what it raised."""
    try:
        p = fn(*args)
    except ValueError as error:
        return type(error)
    return np.array([p.x, p.y]).tobytes()


def test_evaluators_equal_the_cell_state_pass():
    # distortion and voronoi_masses integrate only what they return, and
    # every public evaluator returns what the solver's full pass gives, bit
    # for bit; distortion sums the pass's pieces per curve pairwise
    # (ndarray.sum) where the pass sums them in piece order
    def mean_of_state(masses, moments, i):
        if masses[i] == 0.0:
            raise DegenerateCellError
        cell_length = masses[i] * measure.total_length
        return Point2(float(moments[i, 0] / cell_length), float(moments[i, 1] / cell_length))

    def distortion_of_pieces(pieces, curve_sum):
        total = 0.0
        for c, (s1, owner) in zip(measure.curves, pieces):
            s0 = np.concatenate(([0.0], s1[:-1]))
            total += curve_sum(geometry._piece_sq(c, s0, s1, xy[owner]))
        return total * measure.density

    for measure, xy, indices in _evaluator_cases():
        with np.errstate(all="ignore"):  # as the command line runs it
            (d,), (masses,), (moments,), pieces = _cell_state(measure, xy[None])
            assert _same_bits(d, distortion_of_pieces(pieces, lambda sq: np.cumsum(sq)[-1]))
            assert _same_bits(distortion(measure, xy), distortion_of_pieces(pieces, np.sum))
            got = voronoi_masses(measure, xy)
            assert all(type(v) is float for v in got) and _same_bits(got, masses)
            got_masses, got_moments = geometry.voronoi_cell_stats(measure, xy)
            assert _same_bits(got_masses, masses) and _same_bits(got_moments, moments)
            for i in indices:
                assert (_outcome(conditional_mean, measure, xy, i)
                        == _outcome(mean_of_state, masses, moments, i))
