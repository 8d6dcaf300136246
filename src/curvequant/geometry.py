"""Plane curves, uniform measures on them, and exact Voronoi-split integrals.

Supports are finite unions of segments and circular arcs, parametrized by
arc length. Distortion integrals against a finite site set are computed by
splitting every curve at its exact Voronoi breakpoints and integrating the
squared distance to each piece's site in closed form. The breakpoints are
those of the lower envelope of the per-site squared distances: on a segment
a family of lines, whose envelope comes from one sort by slope in
O(k log k), then the consecutive crossings in numpy when in every set
they rise so that no line drops, else a Python stack per set; on an arc
a family of sinusoids of one frequency, any two of which cross at most
twice, whose envelope comes from divide and conquer in O(k log^2 k):
site pairs in closed form, then groups merged pairwise level
by level, every merge of a level in the same numpy calls, each level one
sort of its O(k) piece starts. Here k is the number of sites that can own
a piece of the curve. Above CULL_ABOVE sites per set, the others are
dropped first: no point of the curve is farther from its nearest site than
B = max over t of min_i (d_i + |t - f_i|), d_i the distance of site i to
the curve and f_i the arc length of its nearest point, which one sort of
the f_i and two prefix minima give, so a site farther than B from the
curve owns none of it; at or below CULL_ABOVE, k = m. The d_i and f_i
come from _reach, the package's one nearest-point routine, which
project_to_curve and the solver's snap onto constraint curves also take.
Both envelopes know
the site that owns each of their pieces, and both take a stack of site
sets at once: the lines are sorted by set before slope, and the sinusoid
groups of every set are merged in the same numpy calls, each set with the
sites it keeps. voronoi_breakpoints takes only such a stack, a single set
as a stack of one, and turns the envelopes' arrays into the pieces of
every set, each with its owner, in numpy, so that one cell-state pass
serves a whole batch of the solver's candidates and no nearest-site
search follows. That pass integrates squared distances, piece lengths and
position moments, and sums each set's pieces in piece order.
voronoi_masses integrates only the lengths, with the same arithmetic and
so the same bits; distortion integrates only the squared distances, each
piece's with the pass's arithmetic, but sums them per curve as numpy's
pairwise sum does, which keeps a large set's sum within a few rounding
units of its closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

PARAM_TOL = 1e-12

# sites per set above which an envelope is built of only the sites that can
# own a piece of the curve. 128 was the single-set crossover when it was
# set: the largest m at which one pass of the closed-form semicircle set and
# one of the triangle set, alone as one evaluation takes them, cost more in
# sum culled than with all their sites (tools/layer_timing.py). Moving it
# can move arc cut bits
CULL_ABOVE = 128

TWO_PI = 2.0 * math.pi


class DegenerateCellError(ValueError):
    """A Voronoi cell that was asked for is empty: its mass is 0.0."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")


@dataclass(frozen=True)
class Segment:
    p0: Point2
    p1: Point2
    # arc length, computed once here
    length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p0.x == self.p1.x and self.p0.y == self.p1.y:
            raise ValueError("segment endpoints must differ")
        object.__setattr__(self, "length",
                           math.hypot(self.p1.x - self.p0.x, self.p1.y - self.p0.y))


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed counterclockwise from theta0 to theta1."""

    center: Point2
    radius: float
    theta0: float
    theta1: float
    # arc length, computed once here
    length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("arc radius must be positive and finite")
        # at most one full turn, so arc length is unambiguous
        if not (self.theta0 < self.theta1 <= self.theta0 + TWO_PI):
            raise ValueError("need theta0 < theta1 <= theta0 + 2*pi")
        object.__setattr__(self, "length", self.radius * (self.theta1 - self.theta0))


Curve = Segment | Arc


@dataclass(frozen=True)
class UniformCurveMeasure:
    """Uniform probability measure on a finite union of curves."""

    curves: tuple[Curve, ...]
    total_length: float = field(init=False)
    density: float = field(init=False)

    def __post_init__(self):
        curves = tuple(self.curves)
        if not curves:
            raise ValueError("measure needs at least one curve")
        object.__setattr__(self, "curves", curves)
        lengths = [c.length for c in curves]
        for length in lengths:
            # below this, every squared distance along the curve underflows
            if not length >= math.sqrt(sys.float_info.min):
                raise ValueError(f"curve length {length!r} is too small: its square underflows")
        total = sum(lengths)
        if not total < math.inf:
            raise ValueError("measure needs a finite total length")
        object.__setattr__(self, "total_length", total)
        object.__setattr__(self, "density", 1.0 / total)


def _on_curve(s: float, length: float) -> bool:
    """Whether arc length s lies on a curve of that length: in [0, length]
    up to PARAM_TOL of the length past either end. The one range rule for
    arc lengths, in curve_eval and in the solver's candidate check."""
    slack = PARAM_TOL * length
    return -slack <= s <= length + slack


def curve_eval(c: Curve, s: float) -> Point2:
    """Unit-speed point on c at arc length s, with s in [0, length]."""
    length = c.length
    if not _on_curve(s, length):
        raise ValueError(f"arc-length parameter {s} outside [0, {length}]")
    s = min(max(s, 0.0), length)
    x, y = _frame_array(c, np.array([s]))[0][0]
    return Point2(float(x), float(y))


def _frame_array(c: Curve, s: np.ndarray):
    """Points and unit tangents of c at the arc lengths in the 1-D array s,
    without range checks: two (k, 2) arrays. The one point evaluation of the
    package: curve_eval, render, seeds, descent sites and moments all take it."""
    if isinstance(c, Segment):
        length = c.length
        d = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y])
        return (c.p0.x, c.p0.y) + (s / length)[:, None] * d, (d / length)[None].repeat(len(s), 0)
    ang = c.theta0 + s / c.radius
    cos, sin = np.cos(ang), np.sin(ang)
    point, tangent = np.empty((2, len(s), 2))
    point[:, 0], point[:, 1] = c.center.x + c.radius * cos, c.center.y + c.radius * sin
    tangent[:, 0], tangent[:, 1] = -sin, cos
    return point, tangent


def _sites_array(sites) -> np.ndarray:
    """Sites, a sequence of Point2 or an (m, 2) array, as an (m, 2) float
    array; an array passes through unchanged."""
    if len(sites) == 0:
        raise ValueError("site list must be nonempty")
    if isinstance(sites, np.ndarray):
        return sites
    # a column from a list of floats converts in a third of the time that
    # rows from a list of pairs take
    xy = np.empty((len(sites), 2))
    xy[:, 0] = [p.x for p in sites]
    xy[:, 1] = [p.y for p in sites]
    return xy


def _envelope(c: Curve, sites_xy: np.ndarray):
    """(t0, scale, K, P, Q): |curve(t) - q_i|^2 = shared(t) + K_i + P_i x + Q_i y
    with (x, y) = (t, 0) for arc length t on a segment and (cos t, sin t) for
    angle t on an arc; arc length is (t - t0) * scale. On a segment, where
    the Q term vanishes, (P, Q) / 2 are the coordinates of a = start - q_i
    along the segment and across it, so K = |a|^2 = (P^2 + Q^2) / 4."""
    if isinstance(c, Segment):
        a = np.array([c.p0.x, c.p0.y]) - sites_xy
        u = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y]) / c.length
        t0, scale, P, Q = 0.0, 1.0, 2.0 * (a @ u), 2.0 * (a @ (u[1], -u[0]))
    else:
        a = np.array([c.center.x, c.center.y]) - sites_xy
        t0, scale, P, Q = c.theta0, c.radius, 2.0 * c.radius * a[:, 0], 2.0 * c.radius * a[:, 1]
    return t0, scale, (a * a).sum(axis=1), P, Q


def _split_pairs(a, e, A, B, KPQ):
    """Lower envelope of two sites' terms K + P cos t + Q sin t on each
    interval [a, e): (start, owner) arrays of its pieces in order, repeated
    owners merged. KPQ holds the sites' (K, P, Q, -K, -P, -Q) as rows, and
    A the lower index of each pair, so ties go to A."""
    # rows 0-2: B's terms minus A's; rows 3-5: A's minus B's
    d = KPQ[:, B] - KPQ[:, A]
    dK, dP, dQ = d[0], d[1], d[2]
    # dK + r cos(t - phi) is negative on (phi + alpha, phi + 2 pi - alpha).
    # Row 0 is B taking over from A, row 1 A from B, each from the taker's
    # terms minus the owner's, as the march oracle in the tests writes it.
    r = np.hypot(dP, dQ)
    sin_part = np.sqrt(np.maximum((r - dK) * (r + dK), 0.0))
    alpha = np.arctan2(sin_part, -d[::3])
    to = np.mod(np.arctan2(d[2::3], d[1::3]) + alpha - a, TWO_PI)
    # a taker without a stretch where its term dips below the owner's has
    # alpha = pi, with sin_part 0; any other has alpha below pi - 1e-8,
    # however narrow its stretch: near r = |dK| the factor r - |dK| is an
    # exact difference, 0 or at least 2^-53 |dK|, so sin_part is 0 or above
    # 1e-8 |dK|. The two stretches make up a full turn, so only equal
    # terms leave neither site a cell, and then A takes it all.
    b_none, a_none = alpha >= math.pi
    np.copyto(to, np.inf, where=b_none | a_none)
    # pieces [a, c1), [c1, c2), [c2, e) owned by first, second, first
    first = np.where((to[1] < to[0]) | (a_none > b_none), B, A)
    n = len(a)
    start = np.empty((n, 3))
    start[:, 0] = a
    np.add(a, np.minimum(to[0], to[1]), out=start[:, 1])
    np.add(a, np.maximum(to[0], to[1]), out=start[:, 2])
    owner = np.empty((n, 3), dtype=A.dtype)
    owner[:, 0] = owner[:, 2] = first
    np.subtract(A + B, first, out=owner[:, 1])
    end = np.empty((n, 3))
    # fmin: a crossing that is NaN (terms that overflow) ends no piece, so
    # the first site keeps the interval
    np.fmin(start[:, 1:], e[:, None], out=end[:, :2])
    end[:, 2] = e
    keep = start < end
    start, owner = start[keep], owner[keep]
    new = np.empty(len(owner), dtype=bool)
    new[0] = True
    np.not_equal(owner[1:], owner[:-1], out=new[1:])
    return start[new], owner[new]


def _sinusoid_envelope(K, P, Q, lo: float, hi: float, m):
    """Lower envelopes of the sinusoids K_i + P_i cos t + Q_i sin t on
    [lo, hi], hi - lo <= 2 pi, of each set of consecutive sites in K, P, Q,
    m[r] sites in set r: (starts, owners) of the pieces, set after set, with
    owners indexing K; starts[0] of each set is lo, ties go to the lower
    index.

    Divide and conquer (Sharir & Agarwal, Davenport-Schinzel Sequences and
    Their Geometric Applications, 1995): two sinusoids of one frequency cross
    at most twice, so the envelope of k of them has at most 2k - 1 pieces.
    Site i of set r is numbered r * 2^w + i, with 2^w >= 2 and every set's
    size, and group g of level j holds numbers g * 2^j to (g + 1) * 2^j - 1,
    so a piece's group is its owner's number shifted right by j and no group
    spans two sets. Level 1 is each pair in closed form; each further level
    merges groups 2g and 2g + 1 of the last, all pairs of all sets in the
    same numpy calls: the piece starts of both are sorted together, each
    side's owner is carried forward over them, and each interval between
    two starts is split at the crossings of its two owners. Each of the
    ceil(log2 m) - 1 merge levels sorts O(m) starts per set (the groups'
    starts interleave, so they are no presorted runs), which makes
    O(m log^2 m) in all. A group with no partner, the last of a set with an
    odd number of groups or the only one of a set with fewer levels than
    the largest, passes through unchanged.
    """
    sets, most = len(m), int(m.max())
    width = max(most - 1, 1).bit_length()
    real = np.arange(1 << width) < m[:, None]  # which numbers are sites
    KPQ = np.zeros((6, sets << width))
    KPQ[:3, real.ravel()] = K, P, Q
    np.negative(KPQ[:3], out=KPQ[3:])
    # each pair of numbers 2i, 2i + 1 whose first is a site; a site without
    # a partner makes a pair of itself
    A = np.arange(0, sets << width, 2).reshape(sets, -1)[real[:, ::2]]
    B = A + real[:, 1::2][real[:, ::2]]
    a, e = np.empty((2, len(A)))
    a.fill(lo)
    e.fill(hi)
    start, owner = _split_pairs(a, e, A, B, KPQ)
    # set r has ((m[r] - 1) >> j) + 1 groups at level j, so bit j of paired
    # is set when every group of every set has a partner there
    paired = int(np.bitwise_and.reduce(m - 1))
    level = 1
    while most > 1 << level:
        grp = owner >> (level + 1)
        order = np.lexsort((start, grp))
        grp, start, owner = grp[order], start[order], owner[order]
        # the owners in force at each start; a merged group opens with both
        # sides' pieces at lo, so whatever is carried over from the group
        # before lands on the empty interval [lo, lo)
        at = np.arange(len(owner))
        on_right = at * ((owner >> level) & 1)
        own_a = owner[np.maximum.accumulate(at - on_right)]
        own_b = owner[np.maximum.accumulate(on_right)]
        # a group with no partner has no right half, so its right owner is
        # carried over from another group (or is piece 0's): it keeps its
        # pieces as they are
        if not paired >> level & 1:
            alone = own_b >> level != 2 * grp + 1
            np.copyto(own_b, own_a, where=alone)
        end = np.empty(len(start))
        end[:-1] = start[1:]
        end[:-1][grp[1:] != grp[:-1]] = hi
        end[-1] = hi
        start, owner = _split_pairs(start, end, own_a, own_b, KPQ)
        level += 1
    return start, (real.cumsum() - 1)[owner]


def _line_envelope(K, P, m):
    """Lower envelopes of the lines K_i + P_i t over all t, of each set of
    consecutive lines in K, P, m[r] lines in set r: arrays (starts, owners)
    of their pieces, set after set, each set's first start -inf and owners
    indexing K; one sort by set and slope, then a stack per set (point-line
    duality).

    The stack pops a line when the next line crosses it no later than it
    starts. A set where that never happens keeps every line but the
    parallel ones after the lowest, each starting where it crosses the one
    before it, and those crossings come from numpy with the stack's
    arithmetic, so the same bits. When in some set a crossing does not
    rise past the one before it (or is NaN), every set of the call goes
    through the stack, one line at a time."""
    set_of = np.arange(len(m)).repeat(m)
    # steepest ascent first; of parallel lines only the lowest can be on the
    # envelope, ties to the lower index
    order = np.lexsort((K, -P, set_of))
    ks, ps = K[order], P[order]
    head = np.empty(len(order), dtype=bool)  # each set's first line
    head[0] = True
    np.not_equal(set_of[1:], set_of[:-1], out=head[1:])
    # the lines the stack does not skip: each set's first and each whose
    # slope differs from the one before it
    kept = head.copy()
    kept[1:] |= ps[1:] != ps[:-1]
    kk, kp, kh = ks[kept], ps[kept], head[kept]
    start = np.empty(len(kk))
    with np.errstate(all="ignore"):  # as the stack's Python floats: inf, NaN, no warning
        np.divide(kk[1:] - kk[:-1], kp[:-1] - kp[1:], out=start[1:])
        start[kh] = -math.inf
        rises = start[1:] > start[:-1]
    rises |= kh[1:]
    if rises.all():
        return start, order[kept]
    starts, owners = _line_stack(ks.tolist(), ps.tolist(), order.tolist(), m)
    return np.array(starts), np.array(owners)


def _line_stack(ks, ps, sites, m):
    """The stack of _line_envelope on lines sorted as it sorts them, given
    as lists (K, P, site) of each set of consecutive lines, m[r] in set r:
    lists (starts, owners) of the envelope pieces, set after set."""
    starts, owners = [], []
    lo = 0
    for hi in m.cumsum().tolist():
        hull = []  # (K, P, start, site) of each envelope line so far, start ascending
        top_k = top_p = top_start = None  # those of hull[-1]
        for k, p, i in zip(ks[lo:hi], ps[lo:hi], sites[lo:hi]):
            if p == top_p:
                continue
            while hull:
                start = (k - top_k) / (top_p - p)
                if start > top_start:
                    break
                # the new line is below the top one from before the top's own
                # start on, so the top is nowhere lowest
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
    return starts, owners


def _reach(c: Curve, K, P, Q):
    """(d2, f): the squared distance from each site to c and the arc length
    of its nearest point on c, from the site's _envelope terms K, P, Q
    (any shape). The package's one nearest-point routine: the Voronoi cull
    (_owning_sites) passes the terms its envelope already has, and
    project_to_curve and the solver's _nearest on a constraint curve (the
    seeding snap) pass _envelope(c, xy)'s. The terms are written in
    the site's own frame, the difference to the segment's start or to the
    arc's center, so no large coordinates cancel, and d2 is a sum of
    squares: its root is within a few rounding units of that difference's
    length (or of the radius), so a point on c reads within rounding of it.

    On a segment f is the foot of the perpendicular, clamped to the ends.
    On an arc it is the site's angle about the center when that falls
    inside the arc's window, else the nearer end, the start on ties; the
    center itself, equally far from every point, maps to half the length."""
    length = c.length
    if isinstance(c, Segment):
        # the site lies -P / 2 along the segment from its start, -Q / 2 across
        f = np.minimum(np.maximum(-0.5 * P, 0.0), length)
        return (f + 0.5 * P) ** 2 + (0.5 * Q) ** 2, f
    # a site at radius rho about the center, at angle rel past theta0 ((P, Q)
    # points from it to the center) and gap from the arc's nearest point:
    # distance^2 = (r - rho)^2 + 4 r rho sin^2(gap / 2)
    r, rho = c.radius, np.sqrt(K)
    rel = np.mod(np.arctan2(Q, P) + (math.pi - c.theta0), TWO_PI)
    back, past = TWO_PI - rel, rel - (c.theta1 - c.theta0)  # to the start, past the end
    gap = np.maximum(np.minimum(back, past), 0.0)
    f = np.where(back <= past, 0.0, np.minimum(rel * r, length))
    f[(P == 0.0) & (Q == 0.0)] = 0.5 * length
    return (r - rho) ** 2 + (4.0 * r) * rho * np.sin(0.5 * gap) ** 2, f


def _owning_sites(c: Curve, K, P, Q) -> np.ndarray:
    """Which sites can own a piece of c: an (R, m) mask, shaped as the
    _envelope terms K, P, Q of R sets of m sites are.

    The distance from a curve point to its nearest site is 1-Lipschitz in
    arc length and at most d_i at site i's nearest point f_i, so it never
    exceeds B = max over t in [0, length] of min_i (d_i + |t - f_i|).
    Between consecutive sorted f_i that minimum is min(t + left, right - t),
    left a prefix minimum of d_i - f_i and right one of d_i + f_i from the
    other end, and it is never below that elsewhere, so B is exact. A site
    farther than B from the whole curve is nearest nowhere. It is dropped
    only when d^2 exceeds B^2 by more than 64 rounding units of the terms
    that the envelope compares, its own and those of any site within 2B of
    c, and no site of a set is dropped when one of the set's terms is not
    finite."""
    d2, f = _reach(c, K, P, Q)
    m, length = d2.shape[-1], c.length
    d = np.sqrt(d2)
    below, above = d - f, d + f
    # B's values at the ends of c, where the sites lie on one side only
    ends = np.maximum(above.min(axis=-1), length + below.min(axis=-1))
    top = d2.max(axis=-1)
    # stable: the merge sort that lexsort runs, not another sort's code;
    # each row into the flat arrays
    at = np.argsort(f, axis=-1, kind="stable") + np.arange(0, f.size, m)[:, None]
    left = np.minimum.accumulate(below.ravel()[at], axis=-1)
    right = np.minimum.accumulate(above.ravel()[at][..., ::-1], axis=-1)[..., ::-1]
    # min(t + left_k, right_k+1 - t) is at most the nearest-site distance at
    # every t, and equal to it between the k-th and k+1-th feet, so B is the
    # largest of its maxima over [0, length] and of the values at the ends
    to_lo, to_hi = left[..., :-1], right[..., 1:]
    inner = np.minimum(np.minimum(0.5 * (to_lo + to_hi), length + to_lo), to_hi)
    bound = np.maximum(inner.max(axis=-1), ends)
    # The envelope compares terms below (d + 2.5 span)^2 <= 2 d^2 + 12.5 span^2
    # for a site at distance d (|t| <= length on a segment, |cos t|, |sin t|
    # <= 1 on an arc): a site's against those of one within 2B
    span = length if isinstance(c, Segment) else c.radius
    e = 64.0 * sys.float_info.epsilon
    # a term that is not finite makes its d2 and the set's top inf or NaN,
    # so 0 top is NaN, and so is the reach of the set, which keeps every site
    reach = bound * bound * ((1.0 + 8.0 * e) / (1.0 - 2.0 * e)) + (
        32.0 * e / (1.0 - 2.0 * e) * span * span + 0.0 * top)
    return ~(d2 > reach[..., None])


def _envelopes(c: Curve, stack: np.ndarray):
    """The lower envelopes of the distance terms along c of every site set
    of the (R, m, 2) stack: arrays (starts, owners) of their pieces, set
    after set, starts in arc length and ascending within a set, and owner
    r * m + i site i of set r.

    Above CULL_ABOVE sites per set, each set's envelope is that of only the
    sites that _owning_sites keeps, so that its cost follows the sites near
    c rather than m; the kept sites of all sets still go through the same
    calls."""
    sets, m = stack.shape[:2]
    t0, scale, K, P, Q = _envelope(c, stack.reshape(-1, 2))
    kept, sizes = None, np.empty(sets, dtype=int)
    sizes.fill(m)
    if m > CULL_ABOVE:
        keep = _owning_sites(c, K.reshape(sets, m), P.reshape(sets, m), Q.reshape(sets, m))
        kept, sizes = keep.ravel().nonzero()[0], keep.sum(axis=1)
        K, P, Q = K[kept], P[kept], Q[kept]
    if isinstance(c, Segment):
        start, owner = _line_envelope(K, P, sizes)
    else:
        start, owner = _sinusoid_envelope(K, P, Q, t0, c.theta1, sizes)
        start = (start - t0) * scale
    return start, owner if kept is None else kept[owner]


def voronoi_breakpoints(c: Curve, stack: np.ndarray):
    """Voronoi pieces of c for each site set of stack, a nonempty (R, m, 2)
    array: arrays (s0, s1, owner), set after set. A set's pieces run
    between 0, its breakpoints (the arc lengths where the nearest site
    changes along c) and the curve length, so s1[:-1] of a stack of one,
    xy[None], are the breakpoints of xy. owner r * m + i is site i of set
    r, the nearest site at the piece's midpoint as the envelope has it, so
    that a Voronoi split needs no second nearest-site search. Anything
    else, a Point2 list or an (m, 2) array among them, raises ValueError.

    Exact, from the lower envelope of the per-site distance terms. On a
    segment they are lines, and the envelope comes from one sort by slope:
    when in every set the consecutive crossings rise, no line drops and
    they come from numpy, else (a line drops, or a crossing is NaN, from
    terms that overflow) every set goes through a stack. On an arc they
    are sinusoids of one frequency, any two of which cross at most twice,
    and the envelope comes from divide and conquer: pairs of site groups
    are merged level by level, each interval between two piece starts
    split at the crossings of its two owners. The
    first is O(k log k), the second O(k log^2 k), in the k sites that can
    own a piece of c: with more than CULL_ABOVE sites in a set, the
    envelope leaves out every site whose distance to c exceeds the bound B
    on the distance from any point of c to its nearest site (see
    _owning_sites) by more than rounding, so k is the number of sites near
    c rather than m; no owner changes, and a cut on an arc may move by a
    few rounding units of its angle. Of sites tied on a stretch the lower
    index wins, and on an arc a stretch where one term dips below another
    is an envelope piece however narrow. An envelope piece's start is a
    breakpoint when it lies more than 1e-12 of the curve length inside the
    curve and as far past the piece start before it. The envelopes of all
    R sets are built in the same calls (the lines sorted by set before
    slope, the sinusoid groups of every set merged together, each set with
    the sites it keeps), and each set's pieces are what it gives alone.
    """
    if not (isinstance(stack, np.ndarray) and stack.ndim == 3
            and stack.shape[2] == 2 and stack.size):
        raise ValueError("sites must be a nonempty (R, m, 2) array of site sets")
    length, m = c.length, stack.shape[1]
    start, who = _envelopes(c, stack)
    # on the curve: clipping keeps the order, and which midpoints a start
    # lies at or before
    start = np.minimum(np.maximum(start, 0.0), length)
    tol = PARAM_TOL * length
    first = np.empty(len(start), dtype=bool)  # each set's first piece
    first[0] = True
    np.not_equal(who[1:] // m, who[:-1] // m, out=first[1:])
    begin = first.copy()
    # more than tol past a clipped start, a start is more than tol past 0
    begin[1:] |= (start[1:] < length - tol) & (start[1:] - start[:-1] > tol)
    at = begin.nonzero()[0]
    s0 = start[at]
    s1 = np.concatenate((s0[1:], (length,)))
    s1[:-1][first[at[1:]]] = length  # each set's last piece ends the curve
    # the last envelope start at or before each piece's midpoint
    mid = 0.5 * (s0 + s1)
    below = np.where(start <= mid[begin.cumsum() - 1], np.arange(len(start)), 0)
    owner = who[np.maximum.reduceat(below, at)]
    return s0, s1, owner


def _h_minus_sin(h: np.ndarray) -> np.ndarray:
    """h - sin(h) for h >= 0; a Taylor series below 1, where the difference cancels."""
    h2 = h * h
    tail = np.ones_like(h)
    for k in (272, 210, 156, 110, 72, 42, 20):  # (2j)(2j + 1), j = 8 .. 2
        tail = 1.0 - h2 / k * tail
    return np.where(h < 1.0, h * h2 / 6.0 * tail, h - np.sin(h))


def _piece_sq(c: Curve, s0: np.ndarray, s1: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Closed-form integrals of |curve(s) - q|^2 over pieces [s0, s1] of c
    with sites q, shape (k,). Written in the site's own frame, so no large
    terms cancel on short pieces."""
    ds = s1 - s0
    if isinstance(c, Segment):
        u = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y]) / c.length
        a = q - np.array([c.p0.x, c.p0.y])
        foot = a @ u  # arc length of the site's projection onto the line
        off = a[:, 0] * u[1] - a[:, 1] * u[0]
        # (hi^3 - lo^3) / 3 factored: the sum is at least (hi^2 + lo^2) / 2,
        # so it does not cancel when the foot lies far off the piece
        hi, lo = s1 - foot, s0 - foot
        return off * off * ds + ds * (hi * hi + hi * lo + lo * lo) / 3.0
    r = c.radius
    half = 0.5 * ds / r
    mid = c.theta0 + 0.5 * (s0 + s1) / r
    # site at radius rho, angle psi about the center:
    # |curve - q|^2 = (r - rho)^2 + 4 r rho sin^2((theta - psi) / 2)
    a = q - np.array([c.center.x, c.center.y])
    rho = np.hypot(a[:, 0], a[:, 1])
    bend = np.sin(0.5 * (mid - np.arctan2(a[:, 1], a[:, 0])))
    return (r - rho) ** 2 * ds + 4.0 * r * r * rho * (
        _h_minus_sin(half) + 2.0 * np.sin(half) * bend * bend)


def _piece_moments(c: Curve, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Closed-form integrals of curve(s) over pieces [s0, s1] of c, shape (k, 2)."""
    ds = s1 - s0
    if isinstance(c, Segment):
        return ds[:, None] * _frame_array(c, 0.5 * (s0 + s1))[0]
    r = c.radius
    half = 0.5 * ds / r
    mid = c.theta0 + 0.5 * (s0 + s1) / r
    chord = 2.0 * r * r * np.sin(half)
    moment = np.empty((len(ds), 2))
    moment[:, 0] = ds * c.center.x + chord * np.cos(mid)
    moment[:, 1] = ds * c.center.y + chord * np.sin(mid)
    return moment


def _cell_state(measure: UniformCurveMeasure, stack: np.ndarray):
    """One Voronoi-split pass over an (R, m, 2) stack of site sets:
    (distortion, masses, cell position moments, pieces), one
    voronoi_breakpoints call per curve for all R sets.

    distortion is an (R,) array, masses an (R, m) array of cell
    probabilities and moments an (R, m, 2) array of arc-length integrals of
    the position over each cell. pieces holds, per curve of the measure,
    the (s1, owner) arrays of the pieces of each set in turn, owner
    r * m + i being site i of set r: s1[k] is the cut between owner[k] and
    owner[k + 1] where both are of one set. Each set's pieces are summed in
    piece order, curve after curve, whatever the other sets, so every
    result of a set is what the pass of that set alone gives, bit for bit.
    A single set passes as xy[None].
    """
    sets, m = stack.shape[:2]
    flat = stack.reshape(-1, 2)
    total = np.zeros(sets)
    lengths = np.zeros(sets * m)
    moments = np.zeros((sets * m, 2))
    pieces = []
    for c in measure.curves:
        s0, s1, owner = voronoi_breakpoints(c, stack)
        total += np.bincount(owner // m, _piece_sq(c, s0, s1, flat[owner]), minlength=sets)
        lengths += np.bincount(owner, s1 - s0, minlength=sets * m)
        np.add.at(moments, owner, _piece_moments(c, s0, s1))
        pieces.append((s1, owner))
    return (total * measure.density, (lengths * measure.density).reshape(sets, m),
            moments.reshape(sets, m, 2), pieces)


def distortion(measure: UniformCurveMeasure, sites) -> float:
    """Mean squared distance from the support to the nearest site.

    Exact: the support is split at the Voronoi breakpoints and the squared
    distance to each piece's site is integrated in closed form; no lengths
    or moments are integrated. The pieces of each curve are summed pairwise
    (ndarray.sum), not in the cell-state pass's piece order.
    """
    xy = _sites_array(sites)
    stack, total = xy[None], 0.0
    for c in measure.curves:
        s0, s1, owner = voronoi_breakpoints(c, stack)
        total += _piece_sq(c, s0, s1, xy[owner]).sum()
    return float(total * measure.density)


def voronoi_cell_stats(measure: UniformCurveMeasure, sites):
    """Per-site Voronoi cell mass and unnormalized position moment.

    Returns (masses, moments): masses is an (m,) probability vector and
    moments an (m, 2) array of arc-length integrals of the position over each
    cell, so moments[i] / (cell arc length) is the conditional mean. Both use
    exact piece lengths and closed-form moments, no quadrature.
    """
    _, masses, moments, _ = _cell_state(measure, _sites_array(sites)[None])
    return masses[0], moments[0]


def voronoi_masses(measure: UniformCurveMeasure, sites) -> list[float]:
    """Probability mass of each site's Voronoi cell on the support: the
    exact lengths of its pieces, and nothing else integrated."""
    xy = _sites_array(sites)
    stack, lengths = xy[None], np.zeros(len(xy))
    for c in measure.curves:
        s0, s1, owner = voronoi_breakpoints(c, stack)
        lengths += np.bincount(owner, s1 - s0, minlength=len(xy))
    return (lengths * measure.density).tolist()


def conditional_mean(measure: UniformCurveMeasure, sites, site_index: int) -> Point2:
    """Mean of the measure restricted to the indexed site's Voronoi cell;
    DegenerateCellError if that cell is empty (mass 0.0)."""
    masses, moments = voronoi_cell_stats(measure, sites)
    mass = masses[site_index]
    if mass == 0.0:
        raise DegenerateCellError(f"cell {site_index} has zero mass")
    cell_length = mass * measure.total_length
    return Point2(float(moments[site_index, 0] / cell_length),
                  float(moments[site_index, 1] / cell_length))


def project_to_curve(c: Curve, p: Point2) -> float:
    """Arc-length parameter of the point on c closest to p (see _reach)."""
    return float(_reach(c, *_envelope(c, np.array([[p.x, p.y]]))[2:])[1][0])
