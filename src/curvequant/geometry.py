"""Plane curves, uniform measures on them, and exact Voronoi-split integrals.

Supports are finite unions of segments and circular arcs, parametrized by
arc length. Distortion integrals against a finite site set are computed by
splitting every curve at its exact Voronoi breakpoints and integrating the
squared distance to each piece's site in closed form. The breakpoints are
those of the lower envelope of the per-site squared distances: on a segment
a family of lines, whose envelope comes from one sort by slope in
O(m log m); on an arc a family of sinusoids of one frequency, any two of
which cross at most twice, whose envelope comes from divide and conquer in
O(m log^2 m): site pairs in closed form, then groups merged pairwise level
by level, every merge of a level in the same numpy calls, each level one
sort of its O(m) piece starts. Both envelopes know the site that owns
each of their pieces, and voronoi_breakpoints(..., owners=True) hands those
owners to the cell-state pass along with the cuts, so no nearest-site
search follows. Both also take a stack of site sets at once: the lines
are sorted by set before slope, and the sinusoid groups of every set are
merged in the same numpy calls, so that one cell-state pass serves a whole
batch of the solver's candidates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

PARAM_TOL = 1e-12

TWO_PI = 2.0 * math.pi


class DegenerateCellError(ValueError):
    """A Voronoi cell that was asked for carries (numerically) zero mass."""


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

    def __post_init__(self):
        if self.p0.x == self.p1.x and self.p0.y == self.p1.y:
            raise ValueError("segment endpoints must differ")


@dataclass(frozen=True)
class Arc:
    """Circular arc traversed counterclockwise from theta0 to theta1."""

    center: Point2
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("arc radius must be positive and finite")
        # at most one full turn, so arc length is unambiguous
        if not (self.theta0 < self.theta1 <= self.theta0 + TWO_PI):
            raise ValueError("need theta0 < theta1 <= theta0 + 2*pi")


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
        total = sum(curve_length(c) for c in curves)
        if not 0.0 < total < math.inf:
            raise ValueError("measure needs a positive, finite total length")
        # a subnormal total length has no finite inverse
        if not 1.0 / total < math.inf:
            raise ValueError(f"measure's total length {total!r} is too small for a finite density")
        object.__setattr__(self, "total_length", total)
        object.__setattr__(self, "density", 1.0 / total)


def curve_length(c: Curve) -> float:
    if isinstance(c, Segment):
        return math.hypot(c.p1.x - c.p0.x, c.p1.y - c.p0.y)
    return c.radius * (c.theta1 - c.theta0)


def curve_eval(c: Curve, s: float) -> Point2:
    """Unit-speed point on c at arc length s, with s in [0, length]."""
    length = curve_length(c)
    slack = PARAM_TOL * max(1.0, length)
    if s < -slack or s > length + slack:
        raise ValueError(f"arc-length parameter {s} outside [0, {length}]")
    s = min(max(s, 0.0), length)
    x, y = _frame_array(c, np.array([s]))[0][0]
    return Point2(float(x), float(y))


def _frame_array(c: Curve, s: np.ndarray):
    """Points and unit tangents of c at the arc lengths in the 1-D array s,
    without range checks: two (k, 2) arrays. The one point evaluation of the
    package: curve_eval, seeds, descent sites and moments all take it."""
    if isinstance(c, Segment):
        length = curve_length(c)
        d = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y])
        return ((c.p0.x, c.p0.y) + (s / length)[:, None] * d,
                np.repeat((d / length)[None], len(s), axis=0))
    ang = c.theta0 + s / c.radius
    cos, sin = np.cos(ang), np.sin(ang)
    return (np.stack([c.center.x + c.radius * cos, c.center.y + c.radius * sin], axis=-1),
            np.stack([-sin, cos], axis=-1))


def _sites_array(sites) -> np.ndarray:
    """Sites as an (m, 2) float array; an array (an (R, m, 2) stack too)
    passes through unchanged."""
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
    angle t on an arc; arc length is (t - t0) * scale."""
    if isinstance(c, Segment):
        a = np.array([c.p0.x, c.p0.y]) - sites_xy
        u = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y]) / curve_length(c)
        t0, scale, P, Q = 0.0, 1.0, 2.0 * (a @ u), np.zeros(len(a))
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
    # a stretch narrower than 2 * PARAM_TOL where one term dips below the
    # other is no cell. The two stretches make up a full turn, so only
    # equal terms leave neither site a cell, and then A takes it all.
    b_none, a_none = alpha >= math.pi - PARAM_TOL
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
    np.minimum(start[:, 1:], e[:, None], out=end[:, :2])
    end[:, 2] = e
    keep = start < end
    start, owner = start[keep], owner[keep]
    new = np.empty(len(owner), dtype=bool)
    new[0] = True
    np.not_equal(owner[1:], owner[:-1], out=new[1:])
    return start[new], owner[new]


def _sinusoid_envelope(K, P, Q, lo: float, hi: float, m: int):
    """Lower envelopes of the sinusoids K_i + P_i cos t + Q_i sin t on
    [lo, hi], hi - lo <= 2 pi, of each set of m consecutive sites in K, P,
    Q: (starts, owners) of the pieces, set after set, with owners indexing
    K; starts[0] of each set is lo, ties go to the lower index.

    Divide and conquer (Sharir & Agarwal, Davenport-Schinzel Sequences and
    Their Geometric Applications, 1995): two sinusoids of one frequency cross
    at most twice, so the envelope of k of them has at most 2k - 1 pieces.
    Site i of set r is numbered r * 2^w + i, with 2^w >= m, and group g of
    level j holds numbers g * 2^j to (g + 1) * 2^j - 1, so a piece's group
    is its owner's number shifted right by j and no group spans two sets.
    Level 1 is each pair in closed form; each further level merges groups
    2g and 2g + 1 of the last, all pairs of all sets in the same numpy
    calls: the piece starts of both are sorted together, each side's owner
    is carried forward over them, and each interval between two starts is
    split at the crossings of its two owners. Each of the ceil(log2 m) - 1
    merge levels sorts O(m) starts per set (the groups' starts interleave,
    so they are no presorted runs), which makes O(m log^2 m) in all.
    """
    sets, width = len(K) // m, (m - 1).bit_length()
    KPQ = np.zeros((6, sets, 1 << width))  # np.pad would cost more than the whole setup
    KPQ[:, :, :m] = np.array([K, P, Q, -K, -P, -Q]).reshape(6, sets, m)
    KPQ = KPQ.reshape(6, -1)
    first = (np.arange(sets) << width)[:, None]
    pair = np.arange(0, m, 2)
    A, B = (first + pair).ravel(), (first + np.minimum(pair + 1, m - 1)).ravel()
    start, owner = _split_pairs(np.full(len(A), lo), np.full(len(A), hi), A, B, KPQ)
    level = 1
    while m > 1 << level:
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
        if not ((m - 1) >> level) & 1:  # the last group of a set has no partner
            alone = grp & ((1 << (width - level - 1)) - 1) == (m - 1) >> (level + 1)
            own_b[alone] = own_a[alone]
        end = np.empty(len(start))
        end[:-1] = start[1:]
        end[:-1][grp[1:] != grp[:-1]] = hi
        end[-1] = hi
        start, owner = _split_pairs(start, end, own_a, own_b, KPQ)
        level += 1
    return start, (owner >> width) * m + (owner & ((1 << width) - 1))


def _line_envelope(K, P, m: int):
    """Lower envelopes of the lines K_i + P_i t over all t, of each set of m
    consecutive lines in K, P: flat lists (starts, owners) of their pieces,
    set after set, each set's first start -inf and owners counted within
    the set, and the index in them where each set's pieces end; one sort by
    set and slope, then a stack per set (point-line duality)."""
    # steepest ascent first; of parallel lines only the lowest can be on the
    # envelope, ties to the lower index
    order = np.lexsort((K, -P, np.arange(len(K)) // m))
    ks, ps, sites = K[order].tolist(), P[order].tolist(), (order % m).tolist()
    starts, owners, ends = [], [], []
    for lo in range(0, len(K), m):
        hull = []  # (K, P, start, site) of each envelope line so far, start ascending
        top_k = top_p = top_start = None  # those of hull[-1]
        for k, p, i in zip(ks[lo:lo + m], ps[lo:lo + m], sites[lo:lo + m]):
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
        ends.append(len(starts))
    return starts, owners, ends


def _cuts(starts: list, lo: int, hi: int, length: float) -> list:
    """Cuts in (0, length) from an envelope's ascending piece starts in arc
    length, starts[lo:hi], dropping cuts within 1e-12 of an endpoint or of
    the cut before."""
    kept = []
    for s in starts[bisect_right(starts, PARAM_TOL, lo, hi):
                    bisect_left(starts, length - PARAM_TOL, lo, hi)]:
        if not kept or s - kept[-1] > PARAM_TOL:
            kept.append(s)
    return kept


def _envelopes(c: Curve, stack: np.ndarray):
    """The lower envelopes of the distance terms along c of every site set
    of the (R, m, 2) stack: flat lists (starts, owners) of their pieces, set
    after set, starts in arc length and ascending within a set and owners
    counted within it, and the index in them where each set's pieces end."""
    sets, m = stack.shape[:2]
    t0, scale, K, P, Q = _envelope(c, stack.reshape(-1, 2))
    if isinstance(c, Segment):
        return _line_envelope(K, P, m)
    start, owner = _sinusoid_envelope(K, P, Q, t0, c.theta1, m)
    ends = np.cumsum(np.bincount(owner // m, minlength=sets)).tolist()
    return ((start - t0) * scale).tolist(), (owner % m).tolist(), ends


def voronoi_breakpoints(c: Curve, sites, *, owners: bool = False):
    """Arc-length values where the nearest-site index changes along c.

    Exact, from the lower envelope of the per-site distance terms. On a
    segment they are lines, and the envelope comes from one sort by slope
    plus a stack. On an arc they are sinusoids of one frequency, any two of
    which cross at most twice, and the envelope comes from divide and
    conquer: pairs of site groups are merged level by level, each interval
    between two piece starts split at the crossings of its two owners. The
    first is O(m log m), the second O(m log^2 m). Of sites tied on a
    stretch the lower index wins, and a stretch narrower than 2e-12 where
    one term dips below another is no cell. Curve endpoints are excluded
    and breakpoints within 1e-12 are merged. sites is a sequence of Point2
    or an (m, 2) array.

    Returns the breakpoints as a list. With owners=True it returns
    (cuts, owners): the same list, and a list of the index of the nearest
    site on each of the len(cuts) + 1 pieces between 0, the cuts and the
    curve length, read off the envelope, so that a Voronoi split needs no
    second nearest-site search.

    sites may also be an (R, m, 2) stack of R site sets. All their
    envelopes are then built in the same calls (the lines sorted by set
    before slope, the sinusoid groups of every set merged together), and
    the result is a list of R entries, each what its set alone gives.
    """
    length = curve_length(c)
    xy = _sites_array(sites)
    starts, who, ends = _envelopes(c, xy if xy.ndim == 3 else xy[None])
    out = []
    for lo, hi in zip([0, *ends], ends):
        cuts = _cuts(starts, lo, hi, length)
        if not owners:
            out.append(cuts)
            continue
        # the envelope's owner at the midpoint of each piece between the cuts
        bounds = [0.0, *cuts, length]
        out.append((cuts, [who[bisect_right(starts, 0.5 * (s0 + s1), lo, hi) - 1]
                           for s0, s1 in zip(bounds, bounds[1:])]))
    return out if xy.ndim == 3 else out[0]


def _pieces(c: Curve, sites_xy: np.ndarray):
    """Split c at its breakpoints: arrays (s0, s1, owner), one entry per
    piece. For an (R, m, 2) stack the pieces of each site set follow one
    another, and owner r * m + i is site i of set r."""
    length = curve_length(c)
    if sites_xy.ndim == 2:
        sites_xy = sites_xy[None]
    s0, s1, owner, count = [], [], [], []
    for cuts, who in voronoi_breakpoints(c, sites_xy, owners=True):
        s0 += [0.0, *cuts]
        s1 += [*cuts, length]
        owner += who
        count.append(len(who))
    m = sites_xy.shape[1]
    return (np.array(s0), np.array(s1),
            np.array(owner) + np.repeat(np.arange(0, m * len(count), m), count))


def _h_minus_sin(h: np.ndarray) -> np.ndarray:
    """h - sin(h) for h >= 0; a Taylor series below 1, where the difference cancels."""
    h2 = h * h
    tail = np.ones_like(h)
    for k in (272, 210, 156, 110, 72, 42, 20):  # (2j)(2j + 1), j = 8 .. 2
        tail = 1.0 - h2 / k * tail
    return np.where(h < 1.0, h * h2 / 6.0 * tail, h - np.sin(h))


def _piece_integrals(c: Curve, s0: np.ndarray, s1: np.ndarray, q: np.ndarray):
    """Closed-form integrals of |curve(s) - q|^2, shape (k,), and of curve(s),
    shape (k, 2), over pieces [s0, s1] of c with sites q. Each is written in
    the site's own frame, so no large terms cancel on short pieces."""
    ds = s1 - s0
    if isinstance(c, Segment):
        u = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y]) / curve_length(c)
        a = q - np.array([c.p0.x, c.p0.y])
        foot = a @ u  # arc length of the site's projection onto the line
        off = a[:, 0] * u[1] - a[:, 1] * u[0]
        sq = off * off * ds + ((s1 - foot) ** 3 - (s0 - foot) ** 3) / 3.0
        return sq, ds[:, None] * _frame_array(c, 0.5 * (s0 + s1))[0]
    r = c.radius
    half = 0.5 * ds / r
    mid = c.theta0 + 0.5 * (s0 + s1) / r
    center = np.array([c.center.x, c.center.y])
    chord = 2.0 * r * r * np.sin(half)
    moment = np.outer(ds, center) + chord[:, None] * np.stack([np.cos(mid), np.sin(mid)], axis=1)
    # site at radius rho, angle psi about the center:
    # |curve - q|^2 = (r - rho)^2 + 4 r rho sin^2((theta - psi) / 2)
    a = q - center
    rho = np.hypot(a[:, 0], a[:, 1])
    bend = np.sin(0.5 * (mid - np.arctan2(a[:, 1], a[:, 0])))
    sq = (r - rho) ** 2 * ds + 4.0 * r * r * rho * (
        _h_minus_sin(half) + 2.0 * np.sin(half) * bend * bend)
    return sq, moment


def _cell_state(measure: UniformCurveMeasure, sites_xy: np.ndarray):
    """One Voronoi-split pass: (distortion, masses, cell position moments,
    pieces).

    masses is an (m,) probability vector and moments an (m, 2) array of
    arc-length integrals of the position over each cell. pieces holds, per
    curve of the measure, the (s1, owner) arrays of its pieces: s1[k] for
    k < last is the cut between owner[k] and owner[k + 1].

    For an (R, m, 2) stack of site sets the pass serves all R in one
    voronoi_breakpoints call per curve: distortion is then an (R,) array,
    masses (R, m) and moments (R, m, 2), and pieces lists the pieces of
    each set in turn, owner r * m + i being site i of set r. Masses,
    moments and pieces equal those of R single passes; a distortion may
    differ from its single pass by the order of summation.
    """
    sets, m = (1, len(sites_xy)) if sites_xy.ndim == 2 else sites_xy.shape[:2]
    flat = sites_xy.reshape(-1, 2)
    total = 0.0
    lengths = np.zeros(sets * m)
    moments = np.zeros((sets * m, 2))
    pieces = []
    for c in measure.curves:
        s0, s1, owner = _pieces(c, sites_xy)
        sq, mom = _piece_integrals(c, s0, s1, flat[owner])
        # one set sums as numpy does, so that a single pass keeps its bits
        total += sq.sum() if sets == 1 else np.bincount(owner // m, sq, minlength=sets)
        lengths += np.bincount(owner, s1 - s0, minlength=sets * m)
        np.add.at(moments, owner, mom)
        pieces.append((s1, owner))
    d, masses = total * measure.density, lengths * measure.density
    if sites_xy.ndim == 2:
        return float(d), masses, moments, pieces
    return np.reshape(d, sets), masses.reshape(sets, m), moments.reshape(sets, m, 2), pieces


def distortion(measure: UniformCurveMeasure, sites) -> float:
    """Mean squared distance from the support to the nearest site.

    Exact: the support is split at the Voronoi breakpoints and the squared
    distance to each piece's site is integrated in closed form.
    """
    return _cell_state(measure, _sites_array(sites))[0]


def voronoi_cell_stats(measure: UniformCurveMeasure, sites):
    """Per-site Voronoi cell mass and unnormalized position moment.

    Returns (masses, moments): masses is an (m,) probability vector and
    moments an (m, 2) array of arc-length integrals of the position over each
    cell, so moments[i] / (cell arc length) is the conditional mean. Both use
    exact piece lengths and closed-form moments, no quadrature.
    """
    _, masses, moments, _ = _cell_state(measure, _sites_array(sites))
    return masses, moments


def voronoi_masses(measure: UniformCurveMeasure, sites) -> list[float]:
    """Probability mass of each site's Voronoi cell on the support."""
    masses, _ = voronoi_cell_stats(measure, sites)
    return [float(v) for v in masses]


def conditional_mean(measure: UniformCurveMeasure, sites, site_index: int) -> Point2:
    """Mean of the measure restricted to the indexed site's Voronoi cell."""
    masses, moments = voronoi_cell_stats(measure, sites)
    mass = masses[site_index]
    if mass <= 1e-12:
        raise DegenerateCellError(f"cell {site_index} has zero mass")
    cell_length = mass * measure.total_length
    return Point2(float(moments[site_index, 0] / cell_length),
                  float(moments[site_index, 1] / cell_length))


def project_to_curve(c: Curve, p: Point2) -> float:
    """Arc-length parameter of the point on c closest to p."""
    return float(_project_array(c, np.array([[p.x, p.y]]))[0])


def _project_array(c: Curve, xy: np.ndarray) -> np.ndarray:
    """Arc-length parameter of the point on c closest to each row of the
    (k, 2) array xy. On a segment the foot of the perpendicular, clamped to
    the ends; on an arc the angle of the row about the center when it falls
    inside the arc's window, else the nearer end (the start on ties), and
    half the length for the center itself."""
    length = curve_length(c)
    if isinstance(c, Segment):
        v = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y])
        t = (xy - (c.p0.x, c.p0.y)) @ v / (v @ v)
        return np.clip(t, 0.0, 1.0) * length
    d = xy - (c.center.x, c.center.y)
    rel = np.mod(np.arctan2(d[:, 1], d[:, 0]) - c.theta0, TWO_PI)
    p0, p1 = _frame_array(c, np.array([0.0, length]))[0]
    e0, e1 = (xy - p0) ** 2, (xy - p1) ** 2  # summed by column: a length-2 .sum is slow
    nearer0 = e0[:, 0] + e0[:, 1] <= e1[:, 0] + e1[:, 1]
    s = np.where(rel <= c.theta1 - c.theta0, rel * c.radius, np.where(nearer0, 0.0, length))
    s[(d == 0.0).all(axis=1)] = 0.5 * length
    return s
