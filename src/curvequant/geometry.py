"""Plane curves, uniform measures on them, and exact Voronoi-split integrals.

Supports are finite unions of segments and circular arcs, parametrized by
arc length. Distortion integrals against a finite site set are computed by
splitting every curve at its exact Voronoi breakpoints and integrating the
squared distance to each piece's site in closed form.
"""

from __future__ import annotations

import math
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
    x, y = _eval_array(c, np.array([s]))[0]
    return Point2(float(x), float(y))


def sq_dist(p: Point2, q: Point2) -> float:
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def _eval_array(c: Curve, s: np.ndarray) -> np.ndarray:
    """Vectorized curve_eval without range checks; returns an (k, 2) array."""
    if isinstance(c, Segment):
        length = curve_length(c)
        t = s / length
        x = c.p0.x + t * (c.p1.x - c.p0.x)
        y = c.p0.y + t * (c.p1.y - c.p0.y)
    else:
        ang = c.theta0 + s / c.radius
        x = c.center.x + c.radius * np.cos(ang)
        y = c.center.y + c.radius * np.sin(ang)
    return np.stack([x, y], axis=-1)


def _tangent_array(c: Curve, s: np.ndarray) -> np.ndarray:
    """Unit tangent of c at each arc length in s, an (k, 2) array."""
    if isinstance(c, Segment):
        u = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y]) / curve_length(c)
        return np.broadcast_to(u, (len(s), 2))
    ang = c.theta0 + s / c.radius
    return np.stack([-np.sin(ang), np.cos(ang)], axis=-1)


def _sites_array(sites) -> np.ndarray:
    """Sites as an (m, 2) float array; an array passes through unchanged."""
    if len(sites) == 0:
        raise ValueError("site list must be nonempty")
    if isinstance(sites, np.ndarray):
        return sites
    return np.array([(p.x, p.y) for p in sites], dtype=float)


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


def _nearest(c: Curve, t: np.ndarray, K, P, Q) -> np.ndarray:
    """Index of the nearest site at each envelope parameter t; ties to the
    lower index."""
    x, y = (t, np.zeros_like(t)) if isinstance(c, Segment) else (np.cos(t), np.sin(t))
    return np.argmin(K + x[:, None] * P + y[:, None] * Q, axis=1)


def _downward_crossings(c: Curve, t: float, dK, dP, dQ):
    """First parameter >= t where each site's term falls below the owner's
    (inf if never), and the slope of the difference there. dK, dP, dQ are
    coefficients minus the owner's, so the owner itself never crosses."""
    root = np.full(len(dK), np.inf)
    if isinstance(c, Segment):
        down = dP < 0.0
        root[down] = np.maximum(-dK[down] / dP[down], t)
        return root, dP
    # dK + r cos(t - phi) is negative on (phi + alpha, phi + 2 pi - alpha)
    r = np.hypot(dP, dQ)
    h2 = (r - dK) * (r + dK)
    sin_part = np.sqrt(np.maximum(h2, 0.0))
    alpha = np.arctan2(sin_part, -dK)
    # a negative stretch narrower than 2 * PARAM_TOL is no cell; a root a
    # hair behind t (roundoff at a crossing just taken) still counts as t
    down = (h2 > 0.0) & (alpha < math.pi - PARAM_TOL)
    ahead = np.mod(np.arctan2(dQ, dP) + alpha - t + PARAM_TOL, TWO_PI) - PARAM_TOL
    root[down] = t + np.maximum(ahead[down], 0.0)
    return root, -sin_part


def voronoi_breakpoints(c: Curve, sites) -> list[float]:
    """Arc-length values where the nearest-site index changes along c.

    Exact: marches along the lower envelope of the per-site distance terms
    (lines on a segment, sinusoids on an arc), from each owner to the
    earliest parameter where another site's term crosses below its own; of
    the sites crossing there the steepest wins, ties to the lower index.
    Curve endpoints are excluded and breakpoints within 1e-12 are merged.
    sites is a sequence of Point2 or an (m, 2) array.
    """
    length = curve_length(c)
    t0, scale, K, P, Q = _envelope(c, _sites_array(sites))
    owner = int(_nearest(c, np.array([t0]), K, P, Q)[0])
    t = t0
    out: list[float] = []
    while True:
        root, slope = _downward_crossings(c, t, K - K[owner], P - P[owner], Q - Q[owner])
        t = float(root.min())
        s = (t - t0) * scale
        if s >= length - PARAM_TOL:
            return out
        owner = int(np.argmin(np.where(root <= t + PARAM_TOL, slope, np.inf)))
        if s > PARAM_TOL and not (out and s - out[-1] <= PARAM_TOL):
            out.append(s)


def _pieces(c: Curve, sites_xy: np.ndarray):
    """Split c at its breakpoints: arrays (s0, s1, owner), one entry per piece."""
    cuts = np.array([0.0, *voronoi_breakpoints(c, sites_xy), curve_length(c)])
    s0, s1 = cuts[:-1], cuts[1:]
    t0, scale, K, P, Q = _envelope(c, sites_xy)
    return s0, s1, _nearest(c, t0 + 0.5 * (s0 + s1) / scale, K, P, Q)


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
        return sq, ds[:, None] * _eval_array(c, 0.5 * (s0 + s1))
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
    """One Voronoi-split pass: (distortion, masses, cell position moments).

    masses is an (m,) probability vector and moments an (m, 2) array of
    arc-length integrals of the position over each cell.
    """
    m = len(sites_xy)
    total = 0.0
    lengths = np.zeros(m)
    moments = np.zeros((m, 2))
    for c in measure.curves:
        s0, s1, owner = _pieces(c, sites_xy)
        sq, mom = _piece_integrals(c, s0, s1, sites_xy[owner])
        total += float(sq.sum())
        lengths += np.bincount(owner, s1 - s0, minlength=m)
        np.add.at(moments, owner, mom)
    return total * measure.density, lengths * measure.density, moments


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
    _, masses, moments = _cell_state(measure, _sites_array(sites))
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
    length = curve_length(c)
    if isinstance(c, Segment):
        vx, vy = c.p1.x - c.p0.x, c.p1.y - c.p0.y
        t = ((p.x - c.p0.x) * vx + (p.y - c.p0.y) * vy) / (vx * vx + vy * vy)
        return min(max(t, 0.0), 1.0) * length
    dx, dy = p.x - c.center.x, p.y - c.center.y
    if dx == 0.0 and dy == 0.0:
        return 0.5 * length
    phi = math.atan2(dy, dx)
    rel = (phi - c.theta0) % TWO_PI
    if rel <= c.theta1 - c.theta0:
        return rel * c.radius
    # outside the angular window: nearer endpoint wins
    e0 = curve_eval(c, 0.0)
    e1 = curve_eval(c, length)
    return 0.0 if sq_dist(p, e0) <= sq_dist(p, e1) else length


def _project_array(c: Curve, xy: np.ndarray) -> np.ndarray:
    """Vectorized project_to_curve over the rows of an (k, 2) array."""
    length = curve_length(c)
    if isinstance(c, Segment):
        v = np.array([c.p1.x - c.p0.x, c.p1.y - c.p0.y])
        t = (xy - (c.p0.x, c.p0.y)) @ v / (v @ v)
        return np.clip(t, 0.0, 1.0) * length
    d = xy - (c.center.x, c.center.y)
    rel = np.mod(np.arctan2(d[:, 1], d[:, 0]) - c.theta0, TWO_PI)
    # outside the angular window: nearer endpoint wins
    ends = _eval_array(c, np.array([0.0, length]))
    to_end = ((xy[:, None, :] - ends[None, :, :]) ** 2).sum(axis=2)
    s = np.where(rel <= c.theta1 - c.theta0, rel * c.radius,
                 np.where(to_end[:, 0] <= to_end[:, 1], 0.0, length))
    s[(d == 0.0).all(axis=1)] = 0.5 * length
    return s
