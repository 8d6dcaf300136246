"""Static SVG rendering of quantizer configurations.

Pure string construction: identical inputs produce byte-identical output,
which the CLI's determinism contract relies on.
"""

from __future__ import annotations

import math

import numpy as np

from curvequant.geometry import (
    Curve,
    Point2,
    Segment,
    UniformCurveMeasure,
    _frame_array,
    voronoi_breakpoints,
)

# pixels across the drawing's longer side, margins aside: a support of any
# size is drawn at this size
SIZE = 400.0
MARGIN = 20.0
POINT_RADIUS = 4.0
BREAK_RADIUS = 2.5

_KIND_FILL = {"beta": "#c0392b", "constrained": "#2471a3", "free": "#1e8449"}


def _fmt(v: float) -> str:
    return f"{round(v, 2):.2f}"


def _bounds(measure: UniformCurveMeasure, sites: np.ndarray):
    xy = np.concatenate([_frame_array(c, c.length * np.arange(257) / 256)[0]
                         for c in measure.curves] + [sites])
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


class _Mapper:
    def __init__(self, min_x, max_x, min_y, max_y):
        self.min_x = min_x
        self.max_y = max_y
        dx, dy = max_x - min_x, max_y - min_y
        self.scale = SIZE / max(dx, dy)
        self.width = dx * self.scale + 2 * MARGIN
        self.height = dy * self.scale + 2 * MARGIN
        if not math.isfinite(self.width + self.height):
            raise ValueError("the drawing's extent overflows double precision")
        # the breakpoints drawn compare squared distances across the drawing
        if not math.isfinite(dx * dx + dy * dy):
            raise ValueError("the squared distances across the drawing overflow double precision")

    def __call__(self, xy: np.ndarray) -> list[list[float]]:
        """Drawing coordinates of the plane points in the (k, 2) array xy."""
        return np.stack([(xy[:, 0] - self.min_x) * self.scale + MARGIN,
                         (self.max_y - xy[:, 1]) * self.scale + MARGIN], axis=1).tolist()


def _curve(c: Curve, to, sites: np.ndarray) -> tuple[str, list]:
    """The SVG element of a curve, and the drawn Voronoi breakpoints of the
    sites on it, which come from one evaluation along c with an arc's ends.
    A span over pi is drawn in two halves, so that no piece ends where it
    starts (full circles included) and none spans over pi."""
    at = voronoi_breakpoints(c, sites[None])[1][:-1] if len(sites) else np.empty(0)
    if isinstance(c, Segment):
        (x0, y0), (x1, y1) = to(np.array([(c.p0.x, c.p0.y), (c.p1.x, c.p1.y)]))
        return (f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                'stroke="#444444" stroke-width="2" fill="none"/>'), to(_frame_array(c, at)[0])
    ends = c.length * np.array([0.0, 0.5, 1.0] if c.theta1 - c.theta0 > math.pi
                               else [0.0, 1.0])
    (x, y), *drawn = to(_frame_array(c, np.concatenate([ends, at]))[0])
    r, k = c.radius * to.scale, len(ends) - 1
    # counterclockwise in plane coordinates is sweep=0 after the y-flip; the
    # large-arc flag is 0, since no piece spans over pi
    d = " ".join([f"M {_fmt(x)} {_fmt(y)}"]
                 + [f"A {_fmt(r)} {_fmt(r)} 0 0 0 {_fmt(xe)} {_fmt(ye)}" for xe, ye in drawn[:k]])
    return f'<path d="{d}" stroke="#444444" stroke-width="2" fill="none"/>', drawn[k:]


def render_svg(measure: UniformCurveMeasure, points: list[tuple[str, Point2]]) -> str:
    """SVG document for a support + tagged quantizer points.

    points is a list of (kind, position); kind picks the fill color. The
    Voronoi breakpoints of the configuration are drawn as hollow circles on
    the support. The drawing is fitted to SIZE pixels on its longer side,
    whatever the size of the support. Raises ValueError when the extent
    of the drawing, or its square, overflows double precision.
    """
    sites = np.array([(p.x, p.y) for _, p in points], float).reshape(-1, 2)
    mapper = _Mapper(*_bounds(measure, sites))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" '
        f'viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    breaks = []
    for c in measure.curves:
        path, drawn = _curve(c, mapper, sites)
        lines.append(path)
        breaks += drawn
    for x, y in breaks:
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(BREAK_RADIUS)}" stroke="#999999" '
                     'stroke-width="1" fill="none"/>')
    for (kind, _), (x, y) in zip(points, mapper(sites)):
        fill = _KIND_FILL.get(kind, "#333333")
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(POINT_RADIUS)}" fill="{fill}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
