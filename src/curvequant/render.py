"""Static SVG rendering of quantizer configurations.

Pure string construction: identical inputs produce byte-identical output,
which the CLI's determinism contract relies on.
"""

from __future__ import annotations

import math

import numpy as np

from curvequant.geometry import (
    Arc,
    Point2,
    Segment,
    UniformCurveMeasure,
    _frame_array,
    curve_eval,
    curve_length,
    voronoi_breakpoints,
)

SCALE = 200.0
MARGIN = 20.0
POINT_RADIUS = 4.0
BREAK_RADIUS = 2.5

_KIND_FILL = {"beta": "#c0392b", "constrained": "#2471a3", "free": "#1e8449"}


def _fmt(v: float) -> str:
    v = round(v, 2)
    if v == 0.0:
        v = 0.0
    return f"{v:.2f}"


def _bounds(measure: UniformCurveMeasure, pts: list[Point2]):
    xy = np.concatenate([_frame_array(c, curve_length(c) * np.arange(257) / 256)[0]
                         for c in measure.curves]
                        + [np.array([(p.x, p.y) for p in pts]).reshape(-1, 2)])
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


class _Mapper:
    def __init__(self, min_x, max_x, min_y, max_y):
        self.min_x = min_x
        self.max_y = max_y
        self.width = (max_x - min_x) * SCALE + 2 * MARGIN
        self.height = (max_y - min_y) * SCALE + 2 * MARGIN

    def __call__(self, p: Point2) -> tuple[float, float]:
        return ((p.x - self.min_x) * SCALE + MARGIN,
                (self.max_y - p.y) * SCALE + MARGIN)


def _segment_path(seg: Segment, to) -> str:
    x0, y0 = to(seg.p0)
    x1, y1 = to(seg.p1)
    return (f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            'stroke="#444444" stroke-width="2" fill="none"/>')


def _arc_path(arc: Arc, to) -> str:
    # split spans over pi so endpoints never coincide (full circles included)
    span = arc.theta1 - arc.theta0
    if span > math.pi:
        mid = arc.theta0 + span / 2.0
        spans = [(arc.theta0, mid), (mid, arc.theta1)]
    else:
        spans = [(arc.theta0, arc.theta1)]
    r = arc.radius * SCALE
    d_parts = []
    first = Point2(arc.center.x + arc.radius * math.cos(spans[0][0]),
                   arc.center.y + arc.radius * math.sin(spans[0][0]))
    x, y = to(first)
    d_parts.append(f"M {_fmt(x)} {_fmt(y)}")
    for t0, t1 in spans:
        end = Point2(arc.center.x + arc.radius * math.cos(t1),
                     arc.center.y + arc.radius * math.sin(t1))
        xe, ye = to(end)
        large = 1 if (t1 - t0) > math.pi else 0
        # counterclockwise in plane coordinates is sweep=0 after the y-flip
        d_parts.append(f"A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(xe)} {_fmt(ye)}")
    return (f'<path d="{" ".join(d_parts)}" stroke="#444444" stroke-width="2" '
            'fill="none"/>')


def render_svg(measure: UniformCurveMeasure, points: list[tuple[str, Point2]]) -> str:
    """SVG document for a support + tagged quantizer points.

    points is a list of (kind, position); kind picks the fill color. The
    Voronoi breakpoints of the configuration are drawn as hollow circles on
    the support.
    """
    sites = [p for _, p in points]
    mapper = _Mapper(*_bounds(measure, sites))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(mapper.width)}" height="{_fmt(mapper.height)}" '
        f'viewBox="0 0 {_fmt(mapper.width)} {_fmt(mapper.height)}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for c in measure.curves:
        if isinstance(c, Segment):
            lines.append(_segment_path(c, mapper))
        else:
            lines.append(_arc_path(c, mapper))
    if sites:
        for c in measure.curves:
            for s in voronoi_breakpoints(c, sites):
                x, y = mapper(curve_eval(c, s))
                lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                             f'r="{_fmt(BREAK_RADIUS)}" stroke="#999999" '
                             'stroke-width="1" fill="none"/>')
    for kind, p in points:
        x, y = mapper(p)
        fill = _KIND_FILL.get(kind, "#333333")
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                     f'r="{_fmt(POINT_RADIUS)}" fill="{fill}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
