"""Closed-form optimal quantizers: intervals, a constraining line, the
half-circle boundary, and the equilateral triangle.

Each configuration function returns the explicit points together with the
published distortion expression for them. Each family that covers every n
also has an error-only function that evaluates that expression without
building points, for one n or an array of n (interval_interior_error,
interval_endpoint_error, line_constraint_published_error, semicircle_error,
triangle_split/triangle_error, exam1_breakpoint/exam1_published_error); the
configuration function calls it, so every formula exists once. The exact
distortions of the two line families whose published error is an
extrapolated polynomial (line_constraint_exact_error, exam1_exact_error)
take one n or an array of n too. A Python int n gives Python numbers and
stays a Python int inside the formula, so its powers never wrap. An
integer array of n (up to COLUMN_MAX) gives arrays whose every element
equals the one-n result bit for bit: the same operations run in the same
order, and a float power goes through np.float_power, since `**` on a
float64 array takes a vectorized pow that can differ from Python's in the
last bit. Each docstring says whether its points are an optimum or only
the published configuration: the published equal-spacing triangle sets
are critical points but not optima at n = 4, 5 (triangle_sliver gives the
optimum there), and some error fields are extrapolated polynomials (see
the per-scenario notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from curvequant.geometry import Point2, _h_minus_sin

SQRT3 = math.sqrt(3.0)

# largest n an array may hold: up to here exam1's 3n^3 + 18n^2 and every
# other integer power in the formulas stay exact in int64
COLUMN_MAX = 2**20


def _counts(n, least: int, message: str):
    """n checked against its smallest admissible value: a Python int as it
    is, an array as int64, which must also stay within COLUMN_MAX."""
    if not isinstance(n, np.ndarray):
        if n < least:
            raise ValueError(message)
        return n
    n = n.astype(np.int64, copy=False)
    if n.size and n.min() < least:
        raise ValueError(message)
    if n.size and n.max() > COLUMN_MAX:
        raise ValueError(f"an array of counts must stay <= {COLUMN_MAX}")
    return n


def _out(value):
    """A float64 array stays one; a scalar result becomes a Python float."""
    return value if np.ndim(value) else float(value)


@dataclass(frozen=True)
class IntervalScenario:
    """Uniform law on [a, b] with a distinguished subinterval [c, d]."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not (self.a <= self.c < self.d <= self.b):
            raise ValueError("need a <= c < d <= b")


@dataclass(frozen=True)
class LineConstraintScenario:
    """Uniform law on [a, b] x {0}, quantizer points confined to the line
    y = m*x + c. The closed forms hold for any window along the line that
    holds their points, so no window is modelled."""

    a: float
    b: float
    m: float
    c: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")


@dataclass(frozen=True)
class ClosedFormResult:
    points: tuple[Point2, ...]
    error: float
    allocation: tuple[int, ...] | None = None


def interval_interior_error(m, scen: IntervalScenario):
    """Distortion of interval_interior(m, scen), at one m or an array of m."""
    m = _counts(m, 2, "interior placement needs m >= 2")
    return _out((scen.d - scen.c) ** 3 / (12.0 * (scen.b - scen.a) * (m - 1) ** 2))


def interval_interior(m: int, scen: IntervalScenario) -> ClosedFormResult:
    """m points on [c, d] including both ends, error against uniform [a, b]."""
    error = interval_interior_error(m, scen)
    step = (scen.d - scen.c) / (m - 1)
    points = tuple(Point2(scen.c + (j - 1) * step, 0.0) for j in range(1, m + 1))
    return ClosedFormResult(points, error)


def interval_endpoint_error(n, a: float, b: float):
    """Distortion of interval_left_endpoint(n, a, b) and of its translate
    interval_right_endpoint(n, a, b), at one n or an array of n."""
    if a >= b:
        raise ValueError("need a < b")
    n = _counts(n, 1, "need n >= 1")
    return _out((b - a) ** 2 / (3.0 * (2 * n - 1) ** 2))


def interval_left_endpoint(n: int, a: float, b: float) -> ClosedFormResult:
    """Optimal n points on [a, b] when a itself must be one of them."""
    error = interval_endpoint_error(n, a, b)
    step = 2.0 * (b - a) / (2 * n - 1)
    points = tuple(Point2(a + (j - 1) * step, 0.0) for j in range(1, n + 1))
    return ClosedFormResult(points, error)


def interval_right_endpoint(n: int, a: float, b: float) -> ClosedFormResult:
    """Mirror of interval_left_endpoint: the right endpoint b is forced.

    Equals the left-endpoint configuration translated by (b-a)/(2n-1).
    """
    base = interval_left_endpoint(n, a, b)
    shift = (b - a) / (2 * n - 1)
    points = tuple(Point2(p.x + shift, 0.0) for p in base.points)
    return ClosedFormResult(points, base.error)


def _line_floor(scen: LineConstraintScenario) -> float:
    # mean squared distance from the support to the line itself
    a, b, m, c = scen.a, scen.b, scen.m, scen.c
    mm1 = 1.0 + m * m
    if m == 0.0:
        return c * c / mm1
    num = (m * b + c) ** 3 - (m * a + c) ** 3
    return num / (3.0 * m * (b - a) * mm1)


def line_constraint_published_error(n, scen: LineConstraintScenario):
    """Published error of line_constraint_optimal(n, scen), at one n or an
    array of n.

    The two- and three-point expressions are exact, and the general-n
    polynomial is the published extrapolation of them (exact whenever
    m = 0; for n = 1 the orthogonal-decomposition value is used since no
    published expression covers it). line_constraint_exact_error gives the
    true distortion.
    """
    n = _counts(n, 1, "need n >= 1")
    a, b, m, c = scen.a, scen.b, scen.m, scen.c
    mm1 = 1.0 + m * m
    one = _line_floor(scen) + (b - a) ** 2 / (12.0 * mm1)
    two = (a * a * (16 * m * m + 1) + 2 * a * b * (8 * m * m - 1) + 48 * a * c * m
           + b * b * (16 * m * m + 1) + 48 * b * c * m + 48 * c * c) / (48.0 * mm1)
    general = (-48 * (a - b) ** 2 * m * m
               + (a - b) * (a - b + 72 * c * m + 8 * (11 * a - 2 * b) * m * m) * n
               - 12 * (a - b) * m * (5 * c + (4 * a + b) * m) * n * n
               + 12 * (c + a * m) ** 2 * n ** 3) / (12.0 * mm1 * n ** 3)
    return _out(np.where(n == 1, one, np.where(n == 2, two, general)))


def line_constraint_optimal(n: int, scen: LineConstraintScenario) -> ClosedFormResult:
    """Optimal n points on the line y = m*x + c for uniform [a, b] x {0}.

    The point abscissas are exact optima for every n. The error field carries
    the published closed-form value, line_constraint_published_error.
    """
    error = line_constraint_published_error(n, scen)
    a, b, m, c = scen.a, scen.b, scen.m, scen.c
    mm1 = 1.0 + m * m
    xs = [(2 * i - 1) * (b - a) / (2 * n * mm1) + (a - c * m) / mm1 for i in range(1, n + 1)]
    points = tuple(Point2(x, m * x + c) for x in xs)
    return ClosedFormResult(points, error)


def line_constraint_exact_error(n, scen: LineConstraintScenario):
    """True distortion of the line_constraint_optimal configuration, at one
    n or an array of n.

    Orthogonal decomposition: squared distance to a line point splits into
    the fixed distance-to-line part plus a one-dimensional n-means problem
    along the line, giving floor + (b-a)^2 / (12 (1+m^2) n^2).
    """
    n = _counts(n, 1, "need n >= 1")
    return _out(_line_floor(scen)
                + (scen.b - scen.a) ** 2 / (12.0 * (1.0 + scen.m ** 2) * n * n))


def semicircle_error(n1, n2):
    """Distortion on the closed half-disk boundary with n1 diameter points
    and n2 arc points, endpoints shared, all equally spaced; n1 and n2 may
    be counts or arrays of counts.

    The published arc term 3 pi - 6k sin(pi/(2k)), k = n2 - 1, is evaluated
    as 6k (x - sin x) with x = pi/(2k), which does not cancel as k grows.
    """
    message = "need n1 >= 2 and n2 >= 2"
    n1, n2 = _counts(n1, 2, message), _counts(n2, 2, message)
    k = n2 - 1
    return _out((2.0 / (3.0 * (2.0 + math.pi))) * (
        1.0 / (n1 - 1) ** 2 + 6.0 * k * _h_minus_sin(math.pi / (2.0 * k))))


def semicircle_conditional(n: int, n1: int) -> ClosedFormResult:
    """Optimal n points on the half-disk boundary with n1 on the diameter.

    The two corner points (+-1, 0) count toward both the diameter and the
    arc, so the arc receives n - n1 + 2 points of which n - n1 are interior.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 2 <= n1 <= n:
        raise ValueError("need 2 <= n1 <= n")
    n2 = n - n1 + 2
    points = [Point2(-1.0 + 2.0 * (j - 1) / (n1 - 1), 0.0) for j in range(1, n1 + 1)]
    for j in range(2, n2):
        ang = (j - 1) * math.pi / (n2 - 1)
        points.append(Point2(math.cos(ang), math.sin(ang)))
    return ClosedFormResult(tuple(points), semicircle_error(n1, n2), (n1, n2))


def triangle_error(n1, n2, n3):
    """Distortion for an equilateral unit triangle with nj points per side
    (vertices shared between adjacent sides); counts or arrays of counts."""
    n1, n2, n3 = (_counts(nj, 2, "all side counts must be >= 2") for nj in (n1, n2, n3))
    return _out((1.0 / 36.0) * (
        1.0 / (n1 - 1) ** 2 + 1.0 / (n2 - 1) ** 2 + 1.0 / (n3 - 1) ** 2))


def triangle_split(n):
    """Per-side counts (vertices double-counted) that balance the three sides:
    (k + 1, k + 1, k + 1) plus one on the first r sides, n = 3k + r. For an
    array of n, a tuple of three arrays."""
    n = _counts(n, 3, "need n >= 3")
    k, r = divmod(n, 3)
    return (k + 1 + (r >= 1), k + 1 + (r == 2), k + 1)


def triangle_conditional(n: int) -> ClosedFormResult:
    """Published equal-spacing n points on the unit equilateral triangle.

    The three vertices are forced, and each side carries equally spaced
    points in the triangle_split counts. This is the optimum for n = 3 and
    agrees with the solver for n = 6..12. At n = 4 and 5 it is only a
    critical point: triangle_sliver beats it.

    Sides are traversed (0,0)->(1,0)->(1/2, sqrt3/2)->(0,0); each side
    contributes its equally spaced points minus the shared far vertex, so
    exactly n distinct points come back.
    """
    n1, n2, n3 = triangle_split(n)
    points: list[Point2] = []
    for x in (j / (n1 - 1) for j in range(n1 - 1)):
        points.append(Point2(x, 0.0))
    for x in (j / (n2 - 1) for j in range(n2 - 1)):
        points.append(Point2(-x / 2.0 + 1.0, SQRT3 * x / 2.0))
    for x in (j / (n3 - 1) for j in range(n3 - 1)):
        points.append(Point2(-x / 2.0 + 0.5, -SQRT3 * x / 2.0 + SQRT3 / 2.0))
    return ClosedFormResult(tuple(points), triangle_error(n1, n2, n3), (n1, n2, n3))


# distance from A = (1, 0) of the extra point on side OA in triangle_sliver:
# the root in (0, 1/2) of 5 h^2 - 16 h + 6
TRIANGLE_SLIVER_H = (8.0 - math.sqrt(34.0)) / 5.0


def triangle_sliver(n: int) -> ClosedFormResult:
    """Optimal n = 4 and n = 5 points on the unit equilateral triangle.

    Vertices O = (0,0), A = (1,0), B = (1/2, sqrt3/2) are forced. For n = 4
    the extra point P sits on OA at distance h from A. Measured from A along
    AB, P owns the sliver [h, T] with T = (1 - h^2) / (2 - h), so for
    0 < h <= 1/2 the distortion is

        D(h) = [((1-h)^3 + h^3)/12 + AB(h) + 1/12] / 3,
        AB(h) = h^3/3 + int_h^T (h^2 - h t + t^2) dt + (1 - T)^3/3,

    with D'(h) proportional to (2h - 1)(5h^2 - 16h + 6). Its minimum is at
    h* = (8 - sqrt34)/5 (TRIANGLE_SLIVER_H), where
    V_4 = (101 - 17 sqrt34)/30 < 1/16. By symmetry this is the best place
    for one extra point. For n = 5 the midpoint of BO, the side the sliver
    does not touch, is added, which lowers the error by 1/48:
    V_5 = (803 - 136 sqrt34)/240 < 1/24. The solver and the first-order
    condition agree on this set, but whether it is the global optimum at
    n = 5 is not settled here. Any other n raises ValueError.
    """
    if n not in (4, 5):
        raise ValueError("the sliver configuration covers n = 4 and n = 5 only")
    points = [Point2(0.0, 0.0), Point2(1.0 - TRIANGLE_SLIVER_H, 0.0),
              Point2(1.0, 0.0), Point2(0.5, SQRT3 / 2.0)]
    error = (101.0 - 17.0 * math.sqrt(34.0)) / 30.0
    if n == 5:
        points.append(Point2(0.25, SQRT3 / 4.0))
        error -= 1.0 / 48.0
    return ClosedFormResult(tuple(points), error)


def exam1_conditional(n: int) -> ClosedFormResult:
    """Conditional quantizer for uniform [0,1] x {0} with the origin forced
    and n further points confined to the line y = x/4 + 1/4.

    Returns n + 1 points total, indexed the way the published formulas are:
    the error field carries the published V_{n+1} expression,
    exam1_published_error; exam1_exact_error gives the true distortion of
    the same configuration.
    """
    error = exam1_published_error(n)
    d = exam1_breakpoint(n)
    points = [Point2(0.0, 0.0)]
    for i in range(1, n + 1):
        x = -(8.0 * d * (2 * i - 2 * n - 1) - 16.0 * i + n + 8.0) / (17.0 * n)
        points.append(Point2(x, x / 4.0 + 0.25))
    return ClosedFormResult(tuple(points), error)


def exam1_published_error(n):
    """Published V_{n+1} of exam1_conditional(n), an extrapolated polynomial
    in n and the breakpoint d, at one n or an array of n; exam1_exact_error
    gives the true distortion."""
    n = _counts(n, 3, "need n >= 3")
    d = exam1_breakpoint(n)
    return _out(np.float_power(d, 3) / 3.0 + (
        d * d * (3 * n ** 3 - 12 * n ** 2 + 26 * n - 12)
        + 2 * d * (3 * n ** 3 - 3 * n ** 2 - 8 * n + 12)
        + 3 * n ** 3 + 18 * n ** 2 - 10 * n - 12
    ) / (51.0 * n ** 3))


def exam1_breakpoint(n):
    """Boundary d between the forced origin's cell and the line points' cells,
    at one n or an array of n."""
    n = _counts(n, 1, "need n >= 1")
    return _out((n * n + n * np.sqrt(17.0 * n * n + 52.0) - 4.0) / (16.0 * n * n - 4.0))


def exam1_exact_error(n):
    """True distortion of the exam1_conditional configuration, at one n or
    an array of n.

    Splits at d: the origin owns [0, d), the line points quantize the
    pushforward of [d, 1] at the one-dimensional n-means rate.
    """
    n = _counts(n, 1, "need n >= 1")
    d = exam1_breakpoint(n)
    return _out(np.float_power(d, 3) / 3.0 + (8.0 - np.float_power(1.0 + d, 3)) / 51.0
                + (4.0 / 51.0) * np.float_power(1.0 - d, 3) / (n * n))
