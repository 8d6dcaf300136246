"""The scenario registry and the canonical measures and problems behind it.

`SCENARIOS` names every worked scenario exactly once, with what each command
uses of it, so the solver, the closed forms and the command line agree on
what "semicircle" or "exam1" means. `GALLERY` is the verify subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from curvequant import closed_form as cf
from curvequant.allocation import Allocation, semicircle_allocate, triangle_allocate
from curvequant.geometry import Arc, Point2, Segment, UniformCurveMeasure
from curvequant.solver import CurveConstraint, FreePlane, Problem

LINE_HALF_WIDTH = 40.0

# the unit interval and the paper's lines over it, exam1's y = x/4 + 1/4 and
# exam2's y = x + 4, built once (a sweep row must not rebuild them)
UNIT_INTERVAL = cf.IntervalScenario(0.0, 1.0, 0.0, 1.0)
EXAM1_LINE = cf.LineConstraintScenario(0.0, 1.0, 0.25, 0.25)
EXAM2_LINE = cf.LineConstraintScenario(0.0, 1.0, 1.0, 4.0)


def interval_measure(a: float = 0.0, b: float = 1.0) -> UniformCurveMeasure:
    return UniformCurveMeasure((Segment(Point2(a, 0.0), Point2(b, 0.0)),))


def semicircle_measure() -> UniformCurveMeasure:
    return UniformCurveMeasure((
        Segment(Point2(-1.0, 0.0), Point2(1.0, 0.0)),
        Arc(Point2(0.0, 0.0), 1.0, 0.0, math.pi),
    ))


TRIANGLE_VERTICES = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, math.sqrt(3.0) / 2.0))


def triangle_measure() -> UniformCurveMeasure:
    o, a, b = TRIANGLE_VERTICES
    return UniformCurveMeasure((Segment(o, a), Segment(a, b), Segment(b, o)))


def line_segment(m: float, c: float) -> Segment:
    """The stretch |x| <= LINE_HALF_WIDTH of the line y = m*x + c."""
    return Segment(Point2(-LINE_HALF_WIDTH, m * -LINE_HALF_WIDTH + c),
                   Point2(LINE_HALF_WIDTH, m * LINE_HALF_WIDTH + c))


# ---------------------------------------------------------------------------
# problems


def interval_free_problem(n: int, beta: tuple[Point2, ...] = ()) -> Problem:
    return Problem(interval_measure(), (FreePlane(),), n, beta=beta)


def interval_left_problem(n: int) -> Problem:
    return interval_free_problem(n, beta=(Point2(0.0, 0.0),))


def interval_right_problem(n: int) -> Problem:
    return interval_free_problem(n, beta=(Point2(1.0, 0.0),))


def interval_interior_problem(n: int) -> Problem:
    return interval_free_problem(n, beta=(Point2(0.0, 0.0), Point2(1.0, 0.0)))


def interval_support_problem(n: int, beta: tuple[Point2, ...] = ()) -> Problem:
    """Points constrained to the support segment itself (sandwich scenarios)."""
    measure = interval_measure()
    return Problem(measure, (CurveConstraint(measure.curves[0]),), n, beta=beta)


def semicircle_problem(n: int) -> Problem:
    measure = semicircle_measure()
    constraints = tuple(CurveConstraint(c) for c in measure.curves)
    return Problem(measure, constraints, n, beta=(Point2(-1.0, 0.0), Point2(1.0, 0.0)))


def triangle_problem(n: int) -> Problem:
    measure = triangle_measure()
    constraints = tuple(CurveConstraint(c) for c in measure.curves)
    return Problem(measure, constraints, n, beta=TRIANGLE_VERTICES)


def line_problem(n: int, m: float, c: float, beta: tuple[Point2, ...] = ()) -> Problem:
    return Problem(interval_measure(), (CurveConstraint(line_segment(m, c)),), n, beta=beta)


def exam1_problem(n: int) -> Problem:
    """Shallow line y = x/4 + 1/4 with the origin forced: n line points + beta."""
    return line_problem(n + 1, EXAM1_LINE.m, EXAM1_LINE.c, beta=(Point2(0.0, 0.0),))


def exam2_problem(n: int) -> Problem:
    """Steep line y = x + 4 with the origin forced; degenerate for n >= 2."""
    return line_problem(n, EXAM2_LINE.m, EXAM2_LINE.c, beta=(Point2(0.0, 0.0),))


def offset_beta_problem(n_free: int) -> Problem:
    """Free points on [0,1] with beta just off the support at (0, 1/100)."""
    return Problem(interval_measure(), (FreePlane(),), n_free + 1,
                   beta=(Point2(0.0, 0.01),))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Scenario:
    """What each command uses of one scenario; None where it uses nothing.

    closed_form(n, *, a, b, c, d, m, intercept, n1) takes the `closed-form`
    options; sweep(n) gives a sweep row's (error, alloc column); build,
    config and n_range give `verify` its problem, optimum and range of n.
    """

    closed_form: Callable[..., cf.ClosedFormResult] | None = None
    sweep: Callable[[int], tuple[float, str]] | None = None
    build: Callable[[int], Problem] | None = None
    config: Callable[[int], tuple[Point2, ...]] | None = None
    n_range: tuple[int, int] | None = None


def _interval_interior(n: int, *, a, b, c, d, **_) -> cf.ClosedFormResult:
    return cf.interval_interior(n, cf.IntervalScenario(a, b, a if c is None else c,
                                                       b if d is None else d))


def _line_constraint(n: int, *, a, b, m, intercept, **_) -> cf.ClosedFormResult:
    if m is None or intercept is None:
        raise ValueError("line-constraint needs --m and --intercept")
    return cf.line_constraint_optimal(n, cf.LineConstraintScenario(a, b, m, intercept))


def _semicircle(n: int, *, n1=None, **_) -> cf.ClosedFormResult:
    return cf.semicircle_conditional(n, semicircle_allocate(n).parts[0] if n1 is None else n1)


def _allocated(alloc: Allocation) -> tuple[float, str]:
    return alloc.objective, "+".join(str(p) for p in alloc.parts)


def _triangle_config(n: int) -> tuple[Point2, ...]:
    # the sliver optimum at n = 4, 5, where the published set is only critical
    if n in (4, 5):
        return cf.triangle_sliver(n).points
    return cf.triangle_conditional(n).points


# in `closed-form --help` order; `sweep` lists its names in this order too
SCENARIOS: dict[str, Scenario] = {
    "interval-left": Scenario(
        closed_form=lambda n, *, a, b, **_: cf.interval_left_endpoint(n, a, b),
        sweep=lambda n: (cf.interval_endpoint_error(n, 0.0, 1.0), ""),
        build=interval_left_problem, n_range=(1, 10),
        config=lambda n: cf.interval_left_endpoint(n, 0.0, 1.0).points),
    "interval-right": Scenario(
        closed_form=lambda n, *, a, b, **_: cf.interval_right_endpoint(n, a, b),
        sweep=lambda n: (cf.interval_endpoint_error(n, 0.0, 1.0), ""),
        build=interval_right_problem, n_range=(1, 10),
        config=lambda n: cf.interval_right_endpoint(n, 0.0, 1.0).points),
    "interval-interior": Scenario(
        closed_form=_interval_interior,
        sweep=lambda n: (cf.interval_interior_error(n, UNIT_INTERVAL), ""),
        build=interval_interior_problem, n_range=(2, 10),
        config=lambda n: cf.interval_interior(n, UNIT_INTERVAL).points),
    "line-constraint": Scenario(closed_form=_line_constraint),
    "line-shallow": Scenario(
        build=lambda n: line_problem(n, EXAM1_LINE.m, EXAM1_LINE.c), n_range=(1, 10),
        config=lambda n: cf.line_constraint_optimal(n, EXAM1_LINE).points),
    "line-steep": Scenario(
        build=lambda n: line_problem(n, EXAM2_LINE.m, EXAM2_LINE.c), n_range=(1, 10),
        config=lambda n: cf.line_constraint_optimal(n, EXAM2_LINE).points),
    "semicircle": Scenario(
        closed_form=_semicircle,
        sweep=lambda n: _allocated(semicircle_allocate(n)),
        build=semicircle_problem, n_range=(3, 12),
        config=lambda n: _semicircle(n).points),
    "triangle": Scenario(
        closed_form=lambda n, **_: cf.triangle_conditional(n),
        sweep=lambda n: _allocated(triangle_allocate(n)),
        build=triangle_problem, n_range=(3, 12),
        config=_triangle_config),
    "exam1": Scenario(
        closed_form=lambda n, **_: cf.exam1_conditional(n),
        sweep=lambda n: (cf.exam1_published_error(n), ""),
        build=exam1_problem, n_range=(3, 10),
        config=lambda n: cf.exam1_conditional(n).points),
    "exam2": Scenario(
        sweep=lambda n: (cf.line_constraint_published_error(n, EXAM2_LINE), "")),
}

GALLERY = {name: s for name, s in SCENARIOS.items() if s.build is not None}
