"""Optimal quantization of uniform measures on unions of plane curves.

The public surface: geometry primitives and exact distortion integrals,
closed-form optimal configurations for intervals, constraint lines, the
half-disk boundary and the equilateral triangle, integer allocation of
points across support components, a multistart solver by bounded Newton
descent on the exact Hessian, with existence and sandwich checks, limit
estimation from error sequences, and an SVG renderer. The ``curvequant``
command line wraps all of it.
"""

from curvequant.allocation import (
    Allocation,
    semicircle_allocate,
    triangle_allocate,
)
from curvequant.asymptotics import (
    AsymptoticsReport,
    ErrorSequence,
    build_report,
    estimate_coefficient,
    estimate_dimension,
    estimate_v_infinity,
)
from curvequant.closed_form import (
    ClosedFormResult,
    IntervalScenario,
    LineConstraintScenario,
    exam1_conditional,
    interval_interior,
    interval_left_endpoint,
    interval_right_endpoint,
    line_constraint_optimal,
    semicircle_conditional,
    semicircle_error,
    triangle_conditional,
    triangle_error,
    triangle_split,
)
from curvequant.geometry import (
    Arc,
    Point2,
    Segment,
    UniformCurveMeasure,
    distortion,
    voronoi_masses,
)
from curvequant.render import render_svg
from curvequant.solver import (
    CurveConstraint,
    ExistenceReport,
    FreePlane,
    PointSetConstraint,
    Problem,
    Quantizer,
    SandwichReport,
    SolverOptions,
    TaggedPoint,
    density_gap,
    existence_check,
    sandwich_check,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Arc",
    "AsymptoticsReport",
    "ClosedFormResult",
    "CurveConstraint",
    "ErrorSequence",
    "ExistenceReport",
    "FreePlane",
    "IntervalScenario",
    "LineConstraintScenario",
    "Point2",
    "PointSetConstraint",
    "Problem",
    "Quantizer",
    "SandwichReport",
    "Segment",
    "SolverOptions",
    "TaggedPoint",
    "UniformCurveMeasure",
    "build_report",
    "density_gap",
    "distortion",
    "estimate_coefficient",
    "estimate_dimension",
    "estimate_v_infinity",
    "exam1_conditional",
    "existence_check",
    "interval_interior",
    "interval_left_endpoint",
    "interval_right_endpoint",
    "line_constraint_optimal",
    "render_svg",
    "sandwich_check",
    "semicircle_allocate",
    "semicircle_conditional",
    "semicircle_error",
    "solve",
    "triangle_allocate",
    "triangle_conditional",
    "triangle_error",
    "triangle_split",
    "voronoi_masses",
]
