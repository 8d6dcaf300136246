"""Numerical solver for conditional constrained quantization on curve
measures.

Candidate quantizers carry a fixed conditional part (beta), points confined
to constraint sets, and free points. Each multi-start run alternates exact
Voronoi-cell statistics with centroid (free) or projected-centroid
(constrained) updates, then the best run gets a golden-section polish over
its constraint parameters. Degenerate (zero-mass) points are reported, not
dropped: several scenarios hinge on detecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from curvequant import closed_form as cf
from curvequant.allocation import semicircle_allocate
from curvequant.geometry import (
    Arc,
    Curve,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state as _exact_state,
    curve_eval,
    curve_length,
    distortion,
    project_to_curve,
    voronoi_masses,
)

MASS_TOL = 1e-5
_MATCH_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CurveConstraint:
    curve: Curve


@dataclass(frozen=True)
class PointSetConstraint:
    points: tuple[Point2, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("point-set constraint must be nonempty")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class FreePlane:
    pass


ConstraintSet = CurveConstraint | PointSetConstraint | FreePlane


@dataclass(frozen=True)
class Problem:
    measure: UniformCurveMeasure
    constraints: tuple[ConstraintSet, ...]
    n: int
    beta: tuple[Point2, ...] = ()
    order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "beta", tuple(self.beta))
        if not self.constraints:
            raise ValueError("need at least one constraint set")
        if self.order != 2:
            raise ValueError("only order 2 is supported")
        if self.n < len(self.beta):
            raise ValueError("n must be at least the conditional count")
        if self.n < 1:
            raise ValueError("need n >= 1")


@dataclass(frozen=True)
class TaggedPoint:
    """Quantizer point with its provenance tag.

    kind is "beta", "constrained" or "free"; constrained points carry the
    constraint index and the arc-length parameter (member index for
    point-set constraints).
    """

    kind: str
    point: Point2
    constraint_index: int | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in ("beta", "constrained", "free"):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if self.kind == "constrained" and (self.constraint_index is None or self.s is None):
            raise ValueError("constrained points need constraint_index and s")


@dataclass(frozen=True)
class Quantizer:
    points: tuple[TaggedPoint, ...]
    distortion: float
    masses: tuple[float, ...]
    converged: bool
    degenerate_points: tuple[int, ...]


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 16
    rng_seed: int = 42
    param_tol: float = 1e-10
    max_iters: int = 10_000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.param_tol <= 0:
            raise ValueError("param_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class ExistenceReport:
    exists_with_n_points: bool
    witness: Quantizer


@dataclass(frozen=True)
class SandwichReport:
    v_n: float
    v_cond_n: float
    v_n_minus_l: float
    holds: bool


# ---------------------------------------------------------------------------
# candidates


def _points_xy(tagged) -> np.ndarray:
    return np.array([(tp.point.x, tp.point.y) for tp in tagged], dtype=float)


def _check_candidate(problem: Problem, candidate) -> None:
    if len(candidate) > problem.n:
        raise ValueError("candidate has more points than the target count")
    fixed = [tp.point for tp in candidate if tp.kind == "beta"]
    for b in problem.beta:
        if not any(p.x == b.x and p.y == b.y for p in fixed):
            raise ValueError(f"candidate is missing the conditional point {b}")
    for tp in candidate:
        if tp.kind != "constrained":
            continue
        cons = problem.constraints[tp.constraint_index]
        if isinstance(cons, CurveConstraint):
            if not -1e-12 <= tp.s <= curve_length(cons.curve) + 1e-12:
                raise ValueError("constraint parameter out of range")
        elif isinstance(cons, PointSetConstraint):
            if not 0 <= int(tp.s) < len(cons.points):
                raise ValueError("point-set member index out of range")


def evaluate(problem: Problem, candidate) -> tuple[float, list[float]]:
    """Distortion and Voronoi masses of a tagged candidate (beta included)."""
    _check_candidate(problem, candidate)
    sites = [tp.point for tp in candidate]
    return distortion(problem.measure, sites), voronoi_masses(problem.measure, sites)


def lloyd_step(problem: Problem, candidate) -> list[TaggedPoint]:
    """Move every positive-mass free point to its cell mean; zero-mass free
    points are left in place (they are the degeneracy signal)."""
    _check_candidate(problem, candidate)
    sites_xy = _points_xy(candidate)
    _, masses, moments = _exact_state(problem.measure, sites_xy)
    out = []
    for i, tp in enumerate(candidate):
        if tp.kind != "free" or masses[i] <= 1e-12:
            out.append(tp)
            continue
        cell_len = masses[i] * problem.measure.total_length
        out.append(TaggedPoint("free", Point2(moments[i, 0] / cell_len,
                                              moments[i, 1] / cell_len)))
    return out


# ---------------------------------------------------------------------------
# seeding


def _curve_constraints(problem):
    return [(i, c.curve) for i, c in enumerate(problem.constraints)
            if isinstance(c, CurveConstraint)]


def _free_problem(problem) -> bool:
    return any(isinstance(c, FreePlane) for c in problem.constraints)


def _spread_over_curves(curves, count, rng):
    """Stratified arc-length placement over a concatenated curve list."""
    lengths = [curve_length(c) for _, c in curves]
    total = sum(lengths)
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) * (total / count)
    out = []
    for v in u:
        k = min(int(np.searchsorted(bounds, v, side="right")) - 1, len(curves) - 1)
        out.append((curves[k][0], curves[k][1], float(v - bounds[k])))
    return out


def _seed_run(problem: Problem, rng) -> list[TaggedPoint]:
    count = problem.n - len(problem.beta)
    tagged = [TaggedPoint("beta", b) for b in problem.beta]
    if count == 0:
        return tagged
    if _free_problem(problem):
        support = [(-1, c) for c in problem.measure.curves]
        for _, c, s in _spread_over_curves(support, count, rng):
            tagged.append(TaggedPoint("free", curve_eval(c, s)))
        return tagged
    curves = _curve_constraints(problem)
    if curves:
        for idx, c, s in _spread_over_curves(curves, count, rng):
            tagged.append(TaggedPoint("constrained", curve_eval(c, s), idx, s))
        return tagged
    # only point-set constraints remain
    sets = [(i, c) for i, c in enumerate(problem.constraints)
            if isinstance(c, PointSetConstraint)]
    for j in range(count):
        idx, cons = sets[j % len(sets)]
        member = int(rng.integers(0, len(cons.points)))
        tagged.append(TaggedPoint("constrained", cons.points[member], idx, float(member)))
    return tagged


def _attach_positions(problem: Problem, positions) -> list[TaggedPoint] | None:
    """Tag raw seed positions against the problem's constraint structure."""
    remaining = list(positions)
    tagged = [TaggedPoint("beta", b) for b in problem.beta]
    for b in problem.beta:
        for i, p in enumerate(remaining):
            if abs(p.x - b.x) < _MATCH_TOL and abs(p.y - b.y) < _MATCH_TOL:
                remaining.pop(i)
                break
    if len(remaining) != problem.n - len(problem.beta):
        return None
    if _free_problem(problem):
        tagged.extend(TaggedPoint("free", p) for p in remaining)
        return tagged
    curves = _curve_constraints(problem)
    for p in remaining:
        best = None
        for idx, c in curves:
            s = project_to_curve(c, p)
            q = curve_eval(c, s)
            d2 = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
            if best is None or d2 < best[0]:
                best = (d2, idx, c, s)
        if best is None or best[0] > _MATCH_TOL:
            return None
        tagged.append(TaggedPoint("constrained", curve_eval(best[2], best[3]),
                                  best[1], best[3]))
    return tagged


def _axis_segment(measure: UniformCurveMeasure):
    if len(measure.curves) != 1 or not isinstance(measure.curves[0], Segment):
        return None
    seg = measure.curves[0]
    if abs(seg.p0.y) > _MATCH_TOL or abs(seg.p1.y) > _MATCH_TOL:
        return None
    a, b = sorted((seg.p0.x, seg.p1.x))
    return a, b


def _beta_matches(beta, wanted) -> bool:
    if len(beta) != len(wanted):
        return False
    used = [False] * len(wanted)
    for b in beta:
        hit = False
        for i, w in enumerate(wanted):
            if not used[i] and abs(b.x - w[0]) < _MATCH_TOL and abs(b.y - w[1]) < _MATCH_TOL:
                used[i] = hit = True
                break
        if not hit:
            return False
    return True


def _is_semicircle_pair(curves) -> bool:
    if len(curves) != 2:
        return False
    segs = [c for c in curves if isinstance(c, Segment)]
    arcs = [c for c in curves if isinstance(c, Arc)]
    if len(segs) != 1 or len(arcs) != 1:
        return False
    seg, arc = segs[0], arcs[0]
    xs = sorted((seg.p0.x, seg.p1.x))
    seg_ok = (abs(seg.p0.y) < _MATCH_TOL and abs(seg.p1.y) < _MATCH_TOL
              and abs(xs[0] + 1) < _MATCH_TOL and abs(xs[1] - 1) < _MATCH_TOL)
    arc_ok = (abs(arc.center.x) < _MATCH_TOL and abs(arc.center.y) < _MATCH_TOL
              and abs(arc.radius - 1) < _MATCH_TOL and abs(arc.theta0) < _MATCH_TOL
              and abs(arc.theta1 - math.pi) < _MATCH_TOL)
    return seg_ok and arc_ok


def _is_triangle_sides(curves) -> bool:
    if len(curves) != 3 or not all(isinstance(c, Segment) for c in curves):
        return False
    verts = {(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)}

    def near(p):
        for v in verts:
            if abs(p.x - v[0]) < _MATCH_TOL and abs(p.y - v[1]) < _MATCH_TOL:
                return v
        return None

    edges = set()
    for c in curves:
        a, b = near(c.p0), near(c.p1)
        if a is None or b is None or a == b:
            return False
        edges.add(frozenset((a, b)))
    return len(edges) == 3


def _closed_form_positions(problem: Problem):
    """Closed-form configuration for recognizable scenarios, else None.

    For the triangle this is the published equal-spacing set, which is only
    a critical point at n = 4, 5 (see closed_form.triangle_sliver).
    """
    n, beta = problem.n, problem.beta
    axis = _axis_segment(problem.measure)
    free = _free_problem(problem)
    curves = _curve_constraints(problem)
    if axis is not None and free:
        a, b = axis
        if not beta:
            return [Point2(a + (2 * j - 1) * (b - a) / (2 * n), 0.0) for j in range(1, n + 1)]
        if _beta_matches(beta, [(a, 0.0)]):
            return list(cf.interval_left_endpoint(n, a, b).points)
        if _beta_matches(beta, [(b, 0.0)]):
            return list(cf.interval_right_endpoint(n, a, b).points)
        if n >= 2 and _beta_matches(beta, [(a, 0.0), (b, 0.0)]):
            return list(cf.interval_interior(n, cf.IntervalScenario(a, b, a, b)).points)
        return None
    if axis is not None and not free and len(curves) == 1 and isinstance(curves[0][1], Segment):
        a, b = axis
        seg = curves[0][1]
        dx = seg.p1.x - seg.p0.x
        if abs(dx) < _MATCH_TOL:
            return None
        m = (seg.p1.y - seg.p0.y) / dx
        c0 = seg.p0.y - m * seg.p0.x
        if not beta:
            try:
                return list(cf.line_constraint_optimal(
                    n, cf.LineConstraintScenario(a, b, m, c0)).points)
            except ValueError:
                return None
        if (n >= 4 and _beta_matches(beta, [(0.0, 0.0)]) and abs(a) < _MATCH_TOL
                and abs(b - 1) < _MATCH_TOL and abs(m - 0.25) < _MATCH_TOL
                and abs(c0 - 0.25) < _MATCH_TOL):
            return list(cf.exam1_conditional(n - 1).points)
        return None
    if (_is_semicircle_pair(problem.measure.curves) and not free
            and _is_semicircle_pair([c for _, c in curves])
            and _beta_matches(beta, [(-1.0, 0.0), (1.0, 0.0)]) and n >= 3):
        n1 = semicircle_allocate(n).parts[0]
        return list(cf.semicircle_conditional(n, n1).points)
    if (_is_triangle_sides(problem.measure.curves) and not free and n >= 3
            and _is_triangle_sides([c for _, c in curves])
            and _beta_matches(beta, [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])):
        return list(cf.triangle_conditional(n).points)
    return None


# ---------------------------------------------------------------------------
# descent


def _update_positions(problem: Problem, tagged, masses, moments):
    total_len = problem.measure.total_length
    out = []
    for i, tp in enumerate(tagged):
        if tp.kind == "beta" or masses[i] <= 1e-12:
            out.append(tp)
            continue
        cell_len = masses[i] * total_len
        cx = moments[i, 0] / cell_len
        cy = moments[i, 1] / cell_len
        if tp.kind == "free":
            out.append(TaggedPoint("free", Point2(cx, cy)))
            continue
        cons = problem.constraints[tp.constraint_index]
        if isinstance(cons, CurveConstraint):
            s = project_to_curve(cons.curve, Point2(cx, cy))
            out.append(TaggedPoint("constrained", curve_eval(cons.curve, s),
                                   tp.constraint_index, s))
        else:
            members = cons.points
            best = min(range(len(members)),
                       key=lambda k: (members[k].x - cx) ** 2 + (members[k].y - cy) ** 2)
            out.append(TaggedPoint("constrained", members[best],
                                   tp.constraint_index, float(best)))
    return out


def _param_vector(problem: Problem, tagged):
    vec = []
    for tp in tagged:
        if tp.kind == "free":
            vec.extend((tp.point.x, tp.point.y))
        elif (tp.kind == "constrained"
              and isinstance(problem.constraints[tp.constraint_index], CurveConstraint)):
            vec.append(tp.s)
    return np.array(vec)


def _from_param_vector(problem: Problem, tagged, vec):
    out = []
    k = 0
    for tp in tagged:
        if tp.kind == "free":
            out.append(TaggedPoint("free", Point2(vec[k], vec[k + 1])))
            k += 2
        elif (tp.kind == "constrained"
              and isinstance(problem.constraints[tp.constraint_index], CurveConstraint)):
            curve = problem.constraints[tp.constraint_index].curve
            s = min(max(vec[k], 0.0), curve_length(curve))
            out.append(TaggedPoint("constrained", curve_eval(curve, s),
                                   tp.constraint_index, s))
            k += 1
        else:
            out.append(tp)
    return out


def _aitken_vector(x0, x1, x2):
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    scale = np.maximum(np.abs(x2), 1.0)
    safe = np.abs(denom) > 1e-14 * scale
    out = x2.copy()
    out[safe] = x2[safe] - d2[safe] ** 2 / denom[safe]
    return out


def _descend(problem: Problem, tagged, options: SolverOptions, abort_above: float | None):
    """Iterate centroid/projection updates until the distortion improvement
    drops below param_tol. Two accelerations bolted on: runs whose Aitken-
    projected limit cannot beat the best value already found are cut short,
    and every few steps a guarded vector extrapolation of the parameter
    trajectory is tried and kept only when it strictly lowers distortion
    (plain Lloyd closes in on degenerate cells too slowly otherwise)."""
    prev_d = math.inf
    prev_imp = math.inf
    converged = False
    d = 0.0
    masses = None
    history: list[np.ndarray] = []
    for it in range(options.max_iters):
        sites_xy = _points_xy(tagged)
        d, masses, moments = _exact_state(problem.measure, sites_xy)
        imp = prev_d - d
        if imp < options.param_tol:
            converged = True
            break
        if (abort_above is not None and it >= 10 and prev_imp > 0.0
                and 0.0 < imp < prev_imp):
            ratio = imp / prev_imp
            projected = d - imp * ratio / (1.0 - ratio)
            if projected > abort_above - 1e-13:
                break
        tagged = _update_positions(problem, tagged, masses, moments)
        prev_d, prev_imp = d, imp
        history.append(_param_vector(problem, tagged))
        if history[-1].size and len(history) >= 3 and it % 8 == 7:
            trial_vec = _aitken_vector(*history[-3:])
            trial = _from_param_vector(problem, tagged, trial_vec)
            d_t, _, _ = _exact_state(problem.measure, _points_xy(trial))
            if d_t < d:
                tagged = trial
                prev_d = math.inf
                history.clear()
        if len(history) > 3:
            history.pop(0)
    if masses is None:
        d, masses, _ = _exact_state(problem.measure, _points_xy(tagged))
    return tagged, d, masses, converged


def _root_polish(problem: Problem, tagged, d_current: float):
    """Quasi-Newton polish of the update-map fixed point.

    Lloyd closes the last stretch linearly, which is too slow when a cell
    mass is collapsing toward zero; solving the fixed-point residual with
    df-sane lands on the limit directly. The result is kept only when it
    does not increase distortion.
    """
    vec0 = _param_vector(problem, tagged)
    if not vec0.size:
        return tagged, d_current

    def residual(vec):
        cand = _from_param_vector(problem, tagged, vec)
        _, masses, moments = _exact_state(problem.measure, _points_xy(cand))
        updated = _update_positions(problem, cand, masses, moments)
        return _param_vector(problem, updated) - _param_vector(problem, cand)

    candidates = []
    try:
        sol = optimize.root(residual, vec0, method="df-sane",
                            options={"maxfev": 400, "fatol": 1e-14, "ftol": 0.0})
        candidates.append(sol.x)
        if np.linalg.norm(sol.fun) > 1e-10:
            # df-sane stalls when the fixed point sits on a cell-existence
            # kink; Powell's method with a finite-difference Jacobian gets
            # through it
            sol2 = optimize.root(residual, sol.x, method="hybr",
                                 options={"xtol": 1e-14, "maxfev": 4000})
            candidates.append(sol2.x)
    except Exception:
        pass
    best_tagged, best_d = tagged, d_current
    for vec in candidates:
        trial = _from_param_vector(problem, tagged, vec)
        d_t, _, _ = _exact_state(problem.measure, _points_xy(trial))
        if d_t <= best_d + 1e-15:
            best_tagged, best_d = trial, d_t
    return best_tagged, best_d


def _golden_coordinate(f, lo, hi, tol):
    a, b = lo, hi
    c1 = b - _INVPHI * (b - a)
    c2 = a + _INVPHI * (b - a)
    f1, f2 = f(c1), f(c2)
    while b - a > tol:
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INVPHI * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INVPHI * (b - a)
            f2 = f(c2)
    return 0.5 * (a + b)


def _polish(problem: Problem, tagged, options: SolverOptions):
    """Cyclic golden-section refinement of every curve-constraint parameter."""
    idxs = [i for i, tp in enumerate(tagged)
            if tp.kind == "constrained"
            and isinstance(problem.constraints[tp.constraint_index], CurveConstraint)]
    if not idxs:
        return tagged
    tagged = list(tagged)
    for _ in range(2):
        for i in idxs:
            tp = tagged[i]
            curve = problem.constraints[tp.constraint_index].curve
            length = curve_length(curve)
            span = max(length / (2.0 * max(problem.n, 1)), 1e-6 * length)
            lo = max(0.0, tp.s - span)
            hi = min(length, tp.s + span)

            def objective(s, i=i, curve=curve, tp=tp):
                trial = tagged[:i] + [TaggedPoint("constrained", curve_eval(curve, s),
                                                  tp.constraint_index, s)] + tagged[i + 1:]
                return _exact_state(problem.measure, _points_xy(trial))[0]

            s_best = _golden_coordinate(objective, lo, hi,
                                        max(options.param_tol, 1e-12) * max(1.0, length))
            if objective(s_best) < objective(tp.s):
                tagged[i] = TaggedPoint("constrained", curve_eval(curve, s_best),
                                        tp.constraint_index, s_best)
    return tagged


def solve(problem: Problem, options: SolverOptions | None = None) -> Quantizer:
    """Best quantizer over stratified multi-start runs.

    Runs options.restarts stratified random seeds plus one run seeded from
    the matching closed-form configuration when the problem is recognized.
    The winner (lowest distortion, earliest run on ties) gets a golden
    polish over constraint parameters, then is re-measured with one exact
    cell-state pass, the integrals evaluate() reports.
    """
    options = options or SolverOptions()
    rng = np.random.default_rng(options.rng_seed)
    seeds = [_seed_run(problem, rng) for _ in range(options.restarts)]
    known = _closed_form_positions(problem)
    if known is not None:
        attached = _attach_positions(problem, known)
        if attached is not None:
            seeds.append(attached)
    best = None
    best_d = None
    for run in seeds:
        tagged, d, masses, conv = _descend(problem, run, options, best_d)
        if best_d is None or d < best_d - 1e-15:
            best = (tagged, d, masses, conv)
            best_d = d
    tagged, d, masses, conv = best
    tagged, d = _root_polish(problem, tagged, d)
    polished = _polish(problem, tagged, options)
    if polished is not tagged:
        d2, masses2, _ = _exact_state(problem.measure, _points_xy(polished))
        if d2 <= d:
            tagged, d, masses = polished, d2, masses2
    # polishing moved the points after descent measured them
    final_d, final_masses, _ = _exact_state(problem.measure, _points_xy(tagged))
    degenerate = tuple(i for i, m in enumerate(final_masses) if m <= MASS_TOL)
    return Quantizer(tuple(tagged), final_d, tuple(float(m) for m in final_masses),
                     conv, degenerate)


def existence_check(problem: Problem, options: SolverOptions | None = None) -> ExistenceReport:
    """Whether an optimal set of exactly n positive-mass points exists.

    Runs the solver at a tightened improvement tolerance (the degeneracy
    signal is a cell mass sliding to zero, which needs late-stage Lloyd
    convergence) and checks every reported point for positive mass.
    """
    base = options or SolverOptions(restarts=4)
    opts = replace(base, param_tol=1e-14)
    witness = solve(problem, opts)
    exists = (len(witness.points) == problem.n
              and not witness.degenerate_points
              and all(m > MASS_TOL for m in witness.masses))
    return ExistenceReport(exists, witness)


def sandwich_check(problem: Problem, options: SolverOptions | None = None) -> SandwichReport:
    """Compare conditional error against the plain n and n - l errors.

    Solves the same constrained problem three ways with one budget and
    reports whether v_n <= v_cond_n <= v_(n-l) holds to solver tolerance.
    """
    ell = len(problem.beta)
    if problem.n <= ell and ell == 0:
        raise ValueError("need n > l with a nonempty conditional set")
    for b in problem.beta:
        if not _beta_inside_constraints(problem, b):
            raise ValueError("conditional points must lie inside the constraint union")
    v_cond = solve(problem, options).distortion
    plain = replace(problem, beta=())
    v_n = solve(plain, options).distortion
    v_minus = solve(replace(plain, n=problem.n - ell), options).distortion
    tol = 1e-7
    holds = (v_n <= v_cond + tol) and (v_cond <= v_minus + tol)
    return SandwichReport(v_n, v_cond, v_minus, holds)


def _beta_inside_constraints(problem: Problem, b: Point2) -> bool:
    for cons in problem.constraints:
        if isinstance(cons, FreePlane):
            return True
        if isinstance(cons, CurveConstraint):
            s = project_to_curve(cons.curve, b)
            q = curve_eval(cons.curve, s)
            if (q.x - b.x) ** 2 + (q.y - b.y) ** 2 < 1e-18:
                return True
        else:
            for p in cons.points:
                if p.x == b.x and p.y == b.y:
                    return True
    return False


def density_gap(measure: UniformCurveMeasure, n_max: int) -> list[tuple[int, float]]:
    """Largest arc-length hole left by the union of all k-means sets, k <= n.

    Restricted to a single-segment support, where the k-means are the exact
    midpoint grids; gaps are measured between consecutive union members with
    the segment endpoints as sentinels.
    """
    if len(measure.curves) != 1 or not isinstance(measure.curves[0], Segment):
        raise ValueError("density gaps are defined for single-segment supports")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    length = measure.total_length
    merged: list[float] = []
    out = []
    for n in range(1, n_max + 1):
        fresh = [(2 * j - 1) * length / (2 * n) for j in range(1, n + 1)]
        merged = sorted(set(merged) | set(fresh))
        grid = [0.0] + merged + [length]
        out.append((n, max(b - a for a, b in zip(grid, grid[1:]))))
    return out
