"""Numerical solver for conditional constrained quantization on curve
measures.

Candidate quantizers carry a fixed conditional part (beta), points confined
to constraint sets, and free points. Every multi-start run is seeded from
the support alone: k-means++ picks among stratified support samples, each
snapped onto the constraints. A run alternates exact Voronoi-cell
statistics with centroid (free) or projected-centroid (constrained)
updates, and the best run gets a fixed-point root polish. No closed form
is consulted, so the solver checks them independently. Degenerate
(zero-mass) points are reported, not dropped: several scenarios hinge on
detecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from curvequant.geometry import (
    Curve,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state as _exact_state,
    _eval_array,
    _project_array,
    curve_eval,
    curve_length,
    distortion,
    project_to_curve,
    voronoi_masses,
)

MASS_TOL = 1e-5
# support samples per seeded point: the pool each k-means++ seed draws from
SEED_SAMPLES = 8


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


def _support_samples(measure: UniformCurveMeasure, size: int, rng) -> np.ndarray:
    """size stratified arc-length samples of the support, an (size, 2) array."""
    lengths = np.array([curve_length(c) for c in measure.curves])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    u = (np.arange(size) + rng.uniform(0.0, 1.0, size)) * (bounds[-1] / size)
    owner = np.minimum(np.searchsorted(bounds, u, side="right") - 1, len(lengths) - 1)
    out = np.empty((size, 2))
    for k, c in enumerate(measure.curves):
        here = owner == k
        out[here] = _eval_array(c, np.minimum(u[here] - bounds[k], lengths[k]))
    return out


def _snap(problem: Problem, xy: np.ndarray):
    """Nearest admissible point to each row of xy over the union of the
    constraint sets: arrays (points, constraint index, arc length or member
    index), with index -1 for a free point."""
    points = xy.copy()
    index = np.full(len(xy), -1)
    param = np.zeros(len(xy))
    best = np.full(len(xy), np.inf)
    for i, cons in enumerate(problem.constraints):
        if isinstance(cons, FreePlane):
            return xy, np.full(len(xy), -1), param
        if isinstance(cons, CurveConstraint):
            s = _project_array(cons.curve, xy)
            cand = _eval_array(cons.curve, s)
        else:
            members = np.array([(p.x, p.y) for p in cons.points])
            member = ((xy[:, None, :] - members[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            s, cand = member.astype(float), members[member]
        d2 = ((xy - cand) ** 2).sum(axis=1)
        nearer = d2 < best
        best[nearer], points[nearer], index[nearer], param[nearer] = (
            d2[nearer], cand[nearer], i, s[nearer])
    return points, index, param


def _seed_run(problem: Problem, rng) -> list[TaggedPoint]:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) from the data.

    Draws SEED_SAMPLES * (n - l) stratified support samples and snaps each
    onto the constraints. Then n - l of the snapped samples are picked, each
    with probability proportional to how much it would lower its own
    sample's squared distance to beta and the picks so far. On a free plane
    that gain is the usual D^2 weight. A pick with positive gain is nearer
    its own sample than beta and the earlier picks, and as the nearest
    admissible point no later pick beats it there, so its cell is never
    empty. A pick is uniform only when every gain is infinite (the first
    pick without beta) or zero (exam2, where beta is nearer the whole
    support than the constraint line is).
    """
    count = problem.n - len(problem.beta)
    tagged = [TaggedPoint("beta", b) for b in problem.beta]
    if count == 0:
        return tagged
    pool = _support_samples(problem.measure, SEED_SAMPLES * count, rng)
    snapped, index, param = _snap(problem, pool)
    own = ((pool - snapped) ** 2).sum(axis=1)
    d2 = np.full(len(pool), np.inf)
    for b in problem.beta:
        d2 = np.minimum(d2, ((pool - (b.x, b.y)) ** 2).sum(axis=1))
    for _ in range(count):
        cum = np.cumsum(np.maximum(d2 - own, 0.0))
        if 0.0 < cum[-1] < np.inf:
            k = int(np.searchsorted(cum, rng.uniform(0.0, cum[-1]), side="right"))
        else:
            k = int(rng.integers(len(pool)))
        point = Point2(float(snapped[k, 0]), float(snapped[k, 1]))
        if index[k] < 0:
            tagged.append(TaggedPoint("free", point))
        else:
            tagged.append(TaggedPoint("constrained", point, int(index[k]), float(param[k])))
        d2 = np.minimum(d2, ((pool - snapped[k]) ** 2).sum(axis=1))
    return tagged


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


def solve(problem: Problem, options: SolverOptions | None = None) -> Quantizer:
    """Best quantizer over options.restarts k-means++ seeded runs.

    Each run draws its seeds from stratified samples of the support (see
    _seed_run) and descends. The winner (lowest distortion, earliest run on
    ties) gets a root polish of its fixed point, then is re-measured with
    one exact cell-state pass, the integrals evaluate() reports.
    """
    options = options or SolverOptions()
    rng = np.random.default_rng(options.rng_seed)
    best = None
    best_d = None
    for _ in range(options.restarts):
        tagged, d, masses, conv = _descend(problem, _seed_run(problem, rng), options, best_d)
        if best_d is None or d < best_d - 1e-15:
            best = (tagged, d, masses, conv)
            best_d = d
    tagged, d, masses, conv = best
    tagged, d = _root_polish(problem, tagged, d)
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
