"""Numerical solver for conditional constrained quantization on curve
measures.

Candidate quantizers carry a fixed conditional part (beta), points confined
to constraint sets, and free points. Every multi-start run is seeded from
the support alone: k-means++ picks among stratified support samples, each
snapped onto the constraints. A run is a bounded BFGS descent on the
exact distortion, whose gradient comes with every Voronoi-cell pass, over
free coordinates and arc lengths on constraint curves; point-set members
move to the member nearest their cell mean. No closed form is consulted,
so the solver checks them independently. Degenerate (zero-mass) points
are reported, not dropped: several scenarios hinge on detecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from curvequant.geometry import (
    Curve,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state as _exact_state,
    _eval_array,
    _project_array,
    _sites_array,
    _tangent_array,
    curve_length,
    distortion,
    voronoi_masses,
)

MASS_TOL = 1e-5
# support samples per seeded point: the pool each k-means++ seed draws from
SEED_SAMPLES = 8
# line search of the descent: sufficient-decrease constant, most halvings
_ARMIJO = 1e-4
_HALVINGS = 30
# a descent stops once an iteration, or the step it would take, lowers the
# distortion by no more than this share of it
_ROUNDING = 4.0 * np.finfo(float).eps


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
    sites_xy = _sites_array([tp.point for tp in candidate])
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


class _Descent:
    """Bounded BFGS on the distortion of one candidate. x holds x, y of each
    free point, then the arc length of each curve-constrained point, boxed to
    [0, length]; beta and point-set members stay put. A step is projected
    onto the box and halved until it meets the Armijo condition. The inverse
    Hessian starts, and restarts after a failed line search, at 1 / (2 mass)
    of each coordinate's site: a full step from it is the Lloyd step (for a
    curve point, its tangential part). `state` is the cell-state pass at x.
    """

    def __init__(self, problem: Problem, tagged):
        self.measure, self.tagged = problem.measure, list(tagged)
        self.sites = _sites_array([tp.point for tp in tagged])
        self.free = np.array([i for i, tp in enumerate(tagged) if tp.kind == "free"], dtype=int)
        self.curves = []  # (curve, site indices), one per curve constraint in use
        for ci, cons in enumerate(problem.constraints):
            idx = [i for i, tp in enumerate(tagged)
                   if tp.kind == "constrained" and tp.constraint_index == ci]
            if idx and isinstance(cons, CurveConstraint):
                self.curves.append((cons.curve, np.array(idx)))
        self.cuts = np.cumsum([2 * len(self.free)] + [len(idx) for _, idx in self.curves[:-1]])
        self.owner = np.concatenate([np.repeat(self.free, 2)] + [idx for _, idx in self.curves])
        self.hi = np.concatenate([np.full(2 * len(self.free), np.inf)] + [
            np.full(len(idx), curve_length(c)) for c, idx in self.curves])
        self.lo = np.where(self.hi < np.inf, 0.0, -np.inf)
        self.x = np.clip(np.concatenate([self.sites[self.free].ravel()] + [
            [tagged[i].s for i in idx] for _, idx in self.curves]), self.lo, self.hi)
        self.state = self.evaluate(self.x)
        self.H, self.fresh = self.inverse_hessian(), True

    def evaluate(self, x):
        """One cell-state pass at x: (sites, distortion, masses, moments,
        gradient of the distortion in x)."""
        free, *params = np.split(x, self.cuts)
        xy = self.sites.copy()
        xy[self.free] = free.reshape(-1, 2)
        for (curve, idx), s in zip(self.curves, params):
            xy[idx] = _eval_array(curve, s)
        d, masses, moments = _exact_state(self.measure, xy)
        # dD/dp_i = 2 (mass_i p_i - moment_i / L); for an arc length, chained
        # through the unit tangent
        grad = 2.0 * (masses[:, None] * xy - moments * self.measure.density)
        return xy, d, masses, moments, np.concatenate([grad[self.free].ravel()] + [
            (grad[idx] * _tangent_array(curve, s)).sum(axis=1)
            for (curve, idx), s in zip(self.curves, params)])

    def inverse_hessian(self):
        return np.diag(0.5 / np.maximum(self.state[2][self.owner], MASS_TOL))

    def run(self, tol: float, max_iters: int) -> bool:
        """Iterate until an iteration improves the distortion by less than
        tol, or no step improves it beyond rounding (True), or for max_iters
        iterations (False)."""
        lo, hi = self.lo, self.hi
        for _ in range(max_iters if self.x.size else 0):
            x, (_, f, _, _, g) = self.x, self.state
            # hold coordinates at a bound that the gradient pushes outward
            held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
            d = -(self.H @ np.where(held, 0.0, g))
            d[held | ((x <= lo) & (d < 0.0)) | ((x >= hi) & (d > 0.0))] = 0.0
            if -(g @ d) <= _ROUNDING * f:
                return True
            step = 1.0
            for _ in range(_HALVINGS):
                x_new = np.clip(x + step * d, lo, hi)
                new = self.evaluate(x_new)
                if new[1] <= f + _ARMIJO * (g @ (x_new - x)):
                    break
                step *= 0.5
            else:
                if self.fresh:
                    return True
                self.H, self.fresh = self.inverse_hessian(), True
                continue
            s, y = x_new - x, new[4] - g
            sy = s @ y
            if sy > 0.0:
                Hy = self.H @ y
                self.H = self.H + ((sy + y @ Hy) / sy ** 2) * np.outer(s, s) - (
                    np.outer(Hy, s) + np.outer(s, Hy)) / sy
                self.fresh = False
            self.x, self.state = x_new, new
            if f - new[1] < max(tol, _ROUNDING * f):
                return True
        return not self.x.size

    def result(self):
        """The tagged points at x."""
        nf, xy = 2 * len(self.free), self.state[0]
        params = dict(zip(self.owner[nf:].tolist(), self.x[nf:].tolist()))
        return [replace(tp, point=Point2(*xy[i].tolist()), s=params.get(i))
                if tp.kind == "free" or i in params else tp for i, tp in enumerate(self.tagged)]


def _nearest_members(problem: Problem, run: _Descent):
    """run's points with each positive-mass point-set member moved to the
    member nearest its cell mean; None when no member moves."""
    _, _, masses, moments, _ = run.state
    moved = {}
    for i, tp in enumerate(run.tagged):
        cons = problem.constraints[tp.constraint_index] if tp.kind == "constrained" else None
        if isinstance(cons, PointSetConstraint) and masses[i] > 1e-12:
            mx, my = moments[i] / (masses[i] * problem.measure.total_length)
            k = int(np.argmin([(p.x - mx) ** 2 + (p.y - my) ** 2 for p in cons.points]))
            if k != int(tp.s):
                moved[i] = TaggedPoint("constrained", cons.points[k], tp.constraint_index, float(k))
    return [moved.get(i, tp) for i, tp in enumerate(run.result())] if moved else None


def _descend(problem: Problem, tagged, options: SolverOptions):
    """BFGS to param_tol, then nearest-member moves of point-set members,
    repeated while the moves lower the distortion by at least param_tol.
    Returns the best descent; its `converged` says whether BFGS reached
    param_tol."""
    best = None
    while tagged is not None:
        run = _Descent(problem, tagged)
        run.converged = run.run(options.param_tol, options.max_iters)
        if best is not None and run.state[1] > best.state[1] - options.param_tol:
            break
        best = run
        tagged = _nearest_members(problem, run)
    return best


def solve(problem: Problem, options: SolverOptions | None = None) -> Quantizer:
    """Best quantizer over options.restarts k-means++ seeded runs.

    Each run draws its seeds from stratified samples of the support (see
    _seed_run) and descends by bounded BFGS on the exact distortion gradient
    to param_tol. The winner (lowest distortion, earliest run on ties) then
    descends on until an iteration no longer improves it beyond rounding.
    """
    options = options or SolverOptions()
    rng = np.random.default_rng(options.rng_seed)
    best = None
    for _ in range(options.restarts):
        run = _descend(problem, _seed_run(problem, rng), options)
        if best is None or run.state[1] < best.state[1] - 1e-15:
            best = run
    best.run(0.0, options.max_iters)
    _, d, masses, _, _ = best.state
    degenerate = tuple(i for i, m in enumerate(masses) if m <= MASS_TOL)
    return Quantizer(tuple(best.result()), d, tuple(float(m) for m in masses),
                     best.converged, degenerate)


def existence_check(problem: Problem, options: SolverOptions | None = None) -> ExistenceReport:
    """Whether an optimal set of exactly n positive-mass points exists.

    Runs the solver at a tightened improvement tolerance (the degeneracy
    signal is a cell mass sliding to zero, which the descent must follow
    well below MASS_TOL) and checks every reported point for positive mass.
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
    snapped, _, _ = _snap(problem, np.array([[b.x, b.y]]))
    return float(((snapped[0] - (b.x, b.y)) ** 2).sum()) < 1e-18


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
