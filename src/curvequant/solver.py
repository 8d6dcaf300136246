"""Numerical solver for conditional constrained quantization on curve
measures.

Candidate quantizers carry a fixed conditional part (beta), points confined
to constraint sets, and free points. The multi-start runs go in chunks,
each seeded from the support alone just before it descends: k-means++
picks among stratified support samples, each snapped onto the
constraints, each step taken for the whole chunk at once. A run is a
bounded Newton descent on the exact Hessian of the distortion, over free
coordinates and arc lengths on constraint curves: every Voronoi-cell pass
yields the gradient and the cuts from which the Hessian (2 mass per site,
one rank-one term per cut) is summed. A chunk's runs descend in lockstep:
one cell-state pass serves every run it evaluates, and one batched
factorization and solve serves every run's Newton step, while each run
keeps its own shift, line search and stopping rules. Point-set members
move to the member nearest their cell mean. No closed form is consulted,
so the solver checks them independently. Degenerate (zero-mass) points are
reported, not dropped: several scenarios hinge on detecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from curvequant.geometry import (
    Arc,
    Curve,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state,
    _cell_state as _exact_state,  # the solver's own passes; evaluate's is apart
    _frame_array,
    _project_array,
    _sites_array,
    curve_length,
    distortion,  # noqa: F401 -- bound by name; perfbench's tracer test relies on it
)

MASS_TOL = 1e-5
# support samples per seeded point: the pool each k-means++ seed draws from
SEED_SAMPLES = 8
# the most floats a chunk of runs holds in its seeding arrays or Hessians
_HESSIAN_FLOATS = 1 << 22
# line search of the descent: sufficient-decrease constant, most halvings
_ARMIJO = 1e-4
_HALVINGS = 30
# a descent stops once an iteration, or the step it would take, lowers the
# distortion by no more than this share of it
_ROUNDING = 4.0 * np.finfo(float).eps
# a Cholesky pivot whose square is at most this share of the largest
# diagonal entry counts as zero
_PIVOT = 1e-10


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

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "beta", tuple(self.beta))
        if not self.constraints:
            raise ValueError("need at least one constraint set")
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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
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
    """Distortion and Voronoi masses of a tagged candidate (beta included),
    from one cell-state pass."""
    _check_candidate(problem, candidate)
    d, masses, _, _ = _cell_state(problem.measure, _sites_array([tp.point for tp in candidate]))
    return d, [float(v) for v in masses]


def lloyd_step(problem: Problem, candidate) -> list[TaggedPoint]:
    """Move every positive-mass free point to its cell mean; zero-mass free
    points are left in place (they are the degeneracy signal)."""
    _check_candidate(problem, candidate)
    sites_xy = _sites_array([tp.point for tp in candidate])
    _, masses, moments, _ = _exact_state(problem.measure, sites_xy)
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
            cand = _frame_array(cons.curve, s)[0]
        else:
            members = np.array([(p.x, p.y) for p in cons.points])
            member = ((xy[:, :1] - members[:, 0]) ** 2
                      + (xy[:, 1:] - members[:, 1]) ** 2).argmin(axis=1)
            s, cand = member.astype(float), members[member]
        # by coordinate: numpy sums a last axis of length 2 slowly
        d2 = (xy[:, 0] - cand[:, 0]) ** 2 + (xy[:, 1] - cand[:, 1]) ** 2
        # the first set claims every row, even one whose distance overflows
        nearer = (d2 < best) | (index < 0)
        best[nearer], points[nearer], index[nearer], param[nearer] = (
            d2[nearer], cand[nearer], i, s[nearer])
    return points, index, param


def _seed_runs(problem: Problem, rng, runs: int) -> list[list[TaggedPoint]]:
    """k-means++ seeds (Arthur & Vassilvitskii, SODA 2007) of `runs` runs,
    each step one call over all runs.

    A run draws S = SEED_SAMPLES * c stratified support samples, c = n - l,
    and snaps each onto the constraints. Then c of the snapped samples are
    picked, each with probability proportional to how much it would lower
    its own sample's squared distance to beta and the picks so far. On a
    free plane that gain is the usual D^2 weight. A pick with positive gain
    is nearer its own sample than beta and the earlier picks, and as the
    nearest admissible point no later pick beats it there, so its cell is
    never empty. A pick is uniform only when every gain is infinite (the
    first pick without beta) or zero (exam2, where beta is nearer the whole
    support than the constraint line is).

    Draw order: run r reads row r of rng.random((runs, S + c)). Its first S
    columns stratify its samples; column S + j drives pick j, as v * (sum
    of gains) if weighted and floor(v * S) if uniform. So seeding the runs
    chunk by chunk from one rng, as solve does, changes no seed.
    """
    count = problem.n - len(problem.beta)
    beta = [TaggedPoint("beta", b) for b in problem.beta]
    if count == 0:
        return [list(beta) for _ in range(runs)]
    size = SEED_SAMPLES * count
    lengths = np.array([curve_length(c) for c in problem.measure.curves])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    v = rng.random((runs, size + count))
    u = (np.arange(size) + v[:, :size]) * (bounds[-1] / size)
    owner = np.minimum(np.searchsorted(bounds, u, side="right") - 1, len(lengths) - 1)
    pool = np.empty(u.shape + (2,))
    for k, c in enumerate(problem.measure.curves):
        here = owner == k
        pool[here] = _frame_array(c, np.minimum(u[here] - bounds[k], lengths[k]))[0]
    snapped, index, param = _snap(problem, pool.reshape(-1, 2))
    snapped = snapped.reshape(pool.shape)
    # by coordinate: numpy sums a last axis of length 2 slowly
    x, y = pool[..., 0], pool[..., 1]
    own = (x - snapped[..., 0]) ** 2 + (y - snapped[..., 1]) ** 2
    d2 = np.full(u.shape, np.inf)
    for b in problem.beta:
        d2 = np.minimum(d2, (x - b.x) ** 2 + (y - b.y) ** 2)
    rows = np.arange(runs)
    picks = np.empty((runs, count), dtype=int)
    for j in range(count):
        cum = np.cumsum(np.maximum(d2 - own, 0.0), axis=1)
        total, pick = cum[:, -1], v[:, size + j]
        weighted = (0.0 < total) & (total < np.inf)
        # the row-wise searchsorted(cum, pick * total, side="right")
        k = (cum <= (pick * np.where(weighted, total, 0.0))[:, None]).sum(axis=1)
        picks[:, j] = k = np.where(weighted, k, (pick * size).astype(int))
        at = snapped[rows, k]
        d2 = np.minimum(d2, (x - at[:, :1]) ** 2 + (y - at[:, 1:]) ** 2)
    flat = picks + rows[:, None] * size
    return [beta + [TaggedPoint("free", Point2(*p)) if i < 0
                    else TaggedPoint("constrained", Point2(*p), i, t)
                    for p, i, t in zip(xy, ci, s)]
            for xy, ci, s in zip(snapped.reshape(-1, 2)[flat].tolist(), index[flat].tolist(),
                                 param[flat].tolist())]


# ---------------------------------------------------------------------------
# descent

# the kind of a descent coordinate that is no curve's arc length: a free
# point's x or y, or padding beyond the end of a shorter candidate's row
_FREE, _PAD = -1, -2


def _coordinates(problem: Problem, tagged) -> list[tuple]:
    """A candidate's descent coordinates, each (site, kind, axis, lo, hi,
    value): x, y of each free point (kind _FREE, axis 0 and 1), then the
    arc length of each curve-constrained point, boxed to [0, length]
    (kind the constraint index), constraint by constraint."""
    out = [(i, _FREE, axis, -np.inf, np.inf, (tp.point.x, tp.point.y)[axis])
           for i, tp in enumerate(tagged) if tp.kind == "free" for axis in (0, 1)]
    for ci, cons in enumerate(problem.constraints):
        if isinstance(cons, CurveConstraint):
            length = curve_length(cons.curve)
            out += [(i, ci, 0, 0.0, length, tp.s) for i, tp in enumerate(tagged)
                    if tp.kind == "constrained" and tp.constraint_index == ci]
    return out


class _Layout(NamedTuple):
    """Where the descent coordinates of a batch of R candidates with m
    sites each live: row r of x holds candidate r's coordinates (see
    _coordinates), padded to the n of the longest row. Each coordinate moves
    one site along one unit vector; these arrays are that chain, so no dense
    d(sites)/dx matrix is ever formed."""

    owner: np.ndarray  # (R, n) the site each coordinate moves
    kind: np.ndarray  # (R, n) constraint index of an arc length, _FREE or _PAD
    axis: np.ndarray  # (R, n) which coordinate of its site a free one is
    lo: np.ndarray  # (R, n) box bounds (0 for padding)
    hi: np.ndarray
    slots: np.ndarray  # (R, m, 2) the coordinates of each site, n where none
    tangent: np.ndarray  # (R, n, 2) a free coordinate's unit vector, 0 elsewhere
    center: np.ndarray  # (R, n, 2) an arc length's circle center, 0 elsewhere
    radius2: np.ndarray  # (R, n) its squared radius, inf elsewhere


def _layout(problem: Problem, candidates) -> tuple[_Layout, np.ndarray]:
    """The layout of a batch of candidates, and their x."""
    rows = [_coordinates(problem, tagged) for tagged in candidates]
    shape = (len(rows), max(map(len, rows)))
    owner, axis = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    kind = np.full(shape, _PAD)
    lo, hi, x = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    slots = np.full((shape[0], len(candidates[0]), 2), shape[1])
    for r, coords in enumerate(rows):
        if coords:
            k = len(coords)
            owner[r, :k], kind[r, :k], axis[r, :k], lo[r, :k], hi[r, :k], x[r, :k] = zip(*coords)
            slots[r, owner[r, :k], axis[r, :k]] = np.arange(k)
    tangent = np.eye(2)[axis] * (kind == _FREE)[..., None]
    center, radius2 = np.zeros(shape + (2,)), np.full(shape, np.inf)
    for ci, cons in enumerate(problem.constraints):
        if isinstance(cons, CurveConstraint) and isinstance(cons.curve, Arc):
            on = kind == ci
            center[on] = (cons.curve.center.x, cons.curve.center.y)
            # numpy's power has the bits of Python's, but overflows to inf
            # where Python's raises
            radius2[on] = np.float64(cons.curve.radius) ** 2
    return _Layout(owner, kind, axis, lo, hi, slots, tangent, center, radius2), np.clip(x, lo, hi)


def _indefinite(H: np.ndarray, known: bool = False) -> list[int]:
    """Which matrices of the stack H are not safely positive definite: their
    Cholesky factorization fails, found by halving (f of R take O(f log R)
    calls), or has a pivot at rounding level (on a full circle, turning all
    points is free). known: one of H fails."""
    if not known:
        try:
            pivots = np.linalg.cholesky(H).diagonal(axis1=1, axis2=2) ** 2
            scale = H.diagonal(axis1=1, axis2=2).max(axis=1, keepdims=True)
            return np.flatnonzero((pivots <= _PIVOT * scale).any(axis=1)).tolist()
        except np.linalg.LinAlgError:
            pass
    if len(H) == 1:
        return [0]
    half = len(H) // 2
    first = _indefinite(H[:half])
    return first + [half + p for p in _indefinite(H[half:], known=not first)]


class _State(NamedTuple):
    """One cell-state pass at x over some rows of a batch, one entry per row."""

    rows: np.ndarray  # the batch rows it covers
    xy: np.ndarray  # (k, m, 2) the sites
    distortion: np.ndarray  # (k,)
    masses: np.ndarray  # (k, m)
    moments: np.ndarray  # (k, m, 2)
    grad: np.ndarray  # (k, n) of the distortion in x
    tangent: np.ndarray  # (k, n, 2) the unit vector each coordinate moves its site along
    pieces: list  # per support curve, (s1, site, batch row) of its pieces, row after row


class _Descent:
    """Bounded Newton descent on the distortion of a batch of candidates of
    one problem, all rows in lockstep. x holds one row per candidate (see
    _Layout); beta and point-set members stay put. Every cell-state pass
    serves all the rows it evaluates at once, and every Newton step solves
    all rows' systems H d = -g in one call: H is the exact Hessian of the
    row's state (`hessian`), on the coordinates not held at a bound,
    shifted toward the Lloyd diagonal where it is not positive definite
    (`newton`). Each row's step is projected onto the box and halved until
    it meets the Armijo condition, the rows still searching re-evaluated
    together; `finish` takes one last full step. `state` holds the
    cell-state pass at each row's x, and H is assembled only there, never
    at a rejected trial point.
    """

    def __init__(self, problem: Problem, candidates):
        self.measure, self.tagged = problem.measure, [list(t) for t in candidates]
        self.sites = np.array([[(tp.point.x, tp.point.y) for tp in t] for t in candidates])
        self.layout, self.x = _layout(problem, candidates)
        self.curves = [(ci, cons.curve) for ci, cons in enumerate(problem.constraints)
                       if isinstance(cons, CurveConstraint)]
        self.state = self.evaluate(self.x)

    def evaluate(self, x, rows=None) -> _State:
        """One cell-state pass at x, whose row k is x of the batch's row
        rows[k] (every row by default)."""
        rows = np.arange(len(self.x)) if rows is None else rows
        lay = self.layout
        owner, kind = lay.owner[rows], lay.kind[rows]
        xy, tangent = self.sites[rows], lay.tangent[rows]
        r, k = np.nonzero(kind == _FREE)
        xy[r, owner[r, k], lay.axis[rows][r, k]] = x[r, k]
        for ci, curve in self.curves:
            r, k = np.nonzero(kind == ci)
            if r.size:
                # an arc length moves its point along the unit tangent
                xy[r, owner[r, k]], tangent[r, k] = _frame_array(curve, x[r, k])
        d, masses, moments, pieces = _exact_state(self.measure, xy)
        # dD/dp_i = 2 (mass_i p_i - moment_i / L), chained to x
        g = 2.0 * (masses[..., None] * xy - moments * self.measure.density)
        grad = (np.take_along_axis(g, owner[..., None], axis=1) * tangent).sum(axis=2)
        m = xy.shape[1]
        return _State(rows, xy, d, masses, moments, grad, tangent,
                      [(s1, owner_ % m, rows[owner_ // m]) for s1, owner_ in pieces])

    def _accept(self, new: _State, ok, x) -> None:
        """Move the rows of new where ok to x and their state in new."""
        rows = new.rows[ok]
        self.x[rows] = x[ok]
        for old, fresh in zip(self.state[1:-1], new[1:-1]):
            old[rows] = fresh[ok]
        taken = np.zeros(len(self.x), dtype=bool)
        taken[rows] = True
        pieces = []
        for old, fresh in zip(self.state.pieces, new.pieces):
            keep, add = ~taken[old[2]], taken[fresh[2]]
            pieces.append(tuple(np.concatenate([a[keep], b[add]]) for a, b in zip(old, fresh)))
        self.state = self.state._replace(pieces=pieces)

    def hessian(self, rows) -> np.ndarray:
        """The exact Hessians of the distortion in x at the states of the
        given rows: a (len(rows), n, n) stack.

        In the sites it is 2 mass_i I on each diagonal block, minus
        4 / (L phi') w w^T for each cut x = c(t) between a left owner i and
        a right owner j: phi' = 2 c'(t).(p_j - p_i) is the rate at which the
        two squared distances part there, and w holds p_i - x in block i and
        x - p_j in block j, so the cut moves by -2 w.dp / phi'. Each
        coordinate moves one site along a unit vector, so the mass term
        stays 2 mass_i on the diagonal, a cut's term touches at most the
        four coordinates of its two sites, and a point on an arc also gets
        g_i . c''(s_i) = -g_i . (p_i - center) / r^2 there. The terms of all
        cuts of all rows are summed into the stack by one bincount.
        """
        state, lay, n = self.state, self.layout, self.x.shape[1]
        at_row = np.full(len(self.x), -1)
        at_row[rows] = np.arange(len(rows))
        row, left, right, at, tangent = [], [], [], [], []
        for c, (s1, site, r) in zip(self.measure.curves, state.pieces):
            k = np.flatnonzero((site[:-1] != site[1:]) & (r[:-1] == r[1:]))
            k = k[at_row[r[k]] >= 0]
            row.append(r[k])
            left.append(site[k])
            right.append(site[k + 1])
            point, tau = _frame_array(c, s1[k])
            at.append(point)
            tangent.append(tau)
        r, i, j, at, tau = map(np.concatenate, (row, left, right, at, tangent))
        p_i, p_j = state.xy[r, i], state.xy[r, j]
        rate = 2.0 * ((p_j - p_i) * tau).sum(axis=1)
        # a rate that is not positive (sites equal up to rounding) adds nothing
        weight = np.sqrt(4.0 * self.measure.density / np.where(rate > 0.0, rate, np.inf))[:, None]
        # per cut, the coordinates of i and then of j (n for none), and
        # sqrt(4 / (L phi')) w chained to each
        slot = np.concatenate([lay.slots[r, i], lay.slots[r, j]], axis=1)
        w = np.stack([weight * (p_i - at)] * 2 + [weight * (at - p_j)] * 2, axis=1)
        v = (w * state.tangent[r[:, None], np.minimum(slot, n - 1)]).sum(axis=2)
        both = (slot[:, :, None] < n) & (slot[:, None, :] < n)
        flat = (at_row[r][:, None, None] * n + slot[:, :, None]) * n + slot[:, None, :]
        # (without cuts bincount counts in integers)
        H = np.bincount(flat[both], (-v[:, :, None] * v[:, None, :])[both],
                        minlength=len(rows) * n * n).astype(float, copy=False)
        H = H.reshape(len(rows), n, n)
        own = lay.owner[rows]
        xy = np.take_along_axis(state.xy[rows], own[..., None], axis=1)
        masses = np.take_along_axis(state.masses[rows], own, axis=1)
        g = 2.0 * (masses[..., None] * xy - np.take_along_axis(
            state.moments[rows], own[..., None], axis=1) * self.measure.density)
        diag = 2.0 * masses - ((xy - lay.center[rows]) * g).sum(axis=2) / lay.radius2[rows]
        H.reshape(len(rows), n * n)[:, ::n + 1] += np.where(lay.kind[rows] != _PAD, diag, 0.0)
        return H

    def newton(self, rows, live) -> np.ndarray:
        """The Newton steps -H^-1 g of the given rows on their live
        coordinates, zero elsewhere. Where a row's H is not safely positive
        definite there (see _indefinite), it is shifted toward the Lloyd
        diagonal: H + lam diag(2 max(mass, MASS_TOL)), with lam the least
        that lifts the Gershgorin bound of the shifted matrix, in the Lloyd
        scale, to 1/10. The other coordinates get the identity, so that
        every row is factored, tested and solved in the same calls."""
        H = self.hessian(rows)
        H *= live[:, :, None]
        H *= live[:, None, :]
        r, k = np.nonzero(~live)
        H[r, k, k] = 1.0
        for p in _indefinite(H):
            row = rows[p]
            lloyd = 2.0 * np.maximum(self.state.masses[row, self.layout.owner[row]], MASS_TOL)
            S = H[p] / np.sqrt(np.outer(lloyd, lloyd))
            low = S.diagonal() - (np.abs(S).sum(axis=1) - np.abs(S.diagonal()))
            on = np.flatnonzero(live[p])
            H[p, on, on] += (0.1 - float(low[on].min())) * lloyd[on]
        g = np.where(live, self.state.grad[rows], 0.0)
        return -np.linalg.solve(H, g[..., None])[..., 0]

    def direction(self, rows):
        """The Newton steps at x of the given rows, zero where a coordinate
        is held at a bound, and which rows have one: a row none of whose
        movable coordinates has a gradient has none."""
        lay = self.layout
        x, g, lo, hi = self.x[rows], self.state.grad[rows], lay.lo[rows], lay.hi[rows]
        # hold coordinates at a bound that the gradient pushes outward; a
        # point without a cell has no gradient and no curvature
        live = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        live &= np.take_along_axis(self.state.masses[rows], lay.owner[rows], axis=1) > 0.0
        live &= lay.kind[rows] != _PAD
        moving = np.where(live, g, 0.0).any(axis=1)
        d = np.zeros_like(x)
        if moving.any():
            d[moving] = self.newton(rows[moving], live[moving])
        d[((x <= lo) & (d < 0.0)) | ((x >= hi) & (d > 0.0))] = 0.0
        return d, moving

    def run(self, tol: float, max_iters: int, rows=None) -> np.ndarray:
        """Iterate the given rows (every row by default) until an iteration
        improves a row's distortion by less than tol, or no step improves it
        beyond rounding (True), or for max_iters iterations (False); a row
        without coordinates stops at once (True). Returns the flags of all
        rows, True for a row not iterated."""
        lay = self.layout
        active = np.arange(len(self.x)) if rows is None else rows
        active = active[(lay.kind[active] != _PAD).any(axis=1)]
        for _ in range(max_iters):
            if not active.size:
                break
            f, g = self.state.distortion[active], self.state.grad[active]
            d, moving = self.direction(active)
            go = moving & (-(g * d).sum(axis=1) > _ROUNDING * f)
            active, f, g, d = active[go], f[go], g[go], d[go]
            x, lo, hi = self.x[active], lay.lo[active], lay.hi[active]
            step, search = np.ones(len(active)), np.arange(len(active))
            reached = np.full(len(active), np.nan)
            for _ in range(_HALVINGS):
                if not search.size:
                    break
                x_new = np.clip(x[search] + step[search, None] * d[search], lo[search], hi[search])
                new = self.evaluate(x_new, active[search])
                ok = new.distortion <= f[search] + _ARMIJO * (
                    g[search] * (x_new - x[search])).sum(axis=1)
                self._accept(new, ok, x_new)
                reached[search[ok]] = new.distortion[ok]
                search = search[~ok]
                step[search] *= 0.5
            # a row stops when its line search fails or its iteration
            # improved too little (the comparison with nan is False)
            active = active[f - reached >= np.maximum(tol, _ROUNDING * f)]
        converged = np.ones(len(self.x), dtype=bool)
        converged[active] = False
        return converged

    def finish(self, rows) -> None:
        """One more full Newton step on the given rows, kept unless it raises
        the distortion beyond rounding. The stop rules judge by the
        distortion, which a coordinate error moves only by its square, so
        they leave the coordinates about sqrt(eps D / mass) off; one Newton
        step from there squares that error."""
        d, moving = self.direction(rows)
        rows = rows[moving]
        if rows.size:
            x_new = np.clip(self.x[rows] + d[moving], self.layout.lo[rows], self.layout.hi[rows])
            new = self.evaluate(x_new, rows)
            self._accept(new, new.distortion <= self.state.distortion[rows] * (1.0 + _ROUNDING),
                         x_new)

    def result(self, row: int) -> list[TaggedPoint]:
        """The tagged points of a row at its x."""
        lay, xy = self.layout, self.state.xy[row]
        curve = lay.kind[row] >= 0
        params = dict(zip(lay.owner[row, curve].tolist(), self.x[row, curve].tolist()))
        return [replace(tp, point=Point2(*xy[i].tolist()), s=params.get(i))
                if tp.kind == "free" or i in params else tp
                for i, tp in enumerate(self.tagged[row])]


def _nearest_members(problem: Problem, run: _Descent, row: int):
    """A row's points with each positive-mass point-set member moved to the
    member nearest its cell mean; None when no member moves."""
    masses, moments = run.state.masses[row], run.state.moments[row]
    moved = {}
    for i, tp in enumerate(run.tagged[row]):
        cons = problem.constraints[tp.constraint_index] if tp.kind == "constrained" else None
        if isinstance(cons, PointSetConstraint) and masses[i] > 1e-12:
            mx, my = moments[i] / (masses[i] * problem.measure.total_length)
            k = int(np.argmin([(p.x - mx) ** 2 + (p.y - my) ** 2 for p in cons.points]))
            if k != int(tp.s):
                moved[i] = TaggedPoint("constrained", cons.points[k], tp.constraint_index, float(k))
    return [moved.get(i, tp) for i, tp in enumerate(run.result(row))] if moved else None


def _distortion(descent) -> float:
    """The distortion of a (batch, row, converged) descent."""
    run, row, _ = descent
    return run.state.distortion[row]


def _descend(problem: Problem, candidates, options: SolverOptions) -> list[tuple]:
    """Bounded Newton descent of every candidate to param_tol, in lockstep,
    then nearest-member moves of point-set members, repeated while the
    moves lower a candidate's distortion by at least param_tol; the
    candidates that moved descend again together. Returns each candidate's
    best descent as (batch, row, converged), converged saying whether its
    Newton descent reached param_tol."""
    best = [None] * len(candidates)
    todo = dict(enumerate(candidates))
    while todo:
        run = _Descent(problem, list(todo.values()))
        converged = run.run(options.param_tol, options.max_iters)
        moved = {}
        for row, k in enumerate(todo):
            if best[k] is not None and (run.state.distortion[row]
                                        > _distortion(best[k]) - options.param_tol):
                continue
            best[k] = (run, row, bool(converged[row]))
            tagged = _nearest_members(problem, run, row)
            if tagged is not None:
                moved[k] = tagged
        todo = moved
    return best


def solve(problem: Problem, options: SolverOptions | None = None) -> Quantizer:
    """Best quantizer over options.restarts k-means++ seeded runs.

    The runs go in chunks, in run order, as many as fit in _HESSIAN_FLOATS
    floats of a run's widest arrays: its seeding arrays or its Hessian over
    every coordinate. Each chunk is seeded from stratified samples of the
    support (see _seed_runs: chunks change no seed) just before it descends
    by bounded Newton on the exact Hessian of the distortion to param_tol.
    The winner (lowest distortion, earliest run on ties) then descends on
    in its batch until an iteration no longer improves it beyond rounding,
    and takes one last full Newton step, which fixes its points to
    rounding and not only its distortion. Raises ValueError when the
    winner's distortion or a cell mass is not finite, which happens when
    the problem's numbers overflow double precision.
    """
    options = options or SolverOptions()
    count = problem.n - len(problem.beta)
    members = [len(c.points) for c in problem.constraints if isinstance(c, PointSetConstraint)]
    free = any(isinstance(c, FreePlane) for c in problem.constraints)
    width = max(1, ((1 + free) * count) ** 2, 2 * SEED_SAMPLES * count * max([1] + members))
    chunk = max(1, _HESSIAN_FLOATS // width)
    rng, best = np.random.default_rng(options.rng_seed), None
    for start in range(0, options.restarts, chunk):
        seeds = _seed_runs(problem, rng, min(chunk, options.restarts - start))
        for run in _descend(problem, seeds, options):
            if best is None or _distortion(run) < _distortion(best) - 1e-15:
                best = run
    batch, row, converged = best
    batch.run(0.0, options.max_iters, np.array([row]))
    batch.finish(np.array([row]))
    d, masses = float(batch.state.distortion[row]), batch.state.masses[row]
    if not (np.isfinite(d) and np.isfinite(masses).all()):
        raise ValueError("the distortion or a cell mass is not finite: "
                         "the problem's coordinates overflow double precision")
    degenerate = tuple(i for i, m in enumerate(masses) if m <= MASS_TOL)
    return Quantizer(tuple(batch.result(row)), d, tuple(float(m) for m in masses),
                     converged, degenerate)


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
    if ell == 0 or problem.n <= ell:
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
