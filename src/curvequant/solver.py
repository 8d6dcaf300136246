"""Numerical solver for conditional constrained quantization on curve
measures.

Candidate quantizers carry a fixed conditional part (beta), points confined
to constraint sets, and free points. The multi-start runs go in chunks,
each seeded by k-means++ from the support alone just before it descends,
as arrays: only the result is tagged. A run is a bounded Newton descent on
the exact Hessian of the distortion over free coordinates and arc lengths
on constraint curves, a chunk's runs in lockstep: one cell-state pass
serves every run it evaluates, one batched factorization and solve every
run's Newton step, which each run assembles once per state. Point-set
members move to the member nearest their cell mean. No closed form is
consulted, so the solver checks them independently. Degenerate
(zero-mass) points are reported, not dropped.
"""

from __future__ import annotations

import math
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
    _envelope,
    _frame_array,
    _on_curve,
    _reach,
    _sites_array,
    distortion,  # noqa: F401 -- bound by name; perfbench's tracer test relies on it
)

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
    """Tagged points (beta first), distortion, one cell mass per point;
    degenerate_points indexes the points whose cell is empty (mass 0.0)."""

    points: tuple[TaggedPoint, ...]
    distortion: float
    masses: tuple[float, ...]
    converged: bool  # the winner's descent reached the rounding stop within max_iters
    degenerate_points: tuple[int, ...]


@dataclass(frozen=True)
class SolverOptions:
    restarts: int = 16
    rng_seed: int = 42
    max_iters: int = 10_000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
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
            if not _on_curve(tp.s, cons.curve.length):
                raise ValueError("constraint parameter out of range")
        elif isinstance(cons, PointSetConstraint):
            if not 0 <= int(tp.s) < len(cons.points):
                raise ValueError("point-set member index out of range")


def evaluate(problem: Problem, candidate) -> tuple[float, list[float]]:
    """Distortion and Voronoi masses of a tagged candidate (beta included),
    from one cell-state pass."""
    _check_candidate(problem, candidate)
    d, masses, _, _ = _cell_state(problem.measure,
                                  _sites_array([tp.point for tp in candidate])[None])
    return float(d[0]), masses[0].tolist()


def lloyd_step(problem: Problem, candidate) -> list[TaggedPoint]:
    """Move every free point to its cell mean; one whose cell is empty
    (mass 0.0) is left in place (the degeneracy signal)."""
    _check_candidate(problem, candidate)
    _, (masses,), (moments,), _ = _exact_state(
        problem.measure, _sites_array([tp.point for tp in candidate])[None])
    out = []
    for i, tp in enumerate(candidate):
        if tp.kind != "free" or masses[i] == 0.0:
            out.append(tp)
            continue
        cell_len = masses[i] * problem.measure.total_length
        out.append(TaggedPoint("free", Point2(moments[i, 0] / cell_len,
                                              moments[i, 1] / cell_len)))
    return out


# ---------------------------------------------------------------------------
# seeding


def _nearest(cons: CurveConstraint | PointSetConstraint, xy: np.ndarray):
    """Nearest point of a curve or point-set constraint to each row of xy:
    arrays (arc length or member index, points, squared distances). The one
    member search of the solver, which the snap and the nearest-member move
    take: on a curve geometry._reach's, from the rows' _envelope terms; on a
    point set the least squared distance to a member, the first on ties."""
    if isinstance(cons, CurveConstraint):
        d2, s = _reach(cons.curve, *_envelope(cons.curve, xy)[2:])
        return s, _frame_array(cons.curve, s)[0], d2
    members = np.array([(p.x, p.y) for p in cons.points])
    d2 = (xy[:, :1] - members[:, 0]) ** 2 + (xy[:, 1:] - members[:, 1]) ** 2
    member = d2.argmin(axis=1)
    return member.astype(float), members[member], d2.min(axis=1)


def _snap(problem: Problem, xy: np.ndarray):
    """Nearest admissible point to each row of xy over the union of the
    constraint sets, by the squared distances _nearest finds: arrays
    (points, constraint index, arc length or member index, squared
    distance), with index -1 and distance 0 for a free point."""
    points = xy.copy()
    index = np.full(len(xy), -1)
    param = np.zeros(len(xy))
    best = np.full(len(xy), np.inf)
    for i, cons in enumerate(problem.constraints):
        if isinstance(cons, FreePlane):
            return xy, np.full(len(xy), -1), param, np.zeros(len(xy))
        s, cand, d2 = _nearest(cons, xy)
        # the first set claims every row, even one whose distance overflows
        nearer = (d2 < best) | (index < 0)
        best[nearer], points[nearer], index[nearer], param[nearer] = (
            d2[nearer], cand[nearer], i, s[nearer])
    return points, index, param, best


class _Seeds(NamedTuple):
    """R candidates of one problem, m points each, beta first."""

    sites: np.ndarray  # (R, m, 2)
    index: np.ndarray  # (R, m - l) constraint index of each point after beta, or -1
    param: np.ndarray  # (R, m - l) its arc length or member index, 0 if free


def _seed_runs(problem: Problem, rng, runs: int) -> _Seeds:
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
    beta = np.array([(b.x, b.y) for b in problem.beta], float).reshape(-1, 2)
    beta = np.tile(beta, (runs, 1, 1))
    if count == 0:
        return _Seeds(beta, np.zeros((runs, 0), dtype=int), np.zeros((runs, 0)))
    size = SEED_SAMPLES * count
    lengths = np.array([c.length for c in problem.measure.curves])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    v = rng.random((runs, size + count))
    u = (np.arange(size) + v[:, :size]) * (bounds[-1] / size)
    owner = np.minimum(np.searchsorted(bounds, u, side="right") - 1, len(lengths) - 1)
    pool = np.empty(u.shape + (2,))
    for k, c in enumerate(problem.measure.curves):
        here = owner == k
        pool[here] = _frame_array(c, np.minimum(u[here] - bounds[k], lengths[k]))[0]
    snapped, index, param, own = _snap(problem, pool.reshape(-1, 2))
    snapped, own = snapped.reshape(pool.shape), own.reshape(u.shape)
    # by coordinate: numpy sums a last axis of length 2 slowly
    x, y = pool[..., 0], pool[..., 1]
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
    return _Seeds(np.concatenate([beta, snapped.reshape(-1, 2)[flat]], axis=1),
                  index[flat], param[flat])


# ---------------------------------------------------------------------------
# descent

# the kind of a descent coordinate that is no curve's arc length: a free
# point's x or y, or a slot that moves nothing (a point-set member's, a curve
# point's second)
_FREE, _PAD = -1, -2


class _Layout(NamedTuple):
    """Where the descent coordinates of a batch of R candidates with m
    sites each live. Each site after beta has w fixed, consecutive slots of
    x, w = 2 when the batch holds a free point and 1 otherwise: a free
    point's x and y (kind _FREE), a curve point's arc length,
    boxed to [0, length] (kind the constraint index), and _PAD for the rest.
    Each coordinate moves one site along one unit vector, which each state
    pass takes from the coordinate's constraint (see _State), so no dense
    d(sites)/dx matrix is ever formed."""

    owner: np.ndarray  # (n,) the site each coordinate moves
    kind: np.ndarray  # (R, n) constraint index of an arc length, _FREE or _PAD
    lo: np.ndarray  # (R, n) box bounds (0 for padding)
    hi: np.ndarray
    slots: np.ndarray  # (m, w) the coordinates of each site, n where none


def _layout(problem: Problem, seeds: _Seeds) -> tuple[_Layout, np.ndarray]:
    """The layout of a batch of candidates, and their x."""
    ell, (runs, m) = len(problem.beta), seeds.sites.shape[:2]
    curves = [isinstance(c, CurveConstraint) for c in problem.constraints]
    free = seeds.index < 0
    kind = np.where(free, _FREE, np.where(np.array(curves)[seeds.index], seeds.index, _PAD))
    x = np.where(free[..., None], seeds.sites[:, ell:], seeds.param[..., None] * [1.0, 0.0])
    w = 1 + bool(free.any())
    # a free point's second slot is its y; any other site's moves nothing
    kind = np.stack([kind, np.where(free, _FREE, _PAD)], axis=2)
    x, kind = x[..., :w].reshape(runs, -1), kind[..., :w].reshape(runs, -1)
    n = x.shape[1]
    owner = ell + np.arange(n) // w
    slots = np.full((m, w), n)
    slots[ell:] = np.arange(n).reshape(-1, w)
    lo = np.where(kind == _FREE, -np.inf, 0.0)
    # indexed by kind: _PAD (-2) reads 0 and _FREE (-1) inf
    hi = np.array([c.curve.length if on else 0.0
                   for c, on in zip(problem.constraints, curves)] + [0.0, np.inf])[kind]
    return _Layout(owner, kind, lo, hi, slots), np.clip(x, lo, hi)


def _indefinite(H: np.ndarray) -> list[int]:
    """Which matrices of the stack H are not safely positive definite: their
    Cholesky factorization fails or has a pivot at rounding level (on a full
    circle, turning all points is free). The whole stack is factored in one
    call; when that fails, each matrix is tested alone."""
    try:
        pivots = np.linalg.cholesky(H).diagonal(axis1=1, axis2=2) ** 2
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return [0]
        return [p for p in range(len(H)) if _indefinite(H[p:p + 1])]
    scale = H.diagonal(axis1=1, axis2=2).max(axis=1, keepdims=True)
    return (pivots <= _PIVOT * scale).any(axis=1).nonzero()[0].tolist()


def _dot(a, b):
    """Dot products over a last axis of length 2, which numpy sums slowly."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


class _State(NamedTuple):
    """One cell-state pass at x over some rows of a batch, one entry per row."""

    rows: np.ndarray  # the batch rows it covers
    xy: np.ndarray  # (k, m, 2) the sites
    distortion: np.ndarray  # (k,)
    masses: np.ndarray  # (k, m)
    moments: np.ndarray  # (k, m, 2)
    grad: np.ndarray  # (k, n) of the distortion in x
    tangent: np.ndarray  # (k, n, 2) the unit vector each coordinate moves its site along
    bend: np.ndarray  # (k, n) on an arc, g . (p - center) / r^2 = -g . c''(s); else 0
    pieces: list  # per support curve, (s1, site, batch row) of its pieces, row after row


class _Descent:
    """Bounded Newton descent on the distortion of a batch of candidates
    (_Seeds) of one problem, all rows in lockstep. x holds one row per
    candidate (see _Layout); beta and point-set members stay put. Every
    cell-state pass serves all the rows it evaluates at once, and every
    Newton step solves all rows' systems H d = -g in one call: H is the
    exact Hessian of the row's state (`hessian`), on the coordinates not
    held at a bound, shifted toward the Lloyd diagonal where it is not
    positive definite (`newton`). Each row's step is projected onto the box
    and halved until it meets the Armijo condition, the rows still
    searching re-evaluated together; `finish` takes one last full step.
    `state` holds the cell-state pass at each row's x, and a row's step is
    assembled there once and kept until `_accept` moves the row.
    """

    def __init__(self, problem: Problem, seeds: _Seeds):
        self.problem, self.measure = problem, problem.measure
        self.sites, self.index, self.param = seeds
        self.layout, self.x = _layout(problem, seeds)
        self.curves = [(ci, cons.curve) for ci, cons in enumerate(problem.constraints)
                       if isinstance(cons, CurveConstraint)]
        # fixed for the batch: the coordinates that move a site, and the unit
        # vector of each slot were it a free x or y
        self.real = self.layout.kind != _PAD
        self.axes = np.eye(2)[np.arange(self.x.shape[1]) % self.layout.slots.shape[1]]
        self.state = self.evaluate(self.x)
        self.step = np.zeros(self.x.shape)
        self.moving, self.known = np.zeros((2, len(self.x)), bool)

    def evaluate(self, x, rows=None) -> _State:
        """One cell-state pass at x, whose row k is x of the batch's row
        rows[k] (every row by default), rows ascending."""
        rows = np.arange(len(self.x)) if rows is None else rows
        lay, m = self.layout, self.sites.shape[1]
        kind, xy = lay.kind[rows], self.sites[rows]
        free = kind == _FREE
        tangent = self.axes * free[..., None]
        if free.any():  # free x and y fill their sites' slots
            np.copyto(xy[:, len(self.problem.beta):], x.reshape(len(rows), -1, 2),
                      where=free.reshape(len(rows), -1, 2))
        arcs = []
        for ci, curve in self.curves:
            r, k = (kind == ci).nonzero()
            if r.size:
                # an arc length moves its point along the unit tangent
                xy[r, lay.owner[k]], tangent[r, k] = _frame_array(curve, x[r, k])
                if isinstance(curve, Arc):
                    arcs.append((r, k, curve))
        d, masses, moments, pieces = _exact_state(self.measure, xy)
        # dD/dp_i = 2 (mass_i p_i - moment_i / L), chained to x
        g = 2.0 * (masses[..., None] * xy - moments * self.measure.density)[:, lay.owner]
        # on an arc, minus the curvature term g . c''(s) = -g . (p - center) / r^2
        bend = np.zeros(kind.shape)
        for r, k, arc in arcs:
            # numpy's power has the bits of Python's, but overflows to inf
            # where Python's raises
            bend[r, k] = _dot(xy[r, lay.owner[k]] - (arc.center.x, arc.center.y),
                              g[r, k]) / np.float64(arc.radius) ** 2
        return _State(rows, xy, d, masses, moments, _dot(g, tangent), tangent, bend,
                      [(s1, owner_ % m, rows[owner_ // m]) for s1, owner_ in pieces])

    def _accept(self, new: _State, ok, x) -> None:
        """Move the rows of new where ok to x and their state in new."""
        if len(new.rows) == len(self.x) and ok.all():
            # every row moves, and new holds them in order: it is the state
            self.x, self.state, self.known[:] = x, new, False
            return
        rows = new.rows[ok]
        self.x[rows], self.known[rows] = x[ok], False
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
        coordinates in the w slots of each of its two sites (see _Layout),
        and a point on an arc also gets g_i . c''(s_i) there, minus the
        state's bend. The terms of all cuts of all rows are summed into the
        stack by one bincount.
        """
        state, lay, n = self.state, self.layout, self.x.shape[1]
        at_row = np.empty(len(self.x), dtype=int)
        at_row.fill(-1)
        at_row[rows] = np.arange(len(rows))
        cuts = []
        for c, (s1, site, r) in zip(self.measure.curves, state.pieces):
            a = at_row[r]
            k = ((site[:-1] != site[1:]) & (a[:-1] == a[1:]) & (a[:-1] >= 0)).nonzero()[0]
            cuts.append((r[k], a[k], site[k[:, None] + (0, 1)], *_frame_array(c, s1[k])))
        r, a, ij, at, tau = map(np.concatenate, zip(*cuts))
        p = state.xy[r[:, None], ij]  # p_i and p_j of each cut
        rate = 2.0 * _dot(p[:, 1] - p[:, 0], tau)
        # a rate that is not positive (sites equal up to rounding) adds nothing
        weight = np.sqrt(4.0 * self.measure.density / np.where(rate > 0.0, rate, np.inf))
        # per cut, the coordinates of i and j (n for none) and sqrt(4 / (L phi'))
        # w chained to each (0 at a _PAD slot, whose tangent is 0)
        slot = lay.slots[ij]
        w = weight[:, None, None] * (p - at[:, None])
        w[:, 1] *= -1.0
        v = _dot(w[:, :, None], state.tangent[r[:, None, None], np.minimum(slot, n - 1)])
        v, slot = v.reshape(-1, 2 * slot.shape[2]), slot.reshape(-1, 2 * slot.shape[2])
        # slot n sums into a cut-off row and column (without cuts, in ints)
        flat = (a[:, None, None] * (n + 1) + slot[:, :, None]) * (n + 1) + slot[:, None, :]
        H = np.bincount(flat.ravel(), (-v[:, :, None] * v[:, None, :]).ravel(),
                        minlength=len(rows) * (n + 1) ** 2).astype(float, copy=False)
        diag = 2.0 * state.masses[rows[:, None], lay.owner] - state.bend[rows]
        H.reshape(len(rows), -1)[:, :-1:n + 2] += np.where(self.real[rows], diag, 0.0)
        return H.reshape(len(rows), n + 1, n + 1)[:, :n, :n]

    def newton(self, rows, live) -> np.ndarray:
        """The Newton steps -H^-1 g of the given rows on their live
        coordinates, zero elsewhere. Where a row's H is not safely positive
        definite there (see _indefinite), it is shifted toward the Lloyd
        diagonal: H + lam diag(2 mass), masses positive on live coordinates,
        with lam the least that lifts the Gershgorin bound of the shifted
        matrix, in the Lloyd scale, to 1/10. The other coordinates get the
        identity (scale 1), so that every row is tested in one stacked
        Cholesky call (row by row only when that fails) and solved in one
        call."""
        H = self.hessian(rows)
        H *= live[:, :, None]
        H *= live[:, None, :]
        r, k = (~live).nonzero()
        H[r, k, k] = 1.0
        for p in _indefinite(H):
            row = rows[p]
            lloyd = np.where(live[p], 2.0 * self.state.masses[row, self.layout.owner], 1.0)
            S = H[p] / np.sqrt(np.outer(lloyd, lloyd))
            low = S.diagonal() - (np.abs(S).sum(axis=1) - np.abs(S.diagonal()))
            on = live[p].nonzero()[0]
            H[p, on, on] += (0.1 - float(low[on].min())) * lloyd[on]
        g = np.where(live, self.state.grad[rows], 0.0)
        return -np.linalg.solve(H, g[..., None])[..., 0]

    def direction(self, rows):
        """The Newton steps at x of the given rows, zero where a coordinate
        is held at a bound, and which rows have one: a row none of whose
        movable coordinates has a gradient has none."""
        new, lay = rows[~self.known[rows]], self.layout
        x, g, lo, hi = self.x[new], self.state.grad[new], lay.lo[new], lay.hi[new]
        # hold coordinates at a bound that the gradient pushes outward; a
        # point without a cell has no gradient and no curvature
        live = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        live &= self.state.masses[new][:, lay.owner] > 0.0
        live &= self.real[new]
        moving = np.where(live, g, 0.0).any(axis=1)
        d = np.zeros(x.shape)
        if moving.any():
            d[moving] = self.newton(new[moving], live[moving])
        d[((x <= lo) & (d < 0.0)) | ((x >= hi) & (d > 0.0))] = 0.0
        self.step[new], self.moving[new], self.known[new] = d, moving, True
        return self.step[rows], self.moving[rows]

    def run(self, max_iters: int) -> np.ndarray:
        """Iterate every row until neither an iteration nor the step it
        would take lowers its distortion by more than _ROUNDING of it
        (True), or for max_iters iterations (False); a row without
        coordinates stops at once (True). Returns the flags of all rows."""
        lay = self.layout
        active = self.real.any(axis=1).nonzero()[0]
        for _ in range(max_iters):
            if not active.size:
                break
            f, g = self.state.distortion[active], self.state.grad[active]
            d, moving = self.direction(active)
            go = moving & (-(g * d).sum(axis=1) > _ROUNDING * f)
            active, f, g, d = active[go], f[go], g[go], d[go]
            x, lo, hi = self.x[active], lay.lo[active], lay.hi[active]
            reached, search = np.empty(len(active)), slice(None)
            reached.fill(np.nan)
            # each searching row has halved its step h times
            for h in range(_HALVINGS if active.size else 0):
                x_new = np.minimum(np.maximum(x[search] + 0.5 ** h * d[search], lo[search]),
                                   hi[search])
                new = self.evaluate(x_new, active[search])
                ok = new.distortion <= f[search] + _ARMIJO * (
                    g[search] * (x_new - x[search])).sum(axis=1)
                self._accept(new, ok, x_new)
                reached[search] = np.where(ok, new.distortion, np.nan)
                if ok.all():
                    break
                search = np.arange(len(active))[search][~ok]
            # a row stops when its line search fails or its iteration
            # improved too little (the comparison with nan is False)
            active = active[f - reached >= _ROUNDING * f]
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
            x_new = np.minimum(np.maximum(self.x[rows] + d[moving], self.layout.lo[rows]),
                               self.layout.hi[rows])
            new = self.evaluate(x_new, rows)
            self._accept(new, new.distortion <= self.state.distortion[rows] * (1.0 + _ROUNDING),
                         x_new)

    def params(self) -> np.ndarray:
        """The param arrays of every row at its x (see _Seeds)."""
        lay, param = self.layout, self.param.copy()
        r, k = (lay.kind >= 0).nonzero()
        param[r, lay.owner[k] - len(self.problem.beta)] = self.x[r, k]
        return param

    def result(self, row: int) -> list[TaggedPoint]:
        """The tagged points of a row at its x."""
        ell = len(self.problem.beta)
        return [TaggedPoint("beta", b) for b in self.problem.beta] + [
            TaggedPoint("free", Point2(*p)) if i < 0
            else TaggedPoint("constrained", Point2(*p), i, s)
            for p, i, s in zip(self.state.xy[row, ell:].tolist(), self.index[row].tolist(),
                               self.params()[row].tolist())]


def _nearest_members(problem: Problem, run: _Descent):
    """The batch's seed arrays at its x, each positive-mass point-set member
    moved to the member nearest its cell mean, and which rows moved one."""
    ell, state, param = len(problem.beta), run.state, run.params()
    sites, moved = state.xy.copy(), np.zeros(len(param), dtype=bool)
    for ci, cons in enumerate(problem.constraints):
        if isinstance(cons, PointSetConstraint):
            r, i = ((run.index == ci) & (state.masses[:, ell:] > 0.0)).nonzero()
            mass = state.masses[r, ell + i] * problem.measure.total_length
            k, at, _ = _nearest(cons, state.moments[r, ell + i] / mass[:, None])
            new = k != param[r, i]
            r, i = r[new], i[new]
            sites[r, ell + i], param[r, i], moved[r] = at[new], k[new], True
    return _Seeds(sites, run.index, param), moved


def _descend(problem: Problem, seeds: _Seeds, options: SolverOptions) -> list[tuple]:
    """Bounded Newton descent of every candidate in lockstep, each until an
    iteration no longer lowers its distortion beyond rounding (_ROUNDING of
    it), then nearest-member moves of point-set members, repeated while the
    moves lower a candidate's distortion beyond rounding; the candidates
    that moved descend again together. Returns each candidate's best
    descent as (distortion, batch, row, converged), converged saying
    whether its Newton descent reached that stop within max_iters."""
    best, todo = [None] * len(seeds.sites), np.arange(len(seeds.sites))
    while todo.size:
        run = _Descent(problem, seeds)
        converged = run.run(options.max_iters)
        seeds, moved = _nearest_members(problem, run)
        for row, k in enumerate(todo.tolist()):
            d = run.state.distortion[row]
            if best[k] is not None and d > best[k][0] * (1.0 - _ROUNDING):
                moved[row] = False
            else:
                best[k] = (d, run, row, bool(converged[row]))
        todo, seeds = todo[moved], _Seeds(*(a[moved] for a in seeds))
    return best


def solve(problem: Problem, options: SolverOptions | None = None) -> Quantizer:
    """Best quantizer over options.restarts k-means++ seeded runs.

    The runs go in chunks, in run order, as many as fit in _HESSIAN_FLOATS
    floats of a run's widest arrays: its seeding arrays or its Hessian over
    every coordinate. Each chunk is seeded from stratified samples of the
    support just before it descends by bounded Newton on the exact Hessian
    of the distortion until an iteration no longer lowers a run's
    distortion beyond rounding (_descend); no run's seed or result depends
    on its chunk. The winner (lowest distortion, earliest run on ties, both
    judged relative to the distortion, so scaling the problem changes no
    choice) then takes one last full Newton step, which fixes its points to
    rounding and not only its distortion. Quantizer.converged says whether
    the winner reached that stop within max_iters; degenerate_points are
    its points with an empty cell (mass 0.0). Raises ValueError when the
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
            if best is None or run[0] < best[0] * (1.0 - _ROUNDING):
                best = run
    _, batch, row, converged = best
    batch.finish(np.array([row]))
    d, masses = float(batch.state.distortion[row]), batch.state.masses[row]
    if not (np.isfinite(d) and np.isfinite(masses).all()):
        raise ValueError("the distortion or a cell mass is not finite: "
                         "the problem's coordinates overflow double precision")
    degenerate = tuple(i for i, m in enumerate(masses) if m == 0.0)
    return Quantizer(tuple(batch.result(row)), d, tuple(float(m) for m in masses),
                     converged, degenerate)


def existence_check(problem: Problem, options: SolverOptions | None = None) -> ExistenceReport:
    """Whether an optimal set of exactly n positive-mass points exists.

    Runs the solver (four restarts by default) and checks that no point's
    cell is empty (mass 0.0); the witness always holds n points (beta and
    every row's n - l), so that is the whole test. The degeneracy signal is
    a cell the descent shrinks until it is empty, since every run descends
    until an iteration no longer lowers its distortion beyond rounding.
    """
    witness = solve(problem, options or SolverOptions(restarts=4))
    exists = not witness.degenerate_points
    return ExistenceReport(exists, witness)


def sandwich_check(problem: Problem, options: SolverOptions | None = None) -> SandwichReport:
    """Compare conditional error against the plain n and n - l errors.

    Solves the same constrained problem three ways with one budget and
    reports whether v_n <= v_cond_n <= v_(n-l) holds to 1e-7 relative.
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
    slack = 1.0 + 1e-7
    holds = (v_n <= v_cond * slack) and (v_cond <= v_minus * slack)
    return SandwichReport(v_n, v_cond, v_minus, holds)


def _beta_inside_constraints(problem: Problem, b: Point2) -> bool:
    """Whether the snap's distance from b to the constraint union is below
    1e-9 of the problem's size: the support's length, or b's largest
    coordinate where that is larger (the curves' coordinates round relative
    to their magnitude)."""
    d2 = _snap(problem, np.array([[b.x, b.y]]))[3][0]
    size = max(problem.measure.total_length, abs(b.x), abs(b.y))
    # the bound not squared: 1e-18 size^2 underflows for the smallest supports
    return math.sqrt(d2) < 1e-9 * size


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
