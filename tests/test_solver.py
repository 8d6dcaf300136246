"""Solver tests: evaluation, Lloyd dynamics, the descent gradient, multi-start
solve, existence detection, the sandwich chain, and density gaps."""

import inspect
import math
import sys

import numpy as np
import pytest

import curvequant.allocation as allocation
import curvequant.closed_form as cf
from curvequant import scenarios as sc
import curvequant.solver as solver_module
from curvequant.geometry import (
    Arc,
    Point2,
    Segment,
    UniformCurveMeasure,
    _cell_state,
    _frame_array,
    curve_length,
    distortion,
    voronoi_breakpoints,
    voronoi_masses,
)
from curvequant.solver import (
    MASS_TOL,
    CurveConstraint,
    FreePlane,
    PointSetConstraint,
    Problem,
    SolverOptions,
    TaggedPoint,
    density_gap,
    evaluate,
    existence_check,
    lloyd_step,
    sandwich_check,
    solve,
    SEED_SAMPLES,
    _Descent,
    _indefinite,
    _seed_runs,
)

V3_SEMI = (2.0 / (2.0 + math.pi)) * (-2.0 * math.sqrt(2.0) + 1.0 / 3.0 + math.pi)


def tag_free(*xy):
    return [TaggedPoint("free", Point2(x, y)) for x, y in xy]


class TestTypes:
    def test_problem_rejects_n_below_beta_count(self):
        with pytest.raises(ValueError):
            Problem(sc.interval_measure(), (FreePlane(),), 1,
                    beta=(Point2(0, 0), Point2(1, 0)))

    def test_problem_needs_constraints(self):
        with pytest.raises(ValueError):
            Problem(sc.interval_measure(), (), 2)

    def test_point_set_constraint_nonempty(self):
        with pytest.raises(ValueError):
            PointSetConstraint(())

    def test_tagged_point_kind_validated(self):
        with pytest.raises(ValueError):
            TaggedPoint("anchored", Point2(0, 0))
        with pytest.raises(ValueError):
            TaggedPoint("constrained", Point2(0, 0))

    def test_options_validated(self):
        with pytest.raises(ValueError):
            SolverOptions(restarts=0)
        with pytest.raises(ValueError):
            SolverOptions(param_tol=0.0)

    def test_negative_rng_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            SolverOptions(rng_seed=-3)
        assert SolverOptions(rng_seed=0).rng_seed == 0


class TestEvaluate:
    def test_semicircle_three_point_value(self):
        prob = sc.semicircle_problem(3)
        cand = [TaggedPoint("beta", Point2(-1, 0)), TaggedPoint("beta", Point2(1, 0)),
                TaggedPoint("constrained", Point2(0, 1), 1, math.pi / 2)]
        d, masses = evaluate(prob, cand)
        assert d == pytest.approx(V3_SEMI, rel=1e-12)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_four_point_value(self):
        prob = sc.triangle_problem(4)
        pts = cf.triangle_conditional(4).points
        cand = [TaggedPoint("beta", p) for p in sc.TRIANGLE_VERTICES]
        extra = [p for p in pts
                 if all((p.x, p.y) != (v.x, v.y) for v in sc.TRIANGLE_VERTICES)]
        cand.append(TaggedPoint("constrained", extra[0], 0, extra[0].x))
        d, _ = evaluate(prob, cand)
        assert d == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_beta_alone(self):
        prob = sc.interval_left_problem(1)
        d, masses = evaluate(prob, [TaggedPoint("beta", Point2(0, 0))])
        assert d == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert masses == [pytest.approx(1.0)]

    def test_missing_beta_rejected(self):
        prob = sc.interval_left_problem(2)
        with pytest.raises(ValueError):
            evaluate(prob, tag_free((0.5, 0.0)))

    def test_parameter_out_of_range_rejected(self):
        prob = sc.interval_support_problem(1)
        cand = [TaggedPoint("constrained", Point2(2, 0), 0, 2.0)]
        with pytest.raises(ValueError):
            evaluate(prob, cand)

    def test_too_many_points_rejected(self):
        prob = sc.interval_free_problem(1)
        with pytest.raises(ValueError):
            evaluate(prob, tag_free((0.2, 0.0), (0.8, 0.0)))

    def test_one_state_pass_same_values(self, monkeypatch):
        prob = sc.semicircle_problem(5)
        cand = [TaggedPoint("beta", p) for p in prob.beta] + [
            TaggedPoint("constrained", Point2(0.3, 0.0), 0, 1.3),
            TaggedPoint("constrained", Point2(0.0, 1.0), 1, math.pi / 2),
            TaggedPoint("constrained", Point2(-0.6, 0.8), 1, 2.2142974355881813)]
        sites = [tp.point for tp in cand]
        calls = []
        state = solver_module._cell_state
        monkeypatch.setattr(solver_module, "_cell_state",
                            lambda *args: calls.append(1) or state(*args))
        d, masses = evaluate(prob, cand)
        assert len(calls) == 1
        assert d == distortion(prob.measure, sites)
        assert masses == voronoi_masses(prob.measure, sites)
        assert all(type(v) is float for v in masses)


class TestLloydStep:
    def test_fixed_point_with_left_beta(self):
        # one free point against beta at the origin settles at 2/3
        prob = sc.interval_left_problem(2)
        cand = [TaggedPoint("beta", Point2(0, 0)), TaggedPoint("free", Point2(0.9, 0))]
        for _ in range(300):
            cand = lloyd_step(prob, cand)
        assert cand[1].point.x == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert cand[1].point.y == pytest.approx(0.0, abs=1e-12)

    def test_point_at_cell_mean_is_stationary(self):
        prob = sc.interval_free_problem(1)
        cand = tag_free((0.5, 0.0))
        nxt = lloyd_step(prob, cand)
        assert nxt[0].point.x == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_pair_converges_to_quarters(self):
        measure = sc.interval_measure(-1.0, 1.0)
        prob = Problem(measure, (FreePlane(),), 2)
        cand = tag_free((-0.9, 0.0), (0.3, 0.0))
        for _ in range(400):
            cand = lloyd_step(prob, cand)
        xs = sorted(tp.point.x for tp in cand)
        assert xs[0] == pytest.approx(-0.5, abs=1e-9)
        assert xs[1] == pytest.approx(0.5, abs=1e-9)

    def test_monotone_distortion(self):
        rng = np.random.default_rng(7)
        prob = sc.interval_free_problem(4)
        cand = tag_free(*((x, y) for x, y in rng.uniform(-0.2, 1.2, (4, 2))))
        prev, _ = evaluate(prob, cand)
        for _ in range(25):
            cand = lloyd_step(prob, cand)
            cur, _ = evaluate(prob, cand)
            assert cur <= prev + 1e-12
            prev = cur

    def test_zero_mass_point_left_in_place(self):
        # second point dominated: same location as the first
        prob = sc.interval_free_problem(2)
        cand = tag_free((0.5, 0.0), (10.0, 10.0))
        far = lloyd_step(prob, cand)
        assert far[1].point.x == pytest.approx(10.0)

    def test_beta_never_moves(self):
        prob = sc.interval_left_problem(3)
        cand = [TaggedPoint("beta", Point2(0, 0))] + tag_free((0.4, 0.1), (0.8, -0.1))
        nxt = lloyd_step(prob, cand)
        assert (nxt[0].point.x, nxt[0].point.y) == (0.0, 0.0)


def one_descent(problem, rng):
    """A batch of one candidate, seeded from the data."""
    return _Descent(problem, _seed_runs(problem, rng, 1))


def central_differences(descent, x, h=1e-6):
    out = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (descent.evaluate((x + e)[None]).distortion[0]
                  - descent.evaluate((x - e)[None]).distortion[0]) / (2.0 * h)
    return out


class TestGradient:
    """The descent's gradient, 2 (mass_i p_i - moment_i / L) chained through
    the unit tangent for curve points, against central differences of the
    cell-state distortion."""

    @pytest.mark.parametrize("problem", [
        Problem(sc.semicircle_measure(), (FreePlane(),), 6, beta=(Point2(-1.0, 0.0),)),
        sc.semicircle_problem(7),
        sc.triangle_problem(8),
    ], ids=["free", "semicircle", "triangle"])
    def test_matches_central_differences(self, problem):
        rng = np.random.default_rng(5)
        for _ in range(3):
            descent = one_descent(problem, rng)
            x = descent.x[0]
            if isinstance(problem.constraints[0], FreePlane):
                x = x + rng.normal(0.0, 0.05, x.size)
            state = descent.evaluate(x[None])
            masses, grad = state.masses[0], state.grad[0]
            assert (masses > 1e-6).all()
            if not isinstance(problem.constraints[0], FreePlane):
                # every curve point sits strictly inside its curve
                assert ((x > 1e-3) & (x < descent.layout.hi[0] - 1e-3)).all()
            want = central_differences(descent, x)
            assert grad == pytest.approx(want, rel=1e-6, abs=1e-9)


def central_hessian(descent, x, h=1e-6):
    out = np.empty((x.size, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[:, k] = (descent.evaluate((x + e)[None]).grad[0]
                     - descent.evaluate((x - e)[None]).grad[0]) / (2.0 * h)
    return out


class TestHessian:
    """The descent's exact Hessian (2 mass on the diagonal, one rank-one term
    per Voronoi cut, chained through the unit tangent plus the arc curvature
    term) against central differences of its exact gradient."""

    @pytest.mark.parametrize("problem", [
        Problem(sc.semicircle_measure(), (FreePlane(),), 6, beta=(Point2(-1.0, 0.0),)),
        sc.semicircle_problem(7),
        sc.triangle_problem(8),
        sc.interval_left_problem(6),
    ], ids=["free", "semicircle", "triangle", "interval-left"])
    def test_matches_central_differences(self, problem):
        rng = np.random.default_rng(5)
        for _ in range(3):
            descent = one_descent(problem, rng)
            x = descent.x[0]
            if isinstance(problem.constraints[0], FreePlane):
                # small enough that no cell of the six points on [0, 1] empties
                x = x + rng.normal(0.0, 0.01, x.size)
            descent.x, descent.state = x[None], descent.evaluate(x[None])
            assert (descent.state.masses > 1e-6).all()
            if not isinstance(problem.constraints[0], FreePlane):
                assert ((x > 1e-3) & (x < descent.layout.hi[0] - 1e-3)).all()
            want = central_hessian(descent, x)
            assert descent.hessian(np.arange(1))[0] == pytest.approx(want, rel=1e-6, abs=1e-9)


def seed_batch(problem, count, rng_seed=3):
    """count data-driven seeds of a problem, as solve draws them."""
    return _seed_runs(problem, np.random.default_rng(rng_seed), count)


def kmeans_pp_oracle(problem, samples, pick, uniform):
    """One run's k-means++ seed, one pick at a time, as the per-restart
    seeder made it. Its variates come from three callables: samples(size)
    gives the stratifying uniforms, pick(total) a weighted pick's point in
    [0, total) and uniform(pool) a uniform pick's index."""
    count = problem.n - len(problem.beta)
    tagged = [TaggedPoint("beta", b) for b in problem.beta]
    if count == 0:
        return tagged
    size = SEED_SAMPLES * count
    measure = problem.measure
    lengths = np.array([curve_length(c) for c in measure.curves])
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    u = (np.arange(size) + samples(size)) * (bounds[-1] / size)
    owner = np.minimum(np.searchsorted(bounds, u, side="right") - 1, len(lengths) - 1)
    pool = np.empty((size, 2))
    for k, c in enumerate(measure.curves):
        here = owner == k
        pool[here] = _frame_array(c, np.minimum(u[here] - bounds[k], lengths[k]))[0]
    snapped, index, param = solver_module._snap(problem, pool)
    own = ((pool - snapped) ** 2).sum(axis=1)
    d2 = np.full(size, np.inf)
    for b in problem.beta:
        d2 = np.minimum(d2, ((pool - (b.x, b.y)) ** 2).sum(axis=1))
    for _ in range(count):
        cum = np.cumsum(np.maximum(d2 - own, 0.0))
        if 0.0 < cum[-1] < np.inf:
            k = int(np.searchsorted(cum, pick(cum[-1]), side="right"))
        else:
            k = int(uniform(size))
        point = Point2(float(snapped[k, 0]), float(snapped[k, 1]))
        if index[k] < 0:
            tagged.append(TaggedPoint("free", point))
        else:
            tagged.append(TaggedPoint("constrained", point, int(index[k]), float(param[k])))
        d2 = np.minimum(d2, ((pool - snapped[k]) ** 2).sum(axis=1))
    return tagged


def oracle_from_row(problem, row, branches=None):
    """The oracle reading one row of pre-drawn uniforms in _seed_runs' draw
    order; branches, if given, collects "weighted" or "uniform" per pick."""
    size = SEED_SAMPLES * (problem.n - len(problem.beta))
    picks = iter(row[size:])

    def pick(total):
        if branches is not None:
            branches.append("weighted")
        return next(picks) * total

    def uniform(pool):
        if branches is not None:
            branches.append("uniform")
        return math.floor(next(picks) * pool)

    return kmeans_pp_oracle(problem, lambda k: row[:k], pick, uniform)


def oracle_from_rng(problem, rng):
    """The oracle drawing its variates by the per-restart seeder's rng calls."""
    return kmeans_pp_oracle(problem, lambda k: rng.uniform(0.0, 1.0, k),
                            lambda total: rng.uniform(0.0, total), rng.integers)


class RecordingRng:
    """A numpy Generator's random(), recording ("random", shape) of each call
    in a given list."""

    def __init__(self, rng, events):
        self.rng, self.events = rng, events

    def random(self, shape):
        self.events.append(("random", shape))
        return self.rng.random(shape)


class FixedRng:
    """Hands out the rows of a fixed array, block after block, as random()."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, shape):
        block, self.rows = self.rows[:shape[0]], self.rows[shape[0]:]
        assert block.shape == shape
        return block


def seed_width(problem):
    return (SEED_SAMPLES + 1) * (problem.n - len(problem.beta))


def run_floats(problem):
    """The most floats one run of `solve` holds at once: its seeding arrays
    (the pool and the offsets to point-set members, two floats each) or its
    Hessian over every coordinate (two per point on a free plane)."""
    count = problem.n - len(problem.beta)
    members = [len(c.points) for c in problem.constraints if isinstance(c, PointSetConstraint)]
    free = any(isinstance(c, FreePlane) for c in problem.constraints)
    return max(2 * SEED_SAMPLES * count * max([1] + members), ((1 + free) * count) ** 2)


def first_chunk(problem, monkeypatch):
    """The runs, and the samples of their pool, of the first chunk of a
    1000-run solve, seen in the pool its seeding snaps."""
    pools = []

    def snap(problem, xy):
        pools.append(len(xy))
        raise StopIteration

    monkeypatch.setattr(solver_module, "_snap", snap)
    with pytest.raises(StopIteration):
        solve(problem, SolverOptions(restarts=1000))
    samples = SEED_SAMPLES * (problem.n - len(problem.beta))
    assert pools[0] % samples == 0
    return pools[0] // samples, pools[0]


def _member_heavy_problem():
    # 2000 members: the offsets of the snap outgrow a 4-point Hessian
    members = tuple(Point2(k / 1999, 0.0) for k in range(2000))
    return Problem(sc.interval_measure(), (PointSetConstraint(members),), 4)


def _run_out_problem():
    # two members for four points: once both are picked every gain is zero
    members = (Point2(0.25, 0.0), Point2(0.75, 0.0))
    return Problem(sc.interval_measure(), (PointSetConstraint(members),), 4)


SEEDING_PROBLEMS = {
    **{f"{name}-{n}": (lambda e=entry, n=n: e.build(n))
       for name, entry in sc.GALLERY.items() for n in entry.n_range},
    "exam2-4": lambda: sc.exam2_problem(4),
    "free-no-beta-5": lambda: sc.interval_free_problem(5),
    "points-run-out": _run_out_problem,
}


class TestSeeding:
    """The lockstep k-means++ seeder against one run at a time."""

    @pytest.mark.parametrize("name", list(SEEDING_PROBLEMS))
    def test_rows_equal_the_oracle(self, name):
        problem = SEEDING_PROBLEMS[name]()
        runs = 7
        rows = np.random.default_rng(11).random((runs, seed_width(problem)))
        seeds = _seed_runs(problem, np.random.default_rng(11), runs)
        assert len(seeds) == runs
        branches = []
        for r in range(runs):
            assert seeds[r] == oracle_from_row(problem, rows[r], branches), r
        if name == "exam2-4":
            # beta is nearer the whole support than the line: no gain anywhere
            assert set(branches) == {"uniform"}
        if name == "free-no-beta-5":
            # every gain is infinite before the first pick
            assert branches == (["uniform"] + ["weighted"] * 4) * runs
        if name == "points-run-out":
            assert branches[:4] == ["uniform", "weighted", "uniform", "uniform"]

    @pytest.mark.parametrize("name", ["interval-left-10", "triangle-12"])
    def test_zero_variates_pick_the_first_positive_gain(self, name):
        # v = 0 makes pick * total equal the zero-gain head of cum: the
        # row-wise search must step past it, as searchsorted's right side does
        problem = SEEDING_PROBLEMS[name]()
        rows = np.random.default_rng(2).random((3, seed_width(problem)))
        rows[:, SEED_SAMPLES * (problem.n - len(problem.beta)):] = 0.0
        seeds = _seed_runs(problem, FixedRng(rows), 3)
        for r in range(3):
            assert seeds[r] == oracle_from_row(problem, rows[r]), r

    def test_blocks_of_one_stream(self):
        problem = sc.triangle_problem(9)
        rng = np.random.default_rng(4)
        split = _seed_runs(problem, rng, 5) + _seed_runs(problem, rng, 11)
        assert split == _seed_runs(problem, np.random.default_rng(4), 16)

    @pytest.mark.parametrize("name", ["semicircle-12", "points-run-out", "free-no-beta-5"])
    def test_smallest_blocks_change_no_seed(self, name, monkeypatch):
        # with a budget of one float every chunk of `solve` is one run,
        # seeded by one draw of one row just before it descends
        problem = SEEDING_PROBLEMS[name]()
        whole = _seed_runs(problem, np.random.default_rng(6), 9)
        monkeypatch.setattr(solver_module, "_HESSIAN_FLOATS", 1)
        events, descended = [], []
        seed_runs, descend = solver_module._seed_runs, solver_module._descend
        monkeypatch.setattr(solver_module, "_seed_runs",
                            lambda p, rng, runs: seed_runs(p, RecordingRng(rng, events), runs))

        def recording_descend(p, seeds, o):
            events.append(("descend", len(seeds)))
            descended.extend(seeds)
            return descend(p, seeds, o)

        monkeypatch.setattr(solver_module, "_descend", recording_descend)
        solve(problem, SolverOptions(restarts=9, rng_seed=6))
        assert descended == whole
        assert events == [("random", (1, seed_width(problem))), ("descend", 1)] * 9

    def test_blocks_fit_the_float_budget(self, monkeypatch):
        # 1000 runs of a 1000-point seed: the first chunk's Hessians, of 998
        # arc lengths per run, stay within the budget and use at least half
        # of it; its pool stays within the budget too
        runs, pool = first_chunk(sc.semicircle_problem(1000), monkeypatch)
        assert solver_module._HESSIAN_FLOATS // 2 < runs * 998 ** 2 <= solver_module._HESSIAN_FLOATS
        assert 2 * pool <= solver_module._HESSIAN_FLOATS

    def test_seeding_arrays_fit_the_float_budget(self, monkeypatch):
        # 4 points and 2000 members: the snap's offsets of the first chunk's
        # pool to the members outgrow its Hessians, and stay within the
        # budget and use at least half of it
        _, pool = first_chunk(_member_heavy_problem(), monkeypatch)
        assert solver_module._HESSIAN_FLOATS // 2 < 2 * pool * 2000 <= solver_module._HESSIAN_FLOATS

    def test_seeds_one_chunk_before_it_descends(self, monkeypatch):
        # a 1000-point semicircle descends 4 runs per chunk, and no more
        # runs than those are seeded before the first descent
        asked = []

        def seed_runs(problem, rng, runs):
            asked.append(runs)
            raise StopIteration

        monkeypatch.setattr(solver_module, "_seed_runs", seed_runs)
        monkeypatch.setattr(solver_module, "_descend", lambda *args: pytest.fail("no seeds"))
        with pytest.raises(StopIteration):
            solve(sc.semicircle_problem(1000), SolverOptions(restarts=1000))
        assert asked == [4]

    @pytest.mark.parametrize("name", [name for name, entry in sc.GALLERY.items()
                                      if entry.build(entry.n_range[0]).beta])
    def test_parent_stream_on_beta_families(self, name):
        # with beta no pick is uniform, and v * total is rng.uniform(0, total)
        entry = sc.GALLERY[name]
        for n in entry.n_range:
            problem = entry.build(n)
            rng = np.random.default_rng(42)
            want = [oracle_from_rng(problem, rng) for _ in range(16)]
            assert _seed_runs(problem, np.random.default_rng(42), 16) == want


def dense_hessian(problem, descent, row):
    """One batch row's Hessian assembled densely, as the per-restart descent
    did: per cut a row w over all site coordinates, from the row's own
    breakpoints, chained to x by the dense d(sites)/dx matrix."""
    state, layout = descent.state, descent.layout
    xy, masses, moments = state.xy[row], state.masses[row], state.moments[row]
    real = layout.kind[row] != solver_module._PAD
    owner = layout.owner[row]
    chain = np.zeros((2 * len(xy), descent.x.shape[1]))
    for k in np.flatnonzero(real):
        chain[2 * owner[k]:2 * owner[k] + 2, k] = state.tangent[row, k]
    left, right, at, tangent = [], [], [], []
    for c in problem.measure.curves:
        cuts, who = voronoi_breakpoints(c, xy, owners=True)
        left += who[:-1]
        right += who[1:]
        point, tau = _frame_array(c, np.array(cuts))
        at.append(point)
        tangent.append(tau)
    i, j, at, tangent = np.array(left), np.array(right), np.concatenate(at), np.concatenate(tangent)
    rate = 2.0 * ((xy[j] - xy[i]) * tangent).sum(axis=1)
    weight = np.sqrt(4.0 * problem.measure.density / np.where(rate > 0.0, rate, np.inf))[:, None]
    w = np.zeros((len(i), len(xy), 2))
    cut = np.arange(len(i))
    w[cut, i] = weight * (xy[i] - at)
    w[cut, j] = weight * (at - xy[j])
    rows = w.reshape(len(i), -1) @ chain
    diag = np.where(real, 2.0 * masses[owner], 0.0)
    g = 2.0 * (masses[:, None] * xy - moments * problem.measure.density)
    for ci, cons in enumerate(problem.constraints):
        if isinstance(cons, CurveConstraint) and isinstance(cons.curve, Arc):
            k = np.flatnonzero(layout.kind[row] == ci)
            center = (cons.curve.center.x, cons.curve.center.y)
            diag[k] -= ((xy[owner[k]] - center) * g[owner[k]]).sum(axis=1) / cons.curve.radius ** 2
    return np.diag(diag) - rows.T @ rows


def assert_hessians_match_dense(problem, descent):
    stack = descent.hessian(np.arange(len(descent.x)))
    for row, H in enumerate(stack):
        want = dense_hessian(problem, descent, row)
        assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max(), row


class TestBatch:
    """The lockstep descent's batched passes against one candidate at a time."""

    @pytest.mark.parametrize("name", list(sc.GALLERY))
    def test_stacked_state_equals_single_passes(self, name):
        problem = sc.GALLERY[name].build(sc.GALLERY[name].n_range[1])
        sites = np.array([[(tp.point.x, tp.point.y) for tp in seed]
                          for seed in seed_batch(problem, 16)])
        d, masses, moments, pieces = _cell_state(problem.measure, sites)
        m = sites.shape[1]
        for r, xy in enumerate(sites):
            d1, masses1, moments1, pieces1 = _cell_state(problem.measure, xy)
            np.testing.assert_array_equal(masses[r], masses1)
            np.testing.assert_array_equal(moments[r], moments1)
            assert d[r] == pytest.approx(d1, rel=1e-15, abs=0.0)
            for (s1, owner), (s1_one, owner_one) in zip(pieces, pieces1):
                mine = owner // m == r
                np.testing.assert_array_equal(s1[mine], s1_one)
                np.testing.assert_array_equal(owner[mine] - r * m, owner_one)

    @pytest.mark.parametrize("name", list(sc.GALLERY))
    def test_hessians_equal_dense_oracle_on_gallery(self, name):
        entry = sc.GALLERY[name]
        # from one above the first n, where every family has a coordinate
        for n in range(entry.n_range[0] + 1, entry.n_range[1] + 1, 3):
            problem = entry.build(n)
            descent = _Descent(problem, seed_batch(problem, 6, rng_seed=n))
            assert_hessians_match_dense(problem, descent)
            # the rows stop at different iterations, their states merged
            # from different passes
            descent.run(1e-10, 5)
            assert_hessians_match_dense(problem, descent)

    def test_hessians_equal_dense_oracle_anywhere_in_the_plane(self):
        # free points off the support, as a descent may pass them: a site
        # far ahead of another along a curve's tangent, yet farther from it,
        # still must not couple to it across the end of the curve
        problem = Problem(sc.semicircle_measure(), (FreePlane(),), 7, beta=(Point2(-1.0, 0.0),))
        rng = np.random.default_rng(17)
        candidates = [[TaggedPoint("beta", Point2(-1.0, 0.0))]
                      + tag_free(*rng.uniform(-3.0, 3.0, (6, 2))) for _ in range(8)]
        assert_hessians_match_dense(problem, _Descent(problem, candidates))

    def test_accepting_some_rows_equals_a_fresh_pass(self):
        problem = sc.triangle_problem(7)
        descent = _Descent(problem, seed_batch(problem, 5))
        rows = np.array([0, 2, 3])
        rng = np.random.default_rng(2)
        x = np.clip(descent.x[rows] + rng.normal(0.0, 0.05, descent.x[rows].shape),
                    descent.layout.lo[rows], descent.layout.hi[rows])
        descent._accept(descent.evaluate(x, rows), np.array([True, False, True]), x)
        fresh = descent.evaluate(descent.x)
        for merged, want in zip(descent.state[:-1], fresh[:-1]):
            np.testing.assert_array_equal(merged, want)
        for merged, want in zip(descent.state.pieces, fresh.pieces):
            # the same pieces, rows in another order
            key = np.lexsort((merged[0], merged[2]))
            for a, b in zip(merged, want):
                np.testing.assert_array_equal(a[key], b)
        assert_hessians_match_dense(problem, descent)

    @pytest.mark.parametrize("build", [sc.semicircle_problem, sc.triangle_problem],
                             ids=["semicircle", "triangle"])
    def test_hessians_equal_dense_oracle_at_n400(self, build):
        problem = build(400)
        descent = _Descent(problem, seed_batch(problem, 2))
        assert_hessians_match_dense(problem, descent)

    def test_rows_of_different_lengths(self):
        # point-set members take no coordinate, so a candidate with more of
        # them has a shorter row, padded
        members = (Point2(0.2, 0.0), Point2(0.5, 0.0), Point2(0.9, 0.0))
        measure = sc.interval_measure()
        problem = Problem(measure, (PointSetConstraint(members),
                                    CurveConstraint(measure.curves[0])), 3)
        line = [TaggedPoint("constrained", Point2(s, 0.0), 1, s) for s in (0.1, 0.45, 0.7)]
        mixed = [TaggedPoint("constrained", members[0], 0, 0.0)] + line[1:]
        descent = _Descent(problem, [line, mixed])
        assert descent.x.shape == (2, 3)
        assert list(descent.layout.kind[1]) == [1, 1, solver_module._PAD]
        assert_hessians_match_dense(problem, descent)
        converged = descent.run(1e-12, 100)
        assert converged.all()
        for row, tagged in enumerate((line, mixed)):
            alone = _Descent(problem, [tagged])
            alone.run(1e-12, 100)
            assert descent.state.distortion[row] == pytest.approx(
                alone.state.distortion[0], rel=1e-12)


class TestIndefinite:
    """Finding the rows of a stacked Newton step that need the shift."""

    @pytest.mark.parametrize("bad", [(), (0,), (15,), (6, 7), (3, 4, 11), tuple(range(16))])
    def test_halving_finds_the_rows_in_few_calls(self, bad, monkeypatch):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(16, 5, 5))
        H = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(5)
        H[list(bad), 2, 2] = -1.0
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(len(m)) or real(m))
        assert _indefinite(H) == list(bad)
        # at most two calls per level below the first for each such row
        assert len(calls) <= 1 + 2 * len(bad) * math.log2(len(H))
        if bad == (15,):
            # every first half factors, so every second half is known to fail
            assert calls == [16, 8, 4, 2, 1]

    def test_rounding_level_pivots_count(self, monkeypatch):
        # the Laplacian of a 6-cycle is singular positive semidefinite, as H
        # is on a full circle, and its factor ends in a pivot at rounding
        # level: the stacked factorization passes, yet those rows need the
        # shift too
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 6, 6))
        H = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(6)
        H[[2, 5]] = 2.0 * np.eye(6) - np.roll(np.eye(6), 1, axis=0) - np.roll(np.eye(6), -1, axis=0)
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(len(m)) or real(m))
        assert _indefinite(H) == [2, 5]
        assert calls == [8]

    def test_newton_shifts_as_row_by_row(self, monkeypatch):
        problem = sc.semicircle_problem(9)
        descent = _Descent(problem, seed_batch(problem, 8))
        rows, live = np.arange(8), descent.layout.kind != solver_module._PAD
        H = descent.hessian(rows)
        H[[1, 2, 6]] -= 2.0 * np.abs(H).max() * np.eye(H.shape[1])
        want = H.copy()
        shifted = []
        for p in rows:
            try:
                np.linalg.cholesky(want[p])
            except np.linalg.LinAlgError:
                shifted.append(p)
                lloyd = 2.0 * np.maximum(descent.state.masses[p, descent.layout.owner[p]],
                                         MASS_TOL)
                S = want[p] / np.sqrt(np.outer(lloyd, lloyd))
                low = S.diagonal() - (np.abs(S).sum(axis=1) - np.abs(S.diagonal()))
                want[p] += np.diag((0.1 - float(low.min())) * lloyd)
        assert {1, 2, 6} <= set(shifted)
        solved = []
        real = np.linalg.solve
        monkeypatch.setattr(descent, "hessian", lambda r: H[r].copy())
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.copy()) or real(a, b))
        step = descent.newton(rows, live)
        np.testing.assert_array_equal(solved[0], want)
        np.testing.assert_array_equal(step, -real(want, descent.state.grad[..., None])[..., 0])


class TestSolve:
    def test_semicircle_three_points(self):
        q = solve(sc.semicircle_problem(3))
        got = sorted((round(tp.point.x, 9), round(tp.point.y, 9)) for tp in q.points)
        want = [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) < 1e-6 and abs(g[1] - w[1]) < 1e-6
        assert q.distortion == pytest.approx(V3_SEMI, rel=1e-9)
        assert q.converged
        assert q.degenerate_points == ()

    def test_interval_conditional_matches_closed_form(self):
        q = solve(sc.interval_left_problem(4))
        assert q.distortion == pytest.approx(1.0 / 147.0, rel=1e-9)
        xs = sorted(tp.point.x for tp in q.points)
        for got, want in zip(xs, [0.0, 2.0 / 7.0, 4.0 / 7.0, 6.0 / 7.0]):
            assert got == pytest.approx(want, abs=1e-7)

    def test_unconstrained_single_point(self):
        q = solve(sc.interval_free_problem(1))
        assert q.points[0].point.x == pytest.approx(0.5, abs=1e-9)
        assert q.distortion == pytest.approx(1.0 / 12.0, rel=1e-10)

    @pytest.mark.parametrize("build", [
        lambda: sc.semicircle_problem(5), lambda: sc.triangle_problem(5),
        lambda: sc.exam2_problem(3), lambda: sc.interval_free_problem(3)],
        ids=["semicircle-5", "triangle-5", "exam2-3", "interval-free-3"])
    def test_chunked_restarts_give_the_one_batch_result(self, build, monkeypatch):
        problem = build()
        options = SolverOptions()
        whole = solve(problem, options)
        real = solver_module._descend
        for floats, chunks in ((1, [1] * 16), (6 * run_floats(problem), [6, 6, 4])):
            sizes = []
            monkeypatch.setattr(solver_module, "_descend",
                                lambda p, seeds, o: sizes.append(len(seeds)) or real(p, seeds, o))
            monkeypatch.setattr(solver_module, "_HESSIAN_FLOATS", floats)
            assert solve(problem, options) == whole
            assert sizes == chunks

    @pytest.mark.parametrize("n", range(2, 13))
    def test_full_circle_reaches_the_regular_polygon(self, n):
        # turning every point at once leaves the distortion as it is, so H
        # is singular at the optimum
        circle = Arc(Point2(0.0, 0.0), 1.0, 0.0, 2.0 * math.pi)
        problem = Problem(UniformCurveMeasure((circle,)), (CurveConstraint(circle),), n)
        want = 2.0 - 2.0 * n * math.sin(math.pi / n) / math.pi
        for rng_seed in (1, 2, 3, 5, 7, 11, 42):
            q = solve(problem, SolverOptions(rng_seed=rng_seed))
            assert q.distortion == pytest.approx(want, rel=1e-12), rng_seed

    def test_line_constrained_matches_config(self):
        prob = sc.line_problem(3, 0.25, 0.25)
        pts = cf.line_constraint_optimal(
            3, cf.LineConstraintScenario(0.0, 1.0, 0.25, 0.25)).points
        ref = distortion(prob.measure, list(pts))
        q = solve(prob)
        assert q.distortion == pytest.approx(ref, rel=1e-9)

    def test_exam1_matches_configuration_distortion(self):
        for n in (3, 5):
            prob = sc.exam1_problem(n)
            ref = distortion(prob.measure, list(cf.exam1_conditional(n).points))
            q = solve(prob)
            assert q.distortion == pytest.approx(ref, rel=1e-8)

    def test_exam2_line_points_all_degenerate(self):
        q = solve(sc.exam2_problem(3))
        assert set(q.degenerate_points) == {1, 2}
        assert q.distortion == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_triangle_beats_even_spacing_at_n4(self):
        # the best four-point set is NOT vertices + side midpoint: shifting
        # the extra point along its side captures a sliver of the next side,
        # which gives V_4 = (101 - 17 sqrt34)/30 (closed_form.triangle_sliver)
        q = solve(sc.triangle_problem(4))
        assert q.distortion < 1.0 / 16.0 - 1e-5
        assert q.distortion == pytest.approx((101 - 17 * math.sqrt(34)) / 30, rel=1e-10)

    def test_triangle_balanced_matches_closed_form(self):
        q = solve(sc.triangle_problem(6))
        assert q.distortion == pytest.approx(1.0 / 48.0, rel=1e-10)

    def test_free_points_satisfy_centroid_condition(self):
        from curvequant.geometry import voronoi_cell_stats
        q = solve(sc.interval_left_problem(5))
        sites = [tp.point for tp in q.points]
        masses, moments = voronoi_cell_stats(sc.interval_measure(), sites)
        for i, tp in enumerate(q.points):
            if tp.kind != "free":
                continue
            cell_len = masses[i] * 1.0
            assert tp.point.x == pytest.approx(moments[i][0] / cell_len, abs=1e-6)

    @pytest.mark.parametrize("name, tol", [("line-steep", 1e-9), ("interval-left", 1e-11)])
    def test_points_reach_closed_form_to_rounding(self, name, tol):
        # a stop on distortion leaves coordinates about sqrt(eps D / mass)
        # off (2.3e-7 on line-steep 10); the winner's last full Newton step
        # squares that error
        entry = sc.GALLERY[name]
        q = solve(entry.build(10))
        got = np.array(sorted((tp.point.x, tp.point.y) for tp in q.points))
        want = np.array(sorted((p.x, p.y) for p in entry.config(10)))
        assert np.abs(got - want).max() <= tol

    def test_deterministic_across_runs(self):
        opts = SolverOptions(restarts=6, rng_seed=42)
        a = solve(sc.semicircle_problem(5), opts)
        b = solve(sc.semicircle_problem(5), opts)
        assert a.distortion == b.distortion
        assert [(tp.point.x, tp.point.y) for tp in a.points] == \
               [(tp.point.x, tp.point.y) for tp in b.points]
        assert a.masses == b.masses

    def test_beta_only_problem(self):
        q = solve(sc.triangle_problem(3))
        assert len(q.points) == 3
        assert all(tp.kind == "beta" for tp in q.points)
        assert q.distortion == pytest.approx(1.0 / 12.0, rel=1e-10)

    def test_point_set_constraint(self):
        members = (Point2(0.2, 0.0), Point2(0.5, 0.0), Point2(0.9, 0.0))
        prob = Problem(sc.interval_measure(), (PointSetConstraint(members),), 2)
        q = solve(prob)
        picked = sorted(tp.point.x for tp in q.points)
        # best pair of members for uniform [0,1]
        assert picked == [0.2, 0.9] or picked == [0.2, 0.5] or picked == [0.5, 0.9]
        best = min(distortion(prob.measure, [members[i], members[j]])
                   for i in range(3) for j in range(i + 1, 3))
        assert q.distortion == pytest.approx(best, rel=1e-12)


# one instance per gallery family; triangle 4 is the sliver optimum, which
# the published equal-spacing set does not reach
INDEPENDENCE_CASES = {"interval-left": 4, "interval-right": 4, "interval-interior": 5,
                      "line-shallow": 4, "line-steep": 4, "semicircle": 6,
                      "triangle": 4, "exam1": 5}


def gallery_reference(name, n):
    entry = sc.GALLERY[name]
    problem = entry.build(n)
    return problem, distortion(problem.measure, list(entry.config(n)))


def refuse_closed_forms(monkeypatch):
    """Make every public function of closed_form and allocation raise, at
    every name any curvequant module binds it to."""
    public = set()
    for module in (cf, allocation):
        public.update(obj for name, obj in vars(module).items()
                      if not name.startswith("_") and inspect.isfunction(obj)
                      and obj.__module__ == module.__name__)

    def refuse(*args, **kwargs):
        raise AssertionError("the solver consulted a closed form")

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "curvequant":
            continue
        for attr, obj in list(vars(module).items()):
            if any(obj is fn for fn in public):
                monkeypatch.setattr(module, attr, refuse)


class TestSeedsFromData:
    def test_solver_never_uses_closed_forms(self, monkeypatch):
        cases = [(name, *gallery_reference(name, n)) for name, n in INDEPENDENCE_CASES.items()]
        refuse_closed_forms(monkeypatch)
        with pytest.raises(AssertionError):
            cf.exam1_conditional(5)
        for name, problem, ref in cases:
            q = solve(problem)
            assert q.distortion == pytest.approx(ref, rel=1e-6), name

    @pytest.mark.parametrize("rng_seed", [1, 7, 101])
    @pytest.mark.parametrize("name", ["line-shallow", "line-steep", "exam1"])
    def test_line_families_from_other_seeds(self, name, rng_seed):
        # exam1's closed form starts at n = 3
        for n in range(max(2, sc.GALLERY[name].n_range[0]), 7):
            problem, ref = gallery_reference(name, n)
            q = solve(problem, SolverOptions(rng_seed=rng_seed))
            assert q.distortion == pytest.approx(ref, rel=1e-6), f"{name} n={n}"
            assert q.degenerate_points == ()


class TestExistence:
    def test_exam2_conditional_never_exists(self):
        for n in (2, 4):
            rep = existence_check(sc.exam2_problem(n))
            assert not rep.exists_with_n_points
            assert rep.witness.degenerate_points

    def test_plain_interval_always_exists(self):
        rep = existence_check(sc.interval_free_problem(3))
        assert rep.exists_with_n_points
        assert min(rep.witness.masses) > 0.2

    @pytest.mark.parametrize("rng_seed", [42, 7])
    def test_offset_beta_witness_cell_collapses(self, rng_seed):
        # beyond the existence boundary the descent drives one cell mass
        # well below the degeneracy threshold, not just under it
        rep = existence_check(sc.offset_beta_problem(50),
                              SolverOptions(restarts=4, rng_seed=rng_seed))
        assert not rep.exists_with_n_points
        assert min(rep.witness.masses) <= MASS_TOL / 5

    def test_offset_beta_small_n_exists(self):
        rep = existence_check(sc.offset_beta_problem(5))
        assert rep.exists_with_n_points


def count_passes(monkeypatch):
    """The solver's candidate states from here on, one entry each: a
    batched cell-state pass over R candidates counts R."""
    calls = []
    state = solver_module._exact_state

    def counting(measure, sites_xy):
        calls.extend([1] * (len(sites_xy) if sites_xy.ndim == 3 else 1))
        return state(measure, sites_xy)

    monkeypatch.setattr(solver_module, "_exact_state", counting)
    return calls


class TestPassBudget:
    """State passes per call, well above what the Newton descent needs and
    well below what a descent that learns its curvature takes."""

    @pytest.mark.parametrize("rng_seed", [42, 7])
    @pytest.mark.parametrize("n_free", [49, 50])
    def test_offset_beta_existence_check(self, monkeypatch, n_free, rng_seed):
        calls = count_passes(monkeypatch)
        existence_check(sc.offset_beta_problem(n_free),
                        SolverOptions(restarts=4, rng_seed=rng_seed))
        assert 0 < len(calls) <= 150

    def test_interval_left_solve(self, monkeypatch):
        calls = count_passes(monkeypatch)
        solve(sc.interval_left_problem(10))
        assert 0 < len(calls) <= 160


class TestSandwich:
    def test_interval_chain_n4(self):
        rep = sandwich_check(sc.interval_support_problem(4, beta=(Point2(0, 0),)))
        assert rep.v_n == pytest.approx(1.0 / 192.0, rel=1e-7)
        assert rep.v_cond_n == pytest.approx(1.0 / 147.0, rel=1e-7)
        assert rep.v_n_minus_l == pytest.approx(1.0 / 108.0, rel=1e-7)
        assert rep.holds

    def test_interval_chain_n2(self):
        rep = sandwich_check(sc.interval_support_problem(2, beta=(Point2(0, 0),)))
        assert rep.v_n == pytest.approx(1.0 / 48.0, rel=1e-7)
        assert rep.v_cond_n == pytest.approx(1.0 / 27.0, rel=1e-7)
        assert rep.v_n_minus_l == pytest.approx(1.0 / 12.0, rel=1e-7)
        assert rep.holds

    def test_single_extra_point_holds(self):
        rep = sandwich_check(sc.interval_support_problem(2, beta=(Point2(0.25, 0),)))
        assert rep.holds

    def test_no_beta_rejected_before_solving(self, monkeypatch):
        calls = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="nonempty conditional set"):
            sandwich_check(sc.interval_support_problem(3))
        assert not calls

    def test_n_equal_to_beta_count_rejected_before_solving(self, monkeypatch):
        calls = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="need n > l"):
            sandwich_check(sc.interval_support_problem(1, beta=(Point2(0, 0),)))
        assert not calls

    def test_beta_off_constraint_rejected(self):
        prob = Problem(sc.interval_measure(),
                       (CurveConstraint(sc.interval_measure().curves[0]),),
                       3, beta=(Point2(0.0, 0.01),))
        with pytest.raises(ValueError):
            sandwich_check(prob)


class TestDensityGap:
    def test_single_point_gap(self):
        assert density_gap(sc.interval_measure(), 1) == [(1, pytest.approx(0.5))]

    def test_first_four_gaps(self):
        gaps = dict(density_gap(sc.interval_measure(), 4))
        assert gaps[1] == pytest.approx(1.0 / 2.0)
        assert gaps[2] == pytest.approx(1.0 / 4.0)
        assert gaps[3] == pytest.approx(1.0 / 4.0)
        assert gaps[4] == pytest.approx(1.0 / 8.0)

    def test_nonincreasing_and_below_inverse_n(self):
        gaps = density_gap(sc.interval_measure(), 64)
        for (n1, g1), (n2, g2) in zip(gaps, gaps[1:]):
            assert g2 <= g1 + 1e-15
        for n, g in gaps:
            assert g <= 1.0 / n + 1e-12

    def test_scales_with_length(self):
        long_measure = sc.interval_measure(0.0, 3.0)
        gaps = dict(density_gap(long_measure, 2))
        assert gaps[1] == pytest.approx(1.5)

    def test_rejects_multi_curve_support(self):
        with pytest.raises(ValueError):
            density_gap(sc.semicircle_measure(), 4)

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            density_gap(sc.interval_measure(), 0)
