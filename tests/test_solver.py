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
from curvequant.geometry import Point2, Segment, UniformCurveMeasure, distortion
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
    _seed_run,
    _Descent,
)

V3_SEMI = (2.0 / (2.0 + math.pi)) * (-2.0 * math.sqrt(2.0) + 1.0 / 3.0 + math.pi)


def tag_free(*xy):
    return [TaggedPoint("free", Point2(x, y)) for x, y in xy]


class TestTypes:
    def test_problem_rejects_n_below_beta_count(self):
        with pytest.raises(ValueError):
            Problem(sc.interval_measure(), (FreePlane(),), 1,
                    beta=(Point2(0, 0), Point2(1, 0)))

    def test_problem_rejects_other_orders(self):
        with pytest.raises(ValueError):
            Problem(sc.interval_measure(), (FreePlane(),), 2, order=3)

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


def central_differences(descent, x, h=1e-6):
    out = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (descent.evaluate(x + e)[1] - descent.evaluate(x - e)[1]) / (2.0 * h)
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
            descent = _Descent(problem, _seed_run(problem, rng))
            x = descent.x
            if isinstance(problem.constraints[0], FreePlane):
                x = x + rng.normal(0.0, 0.05, x.size)
            _, _, masses, _, grad = descent.evaluate(x)
            assert (masses > 1e-6).all()
            if not isinstance(problem.constraints[0], FreePlane):
                # every curve point sits strictly inside its curve
                assert ((x > 1e-3) & (x < descent.hi - 1e-3)).all()
            want = central_differences(descent, x)
            assert grad == pytest.approx(want, rel=1e-6, abs=1e-9)


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
