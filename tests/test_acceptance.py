"""Acceptance gate: eight criteria, one test (one pass/fail line) each.

Each test pins the published golden values, runs inside its stated wall-time
budget, and fails with a per-instance report when anything drifts. At
triangle n in {4, 5} the published equal-spacing values (1/16, 1/24, pinned
by criterion 1) are not optimal: criterion 3 checks the solver there against
the exact sliver optimum (closed_form.triangle_sliver), which
test_closed_form.py derives and test_solver.py pins.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from curvequant import cli
from curvequant import closed_form as cf
from curvequant.allocation import semicircle_allocate, triangle_allocate
from curvequant.asymptotics import (
    ErrorSequence,
    estimate_coefficient,
    estimate_dimension,
    estimate_v_infinity,
)
from curvequant.cli import main
from curvequant.geometry import Point2, distortion
from curvequant.scenarios import (
    GALLERY,
    exam2_problem,
    interval_measure,
    interval_support_problem,
    offset_beta_problem,
)
from curvequant.solver import density_gap, existence_check, sandwich_check
from scalar_reference import semicircle_allocate_exhaustive, triangle_allocate_exhaustive


def write_problem(tmp_path, problem, name, restarts=4):
    doc = {"schema_version": cli.SCHEMA_VERSION, **cli.problem_doc(problem),
           "solver": {"restarts": restarts}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion_1_closed_form_golden_suite():
    t0 = time.perf_counter()
    printed = {(3, 2): 0.476477, (2, 3): 0.251478, (3, 3): 0.154232,
               (4, 2): 0.458469, (2, 4): 0.184739}
    for (n1, n2), value in printed.items():
        assert cf.semicircle_error(n1, n2) == pytest.approx(value, abs=1e-5)
    v3 = 2.0 / (2.0 + math.pi) * (-2.0 * math.sqrt(2.0) + 1.0 / 3.0 + math.pi)
    v4 = (-24.0 * math.sqrt(2.0) + 12.0 * math.pi + 1.0) / (12.0 + 6.0 * math.pi)
    assert abs(cf.semicircle_error(2, 3) - v3) <= 1e-12
    assert abs(cf.semicircle_error(3, 3) - v4) <= 1e-12
    assert cf.triangle_error(*cf.triangle_split(4)) == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert cf.triangle_error(*cf.triangle_split(5)) == pytest.approx(1.0 / 24.0, abs=1e-15)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_allocation_suite():
    t0 = time.perf_counter()
    for n, n1 in {50: 20, 80: 32, 1200: 468, 2000: 779, 3000: 1168}.items():
        assert semicircle_allocate(n).parts[0] == n1, f"n={n}"
    for n in range(3, 501):
        fast, full = semicircle_allocate(n), semicircle_allocate_exhaustive(n)
        assert fast.parts == full.parts, f"semicircle n={n}"
        tri, tri_full = triangle_allocate(n), triangle_allocate_exhaustive(n)
        assert tri.objective == pytest.approx(tri_full.objective, rel=1e-12), f"triangle n={n}"
        assert max(tri.parts) - min(tri.parts) <= 1, f"triangle n={n}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    from curvequant.solver import solve

    for name in sorted(GALLERY):
        entry = GALLERY[name]
        lo, hi = entry.n_range
        for n in range(lo, hi + 1):
            problem = entry.build(n)
            reference = distortion(problem.measure, list(entry.config(n)))
            got = solve(problem).distortion
            rel = abs(got - reference) / abs(reference)
            if rel > 1e-6:
                mismatches.append(f"{name} n={n}: solver={got!r} "
                                  f"closed_form={reference!r} rel={rel:.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f} s"
    assert not mismatches, "solver/closed-form mismatches:\n" + "\n".join(mismatches)


def test_criterion_4_asymptotics():
    t0 = time.perf_counter()
    tri = ErrorSequence(tuple(
        (n, cf.triangle_error(*cf.triangle_split(n))) for n in range(3, 301)))
    tri_v = estimate_v_infinity(tri)
    dim_lo, dim_hi = estimate_dimension(tri, tri_v)
    assert 0.98 <= dim_lo <= dim_hi <= 1.02
    co_lo, co_hi = estimate_coefficient(tri, tri_v, kappa=1.0)
    assert 0.735 <= co_lo <= co_hi <= 0.765

    e1 = ErrorSequence(tuple(
        (n, cf.exam1_conditional(n).error) for n in range(3, 301)))
    e1_v = estimate_v_infinity(e1)
    assert e1_v == pytest.approx((29.0 * math.sqrt(17.0) + 229.0) / 3072.0, abs=1e-4)
    lo, hi = estimate_coefficient(e1, e1_v, kappa=2.0)
    exact = (179.0 - 5.0 * math.sqrt(17.0)) / 544.0
    assert lo == pytest.approx(exact, abs=1e-3)
    assert hi == pytest.approx(exact, abs=1e-3)

    scen = cf.LineConstraintScenario(0.0, 1.0, 1.0, 4.0)
    e2 = ErrorSequence(tuple(
        (n, cf.line_constraint_optimal(n, scen).error) for n in range(3, 301)))
    e2_v = estimate_v_infinity(e2)
    assert e2_v == pytest.approx(8.0, abs=1e-4)
    lo, hi = estimate_coefficient(e2, e2_v, kappa=2.0)
    assert lo == pytest.approx(10.5, abs=1e-2)
    assert hi == pytest.approx(10.5, abs=1e-2)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_degeneracy_existence(tmp_path):
    t0 = time.perf_counter()
    for n in range(2, 7):
        path = write_problem(tmp_path, exam2_problem(n), f"exam2_{n}.json")
        assert main(["--seed", "42", "solve", path]) == 2, f"exam2 n={n}"
    assert existence_check(offset_beta_problem(49)).exists_with_n_points
    assert not existence_check(offset_beta_problem(50)).exists_with_n_points
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f} s"


def test_criterion_6_sandwich_property():
    t0 = time.perf_counter()
    for n in range(2, 10_001):
        plain_n = Fraction(1, 12 * n * n)
        conditional = Fraction(1, 3 * (2 * n - 1) ** 2)
        plain_prev = Fraction(1, 12 * (n - 1) ** 2)
        assert plain_n <= conditional <= plain_prev, f"n={n}"
    for n in range(2, 11):
        report = sandwich_check(interval_support_problem(n, beta=(Point2(0.0, 0.0),)))
        assert report.holds, f"n={n}"
        assert report.v_n == pytest.approx(1.0 / (12.0 * n * n), rel=1e-6)
        assert report.v_cond_n == pytest.approx(1.0 / (3.0 * (2 * n - 1) ** 2), rel=1e-6)
        assert report.v_n_minus_l == pytest.approx(1.0 / (12.0 * (n - 1) ** 2), rel=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f} s"


def test_criterion_7_density_property():
    t0 = time.perf_counter()
    gaps = density_gap(interval_measure(), 200)
    assert [n for n, _ in gaps] == list(range(1, 201))
    for (_, g0), (_, g1) in zip(gaps, gaps[1:]):
        assert g1 <= g0 + 1e-12
    for n, g in gaps:
        assert g <= 1.0 / n + 1e-12, f"n={n}: gap {g}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_determinism(tmp_path, capsys):
    sweeps = [("triangle", 3, 50), ("semicircle", 3, 50),
              ("exam1", 3, 50), ("exam2", 2, 50)]
    solve_files = [
        write_problem(tmp_path, exam2_problem(3), "exam2.json"),
        write_problem(tmp_path, interval_support_problem(
            4, beta=(Point2(0.0, 0.0),)), "interval.json", restarts=6),
    ]

    def run(tag):
        outputs = {}
        for scenario, lo, hi in sweeps:
            out = tmp_path / f"{tag}_{scenario}.csv"
            assert main(["--seed", "42", "sweep", scenario, "--from", str(lo),
                         "--to", str(hi), "--output", str(out)]) == 0
            outputs[scenario] = out.read_bytes()
        for i, problem in enumerate(solve_files):
            assert main(["--seed", "42", "solve", problem]) in (0, 2)
            result = tmp_path / f"{tag}_result_{i}.json"
            result.write_text(capsys.readouterr().out)
            svg = tmp_path / f"{tag}_render_{i}.svg"
            assert main(["--seed", "42", "render", str(result),
                         "--output", str(svg)]) == 0
            outputs[f"solve_{i}"] = result.read_bytes()
            outputs[f"svg_{i}"] = svg.read_bytes()
        return outputs

    first, second = run("a"), run("b")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
