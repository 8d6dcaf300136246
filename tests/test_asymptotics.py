import math

import numpy as np
import pytest

from curvequant import asymptotics
from curvequant import closed_form as cf
from curvequant.asymptotics import (
    ErrorSequence,
    build_report,
    estimate_coefficient,
    estimate_dimension,
    estimate_v_infinity,
    exam_references,
    triangle_reference,
)

REFS = exam_references()


def seq_from(f, n_from=3, n_to=300):
    return ErrorSequence(tuple((n, f(n)) for n in range(n_from, n_to + 1)))


def triangle_seq(n_to=300):
    return seq_from(lambda n: cf.triangle_conditional(n).error, 3, n_to)


def exam1_cond_seq(n_to=300):
    return seq_from(lambda n: cf.exam1_conditional(n).error, 3, n_to)


def exam1_constr_seq(n_to=300):
    scen = cf.LineConstraintScenario(0, 1, 0.25, 0.25)
    return seq_from(lambda n: cf.line_constraint_optimal(n, scen).error, 3, n_to)


def exam2_constr_seq(n_to=300):
    scen = cf.LineConstraintScenario(0, 1, 1, 4)
    return seq_from(lambda n: cf.line_constraint_optimal(n, scen).error, 3, n_to)


class TestErrorSequence:
    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            ErrorSequence(((3, 1.0), (3, 0.5)))

    def test_requires_nonincreasing_v(self):
        with pytest.raises(ValueError):
            ErrorSequence(((3, 1.0), (4, 2.0)))

    def test_requires_positive_finite(self):
        with pytest.raises(ValueError):
            ErrorSequence(((3, 1.0), (4, 0.0)))
        with pytest.raises(ValueError):
            ErrorSequence(((3, float("inf")), (4, 1.0)))

    def test_accepts_plateau(self):
        seq = ErrorSequence(((3, 1.0), (4, 1.0), (5, 0.5)))
        assert len(seq) == 3


class TestVInfinity:
    def test_exam2_within_1e4_of_limit(self):
        v = estimate_v_infinity(exam2_constr_seq())
        assert v == pytest.approx(8.0, abs=1e-4)

    def test_exam1_conditional_within_1e4_of_limit(self):
        v = estimate_v_infinity(exam1_cond_seq())
        assert v == pytest.approx(REFS["exam1_conditional"].v_infinity, abs=1e-4)

    def test_exam1_constrained(self):
        v = estimate_v_infinity(exam1_constr_seq())
        assert v == pytest.approx(1 / 17, abs=1e-5)

    def test_vanishing_sequence(self):
        seq = seq_from(lambda n: 1.0 / (12 * n * n), 2, 120)
        assert estimate_v_infinity(seq) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_needs_spread_fallback(self):
        # consecutive tail entries of the triangle sequence repeat exactly
        # (the split cycles mod 3), so the last-three fit is singular
        v = estimate_v_infinity(triangle_seq())
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            estimate_v_infinity(ErrorSequence(((3, 1.0), (4, 0.5))))

    def test_flat_tail_ill_conditioned(self):
        seq = ErrorSequence(tuple((n, 1.0) for n in range(3, 40)))
        with pytest.raises(ValueError):
            estimate_v_infinity(seq)


class TestSyntheticRecovery:
    def test_power_law_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v_inf = rng.uniform(0.1, 5.0)
            c = rng.uniform(0.2, 4.0)
            s = rng.uniform(0.5, 3.0)
            seq = ErrorSequence(tuple((n, v_inf + c * n ** (-s)) for n in range(5, 200)))
            got = estimate_v_infinity(seq)
            assert got == pytest.approx(v_inf, rel=1e-8)
            lo, hi = estimate_dimension(seq, v_inf)
            assert lo == pytest.approx(2.0 / s, abs=1e-6)
            assert hi == pytest.approx(2.0 / s, abs=1e-6)

    def test_dimension_scale_invariance(self):
        base = [(n, n ** -2.0) for n in range(5, 205)]
        ref = estimate_dimension(ErrorSequence(tuple(base)), 0.0, tail_window=100)
        for lam in (0.5, 2.0, 10.0):
            scaled = ErrorSequence(tuple((n, lam * v) for n, v in base))
            got = estimate_dimension(scaled, 0.0, tail_window=100)
            assert abs(got[0] - ref[0]) <= 0.01
            assert abs(got[1] - ref[1]) <= 0.01


class TestBrent:
    def test_port_matches_scipy_bit_for_bit(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(3)
        sequences = [triangle_seq(), exam1_cond_seq(), exam1_constr_seq(), exam2_constr_seq(),
                     seq_from(lambda n: cf.semicircle_error(n // 2 + 1, n - n // 2 + 1), 3, 300)]
        for _ in range(20):
            v, c, p = rng.uniform(0.0, 2.0), rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0)
            sequences.append(seq_from(lambda n: v + c * n ** (-p) * (1 + 1e-3 * math.sin(n)),
                                      3, 200))
        triples = [seq.entries[k:k + 3] for seq in sequences
                   for k in range(0, len(seq) - 2, 3)]
        scipy_calls = []

        def scipy_brentq(f, xa, xb, xtol, rtol):
            scipy_calls.append(1)
            return optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)

        fit = asymptotics._power_fit3
        ports = [fit([n for n, _ in t], [v for _, v in t]) for t in triples]
        monkeypatch.setattr(asymptotics, "_brentq", scipy_brentq)
        for t, port in zip(triples, ports):
            assert fit([n for n, _ in t], [v for _, v in t]) == port
        assert len(scipy_calls) > 100

    def test_wrong_bracket_rejected(self):
        with pytest.raises(ValueError):
            asymptotics._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15, 8.9e-16)


class TestDimension:
    def test_triangle_near_one(self):
        seq = triangle_seq()
        lo, hi = estimate_dimension(seq, estimate_v_infinity(seq))
        assert 0.98 <= lo <= hi <= 1.02

    def test_exam1_conditional_near_two(self):
        seq = exam1_cond_seq()
        lo, hi = estimate_dimension(seq, estimate_v_infinity(seq))
        assert lo == pytest.approx(2.0, abs=0.05)
        assert hi == pytest.approx(2.0, abs=0.05)

    def test_exam2_near_two(self):
        seq = exam2_constr_seq()
        lo, hi = estimate_dimension(seq, 8.0)
        assert lo == pytest.approx(2.0, abs=0.05)
        assert hi == pytest.approx(2.0, abs=0.05)

    def test_domain_error_when_v_below_limit(self):
        seq = seq_from(lambda n: 1.0 / n, 3, 60)
        with pytest.raises(ValueError):
            estimate_dimension(seq, 0.5)


class TestCoefficient:
    def test_triangle(self):
        seq = triangle_seq()
        lo, hi = estimate_coefficient(seq, estimate_v_infinity(seq), kappa=1)
        assert 0.735 <= lo <= hi <= 0.765

    def test_exam1_conditional_with_reference_limit(self):
        ref = REFS["exam1_conditional"]
        lo, hi = estimate_coefficient(exam1_cond_seq(), ref.v_infinity, kappa=2)
        assert lo == pytest.approx(ref.coefficient, abs=1e-3)
        assert hi == pytest.approx(ref.coefficient, abs=1e-3)

    def test_exam2_with_reference_limit(self):
        lo, hi = estimate_coefficient(exam2_constr_seq(), 8.0, kappa=2)
        assert lo == pytest.approx(10.5, abs=1e-2)
        assert hi == pytest.approx(10.5, abs=1e-2)

    def test_exam1_constrained(self):
        lo, hi = estimate_coefficient(exam1_constr_seq(), 1 / 17, kappa=2)
        assert lo == pytest.approx(6 / 17, abs=1e-3)
        assert hi == pytest.approx(6 / 17, abs=1e-3)

    def test_interval_families_recover_twelfth(self):
        uncon = seq_from(lambda n: 1.0 / (12 * n * n), 2, 200)
        cond = seq_from(lambda n: 1.0 / (3.0 * (2 * n - 1) ** 2), 2, 200)
        for seq in (uncon, cond):
            lo, hi = estimate_coefficient(seq, 0.0, kappa=1)
            assert lo == pytest.approx(1 / 12, abs=1e-4)
            assert hi == pytest.approx(1 / 12, abs=1e-4)

    def test_kappa_validation(self):
        for kappa in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                estimate_coefficient(triangle_seq(50), 0.0, kappa=kappa)


class TestReportAndReferences:
    def test_report_ordering_invariants(self):
        rep = build_report(exam2_constr_seq(), kappa=2, v_infinity=8.0)
        assert rep.dim_lower <= rep.dim_upper
        assert rep.coeff_lower <= rep.coeff_upper
        assert rep.tail_window >= 10

    def test_report_rejects_short_windows_and_non_finite_limits(self):
        seq = exam2_constr_seq()
        for window in (-5, 0, 2):
            with pytest.raises(ValueError, match="tail window must be at least 3"):
                build_report(seq, kappa=2, v_infinity=8.0, tail_window=window)
        assert build_report(seq, kappa=2, v_infinity=8.0, tail_window=3).tail_window == 3
        for v_inf in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="v_infinity must be finite"):
                build_report(seq, kappa=2, v_infinity=v_inf)

    def test_report_with_estimated_limit(self):
        rep = build_report(exam1_cond_seq(), kappa=2)
        assert rep.v_infinity == pytest.approx(REFS["exam1_conditional"].v_infinity, abs=1e-4)

    def test_triangle_reference(self):
        ref = triangle_reference()
        assert ref.dimension == 1.0
        assert ref.coefficient == 0.75
        lo, hi = ref.error_bracket(15)
        assert hi == pytest.approx(1.0 / 300.0, abs=0)
        assert lo == pytest.approx(1.0 / 432.0, abs=0)
        assert lo <= cf.triangle_conditional(15).error <= hi
        for k in range(2, 30):
            assert cf.triangle_conditional(3 * k).error == pytest.approx(
                ref.error_bracket(3 * k)[1], rel=1e-14)

    def test_exam_references(self):
        refs = exam_references()
        assert refs["exam1_constrained"].coefficient == pytest.approx(6 / 17, abs=0)
        assert refs["exam2_constrained"].coefficient == pytest.approx(10.5, abs=0)
        assert refs["exam2_constrained"].v_infinity == 8.0
        assert refs["exam1_conditional"].v_infinity == pytest.approx(0.1134668, abs=1e-7)
        assert refs["exam1_conditional"].coefficient == pytest.approx(0.2911479, abs=1e-7)
        assert not refs["exam2_conditional"].exists
        assert all(r.dimension in (2.0, None) for r in refs.values())
