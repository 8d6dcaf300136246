import math

import numpy as np
import pytest

from curvequant import asymptotics
from curvequant import closed_form as cf
from curvequant.asymptotics import (
    ErrorSequence,
    ScenarioLimits,
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
    def test_requires_entries(self):
        with pytest.raises(ValueError, match="sequence is empty"):
            ErrorSequence(())

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

    def test_requires_positive_point_counts(self):
        for first in (0, -5):
            with pytest.raises(ValueError, match="point counts must be positive"):
                ErrorSequence(((first, 3.0), (first + 1, 2.0), (first + 2, 1.0)))

    def test_requires_integer_point_counts(self):
        # a count is not truncated to an integer; 4.0 and numpy ints pass
        for bad in (3.7, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="point counts must be integers"):
                ErrorSequence(((bad, 1.0), (4, 0.5), (5.9, 0.3)))
        seq = ErrorSequence(((np.int64(3), 1.0), (4.0, 0.5), (np.float64(5), 0.3)))
        assert seq.entries == ((3, 1.0), (4, 0.5), (5, 0.3))
        assert all(type(n) is int for n, _ in seq.entries)

    def test_requires_float_sized_point_counts(self):
        # n = 1e400 has no float value, and the estimators' n**(-s) would
        # overflow instead of returning a value
        entries = tuple(zip([10 ** 400, 2 * 10 ** 400, 4 * 10 ** 400], [1.0, 0.5, 0.484375]))
        with pytest.raises(ValueError, match="finite float value"):
            ErrorSequence(entries)

    @pytest.mark.parametrize("k", [-60, 60])
    def test_scale_free(self, k):
        # a rise of 1e-12 of the value is allowed, at every scale
        cases = [((1.0, 1.5), False), ((1.0, 1.0 + 2e-12), False), ((1.0, 1.0 + 5e-13), True),
                 ((1e-3, 1e-3 * (1 + 5e-13)), True), ((1e-3, 1.5e-3), False)]
        for (v0, v1), accepted in cases:
            for scale in (1.0, 2.0 ** k):
                entries = ((3, scale * v0), (4, scale * v1))
                if accepted:
                    assert len(ErrorSequence(entries)) == 2
                else:
                    with pytest.raises(ValueError, match="nonincreasing"):
                        ErrorSequence(entries)
        # the criterion-4 reports scale with the values: rho, s and the
        # Richardson weight are scale-free, only the logarithms round
        for seq, kappa in ((triangle_seq(), 1.0), (exam1_cond_seq(), 2.0),
                           (exam2_constr_seq(), 2.0)):
            ref = build_report(seq, kappa)
            got = build_report(ErrorSequence(tuple((n, 2.0 ** k * v) for n, v in seq.entries)),
                               kappa)
            assert (got.v_infinity, got.coeff_lower, got.coeff_upper) == (
                2.0 ** k * ref.v_infinity, 2.0 ** k * ref.coeff_lower, 2.0 ** k * ref.coeff_upper)
            assert got.dim_lower == pytest.approx(ref.dim_lower, rel=0, abs=1e-12)
            assert got.dim_upper == pytest.approx(ref.dim_upper, rel=0, abs=1e-12)


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


class TestPowerFit:
    def test_root_matches_scipy_brentq(self):
        # s is the one root of rho = expm1(s*a) / -expm1(-s*b) in
        # (1e-3, 10**1.5), on consecutive and on spread point counts
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(3)
        roots = k = 0
        while roots < 1000:
            k += 1
            v, c, p = rng.uniform(0.0, 2.0), rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0)
            if k % 2:
                ns = [int(rng.integers(3, 2999)) + i for i in range(3)]
            else:
                ns = sorted(int(n) for n in rng.choice(np.arange(3, 3001), 3, replace=False))
            vs = [v + c * n ** (-p) * (1 + 1e-3 * math.sin(n)) for n in ns]
            fit = asymptotics._power_fit3(ns, vs)
            if fit is None:
                continue
            (n1, n2, n3), (v1, v2, v3) = ns, vs
            a, b = math.log1p((n2 - n1) / n1), math.log1p((n3 - n2) / n2)
            rho = (v1 - v2) / (v2 - v3)
            root = optimize.brentq(lambda s: math.expm1(s * a) / -math.expm1(-s * b) - rho,
                                   1e-3, 10 ** 1.5, xtol=1e-300, rtol=8.9e-16)
            assert fit[2] == pytest.approx(root, rel=1e-12, abs=0)
            roots += 1

    @pytest.mark.parametrize("s", [5e-4, 40.0])
    def test_none_without_a_root_inside(self, s):
        # exact power laws whose exponent lies outside (1e-3, 10**1.5), and
        # triples that do not fall strictly
        ns = [2, 3, 4]
        assert asymptotics._power_fit3(ns, [1.0 + n ** -s for n in ns]) is None
        assert asymptotics._power_fit3(ns, [1.0, 0.5, 0.5]) is None
        assert asymptotics._power_fit3(ns, [1.0, 0.5, 0.75]) is None

    def test_steep_tail_fits(self):
        # differences at rounding level and s near 29.5 (scipy's brentq on
        # the same ratio gives 29.4948)
        fit = asymptotics._power_fit3([2646, 2662, 2678], [0.2041522931908706,
                                                           0.20415229319086498,
                                                           0.20415229319086028])
        assert fit[2] == pytest.approx(29.4948, abs=1e-4)
        assert fit[0] == pytest.approx(0.2041522931908, abs=1e-12)

    @pytest.mark.parametrize("e", [62, 100])
    def test_none_where_the_power_underflows(self, e):
        # s = 5 at ratio 2: n**-5 is subnormal at 1e62, where C overflows,
        # and 0.0 at 1e100, where it would divide by zero; the estimate
        # then says that the tail, which does decrease, fits no power law
        ns, vs = [10 ** e, 2 * 10 ** e, 4 * 10 ** e], [1.0, 0.5, 0.484375]
        assert asymptotics._power_fit3(ns, vs) is None
        with pytest.raises(ValueError, match="tail fits no power law"):
            estimate_v_infinity(ErrorSequence(tuple(zip(ns, vs))))

    def test_overflowing_ratio_counts_as_above(self):
        # a = log(1e10): expm1(s*a) overflows from s = 30.8 on, below the
        # top of the bracket, where h(s) is far above rho = 100
        ns, vs = [1, 10 ** 10, 2 * 10 ** 10], [1.0, 0.01, 1e-4]
        fit = asymptotics._power_fit3(ns, vs)
        a, b = math.log(10 ** 10), math.log(2.0)
        assert math.expm1(fit[2] * a) / -math.expm1(-fit[2] * b) == pytest.approx(100.0, rel=1e-12)
        v = estimate_v_infinity(ErrorSequence(tuple(zip(ns, vs))))
        assert v == pytest.approx(-0.1712, abs=1e-4)


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

    def test_domain_error_without_a_decaying_pair(self):
        # a constant tail above the limit: every lagged slope is 0
        seq = ErrorSequence(tuple((n, 1.0) for n in range(3, 15)))
        with pytest.raises(ValueError, match="no decaying pairs"):
            estimate_dimension(seq, 0.0)


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

    def test_overflowing_scaling_refused(self):
        # n**(2/kappa) overflows at n = 50 (or is inf, for a subnormal
        # kappa), or the scaled errors overflow in the 1/n elimination
        for seq, kappa in ((triangle_seq(50), 0.01), (triangle_seq(50), 5e-324),
                           (seq_from(lambda n: 1e305 / n, 3, 60), 1.0)):
            with pytest.raises(ValueError, match=f"kappa {kappa!r} is too small"):
                estimate_coefficient(seq, 0.0, kappa=kappa)


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
        assert isinstance(ref, ScenarioLimits)
        assert (ref.v_infinity, ref.dimension, ref.kappa, ref.coefficient) == (0.0, 1.0, 1.0, 0.75)
        assert ref.exists

    def test_exam_references(self):
        refs = exam_references()
        assert refs["exam1_constrained"].coefficient == pytest.approx(6 / 17, abs=0)
        assert refs["exam2_constrained"].coefficient == pytest.approx(10.5, abs=0)
        assert refs["exam2_constrained"].v_infinity == 8.0
        assert refs["exam1_conditional"].v_infinity == pytest.approx(0.1134668, abs=1e-7)
        assert refs["exam1_conditional"].coefficient == pytest.approx(0.2911479, abs=1e-7)
        assert not refs["exam2_conditional"].exists
        assert all(r.dimension in (2.0, None) for r in refs.values())
