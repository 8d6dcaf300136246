"""The column path of the sweeps against the scalar loops it replaced.

Every closed form a sweep uses, and both allocation walks, take an integer
array of n and return arrays. Each element must equal the scalar loop's
result (scalar_reference) bit for bit, and a scalar call must still return
Python numbers. The sweep CSV and the limit report read back from it must
equal, byte for byte and bit for bit, what the per-row formatter and the
per-pair estimators give.
"""

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

import curvequant.closed_form as cf
import scalar_reference as ref
from curvequant import scenarios
from curvequant.asymptotics import AsymptoticsReport, build_report, estimate_v_infinity
from curvequant.cli import LIMITS, _read_sweep_csv, main
from curvequant.geometry import _h_minus_sin

TOP = LIMITS["n"]
FAMILIES = sorted(ref.SWEEP_ROWS)


def test_every_sweep_family_has_a_reference():
    assert FAMILIES == sorted(name for name, entry in scenarios.SCENARIOS.items()
                              if entry.sweep is not None)


@pytest.mark.parametrize("family", FAMILIES)
def test_column_equals_the_scalar_loop(family):
    # errors and allocation parts: the semicircle and triangle parts are the
    # columns of semicircle_allocate and triangle_allocate
    row, lowest = ref.SWEEP_ROWS[family]
    errors, parts = scenarios.SCENARIOS[family].sweep(np.arange(lowest, TOP + 1))
    rows = list(zip(*(p.tolist() for p in parts))) if parts else [()] * errors.size
    assert errors.dtype == np.float64
    assert list(zip(errors.tolist(), rows)) == [row(n) for n in range(lowest, TOP + 1)]


@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_csv_equals_the_per_row_formatter(family, capsys):
    _, lowest = ref.SWEEP_ROWS[family]
    assert main(["sweep", family, "--from", str(lowest), "--to", "2000", "--output", "-"]) == 0
    assert capsys.readouterr() == (ref.sweep_csv(family, lowest, 2000), "")


# the criterion-4 sweeps (their kappa and top n as the benchmark runs them)
# and the semicircle sweep
@pytest.mark.parametrize("family, n_to, kappa", [
    ("triangle", 1500, 1.0), ("exam1", 1500, 2.0), ("exam2", 1500, 2.0),
    ("interval-interior", 1500, 1.0), ("semicircle", 2000, 1.0)])
def test_report_equals_the_per_pair_estimators(tmp_path, capsys, family, n_to, kappa):
    csv_path = str(tmp_path / "sweep.csv")
    assert main(["sweep", family, "--from", "3", "--to", str(n_to), "--output", csv_path]) == 0
    row, _ = ref.SWEEP_ROWS[family]
    entries = tuple((n, row(n)[0]) for n in range(3, n_to + 1))
    seq = _read_sweep_csv(csv_path)
    assert seq.entries == entries
    v_inf = estimate_v_infinity(seq)
    want = AsymptoticsReport(v_inf, *ref.estimate_dimension(entries, v_inf), kappa,
                             *ref.estimate_coefficient(entries, v_inf, kappa),
                             len(entries) // 2)
    assert build_report(seq, kappa) == want
    assert main(["asymptotics", csv_path, "--kappa", repr(kappa)]) == 0
    assert capsys.readouterr() == (json.dumps(asdict(want), indent=2) + "\n", "")


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_row_is_python_numbers_equal_to_the_loop(family):
    row, lowest = ref.SWEEP_ROWS[family]
    sweep = scenarios.SCENARIOS[family].sweep
    for n in [*range(lowest, lowest + 40), 97, 1201, 4999, TOP]:
        error, parts = sweep(n)
        assert type(error) is float and all(type(p) is int for p in parts)
        assert (error, parts) == row(n), n


@pytest.mark.parametrize("family", FAMILIES)
def test_first_invalid_n_raises_the_loops_message(family, capsys):
    row, lowest = ref.SWEEP_ROWS[family]
    with pytest.raises(ValueError) as want:
        row(lowest - 1)
    sweep = scenarios.SCENARIOS[family].sweep
    for n in (lowest - 1, np.arange(lowest - 1, 10), np.arange(-5, lowest)):
        with pytest.raises(ValueError) as got:
            sweep(n)
        assert str(got.value) == str(want.value)
    assert main(["sweep", family, "--from", str(lowest - 1), "--to", "10",
                 "--output", "-"]) == 1
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


@pytest.mark.parametrize("family", FAMILIES)
def test_a_huge_negative_from_fails_at_once(family, capsys):
    # the family's smallest n is checked before the column of n is built
    row, lowest = ref.SWEEP_ROWS[family]
    with pytest.raises(ValueError) as want:
        row(lowest - 1)
    t0 = time.perf_counter()
    assert main(["sweep", family, "--from", "-1000000000000", "--to", "3",
                 "--output", "-"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr() == ("", f"error: {want.value}\n")


def test_a_scalar_n_stays_a_python_int():
    # 3n^3 passes 2^63 near n = 1.45e6: a scalar n must not become int64
    for n in (10**6, 2 * 10**6, 10**9):
        assert cf.exam1_published_error(n) == ref.exam1_published_error(n)
        assert cf.line_constraint_published_error(n, scenarios.EXAM2_LINE) == \
            ref.line_constraint_published_error(n, 0.0, 1.0, 1.0, 4.0)


def test_an_array_beyond_the_exact_int64_range_is_refused():
    ok = np.array([3, cf.COLUMN_MAX])
    assert cf.exam1_published_error(ok).tolist() == [ref.exam1_published_error(3),
                                                     ref.exam1_published_error(cf.COLUMN_MAX)]
    with pytest.raises(ValueError, match="must stay <="):
        cf.exam1_published_error(ok + 1)


def test_semicircle_series_matches_the_scalar_series():
    # every x = pi/(2k) a semicircle error takes, and a grid over [0, 3]
    x = np.concatenate([np.linspace(0.0, 3.0, 30001), np.pi / (2.0 * np.arange(1, TOP + 1))])
    assert _h_minus_sin(x).tolist() == [ref.x_minus_sin(v) for v in x.tolist()]


def test_exact_line_errors_equal_the_scalar_loop():
    # the exact distortions of the two line families, which no sweep writes
    n = np.arange(1, 2001)
    for scen in (scenarios.EXAM1_LINE, scenarios.EXAM2_LINE,
                 cf.LineConstraintScenario(-1.0, 2.0, 0.0, 0.5)):
        want = [ref.line_constraint_exact_error(k, scen.a, scen.b, scen.m, scen.c)
                for k in range(1, 2001)]
        assert cf.line_constraint_exact_error(n, scen).tolist() == want
        assert [cf.line_constraint_exact_error(k, scen) for k in range(1, 2001)] == want
    want = [ref.exam1_exact_error(k) for k in range(1, 2001)]
    assert cf.exam1_exact_error(n).tolist() == want
    assert [cf.exam1_exact_error(k) for k in range(1, 2001)] == want
    assert type(cf.exam1_exact_error(3)) is float
    assert type(cf.line_constraint_exact_error(3, scenarios.EXAM1_LINE)) is float
    for bad in (0, np.arange(0, 4)):
        with pytest.raises(ValueError, match="need n >= 1"):
            cf.exam1_exact_error(bad)
        with pytest.raises(ValueError, match="need n >= 1"):
            cf.line_constraint_exact_error(bad, scenarios.EXAM1_LINE)
