"""Self-test of the benchmark's defect probes and their tally.

    python3 -m pytest -q perfbench/test_workloads.py

A probe reports its defect open only for the defect's known symptom; any
other wrong output counts as a failed operation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from workloads import KNOWN, Tally  # noqa: E402


def probe(ops, name):
    return next(op for op in ops if op.name == name)


def test_narrow_cell_probe(tmp_path):
    op = probe(workloads.build("large-n-evaluate", str(tmp_path)), "masses narrow cell")
    exact = workloads._narrow_masses()
    lost = [0.0, exact[1], exact[2] + exact[0]]
    assert op.check(exact) is None
    assert op.check(lost) == KNOWN
    assert op.check(op.run(0)) == KNOWN  # the defect as it stands
    for wrong in ([0.0, 0.5, 0.5], [0.0, exact[1] + exact[0], exact[2]], exact[:2]):
        message = op.check(wrong)
        assert message not in (None, KNOWN)


def report(v_infinity, dimension):
    return json.dumps({"v_infinity": v_infinity, "dim_lower": dimension,
                       "dim_upper": dimension})


def test_semicircle_probe(tmp_path):
    op = probe(workloads.build("sweep-limits", str(tmp_path)), "limits semicircle")
    tail_error = (1, "", "error: v <= v_infinity inside the tail window\n")
    good = (0, report(0.0, 1.0), "")
    assert op.check(op.run(0)) == KNOWN  # the defect as it stands
    assert op.check(((0, 0), (0, "{}", ""), good)) is None
    assert op.check(((0, 0), tail_error, good)) == KNOWN
    assert op.check(((0, 0), (0, "{}", ""), (0, report(-1.26e-4, 85.0), ""))) == KNOWN
    for wrong in [
        ((1, 0), tail_error, good),                        # a sweep failed
        ((0, 0), (1, "", "error: other\n"), good),         # another error
        ((0, 0), (2, "", ""), good),                       # another exit code
        ((0, 0), tail_error, (1, "", "")),                 # long limits failed
        ((0, 0), tail_error, (0, report(0.0, 3.0), "")),   # wrong, v_inf not negative
    ]:
        assert op.check(wrong) not in (None, KNOWN)


def test_tally_counts_only_unknown_failures(tmp_path):
    op = probe(workloads.build("large-n-evaluate", str(tmp_path)), "masses narrow cell")
    tally = Tally()
    tally.record(op, KNOWN)
    tally.record(op, None)
    assert (tally.attempted, tally.failed, tally.defects) == (2, 0, {"narrow-cell-mass": "open"})
    tally.record(op, "masses wrong")
    assert tally.failed == 1 and tally.failures == ["masses narrow cell: masses wrong"]
    fixed = Tally()
    fixed.record(op, None)
    assert fixed.defects == {"narrow-cell-mass": "fixed"}
