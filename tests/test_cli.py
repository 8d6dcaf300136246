"""Command line contract tests: parsing, exit codes, output documents."""

import argparse
import copy
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from curvequant import cli, scenarios
from curvequant import closed_form as cf
from curvequant.allocation import semicircle_allocate
from curvequant.cli import main
from curvequant.scenarios import exam2_problem, semicircle_problem
from curvequant.solver import Problem


def write_problem(tmp_path, problem, name="problem.json", solver=None):
    doc = {"schema_version": cli.SCHEMA_VERSION, **cli.problem_doc(problem)}
    if solver:
        doc["solver"] = solver
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


INTERVAL_LEFT_DOC = {
    "schema_version": 1,
    "measure": [{"type": "segment", "p0": [0.0, 0.0], "p1": [1.0, 0.0]}],
    "constraints": [{"type": "free"}],
    "beta": [[0.0, 0.0]],
    "n": 4,
    "solver": {"restarts": 6},
}


class TestProblemParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(INTERVAL_LEFT_DOC))
        problem, overrides = cli.load_problem_file(str(path))
        assert problem.n == 4
        assert len(problem.beta) == 1
        assert overrides == {"restarts": 6}

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "measure": oops\n}')
        with pytest.raises(cli.CliError, match=r"bad\.json:2:14"):
            cli.load_problem_file(str(path))

    def test_unknown_top_level_field(self, tmp_path):
        doc = dict(INTERVAL_LEFT_DOC, comment="hi")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="unknown field 'comment'"):
            cli.load_problem_file(str(path))

    def test_unknown_curve_field(self, tmp_path):
        doc = json.loads(json.dumps(INTERVAL_LEFT_DOC))
        doc["measure"][0]["length"] = 1.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match=r"measure\[0\].*'length'"):
            cli.load_problem_file(str(path))

    def test_missing_required_field(self, tmp_path):
        doc = {k: v for k, v in INTERVAL_LEFT_DOC.items() if k != "n"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="missing field 'n'"):
            cli.load_problem_file(str(path))

    def test_wrong_schema_version(self, tmp_path):
        doc = dict(INTERVAL_LEFT_DOC, schema_version=7)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="schema_version"):
            cli.load_problem_file(str(path))

    def test_bad_point_shape(self, tmp_path):
        doc = json.loads(json.dumps(INTERVAL_LEFT_DOC))
        doc["beta"] = [[0.0, 0.0, 0.0]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match=r"beta\[0\]"):
            cli.load_problem_file(str(path))

    def test_unknown_constraint_type(self, tmp_path):
        doc = json.loads(json.dumps(INTERVAL_LEFT_DOC))
        doc["constraints"] = [{"type": "manifold"}]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="unknown constraint type"):
            cli.load_problem_file(str(path))

    def test_unknown_solver_key(self, tmp_path):
        doc = dict(INTERVAL_LEFT_DOC, solver={"threads": 4})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match="'threads'"):
            cli.load_problem_file(str(path))

    def test_non_integer_n(self, tmp_path):
        doc = dict(INTERVAL_LEFT_DOC, n=4.0)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match=r"n.*integer"):
            cli.load_problem_file(str(path))


# any JSON value: null, booleans, numbers (NaN and infinities included, as
# json.load accepts them), strings, and lists and objects of these
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)

VALID_DOCS = {
    "interval-left": INTERVAL_LEFT_DOC,
    "semicircle-points": {
        "schema_version": 1,
        "measure": [
            {"type": "segment", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]},
            {"type": "arc", "center": [0.0, 0.0], "radius": 1.0,
             "theta0": 0.0, "theta1": 3.0},
        ],
        "constraints": [
            {"type": "curve", "curve": {"type": "segment", "p0": [-1.0, 0.0],
                                        "p1": [1.0, 0.0]}},
            {"type": "points", "points": [[0.0, 1.0], [0.5, 0.5]]},
        ],
        "beta": [[-1.0, 0.0], [1.0, 0.0]],
        "n": 4,
        "solver": {"restarts": 2, "rng_seed": 3, "param_tol": 1e-9, "max_iters": 50},
    },
}


def field_paths(doc, prefix=()):
    """Key/index path of every value inside doc, the document itself included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


FIELDS = [(name, path) for name, doc in VALID_DOCS.items() for path in field_paths(doc)]


def parses_or_rejects(doc):
    try:
        problem, overrides = cli.parse_problem_doc(doc)
    except cli.CliError:
        return
    assert isinstance(problem, Problem) and isinstance(overrides, dict)


class TestProblemDocProperty:
    def test_valid_documents_parse(self):
        for doc in VALID_DOCS.values():
            problem, _ = cli.parse_problem_doc(doc)
            assert problem.n == doc["n"]

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value(self, doc):
        parses_or_rejects(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FIELDS), JSON_VALUES)
    @example(("interval-left", ("measure",)),
             [{"type": "arc", "center": [0.0, 0.0], "radius": 5e-324,
               "theta0": 0.0, "theta1": 5e-324}])
    def test_one_field_replaced(self, field, value):
        name, path = field
        doc = copy.deepcopy(VALID_DOCS[name])
        if not path:
            doc = value
        else:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        parses_or_rejects(doc)


class TestSolveCommand:
    def test_interval_left_matches_closed_form(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(INTERVAL_LEFT_DOC))
        code = main(["--seed", "42", "solve", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distortion"] == pytest.approx(1.0 / 147.0, rel=1e-9)
        xs = sorted(p["x"] for p in doc["points"])
        for got, want in zip(xs, [0.0, 2.0 / 7.0, 4.0 / 7.0, 6.0 / 7.0]):
            assert got == pytest.approx(want, abs=1e-7)
        assert doc["degenerate_points"] == []

    def test_degenerate_instance_exits_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, exam2_problem(3), solver={"restarts": 4})
        code = main(["--seed", "42", "solve", path])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate_points"] == [1, 2]
        assert doc["distortion"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_constrained_points_carry_parameters(self, tmp_path, capsys):
        path = write_problem(tmp_path, semicircle_problem(3), solver={"restarts": 4})
        assert main(["--seed", "42", "solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        constrained = [p for p in doc["points"] if p["kind"] == "constrained"]
        assert constrained and all("s" in p and "constraint" in p for p in constrained)

    # each overflows double precision somewhere in the solve: a constraint
    # set at 1e200 (no squared distance to it is finite), an arc whose
    # squared radius overflows or whose cell integrals do, and a support
    # too short for a finite density. numpy warns as it overflows; the
    # command must still end in an error, with no NaN result.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("constraint, support", [
        ({"type": "points", "points": [[1e200, 0.0]]}, 1.0),
        ({"type": "curve", "curve": {"type": "segment", "p0": [1e200, 0.0],
                                     "p1": [1e200, 1.0]}}, 1.0),
        ({"type": "curve", "curve": {"type": "arc", "center": [0.0, 0.0], "radius": 1.4e154,
                                     "theta0": 0.0, "theta1": 1e-150}}, 1.0),
        ({"type": "curve", "curve": {"type": "arc", "center": [0.0, 0.0], "radius": 1.3e154,
                                     "theta0": 0.0, "theta1": 1e-150}}, 1.0),
        ({"type": "free"}, 5e-309),
    ], ids=["far-member", "far-curve", "arc-radius-squared-overflows", "arc-integrals-overflow",
            "subnormal-support"])
    def test_overflowing_input_is_one(self, tmp_path, capsys, constraint, support):
        doc = {"schema_version": 1,
               "measure": [{"type": "segment", "p0": [0.0, 0.0], "p1": [support, 0.0]}],
               "constraints": [constraint], "n": 1}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["--restarts", "2", "solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "nan" not in captured.err.lower() and "Traceback" not in captured.err


class TestClosedFormCommand:
    def test_interval_left_golden(self, capsys):
        assert main(["closed-form", "interval-left", "-n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"] == [[0.0, 0.0], [2.0 / 3.0, 0.0]]
        assert doc["error"] == pytest.approx(1.0 / 27.0, rel=1e-15)

    def test_triangle_allocation_and_error(self, capsys):
        assert main(["closed-form", "triangle", "-n", "12"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["allocation"] == [5, 5, 5]
        assert doc["error"] == pytest.approx(1.0 / 192.0, rel=1e-15)
        assert len(doc["points"]) == 12

    def test_semicircle_allocation_override(self, capsys):
        assert main(["closed-form", "semicircle", "-n", "5"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert base["allocation"] == [3, 4]
        assert main(["closed-form", "semicircle", "-n", "5", "--n1", "2"]) == 0
        forced = json.loads(capsys.readouterr().out)
        assert forced["allocation"] == [2, 5]
        assert forced["error"] > base["error"]

    def test_exam1_includes_forced_origin(self, capsys):
        assert main(["closed-form", "exam1", "-n", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [0.0, 0.0] in doc["points"]
        assert len(doc["points"]) == 4

    def test_line_requires_slope_and_intercept(self, capsys):
        assert main(["closed-form", "line-constraint", "-n", "3"]) == 1
        assert "intercept" in capsys.readouterr().err

    def test_negative_option_value_in_exponent_form(self, capsys):
        # the pattern rides on a private argparse attribute; if a Python
        # drops it, the parser stops consulting it and this shows
        assert "_negative_number_matcher" in vars(argparse.ArgumentParser())
        assert main(["closed-form", "interval-left", "-n", "3", "--a", "-1e-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0] == [-1e-3, 0.0]
        # words stay options, as in plain argparse ("-nan" is -n with "an");
        # the = form passes them
        parser = cli.build_parser()
        for word in ("-inf", "-nan"):
            with pytest.raises(cli.CliError):
                parser.parse_args(["closed-form", "interval-left", "-n", "3", "--a", word])
        assert parser.parse_args(["closed-form", "interval-left", "-n", "3",
                                  "--a=-inf"]).a == -math.inf

    def test_interval_interior_defaults_to_support(self, capsys):
        assert main(["closed-form", "interval-interior", "-n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0] == [0.0, 0.0]
        assert doc["points"][-1] == [1.0, 0.0]
        assert doc["error"] == pytest.approx(1.0 / 108.0, rel=1e-15)


class TestSweepCommand:
    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "tri.csv"
        assert main(["sweep", "triangle", "--from", "3", "--to", "6",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,error,alloc,wall_time_ms"
        assert lines[1] == f"3,{1.0 / 12.0!r},2+2+2,0"
        assert lines[4] == f"6,{1.0 / 48.0!r},3+3+3,0"

    def test_semicircle_alloc_column(self, tmp_path):
        out = tmp_path / "semi.csv"
        assert main(["sweep", "semicircle", "--from", "5", "--to", "5",
                     "--output", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "3+4"
        assert float(row[1]) == pytest.approx(cf.semicircle_error(3, 4), rel=1e-15)

    def test_exam2_rows_use_published_values(self, tmp_path):
        out = tmp_path / "e2.csv"
        assert main(["sweep", "exam2", "--from", "2", "--to", "4",
                     "--output", str(out)]) == 0
        scen = cf.LineConstraintScenario(0.0, 1.0, 1.0, 4.0)
        for line in out.read_text().splitlines()[1:]:
            n, err, alloc, wall = line.split(",")
            assert alloc == "" and wall == "0"
            want = cf.line_constraint_optimal(int(n), scen).error
            assert float(err) == pytest.approx(want, rel=1e-15)

    def test_stdout_target(self, capsys):
        assert main(["sweep", "exam1", "--from", "3", "--to", "8",
                     "--output", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,error,alloc,wall_time_ms"
        assert len(lines) == 7

    @pytest.mark.parametrize("scenario, lo, configuration", [
        ("triangle", 3, cf.triangle_conditional),
        ("semicircle", 3,
         lambda n: cf.semicircle_conditional(n, semicircle_allocate(n).parts[0])),
        ("exam1", 3, cf.exam1_conditional),
        ("exam2", 2,
         lambda n: cf.line_constraint_optimal(n, cf.LineConstraintScenario(0.0, 1.0, 1.0, 4.0))),
        ("interval-left", 3, lambda n: cf.interval_left_endpoint(n, 0.0, 1.0)),
        ("interval-right", 3, lambda n: cf.interval_right_endpoint(n, 0.0, 1.0)),
        ("interval-interior", 3,
         lambda n: cf.interval_interior(n, cf.IntervalScenario(0.0, 1.0, 0.0, 1.0))),
    ])
    def test_row_equals_configuration_error(self, scenario, lo, configuration):
        for n in range(lo, 301):
            assert scenarios.SCENARIOS[scenario].sweep(n)[0] == configuration(n).error

    def test_sweeps_build_no_points(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep built a point configuration")

        for name in ("exam1_conditional", "line_constraint_optimal",
                     "interval_left_endpoint", "interval_right_endpoint",
                     "interval_interior", "semicircle_conditional",
                     "triangle_conditional"):
            monkeypatch.setattr(cf, name, refuse)
        for scenario in (name for name, entry in scenarios.SCENARIOS.items() if entry.sweep):
            assert main(["sweep", scenario, "--from", "3", "--to", "40",
                         "--output", "-"]) == 0
        capsys.readouterr()

    def test_too_small_n_rejected(self, capsys):
        assert main(["sweep", "exam1", "--from", "2", "--to", "5", "--output", "-"]) == 1
        assert capsys.readouterr().err == "error: need n >= 3\n"

    def test_reversed_range_rejected(self, tmp_path, capsys):
        assert main(["sweep", "triangle", "--from", "9", "--to", "3",
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert "must not exceed" in capsys.readouterr().err


class TestRegistry:
    def test_closed_form_and_sweep_agree(self, capsys):
        names = [name for name, entry in scenarios.SCENARIOS.items()
                 if entry.closed_form and entry.sweep]
        assert len(names) == 6
        for name in names:
            assert main(["sweep", name, "--from", "3", "--to", "60", "--output", "-"]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert len(rows) == 58
            for n, row in zip(range(3, 61), rows):
                assert main(["closed-form", name, "-n", str(n)]) == 0
                doc = json.loads(capsys.readouterr().out)
                _, error, alloc, _ = row.split(",")
                assert repr(doc["error"]) == error, f"{name} n={n}"
                assert "+".join(str(p) for p in doc.get("allocation", ())) == alloc

    def test_every_command_reads_the_registry(self, monkeypatch, capsys):
        monkeypatch.setitem(scenarios.SCENARIOS, "interval-left-copy",
                            scenarios.SCENARIOS["interval-left"])
        assert main(["closed-form", "interval-left-copy", "-n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"] == "interval-left-copy"
        assert main(["sweep", "interval-left-copy", "--from", "3", "--to", "5",
                     "--output", "-"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main(["--restarts", "4", "verify", "--scenario", "interval-left-copy",
                     "--max-n", "2"]) == 0
        assert "interval-left-copy n=2" in capsys.readouterr().out


class TestAsymptoticsCommand:
    def test_exam1_report(self, tmp_path, capsys):
        csv_path = tmp_path / "e1.csv"
        assert main(["sweep", "exam1", "--from", "3", "--to", "200",
                     "--output", str(csv_path)]) == 0
        assert main(["--tail-window", "40", "asymptotics", str(csv_path),
                     "--kappa", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        exact = (29.0 * math.sqrt(17.0) + 229.0) / 3072.0
        assert doc["v_infinity"] == pytest.approx(exact, rel=1e-5)
        assert doc["dim_lower"] <= 2.01 and doc["dim_upper"] >= 1.99
        assert doc["tail_window"] == 40

    def test_v_infinity_override(self, tmp_path, capsys):
        csv_path = tmp_path / "tri.csv"
        assert main(["sweep", "triangle", "--from", "3", "--to", "120",
                     "--output", str(csv_path)]) == 0
        assert main(["asymptotics", str(csv_path), "--kappa", "1",
                     "--v-infinity", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["v_infinity"] == 0.0
        assert doc["coeff_lower"] <= 0.75 <= doc["coeff_upper"]

    def test_too_few_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("n,error,alloc,wall_time_ms\n3,0.1,,0\n4,0.05,,0\n")
        assert main(["asymptotics", str(csv_path), "--kappa", "2"]) == 1
        assert "at least 6 rows" in capsys.readouterr().err

    def test_malformed_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "junk.csv"
        csv_path.write_text("hello\nworld\n")
        assert main(["asymptotics", str(csv_path), "--kappa", "2"]) == 1
        assert "header" in capsys.readouterr().err

    def test_negative_kappa_in_exponent_form_is_one(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        assert main(["sweep", "exam1", "--from", "3", "--to", "60", "--output", str(csv_path)]) == 0
        assert main(["asymptotics", str(csv_path), "--kappa", "-1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: kappa must be positive")

    @pytest.mark.parametrize("root, option, message", [
        (["--tail-window", "-5"], [], "tail window must be at least 3, got -5"),
        (["--tail-window", "0"], [], "tail window must be at least 3, got 0"),
        (["--tail-window", "2"], [], "tail window must be at least 3, got 2"),
        ([], ["--v-infinity", "nan"], "v_infinity must be finite, got nan"),
    ], ids=["window-minus-5", "window-0", "window-2", "v-infinity-nan"])
    def test_short_window_or_non_finite_limit_is_one(self, tmp_path, capsys, root, option,
                                                     message):
        csv_path = tmp_path / "e1.csv"
        assert main(["sweep", "exam1", "--from", "3", "--to", "60",
                     "--output", str(csv_path)]) == 0
        assert main([*root, "asymptotics", str(csv_path), "--kappa", "2", *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("kappa", ["nan", "inf"])
    def test_non_finite_kappa_is_one(self, tmp_path, capsys, kappa):
        csv_path = tmp_path / "e1.csv"
        assert main(["sweep", "exam1", "--from", "3", "--to", "60",
                     "--output", str(csv_path)]) == 0
        assert main(["asymptotics", str(csv_path), "--kappa", kappa]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: kappa")


class TestRenderCommand:
    def solve_to_file(self, tmp_path, capsys):
        problem = write_problem(tmp_path, semicircle_problem(4),
                                solver={"restarts": 4})
        assert main(["--seed", "42", "solve", problem]) == 0
        result = tmp_path / "result.json"
        result.write_text(capsys.readouterr().out)
        return result

    def test_render_from_solve_result(self, tmp_path, capsys):
        result = self.solve_to_file(tmp_path, capsys)
        out = tmp_path / "out.svg"
        assert main(["render", str(result), "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= 4

    def test_render_is_deterministic(self, tmp_path, capsys):
        result = self.solve_to_file(tmp_path, capsys)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", str(result), "--output", str(a)]) == 0
        assert main(["render", str(result), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_result_document(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"schema_version": 1}')
        assert main(["render", str(path), "--output", str(tmp_path / "x.svg")]) == 1
        assert "result document" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"problem": 5, "points": []},
        {"problem": {"measure": INTERVAL_LEFT_DOC["measure"]}, "points": 5},
        {"problem": {"measure": INTERVAL_LEFT_DOC["measure"]},
         "points": [{"kind": "free", "x": [1], "y": 0.0}]},
    ])
    def test_malformed_result_is_one(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["render", str(path), "--output", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestVerifyCommand:
    def test_small_gallery_slice_passes(self, capsys):
        code = main(["--restarts", "6", "verify", "--scenario", "interval-left",
                     "--max-n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out
        assert "interval-left n=3" in out

    def test_unknown_scenario(self, capsys):
        assert main(["verify", "--scenario", "dodecahedron"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_one(self, capsys, tolerance):
        assert main(["verify", "--scenario", "interval-left", "--max-n", "2",
                     f"--tolerance={tolerance}"]) == 1
        assert capsys.readouterr().err.startswith("error: --tolerance:")

    @pytest.mark.parametrize("tolerance", ["-1e-6", "-1E+2", "-.5e-3"])
    def test_negative_tolerance_in_exponent_form_is_one(self, capsys, tolerance):
        # a separate value, not --tolerance=...: argparse must not take it
        # for an option
        assert main(["verify", "--scenario", "interval-left", "--max-n", "2",
                     "--tolerance", tolerance]) == 1
        assert capsys.readouterr().err.startswith("error: --tolerance: expected")

    @pytest.mark.parametrize("argv", [
        ["verify", "--scenario", "triangle", "--max-n", "2"],
        ["verify", "--max-n", "0"],
    ])
    def test_empty_selection_is_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-n:")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["closed-form"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["transmogrify"]) == 1
        capsys.readouterr()

    def test_missing_file_is_one(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 1
        capsys.readouterr()

    def test_domain_error_is_one(self, capsys):
        assert main(["closed-form", "interval-interior", "-n", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("change, field", [
        ({"measure": [{"type": "arc", "center": [0.0, 0.0], "radius": [1],
                       "theta0": 0.0, "theta1": 3.0}]}, "measure[0].radius"),
        ({"solver": {"restarts": "many"}}, "solver.restarts"),
        ({"n": True}, "json.n:"),
        ({"beta": 5}, "json.beta:"),
        ({"schema_version": True}, "json.schema_version:"),
        ({"schema_version": 1.0}, "json.schema_version:"),
    ])
    def test_malformed_number_is_one(self, tmp_path, capsys, change, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, **change)))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("change, field", [
        ({"n": 10**30}, "json.n:"),
        ({"n": cli.LIMITS["n"] + 1}, "json.n:"),
        ({"solver": {"restarts": 10**30}}, "solver.restarts:"),
        ({"solver": {"restarts": cli.LIMITS["restarts"] + 1}}, "solver.restarts:"),
        ({"solver": {"max_iters": 10**30}}, "solver.max_iters:"),
        ({"solver": {"max_iters": cli.LIMITS["max_iters"] + 1}}, "solver.max_iters:"),
    ])
    def test_over_limit_is_one(self, tmp_path, capsys, change, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, **change)))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "exceeds the limit" in err

    def test_restarts_flag_over_limit_is_one(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(INTERVAL_LEFT_DOC))
        assert main(["--restarts", str(cli.LIMITS["restarts"] + 1), "solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --restarts:") and "exceeds the limit" in err

    @pytest.mark.parametrize("command", [["solve", "p.json"], ["verify"]])
    def test_negative_seed_flag_is_one(self, tmp_path, capsys, command):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(INTERVAL_LEFT_DOC))
        argv = ["--seed", "-3"] + [str(path) if a == "p.json" else a for a in command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed: rng_seed must be non-negative\n"

    @pytest.mark.parametrize("solver, message", [
        ({"rng_seed": -3}, "solver.rng_seed: rng_seed must be non-negative"),
        ({"restarts": 0}, "solver.restarts: need at least one restart"),
        ({"param_tol": 0}, "solver.param_tol: param_tol must be positive"),
    ])
    def test_invalid_solver_field_is_one(self, tmp_path, capsys, solver, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, solver=solver)))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.{message}\n"

    @pytest.mark.parametrize("argv, option", [
        (["closed-form", "interval-left", "-n", str(cli.LIMITS["n"] + 1)], "-n"),
        (["sweep", "interval-left", "--from", "3", "--to", str(cli.LIMITS["n"] + 1),
          "--output", "-"], "--to"),
    ])
    def test_point_count_option_over_limit_is_one(self, capsys, argv, option):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option}:") and "exceeds the limit" in captured.err

    def test_limits_themselves_are_accepted(self, tmp_path):
        doc = dict(INTERVAL_LEFT_DOC, n=cli.LIMITS["n"],
                   solver={"restarts": cli.LIMITS["restarts"],
                           "max_iters": cli.LIMITS["max_iters"]})
        problem, overrides = cli.parse_problem_doc(doc)
        assert problem.n == cli.LIMITS["n"]
        assert overrides == {"restarts": cli.LIMITS["restarts"],
                             "max_iters": cli.LIMITS["max_iters"]}


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the command line runs on numpy alone
    code = ("import sys, curvequant.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_solve_output_identical_across_runs(self, tmp_path, capsys):
        path = write_problem(tmp_path, semicircle_problem(5),
                             solver={"restarts": 6})
        assert main(["--seed", "42", "solve", path]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "42", "solve", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_sweep_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["--seed", "42", "sweep", "semicircle", "--from", "3",
                         "--to", "40", "--output", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestKeptParser:
    def test_built_once_and_reads_the_registry_live(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["closed-form", "interval-left", "-n", "2"]) == 0
        assert main(["closed-form", "no-such-family", "-n", "2"]) == 1
        assert "invalid choice: 'no-such-family'" in capsys.readouterr().err
        # a name registered after the parser was built is a valid choice
        monkeypatch.setitem(scenarios.SCENARIOS, "no-such-family",
                            scenarios.SCENARIOS["interval-left"])
        assert main(["closed-form", "no-such-family", "-n", "2"]) == 0
        with pytest.raises(SystemExit):
            main(["closed-form", "--help"])
        assert "no-such-family" in capsys.readouterr().out
        assert len(built) == 1
