"""Command line contract tests: parsing, exit codes, output documents."""

import argparse
import copy
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvequant import cli, scenarios
from curvequant import closed_form as cf
from curvequant.allocation import semicircle_allocate
from curvequant.cli import main
from curvequant.geometry import Arc, Point2, Segment, UniformCurveMeasure
from curvequant.render import render_svg
from curvequant.scenarios import exam2_problem, semicircle_problem
from curvequant.solver import FreePlane, Problem


def write_problem(tmp_path, problem, name="problem.json", solver=None):
    doc = {"schema_version": cli.SCHEMA_VERSION, **cli.problem_doc(problem)}
    if solver:
        doc["solver"] = solver
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def rebuilt_parser():
    """The parser takes its scenario choices from the registry when it is
    built, once per process: a test that changes the registry drops it
    before and after."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def closed_form_options() -> dict[str, argparse.Action]:
    """The `closed-form` options that a scenario's closed form may name, by
    name: all but -h and the required -n."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices["closed-form"]._actions
            if a.option_strings and not a.required and a.dest != "help"}


CLOSED_FORMS = {name: entry.closed_form for name, entry in scenarios.SCENARIOS.items()
                if entry.closed_form is not None}
# every scenario with every option its closed form does not name
UNNAMED = [(name, option) for name, closed_form in CLOSED_FORMS.items()
           for option in closed_form_options()
           if option not in inspect.signature(closed_form).parameters]


INTERVAL_LEFT_DOC = {
    "schema_version": 1,
    "measure": [{"type": "segment", "p0": [0.0, 0.0], "p1": [1.0, 0.0]}],
    "constraints": [{"type": "free"}],
    "beta": [[0.0, 0.0]],
    "n": 4,
    "solver": {"restarts": 6},
}
FAR_ARC = {"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0, "theta1": 3.0}


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
        "solver": {"restarts": 2, "rng_seed": 3, "max_iters": 50},
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

    def test_point_set_problem_round_trips(self):
        problem, _ = cli.parse_problem_doc(VALID_DOCS["semicircle-points"])
        doc = {"schema_version": cli.SCHEMA_VERSION, **cli.problem_doc(problem)}
        assert doc["constraints"][1] == {"type": "points", "points": [[0.0, 1.0], [0.5, 0.5]]}
        assert cli.parse_problem_doc(doc) == (problem, {})

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

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_tiny_cell_exits_zero(self, tmp_path, capsys, delta):
        # beta at (0, 0.1 (1 - delta)) keeps a cell of mass about delta
        # (test_solver.py derives it): small, but not empty
        problem = Problem(scenarios.interval_measure(), (FreePlane(),), 6,
                          beta=(Point2(0.0, 0.1 * (1.0 - delta)),))
        assert main(["solve", write_problem(tmp_path, problem)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate_points"] == [] and 0.0 < doc["masses"][0] < 2.0 * delta

    def test_iteration_cap_reports_not_converged(self, tmp_path, capsys):
        path = write_problem(tmp_path, semicircle_problem(8), solver={"max_iters": 1})
        assert main(["solve", path]) == 0
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_constrained_points_carry_parameters(self, tmp_path, capsys):
        path = write_problem(tmp_path, semicircle_problem(3), solver={"restarts": 4})
        assert main(["--seed", "42", "solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        constrained = [p for p in doc["points"] if p["kind"] == "constrained"]
        assert constrained and all("s" in p and "constraint" in p for p in constrained)

    # each overflows double precision somewhere in the solve: a constraint
    # set at 1e200 (no squared distance to it is finite), an arc whose
    # squared radius overflows or whose cell integrals do, and a support
    # whose squared length underflows. The command ends in its one error
    # line, with no NaN result and no numpy warning.
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
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "nan" not in captured.err.lower()

    def test_negative_arc_radius_is_one(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, measure=[dict(FAR_ARC, radius=-1.0)])))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.measure[0]: arc radius must be positive and finite\n"

    def test_far_members_over_an_arc_is_one(self, tmp_path, capsys):
        # members at (+-1e200, 0) over an arc: no squared distance to them
        # is finite, so neither is the distortion, as on a segment
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "schema_version": 1, "measure": [FAR_ARC], "n": 2,
            "constraints": [{"type": "points", "points": [[1e200, 0.0], [-1e200, 0.0]]}]}))
        assert main(["--restarts", "2", "solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the distortion or a cell mass is not finite: "
                                "the problem's coordinates overflow double precision\n")


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

    # every family with real-valued options, at options whose closed form
    # overflows (an OverflowError) or loses itself in inf - inf (a NaN error)
    @pytest.mark.parametrize("argv", [
        ["line-constraint", "-n", "3", "--m", "1e160", "--intercept", "0"],
        ["line-constraint", "-n", "3", "--m", "1e160", "--intercept", "1e300"],
        ["line-constraint", "-n", "2", "--a", "-1e200", "--b", "1e200",
         "--m", "0", "--intercept", "0"],
        ["line-constraint", "-n", "3", "--b", "10", "--m", "1e308", "--intercept", "0"],
        ["interval-left", "-n", "3", "--a", "-1e200", "--b", "1e200"],
        ["interval-right", "-n", "3", "--a", "-1e200", "--b", "1e200"],
        ["interval-interior", "-n", "3", "--a", "-1e200", "--b", "1e200"],
    ])
    def test_overflow_is_one_error_line(self, capsys, argv):
        assert main(["closed-form", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]}: the closed form overflows double precision\n"

    # a support of positive length has a positive distortion: 0.0 or a subnormal is underflow
    @pytest.mark.parametrize("argv", [
        ["interval-left", "-n", "3", "--a", "1e-300", "--b", "2e-300"],
        ["interval-right", "-n", "3", "--a", "1e-300", "--b", "2e-300"],
        ["interval-interior", "-n", "3", "--b", "1e-100", "--c", "0", "--d", "1e-110"],
        ["line-constraint", "-n", "3", "--b", "1e-300", "--m", "0", "--intercept", "0"],
        # (b - a)**2 / 75 = 1.33e-322 is subnormal: most of its digits are lost
        ["interval-left", "-n", "3", "--b", "1e-160"],
    ])
    def test_underflow_is_one_error_line(self, capsys, argv):
        assert main(["closed-form", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {argv[0]}: the closed form underflows double precision\n"

    @pytest.mark.parametrize("name, option", UNNAMED)
    def test_unnamed_option_is_one_error_line(self, capsys, name, option):
        assert main(["closed-form", name, "-n", "6", f"--{option}", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name}: does not take --{option}\n"

    def test_every_unnamed_option_is_listed(self, capsys):
        assert main(["closed-form", "triangle", "-n", "6", "--m", "9", "--a", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: triangle: does not take --a, --m\n"

    def test_every_named_option_is_a_parser_option(self):
        # so that no scenario can name an option the command line cannot pass
        options = closed_form_options()
        assert sorted(options) == ["a", "b", "c", "d", "intercept", "m", "n1"]
        for name, closed_form in CLOSED_FORMS.items():
            n, *named = inspect.signature(closed_form).parameters.values()
            assert n.name == "n", name
            assert all(p.kind is p.KEYWORD_ONLY for p in named), name
            assert {p.name for p in named} <= options.keys(), name

    @pytest.mark.parametrize("argv", [["interval-left", "-n", "3"],
                                      ["interval-interior", "-n", "4"]])
    def test_default_support_is_the_unit_interval(self, capsys, argv):
        assert main(["closed-form", *argv]) == 0
        default = capsys.readouterr().out
        assert main(["closed-form", *argv, "--a", "0", "--b", "1"]) == 0
        assert capsys.readouterr().out == default

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
        assert lines[0] == "n,error,alloc"
        assert lines[1] == f"3,{1.0 / 12.0!r},2+2+2"
        assert lines[4] == f"6,{1.0 / 48.0!r},3+3+3"

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
            n, err, alloc = line.split(",")
            assert alloc == ""
            want = cf.line_constraint_optimal(int(n), scen).error
            assert float(err) == pytest.approx(want, rel=1e-15)

    def test_stdout_target(self, capsys):
        assert main(["sweep", "exam1", "--from", "3", "--to", "8",
                     "--output", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,error,alloc"
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
        errors, _ = scenarios.SCENARIOS[scenario].sweep(np.arange(lo, 301))
        assert errors.tolist() == [configuration(n).error for n in range(lo, 301)]

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
                _, error, alloc = row.split(",")
                assert repr(doc["error"]) == error, f"{name} n={n}"
                assert "+".join(str(p) for p in doc.get("allocation", ())) == alloc

    def test_every_command_reads_the_registry(self, monkeypatch, capsys, rebuilt_parser):
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

    def test_reads_four_column_sweeps(self, tmp_path, capsys):
        # sweep CSVs once had a fourth column, wall_time_ms: such a file
        # still reads, to the same report
        three, four = tmp_path / "three.csv", tmp_path / "four.csv"
        assert main(["sweep", "exam1", "--from", "3", "--to", "200",
                     "--output", str(three)]) == 0
        header, *rows = three.read_text().splitlines()
        four.write_text("\n".join([header + ",wall_time_ms"] + [f"{row},0" for row in rows]) + "\n")
        reports = []
        for path in (three, four):
            assert main(["asymptotics", str(path), "--kappa", "2"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["tail_window"] > 0

    def test_too_few_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("n,error,alloc\n3,0.1,\n4,0.05,\n")
        assert main(["asymptotics", str(csv_path), "--kappa", "2"]) == 1
        assert "at least 6 rows" in capsys.readouterr().err

    def test_malformed_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "junk.csv"
        csv_path.write_text("hello\nworld\n")
        assert main(["asymptotics", str(csv_path), "--kappa", "2"]) == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, option, message", [
        (None, [], "{path}: No such file or directory"),
        ([f"{n},{1.0 / n!r}," for n in range(3, 9)] + ["9"], [], "{path}:8: malformed row"),
        ([f"{n},{1.0 / n!r}," for n in (3, 4, 5, 5, 6, 7)], [],
         "{path}: point counts must be strictly increasing"),
        ([f"{n},1.0," for n in range(3, 15)], ["--v-infinity", "0"],
         "no decaying pairs in the tail window"),
        # of two faulty rows the earlier one is reported, whatever its kind
        ([f"{n},{1.0 / n!r}," for n in range(3, 9)] + ["9", "10,oops,"], [],
         "{path}:8: malformed row"),
        ([f"{n},{1.0 / n!r}," for n in range(3, 9)] + ["9,oops,", "10"], [],
         "{path}:8: could not convert string to float: 'oops'"),
        ([f"{n},{1.0 / n!r}," for n in range(3, 9)] + ["10001,1e-6,", "x,1e-7,"], [],
         "{path}:8: 10001 exceeds the limit of 10000"),
        ([f"{n},{1.0 / n!r}," for n in range(3, 9)] + ["x,1e-6,", "10001,1e-7,"], [],
         "{path}:8: invalid literal for int() with base 10: 'x'"),
    ], ids=["missing", "one-field-row", "repeated-n", "constant-above-limit",
            "short-row-before-bad-float", "bad-float-before-short-row",
            "over-limit-n-before-bad-int", "bad-int-before-over-limit-n"])
    def test_unusable_sweep_is_one(self, tmp_path, capsys, rows, option, message):
        csv_path = tmp_path / "sweep.csv"
        if rows is not None:
            csv_path.write_text("n,error,alloc\n" + "".join(f"{row}\n" for row in rows))
        assert main(["asymptotics", str(csv_path), "--kappa", "1", *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(path=csv_path) + "\n"

    def test_point_count_over_limit_is_one(self, tmp_path, capsys):
        # sweep never writes n above LIMITS["n"]; a larger one is an input error
        for n in (10_001, 10 ** 306, 10 ** 400):
            csv_path = tmp_path / "huge.csv"
            rows = [(k, 1.0 / k) for k in range(3, 9)] + [(n, 1e-6)]
            csv_path.write_text("n,error,alloc\n" + "".join(f"{k},{v!r},\n" for k, v in rows))
            assert main(["asymptotics", str(csv_path), "--kappa", "2"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {csv_path}:8: ")
            assert captured.err.endswith(" exceeds the limit of 10000\n")

    def test_row_numbers_count_nonblank_lines(self, tmp_path, capsys):
        # blank and whitespace-only lines are skipped and not counted; a
        # row's number is its place among the other lines, the header being
        # line 1. CRLF line ends read as LF ones.
        rows = [f"{k},{1.0 / k!r}," for k in range(3, 9)]
        plain = tmp_path / "plain.csv"
        plain.write_bytes("".join(f"{row}\n" for row in ["n,error,alloc", *rows]).encode())
        assert main(["asymptotics", str(plain), "--kappa", "2"]) == 0
        report = capsys.readouterr().out
        for newline in ("\n", "\r\n"):
            gaps = tmp_path / "gaps.csv"
            lines = ["", " n,error,alloc ", "", *(f"{row}{newline} \t " for row in rows), "  "]
            gaps.write_bytes(newline.join(lines).encode())
            assert main(["asymptotics", str(gaps), "--kappa", "2"]) == 0
            assert capsys.readouterr().out == report
            with open(gaps, "ab") as fh:
                fh.write(f"{newline}9,oops,{newline}".encode())
            assert main(["asymptotics", str(gaps), "--kappa", "2"]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {gaps}:8: could not convert string to float: 'oops'\n"

    def test_steep_rounding_level_tail(self, tmp_path, capsys):
        # the last three differences sit at rounding level and fit s = 29.49
        rows = [(2550 + 16 * k, 0.2041522931908706 + 1e-4 * (6 - k)) for k in range(6)]
        rows += [(2646, 0.2041522931908706), (2662, 0.20415229319086498),
                 (2678, 0.20415229319086028)]
        csv_path = tmp_path / "steep.csv"
        csv_path.write_text("n,error,alloc\n" + "".join(f"{n},{v!r},\n" for n, v in rows))
        assert main(["asymptotics", str(csv_path), "--kappa", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(doc[key]) for key in ("v_infinity", "dim_lower", "dim_upper",
                                                       "coeff_lower", "coeff_upper"))

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

    # nan, inf, and a kappa so small that n**(2/kappa) overflows at n = 60
    @pytest.mark.parametrize("kappa", ["nan", "inf", "0.01"])
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

    @pytest.mark.parametrize("k", [2.0 ** 20, 1e-12])
    def test_drawing_fits_any_scale(self, k):
        # the longer side is 400 px, the shorter one in proportion
        measure = UniformCurveMeasure((Segment(Point2(-k, 0.0), Point2(k, 0.0)),
                                       Arc(Point2(0.0, 0.0), k, 0.0, math.pi)))
        points = [("beta", Point2(-k, 0.0)), ("beta", Point2(k, 0.0)),
                  ("constrained", Point2(0.0, k)), ("constrained", Point2(k / 4, 0.0))]
        svg = render_svg(measure, points)
        width, height = map(float, re.search(r'width="([^"]+)" height="([^"]+)"', svg).groups())
        assert width == 440.0 and height == 240.0
        pixels = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="4.00"', svg)
        assert len(set(pixels)) == len(points)

    def test_full_circle_draws_two_arcs(self):
        # an arc longer than pi is drawn as two A commands, so that no A
        # command starts where it ends; the path closes on its start
        circle = Arc(Point2(0.0, 0.0), 1.0, 0.0, 2.0 * math.pi)
        svg = render_svg(UniformCurveMeasure((circle,)), [("constrained", Point2(1.0, 0.0))])
        (d,) = re.findall(r'<path d="([^"]+)"', svg)
        start = re.fullmatch(r"M (\S+) (\S+)", d.split(" A ")[0]).groups()
        arcs = re.findall(r"A \S+ \S+ 0 0 0 (\S+) (\S+)", d)
        assert len(arcs) == d.count("A ") == 2
        assert arcs[0] != start and arcs[1] == start

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

    @pytest.mark.parametrize("measure, kind, message", [
        ([], "free", "result document lacks a measure"),
        (INTERVAL_LEFT_DOC["measure"], "weird", "points[0]: unknown point kind 'weird'"),
        ([{"type": "spiral"}], "free", "problem.measure[0]: unknown curve type 'spiral'"),
    ], ids=["no-measure", "unknown-kind", "unknown-curve"])
    def test_error_names_the_file(self, tmp_path, capsys, measure, kind, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"measure": measure},
                                    "points": [{"kind": kind, "x": 0.5, "y": 0.0}]}))
        assert main(["render", str(path), "--output", str(tmp_path / "x.svg")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: {message}\n"

    def test_overflowing_drawing_is_one(self, tmp_path, capsys):
        # points 2e308 apart: the drawing's width overflows
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "problem": {"measure": INTERVAL_LEFT_DOC["measure"]},
            "points": [{"kind": "free", "x": x, "y": 0.0} for x in (1e308, -1e308)]}))
        svg = tmp_path / "far.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["render", str(path), "--output", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: the drawing's extent overflows double precision\n"
        assert not svg.exists()

    @pytest.mark.parametrize("curve", [FAR_ARC, INTERVAL_LEFT_DOC["measure"][0]],
                             ids=["arc", "segment"])
    def test_far_points_over_a_curve_is_one(self, tmp_path, capsys, curve):
        # points at (+-1e200, 0): the drawing's extent is finite, its square
        # and the squared distances the breakpoints compare are not; over a
        # segment too, which rendered before the check was made
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "problem": {"measure": [curve]},
            "points": [{"kind": "free", "x": x, "y": 0.0} for x in (1e200, -1e200)]}))
        svg = tmp_path / "far.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["render", str(path), "--output", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: the squared distances across the drawing overflow double precision\n"
        assert not svg.exists()


class TestVerifyCommand:
    def test_small_gallery_slice_passes(self, capsys):
        code = main(["--restarts", "6", "verify", "--scenario", "interval-left",
                     "--max-n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out
        assert "interval-left n=3" in out

    def test_default_tolerance_flags_a_gap_of_1e_9(self, capsys, monkeypatch):
        # references 1e-9 above what the solver attains: a miss by default,
        # within an explicit --tolerance 1e-6
        distortion = cli.distortion
        monkeypatch.setattr(cli, "distortion",
                            lambda measure, sites: distortion(measure, sites) * (1.0 + 1e-9))
        argv = ["--restarts", "6", "verify", "--scenario", "interval-left", "--max-n", "3"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.count("MISMATCH") == 3
        assert out.endswith("verify: 3 mismatch(es) above rel 1e-12\n")
        assert main(argv + ["--tolerance", "1e-6"]) == 0
        assert capsys.readouterr().out.endswith("verify: 0 mismatch(es) above rel 1e-06\n")

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
        ({"param_tol": 1e-10}, "solver: unknown field 'param_tol'"),
    ])
    def test_invalid_solver_field_is_one(self, tmp_path, capsys, solver, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, solver=solver)))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.{message}\n"

    @pytest.mark.parametrize("points", [[], "x"])
    def test_empty_or_non_list_points_is_one(self, tmp_path, capsys, points):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(dict(
            INTERVAL_LEFT_DOC, constraints=[{"type": "points", "points": points}])))
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.constraints[0].points: expected a nonempty list\n"

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

    @pytest.mark.parametrize("n, shown", [
        (10**19, str(10**19)), (10**20, "a 21-digit n"), (10**400, "a 401-digit n")])
    def test_over_limit_line_stays_short(self, tmp_path, capsys, n, shown):
        # a number longer than 20 digits is named by its digit count
        csv_path = tmp_path / "huge.csv"
        rows = [(k, 1.0 / k) for k in range(3, 9)] + [(n, 1e-6)]
        csv_path.write_text("n,error,alloc\n" + "".join(f"{k},{v!r},\n" for k, v in rows))
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(dict(INTERVAL_LEFT_DOC, n=n)))
        for argv, where in (
                (["asymptotics", str(csv_path), "--kappa", "1"], f"{csv_path}:8"),
                (["closed-form", "interval-left", "-n", str(n)], "-n"),
                (["sweep", "exam1", "--from", "3", "--to", str(n), "--output", "-"], "--to"),
                (["solve", str(problem)], f"{problem}.n")):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {where}: {shown} exceeds the limit of 10000\n"

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
    def test_built_once(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["closed-form", "interval-left", "-n", "2"]) == 0
        assert main(["closed-form", "no-such-family", "-n", "2"]) == 1
        assert "invalid choice: 'no-such-family'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["closed-form", "--help"])
        assert "interval-left" in capsys.readouterr().out
        assert len(built) == 1
