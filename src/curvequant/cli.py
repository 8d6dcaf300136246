"""Command line front end.

Subcommands: solve (problem JSON -> result JSON), closed-form (named
scenario -> points/error), sweep (closed-form error sequences as CSV),
asymptotics (CSV -> limit report), render (result JSON -> SVG), verify
(solver vs closed-form gallery).

Exit codes: 0 success, 1 any error, 2 solve detected a degenerate
(zero-mass) point.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict, replace

from curvequant import scenarios
from curvequant.asymptotics import ErrorSequence, build_report
from curvequant.geometry import Arc, Point2, Segment, UniformCurveMeasure, distortion
from curvequant.render import render_svg
from curvequant.solver import (
    CurveConstraint,
    FreePlane,
    PointSetConstraint,
    Problem,
    Quantizer,
    SolverOptions,
    solve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2

SCHEMA_VERSION = 1

# Largest accepted point count and solver settings (problem file and
# --restarts): beyond them a solve would not end in any useful time.
LIMITS = {"n": 10_000, "restarts": 1_000, "max_iters": 1_000_000}


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# problem/result documents


def _check_fields(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise CliError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise CliError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise CliError(f"{where}: missing field {key!r}")


def _number(value, where: str) -> float:
    # JSON true/false load as bool, a subclass of int: not numbers here
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise CliError(f"{where}: expected a finite number")


def _integer(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CliError(f"{where}: expected an integer")


def _limited(value: int, key: str, where: str) -> int:
    limit = LIMITS.get(key)
    if limit is not None and value > limit:
        raise CliError(f"{where}: {value} exceeds the limit of {limit}")
    return value


def _parse_xy(obj, where: str) -> Point2:
    if not isinstance(obj, list) or len(obj) != 2:
        raise CliError(f"{where}: expected [x, y]")
    return Point2(_number(obj[0], f"{where}[0]"), _number(obj[1], f"{where}[1]"))


def _parse_curve(obj, where: str):
    _check_fields(obj, where, {"type"}, {"p0", "p1", "center", "radius", "theta0", "theta1"})
    kind = obj["type"]
    try:
        if kind == "segment":
            _check_fields(obj, where, {"type", "p0", "p1"})
            return Segment(_parse_xy(obj["p0"], f"{where}.p0"),
                           _parse_xy(obj["p1"], f"{where}.p1"))
        if kind == "arc":
            _check_fields(obj, where, {"type", "center", "radius", "theta0", "theta1"})
            return Arc(_parse_xy(obj["center"], f"{where}.center"),
                       *(_number(obj[key], f"{where}.{key}")
                         for key in ("radius", "theta0", "theta1")))
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    raise CliError(f"{where}: unknown curve type {kind!r}")


def _parse_constraint(obj, where: str):
    _check_fields(obj, where, {"type"}, {"curve", "points"})
    kind = obj["type"]
    if kind == "free":
        _check_fields(obj, where, {"type"})
        return FreePlane()
    if kind == "curve":
        _check_fields(obj, where, {"type", "curve"})
        return CurveConstraint(_parse_curve(obj["curve"], f"{where}.curve"))
    if kind == "points":
        _check_fields(obj, where, {"type", "points"})
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise CliError(f"{where}.points: expected a nonempty list")
        return PointSetConstraint(tuple(
            _parse_xy(p, f"{where}.points[{i}]") for i, p in enumerate(pts)))
    raise CliError(f"{where}: unknown constraint type {kind!r}")


def parse_problem_doc(doc, where: str = "problem") -> tuple[Problem, dict]:
    _check_fields(doc, where, {"schema_version", "measure", "constraints", "n"},
                  {"beta", "solver"})
    if _integer(doc["schema_version"], f"{where}.schema_version") != SCHEMA_VERSION:
        raise CliError(f"{where}: unsupported schema_version {doc['schema_version']!r}")
    if not isinstance(doc["measure"], list) or not doc["measure"]:
        raise CliError(f"{where}.measure: expected a nonempty list of curves")
    curves = tuple(_parse_curve(c, f"{where}.measure[{i}]")
                   for i, c in enumerate(doc["measure"]))
    if not isinstance(doc["constraints"], list) or not doc["constraints"]:
        raise CliError(f"{where}.constraints: expected a nonempty list")
    constraints = tuple(_parse_constraint(c, f"{where}.constraints[{i}]")
                        for i, c in enumerate(doc["constraints"]))
    if not isinstance(doc.get("beta", []), list):
        raise CliError(f"{where}.beta: expected a list of [x, y] points")
    beta = tuple(_parse_xy(b, f"{where}.beta[{i}]")
                 for i, b in enumerate(doc.get("beta", [])))
    n = _limited(_integer(doc["n"], f"{where}.n"), "n", f"{where}.n")
    solver_over = doc.get("solver", {})
    _check_fields(solver_over, f"{where}.solver", set(),
                  {"restarts", "rng_seed", "param_tol", "max_iters"})
    overrides = {}
    for key, value in solver_over.items():
        field = f"{where}.solver.{key}"
        if key == "param_tol":
            overrides[key] = _number(value, field)
        else:
            overrides[key] = _limited(_integer(value, field), key, field)
        _options(SolverOptions(), field, **{key: overrides[key]})
    try:
        problem = Problem(UniformCurveMeasure(curves), constraints, n, beta=beta)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc
    return problem, overrides


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc


def load_problem_file(path: str) -> tuple[Problem, dict]:
    return parse_problem_doc(_load_json(path), where=path)


def _curve_doc(curve) -> dict:
    if isinstance(curve, Segment):
        return {"type": "segment", "p0": [curve.p0.x, curve.p0.y],
                "p1": [curve.p1.x, curve.p1.y]}
    return {"type": "arc", "center": [curve.center.x, curve.center.y],
            "radius": curve.radius, "theta0": curve.theta0, "theta1": curve.theta1}


def _constraint_doc(cons) -> dict:
    if isinstance(cons, FreePlane):
        return {"type": "free"}
    if isinstance(cons, CurveConstraint):
        return {"type": "curve", "curve": _curve_doc(cons.curve)}
    return {"type": "points", "points": [[p.x, p.y] for p in cons.points]}


def problem_doc(problem: Problem) -> dict:
    return {
        "measure": [_curve_doc(c) for c in problem.measure.curves],
        "constraints": [_constraint_doc(c) for c in problem.constraints],
        "beta": [[p.x, p.y] for p in problem.beta],
        "n": problem.n,
    }


def result_doc(problem: Problem, quantizer: Quantizer) -> dict:
    points = []
    for tp in quantizer.points:
        entry = {"kind": tp.kind, "x": tp.point.x, "y": tp.point.y}
        if tp.kind == "constrained":
            entry["constraint"] = tp.constraint_index
            entry["s"] = tp.s
        points.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": problem_doc(problem),
        "points": points,
        "distortion": quantizer.distortion,
        "masses": list(quantizer.masses),
        "converged": quantizer.converged,
        "degenerate_points": list(quantizer.degenerate_points),
    }


def _emit(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _options(opts: SolverOptions, where: str, **change) -> SolverOptions:
    try:
        return replace(opts, **change)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc


def _solver_options(args, file_overrides: dict | None = None) -> SolverOptions:
    opts = SolverOptions()
    if file_overrides:
        opts = replace(opts, **file_overrides)
    if args.seed is not None:
        opts = _options(opts, "--seed", rng_seed=args.seed)
    if args.restarts is not None:
        opts = _options(opts, "--restarts",
                        restarts=_limited(args.restarts, "restarts", "--restarts"))
    return opts


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    problem, overrides = load_problem_file(args.problem)
    quantizer = solve(problem, _solver_options(args, overrides))
    _emit(result_doc(problem, quantizer), sys.stdout)
    return EXIT_DEGENERATE if quantizer.degenerate_points else EXIT_OK


def _names(field: str) -> list[str]:
    """Registry names, in registry order, whose entries have `field`."""
    return [name for name, entry in scenarios.SCENARIOS.items()
            if getattr(entry, field) is not None]


class _Names:
    """The `choices` of a scenario argument: `_names(field)`, read from the
    registry whenever the parser checks a value or writes help, so that a
    parser built once sees the registry as it is at each call."""

    def __init__(self, field: str):
        self.field = field

    def __iter__(self):
        return iter(_names(self.field))

    def __contains__(self, name) -> bool:
        return name in _names(self.field)


def cmd_closed_form(args) -> int:
    n = _limited(args.n, "n", "-n")
    result = scenarios.SCENARIOS[args.scenario].closed_form(
        n, a=args.a, b=args.b, c=args.c, d=args.d, m=args.m,
        intercept=args.intercept, n1=args.n1)
    doc = {
        "scenario": args.scenario,
        "n": n,
        "points": [[p.x, p.y] for p in result.points],
        "error": result.error,
    }
    if result.allocation is not None:
        doc["allocation"] = list(result.allocation)
    _emit(doc, sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n_from > args.n_to:
        raise CliError("--from must not exceed --to")
    row = scenarios.SCENARIOS[args.scenario].sweep
    rows = []
    for n in range(args.n_from, _limited(args.n_to, "n", "--to") + 1):
        t0 = time.perf_counter()
        error, alloc = row(n)
        wall = int(round((time.perf_counter() - t0) * 1000.0)) if args.timings else 0
        rows.append(f"{n},{error!r},{alloc},{wall}")
    text = "n,error,alloc,wall_time_ms\n" + "\n".join(rows) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _read_sweep_csv(path: str) -> ErrorSequence:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from exc
    if not lines or not lines[0].startswith("n,error"):
        raise CliError(f"{path}: expected a sweep CSV with header 'n,error,...'")
    entries = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) < 2:
            raise CliError(f"{path}:{i}: malformed row")
        try:
            entries.append((int(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise CliError(f"{path}:{i}: {exc}") from exc
    if len(entries) < 6:
        raise CliError(f"{path}: need at least 6 rows, found {len(entries)}")
    try:
        return ErrorSequence(tuple(entries))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_asymptotics(args) -> int:
    seq = _read_sweep_csv(args.input)
    report = build_report(seq, kappa=args.kappa, v_infinity=args.v_infinity,
                          tail_window=args.tail_window)
    _emit(asdict(report), sys.stdout)
    return EXIT_OK


def cmd_render(args) -> int:
    doc = _load_json(args.result)
    if not isinstance(doc, dict) or "problem" not in doc or "points" not in doc:
        raise CliError(f"{args.result}: not a result document")
    _check_fields(doc["problem"], f"{args.result}: problem", {"measure"},
                  {"constraints", "beta", "n"})
    measure_doc = doc["problem"]["measure"]
    if not isinstance(measure_doc, list) or not measure_doc:
        raise CliError(f"{args.result}: result document lacks a measure")
    curves = tuple(_parse_curve(c, f"measure[{i}]") for i, c in enumerate(measure_doc))
    if not isinstance(doc["points"], list):
        raise CliError(f"{args.result}: points: expected a list")
    points = []
    for i, entry in enumerate(doc["points"]):
        where = f"{args.result}: points[{i}]"
        _check_fields(entry, where, {"kind", "x", "y"}, {"constraint", "s"})
        if entry["kind"] not in ("beta", "constrained", "free"):
            raise CliError(f"{where}: unknown point kind {entry['kind']!r}")
        points.append((entry["kind"], Point2(_number(entry["x"], f"{where}.x"),
                                             _number(entry["y"], f"{where}.y"))))
    svg = render_svg(UniformCurveMeasure(curves), points)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = args.tolerance
    if not 0.0 <= tol < math.inf:
        raise CliError(f"--tolerance: expected a finite number >= 0, got {tol!r}")
    gallery = _names("build")
    names = [args.scenario] if args.scenario else sorted(gallery)
    failures = checked = 0
    for name in names:
        if name not in gallery:
            raise CliError(f"unknown scenario {name!r}")
        entry = scenarios.SCENARIOS[name]
        lo, hi = entry.n_range
        hi = min(hi, args.max_n) if args.max_n is not None else hi
        for n in range(lo, hi + 1):
            problem = entry.build(n)
            reference = distortion(problem.measure, list(entry.config(n)))
            quantizer = solve(problem, _solver_options(args))
            rel = abs(quantizer.distortion - reference) / abs(reference)
            ok = rel <= tol
            failures += 0 if ok else 1
            checked += 1
            status = "ok" if ok else "MISMATCH"
            print(f"{name} n={n}: solver={quantizer.distortion!r} "
                  f"closed_form={reference!r} rel={rel:.3e} {status}")
    if not checked:
        first = min(scenarios.SCENARIOS[name].n_range[0] for name in names)
        raise CliError(f"--max-n: {args.max_n} leaves no instance to check "
                       f"(the smallest n is {first})")
    print(f"verify: {failures} mismatch(es) above rel {tol!r}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser


# argparse takes "-1e-3" for an option, as its own negative-number pattern
# (the private ArgumentParser._negative_number_matcher) has no exponent;
# this one reads a negative decimal literal, exponent form included, as a
# value. Words such as -inf stay options: pass them as --tolerance=-inf.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvequant",
                     description="Optimal quantization on unions of plane curves.")
    parser.add_argument("--seed", type=int, default=None,
                        help="solver RNG seed (default 42)")
    parser.add_argument("--restarts", type=int, default=None,
                        help="solver restart count (default 16)")
    parser.add_argument("--tail-window", type=int, default=None,
                        help="tail window size for asymptotics estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem", help="problem JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("closed-form", help="closed-form configuration for a scenario")
    p.add_argument("scenario", choices=_Names("closed_form"))
    p.add_argument("-n", type=int, required=True, help="point count")
    p.add_argument("--a", type=float, default=0.0, help="support left endpoint")
    p.add_argument("--b", type=float, default=1.0, help="support right endpoint")
    p.add_argument("--c", type=float, default=None, help="subinterval left endpoint")
    p.add_argument("--d", type=float, default=None, help="subinterval right endpoint")
    p.add_argument("--m", type=float, default=None, help="constraint line slope")
    p.add_argument("--intercept", type=float, default=None, help="constraint line intercept")
    p.add_argument("--n1", type=int, default=None, help="force the semicircle base count")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("sweep", help="closed-form error sequence as CSV")
    p.add_argument("scenario", choices=_Names("sweep"))
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    p.add_argument("--output", required=True, help="CSV path, or - for stdout")
    p.add_argument("--timings", action="store_true",
                   help="record wall times instead of zeros")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("asymptotics", help="limit estimates from a sweep CSV")
    p.add_argument("input", help="sweep CSV path")
    p.add_argument("--kappa", type=float, required=True,
                   help="coefficient dimension parameter")
    p.add_argument("--v-infinity", type=float, default=None,
                   help="known limit value override")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("render", help="render a result document to SVG")
    p.add_argument("result", help="result JSON path")
    p.add_argument("--output", required=True, help="SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="compare solver against closed forms")
    p.add_argument("--scenario", default=None, help="restrict to one gallery scenario")
    p.add_argument("--max-n", type=int, default=None, help="cap the per-scenario range")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
