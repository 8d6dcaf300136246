"""Write the command line's output for a fixed list of invocations.

    python3 tools/cli_snapshot.py OUTDIR

Runs `curvequant.cli.main` in-process (from the `src` next to this script)
over every argv that `_cases` lists and writes one file per argv to OUTDIR: the argv,
the exit code (or the exception that escaped `main`), stdout, stderr, the
warnings raised (category and message, no source location) and, for a
`solve` that returns a result, the SVG that `render` draws of it. Run the
same script in two checkouts and compare with `diff -r` to see exactly
which outputs a change moves. Inputs (the sweep CSVs of SWEEPS and CSVS and
the problem files of PROBLEMS, written first) and outputs are relative to
a temporary working directory, so no path of the machine shows in the
snapshot. A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from curvequant.cli import main  # noqa: E402
from curvequant.scenarios import SCENARIOS  # noqa: E402

CLOSED_FORM_NAMES = ("interval-left", "interval-right", "interval-interior",
                     "line-constraint", "semicircle", "triangle", "exam1")
SWEEP_NAMES = ("triangle", "semicircle", "exam1", "exam2",
               "interval-left", "interval-right", "interval-interior")
# each sweep family's smallest n
SWEEP_LOWEST = {"triangle": 3, "semicircle": 3, "exam1": 3, "exam2": 1,
                "interval-left": 1, "interval-right": 1, "interval-interior": 2}
SUBCOMMANDS = ("solve", "closed-form", "sweep", "asymptotics", "render", "verify")


def _segment(p0, p1) -> dict:
    return {"type": "segment", "p0": p0, "p1": p1}


_CIRCLE = {"type": "arc", "center": [0, 0], "radius": 1, "theta0": 0, "theta1": 2 * math.pi}
_TRIANGLE = [_segment([0, 0], [1, 0]), _segment([1, 0], [0.5, math.sqrt(3) / 2]),
             _segment([0.5, math.sqrt(3) / 2], [0, 0])]
# problem files that `solve` cases read: a full circle (a singular Hessian
# at the optimum), point-set members (the nearest-member rounds) and the
# triangle with its vertices as beta
PROBLEMS = {
    "circle.json": {"measure": [_CIRCLE], "constraints": [{"type": "curve", "curve": _CIRCLE}],
                    "n": 5},
    "members.json": {"measure": [_segment([0, 0], [1, 0])],
                     "constraints": [{"type": "points",
                                      "points": [[k / 8, 0.05 * (-1) ** k] for k in range(9)]}],
                     "beta": [[0, 0]], "n": 4},
    "triangle.json": {"measure": _TRIANGLE,
                      "constraints": [{"type": "curve", "curve": c} for c in _TRIANGLE],
                      "beta": [c["p0"] for c in _TRIANGLE], "n": 6},
}
_UNIT = [_segment([0, 0], [1, 0])]
# problem files whose numbers overflow double precision in the solve: a
# constraint set at 1e200, an arc whose squared radius overflows and one
# whose cell integrals do, and a support whose squared length underflows
OVERFLOWS = {
    "far_member.json": {"measure": _UNIT, "constraints": [{"type": "points",
                                                           "points": [[1e200, 0]]}], "n": 1},
    "far_curve.json": {"measure": _UNIT, "n": 1, "constraints": [
        {"type": "curve", "curve": _segment([1e200, 0], [1e200, 1])}]},
    "huge_arc.json": {"measure": _UNIT, "n": 1, "constraints": [
        {"type": "curve", "curve": {"type": "arc", "center": [0, 0], "radius": 1.4e154,
                                    "theta0": 0, "theta1": 1e-150}}]},
    "big_arc.json": {"measure": _UNIT, "n": 1, "constraints": [
        {"type": "curve", "curve": {"type": "arc", "center": [0, 0], "radius": 1.3e154,
                                    "theta0": 0, "theta1": 1e-150}}]},
    "tiny_support.json": {"measure": [_segment([0, 0], [5e-309, 0])],
                          "constraints": [{"type": "free"}], "n": 1},
}
# the constraint set of far_member.json at 1e100: its distortion, about
# 1e200, is finite, though a difference of the cubes of the site's offsets
# along the support cancels to 0. It is solved last, so that no earlier
# file's number moves.
FAR_MEMBER = {"far_member_1e100.json": {"measure": _UNIT, "n": 1, "constraints": [
    {"type": "points", "points": [[1e100, 0]]}]}}
# problem files on short supports: 1e-12 long, so that every cell is
# shorter than 1e-12, and 1e-200 long, so that its squared length underflows
TINY = {f"support_{length:g}.json": {"measure": [_segment([0, 0], [length, 0])],
                                     "constraints": [{"type": "free"}], "n": 3}
        for length in (1e-12, 1e-200)}
# a problem whose beta keeps a cell of mass about 1e-5, small but not empty,
# and a result document whose points lie 2e308 apart, so that the drawing's
# width overflows
EDGES = {
    "tiny_cell.json": {"measure": _UNIT, "constraints": [{"type": "free"}],
                       "beta": [[0, 0.1 * (1 - 1e-5)]], "n": 6},
    "far_points.json": {"problem": {"measure": _UNIT},
                        "points": [{"kind": "free", "x": x, "y": 0} for x in (1e308, -1e308)]},
}
# point-set members and free points at (+-1e200, 0) over an arc: no squared
# distance from the arc to them is finite
_ARC = {"type": "arc", "center": [0, 0], "radius": 1, "theta0": 0, "theta1": 3}
_FAR = [[1e200, 0], [-1e200, 0]]
FAR_ARC = {
    "far_arc_members.json": {"measure": [_ARC], "n": 2,
                             "constraints": [{"type": "points", "points": _FAR}]},
    "far_arc_points.json": {"problem": {"measure": [_ARC]},
                            "points": [{"kind": "free", "x": x, "y": y} for x, y in _FAR]},
}
# point-set problems: 200 members with beta, and two members at the same
# distance from the one cell mean, whose re-descent ties the first; and a
# solve over an arc wider than pi that is no full circle, drawn in two pieces
_WIDE_ARC = {"type": "arc", "center": [0, 0], "radius": 1, "theta0": 0, "theta1": 4.5}
MEMBERS = {
    "members200.json": {"measure": _UNIT, "beta": [[0, 0]], "n": 6,
                        "constraints": [{"type": "points",
                                         "points": [[k / 199, 0.05 * (-1) ** k]
                                                    for k in range(200)]}]},
    "tie.json": {"measure": _UNIT, "n": 1,
                 "constraints": [{"type": "points", "points": [[0.25, 0], [0.75, 0]]}]},
    "wide_arc.json": {"measure": [_WIDE_ARC], "n": 5,
                      "constraints": [{"type": "curve", "curve": _WIDE_ARC}]},
}
# sweep CSVs that `asymptotics` cases read, as (name, from, to): exam1 and
# every other criterion-4 family, and the README's semicircle example
SWEEPS = [("exam1", 3, 200), ("triangle", 3, 1500), ("exam2", 3, 1500),
          ("interval-interior", 3, 1500), ("semicircle", 3, 300)]


def _csv(rows) -> str:
    return "n,error,alloc\n" + "".join(f"{n},{v!r},\n" for n, v in rows)


# hand-written sweep CSVs: a point count over the limit, a tail whose
# last three differences sit at rounding level (a steep fit, s = 29.49), two
# faulty rows (a short row, then a bad float), and CRLF line ends with
# whitespace-only lines between the rows
CSVS = {"huge_n.csv": _csv([(n, 1.0 / n) for n in range(3, 9)] + [(10 ** 400, 1e-6)]),
        "steep.csv": _csv([(2550 + 16 * k, 0.2041522931908706 + 1e-4 * (6 - k))
                           for k in range(6)]
                          + [(2646, 0.2041522931908706), (2662, 0.20415229319086498),
                             (2678, 0.20415229319086028)]),
        "two_faults.csv": _csv([(n, 1.0 / n) for n in range(3, 9)]) + "9\n10,oops,\n",
        "crlf.csv": _csv([(n, 1.0 / n + 0.25) for n in range(3, 41)]).replace("\n", "\r\n \t\r\n")}


def _cases() -> list[list[str]]:
    cases = [["closed-form", name, "-n", str(n)]
             for name in CLOSED_FORM_NAMES for n in (1, 2, 3, 4, 5, 6, 12, 40)]
    cases += [
        ["closed-form", "semicircle", "-n", "5", "--n1", "3"],
        ["closed-form", "semicircle", "-n", "7", "--n1", "2"],
        ["closed-form", "semicircle", "-n", "5", "--n1", "1"],
        ["closed-form", "interval-left", "-n", "4", "--a", "-1", "--b", "2"],
        ["closed-form", "interval-right", "-n", "4", "--a", "-1", "--b", "2"],
        ["closed-form", "interval-interior", "-n", "4", "--a", "0", "--b", "2",
         "--c", "0.5", "--d", "1.5"],
        ["closed-form", "interval-interior", "-n", "5", "--c", "0.25"],
        ["closed-form", "interval-interior", "-n", "5", "--a", "1", "--b", "0"],
        ["closed-form", "line-constraint", "-n", "4", "--m", "0.25", "--intercept", "0.25"],
        ["closed-form", "line-constraint", "-n", "6", "--m", "1", "--intercept", "4"],
        ["closed-form", "line-constraint", "-n", "3", "--a", "-1", "--b", "1",
         "--m", "-2", "--intercept", "0.5"],
        ["closed-form", "line-constraint", "-n", "4", "--m", "0.25"],
    ]
    cases += [["sweep", name, "--from", "3", "--to", "1500", "--output", "-"]
              for name in SWEEP_NAMES]
    cases.append(["sweep", "exam2", "--from", "2", "--to", "1500", "--output", "-"])
    cases.append(["--seed", "42", "verify"])
    cases.append(["--help"])
    cases += [[command, "--help"] for command in SUBCOMMANDS]
    # errors: unknown names, domain and range errors, limits, bad floats
    cases += [
        ["closed-form", "exam2", "-n", "4"],
        ["closed-form", "interval-left", "-n", "0"],
        ["closed-form", "interval-left", "-n", "10000"],
        ["closed-form", "interval-left", "-n", "10001"],
        ["sweep", "line-steep", "--from", "3", "--to", "5", "--output", "-"],
        ["sweep", "exam1", "--from", "2", "--to", "5", "--output", "-"],
        ["sweep", "exam1", "--from", "9", "--to", "3", "--output", "-"],
        ["sweep", "exam1", "--from", "9990", "--to", "10000", "--output", "-"],
        ["sweep", "interval-left", "--from", "3", "--to", "10001", "--output", "-"],
        ["sweep", "triangle", "--from", "20000", "--to", "10001", "--output", "-"],
        ["asymptotics", "exam1.csv", "--kappa", "2"],
        ["asymptotics", "exam1.csv", "--kappa", "0"],
        ["asymptotics", "exam1.csv", "--kappa", "-1"],
        ["asymptotics", "exam1.csv", "--kappa", "nan"],
        ["asymptotics", "exam1.csv", "--kappa", "inf"],
        ["asymptotics", "missing.csv", "--kappa", "2"],
        ["verify", "--scenario", "exam2"],
        ["--seed", "7", "verify", "--scenario", "interval-left", "--max-n", "3"],
        ["verify", "--scenario", "interval-left", "--max-n", "3", "--tolerance", "0"],
        ["verify", "--scenario", "interval-left", "--max-n", "3", "--tolerance", "nan"],
        ["verify", "--scenario", "interval-left", "--max-n", "3", "--tolerance", "inf"],
        ["verify", "--scenario", "interval-left", "--max-n", "3", "--tolerance=-1e-6"],
        ["verify", "--scenario", "interval-left", "--max-n", "3", "--tolerance", "-1e-6"],
        ["verify", "--scenario", "triangle", "--max-n", "2"],
        ["asymptotics", "exam1.csv", "--kappa", "-1e-3"],
        ["closed-form", "interval-left", "-n", "3", "--a", "-1e-3"],
    ]
    cases += [["--restarts", "4", "solve", name] for name in PROBLEMS]
    cases += [
        ["asymptotics", "triangle.csv", "--kappa", "1"],
        ["asymptotics", "exam2.csv", "--kappa", "2"],
        ["asymptotics", "interval-interior.csv", "--kappa", "1"],
        ["--tail-window", "40", "asymptotics", "semicircle.csv", "--kappa", "1"],
        ["asymptotics", "triangle.csv", "--kappa", "1", "--v-infinity", "0"],
    ]
    # errors: tail windows below 3, a non-finite limit, overflowing problems
    cases += [["--tail-window", w, "asymptotics", "exam1.csv", "--kappa", "2"]
              for w in ("-5", "0", "2")]
    cases.append(["asymptotics", "exam1.csv", "--kappa", "2", "--v-infinity", "nan"])
    cases += [["--restarts", "2", "solve", name] for name in OVERFLOWS]
    cases += [["--restarts", "2", "solve", name] for name in TINY]
    # the semicircle allocation at every n the command line accepts
    cases.append(["sweep", "semicircle", "--from", "3", "--to", "10000", "--output", "-"])
    # asymptotics inputs: a kappa whose scaling overflows, an n over the
    # limit, and the steep tail
    cases += [["asymptotics", "exam1.csv", "--kappa", "0.01"],
              ["asymptotics", "huge_n.csv", "--kappa", "1"],
              ["asymptotics", "steep.csv", "--kappa", "1"]]
    # every other sweep family from its smallest n to the limit, and a
    # --from far below every family's smallest n
    cases += [["sweep", name, "--from", str(lowest), "--to", "10000", "--output", "-"]
              for name, lowest in SWEEP_LOWEST.items() if name != "semicircle"]
    cases.append(["sweep", "interval-left", "--from", "-1000000000000", "--to", "3",
                  "--output", "-"])
    # the EDGES, and a closed form that overflows
    cases += [["--restarts", "4", "solve", "tiny_cell.json"],
              ["closed-form", "line-constraint", "-n", "3", "--m", "1e160", "--intercept", "0"],
              ["render", "far_points.json", "--output", "far_points.svg"]]
    # the FAR_ARC
    cases += [["--restarts", "2", "solve", "far_arc_members.json"],
              ["render", "far_arc_points.json", "--output", "far_arc_points.svg"]]
    # many rows in one descent, some of whose Hessians fail to factor
    cases.append(["--restarts", "256", "solve", "triangle.json"])
    # at the default 16 restarts, half the tie's runs start at (0.75, 0)
    cases += [["solve", name] for name in MEMBERS]
    cases += [["--restarts", "2", "solve", name] for name in FAR_MEMBER]
    # errors: an option the scenario's closed form does not name, one per
    # family, and closed forms whose error underflows to 0.0
    cases += [
        ["closed-form", "triangle", "-n", "6", "--a", "0"],
        ["closed-form", "semicircle", "-n", "5", "--m", "1"],
        ["closed-form", "exam1", "-n", "3", "--n1", "3"],
        ["closed-form", "interval-left", "-n", "3", "--c", "0.2"],
        ["closed-form", "interval-right", "-n", "3", "--intercept", "0"],
        ["closed-form", "interval-interior", "-n", "4", "--m", "1"],
        ["closed-form", "line-constraint", "-n", "4", "--m", "1", "--intercept", "4",
         "--n1", "2"],
        ["closed-form", "interval-left", "-n", "3", "--a", "1e-300", "--b", "2e-300"],
        ["closed-form", "interval-right", "-n", "3", "--a", "1e-300", "--b", "2e-300"],
        ["closed-form", "interval-interior", "-n", "3", "--b", "1e-100", "--c", "0",
         "--d", "1e-110"],
        ["closed-form", "line-constraint", "-n", "3", "--b", "1e-300", "--m", "0",
         "--intercept", "0"],
    ]
    # a closed form whose error is subnormal, and the reader's row rules
    cases += [["closed-form", "interval-left", "-n", "3", "--b", "1e-160"],
              ["asymptotics", "two_faults.csv", "--kappa", "1"],
              ["asymptotics", "crlf.csv", "--kappa", "2"]]
    # the whole gallery at seed 7 too, so one diff -r covers both verify seeds
    cases.append(["--seed", "7", "verify"])
    return cases


def _run(argv: list[str]) -> tuple[int | str, str, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        except Exception as exc:  # an escaped exception is the output to record
            code = f"raised {type(exc).__name__}: {exc}"
    return (code, out.getvalue(), err.getvalue(),
            [f"{w.category.__name__}: {w.message}" for w in caught])


def _render(result: str) -> str:
    """The SVG that `render` draws of a result document's text."""
    with open("result.json", "w", encoding="utf-8") as fh:
        fh.write(result)
    code, _, err, _ = _run(["render", "result.json", "--output", "result.svg"])
    if code != 0:
        return f"render exit {code}: {err}"
    with open("result.svg", encoding="utf-8") as fh:
        return fh.read()


def _check_names() -> None:
    """Raise if a registry scenario with a closed form or a sweep has no
    cases here, so that a new scenario cannot skip the snapshot."""
    for names, field in ((CLOSED_FORM_NAMES, "closed_form"), (SWEEP_NAMES, "sweep")):
        missing = [name for name, entry in SCENARIOS.items()
                   if getattr(entry, field) is not None and name not in names]
        if missing:
            raise RuntimeError(f"scenarios with a {field} but no snapshot cases: {missing}")


def main_snapshot(outdir: str) -> int:
    _check_names()
    outdir = os.path.abspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for scenario, lo, hi in SWEEPS:
            code, _, err, _ = _run(["sweep", scenario, "--from", str(lo), "--to", str(hi),
                                    "--output", f"{scenario}.csv"])
            if code != 0:
                raise RuntimeError(f"could not write {scenario}.csv: {err}")
        for name, doc in {**PROBLEMS, **OVERFLOWS, **FAR_MEMBER, **TINY, **EDGES, **FAR_ARC,
                          **MEMBERS}.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump({"schema_version": 1, **doc}, fh)
        for name, text in CSVS.items():
            with open(name, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for i, argv in enumerate(_cases()):
            code, out, err, caught = _run(argv)
            name = f"{i:03d}_" + "_".join(a.removeprefix("--") for a in argv)[:80]
            text = (f"argv: {' '.join(argv)}\nexit: {code}\n"
                    f"--- stdout\n{out}--- stderr\n{err}")
            if caught:
                text += "--- warnings\n" + "".join(f"{w}\n" for w in caught)
            if "solve" in argv and code in (0, 2):
                text += "--- svg\n" + _render(out)
            with open(os.path.join(outdir, name + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(outdir)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main_snapshot(sys.argv[1]))
