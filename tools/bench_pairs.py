"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

PARENT and CHANGE are the roots of two source checkouts. Each pair runs
`perfbench/run.py --workload W --seed K --seconds S --trace 0` once from the
root of each, PARENT first in pairs 1, 3, 5, ... and CHANGE first in the
others, so that a slow stretch of the machine falls on both sides alike.
The runs inherit this environment (set PYTHONDONTWRITEBYTECODE=1 to time
set-up as a checkout without compiled files pays it).

Prints each pair's end-to-end metrics, then per metric the median, the
quartiles and their distance (IQR) on each side, the relative change of
the medians (CHANGE's over PARENT's, minus 1) and the pairs in which
CHANGE is better. Every end-to-end metric of the benchmark is better lower;
ties count for neither side. Exits 1 if a run fails, reports
`correct: false` or a failed op, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, args) -> dict:
    """One untraced benchmark run from the root of a checkout: its result
    object, the last line of its stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{root}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the checkout to compare against")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("need at least one pair")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    values = {side: {} for side in SIDES}  # side -> metric -> one value per pair
    bad = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        print(f"pair {pair + 1} ({order[0]} first)")
        for side in order:
            try:
                result = run_once(roots[side], args)
            except RuntimeError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"]:
                bad.append(f"pair {pair + 1} {side}: correct {result['correct']}, "
                           f"{result['failed']} of {result['attempted']} ops failed")
            metrics = result["metrics"]
            for name, metric in metrics.items():
                values[side].setdefault(name, []).append(metric["value"])
            print(f"  {side:<7}" + "  ".join(f"{name} {metric['value']:.6g}"
                                              for name, metric in metrics.items()))
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':<13}{'side':<8}{'median':>12}{'q1':>12}{'q3':>12}{'IQR':>12}"
          f"{'relative':>10}{'change better':>16}")
    for name, parent in values["parent"].items():
        change = values["change"][name]
        wins = sum(c < p for p, c in zip(parent, change))
        base = quartiles(parent)[1]
        for side, series in (("parent", parent), ("change", change)):
            q1, q2, q3 = quartiles(series)
            relative = tally = ""
            if side == "change":
                relative = f"{q2 / base - 1:+.2%}" if base else "n/a"
                tally = f"{wins}/{len(parent)}"
            print(f"{name if side == 'parent' else '':<13}{side:<8}{q2:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}{q3 - q1:>12.6g}{relative:>10}{tally:>16}")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
