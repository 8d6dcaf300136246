"""Time the layers of curvequant: geometry, the solver's phases, the CLI parse.

    python3 tools/layer_timing.py

Imports `curvequant` from the `src` next to this script. Prints the machine
(cores, Python, numpy), then six tables, each entry the median of REPEATS
timed runs:

* large m: per family and site count m in SIZES, the breakpoint work of a
  pass (one `voronoi_breakpoints` call per curve of the support), one
  full cell-state pass (`geometry._cell_state`: breakpoints, piece owners,
  closed-form integrals, masses and moments) and the public `distortion`
  and `voronoi_masses`, on the closed-form sets
  (`closed_form.semicircle_conditional` with the optimal diameter/arc split
  and `closed_form.triangle_conditional`), and beside them the sites kept
  per curve when m is over `geometry.CULL_ABOVE`;
* crossover: one cell-state pass built of every site of each set and of
  only the sites that can own a piece of each curve
  (`geometry._owning_sites`), runs of the two alternating with
  `geometry.CULL_ABOVE` set for each, and the ratio of their medians: per
  family and m in CROSSOVER_MS, the SEEDS site sets that `solve` seeds,
  stacked as its state passes take them, and for the semicircle and
  triangle the closed-form set alone, as one evaluation of
  `distortion` or `voronoi_masses` takes it. `geometry.CULL_ABOVE` is the
  single-set crossover it was set at: the largest m at which the two
  closed-form sets' passes, summed, cost more with the cull; the seeded
  stacks stop losing at a smaller m, but no benchmark workload runs them
  that large. Both tables print the sites kept per curve, summed over the
  sets;
* small m: per gallery family at each n in SMALL_NS, SEEDS site sets drawn
  as `solve` seeds them (one `_seed_runs` call), passed one at a time (each
  a stack of one) and as one stacked pass;
* Newton step: one descent state of some rows, where the solver's descent
  starts (`_Descent` over the seeds), and at that state one whole Newton
  step of every row (`_Descent.direction`; the step it keeps is dropped
  before each run) split into its layers from one set of runs: the
  assembly of the exact Hessian (`_Descent.hessian`), the definiteness
  test and the solve (`_Descent.newton` less the assembly) and the
  bookkeeping of `direction` itself (less `newton`: the live coordinates,
  the bounds, the kept step); then `_Descent._accept` of a pass over
  every row that every row accepts, and one such state pass
  (`_Descent.evaluate`). Per gallery family at each n in SMALL_NS over
  SEEDS rows, and on the closed-form semicircle and triangle sets (as in
  large m) at m = NEWTON_M, one row;
* solve phases: per gallery family at each n in SMALL_NS, one default
  `solve` split into its seeding (`_seed_runs`, one batched call per chunk
  of restarts, so one call for all 16 at these n), its descent
  (`_descend`, every restart until an iteration no longer lowers its
  distortion beyond rounding) and the rest, the polish: the winner's last
  Newton step (`_Descent.finish`) and its result;
* CLI parse: one argv parsed by a freshly built parser, as every
  `cli.main` call paid before the parser was kept, and by the kept one.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from curvequant import allocation, cli, closed_form, geometry, scenarios, solver  # noqa: E402

SIZES = (200, 400, 1000, 2000)
CROSSOVER_MS = (8, 16, 32, 64, 96, 128, 144, 160, 192, 256)
SMALL_NS = (4, 12)
NEWTON_M = 1000
SEEDS = 16
REPEATS = 21
PARSE_ARGV = ["--seed", "42", "solve", "problem.json"]


def _sites(family: str, m: int):
    if family == "semicircle":
        n1 = allocation.semicircle_allocate(m).parts[0]
        return scenarios.semicircle_measure(), closed_form.semicircle_conditional(m, n1).points
    return scenarios.triangle_measure(), closed_form.triangle_conditional(m).points


def _median_s(fn) -> float:
    fn()  # warm up
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _kept(measure, stack) -> str:
    """The sites that geometry._owning_sites keeps of each curve, summed
    over the sets of the stack, and the site count: "157/245 of 400"."""
    kept = []
    for c in measure.curves:
        _, _, K, P, Q = geometry._envelope(c, stack.reshape(-1, 2))
        keep = geometry._owning_sites(c, *(v.reshape(stack.shape[:2]) for v in (K, P, Q)))
        kept.append(str(int(keep.sum())))
    return f"{'/'.join(kept)} of {stack.shape[0] * stack.shape[1]}"


def _large_m() -> None:
    print(f"{'family':<18}{'m':>6}{'breakpoints':>14}{'state pass':>14}{'distortion':>14}"
          f"{'masses':>14}  kept per curve")
    for family in ("semicircle", "triangle"):
        for m in SIZES:
            measure, points = _sites(family, m)
            stack = geometry._sites_array(points)[None]

            def breakpoints():
                for c in measure.curves:
                    geometry.voronoi_breakpoints(c, stack)

            times = [_median_s(fn) for fn in (
                breakpoints, lambda: geometry._cell_state(measure, stack),
                lambda: geometry.distortion(measure, points),
                lambda: geometry.voronoi_masses(measure, points))]
            print(f"{family:<18}{stack.shape[1]:>6}" + "".join(f"{t * 1e3:>14.2f}" for t in times)
                  + f"  {_kept(measure, stack)}")


def _pass_pair(measure, stack) -> tuple[float, float]:
    """Median seconds of one cell-state pass of the stack built of every
    site and of the culled sites, runs of the two alternating so that both
    see the same machine, with geometry.CULL_ABOVE set for each run."""
    saved, m = geometry.CULL_ABOVE, stack.shape[1]
    times = ([], [])
    try:
        for k in range(2 * REPEATS + 2):
            geometry.CULL_ABOVE = m if k % 2 else 0
            t = time.perf_counter()
            geometry._cell_state(measure, stack)
            if k > 1:  # the first of each warms up
                times[k % 2].append(time.perf_counter() - t)
    finally:
        geometry.CULL_ABOVE = saved
    return statistics.median(times[1]), statistics.median(times[0])


def _crossover() -> None:
    print(f"{'family':<18}{'sets':>6}{'m':>6}{'all sites':>12}{'culled':>12}{'ratio':>8}"
          "  kept per curve")
    for family in ("semicircle", "triangle", "interval-left", "exam1"):
        for m in CROSSOVER_MS:
            problem = scenarios.GALLERY[family].build(m)
            stacks = [solver._seed_runs(problem, np.random.default_rng(42), SEEDS).sites]
            if family in ("semicircle", "triangle"):
                stacks.append(geometry._sites_array(_sites(family, m)[1])[None])
            for stack in stacks:
                whole, culled = _pass_pair(problem.measure, stack)
                print(f"{family:<18}{len(stack):>6}{stack.shape[1]:>6}{whole * 1e3:>12.3f}"
                      f"{culled * 1e3:>12.3f}{culled / whole:>8.2f}"
                      f"  {_kept(problem.measure, stack)}")


def _small_m() -> None:
    print(f"{'family':<18}{'n':>6}{f'{SEEDS} single':>14}{'one stacked':>14}")
    for family, entry in scenarios.GALLERY.items():
        for n in SMALL_NS:
            problem = entry.build(n)
            stack = solver._seed_runs(problem, np.random.default_rng(42), SEEDS).sites

            def single():
                for r in range(len(stack)):
                    geometry._cell_state(problem.measure, stack[r:r + 1])

            one = _median_s(single)
            stacked = _median_s(lambda: geometry._cell_state(problem.measure, stack))
            print(f"{family:<18}{n:>6}{one * 1e3:>14.3f}{stacked * 1e3:>14.3f}")


def _closed_form_seeds(family: str, m: int):
    """The family's problem at m and its closed-form set, as one row of
    seed arrays: beta first, every other point snapped onto the constraints."""
    problem = scenarios.GALLERY[family].build(m)
    beta = {(b.x, b.y) for b in problem.beta}
    rest = [p for p in _sites(family, m)[1] if (p.x, p.y) not in beta]
    xy, index, param, _ = solver._snap(problem, geometry._sites_array(rest))
    sites = np.concatenate([geometry._sites_array(problem.beta), xy])
    return problem, solver._Seeds(sites[None], index[None], param[None])


def _step_layers(descent, rows) -> list[float]:
    """Median seconds of the assembly, the test and solve, and direction's
    own bookkeeping in one Newton step of the rows, each run timed at all
    three layers at once (instance attributes wrap the two methods)."""
    spent = {}

    def timed(key, fn):
        def wrapper(*args):
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - t
        return wrapper

    descent.hessian = timed("hessian", descent.hessian)
    descent.newton = timed("newton", descent.newton)
    runs = []
    try:
        for _ in range(REPEATS + 1):
            descent.known[:] = False
            spent.update(hessian=0.0, newton=0.0)
            t = time.perf_counter()
            descent.direction(rows)
            whole = time.perf_counter() - t
            runs.append((spent["hessian"], spent["newton"] - spent["hessian"],
                         whole - spent["newton"]))
    finally:
        del descent.hessian, descent.newton
    return [statistics.median(r[k] for r in runs[1:]) for k in range(3)]  # run 0 warms up


def _newton_row(family: str, n: int, descent) -> None:
    rows = np.arange(len(descent.x))
    layers = _step_layers(descent, rows)
    x, every = descent.x.copy(), np.ones(len(rows), dtype=bool)
    new = descent.evaluate(x)
    accept = _median_s(lambda: descent._accept(new, every, x))
    state = _median_s(lambda: descent.evaluate(descent.x))
    print(f"{family:<18}{n:>6}{len(rows):>6}"
          + "".join(f"{t * 1e3:>12.3f}" for t in (*layers, accept, state)))


def _newton_steps() -> None:
    print(f"{'family':<18}{'n':>6}{'rows':>6}{'hessian':>12}{'test+solve':>12}"
          f"{'bookkeeping':>12}{'accept':>12}{'state pass':>12}")
    for family, entry in scenarios.GALLERY.items():
        for n in SMALL_NS:
            problem = entry.build(n)
            seeds = solver._seed_runs(problem, np.random.default_rng(42), SEEDS)
            _newton_row(family, n, solver._Descent(problem, seeds))
    for family in ("semicircle", "triangle"):
        _newton_row(family, NEWTON_M, solver._Descent(*_closed_form_seeds(family, NEWTON_M)))


def _phases(problem) -> tuple[float, float, float]:
    """Seeding, descent and polish (last Newton step) seconds of one
    default solve."""
    spent = {"seed": 0.0, "descend": 0.0}
    seed_runs, descend = solver._seed_runs, solver._descend

    def timed(key, fn):
        def wrapper(*args):
            t = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - t
        return wrapper

    solver._seed_runs, solver._descend = timed("seed", seed_runs), timed("descend", descend)
    try:
        t = time.perf_counter()
        solver.solve(problem)
        total = time.perf_counter() - t
    finally:
        solver._seed_runs, solver._descend = seed_runs, descend
    return spent["seed"], spent["descend"], total - spent["seed"] - spent["descend"]


def _solve_phases() -> None:
    print(f"{'family':<18}{'n':>6}{'seeding':>14}{'descent':>14}{'polish':>14}")
    for family, entry in scenarios.GALLERY.items():
        for n in SMALL_NS:
            problem = entry.build(n)
            _phases(problem)  # warm up
            runs = [_phases(problem) for _ in range(REPEATS)]
            row = "".join(f"{statistics.median(r[k] for r in runs) * 1e3:>14.2f}"
                          for k in range(3))
            print(f"{family:<18}{n:>6}{row}")


def _cli_parse() -> None:
    fresh = _median_s(lambda: cli.build_parser().parse_args(PARSE_ARGV))
    kept = _median_s(lambda: cli._parser().parse_args(PARSE_ARGV))
    print(f"{'argv':<40}{'fresh parser':>14}{'kept parser':>14}")
    print(f"{' '.join(PARSE_ARGV):<40}{fresh * 1e3:>14.3f}{kept * 1e3:>14.3f}")


def main() -> int:
    print(f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"median of {REPEATS} runs, ms")
    for title, table in (("large m", _large_m),
                         ("cell-state pass with and without the culled envelopes", _crossover),
                         (f"small m, {SEEDS} seeds", _small_m),
                         ("Newton step and state pass at one state", _newton_steps),
                         ("solve phases, default options", _solve_phases),
                         ("CLI parse", _cli_parse)):
        print(f"\n{title}")
        table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
