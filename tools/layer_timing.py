"""Time the geometry layer on the closed-form semicircle and triangle sets.

    python3 tools/layer_timing.py

Imports `curvequant` from the `src` next to this script. Prints the machine
(cores, Python, numpy), then one row per family and site count m in SIZES:
the median of REPEATS timed runs of the breakpoint work of a pass (one
`voronoi_breakpoints` call per curve of the support) and of one full
cell-state pass (`geometry._cell_state`: breakpoints, piece owners,
closed-form integrals, masses and moments). The sets are `closed_form.semicircle_conditional` with
the optimal diameter/arc split and `closed_form.triangle_conditional`.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from curvequant import allocation, closed_form, geometry, scenarios  # noqa: E402

SIZES = (200, 400, 1000, 2000)
REPEATS = 21


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


def main() -> int:
    print(f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"median of {REPEATS} runs, ms")
    print(f"{'family':<12}{'m':>6}{'breakpoints':>14}{'state pass':>14}")
    for family in ("semicircle", "triangle"):
        for m in SIZES:
            measure, points = _sites(family, m)
            xy = geometry._sites_array(points)

            def breakpoints():
                for c in measure.curves:
                    geometry.voronoi_breakpoints(c, xy)

            cuts = _median_s(breakpoints)
            state = _median_s(lambda: geometry._cell_state(measure, xy))
            print(f"{family:<12}{len(xy):>6}{cuts * 1e3:>14.2f}{state * 1e3:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
