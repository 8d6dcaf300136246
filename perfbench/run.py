#!/usr/bin/env python3
"""curvequant benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the run reports the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run. Diagnostics go to
stderr; the last two lines of stdout are a run block (machine, seed, per-op
figures, known defects) and the result object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SEED_NOTE = ("solver costs depend on the seed (the 10-point offset existence check took "
             "0.49 to 1.56 s over seeds 101-110, and offset_beta_problem(49) 22.5 s at "
             "seed 42 and 37.8 s at seed 7): compare runs only at equal seeds")
# Wall time of reference_work() on the machine the bounds were set on (a
# 2-core KVM guest on a 2.0 GHz Xeon, Sapphire Rapids), fastest of 60.
REFERENCE_S = 0.019

# per-layer metrics, in report order: (name, unit)
LAYER_METRICS = tuple(
    (name, "count" if name.endswith((".calls", "state_passes")) else "s")
    for name in (
        "geometry.voronoi_breakpoints.calls", "geometry.voronoi_breakpoints.s",
        "geometry.distortion.calls", "geometry.distortion.s",
        "geometry.voronoi_masses.calls", "geometry.voronoi_masses.s",
        "geometry.project_to_curve.calls", "geometry.project_to_curve.s",
        "geometry.curve_eval.calls", "geometry.curve_eval.s",
        "solver.solve.calls", "solver.solve.s", "solver.solve.self_s",
        "solver.existence_check.calls", "solver.existence_check.s",
        "solver.state_passes",
        "closed_form.calls", "closed_form.s",
        "allocation.calls", "allocation.s",
        "asymptotics.build_report.calls", "asymptotics.build_report.s",
        "cli.main.calls", "cli.main.self_s",
        "render.render_svg.calls", "render.render_svg.s",
        "trace.overhead_s",
    ))


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="Run one curvequant benchmark workload.")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=42,
                   help="solver rng_seed for the seeded workloads (default 42)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time; at least one full pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_op(op, seed: int, tally, tracer=None) -> tuple[float, float]:
    """Run one op (traced if a tracer is given), check it; (wall, cpu) seconds."""
    if tracer is not None:
        tracer.active = True
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        result, error = op.run(seed), None
    except Exception:  # an op that raises is a failed op; keep measuring
        result, error = None, traceback.format_exc(limit=3)
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.active = False
    tally.record(op, error if error is not None else op.check(result))
    return wall, cpu


def reference_work() -> float:
    """Fixed work in the program's mix, using no curvequant code: small numpy
    array operations on a 1025-point grid and a scalar Python loop."""
    grid = np.linspace(0.0, 1.0, 1025)
    sites = grid[::64]
    acc = 0.0
    for _ in range(128):
        owner = ((grid[:, None] - sites[None, :]) ** 2).argmin(axis=1)
        acc += float(np.bincount(owner, minlength=sites.size).sum())
        x = 0.3
        for _ in range(1000):
            x = 3.9 * x * (1.0 - x)
            acc += math.sqrt(x)
    return acc


def reference_seconds() -> float:
    """Current wall time of reference_work()."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def machine_speed() -> float:
    """REFERENCE_S over the current time of reference_work(): above 1 when
    the machine runs faster than when the bounds were set."""
    return REFERENCE_S / reference_seconds()


class Samples:
    """Raw (wall, cpu) samples of one op or probe, each with the machine
    speed it ran at; medians of the speed-scaled samples.

    A shared 2-core VM runs the same code up to 1.5 times slower for tens of
    seconds at a time, so every sample is scaled by the machine's speed,
    measured by reference_work() next to it.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.speed: list[float] = []

    def add(self, wall: float, cpu: float, speed: float) -> None:
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.speed.append(speed)

    def scaled_wall(self) -> float:
        return statistics.median(w * v for w, v in zip(self.wall, self.speed))

    def scaled_cpu(self) -> float:
        return statistics.median(c * v for c, v in zip(self.cpu, self.speed))


def measure(ops, seed: int, seconds: float, tally, probe):
    """Cycle through the ops for `seconds`; (Samples per op, Samples of probes).

    Every op runs at least once; after the first pass an op starts only if
    its fastest time so far still fits in the time left. `probe()` (a set-up
    measurement) runs before each of the first SETUP_PROBES passes, and any
    probes left over run at the end, so that they sample the same machine
    phases as the ops; probe time is not measuring time. A speed measurement
    separates every two timed ops.
    """
    samples = [Samples() for _ in ops]
    setups = Samples()

    def timed_probe():
        p0 = time.perf_counter()
        elapsed, speed = probe()
        setups.add(elapsed, elapsed, speed)
        return machine_speed(), time.perf_counter() - p0

    speed = machine_speed()
    t0 = time.perf_counter()
    k = 0
    while True:
        i = k % len(ops)
        if i == 0 and len(setups.wall) < SETUP_PROBES:
            speed, spent = timed_probe()
            t0 += spent
        if k >= len(ops) and time.perf_counter() - t0 + min(samples[i].wall) > seconds:
            break
        wall, cpu = run_op(ops[i], seed, tally)
        after = machine_speed()
        # the mean of the speeds measured right before and right after it
        samples[i].add(wall, cpu, 0.5 * (speed + after))
        speed = after
        k += 1
    while len(setups.wall) < SETUP_PROBES:
        timed_probe()
    return samples, setups


def setup_probe(args) -> tuple[float, float]:
    """One fresh process that imports and builds the workload; (its wall
    time, the machine speed it saw).

    The process may run on the other core than this one, so it measures
    the speed itself, after its set-up, and the time it spends doing so is
    not set-up time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    spent = json.loads(proc.stdout.splitlines()[-1])["reference_s"]
    return elapsed - sum(spent), REFERENCE_S / statistics.mean(spent)


def end_to_end(args, ops, tally):
    samples, setups = measure(ops, args.seed, args.seconds, tally,
                              lambda: setup_probe(args))
    walls = [s.scaled_wall() for s in samples]
    per_op = {op.name: {"wall_s": w, "cpu_s": s.scaled_cpu(), "raw_wall_s": s.wall,
                        "speed": s.speed}
              for op, w, s in zip(ops, walls, samples)}
    slowest = max(range(len(ops)), key=walls.__getitem__)
    speeds = [v for s in samples for v in s.speed]
    metrics = {
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(s.scaled_cpu() for s in samples), "s"),
        "setup_s": (setups.scaled_wall(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"raw_wall_s": sum(statistics.median(s.wall) for s in samples),
             "raw_setup_s": statistics.median(setups.wall),
             "machine_speed": {"median": statistics.median(speeds),
                               "min": min(speeds), "max": max(speeds)},
             "slowest_op": {"name": ops[slowest].name, "value": walls[slowest], "unit": "s"},
             "setup_runs": setups.wall, "ops": per_op}
    return metrics, extra


def traced(args, ops, tally):
    """Alternate an untraced and a traced pass over all ops until time is up.

    An untimed pass comes first: without it the first untraced pass also
    pays the process's first-call costs, and the overhead reads negative.
    Times are speed-scaled per op, as in the untraced run.
    """
    tracer = Tracer()
    plain_walls, traced_walls, summaries = [], [], []
    passes_per_op: dict[str, list[int]] = {}

    def timed_pass(trace: bool) -> tuple[float, dict]:
        """One pass over the ops: scaled wall time, scaled layer summary."""
        wall_total, summary = 0.0, {}
        speed = machine_speed()
        for op in ops:
            lo = len(tracer.names)
            wall = run_op(op, args.seed, tally, tracer if trace else None)[0]
            after = machine_speed()
            scale = 0.5 * (speed + after)
            speed = after
            wall_total += wall * scale
            if not trace:
                continue
            for key, value in tracer.summary(lo).items():
                if key.endswith((".s", ".self_s")):
                    value *= scale
                summary[key] = summary.get(key, 0) + value
            passes = tracer.state_passes(lo)
            summary["solver.state_passes"] = summary.get("solver.state_passes", 0) + sum(passes)
            if passes and not summaries:
                passes_per_op[op.name] = passes
        return wall_total, summary

    tracer.install()
    try:
        t0 = time.perf_counter()
        for op in ops:
            run_op(op, args.seed, tally)
        while True:
            t_pair = time.perf_counter()
            plain_walls.append(timed_pass(False)[0])
            wall, summary = timed_pass(True)
            traced_walls.append(wall)
            summaries.append(summary)
            now = time.perf_counter()
            if now - t0 + (now - t_pair) > args.seconds:
                break
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    first = summaries[0]
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif unit == "count":
            value = first.get(name, 0)
        else:
            value = statistics.median(s.get(name, 0.0) for s in summaries)
        metrics[name] = (value, unit)
    extra = {
        "traced_passes": len(summaries),
        "untraced_pass_wall_s": plain_walls,
        "traced_pass_wall_s": traced_walls,
        "state_passes_per_solve": passes_per_op,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_block(args, seeded: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": seeded,
        "seed_note": SEED_NOTE if seeded else "deterministic workload: seed unused",
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": read_commit(),
    }


def main(argv=None) -> int:
    if not (SRC / "curvequant" / "__init__.py").is_file():
        print(f"error: no curvequant sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, workdir)
        if args.setup_only:
            print(json.dumps({"reference_s": [reference_seconds() for _ in range(2)]}))
            return 0
        tally = workloads.Tally()
        if args.trace:
            metrics, extra = traced(args, ops, tally)
        else:
            metrics, extra = end_to_end(args, ops, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, state in tally.defects.items():
        print(f"known defect {name}: {state}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    block = {**machine_block(args, args.workload in workloads.SEEDED),
             "known_defects": tally.defects, "failures": tally.failures, **extra}
    print(json.dumps({"run": block}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
