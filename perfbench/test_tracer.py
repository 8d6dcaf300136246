"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Checks that wrapping reaches every binding and is undone, that self time
is duration minus children, and that the counts a traced run reports repeat
exactly at a fixed seed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from curvequant import cli, geometry, render, solver  # noqa: E402
from tracer import PACKAGE, Tracer, traced_targets  # noqa: E402


def bindings():
    """(module name, attribute, object) for every traced function binding."""
    originals = {id(fn) for fn in traced_targets().values()}
    return [(name, attr, value)
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, value in vars(module).items() if id(value) in originals]


def traced_pass(tracer, ops):
    lo = len(tracer.names)
    for op in ops:
        tracer.active = True
        try:
            result = op.run(42)
        finally:
            tracer.active = False
        assert op.check(result) is None, op.name
    return tracer.summary(lo), tracer.state_passes(lo)


def small_ops(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    return [op for op in workloads.build("small-m-solve", str(tmp_path))
            if op.name in ("solve interval-left 10", "solve exam2 3")]


def test_wrappers_reach_every_binding_and_are_restored():
    before = bindings()
    # solver and cli bind these by name; the defining module alone is not enough
    assert ("curvequant.solver", "distortion", geometry.distortion) in before
    assert ("curvequant.cli", "render_svg", render.render_svg) in before
    tracer = Tracer()
    tracer.install()
    try:
        for name, attr, value in before:
            wrapper = getattr(sys.modules[name], attr)
            assert wrapper is not value and wrapper.__wrapped__ is value
    finally:
        tracer.restore()
    for name, attr, value in before:
        assert getattr(sys.modules[name], attr) is value


def test_self_time_is_duration_minus_children(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass(tracer, small_ops(tmp_path))
    finally:
        tracer.restore()
    selfs = tracer.self_times()
    children = [0.0] * len(selfs)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            children[p] += tracer.ends[i] - tracer.starts[i]
    assert any(c > 0 for c in children)
    for i, s in enumerate(selfs):
        duration = tracer.ends[i] - tracer.starts[i]
        assert s == pytest.approx(duration - children[i], abs=1e-12)
        assert s >= -1e-9


def test_counts_repeat_and_match_the_solver(tmp_path, monkeypatch):
    calls = []
    exact_state = solver._exact_state

    def counting(*args):
        calls.append(1)
        return exact_state(*args)

    # test-only: count the solver's private state passes to validate the
    # derivation from public breakpoint counts
    monkeypatch.setattr(solver, "_exact_state", counting)
    results = []
    for run in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            calls.clear()
            summary, passes = traced_pass(tracer, small_ops(tmp_path / str(run)))
        finally:
            tracer.restore()
        assert sum(passes) == len(calls) > 0
        results.append((summary["geometry.voronoi_breakpoints.calls"], passes,
                        summary["cli.main.calls"]))
    assert results[0] == results[1]


def test_cli_main_traced_in_process(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        code, _, _ = workloads.run_cli(["closed-form", "triangle", "-n", "6"])
        tracer.active = False
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["closed_form.calls"] >= 2
