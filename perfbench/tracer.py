"""Span tracing of curvequant's layers, installed from outside the package.

`Tracer.install()` replaces each traced public function with a recording
wrapper at every place the function object is bound in a loaded
`curvequant.*` module (solver and cli import several geometry and render
functions by name, so patching the defining module alone would miss those
calls). `Tracer.restore()` puts every original back. Spans are kept in
memory as (name, start, end, parent) and summarised or written out at the
end; nothing is printed while tracing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "curvequant"

# Public functions traced per module; None means every public function the
# module defines. Two deliberate omissions: geometry's leaf arithmetic
# (curve_length, sq_dist) runs once per Voronoi piece and would cost more to
# trace than it does to run, and cli is traced at `main` only, so that
# cli.main's self time is the CLI's own parse and emit work.
TRACED = {
    "geometry": ("curve_eval", "project_to_curve", "voronoi_breakpoints",
                 "voronoi_cell_stats", "voronoi_masses", "conditional_mean",
                 "distortion"),
    "solver": ("evaluate", "lloyd_step", "solve", "existence_check",
               "sandwich_check", "density_gap"),
    "closed_form": None,
    "allocation": None,
    "asymptotics": None,
    "render": ("render_svg",),
    "cli": ("main",),
}


def public_functions(module) -> list[str]:
    """Names of the public functions a module defines itself."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == module.__name__)


def traced_targets() -> dict[str, object]:
    """Map "module.function" to the original function object."""
    targets = {}
    for short, names in TRACED.items():
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name in names or public_functions(module):
            fn = getattr(module, name)
            if name.startswith("_") or not inspect.isfunction(fn):
                raise ValueError(f"{short}.{name} is not a public function")
            targets[f"{short}.{name}"] = fn
    return targets


class Tracer:
    """Records one span per call of a traced function while `active`."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.curves: dict[int, int] = {}  # solve span -> curve count of its problem
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = traced_targets()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            if is_solve:
                problem = args[0] if args else kwargs["problem"]
                self.curves[idx] = len(problem.measure.curves)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return wrapper

    # -- analysis ---------------------------------------------------------

    def self_times(self, lo: int = 0) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        hi = len(self.names)
        out = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                out[p - lo] -= self.ends[i] - self.starts[i]
        return out

    def _outermost(self, i: int, key) -> bool:
        """True when no ancestor of span i has the same key."""
        k = key(self.names[i])
        p = self.parents[i]
        while p >= 0:
            if key(self.names[p]) == k:
                return False
            p = self.parents[p]
        return True

    def summary(self, lo: int = 0) -> dict[str, float]:
        """Per function and per module: calls, busy seconds, self seconds.

        Busy time counts only outermost spans of a key, so a module's
        functions calling each other are not counted twice.
        """
        hi = len(self.names)
        selfs = self.self_times(lo)
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        def module_of(name):
            return name.split(".", 1)[0]

        for i in range(lo, hi):
            name = self.names[i]
            module = module_of(name)
            dur = self.ends[i] - self.starts[i]
            add(f"{name}.calls", 1)
            add(f"{module}.calls", 1)
            add(f"{name}.self_s", selfs[i - lo])
            if self._outermost(i, lambda n: n):
                add(f"{name}.s", dur)
            if self._outermost(i, module_of):
                add(f"{module}.s", dur)
        return out

    def state_passes(self, lo: int = 0) -> list[int]:
        """Cell-state passes per solve span, from public counts alone.

        A state pass splits every support curve once, so it is one
        voronoi_breakpoints call per curve made by the solver itself; calls
        made through distortion, voronoi_masses or render_svg sit under
        those spans, not directly under solve.
        """
        hi = len(self.names)
        direct: dict[int, int] = {}
        for i in range(lo, hi):
            p = self.parents[i]
            if (self.names[i] == "geometry.voronoi_breakpoints" and p >= lo
                    and self.names[p] == "solver.solve"):
                direct[p] = direct.get(p, 0) + 1
        out = []
        for i in range(lo, hi):
            if self.names[i] == "solver.solve":
                calls, curves = direct.get(i, 0), self.curves[i]
                if calls % curves:
                    raise ValueError(f"solve span {i}: {calls} breakpoint "
                                     f"calls over {curves} curves")
                out.append(calls // curves)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i]}))
                fh.write("\n")
