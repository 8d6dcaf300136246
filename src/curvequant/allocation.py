"""Integer allocation of quantizer points across support components.

Covers the half-disk boundary (how many of n points sit on the diameter vs
the arc) and the equilateral triangle (split across the three sides), each
by a direct method; the brute-force scans that verify them are test oracles
(tests/scalar_reference.py). The half-disk objective is
strictly convex in the diameter count, so a walk from its derived continuous
optimum n/(1 + pi/2) that stops at a local minimum has found the global one;
the triangle's optimum is the balanced split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from curvequant.closed_form import _counts, semicircle_error, triangle_error, triangle_split


@dataclass(frozen=True)
class Allocation:
    """Per-component point counts and their error: ints and a float for one
    n, or one int64 array per part and a float64 array for an array of n."""

    parts: tuple
    objective: float | np.ndarray


def semicircle_allocate(n) -> Allocation:
    """Optimal diameter/arc split: a walk from the derived optimum, at one n
    or for each element of an integer array of n (n up to
    closed_form.COLUMN_MAX either way: one n is walked as an array of one).

    With a = k - 1 diameter gaps and b = n - k + 1 arc gaps the objective is
    f(k) = C (1/a^2 + h(b)), h(b) = 3 pi - 6b sin(pi/(2b)). Both terms are
    strictly convex (h''(b) = 6 (pi/2)^2 sin(pi/(2b)) / b^3 > 0), so f is
    strictly convex in k and a local minimum of the walk is the global one.
    The leading terms, 1/a^2 + pi^3/(8 b^2), are least at b/a = pi/2, so the
    walk starts at k = 1 + round(n/(1 + pi/2)), clamped into [2, n]. It moves
    down while the lower neighbour is no worse (ties go to the smaller
    count, as in an exhaustive scan), otherwise up while the upper one is
    strictly better; each f(k) is evaluated once. Over n = 3..10000 the
    start is already the optimum, so an n costs at most three evaluations.
    The walk steps every n of an array at once: each semicircle_error call
    evaluates the n still moving, so each n takes the path, and gets the
    bits, of its own walk.
    """
    ns = np.array(_counts(n, 3, "need n >= 3"), dtype=np.int64, ndmin=1)
    start = np.clip(1 + np.rint(ns / (1.0 + math.pi / 2.0)).astype(np.int64), 2, ns)
    k = start.copy()
    fk = semicircle_error(k, ns - k + 2)
    moving = k > 2
    while moving.any():
        i = np.flatnonzero(moving)
        down = semicircle_error(k[i] - 1, ns[i] - (k[i] - 1) + 2)
        step = down <= fk[i]
        k[i[step]] -= 1
        fk[i[step]] = down[step]
        moving[i] = step & (k[i] > 2)
    moving = (k == start) & (k < ns)  # after a step down, f(k + 1) >= f(k) is known
    while moving.any():
        i = np.flatnonzero(moving)
        up = semicircle_error(k[i] + 1, ns[i] - (k[i] + 1) + 2)
        step = up < fk[i]
        k[i[step]] += 1
        fk[i[step]] = up[step]
        moving[i] = step & (k[i] < ns[i])
    if not isinstance(n, np.ndarray):
        return Allocation((int(k[0]), int(ns[0] - k[0] + 2)), float(fk[0]))
    return Allocation((k, ns - k + 2), fk)


def triangle_allocate(n) -> Allocation:
    """Balanced per-side counts for n boundary points (vertices shared), at
    one n or an array of n."""
    parts = triangle_split(n)
    return Allocation(parts, triangle_error(*parts))
