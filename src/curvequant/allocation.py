"""Integer allocation of quantizer points across support components.

Covers the half-disk boundary (how many of n points sit on the diameter vs
the arc) and the equilateral triangle (split across the three sides), each
with a direct method and a brute-force verifier. The half-disk objective is
strictly convex in the diameter count, so a walk from its derived continuous
optimum n/(1 + pi/2) that stops at a local minimum has found the global one;
the triangle's optimum is the balanced split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from curvequant.closed_form import semicircle_error, triangle_error, triangle_split


@dataclass(frozen=True)
class Allocation:
    parts: tuple[int, ...]
    objective: float


def semicircle_allocate(n: int) -> Allocation:
    """Optimal diameter/arc split: a walk from the derived optimum.

    With a = k - 1 diameter gaps and b = n - k + 1 arc gaps the objective is
    f(k) = C (1/a^2 + h(b)), h(b) = 3 pi - 6b sin(pi/(2b)). Both terms are
    strictly convex (h''(b) = 6 (pi/2)^2 sin(pi/(2b)) / b^3 > 0), so f is
    strictly convex in k and a local minimum of the walk is the global one.
    The leading terms, 1/a^2 + pi^3/(8 b^2), are least at b/a = pi/2, so the
    walk starts at k = 1 + round(n/(1 + pi/2)), clamped into [2, n]. It moves
    down while the lower neighbour is no worse (ties go to the smaller
    count, as in the exhaustive scan), otherwise up while the upper one is
    strictly better; each f(k) is evaluated once. Over n = 3..10000 the
    start is already the optimum, so a call makes at most three evaluations.
    """
    if n < 3:
        raise ValueError("need n >= 3")

    def f(k: int) -> float:
        return semicircle_error(k, n - k + 2)

    start = k = min(max(1 + round(n / (1.0 + math.pi / 2.0)), 2), n)
    fk = f(k)
    while k > 2 and (down := f(k - 1)) <= fk:
        k, fk = k - 1, down
    if k == start:  # after a step down, f(k + 1) >= f(k) is already known
        while k < n and (up := f(k + 1)) < fk:
            k, fk = k + 1, up
    return Allocation((k, n - k + 2), fk)


def semicircle_allocate_exhaustive(n: int) -> Allocation:
    """Full scan over every admissible diameter count; ties to the smaller."""
    if n < 3:
        raise ValueError("need n >= 3")
    best_k = 2
    best_v = semicircle_error(2, n)
    for k in range(3, n + 1):
        v = semicircle_error(k, n - k + 2)
        if v < best_v:
            best_k, best_v = k, v
    return Allocation((best_k, n - best_k + 2), best_v)


def triangle_allocate(n: int) -> Allocation:
    """Balanced per-side counts for n boundary points (vertices shared)."""
    parts = triangle_split(n)
    return Allocation(parts, triangle_error(*parts))


def triangle_allocate_exhaustive(n: int) -> Allocation:
    """Scan all (n1, n2, n3) with side gaps summing to n; lexicographic ties."""
    if n < 3:
        raise ValueError("need n >= 3")
    # side j holds nj points of which nj - 1 are "its own" (far vertex shared)
    i = np.arange(1, n - 1)
    gi, gj = np.meshgrid(i, i, indexing="ij")
    gk = n - gi - gj
    obj = np.where(gk >= 1,
                   (1.0 / 36.0) * (1.0 / gi**2 + 1.0 / gj**2 + 1.0 / np.maximum(gk, 1) ** 2),
                   np.inf)
    flat = int(np.argmin(obj))
    bi, bj = divmod(flat, obj.shape[1])
    n1, n2 = int(i[bi]) + 1, int(i[bj]) + 1
    n3 = n - (n1 - 1) - (n2 - 1) + 1
    return Allocation((n1, n2, n3), triangle_error(n1, n2, n3))
