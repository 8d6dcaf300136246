"""The closed forms and allocation walk one n at a time, on Python numbers,
the sweep CSV and the limit estimators one row at a time, and the
brute-force allocation scans.

The scalar loops are what `closed_form` and `allocation` evaluate as numpy
columns, what `curvequant sweep` formats and what `asymptotics` estimates
from. The fast paths use the same operations in the same order, so the
tests require equal results, bit for bit, against these. The exhaustive
scans try every split of n, so they verify the allocation walk and the
balanced triangle split without the convexity argument those rest on.
"""

from __future__ import annotations

import math

import numpy as np

from curvequant import closed_form as cf
from curvequant.allocation import Allocation

PI_SPLIT = 1.0 + math.pi / 2.0


def x_minus_sin(x: float) -> float:
    """x - sin(x) for x >= 0; a Taylor series below 1, where the difference cancels."""
    if x >= 1.0:
        return x - math.sin(x)
    x2 = x * x
    tail = 1.0
    for k in (272, 210, 156, 110, 72, 42, 20):  # (2j)(2j + 1), j = 8 .. 2
        tail = 1.0 - x2 / k * tail
    return x * x2 / 6.0 * tail


def interval_interior_error(m: int, a: float, b: float, c: float, d: float) -> float:
    if m < 2:
        raise ValueError("interior placement needs m >= 2")
    return (d - c) ** 3 / (12.0 * (b - a) * (m - 1) ** 2)


def interval_endpoint_error(n: int, a: float, b: float) -> float:
    if a >= b:
        raise ValueError("need a < b")
    if n < 1:
        raise ValueError("need n >= 1")
    return (b - a) ** 2 / (3.0 * (2 * n - 1) ** 2)


def _line_floor(a: float, b: float, m: float, c: float) -> float:
    mm1 = 1.0 + m * m
    if m == 0.0:
        return c * c / mm1
    num = (m * b + c) ** 3 - (m * a + c) ** 3
    return num / (3.0 * m * (b - a) * mm1)


def line_constraint_published_error(n: int, a: float, b: float, m: float, c: float) -> float:
    if n < 1:
        raise ValueError("need n >= 1")
    mm1 = 1.0 + m * m
    if n == 1:
        return _line_floor(a, b, m, c) + (b - a) ** 2 / (12.0 * mm1)
    if n == 2:
        return (a * a * (16 * m * m + 1) + 2 * a * b * (8 * m * m - 1) + 48 * a * c * m
                + b * b * (16 * m * m + 1) + 48 * b * c * m + 48 * c * c) / (48.0 * mm1)
    return (-48 * (a - b) ** 2 * m * m
            + (a - b) * (a - b + 72 * c * m + 8 * (11 * a - 2 * b) * m * m) * n
            - 12 * (a - b) * m * (5 * c + (4 * a + b) * m) * n * n
            + 12 * (c + a * m) ** 2 * n ** 3) / (12.0 * mm1 * n ** 3)


def semicircle_error(n1: int, n2: int) -> float:
    if n1 < 2 or n2 < 2:
        raise ValueError("need n1 >= 2 and n2 >= 2")
    k = n2 - 1
    return (2.0 / (3.0 * (2.0 + math.pi))) * (
        1.0 / (n1 - 1) ** 2 + 6.0 * k * x_minus_sin(math.pi / (2.0 * k)))


def semicircle_allocate(n: int) -> tuple[tuple[int, int], float]:
    """The walk from 1 + round(n/(1 + pi/2)): down while no worse, else up
    while strictly better; ((n1, n2), error)."""
    if n < 3:
        raise ValueError("need n >= 3")

    def f(k: int) -> float:
        return semicircle_error(k, n - k + 2)

    start = k = min(max(1 + round(n / PI_SPLIT), 2), n)
    fk = f(k)
    while k > 2 and (down := f(k - 1)) <= fk:
        k, fk = k - 1, down
    if k == start:
        while k < n and (up := f(k + 1)) < fk:
            k, fk = k + 1, up
    return (k, n - k + 2), fk


def triangle_error(n1: int, n2: int, n3: int) -> float:
    if min(n1, n2, n3) < 2:
        raise ValueError("all side counts must be >= 2")
    return (1.0 / 36.0) * (1.0 / (n1 - 1) ** 2 + 1.0 / (n2 - 1) ** 2 + 1.0 / (n3 - 1) ** 2)


def triangle_split(n: int) -> tuple[int, int, int]:
    if n < 3:
        raise ValueError("need n >= 3")
    k, r = divmod(n, 3)
    if r == 0:
        return (k + 1, k + 1, k + 1)
    if r == 1:
        return (k + 2, k + 1, k + 1)
    return (k + 2, k + 2, k + 1)


def exam1_breakpoint(n: int) -> float:
    if n < 1:
        raise ValueError("need n >= 1")
    return (n * n + n * math.sqrt(17.0 * n * n + 52.0) - 4.0) / (16.0 * n * n - 4.0)


def exam1_published_error(n: int) -> float:
    if n < 3:
        raise ValueError("need n >= 3")
    d = exam1_breakpoint(n)
    return d ** 3 / 3.0 + (
        d * d * (3 * n ** 3 - 12 * n ** 2 + 26 * n - 12)
        + 2 * d * (3 * n ** 3 - 3 * n ** 2 - 8 * n + 12)
        + 3 * n ** 3 + 18 * n ** 2 - 10 * n - 12
    ) / (51.0 * n ** 3)


# each sweep family's row (error, alloc parts) as the loop computed it, and
# its smallest n
SWEEP_ROWS = {
    "interval-left": (lambda n: (interval_endpoint_error(n, 0.0, 1.0), ()), 1),
    "interval-right": (lambda n: (interval_endpoint_error(n, 0.0, 1.0), ()), 1),
    "interval-interior": (lambda n: (interval_interior_error(n, 0.0, 1.0, 0.0, 1.0), ()), 2),
    "semicircle": (lambda n: semicircle_allocate(n)[::-1], 3),
    "triangle": (lambda n: (triangle_error(*triangle_split(n)), triangle_split(n)), 3),
    "exam1": (lambda n: (exam1_published_error(n), ()), 3),
    "exam2": (lambda n: (line_constraint_published_error(n, 0.0, 1.0, 1.0, 4.0), ()), 1),
}


def sweep_csv(family: str, n_from: int, n_to: int) -> str:
    """`sweep` output as the per-row formatter wrote it: the repr of each
    row's error and its allocation parts joined with '+'."""
    row, _ = SWEEP_ROWS[family]
    text = "n,error,alloc\n"
    for n in range(n_from, n_to + 1):
        error, parts = row(n)
        text += f"{n},{error!r},{'+'.join(map(str, parts))}\n"
    return text


def estimate_dimension(entries, v_infinity: float) -> tuple[float, float]:
    """Lagged log-log slopes over the default tail window (the last half,
    at least 10), four logs a pair."""
    window = entries[-max(len(entries) // 2, 10):]
    deltas = [(n, v - v_infinity) for n, v in window]
    if any(d <= 0 for _, d in deltas):
        raise ValueError("v <= v_infinity inside the tail window")
    lag = max(len(deltas) // 2, 1)
    dims = []
    for (n_a, d_a), (n_b, d_b) in zip(deltas, deltas[lag:]):
        slope = (math.log(d_a) - math.log(d_b)) / (math.log(n_b) - math.log(n_a))
        if slope > 0:
            dims.append(2.0 / slope)
    if not dims:
        raise ValueError("no decaying pairs in the tail window")
    return min(dims), max(dims)


def estimate_coefficient(entries, v_infinity: float, kappa: float) -> tuple[float, float]:
    """Pairs half the default tail window apart, n**(2/kappa) taken per entry."""
    window = entries[-max(len(entries) // 2, 10):]
    lag = max(len(window) // 2, 1)
    scaled = [(n, n ** (2.0 / kappa) * (v - v_infinity)) for n, v in window]
    coeffs = [(n_b * c_b - n_a * c_a) / (n_b - n_a)
              for (n_a, c_a), (n_b, c_b) in zip(scaled, scaled[lag:])]
    return min(coeffs), max(coeffs)


def semicircle_allocate_exhaustive(n: int) -> Allocation:
    """Full scan over every admissible diameter count, as one column of
    errors; argmin keeps ties on the smaller count."""
    if n < 3:
        raise ValueError("need n >= 3")
    k = np.arange(2, n + 1)
    errors = cf.semicircle_error(k, n - k + 2)
    best = int(np.argmin(errors))
    return Allocation((best + 2, n - best), float(errors[best]))


def triangle_allocate_exhaustive(n: int) -> Allocation:
    """Scan all (n1, n2, n3) with side gaps summing to n; lexicographic ties."""
    if n < 3:
        raise ValueError("need n >= 3")
    # side j holds nj points of which nj - 1 are "its own" (far vertex shared);
    # every pair of gaps gi, gj >= 1 that leaves gk >= 1, gi first, then gj
    r, c = np.triu_indices(n - 2)
    gi, gj = r + 1, c - r + 1
    gk = n - gi - gj
    obj = (1.0 / 36.0) * (1.0 / gi**2 + 1.0 / gj**2 + 1.0 / gk**2)
    best = int(np.argmin(obj))
    n1, n2 = int(gi[best]) + 1, int(gj[best]) + 1
    n3 = n - (n1 - 1) - (n2 - 1) + 1
    return Allocation((n1, n2, n3), cf.triangle_error(n1, n2, n3))
