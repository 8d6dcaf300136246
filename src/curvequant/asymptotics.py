"""Limit estimation from distortion sequences: residual value V-infinity,
quantization dimension, and the kappa-dimensional coefficient.

All estimators work on a finite tail window of the sequence; liminf/limsup
style quantities are proxied by (min, max) over that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorSequence:
    """Distortion values v indexed by point count n, decreasing in n. A
    point count is an integer (4.0 and numpy ints pass) with a finite float
    value."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        raw = tuple(self.entries)  # read twice below
        given = [n for n, _ in raw]
        try:
            counts = [int(n) for n in given]
        except (OverflowError, ValueError):  # inf, nan
            counts = None
        if counts != given:  # elementwise ==, so 4.0 and numpy ints pass
            raise ValueError("point counts must be integers")
        values = [float(v) for _, v in raw]
        entries = tuple(zip(counts, values))
        if not entries:
            raise ValueError("sequence is empty")
        if entries[0][0] < 1:
            raise ValueError("point counts must be positive")
        for (n0, v0), (n1, v1) in zip(entries, entries[1:]):
            if n1 <= n0:
                raise ValueError("point counts must be strictly increasing")
            if v1 > v0 + 1e-12 * abs(v0):
                raise ValueError(f"errors must be nonincreasing (v({n1}) > v({n0}))")
        try:  # the estimators take powers of n as floats
            float(counts[-1])
        except OverflowError:
            raise ValueError("point counts must have a finite float value") from None
        if not (all(map(math.isfinite, values)) and min(values) > 0):
            raise ValueError("errors must be finite and positive")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class AsymptoticsReport:
    v_infinity: float
    dim_lower: float
    dim_upper: float
    kappa: float
    coeff_lower: float
    coeff_upper: float
    tail_window: int


@dataclass(frozen=True)
class ScenarioLimits:
    """Limiting constants for one scenario family."""

    v_infinity: float | None
    dimension: float | None
    kappa: float
    coefficient: float | None
    exists: bool = True


def _power_fit3(ns, vs):
    """Fit v = V + C * n**(-s) through three points, or None where no s
    lies strictly inside (1e-3, 10**1.5) or C does not come out finite
    (n**(-s) underflows at counts near the top of the float range).

    s solves rho = (v1 - v2) / (v2 - v3) = h(s) = (n1**-s - n2**-s) /
    (n2**-s - n3**-s) = expm1(s*a) / -expm1(-s*b), a = log(n2/n1) and
    b = log(n3/n2). h rises strictly from a/b (expm1(s*a)/s rises,
    -expm1(-s*b)/s falls), so bisection finds the one root to float
    convergence.
    """
    n1, n2, n3 = ns
    v1, v2, v3 = vs
    if not (v1 > v2 > v3):
        return None
    rho = (v1 - v2) / (v2 - v3)
    a, b = math.log1p((n2 - n1) / n1), math.log1p((n3 - n2) / n2)

    def below(s):
        try:
            return math.expm1(s * a) / -math.expm1(-s * b) < rho
        except OverflowError:  # h rises strictly, so h(s) > rho there
            return False

    lo, hi = 1e-3, 10 ** 1.5
    if not below(lo) or below(hi):
        return None
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    r1, r3 = n1 ** (-mid), n3 ** (-mid)
    c = (v1 - v3) / (r1 - r3) if r1 > r3 else math.inf
    if not math.isfinite(c):
        return None
    return v3 - c * r3, c, mid


def estimate_v_infinity(seq: ErrorSequence) -> float:
    """Limit of the sequence under a single power-law residual model.

    Primary estimate: the three-point fit v = V + C*n**(-s) through the last
    three entries. A second fit at half depth then cancels the leading
    finite-n bias of the primary via Richardson combination (exact power
    laws are left untouched since both fits already agree). If consecutive
    tail entries make the system singular (oscillating allocations do this),
    the fit falls back to three spread-out tail points.
    """
    entries = seq.entries
    if len(entries) < 3:
        raise ValueError("need at least three entries")
    tail = entries[-3:]
    fit_full = _power_fit3([e[0] for e in tail], [e[1] for e in tail])
    if fit_full is not None:
        v_full = fit_full[0]
        half = entries[: (len(entries) + 1) // 2]
        if len(half) >= 3:
            fit_half = _power_fit3([e[0] for e in half[-3:]], [e[1] for e in half[-3:]])
            if fit_half is not None:
                rho = (tail[-1][0] / half[-1][0]) ** 2
                if rho > 1.0:
                    return (rho * v_full - fit_half[0]) / (rho - 1.0)
        return v_full
    m = len(entries)
    idx = sorted({(m - 1) // 4, (m - 1) // 2 + (m - 1) % 2, m - 1})
    if len(idx) == 3:
        fit = _power_fit3([entries[i][0] for i in idx], [entries[i][1] for i in idx])
        if fit is not None:
            return fit[0]
    v1, v2, v3 = (e[1] for e in tail)
    if not v1 > v2 > v3:
        raise ValueError("tail is not strictly decreasing enough to fit a limit")
    raise ValueError("tail fits no power law V + C*n**(-s) with s in (1e-3, 10**1.5) "
                     "and a finite C")


def _tail_entries(entries, tail_window):
    """The last tail_window entries (all of them if there are fewer); by
    default the last half, but at least 10."""
    if tail_window is None:
        return entries[-max(len(entries) // 2, 10):]
    if tail_window < 3:
        raise ValueError(f"tail window must be at least 3, got {tail_window}")
    return entries[-int(tail_window):]


def estimate_dimension(seq: ErrorSequence, v_infinity: float,
                       tail_window: int | None = None) -> tuple[float, float]:
    """(lower, upper) quantization-dimension estimates over the tail window.

    Uses lagged log-log slopes of the deviation v - v_infinity against n
    (lag of half the window), which makes the estimate invariant under
    positive scaling of the deviations. The quantization order is 2, the
    only one the package treats: a slope s gives dimension 2 / s.
    """
    window = _tail_entries(seq.entries, tail_window)
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


def estimate_coefficient(seq: ErrorSequence, v_infinity: float, kappa: float,
                         tail_window: int | None = None) -> tuple[float, float]:
    """(lower, upper) estimates of lim n**(2/kappa) * (v_n - v_infinity).

    The scaled sequence c_n typically still drifts like c + B/n; pairing
    entries half a window apart and eliminating the 1/n term gives the
    reported range (constant sequences are reproduced exactly). A kappa
    for which that overflows double precision is refused.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if math.isinf(kappa):
        raise ValueError("kappa must be finite")
    window = _tail_entries(seq.entries, tail_window)
    lag = max(len(window) // 2, 1)
    try:  # an overflowing power raises, an infinite one (a subnormal kappa) gives inf
        scaled = [(n, n ** (2.0 / kappa) * (v - v_infinity)) for n, v in window]
        coeffs = [(n_b * c_b - n_a * c_a) / (n_b - n_a)
                  for (n_a, c_a), (n_b, c_b) in zip(scaled, scaled[lag:])]
        if not all(map(math.isfinite, coeffs)):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"kappa {kappa!r} is too small for these errors: "
                         "n**(2/kappa) * (v - v_infinity) overflows") from None
    return min(coeffs), max(coeffs)


def build_report(seq: ErrorSequence, kappa: float,
                 v_infinity: float | None = None,
                 tail_window: int | None = None) -> AsymptoticsReport:
    """Full report; v_infinity may be overridden by a known exact value,
    which must be finite. A given tail_window must be at least 3."""
    used = len(_tail_entries(seq.entries, tail_window))
    if v_infinity is not None and not math.isfinite(v_infinity):
        raise ValueError(f"v_infinity must be finite, got {v_infinity!r}")
    v_inf = estimate_v_infinity(seq) if v_infinity is None else v_infinity
    dim_lo, dim_hi = estimate_dimension(seq, v_inf, tail_window)
    co_lo, co_hi = estimate_coefficient(seq, v_inf, kappa, tail_window)
    return AsymptoticsReport(v_inf, dim_lo, dim_hi, kappa, co_lo, co_hi, used)


def triangle_reference() -> ScenarioLimits:
    """Exact triangle limits: v_infinity 0, dimension 1, coefficient 3/4 at
    kappa = 1."""
    return ScenarioLimits(0.0, 1.0, 1.0, 0.75)


def exam_references() -> dict[str, ScenarioLimits]:
    """Published limiting constants for the two worked line scenarios.

    exam1 is the shallow line y = x/4 + 1/4 over uniform [0,1]; exam2 the
    distant line y = x + 4. The conditional exam2 family has no optimal sets
    of n >= 2 points, so its entry is flagged nonexistent.
    """
    rt17 = math.sqrt(17.0)
    return {
        "exam1_constrained": ScenarioLimits(1.0 / 17.0, 2.0, 2.0, 6.0 / 17.0),
        "exam1_conditional": ScenarioLimits((29.0 * rt17 + 229.0) / 3072.0, 2.0, 2.0,
                                            (179.0 - 5.0 * rt17) / 544.0),
        "exam2_constrained": ScenarioLimits(8.0, 2.0, 2.0, 21.0 / 2.0),
        "exam2_conditional": ScenarioLimits(None, None, 2.0, None, exists=False),
    }
