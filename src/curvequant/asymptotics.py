"""Limit estimation from distortion sequences: residual value V-infinity,
quantization dimension, and the kappa-dimensional coefficient.

All estimators work on a finite tail window of the sequence; liminf/limsup
style quantities are proxied by (min, max) over that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ErrorSequence:
    """Distortion values v indexed by point count n, decreasing in n."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        entries = tuple((int(n), float(v)) for n, v in self.entries)
        if not entries:
            raise ValueError("sequence is empty")
        for (n0, v0), (n1, v1) in zip(entries, entries[1:]):
            if n1 <= n0:
                raise ValueError("point counts must be strictly increasing")
            if v1 > v0 + 1e-12 * max(1.0, abs(v0)):
                raise ValueError(f"errors must be nonincreasing (v({n1}) > v({n0}))")
        for n, v in entries:
            if not (math.isfinite(v) and v > 0):
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
    """Published limiting constants for one scenario family."""

    v_infinity: float | None
    dimension: float | None
    kappa: float
    coefficient: float | None
    exists: bool = True


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb], where f changes sign, by Brent's method.

    Follows scipy.optimize.brentq (its C routine) iterate for iterate, so
    equal tolerances give the same float.
    """
    xpre, xcur, fpre, fcur = xa, xb, f(xa), f(xb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def _power_fit3(ns, vs):
    """Fit v = V + C * n**(-s) through three points, or None if singular."""
    n1, n2, n3 = ns
    v1, v2, v3 = vs
    if not (v1 > v2 > v3):
        return None

    def g(s):
        r1, r2, r3 = n1 ** (-s), n2 ** (-s), n3 ** (-s)
        return (v1 - v2) * (r2 - r3) - (v2 - v3) * (r1 - r2)

    grid = np.logspace(-3, 1.5, 200)
    vals = [g(s) for s in grid]
    s_star = None
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            s_star = float(grid[i])
            break
        if vals[i] * vals[i + 1] < 0.0:
            s_star = _brentq(g, float(grid[i]), float(grid[i + 1]), xtol=1e-15, rtol=8.9e-16)
            break
    if s_star is None:
        return None
    r1, r3 = n1 ** (-s_star), n3 ** (-s_star)
    c = (v1 - v3) / (r1 - r3)
    return v3 - c * r3, c, s_star


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
    raise ValueError("tail is not strictly decreasing enough to fit a limit")


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
    reported range (constant sequences are reproduced exactly).
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if math.isinf(kappa):
        raise ValueError("kappa must be finite")
    window = _tail_entries(seq.entries, tail_window)
    scaled = [(n, n ** (2.0 / kappa) * (v - v_infinity)) for n, v in window]
    lag = max(len(scaled) // 2, 1)
    coeffs = [(n_b * c_b - n_a * c_a) / (n_b - n_a)
              for (n_a, c_a), (n_b, c_b) in zip(scaled, scaled[lag:])]
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


@dataclass(frozen=True)
class TriangleReference:
    dimension: float
    coefficient: float

    def error_bracket(self, n: int) -> tuple[float, float]:
        """Bounds on the n-point triangle distortion from the balanced-split
        values at the nearest multiples of three."""
        if n < 3:
            raise ValueError("need n >= 3")
        level = n // 3
        return 1.0 / (12.0 * (level + 1) ** 2), 1.0 / (12.0 * level ** 2)


def triangle_reference() -> TriangleReference:
    """Exact triangle limits: dimension 1, coefficient 3/4 at kappa = 1."""
    return TriangleReference(dimension=1.0, coefficient=0.75)


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
