import collections
import math

import numpy as np
import pytest

import curvequant.allocation as allocation
from curvequant.allocation import Allocation, semicircle_allocate, triangle_allocate
from curvequant.cli import LIMITS
from curvequant.closed_form import semicircle_error
from scalar_reference import semicircle_allocate_exhaustive, triangle_allocate_exhaustive


def test_semicircle_allocate_published():
    assert semicircle_allocate(50).parts[0] == 20
    assert semicircle_allocate(80).parts[0] == 32
    assert semicircle_allocate(1200).parts[0] == 468
    assert semicircle_allocate(2000).parts[0] == 779
    assert semicircle_allocate(3000).parts[0] == 1168


def test_semicircle_exhaustive_published():
    assert semicircle_allocate_exhaustive(50).parts[0] == 20
    assert semicircle_allocate_exhaustive(1200).parts[0] == 468


def test_semicircle_exhaustive_small():
    a = semicircle_allocate_exhaustive(7)
    want = min(range(2, 8), key=lambda k: semicircle_error(k, 7 - k + 2))
    assert a.parts[0] == want
    assert a.objective == pytest.approx(semicircle_error(want, 7 - want + 2), abs=0)


def test_semicircle_local_equals_exhaustive():
    for n in range(3, 501):
        assert semicircle_allocate(n).objective == semicircle_allocate_exhaustive(n).objective


def test_semicircle_allocate_is_a_local_minimum_over_the_cli_range():
    # f(k - 1) > f(k) <= f(k + 1): ties go to the smaller diameter count
    n = np.arange(3, LIMITS["n"] + 1)
    k = semicircle_allocate(n).parts[0]
    fk = semicircle_error(k, n - k + 2)
    below = np.maximum(k - 1, 2)  # k = 2 has no lower neighbour
    above = np.minimum(k + 1, n)  # nor k = n an upper one
    assert np.all((k == 2) | (semicircle_error(below, n - below + 2) > fk))
    assert np.all((k == n) | (semicircle_error(above, n - above + 2) >= fk))


def test_semicircle_allocate_makes_at_most_three_evaluations(monkeypatch):
    # each call records the (n, n1) pairs it evaluates; a scalar call
    # evaluates an array of one, a column call only the n still moving
    calls = []

    def counted(n1, n2):
        calls.append(list(zip((n1 + n2 - 2).tolist(), n1.tolist())))
        return semicircle_error(n1, n2)

    monkeypatch.setattr(allocation, "semicircle_error", counted)
    semicircle_allocate(np.arange(3, LIMITS["n"] + 1))
    evaluated = collections.defaultdict(list)
    for call in calls:
        for n, n1 in call:
            evaluated[n].append(n1)
    assert sorted(evaluated) == list(range(3, LIMITS["n"] + 1))
    for n, splits in evaluated.items():
        assert len(splits) <= 3, n
        assert len(set(splits)) == len(splits), n
    for n in (3, 4, 5, 50, 1200, LIMITS["n"]):
        calls.clear()
        semicircle_allocate(n)
        assert [len(call) for call in calls] == [1] * len(calls), n
        assert len(calls) <= 3, n
        assert len(set(map(tuple, calls))) == len(calls), n


@pytest.mark.parametrize("n", [2000, 5000, 10_000])
def test_semicircle_allocate_equals_exhaustive_at_large_n(n):
    assert semicircle_allocate(n) == semicircle_allocate_exhaustive(n)


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
def test_semicircle_error_is_strictly_convex_in_the_split(n):
    # the walk's stopping rule is exact only because of this
    k = np.arange(2, n + 1)
    f = semicircle_error(k, n - k + 2)
    second = f[:-2] - 2.0 * f[1:-1] + f[2:]
    assert second.min() > 0.0


def test_semicircle_split_tends_to_one_to_half_pi():
    # The leading terms 1/a^2 + pi^3/(8 b^2) of the objective, in a = k - 1
    # diameter and b = n - k + 1 arc gaps, are least at b/a = pi/2; the next
    # term of h(b) moves that minimiser by a relative O(b^-2), about 1e-8
    # here. By convexity the integer minimiser a lies within one gap of the
    # continuous one, and one gap moves b/a = n/a - 1 by less than
    # n/(a(a - 1)): 6.6e-4 at n = 10000, where b/a = 1.570694 is measured.
    n = 10_000
    n1, n2 = semicircle_allocate(n).parts
    a, b = n1 - 1, n2 - 1
    assert a + b == n
    bound = n / (a * (a - 1)) + 1e-6
    assert abs(b / a - math.pi / 2.0) < bound
    assert bound < 7e-4


def test_semicircle_parts_consistent():
    for n in (3, 10, 47):
        parts = semicircle_allocate(n).parts
        assert parts[0] + parts[1] == n + 2
        assert parts[0] >= 2 and parts[1] >= 2


def test_triangle_allocate_examples():
    assert triangle_allocate(6).parts == (3, 3, 3)
    assert triangle_allocate(4).parts == (3, 2, 2)
    assert triangle_allocate(5).parts == (3, 3, 2)


def test_triangle_exhaustive_objectives():
    assert triangle_allocate_exhaustive(6).objective == pytest.approx(1 / 48, abs=0)
    assert triangle_allocate_exhaustive(4).objective == pytest.approx(1 / 16, abs=0)
    assert triangle_allocate_exhaustive(17).objective == pytest.approx(
        triangle_allocate(17).objective, rel=1e-14)


def test_triangle_local_equals_exhaustive_and_balanced():
    for n in range(3, 501):
        alloc = triangle_allocate(n)
        parts = alloc.parts
        assert max(parts) - min(parts) <= 1
        assert sum(p - 1 for p in parts) == n
        assert alloc.objective == pytest.approx(
            triangle_allocate_exhaustive(n).objective, rel=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        semicircle_allocate(2)
    with pytest.raises(ValueError, match="need n >= 3"):
        semicircle_allocate_exhaustive(2)
    with pytest.raises(ValueError):
        triangle_allocate_exhaustive(2)


def test_allocation_is_value_object():
    a = Allocation((3, 2), 0.5)
    assert a.parts == (3, 2)
    assert a.objective == 0.5
