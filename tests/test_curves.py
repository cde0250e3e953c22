from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from coilbounds.curves import (
    arc_curve_intersection,
    brute_force_intersection,
    circle_passages,
    curve_coordinates,
    curve_curve_intersection,
    dehn_twist,
    fold_parameters,
    lattice_trace,
    trace_gate_events,
)
from coilbounds.errors import OracleCapExceeded, UnsupportedTwistCurve
from coilbounds.slopes import Slope

INF = Slope(1, 0)
ZERO = Slope(0, 1)


def reduced_slopes(cap, include_inf=True, negatives=False):
    out = [INF] if include_inf else []
    out.append(ZERO)
    lo = -cap if negatives else 1
    for q in range(1, cap + 1):
        for p in range(lo, cap + 1):
            if p != 0 and gcd(abs(p), q) == 1 and not (q == 1 and p == 0):
                out.append(Slope(p, q))
    return out


def test_tick_counts():
    assert curve_coordinates(Slope(2, 5)).tick_counts == (5, 5, 2, 2)
    assert curve_coordinates(ZERO).tick_counts == (1, 1, 0, 0)
    assert curve_coordinates(INF).tick_counts == (0, 0, 1, 1)


def test_curve_curve_examples():
    assert curve_curve_intersection(INF, ZERO) == 2
    assert curve_curve_intersection(Slope(2, 5), Slope(2, 5)) == 0
    assert curve_curve_intersection(INF, Slope(2, 5)) == 10


def test_arc_curve_examples():
    assert arc_curve_intersection(INF, Slope(2, 5)) == 5
    assert arc_curve_intersection(INF, ZERO) == 1
    assert arc_curve_intersection(Slope(3, 7), Slope(3, 7)) == 0


def test_oracle_examples():
    assert brute_force_intersection(INF, Slope(2, 5), "curve-curve") == 10
    assert brute_force_intersection(ZERO, Slope(1, 2), "curve-curve") == 2
    assert brute_force_intersection(Slope(1, 1), Slope(1, 1), "curve-curve") == 0
    assert brute_force_intersection(INF, Slope(2, 5), "arc-curve") == 5
    assert brute_force_intersection(INF, ZERO, "arc-curve") == 1


def test_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        brute_force_intersection(Slope(1, 13), ZERO, cap=12)
    with pytest.raises(OracleCapExceeded):
        brute_force_intersection(Slope(14, 5), ZERO, cap=12)
    with pytest.raises(ValueError):
        brute_force_intersection(INF, ZERO, mode="nope")


def test_oracle_equivalence_with_negatives_and_impropers():
    slopes = reduced_slopes(6, negatives=True)
    for a in slopes:
        for b in slopes:
            assert brute_force_intersection(a, b, "curve-curve", cap=6) == \
                curve_curve_intersection(a, b)
            assert brute_force_intersection(a, b, "arc-curve", cap=6) == \
                arc_curve_intersection(a, b)


def test_intersection_symmetry():
    slopes = reduced_slopes(8)
    for a in slopes:
        for b in slopes:
            assert curve_curve_intersection(a, b) == curve_curve_intersection(b, a)
            assert arc_curve_intersection(a, b) == arc_curve_intersection(b, a)


def test_arc_bound_and_equality():
    """The slope-1/0 arc meets the curve p/q at least (exactly) q times."""
    for q in range(2, 101):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert arc_curve_intersection(INF, Slope(p, q)) == q


def test_dehn_twist_examples():
    assert dehn_twist(Slope(2, 5), count=1) == Slope(7, 5)
    assert dehn_twist(Slope(2, 5), count=0) == Slope(2, 5)
    assert dehn_twist(Slope(2, 5), count=-1) == Slope(-3, 5)
    with pytest.raises(UnsupportedTwistCurve):
        dehn_twist(Slope(2, 5), about=ZERO, count=1)


@given(
    p=st.integers(-30, 30),
    q=st.integers(1, 30),
    m=st.integers(-5, 5),
)
def test_twist_invariance(p, q, m):
    if gcd(abs(p), q) != 1:
        return
    s = Slope(p, q)
    assert curve_curve_intersection(INF, dehn_twist(s, count=m)) == \
        curve_curve_intersection(INF, s)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.integers(-8, 8), q1=st.integers(0, 8),
    p2=st.integers(-8, 8), q2=st.integers(0, 8),
)
def test_oracle_matches_closed_form(p1, q1, p2, q2):
    def mk(p, q):
        if q == 0:
            return INF
        if p == 0:
            return ZERO
        if gcd(abs(p), q) != 1:
            return None
        return Slope(p, q)

    a, b = mk(p1, q1), mk(p2, q2)
    if a is None or b is None:
        return
    assert brute_force_intersection(a, b, "curve-curve", cap=8) == \
        curve_curve_intersection(a, b)
    assert brute_force_intersection(a, b, "arc-curve", cap=8) == \
        arc_curve_intersection(a, b)


def test_lattice_trace_matches_count():
    slopes = reduced_slopes(5)
    for a in slopes:
        for b in slopes:
            for mode in ("curve-curve", "arc-curve"):
                trace = lattice_trace(a, b, mode, cap=5)
                assert len(trace.crossings) % 2 == 0
                assert trace.count == brute_force_intersection(a, b, mode, cap=5)
    trace = lattice_trace(INF, Slope(2, 5))
    assert len(trace.families[0]) == 2  # two vertical lifts of the 1/0 curve
    assert all(0 <= x < 1 and 0 <= y < 1 for x, y in trace.crossings)


def test_trace_event_counts():
    for p, q in [(1, 2), (2, 5), (3, 5), (5, 8), (1, 9), (211, 420)]:
        events = trace_gate_events(p, q)
        assert len(events) == 4 * q
        passages = circle_passages(events)
        assert [len(side) for side in passages] == [q, q]
        for side in passages:
            heights = [events[i].y for i, _ in side]
            assert heights == sorted(heights)
            assert len(set(heights)) == q


def test_fold_parameters_match_scan():
    # brute force: every m whose fold x = (2qm - 1)/(4p) lands in (0, q];
    # with n = 2qm - 1 and d = 4p that is 0 < n*d <= q*d*d
    for q in range(1, 31):
        for p in range(-3 * q, 3 * q + 1):
            if p == 0 or gcd(abs(p), q) != 1:
                continue
            bound = 2 * abs(p) * q + 2
            d = 4 * p
            scan = sorted(
                Fraction(2 * q * m - 1, d)
                for m in range(-bound, bound + 1)
                if 0 < (2 * q * m - 1) * d <= q * d * d
            )
            assert fold_parameters(p, q) == scan, (p, q)
