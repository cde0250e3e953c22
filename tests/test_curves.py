from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from coilbounds.curves import (
    GATE_C1_EAST,
    GATE_C1_WEST,
    GATE_C2_EAST,
    GATE_C2_WEST,
    arc_curve_intersection,
    brute_force_intersection,
    circle_passages,
    curve_curve_intersection,
    fold_parameters,
    is_entering_event,
    trace_gate_events,
)
from coilbounds.curves import _line_families, _torus_crossings
from coilbounds.errors import TooManyCrossings
from coilbounds.slopes import Slope, reduce_slope

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
    # the crossing cap on the candidate line pairs is the oracle's only guard
    for s in (Slope(1, 13), Slope(14, 5)):
        assert brute_force_intersection(s, ZERO) == curve_curve_intersection(s, ZERO)
        assert brute_force_intersection(s, ZERO, "arc-curve") == arc_curve_intersection(s, ZERO)
    with pytest.raises(TooManyCrossings):
        brute_force_intersection(Slope(1, 10**6), ZERO)
    with pytest.raises(ValueError):
        brute_force_intersection(INF, ZERO, mode="nope")


def test_oracle_equivalence_with_negatives_and_impropers():
    slopes = reduced_slopes(6, negatives=True)
    for a in slopes:
        for b in slopes:
            assert brute_force_intersection(a, b, "curve-curve") == \
                curve_curve_intersection(a, b)
            assert brute_force_intersection(a, b, "arc-curve") == \
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


@given(
    p=st.integers(-30, 30),
    q=st.integers(1, 30),
    m=st.integers(-5, 5),
)
def test_twist_invariance(p, q, m):
    if gcd(abs(p), q) != 1:
        return
    # m full Dehn twists about the 1/0 curve take p/q to (p + mq)/q
    twisted = reduce_slope(p + m * q, q)
    assert curve_curve_intersection(INF, twisted) == \
        curve_curve_intersection(INF, Slope(p, q))


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
    assert brute_force_intersection(a, b, "curve-curve") == \
        curve_curve_intersection(a, b)
    assert brute_force_intersection(a, b, "arc-curve") == \
        arc_curve_intersection(a, b)


def _oracle_slopes(qmax):
    """1/0, 0/1 and the reduced p/q with 1 <= q <= qmax and |p| <= 2q."""
    return st.one_of(
        st.sampled_from([INF, ZERO]),
        st.integers(1, qmax).flatmap(
            lambda q: st.integers(-2 * q, 2 * q)
            .filter(lambda p: gcd(abs(p), q) == 1)
            .map(lambda p: Slope(p, q))
        ),
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=_oracle_slopes(30), b=_oracle_slopes(30))
def test_oracle_matches_closed_form_past_twelve(a, b):
    assert brute_force_intersection(a, b, "curve-curve") == curve_curve_intersection(a, b)
    assert brute_force_intersection(a, b, "arc-curve") == arc_curve_intersection(a, b)


def torus_crossings_by_pairs(f1, f2):
    """Reference for ``curves._torus_crossings``: Cramer's rule on every
    pair of lines, one pair at a time, in the order c1 then c2; returns the
    crossings' numerators over their common denominator 16|p2*q1 - p1*q2|."""
    (p1, q1, cs1), (p2, q2, cs2) = f1, f2
    det = 16 * (p2 * q1 - p1 * q2)
    if det == 0:
        return []
    sign = 4 if det > 0 else -4
    den = abs(det)
    points = []
    for c1 in cs1:
        for c2 in cs2:
            xn = sign * (c1 * q2 - c2 * q1)
            yn = sign * (p2 * c1 - p1 * c2)
            if 0 <= xn < den and 0 <= yn < den:
                points.append((xn, yn))
    return points


def _slopes_up_to(cap):
    """1/0, 0/1 and the reduced p/q with 1 <= q <= cap and |p| <= cap."""
    return st.one_of(
        st.sampled_from([INF, ZERO]),
        st.integers(1, cap).flatmap(
            lambda q: st.integers(-cap, cap)
            .filter(lambda p: gcd(abs(p), q) == 1)
            .map(lambda p: Slope(p, q))
        ),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_slopes_up_to(30), b=_slopes_up_to(30), mode=st.sampled_from(["curve-curve", "arc-curve"]))
def test_torus_crossings_match_pairwise_reference(a, b, mode):
    """Every candidate line pair is tried: as many crossings as the pairwise
    reference finds."""
    families = _line_families(a, b, mode)
    assert _torus_crossings(*families) == len(torus_crossings_by_pairs(*families))


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
    # over the positive denominator 4|p| its numerator is +-(2qm - 1)
    for q in range(1, 31):
        for p in range(-3 * q, 3 * q + 1):
            if p == 0 or gcd(abs(p), q) != 1:
                continue
            bound = 2 * abs(p) * q + 2
            den = 4 * abs(p)
            scan = sorted(
                (num, m)
                for m in range(-bound, bound + 1)
                for num in [(2 * q * m - 1) * den // (4 * p)]
                if 0 < num <= q * den
            )
            assert fold_parameters(p, q) == (den, scan), (p, q)
            for num, m in scan:
                assert Fraction(num, den) == Fraction(2 * q * m - 1, 4 * p)
                # the fold's height (p*x + 1/4)/q is m/2
                assert (p * Fraction(num, den) + Fraction(1, 4)) / q == Fraction(m, 2)


def test_trace_gate_events_match_fraction_walk():
    # the definition: walk x = m + g over the gates g in (0, 1), fold
    # q*y - p*x = 1/4 into the strip, mirror where y mod 1 > 1/2
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for q in range(1, 41):
        for p in range(-2 * q, 2 * q + 1):
            if p == 0 or gcd(abs(p), q) != 1:
                continue
            eps = Fraction(1, 8 * (abs(p) + 1))
            gates = {eps: GATE_C1_EAST, half - eps: GATE_C2_WEST,
                     half + eps: GATE_C2_EAST, 1 - eps: GATE_C1_WEST}
            want = []
            for m in range(q):
                for g in sorted(gates):
                    ymod = ((p * (m + g) + quarter) / q) % 1
                    if ymod > half:
                        want.append((gates[1 - g], 1 - ymod, False))
                    else:
                        want.append((gates[g], ymod, True))
            scale = 32 * (abs(p) + 1) * q
            got = [(ev.gate, Fraction(ev.y, scale), ev.eastbound)
                   for ev in trace_gate_events(p, q)]
            assert got == want, (p, q)


def test_trace_gate_events_order():
    # gen_double_coil joins each even event to the next one as a band, so
    # the order it reads is pinned here: 4m leaves C1's region, 4m+1 enters
    # C2's, 4m+2 leaves it and 4m+3 enters C1's
    slopes = [(p, q) for q in range(2, 61) for p in range(1, q) if gcd(p, q) == 1]
    assert len(slopes) == 1101
    for p, q in slopes:
        for i, ev in enumerate(trace_gate_events(p, q)):
            assert is_entering_event(ev) == (i % 2 == 1), (p, q, i)
            assert (ev.gate // 2 == GATE_C2_WEST // 2) == (i % 4 in (1, 2)), (p, q, i)


def test_circle_passages_run_west_to_east():
    for p, q in [(1, 2), (2, 5), (-3, 5), (5, 8), (7, 3), (211, 420)]:
        events = trace_gate_events(p, q)
        c1, c2 = circle_passages(events)
        sides = ((c1, (GATE_C1_WEST, GATE_C1_EAST)), (c2, (GATE_C2_WEST, GATE_C2_EAST)))
        for side, gates in sides:
            assert {(events[w].gate, events[e].gate) for w, e in side} == {gates}
        for w, e in c1 + c2:
            # one step along the curve, eastward or westward
            step = 1 if events[w].eastbound else -1
            assert (w + step) % len(events) == e
