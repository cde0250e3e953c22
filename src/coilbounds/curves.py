"""Simple closed curves and arcs on the framed 4-punctured projection sphere.

Model
-----
The projection sphere minus the four punctures of the two crossing circles
is a 4-punctured sphere S.  S is the quotient of the torus R^2/Z^2 by the
involution v -> -v (the "pillowcase"); the punctures are the images of the
four half-lattice points.  A fundamental strip is

    [0, 1] x [0, 1/2],

with the left and right edges glued (both map to the vertical arc D1
between the punctures of C1), the segment x = 1/2 forming the arc D2, and
the bottom and top edges each folded onto themselves by x ~ 1-x (the arcs
A and A').

The closed curve of slope p/q is the image of the straight torus lines

    q*y - p*x = +-1/4  (mod 1),

which the involution swaps; the arc of slope r/s through the puncture at
the origin is the image of the single line  s*y - r*x = 0 (mod 1).
Straightness keeps every configuration in minimal position, so transverse
crossings counted in one fundamental domain of the quotient *are* the
geometric intersection numbers.  The closed-form operations below are
independent of this picture and are cross-checked against it by
``brute_force_intersection``, which tries every candidate pair of lines
and whose one guard is the crossing cap of ``slopes.check_crossing_count``
on those pairs.  The diagram layer reads that cap from ``slopes`` as well,
so reading a PD code never loads this module.  Every quantity here is an
exact integer, so no function loads ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple

from .slopes import Slope, check_crossing_count

__all__ = [
    "GateEvent",
    "curve_curve_intersection",
    "arc_curve_intersection",
    "brute_force_intersection",
    "trace_gate_events",
    "fold_parameters",
]

# Gate indices for the four vertical lines bounding thin neighborhoods of
# the arcs D1 (x ~ 0) and D2 (x = 1/2); generators hang crossing circles
# and coil braids on these.  Gate g belongs to circle g // 2, and the
# mirror x -> 1 - x of the strip swaps g with g ^ 1.
GATE_C1_EAST, GATE_C1_WEST, GATE_C2_WEST, GATE_C2_EAST = 0, 1, 2, 3


class GateEvent(namedtuple("GateEvent", "gate y eastbound")):
    """One crossing of the traced curve with a gate line, in curve order.

    ``y`` is the height in the strip in units of 1/(4dq), d = 8(|p|+1), so
    events of one curve compare exactly as integers.
    """

    __slots__ = ()


def curve_curve_intersection(s1: Slope, s2: Slope) -> int:
    """Minimal geometric intersection number of two closed curves."""
    return 2 * abs(s1.p * s2.q - s2.p * s1.q)


def arc_curve_intersection(arc_slope: Slope, curve_slope: Slope) -> int:
    """Minimal intersection number of the arc with the closed curve.

    For the arc of slope 1/0 against the curve p/q this is q, realizing the
    lower bound that forbids a twice-punctured disk inside the coil region.
    """
    return abs(arc_slope.p * curve_slope.q - arc_slope.q * curve_slope.p)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
#
# Work in the unit square [0,1) x [0,1), an exact fundamental domain for the
# translation subgroup.  Line families are stored as integer equations
#
#     4*Q*y - 4*P*x = C,
#
# where C runs over +-1 (mod 4) for the two lifts of a closed curve and over
# 0 (mod 4) for the lift of an arc.  Every transverse crossing of two
# families is found by solving the 2x2 integer system for every pair of
# lines, one C from each family; the involution pairs the crossings freely
# (they never hit half-lattice points because the curve offsets are +-1/4),
# so the count on the 4-punctured sphere is exactly half the count on the
# torus.


def _line_constants(P: int, Q: int, residues: tuple[int, ...]) -> list[int]:
    """All C with 4*Q*y - 4*P*x = C meeting [0,1]^2, C in residues mod 4.

    The range of 4*Q*y - 4*P*x over the square is spanned by its corner
    values {0, 4Q} + {0, -4P}."""
    lo = min(0, 4 * Q) + min(0, -4 * P)
    hi = max(0, 4 * Q) + max(0, -4 * P)
    return [c for c in range(lo, hi + 1) if c % 4 in residues]


def _torus_crossings(f1, f2) -> int:
    """The number of transverse crossings of two line families inside
    [0,1)^2; parallel families give none."""
    (p1, q1, cs1), (p2, q2, cs2) = f1, f2
    det = 16 * (p2 * q1 - p1 * q2)
    if det == 0:
        return 0
    # Cramer: x = 4*(c1*q2 - c2*q1)/det, y = 4*(p2*c1 - p1*c2)/det; the
    # sign of det is folded into the numerators so the window is [0, den)
    sign = 4 if det > 0 else -4
    den = abs(det)
    # the c2 halves of both numerators are computed once; each c1 row tries
    # every c2 in one comprehension: 0 <= x1 - x2 < den iff x1 - den < x2 <= x1
    halves = [(sign * c2 * q1, sign * p1 * c2) for c2 in cs2]
    count = 0
    for c1 in cs1:
        x1, y1 = sign * c1 * q2, sign * p2 * c1
        xlo, ylo = x1 - den, y1 - den
        count += len([x2 for x2, y2 in halves
                      if xlo < x2 <= x1 and ylo < y2 <= y1])
    return count


def _line_families(s1: Slope, s2: Slope, mode: str):
    if mode == "curve-curve":
        residues = (1, 3)
    elif mode == "arc-curve":
        residues = (0,)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # every pair of lines is a candidate crossing; _line_constants gives
    # (|P|+Q) constants per residue, plus one for residue 0
    lines1 = (abs(s1.p) + s1.q) * len(residues) + (0 in residues)
    lines2 = (abs(s2.p) + s2.q) * 2
    check_crossing_count(lines1 * lines2, f"the {mode} oracle on {s1} and {s2}")
    fam1 = (s1.p, s1.q, _line_constants(s1.p, s1.q, residues))
    fam2 = (s2.p, s2.q, _line_constants(s2.p, s2.q, (1, 3)))
    return fam1, fam2


def brute_force_intersection(s1: Slope, s2: Slope, mode: str = "curve-curve") -> int:
    """Count minimal-position crossings in the plane-cover picture.

    ``mode`` is ``"curve-curve"`` (both slopes closed curves) or
    ``"arc-curve"`` (first slope an arc through a puncture).  This routine
    is the independent oracle for the closed-form operations; it raises
    ``TooManyCrossings`` before solving anything if its candidate line
    pairs would exceed ``slopes.MAX_CROSSINGS``.
    """
    upstairs = _torus_crossings(*_line_families(s1, s2, mode))
    if upstairs % 2:
        raise AssertionError("torus crossing count must be even")
    return upstairs // 2


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------


def fold_parameters(p: int, q: int) -> tuple[int, list[tuple[int, int]]]:
    """Where the traced line folds: ``(den, [(num, m), ...])``, sorted by x.

    The walk of ``trace_gate_events`` folds where q*y - p*x = 1/4 meets
    y = m/2, at x = (2qm - 1)/(4p) = num/den with den = 4|p| > 0; x lies in
    (0, q] exactly for m = 1..2p when p > 0 and m = 2p+1..0 when p < 0, so
    there are 2|p|.  The fold is on the bottom edge of the strip iff m is
    even.
    """
    sign = 1 if p > 0 else -1
    ms = range(1, 2 * p + 1) if p > 0 else range(0, 2 * p, -1)
    return 4 * abs(p), [(sign * (2 * q * m - 1), m) for m in ms]


def trace_gate_events(p: int, q: int) -> list[GateEvent]:
    """Walk the closed curve of slope p/q once; report its gate crossings.

    Requires q >= 1 and gcd(p, q) = 1.  The walk follows the torus line
    q*y - p*x = 1/4 for x in (0, q], folding into the strip; it crosses
    each gate line exactly q times (4q events total), and the events come
    back in the cyclic order in which the curve meets them.  Where the
    line runs through the upper half of the strip, the strip is mirrored
    (x -> 1 - x) and the curve heads west.

    The order is fixed: event 4m leaves C1's thin region, 4m+1 enters
    C2's, 4m+2 leaves it and 4m+3 enters C1's.  So the entering events are
    the odd ones, and event i is at a C2 gate exactly when i % 4 is 1 or 2.

    The gates sit 1/d from the arcs, d = 8(|p|+1), closer than any fold
    point (folds sit at distance >= 1/(4|p|) from x = 0 and x = 1/2).  At
    x = m + a/d the line's height, scaled by 4dq, is the integer
    r = (4p(md+a) + d) mod 4dq, and it folds at r in {0, 2dq}.
    """
    d = 8 * (abs(p) + 1)
    n = 4 * d * q
    half = n // 2
    # gate offsets a, west to east, with the gate each one is when eastbound
    gates = ((1, GATE_C1_EAST), (d // 2 - 1, GATE_C2_WEST),
             (d // 2 + 1, GATE_C2_EAST), (d - 1, GATE_C1_WEST))
    events = []
    for m in range(q):
        for a, gate in gates:
            r = (4 * p * (m * d + a) + d) % n
            if r == 0 or r == half:
                raise AssertionError("a gate sits on a fold point")
            if r > half:
                events.append(GateEvent(gate ^ 1, n - r, False))
            else:
                events.append(GateEvent(gate, r, True))
    return events


def is_entering_event(ev: GateEvent) -> bool:
    """Whether the curve is entering a circle's thin region at this event."""
    return ev.eastbound == (ev.gate in (GATE_C1_WEST, GATE_C2_WEST))


def circle_passages(events: list[GateEvent]) -> tuple[list[tuple[int, int]], ...]:
    """Pair consecutive gate events into strand passages through C1 and C2.

    Returns, for each circle, the list of (west_index, east_index) into
    ``events``, sorted bottom-to-top by strand height.  A passage enters a
    circle's thin region through one gate and leaves through the other;
    fold points never occur inside the regions, so the two events are
    always adjacent along the curve, and the strands cross each region
    without meeting, so their order is the same at both gates.
    """
    n = len(events)
    passages: tuple[list, list] = ([], [])
    for i, ev in enumerate(events):
        if not is_entering_event(ev):
            continue
        j = (i + 1) % n
        if events[j].gate != ev.gate ^ 1 or is_entering_event(events[j]):
            raise AssertionError("gate events do not pair into passages")
        passages[ev.gate // 2].append((i, j) if ev.eastbound else (j, i))
    for plist in passages:
        plist.sort(key=lambda pair: events[pair[0]].y)
    return passages
