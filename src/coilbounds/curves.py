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
``brute_force_intersection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleCapExceeded, UnsupportedTwistCurve
from .slopes import Slope, reduce_slope

__all__ = [
    "FramedCurve",
    "GateEvent",
    "LatticeTrace",
    "curve_coordinates",
    "curve_curve_intersection",
    "arc_curve_intersection",
    "brute_force_intersection",
    "lattice_trace",
    "dehn_twist",
    "trace_gate_events",
    "fold_parameters",
    "DEFAULT_ORACLE_CAP",
]

DEFAULT_ORACLE_CAP = 12

INFINITY = Slope(1, 0)

# Gate indices for the four vertical lines bounding thin neighborhoods of
# the arcs D1 (x ~ 0) and D2 (x = 1/2); generators hang crossing circles
# and coil braids on these.
GATE_C1_EAST, GATE_C1_WEST, GATE_C2_WEST, GATE_C2_EAST = 0, 1, 2, 3
GATES_OF_CIRCLE = ({GATE_C1_EAST, GATE_C1_WEST}, {GATE_C2_WEST, GATE_C2_EAST})


@dataclass(frozen=True)
class FramedCurve:
    """A slope together with its intersection counts with the framing arcs.

    ``tick_counts`` lists crossings with the arcs D1, D2, A, A': the curve
    p/q meets each D-arc q times and each A-arc |p| times.
    """

    slope: Slope
    tick_counts: tuple[int, int, int, int]


@dataclass(frozen=True)
class GateEvent:
    """One crossing of the traced curve with a gate line, in curve order."""

    gate: int
    y: Fraction
    eastbound: bool


def curve_coordinates(s: Slope) -> FramedCurve:
    """Tick counts of the connect-the-dots realization of the curve s."""
    d_ticks, a_ticks = s.q, abs(s.p)
    return FramedCurve(s, (d_ticks, d_ticks, a_ticks, a_ticks))


def curve_curve_intersection(s1: Slope, s2: Slope) -> int:
    """Minimal geometric intersection number of two closed curves."""
    return 2 * abs(s1.p * s2.q - s2.p * s1.q)


def arc_curve_intersection(arc_slope: Slope, curve_slope: Slope) -> int:
    """Minimal intersection number of the arc with the closed curve.

    For the arc of slope 1/0 against the curve p/q this is q, realizing the
    lower bound that forbids a twice-punctured disk inside the coil region.
    """
    return abs(arc_slope.p * curve_slope.q - arc_slope.q * curve_slope.p)


def dehn_twist(s: Slope, about: Slope = INFINITY, count: int = 1) -> Slope:
    """Apply ``count`` full Dehn twists about the slope-1/0 curve."""
    if about != INFINITY:
        raise UnsupportedTwistCurve(f"twisting about {about} is not supported")
    return reduce_slope(s.p + count * s.q, s.q)


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
# families is found by solving the 2x2 integer system; the involution pairs
# the crossings freely (they never hit half-lattice points because the
# curve offsets are +-1/4), so the count on the 4-punctured sphere is
# exactly half the count on the torus.


def _line_constants(P: int, Q: int, residues: tuple[int, ...]) -> list[int]:
    """All C with 4*Q*y - 4*P*x = C meeting [0,1]^2, C in residues mod 4.

    The range of 4*Q*y - 4*P*x over the square is spanned by its corner
    values {0, 4Q} + {0, -4P}."""
    lo = min(0, 4 * Q) + min(0, -4 * P)
    hi = max(0, 4 * Q) + max(0, -4 * P)
    return [c for c in range(lo, hi + 1) if c % 4 in residues]


def _count_torus_crossings(f1, f2) -> int:
    (p1, q1, cs1), (p2, q2, cs2) = f1, f2
    det = 16 * (p2 * q1 - p1 * q2)
    if det == 0:
        return 0
    total = 0
    for c1 in cs1:
        for c2 in cs2:
            # Cramer: x = 4*(c1*q2 - c2*q1)/det, y = 4*(p2*c1 - p1*c2)/det
            xn = 4 * (c1 * q2 - c2 * q1)
            yn = 4 * (p2 * c1 - p1 * c2)
            if det > 0:
                if 0 <= xn < det and 0 <= yn < det:
                    total += 1
            else:
                if det < xn <= 0 and det < yn <= 0:
                    total += 1
    return total


def _line_families(s1: Slope, s2: Slope, mode: str, cap: int):
    for s in (s1, s2):
        if max(abs(s.p), s.q) > cap:
            raise OracleCapExceeded(f"slope {s} exceeds oracle cap {cap}")
    if mode == "curve-curve":
        fam1 = (s1.p, s1.q, _line_constants(s1.p, s1.q, (1, 3)))
    elif mode == "arc-curve":
        fam1 = (s1.p, s1.q, _line_constants(s1.p, s1.q, (0,)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    fam2 = (s2.p, s2.q, _line_constants(s2.p, s2.q, (1, 3)))
    return fam1, fam2


def brute_force_intersection(
    s1: Slope,
    s2: Slope,
    mode: str = "curve-curve",
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Count minimal-position crossings in the plane-cover picture.

    ``mode`` is ``"curve-curve"`` (both slopes closed curves) or
    ``"arc-curve"`` (first slope an arc through a puncture).  This routine
    is the independent oracle for the closed-form operations; it refuses
    slopes with |p| or q above ``cap``.
    """
    fam1, fam2 = _line_families(s1, s2, mode, cap)
    upstairs = _count_torus_crossings(fam1, fam2)
    if upstairs % 2:
        raise AssertionError("torus crossing count must be even")
    return upstairs // 2


@dataclass(frozen=True)
class LatticeTrace:
    """Straight-line representatives of two configurations in the plane
    cover, with their transverse crossings inside one fundamental square.

    ``families`` holds the integer lines 4*Q*y - 4*P*x = C as (P, Q, C);
    straightness keeps every pair in minimal position, and the involution
    pairs the crossings freely, so the count on the 4-punctured sphere is
    ``len(crossings) // 2``.
    """

    families: tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int, int], ...]]
    crossings: tuple[tuple[Fraction, Fraction], ...]

    @property
    def count(self) -> int:
        return len(self.crossings) // 2


def lattice_trace(
    s1: Slope,
    s2: Slope,
    mode: str = "curve-curve",
    cap: int = DEFAULT_ORACLE_CAP,
) -> LatticeTrace:
    """The inspectable version of ``brute_force_intersection``."""
    fam1, fam2 = _line_families(s1, s2, mode, cap)
    (p1, q1, cs1), (p2, q2, cs2) = fam1, fam2
    det = 16 * (p2 * q1 - p1 * q2)
    points = []
    if det != 0:
        for c1 in cs1:
            for c2 in cs2:
                x = Fraction(4 * (c1 * q2 - c2 * q1), det)
                y = Fraction(4 * (p2 * c1 - p1 * c2), det)
                if 0 <= x < 1 and 0 <= y < 1:
                    points.append((x, y))
    return LatticeTrace(
        families=(
            tuple((p1, q1, c) for c in cs1),
            tuple((p2, q2, c) for c in cs2),
        ),
        crossings=tuple(sorted(points)),
    )


# ---------------------------------------------------------------------------
# Curve tracing
# ---------------------------------------------------------------------------


def _gate_positions(eps: Fraction) -> dict[Fraction, int]:
    half = Fraction(1, 2)
    return {
        eps: GATE_C1_EAST,
        1 - eps: GATE_C1_WEST,
        half - eps: GATE_C2_WEST,
        half + eps: GATE_C2_EAST,
    }


def gate_epsilon(p: int, q: int) -> Fraction:
    """Half-width of the gate regions; small enough that no fold point of
    the slope-p/q curve lands inside them (folds sit at distance >= 1/(4|p|)
    from x = 0 and x = 1/2)."""
    return Fraction(1, 8 * (abs(p) + 1))


def fold_parameters(p: int, q: int) -> list[Fraction]:
    """Sorted parameters x in (0, q] where the traced line folds.

    The walk of ``trace_gate_events`` folds where q*y - p*x = 1/4 meets
    y in Z/2, at x = (2qm - 1)/(4p); x lies in (0, q] exactly for
    m = 1..2p when p > 0 and m = 2p+1..0 when p < 0, so there are 2|p|.
    """
    ms = range(1, 2 * p + 1) if p > 0 else range(0, 2 * p, -1)
    return [Fraction(2 * q * m - 1, 4 * p) for m in ms]


def trace_gate_events(p: int, q: int) -> list[GateEvent]:
    """Walk the closed curve of slope p/q once; report its gate crossings.

    Requires q >= 1 and gcd(p, q) = 1.  The walk follows the torus line
    q*y - p*x = 1/4 for x in (0, q], folding into the strip; it crosses
    each gate line exactly q times (4q events total), and the events come
    back in the cyclic order in which the curve meets them.  Where the
    line runs through the upper half of the strip, the strip is mirrored
    (x -> 1 - x) and the curve heads west.
    """
    gates = _gate_positions(gate_epsilon(p, q))
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    events = []
    west_to_east = sorted(gates)
    for m in range(q):
        for g in west_to_east:
            ymod = ((p * (m + g) + quarter) / q) % 1
            if ymod == 0 or ymod == half:
                raise AssertionError("a gate sits on a fold point")
            if ymod > half:
                events.append(GateEvent(gates[1 - g], 1 - ymod, False))
            else:
                events.append(GateEvent(gates[g], ymod, True))
    if len(events) != 4 * q:
        raise AssertionError(f"traced {len(events)} gate events, expected {4 * q}")
    return events


def is_entering_event(ev: GateEvent) -> bool:
    """Whether the curve is entering a circle's thin region at this event."""
    if ev.gate == GATE_C1_EAST:
        return not ev.eastbound
    if ev.gate == GATE_C1_WEST:
        return ev.eastbound
    if ev.gate == GATE_C2_WEST:
        return ev.eastbound
    return not ev.eastbound


def circle_passages(events: list[GateEvent]) -> tuple[list[tuple[int, int]], ...]:
    """Pair consecutive gate events into strand passages through C1 and C2.

    Returns, for each circle, the list of (enter_index, exit_index) into
    ``events``, sorted bottom-to-top by strand height.  A passage enters a
    circle's thin region through one gate and leaves through the other;
    fold points never occur inside the regions, so the two events are
    always adjacent along the curve.
    """
    n = len(events)
    passages: tuple[list, list] = ([], [])
    for i, ev in enumerate(events):
        if not is_entering_event(ev):
            continue
        j = (i + 1) % n
        nxt = events[j]
        circle = 0 if ev.gate in GATES_OF_CIRCLE[0] else 1
        if nxt.gate not in GATES_OF_CIRCLE[circle] or is_entering_event(nxt):
            raise AssertionError("gate events do not pair into passages")
        passages[circle].append((i, j))
    for circle, plist in enumerate(passages):
        plist.sort(key=lambda pair: events[pair[0]].y)
    return passages
