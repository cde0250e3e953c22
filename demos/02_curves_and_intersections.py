#!/usr/bin/env python3
"""Curves on the 4-punctured sphere and their intersection numbers.

The projection sphere minus the four punctures of the crossing circles
carries a framing: the curve 1/0 separates the two circles' disks, the
curve 0/1 encircles the arc joining them.  A curve of slope p/q crosses
each of the two vertical framing arcs q times and each horizontal arc |p|
times ("q ticks and p ticks").

Closed forms:
    i(curve p1/q1, curve p2/q2) = 2 |p1 q2 - p2 q1|
    i(arc r/s,     curve p/q)   =   |r q - s p|

A brute-force oracle recounts both by lifting everything to straight
lines in the plane cover and counting transverse crossings in one
fundamental square; straight representatives are automatically in minimal
position.
"""

from coilbounds import (
    Slope,
    arc_curve_intersection,
    brute_force_intersection,
    curve_curve_intersection,
    curve_svg,
    reduce_slope,
)

INF, ZERO = Slope(1, 0), Slope(0, 1)

print("Intersections, closed form vs brute force")
pairs = [(INF, ZERO), (INF, Slope(2, 5)), (Slope(1, 3), Slope(2, 5)),
         (Slope(7, 3), Slope(5, 11)), (Slope(1, 40), Slope(2, 5))]
for a, b in pairs:
    cc = curve_curve_intersection(a, b)
    assert cc == brute_force_intersection(a, b, "curve-curve")
    ac = arc_curve_intersection(a, b)
    assert ac == brute_force_intersection(a, b, "arc-curve")
    print(f"  ({a}, {b}): curves meet {cc} times, arc-vs-curve {ac}")
print()

print("An arc of slope 1/0 meets the curve p/q exactly q times; this is")
print("why no compressing disk can cut through a coil region on q >= 3")
print("strands.")
for q in (3, 5, 8):
    p = q - 1
    print(f"  arc 1/0 vs curve {p}/{q}: {arc_curve_intersection(INF, Slope(p, q))}")
print()

print("Dehn twisting about 1/0 shifts slopes by integers and never")
print("changes intersection with the 1/0 curve:")
s = Slope(2, 5)
for m in (-2, -1, 0, 1, 2):
    t = reduce_slope(s.p + m * s.q, s.q)  # m full twists: p/q -> (p + mq)/q
    print(f"  twist^{m:+d}: {t}, i(1/0, .) = {curve_curve_intersection(INF, t)}")

with open("curves_2_5.svg", "w") as fh:
    fh.write(curve_svg(INF, Slope(2, 5)))
print()
print("Wrote curves_2_5.svg (the 1/0 curve and the 2/5 curve overlaid).")
