#!/usr/bin/env python3
"""Every diagram family, and the surgery relating them.

* two-bridge: the standard alternating plat of a continued fraction, one
  twist region per term (the leading term coalesces when a1 = 1);
* clasped two-bridge: same picture with the closing twists replaced by a
  clasp component; filling the clasp restores an alternating two-bridge
  diagram with one more twist region;
* augmented: the 3-component parent link of slope p/q -- the flat curve
  plus two crossing circles, 4q crossings;
* double coil: fill both circles with 1/n1, 1/n2 to coil the q strands,
  q(q-1)(|n1|+|n2|) crossings in exactly two generalized twist regions.
"""

from coilbounds import (
    CoilSpec,
    Slope,
    cfrac_expand,
    emit_pd,
    fill_crossing_circle,
    gen_augmented,
    gen_clasped_two_bridge,
    gen_double_coil,
    gen_two_bridge,
    render_svg,
)


def describe(name, d):
    print(
        f"  {name}: {d.n_crossings} crossings, {d.n_components} component(s), "
        f"{d.n_twist_regions} twist region(s), alternating={d.is_alternating()}"
    )


print("Two-bridge plats")
for text in ("2/5", "3/5", "5/13"):
    s = Slope.parse(text)
    c = cfrac_expand(s)
    describe(f"{s} = {c}", gen_two_bridge(c))
print()

print("The clasped 2/5 link and its fillings")
clasped = gen_clasped_two_bridge(Slope(2, 5))
describe("clasped 2/5", clasped)
for n in (1, -1, 3):
    filled = fill_crossing_circle(clasped, "clasp", n)
    describe(f"  clasp filled with {n:+d}", filled)
print()

print("From the parent link to the double coil, by explicit surgery")
aug = gen_augmented(Slope(2, 5))
describe("augmented 2/5", aug)
step1 = fill_crossing_circle(aug, "C1", 4)
describe("fill C1 with 4 twists", step1)
step2 = fill_crossing_circle(step1, "C2", 6)
describe("fill C2 with 6 twists", step2)
direct = gen_double_coil(CoilSpec(2, 5, 4, 6))
describe("direct (2,5,4,6) coil", direct)
assert step2.n_crossings == direct.n_crossings
assert step2.n_twist_regions == direct.n_twist_regions
print("  both routes agree.")
print()

print("The smallest coil is the figure-8 knot:")
fig8 = gen_double_coil(CoilSpec(1, 2, 1, 1))
describe("(1,2,1,1)", fig8)
print("  PD:", emit_pd(fig8))
print()

for name, d in [("augmented_2_5.svg", aug), ("coil_1_2_1_1.svg", fig8)]:
    with open(name, "w") as fh:
        fh.write(render_svg(d))
print()
print("Wrote augmented_2_5.svg and coil_1_2_1_1.svg.")
